//! Reproduces **Table V**: SEM-TAB-FACTS (3-way micro F1 on dev and test).
//!
//! Paper reference values: TAPAS supervised 66.7/62.4; Random 33.3/33.3,
//! MQA-QG 53.2/50.4, TAPAS-Transfer 59.0/58.7, UCTR 62.6/60.3; few-shot
//! TAPAS 48.6/46.5, TAPAS+UCTR 62.4/60.1.

// Reporting binary: stdout tables are the product.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use bench::{few_shot, pretrain_finetune_verifier, print_table, verifier_micro_f1};
use corpora::{feverous_like, semtab_like, CorpusConfig};
use models::{EvidenceView, RandomVerifier, VerdictSpace, VerifierModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use uctr::{generate_mqaqg, MqaQgConfig, UctrConfig, UctrPipeline};

fn row(
    name: &str,
    model: &VerifierModel,
    dev: &[uctr::Sample],
    test: &[uctr::Sample],
) -> Vec<String> {
    vec![
        name.to_string(),
        format!("{:.1}", verifier_micro_f1(model, dev)),
        format!("{:.1}", verifier_micro_f1(model, test)),
    ]
}

fn main() {
    let bench = semtab_like(CorpusConfig::default());
    let dev = &bench.gold.dev;
    let test = &bench.gold.test;
    println!(
        "SEM-TAB-FACTS-like benchmark: {} train / {} dev / {} test, {} unlabeled tables",
        bench.gold.train.len(),
        dev.len(),
        test.len(),
        bench.unlabeled.len()
    );

    // Supervised TAPAS.
    let tapas = VerifierModel::train(&bench.gold.train, VerdictSpace::ThreeWay, EvidenceView::Full);

    // Unsupervised baselines.
    let mut rng = StdRng::seed_from_u64(5);
    let random = RandomVerifier::new(VerdictSpace::ThreeWay);
    let random_dev = 100.0 * random.accuracy(dev, &mut rng);
    let random_test = 100.0 * random.accuracy(test, &mut rng);

    let mqa_data = generate_mqaqg(&bench.unlabeled, &MqaQgConfig::verification());
    let mqaqg = VerifierModel::train(&mqa_data, VerdictSpace::ThreeWay, EvidenceView::Full);

    // TAPAS-Transfer: trained on the large general-domain corpus (our
    // FEVEROUS-like stands in for TABFACT) and applied directly. TABFACT is
    // 2-way, so the transferred model can never predict Unknown — the
    // paper's stated limitation of transfer learning here.
    let general = feverous_like(CorpusConfig::default());
    let transfer =
        VerifierModel::train(&general.gold.train, VerdictSpace::TwoWay, EvidenceView::Full);

    // SEM-TAB-FACTS is the smallest corpus; like the paper (4,071 samples
    // from 1,085 tables) we sample each table more heavily.
    let uctr_data = UctrPipeline::new(UctrConfig {
        unknown_rate: 0.06,
        samples_per_table: 24,
        ..UctrConfig::verification()
    })
    .generate(&bench.unlabeled);
    let uctr_model = VerifierModel::train(&uctr_data, VerdictSpace::ThreeWay, EvidenceView::Full);

    // Few-shot.
    let shots = few_shot(&bench.gold.train, 50);
    let tapas_few = VerifierModel::train(&shots, VerdictSpace::ThreeWay, EvidenceView::Full);
    let tapas_uctr = pretrain_finetune_verifier(&uctr_data, &shots, VerdictSpace::ThreeWay);

    let header = ["Model", "Dev micro-F1", "Test micro-F1"];
    let rows = vec![
        row("Supervised: TAPAS      (paper 66.7/62.4)", &tapas, dev, test),
        vec![
            "Unsup: Random          (paper 33.3/33.3)".to_string(),
            format!("{random_dev:.1}"),
            format!("{random_test:.1}"),
        ],
        row("Unsup: MQA-QG          (paper 53.2/50.4)", &mqaqg, dev, test),
        row("Unsup: TAPAS-Transfer  (paper 59.0/58.7)", &transfer, dev, test),
        row("Unsup: UCTR (ours)     (paper 62.6/60.3)", &uctr_model, dev, test),
        row("Few-shot: TAPAS        (paper 48.6/46.5)", &tapas_few, dev, test),
        row("Few-shot: TAPAS+UCTR   (paper 62.4/60.1)", &tapas_uctr, dev, test),
    ];
    print_table("Table V — SEM-TAB-FACTS (3-way micro F1)", &header, &rows);
    println!(
        "\nSynthetic data: UCTR {} samples, MQA-QG {} (paper: 4,071 UCTR samples).",
        uctr_data.len(),
        mqa_data.len()
    );
}
