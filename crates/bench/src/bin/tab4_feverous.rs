//! Reproduces **Table IV**: results on FEVEROUS (label accuracy on dev,
//! FEVEROUS score on dev and test).
//!
//! Paper reference values: Sentence-only 81.1 acc / 19.0 FS, Table-only
//! 81.6 / 19.1, Full baseline 86.0 / 20.2 (19.2 test); Random 47.0 / 14.1
//! (13.2), MQA-QG 71.1 / 17.6 (16.4), UCTR 74.8 / 18.3 (17.0); few-shot
//! Full 67.3 / 14.2 (13.3), Full+UCTR 75.5 / 17.4 (16.4).

// Reporting binary: stdout tables are the product.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use bench::{few_shot, pretrain_finetune_verifier, print_table, verifier_feverous};
use corpora::{feverous_like, CorpusConfig};
use models::{label_accuracy, EvidenceView, RandomVerifier, VerdictSpace, VerifierModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use uctr::{generate_mqaqg, MqaQgConfig, Sample, UctrConfig, UctrPipeline, Verdict};

/// FEVEROUS practice (paper §V-B, following Malon \[35\]): the tiny NEI slice
/// is dropped and the model predicts Supported/Refuted only.
fn drop_nei(samples: &[Sample]) -> Vec<Sample> {
    samples.iter().filter(|s| s.label.as_verdict() != Some(Verdict::Unknown)).cloned().collect()
}

fn row(name: &str, model: &VerifierModel, dev: &[Sample], test: &[Sample]) -> Vec<String> {
    let (acc, fs_dev) = verifier_feverous(model, dev);
    let (_, fs_test) = verifier_feverous(model, test);
    vec![name.to_string(), format!("{acc:.1}"), format!("{fs_dev:.1}"), format!("{fs_test:.1}")]
}

fn main() {
    let bench = feverous_like(CorpusConfig::default());
    let train = drop_nei(&bench.gold.train);
    let dev = drop_nei(&bench.gold.dev);
    let test = drop_nei(&bench.gold.test);
    println!(
        "FEVEROUS-like benchmark: {} train / {} dev / {} test (NEI dropped), {} unlabeled tables",
        train.len(),
        dev.len(),
        test.len(),
        bench.unlabeled.len()
    );

    // Supervised baselines.
    let sentence_only =
        VerifierModel::train(&train, VerdictSpace::TwoWay, EvidenceView::SentenceOnly);
    let table_only = VerifierModel::train(&train, VerdictSpace::TwoWay, EvidenceView::TableOnly);
    let full = VerifierModel::train(&train, VerdictSpace::TwoWay, EvidenceView::Full);

    // Unsupervised.
    let mut rng = StdRng::seed_from_u64(4);
    let random = RandomVerifier::new(VerdictSpace::TwoWay);
    let random_acc = 100.0 * random.accuracy(&dev, &mut rng);
    let random_preds: Vec<Verdict> = dev.iter().map(|_| random.predict(&mut rng)).collect();
    let random_fs_dev = models::feverous_score(&dev, &random_preds);
    let random_preds_test: Vec<Verdict> = test.iter().map(|_| random.predict(&mut rng)).collect();
    let random_fs_test = models::feverous_score(&test, &random_preds_test);

    let mqa_data = generate_mqaqg(&bench.unlabeled, &MqaQgConfig::verification());
    let mqaqg = VerifierModel::train(&mqa_data, VerdictSpace::TwoWay, EvidenceView::Full);
    let uctr_data = UctrPipeline::new(UctrConfig::verification()).generate(&bench.unlabeled);
    let uctr_model = VerifierModel::train(&uctr_data, VerdictSpace::TwoWay, EvidenceView::Full);

    // Few-shot.
    let shots = few_shot(&train, 50);
    let full_few = VerifierModel::train(&shots, VerdictSpace::TwoWay, EvidenceView::Full);
    let full_uctr = pretrain_finetune_verifier(&uctr_data, &shots, VerdictSpace::TwoWay);

    let header = ["Model", "Dev Accuracy", "Dev FEVEROUS Score", "Test FEVEROUS Score"];
    let rows = vec![
        row("Supervised: Sentence-only (paper 81.1/19.0/18.5)", &sentence_only, &dev, &test),
        row("Supervised: Table-only    (paper 81.6/19.1/17.9)", &table_only, &dev, &test),
        row("Supervised: Full baseline (paper 86.0/20.2/19.2)", &full, &dev, &test),
        vec![
            "Unsup: Random             (paper 47.0/14.1/13.2)".to_string(),
            format!("{random_acc:.1}"),
            format!("{random_fs_dev:.1}"),
            format!("{random_fs_test:.1}"),
        ],
        row("Unsup: MQA-QG             (paper 71.1/17.6/16.4)", &mqaqg, &dev, &test),
        row("Unsup: UCTR (ours)        (paper 74.8/18.3/17.0)", &uctr_model, &dev, &test),
        row("Few-shot: Full baseline   (paper 67.3/14.2/13.3)", &full_few, &dev, &test),
        row("Few-shot: Full+UCTR       (paper 75.5/17.4/16.4)", &full_uctr, &dev, &test),
    ];
    print_table("Table IV — FEVEROUS (accuracy / FEVEROUS score)", &header, &rows);
    let _ = label_accuracy(&[]);
    println!(
        "\nSynthetic data: UCTR {} samples, MQA-QG {} (paper: 79,856 UCTR samples).",
        uctr_data.len(),
        mqa_data.len()
    );
}
