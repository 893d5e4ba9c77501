//! Reproduces **Table VI**: WikiSQL denotation accuracy (dev and test).
//!
//! Paper reference values: TAPAS 85.1/83.6, TAPEX 88.1/87.0 supervised;
//! TAPEX no-fine-tuning 21.4/21.8, MQA-QG 57.8/57.2, UCTR 62.2/61.6;
//! few-shot TAPEX 53.8/52.9, TAPEX+UCTR 62.3/61.6.

// Reporting binary: stdout tables are the product.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use bench::{few_shot, pretrain_finetune_qa, print_table};
use corpora::{wikisql_like, CorpusConfig};
use models::{denotation_accuracy, CandidateSpace, QaModel, TrainConfig};
use uctr::{generate_mqaqg, MqaQgConfig, Sample, UctrConfig, UctrPipeline};

fn denot(model: &QaModel, samples: &[Sample]) -> f64 {
    let pairs: Vec<(String, String)> = samples
        .iter()
        .filter_map(|s| Some((model.predict(s), s.label.as_answer()?.to_string())))
        .collect();
    denotation_accuracy(&pairs)
}

fn row(name: &str, model: &QaModel, dev: &[Sample], test: &[Sample]) -> Vec<String> {
    vec![
        name.to_string(),
        format!("{:.1}", denot(model, dev)),
        format!("{:.1}", denot(model, test)),
    ]
}

fn main() {
    let bench = wikisql_like(CorpusConfig::default());
    let dev = &bench.gold.dev;
    let test = &bench.gold.test;
    println!(
        "WikiSQL-like benchmark: {} train / {} dev / {} test, {} unlabeled tables",
        bench.gold.train.len(),
        dev.len(),
        test.len(),
        bench.unlabeled.len()
    );

    // Supervised: TAPAS (cell-selection space) and TAPEX (full).
    let tapas = QaModel::train_in_space(
        &bench.gold.train,
        TrainConfig { epochs: 8, ..TrainConfig::default() },
        CandidateSpace::CellsAndAggs,
    );
    let tapex = QaModel::train(&bench.gold.train);

    // Unsupervised: TAPEX without fine-tuning, MQA-QG, UCTR (SQL programs,
    // per §V-B WikiSQL uses SQL queries only).
    let tapex_raw = QaModel::untrained();
    let mqa_data = generate_mqaqg(&bench.unlabeled, &MqaQgConfig::qa());
    let mqaqg = QaModel::train(&mqa_data);
    // The paper generates 27k synthetic samples for WikiSQL; sample each
    // unlabeled table heavily.
    let uctr_data = UctrPipeline::new(UctrConfig {
        use_arith: false,
        samples_per_table: 24,
        ..UctrConfig::qa()
    })
    .generate(&bench.unlabeled);
    let uctr_model = QaModel::train(&uctr_data);

    // Few-shot.
    let shots = few_shot(&bench.gold.train, 50);
    let tapex_few = QaModel::train(&shots);
    let tapex_uctr = pretrain_finetune_qa(&uctr_data, &shots);

    let header = ["Model", "Dev denotation acc", "Test denotation acc"];
    let rows = vec![
        row("Supervised: TAPAS        (paper 85.1/83.6)", &tapas, dev, test),
        row("Supervised: TAPEX        (paper 88.1/87.0)", &tapex, dev, test),
        row("Unsup: TAPEX (no train)  (paper 21.4/21.8)", &tapex_raw, dev, test),
        row("Unsup: MQA-QG            (paper 57.8/57.2)", &mqaqg, dev, test),
        row("Unsup: UCTR (ours)       (paper 62.2/61.6)", &uctr_model, dev, test),
        row("Few-shot: TAPEX          (paper 53.8/52.9)", &tapex_few, dev, test),
        row("Few-shot: TAPEX+UCTR     (paper 62.3/61.6)", &tapex_uctr, dev, test),
    ];
    print_table("Table VI — WikiSQL (denotation accuracy)", &header, &rows);
    println!(
        "\nSynthetic data: UCTR {} samples, MQA-QG {} (paper: 27,365 UCTR samples).",
        uctr_data.len(),
        mqa_data.len()
    );
}
