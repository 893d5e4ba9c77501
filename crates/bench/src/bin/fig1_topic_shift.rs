//! Reproduces **Figure 1**: model performance degrades dramatically on
//! topics not seen during training (Chemmengath et al. \[4\], reproduced in
//! the paper's introduction as the motivation for unsupervised methods).
//!
//! For each topic of the WikiSQL-like corpus, a model is trained on the
//! other four topics and evaluated both in-domain (topics it saw) and on
//! the held-out topic.

// Reporting binary: stdout tables are the product.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use bench::print_table;
use corpora::{wikisql_like, CorpusConfig, TOPICS};
use models::{denotation_accuracy, QaModel};
use uctr::Sample;

fn denot(model: &QaModel, samples: &[Sample]) -> f64 {
    let pairs: Vec<(String, String)> = samples
        .iter()
        .filter_map(|s| Some((model.predict(s), s.label.as_answer()?.to_string())))
        .collect();
    denotation_accuracy(&pairs)
}

fn main() {
    let bench =
        wikisql_like(CorpusConfig { n_tables: 240, eval_per_table: 24, ..CorpusConfig::default() });
    let mut rows = Vec::new();
    let mut in_sum = 0.0;
    let mut out_sum = 0.0;
    // For each topic T, compare two models ON THE SAME dev slice (topic T):
    // one trained with T in the mix, one trained with T held out. The gap
    // isolates the topic-transfer effect (Chemmengath et al. [4]).
    for topic in TOPICS {
        let train_with: Vec<Sample> = bench.gold.train.to_vec();
        let train_without: Vec<Sample> =
            bench.gold.train.iter().filter(|s| s.topic != *topic).cloned().collect();
        let dev_topic: Vec<Sample> =
            bench.gold.dev.iter().filter(|s| s.topic == *topic).cloned().collect();
        let model_with = QaModel::train(&train_with);
        let model_without = QaModel::train(&train_without);
        let acc_in = denot(&model_with, &dev_topic);
        let acc_out = denot(&model_without, &dev_topic);
        in_sum += acc_in;
        out_sum += acc_out;
        rows.push(vec![
            topic.to_string(),
            format!("{acc_in:.1}"),
            format!("{acc_out:.1}"),
            format!("{:+.1}", acc_out - acc_in),
        ]);
    }
    let n = TOPICS.len() as f64;
    rows.push(vec![
        "mean".to_string(),
        format!("{:.1}", in_sum / n),
        format!("{:.1}", out_sum / n),
        format!("{:+.1}", (out_sum - in_sum) / n),
    ]);
    print_table(
        "Figure 1 — topic-transfer degradation (denotation accuracy)",
        &["Topic", "Topic seen in training", "Topic held out", "Delta"],
        &rows,
    );
    println!("\nExpected shape: accuracy drops on the held-out topic (paper Figure 1");
    println!("shows drops of roughly 10-25 points when testing on unseen topics).");
}
