//! Reproduces **Figure 5**: synthetic data vs. labeled data on TAT-QA —
//! F1 as a function of the number of labeled samples, with and without
//! pretraining on UCTR's synthetic data.
//!
//! Paper findings: (i) the synthetic-pretrained curve dominates everywhere;
//! (ii) pure synthetic training (~42 F1) is worth about 1,000 labeled
//! samples; (iii) synthetic + 1,000 labels reaches the level of ~13,217
//! labels alone.

// Reporting binary: stdout tables are the product.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use bench::{few_shot, print_table, qa_em_f1};
use corpora::{tatqa_like, CorpusConfig};
use models::{QaModel, TrainConfig};
use uctr::{UctrConfig, UctrPipeline};

fn main() {
    let bench = tatqa_like(CorpusConfig {
        n_tables: 140,
        train_per_table: 10,
        eval_per_table: 3,
        seed: 2023,
    });
    let dev = &bench.gold.dev;
    let synth = UctrPipeline::new(UctrConfig::qa()).generate(&bench.unlabeled);
    println!(
        "TAT-QA-like: {} gold train, {} dev; {} synthetic samples",
        bench.gold.train.len(),
        dev.len(),
        synth.len()
    );

    let budgets = [0usize, 50, 100, 200, 500, 1000, bench.gold.train.len()];
    let mut rows = Vec::new();
    for &n in &budgets {
        let labeled = few_shot(&bench.gold.train, n);
        // Blue curve: labeled data only.
        let (_, f1_labeled) =
            if n == 0 { (0.0, 0.0) } else { qa_em_f1(&QaModel::train(&labeled), dev) };
        // Orange curve: synthetic pretraining + labeled fine-tuning.
        let mut pretrained = QaModel::train(&synth);
        if n > 0 {
            pretrained.fine_tune(&labeled, TrainConfig { epochs: 4, ..TrainConfig::default() });
        }
        let (_, f1_pre) = qa_em_f1(&pretrained, dev);
        rows.push(vec![
            n.to_string(),
            format!("{f1_labeled:.1}"),
            format!("{f1_pre:.1}"),
            format!("{:+.1}", f1_pre - f1_labeled),
        ]);
    }
    print_table(
        "Figure 5 — F1 vs number of labeled samples (TAT-QA dev)",
        &["#labeled", "labeled only", "synthetic + labeled", "gain"],
        &rows,
    );
    println!("\nExpected shape: the synthetic-pretrained curve dominates at every budget,");
    println!("with the largest gains at small budgets; the curves converge as labels grow.");
}
