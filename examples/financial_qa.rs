//! Financial question answering over hybrid table + text evidence — the
//! TAT-QA scenario that motivates UCTR's arithmetic programs and joint
//! table-text operators.
//!
//! ```sh
//! cargo run --example financial_qa --release
//! ```

// Examples are demonstration entry points: println! is their output and unwrap/expect on known-good literals keeps them readable.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::print_stdout)]

use models::QaModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tabular::Table;
use uctr::{Sample, TableWithContext, UctrConfig, UctrPipeline};

fn main() {
    // A financial-report table with its surrounding text (the paragraph
    // carries a record that is NOT in the table, so joint reasoning and the
    // Text-To-Table operator both matter).
    let table = Table::from_strings(
        "Consolidated statements",
        &[
            vec!["item", "2019", "2018"],
            vec!["Revenue", "8800", "8000"],
            vec!["Operating costs", "6100", "5900"],
            vec!["Stockholders' equity", "3200", "4000"],
            vec!["Net income", "1400", "1250"],
        ],
    )
    .expect("rectangular grid");
    let paragraph = "The fiscal year closed without restatements. \
        Deferred revenue has a 2019 of 940 and a 2018 of 860. \
        Auditors signed off in March.";

    // Synthesize QA training data: SQL programs for span questions,
    // arithmetic expressions (FinQA-style) for numeracy, table splitting
    // and expansion for joint table-text samples.
    let pipeline = UctrPipeline::new(UctrConfig::qa());
    let mut rng = StdRng::seed_from_u64(5);
    let mut inputs = vec![TableWithContext {
        table: table.clone().into(),
        paragraph: Some(paragraph.to_string()),
        topic: "finance".into(),
    }];
    for _ in 0..40 {
        let t = corpora::finance_table(&mut rng);
        let p = corpora::surrounding_text(&t, &mut rng);
        inputs.push(TableWithContext {
            table: t.into(),
            paragraph: Some(p),
            topic: "finance".into(),
        });
    }
    let synthetic = pipeline.generate(&inputs);
    println!("Synthesized {} QA samples. A few of them:\n", synthetic.len());
    for s in synthetic.iter().take(6) {
        println!("  Q: {}", s.text);
        println!("  A: {}   [evidence: {}]\n", s.label.as_answer().unwrap(), s.evidence);
    }

    // Train the TAGOP-style QA model on the synthetic data only.
    let model = QaModel::train(&synthetic);

    // Ask real questions.
    let questions = [
        "What was the percentage change in Stockholders' equity from 2018 to 2019?",
        "What was the difference between Revenue and Operating costs in 2019?",
        "Was the Net income in 2019 greater than the Net income in 2018?",
        "What is the total of all values in the 2019 column?",
    ];
    println!("Answering questions with the unsupervised model:");
    for q in questions {
        let sample = Sample::qa(table.clone(), q, "");
        let mut sample = sample;
        sample.context = vec![paragraph.to_string()];
        let answer = model.predict(&sample);
        println!("  Q: {q}\n  A: {answer}\n");
    }
}
