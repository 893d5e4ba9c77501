//! Quickstart: generate labeled tabular-reasoning data from one unlabeled
//! table with the UCTR pipeline, then train and use a verifier.
//!
//! ```sh
//! cargo run --example quickstart --release
//! ```

// Examples are demonstration entry points: println! is their output and unwrap/expect on known-good literals keeps them readable.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::print_stdout)]

use models::{EvidenceView, VerdictSpace, VerifierModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tabular::Table;
use uctr::{Sample, TableWithContext, UctrConfig, UctrPipeline, Verdict};

fn main() {
    // 1. An unlabeled table — the only input UCTR needs.
    let table = Table::from_strings(
        "League standings",
        &[
            vec!["team", "city", "points", "wins"],
            vec!["Red Lions", "Oslo", "77", "21"],
            vec!["Blue Sharks", "Lima", "64", "18"],
            vec!["Golden Hawks", "Kyiv", "81", "24"],
            vec!["Iron Wolves", "Quito", "59", "15"],
        ],
    )
    .expect("rectangular grid");

    // 2. UCTR exploits unlabeled table *resources*: add more unlabeled
    //    tables from the same domain (here generated; in practice scraped)
    //    and run the pipeline — program sampling -> execution -> NL
    //    generation -> table splitting.
    let mut rng = StdRng::seed_from_u64(7);
    let mut unlabeled = vec![TableWithContext::bare(table.clone())];
    for _ in 0..40 {
        unlabeled.push(TableWithContext::bare(corpora::wiki_table("sports", &mut rng)));
    }
    let pipeline = UctrPipeline::new(UctrConfig::verification());
    let samples: Vec<Sample> = pipeline.generate(&unlabeled);
    println!(
        "UCTR synthesized {} labeled claims from {} unlabeled tables.\n",
        samples.len(),
        unlabeled.len()
    );
    for s in samples.iter().take(5) {
        println!("  [{:?}] {}", s.label.as_verdict().unwrap(), s.text);
    }

    // 3. Train a fact-verification model on the synthetic data — no human
    //    labels involved.
    let model = VerifierModel::train(&samples, VerdictSpace::TwoWay, EvidenceView::Full);

    // 4. Verify new claims against the table.
    let claims = [
        ("Golden Hawks has the highest points.", Verdict::Supported),
        ("Iron Wolves has the highest points.", Verdict::Refuted),
        ("There are 2 rows whose points is more than 70.", Verdict::Supported),
    ];
    println!("\nVerifying unseen claims:");
    let mut correct = 0;
    for (claim, expected) in claims {
        let s = Sample::verification(table.clone(), claim, expected);
        let predicted = model.predict(&s);
        let mark = if predicted == expected { "ok " } else { "MISS" };
        println!("  [{mark}] {claim}  ->  predicted {predicted}, expected {expected}");
        if predicted == expected {
            correct += 1;
        }
    }
    println!(
        "\n{correct}/{} claims verified correctly by a model that never saw a human label.",
        claims.len()
    );
}
