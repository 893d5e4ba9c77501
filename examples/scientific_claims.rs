//! Scientific fact verification (the SEM-TAB-FACTS scenario): 3-way
//! verdicts over tables from scientific articles, including "Unknown" for
//! claims the table cannot decide.
//!
//! ```sh
//! cargo run --example scientific_claims --release
//! ```

// Examples are demonstration entry points: println! is their output and expect on known-good literals keeps them readable.
#![allow(clippy::expect_used, clippy::print_stdout)]

use models::{EvidenceView, VerdictSpace, VerifierModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tabular::Table;
use uctr::{Sample, TableWithContext, UctrConfig, UctrPipeline, Verdict};

fn main() {
    let table = Table::from_strings(
        "Material properties",
        &[
            vec!["material", "density", "melting point", "tensile strength"],
            vec!["PLA", "1.24", "180", "50"],
            vec!["ABS", "1.05", "220", "40"],
            vec!["PETG", "1.27", "245", "53"],
            vec!["Nylon", "1.14", "268", "78"],
            vec!["Kevlar", "1.44", "560", "360"],
        ],
    )
    .expect("rectangular grid");

    // Synthesize 3-way training data (Supported / Refuted / Unknown) over
    // this table plus more unlabeled science tables from the same domain.
    let mut rng = StdRng::seed_from_u64(11);
    let mut unlabeled = vec![TableWithContext::bare(table.clone())];
    for _ in 0..40 {
        unlabeled.push(TableWithContext::bare(corpora::science_table(&mut rng)));
    }
    let pipeline = UctrPipeline::new(UctrConfig {
        unknown_rate: 0.08,
        samples_per_table: 12,
        ..UctrConfig::verification()
    });
    let synthetic = pipeline.generate(&unlabeled);
    let counts = |v: Verdict| synthetic.iter().filter(|s| s.label.as_verdict() == Some(v)).count();
    println!(
        "Synthesized {} claims: {} Supported, {} Refuted, {} Unknown\n",
        synthetic.len(),
        counts(Verdict::Supported),
        counts(Verdict::Refuted),
        counts(Verdict::Unknown),
    );

    let model = VerifierModel::train(&synthetic, VerdictSpace::ThreeWay, EvidenceView::Full);

    let claims = [
        "Kevlar has the highest tensile strength.",
        "There are 2 rows whose density is more than 1.25.",
        "ABS has the highest melting point.",
        "Most of the rows have a melting point above 200.",
        "The average density is 1.23.",
    ];
    println!("Verifying claims against the table:");
    for claim in claims {
        let s = Sample::verification(table.clone(), claim, Verdict::Supported);
        println!("  [{:>9}] {claim}", model.predict(&s).to_string());
    }

    // A claim about an entity the table does not cover.
    let off_table = Sample::verification(
        table.clone(),
        "Graphene sheets exhibit a thermal conductivity of 5300.",
        Verdict::Unknown,
    );
    println!(
        "  [{:>9}] Graphene sheets exhibit a thermal conductivity of 5300. (not in table)",
        model.predict(&off_table).to_string()
    );
}
