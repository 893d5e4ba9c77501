//! Joint table-text fact checking (the FEVEROUS scenario): verify claims
//! that need evidence from BOTH a Wikipedia-style table and its surrounding
//! prose, using the Table-To-Text / Text-To-Table operators end-to-end.
//!
//! ```sh
//! cargo run --example fact_checking_wiki --release
//! ```

// Examples are demonstration entry points: println! is their output and unwrap/expect on known-good literals keeps them readable.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::print_stdout)]

use models::{retrieve_cells, EvidenceView, VerdictSpace, VerifierModel};
use tabular::Table;
use uctr::{EvidenceType, Sample, TableWithContext, UctrConfig, UctrPipeline, Verdict};

fn main() {
    let table = Table::from_strings(
        "Summer tournaments",
        &[
            vec!["tournament", "host city", "attendance", "teams"],
            vec!["Harbor Cup", "Oslo", "45000", "16"],
            vec!["Island Trophy", "Lima", "38000", "12"],
            vec!["Mountain Shield", "Kyiv", "51000", "20"],
        ],
    )
    .expect("rectangular grid");
    let paragraph = "The circuit expanded steadily. Coastal Classic has a host city of Porto, \
        an attendance of 29000 and a teams of 10. Sponsors renewed for another season.";

    // Generate joint table-text training data. Table splitting moves one
    // reasoning row into a sentence; table expansion integrates the Coastal
    // Classic record from the paragraph via Text-To-Table.
    let pipeline = UctrPipeline::new(UctrConfig::verification());
    let inputs = vec![TableWithContext {
        table: table.clone().into(),
        paragraph: Some(paragraph.to_string()),
        topic: "sports".into(),
    }];
    let synthetic = pipeline.generate(&inputs);
    let joint = synthetic.iter().filter(|s| s.evidence == EvidenceType::TableText).count();
    println!(
        "Synthesized {} claims ({} of them joint table-text). Examples:\n",
        synthetic.len(),
        joint
    );
    for s in synthetic.iter().filter(|s| s.evidence == EvidenceType::TableText).take(3) {
        println!("  [{}] {}", s.label.as_verdict().unwrap(), s.text);
        println!("     context: {}\n", s.context.join(" "));
    }

    let model = VerifierModel::train(&synthetic, VerdictSpace::TwoWay, EvidenceView::Full);

    // Verify claims that need both modalities, FEVEROUS-style: predict the
    // verdict AND retrieve the evidence cells.
    let mut claim = Sample::verification(
        table.clone(),
        "Mountain Shield has the highest attendance.",
        Verdict::Supported,
    );
    claim.context = tabular::text::split_sentences(paragraph);
    let verdict = model.predict(&claim);
    let evidence = retrieve_cells(&claim);
    println!("Claim: {}", claim.text);
    println!("  verdict:   {verdict}");
    println!("  retrieved evidence cells:");
    for (r, c) in evidence.iter().take(5) {
        println!(
            "    ({r},{c}) {} = {}",
            claim.table.column_name(*c).unwrap_or("?"),
            claim.table.cell(*r, *c).map(|v| v.to_string()).unwrap_or_default()
        );
    }
}
