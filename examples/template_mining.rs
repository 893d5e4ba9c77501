//! Template mining: extend the built-in program-template bank with new
//! templates abstracted from concrete programs (paper §IV-B), then use the
//! enlarged bank in the pipeline.
//!
//! ```sh
//! cargo run --example template_mining --release
//! ```

// Examples are demonstration entry points: println! is their output and unwrap/expect on known-good literals keeps them readable.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::print_stdout)]

use tabular::Table;
use uctr::{KindSlot, Miner, TableWithContext, TemplateBank, UctrConfig, UctrPipeline};

fn main() {
    let table = Table::from_strings(
        "Departments",
        &[
            vec!["department", "secretary", "total deputies", "budget"],
            vec!["Commerce", "Ada Bergman", "18", "500"],
            vec!["Defense", "Hugo Castro", "42", "9000"],
            vec!["Treasury", "Mira Novak", "30", "3000"],
            vec!["Energy", "Sven Okafor", "12", "700"],
        ],
    )
    .expect("rectangular grid");

    let builtin = TemplateBank::builtin();
    let before = builtin.len();
    println!(
        "Built-in bank: {} templates ({} SQL / {} logic / {} arithmetic)",
        before,
        builtin.sql().len(),
        builtin.logic().len(),
        builtin.arith().len()
    );

    // Each concrete program is parsed, checked against the miner's per-kind
    // cost cap, abstracted (column names and compared constants become
    // typed placeholders), analyzed, and deduplicated against the bank.
    let mut miner = Miner::with_bank(builtin);
    let programs = [
        // A novel shape: mined.
        (KindSlot::Sql, "select [department] from w where [total deputies] >= 20"),
        // Same structure with other columns and constants: filtered as a
        // duplicate (the paper's redundancy filtration).
        (KindSlot::Sql, "select [secretary] from w where [budget] >= 600"),
        // Two WHERE atoms exceed the SQL cost cap of one.
        (KindSlot::Sql, "select [secretary] from w where [budget] > 600 and [total deputies] < 40"),
        // Six operator applications exceed the logic cost cap of two.
        (
            KindSlot::Logic,
            "and { eq { count { filter_greater { all_rows ; budget ; 600 } } ; 2 } ; \
             only { filter_less { all_rows ; total deputies ; 15 } } }",
        ),
        // The percentage-change program, already a builtin template.
        (
            KindSlot::Arith,
            "subtract( the budget of Defense , the budget of Treasury ) , \
             divide( #0 , the budget of Treasury )",
        ),
    ];
    for (kind, text) in programs {
        let outcome = miner.mine_program(kind, text, &table);
        println!("\n{}: {text}\n  -> {outcome:?}", kind.name());
    }
    let bank = miner.into_bank();
    println!("\nBank after mining: {} templates (+{})", bank.len(), bank.len() - before);

    // Use the enlarged bank in the pipeline.
    let pipeline = UctrPipeline::new(UctrConfig::qa()).with_bank(bank);
    let samples = pipeline.generate(&[TableWithContext::bare(table)]);
    println!("\nGenerated {} samples with the extended bank; a few:", samples.len());
    for s in samples.iter().take(4) {
        println!("  Q: {}\n  A: {}", s.text, s.label.as_answer().unwrap_or("-"));
    }
}
