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
use uctr::{TableWithContext, TemplateBank, UctrConfig, UctrPipeline};

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

    let mut bank = TemplateBank::builtin();
    let before = bank.len();
    println!(
        "Built-in bank: {} templates ({} SQL / {} logic / {} arithmetic)",
        before,
        bank.sql().len(),
        bank.logic().len(),
        bank.arith().len()
    );

    // Mine a new SQL template from a concrete query: the column names and
    // compared constants are abstracted to typed placeholders.
    let query =
        sqlexec::parse("select [secretary] from w where [budget] > 600 and [total deputies] < 40")
            .unwrap();
    let added = bank.mine_sql(&query, &table);
    println!("\nMined from: {query}");
    println!("  new template added: {added}");
    println!("  signature: {}", sqlexec::abstract_query(&query, &table).signature());

    // Mining the same logic structure again is rejected (the paper's
    // redundancy filtration).
    let similar = sqlexec::parse(
        "select [department] from w where [total deputies] > 20 and [budget] < 5000",
    )
    .unwrap();
    let added_again = bank.mine_sql(&similar, &table);
    println!("\nMined structurally identical query: added = {added_again} (deduplicated)");

    // Mine a logical form and an arithmetic program.
    let claim = logicforms::parse(
        "and { eq { count { filter_greater { all_rows ; budget ; 600 } } ; 2 } ; only { filter_less { all_rows ; total deputies ; 15 } } }",
    )
    .unwrap();
    bank.mine_logic(&claim);
    let arith = arithexpr::parse(
        "subtract( the budget of Defense , the budget of Treasury ) , divide( #0 , the budget of Treasury )",
    )
    .unwrap();
    bank.mine_arith(&arith);
    println!("\nBank after mining: {} templates (+{})", bank.len(), bank.len() - before);

    // Use the enlarged bank in the pipeline.
    let pipeline = UctrPipeline::new(UctrConfig::qa()).with_bank(bank);
    let samples = pipeline.generate(&[TableWithContext::bare(table)]);
    println!("\nGenerated {} samples with the extended bank; a few:", samples.len());
    for s in samples.iter().take(4) {
        println!("  Q: {}\n  A: {}", s.text, s.label.as_answer().unwrap_or("-"));
    }
}
