//! Reproduces **Table IX**: example generated text per program type —
//! program, NL-Generator output, and a gold-style (annotator) rendering of
//! the same program for comparison.

// Reporting binary: stdout tables are the product.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use corpora::annotator;
use nlgen::{NlGenerator, NlScratch, NoiseConfig, ProgramRef};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let generator = NlGenerator::new().with_noise(NoiseConfig::off());
    let noisy = NlGenerator::new().with_noise(NoiseConfig { sentence_rate: 1.0 });
    let mut rng = StdRng::seed_from_u64(9);
    let mut scratch = NlScratch::default();

    println!("=== Table IX — generated text from programs ===\n");

    // --- SQL query (paper row 1) ---
    let sql = "select [department] from w order by [total deputies] desc limit 1";
    let stmt = sqlexec::parse(sql).unwrap();
    println!("Type: SQL Query");
    println!("  Program:   {stmt}");
    let text = generator.verbalize(ProgramRef::Sql(&stmt), &mut rng, &mut scratch);
    println!("  Generated: {text}");
    println!("  Gold-style: {}", annotator::human_sql_question(&stmt, &mut rng));
    println!("  (paper generated: \"Which department has the most total deputies?\")\n");

    // --- Logical form (paper row 2) ---
    let lf = "eq { count { filter_eq { all_rows ; material ; Basic Printer } } ; 3 }";
    let expr = logicforms::parse(lf).unwrap();
    println!("Type: Logical Form");
    println!("  Program:   {expr}");
    let text = generator.verbalize(ProgramRef::Logic(&expr), &mut rng, &mut scratch);
    println!("  Generated: {text}");
    println!("  Gold-style: {}", annotator::human_logic_claim(&expr, &mut rng));
    println!("  (paper generated: \"There are 3 basic printer settings that can be used ...\")\n");

    // --- Arithmetic expression (paper row 3) ---
    let ae = "subtract( the 2019 of Stockholders' equity , the 2018 of Stockholders' equity ), divide( #0 , the 2018 of Stockholders' equity )";
    let program = arithexpr::parse(ae).unwrap();
    println!("Type: Arithmetic Expression");
    println!("  Program:   {program}");
    let text = generator.verbalize(ProgramRef::Arith(&program), &mut rng, &mut scratch);
    println!("  Generated: {text}");
    println!("  Gold-style: {}", annotator::human_arith_question(&program, &mut rng));
    println!("  (paper generated: \"By what percentage did stockholders' equity decrease from 2018 to 2019?\")\n");

    // --- The noise channel reproducing the paper's observed generation errors ---
    println!("Noise-channel examples (paper §V-F: generated text sometimes loses or");
    println!("garbles information):");
    for _ in 0..3 {
        println!("  {}", noisy.verbalize(ProgramRef::Sql(&stmt), &mut rng, &mut scratch));
    }
}
