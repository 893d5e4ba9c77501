//! Auto program generation (the paper's stated future work): learn the
//! template distribution from the built-in bank, synthesize novel validated
//! logical-form templates, and use the extended bank in the pipeline.
//!
//! ```sh
//! cargo run --example auto_templates --release
//! ```

// Examples are demonstration entry points: println! is their output and expect on known-good literals keeps them readable.
#![allow(clippy::expect_used, clippy::print_stdout)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use tabular::{ExecContext, Table};
use uctr::{AutoGenerator, TableWithContext, TemplateBank, UctrConfig, UctrPipeline};

fn main() {
    let probe = Table::from_strings(
        "probe",
        &[
            vec!["team", "city", "points", "wins"],
            vec!["Reds", "Oslo", "77", "21"],
            vec!["Blues", "Lima", "64", "18"],
            vec!["Greens", "Kyiv", "81", "24"],
            vec!["Golds", "Quito", "59", "15"],
            vec!["Silvers", "Porto", "70", "19"],
        ],
    )
    .expect("rectangular grid");

    // 1. Fit the proposal distribution on the built-in template bank.
    let bank = TemplateBank::builtin();
    let mut generator = AutoGenerator::fit(bank.logic());
    println!("Seed corpus: {} logical-form templates.\n", bank.logic().len());

    // 2. Synthesize novel templates; each is validated by instantiating a
    //    Supported AND a Refuted claim on the probe table.
    let mut existing = bank.logic().iter().map(|t| t.signature()).collect();
    let mut rng = StdRng::seed_from_u64(2024);
    let novel = generator.generate(8, &probe, &mut existing, &mut rng);
    println!("Synthesized {} validated novel templates:", novel.len());
    for t in &novel {
        println!("  [{}] {}", t.logic_type(), t.signature());
    }

    // 3. Show a claim each template generates.
    println!("\nClaims instantiated from the novel templates:");
    let nl = nlgen::NlGenerator::new().with_noise(nlgen::NoiseConfig::off());
    let ctx = ExecContext::new(&probe);
    let mut scratch = logicforms::LfScratch::default();
    let mut nl_scratch = nlgen::NlScratch::default();
    for t in novel.iter().take(4) {
        if let Ok(claim) = t.try_instantiate(&probe, &ctx, &mut rng, true, &mut scratch) {
            let text =
                nl.verbalize(nlgen::ProgramRef::Logic(&claim.expr), &mut rng, &mut nl_scratch);
            println!("  [Supported] {text}");
        }
    }

    // 4. Run the pipeline with the extended bank.
    let mut extended = TemplateBank::builtin();
    for t in novel {
        extended.add_logic(t);
    }
    let pipeline = UctrPipeline::new(UctrConfig::verification()).with_bank(extended);
    let samples = pipeline.generate(&[TableWithContext::bare(probe)]);
    println!(
        "\nPipeline with the extended bank produced {} labeled claims from one table.",
        samples.len()
    );
}
