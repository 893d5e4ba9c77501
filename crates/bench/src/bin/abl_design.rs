//! Design-choice ablations (DESIGN.md §13): the knobs that are not in the
//! paper's Table VIII but shape the reproduction's own design — the noise
//! channel's rate, the fluency-reranker's n-gram order, the synthetic data
//! volume per table, and the auto-generated template bank (the paper's
//! future-work extension).
//!
//! Each row reports SEM-TAB-FACTS-like dev micro-F1 of a verifier trained
//! on the correspondingly-configured synthetic data.

// Reporting binary: stdout tables are the product.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use bench::{print_table, verifier_micro_f1};
use corpora::{semtab_like, CorpusConfig};
use models::{EvidenceView, VerdictSpace, VerifierModel};
use nlgen::{seed_corpus, NgramLm, NlGenerator, NoiseConfig};
use tabular::Table;
use uctr::{extend_bank_auto, TemplateBank, UctrConfig, UctrPipeline};

fn probe() -> Table {
    Table::from_strings(
        "probe",
        &[
            vec!["name", "city", "points", "wins"],
            vec!["Reds", "Oslo", "77", "21"],
            vec!["Blues", "Lima", "64", "18"],
            vec!["Greens", "Kyiv", "81", "24"],
            vec!["Golds", "Quito", "59", "15"],
            vec!["Silvers", "Porto", "70", "19"],
        ],
    )
    .unwrap()
}

fn main() {
    let bench = semtab_like(CorpusConfig::default());
    let dev = &bench.gold.dev;
    let base_cfg =
        UctrConfig { unknown_rate: 0.06, samples_per_table: 16, ..UctrConfig::verification() };
    // Average each configuration over three generation seeds: single runs
    // carry several points of variance that would drown the ablation.
    let eval = |make: &dyn Fn(UctrConfig) -> UctrPipeline, cfg: &UctrConfig| -> (f64, usize) {
        let mut f1_sum = 0.0;
        let mut n_last = 0;
        for seed in [13u64, 131, 1313] {
            let pipeline = make(UctrConfig { seed, ..cfg.clone() });
            let data = pipeline.generate(&bench.unlabeled);
            let model = VerifierModel::train(&data, VerdictSpace::ThreeWay, EvidenceView::Full);
            f1_sum += verifier_micro_f1(&model, dev);
            n_last = data.len();
        }
        (f1_sum / 3.0, n_last)
    };
    let plain = |cfg: UctrConfig| UctrPipeline::new(cfg);
    let mut rows: Vec<Vec<String>> = Vec::new();

    // --- noise-channel rate ---
    for (label, rate) in [("noise off", 0.0), ("noise 12% (default)", 0.12), ("noise 40%", 0.4)] {
        let cfg = UctrConfig { noise: NoiseConfig { sentence_rate: rate }, ..base_cfg.clone() };
        let (f1, n) = eval(&plain, &cfg);
        rows.push(vec![format!("noise channel: {label}"), format!("{f1:.1}"), n.to_string()]);
    }

    // --- fluency-reranker n-gram order ---
    for order in [1usize, 2, 3] {
        let make = move |cfg: UctrConfig| {
            let mut lm = NgramLm::new(order);
            lm.fit(&seed_corpus());
            let generator = NlGenerator::new().with_lm(lm).with_noise(cfg.noise);
            UctrPipeline::new(cfg).with_generator(generator)
        };
        let (f1, n) = eval(&make, &base_cfg);
        rows.push(vec![format!("reranker: {order}-gram LM"), format!("{f1:.1}"), n.to_string()]);
    }
    {
        let make = |cfg: UctrConfig| {
            let generator = NlGenerator::untrained().with_noise(cfg.noise);
            UctrPipeline::new(cfg).with_generator(generator)
        };
        let (f1, n) = eval(&make, &base_cfg);
        rows.push(vec![
            "reranker: untrained (first candidate)".into(),
            format!("{f1:.1}"),
            n.to_string(),
        ]);
    }

    // --- synthetic volume per table ---
    for spt in [2usize, 8, 24] {
        let cfg = UctrConfig { samples_per_table: spt, ..base_cfg.clone() };
        let (f1, n) = eval(&plain, &cfg);
        rows.push(vec![format!("volume: {spt} samples/table"), format!("{f1:.1}"), n.to_string()]);
    }

    // --- auto-generated templates (paper future work, uctr::autogen) ---
    {
        let (f1, n) = eval(&plain, &base_cfg);
        rows.push(vec!["templates: builtin bank".into(), format!("{f1:.1}"), n.to_string()]);
        let mut bank0 = TemplateBank::builtin();
        let added = extend_bank_auto(&mut bank0, 16, &probe(), 41);
        let make = move |cfg: UctrConfig| {
            let mut bank = TemplateBank::builtin();
            extend_bank_auto(&mut bank, 16, &probe(), 41);
            UctrPipeline::new(cfg).with_bank(bank)
        };
        let (f1, n) = eval(&make, &base_cfg);
        rows.push(vec![
            format!("templates: builtin + {added} auto-generated"),
            format!("{f1:.1}"),
            n.to_string(),
        ]);
    }

    print_table(
        "Design ablations — SEM-TAB-FACTS-like dev micro-F1 by pipeline configuration",
        &["Configuration", "Dev micro-F1", "#synthetic"],
        &rows,
    );
    println!("\nReading guide: all configurations land within a few F1 points of each other");
    println!("— the verifier's accuracy is carried by the verification-signal features, so");
    println!("the generator's surface choices (noise rate, reranker order) move the needle");
    println!("far less than on neural encoders, and even tripled data volume saturates");
    println!("quickly. Auto-generated templates hold F1 while widening reasoning coverage.");
}
