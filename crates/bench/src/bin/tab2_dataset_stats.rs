//! Reproduces **Table II**: dataset statistics of the four (synthetic
//! stand-in) benchmarks — totals, evidence-type mix, and label/question
//! types — next to the original datasets' numbers. Also runs the UCTR
//! synthesis pipeline over each benchmark's unlabeled tables and prints the
//! live [`uctr::PipelineReport`] counters (the generation funnel behind the
//! composition numbers).
//!
//! Flags (the CI generation-quality gate):
//!   --report-json PATH   write all four pipeline reports as one JSON object
//!   --check-floor PATH   exit non-zero if any run is below the committed
//!                        floor (see ci/acceptance_floor.json)

// Reporting binary: stdout tables are the product.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use bench::{
    check_floor, composition_row, flag_value, prefilter_line, print_table, reports_to_json,
    AcceptanceFloor,
};
use corpora::{feverous_like, semtab_like, tatqa_like, wikisql_like, Benchmark, CorpusConfig};
use uctr::{AnswerKind, Dataset, PipelineReport, UctrConfig, UctrPipeline};

fn verdict_cells(d: &Dataset) -> String {
    let v = d.verdict_counts();
    format!("{} Supported, {} Refuted, {} Unknown", v[0].1, v[1].1, v[2].1)
}

fn evidence_cells(d: &Dataset) -> String {
    let e = d.evidence_counts();
    format!("{} table, {} text, {} combined", e[0].1, e[1].1, e[2].1)
}

fn answer_kind_cells(d: &Dataset) -> String {
    let mut span = 0;
    let mut count = 0;
    let mut arith = 0;
    for s in d.train.iter().chain(&d.dev).chain(&d.test) {
        match s.answer_kind {
            AnswerKind::Span => span += 1,
            AnswerKind::Count => count += 1,
            AnswerKind::Arithmetic => arith += 1,
            AnswerKind::NotApplicable => {}
        }
    }
    format!("{span} Span, {count} Counting, {arith} Arithmetic")
}

/// Runs the synthesis pipeline over a benchmark's unlabeled tables and
/// returns the live telemetry report.
fn synthesize(bench: &Benchmark, config: UctrConfig) -> PipelineReport {
    let pipeline = UctrPipeline::new(config);
    let (samples, report) = pipeline.generate_with_report(&bench.unlabeled);
    assert_eq!(
        samples.len() as u64,
        report.accepted(),
        "accepted counter must equal the sample count"
    );
    report
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = CorpusConfig::default();
    let feverous = feverous_like(cfg);
    let tatqa = tatqa_like(cfg);
    let wikisql = wikisql_like(cfg);
    let semtab = semtab_like(cfg);

    let rows = vec![
        vec![
            "FEVEROUS-like".into(),
            "Wikipedia".into(),
            feverous.gold.len().to_string(),
            evidence_cells(&feverous.gold),
            verdict_cells(&feverous.gold),
        ],
        vec![
            "TAT-QA-like".into(),
            "Finance".into(),
            tatqa.gold.len().to_string(),
            evidence_cells(&tatqa.gold),
            answer_kind_cells(&tatqa.gold),
        ],
        vec![
            "WikiSQL-like".into(),
            "Wikipedia".into(),
            wikisql.gold.len().to_string(),
            evidence_cells(&wikisql.gold),
            answer_kind_cells(&wikisql.gold),
        ],
        vec![
            "SEM-TAB-FACTS-like".into(),
            "Science".into(),
            semtab.gold.len().to_string(),
            evidence_cells(&semtab.gold),
            verdict_cells(&semtab.gold),
        ],
    ];
    print_table(
        "Table II — dataset statistics (synthetic stand-ins)",
        &["Dataset", "Domain", "Total", "Evidence types", "Label/Question types"],
        &rows,
    );
    println!("\nOriginal datasets for comparison (paper Table II):");
    println!("  FEVEROUS      87,026 total; 34,963 sent / 28,760 table / 24,667 combined; 49,115 Sup, 33,669 Ref, 4,242 NEI");
    println!("  TAT-QA        16,552 total; 7,431 table / 3,902 sent / 5,219 combined; 9,211 Span, 377 Counting, 6,964 Arithmetic");
    println!("  WikiSQL       80,654 total; 24,241 tables; What/How many/Who questions");
    println!("  SEM-TAB-FACTS  5,715 total; 1,085 tables; 3,342 Sup, 2,149 Ref, 224 Unknown");
    println!("\nThe stand-ins are scaled down ~20x for CPU-speed experiments; the evidence,");
    println!("label and answer-type *proportions* follow the originals (see corpora crate).");

    // Synthesis telemetry: rerun UCTR over each benchmark's unlabeled
    // tables and report the generation funnel from live counters.
    let reports: Vec<(String, PipelineReport)> = vec![
        ("feverous-like".into(), synthesize(&feverous, UctrConfig::verification())),
        ("tatqa-like".into(), synthesize(&tatqa, UctrConfig::qa())),
        ("wikisql-like".into(), synthesize(&wikisql, UctrConfig::qa())),
        ("semtabfacts-like".into(), synthesize(&semtab, UctrConfig::verification())),
    ];
    let rows: Vec<Vec<String>> = reports.iter().map(|(name, r)| composition_row(name, r)).collect();
    print_table(
        "Synthesis telemetry — live PipelineReport counters per benchmark",
        &["Run", "Tables", "Accepted", "Rate", "By program kind", "By data source"],
        &rows,
    );
    for (name, r) in &reports {
        println!("\n[{name}] {}", r.summary().trim_end());
    }

    let floor = flag_value(&args, "--check-floor").map(|path| match AcceptanceFloor::load(&path) {
        Ok(f) => (path, f),
        Err(e) => {
            eprintln!("cannot load acceptance floor: {e}");
            std::process::exit(2);
        }
    });
    println!("\n{}", prefilter_line(&reports));

    if let Some(path) = flag_value(&args, "--report-json") {
        if let Err(e) = std::fs::write(&path, reports_to_json(&reports)) {
            eprintln!("cannot write report JSON to {path}: {e}");
            std::process::exit(2);
        }
        println!("\nwrote pipeline reports to {path}");
    }
    if let Some((path, floor)) = floor {
        println!();
        if !check_floor(&floor, &reports) {
            eprintln!("generation-quality gate FAILED (floor: {path})");
            std::process::exit(1);
        }
        println!("generation-quality gate passed (floor: {path})");
    }
}
