//! Reproduces **Table VIII**: ablation grid on the TAT-QA dev set — data
//! sources (Table / Text / Table↔Text) × program types (SQL / Arithmetic).
//!
//! Paper reference values (Total EM/F1): A1 (table+SQL) 8.2/10.9,
//! A2 (text+SQL) 10.0/16.5, A3 (table+text+SQL) 15.7/23.6,
//! A4 (table+text+arith) 32.5/38.8, A5 (all sources - T2T, SQL+arith)
//! 32.8/40.5, A6 (everything) 34.9/42.4.

//! Flags: `--report-json PATH` writes each setting's [`uctr::PipelineReport`]
//! (per-kind/per-source generation counters) as one JSON object.

// Reporting binary: stdout tables are the product.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use bench::{composition_row, flag_value, print_table, qa_breakdown, reports_to_json};
use corpora::{tatqa_like, CorpusConfig};
use models::QaModel;
use nlgen::NoiseConfig;
use uctr::{PipelineReport, Sample, TaskKind, UctrConfig, UctrPipeline};

struct Setting {
    name: &'static str,
    paper: &'static str,
    table: bool,
    text: bool,
    t2t: bool,
    sql: bool,
    arith: bool,
}

fn config(s: &Setting) -> UctrConfig {
    UctrConfig {
        task: TaskKind::QuestionAnswering,
        use_sql: s.sql,
        use_logic: false,
        use_arith: s.arith,
        table_only: s.table,
        text_only: s.text,
        table_split: s.t2t,
        table_expand: s.t2t,
        samples_per_table: 8,
        noise: NoiseConfig::default(),
        unknown_rate: 0.0,
        seed: 13,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let bench = tatqa_like(CorpusConfig::default());
    let dev = &bench.gold.dev;
    let settings = [
        Setting {
            name: "A1: Table, SQL",
            paper: " 8.2/10.9",
            table: true,
            text: false,
            t2t: false,
            sql: true,
            arith: false,
        },
        Setting {
            name: "A2: Text, SQL",
            paper: "10.0/16.5",
            table: false,
            text: true,
            t2t: false,
            sql: true,
            arith: false,
        },
        Setting {
            name: "A3: Table+Text, SQL",
            paper: "15.7/23.6",
            table: true,
            text: true,
            t2t: false,
            sql: true,
            arith: false,
        },
        Setting {
            name: "A4: Table+Text, Arith",
            paper: "32.5/38.8",
            table: true,
            text: true,
            t2t: false,
            sql: false,
            arith: true,
        },
        Setting {
            name: "A5: Table+Text, SQL+Arith",
            paper: "32.8/40.5",
            table: true,
            text: true,
            t2t: false,
            sql: true,
            arith: true,
        },
        Setting {
            name: "A6: +Table<->Text (full)",
            paper: "34.9/42.4",
            table: true,
            text: true,
            t2t: true,
            sql: true,
            arith: true,
        },
    ];

    let mut rows = Vec::new();
    let mut reports: Vec<(String, PipelineReport)> = Vec::new();
    for s in &settings {
        let (data, report): (Vec<Sample>, PipelineReport) =
            UctrPipeline::new(config(s)).generate_with_report(&bench.unlabeled);
        let model = QaModel::train(&data);
        let b = qa_breakdown(&model, dev);
        let mut cells = vec![format!("{} (paper {})", s.name, s.paper)];
        for (_, em, f1) in &b {
            cells.push(format!("{em:.1} / {f1:.1}"));
        }
        cells.push(data.len().to_string());
        rows.push(cells);
        reports.push((s.name.to_string(), report));
    }
    print_table(
        "Table VIII — ablations on TAT-QA dev (EM / F1)",
        &["Setting", "Table", "Table-Text", "Text", "Total", "#synth"],
        &rows,
    );
    println!("\nExpected shape: each added data source helps; arithmetic programs matter");
    println!("more than SQL on TAT-QA; the full configuration (A6) is best.");

    let telemetry_rows: Vec<Vec<String>> =
        reports.iter().map(|(name, r)| composition_row(name, r)).collect();
    print_table(
        "Per-setting synthesis telemetry (live PipelineReport counters)",
        &["Setting", "Tables", "Accepted", "Rate", "By program kind", "By data source"],
        &telemetry_rows,
    );

    if let Some(path) = flag_value(&args, "--report-json") {
        if let Err(e) = std::fs::write(&path, reports_to_json(&reports)) {
            eprintln!("cannot write report JSON to {path}: {e}");
            std::process::exit(2);
        }
        println!("\nwrote per-setting pipeline reports to {path}");
    }
}
