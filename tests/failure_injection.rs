//! Failure-injection and adversarial-input tests: degenerate tables, hostile
//! strings, and out-of-contract inputs must produce errors or empty results
//! — never panics or corrupt state.

// Integration-test helpers run outside #[cfg(test)], so the clippy.toml test exemption does not reach them.
#![allow(clippy::unwrap_used)]

use tabular::{ExecContext, KernelScratch, Table, Value};
use uctr::{Sample, TableWithContext, UctrConfig, UctrPipeline, Verdict};

/// `logicforms::evaluate_truth` with a fresh context and kernel scratch.
fn truth(expr: &logicforms::LfExpr, table: &Table) -> Result<bool, logicforms::LfError> {
    logicforms::evaluate_truth(expr, &ExecContext::new(table), &mut KernelScratch::default())
}

fn empty_table() -> Table {
    Table::from_strings("empty", &[vec![]]).unwrap()
}

fn header_only() -> Table {
    Table::from_strings("h", &[vec!["a", "b"]]).unwrap()
}

#[test]
fn executors_survive_empty_tables() {
    let empty = empty_table();
    let header = header_only();
    // SQL on zero-column table: unknown column error, not a panic.
    assert!(sqlexec::run_sql("select [a] from w", &empty).is_err());
    // SQL on header-only table: executes to an empty result.
    let r = sqlexec::run_sql("select [a] from w", &header).unwrap();
    assert!(r.is_empty());
    // count(*) over nothing is 0.
    let r = sqlexec::run_sql("select count(*) from w", &header).unwrap();
    assert_eq!(r.answer_text(), "0");
    // Logic aggregates over nothing: Empty error.
    let e = logicforms::parse("eq { max { all_rows ; a } ; 1 }").unwrap();
    assert!(truth(&e, &header).is_err());
    // count over nothing is fine.
    let e = logicforms::parse("eq { count { all_rows } ; 0 }").unwrap();
    assert!(truth(&e, &header).unwrap());
    // Arithmetic: unknown row.
    assert!(arithexpr::run_arith("add( the a of x , 1 )", &header).is_err());
}

#[test]
fn pipeline_skips_degenerate_inputs() {
    let inputs = vec![
        TableWithContext::bare(empty_table()),
        TableWithContext::bare(header_only()),
        TableWithContext {
            table: header_only().into(),
            paragraph: Some(String::new()),
            topic: String::new(),
        },
    ];
    for cfg in [UctrConfig::qa(), UctrConfig::verification()] {
        let samples = UctrPipeline::new(cfg).generate(&inputs);
        assert!(samples.is_empty(), "degenerate inputs produced {} samples", samples.len());
    }
}

#[test]
fn degenerate_inputs_are_visible_in_the_report() {
    let inputs = vec![
        TableWithContext::bare(empty_table()),
        TableWithContext::bare(header_only()),
        TableWithContext::bare(empty_table()),
    ];
    for cfg in [UctrConfig::qa(), UctrConfig::verification()] {
        let (samples, report) = UctrPipeline::new(cfg).generate_with_report(&inputs);
        assert!(samples.is_empty());
        // The telemetry must show the inputs were seen and skipped, not
        // silently lost.
        assert_eq!(report.inputs_total, 3);
        assert_eq!(report.inputs_degenerate, 3);
        assert_eq!(report.accepted(), 0);
        assert_eq!(report.attempted(), 0, "degenerate inputs must not reach the sources");
    }
}

#[test]
fn unsuitable_tables_surface_as_discards_in_the_report() {
    // An all-text table: numeric SQL/arith templates bind nothing, so the
    // funnel must record the failed attempts — as schema-prefilter skips
    // (templates whose requirement the table provably cannot meet) or as
    // runtime discards — rather than quietly shrinking.
    let text_table =
        Table::from_strings("t", &[vec!["a", "b"], vec!["x", "y"], vec!["z", "w"], vec!["q", "r"]])
            .unwrap();
    let (samples, report) = UctrPipeline::new(UctrConfig::qa())
        .generate_with_report(&[TableWithContext::bare(text_table)]);
    let total_discards: u64 = report.discards_by_reason().values().sum();
    assert!(
        report.prefiltered() + total_discards > 0,
        "an all-text table under a numeric-heavy config must skip attempts: {}",
        report.summary()
    );
    // The statically infeasible pairs (every arith template needs numeric
    // cells) are caught by the prefilter, before the instantiation sampler.
    let arith = report.kinds.iter().find(|k| k.kind == "arith").unwrap();
    assert_eq!(arith.prefiltered, arith.attempted, "{}", report.summary());
    // Whatever was accepted is still exactly what the report claims.
    assert_eq!(report.accepted(), samples.len() as u64);
}

#[test]
fn templates_refuse_unsuitable_tables() {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    // All-text table: numeric templates must decline.
    let text_only =
        Table::from_strings("t", &[vec!["a", "b"], vec!["x", "y"], vec!["z", "w"]]).unwrap();
    let ctx = ExecContext::new(&text_only);
    let sql = sqlexec::SqlTemplate::parse("select sum ( c1_number ) from w").unwrap();
    let mut sql_scratch = sqlexec::SqlScratch::default();
    assert!(sql.try_instantiate(&ctx, &mut rng, &mut sql_scratch).is_err());
    let lf = logicforms::LfTemplate::parse("round_eq { avg { all_rows ; c1 } ; val1 }").unwrap();
    let mut lf_scratch = logicforms::LfScratch::default();
    assert!(lf.try_instantiate(&ctx, &mut rng, true, &mut lf_scratch).is_err());
    let ae = arithexpr::AeTemplate::parse("add( val1 , val2 )").unwrap();
    let mut ae_scratch = arithexpr::AeScratch::default();
    assert!(ae.try_instantiate(&ctx, &mut rng, &mut ae_scratch).is_err());
}

#[test]
fn hostile_strings_do_not_break_parsers() {
    let nasty = [
        "",
        ";;;",
        "select",
        "select select select",
        "eq { ",
        "} } {",
        "add(((((",
        "select c1 from w where",
        "\u{0000}\u{FFFF}",
        "🦀🦀🦀",
        "select [ from w",
        "eq { count { all_rows } ; }",
        "divide( , )",
    ];
    for s in nasty {
        // All three parsers must return Err, never panic.
        let _ = sqlexec::parse(s);
        let _ = logicforms::parse(s);
        let _ = arithexpr::parse(s);
    }
}

#[test]
fn hostile_cell_values_survive_feature_extraction() {
    // Cells containing regex-ish / substring-ish traps, huge numbers, and
    // unicode must not break the models' feature extraction.
    let t = Table::from_strings(
        "trap",
        &[
            vec!["name", "v"],
            vec!["a.b*c", "999999999999999"],
            vec!["((x))", "-0.0000001"],
            vec!["ünïcödé", "1e3"],
            vec!["", "42"],
        ],
    )
    .unwrap();
    let claim = Sample::verification(
        t.clone(),
        "((x)) has the highest v and a.b*c is listed once. ünïcödé too.",
        Verdict::Refuted,
    );
    let fv = models::verifier_features(&claim);
    assert!(!fv.is_empty());
    let qa = Sample::qa(t, "What is the v of ünïcödé?", "1000");
    let cands = models::generate_candidates(&qa);
    assert!(!cands.is_empty());
}

#[test]
fn csv_parser_rejects_malformed_but_accepts_weird() {
    // Ragged rows: structural error.
    assert!(tabular::table_from_csv("t", "a,b\n1\n").is_err());
    // A lone quote: unterminated.
    assert!(tabular::table_from_csv("t", "a\n\"x\n").is_err());
    // Unicode, long fields, embedded quotes: fine.
    let long = "x".repeat(10_000);
    let csv = format!("h\n\"{long}\"\n\"ü,ö\"\n");
    let t = tabular::table_from_csv("t", &csv).unwrap();
    assert_eq!(t.n_rows(), 2);
}

#[test]
fn text_to_table_ignores_garbage_paragraphs() {
    let t = header_only();
    for p in [
        "",
        "....",
        "has has has of of of",
        "a b of c and d of e has f of g.",
        &"word ".repeat(5000),
    ] {
        // Must not panic; may legitimately return None.
        let _ = textops::text_to_table(&t, p);
    }
}

#[test]
fn single_row_and_single_column_tables() {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let one_row = Table::from_strings("t", &[vec!["a", "b"], vec!["x", "5"]]).unwrap();
    let one_col = Table::from_strings("t", &[vec!["a"], vec!["1"], vec!["2"], vec!["3"]]).unwrap();
    // Splitting a 1-row table must refuse (no table evidence would remain).
    assert!(textops::table_to_text(&one_row, 0, &mut rng).is_none());
    // A one-column table still supports programs on that column.
    let r = sqlexec::run_sql("select sum([a]) from w", &one_col).unwrap();
    assert_eq!(r.answer_text(), "6");
    // Superlative claim instantiation on one row: argmax of 1 row is row 0.
    let e = logicforms::parse("eq { hop { argmax { all_rows ; b } ; a } ; x }").unwrap();
    assert!(truth(&e, &one_row).unwrap());
}

#[test]
fn values_with_null_and_nan_poison() {
    // NaN/inf can never enter a table; nulls propagate safely.
    assert!(Value::number(f64::NAN).is_null());
    let t = Table::from_strings("t", &[vec!["a", "b"], vec!["x", ""], vec!["y", "3"]]).unwrap();
    // Aggregates skip the null.
    let r = sqlexec::run_sql("select avg([b]) from w", &t).unwrap();
    assert_eq!(r.answer_text(), "3");
    // Comparisons against null never match.
    let r = sqlexec::run_sql("select [a] from w where [b] > 0", &t).unwrap();
    assert_eq!(r.answer_text(), "y");
    // argmax skips nulls.
    assert_eq!(t.argmax(1), Some(1));
}

#[test]
fn model_predictions_on_foreign_samples_do_not_panic() {
    // Predicting with a model trained on one domain against wildly
    // different evidence must be safe.
    let b = corpora::semtab_like(corpora::CorpusConfig::tiny());
    let model = models::VerifierModel::train(
        &b.gold.train,
        models::VerdictSpace::ThreeWay,
        models::EvidenceView::Full,
    );
    let weird = Sample::verification(empty_table(), "", Verdict::Unknown);
    let _ = model.predict(&weird);
    let qa_model = models::QaModel::untrained();
    let weird_q = Sample::qa(empty_table(), "", "");
    // A zero-column table still yields the row-count candidate ("0"); the
    // point is prediction never panics and returns a candidate.
    let pred = qa_model.predict(&weird_q);
    assert!(pred == "0" || pred.is_empty(), "unexpected prediction {pred:?}");
}
