//! Property-style tests on the core data structures and invariants: parser
//! round-trips for all three program DSLs, executor algebra, sampling
//! type-discipline, and label faithfulness of generated claims.
//!
//! Formerly written with `proptest`; the build environment has no crates.io
//! access, so the same invariants now run over deterministic seeded case
//! sweeps (see `vendor/README.md`).

// Integration-test helpers run outside #[cfg(test)], so the clippy.toml test exemption does not reach them.
#![allow(clippy::unwrap_used)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tabular::{ExecContext, KernelScratch, Table, Value};

/// Number of random cases per property.
const CASES: u64 = 64;

/// `logicforms::evaluate` with a fresh context and kernel scratch.
fn lf_evaluate(
    expr: &logicforms::LfExpr,
    table: &Table,
) -> Result<logicforms::LfOutcome, logicforms::LfError> {
    logicforms::evaluate(expr, &ExecContext::new(table), &mut KernelScratch::default())
}

/// A random table: 3..=8 rows, schema [name text, alpha number, beta number].
fn random_table(seed: u64) -> Table {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let rows = 3 + (next() % 6) as usize;
    let mut grid: Vec<Vec<String>> = vec![vec!["name".into(), "alpha".into(), "beta".into()]];
    for i in 0..rows {
        grid.push(vec![
            format!("row{i}"),
            format!("{}", next() % 1000),
            format!("{}", next() % 500),
        ]);
    }
    let borrowed: Vec<Vec<&str>> =
        grid.iter().map(|r| r.iter().map(String::as_str).collect()).collect();
    Table::from_strings("prop", &borrowed).unwrap()
}

// ---------------------------------------------------------------------------
// Parser round-trips.
// ---------------------------------------------------------------------------

#[test]
fn sql_render_parse_roundtrip() {
    let mut queries: Vec<String> = vec![
        "select c1 from w order by c2_number desc limit 1".into(),
        "select count ( * ) from w where c1 = val1".into(),
        "select sum ( c1_number ) from w where c2 = val1 and c3_number > val2".into(),
        "select [a b] from w where [c d] = 'v' order by [e f] asc".into(),
        "select distinct c1 from w group by c1".into(),
        "select c1_number - c2_number from w where c3 = val1".into(),
    ];
    for a in 1usize..5 {
        for b in 1usize..5 {
            queries.push(format!("select c{a} from w where c{b}_number > val1 limit {}", a + b));
        }
    }
    for q in &queries {
        let stmt = sqlexec::parse(q).unwrap();
        let rendered = stmt.to_string();
        let reparsed = sqlexec::parse(&rendered).unwrap();
        assert_eq!(stmt, reparsed, "round-trip failed for {q}");
    }
}

#[test]
fn logic_render_parse_roundtrip() {
    let mut rng = StdRng::seed_from_u64(1);
    for _ in 0..CASES {
        let col =
            *rand::seq::SliceRandom::choose(&["alpha", "beta", "name"][..], &mut rng).unwrap();
        let val: i64 = rng.gen_range(0..1000);
        let n: usize = rng.gen_range(1..4);
        let forms = [
            format!("eq {{ count {{ filter_eq {{ all_rows ; {col} ; {val} }} }} ; {n} }}"),
            format!("most_greater {{ all_rows ; {col} ; {val} }}"),
            format!("eq {{ nth_max {{ all_rows ; {col} ; {n} }} ; {val} }}"),
            format!("only {{ filter_less {{ all_rows ; {col} ; {val} }} }}"),
        ];
        for f in &forms {
            let e = logicforms::parse(f).unwrap();
            let reparsed = logicforms::parse(&e.to_string()).unwrap();
            assert_eq!(e, reparsed, "round-trip failed for {f}");
        }
    }
}

#[test]
fn arith_render_parse_roundtrip() {
    let mut rng = StdRng::seed_from_u64(2);
    for _ in 0..CASES {
        let a: i64 = rng.gen_range(1..5000);
        let b: i64 = rng.gen_range(1..5000);
        let programs = [
            format!("subtract( {a} , {b} ) , divide( #0 , {b} )"),
            format!("greater( {a} , {b} )"),
            "table_sum( c1 ) , divide( val1 , #0 )".to_string(),
        ];
        for p in &programs {
            let prog = arithexpr::parse(p).unwrap();
            let reparsed = arithexpr::parse(&prog.to_string()).unwrap();
            assert_eq!(prog, reparsed, "round-trip failed for {p}");
        }
    }
}

// ---------------------------------------------------------------------------
// Executor algebra.
// ---------------------------------------------------------------------------

#[test]
fn count_filter_at_most_rows() {
    let mut rng = StdRng::seed_from_u64(3);
    for case in 0..CASES {
        let table = random_table(case + 1);
        let threshold: i64 = rng.gen_range(0..1000);
        let q = format!("select count(*) from w where [alpha] > {threshold}");
        let r = sqlexec::run_sql(&q, &table).unwrap();
        let count: usize = r.answer.parse().unwrap();
        assert!(count <= table.n_rows());
    }
}

#[test]
fn argmax_row_achieves_max() {
    for case in 0..CASES {
        let table = random_table(case + 1);
        let max_e = logicforms::parse("max { all_rows ; alpha }").unwrap();
        let max_v = lf_evaluate(&max_e, &table).unwrap();
        let hop_e = logicforms::parse("hop { argmax { all_rows ; alpha } ; alpha }").unwrap();
        let hop_v = lf_evaluate(&hop_e, &table).unwrap();
        let a = max_v.value.as_scalar().and_then(Value::as_number).expect("non-numeric max");
        let b = hop_v.value.as_scalar().and_then(Value::as_number).expect("non-numeric hop");
        assert!((a - b).abs() < 1e-9);
    }
}

#[test]
fn sum_equals_avg_times_count() {
    for case in 0..CASES {
        let table = random_table(case + 1);
        let sum =
            lf_evaluate(&logicforms::parse("sum { all_rows ; beta }").unwrap(), &table).unwrap();
        let avg =
            lf_evaluate(&logicforms::parse("avg { all_rows ; beta }").unwrap(), &table).unwrap();
        let s = sum.value.as_scalar().and_then(Value::as_number).unwrap();
        let a = avg.value.as_scalar().and_then(Value::as_number).unwrap();
        assert!((s - a * table.n_rows() as f64).abs() < 1e-6 * s.abs().max(1.0));
    }
}

#[test]
fn comparator_duality() {
    // filter_greater + filter_less_eq partition the rows.
    let mut rng = StdRng::seed_from_u64(4);
    for case in 0..CASES {
        let table = random_table(case + 1);
        let threshold: i64 = rng.gen_range(0..1000);
        let gt = lf_evaluate(
            &logicforms::parse(&format!(
                "count {{ filter_greater {{ all_rows ; alpha ; {threshold} }} }}"
            ))
            .unwrap(),
            &table,
        )
        .unwrap();
        let le = lf_evaluate(
            &logicforms::parse(&format!(
                "count {{ filter_less_eq {{ all_rows ; alpha ; {threshold} }} }}"
            ))
            .unwrap(),
            &table,
        )
        .unwrap();
        let g = gt.value.as_scalar().and_then(Value::as_number).unwrap() as usize;
        let l = le.value.as_scalar().and_then(Value::as_number).unwrap() as usize;
        assert_eq!(g + l, table.n_rows());
    }
}

#[test]
fn sql_order_limit_prefix() {
    let mut rng = StdRng::seed_from_u64(5);
    for case in 0..CASES {
        let table = random_table(case + 1);
        let k: usize = rng.gen_range(1..6);
        let all = sqlexec::run_sql("select [name] from w order by [alpha] desc", &table).unwrap();
        let topk = sqlexec::run_sql(
            &format!("select [name] from w order by [alpha] desc limit {k}"),
            &table,
        )
        .unwrap();
        assert_eq!(topk.n_rows, k.min(table.n_rows()));
        // Names are never null: the top-k answer lists the first k names of
        // the full one.
        let rest = all.answer.strip_prefix(topk.answer.as_str()).unwrap();
        assert!(rest.is_empty() || rest.starts_with(", "), "{} vs {}", topk.answer, all.answer);
    }
}

// ---------------------------------------------------------------------------
// Sampling discipline.
// ---------------------------------------------------------------------------

#[test]
fn sql_sampling_respects_types() {
    let tpl = sqlexec::SqlTemplate::parse("select c1 from w where c2_number > val1").unwrap();
    for case in 0..CASES {
        let table = random_table(case + 1);
        let ctx = ExecContext::new(&table);
        let mut scratch = sqlexec::SqlScratch::default();
        let mut rng = StdRng::seed_from_u64(case * 7 + 1);
        if let Ok(stmt) = tpl.try_instantiate(&ctx, &mut rng, &mut scratch) {
            // The compared column must be numeric (alpha or beta).
            let rendered = stmt.to_string();
            assert!(
                rendered.contains("alpha >") || rendered.contains("beta >"),
                "non-numeric column bound to c2_number: {rendered}"
            );
            // And it must execute.
            assert!(sqlexec::execute(&stmt, &table, &mut scratch.kern).is_ok());
        }
    }
}

#[test]
fn generated_claims_match_their_labels() {
    let tpl = logicforms::LfTemplate::parse(
        "eq { hop { filter_eq { all_rows ; c1 ; val1 } ; c2 } ; val2 }",
    )
    .unwrap();
    for case in 0..CASES {
        let table = random_table(case + 1);
        let ctx = ExecContext::new(&table);
        let mut scratch = logicforms::LfScratch::default();
        for desired in [false, true] {
            let mut rng = StdRng::seed_from_u64(case * 11 + 3);
            if let Ok(claim) = tpl.try_instantiate(&ctx, &mut rng, desired, &mut scratch) {
                assert_eq!(claim.truth, desired);
                let truth =
                    logicforms::evaluate_truth(&claim.expr, &ctx, &mut scratch.kern).unwrap();
                assert_eq!(truth, desired);
            }
        }
    }
}

#[test]
fn arith_instantiation_executes() {
    let tpl =
        arithexpr::AeTemplate::parse("subtract( val1 , val2 ) , divide( #0 , val2 )").unwrap();
    for case in 0..CASES {
        let table = random_table(case + 1);
        let ctx = ExecContext::new(&table);
        let mut scratch = arithexpr::AeScratch::default();
        let mut rng = StdRng::seed_from_u64(case * 13 + 5);
        if let Ok(inst) = tpl.try_instantiate(&ctx, &mut rng, &mut scratch) {
            assert!(!inst.program.has_holes());
            // Re-execution is deterministic.
            let again = arithexpr::execute(&inst.program, &ctx, &mut scratch.kern).unwrap();
            assert_eq!(again.answer, inst.outcome.answer);
        }
    }
}

// ---------------------------------------------------------------------------
// Text utilities.
// ---------------------------------------------------------------------------

#[test]
fn token_f1_symmetric_and_bounded() {
    use tabular::text::{token_f1, tokenize};
    let mut rng = StdRng::seed_from_u64(6);
    let random_phrase = |rng: &mut StdRng| {
        let words: usize = rng.gen_range(1..=7);
        (0..words)
            .map(|_| {
                let len: usize = rng.gen_range(1..=8);
                (0..len).map(|_| (b'a' + rng.gen_range(0..26u8)) as char).collect::<String>()
            })
            .collect::<Vec<_>>()
            .join(" ")
    };
    for _ in 0..CASES {
        let a = random_phrase(&mut rng);
        let b = random_phrase(&mut rng);
        let ta = tokenize(&a);
        let tb = tokenize(&b);
        let f_ab = token_f1(&ta, &tb);
        let f_ba = token_f1(&tb, &ta);
        assert!((f_ab - f_ba).abs() < 1e-12);
        assert!((0.0..=1.0).contains(&f_ab));
        assert!((token_f1(&ta, &ta) - 1.0).abs() < 1e-12);
    }
}

#[test]
fn csv_roundtrip() {
    for case in 0..CASES {
        let table = random_table(case + 1);
        let csv = tabular::table_to_csv(&table);
        let back = tabular::table_from_csv("prop", &csv).unwrap();
        assert_eq!(table.rows(), back.rows());
    }
}

#[test]
fn value_parse_display_stable() {
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..1000 {
        let n: f64 = rng.gen_range(-1e9..1e9);
        let v = Value::number((n * 100.0).round() / 100.0);
        let reparsed = Value::parse(&v.to_string());
        assert!(v.loosely_equals(&reparsed), "{v:?} vs {reparsed:?}");
    }
}

// ---------------------------------------------------------------------------
// Schema-prefilter soundness.
// ---------------------------------------------------------------------------

/// The pipeline's schema prefilter may skip a `(template, table)` pair only
/// when `try_instantiate` would fail for EVERY rng stream (DESIGN.md §7's
/// soundness contract). Pin it: for each builtin template whose
/// [`uctr::SchemaRequirement`] a table provably fails, instantiation must
/// fail under 32 distinct seeds.
#[test]
fn schema_prefilter_skips_only_deterministic_failures() {
    use uctr::TemplateBank;

    // A zoo stressing every axis of the requirement lattice: no data rows,
    // no numeric columns, too few columns, dates only, and a single row.
    let mut tables: Vec<Table> = [
        vec![vec!["a", "b"]],
        vec![vec!["a", "b"], vec!["x", "y"], vec!["z", "w"], vec!["q", "r"]],
        vec![vec!["v"], vec!["1"], vec!["2"], vec!["3"]],
        vec![vec!["n"], vec!["x"], vec!["y"]],
        vec![vec!["d"], vec!["2001-01-01"], vec!["2002-02-02"]],
        vec![vec!["a", "b"], vec!["x", "3"]],
    ]
    .into_iter()
    .map(|grid| Table::from_strings("zoo", &grid).unwrap())
    .collect();
    // Randomized numeric tables exercise the satisfied (pass-through) side.
    for case in 0..16 {
        tables.push(random_table(case + 1));
    }

    let bank = TemplateBank::builtin();
    let mut skipped_pairs = 0usize;
    let mut passed_pairs = 0usize;
    for table in &tables {
        let ctx = ExecContext::new(table);
        for (any, req) in bank.templates().iter().zip(bank.requirements()) {
            // The stored requirement is exactly what the analyzer computes.
            assert_eq!(*req, any.analyze().requirement, "stale bank requirement");
            if req.satisfied_by(&ctx) {
                passed_pairs += 1;
                continue; // the prefilter would let this pair through
            }
            skipped_pairs += 1;
            for seed in 0..32u64 {
                let mut rng = StdRng::seed_from_u64(seed * 9973 + 17);
                assert!(
                    any.try_instantiate(&ctx, &mut rng, &mut uctr::GenScratch::default()).is_err(),
                    "prefilter would skip `{}` on a {}x{} table, but seed {seed} instantiated it",
                    any.signature(),
                    table.n_rows(),
                    table.n_cols(),
                );
            }
        }
    }
    assert!(skipped_pairs > 0, "the table zoo never triggered the prefilter");
    assert!(passed_pairs > 0, "every pair was prefiltered; the pass-through side is untested");
}

#[test]
fn feasible_set_matches_brute_force_requirement_scan() {
    use uctr::telemetry::KindSlot;
    use uctr::TemplateBank;

    // The same lattice-stressing zoo as the prefilter property above.
    let mut tables: Vec<Table> = [
        vec![vec!["a", "b"]],
        vec![vec!["a", "b"], vec!["x", "y"], vec!["z", "w"], vec!["q", "r"]],
        vec![vec!["v"], vec!["1"], vec!["2"], vec!["3"]],
        vec![vec!["n"], vec!["x"], vec!["y"]],
        vec![vec!["d"], vec!["2001-01-01"], vec!["2002-02-02"]],
        vec![vec!["a", "b"], vec!["x", "3"]],
    ]
    .into_iter()
    .map(|grid| Table::from_strings("zoo", &grid).unwrap())
    .collect();
    for case in 0..16 {
        tables.push(random_table(case + 1));
    }

    let banks = [
        ("builtin", TemplateBank::builtin()),
        ("mined", uctr::mined_bank(uctr::mining::SYNTHETIC_SEED)),
    ];
    let kinds = [KindSlot::Sql, KindSlot::Logic, KindSlot::Arith];
    for (name, bank) in &banks {
        for table in &tables {
            let ctx = ExecContext::new(table);
            let feasible = bank.feasible_set(&ctx);
            for kind in kinds {
                // Ground truth: check every sampling slot's requirement
                // directly — the O(slots) path the inverted index replaces.
                // The mined bank's strata carry equivalence-weight slots
                // (a representative repeats once per canonically merged
                // equivalent), so the slot list, not the deduplicated
                // template list, is the unit of sampling.
                let brute: Vec<usize> = bank
                    .stratum(kind)
                    .iter()
                    .copied()
                    .filter(|&i| bank.requirements()[i].satisfied_by(&ctx))
                    .collect();
                // Non-circularity: the slots cover exactly the distinct
                // feasible templates of the kind found by a full scan of
                // the deduplicated store.
                let distinct: std::collections::BTreeSet<usize> = bank
                    .templates()
                    .iter()
                    .enumerate()
                    .filter(|(i, t)| t.kind() == kind && bank.requirements()[*i].satisfied_by(&ctx))
                    .map(|(i, _)| i)
                    .collect();
                assert_eq!(
                    brute.iter().copied().collect::<std::collections::BTreeSet<usize>>(),
                    distinct,
                    "feasible slots of `{name}` cover a different template set than the \
                     full-store scan (kind {kind:?})"
                );
                assert_eq!(
                    feasible.indices(kind),
                    &brute[..],
                    "feasible set of `{name}` diverges from the brute-force scan \
                     (kind {kind:?}, {}x{} table)",
                    table.n_rows(),
                    table.n_cols(),
                );
                // When everything is feasible the set must borrow the whole
                // stratum, and sampling from it must be stream-identical to
                // the bank's own draw (the golden digests rely on this).
                if brute.len() == bank.stratum_len(kind) {
                    assert!(feasible.is_full_stratum(kind), "full stratum not borrowed");
                    for seed in 0..8u64 {
                        let mut a = StdRng::seed_from_u64(seed * 31 + 7);
                        let mut b = StdRng::seed_from_u64(seed * 31 + 7);
                        let via_set = feasible.choose(kind, &mut a).map(|t| t.signature());
                        let via_bank = bank.choose(kind, &mut b).map(|t| t.signature());
                        assert_eq!(via_set, via_bank, "draw stream diverged on `{name}`");
                    }
                } else {
                    // A strict subset: every draw must come from it.
                    for seed in 0..8u64 {
                        let mut rng = StdRng::seed_from_u64(seed * 31 + 7);
                        if let Some(t) = feasible.choose(kind, &mut rng) {
                            let sig = t.signature();
                            assert!(
                                brute.iter().any(|&i| bank.templates()[i].signature() == sig),
                                "chose an infeasible template on `{name}`"
                            );
                        } else {
                            assert!(brute.is_empty(), "empty draw from a non-empty feasible set");
                        }
                    }
                }
            }
        }
    }
}
