//! Kernel / scalar parity property test.
//!
//! The production entry points (each template's `try_instantiate` and the
//! `execute` / `evaluate` / `evaluate_truth` executors, which read
//! `ExecContext` caches and `KernelScratch` buffers) must be
//! *result-identical* to the context-free per-cell interpreters in each
//! executor crate's `reference` module. This sweep pins that contract for every
//! builtin and mined template over a zoo built to stress the kernels where
//! they diverge first — non-finite and mixed-type columns (the cached
//! numeric parse must classify cells exactly like `Value::as_number`),
//! filters that keep zero rows, all-null columns, duplicate keys (tie
//! handling in argmax/nth kernels), and 1-row tables — across 32 RNG seeds
//! per (template, table) pair.
//!
//! Both halves of each pair run from identically seeded RNGs, and after
//! the pair the streams must still coincide: the kernel path may not
//! consume a different number of draws than the scalar path even when both
//! fail (the pipeline's golden digests depend on draw-for-draw equality).

// Integration-test helpers run outside #[cfg(test)], so the clippy.toml test exemption does not reach them.
#![allow(clippy::unwrap_used)]
#![expect(
    clippy::disallowed_methods,
    reason = "this suite is the parity check of the context-free test oracle"
)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tabular::{ExecContext, Table};
use uctr::{AnyTemplate, TemplateBank};

const SEEDS: u64 = 32;

/// Tables chosen to hit kernel edge cases, not to look like real data.
fn kernel_zoo() -> Vec<Table> {
    let grids: Vec<Vec<Vec<&str>>> = vec![
        // 1-row table: every "nth", "only", ordering and aggregate kernel
        // runs at its lower size bound.
        vec![vec!["name", "score", "rank"], vec!["Solo", "42", "1"]],
        // Mixed-type column: `score` holds numbers, text, and a null; the
        // kernel's cached parse and the interpreter's per-cell
        // `Value::as_number` must skip exactly the same cells.
        vec![
            vec!["name", "score", "note"],
            vec!["Ada", "10", "fast"],
            vec!["Bel", "n/a", "slow"],
            vec!["Cyd", "30.5", "steady"],
            vec!["Dee", "", "quiet"],
            vec!["Eli", "-7", "loud"],
        ],
        // Non-finite spellings: `nan`/`inf` do not survive `Value::parse`'s
        // is_finite filter, so the column is text to the type system even
        // though every cell *looks* numeric to a float parser.
        vec![
            vec!["name", "weird", "ok"],
            vec!["P", "NaN", "1"],
            vec!["Q", "inf", "2"],
            vec!["R", "-inf", "3"],
            vec!["S", "nan", "4"],
        ],
        // All-null numeric column and a constant column: aggregates over
        // empty gathers, and equality filters that keep everything or
        // nothing.
        vec![
            vec!["name", "empty", "constant"],
            vec!["A", "", "5"],
            vec!["B", "", "5"],
            vec!["C", "", "5"],
            vec!["D", "", "5"],
        ],
        // Duplicate keys: argmax/argmin/nth tie-breaking must pick the same
        // row on both paths.
        vec![
            vec!["name", "pts", "group"],
            vec!["T1", "9", "red"],
            vec!["T2", "9", "blue"],
            vec!["T3", "9", "red"],
            vec!["T4", "2", "blue"],
            vec!["T5", "2", "red"],
        ],
        // Dates mixed with plain numbers across columns; negative and
        // fractional values for comparison kernels.
        vec![
            vec!["name", "when", "delta"],
            vec!["U", "2001-03-04", "-1.5"],
            vec!["V", "1999-12-31", "0"],
            vec!["W", "2020-06-15", "2.25"],
            vec!["X", "2010-01-01", "-0.75"],
        ],
        // Loose equality: numbers within the 1e-6 epsilon of each other,
        // booleans beside 1/0, repeated and adjacent dates, case variants
        // and blanks. DISTINCT and GROUP BY must keep the same first
        // occurrences as the oracle's pairwise `loosely_equals` scans.
        vec![
            vec!["name", "amount", "flag", "when", "gap"],
            vec!["Apple", "5", "yes", "2020-03-01", ""],
            vec!["apple", "5.0000001", "1", "2020-03-02", ""],
            vec!["APPLE", "1000000", "true", "2020-03-01", ""],
            vec!["Pear", "1000000.5", "no", "", ""],
            vec!["", "", "0", "2020-03-02", ""],
            vec!["pear", "5", "false", "2020-03-03", ""],
            vec!["Plum", "1000001", "", "2020-03-01", ""],
        ],
    ];
    grids
        .into_iter()
        .enumerate()
        .map(|(i, grid)| Table::from_strings(format!("kzoo {i}"), &grid).unwrap())
        .collect()
}

/// Debug renderings compare NaN-safe ("NaN" == "NaN") and cover every field
/// of the output, mirroring how the golden digests hash samples.
fn dbg<T: std::fmt::Debug>(v: &T) -> String {
    format!("{v:?}")
}

fn check_sql(t: &sqlexec::SqlTemplate, table: &Table, ctx: &ExecContext, seed: u64) {
    let mut scalar_rng = StdRng::seed_from_u64(seed);
    let mut kernel_rng = StdRng::seed_from_u64(seed);
    let mut scratch = sqlexec::SqlScratch::default();
    let scalar = sqlexec::reference::try_instantiate(t, table, &mut scalar_rng);
    let kernel = t.try_instantiate(ctx, &mut kernel_rng, &mut scratch);
    let sig = t.signature();
    assert_eq!(
        scalar_rng.gen::<u64>(),
        kernel_rng.gen::<u64>(),
        "sql `{sig}` on `{}` seed {seed}: RNG draw streams diverged",
        table.title
    );
    assert_eq!(
        dbg(&scalar),
        dbg(&kernel),
        "sql `{sig}` on `{}` seed {seed}: instantiation diverged",
        table.title
    );
    if let Ok(stmt) = scalar {
        let scalar_out = sqlexec::reference::execute(&stmt, table);
        let kernel_out = sqlexec::execute(&stmt, table, &mut scratch.kern);
        assert_eq!(
            dbg(&scalar_out),
            dbg(&kernel_out),
            "sql `{sig}` on `{}` seed {seed}: execution diverged for `{stmt}`",
            table.title
        );
    }
}

fn check_logic(t: &logicforms::LfTemplate, table: &Table, ctx: &ExecContext, seed: u64) {
    let mut scratch = logicforms::LfScratch::default();
    let sig = t.signature();
    for desired in [false, true] {
        let mut scalar_rng = StdRng::seed_from_u64(seed);
        let mut kernel_rng = StdRng::seed_from_u64(seed);
        let scalar = logicforms::reference::try_instantiate(t, table, &mut scalar_rng, desired);
        let kernel = t.try_instantiate(ctx, &mut kernel_rng, desired, &mut scratch);
        assert_eq!(
            scalar_rng.gen::<u64>(),
            kernel_rng.gen::<u64>(),
            "logic `{sig}` on `{}` seed {seed}: RNG draw streams diverged",
            table.title
        );
        assert_eq!(
            dbg(&scalar),
            dbg(&kernel),
            "logic `{sig}` on `{}` seed {seed}: instantiation diverged",
            table.title
        );
        if let Ok(claim) = scalar {
            let scalar_out = logicforms::reference::evaluate(&claim.expr, table);
            let kernel_out = logicforms::evaluate(&claim.expr, ctx, &mut scratch.kern);
            assert_eq!(
                dbg(&scalar_out),
                dbg(&kernel_out),
                "logic `{sig}` on `{}` seed {seed}: evaluation diverged for `{}`",
                table.title,
                claim.expr
            );
            let scalar_truth = logicforms::reference::evaluate_truth(&claim.expr, table);
            let kernel_truth = logicforms::evaluate_truth(&claim.expr, ctx, &mut scratch.kern);
            assert_eq!(
                dbg(&scalar_truth),
                dbg(&kernel_truth),
                "logic `{sig}` on `{}` seed {seed}: truth diverged for `{}`",
                table.title,
                claim.expr
            );
        }
    }
}

fn check_arith(t: &arithexpr::AeTemplate, table: &Table, ctx: &ExecContext, seed: u64) {
    let mut scalar_rng = StdRng::seed_from_u64(seed);
    let mut kernel_rng = StdRng::seed_from_u64(seed);
    let mut scratch = arithexpr::AeScratch::default();
    // Arithmetic instantiation executes internally, so this one comparison
    // covers both the sampling and the execution kernels.
    let scalar = arithexpr::reference::try_instantiate(t, table, &mut scalar_rng);
    let kernel = t.try_instantiate(ctx, &mut kernel_rng, &mut scratch);
    let sig = t.signature();
    assert_eq!(
        scalar_rng.gen::<u64>(),
        kernel_rng.gen::<u64>(),
        "arith `{sig}` on `{}` seed {seed}: RNG draw streams diverged",
        table.title
    );
    assert_eq!(
        dbg(&scalar),
        dbg(&kernel),
        "arith `{sig}` on `{}` seed {seed}: instantiation diverged",
        table.title
    );
    if let Ok(inst) = scalar {
        let scalar_out = arithexpr::reference::execute(&inst.program, table);
        let kernel_out = arithexpr::execute(&inst.program, ctx, &mut scratch.kern);
        assert_eq!(
            dbg(&scalar_out),
            dbg(&kernel_out),
            "arith `{sig}` on `{}` seed {seed}: re-execution diverged for `{}`",
            table.title,
            inst.program
        );
    }
}

fn sweep(bank: &TemplateBank, tables: &[Table], seeds: u64) {
    for table in tables {
        let ctx = ExecContext::new(table);
        for any in bank.templates() {
            for seed in 0..seeds {
                let seed = seed * 6151 + 29;
                match any {
                    AnyTemplate::Sql(t) => check_sql(t, table, &ctx, seed),
                    AnyTemplate::Logic(t) => check_logic(t, table, &ctx, seed),
                    AnyTemplate::Arith(t) => check_arith(t, table, &ctx, seed),
                }
            }
        }
    }
}

#[test]
fn builtin_templates_kernel_scalar_parity() {
    sweep(&TemplateBank::builtin(), &kernel_zoo(), SEEDS);
}

#[test]
fn mined_templates_kernel_scalar_parity() {
    sweep(&uctr::mined_bank(uctr::mining::SYNTHETIC_SEED), &kernel_zoo(), SEEDS);
}

/// No template uses `SELECT DISTINCT` or `GROUP BY`, so the sweep never
/// reaches them: fixed queries over the loose-equality table do.
#[test]
fn distinct_and_group_by_match_the_oracle() {
    let zoo = kernel_zoo();
    let table = zoo.last().unwrap();
    let queries = [
        "select distinct [name] from w",
        "select distinct [amount] , [flag] from w",
        "select distinct * from w",
        "select [name] , count ( * ) from w group by [name]",
        "select [amount] , sum ( [amount] ) from w group by [amount]",
        "select [flag] , count ( * ) from w group by [flag]",
        "select [when] , count ( distinct [name] ) from w group by [when]",
        "select [gap] , count ( * ) , max ( [name] ) from w group by [gap]",
        "select count ( distinct [name] ) , count ( distinct [amount] ) from w",
        "select count ( distinct [flag] ) , count ( distinct [when] ) from w",
        "select sum ( distinct [amount] ) , avg ( distinct [flag] ) from w",
        "select min ( distinct [when] ) , max ( distinct [name] ) from w",
    ];
    let mut kern = tabular::KernelScratch::default();
    for query in queries {
        let stmt = sqlexec::parse(query).unwrap();
        let oracle = sqlexec::reference::execute(&stmt, table);
        let production = sqlexec::execute(&stmt, table, &mut kern);
        assert!(oracle.is_ok(), "`{query}`: {oracle:?}");
        assert_eq!(dbg(&oracle), dbg(&production), "`{query}`");
    }
}
