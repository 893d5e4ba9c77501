//! ExecContext equivalence suite.
//!
//! The per-table [`ExecContext`] caches (column value pools, per-column
//! counts, addressable cells, the text pool) replace naive table scans
//! inside the three executors. These tests pin the contract: for any
//! table and any RNG seed, the production context paths must return the
//! exact result of the naive paths in each executor crate's `reference`
//! module AND consume the exact same RNG draws — the pipeline's fixed-seed
//! byte-identity depends on both.

// Integration-test helpers run outside #[cfg(test)], so the clippy.toml test exemption does not reach them.
#![allow(clippy::unwrap_used)]
#![expect(
    clippy::disallowed_methods,
    reason = "this suite is the parity check of the context-free test oracle"
)]

use arithexpr::{AeScratch, AeTemplate};
use logicforms::{LfScratch, LfTemplate};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqlexec::{SqlScratch, SqlTemplate};
use tabular::{ExecContext, Table};
use uctr::{BUILTIN_ARITH, BUILTIN_LOGIC, BUILTIN_SQL};

/// A randomized mixed-type table: text name/category columns, numeric
/// columns, and random null holes ("-" parses to null).
fn random_table(rng: &mut StdRng, rows: usize) -> Table {
    let header = ["name", "score", "tier", "load", "note"];
    let mut grid: Vec<Vec<String>> = vec![header.iter().map(|s| s.to_string()).collect()];
    let tiers = ["gold", "silver", "bronze", "iron"];
    let notes = ["fresh", "stale", "Fresh", "-"];
    for i in 0..rows {
        let name = if rng.gen_bool(0.1) { "-".to_string() } else { format!("ent{i}") };
        let score =
            if rng.gen_bool(0.15) { "-".to_string() } else { rng.gen_range(0..500).to_string() };
        let tier = tiers[rng.gen_range(0..tiers.len())].to_string();
        let load = if rng.gen_bool(0.15) {
            "-".to_string()
        } else {
            format!("{:.1}", rng.gen_range(0.0..90.0))
        };
        let note = notes[rng.gen_range(0..notes.len())].to_string();
        grid.push(vec![name, score, tier, load, note]);
    }
    let borrowed: Vec<Vec<&str>> =
        grid.iter().map(|r| r.iter().map(String::as_str).collect()).collect();
    Table::from_strings("random", &borrowed).unwrap()
}

/// Asserts both RNG clones are in the same state by comparing their next
/// draws (catches paths that consume a different number of draws).
fn assert_rngs_aligned(a: &mut StdRng, b: &mut StdRng, what: &str) {
    for _ in 0..4 {
        assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "RNG streams diverged after {what}");
    }
}

#[test]
fn sql_instantiation_matches_naive_path() {
    let mut meta = StdRng::seed_from_u64(0xDECAF);
    for round in 0..20 {
        let table = random_table(&mut meta, 3 + (round % 12));
        let ctx = ExecContext::new(&table);
        let mut scratch = SqlScratch::default();
        for (ti, t) in BUILTIN_SQL.iter().enumerate() {
            let tpl = SqlTemplate::parse(t).unwrap();
            let mut naive_rng = StdRng::seed_from_u64(round as u64 * 100 + ti as u64);
            let mut ctx_rng = naive_rng.clone();
            let naive = sqlexec::reference::try_instantiate(&tpl, &table, &mut naive_rng);
            let cached = tpl.try_instantiate(&ctx, &mut ctx_rng, &mut scratch);
            assert_eq!(
                format!("{naive:?}"),
                format!("{cached:?}"),
                "sql template `{t}` diverged on round {round}"
            );
            assert_rngs_aligned(&mut naive_rng, &mut ctx_rng, "sql instantiation");
            // Execution parity on the whole result: answer, non-null flag,
            // row count and highlighted cells.
            if let Ok(stmt) = naive {
                let a = sqlexec::reference::execute(&stmt, &table);
                let b = sqlexec::execute(&stmt, &table, &mut scratch.kern);
                assert_eq!(a, b, "sql execution diverged for `{stmt}`");
            }
        }
    }
}

#[test]
fn logic_instantiation_and_evaluation_match_naive_path() {
    let mut meta = StdRng::seed_from_u64(0xBEEF);
    // One scratch for every table and template, as a pipeline worker holds
    // it: state that goes stale between calls diverges from the oracle,
    // which starts each call from a fresh scratch. The template changes on
    // every call, so a failed call is always followed by another template.
    let mut scratch = LfScratch::default();
    for round in 0..12 {
        let table = random_table(&mut meta, 4 + (round % 10));
        let ctx = ExecContext::new(&table);
        for desired in [true, false] {
            for (ti, t) in BUILTIN_LOGIC.iter().enumerate() {
                let tpl = LfTemplate::parse(t).unwrap();
                let mut naive_rng = StdRng::seed_from_u64(round as u64 * 1000 + ti as u64);
                let mut ctx_rng = naive_rng.clone();
                let naive =
                    logicforms::reference::try_instantiate(&tpl, &table, &mut naive_rng, desired);
                let cached = tpl.try_instantiate(&ctx, &mut ctx_rng, desired, &mut scratch);
                assert_eq!(
                    format!("{naive:?}"),
                    format!("{cached:?}"),
                    "lf template `{t}` (desired={desired}) diverged on round {round}"
                );
                assert_rngs_aligned(&mut naive_rng, &mut ctx_rng, "lf instantiation");
                // Evaluation parity (outcome AND highlighted cells) on every
                // successfully instantiated claim, starting with the cells
                // the claim carries out of instantiation.
                if let Ok(claim) = naive {
                    let a = logicforms::reference::evaluate(&claim.expr, &table);
                    let cells = a.as_ref().map(|o| o.highlighted.as_slice());
                    assert_eq!(
                        cells,
                        Ok(scratch.highlighted()),
                        "lf instantiation carried other cells out for `{}`",
                        claim.expr
                    );
                    let b = logicforms::evaluate(&claim.expr, &ctx, &mut scratch.kern);
                    assert_eq!(a, b, "lf evaluation diverged for `{}`", claim.expr);
                    let ta = logicforms::reference::evaluate_truth(&claim.expr, &table);
                    let tb = logicforms::evaluate_truth(&claim.expr, &ctx, &mut scratch.kern);
                    assert_eq!(ta, tb);
                }
            }
        }
    }
}

#[test]
fn arith_instantiation_and_execution_match_naive_path() {
    let mut meta = StdRng::seed_from_u64(0xF00D);
    for round in 0..20 {
        let table = random_table(&mut meta, 3 + (round % 12));
        let ctx = ExecContext::new(&table);
        let mut scratch = AeScratch::default();
        for (ti, t) in BUILTIN_ARITH.iter().enumerate() {
            let tpl = AeTemplate::parse(t).unwrap();
            let mut naive_rng = StdRng::seed_from_u64(round as u64 * 77 + ti as u64);
            let mut ctx_rng = naive_rng.clone();
            let naive = arithexpr::reference::try_instantiate(&tpl, &table, &mut naive_rng);
            let cached = tpl.try_instantiate(&ctx, &mut ctx_rng, &mut scratch);
            assert_eq!(
                format!("{naive:?}"),
                format!("{cached:?}"),
                "ae template `{t}` diverged on round {round}"
            );
            assert_rngs_aligned(&mut naive_rng, &mut ctx_rng, "ae instantiation");
            if let Ok(inst) = naive {
                let a = arithexpr::reference::execute(&inst.program, &table);
                let b = arithexpr::execute(&inst.program, &ctx, &mut scratch.kern);
                assert_eq!(a, b, "ae execution diverged for `{}`", inst.program);
            }
        }
    }
}

#[test]
fn context_caches_match_naive_scans_on_random_tables() {
    let mut meta = StdRng::seed_from_u64(0xCAFE);
    for _ in 0..25 {
        let rows = 1 + meta.gen_range(0..40);
        let table = random_table(&mut meta, rows);
        let ctx = ExecContext::new(&table);
        assert_eq!(ctx.n_rows(), table.n_rows());
        assert_eq!(ctx.n_cols(), table.n_cols());
        for ci in 0..table.n_cols() {
            let naive: Vec<_> =
                table.column_values(ci).into_iter().filter(|v| !v.is_null()).collect();
            assert_eq!(ctx.non_null_values(ci), naive.iter().collect::<Vec<_>>());
        }
        for ci in 0..table.n_cols() {
            let naive = (0..table.n_rows())
                .filter(|&ri| table.cell(ri, ci).and_then(tabular::Value::as_number).is_some())
                .count();
            assert_eq!(ctx.numeric_count(ci), naive, "numeric count mismatch in column {ci}");
        }
    }
}
