//! Abstract-interpretation soundness property test.
//!
//! The per-crate `absint` passes claim to *over*-approximate every concrete
//! behavior: for any table and any RNG stream, an instantiated program's
//! concrete result must be admitted by the template's joined
//! [`tabular::AbsSummary`], and an unsatisfied (tightened)
//! [`tabular::SchemaRequirement`] must imply instantiation fails. This
//! sweep pins both halves of that contract for every builtin and mined
//! template over the kernel-stressing table zoo (the same fixtures as
//! `kernel_parity`, which exercise non-finite spellings, all-null columns,
//! duplicate keys and 1-row tables) plus the two mining probe tables
//! (where instantiation actually succeeds often), across 32 seeds per
//! (template, table) pair:
//!
//! * **arith** — a `Number` answer lies in `summary.value`; a `YesNo`
//!   answer is admitted by `summary.truth`;
//! * **logic** — the claim's gold truth is admitted by `summary.truth`; in
//!   particular a template convicted always-true can never mint a
//!   `Refuted` label;
//! * **sql** — a statically-empty row set (`summary.rows`) keeps zero
//!   rows; a constant-output (A001 echo) conviction means every emitted
//!   cell loosely equals the query constant its column is pinned to;
//! * **all kinds** — `requirement.satisfied_by == false` implies
//!   `try_instantiate` errors (the prefilter may only skip guaranteed
//!   failures).
//!
//! A final test calibrates the static discard-cost model: the per-kind
//! mean `survival` over the builtin bank must land within a generous band
//! of the accept rate the live pipeline's `PipelineReport` funnel measures.

// Integration-test helpers run outside #[cfg(test)], so the clippy.toml test exemption does not reach them.
#![allow(clippy::unwrap_used)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use tabular::{ExecContext, Kleene, Table, Value};
use uctr::{AnyTemplate, KindSlot, TemplateBank};

const SEEDS: u64 = 32;

/// The kernel-stressing zoo of `kernel_parity`, plus the two mining probe
/// tables so the sweep also covers (template, table) pairs where
/// instantiation usually *succeeds*.
fn zoo() -> Vec<Table> {
    let grids: Vec<Vec<Vec<&str>>> = vec![
        vec![vec!["name", "score", "rank"], vec!["Solo", "42", "1"]],
        vec![
            vec!["name", "score", "note"],
            vec!["Ada", "10", "fast"],
            vec!["Bel", "n/a", "slow"],
            vec!["Cyd", "30.5", "steady"],
            vec!["Dee", "", "quiet"],
            vec!["Eli", "-7", "loud"],
        ],
        vec![
            vec!["name", "weird", "ok"],
            vec!["P", "NaN", "1"],
            vec!["Q", "inf", "2"],
            vec!["R", "-inf", "3"],
            vec!["S", "nan", "4"],
        ],
        vec![
            vec!["name", "empty", "constant"],
            vec!["A", "", "5"],
            vec!["B", "", "5"],
            vec!["C", "", "5"],
            vec!["D", "", "5"],
        ],
        vec![
            vec!["name", "pts", "group"],
            vec!["T1", "9", "red"],
            vec!["T2", "9", "blue"],
            vec!["T3", "9", "red"],
            vec!["T4", "2", "blue"],
            vec!["T5", "2", "red"],
        ],
        vec![
            vec!["name", "when", "delta"],
            vec!["U", "2001-03-04", "-1.5"],
            vec!["V", "1999-12-31", "0"],
            vec!["W", "2020-06-15", "2.25"],
            vec!["X", "2010-01-01", "-0.75"],
        ],
    ];
    let mut tables: Vec<Table> = grids
        .into_iter()
        .enumerate()
        .map(|(i, grid)| Table::from_strings(format!("azoo {i}"), &grid).unwrap())
        .collect();
    tables.push(uctr::mining::sql_probe_table());
    tables.push(uctr::mining::fin_probe_table());
    tables
}

/// The `=`-pinned constants of an instantiated statement's top-level `and`
/// spine: `(output column, pinned literal)` pairs. Mirrors the A001 echo
/// conviction, which promises every emitted cell of such a column loosely
/// equals the pin.
fn eq_pins(stmt: &sqlexec::SelectStmt) -> Vec<(sqlexec::ColumnRef, Value)> {
    fn spine(c: &sqlexec::Cond, out: &mut Vec<(sqlexec::ColumnRef, Value)>) {
        match c {
            sqlexec::Cond::And(a, b) => {
                spine(a, out);
                spine(b, out);
            }
            sqlexec::Cond::Compare { op: sqlexec::CmpOp::Eq, lhs, rhs } => {
                match (lhs, rhs) {
                    (sqlexec::Expr::Column(c), sqlexec::Expr::Literal(v))
                    | (sqlexec::Expr::Literal(v), sqlexec::Expr::Column(c)) => {
                        out.push((c.clone(), v.clone()))
                    }
                    _ => {}
                };
            }
            sqlexec::Cond::Compare { .. } | sqlexec::Cond::Or(..) => {}
        }
    }
    let mut out = Vec::new();
    if let Some(w) = &stmt.where_clause {
        spine(w, &mut out);
    }
    out
}

fn check_sql(
    t: &sqlexec::SqlTemplate,
    a: &tabular::TemplateAnalysis,
    table: &Table,
    ctx: &ExecContext,
    seed: u64,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let sig = t.signature();
    let mut scratch = sqlexec::SqlScratch::default();
    let Ok(stmt) = t.try_instantiate(ctx, &mut rng, &mut scratch) else { return };
    let Ok(result) = sqlexec::execute(&stmt, table, &mut scratch.kern) else { return };

    let plain_select = stmt.group_by.is_none()
        && stmt
            .items
            .iter()
            .all(|i| matches!(i, sqlexec::SelectItem::Expr(_) | sqlexec::SelectItem::Star));
    if a.summary.rows.is_always_empty() && plain_select {
        assert_eq!(
            result.rows.len(),
            0,
            "sql `{sig}` on `{}` seed {seed}: statically-empty row set kept {} row(s) for `{stmt}`",
            table.title,
            result.rows.len()
        );
    }
    if plain_select {
        assert!(
            a.summary.rows.can_many || result.rows.len() <= 1,
            "sql `{sig}` on `{}` seed {seed}: cardinality {} says at most one row, \
             `{stmt}` kept {}",
            table.title,
            a.summary.rows,
            result.rows.len()
        );
    }
    // A lone count(*) answers inside the cardinality lattice's bridge.
    if let [sqlexec::SelectItem::Aggregate { func: sqlexec::AggFunc::Count, arg: None, .. }] =
        stmt.items.as_slice()
    {
        let n = result.rows[0][0].as_number().unwrap();
        assert!(
            a.summary.value.contains(n),
            "sql `{sig}` on `{}` seed {seed}: count {n} outside {} for `{stmt}`",
            table.title,
            a.summary.value
        );
    }
    // A001 echo conviction: every emitted cell loosely equals its pin.
    if a.degeneracies.iter().any(|d| d.code == "A001" && d.locus == "select") {
        let pins = eq_pins(&stmt);
        for (idx, item) in stmt.items.iter().enumerate() {
            let sqlexec::SelectItem::Expr(sqlexec::Expr::Column(col)) = item else { continue };
            let Some((_, pin)) = pins.iter().find(|(c, _)| c == col) else { continue };
            for row in &result.rows {
                assert!(
                    row[idx].loosely_equals(pin),
                    "sql `{sig}` on `{}` seed {seed}: A001 says every output cell equals \
                     the pin {pin:?}, got {:?} from `{stmt}`",
                    table.title,
                    row[idx]
                );
            }
        }
    }
}

fn check_logic(
    t: &logicforms::LfTemplate,
    a: &tabular::TemplateAnalysis,
    table: &Table,
    ctx: &ExecContext,
    seed: u64,
) {
    let sig = t.signature();
    let mut scratch = logicforms::LfScratch::default();
    for desired in [false, true] {
        let mut rng = StdRng::seed_from_u64(seed);
        let Ok(claim) = t.try_instantiate(ctx, &mut rng, desired, &mut scratch) else {
            continue;
        };
        assert!(
            a.summary.truth.admits(claim.truth),
            "logic `{sig}` on `{}` seed {seed}: concrete truth {} not admitted by {} for `{}`",
            table.title,
            claim.truth,
            a.summary.truth,
            claim.expr
        );
        // The conviction behind pruning: an always-true template can never
        // produce a Refuted label (and vice versa).
        if a.summary.truth == Kleene::True {
            assert!(claim.truth, "logic `{sig}`: always-true template minted a false label");
        }
        if a.summary.truth == Kleene::False {
            assert!(!claim.truth, "logic `{sig}`: always-false template minted a true label");
        }
    }
}

fn check_arith(
    t: &arithexpr::AeTemplate,
    a: &tabular::TemplateAnalysis,
    table: &Table,
    ctx: &ExecContext,
    seed: u64,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let sig = t.signature();
    let mut scratch = arithexpr::AeScratch::default();
    let Ok(inst) = t.try_instantiate(ctx, &mut rng, &mut scratch) else { return };
    match inst.outcome.answer {
        arithexpr::AeAnswer::Number(x) => assert!(
            a.summary.value.contains(x),
            "arith `{sig}` on `{}` seed {seed}: {x} outside {} for `{}`",
            table.title,
            a.summary.value,
            inst.program
        ),
        arithexpr::AeAnswer::YesNo(b) => assert!(
            a.summary.truth.admits(b),
            "arith `{sig}` on `{}` seed {seed}: verdict {b} not admitted by {} for `{}`",
            table.title,
            a.summary.truth,
            inst.program
        ),
    }
}

/// Requirement soundness: an unsatisfied (tightened) requirement means
/// instantiation fails on this table under every stream. This is the
/// contract that lets `TemplateBank::feasible_set` prune attempts.
fn check_requirement(
    any: &AnyTemplate,
    a: &tabular::TemplateAnalysis,
    table: &Table,
    ctx: &ExecContext,
    seed: u64,
) {
    if a.requirement.satisfied_by(ctx) {
        return;
    }
    let sig = any.signature();
    let mut rng = StdRng::seed_from_u64(seed);
    let failed = match any {
        AnyTemplate::Sql(t) => {
            t.try_instantiate(ctx, &mut rng, &mut sqlexec::SqlScratch::default()).is_err()
        }
        AnyTemplate::Logic(t) => {
            let mut scratch = logicforms::LfScratch::default();
            t.try_instantiate(ctx, &mut rng, false, &mut scratch).is_err()
                && t.try_instantiate(ctx, &mut rng, true, &mut scratch).is_err()
        }
        AnyTemplate::Arith(t) => {
            t.try_instantiate(ctx, &mut rng, &mut arithexpr::AeScratch::default()).is_err()
        }
    };
    assert!(
        failed,
        "`{sig}` on `{}` seed {seed}: requirement unsatisfied yet instantiation succeeded \
         — the prefilter would wrongly skip a viable attempt",
        table.title
    );
}

fn sweep(bank: &TemplateBank, tables: &[Table], seeds: u64) {
    let ctxs: Vec<ExecContext> = tables.iter().map(ExecContext::new).collect();
    for any in bank.templates() {
        let a = any.analyze();
        assert!(a.issues.is_empty(), "bank template with issues: {:?}", a.issues);
        assert!(
            (0.0..=1.0).contains(&a.survival),
            "survival {} out of range for `{}`",
            a.survival,
            any.signature()
        );
        for (table, ctx) in tables.iter().zip(&ctxs) {
            for seed in 0..seeds {
                let seed = seed * 6151 + 29;
                check_requirement(any, &a, table, ctx, seed);
                match any {
                    AnyTemplate::Sql(t) => check_sql(t, &a, table, ctx, seed),
                    AnyTemplate::Logic(t) => check_logic(t, &a, table, ctx, seed),
                    AnyTemplate::Arith(t) => check_arith(t, &a, table, ctx, seed),
                }
            }
        }
    }
}

#[test]
fn builtin_templates_are_abstractly_sound() {
    sweep(&TemplateBank::builtin(), &zoo(), SEEDS);
}

#[test]
fn mined_templates_are_abstractly_sound() {
    sweep(&uctr::mined_bank(uctr::mining::SYNTHETIC_SEED), &zoo(), SEEDS);
}

#[test]
fn builtin_bank_is_degeneracy_free() {
    for any in TemplateBank::builtin().templates() {
        let a = any.analyze();
        assert!(
            a.degeneracies.is_empty(),
            "builtin `{}` convicted: {:?}",
            any.signature(),
            a.degeneracies
        );
    }
}

/// The discard-cost model's calibration gate: the per-kind mean survival
/// estimate over the builtin bank must land within a generous band of the
/// accept rate the live pipeline funnel measures on the golden-style
/// inputs. The band is wide by design — the model ranks templates, it does
/// not predict absolute throughput — but it pins the estimate to reality
/// closely enough that a constant-1.0 (or constant-0.0) stub fails.
#[test]
fn survival_model_is_calibrated_against_the_pipeline_funnel() {
    use uctr::{TableWithContext, UctrConfig, UctrPipeline};

    let inputs: Vec<TableWithContext> = vec![
        TableWithContext {
            table: uctr::mining::sql_probe_table().into(),
            paragraph: None,
            topic: "sports".into(),
        },
        TableWithContext {
            table: uctr::mining::fin_probe_table().into(),
            paragraph: None,
            topic: "finance".into(),
        },
    ];
    let mut config = UctrConfig::qa();
    config.use_logic = true;
    let (_, report) = UctrPipeline::new(config).generate_with_report(&inputs);

    let bank = TemplateBank::builtin();
    for kind in [KindSlot::Sql, KindSlot::Logic, KindSlot::Arith] {
        let survivals: Vec<f64> = bank
            .templates()
            .iter()
            .filter(|t| t.kind() == kind)
            .map(|t| t.analyze().survival)
            .collect();
        let mean = survivals.iter().sum::<f64>() / survivals.len() as f64;
        let Some(k) = report.kinds.iter().find(|k| k.kind == kind.name()) else { continue };
        let tried = k.attempted - k.prefiltered;
        if tried < 20 {
            continue;
        }
        let rate = k.accepted as f64 / tried as f64;
        assert!(
            (mean - rate).abs() <= 0.35,
            "{}: mean survival estimate {mean:.3} vs measured accept rate {rate:.3} \
             ({}/{tried}) — recalibrate the per-construct factors",
            kind.name(),
            k.accepted
        );
    }
}
