//! Logical-form templates: abstraction, sampling, and truth-targeted
//! instantiation.
//!
//! Fact-verification claims need a *label*, and the paper gets it from
//! execution (§IV-C): for a template `func { arg1 ; arg2 }` whose root is a
//! comparator and whose `arg2` is a single value, the sampler first
//! instantiates and executes `arg1`, then sets `arg2` from the result — the
//! exact result yields a *Supported* claim, a perturbed one a *Refuted*
//! claim. Non-root value holes (filter constants) are sampled from the
//! column they constrain, exactly as in the SQL sampler.

use crate::ast::{LfExpr, LfOp, LogicType};
use crate::exec::{evaluate_impl, evaluate_truth_impl, LfError, LfValue};
use crate::parser::{parse, LfParseError};
use rand::seq::SliceRandom;
use rand::Rng;
use rustc_hash::FxHashMap;
use tabular::{format_number, ColumnType, ExecContext, Table, Value};

/// Why truth-targeted instantiation failed — the structured discard reasons
/// the pipeline telemetry aggregates (instead of an opaque `None`). For the
/// retrying entry point the reported reason is the one from the *last*
/// attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LfInstantiateError {
    /// The table has no rows to sample from.
    EmptyTable,
    /// No table column satisfies a column hole's (numeric) constraint.
    NoCompatibleColumn,
    /// A constrained column has no admissible value to fill a hole from.
    NoValueCandidates,
    /// A hole sits in a position the sampler does not support, or
    /// substitution left holes behind.
    MalformedTemplate,
    /// Evaluating the partially instantiated program failed.
    ExecutionFailed,
    /// Execution produced a null / non-scalar result that cannot anchor a
    /// truth-targeted literal.
    DegenerateResult,
    /// Sampling never reached the desired truth value within the retry
    /// budget (paper §IV-C: such programs are discarded).
    TruthUnreachable,
}

impl std::fmt::Display for LfInstantiateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LfInstantiateError::EmptyTable => write!(f, "empty table"),
            LfInstantiateError::NoCompatibleColumn => write!(f, "no compatible column"),
            LfInstantiateError::NoValueCandidates => write!(f, "no value candidates"),
            LfInstantiateError::MalformedTemplate => write!(f, "malformed template"),
            LfInstantiateError::ExecutionFailed => write!(f, "execution failed"),
            LfInstantiateError::DegenerateResult => write!(f, "degenerate result"),
            LfInstantiateError::TruthUnreachable => write!(f, "desired truth unreachable"),
        }
    }
}

impl std::error::Error for LfInstantiateError {}

/// A reusable logical-form template.
#[derive(Debug, Clone, PartialEq)]
pub struct LfTemplate {
    expr: LfExpr,
}

/// Reusable sampling buffers for [`LfTemplate::try_instantiate`].
///
/// Truth-targeted instantiation retries up to 16 times per call, and each
/// attempt needs hole lists, a shuffled column pool, per-column "already
/// drawn" sets and candidate-index buffers. Holding them here lets the hot
/// generation loop reuse the allocations across attempts, templates and
/// samples. A default-constructed scratch is always valid; the buffers are
/// cleared on entry, never read.
#[derive(Debug, Clone, Default)]
pub struct LfScratch {
    holes: Vec<(usize, bool)>,
    available: Vec<usize>,
    cols: FxHashMap<usize, usize>,
    used: FxHashMap<usize, Vec<Value>>,
    candidates: Vec<usize>,
    /// Kernel buffers shared with the evaluator (views, numeric gathers,
    /// highlight accumulation) so truth-targeted execution inside the
    /// 16-attempt loop stops allocating per call.
    pub kern: tabular::KernelScratch,
}

/// Result of instantiating a template: the concrete program and the truth
/// value it executes to (= the claim's gold label).
#[derive(Debug, Clone, PartialEq)]
pub struct InstantiatedClaim {
    pub expr: LfExpr,
    pub truth: bool,
}

impl LfTemplate {
    /// Parses template text such as
    /// `eq { hop { filter_eq { all_rows ; c1 ; val1 } ; c2 } ; val2 }`.
    pub fn parse(text: &str) -> Result<LfTemplate, LfParseError> {
        Ok(LfTemplate { expr: parse(text)? })
    }

    pub fn from_expr(expr: LfExpr) -> LfTemplate {
        LfTemplate { expr }
    }

    pub fn expr(&self) -> &LfExpr {
        &self.expr
    }

    /// Normalized signature for the redundancy filtration step.
    pub fn signature(&self) -> String {
        self.expr.to_string()
    }

    pub fn logic_type(&self) -> LogicType {
        self.expr.logic_type()
    }

    /// Distinct column holes with a numeric-type requirement inferred from
    /// the operators they appear under.
    pub fn column_holes(&self) -> Vec<(usize, bool)> {
        let mut holes: Vec<(usize, bool)> = Vec::new();
        self.column_holes_into(&mut holes);
        holes
    }

    /// Allocation-reusing core of [`LfTemplate::column_holes`]: clears
    /// `holes` and refills it in the same order.
    fn column_holes_into(&self, holes: &mut Vec<(usize, bool)>) {
        holes.clear();
        fn scan(e: &LfExpr, holes: &mut Vec<(usize, bool)>) {
            if let LfExpr::Apply(op, args) = e {
                for (slot, a) in args.iter().enumerate() {
                    if let LfExpr::ColumnHole(i) = a {
                        // Column slots sit at index 1 for every column-taking op.
                        let numeric = slot == 1 && op.is_numeric();
                        match holes.iter_mut().find(|(h, _)| h == i) {
                            Some((_, n)) => *n |= numeric,
                            None => holes.push((*i, numeric)),
                        }
                    } else {
                        scan(a, holes);
                    }
                }
            }
        }
        scan(&self.expr, holes);
    }

    /// Instantiates the template on `ctx`'s table, aiming for the given
    /// truth value. Value pools and truth-targeting execution read `ctx`;
    /// buffers come from `scratch`. Fails with the last attempt's reason
    /// when the table cannot support the template (paper: discarded).
    pub fn try_instantiate(
        &self,
        ctx: &ExecContext,
        rng: &mut impl Rng,
        desired: bool,
        scratch: &mut LfScratch,
    ) -> Result<InstantiatedClaim, LfInstantiateError> {
        self.sample(ctx.table(), Some(ctx), rng, desired, scratch)
    }

    /// [`LfTemplate::try_instantiate`] with an optional context; `None` is
    /// the oracle of [`crate::reference::try_instantiate`].
    pub(crate) fn sample(
        &self,
        table: &Table,
        ctx: Option<&ExecContext>,
        rng: &mut impl Rng,
        desired: bool,
        scratch: &mut LfScratch,
    ) -> Result<InstantiatedClaim, LfInstantiateError> {
        if table.n_rows() == 0 {
            return Err(LfInstantiateError::EmptyTable);
        }
        let mut last = LfInstantiateError::TruthUnreachable;
        for _attempt in 0..16 {
            match self.attempt_instantiate(table, ctx, rng, desired, scratch) {
                Ok(claim) => return Ok(claim),
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    fn attempt_instantiate(
        &self,
        table: &Table,
        ctx: Option<&ExecContext>,
        rng: &mut impl Rng,
        desired: bool,
        scratch: &mut LfScratch,
    ) -> Result<InstantiatedClaim, LfInstantiateError> {
        let LfScratch { holes, available, cols, used, candidates, kern } = scratch;
        // 1. Assign columns to holes, numeric-constrained holes first.
        self.column_holes_into(holes);
        holes.sort_by_key(|(_, numeric)| !numeric);
        available.clear();
        available.extend(0..table.n_cols());
        available.shuffle(rng);
        cols.clear();
        for (hole, numeric) in holes.iter() {
            let pos = available
                .iter()
                .position(|&ci| {
                    let ty = table.schema().column(ci).map(|c| c.ty);
                    if *numeric {
                        matches!(ty, Some(ColumnType::Number))
                    } else {
                        true
                    }
                })
                .ok_or(LfInstantiateError::NoCompatibleColumn)?;
            cols.insert(*hole, available.remove(pos));
        }
        let with_cols = substitute_columns(&self.expr, table, cols)
            .ok_or(LfInstantiateError::MalformedTemplate)?;

        // 2. Fill non-root value holes by sampling from their bound column.
        let mut partially = fill_inner_values(&with_cols, table, ctx, rng, used, candidates)?;

        // 3. Root hole: execute the sibling and set the value by `desired`.
        if let LfExpr::Apply(op, args) = &partially {
            if matches!(op, LfOp::Eq | LfOp::NotEq | LfOp::RoundEq | LfOp::Greater | LfOp::Less) {
                let hole_side = args.iter().position(|a| matches!(a, LfExpr::ValueHole(_)));
                if let Some(side) = hole_side {
                    let sibling = &args[1 - side];
                    if sibling.has_holes() {
                        return Err(LfInstantiateError::MalformedTemplate);
                    }
                    let out = evaluate_impl(sibling, table, ctx, kern)
                        .map_err(|_| LfInstantiateError::ExecutionFailed)?;
                    let LfValue::Scalar(result) = out.value else {
                        return Err(LfInstantiateError::DegenerateResult);
                    };
                    if result.is_null() {
                        return Err(LfInstantiateError::DegenerateResult);
                    }
                    // Decide the literal: equal for matches-desired, else a
                    // perturbation that flips the comparator.
                    let wants_match = match op {
                        LfOp::Eq | LfOp::RoundEq => desired,
                        LfOp::NotEq => !desired,
                        // greater/less roots with a free side: pick a value
                        // strictly beyond/before the result.
                        LfOp::Greater | LfOp::Less => {
                            let n =
                                result.as_number().ok_or(LfInstantiateError::DegenerateResult)?;
                            let delta = (n.abs() * 0.25).max(1.0);
                            // `sibling cmp val`: hole on side 1 means result
                            // is lhs. greater(lhs, val): true needs val < lhs.
                            let val_should_be_less = match (op, side) {
                                (LfOp::Greater, 1) => desired,
                                (LfOp::Greater, 0) => !desired,
                                (LfOp::Less, 1) => !desired,
                                (LfOp::Less, 0) => desired,
                                _ => return Err(LfInstantiateError::MalformedTemplate),
                            };
                            let v = if val_should_be_less { n - delta } else { n + delta };
                            let mut new_args = args.clone();
                            new_args[side] = LfExpr::Const(format_number(v));
                            partially = LfExpr::Apply(*op, new_args);
                            return finish(partially, table, ctx, kern, desired);
                        }
                        _ => return Err(LfInstantiateError::MalformedTemplate),
                    };
                    let literal = if wants_match {
                        result.clone()
                    } else {
                        perturb(&result, table, ctx, rng, candidates)
                            .ok_or(LfInstantiateError::NoValueCandidates)?
                    };
                    let mut new_args = args.clone();
                    new_args[side] = LfExpr::Const(literal.to_string());
                    partially = LfExpr::Apply(*op, new_args);
                }
            }
        }
        finish(partially, table, ctx, kern, desired)
    }
}

fn finish(
    expr: LfExpr,
    table: &Table,
    ctx: Option<&ExecContext>,
    kern: &mut tabular::KernelScratch,
    desired: bool,
) -> Result<InstantiatedClaim, LfInstantiateError> {
    if expr.has_holes() {
        return Err(LfInstantiateError::MalformedTemplate);
    }
    match evaluate_truth_impl(&expr, table, ctx, kern) {
        Ok(truth) if truth == desired => Ok(InstantiatedClaim { expr, truth }),
        // Let the caller retry with fresh sampling.
        Ok(_) => Err(LfInstantiateError::TruthUnreachable),
        Err(LfError::Empty { .. }) => Err(LfInstantiateError::DegenerateResult),
        Err(_) => Err(LfInstantiateError::ExecutionFailed),
    }
}

fn substitute_columns(e: &LfExpr, table: &Table, cols: &FxHashMap<usize, usize>) -> Option<LfExpr> {
    Some(match e {
        LfExpr::ColumnHole(i) => LfExpr::Column(table.column_name(*cols.get(i)?)?.to_string()),
        LfExpr::Apply(op, args) => LfExpr::Apply(
            *op,
            args.iter().map(|a| substitute_columns(a, table, cols)).collect::<Option<Vec<_>>>()?,
        ),
        other => other.clone(),
    })
}

/// Fills value holes in *filter/majority val slots* and *ordinal slots* by
/// sampling; leaves a root-comparator hole in place for the truth-targeting
/// step.
fn fill_inner_values(
    e: &LfExpr,
    table: &Table,
    ctx: Option<&ExecContext>,
    rng: &mut impl Rng,
    used: &mut FxHashMap<usize, Vec<Value>>,
    candidates: &mut Vec<usize>,
) -> Result<LfExpr, LfInstantiateError> {
    // Values already drawn per column: distinct holes over the same column
    // must bind distinct values, or comparative templates degenerate into
    // "X is greater than X".
    used.values_mut().for_each(Vec::clear);
    fn walk(
        e: &LfExpr,
        table: &Table,
        ctx: Option<&ExecContext>,
        rng: &mut impl Rng,
        at_root: bool,
        used: &mut FxHashMap<usize, Vec<Value>>,
        candidates: &mut Vec<usize>,
    ) -> Result<LfExpr, LfInstantiateError> {
        match e {
            LfExpr::Apply(op, args) => {
                use LfOp::*;
                let mut new_args: Vec<LfExpr> = Vec::with_capacity(args.len());
                for (slot, a) in args.iter().enumerate() {
                    let filled = match a {
                        LfExpr::ValueHole(_) => {
                            let is_root_comparator_slot =
                                at_root && matches!(op, Eq | NotEq | RoundEq | Greater | Less);
                            if is_root_comparator_slot {
                                a.clone() // deferred to truth targeting
                            } else if matches!(
                                op,
                                FilterEq
                                    | FilterNotEq
                                    | FilterGreater
                                    | FilterLess
                                    | FilterGreaterEq
                                    | FilterLessEq
                                    | AllEq
                                    | AllNotEq
                                    | AllGreater
                                    | AllLess
                                    | AllGreaterEq
                                    | AllLessEq
                                    | MostEq
                                    | MostNotEq
                                    | MostGreater
                                    | MostLess
                                    | MostGreaterEq
                                    | MostLessEq
                            ) && slot == 2
                            {
                                let ordered_op = matches!(
                                    op,
                                    FilterGreater
                                        | FilterLess
                                        | FilterGreaterEq
                                        | FilterLessEq
                                        | AllGreater
                                        | AllLess
                                        | AllGreaterEq
                                        | AllLessEq
                                        | MostGreater
                                        | MostLess
                                        | MostGreaterEq
                                        | MostLessEq
                                );
                                // Sample from the column in slot 1,
                                // avoiding values already bound to another
                                // hole of the same column.
                                let LfExpr::Column(col_name) = &args[1] else {
                                    return Err(LfInstantiateError::MalformedTemplate);
                                };
                                let ci = table
                                    .column_index(col_name)
                                    .ok_or(LfInstantiateError::MalformedTemplate)?;
                                let taken = used.entry(ci).or_default();
                                let mut v = match ctx {
                                    Some(ctx) => {
                                        // Index buffer over the context's
                                        // non-null pool: same filtered length
                                        // as the scan below, so the `choose`
                                        // draw is identical.
                                        let pool = ctx.non_null_values(ci);
                                        candidates.clear();
                                        candidates.extend(
                                            pool.iter()
                                                .enumerate()
                                                .filter(|(_, v)| {
                                                    !taken.iter().any(|t| t.loosely_equals(v))
                                                })
                                                .map(|(i, _)| i),
                                        );
                                        let idx = *candidates
                                            .choose(rng)
                                            .ok_or(LfInstantiateError::NoValueCandidates)?;
                                        pool[idx].clone()
                                    }
                                    None => {
                                        let candidates: Vec<Value> = table
                                            .column_values(ci)
                                            .into_iter()
                                            .filter(|v| !v.is_null())
                                            .filter(|v| !taken.iter().any(|t| t.loosely_equals(v)))
                                            .collect();
                                        candidates
                                            .choose(rng)
                                            .ok_or(LfInstantiateError::NoValueCandidates)?
                                            .clone()
                                    }
                                };
                                // Humans write round thresholds ("more than
                                // 70"), not cell-exact ones; round half the
                                // ordered-comparison thresholds the same way.
                                if ordered_op && rng.gen_bool(0.5) {
                                    if let Some(n) = v.as_number() {
                                        v = Value::number(round_human(n));
                                    }
                                }
                                taken.push(v.clone());
                                LfExpr::Const(v.to_string())
                            } else if matches!(op, NthArgmax | NthArgmin | NthMax | NthMin)
                                && slot == 2
                            {
                                let max_n = table.n_rows().clamp(1, 3);
                                LfExpr::Const(format!("{}", rng.gen_range(1..=max_n)))
                            } else {
                                // Hole in an unsupported position.
                                return Err(LfInstantiateError::MalformedTemplate);
                            }
                        }
                        other => walk(other, table, ctx, rng, false, used, candidates)?,
                    };
                    new_args.push(filled);
                }
                Ok(LfExpr::Apply(*op, new_args))
            }
            other => Ok(other.clone()),
        }
    }
    walk(e, table, ctx, rng, true, used, candidates)
}

/// Rounds a threshold the way a human annotator would: to two leading
/// significant digits (77 -> 80 or 75, 48212 -> 48000).
fn round_human(n: f64) -> f64 {
    if n == 0.0 {
        return 0.0;
    }
    let mag = 10f64.powf(n.abs().log10().floor() - 1.0).max(1.0);
    (n / mag).round() * mag
}

/// Produces a value different from `v` for Refuted claims: numbers are
/// shifted by a noticeable margin, text values are replaced with a different
/// cell value from the table.
fn perturb(
    v: &Value,
    table: &Table,
    ctx: Option<&ExecContext>,
    rng: &mut impl Rng,
    candidates: &mut Vec<usize>,
) -> Option<Value> {
    match v {
        Value::Number(n) => {
            let delta = (n.abs() * 0.3).max(1.0) * if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
            Some(Value::number(n + delta))
        }
        Value::Text(s) => match ctx {
            // The context's distinct-text pool is built in the same
            // row-major scan order, so filtering it by the excluded value
            // yields exactly the pool the scan below would build.
            Some(ctx) => {
                // Index buffer: same filtered length as the scan below, so
                // the `choose` draw is identical.
                let pool = ctx.text_pool();
                candidates.clear();
                candidates.extend(
                    pool.iter()
                        .enumerate()
                        .filter(|(_, t)| !t.eq_ignore_ascii_case(s))
                        .map(|(i, _)| i),
                );
                candidates.choose(rng).map(|&i| Value::Text(pool[i].to_string()))
            }
            None => {
                let mut pool: Vec<String> = Vec::new();
                for row in table.rows() {
                    for cell in row {
                        if let Value::Text(t) = cell {
                            if !t.eq_ignore_ascii_case(s) && !pool.contains(t) {
                                pool.push(t.clone());
                            }
                        }
                    }
                }
                pool.choose(rng).cloned().map(Value::Text)
            }
        },
        Value::Date(d) => {
            let year = d.year + if rng.gen_bool(0.5) { 1 } else { -1 };
            tabular::Date::new(year, d.month, d.day).map(Value::Date)
        }
        Value::Bool(b) => Some(Value::Bool(!b)),
        Value::Null => None,
    }
}

/// Abstracts a concrete logical form into a template: column leaves become
/// `cN` (consistent numbering) and constants in value slots become `valN`.
/// Ordinal constants (the `n` of `nth_max`) are part of the logic structure
/// and stay concrete.
pub fn abstract_form(expr: &LfExpr) -> LfTemplate {
    let mut col_map: FxHashMap<String, usize> = FxHashMap::default();
    let mut next_col = 1usize;
    let mut next_val = 1usize;

    fn walk(
        e: &LfExpr,
        parent: Option<(LfOp, usize, bool)>, // (op, slot, at_root)
        col_map: &mut FxHashMap<String, usize>,
        next_col: &mut usize,
        next_val: &mut usize,
    ) -> LfExpr {
        use LfOp::*;
        match e {
            LfExpr::Column(name) => {
                let key = name.to_ascii_lowercase();
                let idx = *col_map.entry(key).or_insert_with(|| {
                    let i = *next_col;
                    *next_col += 1;
                    i
                });
                LfExpr::ColumnHole(idx)
            }
            LfExpr::Const(text) => {
                if let Some((op, slot, at_root)) = parent {
                    let is_filter_val = matches!(
                        op,
                        FilterEq
                            | FilterNotEq
                            | FilterGreater
                            | FilterLess
                            | FilterGreaterEq
                            | FilterLessEq
                            | AllEq
                            | AllNotEq
                            | AllGreater
                            | AllLess
                            | AllGreaterEq
                            | AllLessEq
                            | MostEq
                            | MostNotEq
                            | MostGreater
                            | MostLess
                            | MostGreaterEq
                            | MostLessEq
                    ) && slot == 2;
                    let is_root_cmp_val =
                        at_root && matches!(op, Eq | NotEq | RoundEq | Greater | Less);
                    if is_filter_val || is_root_cmp_val {
                        let i = *next_val;
                        *next_val += 1;
                        return LfExpr::ValueHole(i);
                    }
                    let _ = text;
                }
                e.clone()
            }
            LfExpr::Apply(op, args) => {
                let at_root = parent.is_none();
                LfExpr::Apply(
                    *op,
                    args.iter()
                        .enumerate()
                        .map(|(slot, a)| {
                            walk(a, Some((*op, slot, at_root)), col_map, next_col, next_val)
                        })
                        .collect(),
                )
            }
            other => other.clone(),
        }
    }

    LfTemplate { expr: walk(expr, None, &mut col_map, &mut next_col, &mut next_val) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::evaluate_truth;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tabular::KernelScratch;

    fn table() -> Table {
        Table::from_strings(
            "Teams",
            &[
                vec!["team", "city", "points", "wins"],
                vec!["Reds", "Oslo", "77", "21"],
                vec!["Blues", "Lima", "64", "18"],
                vec!["Greens", "Kyiv", "81", "24"],
                vec!["Golds", "Quito", "59", "15"],
            ],
        )
        .unwrap_or_else(|e| panic!("test table: {e}"))
    }

    /// [`LfTemplate::try_instantiate`] on `t` with a fresh context.
    fn instantiate(
        tpl: &LfTemplate,
        t: &Table,
        rng: &mut StdRng,
        desired: bool,
    ) -> Result<InstantiatedClaim, LfInstantiateError> {
        tpl.try_instantiate(&ExecContext::new(t), rng, desired, &mut LfScratch::default())
    }

    /// [`evaluate_truth`] on `t` with a fresh context.
    fn truth(expr: &LfExpr, t: &Table) -> Result<bool, LfError> {
        evaluate_truth(expr, &ExecContext::new(t), &mut KernelScratch::default())
    }

    #[test]
    fn instantiate_supported_claim() -> Result<(), Box<dyn std::error::Error>> {
        let tpl =
            LfTemplate::parse("eq { hop { filter_eq { all_rows ; c1 ; val1 } ; c2 } ; val2 }")?;
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..10 {
            let claim = instantiate(&tpl, &table(), &mut rng, true)?;
            assert!(claim.truth);
            assert!(truth(&claim.expr, &table())?);
        }
        Ok(())
    }

    #[test]
    fn instantiate_refuted_claim() -> Result<(), Box<dyn std::error::Error>> {
        let tpl =
            LfTemplate::parse("eq { hop { filter_eq { all_rows ; c1 ; val1 } ; c2 } ; val2 }")?;
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10 {
            let claim = instantiate(&tpl, &table(), &mut rng, false)?;
            assert!(!claim.truth);
            assert!(!truth(&claim.expr, &table())?);
        }
        Ok(())
    }

    #[test]
    fn instantiate_superlative_template() -> Result<(), Box<dyn std::error::Error>> {
        let tpl = LfTemplate::parse("eq { hop { argmax { all_rows ; c1 } ; c2 } ; val1 }")?;
        let mut rng = StdRng::seed_from_u64(3);
        let claim = instantiate(&tpl, &table(), &mut rng, true)?;
        assert!(claim.truth);
        // c1 must have bound a numeric column.
        let rendered = claim.expr.to_string();
        assert!(rendered.contains("points") || rendered.contains("wins"), "{rendered}");
        Ok(())
    }

    #[test]
    fn instantiate_count_template_both_labels() -> Result<(), Box<dyn std::error::Error>> {
        let tpl = LfTemplate::parse("eq { count { filter_eq { all_rows ; c1 ; val1 } } ; val2 }")?;
        let mut rng = StdRng::seed_from_u64(11);
        let sup = instantiate(&tpl, &table(), &mut rng, true)?;
        assert!(sup.truth);
        let refuted = instantiate(&tpl, &table(), &mut rng, false)?;
        assert!(!refuted.truth);
        Ok(())
    }

    #[test]
    fn instantiate_majority_template() -> Result<(), Box<dyn std::error::Error>> {
        let tpl = LfTemplate::parse("most_greater { all_rows ; c1 ; val1 }")?;
        let mut rng = StdRng::seed_from_u64(5);
        // Either label should be reachable within retries on this table.
        let sup = instantiate(&tpl, &table(), &mut rng, true);
        assert!(sup?.truth);
        Ok(())
    }

    #[test]
    fn instantiate_greater_root() -> Result<(), Box<dyn std::error::Error>> {
        let tpl = LfTemplate::parse("greater { max { all_rows ; c1 } ; val1 }")?;
        let mut rng = StdRng::seed_from_u64(13);
        let sup = instantiate(&tpl, &table(), &mut rng, true)?;
        assert!(sup.truth);
        let refuted = instantiate(&tpl, &table(), &mut rng, false)?;
        assert!(!refuted.truth);
        Ok(())
    }

    #[test]
    fn instantiate_ordinal_template() -> Result<(), Box<dyn std::error::Error>> {
        let tpl =
            LfTemplate::parse("eq { hop { nth_argmax { all_rows ; c1 ; val1 } ; c2 } ; val2 }")?;
        let mut rng = StdRng::seed_from_u64(17);
        let claim = instantiate(&tpl, &table(), &mut rng, true)?;
        assert!(claim.truth);
        assert_eq!(claim.expr.logic_type(), LogicType::Ordinal);
        Ok(())
    }

    #[test]
    fn instantiate_fails_without_numeric_column() -> Result<(), Box<dyn std::error::Error>> {
        let t = Table::from_strings("t", &[vec!["a", "b"], vec!["x", "y"], vec!["z", "w"]])?;
        let tpl = LfTemplate::parse("eq { max { all_rows ; c1 } ; val1 }")?;
        let mut rng = StdRng::seed_from_u64(1);
        assert!(instantiate(&tpl, &t, &mut rng, true).is_err());
        assert_eq!(
            instantiate(&tpl, &t, &mut rng, true),
            Err(LfInstantiateError::NoCompatibleColumn)
        );
        Ok(())
    }

    #[test]
    fn try_instantiate_reports_empty_table() -> Result<(), Box<dyn std::error::Error>> {
        let t = Table::from_strings("t", &[vec!["a", "b"]])?;
        let tpl = LfTemplate::parse("eq { count { all_rows } ; val1 }")?;
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(instantiate(&tpl, &t, &mut rng, true), Err(LfInstantiateError::EmptyTable));
        Ok(())
    }

    #[test]
    fn column_holes_numeric_inference() -> Result<(), Box<dyn std::error::Error>> {
        let tpl = LfTemplate::parse("eq { hop { argmax { all_rows ; c1 } ; c2 } ; val1 }")?;
        let holes = tpl.column_holes();
        assert_eq!(holes, vec![(1, true), (2, false)]);
        Ok(())
    }

    #[test]
    fn round_human_two_significant_digits() {
        assert_eq!(round_human(77.0), 77.0); // already 2 significant digits
        assert_eq!(round_human(777.0), 780.0);
        assert_eq!(round_human(48212.0), 48000.0);
        assert_eq!(round_human(0.0), 0.0);
        assert_eq!(round_human(5.0), 5.0);
        assert_eq!(round_human(-1234.0), -1200.0);
    }

    #[test]
    fn abstraction_consistent_numbering() -> Result<(), Box<dyn std::error::Error>> {
        let e = parse("eq { hop { filter_eq { all_rows ; team ; Reds } ; points } ; 77 }")?;
        let tpl = abstract_form(&e);
        assert_eq!(
            tpl.signature(),
            "eq { hop { filter_eq { all_rows ; c1 ; val1 } ; c2 } ; val2 }"
        );
        Ok(())
    }

    #[test]
    fn abstraction_keeps_ordinals() -> Result<(), Box<dyn std::error::Error>> {
        let e = parse("eq { nth_max { all_rows ; points ; 2 } ; 77 }")?;
        let tpl = abstract_form(&e);
        assert_eq!(tpl.signature(), "eq { nth_max { all_rows ; c1 ; 2 } ; val1 }");
        Ok(())
    }

    #[test]
    fn abstraction_dedups_same_structure() -> Result<(), Box<dyn std::error::Error>> {
        let a = parse("eq { count { filter_eq { all_rows ; team ; Reds } } ; 1 }")?;
        let b = parse("eq { count { filter_eq { all_rows ; city ; Oslo } } ; 1 }")?;
        // Constant `1` at root becomes a hole in both.
        assert_eq!(abstract_form(&a).signature(), abstract_form(&b).signature());
        Ok(())
    }

    #[test]
    fn abstract_then_instantiate_roundtrip() -> Result<(), Box<dyn std::error::Error>> {
        let e = parse("eq { hop { argmin { all_rows ; wins } ; team } ; Golds }")?;
        let tpl = abstract_form(&e);
        let mut rng = StdRng::seed_from_u64(23);
        let claim = instantiate(&tpl, &table(), &mut rng, true)?;
        assert!(claim.truth);
        Ok(())
    }
}
