//! Logical-form evaluator.
//!
//! Evaluates an [`LfExpr`] against a table. Fact-verification programs have
//! boolean roots; intermediate nodes evaluate to row sets ("views"), single
//! rows, or scalars. Like the SQL executor, evaluation records the
//! highlighted cells that took part in the reasoning, which the
//! Table-To-Text operator consumes.

use crate::ast::{LfExpr, LfOp};
use std::fmt;
use tabular::{kernels, nearly_equal, ExecContext, KernelScratch, Table, Value};

/// Runtime value of a logical-form node.
#[derive(Debug, Clone, PartialEq)]
pub enum LfValue {
    /// A subset of row indexes.
    View(Vec<usize>),
    /// A single row index.
    Row(usize),
    /// A scalar.
    Scalar(Value),
    /// A truth value.
    Bool(bool),
}

impl LfValue {
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            LfValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_scalar(&self) -> Option<&Value> {
        match self {
            LfValue::Scalar(v) => Some(v),
            _ => None,
        }
    }
}

/// Evaluation error.
#[derive(Debug, Clone, PartialEq)]
pub enum LfError {
    UnknownColumn(String),
    /// An argument had the wrong runtime type for its operator.
    TypeMismatch {
        op: LfOp,
        expected: &'static str,
    },
    /// A row/ordinal lookup found nothing (empty view, n out of range).
    Empty {
        op: LfOp,
    },
    /// The expression still contains template holes.
    Uninstantiated,
    /// A numeric operation met a non-numeric value.
    NonNumeric {
        op: LfOp,
    },
    /// An evaluator invariant was violated (never expected on any input; a
    /// `Discard`-able stand-in for what would otherwise be a panic).
    Internal {
        op: LfOp,
    },
}

impl fmt::Display for LfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LfError::UnknownColumn(c) => write!(f, "unknown column `{c}`"),
            LfError::TypeMismatch { op, expected } => {
                write!(f, "`{op}` expected {expected}")
            }
            LfError::Empty { op } => write!(f, "`{op}` on empty input"),
            LfError::Uninstantiated => write!(f, "logical form still contains template holes"),
            LfError::NonNumeric { op } => write!(f, "`{op}` needs numeric values"),
            LfError::Internal { op } => write!(f, "`{op}` evaluator invariant violated"),
        }
    }
}

impl std::error::Error for LfError {}

/// Evaluation outcome with the cells used.
#[derive(Debug, Clone, PartialEq)]
pub struct LfOutcome {
    pub value: LfValue,
    pub highlighted: Vec<(usize, usize)>,
}

/// Evaluates a fully instantiated logical form on `ctx`'s table. Numeric
/// reads come from `ctx`'s parsed cell grid; views, gathers and highlights
/// reuse `kern`'s buffers, so evaluation allocates nothing per expression.
pub fn evaluate(
    expr: &LfExpr,
    ctx: &ExecContext,
    kern: &mut KernelScratch,
) -> Result<LfOutcome, LfError> {
    evaluate_impl(expr, ctx.table(), Some(ctx), kern)
}

/// [`evaluate`] with an optional context; `None` is the oracle of
/// [`crate::reference::evaluate`].
pub(crate) fn evaluate_impl(
    expr: &LfExpr,
    table: &Table,
    ctx: Option<&ExecContext>,
    kern: &mut KernelScratch,
) -> Result<LfOutcome, LfError> {
    if expr.has_holes() {
        return Err(LfError::Uninstantiated);
    }
    let mut hl = std::mem::take(&mut kern.hl);
    hl.clear();
    let value = match eval(expr, table, ctx, kern, &mut hl) {
        Ok(v) => v,
        Err(e) => {
            kern.hl = hl;
            return Err(e);
        }
    };
    // Same sorted distinct set a hash-set collect + sort produced.
    hl.sort_unstable();
    hl.dedup();
    let highlighted = hl.clone();
    kern.hl = hl;
    Ok(LfOutcome { value, highlighted })
}

/// Evaluates a boolean-rooted program to its truth value like [`evaluate`],
/// without materializing the highlight set.
pub fn evaluate_truth(
    expr: &LfExpr,
    ctx: &ExecContext,
    kern: &mut KernelScratch,
) -> Result<bool, LfError> {
    evaluate_truth_impl(expr, ctx.table(), Some(ctx), kern)
}

/// [`evaluate_truth`] with an optional context; `None` is the oracle of
/// [`crate::reference::evaluate_truth`].
pub(crate) fn evaluate_truth_impl(
    expr: &LfExpr,
    table: &Table,
    ctx: Option<&ExecContext>,
    kern: &mut KernelScratch,
) -> Result<bool, LfError> {
    if expr.has_holes() {
        return Err(LfError::Uninstantiated);
    }
    let mut hl = std::mem::take(&mut kern.hl);
    hl.clear();
    let res = eval(expr, table, ctx, kern, &mut hl);
    kern.hl = hl;
    truth_of(res?)
}

fn truth_of(value: LfValue) -> Result<bool, LfError> {
    value
        .as_bool()
        .ok_or(LfError::TypeMismatch { op: LfOp::Eq, expected: "a boolean-rooted program" })
}

fn column_index(table: &Table, e: &LfExpr) -> Result<usize, LfError> {
    match e {
        LfExpr::Column(name) | LfExpr::Const(name) => {
            table.column_index(name).ok_or_else(|| LfError::UnknownColumn(name.clone()))
        }
        _ => Err(LfError::TypeMismatch { op: LfOp::Hop, expected: "a column name" }),
    }
}

/// The cached numeric reading of a cell: `ctx.number_at` mirrors
/// `Value::as_number` cell-for-cell, so either source is exact.
#[inline]
fn cell_number(ctx: Option<&ExecContext>, cell: &Value, ri: usize, col: usize) -> Option<f64> {
    match ctx {
        Some(ctx) => ctx.number_at(ri, col),
        None => cell.as_number(),
    }
}

fn eval(
    e: &LfExpr,
    table: &Table,
    ctx: Option<&ExecContext>,
    kern: &mut KernelScratch,
    hl: &mut Vec<(usize, usize)>,
) -> Result<LfValue, LfError> {
    use LfOp::*;
    match e {
        LfExpr::AllRows => {
            let mut rows = kern.take_rows();
            rows.extend(0..table.n_rows());
            Ok(LfValue::View(rows))
        }
        LfExpr::Column(name) => Ok(LfValue::Scalar(Value::text(name.clone()))),
        LfExpr::Const(text) => Ok(LfValue::Scalar(Value::parse(text))),
        LfExpr::ColumnHole(_) | LfExpr::ValueHole(_) => Err(LfError::Uninstantiated),
        LfExpr::Apply(op, args) => match op {
            FilterEq | FilterNotEq | FilterGreater | FilterLess | FilterGreaterEq
            | FilterLessEq => {
                let mut view = eval_view(&args[0], table, ctx, kern, hl)?;
                let col = column_index(table, &args[1])?;
                let rhs = eval_scalar(&args[2], table, ctx, kern, hl)?;
                // The comparison value is fixed across the whole view; parse
                // its numeric reading once instead of per row.
                let rhs_num = rhs.as_number();
                // In-place retain visits rows in view order, so highlight
                // pushes and the surviving row order match the historical
                // keep-vector loop exactly.
                view.retain(|&ri| {
                    let Some(cell) = table.cell(ri, col) else { return false };
                    if cell.is_null() {
                        return false;
                    }
                    hl.push((ri, col));
                    match op {
                        FilterEq => cell.loosely_equals(&rhs),
                        FilterNotEq => !cell.loosely_equals(&rhs),
                        FilterGreater => {
                            num_cmp(cell_number(ctx, cell, ri, col), rhs_num, |a, b| a > b)
                        }
                        FilterLess => {
                            num_cmp(cell_number(ctx, cell, ri, col), rhs_num, |a, b| a < b)
                        }
                        FilterGreaterEq => {
                            num_cmp(cell_number(ctx, cell, ri, col), rhs_num, |a, b| a >= b)
                        }
                        FilterLessEq => {
                            num_cmp(cell_number(ctx, cell, ri, col), rhs_num, |a, b| a <= b)
                        }
                        _ => false,
                    }
                });
                Ok(LfValue::View(view))
            }
            FilterAll => {
                let mut view = eval_view(&args[0], table, ctx, kern, hl)?;
                let col = column_index(table, &args[1])?;
                view.retain(|&ri| {
                    let non_null = table.cell(ri, col).is_some_and(|v| !v.is_null());
                    if non_null {
                        hl.push((ri, col));
                    }
                    non_null
                });
                Ok(LfValue::View(view))
            }
            Argmax | Argmin | NthArgmax | NthArgmin => {
                let view = eval_view(&args[0], table, ctx, kern, hl)?;
                let col = column_index(table, &args[1])?;
                let descending = matches!(op, Argmax | NthArgmax);
                if let Some(ctx) = ctx.filter(|c| c.all_number(col)) {
                    // Kernel path: every non-null cell is a number, so the
                    // `Value`-keyed stable sort is the numeric stable sort
                    // and null-skipping equals number-skipping.
                    let mut keys = std::mem::take(&mut kern.keys);
                    keys.clear();
                    for &ri in &view {
                        if let Some(n) = ctx.number_at(ri, col) {
                            hl.push((ri, col));
                            keys.push((n, ri));
                        }
                    }
                    kern.put_rows(view);
                    if keys.is_empty() {
                        kern.keys = keys;
                        return Err(LfError::Empty { op: *op });
                    }
                    let row = match op {
                        Argmax => Ok(kernels::argmax_pairs(keys.iter().map(|&(n, ri)| (ri, n)))),
                        Argmin => Ok(kernels::argmin_pairs(keys.iter().map(|&(n, ri)| (ri, n)))),
                        _ => eval_ordinal(&args[2], table, Some(ctx), kern, hl)
                            .map(|n| kernels::nth_arg_pairs(&mut keys, n, descending)),
                    };
                    kern.keys = keys;
                    return row?.map(LfValue::Row).ok_or(LfError::Empty { op: *op });
                }
                // Per-cell fallback: mixed or non-numeric column. Sort keys
                // borrow the cells instead of cloning them.
                let mut keyed: Vec<(&Value, usize)> = Vec::with_capacity(view.len());
                for &ri in &view {
                    if let Some(v) = table.cell(ri, col) {
                        if !v.is_null() {
                            hl.push((ri, col));
                            keyed.push((v, ri));
                        }
                    }
                }
                kern.put_rows(view);
                if keyed.is_empty() {
                    return Err(LfError::Empty { op: *op });
                }
                keyed.sort_by(|a, b| if descending { b.0.cmp(a.0) } else { a.0.cmp(b.0) });
                let n = match op {
                    Argmax | Argmin => 1usize,
                    _ => eval_ordinal(&args[2], table, ctx, kern, hl)?,
                };
                keyed
                    .get(n.checked_sub(1).ok_or(LfError::Empty { op: *op })?)
                    .map(|(_, ri)| LfValue::Row(*ri))
                    .ok_or(LfError::Empty { op: *op })
            }
            Count => {
                let view = eval_view(&args[0], table, ctx, kern, hl)?;
                let len = view.len();
                kern.put_rows(view);
                Ok(LfValue::Scalar(Value::Number(len as f64)))
            }
            Only => {
                let view = eval_view(&args[0], table, ctx, kern, hl)?;
                let len = view.len();
                kern.put_rows(view);
                Ok(LfValue::Bool(len == 1))
            }
            Max | Min | Sum | Avg | NthMax | NthMin => {
                let view = eval_view(&args[0], table, ctx, kern, hl)?;
                let col = column_index(table, &args[1])?;
                let mut nums = std::mem::take(&mut kern.nums);
                nums.clear();
                for &ri in &view {
                    let n = match ctx {
                        Some(ctx) => ctx.number_at(ri, col),
                        None => table.cell(ri, col).and_then(Value::as_number),
                    };
                    if let Some(n) = n {
                        hl.push((ri, col));
                        nums.push(n);
                    }
                }
                kern.put_rows(view);
                if nums.is_empty() {
                    kern.nums = nums;
                    return Err(LfError::Empty { op: *op });
                }
                let v = match op {
                    Max => Ok(kernels::fold_max(&nums)),
                    Min => Ok(kernels::fold_min(&nums)),
                    Sum => Ok(kernels::sum(&nums)),
                    Avg => Ok(kernels::sum(&nums) / nums.len() as f64),
                    NthMax | NthMin => eval_ordinal(&args[2], table, ctx, kern, hl).and_then(|n| {
                        kernels::sort_total(&mut nums);
                        if matches!(op, NthMax) {
                            nums.reverse();
                        }
                        n.checked_sub(1)
                            .and_then(|i| nums.get(i).copied())
                            .ok_or(LfError::Empty { op: *op })
                    }),
                    _ => Err(LfError::Internal { op: *op }),
                };
                kern.nums = nums;
                Ok(LfValue::Scalar(Value::number(v?)))
            }
            Hop => {
                let row = match eval(&args[0], table, ctx, kern, hl)? {
                    LfValue::Row(r) => r,
                    LfValue::View(v) => {
                        let first = v.first().copied();
                        kern.put_rows(v);
                        first.ok_or(LfError::Empty { op: *op })?
                    }
                    _ => return Err(LfError::TypeMismatch { op: *op, expected: "a row" }),
                };
                let col = column_index(table, &args[1])?;
                hl.push((row, col));
                Ok(LfValue::Scalar(table.cell(row, col).cloned().unwrap_or(Value::Null)))
            }
            Diff => {
                let a = eval_scalar(&args[0], table, ctx, kern, hl)?;
                let b = eval_scalar(&args[1], table, ctx, kern, hl)?;
                match (a.as_number(), b.as_number()) {
                    (Some(x), Some(y)) => Ok(LfValue::Scalar(Value::number(x - y))),
                    _ => Err(LfError::NonNumeric { op: *op }),
                }
            }
            Eq | NotEq | RoundEq | Greater | Less => {
                let a = eval_scalar(&args[0], table, ctx, kern, hl)?;
                let b = eval_scalar(&args[1], table, ctx, kern, hl)?;
                let res = match op {
                    Eq => a.loosely_equals(&b),
                    NotEq => !a.loosely_equals(&b),
                    RoundEq => match (a.as_number(), b.as_number()) {
                        (Some(x), Some(y)) => {
                            let scale = x.abs().max(y.abs()).max(1.0);
                            (x - y).abs() <= 0.01 * scale
                        }
                        _ => a.loosely_equals(&b),
                    },
                    Greater => num_cmp(a.as_number(), b.as_number(), |x, y| x > y),
                    Less => num_cmp(a.as_number(), b.as_number(), |x, y| x < y),
                    _ => return Err(LfError::Internal { op: *op }),
                };
                Ok(LfValue::Bool(res))
            }
            And => {
                let a = eval(&args[0], table, ctx, kern, hl)?
                    .as_bool()
                    .ok_or(LfError::TypeMismatch { op: *op, expected: "booleans" })?;
                let b = eval(&args[1], table, ctx, kern, hl)?
                    .as_bool()
                    .ok_or(LfError::TypeMismatch { op: *op, expected: "booleans" })?;
                Ok(LfValue::Bool(a && b))
            }
            AllEq | AllNotEq | AllGreater | AllLess | AllGreaterEq | AllLessEq | MostEq
            | MostNotEq | MostGreater | MostLess | MostGreaterEq | MostLessEq => {
                let view = eval_view(&args[0], table, ctx, kern, hl)?;
                let col = column_index(table, &args[1])?;
                let rhs = eval_scalar(&args[2], table, ctx, kern, hl)?;
                if view.is_empty() {
                    kern.put_rows(view);
                    return Err(LfError::Empty { op: *op });
                }
                let rhs_num = rhs.as_number();
                let mut matches = 0usize;
                let total = view.len();
                for &ri in &view {
                    let cell = table.cell(ri, col).unwrap_or(&Value::Null);
                    hl.push((ri, col));
                    let m = match op {
                        AllEq | MostEq => cell.loosely_equals(&rhs),
                        AllNotEq | MostNotEq => !cell.is_null() && !cell.loosely_equals(&rhs),
                        AllGreater | MostGreater => {
                            num_cmp(cell_number(ctx, cell, ri, col), rhs_num, |a, b| a > b)
                        }
                        AllLess | MostLess => {
                            num_cmp(cell_number(ctx, cell, ri, col), rhs_num, |a, b| a < b)
                        }
                        AllGreaterEq | MostGreaterEq => {
                            num_cmp(cell_number(ctx, cell, ri, col), rhs_num, |a, b| a >= b)
                        }
                        AllLessEq | MostLessEq => {
                            num_cmp(cell_number(ctx, cell, ri, col), rhs_num, |a, b| a <= b)
                        }
                        _ => return Err(LfError::Internal { op: *op }),
                    };
                    if m {
                        matches += 1;
                    }
                }
                kern.put_rows(view);
                let is_all = matches!(
                    op,
                    AllEq | AllNotEq | AllGreater | AllLess | AllGreaterEq | AllLessEq
                );
                Ok(LfValue::Bool(if is_all { matches == total } else { 2 * matches > total }))
            }
        },
    }
}

fn eval_view(
    e: &LfExpr,
    table: &Table,
    ctx: Option<&ExecContext>,
    kern: &mut KernelScratch,
    hl: &mut Vec<(usize, usize)>,
) -> Result<Vec<usize>, LfError> {
    match eval(e, table, ctx, kern, hl)? {
        LfValue::View(v) => Ok(v),
        LfValue::Row(r) => {
            let mut rows = kern.take_rows();
            rows.push(r);
            Ok(rows)
        }
        _ => Err(LfError::TypeMismatch { op: LfOp::Count, expected: "a view" }),
    }
}

fn eval_scalar(
    e: &LfExpr,
    table: &Table,
    ctx: Option<&ExecContext>,
    kern: &mut KernelScratch,
    hl: &mut Vec<(usize, usize)>,
) -> Result<Value, LfError> {
    match eval(e, table, ctx, kern, hl)? {
        LfValue::Scalar(v) => Ok(v),
        LfValue::Bool(b) => Ok(Value::Bool(b)),
        _ => Err(LfError::TypeMismatch { op: LfOp::Eq, expected: "a scalar" }),
    }
}

fn eval_ordinal(
    e: &LfExpr,
    table: &Table,
    ctx: Option<&ExecContext>,
    kern: &mut KernelScratch,
    hl: &mut Vec<(usize, usize)>,
) -> Result<usize, LfError> {
    let v = eval_scalar(e, table, ctx, kern, hl)?;
    v.as_number()
        .filter(|n| *n >= 1.0 && n.fract() == 0.0)
        .map(|n| n as usize)
        .ok_or(LfError::TypeMismatch { op: LfOp::NthMax, expected: "a positive integer ordinal" })
}

/// The executors' near-equality comparison rule over pre-extracted numeric
/// readings: near-equal pairs collapse to "equal" before the strict
/// comparison runs, and non-numeric operands never match.
fn num_cmp(a: Option<f64>, b: Option<f64>, f: impl Fn(f64, f64) -> bool) -> bool {
    match (a, b) {
        (Some(x), Some(y)) => {
            if nearly_equal(x, y) {
                // treat near-equal as equal for strict comparisons
                f(0.0, 0.0)
            } else {
                f(x, y)
            }
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn table() -> Table {
        Table::from_strings(
            "Printers",
            &[
                vec!["model", "material", "speed", "price"],
                vec!["P100", "PLA", "60", "199"],
                vec!["P200", "ABS", "80", "299"],
                vec!["P300", "PLA", "95", "399"],
                vec!["P400", "PETG", "95", "349"],
            ],
        )
        .unwrap_or_else(|e| panic!("test table: {e}"))
    }

    /// [`evaluate`] on the test table with a fresh context.
    fn run(expr: &LfExpr) -> Result<LfOutcome, LfError> {
        let t = table();
        evaluate(expr, &ExecContext::new(&t), &mut KernelScratch::default())
    }

    /// [`evaluate_truth`] on the test table with a fresh context.
    fn run_truth(expr: &LfExpr) -> Result<bool, LfError> {
        let t = table();
        evaluate_truth(expr, &ExecContext::new(&t), &mut KernelScratch::default())
    }

    fn truth(form: &str) -> bool {
        let expr = parse(form).unwrap_or_else(|e| panic!("test form: {e}"));
        run_truth(&expr).unwrap_or_else(|e| panic!("test eval: {e}"))
    }

    #[test]
    fn count_claims() {
        assert!(truth("eq { count { filter_eq { all_rows ; material ; PLA } } ; 2 }"));
        assert!(!truth("eq { count { filter_eq { all_rows ; material ; PLA } } ; 3 }"));
    }

    #[test]
    fn superlative_claims() {
        assert!(truth("eq { hop { argmax { all_rows ; speed } ; model } ; P300 }"));
        assert!(truth("eq { hop { argmin { all_rows ; price } ; model } ; P100 }"));
        assert!(!truth("eq { hop { argmax { all_rows ; price } ; model } ; P100 }"));
    }

    #[test]
    fn argmax_tie_breaks_to_first() {
        // speed 95 appears twice (P300, P400); argmax picks the first.
        assert!(truth("eq { hop { argmax { all_rows ; speed } ; model } ; P300 }"));
    }

    #[test]
    fn ordinal_claims() {
        assert!(truth("eq { hop { nth_argmax { all_rows ; price ; 2 } ; model } ; P400 }"));
        assert!(truth("eq { nth_max { all_rows ; price ; 3 } ; 299 }"));
        assert!(truth("eq { nth_min { all_rows ; speed ; 1 } ; 60 }"));
    }

    #[test]
    fn aggregation_claims() {
        assert!(truth("round_eq { avg { all_rows ; price } ; 311.5 }"));
        assert!(truth("eq { sum { all_rows ; speed } ; 330 }"));
        assert!(truth("eq { max { all_rows ; price } ; 399 }"));
        assert!(truth("eq { min { all_rows ; speed } ; 60 }"));
    }

    #[test]
    fn majority_claims() {
        assert!(truth("most_greater { all_rows ; speed ; 70 }"));
        assert!(!truth("all_greater { all_rows ; speed ; 70 }"));
        assert!(truth("all_greater { all_rows ; price ; 100 }"));
        assert!(truth("most_eq { filter_eq { all_rows ; material ; PLA } ; material ; PLA }"));
    }

    #[test]
    fn unique_claims() {
        assert!(truth("only { filter_eq { all_rows ; material ; ABS } }"));
        assert!(!truth("only { filter_eq { all_rows ; material ; PLA } }"));
    }

    #[test]
    fn comparative_claims() {
        assert!(truth(
            "greater { hop { filter_eq { all_rows ; model ; P200 } ; price } ; hop { filter_eq { all_rows ; model ; P100 } ; price } }"
        ));
        assert!(truth(
            "eq { diff { hop { filter_eq { all_rows ; model ; P300 } ; price } ; hop { filter_eq { all_rows ; model ; P200 } ; price } } ; 100 }"
        ));
    }

    #[test]
    fn conjunction_claims() {
        assert!(truth(
            "and { eq { count { all_rows } ; 4 } ; greater { max { all_rows ; speed } ; 90 } }"
        ));
        assert!(!truth(
            "and { eq { count { all_rows } ; 4 } ; greater { max { all_rows ; speed } ; 100 } }"
        ));
    }

    #[test]
    fn filter_chains() {
        assert!(truth(
            "eq { count { filter_greater { filter_eq { all_rows ; material ; PLA } ; price ; 200 } } ; 1 }"
        ));
    }

    #[test]
    fn empty_superlative_is_error() -> Result<(), Box<dyn std::error::Error>> {
        let e = parse("eq { hop { argmax { filter_eq { all_rows ; material ; WOOD } ; price } ; model } ; P1 }")?;
        assert!(matches!(run_truth(&e), Err(LfError::Empty { .. })));
        Ok(())
    }

    #[test]
    fn unknown_column_is_error() -> Result<(), Box<dyn std::error::Error>> {
        let e = parse("eq { max { all_rows ; bogus } ; 1 }")?;
        assert!(matches!(run_truth(&e), Err(LfError::UnknownColumn(_))));
        Ok(())
    }

    #[test]
    fn template_is_uninstantiated() -> Result<(), Box<dyn std::error::Error>> {
        let e = parse("eq { count { filter_eq { all_rows ; c1 ; val1 } } ; val2 }")?;
        assert!(matches!(run_truth(&e), Err(LfError::Uninstantiated)));
        Ok(())
    }

    #[test]
    fn highlights_cover_reasoning_cells() -> Result<(), Box<dyn std::error::Error>> {
        let e = parse("eq { hop { argmax { all_rows ; speed } ; model } ; P300 }")?;
        let out = run(&e)?;
        // speed column scanned for all rows; model of the argmax row read.
        assert!(out.highlighted.contains(&(0, 2)));
        assert!(out.highlighted.contains(&(3, 2)));
        assert!(out.highlighted.contains(&(2, 0)));
        Ok(())
    }

    #[test]
    fn non_boolean_root_rejected_by_truth() -> Result<(), Box<dyn std::error::Error>> {
        let e = parse("count { all_rows }")?;
        assert!(run_truth(&e).is_err());
        // but plain evaluate returns the scalar
        let out = run(&e)?;
        assert_eq!(out.value, LfValue::Scalar(Value::Number(4.0)));
        Ok(())
    }

    #[test]
    fn ordinal_out_of_range_is_error() -> Result<(), Box<dyn std::error::Error>> {
        let e = parse("eq { nth_max { all_rows ; price ; 9 } ; 1 }")?;
        assert!(matches!(run_truth(&e), Err(LfError::Empty { .. })));
        Ok(())
    }
}
