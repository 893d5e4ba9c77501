//! SQL executor over [`tabular::Table`].
//!
//! This is the workspace's substitute for the paper's sqlite3 executor
//! (§V-B): given a fully instantiated `SelectStmt` and a table, it produces
//! the denotation the Program-Executor module reports as the answer.
//!
//! Execution also records **highlighted cells** — the `(row, col)` pairs
//! that participated in filtering, ordering and projection — because the
//! Table-To-Text operator needs them to choose which row to verbalize
//! (paper §III-A: "we define the cells involving the reasoning process as
//! highlighted cells").

use crate::ast::*;
use rustc_hash::FxHashSet;
use std::borrow::Cow;
use std::fmt::{self, Write as _};
use tabular::{KernelScratch, LooseIndex, Table, Value};

/// Execution error.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// A named column was not found in the table.
    UnknownColumn(String),
    /// The statement still contains template placeholders.
    Uninstantiated,
    /// Division by zero in a scalar expression.
    DivisionByZero,
    /// An aggregate was applied to a column with no usable values.
    EmptyAggregate,
    /// An executor invariant was violated (never expected on any input; a
    /// `Discard`-able stand-in for what would otherwise be a panic).
    Internal(&'static str),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnknownColumn(c) => write!(f, "unknown column `{c}`"),
            ExecError::Uninstantiated => {
                write!(f, "statement still contains template placeholders")
            }
            ExecError::DivisionByZero => write!(f, "division by zero"),
            ExecError::EmptyAggregate => write!(f, "aggregate over empty input"),
            ExecError::Internal(what) => write!(f, "executor invariant violated: {what}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// What executing a query yields: the answer, rendered once, and the
/// source-table cells that took part. No result cell is copied.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// The non-null result values in row order, rendered and joined with
    /// `", "`.
    pub answer: String,
    /// Whether any result value was non-null (paper §IV-C: a query whose
    /// result has none is discarded during sampling).
    pub non_null: bool,
    /// Result rows, after DISTINCT, GROUP BY and LIMIT.
    pub n_rows: usize,
    /// Source-table cells that took part in the computation, sorted.
    pub highlighted: Vec<(usize, usize)>,
}

impl QueryResult {
    fn new() -> QueryResult {
        QueryResult { answer: String::new(), non_null: false, n_rows: 0, highlighted: vec![] }
    }

    /// Appends one result value to the answer; nulls are skipped.
    fn push(&mut self, v: &Value) {
        if v.is_null() {
            return;
        }
        if self.non_null {
            self.answer.push_str(", ");
        }
        // Writing to a `String` cannot fail.
        let _ = write!(self.answer, "{v}");
        self.non_null = true;
    }
}

/// Rejects statements that still carry placeholders, and validates every
/// column reference up front (a zero-row table must still reject unknown
/// columns, as real SQL engines do).
pub(crate) fn check_stmt(stmt: &SelectStmt, table: &Table) -> Result<(), ExecError> {
    if stmt.has_placeholders() {
        return Err(ExecError::Uninstantiated);
    }
    let mut bad: Option<String> = None;
    stmt.visit_columns(&mut |c| {
        if let ColumnRef::Named(name) = c {
            if bad.is_none() && table.column_index(name).is_none() {
                bad = Some(name.clone());
            }
        }
    });
    match bad {
        Some(name) => Err(ExecError::UnknownColumn(name)),
        None => Ok(()),
    }
}

/// Executes a fully instantiated SELECT statement against a table. The
/// statement is compiled once to column indices, rows are evaluated with
/// borrowed cells, and highlights accumulate in `kern`'s pooled buffer.
pub fn execute(
    stmt: &SelectStmt,
    table: &Table,
    kern: &mut KernelScratch,
) -> Result<QueryResult, ExecError> {
    check_stmt(stmt, table)?;
    let plan = compile(stmt, table)?;
    let mut hl = std::mem::take(&mut kern.hl);
    hl.clear();
    let res = run_compiled(stmt, &plan, table, kern, &mut hl);
    let out = res.map(|mut result| {
        // One sort + dedup yields the same sorted set the interpreter
        // collects through its hash set.
        hl.sort_unstable();
        hl.dedup();
        result.highlighted = hl.clone();
        result
    });
    kern.hl = hl;
    out
}

/// A column-resolved expression: the per-row loop touches indices only.
enum CExpr {
    Col(usize),
    Lit(Value),
    Binary { op: ArithOp, lhs: Box<CExpr>, rhs: Box<CExpr> },
}

enum CCond {
    Compare { op: CmpOp, lhs: CExpr, rhs: CExpr },
    And(Box<CCond>, Box<CCond>),
    Or(Box<CCond>, Box<CCond>),
}

enum CItem {
    Star,
    Expr(CExpr),
    Agg { func: AggFunc, arg: Option<CExpr>, distinct: bool },
}

struct Plan {
    items: Vec<CItem>,
    where_clause: Option<CCond>,
    order_by: Option<(CExpr, OrderDir)>,
    group_by: Option<usize>,
}

fn compile(stmt: &SelectStmt, table: &Table) -> Result<Plan, ExecError> {
    let items = stmt
        .items
        .iter()
        .map(|item| {
            Ok(match item {
                SelectItem::Star => CItem::Star,
                SelectItem::Expr(e) => CItem::Expr(compile_expr(e, table)?),
                SelectItem::Aggregate { func, arg, distinct } => CItem::Agg {
                    func: *func,
                    arg: arg.as_ref().map(|a| compile_expr(a, table)).transpose()?,
                    distinct: *distinct,
                },
            })
        })
        .collect::<Result<Vec<_>, ExecError>>()?;
    Ok(Plan {
        items,
        where_clause: stmt.where_clause.as_ref().map(|c| compile_cond(c, table)).transpose()?,
        order_by: stmt
            .order_by
            .as_ref()
            .map(|(e, dir)| Ok::<_, ExecError>((compile_expr(e, table)?, *dir)))
            .transpose()?,
        group_by: stmt.group_by.as_ref().map(|c| resolve(c, table)).transpose()?,
    })
}

fn compile_expr(e: &Expr, table: &Table) -> Result<CExpr, ExecError> {
    Ok(match e {
        Expr::Column(c) => CExpr::Col(resolve(c, table)?),
        Expr::Literal(v) => CExpr::Lit(v.clone()),
        Expr::ValuePlaceholder(_) => return Err(ExecError::Uninstantiated),
        Expr::Binary { op, lhs, rhs } => CExpr::Binary {
            op: *op,
            lhs: Box::new(compile_expr(lhs, table)?),
            rhs: Box::new(compile_expr(rhs, table)?),
        },
    })
}

fn compile_cond(c: &Cond, table: &Table) -> Result<CCond, ExecError> {
    Ok(match c {
        Cond::Compare { op, lhs, rhs } => CCond::Compare {
            op: *op,
            lhs: compile_expr(lhs, table)?,
            rhs: compile_expr(rhs, table)?,
        },
        Cond::And(x, y) => {
            CCond::And(Box::new(compile_cond(x, table)?), Box::new(compile_cond(y, table)?))
        }
        Cond::Or(x, y) => {
            CCond::Or(Box::new(compile_cond(x, table)?), Box::new(compile_cond(y, table)?))
        }
    })
}

/// The first `limit` entries of `kept` (the interpreter's `take(n)`), as a
/// slice instead of a fresh vector.
fn limited(kept: &[usize], limit: Option<usize>) -> &[usize] {
    match limit {
        Some(n) => &kept[..n.min(kept.len())],
        None => kept,
    }
}

fn run_compiled(
    stmt: &SelectStmt,
    plan: &Plan,
    table: &Table,
    kern: &mut KernelScratch,
    hl: &mut Vec<(usize, usize)>,
) -> Result<QueryResult, ExecError> {
    // 1. WHERE filter.
    let mut kept = kern.take_rows();
    for ri in 0..table.n_rows() {
        let keep = match &plan.where_clause {
            Some(cond) => eval_cond_c(cond, table, ri, hl)?,
            None => true,
        };
        if keep {
            kept.push(ri);
        }
    }

    // 2. ORDER BY (on source rows, before projection). Borrowed sort keys:
    // same stable sort and `Value` comparator as the interpreter, no cell
    // clones.
    if let Some((expr, dir)) = &plan.order_by {
        let mut keyed: Vec<(Cow<'_, Value>, usize)> = Vec::with_capacity(kept.len());
        for &ri in &kept {
            let v = match eval_expr_c(expr, table, ri, hl) {
                Ok(v) => v,
                Err(e) => {
                    kern.put_rows(kept);
                    return Err(e);
                }
            };
            keyed.push((v, ri));
        }
        keyed.sort_by(|a, b| {
            let ord = a.0.as_ref().cmp(b.0.as_ref());
            if *dir == OrderDir::Desc {
                ord.reverse()
            } else {
                ord
            }
        });
        for (slot, (_, ri)) in kept.iter_mut().zip(keyed.iter()) {
            *slot = *ri;
        }
    }

    let has_aggregate = plan.items.iter().any(|i| matches!(i, CItem::Agg { .. }));

    let res = if let Some(gci) = plan.group_by {
        exec_grouped_c(stmt, plan, table, &kept, gci, hl)
    } else if has_aggregate {
        // Whole-filtered-set aggregation: one output row. LIMIT applies to
        // the input rows first.
        aggregate(plan, table, limited(&kept, stmt.limit), hl)
    } else {
        project(stmt, plan, table, limited(&kept, stmt.limit), hl)
    };
    kern.put_rows(kept);
    res
}

/// The one output row of an aggregate select over `input`.
fn aggregate(
    plan: &Plan,
    table: &Table,
    input: &[usize],
    hl: &mut Vec<(usize, usize)>,
) -> Result<QueryResult, ExecError> {
    let mut result = QueryResult::new();
    for item in &plan.items {
        match item {
            CItem::Agg { func, arg, distinct } => {
                result.push(&eval_aggregate_c(*func, arg.as_ref(), *distinct, table, input, hl)?)
            }
            CItem::Expr(e) => {
                // Mixed select: evaluate on the first row if any.
                if let Some(&ri) = input.first() {
                    result.push(&*eval_expr_c(e, table, ri, hl)?);
                }
            }
            CItem::Star => return Err(ExecError::UnknownColumn("* mixed with aggregate".into())),
        }
    }
    result.n_rows = 1;
    Ok(result)
}

/// Plain projection of `rows_in`. Without DISTINCT each row is rendered as
/// it is evaluated; with it, the rows' values are kept as borrows until the
/// first occurrences under `==` (which `Hash for Value` agrees with) are
/// known.
fn project(
    stmt: &SelectStmt,
    plan: &Plan,
    table: &Table,
    rows_in: &[usize],
    hl: &mut Vec<(usize, usize)>,
) -> Result<QueryResult, ExecError> {
    let mut result = QueryResult::new();
    let mut cells: Vec<Cow<'_, Value>> = Vec::new();
    for &ri in rows_in {
        if !stmt.distinct {
            cells.clear();
        }
        for item in &plan.items {
            match item {
                CItem::Star => {
                    for ci in 0..table.n_cols() {
                        hl.push((ri, ci));
                        cells.push(Cow::Borrowed(table.cell(ri, ci).unwrap_or(&Value::Null)));
                    }
                }
                CItem::Expr(e) => cells.push(eval_expr_c(e, table, ri, hl)?),
                CItem::Agg { .. } => {
                    return Err(ExecError::Internal("aggregate item in plain projection"))
                }
            }
        }
        if !stmt.distinct {
            cells.iter().for_each(|v| result.push(v));
        }
    }
    if stmt.distinct {
        let width = cells.len().checked_div(rows_in.len()).unwrap_or(0);
        let mut seen = FxHashSet::default();
        for i in 0..rows_in.len() {
            let row = &cells[i * width..(i + 1) * width];
            if seen.insert(row) {
                row.iter().for_each(|v| result.push(v));
                result.n_rows += 1;
            }
        }
    } else {
        result.n_rows = rows_in.len();
    }
    Ok(result)
}

fn exec_grouped_c(
    stmt: &SelectStmt,
    plan: &Plan,
    table: &Table,
    kept: &[usize],
    gci: usize,
    hl: &mut Vec<(usize, usize)>,
) -> Result<QueryResult, ExecError> {
    // Group in first-occurrence order.
    let mut index = LooseIndex::default();
    let mut groups: Vec<(&Value, Vec<usize>)> = Vec::new();
    for &ri in kept {
        let key = table.cell(ri, gci).unwrap_or(&Value::Null);
        hl.push((ri, gci));
        match groups.get_mut(index.insert(key).0) {
            Some((_, members)) => members.push(ri),
            None => groups.push((key, vec![ri])),
        }
    }
    // Every group is evaluated, for its highlights and errors; LIMIT keeps
    // the first groups' values.
    let mut result = QueryResult::new();
    result.n_rows = stmt.limit.map_or(groups.len(), |n| n.min(groups.len()));
    for (gi, (key, members)) in groups.iter().enumerate() {
        let shown = gi < result.n_rows;
        for item in &plan.items {
            let v = match item {
                CItem::Expr(CExpr::Col(ci)) if *ci == gci => Cow::Borrowed(*key),
                CItem::Expr(e) => match members.first() {
                    Some(&ri) => eval_expr_c(e, table, ri, hl)?,
                    None => Cow::Owned(Value::Null),
                },
                CItem::Agg { func, arg, distinct } => Cow::Owned(eval_aggregate_c(
                    *func,
                    arg.as_ref(),
                    *distinct,
                    table,
                    members,
                    hl,
                )?),
                CItem::Star => return Err(ExecError::UnknownColumn("* in group by".into())),
            };
            if shown {
                result.push(&v);
            }
        }
    }
    Ok(result)
}

fn eval_expr_c<'t>(
    e: &'t CExpr,
    table: &'t Table,
    row: usize,
    hl: &mut Vec<(usize, usize)>,
) -> Result<Cow<'t, Value>, ExecError> {
    match e {
        CExpr::Col(ci) => {
            hl.push((row, *ci));
            Ok(match table.cell(row, *ci) {
                Some(v) => Cow::Borrowed(v),
                None => Cow::Owned(Value::Null),
            })
        }
        CExpr::Lit(v) => Ok(Cow::Borrowed(v)),
        CExpr::Binary { op, lhs, rhs } => {
            let a = eval_expr_c(lhs, table, row, hl)?;
            let b = eval_expr_c(rhs, table, row, hl)?;
            let (Some(x), Some(y)) = (a.as_number(), b.as_number()) else {
                return Ok(Cow::Owned(Value::Null));
            };
            let r = match op {
                ArithOp::Add => x + y,
                ArithOp::Sub => x - y,
                ArithOp::Mul => x * y,
                ArithOp::Div => {
                    if y == 0.0 {
                        return Err(ExecError::DivisionByZero);
                    }
                    x / y
                }
            };
            Ok(Cow::Owned(Value::number(r)))
        }
    }
}

fn eval_cond_c(
    c: &CCond,
    table: &Table,
    row: usize,
    hl: &mut Vec<(usize, usize)>,
) -> Result<bool, ExecError> {
    match c {
        CCond::Compare { op, lhs, rhs } => {
            let a = eval_expr_c(lhs, table, row, hl)?;
            let b = eval_expr_c(rhs, table, row, hl)?;
            if a.is_null() || b.is_null() {
                return Ok(false); // SQL three-valued logic: NULL compares false
            }
            Ok(match op {
                CmpOp::Eq => a.loosely_equals(&b),
                CmpOp::NotEq => !a.loosely_equals(&b),
                CmpOp::Lt => compare_lt(&a, &b),
                CmpOp::Gt => compare_lt(&b, &a),
                CmpOp::LtEq => !compare_lt(&b, &a),
                CmpOp::GtEq => !compare_lt(&a, &b),
            })
        }
        CCond::And(x, y) => Ok(eval_cond_c(x, table, row, hl)? && eval_cond_c(y, table, row, hl)?),
        CCond::Or(x, y) => Ok(eval_cond_c(x, table, row, hl)? || eval_cond_c(y, table, row, hl)?),
    }
}

fn eval_aggregate_c(
    func: AggFunc,
    arg: Option<&CExpr>,
    distinct: bool,
    table: &Table,
    rows: &[usize],
    hl: &mut Vec<(usize, usize)>,
) -> Result<Value, ExecError> {
    // COUNT(*) counts rows.
    let Some(arg) = arg else {
        return Ok(Value::Number(rows.len() as f64));
    };
    let mut values: Vec<Cow<'_, Value>> = Vec::with_capacity(rows.len());
    for &ri in rows {
        let v = eval_expr_c(arg, table, ri, hl)?;
        if !v.is_null() {
            values.push(v);
        }
    }
    if distinct {
        let mut index = LooseIndex::default();
        values.retain(|v| index.insert(v).1);
    }
    match func {
        AggFunc::Count => Ok(Value::Number(values.len() as f64)),
        AggFunc::Sum | AggFunc::Avg => {
            // Sequential accumulation in values order — the same fold as
            // collecting the numbers and `iter().sum()`.
            let mut n = 0usize;
            let mut s = 0.0f64;
            for v in &values {
                if let Some(x) = v.as_number() {
                    s += x;
                    n += 1;
                }
            }
            if n == 0 {
                return Ok(Value::Null);
            }
            Ok(Value::number(if func == AggFunc::Sum { s } else { s / n as f64 }))
        }
        // `Iterator::min` keeps the first of equal elements and
        // `Iterator::max` the last, over refs exactly as over owned values.
        AggFunc::Min => Ok(values.iter().map(|c| c.as_ref()).min().cloned().unwrap_or(Value::Null)),
        AggFunc::Max => Ok(values.iter().map(|c| c.as_ref()).max().cloned().unwrap_or(Value::Null)),
    }
}

pub(crate) fn resolve(c: &ColumnRef, table: &Table) -> Result<usize, ExecError> {
    match c {
        ColumnRef::Named(name) => {
            table.column_index(name).ok_or_else(|| ExecError::UnknownColumn(name.clone()))
        }
        ColumnRef::Placeholder { .. } => Err(ExecError::Uninstantiated),
    }
}

/// `<` with numeric coercion where possible, else the total `Value` order.
pub(crate) fn compare_lt(a: &Value, b: &Value) -> bool {
    match (a.as_number(), b.as_number()) {
        (Some(x), Some(y)) => x < y,
        _ => a < b,
    }
}

/// Convenience: parse + execute.
pub fn run_sql(query: &str, table: &Table) -> Result<QueryResult, String> {
    let stmt = crate::parser::parse(query).map_err(|e| e.to_string())?;
    execute(&stmt, table, &mut KernelScratch::default()).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        Table::from_strings(
            "Departments",
            &[
                vec!["department", "total deputies", "budget", "founded"],
                vec!["Commerce", "18", "500", "1913-03-04"],
                vec!["Defense", "42", "9000", "1947-09-18"],
                vec!["Treasury", "30", "3000", "1789-09-02"],
                vec!["Energy", "12", "700", "1977-08-04"],
            ],
        )
        .unwrap_or_else(|e| panic!("test table: {e}"))
    }

    #[test]
    fn select_with_order_limit() -> Result<(), Box<dyn std::error::Error>> {
        let r =
            run_sql("select [department] from w order by [total deputies] desc limit 1", &table())?;
        assert_eq!(r.answer, "Defense");
        Ok(())
    }

    #[test]
    fn select_where_eq() -> Result<(), Box<dyn std::error::Error>> {
        let r = run_sql("select [budget] from w where [department] = 'Treasury'", &table())?;
        assert_eq!(r.answer, "3000");
        Ok(())
    }

    #[test]
    fn where_case_insensitive_text_match() -> Result<(), Box<dyn std::error::Error>> {
        let r = run_sql("select [budget] from w where [department] = 'treasury'", &table())?;
        assert_eq!(r.answer, "3000");
        Ok(())
    }

    #[test]
    fn count_star_with_filter() -> Result<(), Box<dyn std::error::Error>> {
        let r = run_sql("select count(*) from w where [total deputies] > 15", &table())?;
        assert_eq!(r.answer, "3");
        Ok(())
    }

    #[test]
    fn sum_and_avg() -> Result<(), Box<dyn std::error::Error>> {
        let r = run_sql("select sum([budget]) from w", &table())?;
        assert_eq!(r.answer, "13200");
        let r = run_sql("select avg([total deputies]) from w", &table())?;
        assert_eq!(r.answer, "25.5");
        Ok(())
    }

    #[test]
    fn min_max_on_text() -> Result<(), Box<dyn std::error::Error>> {
        let r = run_sql("select min([department]) from w", &table())?;
        assert_eq!(r.answer, "Commerce");
        let r = run_sql("select max([department]) from w", &table())?;
        assert_eq!(r.answer, "Treasury");
        Ok(())
    }

    #[test]
    fn arithmetic_diff_between_columns() -> Result<(), Box<dyn std::error::Error>> {
        let r = run_sql(
            "select [budget] - [total deputies] from w where [department] = 'Energy'",
            &table(),
        )?;
        assert_eq!(r.answer, "688");
        Ok(())
    }

    #[test]
    fn conjunction_where() -> Result<(), Box<dyn std::error::Error>> {
        let r = run_sql(
            "select [department] from w where [total deputies] > 15 and [budget] < 4000",
            &table(),
        )?;
        assert_eq!(r.answer, "Commerce, Treasury");
        Ok(())
    }

    #[test]
    fn or_where() -> Result<(), Box<dyn std::error::Error>> {
        let r = run_sql(
            "select [department] from w where [department] = 'Energy' or [department] = 'Defense'",
            &table(),
        )?;
        assert_eq!(r.answer, "Defense, Energy");
        Ok(())
    }

    #[test]
    fn distinct_dedups() -> Result<(), Box<dyn std::error::Error>> {
        let t = Table::from_strings("t", &[vec!["x"], vec!["a"], vec!["a"], vec!["b"]])?;
        let r = run_sql("select distinct [x] from w", &t)?;
        assert_eq!((r.answer.as_str(), r.n_rows), ("a, b", 2));
        Ok(())
    }

    #[test]
    fn group_by_count() -> Result<(), Box<dyn std::error::Error>> {
        let t = Table::from_strings(
            "t",
            &[vec!["team", "pts"], vec!["a", "1"], vec!["b", "2"], vec!["a", "3"]],
        )?;
        let r = run_sql("select [team], count(*) from w group by [team]", &t)?;
        assert_eq!((r.answer.as_str(), r.n_rows), ("a, 2, b, 1", 2));
        Ok(())
    }

    #[test]
    fn group_by_sum() -> Result<(), Box<dyn std::error::Error>> {
        let t = Table::from_strings(
            "t",
            &[vec!["team", "pts"], vec!["a", "1"], vec!["b", "2"], vec!["a", "3"]],
        )?;
        let r = run_sql("select [team], sum([pts]) from w group by [team]", &t)?;
        assert_eq!(r.answer, "a, 4, b, 2");
        Ok(())
    }

    #[test]
    fn empty_result_detected() -> Result<(), Box<dyn std::error::Error>> {
        let r = run_sql("select [department] from w where [total deputies] > 1000", &table())?;
        assert!(!r.non_null);
        assert_eq!((r.answer.as_str(), r.n_rows), ("", 0));
        Ok(())
    }

    #[test]
    fn unknown_column_error() {
        let err = run_sql("select [nope] from w", &table()).unwrap_err();
        assert!(err.contains("unknown column"));
    }

    #[test]
    fn uninstantiated_template_error() {
        let err = run_sql("select c1 from w", &table()).unwrap_err();
        assert!(err.contains("placeholders"));
    }

    #[test]
    fn division_by_zero_error() -> Result<(), Box<dyn std::error::Error>> {
        let t = Table::from_strings("t", &[vec!["a", "b"], vec!["1", "0"]])?;
        let err = run_sql("select [a] / [b] from w", &t).unwrap_err();
        assert!(err.contains("division"));
        Ok(())
    }

    #[test]
    fn nulls_filtered_by_comparisons() -> Result<(), Box<dyn std::error::Error>> {
        let t = Table::from_strings("t", &[vec!["x", "y"], vec!["", "1"], vec!["5", "2"]])?;
        let r = run_sql("select [y] from w where [x] > 0", &t)?;
        assert_eq!(r.answer, "2");
        Ok(())
    }

    #[test]
    fn date_comparisons() -> Result<(), Box<dyn std::error::Error>> {
        let r = run_sql("select [department] from w where [founded] > '1950-01-01'", &table())?;
        assert_eq!(r.answer, "Energy");
        Ok(())
    }

    #[test]
    fn highlights_recorded() -> Result<(), Box<dyn std::error::Error>> {
        let r =
            run_sql("select [department] from w order by [total deputies] desc limit 1", &table())?;
        // Ordering touched column 1 of every row; projection touched (1, 0).
        assert!(r.highlighted.contains(&(1, 0)));
        assert!(r.highlighted.contains(&(0, 1)));
        assert!(r.highlighted.contains(&(3, 1)));
        Ok(())
    }

    #[test]
    fn order_by_asc_default() -> Result<(), Box<dyn std::error::Error>> {
        let r = run_sql("select [department] from w order by [budget] limit 2", &table())?;
        assert_eq!(r.answer, "Commerce, Energy");
        Ok(())
    }

    #[test]
    fn count_distinct() -> Result<(), Box<dyn std::error::Error>> {
        let t = Table::from_strings("t", &[vec!["x"], vec!["a"], vec!["A"], vec!["b"]])?;
        let r = run_sql("select count(distinct [x]) from w", &t)?;
        assert_eq!(r.answer, "2"); // loose (case-insensitive) equality
        Ok(())
    }

    #[test]
    fn group_by_then_limit() -> Result<(), Box<dyn std::error::Error>> {
        let t = Table::from_strings(
            "t",
            &[vec!["team", "pts"], vec!["a", "1"], vec!["b", "2"], vec!["a", "3"], vec!["c", "9"]],
        )?;
        let r = run_sql("select [team], sum([pts]) from w group by [team] limit 2", &t)?;
        assert_eq!((r.answer.as_str(), r.n_rows), ("a, 4, b, 2", 2));
        // Groups past the limit are still evaluated: their cells highlight.
        assert!(r.highlighted.contains(&(3, 1)));
        Ok(())
    }

    #[test]
    fn where_on_ordered_limit_applies_before_limit() -> Result<(), Box<dyn std::error::Error>> {
        // WHERE filters first, then ORDER BY, then LIMIT.
        let r = run_sql(
            "select [department] from w where [budget] < 5000 order by [total deputies] desc limit 1",
            &table(),
        )
        ?;
        assert_eq!(r.answer, "Treasury");
        Ok(())
    }

    #[test]
    fn aggregate_after_order_limit() -> Result<(), Box<dyn std::error::Error>> {
        // SQUALL pattern: value of the top row.
        let r =
            run_sql("select max([budget]) from w order by [total deputies] asc limit 2", &table())?;
        // Two smallest by deputies: Energy (700), Commerce (500) -> max 700.
        assert_eq!(r.answer, "700");
        Ok(())
    }
}
