//! The context-free test oracle: the per-cell SQL interpreter and sampling
//! by table scans. `tests/kernel_parity.rs` and `tests/exec_context.rs` pin
//! [`crate::execute`] and [`SqlTemplate::try_instantiate`] to it (identical
//! results, identical RNG draws); `clippy.toml` rejects any other call.

use crate::ast::*;
use crate::exec::{check_stmt, compare_lt, resolve, ExecError, QueryResult};
use crate::template::{SqlInstantiateError, SqlScratch, SqlTemplate};
use rand::Rng;
use rustc_hash::FxHashSet;
use tabular::{Table, Value};

/// [`SqlTemplate::try_instantiate`] without a context.
pub fn try_instantiate(
    template: &SqlTemplate,
    table: &Table,
    rng: &mut impl Rng,
) -> Result<SelectStmt, SqlInstantiateError> {
    template.sample(table, None, rng, &mut SqlScratch::default())
}

/// [`crate::execute`] as a per-cell interpreter.
pub fn execute(stmt: &SelectStmt, table: &Table) -> Result<QueryResult, ExecError> {
    check_stmt(stmt, table)?;
    let mut highlights: FxHashSet<(usize, usize)> = FxHashSet::default();

    // 1. WHERE filter.
    let mut kept: Vec<usize> = Vec::with_capacity(table.n_rows());
    for ri in 0..table.n_rows() {
        let keep = match &stmt.where_clause {
            Some(cond) => eval_cond(cond, table, ri, &mut highlights)?,
            None => true,
        };
        if keep {
            kept.push(ri);
        }
    }

    // 2. ORDER BY (on source rows, before projection).
    if let Some((expr, dir)) = &stmt.order_by {
        let mut keyed: Vec<(Value, usize)> = Vec::with_capacity(kept.len());
        for &ri in &kept {
            let v = eval_expr(expr, table, ri, &mut highlights)?;
            keyed.push((v, ri));
        }
        keyed.sort_by(|a, b| {
            let ord = a.0.cmp(&b.0);
            if *dir == OrderDir::Desc {
                ord.reverse()
            } else {
                ord
            }
        });
        kept = keyed.into_iter().map(|(_, ri)| ri).collect();
    }

    let has_aggregate = stmt.items.iter().any(|i| matches!(i, SelectItem::Aggregate { .. }));

    let rows = if let Some(group_col) = &stmt.group_by {
        exec_grouped(stmt, table, &kept, group_col, &mut highlights)?
    } else if has_aggregate {
        // Whole-filtered-set aggregation: one output row. LIMIT applies to
        // the input rows first (SQUALL templates use `order by ... limit 1`
        // then aggregate).
        let input: Vec<usize> = match stmt.limit {
            Some(n) => kept.iter().copied().take(n).collect(),
            None => kept.clone(),
        };
        let mut row = Vec::with_capacity(stmt.items.len());
        for item in &stmt.items {
            match item {
                SelectItem::Aggregate { func, arg, distinct } => {
                    row.push(eval_aggregate(
                        *func,
                        arg.as_ref(),
                        *distinct,
                        table,
                        &input,
                        &mut highlights,
                    )?);
                }
                SelectItem::Expr(e) => {
                    // Mixed select: evaluate on the first row if any.
                    let v = input
                        .first()
                        .map(|&ri| eval_expr(e, table, ri, &mut highlights))
                        .transpose()?
                        .unwrap_or(Value::Null);
                    row.push(v);
                }
                SelectItem::Star => {
                    return Err(ExecError::UnknownColumn("* mixed with aggregate".into()))
                }
            }
        }
        vec![row]
    } else {
        // Plain projection.
        let rows_in: Vec<usize> = match stmt.limit {
            Some(n) => kept.iter().copied().take(n).collect(),
            None => kept.clone(),
        };
        let mut rows: Vec<Vec<Value>> = Vec::with_capacity(rows_in.len());
        for &ri in &rows_in {
            let mut out = Vec::new();
            for item in &stmt.items {
                match item {
                    SelectItem::Star => {
                        for ci in 0..table.n_cols() {
                            highlights.insert((ri, ci));
                            out.push(table.cell(ri, ci).cloned().unwrap_or(Value::Null));
                        }
                    }
                    SelectItem::Expr(e) => out.push(eval_expr(e, table, ri, &mut highlights)?),
                    SelectItem::Aggregate { .. } => {
                        return Err(ExecError::Internal("aggregate item in plain projection"))
                    }
                }
            }
            rows.push(out);
        }
        if stmt.distinct {
            let mut seen: Vec<Vec<Value>> = Vec::new();
            rows.retain(|r| {
                if seen.iter().any(|s| s == r) {
                    false
                } else {
                    seen.push(r.clone());
                    true
                }
            });
        }
        rows
    };

    let mut highlighted: Vec<(usize, usize)> = highlights.into_iter().collect();
    highlighted.sort_unstable();
    let answer: Vec<String> =
        rows.iter().flatten().filter(|v| !v.is_null()).map(Value::to_string).collect();
    Ok(QueryResult {
        non_null: !answer.is_empty(),
        answer: answer.join(", "),
        n_rows: rows.len(),
        highlighted,
    })
}

fn exec_grouped(
    stmt: &SelectStmt,
    table: &Table,
    kept: &[usize],
    group_col: &ColumnRef,
    highlights: &mut FxHashSet<(usize, usize)>,
) -> Result<Vec<Vec<Value>>, ExecError> {
    let gci = resolve(group_col, table)?;
    // Group in first-occurrence order.
    let mut groups: Vec<(Value, Vec<usize>)> = Vec::new();
    for &ri in kept {
        let key = table.cell(ri, gci).cloned().unwrap_or(Value::Null);
        highlights.insert((ri, gci));
        match groups.iter_mut().find(|(k, _)| k.loosely_equals(&key)) {
            Some((_, members)) => members.push(ri),
            None => groups.push((key, vec![ri])),
        }
    }
    let mut rows = Vec::with_capacity(groups.len());
    for (key, members) in &groups {
        let mut out = Vec::with_capacity(stmt.items.len());
        for item in &stmt.items {
            match item {
                SelectItem::Expr(Expr::Column(c)) if resolve(c, table)? == gci => {
                    out.push(key.clone());
                }
                SelectItem::Expr(e) => {
                    let v = members
                        .first()
                        .map(|&ri| eval_expr(e, table, ri, highlights))
                        .transpose()?
                        .unwrap_or(Value::Null);
                    out.push(v);
                }
                SelectItem::Aggregate { func, arg, distinct } => {
                    out.push(eval_aggregate(
                        *func,
                        arg.as_ref(),
                        *distinct,
                        table,
                        members,
                        highlights,
                    )?);
                }
                SelectItem::Star => return Err(ExecError::UnknownColumn("* in group by".into())),
            }
        }
        rows.push(out);
    }
    if let Some(n) = stmt.limit {
        rows.truncate(n);
    }
    Ok(rows)
}

fn eval_expr(
    e: &Expr,
    table: &Table,
    row: usize,
    highlights: &mut FxHashSet<(usize, usize)>,
) -> Result<Value, ExecError> {
    match e {
        Expr::Column(c) => {
            let ci = resolve(c, table)?;
            highlights.insert((row, ci));
            Ok(table.cell(row, ci).cloned().unwrap_or(Value::Null))
        }
        Expr::Literal(v) => Ok(v.clone()),
        Expr::ValuePlaceholder(_) => Err(ExecError::Uninstantiated),
        Expr::Binary { op, lhs, rhs } => {
            let a = eval_expr(lhs, table, row, highlights)?;
            let b = eval_expr(rhs, table, row, highlights)?;
            let (Some(x), Some(y)) = (a.as_number(), b.as_number()) else {
                return Ok(Value::Null);
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
            Ok(Value::number(r))
        }
    }
}

fn eval_cond(
    c: &Cond,
    table: &Table,
    row: usize,
    highlights: &mut FxHashSet<(usize, usize)>,
) -> Result<bool, ExecError> {
    match c {
        Cond::Compare { op, lhs, rhs } => {
            let a = eval_expr(lhs, table, row, highlights)?;
            let b = eval_expr(rhs, table, row, highlights)?;
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
        Cond::And(x, y) => {
            Ok(eval_cond(x, table, row, highlights)? && eval_cond(y, table, row, highlights)?)
        }
        Cond::Or(x, y) => {
            Ok(eval_cond(x, table, row, highlights)? || eval_cond(y, table, row, highlights)?)
        }
    }
}

fn eval_aggregate(
    func: AggFunc,
    arg: Option<&Expr>,
    distinct: bool,
    table: &Table,
    rows: &[usize],
    highlights: &mut FxHashSet<(usize, usize)>,
) -> Result<Value, ExecError> {
    // COUNT(*) counts rows.
    let Some(arg) = arg else {
        return Ok(Value::Number(rows.len() as f64));
    };
    let mut values: Vec<Value> = Vec::with_capacity(rows.len());
    for &ri in rows {
        let v = eval_expr(arg, table, ri, highlights)?;
        if !v.is_null() {
            values.push(v);
        }
    }
    if distinct {
        let mut uniq: Vec<Value> = Vec::new();
        for v in values {
            if !uniq.iter().any(|u| u.loosely_equals(&v)) {
                uniq.push(v);
            }
        }
        values = uniq;
    }
    match func {
        AggFunc::Count => Ok(Value::Number(values.len() as f64)),
        AggFunc::Sum | AggFunc::Avg => {
            let nums: Vec<f64> = values.iter().filter_map(Value::as_number).collect();
            if nums.is_empty() {
                return Ok(Value::Null);
            }
            let s: f64 = nums.iter().sum();
            Ok(Value::number(if func == AggFunc::Sum { s } else { s / nums.len() as f64 }))
        }
        AggFunc::Min => Ok(values.into_iter().min().unwrap_or(Value::Null)),
        AggFunc::Max => Ok(values.into_iter().max().unwrap_or(Value::Null)),
    }
}
