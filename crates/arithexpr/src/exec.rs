//! Arithmetic-expression executor.
//!
//! Resolves cell references against a table using TAT-QA's convention: the
//! table's [`Table::entity_column`] holds row names, other columns are
//! addressed by header.
//! Executes steps in order, resolving `#N` references, and answers with the
//! final step's value. `greater` steps produce yes/no answers.

use crate::ast::{AeArg, AeOp, AeProgram};
use std::fmt::{self, Write as _};
use tabular::{format_number, kernels, ExecContext, KernelScratch, Table, Value};

/// The answer of an arithmetic program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AeAnswer {
    Number(f64),
    /// Result of a `greater` comparison.
    YesNo(bool),
}

impl AeAnswer {
    pub fn as_number(&self) -> Option<f64> {
        match self {
            AeAnswer::Number(n) => Some(*n),
            AeAnswer::YesNo(_) => None,
        }
    }
}

impl fmt::Display for AeAnswer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AeAnswer::Number(n) => write!(f, "{}", format_number(*n)),
            AeAnswer::YesNo(b) => write!(f, "{}", if *b { "yes" } else { "no" }),
        }
    }
}

/// Execution error.
#[derive(Debug, Clone, PartialEq)]
pub enum AeError {
    UnknownColumn(String),
    UnknownRow(String),
    /// The addressed cell exists but holds no number.
    NonNumericCell {
        col: String,
        row: String,
    },
    DivisionByZero,
    /// The program still contains template holes.
    Uninstantiated,
    /// A step used a boolean result as a number.
    BoolAsNumber,
    EmptyColumn(String),
    /// An executor invariant was violated (never expected on any input; a
    /// `Discard`-able stand-in for what would otherwise be a panic).
    Internal(&'static str),
}

impl fmt::Display for AeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AeError::UnknownColumn(c) => write!(f, "unknown column `{c}`"),
            AeError::UnknownRow(r) => write!(f, "unknown row `{r}`"),
            AeError::NonNumericCell { col, row } => {
                write!(f, "cell `{col}` of `{row}` is not numeric")
            }
            AeError::DivisionByZero => write!(f, "division by zero"),
            AeError::Uninstantiated => write!(f, "program still contains template holes"),
            AeError::BoolAsNumber => write!(f, "boolean step result used as a number"),
            AeError::EmptyColumn(c) => write!(f, "column `{c}` has no numeric values"),
            AeError::Internal(what) => write!(f, "executor invariant violated: {what}"),
        }
    }
}

impl std::error::Error for AeError {}

/// Outcome with the highlighted cells that fed the computation.
#[derive(Debug, Clone, PartialEq)]
pub struct AeOutcome {
    pub answer: AeAnswer,
    pub highlighted: Vec<(usize, usize)>,
}

/// Resolves `col of row` to a (row, col) pair.
fn locate_cell(
    table: &Table,
    ctx: Option<&ExecContext>,
    col: &str,
    row: &str,
) -> Result<(usize, usize), AeError> {
    let ci = table.column_index(col).ok_or_else(|| AeError::UnknownColumn(col.to_string()))?;
    let target = Value::parse(row);
    let name_col = table.entity_column();
    let ri = match ctx {
        // Same first-match scan, but a text name cell is compared as it
        // stands and any other cell is rendered into one reused buffer
        // instead of a `to_string` per row.
        Some(_) => {
            let mut rendered = String::new();
            (0..table.n_rows()).find(|&ri| {
                table.cell(ri, name_col).is_some_and(|v| {
                    v.loosely_equals(&target)
                        || match v {
                            Value::Text(t) => t.eq_ignore_ascii_case(row),
                            _ => {
                                rendered.clear();
                                let _ = write!(rendered, "{v}");
                                rendered.eq_ignore_ascii_case(row)
                            }
                        }
                })
            })
        }
        None => (0..table.n_rows()).find(|&ri| {
            table.cell(ri, name_col).is_some_and(|v| {
                v.loosely_equals(&target) || v.to_string().eq_ignore_ascii_case(row)
            })
        }),
    }
    .ok_or_else(|| AeError::UnknownRow(row.to_string()))?;
    Ok((ri, ci))
}

/// Executes a fully instantiated program against `ctx`'s table. Numbers
/// are the cells' `Value::as_number`; with a context, row names are matched
/// without a string per row; gathers and highlights reuse `kern`.
pub fn execute(
    program: &AeProgram,
    ctx: &ExecContext,
    kern: &mut KernelScratch,
) -> Result<AeOutcome, AeError> {
    execute_impl(program, ctx.table(), Some(ctx), kern, &mut Vec::new())
}

/// [`execute`] with an optional context (`None` is the oracle of
/// [`crate::reference::execute`]), writing step results into `results`.
pub(crate) fn execute_impl(
    program: &AeProgram,
    table: &Table,
    ctx: Option<&ExecContext>,
    kern: &mut KernelScratch,
    results: &mut Vec<AeAnswer>,
) -> Result<AeOutcome, AeError> {
    if program.has_holes() {
        return Err(AeError::Uninstantiated);
    }
    results.clear();
    // Accumulate highlights in the pooled buffer; only a successful run
    // clones them out into the returned outcome.
    let mut highlighted = std::mem::take(&mut kern.hl);
    highlighted.clear();
    let res = execute_steps(program, table, ctx, kern, results, &mut highlighted);
    let out = res.map(|answer| {
        highlighted.sort_unstable();
        highlighted.dedup();
        AeOutcome { answer, highlighted: highlighted.clone() }
    });
    kern.hl = highlighted;
    out
}

fn execute_steps(
    program: &AeProgram,
    table: &Table,
    ctx: Option<&ExecContext>,
    kern: &mut KernelScratch,
    results: &mut Vec<AeAnswer>,
    highlighted: &mut Vec<(usize, usize)>,
) -> Result<AeAnswer, AeError> {
    for step in &program.steps {
        let answer = if step.op.is_table_op() {
            let col_name = match &step.args[0] {
                AeArg::Column(c) => c.as_str(),
                AeArg::Cell { col, .. } => col.as_str(),
                _ => return Err(AeError::Uninstantiated),
            };
            let ci = table
                .column_index(col_name)
                .ok_or_else(|| AeError::UnknownColumn(col_name.to_string()))?;
            let mut nums = std::mem::take(&mut kern.nums);
            nums.clear();
            for ri in 0..table.n_rows() {
                if let Some(n) = table.cell(ri, ci).and_then(Value::as_number) {
                    highlighted.push((ri, ci));
                    nums.push(n);
                }
            }
            if nums.is_empty() {
                kern.nums = nums;
                return Err(AeError::EmptyColumn(col_name.to_string()));
            }
            let v = match step.op {
                AeOp::TableMax => Ok(kernels::fold_max(&nums)),
                AeOp::TableMin => Ok(kernels::fold_min(&nums)),
                AeOp::TableSum => Ok(kernels::sum(&nums)),
                AeOp::TableAverage => Ok(kernels::sum(&nums) / nums.len() as f64),
                _ => Err(AeError::Internal("scalar op in table-op dispatch")),
            };
            kern.nums = nums;
            AeAnswer::Number(v?)
        } else {
            let a = resolve_numeric(&step.args[0], table, ctx, results, highlighted)?;
            let b = resolve_numeric(&step.args[1], table, ctx, results, highlighted)?;
            match step.op {
                AeOp::Add => AeAnswer::Number(a + b),
                AeOp::Subtract => AeAnswer::Number(a - b),
                AeOp::Multiply => AeAnswer::Number(a * b),
                AeOp::Divide => {
                    if b == 0.0 {
                        return Err(AeError::DivisionByZero);
                    }
                    AeAnswer::Number(a / b)
                }
                AeOp::Greater => AeAnswer::YesNo(a > b),
                AeOp::Exp => {
                    let v = a.powf(b);
                    if !v.is_finite() {
                        return Err(AeError::DivisionByZero);
                    }
                    AeAnswer::Number(v)
                }
                _ => return Err(AeError::Internal("table op in scalar-op dispatch")),
            }
        };
        results.push(answer);
    }
    results.pop().ok_or(AeError::Internal("program with no steps"))
}

fn resolve_numeric(
    arg: &AeArg,
    table: &Table,
    ctx: Option<&ExecContext>,
    results: &[AeAnswer],
    highlighted: &mut Vec<(usize, usize)>,
) -> Result<f64, AeError> {
    match arg {
        AeArg::Const(n) => Ok(*n),
        AeArg::StepRef(i) => {
            results.get(*i).ok_or(AeError::BoolAsNumber)?.as_number().ok_or(AeError::BoolAsNumber)
        }
        AeArg::Cell { col, row } => {
            let (ri, ci) = locate_cell(table, ctx, col, row)?;
            highlighted.push((ri, ci));
            table
                .cell(ri, ci)
                .and_then(Value::as_number)
                .ok_or_else(|| AeError::NonNumericCell { col: col.clone(), row: row.clone() })
        }
        AeArg::Column(c) => Err(AeError::UnknownColumn(c.clone())),
        AeArg::CellHole(_) | AeArg::ColumnHole(_) => Err(AeError::Uninstantiated),
    }
}

/// Convenience: parse, build the table's [`ExecContext`], execute.
pub fn run_arith(program: &str, table: &Table) -> Result<AeOutcome, String> {
    let p = crate::parser::parse(program).map_err(|e| e.to_string())?;
    execute(&p, &ExecContext::new(table), &mut KernelScratch::default()).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn financials() -> Table {
        Table::from_strings(
            "Balance sheet",
            &[
                vec!["item", "2019", "2018"],
                vec!["Stockholders' equity", "3200", "4000"],
                vec!["Revenue", "8800", "8000"],
                vec!["Operating costs", "6100", "5900"],
            ],
        )
        .unwrap_or_else(|e| panic!("test table: {e}"))
    }

    #[test]
    fn paper_percentage_change() -> Result<(), Box<dyn std::error::Error>> {
        // (equity2019 - equity2018) / equity2018 = (3200-4000)/4000 = -0.2
        let out = run_arith(
            "subtract( the 2019 of Stockholders' equity , the 2018 of Stockholders' equity ), divide( #0 , the 2018 of Stockholders' equity )",
            &financials(),
        )
        ?;
        assert_eq!(out.answer, AeAnswer::Number(-0.2));
        Ok(())
    }

    #[test]
    fn add_and_multiply() -> Result<(), Box<dyn std::error::Error>> {
        let out = run_arith("add( the 2019 of Revenue , the 2018 of Revenue )", &financials())?;
        assert_eq!(out.answer, AeAnswer::Number(16800.0));
        let out = run_arith("multiply( the 2019 of Revenue , 0.5 )", &financials())?;
        assert_eq!(out.answer, AeAnswer::Number(4400.0));
        Ok(())
    }

    #[test]
    fn greater_yields_yes_no() -> Result<(), Box<dyn std::error::Error>> {
        let out = run_arith("greater( the 2019 of Revenue , the 2018 of Revenue )", &financials())?;
        assert_eq!(out.answer, AeAnswer::YesNo(true));
        assert_eq!(out.answer.to_string(), "yes");
        let out = run_arith(
            "greater( the 2019 of Stockholders' equity , the 2018 of Stockholders' equity )",
            &financials(),
        )?;
        assert_eq!(out.answer.to_string(), "no");
        Ok(())
    }

    #[test]
    fn exp_operation() -> Result<(), Box<dyn std::error::Error>> {
        let out = run_arith("exp( 2 , 10 )", &financials())?;
        assert_eq!(out.answer, AeAnswer::Number(1024.0));
        Ok(())
    }

    #[test]
    fn table_aggregations() -> Result<(), Box<dyn std::error::Error>> {
        let out = run_arith("table_sum( 2019 )", &financials())?;
        assert_eq!(out.answer, AeAnswer::Number(18100.0));
        let out = run_arith("table_max( 2018 )", &financials())?;
        assert_eq!(out.answer, AeAnswer::Number(8000.0));
        let out = run_arith("table_average( 2018 )", &financials())?;
        assert_eq!(out.answer.as_number().ok_or("non-numeric answer")?.round(), 5967.0);
        Ok(())
    }

    #[test]
    fn chained_table_op() -> Result<(), Box<dyn std::error::Error>> {
        let out = run_arith("table_sum( 2019 ) , divide( #0 , 3 )", &financials())?;
        assert!((out.answer.as_number().ok_or("non-numeric answer")? - 6033.333).abs() < 0.001);
        Ok(())
    }

    #[test]
    fn division_by_zero() {
        let err = run_arith("subtract( 5 , 5 ) , divide( 1 , #0 )", &financials()).unwrap_err();
        assert!(err.contains("division"));
    }

    #[test]
    fn unknown_row_and_column() {
        assert!(run_arith("add( the 2019 of Dividends , 1 )", &financials())
            .unwrap_err()
            .contains("unknown row"));
        assert!(run_arith("add( the 2031 of Revenue , 1 )", &financials())
            .unwrap_err()
            .contains("unknown column"));
    }

    #[test]
    fn bool_as_number_error() {
        let err = run_arith("greater( 2 , 1 ) , add( #0 , 1 )", &financials()).unwrap_err();
        assert!(err.contains("boolean"));
    }

    #[test]
    fn uninstantiated_template_error() {
        let err = run_arith("subtract( val1 , val2 )", &financials()).unwrap_err();
        assert!(err.contains("holes"));
    }

    #[test]
    fn highlights_recorded() -> Result<(), Box<dyn std::error::Error>> {
        let out =
            run_arith("subtract( the 2019 of Revenue , the 2018 of Revenue )", &financials())?;
        assert_eq!(out.highlighted, vec![(1, 1), (1, 2)]);
        Ok(())
    }
}
