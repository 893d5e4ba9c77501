//! Arithmetic-expression templates: abstraction and sampling.
//!
//! FinQA templates address cells through `valN` holes (the paper replaces
//! `vali` with `col_name of row_name` at instantiation time, §IV-B). A hole
//! appearing multiple times (as `val2` does in the paper's percentage-change
//! template) binds once, so the instantiated program keeps the original
//! internal relationships.

use crate::ast::{AeArg, AeProgram, AeStep};
use crate::exec::AeOutcome;
use crate::parser::{parse, AeParseError};
use rand::seq::SliceRandom;
use rand::Rng;
use rustc_hash::FxHashMap;
use tabular::{ColumnType, ExecContext, Table, Value};

/// Why instantiation failed — the structured discard reasons the pipeline
/// telemetry aggregates (instead of an opaque `None`). For the retrying
/// entry point the reported reason is the one from the *last* attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AeInstantiateError {
    /// The table has fewer addressable numeric cells than the template has
    /// distinct holes.
    NotEnoughNumericCells,
    /// No numeric column available for a column hole, or a dangling
    /// reference during substitution.
    MalformedTemplate,
    /// The instantiated program failed to execute (e.g. divide-by-zero).
    ExecutionFailed,
}

impl std::fmt::Display for AeInstantiateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AeInstantiateError::NotEnoughNumericCells => write!(f, "not enough numeric cells"),
            AeInstantiateError::MalformedTemplate => write!(f, "malformed template"),
            AeInstantiateError::ExecutionFailed => write!(f, "execution failed"),
        }
    }
}

impl std::error::Error for AeInstantiateError {}

/// A reusable arithmetic-expression template.
#[derive(Debug, Clone, PartialEq)]
pub struct AeTemplate {
    program: AeProgram,
}

/// An instantiated program together with its executed answer.
#[derive(Debug, Clone, PartialEq)]
pub struct InstantiatedArith {
    pub program: AeProgram,
    pub outcome: AeOutcome,
}

/// Reusable sampling buffers for [`AeTemplate::try_instantiate`].
///
/// Instantiation retries up to 8 times per call and each attempt needs the
/// hole list, the shuffled addressable-cell pool, the same-row/same-column
/// filtered views and the hole→cell binding map. Holding them here lets the
/// hot generation loop reuse the allocations across attempts, templates and
/// samples. A default-constructed scratch is always valid; the buffers are
/// cleared on entry, never read.
#[derive(Debug, Clone, Default)]
pub struct AeScratch {
    holes: Vec<usize>,
    cells: Vec<(usize, usize)>,
    same_row: Vec<(usize, usize)>,
    same_col: Vec<(usize, usize)>,
    results: Vec<crate::exec::AeAnswer>,
    /// Kernel buffers shared with the executor (numeric gathers, highlight
    /// accumulation) so per-attempt execution stops allocating.
    pub kern: tabular::KernelScratch,
}

impl AeTemplate {
    /// Parses template text such as `subtract( val1 , val2 ), divide( #0 , val2 )`.
    pub fn parse(text: &str) -> Result<AeTemplate, AeParseError> {
        Ok(AeTemplate { program: parse(text)? })
    }

    pub fn from_program(program: AeProgram) -> AeTemplate {
        AeTemplate { program }
    }

    pub fn program(&self) -> &AeProgram {
        &self.program
    }

    /// Normalized signature for deduplication.
    pub fn signature(&self) -> String {
        self.program.to_string()
    }

    /// Distinct cell-hole indexes in first-appearance order.
    pub fn cell_holes(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.cell_holes_into(&mut out);
        out
    }

    /// Allocation-reusing core of [`AeTemplate::cell_holes`]: clears `out`
    /// and refills it in the same order.
    fn cell_holes_into(&self, out: &mut Vec<usize>) {
        out.clear();
        for s in &self.program.steps {
            for a in &s.args {
                if let AeArg::CellHole(i) = a {
                    if !out.contains(i) {
                        out.push(*i);
                    }
                }
            }
        }
    }

    /// Instantiates on `ctx`'s table: distinct holes get distinct numeric
    /// cells, repeated holes share a binding, column holes get numeric
    /// columns. Cell pools and the execution of the result read `ctx`;
    /// buffers come from `scratch`. Returns the program and its executed
    /// answer, or the last attempt's failure (e.g. divide-by-zero).
    pub fn try_instantiate(
        &self,
        ctx: &ExecContext,
        rng: &mut impl Rng,
        scratch: &mut AeScratch,
    ) -> Result<InstantiatedArith, AeInstantiateError> {
        self.sample(ctx.table(), Some(ctx), rng, scratch)
    }

    /// [`AeTemplate::try_instantiate`] with an optional context; `None` is
    /// the oracle of [`crate::reference::try_instantiate`].
    pub(crate) fn sample(
        &self,
        table: &Table,
        ctx: Option<&ExecContext>,
        rng: &mut impl Rng,
        scratch: &mut AeScratch,
    ) -> Result<InstantiatedArith, AeInstantiateError> {
        let mut last = AeInstantiateError::NotEnoughNumericCells;
        for _ in 0..8 {
            match self.attempt_instantiate(table, ctx, rng, scratch) {
                Ok(done) => return Ok(done),
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
        scratch: &mut AeScratch,
    ) -> Result<InstantiatedArith, AeInstantiateError> {
        let AeScratch { holes, cells, same_row, same_col, results, kern } = scratch;
        let name_col = table.entity_column();
        // Numeric cells addressable as (col of row): need a non-null row name.
        cells.clear();
        match ctx {
            Some(ctx) => cells.extend_from_slice(ctx.addressable_cells()),
            None => {
                for ri in 0..table.n_rows() {
                    let has_name = table.cell(ri, name_col).is_some_and(|v| !v.is_null());
                    if !has_name {
                        continue;
                    }
                    for ci in 0..table.n_cols() {
                        if ci == name_col {
                            continue;
                        }
                        if table.cell(ri, ci).and_then(Value::as_number).is_some() {
                            cells.push((ri, ci));
                        }
                    }
                }
            }
        };
        self.cell_holes_into(holes);
        if cells.len() < holes.len() {
            return Err(AeInstantiateError::NotEnoughNumericCells);
        }
        cells.shuffle(rng);
        // Real FinQA programs relate cells that share a line item (same row,
        // different periods) or a period (same column, different items);
        // prefer such structured tuples when the table allows it.
        if holes.len() > 1 {
            let (r0, c0) = cells[0];
            same_row.clear();
            same_row.extend(cells.iter().copied().filter(|&(r, _)| r == r0));
            same_col.clear();
            same_col.extend(cells.iter().copied().filter(|&(_, c)| c == c0));
            let preferred: &[(usize, usize)] = if rng.gen_bool(0.5) { same_row } else { same_col };
            let fallback: &[(usize, usize)] = if preferred.len() >= holes.len() {
                preferred
            } else if same_row.len() >= holes.len() {
                same_row
            } else {
                same_col
            };
            if fallback.len() >= holes.len() {
                cells.clear();
                cells.extend_from_slice(fallback);
            }
        }
        // Hole `holes[k]` is bound to `cells[k]`; the owned `Cell` strings
        // are rendered once per use site below (they end up owned by the
        // instantiated program either way — binding them here as strings
        // would only add a map of clones that is dropped on return).
        let owned_numeric_cols;
        let numeric_cols: &[usize] = match ctx {
            Some(ctx) => ctx.numeric_columns(),
            None => {
                owned_numeric_cols = table.schema().columns_of_type(ColumnType::Number);
                &owned_numeric_cols
            }
        };
        let steps = self
            .program
            .steps
            .iter()
            .map(|s| {
                let args = s
                    .args
                    .iter()
                    .map(|a| match a {
                        AeArg::CellHole(i) => {
                            let k = holes
                                .iter()
                                .position(|h| h == i)
                                .ok_or(AeInstantiateError::MalformedTemplate)?;
                            let (ri, ci) = cells[k];
                            let col = table
                                .column_name(ci)
                                .ok_or(AeInstantiateError::MalformedTemplate)?
                                .to_string();
                            let row = table
                                .cell(ri, name_col)
                                .ok_or(AeInstantiateError::MalformedTemplate)?
                                .to_string();
                            Ok(AeArg::Cell { col, row })
                        }
                        AeArg::ColumnHole(_) => {
                            let ci = numeric_cols
                                .choose(rng)
                                .ok_or(AeInstantiateError::NotEnoughNumericCells)?;
                            let name = table
                                .column_name(*ci)
                                .ok_or(AeInstantiateError::MalformedTemplate)?;
                            Ok(AeArg::Column(name.to_string()))
                        }
                        other => Ok(other.clone()),
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(AeStep { op: s.op, args })
            })
            .collect::<Result<Vec<_>, AeInstantiateError>>()?;
        let program = AeProgram { steps };
        let outcome = crate::exec::execute_impl(&program, table, ctx, kern, results)
            .map_err(|_| AeInstantiateError::ExecutionFailed)?;
        Ok(InstantiatedArith { program, outcome })
    }
}

/// Abstracts a concrete program into a template: cell references become
/// `valN` (identical references share a hole) and column arguments become
/// `cN`. Constants stay concrete (they encode the question's semantics,
/// e.g. `divide( #0 , 100 )` for percentages).
pub fn abstract_program(program: &AeProgram) -> AeTemplate {
    let mut cell_map: FxHashMap<(String, String), usize> = FxHashMap::default();
    let mut col_map: FxHashMap<String, usize> = FxHashMap::default();
    let mut next_val = 1usize;
    let mut next_col = 1usize;
    let steps = program
        .steps
        .iter()
        .map(|s| AeStep {
            op: s.op,
            args: s
                .args
                .iter()
                .map(|a| match a {
                    AeArg::Cell { col, row } => {
                        let key = (col.to_ascii_lowercase(), row.to_ascii_lowercase());
                        let idx = *cell_map.entry(key).or_insert_with(|| {
                            let i = next_val;
                            next_val += 1;
                            i
                        });
                        AeArg::CellHole(idx)
                    }
                    AeArg::Column(c) => {
                        let idx = *col_map.entry(c.to_ascii_lowercase()).or_insert_with(|| {
                            let i = next_col;
                            next_col += 1;
                            i
                        });
                        AeArg::ColumnHole(idx)
                    }
                    other => other.clone(),
                })
                .collect(),
        })
        .collect();
    AeTemplate { program: AeProgram { steps } }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::AeAnswer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn financials() -> Table {
        Table::from_strings(
            "Balance sheet",
            &[
                vec!["item", "2019", "2018"],
                vec!["Equity", "3200", "4000"],
                vec!["Revenue", "8800", "8000"],
                vec!["Costs", "6100", "5900"],
            ],
        )
        .unwrap_or_else(|e| panic!("test table: {e}"))
    }

    /// [`AeTemplate::try_instantiate`] on `t` with a fresh context.
    fn instantiate(
        tpl: &AeTemplate,
        t: &Table,
        rng: &mut StdRng,
    ) -> Result<InstantiatedArith, AeInstantiateError> {
        tpl.try_instantiate(&ExecContext::new(t), rng, &mut AeScratch::default())
    }

    #[test]
    fn instantiate_paper_template() -> Result<(), Box<dyn std::error::Error>> {
        let tpl = AeTemplate::parse("subtract( val1 , val2 ), divide( #0 , val2 )")?;
        let mut rng = StdRng::seed_from_u64(42);
        let inst = instantiate(&tpl, &financials(), &mut rng)?;
        assert!(!inst.program.has_holes());
        assert!(matches!(inst.outcome.answer, AeAnswer::Number(_)));
        // val2 appears twice: both occurrences must be the same cell.
        let cells = inst.program.cells();
        assert_eq!(cells.len(), 3);
        assert_eq!(cells[1], cells[2]);
        Ok(())
    }

    #[test]
    fn instantiate_distinct_holes_get_distinct_cells() -> Result<(), Box<dyn std::error::Error>> {
        let tpl = AeTemplate::parse("subtract( val1 , val2 )")?;
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..10 {
            let inst = instantiate(&tpl, &financials(), &mut rng)?;
            let cells = inst.program.cells();
            assert_ne!(cells[0], cells[1]);
        }
        Ok(())
    }

    #[test]
    fn instantiate_table_op_template() -> Result<(), Box<dyn std::error::Error>> {
        let tpl = AeTemplate::parse("table_sum( c1 ) , divide( #0 , 3 )")?;
        let mut rng = StdRng::seed_from_u64(5);
        let inst = instantiate(&tpl, &financials(), &mut rng)?;
        let n = inst.outcome.answer.as_number().ok_or("non-numeric answer")?;
        // one of sum(2019)/3, sum(2018)/3
        assert!((n - 18100.0 / 3.0).abs() < 1e-9 || (n - 17900.0 / 3.0).abs() < 1e-9);
        Ok(())
    }

    #[test]
    fn instantiate_fails_on_text_only_table() -> Result<(), Box<dyn std::error::Error>> {
        let t = Table::from_strings("t", &[vec!["a", "b"], vec!["x", "y"]])?;
        let tpl = AeTemplate::parse("add( val1 , val2 )")?;
        let mut rng = StdRng::seed_from_u64(1);
        assert!(instantiate(&tpl, &t, &mut rng).is_err());
        assert_eq!(instantiate(&tpl, &t, &mut rng), Err(AeInstantiateError::NotEnoughNumericCells));
        Ok(())
    }

    #[test]
    fn abstraction_shares_holes_for_repeated_cells() -> Result<(), Box<dyn std::error::Error>> {
        let p = parse(
            "subtract( the 2019 of Equity , the 2018 of Equity ), divide( #0 , the 2018 of Equity )",
        )
        ?;
        let tpl = abstract_program(&p);
        assert_eq!(tpl.signature(), "subtract( val1 , val2 ) , divide( #0 , val2 )");
        Ok(())
    }

    #[test]
    fn abstraction_keeps_constants() -> Result<(), Box<dyn std::error::Error>> {
        let p = parse("subtract( the 2019 of Equity , the 2018 of Equity ), divide( #0 , 100 )")?;
        let tpl = abstract_program(&p);
        assert!(tpl.signature().ends_with("divide( #0 , 100 )"));
        Ok(())
    }

    #[test]
    fn abstract_then_instantiate_roundtrip() -> Result<(), Box<dyn std::error::Error>> {
        let p = parse("greater( the 2019 of Revenue , the 2018 of Revenue )")?;
        let tpl = abstract_program(&p);
        let mut rng = StdRng::seed_from_u64(3);
        let inst = instantiate(&tpl, &financials(), &mut rng)?;
        assert!(matches!(inst.outcome.answer, AeAnswer::YesNo(_)));
        Ok(())
    }

    #[test]
    fn cell_holes_order() -> Result<(), Box<dyn std::error::Error>> {
        let tpl = AeTemplate::parse("subtract( val2 , val1 ), add( #0 , val1 )")?;
        assert_eq!(tpl.cell_holes(), vec![2, 1]);
        Ok(())
    }
}
