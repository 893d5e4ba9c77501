//! Per-table execution context shared by the program executors.
//!
//! Template instantiation repeatedly scans the same table: value-candidate
//! collection walks a column per value hole, and arithmetic instantiation
//! re-collects the addressable numeric cells. [`ExecContext`] performs those
//! scans **once per table** and hands the executors cached, immutable
//! indexes. The pipeline builds one context per input table and shares it
//! across all `samples_per_table` program attempts.
//!
//! The context keeps only what needs a scan. A cell's numeric reading is
//! one `match` on a [`Value`] that table typing already parsed
//! ([`Value::as_number`]), so the executors read it from the cell they hold
//! instead of from a copy that would have to be kept in step with it.
//!
//! Every cache mirrors the exact scan order of the naive code it replaces,
//! so indexed execution is observably identical to a fresh table scan —
//! same candidate lists (hence identical RNG draws during instantiation),
//! same highlight order, same results. The equivalence tests in the
//! workspace root (`tests/exec_context.rs`) lock this in on randomized
//! tables.

use crate::schema::ColumnType;
use crate::table::Table;
use crate::value::Value;
use rustc_hash::FxHashSet;

/// Cached per-table indexes for program instantiation and execution: a
/// view of the [`Table`] it borrows.
///
/// Build once per table with [`ExecContext::new`]; the executors read the
/// table through [`ExecContext::table`], so a context cannot be paired with
/// another table, nor outlive its own:
///
/// ```compile_fail,E0597
/// use tabular::{ExecContext, Table};
///
/// let ctx = {
///     let t = Table::from_strings("t", &[vec!["a"], vec!["1"]]).unwrap();
///     ExecContext::new(&t)
/// };
/// assert_eq!(ctx.n_rows(), 1);
/// ```
///
/// A table-expansion sample's expanded table (the input plus one integrated
/// row) gets a fresh context of its own.
pub struct ExecContext<'t> {
    table: &'t Table,
    /// Per column: the non-null cells in row order — exactly
    /// `table.column_values(ci)` with nulls dropped (the value-candidate
    /// list used by template instantiation).
    non_null: Vec<Vec<&'t Value>>,
    /// Columns whose inferred schema type is `Number`.
    numeric_cols: Vec<usize>,
    /// Numeric cells addressable as `the <col> of <row>` by arithmetic
    /// templates, in the instantiation scan order: rows ascending (rows
    /// with a null cell in [`Table::entity_column`] skipped), columns
    /// ascending (that column skipped).
    addressable: Vec<(usize, usize)>,
    /// Distinct text cells in row-major scan order (the perturbation pool
    /// for refuted-claim synthesis).
    text_pool: Vec<&'t str>,
    /// Census of inferred column types, indexed by [`ColumnType`] in
    /// declaration order (Number, Date, Bool, Text) — the table-side input
    /// to `SchemaRequirement::satisfied_by`.
    type_counts: [usize; 4],
    /// Per column: how many cells are `Value::Number`. A column is
    /// kernel-eligible for `Value`-ordered batched ops exactly when every
    /// non-null cell is a number (see [`ExecContext::all_number`]).
    number_cells: Vec<usize>,
    /// Per column: how many cells have a numeric reading
    /// ([`Value::as_number`]: numbers, booleans and dates).
    numeric_cells: Vec<usize>,
}

fn type_index(ty: ColumnType) -> usize {
    match ty {
        ColumnType::Number => 0,
        ColumnType::Date => 1,
        ColumnType::Bool => 2,
        ColumnType::Text => 3,
    }
}

impl<'t> ExecContext<'t> {
    /// Scans `table` once and builds every index.
    pub fn new(table: &'t Table) -> ExecContext<'t> {
        let n_rows = table.n_rows();
        let n_cols = table.n_cols();
        let mut non_null = Vec::with_capacity(n_cols);
        let mut number_cells = Vec::with_capacity(n_cols);
        let mut numeric_cells = Vec::with_capacity(n_cols);
        for ci in 0..n_cols {
            let mut vals = Vec::new();
            let mut numbers = 0usize;
            let mut numeric = 0usize;
            for ri in 0..n_rows {
                let Some(v) = table.cell(ri, ci) else { continue };
                if !v.is_null() {
                    vals.push(v);
                }
                if matches!(v, Value::Number(_)) {
                    numbers += 1;
                }
                if v.as_number().is_some() {
                    numeric += 1;
                }
            }
            non_null.push(vals);
            number_cells.push(numbers);
            numeric_cells.push(numeric);
        }

        let numeric_cols = table.schema().columns_of_type(ColumnType::Number);
        let mut type_counts = [0usize; 4];
        for col in table.schema().columns() {
            type_counts[type_index(col.ty)] += 1;
        }
        let name_col = table.entity_column();
        let mut addressable = Vec::new();
        for ri in 0..n_rows {
            let named = table.cell(ri, name_col).is_some_and(|v| !v.is_null());
            if !named {
                continue;
            }
            for ci in 0..n_cols {
                if ci != name_col && table.cell(ri, ci).and_then(Value::as_number).is_some() {
                    addressable.push((ri, ci));
                }
            }
        }

        let mut text_pool: Vec<&str> = Vec::new();
        let mut seen: FxHashSet<&str> = FxHashSet::default();
        for row in table.rows() {
            for v in row {
                if let Value::Text(t) = v {
                    if seen.insert(t) {
                        text_pool.push(t);
                    }
                }
            }
        }

        ExecContext {
            table,
            non_null,
            numeric_cols,
            addressable,
            text_pool,
            type_counts,
            number_cells,
            numeric_cells,
        }
    }

    /// The context of `expanded` (this context's table plus one appended
    /// row): a fresh [`ExecContext::new`] scan, which is what the pipeline
    /// builds for it. The method stays only because the repository
    /// benchmark (`perfbench`) calls it; removing it waits for a change to
    /// that benchmark.
    pub fn with_row_appended<'e>(&self, _original: &Table, expanded: &'e Table) -> ExecContext<'e> {
        ExecContext::new(expanded)
    }

    /// The table this context indexes.
    pub fn table(&self) -> &'t Table {
        self.table
    }

    /// Dimensions of the table this context was built from.
    pub fn n_rows(&self) -> usize {
        self.table.n_rows()
    }

    pub fn n_cols(&self) -> usize {
        self.table.n_cols()
    }

    /// Non-null cells of a column in row order; empty for out-of-range
    /// columns.
    pub fn non_null_values(&self, col: usize) -> &[&'t Value] {
        self.non_null.get(col).map(Vec::as_slice).unwrap_or(&[])
    }

    /// How many cells of a column have a numeric reading
    /// ([`Value::as_number`]); 0 for out-of-range columns.
    pub fn numeric_count(&self, col: usize) -> usize {
        self.numeric_cells.get(col).copied().unwrap_or(0)
    }

    /// Columns typed `Number` by schema inference.
    pub fn numeric_columns(&self) -> &[usize] {
        &self.numeric_cols
    }

    /// Numeric cells addressable by arithmetic templates (see field docs
    /// for the ordering contract).
    pub fn addressable_cells(&self) -> &[(usize, usize)] {
        &self.addressable
    }

    /// Distinct text cells in row-major order.
    pub fn text_pool(&self) -> &[&'t str] {
        &self.text_pool
    }

    /// Whether every non-null cell of the column is a `Value::Number` (and
    /// there is at least one) — the eligibility gate for batched kernels
    /// whose per-cell counterpart orders or equates whole `Value`s.
    pub fn all_number(&self, col: usize) -> bool {
        match (self.number_cells.get(col), self.non_null.get(col)) {
            (Some(&numbers), Some(vals)) => numbers > 0 && numbers == vals.len(),
            _ => false,
        }
    }

    /// How many columns schema inference assigned the given type.
    pub fn column_type_count(&self, ty: ColumnType) -> usize {
        self.type_counts[type_index(ty)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        Table::from_strings(
            "t",
            &[
                vec!["name", "score", "city", "when"],
                vec!["Ada", "91", "Oslo", "1990-05-01"],
                vec!["-", "84", "Lima", "n/a"],
                vec!["Cleo", "n/a", "Oslo", "2001-08-23"],
            ],
        )
        .unwrap_or_else(|e| panic!("test table: {e}"))
    }

    #[test]
    fn non_null_matches_column_values_filter() {
        let t = table();
        let ctx = ExecContext::new(&t);
        for ci in 0..t.n_cols() {
            let naive: Vec<Value> =
                t.column_values(ci).into_iter().filter(|v| !v.is_null()).collect();
            assert_eq!(ctx.non_null_values(ci), naive.iter().collect::<Vec<_>>(), "column {ci}");
        }
        assert!(ctx.non_null_values(99).is_empty());
    }

    #[test]
    fn numeric_counts_match_cell_scan() {
        let t = table();
        let ctx = ExecContext::new(&t);
        for ci in 0..t.n_cols() {
            let naive = (0..t.n_rows())
                .filter(|&ri| t.cell(ri, ci).and_then(Value::as_number).is_some())
                .count();
            assert_eq!(ctx.numeric_count(ci), naive, "column {ci}");
        }
        // The null score cell has no numeric reading; dates read as their
        // ordinal, text as nothing.
        assert_eq!(ctx.numeric_count(1), 2);
        assert_eq!(ctx.numeric_count(2), 0);
        assert_eq!(ctx.numeric_count(3), 2);
        assert_eq!(ctx.numeric_count(99), 0);
    }

    #[test]
    fn addressable_skips_null_named_rows_and_name_column() {
        let t = table();
        let ctx = ExecContext::new(&t);
        // Row 1 has a null name cell; the date column is numeric via its
        // ordinal, the city column is not.
        assert_eq!(ctx.addressable_cells(), &[(0, 1), (0, 3), (2, 3)]);
    }

    #[test]
    fn text_pool_is_distinct_row_major() {
        let t = table();
        let ctx = ExecContext::new(&t);
        assert_eq!(ctx.text_pool(), &["Ada", "Oslo", "Lima", "Cleo"]);

        // Texts repeated across rows and columns, with case variants that
        // stay distinct: the pool keeps the first-seen row-major order of a
        // naive scan.
        let t = strings_table(&[
            vec!["home", "away", "venue"],
            vec!["Oslo", "Lima", "oslo"],
            vec!["Lima", "Oslo", "Kyiv"],
            vec!["oslo", "Kyiv", "Lima"],
            vec!["Quito", "Quito", "OSLO"],
        ]);
        let mut naive: Vec<String> = Vec::new();
        for row in t.rows() {
            for v in row {
                if let Value::Text(s) = v {
                    if !naive.contains(s) {
                        naive.push(s.clone());
                    }
                }
            }
        }
        let ctx = ExecContext::new(&t);
        assert_eq!(ctx.text_pool(), naive.as_slice());
        assert_eq!(ctx.text_pool(), &["Oslo", "Lima", "oslo", "Kyiv", "Quito", "OSLO"]);
    }

    #[test]
    fn column_type_census_matches_schema() {
        let t = table();
        let ctx = ExecContext::new(&t);
        for ty in [ColumnType::Number, ColumnType::Date, ColumnType::Bool, ColumnType::Text] {
            assert_eq!(
                ctx.column_type_count(ty),
                t.schema().columns_of_type(ty).len(),
                "census for {ty}"
            );
        }
        assert_eq!(ctx.column_type_count(ColumnType::Number), 1);
        assert_eq!(ctx.column_type_count(ColumnType::Text), 2);
    }

    #[test]
    fn empty_table_context() {
        let t = Table::from_strings("e", &[vec!["a", "b"]])
            .unwrap_or_else(|e| panic!("test table: {e}"));
        let ctx = ExecContext::new(&t);
        assert_eq!(ctx.n_rows(), 0);
        assert!(ctx.addressable_cells().is_empty());
        assert!(ctx.text_pool().is_empty());
        assert!(ctx.non_null_values(0).is_empty());
    }

    fn strings_table(rows: &[Vec<&str>]) -> Table {
        Table::from_strings("t", rows).unwrap_or_else(|e| panic!("test table: {e}"))
    }
}
