//! Per-table execution context shared by the program executors.
//!
//! Template instantiation and program execution repeatedly scan the same
//! table: value-candidate collection walks a column per value hole, numeric
//! aggregations re-parse every cell through [`Value::as_number`], and
//! arithmetic cell addressing re-renders the row-name column per lookup.
//! [`ExecContext`] performs those scans **once per table** and hands the
//! executors cached, immutable indexes. The pipeline builds one context per
//! input table and shares it across all `samples_per_table` program
//! attempts.
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

/// Cached per-table indexes for program instantiation and execution.
///
/// Build once per [`Table`] with [`ExecContext::new`]; the context borrows
/// nothing and must only be used with the table it was built from (the
/// executors debug-assert the dimensions match). Appending one row to an
/// already-indexed table ([`ExecContext::with_row_appended`], the
/// table-expansion path) updates the caches incrementally instead of
/// re-scanning — `PartialEq` exists so tests can pin the delta against a
/// fresh scan.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecContext {
    n_rows: usize,
    n_cols: usize,
    /// Per column: the non-null values in row order — exactly
    /// `table.column_values(ci)` with nulls dropped (the value-candidate
    /// list used by template instantiation).
    non_null: Vec<Vec<Value>>,
    /// Per column: `(row, numeric value)` for every cell with a numeric
    /// interpretation, in row order (the scan behind `table_sum`, `max`,
    /// `avg`, …).
    numeric: Vec<Vec<(usize, f64)>>,
    /// Row-major `Value::as_number` of every cell (`None` for non-numeric).
    grid: Vec<Option<f64>>,
    /// Columns whose inferred schema type is `Number`.
    numeric_cols: Vec<usize>,
    /// First `Text` column (else 0) — the arithmetic executor's row-name
    /// column.
    row_name_col: usize,
    /// Per row: ASCII-lowercased rendering of the row-name cell (`None`
    /// where the row is shorter than the name column).
    name_lower: Vec<Option<String>>,
    /// Numeric cells addressable as `the <col> of <row>` by arithmetic
    /// templates, in the instantiation scan order: rows ascending (rows
    /// with a null name cell skipped), columns ascending (name column
    /// skipped).
    addressable: Vec<(usize, usize)>,
    /// Distinct text cells in row-major scan order (the perturbation pool
    /// for refuted-claim synthesis).
    text_pool: Vec<String>,
    /// ASCII-lowercased counterpart of `text_pool`, index-aligned — lets
    /// case-insensitive pool filters fold the needle once and byte-compare.
    text_pool_folded: Vec<String>,
    /// Census of inferred column types, indexed by [`ColumnType`] in
    /// declaration order (Number, Date, Bool, Text) — the table-side input
    /// to `SchemaRequirement::satisfied_by`.
    type_counts: [usize; 4],
    /// Per column: how many cells are `Value::Number`. A column is
    /// kernel-eligible for `Value`-ordered batched ops exactly when every
    /// non-null cell is a number (see [`ExecContext::all_number`]).
    number_cells: Vec<usize>,
    /// Per column: `(row, ASCII-lowercased text)` for every `Value::Text`
    /// cell, in row order — the pre-case-folded pool behind the batched
    /// text-equality filter kernels.
    folded: Vec<Vec<(usize, String)>>,
}

fn type_index(ty: ColumnType) -> usize {
    match ty {
        ColumnType::Number => 0,
        ColumnType::Date => 1,
        ColumnType::Bool => 2,
        ColumnType::Text => 3,
    }
}

/// Whether two tables infer the same column types — the precondition for
/// the single-row delta constructor, since every schema-derived cache
/// (`numeric_cols`, `row_name_col`, `type_counts`) follows the types.
fn schema_types_match(a: &Table, b: &Table) -> bool {
    let (ca, cb) = (a.schema().columns(), b.schema().columns());
    ca.len() == cb.len() && ca.iter().zip(cb).all(|(x, y)| x.ty == y.ty)
}

impl ExecContext {
    /// Scans `table` once and builds every index.
    pub fn new(table: &Table) -> ExecContext {
        let n_rows = table.n_rows();
        let n_cols = table.n_cols();
        let mut non_null = Vec::with_capacity(n_cols);
        let mut numeric = Vec::with_capacity(n_cols);
        let mut number_cells = Vec::with_capacity(n_cols);
        let mut folded = Vec::with_capacity(n_cols);
        let mut grid = vec![None; n_rows * n_cols];
        for ci in 0..n_cols {
            let mut vals = Vec::new();
            let mut nums = Vec::new();
            let mut numbers = 0usize;
            let mut lowers: Vec<(usize, String)> = Vec::new();
            for ri in 0..n_rows {
                let Some(v) = table.cell(ri, ci) else { continue };
                if !v.is_null() {
                    vals.push(v.clone());
                }
                match v {
                    Value::Number(_) => numbers += 1,
                    Value::Text(t) => lowers.push((ri, t.to_ascii_lowercase())),
                    _ => {}
                }
                if let Some(n) = v.as_number() {
                    grid[ri * n_cols + ci] = Some(n);
                    nums.push((ri, n));
                }
            }
            non_null.push(vals);
            numeric.push(nums);
            number_cells.push(numbers);
            folded.push(lowers);
        }

        let numeric_cols = table.schema().columns_of_type(ColumnType::Number);
        let mut type_counts = [0usize; 4];
        for col in table.schema().columns() {
            type_counts[type_index(col.ty)] += 1;
        }
        let row_name_col =
            table.schema().columns().iter().position(|c| c.ty == ColumnType::Text).unwrap_or(0);

        let name_lower: Vec<Option<String>> = (0..n_rows)
            .map(|ri| table.cell(ri, row_name_col).map(|v| v.to_string().to_ascii_lowercase()))
            .collect();

        let mut addressable = Vec::new();
        for ri in 0..n_rows {
            let named = table.cell(ri, row_name_col).is_some_and(|v| !v.is_null());
            if !named {
                continue;
            }
            for ci in 0..n_cols {
                if ci != row_name_col && grid[ri * n_cols + ci].is_some() {
                    addressable.push((ri, ci));
                }
            }
        }

        let mut text_pool: Vec<String> = Vec::new();
        let mut seen: FxHashSet<&str> = FxHashSet::default();
        for row in table.rows() {
            for v in row {
                if let Value::Text(t) = v {
                    if seen.insert(t.as_str()) {
                        text_pool.push(t.clone());
                    }
                }
            }
        }
        let text_pool_folded = text_pool.iter().map(|t| t.to_ascii_lowercase()).collect();

        ExecContext {
            n_rows,
            n_cols,
            non_null,
            numeric,
            grid,
            numeric_cols,
            row_name_col,
            name_lower,
            addressable,
            text_pool,
            text_pool_folded,
            type_counts,
            number_cells,
            folded,
        }
    }

    /// Context for `expanded` = the table this context was built from
    /// (`original`) plus one appended row, updating every cache in place of
    /// a full rescan. The appended row sits at the end of each row-ordered
    /// cache, so the delta is pure appends. Falls back to a full
    /// [`ExecContext::new`] scan when the append changed any inferred
    /// column type (table expansion re-infers types), since every
    /// schema-derived cache would shift.
    pub fn with_row_appended(&self, original: &Table, expanded: &Table) -> ExecContext {
        debug_assert_eq!(self.n_rows, original.n_rows(), "context/table mismatch");
        if expanded.n_rows() != self.n_rows + 1
            || expanded.n_cols() != self.n_cols
            || !schema_types_match(original, expanded)
        {
            return ExecContext::new(expanded);
        }
        let mut ctx = self.clone();
        let ri = self.n_rows;
        ctx.n_rows += 1;
        ctx.grid.resize(ctx.n_rows * ctx.n_cols, None);
        for ci in 0..ctx.n_cols {
            let Some(v) = expanded.cell(ri, ci) else { continue };
            if !v.is_null() {
                ctx.non_null[ci].push(v.clone());
            }
            match v {
                Value::Number(_) => ctx.number_cells[ci] += 1,
                Value::Text(t) => ctx.folded[ci].push((ri, t.to_ascii_lowercase())),
                _ => {}
            }
            if let Some(n) = v.as_number() {
                ctx.grid[ri * ctx.n_cols + ci] = Some(n);
                ctx.numeric[ci].push((ri, n));
            }
        }
        let name_cell = expanded.cell(ri, self.row_name_col);
        ctx.name_lower.push(name_cell.map(|v| v.to_string().to_ascii_lowercase()));
        if name_cell.is_some_and(|v| !v.is_null()) {
            for ci in 0..ctx.n_cols {
                if ci != self.row_name_col && ctx.grid[ri * ctx.n_cols + ci].is_some() {
                    ctx.addressable.push((ri, ci));
                }
            }
        }
        for v in expanded.row(ri).unwrap_or(&[]) {
            if let Value::Text(t) = v {
                if !ctx.text_pool.contains(t) {
                    ctx.text_pool.push(t.clone());
                    ctx.text_pool_folded.push(t.to_ascii_lowercase());
                }
            }
        }
        ctx
    }

    /// Dimensions of the table this context was built from.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Non-null values of a column in row order; empty for out-of-range
    /// columns.
    pub fn non_null_values(&self, col: usize) -> &[Value] {
        self.non_null.get(col).map(Vec::as_slice).unwrap_or(&[])
    }

    /// `(row, number)` pairs of a column's numeric cells in row order.
    pub fn numeric_pairs(&self, col: usize) -> &[(usize, f64)] {
        self.numeric.get(col).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Cached `Value::as_number` of one cell.
    pub fn number_at(&self, row: usize, col: usize) -> Option<f64> {
        if col >= self.n_cols {
            return None;
        }
        self.grid.get(row * self.n_cols + col).copied().flatten()
    }

    /// Columns typed `Number` by schema inference.
    pub fn numeric_columns(&self) -> &[usize] {
        &self.numeric_cols
    }

    /// The arithmetic executor's row-name column (first `Text` column,
    /// else 0).
    pub fn row_name_column(&self) -> usize {
        self.row_name_col
    }

    /// ASCII-lowercased rendering of a row's name cell.
    pub fn name_lower(&self, row: usize) -> Option<&str> {
        self.name_lower.get(row).and_then(|s| s.as_deref())
    }

    /// Numeric cells addressable by arithmetic templates (see field docs
    /// for the ordering contract).
    pub fn addressable_cells(&self) -> &[(usize, usize)] {
        &self.addressable
    }

    /// Distinct text cells in row-major order.
    pub fn text_pool(&self) -> &[String] {
        &self.text_pool
    }

    /// ASCII-lowercased counterpart of [`ExecContext::text_pool`],
    /// index-aligned.
    pub fn text_pool_folded(&self) -> &[String] {
        &self.text_pool_folded
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

    /// `(row, ASCII-lowercased text)` for every text cell of the column, in
    /// row order — the pre-folded pool behind batched text-equality
    /// filters.
    pub fn folded_text(&self, col: usize) -> &[(usize, String)] {
        self.folded.get(col).map(Vec::as_slice).unwrap_or(&[])
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
            assert_eq!(ctx.non_null_values(ci), naive.as_slice(), "column {ci}");
        }
        assert!(ctx.non_null_values(99).is_empty());
    }

    #[test]
    fn numeric_pairs_match_cell_scan() {
        let t = table();
        let ctx = ExecContext::new(&t);
        for ci in 0..t.n_cols() {
            let naive: Vec<(usize, f64)> = (0..t.n_rows())
                .filter_map(|ri| t.cell(ri, ci).and_then(Value::as_number).map(|n| (ri, n)))
                .collect();
            assert_eq!(ctx.numeric_pairs(ci), naive.as_slice(), "column {ci}");
            for (ri, n) in naive {
                assert_eq!(ctx.number_at(ri, ci), Some(n));
            }
        }
        // The null score cell has no numeric reading.
        assert_eq!(ctx.number_at(2, 1), None);
        assert_eq!(ctx.number_at(0, 99), None);
    }

    #[test]
    fn name_column_and_lowercase_cache() {
        let t = table();
        let ctx = ExecContext::new(&t);
        assert_eq!(ctx.row_name_column(), 0);
        assert_eq!(ctx.name_lower(0), Some("ada"));
        assert_eq!(ctx.name_lower(2), Some("cleo"));
        assert_eq!(ctx.name_lower(99), None);
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

    #[test]
    fn row_appended_delta_matches_fresh_scan() {
        let header = vec!["name", "score", "city", "when"];
        let base = [
            vec!["Ada", "91", "Oslo", "1990-05-01"],
            vec!["-", "84", "Lima", "n/a"],
            vec!["Cleo", "n/a", "Oslo", "2001-08-23"],
        ];
        // New text, repeated text, a null name cell, and an all-null row
        // each stress a different cache's append arm.
        let extra_rows = [
            vec!["Bo", "77", "Kyiv", "1999-01-02"],
            vec!["Ada", "70", "Oslo", "2000-01-01"],
            vec!["-", "55", "Lima", "n/a"],
            vec!["-", "n/a", "-", "n/a"],
        ];
        for extra in &extra_rows {
            let mut rows = vec![header.clone()];
            rows.extend(base.iter().cloned());
            let original = strings_table(&rows);
            rows.push(extra.clone());
            let expanded = strings_table(&rows);
            assert_eq!(
                original.schema().columns().len(),
                expanded.schema().columns().len(),
                "append case should keep the column count: {extra:?}"
            );
            let ctx = ExecContext::new(&original);
            assert_eq!(
                ctx.with_row_appended(&original, &expanded),
                ExecContext::new(&expanded),
                "appended {extra:?}"
            );
        }
    }

    #[test]
    fn row_appended_falls_back_when_types_flip() {
        let original = strings_table(&[vec!["name", "score"], vec!["Ada", "91"]]);
        // The appended row drops the score column below the numeric
        // majority threshold, turning it into Text.
        let expanded =
            strings_table(&[vec!["name", "score"], vec!["Ada", "91"], vec!["Bo", "withdrew"]]);
        assert_ne!(
            original.schema().column(1).map(|c| c.ty),
            expanded.schema().column(1).map(|c| c.ty),
            "test premise: the append must flip the column type"
        );
        let ctx = ExecContext::new(&original);
        assert_eq!(ctx.with_row_appended(&original, &expanded), ExecContext::new(&expanded));
    }
}
