//! The relational table type used across the workspace.
//!
//! A [`Table`] is a titled, schema-typed grid of [`Value`]s stored row-major.
//! It provides the row/column operations that the program executors, the
//! Table-To-Text / Text-To-Table operators, and the reasoning models all
//! build on.

use crate::kernels::LooseIndex;
use crate::schema::{infer_column_type, Column, ColumnType, Schema};
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors produced by table construction and manipulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableError {
    /// A row had a different arity than the schema.
    RowArity { expected: usize, got: usize },
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::RowArity { expected, got } => {
                write!(f, "row has {got} cells but schema has {expected} columns")
            }
        }
    }
}

impl std::error::Error for TableError {}

/// A relational table: title, typed schema, and rows of values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table {
    /// Human-readable caption/title (e.g. the Wikipedia page section).
    pub title: String,
    schema: Schema,
    rows: Vec<Vec<Value>>,
}

impl Default for Table {
    /// The empty table: no columns, no rows, an empty title.
    fn default() -> Table {
        Table { title: String::new(), schema: Schema::default(), rows: vec![] }
    }
}

impl Table {
    /// Creates a table from a schema and rows, checking arity.
    pub fn new(
        title: impl Into<String>,
        schema: Schema,
        rows: Vec<Vec<Value>>,
    ) -> Result<Table, TableError> {
        let n = schema.len();
        for row in &rows {
            if row.len() != n {
                return Err(TableError::RowArity { expected: n, got: row.len() });
            }
        }
        Ok(Table { title: title.into(), schema, rows })
    }

    /// Builds a table from raw string cells, inferring each column's type.
    /// The first row of `grid` is the header.
    pub fn from_strings(title: impl Into<String>, grid: &[Vec<&str>]) -> Result<Table, TableError> {
        let Some((header, body)) = grid.split_first() else {
            return Ok(Table { title: title.into(), schema: Schema::default(), rows: vec![] });
        };
        let rows: Vec<Vec<Value>> =
            body.iter().map(|r| r.iter().map(|c| Value::parse(c)).collect()).collect();
        let ncols = header.len();
        for row in &rows {
            if row.len() != ncols {
                return Err(TableError::RowArity { expected: ncols, got: row.len() });
            }
        }
        let mut cols = Vec::with_capacity(ncols);
        for (i, name) in header.iter().enumerate() {
            cols.push(Column::new(*name, infer_column_type(rows.iter().map(|r| &r[i]))));
        }
        Ok(Table { title: title.into(), schema: Schema::new(cols), rows })
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    pub fn n_cols(&self) -> usize {
        self.schema.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Returns the cell at (row, col) if in bounds.
    pub fn cell(&self, row: usize, col: usize) -> Option<&Value> {
        self.rows.get(row).and_then(|r| r.get(col))
    }

    /// Returns a row by index.
    pub fn row(&self, idx: usize) -> Option<&[Value]> {
        self.rows.get(idx).map(|r| r.as_slice())
    }

    /// Returns an owned copy of one column's values.
    pub fn column_values(&self, col: usize) -> Vec<Value> {
        self.rows.iter().filter_map(|r| r.get(col).cloned()).collect()
    }

    /// Column header name by index.
    pub fn column_name(&self, col: usize) -> Option<&str> {
        self.schema.column(col).map(|c| c.name.as_str())
    }

    /// Case-insensitive column index lookup.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.schema.index_of(name)
    }

    /// The column that names each row's entity: the first `Text` column,
    /// else column 0 (financial tables lead with a label column). Its cell
    /// is the subject of a row Table-To-Text verbalizes and the `<row>` an
    /// arithmetic program addresses as `the <col> of <row>`.
    pub fn entity_column(&self) -> usize {
        self.schema.columns().iter().position(|c| c.ty == ColumnType::Text).unwrap_or(0)
    }

    /// Appends a row, checking arity.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<(), TableError> {
        if row.len() != self.schema.len() {
            return Err(TableError::RowArity { expected: self.schema.len(), got: row.len() });
        }
        self.rows.push(row);
        Ok(())
    }

    /// A new table containing only the rows whose indexes are in `keep`
    /// (order preserved, duplicates allowed).
    pub fn select_rows(&self, keep: &[usize]) -> Table {
        let rows = keep.iter().filter_map(|&i| self.rows.get(i).cloned()).collect();
        Table { title: self.title.clone(), schema: self.schema.clone(), rows }
    }

    /// Index of the row with the maximum value in `col` (nulls skipped).
    pub fn argmax(&self, col: usize) -> Option<usize> {
        self.rows
            .iter()
            .enumerate()
            .filter(|(_, r)| !r[col].is_null())
            .max_by(|(_, a), (_, b)| a[col].cmp(&b[col]))
            .map(|(i, _)| i)
    }

    /// Index of the row with the minimum value in `col` (nulls skipped).
    pub fn argmin(&self, col: usize) -> Option<usize> {
        self.rows
            .iter()
            .enumerate()
            .filter(|(_, r)| !r[col].is_null())
            .min_by(|(_, a), (_, b)| a[col].cmp(&b[col]))
            .map(|(i, _)| i)
    }

    /// Distinct non-null values of a column, in first-occurrence order. Two
    /// values are duplicates when [`Value::loosely_equals`] says so, decided
    /// exactly by [`LooseIndex`].
    pub fn distinct(&self, col: usize) -> Vec<Value> {
        let mut index = LooseIndex::default();
        self.rows
            .iter()
            .map(|r| &r[col])
            .filter(|v| !v.is_null() && index.insert(v).1)
            .cloned()
            .collect()
    }

    /// Re-infers every column's type from the current values. Needed after
    /// bulk edits (e.g. table expansion may append rows of a new type mix).
    pub fn reinfer_types(&mut self) {
        let mut cols = Vec::with_capacity(self.schema.len());
        for (i, c) in self.schema.columns().iter().enumerate() {
            let ty = infer_column_type(self.rows.iter().filter_map(|r| r.get(i)));
            cols.push(Column::new(c.name.clone(), ty));
        }
        self.schema = Schema::new(cols);
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# {}", self.title)?;
        let names: Vec<&str> = self.schema.columns().iter().map(|c| c.name.as_str()).collect();
        writeln!(f, "| {} |", names.join(" | "))?;
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            writeln!(f, "| {} |", cells.join(" | "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        Table::from_strings(
            "Departments",
            &[
                vec!["department", "total deputies", "founded"],
                vec!["Commerce", "18", "1913-03-04"],
                vec!["Defense", "42", "1947-09-18"],
                vec!["Treasury", "30", "1789-09-02"],
            ],
        )
        .unwrap_or_else(|e| panic!("test table: {e:?}"))
    }

    fn column_type(t: &Table, c: usize) -> ColumnType {
        t.schema().column(c).unwrap_or_else(|| panic!("column {c}")).ty
    }

    #[test]
    fn from_strings_infers_types() {
        let t = sample();
        assert_eq!(column_type(&t, 0), ColumnType::Text);
        assert_eq!(column_type(&t, 1), ColumnType::Number);
        assert_eq!(column_type(&t, 2), ColumnType::Date);
    }

    #[test]
    fn first_text_column_else_zero_names_the_entity() {
        let grid = |rows: &[Vec<&str>]| {
            Table::from_strings("t", rows).unwrap_or_else(|e| panic!("test table: {e:?}"))
        };
        // A leading text column, with a null name cell among its rows.
        let people = grid(&[
            vec!["name", "score", "city", "when"],
            vec!["Ada", "91", "Oslo", "1990-05-01"],
            vec!["-", "84", "Lima", "n/a"],
            vec!["Cleo", "n/a", "Oslo", "2001-08-23"],
        ]);
        assert_eq!(people.entity_column(), 0);
        let financials = grid(&[
            vec!["item", "2019", "2018"],
            vec!["Stockholders' equity", "3200", "4000"],
            vec!["Revenue", "8800", "8000"],
        ]);
        assert_eq!(financials.entity_column(), 0);
        // The first text column wins over a leading numeric one.
        assert_eq!(grid(&[vec!["x", "label"], vec!["1", "a"], vec!["2", "b"]]).entity_column(), 1);
        let players = grid(&[vec!["score", "player"], vec!["10", "alice"], vec!["20", "bob"]]);
        assert_eq!(players.entity_column(), 1);
        // No text column, and no column at all: column 0.
        assert_eq!(grid(&[vec!["a", "b"], vec!["1", "2"]]).entity_column(), 0);
        assert_eq!(Table::default().entity_column(), 0);
    }

    #[test]
    fn arity_checked() {
        let err = Table::from_strings("t", &[vec!["a", "b"], vec!["1"]]).unwrap_err();
        assert_eq!(err, TableError::RowArity { expected: 2, got: 1 });
    }

    #[test]
    fn argmax_argmin() {
        let t = sample();
        assert_eq!(t.argmax(1), Some(1)); // Defense: 42
        assert_eq!(t.argmin(1), Some(0)); // Commerce: 18
    }

    #[test]
    fn select_rows_keeps_the_given_order() {
        let t = sample();
        let s = t.select_rows(&[2, 0]);
        assert_eq!(s.n_rows(), 2);
        let c = s.cell(0, 0).unwrap_or_else(|| panic!("cell 0,0"));
        assert_eq!(c.to_string(), "Treasury");
    }

    #[test]
    fn distinct_dedups_loosely() {
        let t = Table::from_strings(
            "t",
            &[vec!["c"], vec!["Apple"], vec!["apple"], vec!["Pear"], vec![""]],
        )
        .unwrap_or_else(|e| panic!("test table: {e:?}"));
        assert_eq!(t.distinct(0).len(), 2);
    }

    #[test]
    fn distinct_matches_pairwise_scan() {
        // Adversarial mix for the windowed accelerator: epsilon-close
        // numbers, case variants, bools, adjacent dates (near-equal
        // ordinals but distinct dates), and nulls.
        let cells = [
            "5",
            "5.0000001",
            "5.1",
            "yes",
            "true",
            "Apple",
            "APPLE",
            "apple pie",
            "2020-03-01",
            "2020-03-02",
            "2020-03-01",
            "",
            "0",
            "no",
            "-5",
            "5",
            "1000000",
            "1000000.5",
            "1000001",
            "0.0000001",
            "0",
        ];
        let mut grid = vec![vec!["c"]];
        grid.extend(cells.iter().map(|c| vec![*c]));
        let t = Table::from_strings("t", &grid).unwrap_or_else(|e| panic!("test table: {e:?}"));
        // Reference: the original quadratic first-occurrence scan.
        let mut naive: Vec<Value> = Vec::new();
        for row in t.rows() {
            let v = &row[0];
            if !v.is_null() && !naive.iter().any(|s| s.loosely_equals(v)) {
                naive.push(v.clone());
            }
        }
        assert_eq!(t.distinct(0), naive);
    }

    #[test]
    fn select_rows_allows_duplicates_and_ignores_oob() {
        let t = sample();
        let s = t.select_rows(&[0, 0, 99]);
        assert_eq!(s.n_rows(), 2);
        assert_eq!(s.row(0), s.row(1));
    }

    #[test]
    fn reinfer_types_after_edit() {
        let mut t = Table::from_strings("t", &[vec!["v"], vec!["hello"]])
            .unwrap_or_else(|e| panic!("test table: {e:?}"));
        assert_eq!(column_type(&t, 0), ColumnType::Text);
        t.push_row(vec![Value::Number(1.0)]).unwrap_or_else(|e| panic!("push_row: {e:?}"));
        t.push_row(vec![Value::Number(2.0)]).unwrap_or_else(|e| panic!("push_row: {e:?}"));
        t.reinfer_types();
        assert_eq!(column_type(&t, 0), ColumnType::Number);
    }
}
