//! Column schemas and type inference.
//!
//! UCTR's program sampling is *type-directed*: a SQL template placeholder
//! `c2_number` may only be filled with a numeric column, and arithmetic
//! expressions only apply to numeric cells (paper §IV-C). The schema layer
//! records the inferred type of each column so the sampler can respect
//! those constraints.

use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The inferred type of a table column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ColumnType {
    /// Predominantly numeric cells.
    Number,
    /// Predominantly date cells.
    Date,
    /// Predominantly boolean cells.
    Bool,
    /// Everything else (including mixed columns).
    Text,
}

impl fmt::Display for ColumnType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ColumnType::Number => "number",
            ColumnType::Date => "date",
            ColumnType::Bool => "bool",
            ColumnType::Text => "text",
        };
        f.write_str(s)
    }
}

/// Metadata for a single column.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Column {
    /// Header text as it appears in the table.
    pub name: String,
    /// Inferred type.
    pub ty: ColumnType,
}

impl Column {
    pub fn new(name: impl Into<String>, ty: ColumnType) -> Column {
        Column { name: name.into(), ty }
    }
}

/// An ordered collection of columns.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Schema {
    columns: Vec<Column>,
}

impl Schema {
    pub fn new(columns: Vec<Column>) -> Schema {
        Schema { columns }
    }

    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    pub fn len(&self) -> usize {
        self.columns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Case-insensitive lookup of a column index by header name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name.eq_ignore_ascii_case(name))
    }

    pub fn column(&self, idx: usize) -> Option<&Column> {
        self.columns.get(idx)
    }

    /// Indexes of all columns of the given type.
    pub fn columns_of_type(&self, ty: ColumnType) -> Vec<usize> {
        self.columns.iter().enumerate().filter(|(_, c)| c.ty == ty).map(|(i, _)| i).collect()
    }

    pub fn push(&mut self, col: Column) {
        self.columns.push(col);
    }
}

/// Infers a column type from a sample of its values, read in place.
///
/// A column is typed `Number`/`Date`/`Bool` when a strict majority (> 60%) of
/// its non-null cells parse as that type; otherwise it is `Text`. This
/// mirrors how SQUALL annotates `_number` columns: mostly-numeric columns
/// with an occasional stray footnote still count as numeric.
pub fn infer_column_type<'v>(values: impl IntoIterator<Item = &'v Value>) -> ColumnType {
    let mut num = 0usize;
    let mut date = 0usize;
    let mut boolean = 0usize;
    let mut non_null = 0usize;
    for v in values {
        match v {
            Value::Null => {}
            Value::Number(_) => {
                non_null += 1;
                num += 1;
            }
            Value::Date(_) => {
                non_null += 1;
                date += 1;
            }
            Value::Bool(_) => {
                non_null += 1;
                boolean += 1;
            }
            Value::Text(_) => non_null += 1,
        }
    }
    if non_null == 0 {
        return ColumnType::Text;
    }
    let thresh = (non_null as f64 * 0.6).ceil() as usize;
    if num >= thresh {
        ColumnType::Number
    } else if date >= thresh {
        ColumnType::Date
    } else if boolean >= thresh {
        ColumnType::Bool
    } else {
        ColumnType::Text
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Date;

    #[test]
    fn infer_numeric_majority() {
        let vals = vec![
            Value::Number(1.0),
            Value::Number(2.0),
            Value::Text("n/a footnote".into()),
            Value::Number(3.0),
        ];
        assert_eq!(infer_column_type(&vals), ColumnType::Number);
    }

    #[test]
    fn infer_text_when_mixed() {
        let vals = vec![Value::Number(1.0), Value::Text("a".into()), Value::Text("b".into())];
        assert_eq!(infer_column_type(&vals), ColumnType::Text);
    }

    #[test]
    fn infer_dates() {
        let vals = vec![
            Value::Date(Date::new(2001, 1, 1).unwrap_or_else(|| panic!("date"))),
            Value::Date(Date::new(2002, 2, 2).unwrap_or_else(|| panic!("date"))),
            Value::Null,
        ];
        assert_eq!(infer_column_type(&vals), ColumnType::Date);
    }

    #[test]
    fn infer_empty_column_is_text() {
        assert_eq!(infer_column_type(&[]), ColumnType::Text);
        assert_eq!(infer_column_type(&[Value::Null, Value::Null]), ColumnType::Text);
    }

    #[test]
    fn schema_lookup_case_insensitive() {
        let s = Schema::new(vec![
            Column::new("Name", ColumnType::Text),
            Column::new("Score", ColumnType::Number),
        ]);
        assert_eq!(s.index_of("score"), Some(1));
        assert_eq!(s.index_of("NAME"), Some(0));
        assert_eq!(s.index_of("missing"), None);
    }

    #[test]
    fn columns_of_type_filters() {
        let s = Schema::new(vec![
            Column::new("a", ColumnType::Text),
            Column::new("b", ColumnType::Number),
            Column::new("c", ColumnType::Number),
            Column::new("d", ColumnType::Date),
        ]);
        assert_eq!(s.columns_of_type(ColumnType::Number), vec![1, 2]);
    }
}
