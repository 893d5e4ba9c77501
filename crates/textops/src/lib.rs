//! # textops — Table-To-Text and Text-To-Table operators
//!
//! UCTR's two novel operators for joint table-text reasoning (paper §III):
//! [`table_to_text()`] verbalizes one highlighted row into a sentence (with
//! the paper's faithfulness filter) that replaces the row in the split
//! evidence, and [`text_to_table()`] extracts a record from the table's
//! surrounding paragraph and integrates it as a new row, producing an
//! expanded table.
//!
//! ```
//! use tabular::Table;
//! use textops::text_to_table;
//!
//! let t = Table::from_strings("deps", &[
//!     vec!["department", "budget"],
//!     vec!["Commerce", "500"],
//! ]).unwrap();
//! let out = text_to_table(&t, "Energy has a budget of 700.").unwrap();
//! assert_eq!(out.expanded.n_rows(), 2);
//! ```

pub mod table_to_text;
pub mod text_to_table;

pub use table_to_text::{
    describe_row, describe_row_with, is_faithful, is_faithful_with, table_to_text,
    table_to_text_with, SplitResult, TextScratch,
};
pub use text_to_table::{extract_record, text_to_table, ExpandResult, ExtractedRecord};
