//! # tabular — relational tables for UCTR
//!
//! The substrate data model for the UCTR reproduction: dynamically typed
//! cell [`Value`]s with a total order, typed [`Schema`]s with inference,
//! the [`Table`] container with the row/column algebra all three program
//! executors build on, CSV/JSON I/O, and the text utilities (tokenization,
//! token-F1, sentence splitting) shared by the generator, the operators and
//! the reasoning models.
//!
//! ```
//! use tabular::{Table, Value};
//!
//! let t = Table::from_strings(
//!     "Departments",
//!     &[
//!         vec!["department", "total deputies"],
//!         vec!["Commerce", "18"],
//!         vec!["Defense", "42"],
//!     ],
//! ).unwrap();
//! assert_eq!(t.argmax(1), Some(1));
//! assert_eq!(t.cell(1, 0), Some(&Value::text("Defense")));
//! ```

pub mod absdom;
pub mod context;
pub mod io;
pub mod kernels;
pub mod requirement;
pub mod schema;
pub mod shared;
pub mod table;
pub mod text;
pub mod value;

pub use absdom::{AbsSummary, Card, Interval, Kleene, Sign};
pub use context::ExecContext;
pub use io::{table_from_csv, table_to_csv, CsvError};
pub use kernels::{KernelScratch, LooseIndex};
pub use requirement::{SchemaRequirement, TemplateAnalysis, TemplateIssue};
pub use schema::{infer_column_type, Column, ColumnType, Schema};
pub use shared::SharedTable;
pub use table::{Table, TableError};
pub use value::{format_number, nearly_equal, Date, Value};
