//! # sqlexec — SQL-subset engine for UCTR
//!
//! The reproduction's substitute for the paper's sqlite3 Program-Executor:
//! a lexer, recursive-descent parser, AST, and executor for the SQL subset
//! used by SQUALL-style program templates, plus the template
//! abstraction/instantiation machinery for UCTR's random sampling strategy
//! (paper §IV-B, §IV-C).
//!
//! One entry point per step: [`SqlTemplate::try_instantiate`] and
//! [`execute`], which [`run_sql`] also runs. The context-free per-cell
//! interpreter survives as the test oracle in [`reference`](mod@reference).
//!
//! ```
//! use tabular::Table;
//! use sqlexec::run_sql;
//!
//! let t = Table::from_strings("deps", &[
//!     vec!["department", "total deputies"],
//!     vec!["Commerce", "18"],
//!     vec!["Defense", "42"],
//! ]).unwrap();
//! let r = run_sql("select [department] from w order by [total deputies] desc limit 1", &t).unwrap();
//! assert_eq!(r.answer, "Defense");
//! ```

pub mod absint;
pub mod analysis;
pub mod ast;
pub mod canon;
pub mod exec;
pub mod parser;
pub mod reference;
pub mod template;
pub mod token;

pub use ast::{
    AggFunc, ArithOp, CmpOp, ColumnRef, Cond, Expr, OrderDir, PlaceholderType, SelectItem,
    SelectStmt,
};
pub use canon::{canonical_form, canonical_stmt};
pub use exec::{execute, run_sql, ExecError, QueryResult};
pub use parser::{parse, ParseError};
pub use template::{abstract_query, SqlInstantiateError, SqlScratch, SqlTemplate};
