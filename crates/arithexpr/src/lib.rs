//! # arithexpr — the FinQA arithmetic-expression DSL for UCTR
//!
//! Parser, executor and template machinery for the arithmetic programs UCTR
//! uses on numeracy-heavy QA tasks (paper §II-C): six math operations
//! (`add`, `subtract`, `multiply`, `divide`, `greater`, `exp`) and four
//! table aggregations (`table_max`, `table_min`, `table_sum`,
//! `table_average`), with `#N` step references and `col of row` cell
//! addressing.
//!
//! One entry point per step: [`AeTemplate::try_instantiate`] and
//! [`execute`], which [`run_arith`] also runs. The context-free per-cell
//! executor survives as the test oracle in [`reference`](mod@reference).
//!
//! ```
//! use tabular::Table;
//! use arithexpr::run_arith;
//!
//! let t = Table::from_strings("b", &[
//!     vec!["item", "2019", "2018"],
//!     vec!["Equity", "3200", "4000"],
//! ]).unwrap();
//! let out = run_arith(
//!     "subtract( the 2019 of Equity , the 2018 of Equity ), divide( #0 , the 2018 of Equity )",
//!     &t,
//! ).unwrap();
//! assert_eq!(out.answer.to_string(), "-0.2");
//! ```

pub mod absint;
pub mod analysis;
pub mod ast;
pub mod canon;
pub mod exec;
pub mod parser;
pub mod reference;
pub mod template;

pub use ast::{AeArg, AeOp, AeProgram, AeStep};
pub use canon::{canonical_form, canonical_program};
pub use exec::{execute, run_arith, AeAnswer, AeError, AeOutcome};
pub use parser::{parse, AeParseError};
pub use template::{
    abstract_program, AeInstantiateError, AeScratch, AeTemplate, InstantiatedArith,
};
