//! # logicforms — the Logic2Text logical-form DSL for UCTR
//!
//! Parser, evaluator and template machinery for the logical-form programs
//! UCTR uses to synthesize fact-verification claims (paper §II-C, §IV-B):
//! filter / superlative / ordinal / aggregation / majority / unique /
//! comparative operators executed against a [`tabular::Table`], with
//! truth-targeted template instantiation so sampled claims come with gold
//! Supported/Refuted labels.
//!
//! One entry point per step: [`LfTemplate::try_instantiate`] and
//! [`evaluate`] / [`evaluate_truth`]. The context-free per-cell evaluator
//! survives as the test oracle in [`reference`](mod@reference).
//!
//! ```
//! use tabular::{ExecContext, KernelScratch, Table};
//! use logicforms::{parse, evaluate_truth};
//!
//! let t = Table::from_strings("teams", &[
//!     vec!["team", "points"],
//!     vec!["Reds", "77"],
//!     vec!["Blues", "64"],
//! ]).unwrap();
//! let ctx = ExecContext::new(&t);
//! let claim = parse("eq { hop { argmax { all_rows ; points } ; team } ; Reds }").unwrap();
//! assert!(evaluate_truth(&claim, &t, &ctx, &mut KernelScratch::default()).unwrap());
//! ```

pub mod absint;
pub mod analysis;
pub mod ast;
pub mod canon;
pub mod exec;
pub mod parser;
pub mod reference;
pub mod template;

pub use ast::{LfExpr, LfOp, LogicType};
pub use canon::{canonical_expr, canonical_form};
pub use exec::{evaluate, evaluate_truth, LfError, LfOutcome, LfValue};
pub use parser::{parse, LfParseError};
pub use template::{abstract_form, InstantiatedClaim, LfInstantiateError, LfScratch, LfTemplate};
