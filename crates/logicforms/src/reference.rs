//! The context-free test oracle: evaluation and sampling by per-cell parses
//! and table scans. `tests/kernel_parity.rs` and `tests/exec_context.rs` pin
//! the crate's entry points to it (identical results, identical RNG draws);
//! `clippy.toml` rejects any other call.

use crate::ast::LfExpr;
use crate::exec::{evaluate_impl, evaluate_truth_impl, LfError, LfOutcome};
use crate::template::{InstantiatedClaim, LfInstantiateError, LfScratch, LfTemplate};
use rand::Rng;
use tabular::{KernelScratch, Table};

/// [`crate::evaluate`] without a context.
pub fn evaluate(expr: &LfExpr, table: &Table) -> Result<LfOutcome, LfError> {
    evaluate_impl(expr, table, None, &mut KernelScratch::default())
}

/// [`crate::evaluate_truth`] without a context.
pub fn evaluate_truth(expr: &LfExpr, table: &Table) -> Result<bool, LfError> {
    evaluate_truth_impl(expr, table, None, &mut KernelScratch::default())
}

/// [`LfTemplate::try_instantiate`] without a context.
pub fn try_instantiate(
    template: &LfTemplate,
    table: &Table,
    rng: &mut impl Rng,
    desired: bool,
) -> Result<InstantiatedClaim, LfInstantiateError> {
    template.sample(table, None, rng, desired, &mut LfScratch::default())
}
