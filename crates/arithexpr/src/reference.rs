//! The context-free test oracle: execution and sampling by per-cell parses
//! and table scans. `tests/kernel_parity.rs` and `tests/exec_context.rs` pin
//! [`crate::execute`] and [`AeTemplate::try_instantiate`] to it (identical
//! results, identical RNG draws); `clippy.toml` rejects any other call.

use crate::ast::AeProgram;
use crate::exec::{execute_impl, AeError, AeOutcome};
use crate::template::{AeInstantiateError, AeScratch, AeTemplate, InstantiatedArith};
use rand::Rng;
use tabular::{KernelScratch, Table};

/// [`crate::execute`] without a context.
pub fn execute(program: &AeProgram, table: &Table) -> Result<AeOutcome, AeError> {
    execute_impl(program, table, None, &mut KernelScratch::default(), &mut Vec::new())
}

/// [`AeTemplate::try_instantiate`] without a context.
pub fn try_instantiate(
    template: &AeTemplate,
    table: &Table,
    rng: &mut impl Rng,
) -> Result<InstantiatedArith, AeInstantiateError> {
    template.sample(table, None, rng, &mut AeScratch::default())
}
