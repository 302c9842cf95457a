//! The bytecode execution engine.
//!
//! The AST is lowered once ([`lower`]) into a slot-indexed [`Module`] —
//! flat instruction vectors with explicit jump targets, dense frame
//! slots, and a shared constant pool — then executed by a loop-dispatch
//! engine ([`Bytecode`], or [`run_module`] for a one-shot `main`). The
//! engine is control flow and operand plumbing only: every heap
//! operation is a [`crate::machine::Machine`] call, the same one the
//! tree-walk in [`crate::interp`] makes, so observable behaviour
//! (program output, free counts, heap/GC metrics, virtual time) is
//! identical across engines; the differential tests in the workspace
//! check this across the whole workload corpus.

mod exec;
mod ir;
pub(crate) mod lower;
mod opt;

pub use exec::{run_module, Bytecode};
pub use ir::{BFunc, Const, Instr, Module};
pub use lower::lower;
pub use opt::{optimize, OptStats};

use minigo_escape::Analysis;
use minigo_syntax::{Program, Resolution, TypeInfo};

use crate::machine::{Result, RunOutcome, VmConfig};

/// Lowers `program` and runs its `main` on the bytecode engine.
///
/// Convenience entry point matching [`crate::interp::run`]'s signature;
/// callers that already hold a lowered [`Module`] should use
/// [`run_module`] directly and skip the lowering cost.
///
/// # Errors
///
/// Returns the same [`ExecError`](crate::ExecError)s as the tree-walking
/// interpreter.
pub fn run(
    program: &Program,
    res: &Resolution,
    types: &TypeInfo,
    analysis: &Analysis,
    cfg: VmConfig,
) -> Result<RunOutcome> {
    let module = lower(program, res, types, analysis);
    run_module(&module, cfg)
}
