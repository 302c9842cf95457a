//! # minigo-vm
//!
//! The MiniGo interpreter: executes (optionally GoFree-instrumented)
//! programs against the simulated runtime of `minigo-runtime`. Allocation
//! sites follow the escape analysis' stack/heap decisions, `tcfree`
//! statements call the runtime's explicit-deallocation primitives, and GC
//! runs at statement-boundary safepoints, marking from the VM's frames.
//!
//! One [`Machine`] holds the runtime and defines every heap operation —
//! with its tick charge and its sanitizer, write-barrier and trace hooks
//! — exactly once. Two engines implement [`Dispatch`] over it and own
//! control flow only: the [`TreeWalk`] over the AST (the differential
//! reference) and the [`Bytecode`] loop over a lowered [`Module`] (the
//! default). A [`Session`] pairs one engine with one machine and calls
//! functions by name; [`run`] and [`run_module`] are sessions that call
//! `main` once.
//!
//! ```
//! use minigo_escape::{analyze, instrument, AnalyzeOptions};
//! use minigo_syntax::frontend;
//! use minigo_vm::{run, VmConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let src = "func main() { s := make([]int, 3)\n s[0] = 41\n print(s[0] + 1) }\n";
//! let (program, mut res, types) = frontend(src)?;
//! let analysis = analyze(&program, &res, &types, &AnalyzeOptions::default());
//! let instrumented = instrument(&program, &mut res, &analysis);
//! let outcome = run(&instrumented, &res, &types, &analysis, VmConfig::default())?;
//! assert_eq!(outcome.output, "42\n");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod bytecode;
pub mod error;
pub use minigo_runtime::fxhash;
pub mod interp;
pub mod machine;
mod mark;
pub mod value;

pub use bytecode::{lower, optimize, run_module, Bytecode, Const, Module, OptStats};
pub use error::ExecError;
pub use interp::{run, TreeWalk};
pub use machine::{Dispatch, Machine, RunOutcome, Session, SiteProfile, VmConfig};
pub use mark::RootSink;
pub use value::{Cells, Key, MapData, MapVal, ObjId, PtrVal, SliceVal, Value};
