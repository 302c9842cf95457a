//! Runtime errors.

use std::error::Error;
use std::fmt;

/// A runtime failure while executing a MiniGo program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// `panic(v)` unwound to the top without recovery.
    Panic(String),
    /// Slice index out of range.
    OutOfBounds {
        /// The index used.
        index: i64,
        /// The slice length.
        len: usize,
    },
    /// `make` or `append` needed a backing array whose accounted size
    /// overflows or that the host cannot allocate — Go's `makeslice: len
    /// out of range`. Carries the bound that was out of range:
    /// `makeslice: len`, `makeslice: cap` or `growslice: len`.
    SliceRange(&'static str),
    /// Dereference of a nil pointer / use of a nil map.
    NilDeref,
    /// Integer division or remainder by zero.
    DivByZero,
    /// A read observed memory corrupted by the §6.8 mock `tcfree` — an
    /// unsound explicit free was detected.
    PoisonedRead,
    /// The configured step limit was exceeded (runaway program).
    StepLimit,
    /// Call stack exceeded the limit.
    StackOverflow,
    /// The program has no `main` function.
    NoMain,
    /// A session call named a function the program does not define (the
    /// service harness' `setup`/`handle` contract).
    NoFunc(String),
    /// The runtime configuration failed validation before the run
    /// started (e.g. GOGC=0 with GC enabled, or a generational nursery
    /// at or above the heap goal).
    InvalidConfig(minigo_runtime::ConfigError),
    /// An operation the VM does not support (e.g. interior pointers
    /// `&x.f`).
    Unsupported(String),
    /// An internal invariant broke (a front-end bug if it ever fires).
    Internal(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Panic(msg) => write!(f, "panic: {msg}"),
            ExecError::OutOfBounds { index, len } => {
                write!(f, "index out of range [{index}] with length {len}")
            }
            ExecError::SliceRange(bound) => write!(f, "{bound} out of range"),
            ExecError::NilDeref => write!(f, "invalid memory address or nil pointer dereference"),
            ExecError::DivByZero => write!(f, "integer divide by zero"),
            ExecError::PoisonedRead => {
                write!(f, "read of poisoned memory (unsound tcfree detected)")
            }
            ExecError::StepLimit => write!(f, "step limit exceeded"),
            ExecError::StackOverflow => write!(f, "stack overflow"),
            ExecError::NoMain => write!(f, "program has no func main()"),
            ExecError::NoFunc(name) => write!(f, "program has no func {name}()"),
            ExecError::InvalidConfig(err) => write!(f, "invalid runtime configuration: {err}"),
            ExecError::Unsupported(what) => write!(f, "unsupported operation: {what}"),
            ExecError::Internal(what) => write!(f, "internal error: {what}"),
        }
    }
}

impl Error for ExecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(ExecError::Panic("boom".into()).to_string().contains("boom"));
        assert!(ExecError::OutOfBounds { index: 5, len: 3 }
            .to_string()
            .contains("[5]"));
        assert_eq!(
            ExecError::SliceRange("makeslice: cap").to_string(),
            "makeslice: cap out of range"
        );
        assert!(ExecError::PoisonedRead.to_string().contains("poisoned"));
        assert!(
            ExecError::InvalidConfig(minigo_runtime::ConfigError::ZeroGogc)
                .to_string()
                .contains("GOGC")
        );
    }
}
