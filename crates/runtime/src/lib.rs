//! # minigo-runtime
//!
//! The managed-runtime substrate for the GoFree reproduction: a
//! TCMalloc-style size-segregated thread-caching allocator (mspans,
//! mcaches, mcentral, page heap — §3.3 of the paper), a non-moving
//! mark-sweep GC with GOGC pacing and a simulated concurrent-mark window,
//! and the `tcfree` explicit-deallocation primitive family of §5 —
//! including the small-object allocation-index revert, the large-object
//! two-step dangling-span protocol, best-effort bail-outs, tolerated
//! double frees, and the §6.8 poison ("mock tcfree") mode.
//!
//! Time is a deterministic virtual clock driven by a cost model, so the
//! relative measurements of the paper's evaluation (time ratios, GC time
//! via GC-off subtraction) are exact and reproducible per seed.
//!
//! ```
//! use minigo_runtime::{Category, FreeOutcome, FreeSource, Runtime, RuntimeConfig};
//!
//! let mut rt = Runtime::new(RuntimeConfig { migrate_prob: 0.0, ..RuntimeConfig::default() });
//! let addr = rt.alloc(1024, Category::Slice);
//! match rt.tcfree(addr, FreeSource::SliceLifetime) {
//!     FreeOutcome::Freed { bytes } => assert_eq!(bytes, 1024),
//!     other => panic!("unexpected {other:?}"),
//! }
//! ```

#![warn(missing_docs)]

pub mod clock;
pub mod collector;
pub mod heap;
pub mod histogram;
pub mod metrics;
pub mod profile;
pub mod rng;
pub mod runtime;
pub mod shadow;
pub mod sizeclass;
pub mod trace;

pub use minigo_syntax::fxhash;

pub use clock::{Clock, CostModel};
pub use collector::{CollectorKind, CycleKind};
pub use heap::{
    AllocEvents, Heap, HeapInvariant, HeapInvariantError, Mspan, ObjAddr, OwnerTag, SmallFree,
    SpanId, SweepOutcome, Swept,
};
pub use histogram::{percentile_sorted, Histogram};
pub use metrics::{BailReason, Category, FreeSource, Metrics};
pub use profile::{Profile, SiteDrag, StackId, StackStat, StackTable, DRAG_BUCKETS, ROOT_STACK};
pub use rng::SimRng;
pub use runtime::{ConfigError, FreeOutcome, GcCycle, PoisonMode, Runtime, RuntimeConfig};
pub use shadow::{FreeCheck, ShadowHeap, ShadowViolation, ViolationKind};
pub use sizeclass::{class_for, class_size, MAX_SMALL_SIZE, PAGE_SIZE};
pub use trace::{
    ClassOccupancy, FreeStep, HeapSnapshot, Origin, Replayed, Trace, TraceEvent, Tracer,
};
