//! # minigo-escape
//!
//! Go's escape analysis and GoFree's explicit-deallocation analyses,
//! reproduced from "GoFree: Reducing Garbage Collection via
//! Compiler-Inserted Freeing" (CGO 2025).
//!
//! The pipeline (fig. 4 of the paper):
//!
//! 1. [`build_func_graph`] constructs the escape graph for a function
//!    (definitions 4.1–4.5, table 2) with slice/map/call modeling (§4.6).
//! 2. [`solve()`](solve::solve) propagates escape properties to a fixpoint (fig. 5),
//!    including GoFree's completeness (§4.2) and lifetime (§4.3)
//!    constraints with leaf→root back-propagation.
//! 3. [`analyze()`](analyze::analyze) orchestrates the bottom-up inter-procedural pass (§4.4),
//!    extracting extended parameter tags with content tags, and selects the
//!    `ToFree` variables (definition 4.17).
//! 4. [`instrument()`](instrument::instrument) inserts `tcfree` statements at scope ends (§4.5).
//!
//! Two baseline analyses accompany it for the paper's table 3 comparison:
//! [`baseline::fast`] (O(N) Fast Escape Analysis) and [`baseline::conn`]
//! (an O(N³) connection-graph analysis that tracks indirect stores).
//!
//! ```
//! use minigo_escape::{analyze, instrument, AnalyzeOptions};
//! use minigo_syntax::frontend;
//!
//! # fn main() -> Result<(), minigo_syntax::Diagnostic> {
//! let src = "func f(n int) { s := make([]int, n)\n s[0] = 1 }\n";
//! let (program, mut res, types) = frontend(src)?;
//! let analysis = analyze(&program, &res, &types, &AnalyzeOptions::default());
//! let instrumented = instrument(&program, &mut res, &analysis);
//! let text = minigo_syntax::print_program(&instrumented);
//! assert!(text.contains("tcfree(s)"));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod analyze;
pub mod audit;
pub mod baseline;
pub mod build;
pub mod callgraph;
pub mod graph;
pub mod inline;
pub mod instrument;
pub mod liveness;
pub mod solve;
pub mod summary;

pub use analyze::{
    analyze, AllocPlace, Analysis, AnalysisStats, AnalyzeOptions, FreeTargets, Mode,
};
pub use audit::{audit, strip_unproven, AuditMode, AuditReport, AuditSite, AuditVerdict};
pub use build::{build_func_graph, AllocSite, FuncGraph};
pub use callgraph::CallGraph;
pub use graph::{
    AllocKind, ContentOrigin, Edge, EscapeGraph, Labels, LocId, LocKind, Location, HEAP_LOC,
};
pub use inline::{inline_program, InlineStats};
pub use instrument::{
    instrument, instrument_in_place, instrument_with_plan, instrument_with_plan_in_place,
};
pub use liveness::{
    plan_placement, use_summaries, FreePlacement, PartialFree, PlacementPlan, PlacementStats,
    UseSummary,
};
pub use solve::{holds, points_to, solve, walk, SolveConfig, SolveStats, Solver};
pub use summary::{FuncSummary, SummaryDst, SummaryEdge};

/// Allocations larger than this (or of unknown size) are heap-allocated
/// regardless of escape behaviour, mirroring Go's implicit-allocation
/// size limit.
pub const MAX_STACK_BYTES: u64 = 64 * 1024;

/// Bytes charged for a map's hmap header plus its initial bucket — the
/// constant-size part of `make(map[K]V)` that can live on the stack when
/// the map does not escape.
pub const MAP_BASE_BYTES: u64 = 256;
