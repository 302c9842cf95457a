//! # gofree
//!
//! The public facade of the GoFree reproduction (CGO 2025): compile MiniGo
//! programs with either the plain Go pipeline or GoFree's explicit-
//! deallocation pipeline, execute them on the simulated managed runtime,
//! and reduce run reports into the paper's tables and figures.
//!
//! ```
//! use gofree::{compile, execute, CompileOptions, RunConfig, Setting};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let src = "func main() { n := 100\n s := make([]int, n)\n s[0] = 41\n print(s[0] + 1) }\n";
//! let compiled = compile(src, &CompileOptions::default())?;
//! assert!(compiled.instrumented_source().contains("tcfree(s)"));
//! let report = execute(&compiled, Setting::GoFree, &RunConfig::deterministic(0))?;
//! assert_eq!(report.output, "42\n");
//! assert!(report.metrics.freed_bytes > 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod experiment;
pub mod pipeline;
pub mod profile;
pub mod report;
pub mod service;
pub mod stats;
pub mod trace;

pub use engine::{
    compile_and_run, default_jobs, execute, run_distribution, run_matrix, run_seed, run_session,
    OptLevel, Report, RunConfig, Setting, VmEngine,
};
pub use experiment::{
    distribution, fig10_point, table7_row, table8_row, table9_row, Distribution, Fig10Point,
    MetricComparison, Table7Row, Table8Row, Table9Row,
};
pub use pipeline::{compile, CompileOptions, Compiled, PhaseTime};
pub use profile::{
    drag_table, folded_stacks, gctrace_lines, heap_snapshot_table, profile_report, FoldedMetric,
};
pub use report::{report_json, reports_json, service_report_json, REPORT_SCHEMA};
pub use service::{
    run_service, service_gctrace_lines, service_summary, Arrival, Quantiles, ServiceConfig,
    ServiceReport, ServiceStats, SERVICE_BUCKETS, TICKS_PER_SEC,
};
pub use stats::{mean, stdev, welch_t_test, Welch};
pub use trace::{chrome_trace_json, timeline_table};

// Re-export the pieces callers commonly need alongside the facade.
pub use minigo_escape::{
    AuditMode, AuditReport, AuditSite, AuditVerdict, FreePlacement, FreeTargets, Mode,
    PlacementStats,
};
pub use minigo_runtime::{
    percentile_sorted, Category, CollectorKind, ConfigError, CycleKind, FreeSource, HeapSnapshot,
    Histogram, Pause, PoisonMode, Profile, ShadowViolation, StackStat, StackTable, Trace,
    TraceEvent, ViolationKind,
};
pub use minigo_vm::{ExecError, OptStats, SiteProfile};
