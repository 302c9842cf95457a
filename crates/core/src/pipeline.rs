//! The compile pipeline: front end → escape analysis → instrumentation.

use minigo_escape::{
    analyze, audit, inline_program, instrument, instrument_with_plan, plan_placement,
    strip_unproven, Analysis, AnalyzeOptions, AuditMode, AuditReport, FreePlacement, FreeTargets,
    InlineOptions, Mode, PlacementStats,
};
use minigo_syntax::{
    parse, print_program, resolve, typecheck, Diagnostic, Program, Resolution, TypeInfo,
};

/// Compiler options — a thin, user-facing wrapper over
/// [`AnalyzeOptions`].
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Compile as plain Go or with GoFree.
    pub mode: Mode,
    /// Free slices+maps (paper default) or also raw pointers.
    pub free_targets: FreeTargets,
    /// §4.4 content tags (ablation toggle).
    pub content_tags: bool,
    /// Fig. 5 back-propagation (ablation toggle).
    pub back_propagation: bool,
    /// Run the §4.6.4 inlining pass before analysis. Off by default —
    /// GoFree does not depend on inlining; the `inlining` experiment
    /// binary compares both compilers with and without it.
    pub inline: bool,
    /// Free-safety auditing: re-derive a proof obligation for every
    /// inserted free with an independent dataflow pass. `Warn` keeps
    /// unproven frees (report only); `Deny` strips them from the program
    /// before lowering.
    pub audit: AuditMode,
    /// Where inserted frees land: `Scope` (§4.5 scope exit, bit-exact
    /// historical behavior) or `LastUse` (liveness-driven advancement
    /// plus partial frees for abandoned struct locals).
    pub free_placement: FreePlacement,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            mode: Mode::GoFree,
            free_targets: FreeTargets::SlicesAndMaps,
            content_tags: true,
            back_propagation: true,
            inline: false,
            audit: AuditMode::Off,
            free_placement: FreePlacement::Scope,
        }
    }
}

impl CompileOptions {
    /// Options modeling the unmodified Go compiler.
    pub fn go() -> Self {
        CompileOptions {
            mode: Mode::Go,
            ..CompileOptions::default()
        }
    }

    fn to_analyze_options(&self) -> AnalyzeOptions {
        AnalyzeOptions {
            mode: self.mode,
            free_targets: self.free_targets,
            content_tags: self.content_tags,
            back_propagation: self.back_propagation,
            ..AnalyzeOptions::default()
        }
    }
}

/// Wall-clock timing of one compiler phase, for the `--trace` compile
/// timeline. Unlike run-time trace events (virtual-time-stamped and
/// deterministic), these are host measurements: they vary run to run and
/// are never part of trace/metrics reconciliation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseTime {
    /// Phase name (`parse`, `resolve`, `typecheck`, `escape-solve`,
    /// `free-select`, `instrument`, `audit`, `lower`, ...).
    pub phase: &'static str,
    /// Wall-clock nanoseconds spent in the phase.
    pub nanos: u128,
}

/// A compiled (and, in GoFree mode, instrumented) program ready to run.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The (instrumented) AST.
    pub program: Program,
    /// Name resolution, including the synthesized `tcfree` uses.
    pub resolution: Resolution,
    /// Types.
    pub types: TypeInfo,
    /// The escape analysis results (allocation decisions, free choices).
    pub analysis: Analysis,
    /// The program lowered to the slot-indexed bytecode IR — the
    /// baseline instruction stream, kept for the tree-walk-independent
    /// `--opt off` debugging path.
    pub lowered: minigo_vm::Module,
    /// The optimizer tier's rewrite of `lowered` (peephole/const-fold,
    /// jump threading, superinstructions) — what the bytecode engine
    /// runs by default. Observationally identical to
    /// `lowered`; only host wall-clock differs.
    pub optimized: minigo_vm::Module,
    /// Per-pass rewrite counters from producing `optimized`.
    pub opt_stats: minigo_vm::OptStats,
    /// The free-safety audit report, when auditing was requested.
    pub audit: Option<AuditReport>,
    /// Free sites stripped under [`AuditMode::Deny`] (copied into every
    /// run's [`minigo_runtime::Metrics::frees_suppressed`]).
    pub frees_suppressed: u64,
    /// Liveness placement counters, present when the program was
    /// compiled under [`FreePlacement::LastUse`]; `suppressed` counts
    /// the auditor's unproven verdicts over the planned program.
    pub placement: Option<PlacementStats>,
    /// Per-phase wall-clock compile timings, in pipeline order (the
    /// escape analysis contributes its `escape-solve` and `free-select`
    /// sub-phases).
    pub phase_times: Vec<PhaseTime>,
}

impl Compiled {
    /// The instrumented program rendered back to MiniGo source — shows
    /// exactly where the compiler put the `tcfree` calls.
    pub fn instrumented_source(&self) -> String {
        print_program(&self.program)
    }

    /// Number of `tcfree` insertions across the program.
    pub fn free_count(&self) -> usize {
        self.analysis.stats.to_free
    }
}

/// Compiles MiniGo source.
///
/// # Errors
///
/// Returns the first front-end [`Diagnostic`].
pub fn compile(src: &str, opts: &CompileOptions) -> Result<Compiled, Diagnostic> {
    let mut phase_times = Vec::new();
    let mut timed = |phase: &'static str, nanos: u128| phase_times.push(PhaseTime { phase, nanos });
    let t = std::time::Instant::now();
    let mut program = parse(src)?;
    timed("parse", t.elapsed().as_nanos());
    if opts.inline {
        let t = std::time::Instant::now();
        program = inline_program(&program, &InlineOptions::default()).0;
        timed("inline", t.elapsed().as_nanos());
    }
    let t = std::time::Instant::now();
    let mut resolution = resolve(&program)?;
    timed("resolve", t.elapsed().as_nanos());
    let t = std::time::Instant::now();
    let mut types = typecheck(&program, &resolution)?;
    timed("typecheck", t.elapsed().as_nanos());
    let analysis = analyze(&program, &resolution, &types, &opts.to_analyze_options());
    // The analysis times its own sub-phases: the escape solve proper and
    // the completeness/lifetime free-variable selection.
    timed("escape-solve", analysis.stats.solve_nanos);
    timed("free-select", analysis.stats.select_nanos);
    // Liveness-driven placement plans *before* instrumentation; scope
    // mode never builds a plan, preserving bit-exact historical output.
    let mut placement: Option<PlacementStats> = None;
    let mut program = if opts.mode == Mode::GoFree {
        if opts.free_placement == FreePlacement::LastUse {
            let t = std::time::Instant::now();
            let plan = plan_placement(&program, &resolution, &types, &analysis);
            timed("liveness", t.elapsed().as_nanos());
            placement = Some(plan.stats);
            let t = std::time::Instant::now();
            let p = instrument_with_plan(&program, &mut resolution, &mut types, &analysis, &plan);
            timed("instrument", t.elapsed().as_nanos());
            p
        } else {
            let t = std::time::Instant::now();
            let p = instrument(&program, &mut resolution, &analysis);
            timed("instrument", t.elapsed().as_nanos());
            p
        }
    } else {
        let t = std::time::Instant::now();
        timed("instrument", t.elapsed().as_nanos());
        program
    };
    // The audit is an independent second pass: it sees only the
    // instrumented AST, never the escape graph that justified the frees.
    let mut report = None;
    let mut frees_suppressed = 0;
    if opts.mode == Mode::GoFree && opts.audit != AuditMode::Off {
        let t = std::time::Instant::now();
        let r = audit(&program, &resolution, &types);
        if opts.audit == AuditMode::Deny {
            let (stripped, removed) = strip_unproven(&program, &r);
            program = stripped;
            frees_suppressed = removed;
        }
        if let Some(p) = placement.as_mut() {
            // Placements the independent prover refused — stripped under
            // deny, kept-but-flagged under warn.
            p.suppressed = r.unproven().count() as u64;
        }
        report = Some(r);
        timed("audit", t.elapsed().as_nanos());
    }
    let t = std::time::Instant::now();
    let lowered = minigo_vm::lower(&program, &resolution, &types, &analysis);
    timed("lower", t.elapsed().as_nanos());
    let t = std::time::Instant::now();
    let (optimized, opt_stats) = minigo_vm::optimize(&lowered);
    timed("optimize", t.elapsed().as_nanos());
    Ok(Compiled {
        program,
        resolution,
        types,
        analysis,
        lowered,
        optimized,
        opt_stats,
        audit: report,
        frees_suppressed,
        placement,
        phase_times,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "func work(n int) int { s := make([]int, n)\n s[0] = n\n x := s[0]\n return x }\nfunc main() { print(work(64)) }\n";

    #[test]
    fn gofree_compile_inserts_frees() {
        let c = compile(SRC, &CompileOptions::default()).unwrap();
        assert!(c.free_count() >= 1);
        assert!(c.instrumented_source().contains("tcfree(s)"));
    }

    #[test]
    fn go_compile_is_clean() {
        let c = compile(SRC, &CompileOptions::go()).unwrap();
        assert_eq!(c.free_count(), 0);
        assert!(!c.instrumented_source().contains("tcfree"));
    }

    #[test]
    fn compile_errors_propagate() {
        assert!(compile("func f( {", &CompileOptions::default()).is_err());
    }

    #[test]
    fn audit_warn_proves_compiler_frees() {
        let opts = CompileOptions {
            audit: AuditMode::Warn,
            ..CompileOptions::default()
        };
        let c = compile(SRC, &opts).unwrap();
        let report = c.audit.as_ref().expect("audit ran");
        assert!(report.proved() >= 1);
        assert_eq!(report.unproven().count(), 0);
        assert_eq!(c.frees_suppressed, 0);
        assert!(c.instrumented_source().contains("tcfree(s)"));
    }

    #[test]
    fn audit_deny_strips_unproven_hand_written_free() {
        // A premature hand-written free the auditor must reject: `s` is
        // read after `tcfree(s)`.
        let buggy =
            "func main() { n := 100\n s := make([]int, n)\n s[0] = 7\n tcfree(s)\n print(s[0]) }\n";
        let opts = CompileOptions {
            audit: AuditMode::Deny,
            ..CompileOptions::default()
        };
        let c = compile(buggy, &opts).unwrap();
        let report = c.audit.as_ref().expect("audit ran");
        assert!(report.unproven().count() >= 1);
        assert_eq!(c.frees_suppressed as usize, report.unproven().count());
        // Only the proved sites survive (here: the compiler's own
        // scope-end free, a tolerated double free after the hand-written
        // one was stripped).
        assert_eq!(
            c.instrumented_source().matches("tcfree(s)").count(),
            report.proved()
        );
    }

    #[test]
    fn audit_off_reports_nothing() {
        let c = compile(SRC, &CompileOptions::default()).unwrap();
        assert!(c.audit.is_none());
        assert_eq!(c.frees_suppressed, 0);
    }
}
