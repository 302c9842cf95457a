//! The execution engine: runs compiled programs under the paper's three
//! experimental settings and collects reports.

use minigo_escape::Mode;
use minigo_runtime::{PoisonMode, RuntimeConfig};
use minigo_vm::{Bytecode, Dispatch, ExecError, RunOutcome, Session, TreeWalk, VmConfig};

use crate::pipeline::{compile, CompileOptions, Compiled};

/// The three settings of §6.4: Go, GoFree, and Go with GC disabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Setting {
    /// Compiled with plain Go, GC on.
    Go,
    /// Compiled with GoFree, GC on.
    GoFree,
    /// Compiled with plain Go, GC off (the `GC time` baseline).
    GoGcOff,
}

impl Setting {
    /// All settings in presentation order.
    pub fn all() -> [Setting; 3] {
        [Setting::Go, Setting::GoFree, Setting::GoGcOff]
    }

    /// The compiler options for this setting.
    pub fn compile_options(self) -> CompileOptions {
        match self {
            Setting::GoFree => CompileOptions::default(),
            Setting::Go | Setting::GoGcOff => CompileOptions::go(),
        }
    }

    /// Whether GC is enabled at run time.
    pub fn gc_enabled(self) -> bool {
        !matches!(self, Setting::GoGcOff)
    }
}

impl std::fmt::Display for Setting {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Setting::Go => write!(f, "Go"),
            Setting::GoFree => write!(f, "GoFree"),
            Setting::GoGcOff => write!(f, "Go-GCOff"),
        }
    }
}

/// Which execution engine runs the compiled program.
///
/// Both engines are observationally identical — same output, free
/// counts, heap/GC metrics, and virtual time (the workspace's
/// differential tests enforce this) — so the choice only affects host
/// wall-clock speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum VmEngine {
    /// The tree-walking interpreter (the original engine; simplest, and
    /// the reference for differential testing).
    TreeWalk,
    /// The slot-indexed bytecode VM (the default: same observable
    /// behaviour, faster dispatch).
    #[default]
    Bytecode,
}

impl std::fmt::Display for VmEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VmEngine::TreeWalk => write!(f, "tree-walk"),
            VmEngine::Bytecode => write!(f, "bytecode"),
        }
    }
}

impl std::str::FromStr for VmEngine {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "tree-walk" | "treewalk" | "ast" => Ok(VmEngine::TreeWalk),
            "bytecode" | "bc" => Ok(VmEngine::Bytecode),
            other => Err(format!(
                "unknown engine {other:?} (expected \"tree-walk\" or \"bytecode\")"
            )),
        }
    }
}

/// Which instruction stream the bytecode engine executes.
///
/// Both streams are observationally identical — the optimizer tier
/// preserves every tick charge, so outputs, virtual times, metrics,
/// traces, and profiles are bit-identical (the differential tests
/// enforce this across the corpus). `Off` keeps the baseline lowering
/// for debugging and differential checks. Ignored by the tree-walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OptLevel {
    /// Run the baseline lowered stream, bypassing the optimizer tier.
    Off,
    /// Run the optimized stream (peephole/const-fold, jump threading,
    /// superinstructions) — the default.
    #[default]
    Full,
}

impl std::fmt::Display for OptLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptLevel::Off => write!(f, "off"),
            OptLevel::Full => write!(f, "full"),
        }
    }
}

impl std::str::FromStr for OptLevel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" | "0" | "none" => Ok(OptLevel::Off),
            "full" | "on" => Ok(OptLevel::Full),
            other => Err(format!(
                "unknown opt level {other:?} (expected \"off\" or \"full\")"
            )),
        }
    }
}

/// Per-run knobs.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// RNG seed: distinct seeds yield the fig. 11 distribution.
    pub seed: u64,
    /// GOGC (heap growth percentage).
    pub gogc: u64,
    /// GC trigger floor in bytes.
    pub min_heap: u64,
    /// Scheduler-migration probability per allocation.
    pub migrate_prob: f64,
    /// Clock jitter fraction.
    pub jitter: f64,
    /// §6.8 mock tcfree.
    pub poison: PoisonMode,
    /// Statement budget.
    pub step_limit: u64,
    /// Which VM engine executes the program.
    pub engine: VmEngine,
    /// Which instruction stream the bytecode engine runs ([`OptLevel`]);
    /// observables are bit-identical either way.
    pub opt: OptLevel,
    /// Run the shadow-heap sanitizer: every load, store, and free is
    /// checked against an out-of-band shadow of the heap and violations
    /// are reported in [`Report::violations`]. The rest of the report
    /// (output, time, metrics, steps, site profile) is bit-identical with
    /// the sanitizer on or off.
    pub sanitize: bool,
    /// Record the typed runtime event stream in
    /// [`Report::trace`](minigo_vm::RunOutcome). Like `sanitize`, tracing
    /// is carried out-of-band: the rest of the report is bit-identical
    /// with tracing on or off, the stream folds back to the run's
    /// [`minigo_runtime::Metrics`] exactly
    /// ([`minigo_runtime::Trace::reconcile`]), and it is bit-identical
    /// across the two VM engines and invariant under `jobs`.
    pub trace: bool,
    /// Hard cap on the tracer's event buffer (`None` = unbounded, the
    /// default). A capped run's trace counts what it dropped and then
    /// refuses to reconcile — truncation is always loud.
    pub trace_cap: Option<usize>,
    /// Worker threads for [`run_distribution`]/[`run_matrix`] fan-out
    /// (1 = sequential). Every observable — outputs, virtual times,
    /// metrics, site profiles — is invariant under `jobs`: per-run seeds
    /// are derived from the run index ([`run_seed`]) and reports merge
    /// back in run-index order, so parallel reports are bit-identical to
    /// sequential ones (tests/parallel.rs enforces this).
    pub jobs: usize,
    /// Which collection backend paces and runs GC cycles
    /// ([`minigo_runtime::RuntimeConfig::collector`]). The default `Go`
    /// backend reproduces the paper's mark-sweep bit-identically;
    /// `Generational` adds a nursery with minor/major cycles.
    pub collector: minigo_runtime::CollectorKind,
    /// Nursery budget in bytes for the generational backend (ignored by
    /// the default mark-sweep backend).
    pub nursery_size: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            seed: 0,
            gogc: 100,
            min_heap: 512 * 1024,
            migrate_prob: 0.0005,
            jitter: 0.02,
            poison: PoisonMode::Off,
            step_limit: 500_000_000,
            engine: VmEngine::default(),
            opt: OptLevel::default(),
            sanitize: false,
            trace: false,
            trace_cap: None,
            jobs: default_jobs(),
            collector: minigo_runtime::CollectorKind::default(),
            nursery_size: RuntimeConfig::default().nursery_size,
        }
    }
}

impl RunConfig {
    /// A fully deterministic configuration (no jitter, no migrations) for
    /// tests.
    pub fn deterministic(seed: u64) -> Self {
        RunConfig {
            seed,
            migrate_prob: 0.0,
            jitter: 0.0,
            ..RunConfig::default()
        }
    }

    /// The VM configuration these knobs select for running `compiled`
    /// under `setting` — the one place a `RunConfig` becomes a
    /// [`RuntimeConfig`]. Callers that study a VM-level toggle
    /// (`batch_frees`, `grow_map_free_old`) override it on the result.
    pub fn vm_config(&self, compiled: &Compiled, setting: Setting) -> VmConfig {
        VmConfig {
            runtime: RuntimeConfig {
                gc_enabled: setting.gc_enabled(),
                gogc: self.gogc,
                min_heap: self.min_heap,
                migrate_prob: self.migrate_prob,
                seed: self.seed,
                jitter: self.jitter,
                poison: self.poison,
                trace: self.trace,
                trace_cap: self.trace_cap,
                collector: self.collector,
                nursery_size: self.nursery_size,
                ..RuntimeConfig::default()
            },
            step_limit: self.step_limit,
            grow_map_free_old: compiled.analysis.options.mode == Mode::GoFree,
            sanitize: self.sanitize,
            ..VmConfig::default()
        }
    }
}

/// The default worker count: `GOFREE_JOBS` when set to a positive
/// integer, else 1 (sequential). CLI `--jobs` flags override this.
pub fn default_jobs() -> usize {
    std::env::var("GOFREE_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

/// Derives run `index`'s RNG seed from a distribution's base seed.
///
/// The golden-ratio stride decorrelates consecutive runs' RNG streams
/// while keeping the derivation a pure function of `(base, index)` —
/// the property that lets the parallel harness execute runs on any
/// worker in any order and still produce bit-identical reports.
pub fn run_seed(base: u64, index: u64) -> u64 {
    base.wrapping_add(index.wrapping_mul(0x9E37_79B9))
}

/// A single run's report (table 5's metrics).
pub type Report = RunOutcome;

/// The one engine switch: opens a session for `compiled` on the engine
/// and instruction stream selected, lets `drive` use it, finishes it, and
/// stamps the compile-time facts on the report ([`Report::opt`] when the
/// optimized stream ran; how much reclamation `--audit deny` gave up;
/// the liveness placement counters) so every engine reports them alike.
///
/// # Errors
///
/// [`ExecError::InvalidConfig`] for a runtime configuration that fails
/// validation; otherwise whatever `drive` returns.
pub fn run_session<T>(
    compiled: &Compiled,
    vm_cfg: VmConfig,
    engine: VmEngine,
    opt: OptLevel,
    drive: impl FnOnce(&mut Session<dyn Dispatch + '_>) -> Result<T, ExecError>,
) -> Result<(T, Report), ExecError> {
    fn go<T>(
        engine: impl Dispatch,
        cfg: VmConfig,
        drive: impl FnOnce(&mut Session<dyn Dispatch + '_>) -> Result<T, ExecError>,
    ) -> Result<(T, Report), ExecError> {
        let mut session = Session::new(engine, cfg)?;
        let out = drive(&mut session)?;
        Ok((out, session.finish()))
    }
    let (out, mut report) = match (engine, opt) {
        (VmEngine::TreeWalk, _) => {
            let c = compiled;
            let tree = TreeWalk::new(&c.program, &c.resolution, &c.types, &c.analysis);
            go(tree, vm_cfg, drive)?
        }
        (VmEngine::Bytecode, OptLevel::Off) => go(Bytecode::new(&compiled.lowered), vm_cfg, drive)?,
        (VmEngine::Bytecode, OptLevel::Full) => {
            let (out, mut report) = go(Bytecode::new(&compiled.optimized), vm_cfg, drive)?;
            report.opt = Some(compiled.opt_stats.clone());
            (out, report)
        }
    };
    report.metrics.frees_suppressed = compiled.frees_suppressed;
    report.placement = compiled.placement;
    Ok((out, report))
}

/// Executes a compiled program.
///
/// # Errors
///
/// Propagates VM errors (panics, poisoned reads, limits).
pub fn execute(
    compiled: &Compiled,
    setting: Setting,
    cfg: &RunConfig,
) -> Result<Report, ExecError> {
    let vm_cfg = cfg.vm_config(compiled, setting);
    let ((), report) = run_session(compiled, vm_cfg, cfg.engine, cfg.opt, |s| s.call_main())?;
    Ok(report)
}

/// Compiles and runs `src` under `setting` in one step.
///
/// # Errors
///
/// Returns compile diagnostics (stringified) or VM errors.
pub fn compile_and_run(
    src: &str,
    setting: Setting,
    cfg: &RunConfig,
) -> Result<Report, Box<dyn std::error::Error>> {
    let compiled = compile(src, &setting.compile_options())?;
    Ok(execute(&compiled, setting, cfg)?)
}

/// Runs `n` seeded executions of a compiled program (fig. 11's
/// distributions and table 7's 99-run samples), fanning runs across
/// `base.jobs` worker threads.
///
/// # Errors
///
/// Propagates the first VM error (by run index, matching the sequential
/// path).
pub fn run_distribution(
    compiled: &Compiled,
    setting: Setting,
    base: &RunConfig,
    n: u64,
) -> Result<Vec<Report>, ExecError> {
    let mut rows = run_matrix(&[(compiled, setting)], base, n)?;
    Ok(rows.pop().expect("one cell row"))
}

// The parallel harness shares compiled programs and run configurations
// across worker threads by reference; keep them free of thread-bound
// state (enforced here at compile time).
const _: fn() = || {
    fn assert_sync_send<T: Sync + Send>() {}
    assert_sync_send::<Compiled>();
    assert_sync_send::<RunConfig>();
    assert_sync_send::<Report>();
    assert_sync_send::<ExecError>();
};

/// Runs every `(cell, run-index)` combination of an experiment matrix —
/// `cells` are (compiled workload, setting) pairs — and returns one
/// report vector per cell, in cell order, each in run-index order.
///
/// With `base.jobs > 1` the cells' runs are fanned across a scoped
/// worker pool (plain `std::thread`, no external crates). Each run owns
/// its virtual clock, RNG stream, and simulated heap, and its seed is a
/// pure function of the run index ([`run_seed`]), so the merged result
/// is bit-identical to sequential execution regardless of worker count
/// or scheduling order.
///
/// # Errors
///
/// Propagates the first VM error in (cell, run-index) order — the same
/// error the sequential path would return.
pub fn run_matrix(
    cells: &[(&Compiled, Setting)],
    base: &RunConfig,
    runs: u64,
) -> Result<Vec<Vec<Report>>, ExecError> {
    let total = cells.len() as u64 * runs;
    let jobs = base.jobs.clamp(1, total.max(1) as usize);
    let run_one = |cell: usize, run: u64| {
        let (compiled, setting) = cells[cell];
        let cfg = RunConfig {
            seed: run_seed(base.seed, run),
            ..base.clone()
        };
        execute(compiled, setting, &cfg)
    };
    if jobs <= 1 {
        return cells
            .iter()
            .enumerate()
            .map(|(c, _)| (0..runs).map(|i| run_one(c, i)).collect())
            .collect();
    }

    // Work-stealing fan-out: a shared atomic cursor hands out global
    // (cell-major) run indices; workers stash `(cell, run, result)`
    // triples and the merge scatters them back into run-index order.
    let next = std::sync::atomic::AtomicU64::new(0);
    let mut slots: Vec<Vec<Option<Result<Report, ExecError>>>> = cells
        .iter()
        .map(|_| (0..runs).map(|_| None).collect())
        .collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..jobs)
            .map(|_| {
                let next = &next;
                let run_one = &run_one;
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let g = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if g >= total {
                            break;
                        }
                        let (cell, run) = ((g / runs) as usize, g % runs);
                        done.push((cell, run as usize, run_one(cell, run)));
                    }
                    done
                })
            })
            .collect();
        for worker in workers {
            for (cell, run, report) in worker.join().expect("worker thread panicked") {
                slots[cell][run] = Some(report);
            }
        }
    });
    slots
        .into_iter()
        .map(|row| {
            row.into_iter()
                .map(|r| r.expect("all runs executed"))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "func work(n int) int { s := make([]int, n)\n s[0] = n\n x := s[0]\n return x }\nfunc main() { total := 0\n for i := 0; i < 200; i += 1 { total += work(200) }\n print(total) }\n";

    #[test]
    fn three_settings_agree_on_output() {
        let cfg = RunConfig::deterministic(1);
        let go = compile_and_run(SRC, Setting::Go, &cfg).unwrap();
        let gofree = compile_and_run(SRC, Setting::GoFree, &cfg).unwrap();
        let gcoff = compile_and_run(SRC, Setting::GoGcOff, &cfg).unwrap();
        assert_eq!(go.output, gofree.output);
        assert_eq!(go.output, gcoff.output);
        assert_eq!(gcoff.metrics.gcs, 0);
        assert!(gofree.metrics.freed_bytes > 0);
        assert_eq!(go.metrics.freed_bytes, 0);
    }

    #[test]
    fn gc_off_is_fastest_baseline() {
        let cfg = RunConfig {
            min_heap: 32 * 1024,
            ..RunConfig::deterministic(3)
        };
        let go = compile_and_run(SRC, Setting::Go, &cfg).unwrap();
        let gcoff = compile_and_run(SRC, Setting::GoGcOff, &cfg).unwrap();
        assert!(go.metrics.gcs > 0, "GC must actually run for the baseline");
        assert!(gcoff.time < go.time, "GC time is the difference");
    }

    #[test]
    fn distribution_varies_with_seeds() {
        let compiled = compile(SRC, &CompileOptions::go()).unwrap();
        let base = RunConfig {
            jitter: 0.05,
            ..RunConfig::default()
        };
        let reports = run_distribution(&compiled, Setting::Go, &base, 10).unwrap();
        assert_eq!(reports.len(), 10);
        let times: std::collections::HashSet<u64> = reports.iter().map(|r| r.time).collect();
        assert!(times.len() > 1, "jitter should spread run times");
        // All runs compute the same answer regardless of jitter.
        let outputs: std::collections::HashSet<&str> =
            reports.iter().map(|r| r.output.as_str()).collect();
        assert_eq!(outputs.len(), 1);
    }

    #[test]
    fn parallel_distribution_matches_sequential() {
        let compiled = compile(SRC, &CompileOptions::default()).unwrap();
        let base = RunConfig {
            jitter: 0.05,
            jobs: 1,
            ..RunConfig::default()
        };
        let seq = run_distribution(&compiled, Setting::GoFree, &base, 8).unwrap();
        let par = run_distribution(
            &compiled,
            Setting::GoFree,
            &RunConfig { jobs: 4, ..base },
            8,
        )
        .unwrap();
        assert_eq!(seq.len(), par.len());
        for (s, p) in seq.iter().zip(&par) {
            assert_eq!(s.output, p.output);
            assert_eq!(s.time, p.time);
            assert_eq!(s.steps, p.steps);
            assert_eq!(format!("{:?}", s.metrics), format!("{:?}", p.metrics));
            assert_eq!(s.site_profile, p.site_profile);
        }
    }

    #[test]
    fn run_matrix_matches_per_cell_distributions() {
        let go = compile(SRC, &CompileOptions::go()).unwrap();
        let gofree = compile(SRC, &CompileOptions::default()).unwrap();
        let base = RunConfig {
            jobs: 3,
            ..RunConfig::default()
        };
        let rows = run_matrix(&[(&go, Setting::Go), (&gofree, Setting::GoFree)], &base, 4).unwrap();
        assert_eq!(rows.len(), 2);
        let solo = run_distribution(&gofree, Setting::GoFree, &base, 4).unwrap();
        for (a, b) in rows[1].iter().zip(&solo) {
            assert_eq!(a.time, b.time);
            assert_eq!(a.output, b.output);
        }
    }

    #[test]
    fn run_seed_is_pure_and_strided() {
        assert_eq!(run_seed(7, 0), 7);
        assert_eq!(run_seed(7, 3), run_seed(7, 3));
        assert_ne!(run_seed(7, 1), run_seed(7, 2));
    }

    #[test]
    fn setting_display_and_options() {
        assert_eq!(Setting::Go.to_string(), "Go");
        assert_eq!(Setting::GoFree.to_string(), "GoFree");
        assert_eq!(Setting::GoGcOff.to_string(), "Go-GCOff");
        assert!(!Setting::GoGcOff.gc_enabled());
        assert_eq!(Setting::all().len(), 3);
    }
}
