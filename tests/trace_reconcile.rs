//! Trace/metrics reconciliation properties, for every corpus program and
//! a fuzzed cohort, on both VM engines:
//!
//! * folding the event stream reproduces the run's [`Metrics`] exactly
//!   ([`gofree::Trace::reconcile`]);
//! * tracing is invisible — a traced run's report is bit-identical to an
//!   untraced one in every observable field, the cycle log included, and
//!   the stream's `GcEnd` payloads are that log;
//! * traces are bit-identical across the tree-walk and bytecode engines;
//! * traces are `--jobs`-invariant: fanning a seeded distribution across
//!   workers yields the same per-run event streams as running
//!   sequentially.

use gofree::{
    compile, execute, run_distribution, CompileOptions, Compiled, GcCycle, Report, RunConfig,
    Setting, TraceEvent, VmEngine,
};
use gofree_workloads::{corpus, fuzzgen, micro, Scale};

/// The evaluation-style config: a tight GC trigger so corpus programs
/// actually exercise the collector, and seeded nondeterminism so mcache
/// flushes appear in the streams.
fn traced_cfg(seed: u64) -> RunConfig {
    RunConfig {
        seed,
        min_heap: 128 * 1024,
        trace: true,
        ..RunConfig::default()
    }
}

/// Runs one compiled setting on one engine, checking the trace exists
/// and reconciles, and returns the report.
fn run_traced(label: &str, compiled: &Compiled, setting: Setting, cfg: &RunConfig) -> Report {
    let report = execute(compiled, setting, cfg)
        .unwrap_or_else(|e| panic!("{label} ({setting}, {:?}): {e}", cfg.engine));
    let trace = report
        .trace
        .as_ref()
        .unwrap_or_else(|| panic!("{label} ({setting}): traced run carries no trace"));
    trace
        .reconcile(&report.metrics)
        .unwrap_or_else(|e| panic!("{label} ({setting}, {:?}): {e}", cfg.engine));
    report
}

/// The full property set for one source program.
fn check_program(label: &str, src: &str) {
    let go = compile(src, &CompileOptions::go())
        .unwrap_or_else(|e| panic!("{label}: {}", e.render(src)));
    let gofree = compile(src, &CompileOptions::default())
        .unwrap_or_else(|e| panic!("{label}: {}", e.render(src)));
    for (compiled, setting) in [
        (&go, Setting::Go),
        (&go, Setting::GoGcOff),
        (&gofree, Setting::GoFree),
    ] {
        let cfg = traced_cfg(11);

        // Reconciliation + invisibility on the default (bytecode) engine.
        let traced = run_traced(label, compiled, setting, &cfg);
        let untraced = execute(
            compiled,
            setting,
            &RunConfig {
                trace: false,
                ..cfg.clone()
            },
        )
        .unwrap_or_else(|e| panic!("{label} ({setting}): {e}"));
        assert!(untraced.trace.is_none(), "{label}: untraced run has trace");
        assert_eq!(traced.output, untraced.output, "{label} ({setting})");
        assert_eq!(traced.time, untraced.time, "{label} ({setting})");
        assert_eq!(traced.steps, untraced.steps, "{label} ({setting})");
        assert_eq!(
            format!("{:?}", traced.metrics),
            format!("{:?}", untraced.metrics),
            "{label} ({setting}): tracing changed metrics"
        );
        assert_eq!(
            traced.site_profile, untraced.site_profile,
            "{label} ({setting}): tracing changed the site profile"
        );
        // The always-on cycle log: untouched by tracing, the same values
        // as the stream's `GcEnd` payloads, and one entry per counted cycle.
        assert_eq!(
            traced.cycles, untraced.cycles,
            "{label} ({setting}): tracing changed the cycle log"
        );
        let ends: Vec<GcCycle> = traced
            .trace
            .iter()
            .flat_map(|t| &t.events)
            .filter_map(|ev| match *ev {
                TraceEvent::GcEnd(c) => Some(c),
                _ => None,
            })
            .collect();
        assert_eq!(
            ends, traced.cycles,
            "{label} ({setting}): GcEnd payloads differ from the cycle log"
        );
        assert_eq!(
            traced.cycles.len() as u64,
            traced.metrics.gcs,
            "{label} ({setting})"
        );
        assert_eq!(
            traced.cycles.iter().map(|c| c.ticks).sum::<u64>(),
            traced.metrics.gc_ticks,
            "{label} ({setting}): cycle ticks"
        );

        // Engine identity of the stream itself.
        let tree = run_traced(
            label,
            compiled,
            setting,
            &RunConfig {
                engine: VmEngine::TreeWalk,
                ..cfg.clone()
            },
        );
        assert_eq!(
            traced.trace, tree.trace,
            "{label} ({setting}): engines disagree on the event stream"
        );
    }
}

#[test]
fn workload_corpus_reconciles_on_both_engines() {
    for w in gofree_workloads::all(Scale::Test) {
        check_program(w.name, &w.source);
    }
}

#[test]
fn microbench_and_generated_corpus_reconcile() {
    for &c in &[1, 8, 32] {
        check_program(&format!("micro c={c}"), &micro::source(c, 96));
    }
    for nfuncs in [3, 10] {
        check_program(&format!("corpus n={nfuncs}"), &corpus::generate(nfuncs));
    }
}

#[test]
fn sample_programs_reconcile() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/programs");
    let mut checked = 0;
    for entry in std::fs::read_dir(dir).expect("samples directory") {
        let path = entry.expect("entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("mgo") {
            continue;
        }
        let src = std::fs::read_to_string(&path).expect("readable");
        check_program(&path.display().to_string(), &src);
        checked += 1;
    }
    assert!(checked >= 4, "expected several sample programs");
}

#[test]
fn fuzzed_programs_reconcile() {
    // 30 generator seeds; every generated program must uphold the full
    // property set (reconcile, invisibility, engine identity).
    for seed in 0..30u64 {
        let src = fuzzgen::generate(seed);
        check_program(&format!("fuzz seed={seed}"), &src);
    }
}

#[test]
fn traces_are_jobs_invariant() {
    let w = gofree_workloads::by_name("json", Scale::Test).expect("json workload");
    let compiled = compile(&w.source, &CompileOptions::default()).expect("compiles");
    let runs = 6;
    let seq = run_distribution(
        &compiled,
        Setting::GoFree,
        &RunConfig {
            jobs: 1,
            ..traced_cfg(3)
        },
        runs,
    )
    .expect("sequential runs");
    let par = run_distribution(
        &compiled,
        Setting::GoFree,
        &RunConfig {
            jobs: 4,
            ..traced_cfg(3)
        },
        runs,
    )
    .expect("parallel runs");
    assert_eq!(seq.len(), par.len());
    for (i, (s, p)) in seq.iter().zip(&par).enumerate() {
        let st = s.trace.as_ref().expect("trace");
        let pt = p.trace.as_ref().expect("trace");
        assert_eq!(st, pt, "run {i}: traces differ across --jobs");
        st.reconcile(&s.metrics)
            .unwrap_or_else(|e| panic!("run {i}: {e}"));
        // Distinct seeds must actually produce distinct streams for the
        // invariance check to mean anything.
        if i > 0 {
            assert_ne!(
                seq[0].trace, seq[i].trace,
                "seeded runs unexpectedly share one stream"
            );
        }
    }
}
