//! The collector bit-identity gate.
//!
//! Every collection-policy decision (pacing, the concurrent-mark window,
//! mark costing, the sweep, the post-GC goal) lives in the runtime's one
//! `Collector`. This test pins both of its kinds to committed goldens
//! under `tests/golden_collector/`: `corpus.txt` for `go`, generated
//! before that policy was first moved out of `Runtime`, and
//! `corpus_gen.txt` for `gen`, the nursery variant. Every observable a
//! run produces — program output, virtual time, step count, all v1
//! metrics counters, the GC pacing stream (trigger/goal/window per
//! cycle), the live-heap curve, and the folded allocation profile — must
//! match byte-for-byte, on the full workload corpus, under both VM
//! engines, with `--jobs 1` and `--jobs 2`; and `gen` must differ from
//! `go`.
//!
//! Regenerate after an *intentional* observable change with
//! `GOFREE_BLESS=1 cargo test --test collector_identity`.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use gofree::{compile, run_distribution, CollectorKind, Report, RunConfig, Setting, VmEngine};
use gofree_workloads::Scale;

const RUNS: u64 = 2;

fn golden_path(file: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden_collector")
        .join(file)
}

/// Compares `reference` with the committed golden `file`, first
/// rewriting the golden when `GOFREE_BLESS=1`.
fn check_golden(file: &str, reference: &str, what: &str) {
    let path = golden_path(file);
    if std::env::var("GOFREE_BLESS").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().unwrap()).expect("golden dir");
        std::fs::write(&path, reference).expect("write golden");
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden {}; bless with GOFREE_BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        reference, golden,
        "the {what} collector no longer reproduces {file}; if this change \
         is intentional, re-bless with GOFREE_BLESS=1"
    );
}

/// FNV-1a over a string — a stable, dependency-free content hash for
/// fields too large to inline in the golden file.
fn fnv(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Renders one run's observables with **stable field names**: every v1
/// metrics counter explicitly (never `{:?}` of the whole struct, so
/// additive metric fields cannot silently leak in), the exact pacing
/// stream, and content hashes of output, heap curve, and folded profile.
fn fingerprint(label: &str, report: &Report) -> String {
    let m = &report.metrics;
    let mut out = String::new();
    let _ = writeln!(out, "== {label} ==");
    let _ = writeln!(out, "output_fnv={:016x}", fnv(&report.output));
    let _ = writeln!(out, "time={} steps={}", report.time, report.steps);
    let _ = writeln!(
        out,
        "alloced_bytes={} alloced_objects={} freed_bytes={}",
        m.alloced_bytes, m.alloced_objects, m.freed_bytes
    );
    let _ = writeln!(
        out,
        "freed_bytes_by_source={:?} freed_objects_by_source={:?}",
        m.freed_bytes_by_source, m.freed_objects_by_source
    );
    let _ = writeln!(
        out,
        "tcfree_attempts={} tcfree_bails={:?}",
        m.tcfree_attempts, m.tcfree_bails
    );
    let _ = writeln!(
        out,
        "gcs={} gc_ticks={} maxheap={}",
        m.gcs, m.gc_ticks, m.maxheap
    );
    let _ = writeln!(
        out,
        "stack_allocs={:?} heap_allocs={:?} heap_tcfreed={:?} heap_gced={:?}",
        m.stack_allocs, m.heap_allocs, m.heap_tcfreed, m.heap_gced
    );
    let trace = report.trace.as_ref().expect("gate runs are traced");
    trace
        .reconcile(&report.metrics)
        .expect("trace reconciles with metrics");
    // The pacing stream, one line per cycle boundary, from the raw
    // events (not the formatted gctrace log, whose wording may evolve).
    for ev in &trace.events {
        match *ev {
            gofree::TraceEvent::GcStart {
                at,
                heap_live,
                heap_goal,
                window,
                ..
            } => {
                let _ = writeln!(
                    out,
                    "gc-start at={at} live={heap_live} goal={heap_goal} window={window}"
                );
            }
            gofree::TraceEvent::GcEnd(gofree::GcCycle {
                at,
                heap_live,
                next_goal,
                swept,
                swept_bytes,
                dangling_retired,
                ticks,
                ..
            }) => {
                let _ = writeln!(
                    out,
                    "gc-end at={at} live={heap_live} next={next_goal} swept={swept:?} \
                     swept_bytes={swept_bytes} dangling={dangling_retired} ticks={ticks}"
                );
            }
            _ => {}
        }
    }
    let curve = trace.heap_curve();
    let curve_text: String = curve
        .iter()
        .map(|(at, live)| format!("{at}:{live};"))
        .collect();
    let _ = writeln!(
        out,
        "heap_curve len={} fnv={:016x} max_footprint={}",
        curve.len(),
        fnv(&curve_text),
        report.metrics.maxheap
    );
    let profile = gofree::Profile::build(trace);
    profile
        .reconcile(&report.metrics)
        .expect("profile reconciles with metrics");
    let folded = gofree::folded_stacks(&profile, &trace.stacks, gofree::FoldedMetric::AllocBytes);
    let _ = writeln!(out, "folded_fnv={:016x}", fnv(&folded));
    out
}

/// The gate's run configuration: the evaluation GC trigger, default
/// jitter and migrations (so the RNG stream is exercised), tracing on.
fn gate_config(engine: VmEngine, jobs: usize, collector: CollectorKind) -> RunConfig {
    RunConfig {
        min_heap: 128 * 1024,
        engine,
        jobs,
        collector,
        trace: true,
        ..RunConfig::default()
    }
}

/// Produces the corpus-wide fingerprint for one engine at `jobs`
/// workers under `collector`: every workload under all three settings,
/// `RUNS` seeded runs each, every run fingerprinted.
fn corpus_fingerprint(engine: VmEngine, jobs: usize, collector: CollectorKind) -> String {
    let mut out = String::new();
    for w in gofree_workloads::all(Scale::Test) {
        for setting in Setting::all() {
            let compiled =
                compile(&w.source, &setting.compile_options()).expect("workload compiles");
            let cfg = gate_config(engine, jobs, collector);
            let reports = run_distribution(&compiled, setting, &cfg, RUNS).expect("workload runs");
            for (i, r) in reports.iter().enumerate() {
                out.push_str(&fingerprint(&format!("{} {setting} run{i}", w.name), r));
            }
        }
    }
    out
}

#[test]
fn go_collector_matches_pre_refactor_fingerprints() {
    // Engine and jobs sweep: all four cells must agree with each other
    // AND with the committed pre-refactor golden.
    let reference = corpus_fingerprint(VmEngine::Bytecode, 1, CollectorKind::Go);
    check_golden("corpus.txt", &reference, "default (go)");

    for (engine, jobs) in [
        (VmEngine::Bytecode, 2),
        (VmEngine::TreeWalk, 1),
        (VmEngine::TreeWalk, 2),
    ] {
        assert_eq!(
            corpus_fingerprint(engine, jobs, CollectorKind::Go),
            reference,
            "engine={engine} jobs={jobs} diverged from bytecode/jobs=1"
        );
    }
}

#[test]
fn generational_collector_is_invariant_and_genuinely_different() {
    // The second backend gets the same guarantees as the first: its
    // committed golden, and identical observables across both engines
    // and under parallel fan-out...
    let reference = corpus_fingerprint(VmEngine::Bytecode, 1, CollectorKind::Generational);
    check_golden("corpus_gen.txt", &reference, "generational");
    for (engine, jobs) in [(VmEngine::TreeWalk, 1), (VmEngine::Bytecode, 2)] {
        assert_eq!(
            corpus_fingerprint(engine, jobs, CollectorKind::Generational),
            reference,
            "gen backend: engine={engine} jobs={jobs} diverged from bytecode/jobs=1"
        );
    }
    // ...but it must NOT reproduce the go backend's stream — nursery
    // pacing runs different cycles at different times. A backend that
    // matches the mark-sweep golden byte-for-byte is not generational.
    let golden = std::fs::read_to_string(golden_path("corpus.txt")).expect("go golden exists");
    assert_ne!(
        reference, golden,
        "the generational backend produced the mark-sweep fingerprint"
    );
}
