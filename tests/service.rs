//! Properties of the service-mode traffic harness (PR 10):
//!
//! * every service observable — latency/service-time/queue histograms,
//!   exact quantiles, minor/major pause histograms, heap high-water
//!   marks, checksum, total time — is **bit-identical** across the two
//!   VM engines, both bytecode opt levels, and `--jobs 1/2`, over all
//!   three arrival distributions;
//! * `Trace::reconcile` stays field-exact with per-request spans in the
//!   stream, and the chrome export renders them;
//! * observability is invisible: tracing on/off changes no stat;
//! * the GC-off setting records zero pauses, and the GoFree setting
//!   frees bytes the plain-Go run leaves to the collector;
//! * arrival schedules are deterministic per seed and the burst shape
//!   queues harder than fixed-rate at the same offered load.

use gofree::{
    chrome_trace_json, compile, run_service, service_gctrace_lines, service_summary, Arrival,
    CollectorKind, CompileOptions, Compiled, OptLevel, RunConfig, ServiceConfig, ServiceReport,
    ServiceStats, Setting, VmEngine,
};
use gofree_workloads::service::scenarios;
use gofree_workloads::Scale;

const REQUESTS: usize = 400;
const RPS: u64 = 2_000;

fn svc_cfg(arrival: Arrival) -> ServiceConfig {
    ServiceConfig {
        requests: REQUESTS,
        rps: RPS,
        arrival,
    }
}

/// Deterministic run config with a tight GC trigger so even test-scale
/// request counts see GC cycles.
fn run_cfg(seed: u64) -> RunConfig {
    RunConfig {
        seed,
        min_heap: 64 * 1024,
        ..RunConfig::deterministic(seed)
    }
}

fn run(
    compiled: &Compiled,
    setting: Setting,
    cfg: &RunConfig,
    svc: &ServiceConfig,
) -> ServiceReport {
    run_service(compiled, setting, cfg, svc).expect("service run succeeds")
}

/// The full observable surface the bit-identity contract covers
/// (metrics via their Debug form — `Metrics` has no `PartialEq`).
fn fingerprint(r: &ServiceReport) -> (ServiceStats, String, u64, String) {
    (
        r.stats.clone(),
        r.report.output.clone(),
        r.report.time,
        format!("{:?}", r.report.metrics),
    )
}

#[test]
fn observables_identical_across_engines_opts_and_jobs() {
    for w in scenarios(Scale::Test) {
        for setting in [Setting::Go, Setting::GoFree] {
            let compiled =
                compile(&w.source, &setting.compile_options()).expect("service program compiles");
            for arrival in Arrival::all() {
                let svc = svc_cfg(arrival);
                let base = run(&compiled, setting, &run_cfg(3), &svc);
                assert_eq!(base.stats.requests, REQUESTS as u64);
                for (engine, opt, jobs) in [
                    (VmEngine::TreeWalk, OptLevel::Full, 1),
                    (VmEngine::Bytecode, OptLevel::Off, 1),
                    (VmEngine::Bytecode, OptLevel::Full, 2),
                ] {
                    let cfg = RunConfig {
                        engine,
                        opt,
                        jobs,
                        ..run_cfg(3)
                    };
                    let other = run(&compiled, setting, &cfg, &svc);
                    assert_eq!(
                        fingerprint(&base),
                        fingerprint(&other),
                        "{}/{setting}/{arrival}: {engine:?}/{opt:?}/jobs{jobs} diverged",
                        w.name
                    );
                }
            }
        }
    }
}

#[test]
fn observables_identical_across_collectors_modulo_pause_split() {
    // The two collector backends legitimately pace GC differently, so
    // stats differ — but each backend individually must stay engine-
    // invariant, and the gen backend must attribute pauses to both
    // generations on a workload with a long-lived working set.
    let w = scenarios(Scale::Test).remove(0);
    let compiled = compile(&w.source, &Setting::GoFree.compile_options()).expect("kv compiles");
    for collector in CollectorKind::all() {
        let cfg = RunConfig {
            collector,
            // Above the nursery budget, so the gen backend validates.
            min_heap: 128 * 1024,
            ..run_cfg(5)
        };
        let svc = svc_cfg(Arrival::Poisson);
        let tree = run(&compiled, Setting::GoFree, &cfg, &svc);
        let byte = run(
            &compiled,
            Setting::GoFree,
            &RunConfig {
                engine: VmEngine::Bytecode,
                ..cfg.clone()
            },
            &svc,
        );
        assert_eq!(
            fingerprint(&tree),
            fingerprint(&byte),
            "collector {collector:?} diverged across engines"
        );
        match collector {
            CollectorKind::Go => assert_eq!(
                tree.stats.pause_minor.count(),
                0,
                "mark-sweep backend has no minor cycles"
            ),
            CollectorKind::Generational => assert!(
                tree.stats.pause_minor.count() > 0,
                "gen backend saw no minor pauses"
            ),
        }
    }
}

#[test]
fn schedules_deterministic_and_burst_queues_harder() {
    let fixed = svc_cfg(Arrival::Fixed);
    let burst = svc_cfg(Arrival::Burst);
    assert_eq!(fixed.schedule(9), fixed.schedule(9));
    assert_ne!(
        ServiceConfig {
            arrival: Arrival::Poisson,
            ..fixed.clone()
        }
        .schedule(9),
        ServiceConfig {
            arrival: Arrival::Poisson,
            ..fixed.clone()
        }
        .schedule(10),
        "poisson schedule ignores the seed"
    );

    let w = scenarios(Scale::Test).remove(2); // rotate: heaviest handler
    let compiled = compile(&w.source, &Setting::Go.compile_options()).expect("rotate compiles");
    let f = run(&compiled, Setting::Go, &run_cfg(4), &fixed);
    let b = run(&compiled, Setting::Go, &run_cfg(4), &burst);
    assert!(
        b.stats.queue_q.max >= f.stats.queue_q.max,
        "spike did not raise worst-case queueing ({} < {})",
        b.stats.queue_q.max,
        f.stats.queue_q.max
    );
    assert!(
        b.stats.latency_q.p999 >= f.stats.latency_q.p999,
        "spike did not raise p999"
    );
}

#[test]
fn tracing_is_invisible_and_reconciles_with_request_spans() {
    for w in scenarios(Scale::Test) {
        let compiled = compile(&w.source, &Setting::GoFree.compile_options()).expect("compiles");
        let svc = svc_cfg(Arrival::Burst);
        let plain = run(&compiled, Setting::GoFree, &run_cfg(6), &svc);
        let traced_cfg = RunConfig {
            trace: true,
            ..run_cfg(6)
        };
        let traced = run(&compiled, Setting::GoFree, &traced_cfg, &svc);
        assert_eq!(
            fingerprint(&plain),
            fingerprint(&traced),
            "{}: tracing perturbed the run",
            w.name
        );

        let trace = traced.report.trace.as_ref().expect("trace captured");
        let spans = trace
            .events
            .iter()
            .filter(|e| matches!(e, gofree::TraceEvent::Request { .. }))
            .count();
        assert_eq!(spans, REQUESTS, "{}: one span per request", w.name);
        trace
            .reconcile(&traced.report.metrics)
            .unwrap_or_else(|e| panic!("{}: reconcile with spans: {e}", w.name));

        let chrome = chrome_trace_json(trace, &compiled.phase_times);
        assert!(
            chrome.contains("\"cat\":\"service\"") && chrome.contains("\"request 0\""),
            "{}: chrome export lacks request spans",
            w.name
        );
    }
}

#[test]
fn settings_tell_the_papers_story() {
    let w = scenarios(Scale::Test).remove(2); // rotate: the phase-change scenario
    let svc = svc_cfg(Arrival::Burst);
    let cfg = run_cfg(7);

    let go = compile(&w.source, &Setting::Go.compile_options()).expect("compiles");
    let gofree = compile(&w.source, &Setting::GoFree.compile_options()).expect("compiles");

    let r_go = run(&go, Setting::Go, &cfg, &svc);
    let r_free = run(&gofree, Setting::GoFree, &cfg, &svc);
    let r_off = run(&go, Setting::GoGcOff, &cfg, &svc);

    // Same requests, same answers.
    assert_eq!(r_go.stats.checksum, r_free.stats.checksum);
    assert_eq!(r_go.stats.checksum, r_off.stats.checksum);

    // GC off: no pauses, monotone heap.
    assert_eq!(r_off.stats.gcs(), 0);
    assert_eq!(r_off.report.metrics.gcs, 0);
    assert!(r_off.stats.heap_hwm >= r_go.stats.heap_hwm);

    // GoFree reclaims explicitly and collects no more often than Go.
    assert!(r_free.report.metrics.freed_bytes > 0);
    assert!(r_free.stats.gcs() <= r_go.stats.gcs());

    // Renderers cover the stats without panicking.
    let summary = service_summary(&r_free.stats);
    assert!(summary.contains("p999") && summary.contains("gc pauses"));
    let gctrace = service_gctrace_lines(&r_free.stats);
    assert!(gctrace.starts_with("service:") && gctrace.contains("latency: p50"));
}

#[test]
fn report_json_carries_service_section() {
    let w = scenarios(Scale::Test).remove(0);
    let compiled = compile(&w.source, &Setting::GoFree.compile_options()).expect("compiles");
    let r = run(
        &compiled,
        Setting::GoFree,
        &run_cfg(8),
        &svc_cfg(Arrival::Fixed),
    );
    let json = gofree::service_report_json(&r.report, Some(&r.stats));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    for needle in [
        "\"schema\":\"gofree-report/6\"",
        "\"service\":{\"requests\":400",
        "\"latency\":{\"p50\":",
        "\"pause_major_buckets\":[",
        "\"heap_hwm\":",
    ] {
        assert!(json.contains(needle), "missing {needle} in:\n{json}");
    }
    // Batch exports stamp the same schema with a null service section.
    assert!(gofree::report_json(&r.report).contains("\"service\":null"));
}

#[test]
fn missing_contract_functions_error_cleanly() {
    let compiled =
        compile("func main() { print(1) }\n", &CompileOptions::default()).expect("compiles");
    let err = run_service(
        &compiled,
        Setting::GoFree,
        &run_cfg(0),
        &svc_cfg(Arrival::Fixed),
    )
    .expect_err("no setup()");
    assert!(err.to_string().contains("no func setup"), "got: {err}");
}
