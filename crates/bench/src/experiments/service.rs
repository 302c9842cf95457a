//! Regenerates the service-mode tail-latency study: every service
//! scenario × the three settings (GoFree, Go, Go-GCOff) × both collector
//! backends, driven by the open-loop traffic harness. Reports exact
//! latency percentiles (p50/p99/p999/max), GC pause counts/worst-case,
//! and heap high-water marks — the tail-latency story behind the paper's
//! throughput tables: compiler-inserted freeing shrinks the GC work that
//! turns into p999 queueing under the burst phase change.

use crate::{verdict, Options};
use gofree::cli::Observed;
use gofree::{
    compile, run_service, Arrival, CollectorKind, RunConfig, ServiceConfig, ServiceReport,
    ServiceStats, Setting,
};
use gofree_workloads::service::scenarios;
use gofree_workloads::Scale;

/// The settings each cell runs, in the order they print.
const SETTINGS: [Setting; 3] = [Setting::GoFree, Setting::Go, Setting::GoGcOff];

/// Offered load per scenario, chosen against the calibrated mean
/// service times (~800/~2200/~460 ticks) so steady state sits near
/// 30–50% utilization and the 4× burst phase is what drives queueing.
fn rps_for(name: &str) -> u64 {
    match name {
        "jsonsvc" => 250,
        "rotate" => 800,
        _ => 400,
    }
}

pub fn run(opts: &Options) -> Result<Option<Observed>, String> {
    let requests = match opts.scale() {
        Scale::Test => 2_000,
        Scale::Full => 100_000,
    };
    println!(
        "Service study: open-loop burst arrivals, {requests} requests per cell \
         (latencies in virtual ticks)\n"
    );

    let mut observed: Option<(ServiceReport, Vec<gofree::PhaseTime>)> = None;
    // Per scenario and collector, the three settings' stats in
    // `SETTINGS` order, for the shape checks at the end.
    let mut cells: Vec<[ServiceStats; 3]> = Vec::new();
    for collector in CollectorKind::all() {
        let base = RunConfig {
            collector,
            ..opts.run_config()
        };
        println!("==== collector: {collector} ====\n");
        println!(
            "{:<8} {:<8} | {:>6} {:>8} {:>8} {:>8} {:>8} | {:>5} {:>8} | {:>9} | pause-histogram",
            "scenario",
            "setting",
            "p50",
            "p99",
            "p999",
            "max",
            "queue99",
            "gcs",
            "worstgc",
            "heap-hwm",
        );
        println!("{}", "-".repeat(96));
        for w in scenarios(opts.scale()) {
            let svc = ServiceConfig {
                requests,
                rps: rps_for(w.name),
                arrival: Arrival::Burst,
            };
            let mut stats = Vec::new();
            for setting in SETTINGS {
                let compiled = compile(&w.source, &opts.compile_options(setting))
                    .unwrap_or_else(|e| panic!("{}: {e}", w.name));
                let r = run_service(&compiled, setting, &base, &svc)
                    .unwrap_or_else(|e| panic!("{}/{setting}: {e}", w.name));
                let s = &r.stats;
                // Pause histogram (minor + major merged) as a spark: digit
                // per log2 bucket, '-' when GC never ran (GCOff).
                let mut pauses = s.pause_minor;
                pauses.merge(&s.pause_major);
                let spark = if pauses.is_empty() {
                    "-".to_string()
                } else {
                    pauses.spark()
                };
                println!(
                    "{:<8} {:<8} | {:>6} {:>8} {:>8} {:>8} {:>8} | {:>5} {:>8} | {:>9} | {}",
                    w.name,
                    setting.to_string(),
                    s.latency_q.p50,
                    s.latency_q.p99,
                    s.latency_q.p999,
                    s.latency_q.max,
                    s.queue_q.p99,
                    s.gcs(),
                    s.pause_max(),
                    s.heap_hwm,
                    spark,
                );
                stats.push(r.stats.clone());
                if setting == Setting::GoFree && observed.is_none() {
                    observed = Some((r, compiled.phase_times.clone()));
                }
            }
            let [gofree, go, gcoff] = <[ServiceStats; 3]>::try_from(stats).expect("three settings");
            let delta = go.latency_q.p999 as i64 - gofree.latency_q.p999 as i64;
            println!(
                "{:<8} p999 delta GoFree vs Go: {delta:+} ticks ({})",
                "",
                if delta >= 0 {
                    "GoFree no worse"
                } else {
                    "Go better here"
                }
            );
            println!();
            cells.push([gofree, go, gcoff]);
        }
    }
    // The shape the study expects: under the burst phase change
    // GoFree's prompt reclamation runs fewer GC cycles than Go's GOGC
    // pacing, so its p999 and worst pause are no worse; GCOff never
    // pauses but holds the largest heap.
    let check = |what: &str, holds: &dyn Fn(&[ServiceStats; 3]) -> bool| {
        let n = cells.iter().filter(|c| holds(c)).count();
        println!(
            "{what} ({n} of {} cells): {}",
            cells.len(),
            verdict(n == cells.len())
        );
    };
    check("GoFree runs fewer GC cycles than Go", &|[free, go, _]| {
        free.gcs() < go.gcs()
    });
    check("GoFree's p999 is no worse than Go's", &|[free, go, _]| {
        free.latency_q.p999 <= go.latency_q.p999
    });
    check("GoFree's worst pause is no worse than Go's", &|[free, go, _]| {
        free.pause_max() <= go.pause_max()
    });
    check("GCOff never pauses and holds the largest heap", &|[free, go, off]| {
        off.gcs() == 0 && off.heap_hwm > free.heap_hwm.max(go.heap_hwm)
    });

    // The designated run is the first GoFree cell (go collector, first
    // scenario).
    Ok(observed.map(|(r, phases)| Observed {
        reports: vec![r.report],
        phases,
        service: Some(r.stats),
    }))
}
