//! Re-derives the paper's heap-behaviour figures from the runtime event
//! trace instead of end-of-run aggregates, cross-checking every derived
//! number against [`gofree::Report::metrics`]:
//!
//! * a fig. 10-style object-size sweep of GC-count and peak-heap ratios;
//! * a fig. 11-style per-workload view of the six subject programs with
//!   an ASCII live-heap curve sampled from the event stream.
//!
//! Every row asserts [`gofree::Trace::reconcile`]: the stream's fold —
//! GC count (`GcEnd` events) and peak footprint (`Alloc`/`Finalize`
//! events) included — equals the run's metrics field for field, so the
//! figures printed from those metrics are the trace's own, and the trace
//! layer cannot drift from the published numbers without this experiment
//! failing.

use crate::{pct, Options};
use gofree::cli::Observed;
use gofree::{RunConfig, Setting, Trace};
use gofree_workloads::micro;

/// Buckets in the live-heap curve sparkline.
const CURVE_WIDTH: usize = 32;

/// Renders the live-heap curve as a fixed-width ASCII sparkline: the
/// peak live bytes per virtual-time bucket, scaled to the row maximum.
fn curve_spark(trace: &Trace) -> String {
    let curve = trace.heap_curve();
    let Some((t0, _)) = curve.first().copied() else {
        return format!("|{}|", " ".repeat(CURVE_WIDTH));
    };
    let t1 = curve.last().map(|&(t, _)| t).unwrap_or(t0);
    let span = (t1 - t0).max(1);
    let mut buckets = [0u64; CURVE_WIDTH];
    for &(at, live) in &curve {
        let idx = (((at - t0) as u128 * CURVE_WIDTH as u128 / (span as u128 + 1)) as usize)
            .min(CURVE_WIDTH - 1);
        buckets[idx] = buckets[idx].max(live);
    }
    let max = buckets.iter().copied().max().unwrap_or(0).max(1);
    const RAMP: &[u8] = b" _.-=+*#%@";
    let mut out = String::with_capacity(CURVE_WIDTH + 2);
    out.push('|');
    for &b in &buckets {
        let idx = if b == 0 {
            0
        } else {
            ((b as u128 * (RAMP.len() - 1) as u128).div_ceil(max as u128) as usize)
                .min(RAMP.len() - 1)
        };
        out.push(RAMP[idx] as char);
    }
    out.push('|');
    out
}

/// Runs one compiled setting traced and checks the stream folds back to
/// the run's metrics exactly, returning the report.
fn run_checked(
    compiled: &gofree::Compiled,
    setting: Setting,
    cfg: &RunConfig,
    what: &str,
) -> gofree::Report {
    let report = gofree::execute(compiled, setting, cfg).expect("workload runs");
    let trace = report.trace.as_ref().expect("tracing was enabled");
    trace
        .reconcile(&report.metrics)
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    report
}

pub fn run(opts: &Options) -> Result<Option<Observed>, String> {
    let cfg = RunConfig {
        trace: true,
        ..opts.run_config()
    };

    println!("Trace experiment: heap figures re-derived from runtime events\n");
    println!("Fig. 10 shape from events (GC and peak-heap ratios, GoFree/Go):");
    println!(
        "{:>4} | {:>8} {:>8} {:>8} | {:>10} {:>10}",
        "c", "events", "GCs", "GC ratio", "peak heap", "heap ratio"
    );
    println!("{}", "-".repeat(62));
    let budget = if opts.quick { 128 } else { 2048 };
    let mut last_gofree = None;
    for &c in micro::C_VALUES {
        let src = micro::source(c, budget);
        let go = gofree::compile(&src, &opts.compile_options(Setting::Go)).expect("compiles");
        let gf = gofree::compile(&src, &opts.compile_options(Setting::GoFree)).expect("compiles");
        let go_r = run_checked(&go, Setting::Go, &cfg, "fig10/go");
        let gf_r = run_checked(&gf, Setting::GoFree, &cfg, "fig10/gofree");
        let (go_m, gf_m) = (&go_r.metrics, &gf_r.metrics);
        let gc_ratio = gf_m.gcs as f64 / go_m.gcs.max(1) as f64;
        let heap_ratio = gf_m.maxheap as f64 / go_m.maxheap.max(1) as f64;
        println!(
            "{:>4} | {:>8} {:>8} {:>8} | {:>8} B {:>10}",
            c,
            gf_r.trace.as_ref().unwrap().events.len(),
            gf_m.gcs,
            pct(gc_ratio),
            gf_m.maxheap,
            pct(heap_ratio),
        );
        last_gofree = Some((gf_r, gf.phase_times.clone()));
    }

    println!("\nFig. 11 shape from events (live-heap curve over virtual time):");
    println!(
        "{:<10} {:>7} | {:>7} {:>10} | {:<34}",
        "workload", "setting", "GCs", "peak heap", "live-heap curve"
    );
    println!("{}", "-".repeat(78));
    for w in gofree_workloads::all(opts.scale()) {
        for setting in [Setting::Go, Setting::GoFree] {
            let compiled =
                gofree::compile(&w.source, &opts.compile_options(setting)).expect("compiles");
            let r = run_checked(&compiled, setting, &cfg, w.name);
            println!(
                "{:<10} {:>7} | {:>7} {:>8} B | {}",
                w.name,
                setting.to_string(),
                r.metrics.gcs,
                r.metrics.maxheap,
                curve_spark(r.trace.as_ref().unwrap()),
            );
        }
    }
    println!("{}", "-".repeat(78));
    println!("\nAll trace-derived figures matched Metrics exactly (gc_count, maxheap,");
    println!("and the full fold/reconcile) for every run above, on both settings.");

    Ok(last_gofree.map(|(report, phases)| Observed::new(report, phases)))
}
