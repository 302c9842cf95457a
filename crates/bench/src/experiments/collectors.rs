//! The collector study: re-runs the table 7–9 measurements and the
//! fig. 10/11-style heap curves under both collectors — `go` (the
//! paper's mark-sweep) and `gen` (the same mark-sweep plus a nursery with
//! minor cycles) — and prints, per collector, the Go vs GoFree deltas in
//! GC cycles, reclaimed bytes, and virtual time.
//!
//! GoFree's `tcfree` evicts objects from the nursery, so their bytes
//! never count toward a minor trigger. That does not make GoFree skip
//! minor cycles everywhere: the last line counts, from the `gen` delta
//! rows, the workloads where GoFree ran fewer, as many or more minor
//! cycles than Go. Nor does the nursery widen the GoFree/Go cycle gap:
//! compare the GCs averages of the two Table 7s.

use std::cmp::Ordering;

use crate::{fmt_p, pct, run_three_settings, Options};
use gofree::cli::Observed;
use gofree::{table7_row, table8_row, table9_row, CollectorKind, RunConfig, Setting};

pub fn run(opts: &Options) -> Result<Option<Observed>, String> {
    println!(
        "Collector study: tables 7-9 and heap curves per backend ({} runs per setting)",
        opts.runs
    );

    let mut observed = None;
    let mut minors = String::new();
    for collector in CollectorKind::all() {
        let base = RunConfig {
            collector,
            ..opts.run_config()
        };
        println!("\n==== collector: {collector} ====\n");
        println!("Table 7 ({collector}): ratios are GoFree/Go; <100% means GoFree is better");
        println!(
            "{:<10} | {:>6} {:>7} | {:>7} | {:>6} {:>7} | {:>6} | {:>7}",
            "project", "time", "p", "GCtime", "GCs", "p", "free", "maxheap"
        );
        println!("{}", "-".repeat(76));

        let mut t7 = Vec::new();
        let mut t8 = Vec::new();
        let mut t9 = Vec::new();
        let mut deltas = Vec::new();
        for w in gofree_workloads::all(opts.scale()) {
            let (go, gofree, gcoff) = run_three_settings(opts, &w.source, opts.runs, &base);
            let row = table7_row(w.name, &go, &gofree, &gcoff);
            println!(
                "{:<10} | {:>6} {:>7} | {:>7} | {:>6} {:>7} | {:>6} | {:>7}",
                row.project,
                pct(row.time.ratio),
                fmt_p(row.time.p_value),
                pct(row.gc_time_ratio),
                pct(row.gcs.ratio),
                fmt_p(row.gcs.p_value),
                pct(row.free_ratio),
                pct(row.maxheap.ratio),
            );
            t8.push(table8_row(w.name, &gofree[0]));
            t9.push(table9_row(w.name, &gofree[0]));
            deltas.push(delta_row(opts, w.name, &base));
            t7.push(row);
            observed = gofree.into_iter().next();
        }
        let avg =
            |f: &dyn Fn(&gofree::Table7Row) -> f64| t7.iter().map(f).sum::<f64>() / t7.len() as f64;
        println!("{}", "-".repeat(76));
        println!(
            "{:<10} | {:>6} {:>7} | {:>7} | {:>6} {:>7} | {:>6} | {:>7}",
            "average",
            pct(avg(&|r| r.time.ratio)),
            "",
            pct(avg(&|r| r.gc_time_ratio)),
            pct(avg(&|r| r.gcs.ratio)),
            "",
            pct(avg(&|r| r.free_ratio)),
            pct(avg(&|r| r.maxheap.ratio)),
        );

        println!("\nTable 8 ({collector}): tcfree share of heap reclamation");
        println!(
            "{:<10} | {:>12} {:>10}",
            "project", "slice share", "map share"
        );
        for row in &t8 {
            println!(
                "{:<10} | {:>12} {:>10}",
                row.project,
                pct(row.slice_share()),
                pct(row.map_share()),
            );
        }

        println!("\nTable 9 ({collector}): reclaimed-byte shares by free source");
        println!(
            "{:<10} | {:>10} {:>8} {:>8}",
            "project", "FreeSlice", "FreeMap", "GrowMap"
        );
        for row in &t9 {
            println!(
                "{:<10} | {:>10} {:>8} {:>8}",
                row.project,
                pct(row.free_slice),
                pct(row.free_map),
                pct(row.grow_map),
            );
        }

        println!(
            "\nGo vs GoFree deltas ({collector}): cycles (minor+major), GC-reclaimed bytes, \
             virtual time (fig. 10/11-style heap curves from one traced run per setting)"
        );
        println!(
            "{:<10} | {:>16} {:>16} | {:>11} {:>11} | {:>10} {:>10} | {:>9} {:>9}",
            "project",
            "Go cycles",
            "GoFree cycles",
            "Go swept B",
            "GF swept B",
            "Go time",
            "GF time",
            "Go peak",
            "GF peak"
        );
        println!("{}", "-".repeat(118));
        for d in &deltas {
            println!(
                "{:<10} | {:>16} {:>16} | {:>11} {:>11} | {:>10} {:>10} | {:>9} {:>9}",
                d.project,
                format!("{} ({}m/{}M)", d.go.cycles, d.go.minor, d.go.major),
                format!(
                    "{} ({}m/{}M)",
                    d.gofree.cycles, d.gofree.minor, d.gofree.major
                ),
                d.go.swept_bytes,
                d.gofree.swept_bytes,
                d.go.time,
                d.gofree.time,
                d.go.peak_footprint,
                d.gofree.peak_footprint,
            );
        }
        if collector == CollectorKind::Generational {
            minors = minor_summary(&deltas);
        }
    }

    println!(
        "\nThe go collector reproduces the paper bit-identically \
         (tests/collector_identity.rs).\n{minors}"
    );
    Ok(observed.map(|r| Observed::new(r, Vec::new())))
}

/// Per workload of the `gen` delta table, whether GoFree ran fewer, as
/// many or more minor cycles than Go.
fn minor_summary(deltas: &[DeltaRow]) -> String {
    let buckets = [
        ("fewer", Ordering::Less),
        ("equal", Ordering::Equal),
        ("more", Ordering::Greater),
    ];
    let parts: Vec<String> = buckets
        .iter()
        .filter_map(|&(word, order)| {
            let names: Vec<&str> = deltas
                .iter()
                .filter(|d| d.gofree.minor.cmp(&d.go.minor) == order)
                .map(|d| d.project)
                .collect();
            (!names.is_empty()).then(|| format!("{word} on {} ({})", names.len(), names.join(", ")))
        })
        .collect();
    format!(
        "GoFree minor cycles under gen, against Go: {}.",
        parts.join("; ")
    )
}

/// One setting's single-run observables under a backend, taken from a
/// traced run 0 (same seed for every cell, so rows are comparable).
struct CellStats {
    cycles: u64,
    minor: u64,
    major: u64,
    swept_bytes: u64,
    time: u64,
    peak_footprint: u64,
}

struct DeltaRow {
    project: &'static str,
    go: CellStats,
    gofree: CellStats,
}

fn delta_row(opts: &Options, project: &'static str, base: &RunConfig) -> DeltaRow {
    let cell = |setting: Setting| {
        let w = gofree_workloads::by_name(project, opts.scale()).expect("workload exists");
        let compiled =
            gofree::compile(&w.source, &opts.compile_options(setting)).expect("workload compiles");
        let cfg = RunConfig {
            trace: true,
            jobs: 1,
            ..base.clone()
        };
        let report = gofree::execute(&compiled, setting, &cfg).expect("workload runs");
        let trace = report.trace.as_ref().expect("traced run carries a trace");
        let swept_bytes = trace
            .events
            .iter()
            .map(|ev| match *ev {
                gofree::TraceEvent::GcEnd { swept_bytes, .. } => swept_bytes,
                _ => 0,
            })
            .sum();
        CellStats {
            cycles: report.metrics.gcs,
            minor: report.metrics.gcs_minor,
            major: report.metrics.gcs_major,
            swept_bytes,
            time: report.time,
            peak_footprint: report.metrics.maxheap,
        }
    };
    DeltaRow {
        project,
        go: cell(Setting::Go),
        gofree: cell(Setting::GoFree),
    }
}
