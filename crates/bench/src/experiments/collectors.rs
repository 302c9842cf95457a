//! The collector study: re-runs the table 7–9 measurements under both
//! collectors — `go` (the paper's mark-sweep) and `gen` (the same
//! mark-sweep plus a nursery with minor cycles) — and prints, per
//! collector, the three tables through the printers of the `table7`,
//! `table8` and `table9` experiments, then the Go vs GoFree deltas in GC
//! cycles, reclaimed bytes, virtual time and peak footprint, read from
//! run 0 of each setting (reclaimed bytes from its cycle log). Tables 8
//! and 9 read GoFree's run 0, the run `bench table8` and `bench table9`
//! make. It runs both collectors itself, so it does not read
//! `--collector`.
//!
//! GoFree's `tcfree` evicts objects from the nursery, so their bytes
//! never count toward a minor trigger. That does not make GoFree skip
//! minor cycles everywhere: the last line counts, from the `gen` delta
//! rows, the workloads where GoFree ran fewer, as many or more minor
//! cycles than Go. Nor does the nursery widen the GoFree/Go cycle gap:
//! compare the GCs averages of the two Table 7s.

use std::cmp::Ordering;

use super::{table7, table8, table9};
use crate::{run_three_settings, Options};
use gofree::cli::Observed;
use gofree::{table7_row, table8_row, table9_row, CollectorKind, Report, RunConfig};

pub fn run(opts: &Options) -> Result<Option<Observed>, String> {
    println!(
        "Collector study: tables 7-9 per backend ({} runs per setting)",
        opts.runs
    );

    let mut observed = None;
    let mut minors = String::new();
    for collector in CollectorKind::all() {
        let base = RunConfig {
            collector,
            ..opts.run_config()
        };
        let mut t7 = Vec::new();
        let mut t8 = Vec::new();
        let mut t9 = Vec::new();
        // Per workload, run 0 of Go and of GoFree (same seed for every
        // cell, so rows are comparable).
        let mut deltas = Vec::new();
        for w in gofree_workloads::all(opts.scale()) {
            let (go, gofree, gcoff) = run_three_settings(opts, &w.source, opts.runs, &base);
            t7.push(table7_row(w.name, &go, &gofree, &gcoff));
            t8.push(table8_row(w.name, &gofree[0]));
            t9.push(table9_row(w.name, &gofree[0]));
            let first = |runs: Vec<Report>| runs.into_iter().next().expect("run 0");
            deltas.push((w.name, first(go), first(gofree)));
        }
        println!("\n==== collector: {collector} ====\n");
        table7::print(opts.runs, &t7);
        println!();
        table8::print(&t8);
        println!();
        table9::print(&t9);

        println!(
            "\nGo vs GoFree deltas ({collector}): cycles (minor+major), GC-reclaimed bytes, \
             virtual time and peak footprint (run 0 of each setting)"
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
        let cycles = |r: &Report| {
            let m = &r.metrics;
            format!("{} ({}m/{}M)", m.gcs, m.gcs_minor, m.gcs_major)
        };
        let swept = |r: &Report| r.cycles.iter().map(|c| c.swept_bytes).sum::<u64>();
        for (project, go, gofree) in &deltas {
            println!(
                "{:<10} | {:>16} {:>16} | {:>11} {:>11} | {:>10} {:>10} | {:>9} {:>9}",
                project,
                cycles(go),
                cycles(gofree),
                swept(go),
                swept(gofree),
                go.time,
                gofree.time,
                go.metrics.maxheap,
                gofree.metrics.maxheap,
            );
        }
        if collector == CollectorKind::Generational {
            minors = minor_summary(&deltas);
        }
        observed = deltas.pop().map(|(_, _, gofree)| gofree);
    }

    println!(
        "\nThe go collector reproduces the paper bit-identically \
         (tests/collector_identity.rs).\n{minors}"
    );
    Ok(observed.map(|r| Observed::new(r, Vec::new())))
}

/// Per workload of the `gen` delta table, whether GoFree ran fewer, as
/// many or more minor cycles than Go.
fn minor_summary(deltas: &[(&str, Report, Report)]) -> String {
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
                .filter(|(_, go, gofree)| {
                    gofree.metrics.gcs_minor.cmp(&go.metrics.gcs_minor) == order
                })
                .map(|&(project, _, _)| project)
                .collect();
            (!names.is_empty()).then(|| format!("{word} on {} ({})", names.len(), names.join(", ")))
        })
        .collect();
    format!(
        "GoFree minor cycles under gen, against Go: {}.",
        parts.join("; ")
    )
}
