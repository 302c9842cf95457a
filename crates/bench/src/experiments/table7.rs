//! Regenerates table 7: the effect of GoFree's optimizations on the six
//! subject workloads — time / GC-time / GC-count / free-ratio / maxheap
//! ratios with standard deviations and Welch p-values, over N seeded runs
//! per setting (the paper uses 99).

use crate::{fmt_p, pct, run_three_settings, Options};
use gofree::cli::Observed;
use gofree::table7_row;

pub fn run(opts: &Options) -> Result<Option<Observed>, String> {
    let base = opts.run_config();
    println!(
        "Table 7: effect of GoFree's optimizations ({} runs per setting, ratios are GoFree/Go; <100% means GoFree is better)\n",
        opts.runs
    );
    println!(
        "{:<10} | {:>6} {:>6} {:>7} | {:>7} | {:>6} {:>6} {:>7} | {:>6} | {:>7} {:>6} {:>7}",
        "project",
        "time",
        "stdev",
        "p",
        "GCtime",
        "GCs",
        "stdev",
        "p",
        "free",
        "maxheap",
        "stdev",
        "p"
    );
    println!("{}", "-".repeat(108));

    let mut rows = Vec::new();
    let mut observed = None;
    for w in gofree_workloads::all(opts.scale()) {
        let (go, gofree, gcoff) = run_three_settings(opts, &w.source, opts.runs, &base);
        let row = table7_row(w.name, &go, &gofree, &gcoff);
        println!(
            "{:<10} | {:>6} {:>5.0}% {:>7} | {:>7} | {:>6} {:>5.0}% {:>7} | {:>6} | {:>7} {:>5.0}% {:>7}",
            row.project,
            pct(row.time.ratio),
            row.time.stdev * 100.0,
            fmt_p(row.time.p_value),
            pct(row.gc_time_ratio),
            pct(row.gcs.ratio),
            row.gcs.stdev * 100.0,
            fmt_p(row.gcs.p_value),
            pct(row.free_ratio),
            pct(row.maxheap.ratio),
            row.maxheap.stdev * 100.0,
            fmt_p(row.maxheap.p_value),
        );
        rows.push(row);
        observed = gofree.into_iter().next();
    }

    let avg =
        |f: &dyn Fn(&gofree::Table7Row) -> f64| rows.iter().map(f).sum::<f64>() / rows.len() as f64;
    println!("{}", "-".repeat(108));
    println!(
        "{:<10} | {:>6} {:>6} {:>7} | {:>7} | {:>6} {:>6} {:>7} | {:>6} | {:>7} {:>6} {:>7}",
        "average",
        pct(avg(&|r| r.time.ratio)),
        "",
        "",
        pct(avg(&|r| r.gc_time_ratio)),
        pct(avg(&|r| r.gcs.ratio)),
        "",
        "",
        pct(avg(&|r| r.free_ratio)),
        pct(avg(&|r| r.maxheap.ratio)),
        "",
        "",
    );
    println!("\nPaper's averages: time 98%, GC time 87%, GCs 93%, free 14%, maxheap 96%.");
    println!("Expected shape: GoFree never loses; json/scheck/slayout benefit most; badger/hugo are flat.");
    Ok(observed.map(|r| Observed::new(r, Vec::new())))
}
