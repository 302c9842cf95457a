//! Regenerates table 7: the effect of GoFree's optimizations on the six
//! subject workloads — time / GC-time / GC-count / free-ratio / maxheap
//! ratios with standard deviations and Welch p-values, over N seeded runs
//! per setting (the paper uses 99). The table ends with the paper's shape
//! checked on its own rows.

use crate::{fmt_p, pct, run_three_settings, verdict, Options};
use gofree::cli::Observed;
use gofree::{table7_row, Table7Row};

pub fn run(opts: &Options) -> Result<Option<Observed>, String> {
    let base = opts.run_config();
    let mut rows = Vec::new();
    let mut observed = None;
    for w in gofree_workloads::all(opts.scale()) {
        let (go, gofree, gcoff) = run_three_settings(opts, &w.source, opts.runs, &base);
        rows.push(table7_row(w.name, &go, &gofree, &gcoff));
        observed = gofree.into_iter().next();
    }
    print(opts.runs, &rows);
    Ok(observed.map(|r| Observed::new(r, Vec::new())))
}

/// Prints table 7 over `rows`, each from `runs` runs per setting.
pub fn print(runs: u64, rows: &[Table7Row]) {
    println!(
        "Table 7: effect of GoFree's optimizations ({runs} runs per setting, ratios are GoFree/Go; <100% means GoFree is better)\n"
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
    for row in rows {
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
    }
    let avg = |f: &dyn Fn(&Table7Row) -> f64| rows.iter().map(f).sum::<f64>() / rows.len() as f64;
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
    // A loss is a time ratio the table prints above 100%.
    let worst = rows.iter().map(|r| r.time.ratio).fold(0.0, f64::max);
    println!(
        "GoFree never loses on time (highest time ratio {}): {}",
        pct(worst),
        verdict((worst * 100.0).round() <= 100.0)
    );
    let mut by_gcs: Vec<&Table7Row> = rows.iter().collect();
    by_gcs.sort_by(|a, b| a.gcs.ratio.total_cmp(&b.gcs.ratio));
    let lowest: Vec<&str> = by_gcs.iter().take(3).map(|r| r.project.as_str()).collect();
    println!(
        "json, scheck and slayout have the three lowest GC-count ratios (lowest: {}): {}",
        lowest.join(", "),
        verdict(lowest.iter().all(|p| ["json", "scheck", "slayout"].contains(p)))
    );
    let near = |x: f64| (x - 1.0).abs() <= 0.05;
    let flat = rows
        .iter()
        .filter(|r| ["hugo", "badger"].contains(&r.project.as_str()))
        .all(|r| near(r.time.ratio) && near(r.gcs.ratio));
    println!(
        "hugo and badger are within 5% of 100% on time and GCs: {}",
        verdict(flat)
    );
}
