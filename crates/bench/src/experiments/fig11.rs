//! Regenerates fig. 11: the run-time distribution across N runs under the
//! three settings (GoFree, Go, Go-GCOff), shown as a text histogram.

use crate::{run_three_settings, Options};
use gofree::cli::Observed;
use gofree::{distribution, Histogram, Setting};

pub fn run(opts: &Options) -> Result<Option<Observed>, String> {
    let w = gofree_workloads::by_name("json", opts.scale()).expect("json workload");
    println!(
        "Fig. 11: run-time distribution, {} runs per setting (workload: json analogue)\n",
        opts.runs
    );
    let (go, gofree, gcoff) = run_three_settings(opts, &w.source, opts.runs, &opts.run_config());
    let dists = [
        distribution(Setting::GoFree.to_string(), &gofree),
        distribution(Setting::Go.to_string(), &go),
        distribution(Setting::GoGcOff.to_string(), &gcoff),
    ];

    let lo = dists.iter().map(|d| d.min).fold(f64::INFINITY, f64::min);
    let hi = dists
        .iter()
        .map(|d| d.max)
        .fold(f64::NEG_INFINITY, f64::max);

    // One shared log₂ histogram per setting over each sample's distance
    // from the global minimum (the spread is what fig. 11 shows, and the
    // offset keeps tightly-clustered run times out of a single bucket).
    for d in &dists {
        println!(
            "{:<8} mean {:>12.0}  stdev {:>9.0}  min {:>12.0}  max {:>12.0}",
            d.label, d.mean, d.stdev, d.min, d.max
        );
        let mut hist: Histogram<64> = Histogram::new();
        for &s in &d.samples {
            hist.record((s - lo) as u64);
        }
        println!("         |{}|", hist.spark());
    }
    println!(
        "\n(ticks {lo:.0}..{hi:.0}, log2-bucketed offset from the fastest run; \
         expected shape: GCOff fastest, GoFree between GCOff and Go, Go slowest)"
    );
    let mean = |d: &gofree::Distribution| d.mean;
    if mean(&dists[2]) <= mean(&dists[0]) && mean(&dists[0]) <= mean(&dists[1]) {
        println!("Ordering GCOff <= GoFree <= Go holds on the means.");
    } else {
        println!(
            "Note: the strict GCOff <= GoFree <= Go ordering did not hold at this \
             scale (expected at --quick; run at full scale for the paper's shape)."
        );
    }
    // The designated run is GoFree's run 0 (compile phases are not
    // collected here; the runtime track carries everything).
    let run0 = gofree.into_iter().next().expect("at least one run");
    Ok(Some(Observed::new(run0, Vec::new())))
}
