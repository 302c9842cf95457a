//! Regenerates fig. 10: the map microbenchmark sweeping the deallocated-
//! object-size parameter `c`. Bigger `c` keeps the free *ratio* comparable
//! while the mean freed object grows, shifting the benefit from GC-count
//! reduction toward heap-size reduction (§6.3). The table ends with that
//! shape checked on its own rows, first point against last.

use crate::{pct, verdict, Options};
use gofree::cli::Observed;
use gofree::{fig10_point, Setting};
use gofree_workloads::micro;

pub fn run(opts: &Options) -> Result<Option<Observed>, String> {
    let budget = if opts.quick { 128 } else { 2048 };
    let base = opts.run_config();
    println!("Fig. 10: microbenchmark, object-size sweep (total allocation held ~constant)\n");
    println!(
        "{:>4} | {:>10} {:>10} {:>10} {:>10} | {:>14}",
        "c", "free ratio", "time", "GCs", "maxheap", "mean freed obj"
    );
    println!("{}", "-".repeat(70));
    let mut points = Vec::new();
    let mut last_traced = None;
    for &c in micro::C_VALUES {
        let src = micro::source(c, budget);
        let go = gofree::compile(&src, &opts.compile_options(Setting::Go)).expect("compiles");
        let gofree =
            gofree::compile(&src, &opts.compile_options(Setting::GoFree)).expect("compiles");
        let go_r = gofree::execute(&go, Setting::Go, &base).expect("runs");
        let gf_r = gofree::execute(&gofree, Setting::GoFree, &base).expect("runs");
        assert_eq!(go_r.output, gf_r.output, "same behaviour at c={c}");
        let p = fig10_point(c, &go_r, &gf_r);
        let freed_objs: u64 = gf_r.metrics.freed_objects_by_source.iter().sum();
        let mean_obj = gf_r
            .metrics
            .freed_bytes
            .checked_div(freed_objs)
            .unwrap_or(0);
        println!(
            "{:>4} | {:>10} {:>10} {:>10} {:>10} | {:>12} B",
            p.c,
            pct(p.free_ratio),
            pct(p.time_ratio),
            pct(p.gc_ratio),
            pct(p.heap_ratio),
            mean_obj,
        );
        points.push(p);
        last_traced = Some((gf_r, gofree.phase_times.clone()));
    }
    println!("{}", "-".repeat(70));
    let (first, last) = (&points[0], &points[points.len() - 1]);
    let (lo, hi) = points.iter().fold((f64::MAX, f64::MIN), |(lo, hi), p| {
        (lo.min(p.free_ratio), hi.max(p.free_ratio))
    });
    println!(
        "\nfree ratio {}..{} across c, comparable (within 10 points): {}",
        pct(lo),
        pct(hi),
        verdict(hi - lo <= 0.10)
    );
    let ends = |a: f64, b: f64| {
        format!("{} at c={} -> {} at c={}", pct(a), first.c, pct(b), last.c)
    };
    let (a, b) = (first.gc_ratio, last.gc_ratio);
    println!("GC-count benefit shrinks with c ({}): {}", ends(a, b), verdict(a <= b));
    let (a, b) = (first.time_ratio, last.time_ratio);
    println!("time benefit shrinks with c ({}): {}", ends(a, b), verdict(a <= b));
    let (a, b) = (first.heap_ratio, last.heap_ratio);
    println!("heap benefit grows with c ({}): {}", ends(a, b), verdict(b < a));
    // The designated run is the last sweep point's GoFree run.
    Ok(last_traced.map(|(report, phases)| Observed::new(report, phases)))
}
