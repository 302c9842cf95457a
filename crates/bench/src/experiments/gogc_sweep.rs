//! GOGC sensitivity sweep: how GoFree's benefit varies with the GC pacing
//! knob. Smaller GOGC means more frequent collections, so explicit
//! deallocation avoids more of them; large GOGC amortizes GC so well that
//! GoFree's effect shrinks toward the allocator level. (The paper fixes
//! GOGC at the default 100; this extends table 7 along that axis.) The
//! table ends with both halves of that claim checked on its own rows.

use crate::{pct, verdict, Options};
use gofree::cli::Observed;
use gofree::{compile, execute, RunConfig, Setting};

pub fn run(opts: &Options) -> Result<Option<Observed>, String> {
    let w = gofree_workloads::by_name("json", opts.scale()).expect("json workload");
    println!("GOGC sweep (json analogue)\n");
    println!(
        "{:>6} | {:>9} {:>9} {:>8} | {:>9} {:>9} {:>8}",
        "GOGC", "Go GCs", "GF GCs", "ratio", "Go time", "GF time", "ratio"
    );
    println!("{}", "-".repeat(72));
    let mut observed = None;
    // Per GOGC, ascending: GCs avoided, and GoFree/Go time.
    let (mut avoided, mut times) = (Vec::new(), Vec::new());
    for gogc in [25u64, 50, 100, 200, 400] {
        let cfg = RunConfig {
            gogc,
            ..opts.run_config()
        };
        let go = compile(&w.source, &opts.compile_options(Setting::Go)).expect("compiles");
        let gf = compile(&w.source, &opts.compile_options(Setting::GoFree)).expect("compiles");
        let go_r = execute(&go, Setting::Go, &cfg).expect("runs");
        let gf_r = execute(&gf, Setting::GoFree, &cfg).expect("runs");
        observed = Some(gf_r.clone());
        assert_eq!(go_r.output, gf_r.output);
        let gcs_ratio = if go_r.metrics.gcs == 0 {
            1.0
        } else {
            gf_r.metrics.gcs as f64 / go_r.metrics.gcs as f64
        };
        println!(
            "{:>6} | {:>9} {:>9} {:>8} | {:>9} {:>9} {:>8}",
            gogc,
            go_r.metrics.gcs,
            gf_r.metrics.gcs,
            pct(gcs_ratio),
            go_r.time,
            gf_r.time,
            pct(gf_r.time as f64 / go_r.time as f64),
        );
        avoided.push(go_r.metrics.gcs as i64 - gf_r.metrics.gcs as i64);
        times.push(gf_r.time as f64 / go_r.time as f64);
    }
    let shown: Vec<String> = avoided.iter().map(|n| n.to_string()).collect();
    println!(
        "\nGCs avoided (Go - GoFree) {} do not rise with GOGC: {}",
        shown.join(", "),
        verdict(avoided.windows(2).all(|w| w[1] <= w[0]))
    );
    let shown: Vec<String> = times.iter().map(|&t| pct(t)).collect();
    println!(
        "GoFree/Go time {} does not fall with GOGC: {}",
        shown.join(", "),
        verdict(times.windows(2).all(|w| w[1] >= w[0]))
    );
    Ok(observed.map(|r| Observed::new(r, Vec::new())))
}
