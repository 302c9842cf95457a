//! Ablations for the design choices DESIGN.md calls out:
//!
//! 1. content tags (§4.4) on/off — cross-call frees vanish without them;
//! 2. free-target selection (§6.5) — slices+maps vs all pointers;
//! 3. the tcfree bail-out environment — migration probability sweep;
//! 4. GrowMapAndFreeOld (§4.6.2) on/off.

use crate::{pct, Options};
use gofree::cli::Observed;
use gofree::{compile, execute, run_session, CompileOptions, FreeTargets, RunConfig, Setting};

fn free_ratio(src: &str, copts: &CompileOptions, cfg: &RunConfig) -> (f64, u64, u64) {
    let compiled = compile(src, copts).expect("compiles");
    let r = execute(&compiled, Setting::GoFree, cfg).expect("runs");
    (
        r.metrics.free_ratio(),
        r.metrics.tcfree_attempts,
        r.metrics.tcfree_bails.iter().sum(),
    )
}

/// A pipeline workload whose frees are all *cross-call*: buffers and
/// nodes are allocated by callees and freed by the caller, which only the
/// content tags of §4.4 make possible.
fn pipeline_source(n: u64) -> String {
    format!(
        r#"
type Item struct {{
    key int
    weight int
}}

func makeBuffer(n int) []int {{
    buf := make([]int, n)
    for i := 0; i < n; i += 1 {{
        buf[i] = i * 3
    }}
    return buf
}}

func makeItem(k int) *Item {{
    it := &Item{{k, k * 2}}
    return it
}}

func main() {{
    total := 0
    for i := 0; i < {n}; i += 1 {{
        buf := makeBuffer(120 + i%40)
        it := makeItem(i)
        total += buf[0] + it.weight
    }}
    print(total)
}}
"#
    )
}

pub fn run(opts: &Options) -> Result<Option<Observed>, String> {
    let base = opts.run_config();
    let copts = opts.compile_options(Setting::GoFree);
    println!("Ablations\n");
    let n = if opts.quick { 40 } else { 600 };
    let pipeline = pipeline_source(n);

    println!("1) Content tags (§4.4): free ratio with vs without");
    println!("   (cross-call pipeline: callee-allocated, caller-freed buffers)");
    println!("{:<10} {:>8} {:>10}", "project", "with", "without");
    {
        let with = free_ratio(&pipeline, &copts, &base).0;
        let without = free_ratio(
            &pipeline,
            &CompileOptions {
                content_tags: false,
                ..copts.clone()
            },
            &base,
        )
        .0;
        println!("{:<10} {:>8} {:>10}", "pipeline", pct(with), pct(without));
        assert!(
            with > 0.3 && without < 0.05,
            "content tags must be what enables cross-call frees: {with} vs {without}"
        );
    }
    for w in gofree_workloads::all(opts.scale()) {
        let with = free_ratio(&w.source, &copts, &base).0;
        let without = free_ratio(
            &w.source,
            &CompileOptions {
                content_tags: false,
                ..copts.clone()
            },
            &base,
        )
        .0;
        println!("{:<10} {:>8} {:>10}", w.name, pct(with), pct(without));
    }

    println!("\n2) Free targets (§6.5): slices+maps (paper) vs all pointers");
    println!("{:<10} {:>12} {:>8}", "project", "slices+maps", "all");
    {
        let paper = free_ratio(&pipeline, &copts, &base).0;
        let all = free_ratio(
            &pipeline,
            &CompileOptions {
                free_targets: FreeTargets::All,
                ..copts.clone()
            },
            &base,
        )
        .0;
        println!("{:<10} {:>12} {:>8}", "pipeline", pct(paper), pct(all));
        assert!(all > paper, "widening targets frees the Item objects too");
    }
    for w in gofree_workloads::all(opts.scale()) {
        let paper = free_ratio(&w.source, &copts, &base).0;
        let all = free_ratio(
            &w.source,
            &CompileOptions {
                free_targets: FreeTargets::All,
                ..copts.clone()
            },
            &base,
        )
        .0;
        println!("{:<10} {:>12} {:>8}", w.name, pct(paper), pct(all));
    }

    println!("\n3) tcfree bail-outs vs scheduler migration probability (json workload)");
    println!(
        "{:<12} {:>9} {:>8} {:>10}",
        "migrate p", "attempts", "bails", "free ratio"
    );
    let w = gofree_workloads::by_name("json", opts.scale()).expect("json");
    for p in [0.0, 0.0005, 0.005, 0.05] {
        let cfg = RunConfig {
            migrate_prob: p,
            ..opts.run_config()
        };
        let (fr, attempts, bails) = free_ratio(&w.source, &copts, &cfg);
        println!("{p:<12} {attempts:>9} {bails:>8} {:>10}", pct(fr));
    }

    println!("\n4) GrowMapAndFreeOld (§4.6.2): GoFree vs GoFree-without-grow-free (slayout)");
    let w = gofree_workloads::by_name("slayout", opts.scale()).expect("slayout");
    let compiled = compile(&w.source, &copts).expect("compiles");
    let with = execute(&compiled, Setting::GoFree, &base).expect("runs");
    // Re-run the instrumented program but with the runtime optimization
    // off, modeling a GoFree build without §4.6.2.
    let vm_cfg = minigo_vm::VmConfig {
        grow_map_free_old: false,
        ..base.vm_config(&compiled, Setting::GoFree)
    };
    let run = run_session(&compiled, vm_cfg, base.engine, base.opt, |s| s.call_main());
    let without = run.expect("runs").1;
    println!(
        "with:    free ratio {:>5}  GCs {}",
        pct(with.metrics.free_ratio()),
        with.metrics.gcs
    );
    println!(
        "without: free ratio {:>5}  GCs {}",
        pct(without.metrics.free_ratio()),
        without.metrics.gcs
    );
    Ok(Some(Observed::new(with, compiled.phase_times)))
}
