//! The §4.6.4 experiment: Go's escape analysis benefits from inlining
//! (objects escaping small callees by return become stack-allocatable),
//! while GoFree's content tags already free them without inlining.

use crate::{pct, Options};
use gofree::cli::Observed;
use gofree::{compile, execute, CompileOptions, Mode, Setting};

/// A factory-heavy program: every temporary comes from a small callee.
fn factory_source(n: u64) -> String {
    format!(
        r#"
func mkBuf() []int {{
    b := make([]int, 24)
    b[0] = 1
    return b
}}

func mkBig(n int) []int {{
    b := make([]int, n)
    b[0] = 2
    return b
}}

func main() {{
    total := 0
    for i := 0; i < {n}; i += 1 {{
        small := mkBuf()
        big := mkBig(100 + i%50)
        total += small[0] + big[0]
    }}
    print(total)
}}
"#
    )
}

pub fn run(opts: &Options) -> Result<Option<Observed>, String> {
    let n = if opts.quick { 50 } else { 800 };
    let src = factory_source(n);
    let base = opts.run_config();

    println!("Inlining ablation (§4.6.4): factory-heavy workload, {n} iterations\n");
    println!(
        "{:<22} {:>11} {:>10} {:>10} {:>8}",
        "configuration", "stack objs", "heap objs", "freed", "GCs"
    );
    let mut rows = Vec::new();
    let mut observed = None;
    for (label, mode, inline) in [
        ("Go", Mode::Go, false),
        ("Go + inline", Mode::Go, true),
        ("GoFree", Mode::GoFree, false),
        ("GoFree + inline", Mode::GoFree, true),
    ] {
        let setting = if mode == Mode::GoFree {
            Setting::GoFree
        } else {
            Setting::Go
        };
        let copts = CompileOptions {
            inline,
            ..opts.compile_options(setting)
        };
        let compiled = compile(&src, &copts).expect("compiles");
        let r = execute(&compiled, setting, &base).expect("runs");
        let stack: u64 = r.metrics.stack_allocs.iter().sum();
        let heap: u64 = r.metrics.heap_allocs.iter().sum();
        println!(
            "{:<22} {:>11} {:>10} {:>10} {:>8}",
            label,
            stack,
            heap,
            format!("{}", pct(r.metrics.free_ratio())),
            r.metrics.gcs
        );
        rows.push((label, stack, heap, r.metrics.free_ratio(), r.metrics.gcs));
        observed = Some(r);
    }
    println!();
    let (_, go_stack, _, _, _) = rows[0];
    let (_, goinl_stack, _, _, _) = rows[1];
    let (_, _, _, gofree_ratio, _) = rows[2];
    assert!(
        goinl_stack > go_stack,
        "inlining must increase Go's stack allocation"
    );
    assert!(
        gofree_ratio > 0.3,
        "GoFree frees the factory results without inlining"
    );
    println!("Go gains stack allocations only with inlining; GoFree reclaims the");
    println!("factory results either way — its inter-procedural analysis \"provides");
    println!("enough information to analyze the caller as precisely as the");
    println!("intra-procedural analysis does\" (§4.6.4).");
    Ok(observed.map(|r| Observed::new(r, Vec::new())))
}
