//! Regenerates table 8: stack/heap allocation decisions for slices, maps,
//! and other data, plus the `tcfree/(tcfree+GC)` reclamation shares that
//! justify GoFree's deallocation-target selection (§6.5).

use crate::{pct, Options};
use gofree::cli::Observed;
use gofree::{execute, table8_row, Setting};

pub fn run(opts: &Options) -> Result<Option<Observed>, String> {
    let base = opts.run_config();
    println!("Table 8: stack/heap allocation decisions (one GoFree run per project)\n");
    println!(
        "{:<10} | {:>9} {:>8} | {:>8} {:>9} {:>8} {:>7} | {:>8} {:>9} {:>8} {:>7}",
        "project",
        "stack-oth",
        "heapGC-o",
        "stack-sl",
        "tcfree-sl",
        "heapGC-s",
        "share",
        "stack-mp",
        "tcfree-mp",
        "heapGC-m",
        "share"
    );
    println!("{}", "-".repeat(112));
    let mut slice_shares = Vec::new();
    let mut map_shares = Vec::new();
    let mut observed = None;
    for w in gofree_workloads::all(opts.scale()) {
        let compiled =
            gofree::compile(&w.source, &opts.compile_options(Setting::GoFree)).expect("compiles");
        let report = execute(&compiled, Setting::GoFree, &base).expect("runs");
        let row = table8_row(w.name, &report);
        println!(
            "{:<10} | {:>9} {:>8} | {:>8} {:>9} {:>8} {:>7} | {:>8} {:>9} {:>8} {:>7}",
            row.project,
            row.stack_others,
            row.heap_gc_others,
            row.stack_slices,
            row.heap_tcfree_slices,
            row.heap_gc_slices,
            pct(row.slice_share()),
            row.stack_maps,
            row.heap_tcfree_maps,
            row.heap_gc_maps,
            pct(row.map_share()),
        );
        if row.heap_tcfree_slices + row.heap_gc_slices > 0 {
            slice_shares.push(row.slice_share());
        }
        if row.heap_tcfree_maps + row.heap_gc_maps > 0 {
            map_shares.push(row.map_share());
        }
        observed = Some(report);
    }
    println!("{}", "-".repeat(112));
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    println!(
        "{:<10} | {:>30} {:>15} avg share {:>6} | {:>24} avg share {:>6}",
        "average",
        "",
        "",
        pct(avg(&slice_shares)),
        "",
        pct(avg(&map_shares)),
    );
    println!(
        "\nPaper: slices avg share 10%, maps avg share 34%; \"others\" are overwhelmingly stack-allocated,"
    );
    println!("which is why GoFree restricts freeing to slices and maps.");
    Ok(observed.map(|r| Observed::new(r, Vec::new())))
}
