//! Regenerates table 9: the contribution breakdown of reclaimed space —
//! FreeSlice() vs FreeMap() vs GrowMapAndFreeOld() (§6.6).

use crate::{pct, Options};
use gofree::cli::Observed;
use gofree::{execute, table9_row, Setting};

pub fn run(opts: &Options) -> Result<Option<Observed>, String> {
    let base = opts.run_config();
    println!("Table 9: contribution breakdown of reclaimed space (rows sum to 100%)\n");
    println!(
        "{:<10} {:>12} {:>12} {:>20}",
        "project", "FreeSlice()", "FreeMap()", "GrowMapAndFreeOld()"
    );
    println!("{}", "-".repeat(58));
    let mut observed = None;
    for w in gofree_workloads::all(opts.scale()) {
        let compiled =
            gofree::compile(&w.source, &opts.compile_options(Setting::GoFree)).expect("compiles");
        let report = execute(&compiled, Setting::GoFree, &base).expect("runs");
        let row = table9_row(w.name, &report);
        println!(
            "{:<10} {:>12} {:>12} {:>20}",
            row.project,
            pct(row.free_slice),
            pct(row.free_map),
            pct(row.grow_map),
        );
        observed = Some(report);
    }
    println!("{}", "-".repeat(58));
    println!("\nPaper's shape: Go/hugo slice-dominated (56/14/30);");
    println!("badger/json pure growth (0/0/100); scheck split (2/50/48); slayout growth (1/0/99).");
    Ok(observed.map(|r| Observed::new(r, Vec::new())))
}
