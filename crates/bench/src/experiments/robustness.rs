//! Regenerates the §6.8 robustness experiment: run every workload with
//! the mock `tcfree` that corrupts memory (zeroing or bit-flipping)
//! instead of deallocating. If GoFree ever frees a live object, a later
//! read observes the corruption and the run fails — so all runs passing
//! means the inserted frees are sound.

use crate::Options;
use gofree::cli::Observed;
use gofree::{compile, execute, PoisonMode, RunConfig, Setting};

pub fn run(opts: &Options) -> Result<Option<Observed>, String> {
    println!("Robustness (§6.8): mock tcfree corrupts instead of freeing\n");
    let mut checked = 0;
    let mut failed = 0;
    let mut observed = None;
    for w in gofree_workloads::all(opts.scale()) {
        let compiled =
            compile(&w.source, &opts.compile_options(Setting::GoFree)).expect("compiles");
        let clean = execute(&compiled, Setting::GoFree, &opts.run_config()).expect("clean run");
        for (label, poison) in [("zero", PoisonMode::Zero), ("flip", PoisonMode::Flip)] {
            let cfg = RunConfig {
                poison,
                ..opts.run_config()
            };
            checked += 1;
            match execute(&compiled, Setting::GoFree, &cfg) {
                Ok(r) if r.output == clean.output => {
                    println!("{:<10} {:<5} OK (output identical)", w.name, label);
                }
                Ok(_) => {
                    failed += 1;
                    println!("{:<10} {:<5} FAIL: output diverged", w.name, label);
                }
                Err(e) => {
                    failed += 1;
                    println!("{:<10} {:<5} FAIL: {e}", w.name, label);
                }
            }
        }
        observed = Some(clean);
    }
    println!(
        "\n{} poisoned runs, {} failures — {}",
        checked,
        failed,
        if failed == 0 {
            "the GoFree algorithm never freed live memory (paper: all tests pass)"
        } else {
            "UNSOUND FREES DETECTED"
        }
    );
    if failed > 0 {
        return Err(format!("{failed} poisoned run(s) failed"));
    }
    Ok(observed.map(|r| Observed::new(r, Vec::new())))
}
