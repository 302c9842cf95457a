//! Differential fuzzing campaign: generated programs must behave
//! identically under Go, GoFree, and GoFree with the poisoning mock
//! (§6.8). Any divergence is a miscompilation or an unsound free.
//!
//! `--runs N` controls the number of seeds (default 99).

use crate::Options;
use gofree::cli::Observed;
use gofree::{compile, execute, PoisonMode, RunConfig, Setting};
use gofree_workloads::fuzzgen;

pub fn run(opts: &Options) -> Result<Option<Observed>, String> {
    let seeds = opts.runs * 5;
    println!("Differential fuzz: {seeds} generated programs x 3 configurations");
    let mut failures = 0;
    let mut total_frees = 0u64;
    for seed in 0..seeds {
        let src = fuzzgen::generate(seed);
        let cfg = RunConfig::deterministic(seed);
        let result = (|| -> Result<u64, String> {
            let go =
                compile(&src, &opts.compile_options(Setting::Go)).map_err(|e| e.render(&src))?;
            let gofree = compile(&src, &opts.compile_options(Setting::GoFree))
                .map_err(|e| e.render(&src))?;
            let go_out = execute(&go, Setting::Go, &cfg).map_err(|e| e.to_string())?;
            let gf_out = execute(&gofree, Setting::GoFree, &cfg).map_err(|e| e.to_string())?;
            if go_out.output != gf_out.output {
                return Err(format!(
                    "OUTPUT DIVERGED: go={:?} gofree={:?}",
                    go_out.output.trim(),
                    gf_out.output.trim()
                ));
            }
            let poisoned = execute(
                &gofree,
                Setting::GoFree,
                &RunConfig {
                    poison: PoisonMode::Flip,
                    ..cfg.clone()
                },
            )
            .map_err(|e| format!("UNSOUND FREE: {e}"))?;
            if poisoned.output != go_out.output {
                return Err("POISONED OUTPUT DIVERGED".to_string());
            }
            Ok(gf_out.metrics.freed_bytes)
        })();
        match result {
            Ok(freed) => total_frees += freed,
            Err(msg) => {
                failures += 1;
                eprintln!("seed {seed}: {msg}\n--- program ---\n{src}");
            }
        }
        if seed % 100 == 99 {
            println!("  {}/{} seeds checked...", seed + 1, seeds);
        }
    }
    println!(
        "{seeds} seeds, {failures} failures; GoFree freed {total_frees} bytes across the campaign"
    );
    if failures > 0 {
        return Err(format!("{failures} of {seeds} generated programs diverged"));
    }
    println!("All generated programs behave identically under every configuration.");
    Ok(None)
}
