//! Stack-attributed garbage attribution: for every subject workload, run
//! Go and GoFree traced, fold the event stream into a per-call-stack
//! allocation profile (reconciled field-exactly against the run's
//! [`gofree::Report::metrics`]), and print the top-10 garbage-producing
//! stacks under each setting — showing *where* GoFree's compiler-
//! inserted frees remove garbage at its source, not just how much.
//!
//! "Garbage" is every byte a stack handed to the collector: gc-swept
//! bytes plus bytes still live at finalization. Under GoFree the same
//! stacks should show those bytes migrating to the `tcfreed` column.
//! Each workload's closing line compiles once more under `lastuse`,
//! whatever `--free-placement` says, to show the drag it recovers.

use crate::{pct, Options};
use gofree::cli::Observed;
use gofree::{Profile, RunConfig, Setting, StackStat};

/// Rows shown per setting, the paper-table convention.
const TOP: usize = 10;

pub fn run(opts: &Options) -> Result<Option<Observed>, String> {
    let cfg = RunConfig {
        trace: true,
        ..opts.run_config()
    };
    println!("Garbage attribution by call stack (top {TOP} stacks, Go vs GoFree)\n");
    let mut last_gofree = None;
    for w in gofree_workloads::all(opts.scale()) {
        println!("== {} ==", w.name);
        let mut garbage = [0u64; 2];
        let mut scope_profile = None;
        for (i, setting) in [Setting::Go, Setting::GoFree].into_iter().enumerate() {
            let compiled =
                gofree::compile(&w.source, &opts.compile_options(setting)).expect("compiles");
            let report = gofree::execute(&compiled, setting, &cfg).expect("runs");
            let trace = report.trace.as_ref().expect("traced run carries a trace");
            let profile = Profile::build(trace);
            profile
                .reconcile(&report.metrics)
                .unwrap_or_else(|e| panic!("{}/{setting}: {e}", w.name));
            let t = profile.totals();
            garbage[i] = t.garbage_bytes();
            println!(
                "{setting}: allocated {} B, tcfreed {} B ({}), garbage {} B \
                 (swept {} B + leftover {} B), {} GCs",
                t.alloc_bytes,
                t.free_bytes,
                pct(t.free_bytes as f64 / t.alloc_bytes.max(1) as f64),
                t.garbage_bytes(),
                t.swept_bytes,
                t.leftover_bytes,
                report.metrics.gcs,
            );
            let ranked = profile.ranked_by(|s: &StackStat| s.garbage_bytes());
            let shown: Vec<_> = ranked
                .iter()
                .filter(|(_, s)| s.garbage_bytes() > 0)
                .take(TOP)
                .collect();
            if shown.is_empty() {
                println!("  (no garbage: every allocation was stack-placed or tcfreed)");
            } else {
                println!(
                    "  {:>12} {:>12} {:>12} {:>6}  stack",
                    "garbage B", "swept B", "leftover B", "freed%"
                );
                for (id, s) in shown {
                    println!(
                        "  {:>12} {:>12} {:>12} {:>5}%  {}",
                        s.garbage_bytes(),
                        s.swept_bytes,
                        s.leftover_bytes,
                        (s.free_bytes * 100).checked_div(s.alloc_bytes).unwrap_or(0),
                        trace.stacks.folded(*id),
                    );
                }
            }
            if setting == Setting::GoFree {
                scope_profile = Some(profile);
                last_gofree = Some((report, compiled.phase_times.clone()));
            }
        }
        let scope_profile = scope_profile.expect("GoFree setting profiled");
        let removed = garbage[0].saturating_sub(garbage[1]);
        println!(
            "GoFree removed {removed} B of garbage ({} of Go's)",
            pct(removed as f64 / garbage[0].max(1) as f64)
        );
        // The remaining alloc→tcfree gap is placement drag; compile once
        // more under lastuse to show how much of it liveness-driven
        // placement recovers whatever `--free-placement` says (the
        // `liveness` experiment studies this fully).
        let lastuse_opts = gofree::CompileOptions {
            free_placement: gofree::FreePlacement::LastUse,
            ..opts.compile_options(Setting::GoFree)
        };
        let lu = gofree::compile(&w.source, &lastuse_opts).expect("compiles");
        let lu_report = gofree::execute(&lu, Setting::GoFree, &cfg).expect("runs");
        let lu_trace = lu_report.trace.as_ref().expect("traced");
        let lu_profile = Profile::build(lu_trace);
        lu_profile
            .reconcile(&lu_report.metrics)
            .unwrap_or_else(|e| panic!("{}/lastuse: {e}", w.name));
        let drag = |p: &Profile| {
            let (ticks, count) = p.sites.iter().fold((0u64, 0u64), |(t, c), d| {
                (t + d.tcfree.sum(), c + d.tcfree.count())
            });
            ticks as f64 / count.max(1) as f64
        };
        let (sc, lu_drag) = (drag(&scope_profile), drag(&lu_profile));
        let stats = lu.placement.expect("lastuse compile carries stats");
        println!(
            "lastuse placement: mean tcfree drag {sc:.1} -> {lu_drag:.1} ticks ({}), \
             advanced {} free(s), {} partial free(s)\n",
            pct((lu_drag + 1.0) / (sc + 1.0)),
            stats.lastuse_advanced,
            stats.partial_frees,
        );
    }
    println!("Every profile above reconciled field-exactly with the run's Metrics.");
    Ok(last_gofree.map(|(report, phases)| Observed::new(report, phases)))
}
