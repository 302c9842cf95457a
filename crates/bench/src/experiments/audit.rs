//! Free-safety audit report: runs the independent auditor over the
//! whole workload/corpus/fuzz sweep, prints per-program proof rates,
//! then cross-validates every fully-proved program against the
//! shadow-heap sanitizer on both engines (zero violations required) and
//! demonstrates detection on a planted use-after-free.
//!
//! Regenerates `results/audit.txt`. It runs both engines itself, so it
//! does not read `--engine`.

use crate::{pct, Options};
use gofree::cli::Observed;
use gofree::{
    compile, execute, AuditMode, CompileOptions, RunConfig, Setting, ViolationKind, VmEngine,
};
use gofree_workloads::{corpus, fuzzgen};

pub fn run(opts: &Options) -> Result<Option<Observed>, String> {
    let fuzz_seeds = if opts.quick { 20 } else { 60 };

    let mut programs: Vec<(String, String, bool)> = gofree_workloads::all(opts.scale())
        .into_iter()
        .map(|w| (w.name.to_string(), w.source, true))
        .collect();
    let nworkloads = programs.len();
    for nfuncs in [1, 4, 16] {
        programs.push((format!("corpus-{nfuncs}"), corpus::generate(nfuncs), false));
    }
    for seed in 0..fuzz_seeds {
        programs.push((format!("fuzz-{seed}"), fuzzgen::generate(seed), false));
    }

    println!(
        "Free-safety audit over {} programs ({} workloads, 3 corpus, {} fuzzed)\n",
        programs.len(),
        nworkloads,
        fuzz_seeds,
    );
    println!(
        "{:<12} {:>6} {:>7} {:>6}",
        "program", "sites", "proved", "rate"
    );

    let audit_opts = CompileOptions {
        audit: AuditMode::Warn,
        ..opts.compile_options(Setting::GoFree)
    };
    let mut wl_sites = 0usize;
    let mut wl_proved = 0usize;
    let mut all_sites = 0usize;
    let mut all_proved = 0usize;
    let mut violations = 0usize;
    let mut checked_runs = 0usize;
    for (name, src, is_workload) in &programs {
        let compiled = compile(src, &audit_opts).expect("sweep programs compile");
        let report = compiled.audit.as_ref().expect("audit ran");
        let proved = report.proved();
        let total = report.sites.len();
        println!(
            "{name:<12} {total:>6} {proved:>7} {:>6}",
            pct(report.proof_rate())
        );
        for site in report.unproven() {
            println!(
                "             unproven: {}({}) in {}: {}",
                site.kind, site.target, site.func, site.verdict
            );
        }
        all_sites += total;
        all_proved += proved;
        if *is_workload {
            wl_sites += total;
            wl_proved += proved;
        }

        // Sanitizer cross-check: a fully-proved program must run with
        // zero shadow-heap violations on both engines. Fuzzed programs
        // may fail at run time (bounds, nil) — those runs prove nothing
        // about free safety and are skipped.
        if proved != total {
            continue;
        }
        for engine in [VmEngine::TreeWalk, VmEngine::Bytecode] {
            let cfg = RunConfig {
                engine,
                sanitize: true,
                ..opts.run_config()
            };
            if let Ok(run) = execute(&compiled, Setting::GoFree, &cfg) {
                checked_runs += 1;
                if !run.violations.is_empty() {
                    violations += run.violations.len();
                    eprintln!("  !! {name} ({engine}): {:?}", run.violations);
                }
            }
        }
    }

    let wl_rate = wl_proved as f64 / wl_sites.max(1) as f64;
    let all_rate = all_proved as f64 / all_sites.max(1) as f64;
    println!(
        "\nworkloads: {wl_proved}/{wl_sites} sites proved ({})",
        pct(wl_rate)
    );
    println!(
        "overall:   {all_proved}/{all_sites} sites proved ({})",
        pct(all_rate)
    );
    println!("sanitizer: {violations} violations across {checked_runs} sanitized runs");

    // Detection check: the sanitizer and the auditor must both catch a
    // planted premature free, and `--audit deny` must neutralize it.
    let bug =
        "func main() { n := 100\n s := make([]int, n)\n s[0] = 7\n tcfree(s)\n print(s[0]) }\n";
    let warned = compile(bug, &audit_opts).expect("bug compiles");
    let unproven = warned.audit.as_ref().unwrap().unproven().count();
    assert!(unproven >= 1, "auditor must flag the planted bug");
    let mut caught = 0;
    for engine in [VmEngine::TreeWalk, VmEngine::Bytecode] {
        let cfg = RunConfig {
            engine,
            sanitize: true,
            ..opts.run_config()
        };
        let run = execute(&warned, Setting::GoFree, &cfg).expect("bug runs");
        if run
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::UseAfterFree)
        {
            caught += 1;
        }
    }
    assert_eq!(
        caught, 2,
        "sanitizer must catch the planted bug on both engines"
    );
    let denied = compile(
        bug,
        &CompileOptions {
            audit: AuditMode::Deny,
            ..opts.compile_options(Setting::GoFree)
        },
    )
    .expect("bug compiles under deny");
    println!(
        "planted bug: auditor flagged {unproven} site(s), sanitizer caught it on both engines, \
         deny stripped {} free(s)",
        denied.frees_suppressed
    );

    // Headline invariants (the PR's acceptance bars).
    assert!(
        wl_rate >= 0.95,
        "workload proof rate {wl_rate:.3} below the 0.95 bar"
    );
    assert_eq!(violations, 0, "sanitizer must be clean on proved programs");
    println!("\nAll audit invariants hold.");
    Ok(None)
}
