//! Cross-validation of the static free-safety auditor against the
//! dynamic shadow-heap sanitizer:
//!
//! * **Soundness gate** — on every program whose free sites the auditor
//!   proves, the sanitizer must report zero violations, on both engines.
//! * **Invisibility gate** — a run's observable report (output, time,
//!   steps, metrics, site profile) must be bit-identical with the
//!   sanitizer on or off.
//! * **Parallel gate** — sanitized distributions must be invariant under
//!   `--jobs`.
//! * **Bug-detection gate** — a deliberately buggy hand-instrumented
//!   program must be flagged by the sanitizer (and rejected by the
//!   auditor) on both engines, and `--audit deny` must make the same
//!   program run clean by stripping the unproven free.
//! * **Generational gate** — the soundness sweep must also hold under
//!   `--collector gen` (minor cycles sweep and recycle nursery slots the
//!   Go backend would leave alone), and a directed nursery-reuse
//!   use-after-free plant must be caught by the shadow heap on both
//!   engines, which end it alike: the stale store is dropped and the
//!   stale read fails as a read of poison.

use gofree::{
    compile, execute, run_distribution, run_session, AuditMode, CollectorKind, CompileOptions,
    Compiled, ExecError, FreePlacement, RunConfig, Setting, ViolationKind, VmEngine,
};
use gofree_workloads::{corpus, fuzzgen, Scale};

/// The corpus the gates sweep: all workloads, generated corpus programs,
/// and 20 fuzzed programs (fuzz entries may legitimately fail at run
/// time; those runs are skipped, not counted).
fn corpus_sources() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = gofree_workloads::all(Scale::Test)
        .into_iter()
        .map(|w| (w.name.to_string(), w.source))
        .collect();
    for nfuncs in [1, 4, 16] {
        out.push((format!("corpus n={nfuncs}"), corpus::generate(nfuncs)));
    }
    for seed in 0..20 {
        out.push((format!("fuzz seed={seed}"), fuzzgen::generate(seed)));
    }
    out
}

fn compile_audited(label: &str, src: &str) -> Compiled {
    let opts = CompileOptions {
        audit: AuditMode::Warn,
        ..CompileOptions::default()
    };
    compile(src, &opts).unwrap_or_else(|e| panic!("{label}: {}", e.render(src)))
}

#[test]
fn auditor_proved_programs_are_sanitizer_clean_on_both_engines() {
    let mut proved_sites = 0usize;
    let mut total_sites = 0usize;
    for (label, src) in corpus_sources() {
        let compiled = compile_audited(&label, &src);
        let report = compiled.audit.as_ref().expect("audit ran");
        proved_sites += report.proved();
        total_sites += report.sites.len();
        if report.proved() != report.sites.len() {
            // The soundness gate only covers proved programs; unproven
            // sites are exercised by the deny/strip tests below.
            continue;
        }
        for engine in [VmEngine::TreeWalk, VmEngine::Bytecode] {
            let cfg = RunConfig {
                engine,
                sanitize: true,
                ..RunConfig::deterministic(7)
            };
            let Ok(run) = execute(&compiled, Setting::GoFree, &cfg) else {
                continue; // fuzzed programs may fail (bounds, nil) — not a gate
            };
            assert!(
                run.violations.is_empty(),
                "{label} ({engine}): auditor proved every site but the sanitizer found {:?}",
                run.violations
            );
        }
    }
    // The whole sweep must also clear the paper-level bar: >= 95% of all
    // inserted free sites proved across the corpus.
    assert!(total_sites > 0, "corpus produced no free sites");
    let rate = proved_sites as f64 / total_sites as f64;
    assert!(
        rate >= 0.95,
        "proof rate {rate:.3} below 0.95 ({proved_sites}/{total_sites})"
    );
}

#[test]
fn auditor_proved_programs_are_sanitizer_clean_under_generational() {
    // The same soundness gate as above, under the generational backend:
    // a small nursery forces minor cycles, whose sweep recycles young
    // slots — any unsoundness in how tcfree and the nursery interact
    // (stale young-set entries, slots freed while reachable) shows up as
    // a shadow-heap violation here.
    for (label, src) in corpus_sources() {
        let compiled = compile_audited(&label, &src);
        let report = compiled.audit.as_ref().expect("audit ran");
        if report.proved() != report.sites.len() {
            continue;
        }
        for engine in [VmEngine::TreeWalk, VmEngine::Bytecode] {
            let cfg = RunConfig {
                engine,
                sanitize: true,
                collector: CollectorKind::Generational,
                nursery_size: 16 * 1024,
                ..RunConfig::deterministic(7)
            };
            let Ok(run) = execute(&compiled, Setting::GoFree, &cfg) else {
                continue; // fuzzed programs may fail (bounds, nil) — not a gate
            };
            assert!(
                run.violations.is_empty(),
                "{label} ({engine}, gen): auditor proved every site but the sanitizer found {:?}",
                run.violations
            );
        }
    }
}

#[test]
fn sanitizer_is_observationally_invisible() {
    for (label, src) in corpus_sources() {
        let compiled = compile_audited(&label, &src);
        for engine in [VmEngine::TreeWalk, VmEngine::Bytecode] {
            let run_with = |sanitize: bool| {
                let cfg = RunConfig {
                    engine,
                    sanitize,
                    ..RunConfig::deterministic(13)
                };
                execute(&compiled, Setting::GoFree, &cfg)
            };
            match (run_with(false), run_with(true)) {
                (Ok(plain), Ok(sanitized)) => {
                    assert_eq!(plain.output, sanitized.output, "{label} ({engine}): output");
                    assert_eq!(plain.time, sanitized.time, "{label} ({engine}): time");
                    assert_eq!(plain.steps, sanitized.steps, "{label} ({engine}): steps");
                    assert_eq!(
                        format!("{:?}", plain.metrics),
                        format!("{:?}", sanitized.metrics),
                        "{label} ({engine}): metrics"
                    );
                    assert_eq!(
                        plain.site_profile, sanitized.site_profile,
                        "{label} ({engine}): site profile"
                    );
                }
                (Err(p), Err(s)) => {
                    assert_eq!(p.to_string(), s.to_string(), "{label} ({engine}): error");
                }
                (p, s) => panic!(
                    "{label} ({engine}): sanitizer changed the outcome: \
                     off={p:?} on={s:?}"
                ),
            }
        }
    }
}

#[test]
fn sanitized_distributions_are_jobs_invariant() {
    let w = &gofree_workloads::all(Scale::Test)[0];
    let compiled = compile_audited(w.name, &w.source);
    for collector in CollectorKind::all() {
        let run_with = |jobs: usize| {
            let cfg = RunConfig {
                sanitize: true,
                jobs,
                collector,
                ..RunConfig::deterministic(3)
            };
            run_distribution(&compiled, Setting::GoFree, &cfg, 6).expect("distribution")
        };
        let seq = run_with(1);
        let par = run_with(2);
        assert_eq!(seq.len(), par.len());
        for (i, (a, b)) in seq.iter().zip(&par).enumerate() {
            assert_eq!(a.output, b.output, "{collector} run {i}: output");
            assert_eq!(a.time, b.time, "{collector} run {i}: time");
            assert_eq!(
                format!("{:?}", a.metrics),
                format!("{:?}", b.metrics),
                "{collector} run {i}: metrics"
            );
            assert_eq!(
                a.violations, b.violations,
                "{collector} run {i}: violations"
            );
        }
    }
}

/// The planted bug: a hand-written premature free of a still-live slice.
const PLANTED_BUG: &str =
    "func main() { n := 100\n s := make([]int, n)\n s[0] = 7\n tcfree(s)\n print(s[0]) }\n";

#[test]
fn planted_bug_is_caught_by_both_oracles_on_both_engines() {
    // Static side: the auditor rejects the hand-written free.
    let audited = compile(
        PLANTED_BUG,
        &CompileOptions {
            audit: AuditMode::Warn,
            ..CompileOptions::default()
        },
    )
    .expect("compiles");
    let report = audited.audit.as_ref().expect("audit ran");
    assert!(
        report.unproven().count() >= 1,
        "auditor must reject the premature free"
    );

    // Dynamic side: the sanitizer flags the stale read on both engines,
    // identically (violations are deterministic: object id + step).
    let mut flagged = Vec::new();
    for engine in [VmEngine::TreeWalk, VmEngine::Bytecode] {
        let cfg = RunConfig {
            engine,
            sanitize: true,
            ..RunConfig::deterministic(0)
        };
        let run = execute(&audited, Setting::GoFree, &cfg).expect("runs to completion");
        assert!(
            !run.violations.is_empty(),
            "{engine}: sanitizer missed the planted use-after-free"
        );
        assert_eq!(run.violations[0].kind, ViolationKind::UseAfterFree);
        flagged.push(run.violations);
    }
    assert_eq!(flagged[0], flagged[1], "engines agree on the violations");
}

/// The nursery-reuse plant: a slice is freed by hand, allocation churn
/// then drives the generational backend through minor cycles — whose
/// sweep recycles the freed nursery slot into new objects — and the
/// stale pointer is finally written and then read (or appended to, which
/// reads what it copies). `churn`'s buffer has a non-constant size, so
/// every iteration heap-allocates and the nursery fills fast. The slot
/// now holds another object, so the stale handle's payload was emptied
/// when the slot was reused: the store is dropped and the read fails as
/// a read of poison.
fn nursery_reuse_bug(stale_read: &str) -> String {
    format!(
        "func churn(n int) int {{ b := make([]int, n)\n b[0] = 1\n return b[0] }}\n\
         func main() {{ n := 64\n s := make([]int, n)\n s[0] = 7\n tcfree(s)\n \
         total := 0\n for i := 0; i < 2000; i += 1 {{ total += churn(64) }}\n \
         s[1] = 9\n print(total)\n {stale_read} }}\n"
    )
}

#[test]
fn nursery_reuse_plant_is_caught_by_the_shadow_heap() {
    for (stale_read, op) in [
        ("print(s[1] + total)", "slice index read"),
        ("s = append(s, 1)\n print(len(s))", "append"),
    ] {
        let audited = compile(
            &nursery_reuse_bug(stale_read),
            &CompileOptions {
                audit: AuditMode::Warn,
                ..CompileOptions::default()
            },
        )
        .expect("compiles");
        // The auditor already rejects the premature hand-written free.
        let report = audited.audit.as_ref().expect("audit ran");
        assert!(
            report.unproven().count() >= 1,
            "auditor must reject the premature free"
        );
        let mut flagged = Vec::new();
        for engine in [VmEngine::TreeWalk, VmEngine::Bytecode] {
            let cfg = RunConfig {
                engine,
                sanitize: true,
                collector: CollectorKind::Generational,
                nursery_size: 16 * 1024,
                ..RunConfig::deterministic(0)
            };
            let vm_cfg = cfg.vm_config(&audited, Setting::GoFree);
            let (ran, run) = run_session(&audited, vm_cfg, engine, cfg.opt, |s| Ok(s.call_main()))
                .expect("valid configuration");
            assert_eq!(
                ran,
                Err(ExecError::PoisonedRead),
                "{engine} {op}: the stale read"
            );
            assert_eq!(run.output, "2000\n", "{engine} {op}: the run up to it");
            assert!(
                run.metrics.gcs_minor >= 1,
                "{engine}: the churn loop must drive at least one minor cycle \
                 (got {:?} cycles) or the plant is not exercising the nursery",
                run.metrics.gcs
            );
            // The free went down the small-object allocation-index revert
            // path, so the stale store and read are classified as
            // use-after-revert — the revert flavour of use-after-free.
            let found: Vec<_> = run.violations.iter().map(|v| (v.op, v.kind)).collect();
            let revert = ViolationKind::UseAfterRevert;
            assert_eq!(
                found,
                [("slice index write", revert), (op, revert)],
                "{engine}: the shadow heap classifies both stale accesses"
            );
            flagged.push(run.violations);
        }
        assert_eq!(flagged[0], flagged[1], "engines agree on the violations");
    }
}

#[test]
fn lastuse_corpus_under_deny_is_sanitizer_clean_everywhere() {
    // The liveness-placement analogue of the soundness gate: compile the
    // whole corpus with `--free-placement lastuse --audit deny` (every
    // advanced and partial free either proved or stripped) and sweep the
    // shadow heap on both engines under both collectors.
    for (label, src) in corpus_sources() {
        let opts = CompileOptions {
            audit: AuditMode::Deny,
            free_placement: FreePlacement::LastUse,
            ..CompileOptions::default()
        };
        let compiled =
            compile(&src, &opts).unwrap_or_else(|e| panic!("{label}: {}", e.render(&src)));
        for engine in [VmEngine::TreeWalk, VmEngine::Bytecode] {
            for collector in CollectorKind::all() {
                let cfg = RunConfig {
                    engine,
                    sanitize: true,
                    collector,
                    nursery_size: 16 * 1024,
                    ..RunConfig::deterministic(7)
                };
                let Ok(run) = execute(&compiled, Setting::GoFree, &cfg) else {
                    continue; // fuzzed programs may fail (bounds, nil) — not a gate
                };
                assert!(
                    run.violations.is_empty(),
                    "{label} ({engine}, {collector}): lastuse+deny run must be \
                     sanitizer-clean, found {:?}",
                    run.violations
                );
            }
        }
    }
}

/// The lastuse plant: the same premature hand-written free as
/// [`PLANTED_BUG`], but compiled through the liveness-placement pipeline
/// (plan → instrument-with-plan) — a stand-in for a planner bug that
/// advances a free past a live use.
#[test]
fn planted_premature_free_under_lastuse_is_caught_and_denied() {
    let warn = compile(
        PLANTED_BUG,
        &CompileOptions {
            audit: AuditMode::Warn,
            free_placement: FreePlacement::LastUse,
            ..CompileOptions::default()
        },
    )
    .expect("compiles");
    let report = warn.audit.as_ref().expect("audit ran");
    assert!(
        report.unproven().count() >= 1,
        "auditor must reject the premature free under lastuse"
    );
    let stats = warn.placement.expect("lastuse carries stats");
    assert_eq!(
        stats.suppressed as usize,
        report.unproven().count(),
        "suppressed counter mirrors the audit"
    );
    let mut flagged = Vec::new();
    for engine in [VmEngine::TreeWalk, VmEngine::Bytecode] {
        let cfg = RunConfig {
            engine,
            sanitize: true,
            ..RunConfig::deterministic(0)
        };
        let run = execute(&warn, Setting::GoFree, &cfg).expect("runs to completion");
        assert!(
            !run.violations.is_empty(),
            "{engine}: sanitizer missed the planted use-after-free under lastuse"
        );
        assert_eq!(run.violations[0].kind, ViolationKind::UseAfterFree);
        flagged.push(run.violations);
    }
    assert_eq!(flagged[0], flagged[1], "engines agree on the violations");

    // `--audit deny` neutralizes the plant on both engines.
    let denied = compile(
        PLANTED_BUG,
        &CompileOptions {
            audit: AuditMode::Deny,
            free_placement: FreePlacement::LastUse,
            ..CompileOptions::default()
        },
    )
    .expect("compiles");
    assert!(denied.frees_suppressed >= 1, "deny stripped the bad free");
    for engine in [VmEngine::TreeWalk, VmEngine::Bytecode] {
        let cfg = RunConfig {
            engine,
            sanitize: true,
            ..RunConfig::deterministic(0)
        };
        let run = execute(&denied, Setting::GoFree, &cfg).expect("runs");
        assert_eq!(run.output, "7\n");
        assert!(
            run.violations.is_empty(),
            "{engine}: stripped lastuse program must be sanitizer-clean"
        );
    }
}

#[test]
fn audit_deny_makes_the_planted_bug_run_clean() {
    let denied = compile(
        PLANTED_BUG,
        &CompileOptions {
            audit: AuditMode::Deny,
            ..CompileOptions::default()
        },
    )
    .expect("compiles");
    assert!(denied.frees_suppressed >= 1, "deny stripped the bad free");
    for engine in [VmEngine::TreeWalk, VmEngine::Bytecode] {
        let cfg = RunConfig {
            engine,
            sanitize: true,
            ..RunConfig::deterministic(0)
        };
        let run = execute(&denied, Setting::GoFree, &cfg).expect("runs");
        assert_eq!(run.output, "7\n");
        assert!(
            run.violations.is_empty(),
            "{engine}: stripped program must be sanitizer-clean"
        );
        assert_eq!(
            run.metrics.frees_suppressed, denied.frees_suppressed,
            "{engine}: suppression count surfaces in run metrics"
        );
    }
}

/// Every shape that holds one call's result while a second call runs:
/// call arguments, composite-literal fields, a multi-value assignment,
/// an index base and `append`'s slice. `mk`, `mks` and `churn` allocate
/// enough to start a cycle while the first value waits.
const PENDING_ACROSS_A_CALL: &str = "type N struct { v int\n pad []int }\n\
    type Pair struct { a *N\n b *N }\n\
    func churn() int { t := 0\n for i := 0; i < 200; i += 1 { s := make([]int, 40+i%3)\n \
    s[0] = i\n t += s[0] }\n return t }\n\
    func mk(i int) *N { c := churn()\n return &N{i + c - 19900, make([]int, 8)} }\n\
    func mks(i int) []int { s := make([]int, 4+churn()-19900)\n s[0] = i\n return s }\n\
    func sum(a *N, b *N) int { return a.v + b.v }\n\
    func main() { t := 0\n for i := 0; i < 20; i += 1 {\n \
    t += sum(mk(i), mk(i+1))\n \
    p := &Pair{mk(i), mk(i+1)}\n t += p.a.v + p.b.v\n \
    a, b := mk(i), mk(i+1)\n t += a.v + b.v\n \
    t += mks(i)[churn()-19900]\n \
    s := append(mks(i), churn())\n t += s[0] + len(s) }\n \
    print(t) }\n";

#[test]
fn values_pending_across_a_call_are_roots_on_both_engines_and_collectors() {
    let compiled =
        compile(PENDING_ACROSS_A_CALL, &Setting::Go.compile_options()).expect("compiles");
    for collector in [CollectorKind::Go, CollectorKind::Generational] {
        for engine in [VmEngine::TreeWalk, VmEngine::Bytecode] {
            let cfg = RunConfig {
                engine,
                collector,
                sanitize: true,
                gogc: 10,
                min_heap: 16 * 1024,
                nursery_size: 8 * 1024,
                ..RunConfig::deterministic(0)
            };
            let run = execute(&compiled, Setting::Go, &cfg).expect("runs");
            assert_eq!(run.output, "1680\n", "{collector:?} {engine}");
            assert!(
                run.metrics.gcs >= 100,
                "{collector:?} {engine}: {}",
                run.metrics.gcs
            );
            assert!(
                run.violations.is_empty(),
                "{collector:?} {engine}: a pending value was swept: {:?}",
                run.violations
            );
        }
    }
}
