//! Differential gates for liveness-driven free placement (`--free-placement
//! lastuse` vs the §4.5 `scope` default):
//!
//! * **Output gate** — placement may change *when* frees run, never what
//!   the program computes: stdout must match bit-exactly over the
//!   workload corpus, generated corpus programs, and fuzz seeds.
//! * **Allocation gate** — placement happens after allocation decisions;
//!   allocation counts and bytes must be identical, and lastuse may only
//!   reclaim more (partial frees), never less.
//! * **Engine gate** — under the same placement, the tree-walk and
//!   bytecode engines must produce bit-identical reports.
//! * **Jobs gate** — lastuse distributions are `--jobs` invariant.
//! * **Drag gate** — per allocation site, mean alloc→tcfree drag under
//!   lastuse is never more than marginally above scope (an advanced
//!   free's tick charge can land inside another object's lifetime, so a
//!   site may shift by a few ticks; it must never grow materially).
//! * **Proof gate** — switching to lastuse introduces no new unproven
//!   free sites: every advanced and partial placement is re-proved by
//!   the independent auditor.

use gofree::{
    compile, execute, run_distribution, AuditMode, CompileOptions, Compiled, FreePlacement,
    Profile, RunConfig, Setting, VmEngine,
};
use gofree_workloads::{corpus, fuzzgen, Scale};

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

fn compile_placed(label: &str, src: &str, placement: FreePlacement) -> Compiled {
    let opts = CompileOptions {
        free_placement: placement,
        ..CompileOptions::default()
    };
    compile(src, &opts).unwrap_or_else(|e| panic!("{label}: {}", e.render(src)))
}

#[test]
fn lastuse_preserves_output_and_allocations_over_corpus() {
    for (label, src) in corpus_sources() {
        let scope = compile_placed(&label, &src, FreePlacement::Scope);
        let lastuse = compile_placed(&label, &src, FreePlacement::LastUse);
        assert!(scope.placement.is_none(), "{label}: scope carries no stats");
        let stats = lastuse.placement.expect("lastuse carries stats");
        assert_eq!(stats.mode.name(), "lastuse");
        for engine in [VmEngine::TreeWalk, VmEngine::Bytecode] {
            let cfg = RunConfig {
                engine,
                ..RunConfig::deterministic(11)
            };
            let s = execute(&scope, Setting::GoFree, &cfg);
            let l = execute(&lastuse, Setting::GoFree, &cfg);
            match (s, l) {
                (Ok(s), Ok(l)) => {
                    assert_eq!(s.output, l.output, "{label} ({engine}): output");
                    assert_eq!(
                        s.metrics.alloced_bytes, l.metrics.alloced_bytes,
                        "{label} ({engine}): allocation bytes"
                    );
                    assert_eq!(
                        s.metrics.alloced_objects, l.metrics.alloced_objects,
                        "{label} ({engine}): allocation count"
                    );
                    assert!(
                        l.metrics.freed_bytes >= s.metrics.freed_bytes,
                        "{label} ({engine}): lastuse reclaimed less \
                         ({} < {})",
                        l.metrics.freed_bytes,
                        s.metrics.freed_bytes
                    );
                }
                (Err(se), Err(le)) => {
                    // Fuzzed programs may legitimately fail (bounds, nil);
                    // both placements must fail the same way.
                    assert_eq!(se.to_string(), le.to_string(), "{label} ({engine}): error");
                }
                (s, l) => panic!(
                    "{label} ({engine}): placement changed the outcome: scope={s:?} lastuse={l:?}"
                ),
            }
        }
    }
}

#[test]
fn engines_agree_bit_exactly_under_lastuse() {
    for (label, src) in corpus_sources() {
        let lastuse = compile_placed(&label, &src, FreePlacement::LastUse);
        let run = |engine| {
            let cfg = RunConfig {
                engine,
                ..RunConfig::deterministic(5)
            };
            execute(&lastuse, Setting::GoFree, &cfg)
        };
        match (run(VmEngine::TreeWalk), run(VmEngine::Bytecode)) {
            (Ok(tw), Ok(bc)) => {
                assert_eq!(tw.output, bc.output, "{label}: output");
                assert_eq!(tw.time, bc.time, "{label}: virtual time");
                assert_eq!(tw.steps, bc.steps, "{label}: steps");
                assert_eq!(
                    format!("{:?}", tw.metrics),
                    format!("{:?}", bc.metrics),
                    "{label}: metrics"
                );
                assert_eq!(tw.site_profile, bc.site_profile, "{label}: site profile");
                assert_eq!(tw.placement, bc.placement, "{label}: placement stats");
            }
            (Err(t), Err(b)) => assert_eq!(t.to_string(), b.to_string(), "{label}: error"),
            (t, b) => {
                panic!("{label}: engines disagree on outcome: tree-walk={t:?} bytecode={b:?}")
            }
        }
    }
}

#[test]
fn lastuse_distributions_are_jobs_invariant() {
    let w = &gofree_workloads::all(Scale::Test)[0];
    let lastuse = compile_placed(w.name, &w.source, FreePlacement::LastUse);
    let run_with = |jobs: usize| {
        let cfg = RunConfig {
            jobs,
            jitter: 0.02,
            ..RunConfig::deterministic(9)
        };
        run_distribution(&lastuse, Setting::GoFree, &cfg, 6).expect("distribution")
    };
    let seq = run_with(1);
    let par = run_with(3);
    assert_eq!(seq.len(), par.len());
    for (i, (a, b)) in seq.iter().zip(&par).enumerate() {
        assert_eq!(a.output, b.output, "run {i}: output");
        assert_eq!(a.time, b.time, "run {i}: time");
        assert_eq!(
            format!("{:?}", a.metrics),
            format!("{:?}", b.metrics),
            "run {i}: metrics"
        );
        assert_eq!(a.placement, b.placement, "run {i}: placement stats");
    }
}

/// An advanced free's tick charge can move inside another object's
/// lifetime, lengthening that object's drag by the cost of the free
/// operation itself — a few virtual ticks. Anything beyond this bound
/// means a placement actually regressed.
const DRAG_SLACK_TICKS: f64 = 8.0;

#[test]
fn per_site_drag_is_non_increasing_under_lastuse() {
    for w in gofree_workloads::all(Scale::Test) {
        let scope = compile_placed(w.name, &w.source, FreePlacement::Scope);
        let lastuse = compile_placed(w.name, &w.source, FreePlacement::LastUse);
        let profile_of = |c: &Compiled| {
            let cfg = RunConfig {
                trace: true,
                ..RunConfig::deterministic(2)
            };
            let report = execute(c, Setting::GoFree, &cfg).expect("runs");
            let p = Profile::build(report.trace.as_ref().expect("traced"));
            p.reconcile(&report.metrics).expect("reconciles");
            p
        };
        let sp = profile_of(&scope);
        let lp = profile_of(&lastuse);
        let means = |p: &Profile| -> Vec<(u32, f64)> {
            p.sites
                .iter()
                .filter_map(|d| {
                    let site = d.site?;
                    (d.tcfree.count() > 0)
                        .then(|| (site, d.tcfree.sum() as f64 / d.tcfree.count() as f64))
                })
                .collect()
        };
        let scope_means = means(&sp);
        for (site, l_mean) in means(&lp) {
            let Some((_, s_mean)) = scope_means.iter().find(|(s, _)| *s == site) else {
                continue; // partial frees reclaim sites scope never tcfrees
            };
            assert!(
                l_mean <= s_mean + DRAG_SLACK_TICKS,
                "{} site {site}: lastuse drag {l_mean:.1} > scope {s_mean:.1}",
                w.name
            );
        }
    }
}

#[test]
fn lastuse_introduces_no_new_unproven_sites() {
    for (label, src) in corpus_sources() {
        let audit_with = |placement| {
            let opts = CompileOptions {
                audit: AuditMode::Warn,
                free_placement: placement,
                ..CompileOptions::default()
            };
            let c = compile(&src, &opts).unwrap_or_else(|e| panic!("{label}: {}", e.render(&src)));
            let unproven = c.audit.as_ref().expect("audit ran").unproven().count();
            (c, unproven)
        };
        let (_, scope_unproven) = audit_with(FreePlacement::Scope);
        let (lastuse, lastuse_unproven) = audit_with(FreePlacement::LastUse);
        assert_eq!(
            lastuse_unproven, scope_unproven,
            "{label}: placement changed provability"
        );
        let stats = lastuse.placement.expect("stats");
        assert_eq!(
            stats.suppressed as usize, lastuse_unproven,
            "{label}: suppressed counter mirrors the audit"
        );
    }
}

/// A struct local declared three arms down an `else if` chain is found
/// like any other: both of its fields get a partial free, each proved by
/// the auditor, and the program prints what it printed before.
#[test]
fn struct_local_in_a_third_else_if_arm_is_partially_freed() {
    let src = r#"
type T struct {
    a []int
    b map[int]int
}

func f(n int) int {
    r := 0
    if n == 0 {
        r = 1
    } else if n == 1 {
        r = 2
    } else if n > 1 {
        x := &T{make([]int, n), make(map[int]int)}
        x.a[0] = n
        r = x.a[0]
        x.b[1] = r
        r += x.b[1]
        print(r)
        print(n)
    }
    return r
}

func main() {
    print(f(5))
}
"#;
    let opts = CompileOptions {
        audit: AuditMode::Warn,
        free_placement: FreePlacement::LastUse,
        ..CompileOptions::default()
    };
    let lastuse = compile(src, &opts).expect("compiles");
    assert_eq!(lastuse.placement.expect("stats").partial_frees, 2);
    let audit = lastuse.audit.as_ref().expect("audit ran");
    let partial: Vec<_> = audit
        .sites
        .iter()
        .filter(|s| s.target.starts_with("x."))
        .collect();
    assert_eq!(partial.len(), 2, "{}", audit.render());
    assert!(
        partial.iter().all(|s| s.verdict.is_proved()),
        "{}",
        audit.render()
    );
    let scope = compile_placed("else-if", src, FreePlacement::Scope);
    for engine in [VmEngine::TreeWalk, VmEngine::Bytecode] {
        let cfg = RunConfig {
            engine,
            ..RunConfig::deterministic(2)
        };
        let s = execute(&scope, Setting::GoFree, &cfg).unwrap();
        let l = execute(&lastuse, Setting::GoFree, &cfg).unwrap();
        assert_eq!(l.output, "10\n5\n10\n");
        assert_eq!(s.output, l.output, "{engine}");
    }
}
