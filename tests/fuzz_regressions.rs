//! Replays the minimized fuzz-regression corpus (`tests/regressions/`)
//! through the full differential property set, and keeps the corpus
//! honest: a short fuzzing sweep runs on every test invocation, and any
//! new divergence is ddmin-minimized and written into the corpus before
//! the test fails.

use gofree::{
    compile, execute, Category, CollectorKind, CompileOptions, OptLevel, PoisonMode, RunConfig,
    Setting, VmEngine,
};
use gofree_workloads::{fuzzgen, regressions};

/// Returns a description of the first divergence `src` exhibits, or
/// `None` when the program behaves identically under Go, GoFree,
/// poisoned GoFree, both engines, and both bytecode opt levels
/// (including their event traces). Compile errors count as "no
/// divergence" so the minimizer never walks out of the language.
fn divergence(src: &str) -> Option<String> {
    let cfg = RunConfig {
        seed: 5,
        min_heap: 128 * 1024,
        trace: true,
        ..RunConfig::default()
    };
    let go = compile(src, &CompileOptions::go()).ok()?;
    let gofree = compile(src, &CompileOptions::default()).ok()?;
    let go_out = execute(&go, Setting::Go, &cfg).ok()?;
    let gf_out = execute(&gofree, Setting::GoFree, &cfg).ok()?;
    if go_out.output != gf_out.output {
        return Some(format!(
            "output diverged: go={:?} gofree={:?}",
            go_out.output.trim(),
            gf_out.output.trim()
        ));
    }
    let poisoned = match execute(
        &gofree,
        Setting::GoFree,
        &RunConfig {
            poison: PoisonMode::Zero,
            ..cfg.clone()
        },
    ) {
        Ok(r) => r,
        Err(e) => return Some(format!("unsound free: {e}")),
    };
    if poisoned.output != go_out.output {
        return Some("poisoned output diverged".to_string());
    }
    for (compiled, setting, report) in [
        (&go, Setting::Go, &go_out),
        (&gofree, Setting::GoFree, &gf_out),
    ] {
        let tree = execute(
            compiled,
            setting,
            &RunConfig {
                engine: VmEngine::TreeWalk,
                ..cfg.clone()
            },
        )
        .ok()?;
        if tree.output != report.output || tree.time != report.time {
            return Some(format!("{setting}: engines diverge on output/time"));
        }
        if tree.trace != report.trace {
            return Some(format!("{setting}: engines diverge on the event trace"));
        }
        if let Some(trace) = &report.trace {
            if let Err(e) = trace.reconcile(&report.metrics) {
                return Some(format!("{setting}: trace does not reconcile: {e}"));
            }
        }
        // The default runs above executed the optimized stream; the
        // baseline (`--opt off`) stream must be bit-identical on every
        // observable too.
        let raw = execute(
            compiled,
            setting,
            &RunConfig {
                opt: OptLevel::Off,
                ..cfg.clone()
            },
        )
        .ok()?;
        if raw.output != report.output || raw.time != report.time || raw.steps != report.steps {
            return Some(format!(
                "{setting}: opt levels diverge on output/time/steps"
            ));
        }
        if format!("{:?}", raw.metrics) != format!("{:?}", report.metrics) {
            return Some(format!("{setting}: opt levels diverge on metrics"));
        }
        if raw.trace != report.trace {
            return Some(format!("{setting}: opt levels diverge on the event trace"));
        }
    }
    None
}

#[test]
fn corpus_replays_clean() {
    let corpus = regressions::load();
    assert!(
        corpus.len() >= 5,
        "regression corpus must stay seeded (found {})",
        corpus.len()
    );
    for (name, src) in &corpus {
        // Every corpus program must still be a valid, divergence-free
        // MiniGo program — it documents a *fixed* bug.
        compile(src, &CompileOptions::default())
            .unwrap_or_else(|e| panic!("{name}: no longer compiles: {}", e.render(src)));
        if let Some(what) = divergence(src) {
            panic!("{name}: regressed: {what}\n--- program ---\n{src}");
        }
    }
}

/// `escaping_param_and_result.mgo`'s declarations with each escaping
/// parameter, and the named result, copied into a local first: the
/// boxes a declared variable always got.
const LOCAL_COPIES: &str = "type N struct {
    v    int
    next *N
}

func f(x0 N) *N {
    x := x0
    return &x
}

func g(i0 int) *int {
    i := i0
    return &i
}

func h(k int) (int, *int) {
    r := k * 2
    p := &r
    return r, p
}

";

#[test]
fn escaping_params_and_results_are_boxed_like_locals() {
    let (_, src) = regressions::load()
        .into_iter()
        .find(|(name, _)| name == "escaping_param_and_result")
        .expect("the corpus holds escaping_param_and_result.mgo");
    let main = src.find("func main()").expect("a main");
    let twin = format!("{LOCAL_COPIES}{}", &src[main..]);
    let other = Category::Other.index();
    for (setting, opts) in [
        (Setting::Go, CompileOptions::go()),
        (Setting::GoFree, CompileOptions::default()),
    ] {
        let params = compile(&src, &opts).expect("compiles");
        let locals = compile(&twin, &opts).expect("compiles");
        for collector in CollectorKind::all() {
            for engine in [VmEngine::Bytecode, VmEngine::TreeWalk] {
                let cfg = RunConfig {
                    collector,
                    engine,
                    sanitize: true,
                    // Small enough that cycles run while the boxes live.
                    min_heap: 8 * 1024,
                    nursery_size: 4 * 1024,
                    ..RunConfig::default()
                };
                let run = |c| execute(c, setting, &cfg).expect("runs");
                let (p, l) = (run(&params), run(&locals));
                let at = format!("{setting} {collector:?} {engine:?}");
                assert_eq!(p.output, l.output, "{at}");
                assert!(p.violations.is_empty(), "{at}: {:?}", p.violations);
                assert!(l.violations.is_empty(), "{at}: {:?}", l.violations);
                assert_eq!(
                    p.metrics.heap_allocs[other], l.metrics.heap_allocs[other],
                    "{at}"
                );
                assert_eq!(p.metrics.alloced_bytes, l.metrics.alloced_bytes, "{at}");
                // One box per call of `f`, `g` and `h`.
                assert_eq!(p.metrics.heap_allocs[other], 3000, "{at}");
                assert!(p.metrics.gcs > 0, "{at}: no cycle ran");
            }
        }
    }
}

#[test]
fn fuzz_sweep_minimizes_new_divergences_into_corpus() {
    // A short always-on sweep. On a find, the divergence is shrunk with
    // the same predicate and saved under tests/regressions/ so the repro
    // outlives the failing CI run.
    for seed in 100..140u64 {
        let src = fuzzgen::generate(seed);
        if let Some(what) = divergence(&src) {
            let min = regressions::minimize(&src, |s| divergence(s).is_some());
            let path = regressions::save(&format!("fuzz_seed_{seed}"), &min);
            panic!(
                "fuzz seed {seed} diverged ({what}); minimized repro saved to {}",
                path.display()
            );
        }
    }
}

#[test]
fn minimizer_shrinks_against_the_real_toolchain() {
    // End-to-end check of the ddmin loop with a semantic predicate: the
    // candidate must still compile *and* allocate through `make`. The
    // noise statements are droppable; the make/print skeleton is not.
    let src = "func main() {\n    a := 1\n    b := a + 2\n    s := make([]int, 8)\n    c := b * 3\n    print(len(s))\n    print(c)\n}\n";
    let keeps = |s: &str| s.contains("make(") && compile(s, &CompileOptions::default()).is_ok();
    let min = regressions::minimize(src, keeps);
    assert!(min.len() < src.len(), "minimizer failed to shrink");
    assert!(min.contains("make("));
    assert!(compile(&min, &CompileOptions::default()).is_ok());
    // The arithmetic noise is gone.
    assert!(!min.contains("b * 3"));
}
