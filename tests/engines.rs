//! Differential tests: the bytecode engine — at both `--opt off`
//! (baseline lowering) and `--opt full` (the optimizer tier) — must be
//! observationally identical to the tree-walking interpreter:
//! byte-identical program output, the same `tcfree` insertion counts,
//! and bit-identical runtime metrics (allocations, frees, GC cycles,
//! virtual time) on every workload, in both Go and GoFree modes.

use gofree::{
    compile, execute, run_session, CompileOptions, Compiled, OptLevel, Report, RunConfig, Setting,
    VmEngine,
};
use gofree_workloads::{corpus, fuzzgen, micro, Scale};
use minigo_runtime::{CollectorKind, PoisonMode, RuntimeConfig};
use minigo_vm::{Dispatch, RunOutcome, Session, Value, VmConfig};

/// Runs one compiled program on the tree-walk and on the bytecode
/// engine at both opt levels, asserting every observable field of the
/// three reports matches.
fn assert_engines_agree(label: &str, compiled: &Compiled, setting: Setting, cfg: &RunConfig) {
    let run_on = |engine: VmEngine, opt: OptLevel| -> Report {
        let cfg = RunConfig {
            engine,
            opt,
            ..cfg.clone()
        };
        execute(compiled, setting, &cfg)
            .unwrap_or_else(|e| panic!("{label} ({setting}, {engine}, opt {opt}): {e}"))
    };
    let tree = run_on(VmEngine::TreeWalk, OptLevel::Off);
    for opt in [OptLevel::Off, OptLevel::Full] {
        let byte = run_on(VmEngine::Bytecode, opt);
        assert_eq!(
            tree.output, byte.output,
            "{label} ({setting}/{opt}): output"
        );
        assert_eq!(tree.time, byte.time, "{label} ({setting}/{opt}): time");
        assert_eq!(tree.steps, byte.steps, "{label} ({setting}/{opt}): steps");
        assert_eq!(
            format!("{:?}", tree.metrics),
            format!("{:?}", byte.metrics),
            "{label} ({setting}/{opt}): metrics"
        );
        assert_eq!(
            tree.site_profile, byte.site_profile,
            "{label} ({setting}/{opt}): site profile"
        );
    }
}

/// Compiles `src` both ways and checks engine agreement under Go and
/// GoFree (the two compilers produce different programs — both must
/// agree across engines), plus the GC-off setting.
fn check_source(label: &str, src: &str, cfg: &RunConfig) {
    let go = compile(src, &CompileOptions::go())
        .unwrap_or_else(|e| panic!("{label}: {}", e.render(src)));
    let gofree = compile(src, &CompileOptions::default())
        .unwrap_or_else(|e| panic!("{label}: {}", e.render(src)));
    assert!(
        gofree.free_count() == gofree.analysis.stats.to_free,
        "{label}: free_count is engine-independent"
    );
    assert_engines_agree(label, &go, Setting::Go, cfg);
    assert_engines_agree(label, &go, Setting::GoGcOff, cfg);
    assert_engines_agree(label, &gofree, Setting::GoFree, cfg);
}

#[test]
fn engines_agree_on_all_workloads() {
    for w in gofree_workloads::all(Scale::Test) {
        check_source(w.name, &w.source, &RunConfig::deterministic(7));
    }
}

#[test]
fn engines_agree_on_lowfree_workload() {
    let w = gofree_workloads::programs::lowfree(Scale::Test);
    check_source(w.name, &w.source, &RunConfig::deterministic(7));
}

#[test]
fn engines_agree_with_jitter_and_migrations() {
    // Parity must hold for any seed, including with clock jitter and
    // scheduler migrations enabled: both engines must draw the same RNG
    // sequence from the simulated runtime.
    for seed in [0xDEAD_BEEF] {
        let cfg = RunConfig {
            seed,
            ..RunConfig::default()
        };
        for w in gofree_workloads::all(Scale::Test) {
            check_source(w.name, &w.source, &cfg);
        }
    }
}

#[test]
fn engines_agree_on_map_micro() {
    for &c in micro::C_VALUES {
        let src = micro::source(c, 20_000);
        check_source(&format!("micro c={c}"), &src, &RunConfig::deterministic(3));
    }
}

#[test]
fn engines_agree_on_generated_corpus() {
    for nfuncs in [1, 4, 16] {
        let src = corpus::generate(nfuncs);
        check_source(
            &format!("corpus n={nfuncs}"),
            &src,
            &RunConfig::deterministic(11),
        );
    }
}

#[test]
fn engines_agree_on_fuzzed_programs() {
    for seed in 0..40 {
        let src = fuzzgen::generate(seed);
        let label = format!("fuzz seed={seed}");
        // Fuzzed programs may legitimately fail at run time (bounds,
        // nil); both engines must then fail identically too, so compare
        // the full result including the error rendering.
        let go = compile(&src, &CompileOptions::go())
            .unwrap_or_else(|e| panic!("{label}: {}", e.render(&src)));
        let gofree = compile(&src, &CompileOptions::default())
            .unwrap_or_else(|e| panic!("{label}: {}", e.render(&src)));
        for (compiled, setting) in [(&go, Setting::Go), (&gofree, Setting::GoFree)] {
            let run_on = |engine: VmEngine, opt: OptLevel| {
                let cfg = RunConfig {
                    engine,
                    opt,
                    ..RunConfig::deterministic(5)
                };
                execute(compiled, setting, &cfg)
            };
            let tree = run_on(VmEngine::TreeWalk, OptLevel::Off);
            for opt in [OptLevel::Off, OptLevel::Full] {
                match (&tree, run_on(VmEngine::Bytecode, opt)) {
                    (Ok(t), Ok(b)) => {
                        assert_eq!(t.output, b.output, "{label} ({setting}/{opt}): output");
                        assert_eq!(t.time, b.time, "{label} ({setting}/{opt}): time");
                        assert_eq!(
                            format!("{:?}", t.metrics),
                            format!("{:?}", b.metrics),
                            "{label} ({setting}/{opt}): metrics"
                        );
                    }
                    (Err(t), Err(b)) => {
                        assert_eq!(
                            t.to_string(),
                            b.to_string(),
                            "{label} ({setting}/{opt}): error"
                        );
                    }
                    (t, b) => panic!(
                        "{label} ({setting}/{opt}): engines disagree on success: \
                         tree-walk={t:?} bytecode={b:?}"
                    ),
                }
            }
        }
    }
}

#[test]
fn opt_levels_agree_on_traces_and_folded_profiles() {
    // The optimizer tier must preserve the runtime event stream and the
    // stack-attributed profile bit-for-bit, not just the scalar
    // metrics: traced runs at `--opt off` and `--opt full` must emit
    // identical event sequences and fold to identical profiles.
    let cfg = RunConfig {
        trace: true,
        ..RunConfig::deterministic(7)
    };
    for w in gofree_workloads::all(Scale::Test) {
        let compiled = compile(&w.source, &CompileOptions::default())
            .unwrap_or_else(|e| panic!("{}: {}", w.name, e.render(&w.source)));
        let run_at = |opt: OptLevel| -> Report {
            let cfg = RunConfig { opt, ..cfg.clone() };
            execute(&compiled, Setting::GoFree, &cfg)
                .unwrap_or_else(|e| panic!("{} (opt {opt}): {e}", w.name))
        };
        let off = run_at(OptLevel::Off);
        let full = run_at(OptLevel::Full);
        let t_off = off.trace.as_ref().expect("traced run");
        let t_full = full.trace.as_ref().expect("traced run");
        assert_eq!(
            format!("{:?}", t_off.events),
            format!("{:?}", t_full.events),
            "{}: trace events differ across opt levels",
            w.name
        );
        t_full
            .reconcile(&full.metrics)
            .unwrap_or_else(|e| panic!("{}: optimized trace reconciles: {e}", w.name));
        let p_off = gofree::Profile::build(t_off);
        let p_full = gofree::Profile::build(t_full);
        let folded_off =
            gofree::folded_stacks(&p_off, &t_off.stacks, gofree::FoldedMetric::AllocBytes);
        let folded_full =
            gofree::folded_stacks(&p_full, &t_full.stacks, gofree::FoldedMetric::AllocBytes);
        assert_eq!(
            folded_off, folded_full,
            "{}: folded profiles differ across opt levels",
            w.name
        );
        // The optimizer actually did something on real workloads, and
        // the run reports it.
        let stats = full.opt.as_ref().expect("optimized run carries stats");
        assert!(
            stats.instrs_after < stats.instrs_before,
            "{}: optimizer had no effect: {stats:?}",
            w.name
        );
        assert!(off.opt.is_none(), "{}: --opt off carries no stats", w.name);
    }
}

#[test]
fn lowered_jump_targets_are_all_patched_and_in_bounds() {
    // The lowerer resolves forward jumps through a single back-patch
    // table applied once per function; every emitted placeholder must
    // have been claimed. A leftover `usize::MAX` (or any out-of-bounds
    // target) in either the baseline or the optimized stream would mean
    // a patch was recorded against the wrong index.
    let mut srcs: Vec<(String, String)> = gofree_workloads::all(Scale::Test)
        .into_iter()
        .map(|w| (w.name.to_string(), w.source))
        .collect();
    for nfuncs in [1, 4, 16] {
        srcs.push((format!("corpus n={nfuncs}"), corpus::generate(nfuncs)));
    }
    for seed in 0..20 {
        srcs.push((format!("fuzz seed={seed}"), fuzzgen::generate(seed)));
    }
    for (label, src) in &srcs {
        for opts in [CompileOptions::go(), CompileOptions::default()] {
            let compiled =
                compile(src, &opts).unwrap_or_else(|e| panic!("{label}: {}", e.render(src)));
            for (stream, module) in [("lowered", &compiled.lowered), ("opt", &compiled.optimized)] {
                for f in &module.funcs {
                    for (pc, instr) in f.code.iter().enumerate() {
                        if let Some(t) = instr.jump_target() {
                            assert!(
                                t < f.code.len(),
                                "{label} ({stream}): {}@{pc} jumps to {t}, \
                                 out of bounds for {} instrs: {instr:?}",
                                f.name,
                                f.code.len()
                            );
                        }
                    }
                    assert!(
                        matches!(f.code.last(), Some(minigo_vm::bytecode::Instr::Ret)),
                        "{label} ({stream}): {} does not end in Ret",
                        f.name
                    );
                }
            }
        }
    }
}

#[test]
fn engines_agree_on_sample_programs() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/programs");
    let mut checked = 0;
    for entry in std::fs::read_dir(dir).expect("samples directory") {
        let path = entry.expect("entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("mgo") {
            continue;
        }
        let src = std::fs::read_to_string(&path).expect("readable");
        check_source(
            &path.display().to_string(),
            &src,
            &RunConfig::deterministic(1),
        );
        checked += 1;
    }
    assert!(checked > 0, "no sample programs found");
}

/// The operand-shape corpus: every instruction that reads an operand
/// driven with each shape an operand can have. `(label, how main ends, source)`;
/// programs ending in an error stop at the first one, so each error
/// site is a program of its own.
const OPERAND_SHAPES: &[(&str, &str, &str)] = &[
    (
        "plain ints through every family",
        "Ok",
        "func pair(a int, b int) int { return a*10 + b }
func main() {
    a := 7
    b := 3
    t := 0
    s := make([]int, 8)
    m := make(map[int]int)
    for i := 0; i < len(s); i += 1 { s[i] = i * a }
    t = a + b
    t = t - 1
    t = s[2] + 1
    n := 0
    n = len(s)
    s[0] = t
    s[b] = n
    m[a] = b
    m[1] = a
    ok := a > b
    if ok { t = t * 2 }
    if a < b { t = 0 }
    if a < 100 { t += 1 }
    if s[1] < s[2] { t += s[1] + s[2] }
    if s[1] < 50 { t += s[3] % a }
    s[b+1] = s[b+2] - a
    s[1] += s[2]
    print(a+b, a-1, t, s[b], s[0], m[a], m[1], len(s), s[b]*a, s[1]/2, pair(a, b))
    print(s[b+1], m[a+0], s)
}
",
    ),
    (
        "boxed ints: the borrow ends before the store",
        "Ok",
        "func bump(p *int) { *p = *p + 1 }
func main() {
    x := 1
    y := 2
    i := 0
    ok := true
    s := make([]int, 4)
    px := &x
    py := &y
    pi := &i
    pok := &ok
    ps := &s
    x = x + 1
    x = x + y
    x += 1
    y = len(s)
    bump(px)
    bump(py)
    for i < len(s) { s[i] = x + i
        i += 1 }
    i = 1
    s[0] = s[i] + y
    if x < y { x = y }
    if x < 3 { x = 3 }
    if ok { x = x * y }
    ok = x < y
    if ok { x = 0 }
    print(x, y, i, s[i], s[0], x+y, x+1, s[i]+x, len(s), *pi, *pok, len(*ps))
}
",
    ),
    (
        "strings: concatenation ticks and ordering",
        "Ok",
        "func main() {
    a := \"alpha\"
    b := \"beta, a rather longer string than alpha\"
    t := \"\"
    s := make([]string, 2)
    m := make(map[string]int)
    t = a + b
    t = t + \"!\"
    s[0] = a
    s[1] = b + t
    m[a] = len(t)
    m[\"k\"] = len(a)
    if a < b { t = t + a }
    if a < \"b\" { t = t + \"x\" }
    if s[0] < s[1] { t = s[0] + s[1] }
    if s[0] == a { t = t + s[0] }
    print(t, a+b, a+\"z\", s[0]+\"y\", s[1]+a, a < b, a >= b, a == b, a != \"alpha\", m[a], m[\"k\"], len(t))
}
",
    ),
    (
        "nil bases that are fine: len and ranges over nil",
        "Ok",
        "func main() {
    var s []int
    var m map[int]int
    n := 5
    n = len(s)
    for i := 0; i < len(s); i += 1 { n += 1 }
    print(n, len(s), len(m), s == nil, m == nil)
}
",
    ),
    (
        "div by zero, slot / slot",
        "integer divide by zero",
        "func main() { a := 7\n z := 0\n t := 1\n print(t)\n t = a / z\n print(t) }\n",
    ),
    (
        "rem by zero, slot % const",
        "integer divide by zero",
        "func main() { a := 7\n print(a)\n print(a % 0) }\n",
    ),
    (
        "div by zero, boxed slot / boxed slot to a jump",
        "integer divide by zero",
        "func main() { a := 7\n z := 0\n pa := &a\n pz := &z\n if a / z < 1 { print(*pa, *pz) } }\n",
    ),
    (
        "div by zero on the stack",
        "integer divide by zero",
        "func main() { n := 2\n s := make([]int, n)\n s[0] = 9\n print(s[0] / s[1]) }\n",
    ),
    (
        "rem by zero, stack % const to a store",
        "integer divide by zero",
        "func main() { n := 2\n t := 0\n s := make([]int, n)\n t = s[0] % 0\n print(t) }\n",
    ),
    (
        "negative index, slot base and slot index",
        "index out of range [-1] with length 4",
        "func main() { n := 4\n s := make([]int, n)\n i := 0 - 1\n t := 0\n t = s[i]\n print(t) }\n",
    ),
    (
        "past-the-end store, slot base and slot index",
        "index out of range [4] with length 4",
        "func main() { n := 4\n s := make([]int, n)\n i := len(s)\n s[i] = 1\n print(s) }\n",
    ),
    (
        "past-the-end const index on a reslice",
        "index out of range [2] with length 2",
        "func main() { n := 4\n s := make([]int, n)\n r := s[1:3]\n print(r[1])\n print(r[2]) }\n",
    ),
    (
        "past-the-end const store",
        "index out of range [9] with length 4",
        "func main() { n := 4\n s := make([]int, n)\n s[9] = 1\n print(s) }\n",
    ),
    (
        "negative computed index on the stack, boxed base",
        "index out of range [-3] with length 4",
        "func main() { n := 4\n s := make([]int, n)\n ps := &s\n i := 1\n s[i-4] = len(*ps)\n print(s) }\n",
    ),
    (
        "past-the-end computed load on the stack",
        "index out of range [104] with length 4",
        "func main() { n := 4\n s := make([]int, n)\n i := 4\n print(s[i+100]) }\n",
    ),
    (
        "nil slice load: base before index",
        "nil pointer dereference",
        "func main() { var s []int\n i := 0 - 1\n t := 0\n t = s[i]\n print(t) }\n",
    ),
    (
        "nil slice const store",
        "nil pointer dereference",
        "func main() { var s []int\n s[0] = 1\n print(s) }\n",
    ),
    (
        "nil map store",
        "nil pointer dereference",
        "func main() { var m map[int]int\n k := 3\n m[k] = 1\n print(len(m)) }\n",
    ),
    (
        "nil map load on the stack",
        "nil pointer dereference",
        "func main() { var m map[int]int\n k := 3\n print(m[k+1]) }\n",
    ),
    (
        "poisoned slice element, slot index",
        "read of poisoned memory",
        "func main() { n := 64\n s := make([]int, n)\n i := 3\n s[i] = 3\n t := len(s)\n tcfree(s)\n t = s[i]\n print(t) }\n",
    ),
    (
        "poisoned slice element under a binary operator",
        "read of poisoned memory",
        "func main() { n := 64\n s := make([]int, n)\n a := 1\n tcfree(s)\n print(len(s))\n print(s[0] + a) }\n",
    ),
    (
        "poisoned int slice read through a reslice taken before the free",
        "read of poisoned memory",
        "func main() { n := 64\n s := make([]int, n)\n s[2] = 5\n r := s[2:5]\n print(r[0])\n tcfree(s)\n print(len(r))\n print(r[0]) }\n",
    ),
    (
        "int slice: a store after the free, then the poisoned neighbour",
        "read of poisoned memory",
        "func main() { n := 64\n s := make([]int, n)\n r := s[0:4]\n tcfree(s)\n r[1] = 7\n print(s[1])\n print(r[2]) }\n",
    ),
    (
        "append from nil: pointers, then ints built the same way",
        "Ok",
        "type P struct { v int }
func main() {
    var ps []*P
    var is []int
    for i := 0; i < 20; i += 1 { ps = append(ps, &P{i})
        is = append(is, i*2) }
    head := is[0:3]
    if len(ps) != 20 || ps[19].v != 19 || ps[3].v != 3 { panic(\"pointers\") }
    if len(is) != 20 || is[19] != 38 || cap(is) != 32 || head[2] != 4 { panic(\"ints\") }
    print(is, head, ps[7].v)
}
",
    ),
    (
        "make: a length the host cannot back",
        "makeslice: len out of range",
        "func main() { t := 1\n print(t)\n s := make([]int, 1024*1024*1024*1024)\n print(len(s)) }\n",
    ),
    (
        "make: a capacity whose size overflows",
        "makeslice: cap out of range",
        "func main() { n := 3\n print(n)\n s := make([]int, n, 1024*1024*1024*1024*1024*1024)\n print(len(s)) }\n",
    ),
    (
        "poisoned map, const key",
        "read of poisoned memory",
        "func main() { m := make(map[int]int)\n for i := 0; i < 40; i += 1 { m[i] = i }\n tcfree(m)\n print(m[1]) }\n",
    ),
    (
        "poisoned map store",
        "read of poisoned memory",
        "func main() { m := make(map[int]int)\n k := 2\n for i := 0; i < 40; i += 1 { m[i] = i }\n tcfree(m)\n m[k] = 1\n print(len(m)) }\n",
    ),
    (
        // Nine entries: the grown bucket array is a heap object even
        // where the map itself stays on the stack, so the free poisons.
        "poisoned map delete",
        "read of poisoned memory",
        "func main() { m := make(map[int]int)\n for i := 0; i < 9; i += 1 { m[i] = i }\n tcfree(m)\n delete(m, 1)\n print(len(m)) }\n",
    ),
    (
        "int map: a dense fill, then lookups at n, -1 and a missing key",
        "Ok",
        "func main() {
    n := 20
    m := make(map[int]int)
    for i := 0; i < n; i += 1 { m[i] = i * 3 }
    k := 0 - 1
    t := 0
    t = m[n]
    print(t, m[k], m[7], m[n-1], m[100], m[0], len(m))
}
",
    ),
    (
        "int map: an out-of-order key into a dense map",
        "Ok",
        "func main() {
    m := make(map[int]int)
    for i := 0; i < 5; i += 1 { m[i] = i }
    m[9] = 90
    m[5] = 50
    m[2] = 20
    m[0 - 9223372036854775807 - 1] = 1
    m[9223372036854775807] = 2
    print(m[9], m[5], m[2], m[6], m[0 - 9223372036854775807 - 1], len(m))
    print(m)
}
",
    ),
    (
        "int map: delete a middle entry, then the last, then re-insert",
        "Ok",
        "func main() {
    m := make(map[int]int)
    for i := 0; i < 6; i += 1 { m[i] = i + 10 }
    delete(m, 2)
    print(m, len(m), m[2], m[3], m[5])
    delete(m, 5)
    delete(m, 7)
    print(m, len(m))
    m[5] = 55
    m[2] = 22
    print(m, len(m), m[2], m[5])
    d := make(map[int]int)
    for i := 0; i < 4; i += 1 { d[i] = i }
    delete(d, 3)
    d[3] = 33
    d[4] = 44
    delete(d, 0)
    print(d, d[0], d[4], len(d))
    var nm map[int]int
    delete(nm, 1)
    print(len(nm))
}
",
    ),
    (
        "int map: m[k] += 1 on a missing key",
        "Ok",
        "func main() {
    m := make(map[int]int)
    k := 3
    m[k] += 1
    m[k] += 1
    m[0] += 5
    m[1] = m[1] + 7
    print(m, m[k], len(m))
}
",
    ),
    (
        "int map: growth across 8, 16 and 32 buckets, dense and sparse",
        "Ok",
        "func main() {
    d := make(map[int]int)
    s := make(map[int]int)
    t := 0
    for i := 0; i < 40; i += 1 {
        d[i] = i * 2
        s[i * 7 - 20] = i
        if len(d) == 8 || len(d) == 9 || len(d) == 16 || len(d) == 17 || len(d) == 33 { t += d[i] + s[i * 7 - 20] }
    }
    print(t, len(d), len(s), d[39], s[253], s[0 - 20], s[1])
}
",
    ),
    (
        "string, bool and pointer-valued maps",
        "Ok",
        "type P struct { v int }
func main() {
    ms := make(map[string]int)
    mb := make(map[bool]int)
    mp := make(map[int]*P)
    mv := make(map[int]string)
    ms[\"b\"] = 2
    ms[\"a\"] = 1
    ms[\"b\"] += 10
    mb[true] = 1
    mb[false] = 2
    mb[true] += 5
    delete(ms, \"b\")
    ms[\"c\"] = 3
    for i := 0; i < 10; i += 1 { mp[i] = &P{i}
        mv[i] = \"x\" }
    mv[3] = \"three\"
    delete(mv, 0)
    print(ms, mb, ms[\"a\"], ms[\"b\"], mb[true], mb[false], len(ms), len(mb))
    print(mp[4].v, mp[9].v, mv[3], mv[0], len(mv), mv)
}
",
    ),
    (
        "poisoned boxed slot as an operand",
        "read of poisoned memory",
        "func mk() *int { x := 5\n p := &x\n t := 0\n t = x + 1\n tcfree(p)\n t = x + 1\n print(t)\n return p }
func main() { q := mk()\n print(*q) }\n",
    ),
    (
        "div by zero, slot / slot stored back to the left operand",
        "integer divide by zero",
        "func main() { x := 7\n z := 0\n print(x)\n x = x / z\n print(x) }\n",
    ),
    (
        "rem by zero, slot % const stored back",
        "integer divide by zero",
        "func main() { x := 7\n print(x)\n x = x % 0\n print(x) }\n",
    ),
    (
        "div by zero, the quotient is the element stored",
        "integer divide by zero",
        "func main() { n := 4\n s := make([]int, n)\n a := 9\n z := 0\n i := 1\n s[i] = a / z\n print(s) }\n",
    ),
    (
        "div by zero in a loop header",
        "integer divide by zero",
        "func main() { n := 8\n z := 0\n t := 0\n for i := 0; i < n / z; i += 1 { t += i }\n print(t) }\n",
    ),
    (
        "rem by zero, stack % slot and stack % const",
        "integer divide by zero",
        "func main() { n := 2\n z := 0\n s := make([]int, n)\n s[0] = 5\n print(s[0] % 3)\n print(s[0] % z) }\n",
    ),
    (
        "MinInt64 / -1 and MinInt64 % -1 wrap, in every form",
        "Ok",
        "func main() {
    min := 0 - 9223372036854775807 - 1
    max := 9223372036854775807
    neg := 0 - 1
    s := make([]int, 2)
    s[0] = min
    s[1] = neg
    q := 0
    q = min / neg
    r := 1
    r = min % neg
    x := min
    x = x / -1
    y := min
    y = y % -1
    if min / neg < 0 { q += 0 }
    if s[0] / s[1] == min { r += 0 }
    for i := 0; i < s[0] % s[1] + 1; i += 1 { y += 1 }
    print(q, r, x, y, min / neg, min % neg, min / -1, min % -1, s[0] / s[1], s[0] % s[1])
    print(max + 1, min - 1, max * 2, min * neg, max + 1 == min, s[0] / neg, s[0] % -1)
}
",
    ),
    (
        "strings, structs and pointers through the fused forms ints take",
        "Ok",
        "type P struct { a int
    b string }
func main() {
    a := \"left\"
    b := \"right\"
    t := \"\"
    ok := false
    t = a + b
    t = t + \"!\"
    ok = a < b
    print(ok, t)
    ok = a == \"left\"
    if a < b { print(1) }
    if a == b { print(2) }
    if a != \"left\" { print(3) }
    p := P{1, \"x\"}
    q := P{1, \"x\"}
    r := P{2, \"x\"}
    same := p == q
    ok = p == r
    if p == q { print(4) }
    if p != r { print(5) }
    pp := &p
    pq := &q
    alias := pp
    eq := pp == alias
    ok = pp == pq
    if pp == alias { print(6) }
    if pp != pq { print(7) }
    if pp != nil { print(8) }
    ss := make([]string, 2)
    ss[0] = a
    ss[1] = b
    if ss[0] + ss[1] == t { print(9) }
    print(same, ok, eq, a + b, a < b, p == q, pp == pq, ss[0] < ss[1], ss[0] == a)
}
",
    ),
    (
        "a comparison whose bool is stored, then printed and branched on",
        "Ok",
        "func main() {
    n := 5
    s := make([]int, n)
    i := 2
    ok := i < n
    small := i < 1
    eq := false
    eq = i == n
    ok = ok == small
    le := false
    le = s[i] <= i
    ge := s[i] + 1 >= len(s)
    for j := 0; j < len(s); j += 1 { ok = j < i
        s[j] = j - i }
    if eq == ok { i = 9 }
    print(ok, small, eq, le, ge, i < n, i >= n, s[1] != i, s)
}
",
    ),
    (
        "negative store index, slot base and slot index",
        "index out of range [-2] with length 4",
        "func main() { n := 4\n s := make([]int, n)\n i := 0 - 2\n s[i] = 1\n print(s) }\n",
    ),
    (
        "past-the-end load, slot base and slot index, in a loop",
        "index out of range [4] with length 4",
        "func main() { n := 4\n s := make([]int, n)\n t := 0\n for i := 0; i <= len(s); i += 1 { t = s[i]\n print(t) } }\n",
    ),
    (
        "past-the-end load through a reslice, slot index",
        "index out of range [2] with length 2",
        "func main() { n := 4\n s := make([]int, n)\n r := s[2:4]\n i := 2\n t := 0\n t = r[i]\n print(t) }\n",
    ),
    (
        "poisoned int slice: the loop header reads len, the body the element",
        "read of poisoned memory",
        "func main() { n := 64\n s := make([]int, n)\n t := 0\n tcfree(s)\n for i := 0; i < len(s); i += 1 { print(i)\n t = s[i] }\n print(t) }\n",
    ),
    (
        "poisoned int slice element stored over, then read back",
        "Ok",
        "func main() { n := 64\n s := make([]int, n)\n i := 5\n tcfree(s)\n s[i] = 8\n t := 0\n t = s[i]\n print(t, s[i] + 1, len(s)) }\n",
    ),
    (
        "poisoned boxed int under a compare-and-jump",
        "read of poisoned memory",
        "func mk() *int { x := 5\n p := &x\n if x < 9 { print(x) }\n tcfree(p)\n if x < 9 { print(x) }\n return p }
func main() { q := mk()\n print(*q) }\n",
    ),
    (
        "poisoned boxed int as the destination and source of x = x + 1",
        "read of poisoned memory",
        "func mk() *int { x := 5\n p := &x\n x = x + 1\n print(x)\n tcfree(p)\n x = x + 1\n print(x)\n return p }
func main() { q := mk()\n print(*q) }\n",
    ),
    (
        "poisoned boxed slot under a bare branch",
        "read of poisoned memory",
        "func mk() *bool { ok := true\n p := &ok\n tcfree(p)\n if ok { print(1) }\n return p }
func main() { q := mk()\n print(*q) }\n",
    ),
    (
        "not, itoa, a builtin defer and value-struct field stores",
        "Ok",
        "type P struct { a int
    b string }
type Q struct { p P
    n int }
func main() {
    p := P{1, \"x\"}
    q := Q{p, 2}
    p.a = 5
    p.b = itoa(p.a * 3)
    q.p.a = p.a + q.n
    ok := !(p.a > 3)
    defer print(\"deferred\", p.a, ok, q.p.a)
    s := make([]int, 3, 8)
    print(p.a, p.b, ok, !ok, q.p.a, q.p.b, cap(s), -p.a)
}
",
    ),
    // Operands read before a call that changes them: each operand holds
    // the value it had where the tree-walk read it.
    (
        "a boxed int read before a call that stores through its pointer",
        "Ok",
        "func set(p *int, v int) int { *p = v\n return 1 }
func main() {
    x := 1
    px := &x
    t := x + set(px, 10)
    u := x * 100 + set(px, 20) + x
    s := make([]int, 4)
    s[x] = x + set(px, 3)
    print(t, u, x, s, x < set(px, 30), x)
}
",
    ),
    (
        "a slice read before calls that append to it and free it",
        "Ok",
        "func grow(p *[]int) int { *p = append(*p, 9)\n (*p)[0] = 7\n return len(*p) }
func drop(p *[]int) int { tcfree(*p)\n *p = make([]int, 1)\n return 0 }
func main() {
    n := 4
    s := make([]int, n)
    ps := &s
    s[0] = 5
    a := s
    print(s, grow(ps), s, len(a))
    t := s[0] + grow(ps) + s[0]
    b := s
    print(b, drop(ps), s, t, len(b))
}
",
    ),
    (
        "a map read before a call that deletes from it",
        "Ok",
        "func del(m map[int]int, k int) int { delete(m, k)\n return len(m) }
func main() {
    m := make(map[int]int)
    for i := 0; i < 6; i += 1 { m[i] = i * 10 }
    k := 2
    t := m[k] + del(m, k) + m[k]
    print(t, m[k] + del(m, 3), len(m), m)
}
",
    ),
    (
        "an index base read before an index expression that calls",
        "Ok",
        "func swap(p *[]int) int { *p = make([]int, 1)\n return 2 }
func main() {
    n := 4
    s := make([]int, n)
    ps := &s
    s[2] = 8
    t := s[swap(ps)]
    s = make([]int, n)
    s[swap(ps)] = 5
    print(t, len(s), s)
}
",
    ),
    // A poisoned variable as each operand of each shape that reads two:
    // the error, and the clock where it struck, are the tree-walk's.
    (
        "poisoned int as the left operand of a binary operator",
        "read of poisoned memory",
        "func mk() *int { v := 5\n p := &v\n o := 2\n t := 0\n tcfree(p)\n t = v + o\n print(t)\n return p }
func main() { q := mk()\n print(*q) }\n",
    ),
    (
        "poisoned int as the right operand of a binary operator",
        "read of poisoned memory",
        "func mk() *int { v := 5\n p := &v\n o := 2\n t := 0\n tcfree(p)\n t = o * 3 + v\n print(t)\n return p }
func main() { q := mk()\n print(*q) }\n",
    ),
    (
        "poisoned int as the left operand of a compare-and-branch",
        "read of poisoned memory",
        "func mk() *int { v := 5\n p := &v\n o := 2\n tcfree(p)\n if v < o { print(o) }\n return p }
func main() { q := mk()\n print(*q) }\n",
    ),
    (
        "poisoned int as the right operand of a compare-and-branch",
        "read of poisoned memory",
        "func mk() *int { v := 5\n p := &v\n o := 2\n tcfree(p)\n for i := 0; o < v; i += 1 { print(i) }\n return p }
func main() { q := mk()\n print(*q) }\n",
    ),
    (
        "poisoned slice as the base of an index read",
        "read of poisoned memory",
        "func mk() *[]int { v := make([]int, 4)\n p := &v\n o := 1\n t := 0\n tcfree(p)\n t = v[o]\n print(t)\n return p }
func main() { q := mk()\n print(len(*q)) }\n",
    ),
    (
        "poisoned int as the index of an index read",
        "read of poisoned memory",
        "func mk() *int { v := 1\n p := &v\n s := make([]int, 4)\n t := 0\n tcfree(p)\n t = s[v]\n print(t)\n return p }
func main() { q := mk()\n print(*q) }\n",
    ),
    (
        "poisoned int as the value of an index store",
        "read of poisoned memory",
        "func mk() *int { v := 1\n p := &v\n s := make([]int, 4)\n o := 2\n tcfree(p)\n s[o] = v\n print(s)\n return p }
func main() { q := mk()\n print(*q) }\n",
    ),
    (
        "poisoned map as the base of an index store",
        "read of poisoned memory",
        "func mk() *map[int]int { v := make(map[int]int)\n p := &v\n o := 2\n tcfree(p)\n v[o] = 1\n return p }
func main() { q := mk()\n print(len(*q)) }\n",
    ),
    (
        "poisoned int as the index of an index store",
        "read of poisoned memory",
        "func mk() *int { v := 1\n p := &v\n s := make([]int, 4)\n tcfree(p)\n s[v] = 3\n print(s)\n return p }
func main() { q := mk()\n print(*q) }\n",
    ),
    (
        "poisoned slice under len",
        "read of poisoned memory",
        "func mk() *[]int { v := make([]int, 4)\n p := &v\n t := 0\n tcfree(p)\n t = len(v)\n print(t)\n return p }
func main() { q := mk()\n print(len(*q)) }\n",
    ),
    (
        "poisoned int as the first argument of a call",
        "read of poisoned memory",
        "func f(a int, b int) int { return a - b }
func mk() *int { v := 1\n p := &v\n o := 2\n tcfree(p)\n print(f(v, o))\n return p }
func main() { q := mk()\n print(*q) }\n",
    ),
    (
        "poisoned int as the second argument of a call",
        "read of poisoned memory",
        "func f(a int, b int) int { return a - b }
func mk() *int { v := 1\n p := &v\n o := 2\n tcfree(p)\n print(f(o, v))\n return p }
func main() { q := mk()\n print(*q) }\n",
    ),
    (
        "poisoned int as the second argument of print",
        "read of poisoned memory",
        "func mk() *int { v := 1\n p := &v\n o := 2\n tcfree(p)\n print(o, v)\n return p }
func main() { q := mk()\n print(*q) }\n",
    ),
    (
        "poisoned int as the first field of a struct literal",
        "read of poisoned memory",
        "type P struct { a int\n b int }
func mk() *int { v := 1\n p := &v\n o := 2\n tcfree(p)\n r := P{v, o}\n print(r.b)\n return p }
func main() { q := mk()\n print(*q) }\n",
    ),
    (
        "poisoned int as the second field of a struct literal",
        "read of poisoned memory",
        "type P struct { a int\n b int }
func mk() *int { v := 1\n p := &v\n o := 2\n tcfree(p)\n r := P{o, v}\n print(r.a)\n return p }
func main() { q := mk()\n print(*q) }\n",
    ),
    (
        "poisoned slice as the slice of an append",
        "read of poisoned memory",
        "func mk() *[]int { v := make([]int, 4)\n p := &v\n o := 2\n s := v\n tcfree(p)\n s = append(v, o)\n print(s)\n return p }
func main() { q := mk()\n print(len(*q)) }\n",
    ),
    (
        "poisoned int as the item of an append",
        "read of poisoned memory",
        "func mk() *int { v := 1\n p := &v\n s := make([]int, 4)\n tcfree(p)\n s = append(s, v)\n print(s)\n return p }
func main() { q := mk()\n print(*q) }\n",
    ),
    (
        "poisoned map as the map of a delete",
        "read of poisoned memory",
        "func mk() *map[int]int { v := make(map[int]int)\n p := &v\n o := 2\n tcfree(p)\n delete(v, o)\n return p }
func main() { q := mk()\n print(len(*q)) }\n",
    ),
    (
        "poisoned int as the key of a delete",
        "read of poisoned memory",
        "func mk() *int { v := 1\n p := &v\n m := make(map[int]int)\n tcfree(p)\n delete(m, v)\n print(len(m))\n return p }
func main() { q := mk()\n print(*q) }\n",
    ),
    (
        "poisoned int as a switch subject",
        "read of poisoned memory",
        "func mk() *int { v := 1\n p := &v\n o := 2\n tcfree(p)\n switch v { case o: print(1) }\n return p }
func main() { q := mk()\n print(*q) }\n",
    ),
    (
        "poisoned int as a case value",
        "read of poisoned memory",
        "func mk() *int { v := 1\n p := &v\n o := 2\n tcfree(p)\n switch o { case 3, v: print(1) }\n return p }
func main() { q := mk()\n print(*q) }\n",
    ),
    (
        "poisoned int as the value of a pointer store",
        "read of poisoned memory",
        "func mk() *int { v := 1\n p := &v\n o := 2\n po := &o\n tcfree(p)\n *po = v\n print(o)\n return p }
func main() { q := mk()\n print(*q) }\n",
    ),
    (
        "poisoned pointer as the target of a field store",
        "read of poisoned memory",
        "type P struct { a int\n b int }
func mk() **P { v := &P{1, 2}\n p := &v\n o := 2\n tcfree(p)\n v.a = o\n return p }
func main() { q := mk()\n print(len(\"x\")) }\n",
    ),
    (
        "poisoned int as the low bound of a reslice",
        "read of poisoned memory",
        "func mk() *int { v := 1\n p := &v\n s := make([]int, 4)\n tcfree(p)\n r := s[v:3]\n print(r)\n return p }
func main() { q := mk()\n print(*q) }\n",
    ),
    (
        "poisoned int as the capacity of a make",
        "read of poisoned memory",
        "func mk() *int { v := 8\n p := &v\n o := 2\n tcfree(p)\n s := make([]int, o, v)\n print(s)\n return p }
func main() { q := mk()\n print(*q) }\n",
    ),
    (
        "poisoned int as a deferred call's second argument",
        "read of poisoned memory",
        "func f(a int, b int) { print(a, b) }
func mk() *int { v := 1\n p := &v\n o := 2\n tcfree(p)\n defer f(o, v)\n return p }
func main() { q := mk()\n print(*q) }\n",
    ),
    (
        "poisoned int read into a short declaration and an assignment",
        "read of poisoned memory",
        "func mk() *int { v := 1\n p := &v\n o := 2\n o = v\n tcfree(p)\n t := v\n print(t, o)\n return p }
func main() { q := mk()\n print(*q) }\n",
    ),
];

/// Opens a session on one engine configuration (`None` = tree-walk),
/// lets `drive` use it, and finishes it whatever `drive` saw. Sessions
/// rather than `execute`, because a failed `execute` returns the error
/// alone and what a failure leaves behind — the clock, the session
/// itself — is part of the contract.
fn on_engine<T>(
    compiled: &Compiled,
    byte: Option<OptLevel>,
    cfg: VmConfig,
    drive: impl FnOnce(&mut Session<dyn Dispatch + '_>) -> T,
) -> (T, RunOutcome) {
    let (engine, opt) = match byte {
        None => (VmEngine::TreeWalk, OptLevel::Off),
        Some(opt) => (VmEngine::Bytecode, opt),
    };
    run_session(compiled, cfg, engine, opt, |s| Ok(drive(s))).expect("valid config")
}

/// `main` run to its end or to its error: how it ended (`Ok` or the
/// error rendering), the virtual time at that moment, and every other
/// observable — output so far, steps, metrics.
fn observe(compiled: &Compiled, byte: Option<OptLevel>, cfg: VmConfig) -> (String, u64, String) {
    let (res, out) = on_engine(compiled, byte, cfg, |s| s.call("main", Vec::new()));
    let end = match res {
        Ok(_) => "Ok".to_string(),
        Err(e) => e.to_string(),
    };
    let rest = format!(
        "output {:?}\nsteps {}\n{:?}",
        out.output, out.steps, out.metrics
    );
    (end, out.time, rest)
}

#[test]
fn engines_agree_on_every_operand_shape() {
    let mut seen = std::collections::BTreeSet::new();
    let mut rewrites = 0;
    for &(label, ends, src) in OPERAND_SHAPES {
        // Plain Go: the only frees are the ones the program spells out.
        let compiled = compile(src, &CompileOptions::go())
            .unwrap_or_else(|e| panic!("{label}: {}", e.render(src)));
        rewrites += compiled.opt_stats.total_rewrites();
        for f in &compiled.lowered.funcs {
            for instr in &f.code {
                let name = format!("{instr:?}");
                let end = name.find(|c: char| !c.is_alphanumeric());
                seen.insert(name[..end.unwrap_or(name.len())].to_string());
            }
        }
        for collector in [CollectorKind::Go, CollectorKind::Generational] {
            let cfg = VmConfig {
                runtime: RuntimeConfig {
                    collector,
                    poison: PoisonMode::Zero,
                    migrate_prob: 0.0,
                    jitter: 0.0,
                    ..RuntimeConfig::default()
                },
                grow_map_free_old: false,
                ..VmConfig::default()
            };
            let tree = observe(&compiled, None, cfg.clone());
            assert!(
                tree.0.contains(ends),
                "{label} ({collector:?}): expected to end with {ends:?}, got {:?}",
                tree.0
            );
            let off = observe(&compiled, Some(OptLevel::Off), cfg.clone());
            assert_eq!(tree, off, "{label} ({collector:?}, opt off)");
            // A rewrite only coalesces charges that no failure falls
            // between, so the optimized stream fails at the same tick.
            let full = observe(&compiled, Some(OptLevel::Full), cfg.clone());
            assert_eq!(tree, full, "{label} ({collector:?}, opt full)");
        }
    }
    assert!(rewrites > 0, "the optimizer rewrote nothing");
    // Every instruction that reads an operand was lowered at least once,
    // so no operand-reading handler goes unexercised.
    for family in [
        "JumpIf",
        "BrCmp",
        "AssertBool",
        "CaseJump",
        "Call",
        "DeferFunc",
        "DeferBuiltin",
        "Move",
        "Declare",
        "Neg",
        "Not",
        "Bin",
        "AllocBox",
        "Deref",
        "DerefSet",
        "GetField",
        "StructSetField",
        "FieldSetPtr",
        "CheckIndexBase",
        "IndexGet",
        "IndexSet",
        "ReSlice",
        "MakeSlice",
        "Append",
        "MakeStruct",
        "Len",
        "Cap",
        "MapDelete",
        "Panic",
        "Print",
        "Itoa",
        "Tcfree",
    ] {
        assert!(
            seen.contains(family),
            "no program in the corpus lowers to {family}; saw {seen:?}"
        );
    }
}

/// A service whose `handle` recurses three frames deep, each frame
/// holding a heap slice, a heap map and a pending `defer`, and then —
/// by `mode` — returns, panics, indexes out of range, spins until the
/// step budget is gone, or asks `make` for more than the host has.
const FAILING_SERVICE: &str = "type Acc struct { total int
    log []int }
func setup() *Acc { return &Acc{0, nil} }
func record(a *Acc, v int) { a.total += v
    a.log = append(a.log, v) }
func deep(a *Acc, n int, mode int) int {
    buf := make([]int, 16+n)
    m := make(map[int]int)
    defer record(a, n)
    buf[0] = n + 1
    m[n] = n
    if n > 0 { return deep(a, n-1, mode) + buf[0] }
    if mode == 1 { panic(\"boom\") }
    if mode == 2 { return buf[len(buf)+3] }
    if mode == 3 { for { buf[0] += 1 } }
    if mode == 4 { return len(make([]int, 1024*1024*1024*1024)) }
    return buf[0] + m[0]
}
func handle(a *Acc, req int, mode int) int { return deep(a, 2, mode) + a.total + len(a.log) + req }
";

/// One event per line with its timestamp removed: what happened, on
/// which interned call stack, in which order.
fn events_sans_clock(out: &RunOutcome) -> String {
    let trace = out.trace.as_ref().expect("traced run");
    let lines = trace.events.iter().map(|ev| {
        let line = format!("{ev:?}");
        let at = line.find("at: ").expect("every event is stamped");
        let rest = line[at + 4..].trim_start_matches(|c: char| c.is_ascii_digit());
        format!("{}{}\n", &line[..at], rest.trim_start_matches(", "))
    });
    lines.collect()
}

#[test]
fn a_failed_call_leaves_any_session_usable() {
    // GoFree, so the frames that unwind hold objects with frees pending.
    let compiled = compile(FAILING_SERVICE, &CompileOptions::default())
        .unwrap_or_else(|e| panic!("{}", e.render(FAILING_SERVICE)));
    for (mode, fails_with) in [
        (1, "panic: boom"),
        (2, "index out of range"),
        (3, "step limit"),
        (4, "makeslice: len out of range"),
    ] {
        for collector in [CollectorKind::Go, CollectorKind::Generational] {
            let cfg = VmConfig {
                runtime: RuntimeConfig {
                    collector,
                    gogc: 10,
                    min_heap: 4096,
                    nursery_size: 2048,
                    migrate_prob: 0.0,
                    jitter: 0.0,
                    trace: true,
                    ..RuntimeConfig::default()
                },
                // handle + three `deep`s + the innermost `record`: a frame
                // a failure left behind overflows the very next request.
                max_frames: 5,
                step_limit: if mode == 3 { 3_000 } else { 500_000 },
                ..VmConfig::for_mode(gofree::Mode::GoFree)
            };
            // The calls made and, per call, how it ended and when.
            let drive = |s: &mut Session<dyn Dispatch + '_>| -> Vec<(String, u64)> {
                let state = s.call("setup", Vec::new()).expect("setup");
                s.hold(state.clone());
                let mut log = Vec::new();
                let mut request = |s: &mut Session<dyn Dispatch + '_>, req: i64, mode: i64| {
                    let mut args = state.clone();
                    args.extend([Value::Int(req), Value::Int(mode)]);
                    let end = match s.call("handle", args) {
                        Ok(v) => format!("Ok {}", v[0].display()),
                        Err(e) => e.to_string(),
                    };
                    log.push((end, s.now()));
                };
                for req in 0..40 {
                    request(s, req, 0);
                }
                request(s, 40, mode);
                request(s, 41, 0);
                request(s, 42, 0);
                log
            };
            let (tree_log, tree) = on_engine(&compiled, None, cfg.clone(), drive);
            let label = format!("mode {mode} ({collector:?})");
            assert!(
                tree_log[..40].iter().all(|(end, _)| end.starts_with("Ok")),
                "{label}: {tree_log:?}"
            );
            assert!(tree_log[40].0.contains(fails_with), "{label}: {tree_log:?}");
            let after = &tree_log[41..];
            assert!(
                after.len() == 2 && after.iter().all(|(end, _)| end.starts_with("Ok")),
                "{label}: {after:?}"
            );
            assert!(
                tree.metrics.gcs >= 3,
                "{label}: the heap is tight enough to collect"
            );
            let tree_trace = tree.trace.as_ref().expect("traced run");
            tree_trace
                .reconcile(&tree.metrics)
                .unwrap_or_else(|e| panic!("{label}: {e}"));

            for opt in [OptLevel::Off, OptLevel::Full] {
                let (log, out) = on_engine(&compiled, Some(opt), cfg.clone(), drive);
                let label = format!("{label}, opt {opt}");
                assert_eq!(tree.output, out.output, "{label}: output");
                assert_eq!(tree.steps, out.steps, "{label}: steps");
                assert_eq!(
                    format!("{:?}", tree.metrics),
                    format!("{:?}", out.metrics),
                    "{label}: metrics"
                );
                let trace = out.trace.as_ref().expect("traced run");
                let stacks = |t: &gofree::Trace| -> Vec<String> {
                    (0..t.stacks.len() as u32)
                        .map(|id| t.stacks.folded(id))
                        .collect()
                };
                assert_eq!(
                    stacks(tree_trace),
                    stacks(trace),
                    "{label}: interned stacks"
                );
                assert_eq!(
                    events_sans_clock(&tree),
                    events_sans_clock(&out),
                    "{label}: events and their stack ids"
                );
                // Both streams agree with the tree-walk to the tick, on
                // the failing calls too.
                assert_eq!(tree_log, log, "{label}: calls and their clocks");
                assert_eq!(tree.time, out.time, "{label}: time");
            }
        }
    }
}
