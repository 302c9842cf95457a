//! Unwinding × compiler-inserted frees: directed programs whose `tcfree`s
//! sit on `defer`, `panic` and early-`return` paths (out of loops, out of
//! `else if` chains and switch cases, with builtin and user-function
//! defers whose arguments hold the freed objects).
//!
//! Every program runs under both free placements, both collectors, on the
//! tree-walk and on the bytecode engine at both opt levels, with the
//! shadow-heap sanitizer on. Each run must:
//! - report no shadow violation;
//! - end the same way (output, error, virtual time, steps, metrics) on
//!   every engine and opt level;
//! - print what plain Go prints, and fail where plain Go fails.

use gofree::{
    compile, run_session, CollectorKind, CompileOptions, Compiled, FreePlacement, OptLevel,
    RunConfig, Setting, VmEngine,
};

/// `(label, source)`. Programs that panic do so after printing, so the
/// output before the failure is compared too.
const PROGRAMS: &[(&str, &str)] = &[
    (
        "early return out of a loop, builtin defer",
        "func find(n int, want int) int {
    buf := make([]int, n)
    m := make(map[int]int)
    defer print(\"find\", n, len(buf))
    for i := 0; i < n; i += 1 {
        buf[i] = i * 3
        m[i] = buf[i]
        if buf[i] == want { return i + len(m) }
    }
    return 0 - 1
}
func main() {
    t := 0
    for k := 0; k < 24; k += 1 { t += find(16 + k, k * 5) }
    print(t)
}
",
    ),
    (
        "returns from an else-if chain",
        "func classify(n int) int {
    m := make(map[int]int)
    s := make([]int, n)
    for i := 0; i < n; i += 1 {
        m[i] = i
        s[i] = i * 2
    }
    if n % 4 == 0 {
        return len(m)
    } else if n % 4 == 1 {
        t := make([]int, n + 1)
        t[n] = s[n - 1]
        return t[n] + m[0]
    } else if n % 4 == 2 {
        return s[n / 2]
    }
    return len(s) * 2
}
func main() {
    t := 0
    for n := 1; n < 40; n += 1 { t += classify(n) }
    print(t)
}
",
    ),
    (
        "user-function defer reads the slice the scope frees",
        "func total(tag int, s []int) int {
    t := 0
    for i := 0; i < len(s); i += 1 { t += s[i] }
    print(tag, t)
    return t
}
func work(n int) int {
    buf := make([]int, n)
    tmp := make([]int, n)
    for i := 0; i < n; i += 1 { buf[i] = i
        tmp[i] = i * 2 }
    defer total(n, buf)
    if n > 20 { return buf[1] + tmp[2] }
    for i := 0; i < n; i += 1 {
        if buf[i] == 7 { return i }
    }
    return buf[0]
}
func main() {
    t := 0
    for n := 4; n < 30; n += 3 { t += work(n) }
    print(t)
}
",
    ),
    (
        "defers inside a loop, break and continue past frees",
        "type Acc struct { n int
    log []int }
func note(a *Acc, v int) { a.n += v
    a.log = append(a.log, v) }
func run(a *Acc, n int) int {
    seen := make([]int, n)
    for i := 0; i < n; i += 1 {
        tmp := make([]int, i + 2)
        tmp[0] = i
        seen[i] = tmp[0] * 2
        if i % 3 == 0 { continue }
        defer note(a, tmp[0])
        if i > 7 { break }
    }
    return a.n + seen[4]
}
func main() {
    a := &Acc{0, nil}
    print(run(a, 12), a.n, len(a.log))
}
",
    ),
    (
        "switch cases that return over live frees",
        "func pick(k int, n int) int {
    s := make([]int, n)
    m := make(map[int]int)
    s[0] = k
    m[k] = n
    defer print(\"pick\", k)
    switch k % 3 {
    case 0:
        return s[0] + m[k]
    case 1:
        r := make([]int, n)
        r[1] = 5
        return r[1] + len(s)
    default:
        for i := 0; i < n; i += 1 { if i == k { return i } }
    }
    return len(m)
}
func main() {
    t := 0
    for k := 0; k < 20; k += 1 { t += pick(k, 8 + k) }
    print(t)
}
",
    ),
    (
        "panic through frames that hold frees and defers",
        "type Acc struct { total int }
func record(a *Acc, v int) { a.total += v
    print(\"record\", v, a.total) }
func deep(a *Acc, n int, at int) int {
    buf := make([]int, 8 + n)
    m := make(map[int]int)
    defer record(a, n)
    defer print(\"unwind\", n, len(buf))
    buf[0] = n
    m[n] = n
    if n == at { panic(\"boom\") }
    if n > 0 { return deep(a, n - 1, at) + buf[0] + m[n] }
    return buf[0]
}
func main() {
    a := &Acc{0}
    for k := 0; k < 3; k += 1 { print(k, deep(a, 3, 0 - 1), a.total) }
    print(deep(a, 4, 2))
}
",
    ),
    (
        "index failure on a return path after a builtin defer",
        "func get(s []int, i int) int {
    tmp := make([]int, len(s))
    defer print(\"get\", i, len(tmp))
    tmp[0] = s[0]
    if i < 0 {
        return tmp[0]
    } else if i < len(s) {
        return s[i] + tmp[0]
    }
    return s[i]
}
func main() {
    n := 6
    s := make([]int, n)
    for i := 0; i < n; i += 1 { s[i] = i * i }
    t := 0
    for i := 0 - 1; i <= n; i += 1 { t += get(s, i)
        print(t) }
}
",
    ),
    (
        "nested loops: a return from the inner loop frees both levels",
        "func scan(rows int, cols int, stop int) int {
    seen := make(map[int]int)
    for r := 0; r < rows; r += 1 {
        row := make([]int, cols)
        for c := 0; c < cols; c += 1 {
            row[c] = r * cols + c
            seen[row[c]] = r
            if row[c] == stop { return len(seen) + row[0] }
        }
        if r % 2 == 1 { continue }
    }
    return len(seen)
}
func main() {
    t := 0
    for s := 0; s < 60; s += 7 { t += scan(6, 9, s) }
    print(t, scan(3, 3, 100))
}
",
    ),
];

/// How a run ended and everything it left: the error (or `Ok`), output,
/// time, steps and metrics, plus the shadow violations seen.
fn run(compiled: &Compiled, setting: Setting, cfg: &RunConfig) -> (String, usize) {
    let vm_cfg = cfg.vm_config(compiled, setting);
    let (end, report) = run_session(compiled, vm_cfg, cfg.engine, cfg.opt, |s| {
        Ok(match s.call_main() {
            Ok(()) => "Ok".to_string(),
            Err(e) => e.to_string(),
        })
    })
    .expect("valid config");
    let seen = format!(
        "{end}\noutput {:?}\ntime {}\nsteps {}\n{:?}",
        report.output, report.time, report.steps, report.metrics
    );
    (seen, report.violations.len())
}

#[test]
fn unwinding_paths_free_soundly_and_identically_everywhere() {
    for &(label, src) in PROGRAMS {
        let go = compile(src, &CompileOptions::go())
            .unwrap_or_else(|e| panic!("{label}: {}", e.render(src)));
        for placement in [FreePlacement::Scope, FreePlacement::LastUse] {
            let opts = CompileOptions {
                free_placement: placement,
                ..CompileOptions::default()
            };
            let gofree =
                compile(src, &opts).unwrap_or_else(|e| panic!("{label}: {}", e.render(src)));
            assert!(
                gofree.free_count() > 0,
                "{label} ({placement:?}): GoFree inserted no free"
            );
            for collector in [CollectorKind::Go, CollectorKind::Generational] {
                let base = RunConfig {
                    sanitize: true,
                    collector,
                    min_heap: 4096,
                    nursery_size: 2048,
                    ..RunConfig::deterministic(3)
                };
                let mut ends = Vec::new();
                for (compiled, setting) in [(&go, Setting::Go), (&gofree, Setting::GoFree)] {
                    let at = |engine, opt| {
                        let cfg = RunConfig {
                            engine,
                            opt,
                            ..base.clone()
                        };
                        run(compiled, setting, &cfg)
                    };
                    let here = format!("{label} ({placement:?}, {collector:?}, {setting})");
                    let (tree, violations) = at(VmEngine::TreeWalk, OptLevel::Off);
                    assert_eq!(violations, 0, "{here}: shadow violations on the tree-walk");
                    for opt in [OptLevel::Off, OptLevel::Full] {
                        let (byte, violations) = at(VmEngine::Bytecode, opt);
                        assert_eq!(violations, 0, "{here}, opt {opt}: shadow violations");
                        assert_eq!(tree, byte, "{here}, opt {opt}: engines disagree");
                    }
                    // Output and the way the run ended, without the
                    // clock and metrics that freeing legitimately moves.
                    let end = tree.split("\ntime").next().expect("split").to_string();
                    ends.push(end);
                }
                assert_eq!(
                    ends[0], ends[1],
                    "{label} ({placement:?}, {collector:?}): Go and GoFree disagree"
                );
            }
        }
    }
}
