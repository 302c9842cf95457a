//! The parser's nesting budget (`minigo_syntax::parser::MAX_NESTING`):
//! one level past it is a spanned error, and a program nested exactly at
//! it compiles and runs on both engines at both opt levels inside a
//! thread with the default 2 MiB test stack. A guest *heap* structure has
//! no such budget: a list of 100k links is marked and dropped on that
//! stack too.

use gofree::{compile, execute, CompileOptions, OptLevel, RunConfig, Setting, VmEngine};
use minigo_escape::inline_program;
use minigo_runtime::CollectorKind;
use minigo_syntax::parse;
use minigo_syntax::parser::{self, MAX_NESTING};

/// A program with its construct nested `n` deep.
type Shape = fn(usize) -> String;

/// The deep shapes: `n` parentheses, blocks, unary operators, operator
/// chain links, postfix (reslice) chain links and `else if` arms.
const SHAPES: [(&str, Shape); 6] = [
    ("parens", |n| {
        format!(
            "func main() {{\n x := {}1{}\n print(x)\n}}\n",
            "(".repeat(n),
            ")".repeat(n)
        )
    }),
    ("blocks", |n| {
        format!(
            "func main() {{\n x := 1\n {} x += 1 {}\n print(x)\n}}\n",
            "{".repeat(n),
            "}".repeat(n)
        )
    }),
    ("unary", |n| {
        format!("func main() {{\n x := {}1\n print(x)\n}}\n", "- ".repeat(n))
    }),
    ("operators", |n| {
        format!("func main() {{\n x := 1{}\n print(x)\n}}\n", "+1".repeat(n))
    }),
    ("postfix", |n| {
        format!(
            "func main() {{\n s := make([]int, 2)\n x := s{}\n print(len(x))\n}}\n",
            "[0:2]".repeat(n)
        )
    }),
    ("else-if", |n| {
        let arms: String = (1..=n)
            .map(|k| format!(" else if x == {k} {{\n print({k})\n }}"))
            .collect();
        format!("func main() {{\n x := {n}\n if x == 0 {{\n print(0)\n }}{arms}\n}}\n")
    }),
];

/// The largest `n` whose program parses.
fn deepest(shape: impl Fn(usize) -> String) -> usize {
    let (mut ok, mut bad) = (1, 4 * MAX_NESTING as usize);
    assert!(parse(&shape(ok)).is_ok());
    assert!(parse(&shape(bad)).is_err());
    while bad - ok > 1 {
        let mid = (ok + bad) / 2;
        if parse(&shape(mid)).is_ok() {
            ok = mid;
        } else {
            bad = mid;
        }
    }
    ok
}

#[test]
fn one_level_past_the_limit_is_a_spanned_error() {
    for (name, shape) in SHAPES {
        let n = deepest(shape);
        let err = parse(&shape(n + 1)).unwrap_err();
        assert!(err.message().contains("nesting too deep"), "{name}: {err}");
        assert!(!err.span().is_empty(), "{name}: no position");
        // Every shape can reach a good fraction of the budget.
        assert!(n >= MAX_NESTING as usize / 4, "{name}: only {n} levels");
    }
}

#[test]
fn a_program_at_the_limit_runs_everywhere_on_a_2_mib_stack() {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(|| {
            for (name, shape) in SHAPES {
                let src = shape(deepest(shape));
                let mut outputs = Vec::new();
                for (opts, setting) in [
                    (CompileOptions::go(), Setting::Go),
                    (CompileOptions::default(), Setting::GoFree),
                ] {
                    let compiled = compile(&src, &opts)
                        .unwrap_or_else(|e| panic!("{name}: {}", e.render(&src)));
                    for engine in [VmEngine::TreeWalk, VmEngine::Bytecode] {
                        for opt in [OptLevel::Off, OptLevel::Full] {
                            let cfg = RunConfig {
                                engine,
                                opt,
                                ..RunConfig::deterministic(1)
                            };
                            let r = execute(&compiled, setting, &cfg)
                                .unwrap_or_else(|e| panic!("{name} {engine} {opt:?}: {e}"));
                            outputs.push(r.output);
                        }
                    }
                }
                assert!(outputs.windows(2).all(|w| w[0] == w[1]), "{name}");
            }
        })
        .expect("spawn")
        .join()
        .expect("every shape at the limit ran");
}

/// Every output `src` prints, compiled as Go and as GoFree (with the
/// inliner when `inline`) and run on both engines at both opt levels.
fn outputs_everywhere(name: &str, src: &str, inline: bool) -> Vec<String> {
    let mut outputs = Vec::new();
    for (opts, setting) in [
        (CompileOptions::go(), Setting::Go),
        (CompileOptions::default(), Setting::GoFree),
    ] {
        let opts = CompileOptions { inline, ..opts };
        let compiled = compile(src, &opts).unwrap_or_else(|e| panic!("{name}: {}", e.render(src)));
        for engine in [VmEngine::TreeWalk, VmEngine::Bytecode] {
            for opt in [OptLevel::Off, OptLevel::Full] {
                let cfg = RunConfig {
                    engine,
                    opt,
                    ..RunConfig::deterministic(1)
                };
                let r = execute(&compiled, setting, &cfg)
                    .unwrap_or_else(|e| panic!("{name} {engine} {opt:?}: {e}"));
                outputs.push(r.output);
            }
        }
    }
    outputs
}

/// A callee `links` operator links deep, called from a statement nested
/// `blocks` blocks deep.
fn call_program(links: usize, blocks: usize) -> String {
    format!(
        "func deep() int {{\n x := 1{}\n return x\n}}\n\
         func main() {{\n y := 0\n {} y = deep() {}\n print(y)\n}}\n",
        "+1".repeat(links),
        "{".repeat(blocks),
        "}".repeat(blocks)
    )
}

/// Splicing an at-limit callee into an at-limit call site would nest
/// the program about twice as deep as the parser admits: the inliner
/// leaves that call alone (one a quarter as deep on both sides it
/// splices), and the program runs everywhere with `inline: true` on a
/// 2 MiB stack.
#[test]
fn the_inliner_keeps_an_at_limit_callee_out_of_an_at_limit_call_site() {
    let links = deepest(|n| call_program(n, 0));
    let blocks = deepest(|n| call_program(links, n));
    let inlined = |links, blocks| {
        let program = parse(&call_program(links, blocks)).expect("parses");
        let (out, stats) = inline_program(&program);
        for f in &out.funcs {
            let level = f.body.stmts.iter().map(|s| parser::deepest(s, 1)).max();
            assert!(level <= Some(MAX_NESTING), "{} at {level:?}", f.name);
        }
        stats.inlined_calls
    };
    assert_eq!(inlined(links, blocks), 0, "the at-limit splice was made");
    assert_eq!(
        inlined(links / 4, blocks / 4),
        1,
        "a shallow splice was refused"
    );
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || {
            let src = call_program(links, blocks);
            let mut outputs = outputs_everywhere("inline", &src, true);
            outputs.extend(outputs_everywhere("no inline", &src, false));
            assert!(outputs.windows(2).all(|w| w[0] == w[1]));
        })
        .expect("spawn")
        .join()
        .expect("the at-limit call ran");
}

/// How many links each deep heap shape has.
const LINKS: usize = 100_000;

/// The deep heap shapes: `build(n)` returns the head of an `n`-link
/// chain whose `v`s are `i % 7`, and `main` sums them down the chain.
/// Links through a pointer, through a one-element `[]*T`, and through a
/// one-entry `map[int]*T`.
const HEAP_SHAPES: [(&str, &str); 3] = [
    (
        "pointer list",
        "type T struct { next *T\n v int }\n\
         func build(n int) *T { var head *T\n\
         for i := 0; i < n; i += 1 { head = &T{head, i % 7} }\n return head }\n\
         func main() { t := 0\n for p := build(LINKS); p != nil; p = p.next { t += p.v }\n print(t) }\n",
    ),
    (
        "slice chain",
        "type T struct { kids []*T\n v int }\n\
         func build(n int) *T { var head *T\n\
         for i := 0; i < n; i += 1 { kids := make([]*T, 1)\n kids[0] = head\n head = &T{kids, i % 7} }\n\
         return head }\n\
         func main() { t := 0\n for p := build(LINKS); p != nil; p = p.kids[0] { t += p.v }\n print(t) }\n",
    ),
    (
        "map chain",
        "type T struct { next map[int]*T\n v int }\n\
         func build(n int) *T { var head *T\n\
         for i := 0; i < n; i += 1 { m := make(map[int]*T)\n m[0] = head\n head = &T{m, i % 7} }\n\
         return head }\n\
         func main() { t := 0\n for p := build(LINKS); p != nil; p = p.next[0] { t += p.v }\n print(t) }\n",
    ),
];

/// A deep guest heap neither overflows the marker (GC on: every cycle
/// marks the whole chain) nor the teardown (GC off: the chain outlives
/// the run and is dropped with it), on either engine under either
/// collector, on a 2 MiB stack.
#[test]
fn a_deep_heap_structure_runs_everywhere_on_a_2_mib_stack() {
    let want = format!("{}\n", (0..LINKS).map(|i| i % 7).sum::<usize>());
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || {
            for (name, shape) in HEAP_SHAPES {
                let src = shape.replace("LINKS", &LINKS.to_string());
                let compiled = compile(&src, &CompileOptions::go())
                    .unwrap_or_else(|e| panic!("{name}: {}", e.render(&src)));
                for setting in [Setting::Go, Setting::GoGcOff] {
                    for collector in [CollectorKind::Go, CollectorKind::Generational] {
                        for engine in [VmEngine::TreeWalk, VmEngine::Bytecode] {
                            let cfg = RunConfig {
                                engine,
                                collector,
                                ..RunConfig::deterministic(1)
                            };
                            let r = execute(&compiled, setting, &cfg).unwrap_or_else(|e| {
                                panic!("{name} {setting:?} {collector:?} {engine}: {e}")
                            });
                            assert_eq!(r.output, want, "{name} {setting:?} {collector:?} {engine}");
                            let gcs = r.metrics.gcs;
                            match setting {
                                Setting::GoGcOff => assert_eq!(gcs, 0, "{name}"),
                                _ => assert!(gcs > 0, "{name} {collector:?}: no cycle marked"),
                            }
                        }
                    }
                }
            }
        })
        .expect("spawn")
        .join()
        .expect("every deep heap shape ran");
}
