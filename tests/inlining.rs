//! The §4.6.4 inlining pass may change where objects live, never what a
//! program prints: every program is compiled with inlining off and on,
//! under Go and under GoFree, and the outputs must match.

use gofree::{compile, execute, CompileOptions, RunConfig, Setting};
use gofree_workloads::{fuzzgen, regressions, Scale};

/// A callee whose early `return` sits in the third arm of an `else if`
/// chain: not inlinable (two returns), and inlining it anyway turns the
/// early return into a return from the caller.
const ELSE_IF_RETURN: &str = r#"
func g(i int) int {
    y := i * 2
    if i < 0 {
        y = 0
    } else if i > 100 {
        y = 1
    } else if i%3 == 0 {
        return 9
    }
    return y
}

func h(i int) int {
    x := g(i)
    return x + 100
}

func main() {
    t := 0
    for i := 0; i < 10; i += 1 {
        t += h(i)
    }
    print(t)
}
"#;

fn programs() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = gofree_workloads::all(Scale::Test)
        .into_iter()
        .map(|w| (w.name.to_string(), w.source))
        .collect();
    let examples = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/programs");
    let mut files: Vec<_> = std::fs::read_dir(examples)
        .expect("examples/programs")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "mgo"))
        .collect();
    files.sort();
    for path in files {
        let src = std::fs::read_to_string(&path).expect("readable example");
        out.push((path.display().to_string(), src));
    }
    out.extend(regressions::load());
    out.extend((0..400).map(|seed| (format!("fuzz seed={seed}"), fuzzgen::generate(seed))));
    out.push(("else-if return".to_string(), ELSE_IF_RETURN.to_string()));
    out
}

#[test]
fn inlining_never_changes_program_output() {
    let cfg = RunConfig::deterministic(3);
    let mut cells = 0;
    for (label, src) in programs() {
        for (base, setting) in [
            (CompileOptions::go(), Setting::Go),
            (CompileOptions::default(), Setting::GoFree),
        ] {
            let run = |inline: bool| {
                let opts = CompileOptions {
                    inline,
                    ..base.clone()
                };
                let compiled = compile(&src, &opts)
                    .unwrap_or_else(|e| panic!("{label} (inline={inline}): {}", e.render(&src)));
                execute(&compiled, setting, &cfg)
                    .map(|r| r.output)
                    .map_err(|e| e.to_string())
            };
            let (off, on) = (run(false), run(true));
            assert_eq!(off, on, "{label} ({setting}): inlining changed the output");
            cells += 1;
        }
    }
    assert!(cells >= 2 * 400, "{cells} cells");
}

#[test]
fn an_else_if_return_keeps_its_callee_out_of_line() {
    for opts in [
        CompileOptions::default(),
        CompileOptions {
            inline: true,
            ..CompileOptions::default()
        },
    ] {
        let compiled = compile(ELSE_IF_RETURN, &opts).expect("compiles");
        let out = execute(&compiled, Setting::GoFree, &RunConfig::deterministic(1)).unwrap();
        assert_eq!(out.output, "1090\n", "inline={}", opts.inline);
    }
}
