//! Tests for the extended language features: `switch` statements and
//! reslicing (`s[a:b]`), checked through the whole pipeline — parsing,
//! printing, escape analysis, instrumentation, and execution under both
//! compilers.

use gofree::{compile, compile_and_run, CompileOptions, RunConfig, Setting};

fn run_both(src: &str) -> String {
    let cfg = RunConfig::deterministic(11);
    let go = compile_and_run(src, Setting::Go, &cfg).expect("go run");
    let gofree = compile_and_run(src, Setting::GoFree, &cfg).expect("gofree run");
    assert_eq!(go.output, gofree.output, "settings must agree");
    go.output
}

#[test]
fn switch_selects_matching_case() {
    let out = run_both(
        "func classify(n int) string { switch n % 3 {\ncase 0:\n return \"zero\"\ncase 1, 4:\n return \"one\"\ndefault:\n return \"two\"\n} }\nfunc main() { print(classify(9), classify(4), classify(5)) }\n",
    );
    assert_eq!(out, "zero one two\n");
}

#[test]
fn switch_without_default_falls_through_silently() {
    let out = run_both(
        "func main() { x := 0\n switch 7 {\ncase 1:\n x = 1\ncase 2:\n x = 2\n}\n print(x) }\n",
    );
    assert_eq!(out, "0\n");
}

#[test]
fn switch_on_strings() {
    let out = run_both(
        "func main() { s := \"go\"\n switch s {\ncase \"rust\":\n print(1)\ncase \"go\":\n print(2)\ndefault:\n print(3)\n} }\n",
    );
    assert_eq!(out, "2\n");
}

#[test]
fn switch_break_exits_switch_not_loop() {
    let out = run_both(
        "func main() { total := 0\n for i := 0; i < 5; i += 1 { switch i % 2 {\ncase 0:\n break\ncase 1:\n total += i\n}\n total += 100 }\n print(total) }\n",
    );
    // All 5 iterations add 100; odd i (1, 3) add i.
    assert_eq!(out, "504\n");
}

#[test]
fn switch_case_bodies_are_scopes_with_frees() {
    // A heap slice declared inside a case body gets its tcfree inside
    // that arm.
    let src = "func main() { n := 100\n switch n % 2 {\ncase 0:\n s := make([]int, n)\n s[0] = 1\n print(s[0])\ndefault:\n print(9)\n} }\n";
    let compiled = compile(src, &CompileOptions::default()).expect("compiles");
    assert!(
        compiled.instrumented_source().contains("tcfree(s)"),
        "{}",
        compiled.instrumented_source()
    );
    let out = run_both(src);
    assert_eq!(out, "1\n");
}

#[test]
fn reslice_shares_backing_array() {
    let out = run_both(
        "func main() { s := make([]int, 6)\n for i := 0; i < 6; i += 1 { s[i] = i * 10 }\n t := s[2:5]\n t[0] = 777\n print(s[2], t[0], len(t), cap(t) >= 4) }\n",
    );
    assert_eq!(out, "777 777 3 true\n");
}

#[test]
fn reslice_defaults_and_chaining() {
    let out = run_both(
        "func main() { s := make([]int, 8)\n for i := 0; i < 8; i += 1 { s[i] = i }\n a := s[:4]\n b := s[4:]\n c := s[:]\n d := b[1:3]\n print(len(a), len(b), len(c), d[0], d[1]) }\n",
    );
    assert_eq!(out, "4 4 8 5 6\n");
}

#[test]
fn reslice_up_to_cap_is_legal() {
    let out = run_both(
        "func main() { s := make([]int, 2, 10)\n t := s[0:7]\n t[6] = 42\n print(len(s), len(t), t[6]) }\n",
    );
    assert_eq!(out, "2 7 42\n");
}

#[test]
fn reslice_beyond_cap_fails() {
    let src = "func main() { s := make([]int, 2, 4)\n t := s[0:9]\n print(len(t)) }\n";
    let cfg = RunConfig::deterministic(0);
    let err = compile_and_run(src, Setting::Go, &cfg).unwrap_err();
    assert!(err.to_string().contains("out of range"), "{err}");
}

#[test]
fn reslice_aliasing_blocks_unsound_frees() {
    // t aliases s's array; s lives longer, so freeing t at its inner
    // scope would be unsound — the analysis must refuse.
    let src = "func main() { n := 50\n s := make([]int, n)\n { t := s[10:20]\n t[0] = 5 }\n print(s[10]) }\n";
    let compiled = compile(src, &CompileOptions::default()).expect("compiles");
    assert!(
        !compiled.instrumented_source().contains("tcfree(t)"),
        "t aliases s and must not be freed early:\n{}",
        compiled.instrumented_source()
    );
    assert_eq!(run_both(src), "5\n");
}

#[test]
fn reslice_of_freeable_local_still_freed_at_scope_end() {
    // Both s and its reslice die in the same scope: freeing is fine
    // (double free is tolerated by the runtime).
    let src = "func work(n int) int { s := make([]int, n)\n s[0] = 3\n t := s[0:1]\n x := t[0]\n return x }\nfunc main() { print(work(80)) }\n";
    assert_eq!(run_both(src), "3\n");
}

#[test]
fn poisoning_survives_switch_and_reslice_programs() {
    use gofree::{execute, PoisonMode};
    let src = "func pick(n int) int { scratch := make([]int, n)\n for i := 0; i < n; i += 1 { scratch[i] = i }\n window := scratch[n/4 : n/2]\n total := 0\n switch len(window) % 2 {\ncase 0:\n total = window[0]\ndefault:\n total = window[1]\n}\n return total }\nfunc main() { total := 0\n for r := 0; r < 20; r += 1 { total += pick(40 + r) }\n print(total) }\n";
    let compiled = compile(src, &CompileOptions::default()).expect("compiles");
    let clean = execute(&compiled, Setting::GoFree, &RunConfig::deterministic(2)).unwrap();
    let poisoned = execute(
        &compiled,
        Setting::GoFree,
        &RunConfig {
            poison: PoisonMode::Zero,
            ..RunConfig::deterministic(2)
        },
    )
    .unwrap();
    assert_eq!(clean.output, poisoned.output);
}

#[test]
fn printer_round_trips_new_syntax() {
    let src = "func f(s []int) []int { t := s[1:3]\n switch len(t) {\ncase 2:\n return t\ndefault:\n return s[:]\n} }\nfunc main() { print(len(f(make([]int, 5)))) }\n";
    let p1 = minigo_syntax::parse(src).expect("parses");
    let text1 = minigo_syntax::print_program(&p1);
    let p2 =
        minigo_syntax::parse(&text1).unwrap_or_else(|e| panic!("{}\n{text1}", e.render(&text1)));
    let text2 = minigo_syntax::print_program(&p2);
    assert_eq!(text1, text2, "printer fixpoint");
    assert!(text1.contains("s[1:3]"));
    assert!(text1.contains("switch "));
}

#[test]
fn typecheck_rejects_bad_switch_and_reslice() {
    let bad = [
        // Switch on a slice.
        "func main() { s := make([]int, 1)\n switch s {\ncase nil:\n print(1)\n} }\n",
        // Case type mismatch.
        "func main() { switch 1 {\ncase \"x\":\n print(1)\n} }\n",
        // Reslice of an int.
        "func main() { x := 3\n y := x[0:1]\n print(y) }\n",
        // Non-integer bound.
        "func main() { s := make([]int, 3)\n t := s[\"a\":2]\n print(len(t)) }\n",
    ];
    for src in bad {
        assert!(minigo_syntax::frontend(src).is_err(), "must reject: {src}");
    }
}
