//! The §6.8 robustness suite as an integration test: every workload, the
//! generated corpus, and a battery of tricky programs run with the mock
//! `tcfree` that corrupts memory instead of freeing it. A single unsound
//! compiler-inserted free turns into a `PoisonedRead` failure.

use gofree::{compile, execute, CompileOptions, PoisonMode, RunConfig, Setting};
use gofree_workloads::{all, Scale};

fn poisoned_matches_clean(src: &str, label: &str) {
    let compiled = compile(src, &CompileOptions::default())
        .unwrap_or_else(|e| panic!("{label}: {}", e.render(src)));
    let clean = execute(&compiled, Setting::GoFree, &RunConfig::deterministic(1))
        .unwrap_or_else(|e| panic!("{label} clean: {e}"));
    let cfg = RunConfig {
        poison: PoisonMode::Zero,
        ..RunConfig::deterministic(1)
    };
    let run = execute(&compiled, Setting::GoFree, &cfg)
        .unwrap_or_else(|e| panic!("{label} poisoned: {e}"));
    assert_eq!(run.output, clean.output, "{label}");
}

#[test]
fn workloads_survive_poisoning() {
    for w in all(Scale::Test) {
        poisoned_matches_clean(&w.source, w.name);
    }
}

#[test]
fn corpus_survives_poisoning() {
    for n in [15, 45] {
        let src = gofree_workloads::corpus::generate(n);
        poisoned_matches_clean(&src, &format!("corpus-{n}"));
    }
}

#[test]
fn microbenchmark_survives_poisoning() {
    for &c in gofree_workloads::micro::C_VALUES {
        let src = gofree_workloads::micro::source(c, 16);
        poisoned_matches_clean(&src, &format!("micro-c{c}"));
    }
}

/// Adversarial programs that try to trick the analysis into unsound
/// frees: aliasing through calls, conditional escapes, loop-carried
/// references, maps holding slices, double indirection.
#[test]
fn adversarial_programs_survive_poisoning() {
    let programs: &[(&str, &str)] = &[
        (
            "alias-through-call",
            "func id(s []int) []int { return s }\nfunc main() { n := 64\n a := make([]int, n)\n b := id(a)\n a[0] = 5\n print(b[0]) }\n",
        ),
        (
            "conditional-escape",
            "func main() { n := 64\n var keep []int\n for i := 0; i < 10; i += 1 { s := make([]int, n)\n s[0] = i\n if i == 5 { keep = s } }\n print(keep[0]) }\n",
        ),
        (
            "loop-carried",
            "func main() { n := 32\n prev := make([]int, n)\n prev[0] = 1\n for i := 0; i < 8; i += 1 { cur := make([]int, n)\n cur[0] = prev[0] + 1\n prev = cur }\n print(prev[0]) }\n",
        ),
        (
            "map-holds-slices",
            "func main() { n := 16\n m := make(map[int][]int)\n for i := 0; i < 12; i += 1 { s := make([]int, n)\n s[0] = i\n m[i] = s }\n print(m[7][0], len(m)) }\n",
        ),
        (
            "double-indirection",
            "func main() { n := 40\n s := make([]int, n)\n ps := &s\n pps := &ps\n (*(*pps))[0] = 9\n t := *ps\n print(t[0]) }\n",
        ),
        (
            "struct-carries-slice",
            "type Box struct { data []int }\nfunc fill(n int) Box { b := Box{make([]int, n)}\n b.data[0] = n\n return b }\nfunc main() { b := fill(50)\n c := b\n print(c.data[0]) }\n",
        ),
        (
            "slice-of-maps-window",
            "func main() { w := make([]map[int]int, 4)\n for i := 0; i < 20; i += 1 { m := make(map[int]int)\n for j := 0; j < 20; j += 1 { m[j] = i*j }\n w[i%4] = m }\n print(w[3][5]) }\n",
        ),
        (
            "shared-growth",
            "func main() { m := make(map[int]int)\n alias := m\n for i := 0; i < 120; i += 1 { m[i] = i }\n print(alias[100], len(alias)) }\n",
        ),
        (
            "free-then-reuse-pattern",
            "func scratchpad(n int) int { s := make([]int, n)\n for i := 0; i < n; i += 1 { s[i] = i }\n t := s[n-1]\n return t }\nfunc main() { total := 0\n for r := 0; r < 30; r += 1 { total += scratchpad(64 + r) }\n print(total) }\n",
        ),
        (
            "defer-keeps-alive",
            "func main() { n := 32\n s := make([]int, n)\n s[0] = 77\n defer print(s[0])\n s[0] = 78 }\n",
        ),
    ];
    for (label, src) in programs {
        poisoned_matches_clean(src, label);
    }
}

/// The mock must actually detect unsound frees (the methodology's power):
/// a hand-written premature tcfree fails under poisoning.
#[test]
fn poisoning_detects_hand_written_unsound_free() {
    let src =
        "func main() { n := 64\n s := make([]int, n)\n s[0] = 3\n tcfree(s)\n print(s[0]) }\n";
    let compiled = compile(src, &CompileOptions::go()).unwrap();
    let cfg = RunConfig {
        poison: PoisonMode::Zero,
        ..RunConfig::deterministic(0)
    };
    let err = execute(&compiled, Setting::Go, &cfg).unwrap_err();
    assert_eq!(err, gofree::ExecError::PoisonedRead);
}
