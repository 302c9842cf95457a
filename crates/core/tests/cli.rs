//! Integration tests for the `minigo` command-line tool.

use std::io::Write as _;
use std::process::Command;

fn write_temp(name: &str, content: impl AsRef<[u8]>) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("minigo-cli-{name}-{}.mgo", std::process::id()));
    let mut f = std::fs::File::create(&path).expect("create temp file");
    f.write_all(content.as_ref()).expect("write");
    path
}

const PROGRAM: &str = "func work(n int) int { s := make([]int, n)\n s[0] = n\n x := s[0]\n return x }\nfunc main() { print(work(64)) }\n";

fn minigo(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_minigo"))
        .args(args)
        .output()
        .expect("run minigo")
}

#[test]
fn run_prints_output_and_metrics() {
    let path = write_temp("run", PROGRAM);
    let out = minigo(&["run", path.to_str().unwrap()]);
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout), "64\n");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("[GoFree]"), "{err}");
    assert!(err.contains("freed="), "{err}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn run_go_mode_frees_nothing() {
    let path = write_temp("go", PROGRAM);
    let out = minigo(&["run", "--go", path.to_str().unwrap()]);
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("freed=0B"), "{err}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn build_shows_instrumentation() {
    let path = write_temp("build", PROGRAM);
    let out = minigo(&["build", path.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("tcfree(s)"), "{text}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn analyze_lists_properties_and_frees() {
    let path = write_temp("analyze", PROGRAM);
    let out = minigo(&["analyze", "--func", "work", path.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("func work:"), "{text}");
    assert!(text.contains("TcfreeSlice s"), "{text}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn dot_emits_graphviz() {
    let path = write_temp("dot", PROGRAM);
    let out = minigo(&["dot", "--func", "work", path.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("digraph"), "{text}");
    assert!(text.contains("heapLoc"), "{text}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn profile_lists_sites() {
    let path = write_temp("profile", PROGRAM);
    let out = minigo(&["profile", path.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("make (in work)"), "{text}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn errors_are_reported() {
    let out = minigo(&["run", "/nonexistent/file.mgo"]);
    assert!(!out.status.success());
    let bad = write_temp("bad", "func main() { undefined() }\n");
    let out = minigo(&["run", bad.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("undefined"));
    let _ = std::fs::remove_file(bad);
    let out = minigo(&["frobnicate"]);
    assert!(!out.status.success());
}

#[test]
fn explain_reports_decisions_with_reasons() {
    let src = "func main() { n := 30\n kept := make([]int, n)\n { temp := make([]int, n)\n temp[0] = 1\n alias := kept[0:5]\n alias[0] = temp[0] }\n defer print(len(kept))\n print(kept[0]) }\n";
    let path = write_temp("explain", src);
    let out = minigo(&["explain", path.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("temp") && text.contains("FREED"), "{text}");
    assert!(text.contains("defer/panic"), "{text}");
    assert!(text.contains("outlived by"), "{text}");
    let _ = std::fs::remove_file(path);
}

/// `run --service` writes the artifacts `run` writes: here a reconciled
/// profile and its folded-stack companion.
#[test]
fn service_mode_writes_the_profile() {
    let file = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/programs/kvservice.mgo");
    let prof = std::env::temp_dir().join(format!("minigo-cli-svc-{}.prof", std::process::id()));
    let prof = prof.to_str().unwrap();
    let out = minigo(&[
        "run",
        "--service",
        "--requests",
        "200",
        "--profile",
        prof,
        file.to_str().unwrap(),
    ]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{err}");
    assert!(err.contains("[profile]"), "{err}");
    let report = std::fs::read_to_string(prof).expect("profile written");
    assert!(!report.is_empty());
    let folded = std::fs::read_to_string(format!("{prof}.folded")).expect("folded written");
    assert!(!folded.is_empty());
    let _ = std::fs::remove_file(prof);
    let _ = std::fs::remove_file(format!("{prof}.folded"));
}

/// Whatever goes wrong — unreadable source, a run-time error, a resource
/// limit — `minigo` exits 1 with one `minigo: ...` line on stderr: never
/// 0, never an abort (134) or a panic (101).
#[test]
fn every_failure_exits_1_with_one_line() {
    let fails = |label: &str, args: &[&str], want: &str| {
        let out = minigo(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{label}: {err}");
        assert_eq!(err.lines().count(), 1, "{label}: {err}");
        assert!(
            err.starts_with("minigo: ") && err.contains(want),
            "{label}: {err}"
        );
        err.into_owned()
    };

    // 300 bytes off a fixed LCG: not UTF-8 (and not MiniGo).
    let mut x = 0x2545_f491_4f6c_dd1d_u64;
    let noise: Vec<u8> = std::iter::repeat_with(|| {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 56) as u8
    })
    .take(300)
    .collect();
    assert!(std::str::from_utf8(&noise).is_err());
    let path = write_temp("noise", &noise);
    for cmd in ["run", "analyze", "build"] {
        fails(cmd, &[cmd, path.to_str().unwrap()], "valid UTF-8");
    }
    let _ = std::fs::remove_file(path);

    for (name, src, want) in [
        ("spin", "func main() { for {} }\n", "step limit exceeded"),
        (
            "len",
            "func main() { s := make([]int, 1024*1024*1024*1024)\n print(len(s)) }\n",
            "makeslice: len out of range",
        ),
        (
            "cap",
            "func main() { s := make([]int, 3, 1024*1024*1024*1024*1024*1024)\n print(len(s)) }\n",
            "makeslice: cap out of range",
        ),
        (
            "div",
            "func main() { a := 7\n z := 0\n print(a / z) }\n",
            "integer divide by zero",
        ),
    ] {
        let path = write_temp(name, src);
        fails(name, &["run", path.to_str().unwrap()], want);
        let _ = std::fs::remove_file(path);
    }

    // Nesting far past the parser's budget: an error at the first level
    // too deep (`line:col: error: nesting too deep ...`), never a stack
    // overflow in the parser, a later pass or the tree's drop.
    let deep = 200_000;
    let arms: String = (1..=20_000)
        .map(|k| format!(" else if x == {k} {{ }}"))
        .collect();
    for (name, src) in [
        (
            "parens",
            format!(
                "func main() {{ x := {}1{} }}",
                "(".repeat(deep),
                ")".repeat(deep)
            ),
        ),
        (
            "blocks",
            format!("func main() {{ {}{} }}", "{".repeat(deep), "}".repeat(deep)),
        ),
        (
            "unary",
            format!("func main() {{ x := {}1 }}", "-".repeat(deep)),
        ),
        (
            "operators",
            format!("func main() {{ x := 1{} }}", "+1".repeat(deep)),
        ),
        (
            "postfix",
            format!(
                "func main() {{ s := make([]int, 1)\n x := s{} }}",
                "[0:1]".repeat(deep)
            ),
        ),
        (
            "else-if",
            format!("func main() {{ x := 1\n if x == 0 {{ }}{arms} }}"),
        ),
    ] {
        let path = write_temp(name, src);
        let err = fails(name, &["run", path.to_str().unwrap()], "nesting too deep");
        let mut at = err["minigo: ".len()..].split(':');
        let mut number = || at.next().and_then(|n| n.parse::<usize>().ok());
        assert!(
            number().is_some() && number().is_some(),
            "{name}: no line:col in {err}"
        );
        let _ = std::fs::remove_file(path);
    }

    let path = write_temp("good", PROGRAM);
    let good = path.to_str().unwrap();
    // A service run is one run: `--runs` above 1 is refused, not ignored.
    fails(
        "service-runs",
        &["run", "--service", "--runs", "2", good],
        "--runs",
    );
    assert_eq!(minigo(&["run", good]).status.code(), Some(0));
    let _ = std::fs::remove_file(path);
}
