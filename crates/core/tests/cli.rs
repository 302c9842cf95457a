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

    let path = write_temp("good", PROGRAM);
    assert_eq!(
        minigo(&["run", path.to_str().unwrap()]).status.code(),
        Some(0)
    );
    let _ = std::fs::remove_file(path);
}
