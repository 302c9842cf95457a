//! Integration tests for the `bench` command line: a malformed invocation
//! exits 1 with one `bench: ...` line, `--quick` never overrides an
//! explicit `--runs`, and the shared options mean the same thing in every
//! experiment.

use std::process::{Command, Output};

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(args)
        .output()
        .expect("run bench")
}

fn temp(name: &str) -> String {
    std::env::temp_dir()
        .join(format!("bench-cli-{name}-{}", std::process::id()))
        .to_str()
        .expect("temp path is UTF-8")
        .to_string()
}

#[test]
fn malformed_invocations_exit_1_with_one_line() {
    for (args, want) in [
        (
            &["table9", "--collector", "nope", "--jobs", "0", "--bogus"][..],
            "unknown collector 'nope' (expected go|gen)",
        ),
        (&["table9", "--bogus"], "unknown option --bogus"),
        (&["table9", "-r", "3"], "unknown option -r"),
        (&["table9", "--runs"], "--runs needs a positive number"),
        (&["table9", "--runs", "x"], "--runs needs a positive number"),
        (&["table9", "--runs", "0"], "--runs needs a positive number"),
        (&["table9", "--jobs", "0"], "--jobs needs a positive number"),
        (&["table9", "--engine", "jit"], "unknown engine"),
        (&["table9", "--opt", "max"], "unknown opt level"),
        (
            &["table9", "--free-placement", "early"],
            "--free-placement needs scope or lastuse",
        ),
        (&["table9", "--trace"], "--trace needs an output path"),
        (&["table9", "table8"], "unexpected argument table8"),
        (&["nosuch"], "unknown experiment `nosuch`"),
        (&["engines"], "unknown experiment `engines`"),
        (&[], "usage: bench <experiment>"),
    ] {
        let out = bench(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert_eq!(err.lines().count(), 1, "{args:?}: {err}");
        assert!(
            err.starts_with("bench: ") && err.contains(want),
            "{args:?}: {err}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran something");
    }
}

#[test]
fn list_names_every_experiment() {
    let out = bench(&["--list"]);
    assert!(out.status.success());
    let names: Vec<String> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(str::to_string)
        .collect();
    assert_eq!(names.len(), 20, "{names:?}");
    for name in ["table3", "table7", "compile_speed", "collectors", "service"] {
        assert!(names.iter().any(|n| n == name), "{name} missing: {names:?}");
    }
}

#[test]
fn quick_never_overrides_an_explicit_runs() {
    for (args, want) in [
        (&["fig11", "--quick"][..], "9 runs per setting"),
        (&["fig11", "--quick", "--runs", "3"], "3 runs per setting"),
        (&["fig11", "--runs", "3", "--quick"], "3 runs per setting"),
    ] {
        let out = bench(args);
        assert!(out.status.success(), "{args:?}");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains(want), "{args:?}: {text}");
    }
}

#[test]
fn free_placement_reaches_the_designated_run() {
    let json = temp("placement.json");
    let out = bench(&[
        "table9",
        "--quick",
        "--free-placement",
        "lastuse",
        "--report-json",
        &json,
    ]);
    assert!(out.status.success());
    let text = std::fs::read_to_string(&json).expect("report written");
    assert!(
        text.contains("\"placement\":{\"mode\":\"lastuse\""),
        "{text}"
    );
    let _ = std::fs::remove_file(&json);
}

/// An experiment without a designated run (table 3 runs no program)
/// observes the `json` workload, so an asked-for artifact is never
/// silently skipped.
#[test]
fn an_experiment_without_a_run_still_writes_its_artifacts() {
    let json = temp("table3.json");
    let prof = temp("table3.prof");
    let out = bench(&[
        "table3",
        "--quick",
        "--gctrace",
        "--profile",
        &prof,
        "--report-json",
        &json,
    ]);
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("[gctrace] collector=go"), "{err}");
    assert!(err.contains("[report] wrote"), "{err}");
    assert!(std::fs::read_to_string(&json).is_ok_and(|t| t.contains("\"schema\"")));
    assert!(std::fs::metadata(format!("{prof}.folded")).is_ok());
    for f in [json, format!("{prof}.folded"), prof] {
        let _ = std::fs::remove_file(f);
    }
}
