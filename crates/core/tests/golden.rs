//! Golden snapshot tests for the user-facing CLI surfaces: the
//! `--explain` per-site diagnostics, the `--trace` timeline table, the
//! `--profile` report + folded stacks, the `--gctrace` pacing log, and
//! the `--report-json` export.
//! Expected outputs live under `tests/golden/`; update them after an
//! intentional change with
//!
//! ```text
//! GOFREE_BLESS=1 cargo test -p gofree --test golden
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_file(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

/// Compares `actual` against `tests/golden/<name>.txt`, or rewrites the
/// snapshot when `GOFREE_BLESS=1` is set.
fn assert_golden(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"));
    if std::env::var("GOFREE_BLESS").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().unwrap()).expect("golden dir");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden {}; bless with GOFREE_BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "golden mismatch for {name}; if the change is intentional, re-bless with \
         GOFREE_BLESS=1 cargo test -p gofree --test golden"
    );
}

/// Runs the `minigo` binary and captures both streams with markers, so a
/// snapshot pins stdout and stderr at once.
fn run_minigo(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_minigo"))
        .args(args)
        .output()
        .expect("minigo runs");
    assert!(
        out.status.success(),
        "minigo {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    format!(
        "# stdout\n{}# stderr\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    )
}

#[test]
fn explain_demo_snapshot() {
    let file = repo_file("examples/programs/demo.mgo");
    assert_golden(
        "explain_demo",
        &run_minigo(&["build", "--explain", file.to_str().unwrap()]),
    );
}

#[test]
fn explain_linkedlist_snapshot() {
    let file = repo_file("examples/programs/linkedlist.mgo");
    assert_golden(
        "explain_linkedlist",
        &run_minigo(&["build", "--explain", file.to_str().unwrap()]),
    );
}

#[test]
fn trace_timeline_snapshot() {
    // `minigo run --trace` prints the per-site timeline table (plus the
    // run report) to stderr; the seed pins the virtual-time stream. The
    // JSON output path varies per run, so it is normalised out.
    let file = repo_file("examples/programs/sieve.mgo");
    let json = std::env::temp_dir().join("gofree-golden-trace.json");
    let json_str = json.to_str().unwrap().to_string();
    let out = run_minigo(&[
        "run",
        "--seed",
        "7",
        "--trace",
        &json_str,
        file.to_str().unwrap(),
    ]);
    let normalised = out.replace(&json_str, "<trace.json>");
    assert_golden("trace_timeline_sieve", &normalised);

    // The exported Chrome JSON must be well-formed enough to pin a few
    // structural invariants (it is timestamp-heavy, so no full snapshot).
    let json_text = std::fs::read_to_string(&json).expect("trace json written");
    assert!(json_text.starts_with("{\"traceEvents\":["));
    assert!(json_text.contains("\"escape-solve\""));
    assert!(json_text.contains("\"alloc\""));
    assert!(json_text.contains("\"free\""));
    assert!(json_text.contains("\"stack\""));
    let _ = std::fs::remove_file(&json);
}

#[test]
fn profile_report_snapshot() {
    // `minigo run --profile` writes the stack-attributed allocation
    // report (totals, top stacks, drag table, heap snapshots) plus the
    // folded-stack companion; seeded, so both are bit-stable.
    let file = repo_file("examples/programs/sieve.mgo");
    let out_path = std::env::temp_dir().join("gofree-golden-profile.txt");
    let out_str = out_path.to_str().unwrap().to_string();
    let cli = run_minigo(&[
        "run",
        "--seed",
        "7",
        "--profile",
        &out_str,
        file.to_str().unwrap(),
    ]);
    let normalised = cli.replace(&out_str, "<profile.txt>");
    assert_golden("profile_cli_sieve", &normalised);

    let report = std::fs::read_to_string(&out_path).expect("profile written");
    assert_golden("profile_report_sieve", &report);
    let folded =
        std::fs::read_to_string(format!("{out_str}.folded")).expect("folded profile written");
    assert_golden("profile_folded_sieve", &folded);
    let _ = std::fs::remove_file(&out_path);
    let _ = std::fs::remove_file(format!("{out_str}.folded"));
}

#[test]
fn gctrace_snapshot() {
    // `--gctrace` under the plain Go pipeline on wordcount crosses the
    // pacing goal, so the log has at least one cycle line; the seed pins
    // the stream exactly.
    let file = repo_file("examples/programs/wordcount.mgo");
    let out = run_minigo(&[
        "run",
        "--go",
        "--seed",
        "7",
        "--gctrace",
        file.to_str().unwrap(),
    ]);
    assert!(
        out.contains("gc 1 [go/major] @"),
        "no pacing line in:\n{out}"
    );
    assert!(
        out.contains("[gctrace] collector=go"),
        "no collector summary in:\n{out}"
    );
    assert_golden("gctrace_wordcount", &out);
}

#[test]
fn report_json_snapshot() {
    let file = repo_file("examples/programs/sieve.mgo");
    let out_path = std::env::temp_dir().join("gofree-golden-report.json");
    let out_str = out_path.to_str().unwrap().to_string();
    let cli = run_minigo(&[
        "run",
        "--seed",
        "7",
        "--report-json",
        &out_str,
        file.to_str().unwrap(),
    ]);
    assert!(cli.contains("[report] wrote"));
    let json = std::fs::read_to_string(&out_path).expect("report json written");
    assert_golden("report_json_sieve", &json);
    let _ = std::fs::remove_file(&out_path);
}

#[test]
fn chrome_trace_runtime_track_snapshot() {
    // The Chrome export's runtime track alone (no compile phases, whose
    // host timings vary): wordcount under GoFree on the generational
    // collector, seeded, runs five cycles, so the snapshot pins every
    // free's and sweep's address, site and stack.
    let src = std::fs::read_to_string(repo_file("examples/programs/wordcount.mgo"))
        .expect("wordcount source");
    let compiled = gofree::compile(&src, &gofree::Setting::GoFree.compile_options())
        .expect("wordcount compiles");
    let cfg = gofree::RunConfig {
        seed: 7,
        trace: true,
        collector: gofree::CollectorKind::Generational,
        ..gofree::RunConfig::default()
    };
    let report = gofree::execute(&compiled, gofree::Setting::GoFree, &cfg).expect("runs");
    let trace = report.trace.expect("traced run carries a trace");
    assert_golden(
        "chrome_trace_wordcount_gen",
        &gofree::chrome_trace_json(&trace, &[]),
    );
}
