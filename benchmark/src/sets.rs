//! Sets of runs: `all` (every workload, timed then traced, one child
//! process per run so peak memory is per workload), `selfcheck` (two sets
//! of the same binary must agree within the benchmark's own bounds) and
//! `compare` (alternating pairs of two prebuilt binaries).

use std::process::{Command, Stdio};

use crate::harness::{median, quantile};
use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::{provenance, Flags};

/// A child's result line, read back.
pub struct Parsed {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, String)>,
    pub line: String,
}

impl Parsed {
    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }
}

/// Parses the one format `RunResult::to_json` writes.
pub fn parse_result(line: &str) -> Option<Parsed> {
    let number = |key: &str| -> Option<u64> {
        let rest = line.split_once(&format!("\"{key}\": "))?.1;
        rest[..rest.find([',', '}'])?].trim().parse().ok()
    };
    let body = line.split_once("\"metrics\": {")?.1;
    let mut metrics = Vec::new();
    for entry in body.split("\"}") {
        let Some((name, rest)) = entry.split_once("\": {\"value\": ") else {
            continue;
        };
        let (value, unit) = rest.split_once(", \"unit\": \"")?;
        metrics.push((
            name.rsplit('"').next()?.to_string(),
            value.parse().ok()?,
            unit.to_string(),
        ));
    }
    Some(Parsed {
        correct: line.contains("\"correct\": true"),
        attempted: number("attempted")?,
        failed: number("failed")?,
        metrics,
        line: line.to_string(),
    })
}

/// Runs `exe` for one workload in a child process and reads its result.
fn child(
    exe: &str,
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
) -> Result<Parsed, String> {
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("{exe}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let parsed = stdout.lines().last().and_then(parse_result);
    match parsed {
        Some(p) if out.status.success() || !p.correct => Ok(p),
        _ => Err(format!(
            "{exe} --workload {workload} --trace {}: {} and no result line",
            trace as u8, out.status
        )),
    }
}

fn this_exe() -> Result<String, String> {
    std::env::current_exe()
        .map(|p| p.to_string_lossy().into_owned())
        .map_err(|e| format!("cannot find this executable: {e}"))
}

/// One set: per workload, the timed run and the traced run.
struct Set(Vec<(&'static str, Parsed, Parsed)>);

impl Set {
    fn run(exe: &str, f: &Flags) -> Result<Set, String> {
        let mut runs = Vec::new();
        for w in WORKLOADS {
            eprintln!("[{w}] timed run ...");
            let timed = child(exe, w, f.seed, f.seconds, false, f.quick)?;
            eprintln!("[{w}] traced run ...");
            let traced = child(exe, w, f.seed, f.seconds, true, f.quick)?;
            runs.push((w, timed, traced));
        }
        Ok(Set(runs))
    }

    fn correct(&self) -> bool {
        self.0.iter().all(|(_, a, b)| a.correct && b.correct)
    }
}

/// Prints one row per metric and one column per workload and set.
fn print_table(sets: &[&Set]) {
    print!("{:<40} {:<6} {:<6}", "metric", "unit", "better");
    for (k, _) in sets.iter().enumerate() {
        for w in WORKLOADS {
            let col = if sets.len() > 1 {
                format!("{w}#{}", k + 1)
            } else {
                w.to_string()
            };
            print!(" {col:>18}");
        }
    }
    println!();
    let rows = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, false, false))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit, m.higher, true)));
    for (name, unit, higher, traced) in rows {
        let better = if higher { "higher" } else { "lower" };
        print!("{name:<40} {unit:<6} {better:<6}");
        for set in sets {
            for (_, t, l) in &set.0 {
                let v = if traced { l.value(name) } else { t.value(name) };
                print!(" {:>18}", v.map_or("-".to_string(), |v| format!("{v:.4}")));
            }
        }
        println!();
    }
    for (k, set) in sets.iter().enumerate() {
        for (w, t, l) in &set.0 {
            println!(
                "set {} {w}: timed {} attempted / {} failed, traced {} attempted / {} failed",
                k + 1,
                t.attempted,
                t.failed,
                l.attempted,
                l.failed
            );
        }
    }
}

/// `all`: the one command. Prints every metric by name with its unit,
/// and writes the set with its provenance header as JSON.
pub fn all(f: &Flags) -> Result<bool, String> {
    let set = Set::run(&this_exe()?, f)?;
    print_table(&[&set]);
    let runs: Vec<String> = set
        .0
        .iter()
        .map(|(w, t, l)| {
            format!(
                "{{\"workload\": \"{w}\", \"timed\": {}, \"traced\": {}}}",
                t.line, l.line
            )
        })
        .collect();
    let json = format!(
        "{{\"header\": {},\n \"runs\": [\n  {}\n ]}}\n",
        provenance::header(f.seed, f.seconds, f.quick),
        runs.join(",\n  ")
    );
    let path = std::path::PathBuf::from(f.json.as_deref().unwrap_or("benchmark/out/latest.json"));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(set.correct())
}

/// `selfcheck`: two sets back to back on this binary. Every end-to-end
/// metric of set 2 must be within its bound of set 1 and every count
/// must be bit-equal.
pub fn selfcheck(f: &Flags) -> Result<bool, String> {
    let exe = this_exe()?;
    let (a, b) = (Set::run(&exe, f)?, Set::run(&exe, f)?);
    print_table(&[&a, &b]);
    let mut ok = a.correct() && b.correct();
    for ((w, ta, la), (_, tb, lb)) in a.0.iter().zip(&b.0) {
        for m in &END_TO_END {
            let (x, y) = (
                ta.value(m.name).unwrap_or(0.0),
                tb.value(m.name).unwrap_or(0.0),
            );
            let worse = (y - x) / x;
            let verdict = if worse > m.bound {
                ok = false;
                "OUT OF BOUND"
            } else {
                "ok"
            };
            println!(
                "{w:<16} {:<12} set2/set1 = {:.4} (set1 = {x:.4} {}), bound +{:.0} %: {verdict}",
                m.name,
                y / x,
                m.unit,
                m.bound * 100.0
            );
        }
        for m in PER_LAYER.iter().filter(|m| m.count) {
            let (x, y) = (la.value(m.name), lb.value(m.name));
            if x != y {
                ok = false;
                println!("{w:<16} {} is a count and differs: {x:?} vs {y:?}", m.name);
            }
        }
    }
    println!("selfcheck: {}", if ok { "passed" } else { "FAILED" });
    Ok(ok)
}

fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    (quantile(v, 0.25), median(v), quantile(v, 0.75))
}

/// `compare A B`: the protocol for a later gain claim. `--pairs` (>= 10)
/// alternating pairs of timed runs, each pair with a fresh seed; B wins a
/// metric only if it reads better in >= 9/10 of the pairs that are not
/// ties and the medians differ by more than A's own interquartile spread.
pub fn compare(a: &str, b: &str, f: &Flags) -> Result<bool, String> {
    if f.pairs < 10 {
        return Err("compare needs at least 10 pairs".into());
    }
    let mut regressed = false;
    for w in WORKLOADS {
        let (mut ra, mut rb) = (Vec::new(), Vec::new());
        for pair in 0..f.pairs {
            let seed = f.seed.wrapping_add(pair as u64);
            let run = |exe: &str| child(exe, w, seed, f.seconds, false, false);
            // Alternate which side runs first.
            let (pa, pb) = if pair % 2 == 0 {
                let pa = run(a)?;
                (pa, run(b)?)
            } else {
                let pb = run(b)?;
                (run(a)?, pb)
            };
            eprintln!("[{w}] pair {}/{} done", pair + 1, f.pairs);
            ra.push(pa);
            rb.push(pb);
        }
        let failed = |r: &[Parsed]| r.iter().map(|p| p.failed).sum::<u64>();
        println!(
            "{w}: failed iterations A {} / B {}",
            failed(&ra),
            failed(&rb)
        );
        for m in &END_TO_END {
            let va: Vec<f64> = ra.iter().filter_map(|p| p.value(m.name)).collect();
            let vb: Vec<f64> = rb.iter().filter_map(|p| p.value(m.name)).collect();
            let wins = va.iter().zip(&vb).filter(|(x, y)| y < x).count();
            let decided = va.iter().zip(&vb).filter(|(x, y)| y != x).count();
            let ((a1, am, a3), (b1, bm, b3)) = (quartiles(&va), quartiles(&vb));
            let spread = a3 - a1;
            let verdict = if wins * 10 >= decided * 9 && decided > 0 && am - bm > spread {
                "B WINS"
            } else if (bm - am) / am > m.bound {
                regressed = true;
                "B REGRESSES"
            } else if spread / am > m.bound {
                "unresolved (A's spread exceeds the bound)"
            } else {
                "no change"
            };
            println!(
                "  {:<12} A {am:.4} [{a1:.4}, {a3:.4}]  B {bm:.4} [{b1:.4}, {b3:.4}] {}  \
                 B/A = {:.4} (A = {am:.4})  B better in {wins}/{decided} pairs: {verdict}",
                m.name,
                m.unit,
                bm / am
            );
        }
    }
    Ok(!regressed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunResult;

    #[test]
    fn result_line_round_trips() {
        let r = RunResult {
            attempted: 107,
            failed: 1,
            metrics: vec![
                ("iter_ms_p50".into(), 131.2504, "ms".into()),
                (
                    "core.service.host_req_per_s".into(),
                    0.0000125,
                    "1/s".into(),
                ),
            ],
        };
        let p = parse_result(&r.to_json()).expect("parses");
        assert!(!p.correct);
        assert_eq!((p.attempted, p.failed), (107, 1));
        assert_eq!(p.metrics, r.metrics);
    }
}
