//! The GoFree reproduction's host-clock benchmark. Every layer is timed
//! from outside, through public functions the open ROADMAP items leave
//! alone; see README.md for the metric glossary.
//!
//! ```text
//! gofree-hostbench --workload W --seed S --seconds T --trace 0|1   one run, one result line
//! gofree-hostbench all        [--seed S] [--seconds T] [--quick] [--json PATH]
//! gofree-hostbench selfcheck  [--seed S] [--seconds T]
//! gofree-hostbench compare BIN_A BIN_B [--pairs N] [--seconds T]
//! gofree-hostbench bless
//! ```

mod batch;
mod compile;
mod engines;
mod expected;
mod harness;
mod metrics;
mod provenance;
mod service;
mod sets;

use std::time::{Duration, Instant};

use harness::{median, min, peak_rss_mb, quantile, Iteration, Outputs, Spans, Workload};
use metrics::{DEFAULT_SEED, END_TO_END, PER_LAYER, WORKLOADS};

/// Untimed iterations after each setup, so caches and lazy set-up are
/// paid before the clock starts.
pub const WARMUPS: u32 = 3;
/// Set-ups per timed run: at least the first number, then more while
/// `SETUP_BUDGET` lasts, up to the second.
pub const SETUP_REPEATS: (usize, usize) = (3, 7);
pub const SETUP_BUDGET: Duration = Duration::from_secs(5);
/// Iterations of `--quick`, and the floor of any timed run.
pub const QUICK_ITERS: usize = 5;
/// Cap on traced iterations per run.
pub const TRACED_ITERS: usize = 10;
/// `run_seconds` of BENCHMARK.json: what `all` passes when not told.
pub const DEFAULT_SECONDS: u64 = 15;

/// One run's result, as printed on the last line.
pub struct RunResult {
    pub attempted: usize,
    pub failed: usize,
    /// `(name, value, unit)`.
    pub metrics: Vec<(String, f64, String)>,
}

impl RunResult {
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn make(workload: &str, seed: u64, bless: bool) -> Result<Box<dyn Workload>, String> {
    fn boxed<W: Workload + 'static>(w: W) -> Box<dyn Workload> {
        Box::new(w)
    }
    match workload {
        "compile-corpus" => compile::CompileCorpus::setup(seed, bless).map(boxed),
        "batch-matrix" => batch::BatchMatrix::setup(seed, bless).map(boxed),
        "service-steady" => service::ServiceCells::steady(seed, bless).map(boxed),
        "gc-pressure" => service::ServiceCells::pressure(seed, bless).map(boxed),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// An iteration fails when it errored or its outputs differ from the
/// reference; it keeps its place in the timing samples either way.
fn verdict(it: &Iteration, reference: &Outputs) -> Result<(), String> {
    match &it.result {
        Err(e) => Err(e.clone()),
        Ok(outputs) if outputs != reference => {
            let (key, got) = outputs
                .iter()
                .zip(reference)
                .find(|(a, b)| a != b)
                .map_or(("<cell count>", "<differs>"), |(a, _)| (&a.0, &a.1));
            Err(format!("{key}: `{got}` is not the reference output"))
        }
        Ok(_) => Ok(()),
    }
}

/// Sets up (inputs from the seed, compiles that are not the measured
/// thing, reference + differential check) and warms up; a failure here
/// ends the run without a result. Also returns the host ms of each
/// phase: the set-up proper, then every warm-up.
fn setup(workload: &str, seed: u64) -> Result<(Box<dyn Workload>, Vec<f64>), String> {
    let (ms, w) = harness::timed(|| make(workload, seed, false));
    let (mut w, mut phases_ms) = (w?, vec![ms]);
    for k in 0..WARMUPS {
        let (ms, it) = harness::timed(|| w.iterate(k, None));
        verdict(&it, w.reference()).map_err(|e| format!("warm-up {k}: {e}"))?;
        phases_ms.push(ms);
    }
    Ok((w, phases_ms))
}

/// Every iteration's per-call timings, failed iterations included.
#[derive(Default)]
struct Samples {
    parts_ms: Vec<Vec<f64>>,
    failures: Vec<String>,
}

impl Samples {
    fn totals(&self) -> Vec<f64> {
        self.parts_ms.iter().map(|p| p.iter().sum()).collect()
    }

    /// The sum over an iteration's calls of each call's fastest time
    /// across all iterations. On a shared box whole iterations rarely
    /// run undisturbed but every single call eventually does, so this
    /// repeats far better than the fastest whole iteration (see README,
    /// "Measured spreads").
    fn floor_ms(&self) -> f64 {
        let calls = self.parts_ms.first().map_or(0, Vec::len);
        (0..calls)
            .map(|k| {
                // A failed iteration may have stopped short of call `k`.
                min(&self
                    .parts_ms
                    .iter()
                    .filter_map(|p| p.get(k).copied())
                    .collect::<Vec<_>>())
            })
            .sum()
    }
}

/// The closed loop: iteration k+1 starts when k returns, until `budget`
/// is spent (at least `at_least`, at most `at_most` iterations).
fn measure(
    w: &mut dyn Workload,
    budget: Duration,
    at_least: usize,
    at_most: usize,
    mut spans: Option<&mut Spans>,
) -> Samples {
    let mut s = Samples::default();
    let start = Instant::now();
    let n = |s: &Samples| s.parts_ms.len();
    while n(&s) < at_least || (n(&s) < at_most && start.elapsed() < budget) {
        let it = w.iterate(n(&s) as u32, spans.as_deref_mut());
        if let Err(e) = verdict(&it, w.reference()) {
            s.failures.push(e);
        }
        s.parts_ms.push(it.parts_ms);
    }
    s
}

/// The timed run: tracing off, every end-to-end metric.
fn run_timed(workload: &str, seed: u64, seconds: u64, quick: bool) -> Result<RunResult, String> {
    // `setup_s` is composed like `iter_ms_min`: the sum over a set-up's
    // phases of each phase's fastest time across the repeats.
    let mut setups = Samples::default();
    let mut w = None;
    let (at_least, at_most) = if quick { (1, 1) } else { SETUP_REPEATS };
    let start = Instant::now();
    let n = |s: &Samples| s.parts_ms.len();
    while n(&setups) < at_least || (n(&setups) < at_most && start.elapsed() < SETUP_BUDGET) {
        drop(w.take());
        let (fresh, phases_ms) = setup(workload, seed)?;
        setups.parts_ms.push(phases_ms);
        w = Some(fresh);
    }
    let mut w = w.expect("at least one setup");
    let at_most = if quick { QUICK_ITERS } else { usize::MAX };
    let s = measure(
        w.as_mut(),
        Duration::from_secs(seconds),
        QUICK_ITERS,
        at_most,
        None,
    );
    for f in s.failures.iter().take(3) {
        eprintln!("{workload}: failed iteration: {f}");
    }
    let totals = s.totals();
    println!(
        "{workload}: {} iterations; whole iterations (not gated): min {:.3} p50 {:.3} p90 {:.3} max {:.3} ms",
        totals.len(),
        min(&totals),
        median(&totals),
        quantile(&totals, 0.9),
        quantile(&totals, 1.0)
    );
    let values = [s.floor_ms(), peak_rss_mb(), setups.floor_ms() / 1e3];
    Ok(RunResult {
        attempted: totals.len(),
        failed: s.failures.len(),
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name.to_string(), v, m.unit.to_string()))
            .collect(),
    })
}

/// The traced run: untraced iterations for the base, then iterations
/// with benchmark-side spans, then the workload's probes; every
/// per-layer metric.
fn run_traced(workload: &str, seed: u64, seconds: u64, quick: bool) -> Result<RunResult, String> {
    let (mut w, _) = setup(workload, seed)?;
    let budget = Duration::from_secs(seconds);
    let (floor, cap) = if quick { (2, 2) } else { (3, usize::MAX) };
    let untraced = measure(w.as_mut(), budget / 2, floor, cap, None);
    let mut spans = Spans::new();
    let traced = measure(
        w.as_mut(),
        budget / 3,
        floor,
        cap.min(TRACED_ITERS),
        Some(&mut spans),
    );
    let totals = untraced.totals();
    let mut readings = w.probe(&spans)?;
    readings.extend([
        ("bench.iter_ms_p50".to_string(), median(&totals)),
        ("bench.iter_ms_p90".to_string(), quantile(&totals, 0.9)),
        ("bench.iter_samples".to_string(), totals.len() as f64),
        (
            "bench.trace_overhead_ratio".to_string(),
            harness::ratio(traced.floor_ms(), untraced.floor_ms()),
        ),
        ("bench.span_count".to_string(), spans.spans.len() as f64),
        (
            "bench.available_parallelism".to_string(),
            std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64),
        ),
    ]);
    if let Some((name, _)) = readings
        .iter()
        .find(|(name, _)| !PER_LAYER.iter().any(|m| m.name == name))
    {
        return Err(format!(
            "{workload} reads `{name}`, which metrics.rs does not list"
        ));
    }
    if let Some((name, v)) = readings.iter().find(|(_, v)| !v.is_finite()) {
        return Err(format!("{workload}: {name} = {v}"));
    }
    let out = std::path::Path::new("benchmark/out");
    std::fs::create_dir_all(out)
        .and_then(|()| {
            std::fs::write(
                out.join(format!("trace-{workload}.json")),
                spans.chrome_json(),
            )
        })
        .map_err(|e| format!("writing the trace under {}: {e}", out.display()))?;

    let failures: Vec<&String> = untraced.failures.iter().chain(&traced.failures).collect();
    for f in failures.iter().take(3) {
        eprintln!("{workload}: failed iteration: {f}");
    }
    Ok(RunResult {
        attempted: untraced.parts_ms.len() + traced.parts_ms.len(),
        failed: failures.len(),
        // A layer this workload's iteration does no work in reads 0.
        metrics: PER_LAYER
            .iter()
            .map(|m| {
                let v = readings
                    .iter()
                    .find(|(name, _)| name == m.name)
                    .map_or(0.0, |(_, v)| *v);
                (m.name.to_string(), v, m.unit.to_string())
            })
            .collect(),
    })
}

/// Command-line flags after the optional subcommand and its operands.
pub struct Flags {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub quick: bool,
    pub json: Option<String>,
    pub pairs: usize,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        json: None,
        pairs: 10,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            f.quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => f.workload = Some(value.clone()),
            "--seed" => f.seed = number()?,
            "--seconds" => f.seconds = number()?,
            "--trace" => f.trace = number()? != 0,
            "--pairs" => f.pairs = number()? as usize,
            "--json" => f.json = Some(value.clone()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(f)
}

/// One run in this process: the form the driver (and `all`) invokes.
fn run_one(f: &Flags) -> Result<bool, String> {
    let workload = f.workload.as_deref().ok_or("--workload is required")?;
    let result = if f.trace {
        run_traced(workload, f.seed, f.seconds, f.quick)?
    } else {
        run_timed(workload, f.seed, f.seconds, f.quick)?
    };
    for (name, value, unit) in &result.metrics {
        println!("{workload}  {name}  {value} {unit}");
    }
    println!("{}", result.to_json());
    // `--quick` is the CI smoke form: any failed iteration is an error.
    Ok(result.failed == 0 || !f.quick)
}

/// Recomputes every workload's reference outputs for the default seed
/// and writes them — only if bytecode/full, bytecode/off and the
/// tree-walk agreed on every cell (setup refuses otherwise).
fn bless() -> Result<bool, String> {
    let dir = std::path::Path::new("benchmark/expected");
    for w in WORKLOADS {
        let made = make(w, DEFAULT_SEED, true)?;
        expected::write(dir, w, made.checked()).map_err(|e| format!("{}: {e}", dir.display()))?;
        println!("blessed {} cells of {w}", made.checked().len());
    }
    println!("rebuild, so the new references are compiled in");
    Ok(true)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c) if !c.starts_with("--") => (c, &args[1..]),
        _ => ("run", &args[..]),
    };
    let outcome = match command {
        "run" => parse_flags(rest).and_then(|f| run_one(&f)),
        "all" => parse_flags(rest).and_then(|f| sets::all(&f)),
        "selfcheck" => parse_flags(rest).and_then(|f| sets::selfcheck(&f)),
        "compare" if rest.len() >= 2 => {
            parse_flags(&rest[2..]).and_then(|f| sets::compare(&rest[0], &rest[1], &f))
        }
        "bless" => bless(),
        other => Err(format!(
            "unknown command `{other}` (run | all | selfcheck | compare A B | bless)"
        )),
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("gofree-hostbench: {e}");
            std::process::exit(2);
        }
    }
}
