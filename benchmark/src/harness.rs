//! What every workload shares: the iteration contract, benchmark-side
//! spans, order statistics, and the process's own peak memory.

use std::time::Instant;

/// Keyed outputs of one iteration (`<cell> -> <digest>`), compared with
/// the reference established in setup and with `expected/<workload>.txt`.
pub type Outputs = Vec<(String, String)>;

/// One iteration as the harness sees it: host time of each call into
/// the system (same calls, same order, every iteration), and what they
/// produced (or the first error).
pub struct Iteration {
    pub parts_ms: Vec<f64>,
    pub result: Result<Outputs, String>,
}

/// A named per-layer reading, filled in by a workload's `probe`.
pub type Readings = Vec<(String, f64)>;

pub trait Workload {
    /// Runs one iteration. Only the calls into the system are timed;
    /// digests are computed after the clock stops. With `spans`, every
    /// call is recorded as a child of one iteration span.
    fn iterate(&mut self, iter: u32, spans: Option<&mut Spans>) -> Iteration;

    /// The outputs every iteration must reproduce (iteration 0 of setup,
    /// already checked against the other engines and the expected file).
    fn reference(&self) -> &Outputs;

    /// Everything setup verified across engines — what `bless` writes
    /// and the expected file is checked against. The reference, unless
    /// setup verified more than an iteration reproduces.
    fn checked(&self) -> &Outputs {
        self.reference()
    }

    /// Per-layer readings for the traced run: folds the recorded spans
    /// and runs this workload's extra probes.
    fn probe(&self, spans: &Spans) -> Result<Readings, String>;
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Times `f` and returns `(host ms, result)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = std::hint::black_box(f());
    (ms_since(t), out)
}

/// The fastest of `reps` timings of `f`: disturbance on a shared box
/// only ever adds time. (The probes' repeat count is small and fixed, so
/// their cost does not scale with `--seconds`.)
pub fn best_ms<E>(reps: usize, mut f: impl FnMut() -> Result<f64, E>) -> Result<f64, E> {
    let samples = (0..reps).map(|_| f()).collect::<Result<Vec<f64>, E>>()?;
    Ok(min(&samples))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank quantile (`q` in 0..=1); 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median, averaging the middle pair of an even sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Geometric mean of positive values; 0 for an empty sample.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// FNV-1a over a string: the digest stored in the expected files.
pub fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `VmHWM` of this process in MiB (0 where /proc is absent).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The body of an exec workload's iteration: one timed call per cell,
/// in order. With `spans`, each call is a child of one iteration span,
/// named by `name` and annotated with `counts` of its result. Returns
/// the per-call host ms and every cell's result, or the first failure.
pub fn run_cells<C, R>(
    cells: &[C],
    iter: u32,
    mut spans: Option<&mut Spans>,
    name: impl Fn(&C) -> String,
    run: impl Fn(&C) -> Result<R, String>,
    counts: impl Fn(&R) -> Vec<(&'static str, u64)>,
) -> (Vec<f64>, Result<Vec<R>, String>) {
    let root = spans.as_mut().map(|s| s.open("iteration", None, iter));
    let mut parts_ms = Vec::with_capacity(cells.len());
    let mut results = Ok(Vec::with_capacity(cells.len()));
    for c in cells {
        let (ms, r) = match (spans.as_mut(), root) {
            (Some(s), Some(root)) => {
                let (id, r) = s.call(&name(c), root, || run(c));
                if let Ok(r) = &r {
                    for (key, value) in counts(r) {
                        s.note(id, key, value);
                    }
                }
                (s.spans[id].ms(), r)
            }
            _ => timed(|| run(c)),
        };
        parts_ms.push(ms);
        match (r, &mut results) {
            (Ok(r), Ok(all)) => all.push(r),
            (Err(e), Ok(_)) => results = Err(e),
            _ => {}
        }
    }
    if let (Some(s), Some(root)) = (spans, root) {
        s.close(root);
    }
    (parts_ms, results)
}

/// One benchmark-side span: a timed call into a layer.
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one (the iteration span).
    pub parent: Option<usize>,
    /// Spans of one iteration share its id.
    pub iter: u32,
    /// Counts read at the same boundary (steps, cycles, tokens, ...).
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }

    pub fn count(&self, key: &str) -> u64 {
        self.counts
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0, |(_, v)| *v)
    }
}

/// Spans kept in memory for the whole traced run and written at exit.
pub struct Spans {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Spans::close`].
    pub fn open(&mut self, name: impl Into<String>, parent: Option<usize>, iter: u32) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            parent,
            iter,
            counts: Vec::new(),
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) -> f64 {
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].ms()
    }

    /// Records `f` as a child span of `parent` and returns its result.
    pub fn call<T>(&mut self, name: &str, parent: usize, f: impl FnOnce() -> T) -> (usize, T) {
        let iter = self.spans[parent].iter;
        let id = self.open(name, Some(parent), iter);
        let out = std::hint::black_box(f());
        self.close(id);
        (id, out)
    }

    pub fn note(&mut self, id: usize, key: &'static str, value: u64) {
        self.spans[id].counts.push((key, value));
    }

    /// Sums `value` over the spans called `name` within each iteration
    /// and returns the smallest sum over iterations: that layer's
    /// undisturbed reading per iteration. A count repeats exactly, so
    /// its minimum is the count.
    fn per_iter(&self, name: &str, value: impl Fn(&Span) -> f64) -> f64 {
        let mut iters: Vec<u32> = self.spans.iter().map(|s| s.iter).collect();
        iters.sort_unstable();
        iters.dedup();
        let sums: Vec<f64> = iters
            .into_iter()
            .map(|it| {
                self.spans
                    .iter()
                    .filter(|s| s.iter == it && s.name == name)
                    .map(&value)
                    .sum()
            })
            .collect();
        min(&sums)
    }

    pub fn ms_per_iter(&self, name: &str) -> f64 {
        self.per_iter(name, Span::ms)
    }

    pub fn count_per_iter(&self, name: &str, key: &str) -> f64 {
        self.per_iter(name, |s| s.count(key) as f64)
    }

    /// The spans as a chrome `trace_event` document.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{id},\"iter\":{}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.iter
            ));
            if let Some(p) = s.parent {
                out.push_str(&format!(",\"parent\":{p}"));
            }
            for (k, v) in &s.counts {
                out.push_str(&format!(",\"{k}\":{v}"));
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&v[..3]), 3.0);
        assert_eq!(quantile(&v, 0.9), 4.0);
        assert_eq!(quantile(&v, 0.5), 2.0);
        assert_eq!(min(&v), 1.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn spans_fold_per_iteration() {
        let mut s = Spans::new();
        for it in 0..2 {
            let root = s.open("iteration", None, it);
            let (id, _) = s.call("parse", root, || 1 + 1);
            s.note(id, "tokens", 7);
            s.call("parse", root, || 2 + 2);
            s.close(root);
        }
        assert_eq!(s.spans.len(), 6);
        assert_eq!(s.spans[1].parent, Some(0));
        assert_eq!(s.count_per_iter("parse", "tokens"), 7.0);
        assert!(s.ms_per_iter("parse") >= 0.0);
        assert!(s.chrome_json().contains("\"parent\":0"));
    }
}
