//! Service-mode traffic harness: open-loop load over the virtual clock.
//!
//! Batch runs (`execute`) measure one `main` end to end; this module
//! instead drives a **long-running service**: `setup()` builds the
//! retained state once, then an open-loop arrival schedule fires
//! `handle(state, req)` per request. Arrivals are generated up front
//! from the run seed — fixed-rate, Poisson (integer-only inverse-CDF
//! sampling, so schedules are bit-identical across hosts), or a burst
//! profile with a 4× spike through the middle third — and requests that
//! arrive while the previous one is still executing queue, exactly like
//! an open-loop closed-system benchmark (latency includes queueing
//! delay, which is where GC pauses turn into tail latency).
//!
//! Observables, all deterministic in virtual ticks:
//!
//! * per-request **latency / service-time / queueing** histograms
//!   ([`Histogram`]) plus exact order-statistic percentiles
//!   (p50/p90/p99/p999/max via [`percentile_sorted`]);
//! * **GC pause** histograms split minor/major, from the run's
//!   always-on cycle log ([`Report::cycles`]);
//! * steady-state **heap high-water marks** (live bytes and page
//!   footprint, sampled at request boundaries);
//! * the usual end-of-run [`Report`] (metrics, optional trace with
//!   per-request spans for `chrome://tracing`).
//!
//! Everything is bit-identical across the two VM engines, both opt
//! levels, and `--jobs`, because every engine drives requests through
//! its ordinary call protocol (`tests/service.rs` pins this down).

use std::str::FromStr;

use minigo_runtime::{percentile_sorted, CycleKind, Histogram, SimRng};
use minigo_vm::{Dispatch, ExecError, Session, Value};

use crate::engine::{run_session, Report, RunConfig, Setting};
use crate::pipeline::Compiled;

/// Virtual ticks per simulated second. The chrome-trace exporter writes
/// ticks as microseconds, so this keeps `--rps` and the trace timeline
/// consistent: at 1000 rps the mean inter-arrival gap is 1000 ticks.
pub const TICKS_PER_SEC: u64 = 1_000_000;

/// Latency/pause histogram resolution (log₂ buckets). 64 covers the
/// whole u64 tick range, so no service run ever saturates the top
/// bucket.
pub const SERVICE_BUCKETS: usize = 64;

/// The arrival-process shape of the open-loop schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Arrival {
    /// Evenly spaced arrivals at exactly the configured rate.
    #[default]
    Fixed,
    /// Exponential inter-arrival gaps (a Poisson process) sampled from
    /// the run seed with integer-only arithmetic.
    Poisson,
    /// Fixed-rate baseline with a 4× traffic spike through the middle
    /// third of the run — the phase-change scenario where compiler-
    /// inserted freeing beats GOGC pacing on p999.
    Burst,
}

impl Arrival {
    /// Report/CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Arrival::Fixed => "fixed",
            Arrival::Poisson => "poisson",
            Arrival::Burst => "burst",
        }
    }

    /// All arrival shapes, in display order.
    pub fn all() -> [Arrival; 3] {
        [Arrival::Fixed, Arrival::Poisson, Arrival::Burst]
    }
}

impl std::fmt::Display for Arrival {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Arrival {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "fixed" => Ok(Arrival::Fixed),
            "poisson" => Ok(Arrival::Poisson),
            "burst" => Ok(Arrival::Burst),
            other => Err(format!(
                "unknown arrival {other:?} (expected \"fixed\", \"poisson\", or \"burst\")"
            )),
        }
    }
}

/// Service-mode knobs (on top of the per-run [`RunConfig`]).
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Number of requests to drive.
    pub requests: usize,
    /// Offered load in requests per simulated second
    /// ([`TICKS_PER_SEC`] ticks).
    pub rps: u64,
    /// Arrival-process shape.
    pub arrival: Arrival,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            requests: 2_000,
            rps: 1_000,
            arrival: Arrival::Fixed,
        }
    }
}

impl ServiceConfig {
    /// Mean inter-arrival gap in virtual ticks (at least 1).
    pub fn mean_gap(&self) -> u64 {
        (TICKS_PER_SEC / self.rps.max(1)).max(1)
    }

    /// Generates the full arrival schedule (absolute virtual ticks,
    /// non-decreasing) from `seed`. Pure function of `(self, seed)` —
    /// the same schedule on every host, engine, and job count.
    pub fn schedule(&self, seed: u64) -> Vec<u64> {
        let gap = self.mean_gap();
        let mut rng = SimRng::seed_from_u64(seed ^ 0x5EE7_1CE5_EED5_EED5);
        let mut at = 0u64;
        let n = self.requests;
        let (spike_lo, spike_hi) = (n / 3, 2 * n / 3);
        (0..n)
            .map(|i| {
                let arrival = at;
                let mean = match self.arrival {
                    Arrival::Burst if (spike_lo..spike_hi).contains(&i) => (gap / 4).max(1),
                    _ => gap,
                };
                at += match self.arrival {
                    Arrival::Poisson => exp_gap(&mut rng, mean),
                    _ => mean,
                };
                arrival
            })
            .collect()
    }
}

/// An exponential inter-arrival gap with the given mean, computed with
/// integer arithmetic only (no `ln`, no floats) so schedules are
/// bit-identical across hosts.
///
/// For `u` uniform in (0,1], `-ln(u) = ln2 · (-log₂ u)`; with
/// `u = v / 2⁶⁴`, `-log₂ u = lz(v) + 1 - log₂ m` for the normalized
/// mantissa `m ∈ [1,2)`, and `log₂ m` is approximated linearly by the
/// mantissa's top 16 fraction bits (max error ≈ 0.086 bits — noise next
/// to the exponential's own variance). `45426 = round(ln2 · 2¹⁶)`.
fn exp_gap(rng: &mut SimRng, mean: u64) -> u64 {
    let v = rng.next_u64() | 1; // never 0: keeps lz ≤ 63 and u > 0
    let lz = v.leading_zeros() as u64;
    let frac = ((v << lz) >> 47) & 0xFFFF;
    let units = (lz + 1) * 65536 - frac; // -log₂(u) in 1/65536ths
    ((mean as u128 * 45426 * units as u128) >> 32) as u64
}

/// Exact order-statistic percentiles over the per-request latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Quantiles {
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Worst observed value.
    pub max: u64,
}

impl Quantiles {
    /// Computes nearest-rank percentiles from a **sorted** sample set.
    pub fn from_sorted(sorted: &[u64]) -> Quantiles {
        Quantiles {
            p50: percentile_sorted(sorted, 50, 100),
            p90: percentile_sorted(sorted, 90, 100),
            p99: percentile_sorted(sorted, 99, 100),
            p999: percentile_sorted(sorted, 999, 1000),
            max: sorted.last().copied().unwrap_or(0),
        }
    }
}

/// Everything the traffic harness observed, all in virtual ticks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests completed.
    pub requests: u64,
    /// Wrapping sum of every `handle` call's integer results — the
    /// cross-engine output-equivalence check.
    pub checksum: i64,
    /// Virtual time when the last request completed.
    pub total_time: u64,
    /// Arrival→completion latency per request (queueing included).
    pub latency: Histogram<SERVICE_BUCKETS>,
    /// Start→completion execution time per request.
    pub service_time: Histogram<SERVICE_BUCKETS>,
    /// Arrival→start queueing delay per request.
    pub queue: Histogram<SERVICE_BUCKETS>,
    /// Exact latency percentiles (nearest-rank over all requests).
    pub latency_q: Quantiles,
    /// Exact queueing-delay percentiles.
    pub queue_q: Quantiles,
    /// Nursery-only GC pause durations (generational backend).
    pub pause_minor: Histogram<SERVICE_BUCKETS>,
    /// Full-heap GC pause durations.
    pub pause_major: Histogram<SERVICE_BUCKETS>,
    /// Peak live heap bytes observed at request boundaries.
    pub heap_hwm: u64,
    /// Peak page-level footprint observed at request boundaries.
    pub footprint_hwm: u64,
}

impl ServiceStats {
    /// Total GC cycles observed (minor + major).
    pub fn gcs(&self) -> u64 {
        self.pause_minor.count() + self.pause_major.count()
    }

    /// Worst single GC pause in ticks.
    pub fn pause_max(&self) -> u64 {
        self.pause_minor.max().max(self.pause_major.max())
    }

    /// Total ticks spent paused for GC.
    pub fn pause_ticks(&self) -> u64 {
        self.pause_minor.sum() + self.pause_major.sum()
    }
}

/// A service run's result: the traffic stats plus the ordinary
/// end-of-run [`Report`].
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Traffic-harness observables.
    pub stats: ServiceStats,
    /// The end-of-run report (metrics, optional trace with request
    /// spans) — same shape as a batch [`execute`](crate::execute).
    pub report: Report,
}

/// Drives `svc.requests` open-loop requests through a compiled service
/// program.
///
/// The program must define `func setup() ...` (any results; they become
/// the retained service state, rooted for the whole run) and
/// `func handle(<state params>, req int) ...` taking the state values
/// plus the request index. Integer results are folded into
/// [`ServiceStats::checksum`].
///
/// # Errors
///
/// [`ExecError::NoFunc`] when the contract functions are missing;
/// otherwise whatever the calls raise (panics, limits, poisoned reads).
pub fn run_service(
    compiled: &Compiled,
    setting: Setting,
    cfg: &RunConfig,
    svc: &ServiceConfig,
) -> Result<ServiceReport, ExecError> {
    let arrivals = svc.schedule(cfg.seed);
    let vm_cfg = cfg.vm_config(compiled, setting);
    let (mut stats, report) = run_session(compiled, vm_cfg, cfg.engine, cfg.opt, |sess| {
        drive_requests(sess, &arrivals)
    })?;
    // Every cycle, set-up's included, ran inside a call (`finish` runs
    // none), and the histograms do not depend on order.
    for c in &report.cycles {
        match c.kind {
            CycleKind::Minor => stats.pause_minor.record(c.ticks),
            CycleKind::Major => stats.pause_major.record(c.ticks),
        }
    }
    Ok(ServiceReport { stats, report })
}

/// The open loop itself, on whichever engine's session it is handed.
fn drive_requests(
    sess: &mut Session<dyn Dispatch + '_>,
    arrivals: &[u64],
) -> Result<ServiceStats, ExecError> {
    let state = sess.call("setup", Vec::new())?;
    sess.hold(state.clone());

    let mut stats = ServiceStats {
        requests: 0,
        checksum: 0,
        total_time: 0,
        latency: Histogram::new(),
        service_time: Histogram::new(),
        queue: Histogram::new(),
        latency_q: Quantiles::default(),
        queue_q: Quantiles::default(),
        pause_minor: Histogram::new(),
        pause_major: Histogram::new(),
        heap_hwm: 0,
        footprint_hwm: 0,
    };
    let mut latencies = Vec::with_capacity(arrivals.len());
    let mut queues = Vec::with_capacity(arrivals.len());

    for (i, &arrival) in arrivals.iter().enumerate() {
        // Open loop: idle until the request arrives, or start late if
        // the previous request overran (queueing).
        sess.idle_until(arrival);
        let start = sess.now();
        let mut args = state.clone();
        args.push(Value::Int(i as i64));
        let results = sess.call("handle", args)?;
        let done = sess.now();
        sess.note_request(i as u64, arrival, start);

        for v in &results {
            if let Value::Int(n) = v {
                stats.checksum = stats.checksum.wrapping_add(*n);
            }
        }
        let latency = done - arrival;
        let queued = start - arrival;
        stats.latency.record(latency);
        stats.service_time.record(done - start);
        stats.queue.record(queued);
        latencies.push(latency);
        queues.push(queued);

        stats.heap_hwm = stats.heap_hwm.max(sess.heap_live());
        stats.footprint_hwm = stats.footprint_hwm.max(sess.footprint());
        stats.requests += 1;
    }

    stats.total_time = sess.now();
    latencies.sort_unstable();
    queues.sort_unstable();
    stats.latency_q = Quantiles::from_sorted(&latencies);
    stats.queue_q = Quantiles::from_sorted(&queues);
    Ok(stats)
}

/// Renders the human-readable service summary (the `--service` CLI
/// output and the per-cell detail in `results/service.txt`).
pub fn service_summary(stats: &ServiceStats) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let q = &stats.latency_q;
    let _ = writeln!(
        out,
        "requests {}  checksum {}  total {} ticks",
        stats.requests, stats.checksum, stats.total_time
    );
    let _ = writeln!(
        out,
        "latency  p50 {}  p90 {}  p99 {}  p999 {}  max {} ticks",
        q.p50, q.p90, q.p99, q.p999, q.max
    );
    let _ = writeln!(
        out,
        "queueing p50 {}  p99 {}  p999 {}  max {} ticks",
        stats.queue_q.p50, stats.queue_q.p99, stats.queue_q.p999, stats.queue_q.max
    );
    let _ = writeln!(
        out,
        "gc pauses {} ({} minor / {} major)  worst {}  total {} ticks",
        stats.gcs(),
        stats.pause_minor.count(),
        stats.pause_major.count(),
        stats.pause_max(),
        stats.pause_ticks(),
    );
    let _ = writeln!(
        out,
        "heap hwm {} B  footprint hwm {} B",
        stats.heap_hwm, stats.footprint_hwm
    );
    let _ = writeln!(out, "latency histogram (ticks):");
    out.push_str(&stats.latency.render(""));
    if !stats.pause_major.is_empty() || !stats.pause_minor.is_empty() {
        let _ = writeln!(out, "gc pause histogram (ticks):");
        let mut pauses = stats.pause_major;
        pauses.merge(&stats.pause_minor);
        out.push_str(&pauses.render(""));
    }
    out
}

/// Renders `GODEBUG=gctrace=1`-style pause/latency rows for a service
/// run: one `service:` header line, one `pause ...` line per bucketed
/// pause kind, and one `latency ...` quantile row — appended after the
/// per-cycle gctrace lines when `--gctrace` is used in service mode.
pub fn service_gctrace_lines(stats: &ServiceStats) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "service: {} reqs in {} ticks, heap hwm {} B",
        stats.requests, stats.total_time, stats.heap_hwm
    );
    for (kind, h) in [("minor", &stats.pause_minor), ("major", &stats.pause_major)] {
        if h.is_empty() {
            continue;
        }
        let _ = writeln!(
            out,
            "pause {kind}: {} cycles, mean {} max {} ticks, hist {}",
            h.count(),
            h.mean().unwrap_or(0),
            h.max(),
            h.spark(),
        );
    }
    let q = &stats.latency_q;
    let _ = writeln!(
        out,
        "latency: p50 {} p90 {} p99 {} p999 {} max {} ticks, hist {}",
        q.p50,
        q.p90,
        q.p99,
        q.p999,
        q.max,
        stats.latency.spark(),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_and_shaped() {
        let cfg = ServiceConfig {
            requests: 300,
            rps: 1_000,
            arrival: Arrival::Poisson,
        };
        let a = cfg.schedule(7);
        let b = cfg.schedule(7);
        let c = cfg.schedule(8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "non-decreasing");

        // Poisson mean gap lands near the configured mean.
        let span = *a.last().unwrap() - a[0];
        let mean = span / (a.len() as u64 - 1);
        assert!(
            (500..=2_000).contains(&mean),
            "poisson mean gap {mean} far from 1000"
        );

        // Fixed is exactly even.
        let fixed = ServiceConfig {
            arrival: Arrival::Fixed,
            ..cfg.clone()
        }
        .schedule(7);
        assert!(fixed.windows(2).all(|w| w[1] - w[0] == 1_000));

        // Burst compresses the middle third by 4×.
        let burst = ServiceConfig {
            arrival: Arrival::Burst,
            ..cfg
        }
        .schedule(7);
        // Request i's gap to its successor uses i's mean, so the first
        // compressed gap follows request n/3 = 100 and the last follows
        // request 2n/3 - 1 = 199.
        assert_eq!(burst[100] - burst[99], 1_000);
        assert_eq!(burst[101] - burst[100], 250);
        assert_eq!(burst[200] - burst[199], 250);
        assert_eq!(burst[201] - burst[200], 1_000);
    }

    #[test]
    fn quantiles_nearest_rank() {
        let sorted: Vec<u64> = (1..=1000).collect();
        let q = Quantiles::from_sorted(&sorted);
        assert_eq!(q.p50, 500);
        assert_eq!(q.p99, 990);
        assert_eq!(q.p999, 999);
        assert_eq!(q.max, 1000);
    }

    #[test]
    fn arrival_parses() {
        assert_eq!("fixed".parse::<Arrival>().unwrap(), Arrival::Fixed);
        assert_eq!("burst".parse::<Arrival>().unwrap(), Arrival::Burst);
        assert!("spike".parse::<Arrival>().is_err());
        assert!("bogus".parse::<Arrival>().is_err());
    }
}
