//! The two service workloads. From the host's side both are a closed
//! loop with one client (iteration k+1 starts when k returns); the open
//! loop is on the virtual clock, inside `run_service`.
//!
//! `service-steady` — kv / jsonsvc / rotate x {go, gen} under
//! `Setting::GoFree` at ~60 % of each scenario's virtual capacity. It
//! uses the VM differently from batch (thousands of short session calls,
//! `idle_until`, request notes) and the runtime differently from
//! `gc-pressure`: reclamation is by `tcfree`, so a sweep speed-up bought
//! at `tcfree`'s or the allocator's expense shows as a loss here.
//!
//! `gc-pressure` — `programs/gcpressure.mgo` under `Setting::Go` (no
//! inserted frees) at `gogc = 10`, once per collector: the only workload
//! where mark + sweep are most of the host time, and where `go` (full
//! mark) and `gen` (young sweep + write barrier) use the collector layer
//! two ways, so a gain for one that costs the other is visible.

use gofree::{
    compile, run_service, Arrival, CollectorKind, CompileOptions, Compiled, Report, RunConfig,
    ServiceConfig, ServiceReport, Setting,
};
use gofree_workloads::service::scenarios;
use gofree_workloads::Scale;
use minigo_runtime::{Category, FreeOutcome, FreeSource, Runtime, RuntimeConfig};

use crate::engines::agree;
use crate::expected;
use crate::harness::{
    best_ms, geomean, ms_since, ratio, run_cells, timed, Iteration, Outputs, Readings, Spans,
    Workload,
};

/// Size constants, `service-steady`: Poisson requests per cell and the
/// offered rate per scenario (~60 % of its virtual capacity). The issue's
/// 4000 requests shrunk so ~100 iterations fit one `--seconds 15` run.
pub const STEADY_REQUESTS: usize = 1500;
pub const STEADY_RPS: [(&str, u64); 3] = [("kv", 600), ("jsonsvc", 300), ("rotate", 1200)];

/// Size constants, `gc-pressure`: retained nodes, requests per collector
/// (tuned so each sees >= 20 cycles per iteration), pacing. The issue's
/// ~30k nodes shrunk with the same aim as above.
pub const PRESSURE_NODES: usize = 10_000;
pub const PRESSURE_REQUESTS: [(CollectorKind, usize); 2] = [
    (CollectorKind::Go, 1500),
    (CollectorKind::Generational, 900),
];
pub const PRESSURE_RPS: u64 = 100;
pub const PRESSURE_GOGC: u64 = 10;
pub const PRESSURE_MIN_HEAP: u64 = 256 * 1024;

/// Direct allocator probe: objects per batch (a scope's worth of
/// temporaries, so most spans are still cached when the frees come)
/// and batches.
const PROBE_BATCH: usize = 64;
const PROBE_BATCHES: usize = 16_000;
const PROBE_REPS: usize = 3;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Steady,
    Pressure,
}

struct Cell {
    scenario: &'static str,
    compiled: Compiled,
    setting: Setting,
    cfg: RunConfig,
    svc: ServiceConfig,
}

impl Cell {
    fn name(&self) -> String {
        format!("{}.{}", self.scenario, self.cfg.collector)
    }

    fn run(&self, setting: Setting, cfg: &RunConfig) -> Result<ServiceReport, String> {
        run_service(&self.compiled, setting, cfg, &self.svc)
            .map_err(|e| format!("{}: {e}", self.name()))
    }
}

pub struct ServiceCells {
    kind: Kind,
    cells: Vec<Cell>,
    reference: Outputs,
    /// The latest iteration's reports, for the counts.
    last: Vec<ServiceReport>,
}

/// The checksum depends only on the request indices, so it is the same
/// under every seed, engine and collector.
fn digest(r: &ServiceReport) -> String {
    format!(
        "checksum={} requests={}",
        r.stats.checksum, r.stats.requests
    )
}

impl ServiceCells {
    pub fn steady(seed: u64, bless: bool) -> Result<Self, String> {
        let mut cells = Vec::new();
        for w in scenarios(Scale::Full) {
            let compiled = compile(&w.source, &CompileOptions::default())
                .map_err(|e| format!("{}: {e}", w.name))?;
            let (_, rps) = STEADY_RPS
                .iter()
                .find(|(name, _)| *name == w.name)
                .ok_or_else(|| format!("no rate for scenario {}", w.name))?;
            for collector in CollectorKind::all() {
                cells.push(Cell {
                    scenario: w.name,
                    compiled: compiled.clone(),
                    setting: Setting::GoFree,
                    cfg: RunConfig {
                        seed,
                        jobs: 1,
                        collector,
                        ..RunConfig::default()
                    },
                    svc: ServiceConfig {
                        requests: STEADY_REQUESTS,
                        rps: *rps,
                        arrival: Arrival::Poisson,
                    },
                });
            }
        }
        Self::check("service-steady", Kind::Steady, cells, seed, bless)
    }

    pub fn pressure(seed: u64, bless: bool) -> Result<Self, String> {
        let source = include_str!("../programs/gcpressure.mgo")
            .replace("NODES", &PRESSURE_NODES.to_string());
        let compiled = compile(&source, &CompileOptions::go()).map_err(|e| e.render(&source))?;
        let cells = PRESSURE_REQUESTS
            .iter()
            .map(|&(collector, requests)| Cell {
                scenario: "gcpressure",
                compiled: compiled.clone(),
                setting: Setting::Go,
                cfg: RunConfig {
                    seed,
                    jobs: 1,
                    collector,
                    gogc: PRESSURE_GOGC,
                    min_heap: PRESSURE_MIN_HEAP,
                    ..RunConfig::default()
                },
                svc: ServiceConfig {
                    requests,
                    rps: PRESSURE_RPS,
                    arrival: Arrival::Poisson,
                },
            })
            .collect();
        Self::check("gc-pressure", Kind::Pressure, cells, seed, bless)
    }

    /// Runs each cell once per engine configuration and requires equal
    /// checksums, then checks them against the expected file.
    fn check(
        workload: &str,
        kind: Kind,
        cells: Vec<Cell>,
        seed: u64,
        bless: bool,
    ) -> Result<Self, String> {
        let mut reference = Outputs::new();
        for c in &cells {
            let r = agree(&c.cfg, bless, |cfg| c.run(c.setting, cfg), digest)
                .map_err(|e| format!("{}: {e}", c.name()))?;
            reference.push((c.name(), digest(&r)));
        }
        if !bless {
            expected::check(workload, seed, &reference)?;
        }
        Ok(ServiceCells {
            kind,
            cells,
            reference,
            last: Vec::new(),
        })
    }

    /// GC cycles of the same cells compiled as plain Go: the other side
    /// of "more frees placed should lower `runtime.gc.cycles`".
    fn cycles_without_frees(&self) -> Result<f64, String> {
        let mut cycles = 0;
        for w in scenarios(Scale::Full) {
            let go = compile(&w.source, &CompileOptions::go()).map_err(|e| e.to_string())?;
            for c in self.cells.iter().filter(|c| c.scenario == w.name) {
                let r = run_service(&go, Setting::Go, &c.cfg, &c.svc)
                    .map_err(|e| format!("{} as Go: {e}", c.name()))?;
                cycles += r.report.metrics.gcs;
            }
        }
        Ok(cycles as f64)
    }
}

impl Workload for ServiceCells {
    fn iterate(&mut self, iter: u32, spans: Option<&mut Spans>) -> Iteration {
        let (parts_ms, reports) = run_cells(
            &self.cells,
            iter,
            spans,
            |c| format!("run_service.{}", c.name()),
            |c| c.run(c.setting, &c.cfg),
            |r| {
                vec![
                    ("requests", r.stats.requests),
                    ("steps", r.report.steps),
                    ("gcs", r.report.metrics.gcs),
                    ("tcfree_attempts", r.report.metrics.tcfree_attempts),
                ]
            },
        );
        let result = reports.map(|reports| {
            let outputs = self
                .cells
                .iter()
                .zip(&reports)
                .map(|(c, r)| (c.name(), digest(r)))
                .collect();
            self.last = reports;
            outputs
        });
        Iteration { parts_ms, result }
    }

    fn reference(&self) -> &Outputs {
        &self.reference
    }

    fn probe(&self, spans: &Spans) -> Result<Readings, String> {
        let mut out = Readings::new();
        let cell_ms: Vec<f64> = self
            .cells
            .iter()
            .map(|c| spans.ms_per_iter(&format!("run_service.{}", c.name())))
            .collect();
        for (c, ms) in self.cells.iter().zip(&cell_ms) {
            out.push((format!("core.run_service.ms.{}", c.name()), *ms));
        }
        let requests: usize = self.cells.iter().map(|c| c.svc.requests).sum();
        out.push((
            "core.service.host_req_per_s".into(),
            ratio(requests as f64, cell_ms.iter().sum::<f64>() / 1e3),
        ));
        let per_step: Vec<f64> = cell_ms
            .iter()
            .zip(&self.last)
            .map(|(ms, r)| ms * 1e6 / r.report.steps as f64)
            .collect();
        out.push(("vm.exec.ns_per_step".into(), geomean(&per_step)));
        out.extend(report_counts(self.last.iter().map(|r| &r.report)));
        let sum = |f: &dyn Fn(&ServiceReport) -> u64| self.last.iter().map(f).sum::<u64>() as f64;
        out.push(("virtual.ticks".into(), sum(&|r| r.stats.total_time)));
        out.push((
            "virtual.latency_p99_ticks".into(),
            sum(&|r| r.stats.latency_q.p99),
        ));

        // The collector's host cost by GC-off subtraction (the paper's
        // own section 6.4 method): the same compiled cells, same
        // requests, with `Setting::GoGcOff`, which turns the collector
        // off and leaves inserted frees on.
        let mut off_ms = Vec::new();
        for c in &self.cells {
            off_ms.push(best_ms(PROBE_REPS, || {
                let (ms, r) = timed(|| c.run(Setting::GoGcOff, &c.cfg));
                r.map(|_| ms)
            })?);
        }
        out.push((
            "runtime.gc.host_share".into(),
            1.0 - ratio(off_ms.iter().sum(), cell_ms.iter().sum()),
        ));

        match self.kind {
            Kind::Pressure => {
                for (i, c) in self.cells.iter().enumerate() {
                    let cycles = self.last[i].report.metrics.gcs as f64;
                    out.push((
                        format!("runtime.gc.host_ms_per_cycle.{}", c.cfg.collector),
                        ratio(cell_ms[i] - off_ms[i], cycles),
                    ));
                }
            }
            Kind::Steady => {
                for (scenario, _) in STEADY_RPS {
                    let of = |i: &usize| self.cells[*i].scenario == scenario;
                    let cells: Vec<usize> = (0..self.cells.len()).filter(of).collect();
                    let ms: f64 = cells.iter().map(|&i| cell_ms[i]).sum();
                    let reqs: usize = cells.iter().map(|&i| self.cells[i].svc.requests).sum();
                    out.push((
                        format!("vm.session.us_per_request.{scenario}"),
                        ratio(ms * 1e3, reqs as f64),
                    ));
                    let m = |f: &dyn Fn(&Report) -> u64| {
                        cells.iter().map(|&i| f(&self.last[i].report)).sum::<u64>() as f64
                    };
                    out.push((
                        format!("runtime.tcfree.freed_ratio.{scenario}"),
                        ratio(
                            m(&|r| r.metrics.freed_bytes),
                            m(&|r| r.metrics.alloced_bytes),
                        ),
                    ));
                }
                out.push((
                    "runtime.gc.cycles_without_frees".into(),
                    self.cycles_without_frees()?,
                ));
                let (alloc_ns, free_ns) = alloc_free_probe(self.cells[0].cfg.seed)?;
                out.push(("runtime.alloc.ns_per_alloc".into(), alloc_ns));
                out.push(("runtime.tcfree.ns_per_free".into(), free_ns));
            }
        }
        Ok(out)
    }
}

/// Counts and ratios read from one iteration's end-of-run reports.
pub fn report_counts<'a>(reports: impl Iterator<Item = &'a Report> + Clone) -> Readings {
    let sum = |f: &dyn Fn(&Report) -> u64| reports.clone().map(f).sum::<u64>() as f64;
    let hits = sum(&|r| r.ic_hits);
    let attempts = sum(&|r| r.metrics.tcfree_attempts);
    let cycles = sum(&|r| r.metrics.gcs);
    let readings = [
        ("vm.exec.steps", sum(&|r| r.steps)),
        ("vm.ic.hit_ratio", ratio(hits, hits + sum(&|r| r.ic_misses))),
        ("runtime.alloc.objects", sum(&|r| r.metrics.alloced_objects)),
        ("runtime.alloc.bytes", sum(&|r| r.metrics.alloced_bytes)),
        ("runtime.tcfree.attempts", attempts),
        (
            "runtime.tcfree.bail_ratio",
            ratio(sum(&|r| r.metrics.tcfree_bails.iter().sum()), attempts),
        ),
        (
            "runtime.tcfree.freed_ratio",
            ratio(
                sum(&|r| r.metrics.freed_bytes),
                sum(&|r| r.metrics.alloced_bytes),
            ),
        ),
        ("runtime.gc.cycles", cycles),
        ("runtime.gc.cycles_minor", sum(&|r| r.metrics.gcs_minor)),
        ("runtime.gc.cycles_major", sum(&|r| r.metrics.gcs_major)),
        (
            "runtime.gc.vticks_per_cycle",
            ratio(sum(&|r| r.metrics.gc_ticks), cycles),
        ),
    ];
    readings
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

/// Times `Runtime::alloc` and `Runtime::tcfree` directly: GC off, a
/// seeded log-uniform 16 B..64 KiB size mix, about a million of each, in
/// batches so the heap stays compact. `tcfree` is best effort, so the
/// free side is per call, bail-outs included. Returns `(ns/alloc, ns/free)`.
fn alloc_free_probe(seed: u64) -> Result<(f64, f64), String> {
    let mut rt = Runtime::new(RuntimeConfig {
        gc_enabled: false,
        migrate_prob: 0.0,
        seed,
        ..RuntimeConfig::default()
    });
    // splitmix64, so the probe leans on nothing but `Runtime` itself.
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let (mut alloc_ms, mut free_ms, mut freed) = (0.0, 0.0, 0usize);
    let mut addrs = Vec::with_capacity(PROBE_BATCH);
    for _ in 0..PROBE_BATCHES {
        let sizes: Vec<u64> = (0..PROBE_BATCH)
            .map(|_| {
                let r = next();
                let magnitude = 4 + r % 12; // 2^4 .. 2^15
                (1u64 << magnitude) + (r >> 8) % (1u64 << magnitude)
            })
            .collect();
        let t = std::time::Instant::now();
        for &size in &sizes {
            addrs.push(rt.alloc(std::hint::black_box(size), Category::Slice));
        }
        alloc_ms += ms_since(t);
        let t = std::time::Instant::now();
        for addr in addrs.drain(..) {
            if let FreeOutcome::Freed { .. } = rt.tcfree(addr, FreeSource::SliceLifetime) {
                freed += 1;
            }
        }
        free_ms += ms_since(t);
    }
    let total = PROBE_BATCH * PROBE_BATCHES;
    if freed * 2 < total {
        return Err(format!(
            "allocator probe: only {freed} of {total} frees took"
        ));
    }
    Ok((alloc_ms * 1e6 / total as f64, free_ms * 1e6 / total as f64))
}
