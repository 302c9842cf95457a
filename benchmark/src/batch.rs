//! `batch-matrix`: the traffic of every table under `results/` — the six
//! paper subjects x {Go, GoFree}, one run each, in the `reproduce.sh`
//! configuration. Bytecode dispatch is ~90 % of it and GC <= ~10 %, so
//! dispatch work shows here and collector work barely does.

use gofree::{
    chrome_trace_json, compile, execute, report_json, run_matrix, CollectorKind, Compiled,
    OptLevel, Report, RunConfig, Setting, VmEngine,
};
use gofree_workloads::Scale;

use crate::engines::agree;
use crate::expected;
use crate::harness::{
    best_ms, fnv, geomean, ratio, run_cells, timed, Iteration, Outputs, Readings, Spans, Workload,
};

/// Size constants: `workloads::all(Scale::Full)`, GC trigger floor as in
/// `scripts/reproduce.sh`. ~0.42 s per iteration on the reference box;
/// the subjects have no smaller public size that still collects.
pub const SCALE: Scale = Scale::Full;
pub const MIN_HEAP: u64 = 128 * 1024;

/// Repeats of each extra probe (fastest reported).
const PROBE_REPS: usize = 3;

struct Cell {
    program: &'static str,
    setting: Setting,
    compiled: Compiled,
}

impl Cell {
    fn name(&self) -> String {
        format!("{}.{}", self.program, self.setting)
    }
}

pub struct BatchMatrix {
    cells: Vec<Cell>,
    cfg: RunConfig,
    reference: Outputs,
    /// The latest iteration's reports, for the counts.
    last: Vec<Report>,
}

fn digest(r: &Report) -> String {
    format!("out={:016x} len={}", fnv(&r.output), r.output.len())
}

impl BatchMatrix {
    /// Precompiles the cells and runs each once per engine configuration,
    /// requiring equal output across engines and across the two settings.
    pub fn setup(seed: u64, bless: bool) -> Result<Self, String> {
        let cfg = RunConfig {
            seed,
            min_heap: MIN_HEAP,
            jobs: 1,
            engine: VmEngine::Bytecode,
            opt: OptLevel::Full,
            collector: CollectorKind::Go,
            ..RunConfig::default()
        };
        let mut cells = Vec::new();
        let mut reference = Outputs::new();
        for w in gofree_workloads::all(SCALE) {
            let mut printed: Option<String> = None;
            for setting in [Setting::Go, Setting::GoFree] {
                let compiled = compile(&w.source, &setting.compile_options())
                    .map_err(|e| format!("{}: {e}", w.name))?;
                let cell = Cell {
                    program: w.name,
                    setting,
                    compiled,
                };
                let run =
                    |c: &RunConfig| execute(&cell.compiled, setting, c).map_err(|e| e.to_string());
                let report =
                    agree(&cfg, bless, run, digest).map_err(|e| format!("{}: {e}", cell.name()))?;
                if printed.get_or_insert_with(|| report.output.clone()) != &report.output {
                    return Err(format!("{}: GoFree prints something else than Go", w.name));
                }
                reference.push((cell.name(), digest(&report)));
                cells.push(cell);
            }
        }
        if !bless {
            expected::check("batch-matrix", seed, &reference)?;
        }
        Ok(BatchMatrix {
            cells,
            cfg,
            reference,
            last: Vec::new(),
        })
    }

    fn matrix(&self) -> Vec<(&Compiled, Setting)> {
        self.cells
            .iter()
            .map(|c| (&c.compiled, c.setting))
            .collect()
    }

    /// One cell under `cfg`: the fastest of `PROBE_REPS` runs and its report.
    fn best_cell(
        &self,
        c: &Cell,
        setting: Setting,
        cfg: &RunConfig,
    ) -> Result<(f64, Report), String> {
        let mut best: Option<(f64, Report)> = None;
        for _ in 0..PROBE_REPS {
            let (ms, r) = timed(|| execute(&c.compiled, setting, cfg));
            let r = r.map_err(|e| format!("{}: {e}", c.name()))?;
            if best.as_ref().is_none_or(|(b, _)| ms < *b) {
                best = Some((ms, r));
            }
        }
        Ok(best.expect("PROBE_REPS > 0"))
    }

    /// Every cell under `cfg`, each at its fastest.
    fn best_pass(&self, cfg: &RunConfig) -> Result<Vec<(f64, Report)>, String> {
        self.cells
            .iter()
            .map(|c| self.best_cell(c, c.setting, cfg))
            .collect()
    }
}

/// Geomean over cells of host ns per executed statement.
fn ns_per_step(pass: &[(f64, Report)]) -> f64 {
    let per_cell: Vec<f64> = pass
        .iter()
        .map(|(ms, r)| ms * 1e6 / r.steps as f64)
        .collect();
    geomean(&per_cell)
}

fn total_ms(pass: &[(f64, Report)]) -> f64 {
    pass.iter().map(|(ms, _)| ms).sum()
}

impl Workload for BatchMatrix {
    /// One `execute` per cell, in cell order: what `run_matrix` does at
    /// `jobs = 1` (run index 0 keeps the base seed), unrolled so each
    /// cell is timed on its own.
    fn iterate(&mut self, iter: u32, spans: Option<&mut Spans>) -> Iteration {
        let (parts_ms, reports) = run_cells(
            &self.cells,
            iter,
            spans,
            |c| format!("execute.{}", c.name()),
            |c| {
                execute(&c.compiled, c.setting, &self.cfg).map_err(|e| format!("{}: {e}", c.name()))
            },
            |r| {
                vec![
                    ("steps", r.steps),
                    ("gcs", r.metrics.gcs),
                    ("alloced_objects", r.metrics.alloced_objects),
                    ("tcfree_attempts", r.metrics.tcfree_attempts),
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
        let mut go_ms = 0.0;
        for c in &self.cells {
            let ms = spans.ms_per_iter(&format!("execute.{}", c.name()));
            if c.setting == Setting::Go {
                go_ms += ms;
            }
            out.push((format!("core.execute.ms.{}", c.name()), ms));
        }
        // The no-collector contrast: the Go-compiled cells with GC off.
        // On these subjects it reads within noise of the GC-on cells —
        // with the collector off the heap grows through the whole
        // allocation volume, which costs the host about what collecting
        // does (widening `gogc` to 400 is no faster either) — so from
        // outside the collector's share of batch is "not visible".
        let mut gcoff_ms = 0.0;
        for c in self.cells.iter().filter(|c| c.setting == Setting::Go) {
            let (ms, _) = self.best_cell(c, Setting::GoGcOff, &self.cfg)?;
            gcoff_ms += ms;
            out.push((
                format!("core.execute.ms.{}.{}", c.program, Setting::GoGcOff),
                ms,
            ));
        }
        out.push(("runtime.gc.host_share".into(), 1.0 - ratio(gcoff_ms, go_ms)));

        let cfg = &self.cfg;
        let with = |edit: &dyn Fn(&mut RunConfig)| {
            let mut c = cfg.clone();
            edit(&mut c);
            c
        };
        let plain = self.best_pass(cfg)?;
        out.push(("vm.exec.ns_per_step".into(), ns_per_step(&plain)));
        out.push((
            "vm.exec_optoff.ns_per_step".into(),
            ns_per_step(&self.best_pass(&with(&|c| c.opt = OptLevel::Off))?),
        ));
        out.push((
            "vm.exec_treewalk.ns_per_step".into(),
            ns_per_step(&self.best_pass(&with(&|c| c.engine = VmEngine::TreeWalk))?),
        ));
        out.push((
            "runtime.trace.overhead_ratio".into(),
            ratio(
                total_ms(&self.best_pass(&with(&|c| c.trace = true))?),
                total_ms(&plain),
            ),
        ));
        out.push((
            "runtime.sanitize.overhead_ratio".into(),
            ratio(
                total_ms(&self.best_pass(&with(&|c| c.sanitize = true))?),
                total_ms(&plain),
            ),
        ));

        let matrix = self.matrix();
        let matrix_ms = |jobs: usize| {
            best_ms(PROBE_REPS, || {
                let (ms, rows) = timed(|| run_matrix(&matrix, &with(&|c| c.jobs = jobs), 1));
                rows.map(|_| ms).map_err(|e| e.to_string())
            })
        };
        out.push((
            "core.run_matrix.jobs2_speedup".into(),
            ratio(matrix_ms(1)?, matrix_ms(2)?),
        ));

        // The exporters, over one traced json/GoFree report.
        let json = self
            .cells
            .iter()
            .find(|c| c.program == "json" && c.setting == Setting::GoFree)
            .ok_or("no json/GoFree cell")?;
        let report = execute(&json.compiled, json.setting, &with(&|c| c.trace = true))
            .map_err(|e| e.to_string())?;
        let trace = report.trace.as_ref().ok_or("traced run kept no trace")?;
        out.push((
            "core.report_json.ms".into(),
            best_ms(PROBE_REPS, || {
                Ok::<_, String>(timed(|| report_json(&report)).0)
            })?,
        ));
        out.push((
            "core.chrome_trace.ms".into(),
            best_ms(PROBE_REPS, || {
                Ok::<_, String>(timed(|| chrome_trace_json(trace, &json.compiled.phase_times)).0)
            })?,
        ));

        out.extend(crate::service::report_counts(self.last.iter()));
        out.push((
            "virtual.ticks".into(),
            self.last.iter().map(|r| r.time).sum::<u64>() as f64,
        ));
        Ok(out)
    }
}
