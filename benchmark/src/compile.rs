//! `compile-corpus`: syntax + analysis + lowering do all the work and
//! the VM/runtime none. It is the only workload on which the escape
//! solver can show, so it is the one that answers "does escape solve
//! dominate compile time"; any exec-side change should not move it.

use gofree::{
    compile, execute, AuditMode, CompileOptions, Compiled, FreePlacement, Mode, RunConfig, Setting,
};
use gofree_workloads::{corpus, fuzzgen};
use minigo_escape::{
    analyze, audit, instrument, instrument_with_plan, plan_placement, AnalyzeOptions,
};
use minigo_syntax::{lex, parse, print_program, resolve, typecheck};
use minigo_vm::{lower, optimize};

use crate::engines::agree;
use crate::expected;
use crate::harness::{fnv, min, ratio, timed, Iteration, Outputs, Readings, Spans, Workload};

/// Size constants: one iteration compiles the generated corpus plus the
/// seeded fuzz draw under each of the three option sets. Sized so an
/// iteration takes ~0.13 s on the reference box (the issue's 2000 / 64
/// shrunk to fit ~100 iterations into one `--seconds 15` run).
pub const CORPUS_FUNCS: usize = 1000;
pub const FUZZ_PROGRAMS: u64 = 32;

/// The replayed pipeline's phase spans, in pipeline order; their sum
/// plus `core.compile.glue_ms` is `core.compile.ms`.
const PHASES: [&str; 10] = [
    "parse",
    "resolve",
    "typecheck",
    "analyze.go",
    "analyze.gofree",
    "plan_placement",
    "instrument",
    "audit",
    "lower",
    "optimize",
];

fn option_sets() -> [(&'static str, CompileOptions); 3] {
    [
        ("go", CompileOptions::go()),
        ("gofree", CompileOptions::default()),
        (
            "lastuse",
            CompileOptions {
                free_placement: FreePlacement::LastUse,
                audit: AuditMode::Warn,
                ..CompileOptions::default()
            },
        ),
    ]
}

/// What the facade produced for one (source, option set) cell; the
/// replay must reproduce it exactly so its spans measure the same program.
struct Facade {
    digest: String,
    lowered_instrs: usize,
    optimized_instrs: usize,
}

fn digest(frees: usize, instrumented: &str) -> String {
    format!("frees={frees} src={:016x}", fnv(instrumented))
}

impl Facade {
    fn of(c: &Compiled) -> Self {
        Facade {
            digest: digest(c.free_count(), &c.instrumented_source()),
            lowered_instrs: c.lowered.instr_count(),
            optimized_instrs: c.optimized.instr_count(),
        }
    }
}

/// One (source, option set) pair, in the order an iteration compiles
/// them: source-major, option-set-minor.
struct Cell {
    /// `<source>.<set>`; fuzz sources are keyed by their generator seed.
    name: String,
    text: String,
    opts: CompileOptions,
    facade: Facade,
}

pub struct CompileCorpus {
    cells: Vec<Cell>,
    reference: Outputs,
    /// The reference plus each cell's program-output hash.
    checked: Outputs,
    /// Host ms inside `compile()` per untraced iteration (an iteration
    /// also pays for dropping what it compiled).
    facade_ms: Vec<f64>,
}

impl CompileCorpus {
    /// Generates the sources from `seed`, compiles every cell through
    /// the facade, and runs each compiled program on the bytecode engine
    /// and the tree-walk (plus bytecode at `OptLevel::Off` when
    /// `bless`), requiring equal output — across engines and across
    /// option sets, since inserted frees must not change what a program
    /// prints.
    pub fn setup(seed: u64, bless: bool) -> Result<Self, String> {
        let mut sources = vec![(
            format!("corpus{CORPUS_FUNCS}"),
            corpus::generate(CORPUS_FUNCS),
        )];
        for i in 0..FUZZ_PROGRAMS {
            let s = seed.wrapping_add(i);
            sources.push((format!("fuzz{s}"), fuzzgen::generate(s)));
        }
        let mut cells = Vec::new();
        let mut checked = Outputs::new();
        for (key, text) in &sources {
            let mut printed: Option<String> = None;
            for (set, opts) in option_sets() {
                let name = format!("{key}.{set}");
                let c = compile(text, &opts).map_err(|e| format!("{name}: {e}"))?;
                let out =
                    run_everywhere(&c, &opts, seed, bless).map_err(|e| format!("{name}: {e}"))?;
                if printed.get_or_insert_with(|| out.clone()) != &out {
                    return Err(format!("{name}: output differs from the go option set"));
                }
                checked.push((format!("{name}.out"), format!("{:016x}", fnv(&out))));
                cells.push(Cell {
                    name,
                    text: text.clone(),
                    opts,
                    facade: Facade::of(&c),
                });
            }
        }
        let reference: Outputs = cells
            .iter()
            .map(|c| (c.name.clone(), c.facade.digest.clone()))
            .collect();
        checked.extend(reference.iter().cloned());
        if !bless {
            expected::check("compile-corpus", seed, &checked)?;
        }
        Ok(CompileCorpus {
            cells,
            reference,
            checked,
            facade_ms: Vec::new(),
        })
    }
}

/// What a replay holds when its span closes — the parts of a
/// [`Compiled`] — so the caller can digest it off the clock and drop it
/// on the clock, as the untraced iteration does.
struct Replayed {
    program: minigo_syntax::Program,
    frees: usize,
    lowered: minigo_vm::Module,
    optimized: minigo_vm::Module,
    _rest: (
        minigo_syntax::Resolution,
        minigo_syntax::TypeInfo,
        minigo_escape::Analysis,
    ),
}

impl Replayed {
    fn facade(&self) -> Facade {
        Facade {
            digest: digest(self.frees, &print_program(&self.program)),
            lowered_instrs: self.lowered.instr_count(),
            optimized_instrs: self.optimized.instr_count(),
        }
    }
}

/// Replays `compile()` by hand for one cell: one span per call into a
/// layer, all under `root`.
fn replay(
    text: &str,
    opts: &CompileOptions,
    spans: &mut Spans,
    root: usize,
) -> Result<Replayed, String> {
    let fail = |e: minigo_syntax::Diagnostic| e.to_string();
    // `parse` lexes internally; the separate `lex` span is the
    // lexer's share of it, not a phase of its own.
    let (id, tokens) = spans.call("lex", root, || lex(text));
    spans.note(id, "tokens", tokens.map_err(fail)?.len() as u64);
    spans.note(id, "src_bytes", text.len() as u64);
    let (_, program) = spans.call("parse", root, || parse(text));
    let program = program.map_err(fail)?;
    let (_, resolution) = spans.call("resolve", root, || resolve(&program));
    let mut resolution = resolution.map_err(fail)?;
    let (_, types) = spans.call("typecheck", root, || typecheck(&program, &resolution));
    let mut types = types.map_err(fail)?;
    let aopts = AnalyzeOptions {
        mode: opts.mode,
        free_targets: opts.free_targets,
        content_tags: opts.content_tags,
        back_propagation: opts.back_propagation,
        ..AnalyzeOptions::default()
    };
    let gofree = opts.mode == Mode::GoFree;
    let name = if gofree {
        "analyze.gofree"
    } else {
        "analyze.go"
    };
    let (id, analysis) = spans.call(name, root, || {
        analyze(&program, &resolution, &types, &aopts)
    });
    let st = &analysis.stats;
    for (key, value) in [
        ("solve_ns", st.solve_nanos as u64),
        ("select_ns", st.select_nanos as u64),
        ("locations", st.locations as u64),
        ("edges", st.edges as u64),
        ("walks", st.solve.walks as u64),
        ("to_free", st.to_free as u64),
    ] {
        spans.note(id, key, value);
    }
    let program = if !gofree {
        program
    } else if opts.free_placement == FreePlacement::LastUse {
        let (id, plan) = spans.call("plan_placement", root, || {
            plan_placement(&program, &resolution, &types, &analysis)
        });
        spans.note(id, "advanced", plan.stats.lastuse_advanced);
        spans
            .call("instrument", root, || {
                instrument_with_plan(&program, &mut resolution, &mut types, &analysis, &plan)
            })
            .1
    } else {
        spans
            .call("instrument", root, || {
                instrument(&program, &mut resolution, &analysis)
            })
            .1
    };
    if gofree && opts.audit != AuditMode::Off {
        let (id, report) = spans.call("audit", root, || audit(&program, &resolution, &types));
        spans.note(id, "sites", report.sites.len() as u64);
        spans.note(id, "proved", report.proved() as u64);
    }
    let (id, lowered) = spans.call("lower", root, || {
        lower(&program, &resolution, &types, &analysis)
    });
    spans.note(id, "instrs", lowered.instr_count() as u64);
    let (id, (optimized, stats)) = spans.call("optimize", root, || optimize(&lowered));
    spans.note(id, "instrs_after", optimized.instr_count() as u64);
    spans.note(id, "rewrites", stats.total_rewrites());
    Ok(Replayed {
        program,
        frees: analysis.stats.to_free,
        lowered,
        optimized,
        _rest: (resolution, types, analysis),
    })
}

/// Runs a compiled program under every engine configuration the check
/// asks for and returns the one output they agree on.
fn run_everywhere(
    c: &Compiled,
    opts: &CompileOptions,
    seed: u64,
    bless: bool,
) -> Result<String, String> {
    let setting = match opts.mode {
        Mode::GoFree => Setting::GoFree,
        Mode::Go => Setting::Go,
    };
    let base = RunConfig {
        seed,
        jobs: 1,
        ..RunConfig::default()
    };
    let run = |cfg: &RunConfig| execute(c, setting, cfg).map_err(|e| e.to_string());
    Ok(agree(&base, bless, run, |r| r.output.clone())?.output)
}

impl Workload for CompileCorpus {
    fn iterate(&mut self, iter: u32, spans: Option<&mut Spans>) -> Iteration {
        let mut parts_ms = Vec::with_capacity(self.cells.len());
        let Some(spans) = spans else {
            // Clock on for `compile()` and for dropping its result, off
            // for the digest in between.
            let mut facade_ms = 0.0;
            let result = self
                .cells
                .iter()
                .map(|cell| {
                    let (call_ms, c) =
                        timed(|| compile(std::hint::black_box(&cell.text), &cell.opts));
                    facade_ms += call_ms;
                    let digest = match &c {
                        Ok(c) => Ok(Facade::of(c).digest),
                        Err(e) => Err(format!("{}: {e}", cell.name)),
                    };
                    parts_ms.push(call_ms + timed(|| drop(c)).0);
                    Ok((cell.name.clone(), digest?))
                })
                .collect();
            self.facade_ms.push(facade_ms);
            return Iteration { parts_ms, result };
        };
        let root = spans.open("iteration", None, iter);
        let mut result = Ok(Outputs::new());
        for cell in &self.cells {
            let id = spans.open("cell", Some(root), iter);
            let replayed = replay(&cell.text, &cell.opts, spans, id);
            let cell_ms = spans.close(id);
            let verdict = replayed.as_ref().map_err(String::clone).and_then(|r| {
                let (r, f) = (r.facade(), &cell.facade);
                let same = r.digest == f.digest
                    && r.lowered_instrs == f.lowered_instrs
                    && r.optimized_instrs == f.optimized_instrs;
                same.then_some(r.digest)
                    .ok_or_else(|| "the replay differs from compile()".to_string())
            });
            let (id, ()) = spans.call("drop", root, || drop(replayed));
            parts_ms.push(cell_ms + spans.spans[id].ms());
            match (verdict, &mut result) {
                (Ok(digest), Ok(o)) => o.push((cell.name.clone(), digest)),
                (Err(e), Ok(_)) => result = Err(format!("{}: {e}", cell.name)),
                _ => {}
            }
        }
        spans.close(root);
        Iteration { parts_ms, result }
    }

    fn reference(&self) -> &Outputs {
        &self.reference
    }

    fn checked(&self) -> &Outputs {
        &self.checked
    }

    fn probe(&self, spans: &Spans) -> Result<Readings, String> {
        let facade_ms = min(&self.facade_ms);
        if spans.spans.iter().any(|s| s.name.starts_with("execute")) {
            return Err("compile-corpus recorded an execute span".into());
        }
        let ms = |name: &str| spans.ms_per_iter(name);
        let n = |name: &str, key: &str| spans.count_per_iter(name, key);
        let both = |key: &str| n("analyze.go", key) + n("analyze.gofree", key);
        let phase_sum: f64 = PHASES.iter().map(|p| ms(p)).sum();
        let readings: Vec<(&str, f64)> = vec![
            ("syntax.lex.ms", ms("lex")),
            ("syntax.lex.tokens", n("lex", "tokens")),
            ("syntax.parse.ms", ms("parse")),
            ("syntax.resolve.ms", ms("resolve")),
            ("syntax.typecheck.ms", ms("typecheck")),
            ("syntax.src_kb", n("lex", "src_bytes") / 1024.0),
            ("analysis.analyze_go.ms", ms("analyze.go")),
            ("analysis.analyze_gofree.ms", ms("analyze.gofree")),
            ("analysis.solve.ms", both("solve_ns") / 1e6),
            ("analysis.select.ms", both("select_ns") / 1e6),
            ("analysis.graph.locations", both("locations")),
            ("analysis.graph.edges", both("edges")),
            ("analysis.solve.walks", both("walks")),
            ("analysis.to_free.sites", both("to_free")),
            ("analysis.liveness.ms", ms("plan_placement")),
            (
                "analysis.liveness.advanced",
                n("plan_placement", "advanced"),
            ),
            ("analysis.instrument.ms", ms("instrument")),
            ("analysis.audit.ms", ms("audit")),
            (
                "analysis.audit.proved_ratio",
                ratio(n("audit", "proved"), n("audit", "sites")),
            ),
            ("vm.lower.ms", ms("lower")),
            ("vm.lower.instrs", n("lower", "instrs")),
            ("vm.optimize.ms", ms("optimize")),
            ("vm.optimize.rewrites", n("optimize", "rewrites")),
            ("vm.optimize.instrs_after", n("optimize", "instrs_after")),
            ("core.compile.ms", facade_ms),
            ("core.compile.glue_ms", facade_ms - phase_sum),
        ];
        Ok(readings
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect())
    }
}
