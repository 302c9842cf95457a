//! The `minigo` command-line tool: compile and run MiniGo programs with
//! the Go or GoFree pipeline, inspect the instrumented output, dump the
//! escape analysis and its graph, and profile allocation sites.
//!
//! ```text
//! minigo run [--go] [--gcoff] [--seed N] [--jobs N] [--collector go|gen]
//!            [--opt off|full] [--audit MODE] [--free-placement MODE]
//!            [--sanitize] [--explain] [--trace PATH] [--profile PATH]
//!            [--gctrace] [--report-json PATH] [--trace-cap N]
//!            [--service [--requests N] [--rps N] [--arrival SHAPE]] <file>
//! minigo build [--go] [--audit MODE] [--free-placement MODE] [--explain] <file>
//! minigo analyze [--func NAME] <file>   # escape properties + decisions
//! minigo dot --func NAME <file>         # escape graph as Graphviz DOT
//! minigo profile <file>                 # top allocation sites
//! ```
//!
//! `--audit {off,warn,deny}` runs the independent free-safety auditor
//! over the instrumented program; `deny` strips unproven frees before
//! execution. `--free-placement {scope,lastuse}` selects where inserted
//! frees land: `scope` (the default) frees at scope exit (§4.5,
//! bit-exact historical behavior), `lastuse` advances each free to just
//! after the variable's last use and adds partial frees (`tcfree(x.f)`)
//! for abandoned struct locals. `--sanitize` runs the shadow-heap oracle and fails the
//! command on any violation. `--explain` prints Go `-m`-style per-site
//! allocation and free decisions. `--trace PATH` records the runtime
//! event stream, writes it as Chrome `trace_event` JSON to PATH, prints
//! the per-site timeline table to stderr, and fails the command if the
//! folded trace does not reconcile exactly with the run's metrics.
//! `--profile PATH` writes the call-stack-attributed allocation profile
//! (plus `PATH.folded` for `flamegraph.pl`) and fails the command if the
//! profile does not reconcile exactly with the run's metrics.
//! `--collector {go,gen}` selects the collection backend: `go` (the
//! default) is the paper's mark-sweep, `gen` adds a generational nursery
//! with minor/major cycles. `--opt {off,full}` selects the bytecode
//! instruction stream: `full` (the default) runs the optimizer tier
//! (constant folding, constant branches, tick merging, jump threading),
//! `off` runs the baseline lowering; observables are bit-identical
//! either way.
//! `--gctrace` prints a Go
//! `GODEBUG=gctrace=1`-style pacing line per GC cycle to stderr, tagged
//! with the backend and cycle kind, plus a final minor/major summary. `--report-json PATH` writes the run report as JSON
//! with stable field names. `--trace-cap N` bounds the in-memory event
//! buffer; a truncated trace fails reconciliation loudly. `--service`
//! switches `run` to the open-loop traffic harness: instead of calling
//! `main`, the file's `setup()` builds persistent state and
//! `handle(state, req)` executes `--requests N` requests arriving at
//! `--rps N` with the `--arrival {fixed,poisson,burst}` shape; the
//! summary reports exact latency percentiles, minor/major GC pause
//! histograms, and heap high-water marks. It runs once: `--runs` above 1
//! is an error there.

use std::collections::HashMap;
use std::process::ExitCode;

use gofree::cli::{number, positive, value, write_artifacts, CommonOptions, Observed};
use gofree::{compile, execute, AuditMode, CompileOptions, RunConfig, ServiceConfig, Setting};
use minigo_syntax::visit::{self, Walk};
use minigo_syntax::{Builtin, ExprId, ExprKind, Span};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run_cli(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("minigo: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// `minigo`'s own options; the ones it shares with `bench` are `common`,
/// and `--seed`, `--sanitize` and `--trace-cap` write into its
/// [`RunConfig`] too.
struct Cli {
    go_mode: bool,
    gcoff: bool,
    audit: AuditMode,
    explain: bool,
    func: Option<String>,
    service: bool,
    svc: ServiceConfig,
    file: Option<String>,
    common: CommonOptions,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        go_mode: false,
        gcoff: false,
        audit: AuditMode::Off,
        explain: false,
        func: None,
        service: false,
        svc: ServiceConfig::default(),
        file: None,
        common: CommonOptions::new(RunConfig::default()),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let cfg = &mut cli.common.config;
        match arg.as_str() {
            "--go" => cli.go_mode = true,
            "--gofree" => cli.go_mode = false,
            "--gcoff" => cli.gcoff = true,
            "--seed" => cfg.seed = number(&mut it, "--seed needs a number")?,
            "--audit" => cli.audit = value(&mut it, "--audit needs off, warn, or deny")?.parse()?,
            "--sanitize" => cfg.sanitize = true,
            "--explain" => cli.explain = true,
            "--trace-cap" => cfg.trace_cap = Some(number(&mut it, "--trace-cap needs a number")?),
            "--func" => cli.func = Some(value(&mut it, "--func needs a name")?.to_string()),
            "--service" => cli.service = true,
            "--requests" => {
                cli.svc.requests = positive(&mut it, "--requests needs a positive number")?;
            }
            "--rps" => cli.svc.rps = positive(&mut it, "--rps needs a positive number")?,
            "--arrival" => {
                cli.svc.arrival =
                    value(&mut it, "--arrival needs fixed, poisson, or burst")?.parse()?;
            }
            other if !other.starts_with('-') => {
                if cli.file.is_some() {
                    return Err(format!("unexpected argument {other}"));
                }
                cli.file = Some(other.to_string());
            }
            other => {
                if !cli.common.accept(other, &mut it)? {
                    return Err(format!("unknown option {other}"));
                }
            }
        }
    }
    if cli.service && cli.common.runs.is_some_and(|n| n > 1) {
        return Err("--runs above 1 is for batch runs; --service runs once".into());
    }
    Ok(cli)
}

fn run_cli(args: &[String]) -> Result<(), String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(usage());
    };
    let cli = parse_cli(rest)?;
    let cmd = cmd.as_str();
    match cmd {
        "run" | "build" | "analyze" | "dot" | "explain" | "profile" => {}
        "help" | "--help" | "-h" => {
            eprintln!("{}", usage());
            return Ok(());
        }
        other => return Err(format!("unknown command `{other}`\n{}", usage())),
    }
    let file = cli.file.as_ref().ok_or("missing input file")?;
    let src = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
    let base = if cli.go_mode {
        CompileOptions::go()
    } else {
        CompileOptions::default()
    };
    let options = CompileOptions {
        audit: cli.audit,
        free_placement: cli.common.free_placement,
        ..base
    };
    let compiled = compile(&src, &options).map_err(|e| e.render(&src))?;
    if let "run" | "build" = cmd {
        if cli.explain {
            explain_sites(&compiled, &src);
        }
        report_audit(&compiled, &src);
        report_placement(&compiled);
    }

    match cmd {
        "run" => {
            let setting = match (cli.go_mode, cli.gcoff) {
                (_, true) => Setting::GoGcOff,
                (true, false) => Setting::Go,
                (false, false) => Setting::GoFree,
            };
            let observed = if cli.service {
                run_service_mode(&cli, &compiled, setting)?
            } else {
                run_batch_mode(&cli, &compiled, setting)?
            };
            let labels = cli
                .common
                .config
                .trace
                .then(|| site_labels(&compiled.program, &src));
            write_artifacts(&cli.common, &observed, labels.as_ref())?;
            if cli.common.config.sanitize {
                let reports = &observed.reports;
                let total: usize = reports.iter().map(|r| r.violations.len()).sum();
                if total > 0 {
                    for v in reports.iter().flat_map(|r| &r.violations) {
                        eprintln!("[sanitize] {v}");
                    }
                    return Err(format!(
                        "sanitizer reported {total} violation(s) across {} run(s)",
                        reports.len()
                    ));
                }
                eprintln!("[sanitize] clean: no violations");
            }
        }
        "build" => print!("{}", compiled.instrumented_source()),
        "analyze" => print_analysis(&compiled, cli.func.as_deref()),
        "dot" => {
            let name = cli.func.as_deref().ok_or("dot requires --func NAME")?;
            let fid = compiled
                .program
                .func(name)
                .ok_or_else(|| format!("no function `{name}`"))?
                .id;
            let fg = compiled
                .analysis
                .funcs
                .get(fid)
                .ok_or("function not analyzed")?;
            let labels = minigo_escape::Labels::new(&compiled.program, &compiled.resolution, fid);
            print!("{}", fg.graph.to_dot(name, &labels));
        }
        "explain" => explain(&compiled, cli.func.as_deref()),
        _ => {
            // `profile`: the top allocation sites of one GoFree run.
            let cfg = RunConfig {
                seed: cli.common.config.seed,
                ..RunConfig::default()
            };
            let report = execute(&compiled, Setting::GoFree, &cfg).map_err(|e| e.to_string())?;
            let spans = collect_spans(&compiled.program);
            println!("{:>6} {:>12} {:>10}  site", "count", "bytes", "location");
            for p in report.site_profile.iter().take(20) {
                let (loc, what) = spans
                    .get(&p.site)
                    .map(|(span, what)| {
                        let (line, col) = span.line_col(&src);
                        (format!("{line}:{col}"), what.clone())
                    })
                    .unwrap_or_else(|| ("?".into(), "?".into()));
                println!("{:>6} {:>12} {:>10}  {}", p.count, p.bytes, loc, what);
            }
        }
    }
    Ok(())
}

fn usage() -> String {
    "usage: minigo <run|build|analyze|dot|explain|profile> [--go] [--gcoff] [--seed N] \
     [--runs N] [--jobs N] [--collector go|gen] [--engine tree-walk|bytecode] \
     [--opt off|full] [--audit off|warn|deny] \
     [--free-placement scope|lastuse] [--sanitize] [--explain] [--trace PATH] \
     [--profile PATH] [--gctrace] [--report-json PATH] [--trace-cap N] [--func NAME] \
     [--service [--requests N] [--rps N] [--arrival fixed|poisson|burst]] <file>"
        .to_string()
}

/// `minigo run`: a seeded `--runs N` distribution (fanned across
/// `--jobs`/GOFREE_JOBS workers) whose run 0 is printed either way, so
/// output is runs/jobs-invariant.
fn run_batch_mode(
    cli: &Cli,
    compiled: &gofree::Compiled,
    setting: Setting,
) -> Result<Observed, String> {
    let cfg = &cli.common.config;
    let runs = cli.common.runs.unwrap_or(1);
    let reports =
        gofree::run_distribution(compiled, setting, cfg, runs).map_err(|e| e.to_string())?;
    let report = &reports[0];
    print!("{}", report.output);
    eprintln!(
        "[{setting}] time={} GCs={} alloced={}B freed={}B ({:.0}%) maxheap={}B",
        report.time,
        report.metrics.gcs,
        report.metrics.alloced_bytes,
        report.metrics.freed_bytes,
        report.metrics.free_ratio() * 100.0,
        report.metrics.maxheap,
    );
    if runs > 1 {
        let times: Vec<u64> = reports.iter().map(|r| r.time).collect();
        eprintln!(
            "[{setting}] {runs} runs (jobs={}): time min={} max={}",
            cfg.jobs,
            times.iter().min().unwrap(),
            times.iter().max().unwrap(),
        );
    }
    Ok(Observed {
        reports,
        phases: compiled.phase_times.clone(),
        service: None,
    })
}

/// `minigo run --service`: drives the file's `setup`/`handle` contract
/// through the open-loop traffic harness instead of calling `main`, and
/// prints the latency/pause summary to stdout. The artifacts observe the
/// service run (request spans in the chrome export, pause/latency rows
/// after the pacing log, a `"service"` section in the JSON report).
fn run_service_mode(
    cli: &Cli,
    compiled: &gofree::Compiled,
    setting: Setting,
) -> Result<Observed, String> {
    let svc = &cli.svc;
    let r = gofree::run_service(compiled, setting, &cli.common.config, svc)
        .map_err(|e| e.to_string())?;
    print!("{}", r.report.output);
    println!(
        "[{setting}] service: {} arrivals at {} rps over {} requests",
        svc.arrival, svc.rps, svc.requests
    );
    print!("{}", gofree::service_summary(&r.stats));
    Ok(Observed {
        reports: vec![r.report],
        phases: compiled.phase_times.clone(),
        service: Some(r.stats),
    })
}

/// Site id → `line:col what`, naming the sites of the trace timeline
/// and the profile.
fn site_labels(program: &minigo_syntax::Program, src: &str) -> HashMap<u32, String> {
    collect_spans(program)
        .iter()
        .map(|(id, (span, what))| {
            let (line, col) = span.line_col(src);
            (id.0, format!("{line}:{col} {what}"))
        })
        .collect()
}

/// Prints the liveness placement counters (when the program was compiled
/// with `--free-placement lastuse`) to stderr.
fn report_placement(compiled: &gofree::Compiled) {
    let Some(p) = &compiled.placement else {
        return;
    };
    eprintln!(
        "[placement] mode={} advanced={} partial={} suppressed={}",
        p.mode.name(),
        p.lastuse_advanced,
        p.partial_frees,
        p.suppressed,
    );
}

/// Prints the free-safety audit report (when auditing ran) to stderr:
/// the proof rate, and one line per unproven site with the auditor's
/// reason.
fn report_audit(compiled: &gofree::Compiled, src: &str) {
    let Some(report) = &compiled.audit else {
        return;
    };
    eprintln!(
        "[audit] {}/{} free sites proved ({:.1}%){}",
        report.proved(),
        report.sites.len(),
        report.proof_rate() * 100.0,
        if compiled.frees_suppressed > 0 {
            format!(", {} stripped under deny", compiled.frees_suppressed)
        } else {
            String::new()
        }
    );
    for s in report.unproven() {
        let loc = if s.span.is_empty() {
            "<inserted>".to_string()
        } else {
            let (line, col) = s.span.line_col(src);
            format!("{line}:{col}")
        };
        eprintln!(
            "[audit] {loc}: {}({}) in {}: {}",
            s.kind, s.target, s.func, s.verdict
        );
    }
}

/// Go `-m`-style per-site diagnostics: every allocation's stack-or-heap
/// decision with the rule that fired, then every free site's audit
/// verdict (the auditor's reason strings verbatim).
fn explain_sites(compiled: &gofree::Compiled, src: &str) {
    let spans = collect_spans(&compiled.program);
    let max_stack = compiled.analysis.options.build.max_stack_bytes;
    let mut lines: Vec<(u32, String)> = Vec::new();
    for fg in compiled.analysis.funcs.values() {
        for (expr, site) in &fg.alloc_sites {
            let Some((span, what)) = spans.get(expr) else {
                continue;
            };
            let (line, col) = span.line_col(src);
            let rule = match (compiled.analysis.place_of(*expr), site.const_size) {
                (minigo_escape::AllocPlace::Stack, _) => {
                    "does not escape and has a constant size: stack allocated".to_string()
                }
                (_, None) => "non-constant size: heap allocated".to_string(),
                (_, Some(sz)) if sz > max_stack => {
                    format!(
                        "constant size {sz}B exceeds the {max_stack}B stack cap: heap allocated"
                    )
                }
                _ => "escapes: heap allocated".to_string(),
            };
            lines.push((span.start, format!("{line}:{col}: {what}: {rule}")));
        }
    }
    // Free sites carry the independent auditor's verdicts; run it here if
    // the pipeline did not (`--audit off`).
    let fallback;
    let report = match &compiled.audit {
        Some(r) => r,
        None => {
            fallback =
                minigo_escape::audit(&compiled.program, &compiled.resolution, &compiled.types);
            &fallback
        }
    };
    for s in &report.sites {
        let (key, loc) = if s.span.is_empty() {
            (u32::MAX, "<inserted>".to_string())
        } else {
            let (line, col) = s.span.line_col(src);
            (s.span.start, format!("{line}:{col}"))
        };
        lines.push((
            key,
            format!(
                "{loc}: {}({}) in {}: {}",
                s.kind, s.target, s.func, s.verdict
            ),
        ));
    }
    lines.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
    for (_, l) in lines {
        eprintln!("{l}");
    }
}

/// Explains, for every local of a freeable reference type, which of
/// definition 4.17's conjuncts hold and which witnesses block freeing.
fn explain(compiled: &gofree::Compiled, only: Option<&str>) {
    use minigo_escape::{points_to, Labels, LocKind};
    for func in &compiled.program.funcs {
        if let Some(name) = only {
            if func.name != name {
                continue;
            }
        }
        let Some(fg) = compiled.analysis.funcs.get(func.id) else {
            continue;
        };
        let selected: std::collections::HashSet<minigo_syntax::VarId> = compiled
            .analysis
            .free_vars
            .get(func.id)
            .map(|v| v.iter().map(|(vid, _)| *vid).collect())
            .unwrap_or_default();
        let labels = Labels::new(&compiled.program, &compiled.resolution, func.id);
        let mut printed_header = false;
        for id in fg.graph.ids() {
            let l = fg.graph.loc(id);
            let LocKind::Var(vid) = l.kind else { continue };
            let info = compiled.resolution.var(vid);
            let name = &info.name;
            let is_local = info.kind == minigo_syntax::VarKind::Local;
            let freeable_ty = compiled
                .types
                .var(vid)
                .map(|t| t.is_freeable_reference())
                .unwrap_or(false);
            if !is_local || !freeable_ty {
                continue;
            }
            if !printed_header {
                println!("func {}:", func.name);
                printed_header = true;
            }
            let pts = points_to(&fg.graph, id);
            if selected.contains(&vid) {
                println!(
                    "  {:<14} FREED   (complete, not outlived, points to heap)",
                    name
                );
                continue;
            }
            if l.to_free() {
                println!(
                    "  {:<14} KEPT    qualified, but excluded by the free-target selection (§6.5)",
                    name
                );
                continue;
            }
            let mut reasons = Vec::new();
            if l.incomplete {
                reasons.push(
                    "points-to set incomplete (untracked indirect-store dataflow)".to_string(),
                );
            }
            if l.outlived {
                let witnesses: Vec<String> = pts
                    .iter()
                    .filter(|&&p| fg.graph.loc(p).outermost_ref < l.decl_depth)
                    .map(|&p| {
                        let pl = fg.graph.loc(p);
                        format!(
                            "{} (referenced from scope depth {} < {})",
                            labels.of(&pl.kind),
                            pl.outermost_ref,
                            l.decl_depth
                        )
                    })
                    .collect();
                reasons.push(format!("outlived by {}", witnesses.join(", ")));
            }
            if !l.points_to_heap {
                reasons.push("all referents are stack-allocated".to_string());
            }
            if l.pinned {
                reasons.push("passed to defer/panic (§5)".to_string());
            }
            if reasons.is_empty() {
                reasons.push("not selected (mode or target restriction)".to_string());
            }
            println!("  {:<14} KEPT    {}", name, reasons.join("; "));
        }
        if printed_header {
            println!();
        }
    }
}

fn print_analysis(compiled: &gofree::Compiled, only: Option<&str>) {
    for func in &compiled.program.funcs {
        if let Some(name) = only {
            if func.name != name {
                continue;
            }
        }
        let Some(fg) = compiled.analysis.funcs.get(func.id) else {
            continue;
        };
        println!("func {}:", func.name);
        for id in fg.graph.ids() {
            let l = fg.graph.loc(id);
            let minigo_escape::LocKind::Var(vid) = l.kind else {
                continue;
            };
            println!(
                "  {:<16} heap={:<5} exposes={:<5} incomplete={:<5} outlived={:<5} tofree={}",
                compiled.resolution.var(vid).name,
                l.heap_alloc,
                l.exposes,
                l.incomplete,
                l.outlived,
                l.to_free()
            );
        }
        if let Some(frees) = compiled.analysis.free_vars.get(func.id) {
            for (vid, kind) in frees {
                println!("  -> {} {}", kind, compiled.resolution.var(*vid).name);
            }
        }
        println!();
    }
}

/// Maps allocation-relevant expression ids to spans and descriptions.
fn collect_spans(program: &minigo_syntax::Program) -> HashMap<ExprId, (Span, String)> {
    let mut out = HashMap::new();
    for func in &program.funcs {
        let fname = &func.name;
        visit::exprs(&func.body, |e| {
            let what = match &e.kind {
                ExprKind::Builtin { kind, .. } => match kind {
                    Builtin::Make => Some(format!("make (in {fname})")),
                    Builtin::New => Some(format!("new (in {fname})")),
                    Builtin::Append => Some(format!("append growth (in {fname})")),
                    _ => None,
                },
                ExprKind::StructLit { name, .. } => Some(format!("&{name}{{}} (in {fname})")),
                _ => None,
            };
            if let Some(what) = what {
                out.insert(e.id, (e.span, what));
            }
            Walk::Descend
        });
    }
    out
}
