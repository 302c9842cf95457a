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
//! (peephole/const-fold, jump threading, superinstructions), `off` runs
//! the baseline lowering; observables are bit-identical either way.
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
//! histograms, and heap high-water marks.

use std::collections::HashMap;
use std::process::ExitCode;

use gofree::{compile, execute, AuditMode, CompileOptions, FreePlacement, RunConfig, Setting};
use minigo_syntax::{Block, Expr, ExprId, ExprKind, Span, Stmt, StmtKind};

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

struct Cli {
    go_mode: bool,
    gcoff: bool,
    seed: u64,
    jobs: usize,
    runs: u64,
    audit: AuditMode,
    free_placement: FreePlacement,
    collector: gofree::CollectorKind,
    engine: gofree::VmEngine,
    opt: gofree::OptLevel,
    sanitize: bool,
    explain: bool,
    trace: Option<String>,
    profile: Option<String>,
    gctrace: bool,
    report_json: Option<String>,
    trace_cap: Option<usize>,
    func: Option<String>,
    service: bool,
    requests: usize,
    rps: u64,
    arrival: gofree::Arrival,
    file: Option<String>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        go_mode: false,
        gcoff: false,
        seed: 0,
        jobs: gofree::default_jobs(),
        runs: 1,
        audit: AuditMode::Off,
        free_placement: FreePlacement::Scope,
        collector: gofree::CollectorKind::default(),
        engine: gofree::VmEngine::default(),
        opt: gofree::OptLevel::default(),
        sanitize: false,
        explain: false,
        trace: None,
        profile: None,
        gctrace: false,
        report_json: None,
        trace_cap: None,
        func: None,
        service: false,
        requests: gofree::ServiceConfig::default().requests,
        rps: gofree::ServiceConfig::default().rps,
        arrival: gofree::Arrival::Fixed,
        file: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--go" => cli.go_mode = true,
            "--gofree" => cli.go_mode = false,
            "--gcoff" => cli.gcoff = true,
            "--seed" => {
                cli.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seed needs a number")?;
            }
            "--jobs" => {
                cli.jobs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .ok_or("--jobs needs a positive number")?;
            }
            "--runs" => {
                cli.runs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .ok_or("--runs needs a positive number")?;
            }
            "--audit" => {
                cli.audit = it
                    .next()
                    .ok_or("--audit needs off, warn, or deny")?
                    .parse()?;
            }
            "--free-placement" => {
                cli.free_placement = FreePlacement::parse(
                    it.next().ok_or("--free-placement needs scope or lastuse")?,
                )
                .ok_or("--free-placement needs scope or lastuse")?;
            }
            "--collector" => {
                cli.collector = it.next().ok_or("--collector needs go or gen")?.parse()?;
            }
            "--engine" => {
                cli.engine = it
                    .next()
                    .ok_or("--engine needs tree-walk or bytecode")?
                    .parse()?;
            }
            "--opt" => {
                cli.opt = it.next().ok_or("--opt needs off or full")?.parse()?;
            }
            "--sanitize" => cli.sanitize = true,
            "--explain" => cli.explain = true,
            "--trace" => {
                cli.trace = Some(it.next().ok_or("--trace needs an output path")?.clone());
            }
            "--profile" => {
                cli.profile = Some(it.next().ok_or("--profile needs an output path")?.clone());
            }
            "--gctrace" => cli.gctrace = true,
            "--report-json" => {
                cli.report_json = Some(
                    it.next()
                        .ok_or("--report-json needs an output path")?
                        .clone(),
                );
            }
            "--trace-cap" => {
                cli.trace_cap = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--trace-cap needs a number")?,
                );
            }
            "--func" => {
                cli.func = Some(it.next().ok_or("--func needs a name")?.clone());
            }
            "--service" => cli.service = true,
            "--requests" => {
                cli.requests = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .ok_or("--requests needs a positive number")?;
            }
            "--rps" => {
                cli.rps = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .ok_or("--rps needs a positive number")?;
            }
            "--arrival" => {
                cli.arrival = it
                    .next()
                    .ok_or("--arrival needs fixed, poisson, or burst")?
                    .parse()?;
            }
            other if !other.starts_with('-') => {
                if cli.file.is_some() {
                    return Err(format!("unexpected argument {other}"));
                }
                cli.file = Some(other.to_string());
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(cli)
}

fn run_cli(args: &[String]) -> Result<(), String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(usage());
    };
    let cli = parse_cli(rest)?;
    let read = |cli: &Cli| -> Result<String, String> {
        let file = cli.file.as_ref().ok_or("missing input file")?;
        std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))
    };
    let options = |cli: &Cli| {
        let base = if cli.go_mode {
            CompileOptions::go()
        } else {
            CompileOptions::default()
        };
        CompileOptions {
            audit: cli.audit,
            free_placement: cli.free_placement,
            ..base
        }
    };

    match cmd.as_str() {
        "run" => {
            let src = read(&cli)?;
            let compiled = compile(&src, &options(&cli)).map_err(|e| e.render(&src))?;
            if cli.explain {
                explain_sites(&compiled, &src);
            }
            report_audit(&compiled, &src);
            report_placement(&compiled);
            let setting = match (cli.go_mode, cli.gcoff) {
                (_, true) => Setting::GoGcOff,
                (true, false) => Setting::Go,
                (false, false) => Setting::GoFree,
            };
            let cfg = RunConfig {
                seed: cli.seed,
                jobs: cli.jobs,
                collector: cli.collector,
                engine: cli.engine,
                opt: cli.opt,
                sanitize: cli.sanitize,
                trace: cli.trace.is_some() || cli.profile.is_some() || cli.gctrace,
                trace_cap: cli.trace_cap,
                ..RunConfig::default()
            };
            if cli.service {
                return run_service_mode(&cli, &compiled, setting, &cfg, &src);
            }
            // `--runs N` executes a seeded distribution (fanned across
            // `--jobs`/GOFREE_JOBS workers); the report of run 0 is
            // printed either way, so output is runs/jobs-invariant.
            let reports = gofree::run_distribution(&compiled, setting, &cfg, cli.runs)
                .map_err(|e| e.to_string())?;
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
            if cli.runs > 1 {
                let times: Vec<u64> = reports.iter().map(|r| r.time).collect();
                eprintln!(
                    "[{setting}] {} runs (jobs={}): time min={} max={}",
                    cli.runs,
                    cli.jobs,
                    times.iter().min().unwrap(),
                    times.iter().max().unwrap(),
                );
            }
            if cfg.trace {
                let trace = report
                    .trace
                    .as_ref()
                    .ok_or("internal error: traced run produced no trace")?;
                trace
                    .reconcile(&report.metrics)
                    .map_err(|e| format!("[trace] {e}"))?;
                let spans = collect_spans(&compiled.program);
                let labels: HashMap<u32, String> = spans
                    .iter()
                    .map(|(id, (span, what))| {
                        let (line, col) = span.line_col(&src);
                        (id.0, format!("{line}:{col} {what}"))
                    })
                    .collect();
                if let Some(path) = &cli.trace {
                    let json = gofree::chrome_trace_json(trace, &compiled.phase_times);
                    std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
                    eprint!("{}", gofree::timeline_table(trace, &labels));
                    eprintln!(
                        "[trace] {} events reconciled with metrics; wrote {path}",
                        trace.events.len()
                    );
                }
                if let Some(path) = &cli.profile {
                    let profile = gofree::Profile::build(trace);
                    profile
                        .reconcile(&report.metrics)
                        .map_err(|e| format!("[profile] {e}"))?;
                    let text = gofree::profile_report(&profile, trace, &labels);
                    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
                    let folded = gofree::folded_stacks(
                        &profile,
                        &trace.stacks,
                        gofree::FoldedMetric::AllocBytes,
                    );
                    let folded_path = format!("{path}.folded");
                    std::fs::write(&folded_path, folded)
                        .map_err(|e| format!("{folded_path}: {e}"))?;
                    eprintln!(
                        "[profile] {} stacks reconciled with metrics; wrote {path} and {folded_path}",
                        trace.stacks.len()
                    );
                }
                if cli.gctrace {
                    for line in gofree::gctrace_lines(trace) {
                        eprintln!("{line}");
                    }
                    eprintln!(
                        "[gctrace] collector={} cycles={} (minor={} major={})",
                        trace.collector.name(),
                        report.metrics.gcs,
                        report.metrics.gcs_minor,
                        report.metrics.gcs_major,
                    );
                }
            }
            if let Some(path) = &cli.report_json {
                let json = if cli.runs > 1 {
                    gofree::reports_json(&reports)
                } else {
                    gofree::report_json(report)
                };
                std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
                eprintln!("[report] wrote {path}");
            }
            if cli.sanitize {
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
            Ok(())
        }
        "build" => {
            let src = read(&cli)?;
            let compiled = compile(&src, &options(&cli)).map_err(|e| e.render(&src))?;
            if cli.explain {
                explain_sites(&compiled, &src);
            }
            report_audit(&compiled, &src);
            report_placement(&compiled);
            print!("{}", compiled.instrumented_source());
            Ok(())
        }
        "analyze" => {
            let src = read(&cli)?;
            let compiled = compile(&src, &options(&cli)).map_err(|e| e.render(&src))?;
            print_analysis(&compiled, cli.func.as_deref());
            Ok(())
        }
        "dot" => {
            let src = read(&cli)?;
            let name = cli.func.as_deref().ok_or("dot requires --func NAME")?;
            let compiled = compile(&src, &options(&cli)).map_err(|e| e.render(&src))?;
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
            print!("{}", fg.graph.to_dot(name));
            Ok(())
        }
        "explain" => {
            let src = read(&cli)?;
            let compiled = compile(&src, &options(&cli)).map_err(|e| e.render(&src))?;
            explain(&compiled, cli.func.as_deref());
            Ok(())
        }
        "profile" => {
            let src = read(&cli)?;
            let compiled = compile(&src, &options(&cli)).map_err(|e| e.render(&src))?;
            let cfg = RunConfig {
                seed: cli.seed,
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
            Ok(())
        }
        "help" | "--help" | "-h" => {
            eprintln!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    }
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

/// `minigo run --service`: drives the file's `setup`/`handle` contract
/// through the open-loop traffic harness instead of calling `main`.
/// Prints the latency/pause summary to stdout; `--trace`, `--gctrace`,
/// and `--report-json` observe the service run (request spans in the
/// chrome export, pause/latency rows after the pacing log, a
/// `"service"` section in the JSON report).
fn run_service_mode(
    cli: &Cli,
    compiled: &gofree::Compiled,
    setting: Setting,
    cfg: &RunConfig,
    _src: &str,
) -> Result<(), String> {
    let svc = gofree::ServiceConfig {
        requests: cli.requests,
        rps: cli.rps,
        arrival: cli.arrival,
    };
    let r = gofree::run_service(compiled, setting, cfg, &svc).map_err(|e| e.to_string())?;
    print!("{}", r.report.output);
    println!(
        "[{setting}] service: {} arrivals at {} rps over {} requests",
        svc.arrival, svc.rps, svc.requests
    );
    print!("{}", gofree::service_summary(&r.stats));
    if cfg.trace {
        let trace = r
            .report
            .trace
            .as_ref()
            .ok_or("internal error: traced run produced no trace")?;
        trace
            .reconcile(&r.report.metrics)
            .map_err(|e| format!("[trace] {e}"))?;
        if let Some(path) = &cli.trace {
            let json = gofree::chrome_trace_json(trace, &compiled.phase_times);
            std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
            eprintln!(
                "[trace] {} events (incl. request spans) reconciled with metrics; wrote {path}",
                trace.events.len()
            );
        }
        if cli.gctrace {
            for line in gofree::gctrace_lines(trace) {
                eprintln!("{line}");
            }
            eprint!("{}", gofree::service_gctrace_lines(&r.stats));
        }
    }
    if let Some(path) = &cli.report_json {
        let json = gofree::service_report_json(&r.report, Some(&r.stats));
        std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("[report] wrote {path}");
    }
    if cli.sanitize {
        if !r.report.violations.is_empty() {
            for v in &r.report.violations {
                eprintln!("[sanitize] {v}");
            }
            return Err(format!(
                "sanitizer reported {} violation(s)",
                r.report.violations.len()
            ));
        }
        eprintln!("[sanitize] clean: no violations");
    }
    Ok(())
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
    use minigo_escape::{points_to, LocKind};
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
        let mut printed_header = false;
        for id in fg.graph.ids() {
            let l = fg.graph.loc(id);
            let LocKind::Var(vid) = l.kind else { continue };
            let info = compiled.resolution.var(vid);
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
                    l.name
                );
                continue;
            }
            if l.to_free() {
                println!(
                    "  {:<14} KEPT    qualified, but excluded by the free-target selection (§6.5)",
                    l.name
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
                            pl.name, pl.outermost_ref, l.decl_depth
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
            println!("  {:<14} KEPT    {}", l.name, reasons.join("; "));
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
            if !matches!(l.kind, minigo_escape::LocKind::Var(_)) {
                continue;
            }
            println!(
                "  {:<16} heap={:<5} exposes={:<5} incomplete={:<5} outlived={:<5} tofree={}",
                l.name,
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
        collect_block(&func.body, &func.name, &mut out);
    }
    out
}

fn collect_block(block: &Block, fname: &str, out: &mut HashMap<ExprId, (Span, String)>) {
    for stmt in &block.stmts {
        collect_stmt(stmt, fname, out);
    }
}

fn collect_stmt(stmt: &Stmt, fname: &str, out: &mut HashMap<ExprId, (Span, String)>) {
    let mut visit = |e: &Expr| collect_expr(e, fname, out);
    match &stmt.kind {
        StmtKind::VarDecl { init, .. } | StmtKind::ShortDecl { init, .. } => {
            init.iter().for_each(&mut visit)
        }
        StmtKind::Assign { lhs, rhs, .. } => {
            lhs.iter().for_each(&mut visit);
            rhs.iter().for_each(&mut visit);
        }
        StmtKind::If { cond, then, els } => {
            visit(cond);
            collect_block(then, fname, out);
            if let Some(els) = els {
                collect_stmt(els, fname, out);
            }
        }
        StmtKind::For {
            init,
            cond,
            post,
            body,
        } => {
            if let Some(init) = init {
                collect_stmt(init, fname, out);
            }
            if let Some(cond) = cond {
                collect_expr(cond, fname, out);
            }
            if let Some(post) = post {
                collect_stmt(post, fname, out);
            }
            collect_block(body, fname, out);
        }
        StmtKind::Return { exprs } => exprs.iter().for_each(&mut visit),
        StmtKind::Expr { expr } => visit(expr),
        StmtKind::BlockStmt { block } => collect_block(block, fname, out),
        StmtKind::Defer { call } => visit(call),
        StmtKind::Switch {
            subject,
            cases,
            default,
        } => {
            collect_expr(subject, fname, out);
            for case in cases {
                case.values.iter().for_each(|v| collect_expr(v, fname, out));
                collect_block(&case.body, fname, out);
            }
            if let Some(default) = default {
                collect_block(default, fname, out);
            }
        }
        StmtKind::Break | StmtKind::Continue => {}
        StmtKind::Free { target, .. } => visit(target),
    }
}

fn collect_expr(e: &Expr, fname: &str, out: &mut HashMap<ExprId, (Span, String)>) {
    match &e.kind {
        ExprKind::Builtin { kind, args, .. } => {
            let what = match kind {
                minigo_syntax::Builtin::Make => Some(format!("make (in {fname})")),
                minigo_syntax::Builtin::New => Some(format!("new (in {fname})")),
                minigo_syntax::Builtin::Append => Some(format!("append growth (in {fname})")),
                _ => None,
            };
            if let Some(what) = what {
                out.insert(e.id, (e.span, what));
            }
            args.iter().for_each(|a| collect_expr(a, fname, out));
        }
        ExprKind::StructLit { name, fields } => {
            out.insert(e.id, (e.span, format!("&{name}{{}} (in {fname})")));
            fields.iter().for_each(|f| collect_expr(f, fname, out));
        }
        ExprKind::Unary { operand, .. } => collect_expr(operand, fname, out),
        ExprKind::Binary { lhs, rhs, .. } => {
            collect_expr(lhs, fname, out);
            collect_expr(rhs, fname, out);
        }
        ExprKind::Field { base, .. } => collect_expr(base, fname, out),
        ExprKind::Index { base, index } => {
            collect_expr(base, fname, out);
            collect_expr(index, fname, out);
        }
        ExprKind::SliceExpr { base, lo, hi } => {
            collect_expr(base, fname, out);
            for bound in [lo, hi].into_iter().flatten() {
                collect_expr(bound, fname, out);
            }
        }
        ExprKind::Call { args, .. } => args.iter().for_each(|a| collect_expr(a, fname, out)),
        _ => {}
    }
}
