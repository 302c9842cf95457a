//! The command-line layer `minigo` and `bench` share: one strict parser
//! for the options both tools accept, and one function that writes the
//! observability artifacts of a tool's designated run.
//!
//! Each tool matches its own options first and hands every other
//! argument to [`CommonOptions::accept`], which writes the run knobs
//! straight into the tool's [`RunConfig`] base. A missing or malformed
//! value is an error, never a silent default.

use std::collections::HashMap;
use std::slice::Iter;
use std::str::FromStr;

use minigo_escape::FreePlacement;
use minigo_runtime::Profile;

use crate::engine::{Report, RunConfig};
use crate::pipeline::PhaseTime;
use crate::profile::{folded_stacks, gctrace_lines, profile_report, FoldedMetric};
use crate::report::{report_json, reports_json, service_report_json};
use crate::service::{service_gctrace_lines, ServiceStats};
use crate::trace::{chrome_trace_json, timeline_table};

/// The options both tools accept: `--runs`, `--jobs`, `--engine`,
/// `--opt`, `--collector`, `--free-placement`, and the four
/// observability artifacts. An artifact only observes: the run's numbers
/// are the same with or without it.
#[derive(Debug)]
pub struct CommonOptions {
    /// The tool's run configuration with `--jobs`, `--engine`, `--opt`
    /// and `--collector` written in; `trace` is set when an artifact
    /// needs the event stream.
    pub config: RunConfig,
    /// `--runs N` when given; each tool has its own default.
    pub runs: Option<u64>,
    /// `--free-placement scope|lastuse` (default `scope`).
    pub free_placement: FreePlacement,
    /// `--trace PATH`: the runtime event stream as Chrome `trace_event`
    /// JSON.
    pub trace: Option<String>,
    /// `--profile PATH`: the call-stack-attributed allocation profile,
    /// plus `PATH.folded` for `flamegraph.pl`.
    pub profile: Option<String>,
    /// `--gctrace`: a `GODEBUG=gctrace=1`-style pacing line per GC cycle
    /// on stderr.
    pub gctrace: bool,
    /// `--report-json PATH`: the run report as JSON.
    pub report_json: Option<String>,
}

impl CommonOptions {
    /// Options over the tool-supplied `config` base, before parsing.
    pub fn new(config: RunConfig) -> Self {
        CommonOptions {
            config,
            runs: None,
            free_placement: FreePlacement::Scope,
            trace: None,
            profile: None,
            gctrace: false,
            report_json: None,
        }
    }

    /// Parses `arg` if it is one of the shared options, taking its value
    /// from `rest`. Returns `Ok(false)` when `arg` is not a shared option,
    /// and an error when its value is missing or malformed.
    pub fn accept(&mut self, arg: &str, rest: &mut Iter<'_, String>) -> Result<bool, String> {
        let path = |rest: &mut Iter<'_, String>| {
            value(rest, &format!("{arg} needs an output path")).map(String::from)
        };
        match arg {
            "--runs" => self.runs = Some(positive(rest, "--runs needs a positive number")?),
            "--jobs" => self.config.jobs = positive(rest, "--jobs needs a positive number")?,
            "--engine" => {
                self.config.engine =
                    value(rest, "--engine needs tree-walk or bytecode")?.parse()?;
            }
            "--opt" => self.config.opt = value(rest, "--opt needs off or full")?.parse()?,
            "--collector" => {
                self.config.collector = value(rest, "--collector needs go or gen")?.parse()?;
            }
            "--free-placement" => {
                let need = "--free-placement needs scope or lastuse";
                self.free_placement = FreePlacement::parse(value(rest, need)?).ok_or(need)?;
            }
            "--trace" => self.trace = Some(path(rest)?),
            "--profile" => self.profile = Some(path(rest)?),
            "--gctrace" => self.gctrace = true,
            "--report-json" => self.report_json = Some(path(rest)?),
            _ => return Ok(false),
        }
        self.config.trace |= self.needs_trace();
        Ok(true)
    }

    /// True when any artifact was asked for.
    pub fn any_artifact(&self) -> bool {
        self.needs_trace() || self.report_json.is_some()
    }

    fn needs_trace(&self) -> bool {
        self.trace.is_some() || self.profile.is_some() || self.gctrace
    }
}

/// The next argument, or the error `need`.
pub fn value<'a>(rest: &mut Iter<'a, String>, need: &str) -> Result<&'a str, String> {
    rest.next()
        .map(String::as_str)
        .ok_or_else(|| need.to_string())
}

/// The next argument parsed as a number, or the error `need`.
pub fn number<T: FromStr>(rest: &mut Iter<'_, String>, need: &str) -> Result<T, String> {
    value(rest, need)?.parse().map_err(|_| need.to_string())
}

/// The next argument parsed as a number of at least 1, or the error
/// `need`.
pub fn positive<T: FromStr + PartialOrd + From<u8>>(
    rest: &mut Iter<'_, String>,
    need: &str,
) -> Result<T, String> {
    let n = number(rest, need)?;
    if n >= T::from(1) {
        Ok(n)
    } else {
        Err(need.to_string())
    }
}

/// A tool's designated run: what its artifacts are written from.
#[derive(Debug)]
pub struct Observed {
    /// The designated run's report first, then the rest of a `--runs N`
    /// distribution (the JSON report covers them all).
    pub reports: Vec<Report>,
    /// The compile phases, for the Chrome export's compile track.
    pub phases: Vec<PhaseTime>,
    /// The traffic stats when the run came from the service harness.
    pub service: Option<ServiceStats>,
}

impl Observed {
    /// One batch run and the phases of its compile.
    pub fn new(report: Report, phases: Vec<PhaseTime>) -> Self {
        Observed {
            reports: vec![report],
            phases,
            service: None,
        }
    }
}

/// Writes every artifact `opts` asks for from `observed`; a no-op for those
/// not asked for. The trace is reconciled with the run's metrics first,
/// and the profile too, so an artifact that disagrees with the published
/// numbers is never written. With `labels` (site id → `line:col what`),
/// `--trace` also prints the per-site timeline table to stderr and the
/// profile names its sites; without, sites keep their numeric ids.
///
/// # Errors
///
/// A run that carries no trace although an artifact needs one, a failed
/// reconciliation, or a file that cannot be written.
pub fn write_artifacts(
    opts: &CommonOptions,
    observed: &Observed,
    labels: Option<&HashMap<u32, String>>,
) -> Result<(), String> {
    let report = observed
        .reports
        .first()
        .ok_or("internal error: no run to observe")?;
    if opts.needs_trace() {
        let trace = report
            .trace
            .as_ref()
            .ok_or("internal error: traced run produced no trace")?;
        trace
            .reconcile(&report.metrics)
            .map_err(|e| format!("[trace] {e}"))?;
        if let Some(path) = &opts.trace {
            write(path, chrome_trace_json(trace, &observed.phases))?;
            if let Some(labels) = labels {
                eprint!("{}", timeline_table(trace, labels));
            }
            let spans = match observed.service {
                Some(_) => " (incl. request spans)",
                None => "",
            };
            eprintln!(
                "[trace] {} events{spans} reconciled with metrics; wrote {path}",
                trace.events.len()
            );
        }
        if let Some(path) = &opts.profile {
            let profile = Profile::build(trace);
            profile
                .reconcile(&report.metrics)
                .map_err(|e| format!("[profile] {e}"))?;
            let numeric = HashMap::new();
            write(
                path,
                profile_report(&profile, trace, labels.unwrap_or(&numeric)),
            )?;
            let folded_path = format!("{path}.folded");
            write(
                &folded_path,
                folded_stacks(&profile, &trace.stacks, FoldedMetric::AllocBytes),
            )?;
            eprintln!(
                "[profile] {} stacks reconciled with metrics; wrote {path} and {folded_path}",
                trace.stacks.len()
            );
        }
        if opts.gctrace {
            for line in gctrace_lines(trace) {
                eprintln!("{line}");
            }
            match &observed.service {
                Some(stats) => eprint!("{}", service_gctrace_lines(stats)),
                None => eprintln!(
                    "[gctrace] collector={} cycles={} (minor={} major={})",
                    trace.collector.name(),
                    report.metrics.gcs,
                    report.metrics.gcs_minor,
                    report.metrics.gcs_major,
                ),
            }
        }
    }
    if let Some(path) = &opts.report_json {
        let json = match (&observed.service, observed.reports.as_slice()) {
            (Some(stats), _) => service_report_json(report, Some(stats)),
            (None, [one]) => report_json(one),
            (None, all) => reports_json(all),
        };
        write(path, json)?;
        eprintln!("[report] wrote {path}");
    }
    Ok(())
}

fn write(path: &str, contents: String) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("{path}: {e}"))
}
