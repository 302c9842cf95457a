//! # gofree-bench
//!
//! The benchmark harness regenerating every table and figure in the
//! GoFree paper's evaluation (§6) and the extension studies. It is one
//! executable over a registry: `bench <experiment> [options]` runs one
//! row of [`experiments::ALL`], `bench --list` names the rows and
//! `bench --help` prints each row's description.
//!
//! `--quick` selects the test scale and 9 runs per setting (99 at full
//! scale) unless `--runs` says otherwise; every other option is shared
//! with `minigo` and parsed by [`gofree::cli::CommonOptions`]. The
//! observability artifacts (`--trace`, `--profile`, `--gctrace`,
//! `--report-json`) are written from the experiment's designated run; an
//! experiment without one observes the `json` workload under GoFree.

pub mod experiments;

use gofree::cli::{write_artifacts, CommonOptions, Observed};
use gofree::{CompileOptions, Compiled, RunConfig, Setting};
use gofree_workloads::Scale;

/// One row of the registry.
pub struct Experiment {
    /// The name `bench` is called with.
    pub name: &'static str,
    /// What the experiment regenerates, in one line.
    pub about: &'static str,
    /// Prints the experiment to stdout and returns its designated run,
    /// when it has one.
    pub run: fn(&Options) -> Result<Option<Observed>, String>,
}

/// What an experiment runs with.
#[derive(Debug)]
pub struct Options {
    /// `--quick`: the test scale instead of the full evaluation scale.
    pub quick: bool,
    /// Runs per setting: `--runs N`, else 99 (9 under `--quick`).
    pub runs: u64,
    /// The options shared with `minigo`; `common.config` is the
    /// evaluation run configuration.
    pub common: CommonOptions,
}

impl Options {
    /// The workload scale matching `quick`.
    pub fn scale(&self) -> Scale {
        if self.quick {
            Scale::Test
        } else {
            Scale::Full
        }
    }

    /// The evaluation [`RunConfig`] with this run's options written in.
    pub fn run_config(&self) -> RunConfig {
        self.common.config.clone()
    }

    /// The compiler options for `setting`, carrying `--free-placement`
    /// (plain-Go settings have no frees to place).
    pub fn compile_options(&self, setting: Setting) -> CompileOptions {
        CompileOptions {
            free_placement: self.common.free_placement,
            ..setting.compile_options()
        }
    }
}

/// Runs `bench` on `args` (without the program name).
///
/// # Errors
///
/// An unknown option or experiment, a missing or malformed option value,
/// an experiment that reports a failure, or an artifact that cannot be
/// written.
pub fn main_with(args: &[String]) -> Result<(), String> {
    let mut name = None;
    let mut quick = false;
    let mut common = CommonOptions::new(eval_run_config());
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--list" => {
                for e in experiments::ALL {
                    println!("{}", e.name);
                }
                return Ok(());
            }
            "--help" | "-h" => {
                eprintln!("{}", usage());
                for e in experiments::ALL {
                    eprintln!("  {:<14} {}", e.name, e.about);
                }
                return Ok(());
            }
            "--quick" => quick = true,
            other if !other.starts_with('-') => {
                if name.replace(other).is_some() {
                    return Err(format!("unexpected argument {other}"));
                }
            }
            other => {
                if !common.accept(other, &mut it)? {
                    return Err(format!("unknown option {other}"));
                }
            }
        }
    }
    let name = name.ok_or_else(usage)?;
    let experiment = experiments::ALL
        .iter()
        .find(|e| e.name == name)
        .ok_or_else(|| format!("unknown experiment `{name}` (`bench --list` names them)"))?;
    let opts = Options {
        quick,
        runs: common.runs.unwrap_or(if quick { 9 } else { 99 }),
        common,
    };
    let observed = (experiment.run)(&opts)?;
    if opts.common.any_artifact() {
        let observed = match observed {
            Some(o) => o,
            None => observe_json(&opts)?,
        };
        write_artifacts(&opts.common, &observed, None)?;
    }
    Ok(())
}

fn usage() -> String {
    "usage: bench <experiment> [--quick] [--runs N] [--jobs N] \
     [--engine tree-walk|bytecode] [--opt off|full] [--collector go|gen] \
     [--free-placement scope|lastuse] [--trace PATH] [--profile PATH] [--gctrace] \
     [--report-json PATH]; `bench --list` names the experiments"
        .to_string()
}

/// The designated run of an experiment whose measurements yield no
/// reusable report: the `json` workload, once, under GoFree.
fn observe_json(opts: &Options) -> Result<Observed, String> {
    let w = gofree_workloads::by_name("json", opts.scale()).expect("json workload exists");
    let compiled = gofree::compile(&w.source, &opts.compile_options(Setting::GoFree))
        .map_err(|e| e.render(&w.source))?;
    let report = gofree::execute(&compiled, Setting::GoFree, &opts.run_config())
        .map_err(|e| e.to_string())?;
    Ok(Observed::new(report, compiled.phase_times))
}

/// The run configuration the evaluation uses (tighter GC trigger than the
/// library default so every workload exercises the collector).
pub fn eval_run_config() -> RunConfig {
    RunConfig {
        min_heap: 128 * 1024,
        ..RunConfig::default()
    }
}

/// Formats a fraction as a percentage like the paper's tables ("93%").
pub fn pct(x: f64) -> String {
    format!("{:.0}%", x * 100.0)
}

/// Formats a p-value the way table 7 prints them.
pub fn fmt_p(p: f64) -> String {
    if p < 0.001 {
        "<0.001".to_string()
    } else {
        format!("{p:.3}")
    }
}

/// Runs all three settings of one workload, compiled with `opts`, and
/// returns (go, gofree, gcoff) report vectors.
///
/// # Panics
///
/// Panics if compilation or any run fails — experiment inputs are fixed
/// and must work.
pub fn run_three_settings(
    opts: &Options,
    source: &str,
    runs: u64,
    base: &RunConfig,
) -> (
    Vec<gofree::Report>,
    Vec<gofree::Report>,
    Vec<gofree::Report>,
) {
    let compiled: Vec<(Compiled, Setting)> = Setting::all()
        .into_iter()
        .map(|setting| {
            let c =
                gofree::compile(source, &opts.compile_options(setting)).expect("workload compiles");
            (c, setting)
        })
        .collect();
    // One matrix call fans all (setting × run-index) cells across the
    // worker pool instead of draining one setting at a time.
    let cells: Vec<(&Compiled, Setting)> = compiled.iter().map(|(c, s)| (c, *s)).collect();
    let mut out = gofree::run_matrix(&cells, base, runs).expect("workload runs");
    let gcoff = out.pop().expect("three settings");
    let gofree = out.pop().expect("three settings");
    let go = out.pop().expect("three settings");
    (go, gofree, gcoff)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_and_p_formatting() {
        assert_eq!(pct(0.934), "93%");
        assert_eq!(pct(1.0), "100%");
        assert_eq!(fmt_p(0.0004), "<0.001");
        assert_eq!(fmt_p(0.253), "0.253");
    }

    #[test]
    fn run_three_settings_produces_consistent_outputs() {
        let opts = Options {
            quick: true,
            runs: 3,
            common: CommonOptions::new(eval_run_config()),
        };
        let w = gofree_workloads::by_name("json", opts.scale()).unwrap();
        let (go, gofree, gcoff) = run_three_settings(&opts, &w.source, 3, &opts.run_config());
        assert_eq!(go.len(), 3);
        assert_eq!(go[0].output, gofree[0].output);
        assert_eq!(go[0].output, gcoff[0].output);
    }
}
