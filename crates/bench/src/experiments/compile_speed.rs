//! Regenerates the §6.7 compilation-speed experiment: compiling a large
//! generated package repeatedly with the plain-Go analysis and with
//! GoFree's analysis, then testing whether the difference is significant
//! (the paper reports p = 0.496 — no observable slowdown).
//!
//! Also times the four analyses — the two baselines (Fast O(N) and the
//! connection graph O(N³)) beside Go's and GoFree's — against program
//! size, and checks that GoFree stays within a constant of Go.

use std::hint::black_box;
use std::time::Instant;

use crate::Options;
use gofree::cli::Observed;
use gofree::{compile, welch_t_test, CompileOptions, Setting};
use gofree_workloads::corpus;
use minigo_escape::baseline::{conn, fast};
use minigo_escape::{analyze, build_func_graph, solve, AnalyzeOptions, BuildOptions, SolveConfig};
use minigo_syntax::{frontend, IdMap};

/// Program sizes (function counts) of the scaling table.
const SCALING_SIZES: [usize; 4] = [40, 80, 160, 320];

/// Timed passes per size and analysis; the table reports their median.
const SCALING_REPEATS: usize = 7;

/// GoFree's analysis may cost at most this multiple of Go's at any size:
/// the two share one O(N^2) frame, so the ratio is a constant.
const GOFREE_OVER_GO: f64 = 2.0;

/// Median, min and max over [`SCALING_REPEATS`] timed calls of `f`, in
/// microseconds.
fn spread(mut f: impl FnMut()) -> [f64; 3] {
    let mut us: Vec<f64> = (0..SCALING_REPEATS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    us.sort_by(f64::total_cmp);
    [us[us.len() / 2], us[0], us[us.len() - 1]]
}

/// Interleaves the two compilers' runs so thermal/frequency drift hits
/// both samples equally.
fn time_interleaved(
    src: &str,
    a: &CompileOptions,
    b: &CompileOptions,
    reps: u64,
) -> (Vec<f64>, Vec<f64>) {
    let mut ta = Vec::new();
    let mut tb = Vec::new();
    let one = |opts: &CompileOptions, out: &mut Vec<f64>| {
        let t0 = Instant::now();
        let c = compile(src, opts).expect("corpus compiles");
        black_box(c.analysis.stats.locations);
        out.push(t0.elapsed().as_secs_f64() * 1e6);
    };
    // Warm up both paths before measuring.
    one(a, &mut Vec::new());
    one(b, &mut Vec::new());
    ta.clear();
    tb.clear();
    for _ in 0..reps {
        one(a, &mut ta);
        one(b, &mut tb);
    }
    (ta, tb)
}

pub fn run(opts: &Options) -> Result<Option<Observed>, String> {
    let reps = opts.runs;
    let nfuncs = if opts.quick { 60 } else { 320 };
    let src = corpus::generate(nfuncs);
    println!(
        "Compilation speed (§6.7): corpus of {nfuncs} functions, {reps} compiles per compiler\n"
    );

    let (go_times, gofree_times) = time_interleaved(
        &src,
        &opts.compile_options(Setting::Go),
        &opts.compile_options(Setting::GoFree),
        reps,
    );
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let w = welch_t_test(&gofree_times, &go_times);
    let overhead = (mean(&gofree_times) / mean(&go_times) - 1.0) * 100.0;
    println!(
        "Go      mean {:>9.1} us  (stack-allocation analysis only)",
        mean(&go_times)
    );
    println!(
        "GoFree  mean {:>9.1} us  (+completeness, lifetime, content tags, instrumentation)",
        mean(&gofree_times)
    );
    println!(
        "analysis-pass overhead {overhead:+.1}%   Welch p = {:.3}",
        w.p
    );
    println!(
        "\nContext: this times the whole compile() — front end, escape analysis,\ninstrumentation, lowering and optimization. In the real Go compiler the\nescape pass is a few percent of total compile time, so a slowdown of the\npass of this size is invisible end-to-end — which is how the paper can\nreport p = 0.496 on whole compilations (§6.7). The important check is\nthat GoFree stays within a small constant of Go's O(N^2) pass rather\nthan growing asymptotically:"
    );

    println!(
        "\nScaling of the four analyses on one front-end result (microseconds,\n\
         median [min, max] of {SCALING_REPEATS} passes per size):"
    );
    println!(
        "{:>6} {:>20} {:>20} {:>20} {:>20}",
        "funcs", "fast O(N)", "Go O(N^2)", "GoFree O(N^2)", "conn O(N^3)"
    );
    let mut rows = Vec::new();
    for n in SCALING_SIZES {
        let src = corpus::generate(n);
        let (program, res, types) = frontend(&src).expect("corpus compiles");
        let (go, gofree) = (AnalyzeOptions::go(), AnalyzeOptions::default());
        let row = [
            spread(|| {
                for f in &program.funcs {
                    black_box(fast::analyze_func(&program, &res, &types, f));
                }
            }),
            spread(|| drop(black_box(analyze(&program, &res, &types, &go)))),
            spread(|| drop(black_box(analyze(&program, &res, &types, &gofree)))),
            spread(|| {
                for f in &program.funcs {
                    black_box(conn::analyze_func(&program, &res, &types, f));
                }
            }),
        ];
        let cells: Vec<String> = row
            .iter()
            .map(|[med, lo, hi]| format!("{med:.0} [{lo:.0}, {hi:.0}]"))
            .collect();
        println!(
            "{n:>6} {:>20} {:>20} {:>20} {:>20}",
            cells[0], cells[1], cells[2], cells[3]
        );
        rows.push(row.map(|[med, _, _]| med));
    }
    let [n0, .., n1] = SCALING_SIZES;
    let (first, last) = (rows[0], rows[rows.len() - 1]);
    let growth: Vec<String> = ["fast", "Go", "GoFree", "conn"]
        .iter()
        .zip(first.iter().zip(last))
        .map(|(name, (a, b))| format!("{name} x{:.1}", b / a))
        .collect();
    println!(
        "\nGrowth of the medians from {n0} to {n1} functions (x{}): {}.",
        n1 / n0,
        growth.join(", ")
    );
    println!(
        "The corpus repeats five bounded-size function shapes, so the per-function\n\
         orders in the header cannot show here: every column grows with the function\n\
         count. crates/analysis/tests/complexity.rs pins the orders on a growing\n\
         function with work counters."
    );
    let ratios: Vec<f64> = rows.iter().map(|r| r[2] / r[1]).collect();
    let worst = ratios.iter().copied().fold(0.0, f64::max);
    println!(
        "Checked: GoFree's median is within {GOFREE_OVER_GO}x of Go's at every size \
         (GoFree/Go = {}).",
        ratios
            .iter()
            .map(|r| format!("{r:.2}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    assert!(
        worst <= GOFREE_OVER_GO,
        "GoFree/Go reached {worst:.2}, over the {GOFREE_OVER_GO}x bound"
    );

    // Dirty-root tracking: solve every corpus function with and without
    // skipping clean roots and report how much propagation work it saves
    // (the solutions are asserted identical).
    println!("\nDirty-root tracking in the property solver (same fixpoint, less work):");
    println!(
        "{:>8} {:>24} {:>24} {:>18}",
        "", "-- full passes --", "-- dirty roots --", "-- reduction --"
    );
    println!(
        "{:>8} {:>10} {:>13} {:>10} {:>13} {:>9} {:>8}",
        "funcs", "walks", "relaxations", "walks", "relaxations", "walks", "relax"
    );
    for n in [40usize, 160, 320] {
        let src = corpus::generate(n);
        let (program, res, types) = frontend(&src).expect("corpus compiles");
        let run = |dirty_roots: bool| {
            let mut walks = 0usize;
            let mut relax = 0usize;
            let mut dumps = String::new();
            for f in &program.funcs {
                let mut fg = build_func_graph(
                    &program,
                    &res,
                    &types,
                    f,
                    &IdMap::default(),
                    &BuildOptions::default(),
                );
                let s = solve(
                    &mut fg.graph,
                    &SolveConfig {
                        dirty_roots,
                        ..SolveConfig::default()
                    },
                );
                walks += s.walks;
                relax += s.relaxations;
                dumps.push_str(&fg.graph.dump());
            }
            (walks, relax, dumps)
        };
        let (w_full, r_full, d_full) = run(false);
        let (w_dirty, r_dirty, d_dirty) = run(true);
        assert_eq!(d_full, d_dirty, "dirty-root tracking changed the solution");
        println!(
            "{n:>8} {w_full:>10} {r_full:>13} {w_dirty:>10} {r_dirty:>13} {:>8.1}% {:>8.1}%",
            (1.0 - w_dirty as f64 / w_full.max(1) as f64) * 100.0,
            (1.0 - r_dirty as f64 / r_full.max(1) as f64) * 100.0,
        );
    }
    Ok(None)
}
