//! The registry: one row per experiment, in the order
//! `scripts/reproduce.sh` regenerates `results/`. A row's name is its
//! module's name, and the module's `run` is the experiment.

use crate::{Experiment, RUN_OPTIONS};

macro_rules! registry {
    ($($name:ident($reads:expr): $about:literal,)*) => {
        $(mod $name;)*

        /// Every experiment `bench` runs.
        pub const ALL: &[Experiment] = &[$(Experiment {
            name: stringify!($name),
            about: $about,
            reads: $reads,
            run: $name::run,
        },)*];
    };
}

/// What an experiment reads that runs each program once per setting:
/// every run option but `--runs`.
const ONCE: &[&str] = &["--engine", "--opt", "--collector", "--free-placement"];

// A row reads the run options its experiment passes on; one it sets
// itself (both collectors, both engines, both placements, or
// `RunConfig::deterministic`) it does not read.
registry! {
    table3(&[]): "points-to sets of fig. 1 under the three escape analyses (§4.2)",
    table7(&RUN_OPTIONS): "performance ratios with Welch p-values over N runs (§6.4)",
    table8(ONCE): "stack/heap decisions and tcfree reclamation shares (§6.5)",
    table9(ONCE): "reclaimed space by free source (§6.6)",
    fig10(ONCE): "map microbenchmark, object-size sweep (§6.3)",
    fig11(&RUN_OPTIONS): "run-time distributions across N runs (§6.4)",
    compile_speed(&["--runs", "--free-placement"]):
        "compilation speed and analysis scaling, host-timed (§6.7)",
    robustness(ONCE): "mock tcfree that corrupts instead of freeing (§6.8)",
    ablation(ONCE): "content tags, free targets, tcfree bail-outs, GrowMapAndFreeOld",
    inlining(ONCE): "GoFree without inlining vs Go with it (§4.6.4)",
    batching(ONCE): "batching adjacent tcfrees (§5)",
    gogc_sweep(ONCE): "GoFree's benefit across GOGC pacing",
    summary(&RUN_OPTIONS): "one-page verdict against the paper",
    fuzz(&["--runs", "--free-placement"]): "differential fuzzing: Go vs GoFree vs the poison mock",
    audit(&["--opt", "--collector", "--free-placement"]):
        "free-safety audit and shadow-heap sanitizer sweep",
    trace(ONCE): "heap figures re-derived from the runtime event stream",
    profile(ONCE): "garbage attributed by call stack, Go vs GoFree",
    liveness(&["--engine", "--opt", "--collector"]):
        "scope vs lastuse free placement: per-site lifetime drag",
    collectors(&["--runs", "--engine", "--opt", "--free-placement"]):
        "tables 7-9 and the Go vs GoFree deltas under both collectors",
    service(&["--engine", "--opt", "--free-placement"]):
        "open-loop traffic: tail latency, GC pauses, heap high-water",
}
