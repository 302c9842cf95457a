//! The registry: one row per experiment, in the order
//! `scripts/reproduce.sh` regenerates `results/`. A row's name is its
//! module's name, and the module's `run` is the experiment.

use crate::Experiment;

macro_rules! registry {
    ($($name:ident: $about:literal,)*) => {
        $(mod $name;)*

        /// Every experiment `bench` runs.
        pub const ALL: &[Experiment] = &[$(Experiment {
            name: stringify!($name),
            about: $about,
            run: $name::run,
        },)*];
    };
}

registry! {
    table3: "points-to sets of fig. 1 under the three escape analyses (§4.2)",
    table7: "performance ratios with Welch p-values over N runs (§6.4)",
    table8: "stack/heap decisions and tcfree reclamation shares (§6.5)",
    table9: "reclaimed space by free source (§6.6)",
    fig10: "map microbenchmark, object-size sweep (§6.3)",
    fig11: "run-time distributions across N runs (§6.4)",
    compile_speed: "compilation speed and analysis scaling, host-timed (§6.7)",
    robustness: "mock tcfree that corrupts instead of freeing (§6.8)",
    ablation: "content tags, free targets, tcfree bail-outs, GrowMapAndFreeOld",
    inlining: "GoFree without inlining vs Go with it (§4.6.4)",
    batching: "batching adjacent tcfrees (§5)",
    gogc_sweep: "GoFree's benefit across GOGC pacing",
    summary: "one-page verdict against the paper",
    fuzz: "differential fuzzing: Go vs GoFree vs the poison mock",
    audit: "free-safety audit and shadow-heap sanitizer sweep",
    trace: "heap figures re-derived from the runtime event stream",
    profile: "garbage attributed by call stack, Go vs GoFree",
    liveness: "scope vs lastuse free placement: per-site lifetime drag",
    collectors: "tables 7-9 and heap curves per collection backend",
    service: "open-loop traffic: tail latency, GC pauses, heap high-water",
}
