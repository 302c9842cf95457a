//! The names every later gain claim is made against: workloads,
//! end-to-end metrics with their regression bounds, per-layer metrics.
//! `BENCHMARK.json` at the repo root repeats this table; a unit test
//! below fails when the two differ.

pub const WORKLOADS: [&str; 4] = [
    "compile-corpus",
    "batch-matrix",
    "service-steady",
    "gc-pressure",
];

/// The seed `expected/*.txt` was blessed with.
pub const DEFAULT_SEED: u64 = 1;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// All lower-is-better. Failures are not a metric here: the result line
/// carries `attempted` / `failed` / `correct` beside the metrics. The
/// median and p90 of whole iterations are per-layer (`bench.*`) and not
/// gated: on the reference box they do not repeat within a quarter.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "iter_ms_min",
        unit: "ms",
        bound: 0.20,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true`: higher is better.
    pub higher: bool,
    /// A count read from the program's own reports: must repeat exactly.
    pub count: bool,
}

const fn time(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        higher: false,
        count: false,
    }
}

const fn count(name: &'static str) -> Layer {
    Layer {
        name,
        unit: "count",
        higher: false,
        count: true,
    }
}

const fn count_up(name: &'static str) -> Layer {
    Layer {
        name,
        unit: "count",
        higher: true,
        count: true,
    }
}

const fn up(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        higher: true,
        count: false,
    }
}

/// One row per per-layer metric, grouped by layer (= crate). A metric
/// reads 0 on a workload whose iteration does no work in that layer or
/// that does not own its probe; README.md says which workload owns which.
pub const PER_LAYER: &[Layer] = &[
    // syntax — compile-corpus
    time("syntax.lex.ms", "ms"),
    count("syntax.lex.tokens"),
    time("syntax.parse.ms", "ms"),
    time("syntax.resolve.ms", "ms"),
    time("syntax.typecheck.ms", "ms"),
    Layer {
        name: "syntax.src_kb",
        unit: "KiB",
        higher: false,
        count: true,
    },
    // analysis — compile-corpus
    time("analysis.analyze_go.ms", "ms"),
    time("analysis.analyze_gofree.ms", "ms"),
    time("analysis.solve.ms", "ms"),
    time("analysis.select.ms", "ms"),
    count("analysis.graph.locations"),
    count("analysis.graph.edges"),
    count("analysis.solve.walks"),
    count_up("analysis.to_free.sites"),
    time("analysis.liveness.ms", "ms"),
    count_up("analysis.liveness.advanced"),
    time("analysis.instrument.ms", "ms"),
    time("analysis.audit.ms", "ms"),
    up("analysis.audit.proved_ratio", "ratio"),
    // vm, compile side — compile-corpus
    time("vm.lower.ms", "ms"),
    count("vm.lower.instrs"),
    time("vm.optimize.ms", "ms"),
    count_up("vm.optimize.rewrites"),
    count("vm.optimize.instrs_after"),
    // vm, exec side — the three exec workloads
    time("vm.exec.ns_per_step", "ns"),
    time("vm.exec_optoff.ns_per_step", "ns"),
    time("vm.exec_treewalk.ns_per_step", "ns"),
    count("vm.exec.steps"),
    up("vm.ic.hit_ratio", "ratio"),
    time("vm.session.us_per_request.kv", "us"),
    time("vm.session.us_per_request.jsonsvc", "us"),
    time("vm.session.us_per_request.rotate", "us"),
    // runtime
    time("runtime.alloc.ns_per_alloc", "ns"),
    time("runtime.tcfree.ns_per_free", "ns"),
    count("runtime.alloc.objects"),
    count("runtime.alloc.bytes"),
    count("runtime.tcfree.attempts"),
    time("runtime.tcfree.bail_ratio", "ratio"),
    up("runtime.tcfree.freed_ratio", "ratio"),
    up("runtime.tcfree.freed_ratio.kv", "ratio"),
    up("runtime.tcfree.freed_ratio.jsonsvc", "ratio"),
    up("runtime.tcfree.freed_ratio.rotate", "ratio"),
    count("runtime.gc.cycles"),
    count("runtime.gc.cycles_minor"),
    count("runtime.gc.cycles_major"),
    count("runtime.gc.cycles_without_frees"),
    time("runtime.gc.vticks_per_cycle", "ticks"),
    time("runtime.gc.host_ms_per_cycle.go", "ms"),
    time("runtime.gc.host_ms_per_cycle.gen", "ms"),
    time("runtime.gc.host_share", "ratio"),
    time("runtime.trace.overhead_ratio", "ratio"),
    time("runtime.sanitize.overhead_ratio", "ratio"),
    // core
    time("core.compile.ms", "ms"),
    time("core.compile.glue_ms", "ms"),
    time("core.execute.ms.gocompile.Go", "ms"),
    time("core.execute.ms.gocompile.GoFree", "ms"),
    time("core.execute.ms.gocompile.Go-GCOff", "ms"),
    time("core.execute.ms.hugo.Go", "ms"),
    time("core.execute.ms.hugo.GoFree", "ms"),
    time("core.execute.ms.hugo.Go-GCOff", "ms"),
    time("core.execute.ms.badger.Go", "ms"),
    time("core.execute.ms.badger.GoFree", "ms"),
    time("core.execute.ms.badger.Go-GCOff", "ms"),
    time("core.execute.ms.json.Go", "ms"),
    time("core.execute.ms.json.GoFree", "ms"),
    time("core.execute.ms.json.Go-GCOff", "ms"),
    time("core.execute.ms.scheck.Go", "ms"),
    time("core.execute.ms.scheck.GoFree", "ms"),
    time("core.execute.ms.scheck.Go-GCOff", "ms"),
    time("core.execute.ms.slayout.Go", "ms"),
    time("core.execute.ms.slayout.GoFree", "ms"),
    time("core.execute.ms.slayout.Go-GCOff", "ms"),
    time("core.run_service.ms.kv.go", "ms"),
    time("core.run_service.ms.kv.gen", "ms"),
    time("core.run_service.ms.jsonsvc.go", "ms"),
    time("core.run_service.ms.jsonsvc.gen", "ms"),
    time("core.run_service.ms.rotate.go", "ms"),
    time("core.run_service.ms.rotate.gen", "ms"),
    time("core.run_service.ms.gcpressure.go", "ms"),
    time("core.run_service.ms.gcpressure.gen", "ms"),
    up("core.service.host_req_per_s", "1/s"),
    up("core.run_matrix.jobs2_speedup", "ratio"),
    time("core.report_json.ms", "ms"),
    time("core.chrome_trace.ms", "ms"),
    count("virtual.ticks"),
    count("virtual.latency_p99_ticks"),
    // bench — the harness itself, every workload
    time("bench.iter_ms_p50", "ms"),
    time("bench.iter_ms_p90", "ms"),
    up("bench.iter_samples", "count"),
    time("bench.trace_overhead_ratio", "ratio"),
    time("bench.span_count", "count"),
    up("bench.available_parallelism", "count"),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// Every string value of `"key": "<value>"` pairs in `json`, in order.
    fn values_of<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
        let needle = format!("\"{key}\": \"");
        json.match_indices(&needle)
            .map(|(at, _)| {
                let rest = &json[at + needle.len()..];
                &rest[..rest.find('"').expect("closing quote")]
            })
            .collect()
    }

    #[test]
    fn benchmark_json_repeats_this_table() {
        let json = include_str!("../../BENCHMARK.json");
        let mut names: Vec<&str> = WORKLOADS.to_vec();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert_eq!(values_of(json, "name"), names);

        let mut units: Vec<&str> = END_TO_END.iter().map(|m| m.unit).collect();
        units.extend(PER_LAYER.iter().map(|m| m.unit));
        assert_eq!(values_of(json, "unit"), units);

        let mut better = vec!["lower"; END_TO_END.len()];
        better.extend(
            PER_LAYER
                .iter()
                .map(|m| if m.higher { "higher" } else { "lower" }),
        );
        assert_eq!(values_of(json, "better"), better);

        for m in &END_TO_END {
            let entry = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"lower\", \"bound\": {}}}",
                m.name, m.unit, m.bound
            );
            assert!(json.contains(&entry), "missing {entry}");
        }
    }

    #[test]
    fn names_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        let all = WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in all {
            assert!(name.len() <= 64 && seen.insert(name), "{name}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }
}
