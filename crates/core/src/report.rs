//! Machine-readable report export (`--report-json PATH`).
//!
//! A hand-rolled JSON writer — the workspace deliberately has no
//! serialization dependency — emitting every [`Report`] field under
//! **stable names** (the `schema` tag is bumped if they ever change), so
//! CI and external tooling can consume run results without scraping the
//! text tables. Violations and the trace are summarized by count, not
//! inlined: the trace has its own exporters (`--trace`, `--profile`).

use std::fmt::Write as _;

use crate::engine::Report;
use crate::trace::esc;
use minigo_runtime::Metrics;

/// The schema tag stamped into every export; bump when field names or
/// meanings change.
///
/// `gofree-report/2` is `gofree-report/1` plus the collector backend:
/// a top-level `"collector"` name and `gcs_minor`/`gcs_major` cycle
/// counts inside `"metrics"`. `gofree-report/3` is v2 plus the
/// optimizer tier: top-level `"ic_hits"`/`"ic_misses"` counters and an
/// `"opt"` object with the per-pass rewrite counters (`null` when the
/// run executed an unoptimized stream). Every v2 field is unchanged.
/// `gofree-report/4` is v3 plus liveness-driven free placement: a
/// top-level `"placement"` object (`{"mode","lastuse_advanced",
/// "partial_frees","suppressed"}`, `null` unless the program was
/// compiled with `--free-placement lastuse`). Every v3 field is
/// unchanged. `gofree-report/5` is v4 plus the service-mode traffic
/// harness: a top-level `"service"` object (`null` for batch runs) with
/// request counts, exact latency/queue quantiles, log₂ latency and
/// minor/major GC-pause histogram buckets, and the heap high-water
/// marks. Every v4 field is unchanged. `gofree-report/6` is v5 less
/// the counters of code that no longer exists: the inline caches'
/// `"ic_hits"`, `"ic_misses"` and `"opt"."ic_sites"`, and the
/// optimizer's `"opt"."pushpops_elided"` and `"opt"."fusions"` (the
/// register-form bytecode has no operand stack and no fused
/// instructions). From v6 on the schema only grows, so `"opt"` keeps
/// `"consts_folded"`, `"branches_folded"` and `"jumps_threaded"`, which
/// always read 0: the optimizer is the tick merge alone.
pub const REPORT_SCHEMA: &str = "gofree-report/6";

fn u64_array(values: &[u64]) -> String {
    let items: Vec<String> = values.iter().map(u64::to_string).collect();
    format!("[{}]", items.join(","))
}

fn metrics_json(m: &Metrics) -> String {
    let mut out = String::from("{");
    let _ = write!(
        out,
        "\"alloced_bytes\":{},\"alloced_objects\":{},\"freed_bytes\":{},\
         \"freed_bytes_by_source\":{},\"freed_objects_by_source\":{},\
         \"tcfree_attempts\":{},\"tcfree_bails\":{},\"gcs\":{},\"gcs_minor\":{},\
         \"gcs_major\":{},\"gc_ticks\":{},\
         \"maxheap\":{},\"stack_allocs\":{},\"heap_allocs\":{},\"heap_tcfreed\":{},\
         \"heap_gced\":{},\"frees_suppressed\":{}",
        m.alloced_bytes,
        m.alloced_objects,
        m.freed_bytes,
        u64_array(&m.freed_bytes_by_source),
        u64_array(&m.freed_objects_by_source),
        m.tcfree_attempts,
        u64_array(&m.tcfree_bails),
        m.gcs,
        m.gcs_minor,
        m.gcs_major,
        m.gc_ticks,
        m.maxheap,
        u64_array(&m.stack_allocs),
        u64_array(&m.heap_allocs),
        u64_array(&m.heap_tcfreed),
        u64_array(&m.heap_gced),
        m.frees_suppressed,
    );
    out.push('}');
    out
}

fn quantiles_json(q: &crate::service::Quantiles) -> String {
    format!(
        "{{\"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{},\"max\":{}}}",
        q.p50, q.p90, q.p99, q.p999, q.max
    )
}

/// Trims trailing zero buckets so the arrays stay short; the schema
/// documents buckets as log₂ lower edges from index 0.
fn hist_json(h: &minigo_runtime::Histogram<{ crate::service::SERVICE_BUCKETS }>) -> String {
    let buckets = h.buckets();
    let last = buckets.iter().rposition(|&n| n > 0).map_or(0, |i| i + 1);
    u64_array(&buckets[..last])
}

fn service_json(s: &crate::service::ServiceStats) -> String {
    format!(
        "{{\"requests\":{},\"checksum\":{},\"total_time\":{},\
         \"latency\":{},\"queue\":{},\
         \"latency_buckets\":{},\"service_time_buckets\":{},\"queue_buckets\":{},\
         \"pause_minor_buckets\":{},\"pause_major_buckets\":{},\
         \"gcs_minor\":{},\"gcs_major\":{},\"pause_max\":{},\"pause_ticks\":{},\
         \"heap_hwm\":{},\"footprint_hwm\":{}}}",
        s.requests,
        s.checksum,
        s.total_time,
        quantiles_json(&s.latency_q),
        quantiles_json(&s.queue_q),
        hist_json(&s.latency),
        hist_json(&s.service_time),
        hist_json(&s.queue),
        hist_json(&s.pause_minor),
        hist_json(&s.pause_major),
        s.pause_minor.count(),
        s.pause_major.count(),
        s.pause_max(),
        s.pause_ticks(),
        s.heap_hwm,
        s.footprint_hwm,
    )
}

/// Renders one run report as a JSON object (batch mode: the `"service"`
/// section is `null`).
pub fn report_json(report: &Report) -> String {
    service_report_json(report, None)
}

/// Renders one run report as a JSON object, with the service-mode
/// traffic stats inlined when the run came from the traffic harness.
pub fn service_report_json(
    report: &Report,
    service: Option<&crate::service::ServiceStats>,
) -> String {
    let mut out = String::from("{");
    let _ = write!(
        out,
        "\"schema\":\"{REPORT_SCHEMA}\",\"collector\":\"{}\",\"output\":\"{}\",\
         \"time\":{},\"steps\":{},\"metrics\":{},",
        report.collector.name(),
        esc(&report.output),
        report.time,
        report.steps,
        metrics_json(&report.metrics),
    );
    out.push_str("\"site_profile\":[");
    for (i, s) in report.site_profile.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"site\":{},\"count\":{},\"bytes\":{}}}",
            s.site.0, s.count, s.bytes
        );
    }
    out.push_str("],");
    let (trace_events, events_dropped) = match &report.trace {
        Some(t) => (t.events.len() as u64, t.events_dropped),
        None => (0, 0),
    };
    let opt = match &report.opt {
        Some(o) => format!(
            "{{\"instrs_before\":{},\"instrs_after\":{},\"consts_folded\":0,\
             \"branches_folded\":0,\"ticks_merged\":{},\"jumps_threaded\":0}}",
            o.instrs_before, o.instrs_after, o.ticks_merged,
        ),
        None => "null".to_string(),
    };
    let placement = match &report.placement {
        Some(p) => format!(
            "{{\"mode\":\"{}\",\"lastuse_advanced\":{},\"partial_frees\":{},\
             \"suppressed\":{}}}",
            p.mode.name(),
            p.lastuse_advanced,
            p.partial_frees,
            p.suppressed,
        ),
        None => "null".to_string(),
    };
    let service = match service {
        Some(s) => service_json(s),
        None => "null".to_string(),
    };
    let _ = write!(
        out,
        "\"violations\":{},\"trace_events\":{trace_events},\"events_dropped\":{events_dropped},\
         \"opt\":{opt},\"placement\":{placement},\"service\":{service}}}",
        report.violations.len(),
    );
    out.push('\n');
    out
}

/// Renders a batch of run reports (e.g. a `--runs N` distribution) as a
/// JSON array, in run order.
pub fn reports_json(reports: &[Report]) -> String {
    let mut out = String::from("[");
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(report_json(r).trim_end());
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_is_balanced_and_stable() {
        let report = Report {
            output: "hi \"there\"\n".to_string(),
            time: 123,
            steps: 45,
            metrics: Metrics {
                alloced_bytes: 1024,
                alloced_objects: 3,
                ..Metrics::default()
            },
            site_profile: vec![crate::SiteProfile {
                site: minigo_syntax::ExprId(7),
                count: 3,
                bytes: 1024,
            }],
            violations: Vec::new(),
            trace: None,
            cycles: Vec::new(),
            collector: minigo_runtime::CollectorKind::Go,
            ic_hits: 9,
            ic_misses: 2,
            opt: Some(minigo_vm::OptStats {
                instrs_before: 100,
                instrs_after: 80,
                ticks_merged: 6,
            }),
            placement: Some(minigo_escape::PlacementStats {
                mode: minigo_escape::FreePlacement::LastUse,
                lastuse_advanced: 5,
                partial_frees: 2,
                suppressed: 1,
            }),
        };
        let json = report_json(&report);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(!json.contains("ic_"), "dead inline-cache keys in:\n{json}");
        for needle in [
            "\"schema\":\"gofree-report/6\"",
            "\"service\":null",
            "\"collector\":\"go\"",
            "\"output\":\"hi \\\"there\\\"\\n\"",
            "\"alloced_bytes\":1024",
            "\"gcs_minor\":0",
            "\"gcs_major\":0",
            "\"site\":7",
            "\"trace_events\":0",
            "\"events_dropped\":0",
            "\"opt\":{\"instrs_before\":100,\"instrs_after\":80",
            "\"ticks_merged\":6,\"jumps_threaded\":0}",
            "\"placement\":{\"mode\":\"lastuse\",\"lastuse_advanced\":5,\"partial_frees\":2,\"suppressed\":1}",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        let arr = reports_json(&[report.clone(), report]);
        assert!(arr.starts_with('[') && arr.trim_end().ends_with(']'));
        assert_eq!(arr.matches("\"schema\"").count(), 2);
    }
}
