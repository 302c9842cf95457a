//! Trace exporters: render a run's [`Trace`] (and the compiler's
//! [`PhaseTime`] measurements) into shareable artifacts.
//!
//! Two formats are produced:
//!
//! * [`chrome_trace_json`] — the Chrome `trace_event` JSON format
//!   (load it at `chrome://tracing` or in Perfetto). Runtime events are
//!   placed on one track using their **virtual** timestamps as
//!   microseconds; compile phases go on a second track using host
//!   wall-clock durations. The two tracks share a file but not a
//!   clock — the runtime track is deterministic, the compile track is
//!   not.
//! * [`timeline_table`] — a compact fixed-width per-allocation-site
//!   table with an ASCII activity sparkline, designed to be stable
//!   across hosts so golden tests can snapshot it byte-for-byte.

use std::collections::HashMap;
use std::fmt::Write as _;

use minigo_runtime::{FreeStep, Replayed, Trace, TraceEvent};

use crate::pipeline::PhaseTime;

/// Escapes a string for embedding in a JSON string literal (shared with
/// the `--report-json` writer).
pub(crate) fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders a trace as Chrome `trace_event` JSON (the "JSON array
/// format" wrapped in a `traceEvents` object).
///
/// Track layout: `tid 0` holds the compile phases as complete (`"X"`)
/// events laid end to end in wall-clock microseconds; `tid 1` holds the
/// runtime event stream — instants for allocs/frees/bails/flushes,
/// complete events for GC cycles, and a `heap` counter track sampling
/// live bytes. Runtime timestamps are virtual ticks written as
/// microseconds, so the runtime track is bit-identical across hosts,
/// engines, and `--jobs` settings.
pub fn chrome_trace_json(trace: &Trace, phases: &[PhaseTime]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    let push = |out: &mut String, first: &mut bool, ev: String| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(&ev);
    };

    // Compile phases: host wall-clock, laid end to end from ts 0.
    let mut ts = 0.0f64;
    for p in phases {
        let dur = p.nanos as f64 / 1000.0;
        push(
            &mut out,
            &mut first,
            format!(
                "{{\"name\":\"{}\",\"cat\":\"compile\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\
                 \"ts\":{ts:.3},\"dur\":{dur:.3}}}",
                esc(p.phase)
            ),
        );
        ts += dur;
    }

    // Runtime events: virtual ticks as microseconds. A free names the
    // site of the allocation it reclaimed, joined by the replay.
    for Replayed { event, origin, .. } in trace.replay() {
        let rendered = match *event {
            TraceEvent::Alloc {
                at,
                addr,
                site,
                stack,
                cat,
                bytes,
                large,
                heap_live,
                footprint,
            } => format!(
                "{{\"name\":\"alloc\",\"cat\":\"runtime\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\
                 \"tid\":1,\"ts\":{at},\"args\":{{\"addr\":\"{}\",\"site\":{},\
                 \"stack\":\"{}\",\"kind\":\"{cat:?}\",\"bytes\":{bytes},\"large\":{large}}}}},\n\
                 {{\"name\":\"heap\",\"ph\":\"C\",\"pid\":1,\"tid\":1,\"ts\":{at},\
                 \"args\":{{\"live\":{heap_live},\"footprint\":{footprint}}}}}",
                fmt_addr(addr),
                fmt_site(site),
                esc(&trace.stacks.folded(stack)),
            ),
            TraceEvent::StackAlloc { at, cat, stack } => format!(
                "{{\"name\":\"stack-alloc\",\"cat\":\"runtime\",\"ph\":\"i\",\"s\":\"t\",\
                 \"pid\":1,\"tid\":1,\"ts\":{at},\"args\":{{\"kind\":\"{cat:?}\",\
                 \"stack\":\"{}\"}}}}",
                esc(&trace.stacks.folded(stack)),
            ),
            TraceEvent::Free {
                at,
                addr,
                stack,
                cat,
                source,
                bytes,
                step,
                heap_live,
            } => format!(
                "{{\"name\":\"free\",\"cat\":\"runtime\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\
                 \"tid\":1,\"ts\":{at},\"args\":{{\"addr\":\"{}\",\"site\":{},\
                 \"stack\":\"{}\",\"kind\":\"{cat:?}\",\"source\":\"{source:?}\",\
                 \"bytes\":{bytes},\"step\":\"{}\"}}}},\n\
                 {{\"name\":\"heap\",\"ph\":\"C\",\"pid\":1,\"tid\":1,\"ts\":{at},\
                 \"args\":{{\"live\":{heap_live}}}}}",
                fmt_addr(addr),
                fmt_site(origin.and_then(|o| o.site)),
                esc(&trace.stacks.folded(stack)),
                fmt_step(step),
            ),
            TraceEvent::FreeBail { at, reason, stack } => format!(
                "{{\"name\":\"free-bail\",\"cat\":\"runtime\",\"ph\":\"i\",\"s\":\"t\",\
                 \"pid\":1,\"tid\":1,\"ts\":{at},\"args\":{{\"reason\":\"{reason:?}\",\
                 \"stack\":\"{}\"}}}}",
                esc(&trace.stacks.folded(stack)),
            ),
            TraceEvent::FreePoison { at, addr, stack } => format!(
                "{{\"name\":\"free-poison\",\"cat\":\"runtime\",\"ph\":\"i\",\"s\":\"t\",\
                 \"pid\":1,\"tid\":1,\"ts\":{at},\"args\":{{\"addr\":\"{}\",\
                 \"stack\":\"{}\"}}}}",
                fmt_addr(addr),
                esc(&trace.stacks.folded(stack)),
            ),
            TraceEvent::Sweep {
                at,
                addr,
                cat,
                bytes,
            } => format!(
                "{{\"name\":\"sweep\",\"cat\":\"runtime\",\"ph\":\"i\",\"s\":\"t\",\
                 \"pid\":1,\"tid\":1,\"ts\":{at},\"args\":{{\"addr\":\"{}\",\
                 \"kind\":\"{cat:?}\",\"bytes\":{bytes}}}}}",
                fmt_addr(addr),
            ),
            TraceEvent::McacheFlush { at, thread } => format!(
                "{{\"name\":\"mcache-flush\",\"cat\":\"runtime\",\"ph\":\"i\",\"s\":\"t\",\
                 \"pid\":1,\"tid\":1,\"ts\":{at},\"args\":{{\"thread\":{thread}}}}}"
            ),
            TraceEvent::GcStart {
                at,
                heap_live,
                heap_goal,
                window,
                kind,
            } => format!(
                "{{\"name\":\"gc-trigger\",\"cat\":\"runtime\",\"ph\":\"i\",\"s\":\"t\",\
                 \"pid\":1,\"tid\":1,\"ts\":{at},\"args\":{{\"live\":{heap_live},\
                 \"goal\":{heap_goal},\"window\":{window},\"kind\":\"{kind}\"}}}}"
            ),
            TraceEvent::GcEnd {
                at,
                heap_live,
                next_goal,
                swept,
                swept_bytes,
                dangling_retired,
                ticks,
                kind,
            } => format!(
                "{{\"name\":\"gc\",\"cat\":\"runtime\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{},\"dur\":{ticks},\"args\":{{\"swept\":{:?},\
                 \"swept_bytes\":{swept_bytes},\"dangling_retired\":{dangling_retired},\
                 \"next_goal\":{next_goal},\"kind\":\"{kind}\",\"collector\":\"{}\"}}}},\n\
                 {{\"name\":\"heap\",\"ph\":\"C\",\"pid\":1,\"tid\":1,\"ts\":{at},\
                 \"args\":{{\"live\":{heap_live}}}}}",
                at.saturating_sub(ticks),
                swept,
                trace.collector.name(),
            ),
            TraceEvent::Finalize {
                at,
                leftover,
                footprint,
            } => format!(
                "{{\"name\":\"finalize\",\"cat\":\"runtime\",\"ph\":\"i\",\"s\":\"t\",\
                 \"pid\":1,\"tid\":1,\"ts\":{at},\"args\":{{\"leftover\":{leftover:?},\
                 \"footprint\":{footprint}}}}}"
            ),
            TraceEvent::Request {
                at,
                id,
                arrival,
                start,
            } => format!(
                "{{\"name\":\"request {id}\",\"cat\":\"service\",\"ph\":\"X\",\"pid\":1,\
                 \"tid\":2,\"ts\":{start},\"dur\":{},\"args\":{{\"id\":{id},\
                 \"arrival\":{arrival},\"queue\":{}}}}}",
                at.saturating_sub(start),
                start.saturating_sub(arrival),
            ),
        };
        push(&mut out, &mut first, rendered);
    }
    out.push_str("\n]}\n");
    out
}

fn fmt_addr(addr: minigo_runtime::ObjAddr) -> String {
    format!("s{}.{}", addr.span.0, addr.slot)
}

fn fmt_site(site: Option<u32>) -> String {
    match site {
        Some(s) => s.to_string(),
        None => "null".to_string(),
    }
}

fn fmt_step(step: FreeStep) -> String {
    match step {
        FreeStep::SlotClear => "slot-clear".to_string(),
        FreeStep::Revert { cascade } => format!("revert+{cascade}"),
        FreeStep::LargeStep1 => "large-step1".to_string(),
    }
}

/// Sparkline width (time buckets) in the timeline table.
const TIMELINE_BUCKETS: usize = 24;

/// Density ramp for the sparkline, lightest to darkest. ASCII only, so
/// golden snapshots render identically everywhere.
const RAMP: &[u8] = b" .:-=+*#%@";

/// Renders the compact per-site timeline table.
///
/// One row per allocation site that allocated on the heap (plus a
/// `<runtime>` row for unattributed internal allocations, when any):
/// allocation count, accounted bytes, explicit frees attributed back to
/// the site, the resulting free percentage, and an ASCII sparkline of
/// allocation activity over virtual time, bucketed into
/// [`TIMELINE_BUCKETS`] columns. Rows are sorted by bytes descending,
/// then site id, so the table is deterministic. `labels` maps site ids
/// (raw `ExprId` numbers) to human-readable descriptions, e.g. from
/// `minigo`'s span table; unlabeled sites print as `site <id>`.
pub fn timeline_table(trace: &Trace, labels: &HashMap<u32, String>) -> String {
    #[derive(Default)]
    struct Row {
        allocs: u64,
        bytes: u64,
        freed: u64,
        buckets: [u64; TIMELINE_BUCKETS],
    }
    let (t0, t1) = match (trace.events.first(), trace.events.last()) {
        (Some(a), Some(b)) => (a.at(), b.at()),
        _ => return "(no events)\n".to_string(),
    };
    let span = (t1 - t0).max(1);
    let bucket_of = |at: u64| {
        (((at - t0) as u128 * TIMELINE_BUCKETS as u128 / (span as u128 + 1)) as usize)
            .min(TIMELINE_BUCKETS - 1)
    };

    let mut rows: HashMap<Option<u32>, Row> = HashMap::new();
    for Replayed { event, origin, .. } in trace.replay() {
        match *event {
            TraceEvent::Alloc {
                at, site, bytes, ..
            } => {
                let row = rows.entry(site).or_default();
                row.allocs += 1;
                row.bytes += bytes;
                row.buckets[bucket_of(at)] += 1;
            }
            TraceEvent::Free { .. } => {
                rows.entry(origin.and_then(|o| o.site)).or_default().freed += 1;
            }
            _ => {}
        }
    }

    let mut keys: Vec<Option<u32>> = rows.keys().copied().collect();
    keys.sort_by(|a, b| {
        let (ra, rb) = (&rows[a], &rows[b]);
        rb.bytes
            .cmp(&ra.bytes)
            .then(a.unwrap_or(u32::MAX).cmp(&b.unwrap_or(u32::MAX)))
    });

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>7} {:>12} {:>7} {:>6}  {:<w$}  site",
        "allocs",
        "bytes",
        "freed",
        "free%",
        "timeline",
        w = TIMELINE_BUCKETS + 2
    );
    for key in keys {
        let row = &rows[&key];
        let rowmax = row.buckets.iter().copied().max().unwrap_or(0).max(1);
        let mut spark = String::with_capacity(TIMELINE_BUCKETS + 2);
        spark.push('|');
        for &n in &row.buckets {
            let idx = if n == 0 {
                0
            } else {
                ((n as usize * (RAMP.len() - 1)).div_ceil(rowmax as usize)).min(RAMP.len() - 1)
            };
            spark.push(RAMP[idx] as char);
        }
        spark.push('|');
        let pct = (row.freed * 100).checked_div(row.allocs).unwrap_or(0);
        let label = match key {
            Some(id) => labels
                .get(&id)
                .cloned()
                .unwrap_or_else(|| format!("site {id}")),
            None => "<runtime>".to_string(),
        };
        let _ = writeln!(
            out,
            "{:>7} {:>12} {:>7} {:>5}%  {}  {}",
            row.allocs, row.bytes, row.freed, pct, spark, label
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use minigo_runtime::{Category, FreeSource, ObjAddr, SpanId};

    fn sample() -> Trace {
        let mut stacks = minigo_runtime::StackTable::new();
        let main = stacks.push(minigo_runtime::ROOT_STACK, "main");
        Trace {
            events: vec![
                TraceEvent::Alloc {
                    at: 0,
                    addr: ObjAddr {
                        span: SpanId(0),
                        slot: 0,
                    },
                    site: Some(3),
                    stack: main,
                    cat: Category::Slice,
                    bytes: 112,
                    large: false,
                    heap_live: 112,
                    footprint: 8192,
                },
                TraceEvent::Free {
                    at: 50,
                    addr: ObjAddr {
                        span: SpanId(0),
                        slot: 0,
                    },
                    stack: main,
                    cat: Category::Slice,
                    source: FreeSource::SliceLifetime,
                    bytes: 112,
                    step: FreeStep::Revert { cascade: 0 },
                    heap_live: 0,
                },
                TraceEvent::Sweep {
                    at: 100,
                    addr: ObjAddr {
                        span: SpanId(1),
                        slot: 0,
                    },
                    cat: Category::Other,
                    bytes: 64,
                },
                TraceEvent::GcEnd {
                    at: 100,
                    heap_live: 0,
                    next_goal: 512 * 1024,
                    swept: [0, 0, 1],
                    swept_bytes: 64,
                    dangling_retired: 0,
                    ticks: 40,
                    kind: minigo_runtime::CycleKind::Major,
                },
            ],
            stacks,
            ..Trace::default()
        }
    }

    #[test]
    fn chrome_json_is_balanced_and_tagged() {
        let phases = [
            PhaseTime {
                phase: "parse",
                nanos: 1500,
            },
            PhaseTime {
                phase: "lower",
                nanos: 500,
            },
        ];
        let json = chrome_trace_json(&sample(), &phases);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces:\n{json}"
        );
        for needle in [
            "\"name\":\"parse\"",
            "\"name\":\"alloc\"",
            "\"name\":\"free\"",
            "\"name\":\"sweep\"",
            "\"name\":\"gc\"",
            "\"name\":\"heap\"",
            "\"step\":\"revert+0\"",
            "\"stack\":\"main\"",
            "\"ts\":60", // gc X event starts at end - ticks
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
    }

    #[test]
    fn timeline_table_is_deterministic() {
        let mut labels = HashMap::new();
        labels.insert(3u32, "make (in main)".to_string());
        let a = timeline_table(&sample(), &labels);
        let b = timeline_table(&sample(), &labels);
        assert_eq!(a, b);
        assert!(a.contains("make (in main)"), "{a}");
        assert!(a.contains("100%"), "{a}");
        let spark_line = a.lines().nth(1).unwrap();
        assert!(spark_line.contains('|'), "{spark_line}");
        assert_eq!(a.lines().count(), 2, "{a}");
    }

    #[test]
    fn each_free_names_its_own_allocations_site() {
        // One slot, two lives: allocated at site 3 and freed, then
        // reallocated by an unattributed (runtime-internal) allocation
        // and freed again. The second free must not inherit site 3.
        let slot = ObjAddr {
            span: SpanId(0),
            slot: 0,
        };
        let alloc = |at, site| TraceEvent::Alloc {
            at,
            addr: slot,
            site,
            stack: minigo_runtime::ROOT_STACK,
            cat: Category::Slice,
            bytes: 112,
            large: false,
            heap_live: 112,
            footprint: 8192,
        };
        let free = |at| TraceEvent::Free {
            at,
            addr: slot,
            stack: minigo_runtime::ROOT_STACK,
            cat: Category::Slice,
            source: FreeSource::SliceLifetime,
            bytes: 112,
            step: FreeStep::Revert { cascade: 0 },
            heap_live: 0,
        };
        let trace = Trace {
            events: vec![alloc(0, Some(3)), free(10), alloc(20, None), free(30)],
            ..Trace::default()
        };
        let json = chrome_trace_json(&trace, &[]);
        let sites: Vec<&str> = json
            .lines()
            .filter(|l| l.contains("\"name\":\"free\""))
            .map(|l| {
                let at = l.find("\"site\":").expect("free names a site") + 7;
                let len = l[at..].find(',').expect("site is followed by a field");
                &l[at..at + len]
            })
            .collect();
        assert_eq!(sites, ["3", "null"], "{json}");

        // The timeline credits each free to its own allocation's row.
        let table = timeline_table(&trace, &HashMap::new());
        let row = |label: &str| {
            let line = table.lines().find(|l| l.ends_with(label)).unwrap();
            line.split_whitespace().nth(2).unwrap().to_string()
        };
        assert_eq!(row("site 3"), "1", "{table}");
        assert_eq!(row("<runtime>"), "1", "{table}");
    }

    #[test]
    fn empty_trace_renders_placeholder() {
        let t = Trace::default();
        assert_eq!(timeline_table(&t, &HashMap::new()), "(no events)\n");
        let json = chrome_trace_json(&t, &[]);
        assert!(json.contains("traceEvents"));
    }
}
