//! Profile exporters: render a run's stack-attributed [`Profile`] (built
//! by [`minigo_runtime::profile`]) into shareable artifacts.
//!
//! Four renderers:
//!
//! * [`folded_stacks`] — Brendan Gregg folded-stack text, one
//!   `frame;frame;frame value` line per stack, ready for
//!   `flamegraph.pl` (a classic allocation flamegraph).
//! * [`profile_report`] — the human-readable report behind
//!   `--profile PATH`: totals, top stacks by allocation and by garbage
//!   produced, bail-out attribution, per-site lifetime drag, and the
//!   heap snapshots.
//! * [`heap_snapshot_table`] — the per-size-class occupancy /
//!   fragmentation table for every GC-safepoint snapshot.
//! * [`gctrace_lines`] — a `GODEBUG=gctrace=1`-style pacing log, one
//!   line per GC cycle, derived entirely from `GcStart`/`GcEnd` events.
//!
//! Everything here is integer arithmetic over virtual ticks and byte
//! counters, so output is bit-identical across hosts, engines, and
//! `--jobs` settings — the property the golden snapshots pin down.

use std::collections::HashMap;
use std::fmt::Write as _;

use minigo_runtime::{Profile, SiteDrag, StackStat, StackTable, Trace, TraceEvent};

/// Which per-stack figure a folded-stack export weights lines by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FoldedMetric {
    /// Bytes allocated by the stack (the classic alloc flamegraph).
    AllocBytes,
    /// Objects allocated by the stack.
    AllocCount,
    /// Bytes `tcfree` reclaimed from the stack's objects.
    FreedBytes,
    /// Bytes the stack left for the GC (swept + leftover).
    GarbageBytes,
}

impl FoldedMetric {
    fn value(self, s: &StackStat) -> u64 {
        match self {
            FoldedMetric::AllocBytes => s.alloc_bytes,
            FoldedMetric::AllocCount => s.allocs,
            FoldedMetric::FreedBytes => s.free_bytes,
            FoldedMetric::GarbageBytes => s.garbage_bytes(),
        }
    }
}

/// Renders the profile as Brendan Gregg folded-stack lines
/// (`outer;inner value`), weighted by `metric`, zero-valued stacks
/// omitted. Feed the result straight to `flamegraph.pl`.
pub fn folded_stacks(profile: &Profile, stacks: &StackTable, metric: FoldedMetric) -> String {
    let mut out = String::new();
    for (id, stat) in &profile.stacks {
        let value = metric.value(stat);
        if value > 0 {
            let _ = writeln!(out, "{} {}", stacks.folded(*id), value);
        }
    }
    out
}

/// Integer percentage with a `checked_div` guard (0 when `den` is 0).
fn pct(num: u64, den: u64) -> u64 {
    (num * 100).checked_div(den).unwrap_or(0)
}

/// One stack-table section: `(title, column header)` + top-`limit` rows
/// by `key`.
fn stack_section<F: Fn(&StackStat) -> u64>(
    out: &mut String,
    profile: &Profile,
    stacks: &StackTable,
    (title, header): (&str, &str),
    limit: usize,
    key: F,
    row: impl Fn(&StackStat) -> String,
) {
    let ranked = profile.ranked_by(&key);
    let shown: Vec<_> = ranked
        .iter()
        .filter(|(_, s)| key(s) > 0)
        .take(limit)
        .collect();
    if shown.is_empty() {
        return;
    }
    let _ = writeln!(out, "-- {title} --");
    let _ = writeln!(out, "{header}");
    for (id, stat) in shown {
        let _ = writeln!(out, "{}  {}", row(stat), stacks.folded(*id));
    }
    out.push('\n');
}

/// Mean drag in ticks rendered as a number or `-` when no samples.
fn mean(ticks: u64, count: u64) -> String {
    match count {
        0 => "-".to_string(),
        n => (ticks / n).to_string(),
    }
}

/// Renders the per-site lifetime-drag table: for each allocation site,
/// how long its objects lived from allocation to `tcfree` versus from
/// allocation to GC sweep (virtual ticks, mean + log₂ histogram — the
/// drag gap GoFree closes is exactly `sweep` mean minus `tcfree` mean).
pub fn drag_table(sites: &[SiteDrag], labels: &HashMap<u32, String>) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>8} {:>10} {:<16} {:>8} {:>10} {:<16}  site",
        "tcfreed", "mean-drag", "log2-hist", "swept", "mean-drag", "log2-hist"
    );
    for d in sites {
        let label = match d.site {
            Some(id) => labels
                .get(&id)
                .cloned()
                .unwrap_or_else(|| format!("site {id}")),
            None => "<runtime>".to_string(),
        };
        let _ = writeln!(
            out,
            "{:>8} {:>10} {:<16} {:>8} {:>10} {:<16}  {}",
            d.tcfree.count(),
            mean(d.tcfree.sum(), d.tcfree.count()),
            d.tcfree.spark(),
            d.sweep.count(),
            mean(d.sweep.sum(), d.sweep.count()),
            d.sweep.spark(),
            label
        );
    }
    out
}

/// Renders every heap snapshot in the trace as a per-size-class
/// occupancy table: slots live vs carved, live bytes vs backing-page
/// bytes (the fragmentation ratio), the large-object spans, and the
/// fig. 9 dangling-span count awaiting step 2.
pub fn heap_snapshot_table(trace: &Trace) -> String {
    let mut out = String::new();
    if trace.snapshots.is_empty() {
        out.push_str("(no snapshots)\n");
        return out;
    }
    for snap in &trace.snapshots {
        let when = match snap.cycle {
            Some(c) => format!("gc {c}"),
            None => "end of run".to_string(),
        };
        let _ = writeln!(
            out,
            "snapshot [{when}] at {}t: live {} B / footprint {} B ({}% occupied), {} dangling span(s)",
            snap.at,
            snap.heap_live,
            snap.footprint,
            pct(snap.heap_live, snap.footprint.max(1)),
            snap.dangling_spans
        );
        if !snap.classes.is_empty() || snap.large_spans > 0 {
            let _ = writeln!(
                out,
                "  {:>5} {:>9} {:>6} {:>7} {:>7} {:>11} {:>11} {:>5}",
                "class", "slot B", "spans", "slots", "live", "live B", "span B", "occ%"
            );
        }
        for c in &snap.classes {
            let _ = writeln!(
                out,
                "  {:>5} {:>9} {:>6} {:>7} {:>7} {:>11} {:>11} {:>4}%",
                c.class,
                c.slot_size,
                c.spans,
                c.slots,
                c.live_slots,
                c.live_bytes,
                c.span_bytes,
                pct(c.live_bytes, c.span_bytes)
            );
        }
        if snap.large_spans > 0 {
            let _ = writeln!(
                out,
                "  {:>5} {:>9} {:>6} {:>7} {:>7} {:>11} {:>11} {:>4}%",
                "large",
                "-",
                snap.large_spans,
                "-",
                "-",
                snap.large_bytes,
                snap.large_span_bytes,
                pct(snap.large_bytes, snap.large_span_bytes)
            );
        }
    }
    out
}

/// Renders a `GODEBUG=gctrace=1`-style pacing log: one line per GC
/// cycle, pairing each `GcStart` (trigger live bytes, crossed goal,
/// mark-window length) with its `GcEnd` (marked bytes, next goal, sweep
/// counts, fig. 9 dangling retirements, cycle cost). Each line is tagged
/// with the collector backend and the cycle kind (`major`, or `minor`
/// under the generational backend). The percentage is cumulative GC
/// ticks over elapsed virtual time, Go's "time in GC" figure.
pub fn gctrace_lines(trace: &Trace) -> Vec<String> {
    let mut lines = Vec::new();
    let mut cycle = 0u64;
    let mut gc_ticks_total = 0u64;
    let mut pending: Option<(u64, u64, u64)> = None;
    for ev in &trace.events {
        match *ev {
            TraceEvent::GcStart {
                heap_live,
                heap_goal,
                window,
                ..
            } => pending = Some((heap_live, heap_goal, window)),
            TraceEvent::GcEnd {
                at,
                heap_live,
                next_goal,
                swept,
                swept_bytes,
                dangling_retired,
                ticks,
                kind,
            } => {
                cycle += 1;
                gc_ticks_total += ticks;
                let (trigger, goal, window) = pending.take().unwrap_or((0, 0, 0));
                lines.push(format!(
                    "gc {cycle} [{}/{kind}] @{at}t {}%: {trigger}->{heap_live} B \
                     (goal {goal} B, window {window}), \
                     next {next_goal} B, swept {} objs / {swept_bytes} B, \
                     {dangling_retired} dangling retired, {ticks} ticks",
                    trace.collector.name(),
                    pct(gc_ticks_total, at.max(1)),
                    swept.iter().sum::<u64>(),
                ));
            }
            _ => {}
        }
    }
    lines
}

/// Renders the full human-readable profile report behind
/// `--profile PATH`: totals reconciled against [`Metrics`]-style sums,
/// top stacks by allocation and by garbage produced, bail attribution,
/// the per-site drag table, and every heap snapshot.
pub fn profile_report(profile: &Profile, trace: &Trace, labels: &HashMap<u32, String>) -> String {
    let stacks = &trace.stacks;
    let t = profile.totals();
    let mut out = String::new();
    let _ = writeln!(out, "== GoFree allocation profile ==");
    let _ = writeln!(
        out,
        "events: {} ({} dropped)   stacks: {}   gc cycles: {}\n",
        trace.events.len(),
        trace.events_dropped,
        stacks.len(),
        trace.fold().gcs
    );
    let _ = writeln!(out, "-- totals --");
    let _ = writeln!(
        out,
        "heap allocs:  {} objs / {} B   stack allocs: {}",
        t.allocs, t.alloc_bytes, t.stack_allocs
    );
    let _ = writeln!(
        out,
        "tcfreed:      {} objs / {} B ({}% of allocated bytes)",
        t.frees,
        t.free_bytes,
        pct(t.free_bytes, t.alloc_bytes)
    );
    let _ = writeln!(
        out,
        "gc-swept:     {} objs / {} B   leftover: {} objs / {} B",
        t.swept, t.swept_bytes, t.leftover, t.leftover_bytes
    );
    let _ = writeln!(
        out,
        "tcfree ops:   {}   bails: {}   poisons: {}\n",
        t.free_ops, t.bails, t.poisons
    );

    stack_section(
        &mut out,
        profile,
        stacks,
        (
            "top stacks by allocated bytes",
            &format!(
                "{:>8} {:>12} {:>12} {:>12}  stack",
                "allocs", "bytes", "tcfreed B", "garbage B"
            ),
        ),
        10,
        |s| s.alloc_bytes,
        |s| {
            format!(
                "{:>8} {:>12} {:>12} {:>12}",
                s.allocs,
                s.alloc_bytes,
                s.free_bytes,
                s.garbage_bytes()
            )
        },
    );
    stack_section(
        &mut out,
        profile,
        stacks,
        (
            "top garbage-producing stacks (gc-swept + leftover bytes)",
            &format!(
                "{:>12} {:>12} {:>12} {:>6}  stack",
                "garbage B", "swept B", "leftover B", "freed%"
            ),
        ),
        10,
        StackStat::garbage_bytes,
        |s| {
            format!(
                "{:>12} {:>12} {:>12} {:>5}%",
                s.garbage_bytes(),
                s.swept_bytes,
                s.leftover_bytes,
                pct(s.free_bytes, s.alloc_bytes)
            )
        },
    );
    stack_section(
        &mut out,
        profile,
        stacks,
        (
            "tcfree bail-outs by attempting stack",
            &format!("{:>8}  stack", "bails"),
        ),
        10,
        |s| s.bails,
        |s| format!("{:>8}", s.bails),
    );

    if !profile.sites.is_empty() {
        let _ = writeln!(
            out,
            "-- lifetime drag by allocation site (virtual ticks) --"
        );
        out.push_str(&drag_table(&profile.sites, labels));
        out.push('\n');
    }

    let _ = writeln!(out, "-- heap snapshots --");
    out.push_str(&heap_snapshot_table(trace));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use minigo_runtime::{Category, FreeSource, FreeStep, ObjAddr, SpanId, StackTable, ROOT_STACK};

    fn addr(n: u32) -> ObjAddr {
        ObjAddr {
            span: SpanId(n),
            slot: 0,
        }
    }

    fn sample() -> Trace {
        let mut stacks = StackTable::new();
        let main = stacks.push(ROOT_STACK, "main");
        let leaf = stacks.push(main, "grow");
        Trace {
            events: vec![
                TraceEvent::Alloc {
                    at: 0,
                    addr: addr(0),
                    site: Some(3),
                    stack: leaf,
                    cat: Category::Slice,
                    bytes: 112,
                    large: false,
                    heap_live: 112,
                    footprint: 8192,
                },
                TraceEvent::Alloc {
                    at: 5,
                    addr: addr(1),
                    site: Some(4),
                    stack: main,
                    cat: Category::Map,
                    bytes: 64,
                    large: false,
                    heap_live: 176,
                    footprint: 8192,
                },
                TraceEvent::Free {
                    at: 50,
                    addr: addr(0),
                    stack: main,
                    cat: Category::Slice,
                    source: FreeSource::SliceLifetime,
                    bytes: 112,
                    step: FreeStep::Revert { cascade: 0 },
                    heap_live: 64,
                },
                TraceEvent::GcStart {
                    at: 90,
                    heap_live: 64,
                    heap_goal: 64,
                    window: 16,
                    kind: minigo_runtime::CycleKind::Major,
                },
                TraceEvent::Sweep {
                    at: 100,
                    addr: addr(1),
                    cat: Category::Map,
                    bytes: 64,
                },
                TraceEvent::GcEnd {
                    at: 100,
                    heap_live: 0,
                    next_goal: 1024,
                    swept: [0, 1, 0],
                    swept_bytes: 64,
                    dangling_retired: 0,
                    ticks: 40,
                    kind: minigo_runtime::CycleKind::Major,
                },
                TraceEvent::Finalize {
                    at: 110,
                    leftover: [0, 0, 0],
                    footprint: 8192,
                },
            ],
            stacks,
            ..Trace::default()
        }
    }

    #[test]
    fn folded_lines_weight_by_metric_and_skip_zeroes() {
        let trace = sample();
        let p = Profile::build(&trace);
        let folded = folded_stacks(&p, &trace.stacks, FoldedMetric::AllocBytes);
        assert!(folded.contains("main;grow 112"), "{folded}");
        assert!(folded.contains("main 64"), "{folded}");
        let garbage = folded_stacks(&p, &trace.stacks, FoldedMetric::GarbageBytes);
        assert!(garbage.contains("main 64"), "{garbage}");
        assert!(
            !garbage.contains("main;grow"),
            "grow's object was tcfreed, not garbage: {garbage}"
        );
    }

    #[test]
    fn report_is_deterministic_and_reconciled() {
        let trace = sample();
        let p = Profile::build(&trace);
        let labels = HashMap::from([(3u32, "append growth (in grow)".to_string())]);
        let a = profile_report(&p, &trace, &labels);
        let b = profile_report(&p, &trace, &labels);
        assert_eq!(a, b);
        for needle in [
            "top stacks by allocated bytes",
            "top garbage-producing stacks",
            "main;grow",
            "append growth (in grow)",
            "lifetime drag",
            "heap snapshots",
        ] {
            assert!(a.contains(needle), "missing {needle} in:\n{a}");
        }
    }

    #[test]
    fn gctrace_pairs_start_with_end() {
        let lines = gctrace_lines(&sample());
        assert_eq!(lines.len(), 1);
        let l = &lines[0];
        for needle in [
            "gc 1 [go/major] @100t",
            "64->0 B",
            "goal 64 B",
            "window 16",
            "next 1024 B",
            "swept 1 objs / 64 B",
            "0 dangling retired",
            "40 ticks",
        ] {
            assert!(l.contains(needle), "missing {needle} in: {l}");
        }
    }

    #[test]
    fn snapshot_table_handles_empty() {
        assert_eq!(heap_snapshot_table(&Trace::default()), "(no snapshots)\n");
    }
}
