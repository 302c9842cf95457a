//! Directed edge-case tests for the traced GC pacing behaviour: the
//! event stream must witness exactly what the pacer did (and didn't do)
//! in the corners — GC disabled, GOGC=10 on tiny heaps, free-heavy
//! programs that never cross the trigger, and tcfree racing the
//! concurrent-mark window.

use std::collections::HashSet;

use minigo_runtime::{
    BailReason, Category, FreeOutcome, FreeSource, Runtime, RuntimeConfig, TraceEvent,
};

/// Deterministic traced config: no jitter, no migrations.
fn traced(cfg: RuntimeConfig) -> RuntimeConfig {
    RuntimeConfig {
        migrate_prob: 0.0,
        jitter: 0.0,
        trace: true,
        ..cfg
    }
}

fn gc_starts(events: &[TraceEvent]) -> Vec<(u64, u64, u64)> {
    events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::GcStart {
                heap_live,
                heap_goal,
                window,
                ..
            } => Some((*heap_live, *heap_goal, *window)),
            _ => None,
        })
        .collect()
}

#[test]
fn gc_off_records_no_cycle_events() {
    let mut rt = Runtime::new(traced(RuntimeConfig {
        gc_enabled: false,
        min_heap: 4096,
        ..RuntimeConfig::default()
    }));
    for _ in 0..2000 {
        rt.alloc(1024, Category::Slice);
        rt.tick(1);
    }
    assert!(!rt.gc_pending(), "pacer must stay idle with GC off");
    assert!(!rt.gc_running());
    rt.finalize();
    let m = rt.metrics().clone();
    let trace = rt.take_trace().expect("traced run");
    assert_eq!(m.gcs, 0);
    assert_eq!(trace.gc_count(), 0);
    assert!(
        !trace
            .events
            .iter()
            .any(|e| matches!(e, TraceEvent::GcStart { .. } | TraceEvent::GcEnd { .. })),
        "GC-off run must not record cycle events"
    );
    trace.reconcile(&m).expect("stream folds back to metrics");
}

#[test]
fn gogc_10_tiny_heap_paces_every_cycle_consistently() {
    // An aggressive pacer on a tiny heap: GOGC=10 re-arms the goal at
    // 1.1x the marked heap, floored at min_heap. Every GcStart must
    // witness live >= goal at the trigger, and every GcEnd's next goal
    // must be derivable from its own marked-heap field.
    let cfg = traced(RuntimeConfig {
        gogc: 10,
        min_heap: 8 * 1024,
        ..RuntimeConfig::default()
    });
    let (gogc, min_heap) = (cfg.gogc, cfg.min_heap);
    let mut rt = Runtime::new(cfg);
    let mut addrs = Vec::new();
    for i in 0..3000u64 {
        addrs.push(rt.alloc(256, Category::Other));
        rt.tick(1);
        if rt.gc_pending() {
            // Keep every fourth object alive across the sweep.
            for &a in addrs.iter().skip(i as usize % 4).step_by(4) {
                rt.mark(a);
            }
            let swept = rt.collect();
            let dead: HashSet<_> = swept.freed.iter().map(|f| f.addr).collect();
            addrs.retain(|a| !dead.contains(a));
        }
    }
    rt.finalize();
    let m = rt.metrics().clone();
    let trace = rt.take_trace().expect("traced run");
    assert!(m.gcs >= 3, "GOGC=10 on a tiny heap must collect repeatedly");
    assert_eq!(trace.gc_count(), m.gcs);

    let starts = gc_starts(&trace.events);
    assert_eq!(starts.len() as u64, m.gcs, "every cycle has its start");
    for (live, goal, window) in &starts {
        assert!(live >= goal, "trigger fired early: live={live} goal={goal}");
        assert!(*goal >= min_heap, "goal may never drop below min_heap");
        assert!(
            (16..=96).contains(window),
            "mark window must stay clamped, got {window}"
        );
    }
    for e in &trace.events {
        if let TraceEvent::GcEnd {
            heap_live,
            next_goal,
            ..
        } = e
        {
            let expect = (heap_live + heap_live * gogc / 100).max(min_heap);
            assert_eq!(*next_goal, expect, "GcEnd goal must follow the GOGC rule");
        }
    }
    trace.reconcile(&m).expect("stream folds back to metrics");
}

#[test]
fn free_heavy_run_never_reaches_the_trigger() {
    // Alloc-then-free keeps live bytes a fraction of min_heap: the pacer
    // must never fire even across many times min_heap in cumulative
    // allocation, and the stream must show every byte reclaimed by
    // tcfree rather than GC.
    let mut rt = Runtime::new(traced(RuntimeConfig::default()));
    for _ in 0..20_000 {
        let a = rt.alloc(4096, Category::Slice);
        rt.tick(1);
        assert!(matches!(
            rt.tcfree(a, FreeSource::SliceLifetime),
            FreeOutcome::Freed { .. }
        ));
    }
    rt.finalize();
    let m = rt.metrics().clone();
    assert!(
        m.alloced_bytes >= 10 * rt.config().min_heap,
        "cumulative allocation must dwarf the trigger for this to mean anything"
    );
    let trace = rt.take_trace().expect("traced run");
    assert_eq!(m.gcs, 0, "tcfree kept the heap below the first trigger");
    assert_eq!(trace.gc_count(), 0);
    assert!(gc_starts(&trace.events).is_empty());
    let frees = trace
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Free { .. }))
        .count();
    assert_eq!(frees, 20_000, "every tcfree shows up in the stream");
    trace.reconcile(&m).expect("stream folds back to metrics");
}

#[test]
fn concurrent_mark_window_bails_frees_until_it_closes() {
    // Frees landing inside the concurrent-mark window bail with
    // GcRunning and must appear as FreeBail events between the window
    // opening and the cycle's end; the window closes after exactly
    // `window` allocations.
    let mut rt = Runtime::new(traced(RuntimeConfig {
        min_heap: 16 * 1024,
        ..RuntimeConfig::default()
    }));
    let mut addrs = Vec::new();
    while !rt.gc_running() {
        addrs.push(rt.alloc(1024, Category::Other));
        rt.tick(1);
    }
    // Window open: tcfree must bail, and the pending flag must stay off
    // until the window is drained.
    let victim = addrs[0];
    assert_eq!(
        rt.tcfree(victim, FreeSource::SliceLifetime),
        FreeOutcome::Bailed(BailReason::GcRunning)
    );
    let window = {
        let trace_now = gc_starts(&rt.take_trace().expect("traced").events);
        trace_now.last().expect("window opened").2
    };
    // take_trace consumed the tracer; rebuild a runtime to check the
    // boundary precisely from a forced window instead.
    let mut rt = Runtime::new(traced(RuntimeConfig::default()));
    let a = rt.alloc(64, Category::Other);
    rt.force_gc_window(3);
    assert!(rt.gc_running() && !rt.gc_pending());
    assert_eq!(
        rt.tcfree(a, FreeSource::SliceLifetime),
        FreeOutcome::Bailed(BailReason::GcRunning),
        "free inside the window must bail"
    );
    for step in 0..3 {
        assert!(
            !rt.gc_pending(),
            "window closed after only {step} of 3 assists"
        );
        rt.alloc(64, Category::Other);
    }
    assert!(
        rt.gc_pending(),
        "window must close exactly after its assist budget"
    );
    let swept = rt.collect();
    assert!(!rt.gc_running(), "collect closes the cycle");
    assert!(swept.freed.iter().any(|f| f.addr == a));
    rt.finalize();
    let m = rt.metrics().clone();
    let trace = rt.take_trace().expect("traced run");
    assert_eq!(m.tcfree_bails[BailReason::GcRunning.index()], 1);
    let bail_pos = trace
        .events
        .iter()
        .position(|e| matches!(e, TraceEvent::FreeBail { reason, .. } if *reason == BailReason::GcRunning))
        .expect("the bailed free is in the stream");
    let end_pos = trace
        .events
        .iter()
        .position(|e| matches!(e, TraceEvent::GcEnd { .. }))
        .expect("the cycle end is in the stream");
    assert!(
        bail_pos < end_pos,
        "the bailed free happened inside the cycle"
    );
    trace.reconcile(&m).expect("stream folds back to metrics");
    // And the organically-opened window from the first runtime was
    // clamped like every other.
    assert!((16..=96).contains(&window));
}
