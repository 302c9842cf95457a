//! Go's collector: non-moving mark-sweep with GOGC pacing and a
//! simulated concurrent-mark window (§3.3 of the paper).
//!
//! This is the policy the pre-trait runtime hard-coded, moved here
//! verbatim: the pacer trigger (`heap_live >= next_gc`), the window
//! length (`live_objects / gc_assist_divisor`, clamped to 16..=96), the
//! jittered mark charge, the full-heap sweep, and the GOGC goal
//! (`heap_marked * (1 + GOGC/100)`, floored at `min_heap`). The
//! collector-identity gate pins every observable to the pre-refactor
//! golden fingerprints, so treat any change here as a pacing-semantics
//! change, not a refactor.

use crate::clock::Clock;
use crate::heap::{Heap, ObjAddr};
use crate::rng::SimRng;
use crate::runtime::RuntimeConfig;

use super::{mark_cost, Collector, CollectorKind, CycleKind, CycleOutcome, GcTrigger};

/// The default backend: Go's mark-sweep.
#[derive(Debug)]
pub struct GoMarkSweep {
    gc_running: bool,
    assist_left: u64,
    next_gc: u64,
}

impl GoMarkSweep {
    /// Creates the backend; the first cycle triggers at `min_heap`.
    pub fn new(cfg: &RuntimeConfig) -> Self {
        GoMarkSweep {
            gc_running: false,
            assist_left: 0,
            next_gc: cfg.min_heap,
        }
    }
}

impl Collector for GoMarkSweep {
    fn kind(&self) -> CollectorKind {
        CollectorKind::Go
    }

    fn gc_running(&self) -> bool {
        self.gc_running
    }

    fn gc_pending(&self) -> bool {
        self.gc_running && self.assist_left == 0
    }

    fn on_object_alloc(&mut self, _heap: &mut Heap, _addr: ObjAddr, _bytes: u64) {}

    fn pace(&mut self, cfg: &RuntimeConfig, heap: &Heap, live_objects: u64) -> Option<GcTrigger> {
        if !cfg.gc_enabled {
            return None;
        }
        if self.gc_running {
            self.assist_left = self.assist_left.saturating_sub(1);
            return None;
        }
        if heap.heap_live() < self.next_gc {
            return None;
        }
        self.gc_running = true;
        // The concurrent mark window: long enough that some tcfree calls
        // race the collector and bail (§5), short relative to the program
        // so the collector keeps up with allocation.
        self.assist_left = (live_objects / cfg.gc_assist_divisor.max(1)).clamp(16, 96);
        Some(GcTrigger {
            goal: self.next_gc,
            window: self.assist_left,
            kind: CycleKind::Major,
        })
    }

    fn has_barrier(&self) -> bool {
        false
    }

    fn record_store(&mut self, _cfg: &RuntimeConfig, _heap: &Heap, _addr: ObjAddr) -> u64 {
        // No write barrier: Go's sweep examines the whole heap, so store
        // sites cost nothing — and the identity gate requires exactly
        // that.
        0
    }

    fn on_free(&mut self, _heap: &mut Heap, _addr: ObjAddr, _bytes: u64) {}

    fn collect(
        &mut self,
        cfg: &RuntimeConfig,
        heap: &mut Heap,
        clock: &mut Clock,
        rng: &mut SimRng,
    ) -> CycleOutcome {
        // Mark cost: proportional to survivors and their bytes.
        clock.charge_jittered(mark_cost(cfg, heap, cfg.costs.gc_cycle_base, false), rng);

        let sweep = heap.sweep();
        clock.charge(cfg.costs.gc_sweep_span * sweep.spans_swept as u64);

        let heap_marked = heap.heap_live();
        self.next_gc = (heap_marked + heap_marked * cfg.gogc / 100).max(cfg.min_heap);
        self.gc_running = false;
        self.assist_left = 0;
        CycleOutcome {
            sweep,
            kind: CycleKind::Major,
            next_goal: self.next_gc,
        }
    }

    fn force_window(&mut self, assists: u64) {
        self.gc_running = true;
        self.assist_left = assists;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Category;

    #[test]
    fn pacer_triggers_at_goal_and_recomputes() {
        let cfg = RuntimeConfig {
            min_heap: 1024,
            jitter: 0.0,
            ..RuntimeConfig::default()
        };
        let mut heap = Heap::new(1);
        let mut clock = Clock::new(0.0);
        let mut rng = SimRng::seed_from_u64(0);
        let mut gc = GoMarkSweep::new(&cfg);
        let mut live = 0u64;
        let mut trigger = None;
        while trigger.is_none() {
            heap.alloc_small(crate::sizeclass::class_for(512), 0, Category::Other);
            live += 1;
            trigger = gc.pace(&cfg, &heap, live);
            assert!(live < 100, "never triggered");
        }
        let t = trigger.unwrap();
        assert_eq!(t.goal, 1024);
        assert_eq!(t.kind, CycleKind::Major);
        assert!(gc.gc_running());
        let out = gc.collect(&cfg, &mut heap, &mut clock, &mut rng);
        assert_eq!(out.kind, CycleKind::Major);
        assert!(!gc.gc_running());
        // Everything died: the goal falls back to the floor.
        assert_eq!(out.next_goal, 1024);
    }

    #[test]
    fn window_counts_down_to_pending() {
        let cfg = RuntimeConfig::default();
        let heap = Heap::new(1);
        let mut gc = GoMarkSweep::new(&cfg);
        gc.force_window(2);
        assert!(gc.gc_running() && !gc.gc_pending());
        gc.pace(&cfg, &heap, 10);
        assert!(!gc.gc_pending());
        gc.pace(&cfg, &heap, 10);
        assert!(gc.gc_pending());
    }

    #[test]
    fn store_barrier_is_free() {
        let cfg = RuntimeConfig::default();
        let mut heap = Heap::new(1);
        let (addr, _) = heap.alloc_small(crate::sizeclass::class_for(64), 0, Category::Other);
        let mut gc = GoMarkSweep::new(&cfg);
        assert_eq!(gc.record_store(&cfg, &heap, addr), 0);
    }
}
