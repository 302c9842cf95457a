//! The generational backend: a nursery, minor/major cycles, and a
//! remembered set fed by the VM's write-barrier store sites.
//!
//! Young objects (everything allocated since the last cycle) carry a
//! young bit on their span; when their accumulated bytes cross
//! [`RuntimeConfig::nursery_size`], a **minor** cycle runs: only nursery
//! objects are marked and swept ([`Heap::sweep_young`]), old objects in
//! the same spans are untouched, and every survivor is promoted
//! wholesale (the nursery empties). Because the VM's roots cannot see
//! old→young pointers cheaply, the barrier records mutated *old* objects
//! in a remembered set (kept a set, not a fourth span word: it is small,
//! bounded by the stores of one cycle, and a word per 64 slots would be
//! paid by every span of either backend) whose size is charged as
//! minor-mark root-scan cost; promotion clears it (no old→young edges
//! can survive a cycle that promotes the whole nursery). When the
//! full-heap GOGC goal is crossed instead, a **major** cycle runs with
//! exactly the [`GoMarkSweep`](super::GoMarkSweep) cost model and sweep.
//!
//! `tcfree` interacts with the nursery directly: an explicit free evicts
//! the address ([`Collector::on_free`]), so explicitly freed bytes never
//! count toward the minor trigger — the GoFree setting therefore defers
//! minor cycles, which is precisely the cross-backend effect
//! `results/collectors.txt` measures.

use crate::clock::Clock;
use crate::fxhash::FxHashSet;
use crate::heap::{Heap, HeapInvariant, HeapInvariantError, ObjAddr};
use crate::rng::SimRng;
use crate::runtime::RuntimeConfig;

use super::{mark_cost, Collector, CollectorKind, CycleKind, CycleOutcome, GcTrigger};

/// Generational mark-sweep.
#[derive(Debug)]
pub struct Generational {
    /// Objects carrying a young bit: allocated since the last cycle and
    /// not freed (the minor window's pacing input).
    young_objects: u64,
    /// Bytes those objects account for (the minor trigger's input).
    young_bytes: u64,
    /// Old objects mutated since the last cycle (minor-mark roots).
    remembered: FxHashSet<ObjAddr>,
    gc_running: bool,
    assist_left: u64,
    /// The major (full-heap) GOGC goal.
    next_gc: u64,
    /// What kind of cycle the open window leads to.
    pending: CycleKind,
}

impl Generational {
    /// Creates the backend; the first major cycle triggers at `min_heap`,
    /// the first minor at `nursery_size` allocated bytes.
    pub fn new(cfg: &RuntimeConfig) -> Self {
        Generational {
            young_objects: 0,
            young_bytes: 0,
            remembered: FxHashSet::default(),
            gc_running: false,
            assist_left: 0,
            next_gc: cfg.min_heap,
            pending: CycleKind::Major,
        }
    }

    /// Nursery occupancy in bytes (tests).
    pub fn young_bytes(&self) -> u64 {
        self.young_bytes
    }

    /// Remembered-set size (tests).
    pub fn remembered_len(&self) -> usize {
        self.remembered.len()
    }
}

impl Collector for Generational {
    fn kind(&self) -> CollectorKind {
        CollectorKind::Generational
    }

    fn gc_running(&self) -> bool {
        self.gc_running
    }

    fn gc_pending(&self) -> bool {
        self.gc_running && self.assist_left == 0
    }

    fn on_object_alloc(&mut self, heap: &mut Heap, addr: ObjAddr, bytes: u64) {
        heap.set_young(addr);
        self.young_objects += 1;
        self.young_bytes += bytes;
    }

    fn pace(&mut self, cfg: &RuntimeConfig, heap: &Heap, live_objects: u64) -> Option<GcTrigger> {
        if !cfg.gc_enabled {
            return None;
        }
        if self.gc_running {
            self.assist_left = self.assist_left.saturating_sub(1);
            return None;
        }
        // Major (full-heap pressure) outranks minor: when the GOGC goal
        // is crossed, a nursery cycle alone cannot relieve it.
        if heap.heap_live() >= self.next_gc {
            self.gc_running = true;
            self.pending = CycleKind::Major;
            self.assist_left = (live_objects / cfg.gc_assist_divisor.max(1)).clamp(16, 96);
            return Some(GcTrigger {
                goal: self.next_gc,
                window: self.assist_left,
                kind: CycleKind::Major,
            });
        }
        if self.young_bytes >= cfg.nursery_size {
            self.gc_running = true;
            self.pending = CycleKind::Minor;
            // Minor windows are short: the nursery is small and the
            // cycle must run before it overflows badly.
            self.assist_left = (self.young_objects / cfg.gc_assist_divisor.max(1)).clamp(4, 32);
            return Some(GcTrigger {
                goal: cfg.nursery_size,
                window: self.assist_left,
                kind: CycleKind::Minor,
            });
        }
        None
    }

    fn has_barrier(&self) -> bool {
        true
    }

    fn record_store(&mut self, cfg: &RuntimeConfig, heap: &Heap, addr: ObjAddr) -> u64 {
        if !cfg.gc_enabled {
            return 0;
        }
        // Stores into young objects need no barrier: the nursery is
        // traced in full at every cycle.
        if heap.is_young(addr) {
            return 0;
        }
        self.remembered.insert(addr);
        cfg.costs.write_barrier
    }

    fn on_free(&mut self, heap: &mut Heap, addr: ObjAddr, bytes: u64) {
        if heap.clear_young(addr) {
            self.young_objects -= 1;
            self.young_bytes = self.young_bytes.saturating_sub(bytes);
        }
        self.remembered.remove(&addr);
    }

    fn collect(
        &mut self,
        cfg: &RuntimeConfig,
        heap: &mut Heap,
        clock: &mut Clock,
        rng: &mut SimRng,
    ) -> CycleOutcome {
        let kind = self.pending;
        let sweep = match kind {
            CycleKind::Major => {
                clock.charge_jittered(mark_cost(cfg, heap, cfg.costs.gc_cycle_base, false), rng);
                let sweep = heap.sweep();
                clock.charge(cfg.costs.gc_sweep_span * sweep.spans_swept as u64);
                let heap_marked = heap.heap_live();
                self.next_gc = (heap_marked + heap_marked * cfg.gogc / 100).max(cfg.min_heap);
                sweep
            }
            CycleKind::Minor => {
                // Minor mark: the cheaper stop, nursery survivors, and a
                // root-scan charge per remembered old object.
                let cost = mark_cost(cfg, heap, cfg.costs.gc_minor_base, true)
                    + cfg.costs.gc_mark_object * self.remembered.len() as u64;
                clock.charge_jittered(cost, rng);
                let sweep = heap.sweep_young();
                clock.charge(cfg.costs.gc_sweep_span * sweep.spans_swept as u64);
                sweep
            }
        };
        // Wholesale promotion: survivors become old, the remembered set
        // is vacuously satisfied again.
        heap.promote_all();
        (self.young_objects, self.young_bytes) = (0, 0);
        self.remembered.clear();
        self.gc_running = false;
        self.assist_left = 0;
        self.pending = CycleKind::Major;
        CycleOutcome {
            sweep,
            kind,
            next_goal: self.next_gc,
        }
    }

    fn check_invariants(&self, heap: &Heap) -> Result<(), HeapInvariantError> {
        let stray = |a: &&ObjAddr| !heap.is_allocated(**a) || heap.is_young(**a);
        match self.remembered.iter().find(stray) {
            Some(addr) => Err(HeapInvariantError {
                invariant: HeapInvariant::RememberedNotOld,
                span: Some(addr.span),
            }),
            None => Ok(()),
        }
    }

    fn force_window(&mut self, assists: u64) {
        self.gc_running = true;
        self.pending = CycleKind::Major;
        self.assist_left = assists;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Category;
    use crate::sizeclass::class_for;

    fn cfg() -> RuntimeConfig {
        RuntimeConfig {
            collector: CollectorKind::Generational,
            nursery_size: 4096,
            min_heap: 64 * 1024,
            jitter: 0.0,
            ..RuntimeConfig::default()
        }
    }

    #[test]
    fn nursery_fills_and_minor_triggers() {
        let cfg = cfg();
        let mut heap = Heap::new(1);
        let mut gc = Generational::new(&cfg);
        let mut live = 0;
        let trigger = loop {
            let (addr, _) = heap.alloc_small(class_for(512), 0, Category::Other);
            gc.on_object_alloc(&mut heap, addr, 512);
            live += 1;
            if let Some(t) = gc.pace(&cfg, &heap, live) {
                break t;
            }
            assert!(live < 100, "minor never triggered");
        };
        assert_eq!(trigger.kind, CycleKind::Minor);
        assert_eq!(trigger.goal, 4096);
        assert!(gc.young_bytes() >= 4096);
    }

    #[test]
    fn minor_sweeps_only_young_and_promotes() {
        let cfg = cfg();
        let mut heap = Heap::new(1);
        let mut clock = Clock::new(0.0);
        let mut rng = SimRng::seed_from_u64(0);
        let mut gc = Generational::new(&cfg);
        // An "old" object: allocated, then a cycle promotes it.
        let (old, _) = heap.alloc_small(class_for(64), 0, Category::Other);
        gc.on_object_alloc(&mut heap, old, 64);
        gc.force_window(0);
        gc.pending = CycleKind::Minor;
        heap.mark(old);
        gc.collect(&cfg, &mut heap, &mut clock, &mut rng);
        assert_eq!(gc.young_bytes(), 0, "promotion empties the nursery");
        // Now a young unmarked object dies in a minor while the old,
        // also-unmarked one survives (floating, awaiting a major).
        let (young, _) = heap.alloc_small(class_for(64), 0, Category::Other);
        gc.on_object_alloc(&mut heap, young, 64);
        gc.force_window(0);
        gc.pending = CycleKind::Minor;
        let out = gc.collect(&cfg, &mut heap, &mut clock, &mut rng);
        assert_eq!(out.kind, CycleKind::Minor);
        let freed: Vec<_> = out.sweep.freed.iter().map(|f| f.addr).collect();
        assert_eq!(freed, vec![young]);
        assert!(heap.is_allocated(old), "old survives the minor unmarked");
    }

    #[test]
    fn tcfree_evicts_from_nursery() {
        let cfg = cfg();
        let mut heap = Heap::new(1);
        let mut gc = Generational::new(&cfg);
        let (a, _) = heap.alloc_small(class_for(512), 0, Category::Slice);
        gc.on_object_alloc(&mut heap, a, 512);
        assert_eq!(gc.young_bytes(), 512);
        gc.on_free(&mut heap, a, 512);
        assert_eq!(gc.young_bytes(), 0, "freed bytes leave the trigger");
    }

    #[test]
    fn barrier_remembers_old_stores_only() {
        let cfg = cfg();
        let mut heap = Heap::new(1);
        let mut gc = Generational::new(&cfg);
        let (young, _) = heap.alloc_small(class_for(64), 0, Category::Other);
        gc.on_object_alloc(&mut heap, young, 64);
        assert_eq!(gc.record_store(&cfg, &heap, young), 0, "young: no barrier");
        assert_eq!(gc.remembered_len(), 0);
        let (old, _) = heap.alloc_small(class_for(64), 0, Category::Other);
        // Not registered young: counts as old.
        let ticks = gc.record_store(&cfg, &heap, old);
        assert_eq!(ticks, cfg.costs.write_barrier);
        assert_eq!(gc.remembered_len(), 1);
    }

    #[test]
    fn major_recomputes_goal_and_clears_nursery() {
        let cfg = cfg();
        let mut heap = Heap::new(1);
        let mut clock = Clock::new(0.0);
        let mut rng = SimRng::seed_from_u64(0);
        let mut gc = Generational::new(&cfg);
        let (a, _) = heap.alloc_small(class_for(1024), 0, Category::Other);
        gc.on_object_alloc(&mut heap, a, 1024);
        gc.force_window(0);
        heap.mark(a);
        let out = gc.collect(&cfg, &mut heap, &mut clock, &mut rng);
        assert_eq!(out.kind, CycleKind::Major);
        assert_eq!(out.next_goal, cfg.min_heap, "small heap: floor wins");
        assert_eq!(gc.young_bytes(), 0);
    }
}
