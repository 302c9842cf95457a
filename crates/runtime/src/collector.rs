//! The collector: Go's GOGC-paced, non-moving mark-sweep (§3.3 of the
//! paper), with an optional nursery.
//!
//! The runtime owns the *mechanism* — the heap, the virtual clock, the
//! metrics, the tracer — and asks `Collector` every *policy* question:
//! when a cycle triggers (`Collector::pace`), how long the simulated
//! concurrent-mark window stays open (`tcfree` bails with `GcRunning`
//! while it is), what the cycle costs on the virtual clock, which objects
//! the sweep examines, and what the next pacing goal is.
//!
//! The major cycle is Go's: it triggers when `heap_live` crosses the GOGC
//! goal, its window lasts `live_objects / 16` allocations (clamped to
//! 16..=96), it charges a jittered mark cost, sweeps the whole heap, and
//! sets the next goal to `heap_marked * (1 + GOGC/100)`, floored at
//! `min_heap`. The `go` collector golden pins every one of those charges.
//!
//! [`CollectorKind::Generational`] adds a `Nursery`. Young objects
//! (allocated since the last cycle and not freed) carry a young bit on
//! their span; when their bytes cross [`RuntimeConfig::nursery_size`] a
//! **minor** cycle marks and sweeps only them ([`Heap::sweep_young`]) and
//! promotes every survivor wholesale. A minor mark stops at old objects,
//! so a write barrier records the *old* objects a reference is stored
//! into in a remembered set, the minor mark's extra roots, charged as
//! root-scan cost. It
//! is a set, not a fourth span word: it is bounded by one cycle's stores,
//! and a word per 64 slots would be paid by every span of either
//! collector. Promotion clears it: no old→young edge survives a cycle
//! that promotes the whole nursery. A crossed GOGC goal outranks a full
//! nursery, since a minor cycle cannot relieve full-heap pressure. An
//! explicit `tcfree` evicts its object from the nursery, so freed bytes
//! never count toward the minor trigger.
//!
//! Determinism rules: charge the clock only [`crate::clock::cost`]
//! constants, draw from the RNG only via `charge_jittered`, and make
//! every decision a pure function of (config, heap state, own state).
//! Mark costs are sums over the span mark words
//! ([`Heap::marked_per_span`]), so the order the VM visited objects in
//! cannot reach the clock. The collector never records trace
//! events: it returns the cycle facts and the runtime records them, so
//! traced and untraced runs stay bit-identical.

use std::fmt;
use std::str::FromStr;

use crate::clock::{cost, Clock};
use crate::fxhash::FxHashSet;
use crate::heap::{Heap, HeapInvariant, HeapInvariantError, ObjAddr, SweepOutcome};
use crate::rng::SimRng;
use crate::runtime::RuntimeConfig;

/// Selects whether the collector runs a nursery
/// ([`RuntimeConfig::collector`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CollectorKind {
    /// Go's non-moving mark-sweep with GOGC pacing (the paper's design;
    /// the default).
    #[default]
    Go,
    /// The same mark-sweep plus a nursery: minor cycles and a
    /// remembered set.
    Generational,
}

impl CollectorKind {
    /// The CLI / report name.
    pub fn name(self) -> &'static str {
        match self {
            CollectorKind::Go => "go",
            CollectorKind::Generational => "gen",
        }
    }

    /// Both kinds, in CLI order.
    pub fn all() -> [CollectorKind; 2] {
        [CollectorKind::Go, CollectorKind::Generational]
    }
}

impl fmt::Display for CollectorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for CollectorKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "go" => Ok(CollectorKind::Go),
            "gen" => Ok(CollectorKind::Generational),
            other => Err(format!("unknown collector '{other}' (expected go|gen)")),
        }
    }
}

/// Whether a cycle examined the whole heap or only the nursery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CycleKind {
    /// Nursery-only cycle (generational collector).
    Minor,
    /// Full-heap, GOGC-paced cycle.
    Major,
}

impl CycleKind {
    /// The gctrace / report name.
    pub fn name(self) -> &'static str {
        match self {
            CycleKind::Minor => "minor",
            CycleKind::Major => "major",
        }
    }
}

impl fmt::Display for CycleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A pacer trigger: the collector opened the concurrent-mark window.
/// The runtime records the matching [`crate::trace::TraceEvent::GcStart`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct GcTrigger {
    /// The pacing goal that was crossed (the trace's `heap_goal`).
    pub goal: u64,
    /// Length of the concurrent-mark window in allocations.
    pub window: u64,
    /// What kind of cycle will run when the window closes.
    pub kind: CycleKind,
}

/// What a completed cycle did, beyond the sweep itself.
#[derive(Debug, Clone)]
pub(crate) struct CycleOutcome {
    /// The sweep result (freed objects, spans examined, fig. 9
    /// dangling-span retirements).
    pub sweep: SweepOutcome,
    /// Minor or major.
    pub kind: CycleKind,
    /// The next major pacing goal.
    pub next_goal: u64,
}

/// The mark window lasts `live objects / ASSIST_DIVISOR` allocations
/// before the clamp: long enough that some `tcfree` calls race the
/// collector and bail (§5), short relative to the program so the
/// collector keeps up with allocation.
const ASSIST_DIVISOR: u64 = 16;

/// GC pacing state and collection policy.
#[derive(Debug)]
pub(crate) struct Collector {
    /// Whether the concurrent-mark window is open.
    gc_running: bool,
    /// Allocations left before the open window closes.
    assist_left: u64,
    /// `gc_running && assist_left == 0`: the cycle runs at the next
    /// safepoint. Kept as a field because the VM reads it per statement.
    pending: bool,
    /// The major (full-heap) GOGC goal.
    next_gc: u64,
    /// What kind of cycle the open window leads to.
    cycle: CycleKind,
    /// Present only under [`CollectorKind::Generational`]. Boxed: an
    /// inline nursery measured slower on the allocation-heavy service
    /// workload.
    nursery: Option<Box<Nursery>>,
}

/// The generational collector's young generation.
#[derive(Debug, Default)]
struct Nursery {
    /// Objects carrying a young bit (the minor window's pacing input).
    young_objects: u64,
    /// Bytes those objects account for (the minor trigger's input).
    young_bytes: u64,
    /// Old objects mutated since the last cycle (minor-mark roots).
    remembered: FxHashSet<ObjAddr>,
}

impl Collector {
    /// Creates the collector: the first major cycle triggers at
    /// `min_heap`, the first minor (generational only) at
    /// `nursery_size` allocated bytes.
    pub fn new(cfg: &RuntimeConfig) -> Self {
        Collector {
            gc_running: false,
            assist_left: 0,
            pending: false,
            next_gc: cfg.min_heap,
            cycle: CycleKind::Major,
            nursery: (cfg.collector == CollectorKind::Generational).then(Box::default),
        }
    }

    /// Whether the concurrent-mark window is open.
    #[inline]
    pub fn gc_running(&self) -> bool {
        self.gc_running
    }

    /// Whether the window has closed and the cycle should run at the
    /// next safepoint.
    #[inline]
    pub fn gc_pending(&self) -> bool {
        self.pending
    }

    /// What kind of cycle the open window leads to.
    #[inline]
    pub fn cycle(&self) -> CycleKind {
        self.cycle
    }

    /// Whether [`Collector::record_store`] can ever do anything.
    #[inline]
    pub fn has_barrier(&self) -> bool {
        self.nursery.is_some()
    }

    fn open_window(&mut self, cycle: CycleKind, assists: u64) {
        self.gc_running = true;
        self.assist_left = assists;
        self.pending = assists == 0;
        self.cycle = cycle;
    }

    /// Registers a freshly allocated object in the nursery. Touches no
    /// clock, metrics or RNG.
    pub fn on_object_alloc(&mut self, heap: &mut Heap, addr: ObjAddr, bytes: u64) {
        if let Some(n) = &mut self.nursery {
            heap.set_young(addr);
            n.young_objects += 1;
            n.young_bytes += bytes;
        }
    }

    /// The pacing decision after an allocation: counts down an open
    /// window, or opens one and returns the trigger. Touches no clock or
    /// RNG.
    pub fn pace(
        &mut self,
        cfg: &RuntimeConfig,
        heap: &Heap,
        live_objects: u64,
    ) -> Option<GcTrigger> {
        if !cfg.gc_enabled {
            return None;
        }
        if self.gc_running {
            self.assist_left = self.assist_left.saturating_sub(1);
            self.pending = self.assist_left == 0;
            return None;
        }
        let (kind, goal, window) = if heap.heap_live() >= self.next_gc {
            let window = (live_objects / ASSIST_DIVISOR).clamp(16, 96);
            (CycleKind::Major, self.next_gc, window)
        } else {
            match &self.nursery {
                // Minor windows are short: the nursery is small and the
                // cycle must run before it overflows badly.
                Some(n) if n.young_bytes >= cfg.nursery_size => {
                    let window = (n.young_objects / ASSIST_DIVISOR).clamp(4, 32);
                    (CycleKind::Minor, cfg.nursery_size, window)
                }
                _ => return None,
            }
        };
        self.open_window(kind, window);
        Some(GcTrigger { goal, window, kind })
    }

    /// Write barrier: the VM stored a heap reference into the object at
    /// `addr`. `None` when no barrier fires (no nursery, GC off, or a
    /// young object: the nursery is traced at every cycle, so a store
    /// into it needs no record); else whether `addr` is newly
    /// remembered. The caller charges [`cost::WRITE_BARRIER`] per fired
    /// barrier.
    pub fn record_store(
        &mut self,
        cfg: &RuntimeConfig,
        heap: &Heap,
        addr: ObjAddr,
    ) -> Option<bool> {
        let n = self.nursery.as_mut()?;
        if !cfg.gc_enabled || heap.is_young(addr) {
            return None;
        }
        Some(n.remembered.insert(addr))
    }

    /// A `tcfree` deallocated `addr`: evict it from the nursery. Touches
    /// no clock, metrics or RNG.
    pub fn on_free(&mut self, heap: &mut Heap, addr: ObjAddr, bytes: u64) {
        if let Some(n) = &mut self.nursery {
            if heap.clear_young(addr) {
                n.young_objects -= 1;
                n.young_bytes = n.young_bytes.saturating_sub(bytes);
            }
            n.remembered.remove(&addr);
        }
    }

    /// Runs the cycle the window led to: charge the mark cost, sweep,
    /// charge the sweep, derive the next goal, close the window. The
    /// reachable set is the span mark bits the VM set from its roots
    /// ([`Heap::mark`]); the sweep clears them.
    pub fn collect(
        &mut self,
        cfg: &RuntimeConfig,
        heap: &mut Heap,
        clock: &mut Clock,
        rng: &mut SimRng,
    ) -> CycleOutcome {
        let kind = self.cycle;
        let sweep = match kind {
            CycleKind::Major => {
                clock.charge_jittered(mark_cost(heap, cost::GC_CYCLE_BASE, false), rng);
                let sweep = heap.sweep();
                let heap_marked = heap.heap_live();
                self.next_gc = (heap_marked + heap_marked * cfg.gogc / 100).max(cfg.min_heap);
                sweep
            }
            CycleKind::Minor => {
                // The cheaper stop, nursery survivors, and a root-scan
                // charge per remembered old object.
                let n = self.nursery.as_ref().expect("minor cycles need a nursery");
                let ticks = mark_cost(heap, cost::GC_MINOR_BASE, true)
                    + cost::GC_MARK_OBJECT * n.remembered.len() as u64;
                clock.charge_jittered(ticks, rng);
                heap.sweep_young()
            }
        };
        clock.charge(cost::GC_SWEEP_SPAN * sweep.spans_swept as u64);
        if let Some(n) = &mut self.nursery {
            // Wholesale promotion: survivors become old, and the
            // remembered set is vacuously satisfied again.
            heap.promote_all();
            (n.young_objects, n.young_bytes) = (0, 0);
            n.remembered.clear();
        }
        self.gc_running = false;
        self.assist_left = 0;
        self.pending = false;
        CycleOutcome {
            sweep,
            kind,
            next_goal: self.next_gc,
        }
    }

    /// Checks the remembered set against the heap; the runtime asks
    /// wherever it checks [`Heap::check_invariants`].
    ///
    /// # Errors
    ///
    /// A remembered object that is free or young.
    pub fn check_invariants(&self, heap: &Heap) -> Result<(), HeapInvariantError> {
        let Some(n) = &self.nursery else {
            return Ok(());
        };
        let stray = |a: &&ObjAddr| !heap.is_allocated(**a) || heap.is_young(**a);
        match n.remembered.iter().find(stray) {
            Some(addr) => Err(HeapInvariantError {
                invariant: HeapInvariant::RememberedNotOld,
                span: Some(addr.span),
            }),
            None => Ok(()),
        }
    }

    /// Test hook: force a major cycle's window open for `assists`
    /// allocations.
    pub fn force_window(&mut self, assists: u64) {
        self.open_window(CycleKind::Major, assists);
    }
}

/// The mark cost of a cycle: `base` plus a per-survivor charge
/// proportional to object count and scanned bytes, over every marked
/// object (major) or the marked young ones (minor).
fn mark_cost(heap: &Heap, base: u64, young_only: bool) -> u64 {
    let per_span = heap
        .marked_per_span(young_only)
        .map(|(objects, slot_size)| {
            objects * (cost::GC_MARK_OBJECT + cost::GC_SCAN_PER_64B * slot_size.div_ceil(64))
        });
    base + per_span.sum::<u64>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Category;
    use crate::sizeclass::class_for;

    fn gen_cfg() -> RuntimeConfig {
        RuntimeConfig {
            collector: CollectorKind::Generational,
            nursery_size: 4096,
            min_heap: 64 * 1024,
            jitter: 0.0,
            ..RuntimeConfig::default()
        }
    }

    fn nursery(gc: &Collector) -> &Nursery {
        gc.nursery.as_deref().expect("generational")
    }

    #[test]
    fn kind_parses_and_displays() {
        assert_eq!("go".parse::<CollectorKind>().unwrap(), CollectorKind::Go);
        assert_eq!(
            "gen".parse::<CollectorKind>().unwrap(),
            CollectorKind::Generational
        );
        assert!("generational".parse::<CollectorKind>().is_err());
        assert!("shenandoah".parse::<CollectorKind>().is_err());
        assert_eq!(CollectorKind::Go.to_string(), "go");
        assert_eq!(CollectorKind::Generational.to_string(), "gen");
        assert_eq!(CollectorKind::default(), CollectorKind::Go);
    }

    #[test]
    fn cycle_kind_names() {
        assert_eq!(CycleKind::Minor.to_string(), "minor");
        assert_eq!(CycleKind::Major.to_string(), "major");
    }

    #[test]
    fn only_generational_has_a_nursery() {
        let go = Collector::new(&RuntimeConfig::default());
        assert!(go.nursery.is_none() && !go.has_barrier());
        let gen = Collector::new(&gen_cfg());
        assert!(gen.nursery.is_some() && gen.has_barrier());
    }

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
        let mut gc = Collector::new(&cfg);
        let mut live = 0u64;
        let mut trigger = None;
        while trigger.is_none() {
            heap.alloc_small(class_for(512), 0, Category::Other);
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
        let mut gc = Collector::new(&cfg);
        gc.force_window(2);
        assert!(gc.gc_running() && !gc.gc_pending());
        gc.pace(&cfg, &heap, 10);
        assert!(!gc.gc_pending());
        gc.pace(&cfg, &heap, 10);
        assert!(gc.gc_pending());
        gc.pace(&cfg, &heap, 10);
        assert!(gc.gc_pending(), "a drained window stays pending");
    }

    #[test]
    fn store_barrier_is_free_without_a_nursery() {
        let cfg = RuntimeConfig::default();
        let mut heap = Heap::new(1);
        let (addr, _) = heap.alloc_small(class_for(64), 0, Category::Other);
        let mut gc = Collector::new(&cfg);
        assert_eq!(gc.record_store(&cfg, &heap, addr), None);
    }

    #[test]
    fn nursery_fills_and_minor_triggers() {
        let cfg = gen_cfg();
        let mut heap = Heap::new(1);
        let mut gc = Collector::new(&cfg);
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
        assert!(nursery(&gc).young_bytes >= 4096);
    }

    #[test]
    fn minor_sweeps_only_young_and_promotes() {
        let cfg = gen_cfg();
        let mut heap = Heap::new(1);
        let mut clock = Clock::new(0.0);
        let mut rng = SimRng::seed_from_u64(0);
        let mut gc = Collector::new(&cfg);
        // An "old" object: allocated, then a cycle promotes it.
        let (old, _) = heap.alloc_small(class_for(64), 0, Category::Other);
        gc.on_object_alloc(&mut heap, old, 64);
        gc.open_window(CycleKind::Minor, 0);
        heap.mark(old, heap.owner(old).unwrap(), false);
        gc.collect(&cfg, &mut heap, &mut clock, &mut rng);
        assert_eq!(nursery(&gc).young_bytes, 0, "promotion empties the nursery");
        // Now a young unmarked object dies in a minor while the old,
        // also-unmarked one survives (floating, awaiting a major).
        let (young, _) = heap.alloc_small(class_for(64), 0, Category::Other);
        gc.on_object_alloc(&mut heap, young, 64);
        gc.open_window(CycleKind::Minor, 0);
        let out = gc.collect(&cfg, &mut heap, &mut clock, &mut rng);
        assert_eq!(out.kind, CycleKind::Minor);
        let freed: Vec<_> = out.sweep.freed.iter().map(|f| f.addr).collect();
        assert_eq!(freed, vec![young]);
        assert!(heap.is_allocated(old), "old survives the minor unmarked");
    }

    #[test]
    fn tcfree_evicts_from_nursery() {
        let cfg = gen_cfg();
        let mut heap = Heap::new(1);
        let mut gc = Collector::new(&cfg);
        let (a, _) = heap.alloc_small(class_for(512), 0, Category::Slice);
        gc.on_object_alloc(&mut heap, a, 512);
        assert_eq!(nursery(&gc).young_bytes, 512);
        gc.on_free(&mut heap, a, 512);
        assert_eq!(nursery(&gc).young_bytes, 0, "freed bytes leave the trigger");
    }

    #[test]
    fn barrier_remembers_old_stores_only() {
        let cfg = gen_cfg();
        let mut heap = Heap::new(1);
        let mut gc = Collector::new(&cfg);
        let (young, _) = heap.alloc_small(class_for(64), 0, Category::Other);
        gc.on_object_alloc(&mut heap, young, 64);
        assert_eq!(
            gc.record_store(&cfg, &heap, young),
            None,
            "young: no barrier"
        );
        assert_eq!(nursery(&gc).remembered.len(), 0);
        let (old, _) = heap.alloc_small(class_for(64), 0, Category::Other);
        // Not registered young: counts as old.
        assert_eq!(
            gc.record_store(&cfg, &heap, old),
            Some(true),
            "newly remembered"
        );
        assert_eq!(
            gc.record_store(&cfg, &heap, old),
            Some(false),
            "a barrier, no news"
        );
        assert_eq!(nursery(&gc).remembered.len(), 1);
    }

    #[test]
    fn major_recomputes_goal_and_clears_nursery() {
        let cfg = gen_cfg();
        let mut heap = Heap::new(1);
        let mut clock = Clock::new(0.0);
        let mut rng = SimRng::seed_from_u64(0);
        let mut gc = Collector::new(&cfg);
        let (a, _) = heap.alloc_small(class_for(1024), 0, Category::Other);
        gc.on_object_alloc(&mut heap, a, 1024);
        gc.force_window(0);
        heap.mark(a, heap.owner(a).unwrap(), false);
        let out = gc.collect(&cfg, &mut heap, &mut clock, &mut rng);
        assert_eq!(out.kind, CycleKind::Major);
        assert_eq!(out.next_goal, cfg.min_heap, "small heap: floor wins");
        assert_eq!(nursery(&gc).young_bytes, 0);
    }
}
