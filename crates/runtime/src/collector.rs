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
//! goal, its window lasts `live objects / 16` allocations (clamped to
//! 16..=96), it charges a jittered mark cost, sweeps the whole heap, and
//! sets the next goal to `heap_marked * (1 + GOGC/100)`, floored at
//! `min_heap`. The `go` collector golden pins every one of those charges.
//!
//! [`CollectorKind::Generational`] adds a nursery, kept on the spans like
//! every other per-object fact ([`crate::heap`]). Young objects
//! (allocated since the last cycle and not freed) carry a young bit;
//! when their bytes ([`Heap::young_bytes`]) cross
//! [`RuntimeConfig::nursery_size`] a **minor** cycle marks and sweeps
//! only them ([`Heap::sweep_young`]) and promotes every survivor
//! wholesale. A minor mark stops at old objects, so the write barrier
//! sets a remembered bit on the *old* objects a reference is stored into
//! ([`Heap::remember`]): the minor mark's extra roots, charged as
//! root-scan cost. Promotion clears both bits: no old→young edge
//! survives a cycle that promotes the whole nursery. A crossed GOGC goal
//! outranks a full nursery, since a minor cycle cannot relieve full-heap
//! pressure. An explicit `tcfree` ends its slot's bits and counts, so
//! freed bytes never count toward the minor trigger.
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
use crate::heap::{Heap, SweepOutcome};
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
    /// Whether there is a nursery: [`CollectorKind::Generational`] with
    /// GC on.
    nursery: bool,
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
            nursery: cfg.collector == CollectorKind::Generational && cfg.gc_enabled,
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

    /// Whether there is a nursery: young bits, minor cycles and a write
    /// barrier.
    #[inline]
    pub fn nursery(&self) -> bool {
        self.nursery
    }

    fn open_window(&mut self, cycle: CycleKind, assists: u64) {
        self.gc_running = true;
        self.assist_left = assists;
        self.pending = assists == 0;
        self.cycle = cycle;
    }

    /// The pacing decision after an allocation: counts down an open
    /// window, or opens one and returns the trigger. Touches no clock or
    /// RNG.
    pub fn pace(&mut self, cfg: &RuntimeConfig, heap: &Heap) -> Option<GcTrigger> {
        if !cfg.gc_enabled {
            return None;
        }
        if self.gc_running {
            self.assist_left = self.assist_left.saturating_sub(1);
            self.pending = self.assist_left == 0;
            return None;
        }
        let (kind, goal, window) = if heap.heap_live() >= self.next_gc {
            let window = (heap.objects() / ASSIST_DIVISOR).clamp(16, 96);
            (CycleKind::Major, self.next_gc, window)
        } else if self.nursery && heap.young_bytes() >= cfg.nursery_size {
            // Minor windows are short: the nursery is small and the
            // cycle must run before it overflows badly.
            let window = (heap.young_objects() / ASSIST_DIVISOR).clamp(4, 32);
            (CycleKind::Minor, cfg.nursery_size, window)
        } else {
            return None;
        };
        self.open_window(kind, window);
        Some(GcTrigger { goal, window, kind })
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
                let ticks = mark_cost(heap, cost::GC_MINOR_BASE, true)
                    + cost::GC_MARK_OBJECT * heap.remembered();
                clock.charge_jittered(ticks, rng);
                heap.sweep_young()
            }
        };
        clock.charge(cost::GC_SWEEP_SPAN * sweep.spans_swept as u64);
        if self.nursery {
            // Wholesale promotion: survivors become old, and nothing
            // needs remembering again.
            heap.promote_all();
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
    use crate::heap::ObjAddr;
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

    /// Allocates `bytes` young, as the runtime does under a nursery.
    fn young(heap: &mut Heap, bytes: u64) -> ObjAddr {
        let (addr, _) = heap.alloc_small(class_for(bytes), 0, Category::Other);
        heap.set_young(addr);
        addr
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
        assert!(!Collector::new(&RuntimeConfig::default()).nursery());
        assert!(Collector::new(&gen_cfg()).nursery());
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
        let mut trigger = None;
        while trigger.is_none() {
            heap.alloc_small(class_for(512), 0, Category::Other);
            trigger = gc.pace(&cfg, &heap);
            assert!(heap.objects() < 100, "never triggered");
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
        gc.pace(&cfg, &heap);
        assert!(!gc.gc_pending());
        gc.pace(&cfg, &heap);
        assert!(gc.gc_pending());
        gc.pace(&cfg, &heap);
        assert!(gc.gc_pending(), "a drained window stays pending");
    }

    #[test]
    fn nursery_fills_and_minor_triggers() {
        let cfg = gen_cfg();
        let mut heap = Heap::new(1);
        let mut gc = Collector::new(&cfg);
        let trigger = loop {
            young(&mut heap, 512);
            if let Some(t) = gc.pace(&cfg, &heap) {
                break t;
            }
            assert!(heap.objects() < 100, "minor never triggered");
        };
        assert_eq!(trigger.kind, CycleKind::Minor);
        assert_eq!(trigger.goal, 4096);
        assert!(heap.young_bytes() >= 4096);
    }

    #[test]
    fn go_never_runs_a_minor_whatever_the_nursery_size() {
        let cfg = RuntimeConfig {
            nursery_size: 0,
            ..RuntimeConfig::default()
        };
        assert_eq!(cfg.validate(), Ok(()), "go ignores the nursery size");
        let mut heap = Heap::new(1);
        heap.alloc_small(class_for(512), 0, Category::Other);
        assert_eq!(Collector::new(&cfg).pace(&cfg, &heap), None);
    }

    #[test]
    fn minor_sweeps_only_young_and_promotes() {
        let cfg = gen_cfg();
        let mut heap = Heap::new(1);
        let mut clock = Clock::new(0.0);
        let mut rng = SimRng::seed_from_u64(0);
        let mut gc = Collector::new(&cfg);
        // An "old" object: allocated, then a cycle promotes it.
        let old = young(&mut heap, 64);
        gc.open_window(CycleKind::Minor, 0);
        heap.mark(old, heap.owner(old).unwrap(), false);
        gc.collect(&cfg, &mut heap, &mut clock, &mut rng);
        assert_eq!(heap.young_bytes(), 0, "promotion empties the nursery");
        assert!(!heap.is_young(old));
        // Now a young unmarked object dies in a minor while the old,
        // also-unmarked one survives (floating, awaiting a major).
        let young = young(&mut heap, 64);
        gc.open_window(CycleKind::Minor, 0);
        let out = gc.collect(&cfg, &mut heap, &mut clock, &mut rng);
        assert_eq!(out.kind, CycleKind::Minor);
        let freed: Vec<_> = out.sweep.freed.iter().map(|f| f.addr).collect();
        assert_eq!(freed, vec![young]);
        assert!(heap.is_allocated(old), "old survives the minor unmarked");
        assert_eq!((heap.objects(), heap.young_objects()), (1, 0));
    }

    #[test]
    fn minor_charges_each_remembered_object_once() {
        let cfg = gen_cfg();
        let mut heap = Heap::new(1);
        let mut rng = SimRng::seed_from_u64(0);
        let mut gc = Collector::new(&cfg);
        let olds: Vec<_> = (0..3)
            .map(|_| heap.alloc_small(class_for(64), 0, Category::Other).0)
            .collect();
        let mut minor = |heap: &mut Heap, remember: &[ObjAddr]| {
            for &a in remember {
                heap.remember(a, heap.owner(a).unwrap());
            }
            let mut clock = Clock::new(0.0);
            gc.open_window(CycleKind::Minor, 0);
            gc.collect(&cfg, heap, &mut clock, &mut rng);
            clock.now()
        };
        let none = minor(&mut heap, &[]);
        let two = minor(&mut heap, &[olds[0], olds[2], olds[0]]);
        assert_eq!(two - none, 2 * cost::GC_MARK_OBJECT);
        assert_eq!(heap.remembered(), 0, "promotion ends the remembered bits");
    }

    #[test]
    fn tcfree_evicts_from_nursery() {
        let mut heap = Heap::new(1);
        let a = young(&mut heap, 512);
        assert_eq!((heap.young_objects(), heap.young_bytes()), (1, 512));
        heap.free_small(a);
        assert_eq!(
            (heap.young_objects(), heap.young_bytes()),
            (0, 0),
            "freed bytes leave the trigger"
        );
    }

    #[test]
    fn barrier_remembers_old_stores_only() {
        let mut heap = Heap::new(1);
        let young = young(&mut heap, 64);
        let tag = heap.owner(young).unwrap();
        assert!(!heap.remember(young, tag), "young: no barrier");
        assert_eq!(heap.remembered(), 0);
        let (old, _) = heap.alloc_small(class_for(64), 0, Category::Other);
        // Not flagged young: counts as old.
        let tag = heap.owner(old).unwrap();
        assert!(heap.remember(old, tag), "remembered");
        assert!(heap.remember(old, tag), "a barrier, no news");
        assert_eq!(heap.remembered(), 1);
    }

    #[test]
    fn major_recomputes_goal_and_clears_nursery() {
        let cfg = gen_cfg();
        let mut heap = Heap::new(1);
        let mut clock = Clock::new(0.0);
        let mut rng = SimRng::seed_from_u64(0);
        let mut gc = Collector::new(&cfg);
        let a = young(&mut heap, 1024);
        gc.force_window(0);
        heap.mark(a, heap.owner(a).unwrap(), false);
        let out = gc.collect(&cfg, &mut heap, &mut clock, &mut rng);
        assert_eq!(out.kind, CycleKind::Major);
        assert_eq!(out.next_goal, cfg.min_heap, "small heap: floor wins");
        assert_eq!(heap.young_bytes(), 0);
    }
}
