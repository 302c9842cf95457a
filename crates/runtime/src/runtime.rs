//! The runtime facade: allocation, GC pacing, and the `tcfree` family
//! (§5 of the paper).
//!
//! The VM drives it: `alloc` on every heap allocation, `tcfree` for
//! inserted frees, and — whenever [`Runtime::gc_pending`] turns true at a
//! statement boundary — a mark pass ([`Runtime::mark`] per reachable
//! object) followed by [`Runtime::collect`].
//!
//! Concurrency effects are simulated with seeded randomness: scheduler
//! migrations flush the current thread's mcache (making `tcfree` bail with
//! `OwnershipChanged`), and each GC cycle opens a "concurrent mark" window
//! over the next allocations during which `tcfree` bails with `GcRunning`.

use std::fmt;

use crate::clock::{cost, Clock};
use crate::collector::{Collector, CollectorKind, CycleKind};
use crate::heap::{footprint, Heap, ObjAddr, OwnerTag, SweepOutcome};
use crate::metrics::{BailReason, Category, FreeSource, Metrics};
use crate::profile::{StackId, ROOT_STACK};
use crate::rng::SimRng;
use crate::sizeclass::{class_for, class_size, large_pages, MAX_SMALL_SIZE};
use crate::trace::{FreeStep, HeapSnapshot, Trace, TraceEvent, Tracer};

/// Simulated threads, one mcache each; scheduler migrations rotate
/// through them.
const THREADS: u32 = 4;

/// How the §6.8 robustness mock corrupts memory instead of freeing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoisonMode {
    /// Normal operation: really deallocate.
    Off,
    /// Mock: report `Poisoned` where a free would happen; the VM fills
    /// the payload with a poison sentinel that traps on read.
    Zero,
}

/// Runtime configuration.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Whether GC runs at all (the paper's Go-GCOff setting disables it).
    pub gc_enabled: bool,
    /// GOGC: heap growth percentage between collections.
    pub gogc: u64,
    /// Minimum heap size before the first collection triggers.
    pub min_heap: u64,
    /// Per-allocation probability of a scheduler migration that flushes
    /// the current mcache.
    pub migrate_prob: f64,
    /// RNG seed (jitter + migrations); distinct seeds give the fig. 11
    /// run-to-run distribution.
    pub seed: u64,
    /// Clock jitter amplitude (fraction).
    pub jitter: f64,
    /// §6.8 robustness mock.
    pub poison: PoisonMode,
    /// Record the typed runtime event stream ([`crate::trace`]). Like the
    /// shadow sanitizer, tracing is invisible to every observable: no
    /// clock charges, no metrics, no RNG draws — the report is
    /// bit-identical with tracing on or off.
    pub trace: bool,
    /// Hard cap on the tracer's event buffer (`None` = unbounded). A
    /// capped tracer counts what it drops; the truncated trace then
    /// refuses to reconcile instead of silently folding a partial
    /// stream.
    pub trace_cap: Option<usize>,
    /// Whether the collector runs a nursery ([`crate::collector`]).
    pub collector: CollectorKind,
    /// Nursery size in bytes for the generational collector's minor
    /// trigger (ignored without a nursery). Must stay
    /// below `min_heap` — a nursery at or above the initial full-heap
    /// goal would let major pacing permanently shadow minor cycles
    /// ([`RuntimeConfig::validate`] rejects it).
    pub nursery_size: u64,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            gc_enabled: true,
            gogc: 100,
            min_heap: 512 * 1024,
            migrate_prob: 0.0005,
            seed: 0,
            jitter: 0.02,
            poison: PoisonMode::Off,
            trace: false,
            trace_cap: None,
            collector: CollectorKind::Go,
            nursery_size: 64 * 1024,
        }
    }
}

/// A nonsensical [`RuntimeConfig`] the runtime refuses to run with
/// ([`RuntimeConfig::validate`]). Typed so callers can surface the exact
/// rejection instead of a panic or a silently degenerate run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// GOGC=0 with GC enabled: the pacing goal collapses onto the live
    /// heap, so every allocation past `min_heap` would trigger a cycle —
    /// a GC livelock, not a measurement.
    ZeroGogc,
    /// Generational collector with a zero-byte nursery: every allocation
    /// would trigger a minor cycle.
    ZeroNursery,
    /// Generational collector with `nursery_size >= min_heap`: the
    /// full-heap goal would always be crossed before the nursery fills,
    /// so minor cycles could never run.
    NurseryAboveHeapGoal {
        /// The configured nursery size.
        nursery: u64,
        /// The initial full-heap goal (`min_heap`).
        goal: u64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroGogc => {
                write!(
                    f,
                    "GOGC=0 with GC enabled would collect on every allocation past min_heap"
                )
            }
            ConfigError::ZeroNursery => {
                write!(f, "the generational collector needs a nonzero nursery_size")
            }
            ConfigError::NurseryAboveHeapGoal { nursery, goal } => write!(
                f,
                "nursery_size ({nursery}) must be below the initial heap goal min_heap ({goal}); \
                 minor cycles could otherwise never trigger"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

impl RuntimeConfig {
    /// Rejects configurations that would degenerate into a GC livelock
    /// or never run a minor cycle.
    ///
    /// # Errors
    ///
    /// The first [`ConfigError`] found. Checked by the VM entry points
    /// before a runtime is built; [`Runtime::new`] itself stays
    /// infallible for embedders that construct configs programmatically.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.gc_enabled && self.gogc == 0 {
            return Err(ConfigError::ZeroGogc);
        }
        if self.collector == CollectorKind::Generational && self.gc_enabled {
            if self.nursery_size == 0 {
                return Err(ConfigError::ZeroNursery);
            }
            if self.nursery_size >= self.min_heap {
                return Err(ConfigError::NurseryAboveHeapGoal {
                    nursery: self.nursery_size,
                    goal: self.min_heap,
                });
            }
        }
        Ok(())
    }
}

/// One completed GC cycle: when it ended, what it cost, and what it
/// reclaimed. The runtime builds one per cycle and keeps it twice over
/// with the same value: in its always-on log ([`Runtime::cycles`],
/// bounded by the cycle count, read by the service harness's pause
/// histograms and the collector study's reclaimed bytes) and, when
/// tracing, as the payload of [`TraceEvent::GcEnd`]. Like the tracer,
/// the log is pure observation: no clock charges, no metrics, no RNG
/// draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcCycle {
    /// Virtual time the cycle completed.
    pub at: u64,
    /// Nursery-only or full-heap.
    pub kind: CycleKind,
    /// Virtual ticks the cycle cost (mark + sweep).
    pub ticks: u64,
    /// Live heap bytes after the sweep (`heap_marked`).
    pub heap_live: u64,
    /// The next pacing goal derived from GOGC.
    pub next_goal: u64,
    /// Objects swept per category (table 8's "Heap GC" input).
    pub swept: [u64; 3],
    /// Bytes swept.
    pub swept_bytes: u64,
    /// Dangling large-object spans that completed fig. 9 step 2.
    pub dangling_retired: u64,
}

/// What a `tcfree` call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FreeOutcome {
    /// The object was deallocated.
    Freed {
        /// Bytes returned to the allocator.
        bytes: u64,
    },
    /// Poison mode: the object stays allocated; the VM must corrupt its
    /// payload.
    Poisoned,
    /// The free gave up (§5): the object is left for GC.
    Bailed(BailReason),
}

/// The simulated Go runtime.
#[derive(Debug)]
pub struct Runtime {
    cfg: RuntimeConfig,
    heap: Heap,
    clock: Clock,
    metrics: Metrics,
    rng: SimRng,
    current_thread: u32,
    /// Pacing state, the mark window, and the cycle's cost and sweep
    /// policy. A separate field so it can borrow `heap`/`clock`/`rng`
    /// disjointly.
    collector: Collector,
    /// The event recorder, present when [`RuntimeConfig::trace`] is on.
    /// Boxed so the untraced hot path only carries a pointer-sized
    /// `None` check.
    tracer: Option<Box<Tracer>>,
    /// Every completed GC cycle, in order.
    cycles: Vec<GcCycle>,
}

impl Runtime {
    /// Creates a runtime.
    pub fn new(cfg: RuntimeConfig) -> Self {
        let clock = Clock::new(cfg.jitter);
        let heap = Heap::new(THREADS as usize);
        let rng = SimRng::seed_from_u64(cfg.seed);
        let tracer = cfg
            .trace
            .then(|| Box::new(Tracer::new(cfg.collector, cfg.trace_cap)));
        let collector = Collector::new(&cfg);
        Runtime {
            cfg,
            heap,
            clock,
            metrics: Metrics::default(),
            rng,
            current_thread: 0,
            collector,
            tracer,
            cycles: Vec::new(),
        }
    }

    /// Enters a call to `name`: traced events are stamped with the
    /// caller's stack extended by it until [`Runtime::leave_stack`].
    /// Returns the caller's stack ([`ROOT_STACK`] when tracing is off,
    /// when the call is a no-op). The VM engines call this at every
    /// function entry.
    #[inline]
    pub fn enter_stack(&mut self, name: &str) -> StackId {
        self.tracer
            .as_mut()
            .map_or(ROOT_STACK, |t| t.enter_stack(name))
    }

    /// Restores the caller's stack `parent` on function exit (a no-op
    /// when tracing is off).
    #[inline]
    pub fn leave_stack(&mut self, parent: StackId) {
        if let Some(t) = &mut self.tracer {
            t.leave_stack(parent);
        }
    }

    /// The configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.cfg
    }

    /// Collected metrics so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Elapsed virtual time.
    #[inline]
    pub fn now(&self) -> u64 {
        self.clock.now()
    }

    /// Charges interpreter work to the clock.
    #[inline]
    pub fn tick(&mut self, ticks: u64) {
        self.clock.charge(ticks);
    }

    /// Read access to the heap (span state for tests and tooling).
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// Current live heap bytes.
    #[inline]
    pub fn heap_live(&self) -> u64 {
        self.heap.heap_live()
    }

    /// Whether a collection should run at the next safepoint.
    #[inline]
    pub fn gc_pending(&self) -> bool {
        self.collector.gc_pending()
    }

    /// Whether the concurrent mark window is open (tcfree bails).
    pub fn gc_running(&self) -> bool {
        self.collector.gc_running()
    }

    /// Which collector is running.
    pub fn collector_kind(&self) -> CollectorKind {
        self.cfg.collector
    }

    /// Allocates `size` bytes of category `cat`. Returns the address; the
    /// VM stores the payload under it.
    pub fn alloc(&mut self, size: u64, cat: Category) -> ObjAddr {
        self.alloc_at(size, cat, None).0
    }

    /// [`Runtime::alloc`] with an allocation-site id attached to the trace
    /// event (the VM passes the allocating expression's id), returning the
    /// allocation's [`OwnerTag`] beside the address: together they are a
    /// handle [`Runtime::owner`] can later tell live from stale.
    pub fn alloc_at(&mut self, size: u64, cat: Category, site: Option<u32>) -> (ObjAddr, OwnerTag) {
        // Simulated scheduler migration.
        if self.cfg.migrate_prob > 0.0 && self.rng.gen_bool(self.cfg.migrate_prob) {
            self.heap.flush_mcache(self.current_thread);
            if let Some(t) = &mut self.tracer {
                let at = self.clock.now();
                t.record(TraceEvent::McacheFlush {
                    at,
                    thread: self.current_thread,
                });
            }
            self.current_thread = (self.current_thread + 1) % THREADS;
        }

        let size = size.max(8);
        let (addr, bytes, large) = if size <= MAX_SMALL_SIZE {
            let class = class_for(size);
            let (addr, events) = self.heap.alloc_small(class, self.current_thread, cat);
            self.clock.charge(cost::ALLOC_SMALL);
            if events.refilled {
                self.clock
                    .charge_jittered(cost::MCACHE_REFILL, &mut self.rng);
            }
            if events.created_span {
                self.clock.charge_jittered(cost::SPAN_CREATE, &mut self.rng);
            }
            (addr, class_size(class), false)
        } else {
            let addr = self.heap.alloc_large(size, self.current_thread, cat);
            let c = cost::ALLOC_LARGE + cost::ALLOC_LARGE_PER_PAGE * large_pages(size) as u64;
            self.clock.charge_jittered(c, &mut self.rng);
            (addr, size, true)
        };
        self.metrics.alloced_bytes += bytes;
        self.metrics.alloced_objects += 1;
        self.metrics.heap_allocs[cat.index()] += 1;
        if self.collector.nursery() {
            self.heap.set_young(addr);
        }
        // maxheap is the page-level footprint (like RSS), not live bytes:
        // small-object frees only make slots reusable, while large-object
        // frees return whole pages — exactly the distinction fig. 10's
        // heap-size results rest on.
        self.metrics.maxheap = self.metrics.maxheap.max(footprint(&self.heap));
        if let Some(t) = &mut self.tracer {
            t.record(TraceEvent::Alloc {
                at: self.clock.now(),
                addr,
                site,
                stack: t.stack(),
                cat,
                bytes,
                large,
                heap_live: self.heap.heap_live(),
                footprint: footprint(&self.heap),
            });
        }

        // GC pacing: the collector decides; the runtime records.
        if let Some(trigger) = self.collector.pace(&self.cfg, &self.heap) {
            if let Some(t) = &mut self.tracer {
                t.record(TraceEvent::GcStart {
                    at: self.clock.now(),
                    heap_live: self.heap.heap_live(),
                    heap_goal: trigger.goal,
                    window: trigger.window,
                    kind: trigger.kind,
                });
            }
        }
        let tag = self.heap.owner(addr).expect("just allocated");
        (addr, tag)
    }

    /// The stamp of the allocation occupying `addr` (`None` once it was
    /// freed or swept; a different tag once the slot was reallocated).
    #[inline]
    pub fn owner(&self, addr: ObjAddr) -> Option<OwnerTag> {
        self.heap.owner(addr)
    }

    /// Marks the allocation `tag` at `addr` reachable for the coming
    /// [`Runtime::collect`], in one span lookup: `None` for a stale
    /// handle, else whether this call set the bit. With `young_only` an
    /// old object stays unmarked ([`Heap::mark`]).
    #[inline]
    pub fn mark(&mut self, addr: ObjAddr, tag: OwnerTag, young_only: bool) -> Option<bool> {
        self.heap.mark(addr, tag, young_only)
    }

    /// What kind of cycle the pending collection is. A minor one sweeps
    /// only young objects, so its mark may stop at old ones.
    #[inline]
    pub fn pending_cycle(&self) -> CycleKind {
        self.collector.cycle()
    }

    /// Whether the collector has a write barrier at all (only with a
    /// nursery, `gen` with GC on; constant for the run): without one
    /// [`Runtime::record_store`] does nothing, and a caller may skip
    /// preparing its argument.
    #[inline]
    pub fn has_barrier(&self) -> bool {
        self.collector.nursery()
    }

    /// Write-barrier entry point: the VM calls this when it stores a
    /// value that can hold a heap reference into the allocation `tag` at
    /// `addr` (at the heap store sites the shadow sanitizer hooks). The
    /// barrier fires on a live old object ([`Heap::remember`]), charging
    /// [`cost::WRITE_BARRIER`]; the answer is whether the object is newly
    /// remembered. Without a nursery (or with GC off) it is a total
    /// no-op — zero ticks, no state — so `go` runs stay bit-identical to
    /// the pre-barrier runtime.
    pub fn record_store(&mut self, addr: ObjAddr, tag: OwnerTag) -> bool {
        if !self.collector.nursery() {
            return false;
        }
        let fired = self.heap.remember(addr, tag);
        if fired.is_some() {
            self.clock.charge(cost::WRITE_BARRIER);
        }
        fired == Some(true)
    }

    /// Records a stack allocation made by the VM: counted in the metrics
    /// (table 8's "Stack" columns) and, when tracing, in the event stream.
    pub fn stack_alloc(&mut self, cat: Category) {
        self.metrics.record_stack_alloc(cat);
        if let Some(t) = &mut self.tracer {
            let at = self.clock.now();
            t.record(TraceEvent::StackAlloc {
                at,
                cat,
                stack: t.stack(),
            });
        }
    }

    /// The `tcfree` primitive (§5): best-effort explicit deallocation.
    /// `TcfreeSlice`/`TcfreeMap` unwrap to this after the VM extracts the
    /// underlying array/bucket address.
    pub fn tcfree(&mut self, addr: ObjAddr, source: FreeSource) -> FreeOutcome {
        self.tcfree_inner(addr, source, true)
    }

    /// A `tcfree` that continues an open batch (§5, "Possibility of
    /// Batching"): adjacent frees in the same scope share one call
    /// overhead, already paid by the batch's first free.
    pub fn tcfree_continue(&mut self, addr: ObjAddr, source: FreeSource) -> FreeOutcome {
        self.tcfree_inner(addr, source, false)
    }

    fn tcfree_inner(
        &mut self,
        addr: ObjAddr,
        source: FreeSource,
        charge_attempt: bool,
    ) -> FreeOutcome {
        self.metrics.tcfree_attempts += 1;
        if charge_attempt {
            self.clock.charge(cost::TCFREE_ATTEMPT);
        } else {
            // Batched follow-ups still pay the per-object status checks
            // (most of tcfree's cost, per §5), just not the call overhead.
            self.clock.charge(cost::TCFREE_ATTEMPT - 2);
        }

        if self.collector.gc_running() {
            return self.bail(BailReason::GcRunning);
        }
        if !self.heap.is_allocated(addr) {
            // Tolerated double free (§5): ignore already-freed memory.
            return self.bail(BailReason::AlreadyFree);
        }
        let span = self.heap.span(addr.span);
        let is_large = span.class.is_none();
        if !is_large {
            if !span.in_mcache {
                return self.bail(BailReason::SpanSwappedOut);
            }
            if span.owner != self.current_thread {
                return self.bail(BailReason::OwnershipChanged);
            }
        }
        if self.cfg.poison != PoisonMode::Off {
            if let Some(t) = &mut self.tracer {
                let at = self.clock.now();
                t.record(TraceEvent::FreePoison {
                    at,
                    addr,
                    stack: t.stack(),
                });
            }
            return FreeOutcome::Poisoned;
        }
        let cat = span.cat(addr.slot);
        let (bytes, step) = if is_large {
            let b = self.heap.free_large_step1(addr);
            self.clock.charge(cost::TCFREE_LARGE);
            (b, FreeStep::LargeStep1)
        } else {
            let f = self.heap.free_small(addr);
            self.clock.charge(cost::TCFREE_SMALL);
            let step = if f.reverted {
                FreeStep::Revert { cascade: f.cascade }
            } else {
                FreeStep::SlotClear
            };
            (f.bytes, step)
        };
        self.metrics.freed_bytes += bytes;
        self.metrics.freed_bytes_by_source[source.index()] += bytes;
        self.metrics.freed_objects_by_source[source.index()] += 1;
        self.metrics.heap_tcfreed[cat.index()] += 1;
        if let Some(t) = &mut self.tracer {
            t.record(TraceEvent::Free {
                at: self.clock.now(),
                addr,
                stack: t.stack(),
                cat,
                source,
                bytes,
                step,
                heap_live: self.heap.heap_live(),
            });
        }
        FreeOutcome::Freed { bytes }
    }

    fn bail(&mut self, reason: BailReason) -> FreeOutcome {
        self.metrics.tcfree_bails[reason.index()] += 1;
        if let Some(t) = &mut self.tracer {
            let at = self.clock.now();
            t.record(TraceEvent::FreeBail {
                at,
                reason,
                stack: t.stack(),
            });
        }
        FreeOutcome::Bailed(reason)
    }

    /// Runs a collection over the objects the VM [`Runtime::mark`]ed
    /// since the last one. Returns the sweep result so the VM's shadow
    /// heap hears which allocations died.
    pub fn collect(&mut self) -> SweepOutcome {
        let before = self.clock.now();
        // Snapshot the heap at the safepoint, before the sweep runs, so
        // the cycle's garbage and any fig. 9 dangling spans are visible.
        if let Some(t) = &mut self.tracer {
            t.snapshot(HeapSnapshot::capture(
                &self.heap,
                before,
                Some(self.metrics.gcs + 1),
            ));
        }
        // The cycle itself — mark cost, sweep, next goal — is collector
        // policy; the mechanism below (metrics, trace events) is the
        // same for either cycle kind.
        let cycle =
            self.collector
                .collect(&self.cfg, &mut self.heap, &mut self.clock, &mut self.rng);
        let out = cycle.sweep;
        self.debug_check_heap();
        let mut swept = [0u64; 3];
        let mut swept_bytes = 0;
        for f in &out.freed {
            self.metrics.heap_gced[f.cat.index()] += 1;
            swept[f.cat.index()] += 1;
            swept_bytes += f.bytes;
        }

        self.metrics.gcs += 1;
        match cycle.kind {
            CycleKind::Minor => self.metrics.gcs_minor += 1,
            CycleKind::Major => self.metrics.gcs_major += 1,
        }
        let at = self.clock.now();
        let ticks = at - before;
        self.metrics.gc_ticks += ticks;
        let record = GcCycle {
            at,
            kind: cycle.kind,
            ticks,
            heap_live: self.heap.heap_live(),
            next_goal: cycle.next_goal,
            swept,
            swept_bytes,
            dangling_retired: out.dangling_retired,
        };
        self.cycles.push(record);
        if let Some(t) = &mut self.tracer {
            // Per-object detail so the profile builder can attribute
            // swept garbage back to its allocating stack; the fold
            // counts only the GcEnd totals below.
            for f in &out.freed {
                t.record(TraceEvent::Sweep {
                    at,
                    addr: f.addr,
                    cat: f.cat,
                    bytes: f.bytes,
                });
            }
            t.record(TraceEvent::GcEnd(record));
        }
        out
    }

    /// End-of-run accounting: objects still alive would eventually be
    /// collected, so they count toward the GC columns of table 8.
    pub fn finalize(&mut self) {
        self.debug_check_heap();
        self.metrics.maxheap = self.metrics.maxheap.max(footprint(&self.heap));
        let mut leftover = [0u64; 3];
        for (_, cat, _) in self.heap.live_objects() {
            self.metrics.heap_gced[cat.index()] += 1;
            leftover[cat.index()] += 1;
        }
        if let Some(t) = &mut self.tracer {
            let at = self.clock.now();
            let footprint = footprint(&self.heap);
            // Final heap picture: what the run leaves behind.
            t.snapshot(HeapSnapshot::capture(&self.heap, at, None));
            t.record(TraceEvent::Finalize {
                at,
                leftover,
                footprint,
            });
        }
    }

    /// Debug builds check the span-state invariants after every cycle
    /// and at end of run, so every `cargo test` exercises them.
    fn debug_check_heap(&self) {
        if cfg!(debug_assertions) {
            if let Err(e) = self.heap.check_invariants() {
                panic!("{e}");
            }
        }
    }

    /// Takes the recorded event stream (once, after the run; `None` when
    /// tracing was off).
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.tracer.take().map(|t| t.finish())
    }

    /// Total heap footprint in bytes (pages held).
    pub fn footprint(&self) -> u64 {
        footprint(&self.heap)
    }

    /// Every completed GC cycle, in completion order.
    pub fn cycles(&self) -> &[GcCycle] {
        &self.cycles
    }

    /// Advances the virtual clock to absolute time `t` (no-op when `t`
    /// is in the past). Models a service worker sitting idle between
    /// requests: no work is charged, and — pacing being purely
    /// allocation-driven — no GC can trigger while idle, so the jump is
    /// exactly observationally equivalent to waiting.
    pub fn idle_until(&mut self, t: u64) {
        let now = self.clock.now();
        if t > now {
            self.clock.charge(t - now);
        }
    }

    /// Records a completed-request span ([`TraceEvent::Request`]) ending
    /// now. A pure annotation for the chrome://tracing export: no-op
    /// without tracing, ignored by [`Trace::fold`], invisible to every
    /// observable.
    pub fn trace_request(&mut self, id: u64, arrival: u64, start: u64) {
        if let Some(t) = &mut self.tracer {
            let at = self.clock.now();
            t.record(TraceEvent::Request {
                at,
                id,
                arrival,
                start,
            });
        }
    }

    /// Test-only: force the GC-running window open.
    #[doc(hidden)]
    pub fn force_gc_window(&mut self, assists: u64) {
        self.collector.force_window(assists);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_cfg() -> RuntimeConfig {
        RuntimeConfig {
            migrate_prob: 0.0,
            jitter: 0.0,
            ..RuntimeConfig::default()
        }
    }

    /// Marks whatever occupies `a` for a full cycle.
    fn keep(rt: &mut Runtime, a: ObjAddr) -> bool {
        let tag = rt.owner(a).expect("allocated");
        rt.mark(a, tag, false) == Some(true)
    }

    #[test]
    fn alloc_free_roundtrip() {
        let mut rt = Runtime::new(quiet_cfg());
        let a = rt.alloc(100, Category::Slice);
        assert_eq!(rt.heap_live(), 112, "rounded to the size class");
        let out = rt.tcfree(a, FreeSource::SliceLifetime);
        assert_eq!(out, FreeOutcome::Freed { bytes: 112 });
        assert_eq!(rt.heap_live(), 0);
        assert_eq!(rt.metrics().freed_bytes, 112);
        assert!((rt.metrics().free_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn double_free_is_tolerated() {
        let mut rt = Runtime::new(quiet_cfg());
        let a = rt.alloc(64, Category::Slice);
        assert!(matches!(
            rt.tcfree(a, FreeSource::SliceLifetime),
            FreeOutcome::Freed { .. }
        ));
        assert_eq!(
            rt.tcfree(a, FreeSource::SliceLifetime),
            FreeOutcome::Bailed(BailReason::AlreadyFree)
        );
    }

    #[test]
    fn tcfree_bails_during_gc_window() {
        let mut rt = Runtime::new(quiet_cfg());
        let a = rt.alloc(64, Category::Slice);
        rt.force_gc_window(100);
        assert_eq!(
            rt.tcfree(a, FreeSource::SliceLifetime),
            FreeOutcome::Bailed(BailReason::GcRunning)
        );
        assert_eq!(rt.metrics().tcfree_bails[BailReason::GcRunning.index()], 1);
    }

    #[test]
    fn tcfree_bails_after_migration() {
        let mut rt = Runtime::new(RuntimeConfig {
            migrate_prob: 1.0, // migrate on every allocation
            jitter: 0.0,
            ..RuntimeConfig::default()
        });
        let a = rt.alloc(64, Category::Slice);
        // Allocating again migrates and flushes the mcache holding a's
        // span; the different size class keeps it in the mcentral.
        let _b = rt.alloc(4096, Category::Slice);
        let out = rt.tcfree(a, FreeSource::SliceLifetime);
        assert!(
            matches!(
                out,
                FreeOutcome::Bailed(BailReason::SpanSwappedOut)
                    | FreeOutcome::Bailed(BailReason::OwnershipChanged)
            ),
            "got {out:?}"
        );
    }

    #[test]
    fn gc_triggers_by_pacing_and_collects() {
        let mut rt = Runtime::new(RuntimeConfig {
            min_heap: 4096,
            ..quiet_cfg()
        });
        let mut addrs = Vec::new();
        while !rt.gc_pending() {
            addrs.push(rt.alloc(512, Category::Other));
            assert!(addrs.len() < 100, "pacing never triggered");
        }
        // Keep half alive.
        let marked = addrs
            .iter()
            .step_by(2)
            .filter(|&&a| keep(&mut rt, a))
            .count();
        let out = rt.collect();
        assert_eq!(out.freed.len(), addrs.len() - marked);
        assert_eq!(rt.metrics().gcs, 1);
        assert!(rt.metrics().gc_ticks > 0);
        assert!(!rt.gc_running());
    }

    #[test]
    fn gc_off_never_triggers() {
        let mut rt = Runtime::new(RuntimeConfig {
            gc_enabled: false,
            min_heap: 1024,
            ..quiet_cfg()
        });
        for _ in 0..1000 {
            rt.alloc(512, Category::Other);
        }
        assert!(!rt.gc_pending());
        assert_eq!(rt.metrics().gcs, 0);
    }

    #[test]
    fn large_objects_roundtrip_with_two_step() {
        let mut rt = Runtime::new(quiet_cfg());
        let a = rt.alloc(100_000, Category::Slice);
        let out = rt.tcfree(a, FreeSource::SliceLifetime);
        assert_eq!(out, FreeOutcome::Freed { bytes: 100_000 });
        assert_eq!(rt.footprint(), 0, "pages returned in step 1");
    }

    #[test]
    fn poison_mode_reports_without_freeing() {
        let mut rt = Runtime::new(RuntimeConfig {
            poison: PoisonMode::Zero,
            ..quiet_cfg()
        });
        let a = rt.alloc(64, Category::Slice);
        assert_eq!(
            rt.tcfree(a, FreeSource::SliceLifetime),
            FreeOutcome::Poisoned
        );
        assert_eq!(rt.heap_live(), 64, "object stays allocated");
        assert_eq!(rt.metrics().freed_bytes, 0);
    }

    #[test]
    fn finalize_accounts_leftovers_as_gc() {
        let mut rt = Runtime::new(quiet_cfg());
        rt.alloc(64, Category::Map);
        rt.finalize();
        assert_eq!(rt.metrics().heap_gced[Category::Map.index()], 1);
    }

    #[test]
    fn metrics_track_sources() {
        let mut rt = Runtime::new(quiet_cfg());
        let a = rt.alloc(64, Category::Map);
        let b = rt.alloc(64, Category::Map);
        rt.tcfree(a, FreeSource::MapGrowOld);
        rt.tcfree(b, FreeSource::MapLifetime);
        let shares = rt.metrics().source_shares();
        assert!((shares[FreeSource::MapGrowOld.index()] - 0.5).abs() < 1e-9);
        assert!((shares[FreeSource::MapLifetime.index()] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn validate_rejects_nonsense() {
        let ok = RuntimeConfig::default();
        assert_eq!(ok.validate(), Ok(()));

        let zero_gogc = RuntimeConfig {
            gogc: 0,
            ..RuntimeConfig::default()
        };
        assert_eq!(zero_gogc.validate(), Err(ConfigError::ZeroGogc));
        // GOGC=0 is fine when GC never runs (the GoGcOff setting).
        let gc_off = RuntimeConfig {
            gogc: 0,
            gc_enabled: false,
            ..RuntimeConfig::default()
        };
        assert_eq!(gc_off.validate(), Ok(()));

        let zero_nursery = RuntimeConfig {
            collector: CollectorKind::Generational,
            nursery_size: 0,
            ..RuntimeConfig::default()
        };
        assert_eq!(zero_nursery.validate(), Err(ConfigError::ZeroNursery));

        let fat_nursery = RuntimeConfig {
            collector: CollectorKind::Generational,
            nursery_size: 512 * 1024,
            min_heap: 512 * 1024,
            ..RuntimeConfig::default()
        };
        assert_eq!(
            fat_nursery.validate(),
            Err(ConfigError::NurseryAboveHeapGoal {
                nursery: 512 * 1024,
                goal: 512 * 1024,
            })
        );
        // The nursery bound only matters when minor cycles can run at all.
        let fat_but_off = RuntimeConfig {
            gc_enabled: false,
            ..fat_nursery
        };
        assert_eq!(fat_but_off.validate(), Ok(()));

        // Errors render as actionable text.
        let msg = ConfigError::NurseryAboveHeapGoal {
            nursery: 10,
            goal: 5,
        }
        .to_string();
        assert!(msg.contains("nursery_size"), "{msg}");
    }

    #[test]
    fn generational_runs_minor_cycles_and_tags_metrics() {
        let mut rt = Runtime::new(RuntimeConfig {
            collector: CollectorKind::Generational,
            nursery_size: 4096,
            min_heap: 1024 * 1024,
            ..quiet_cfg()
        });
        let mut addrs = Vec::new();
        while !rt.gc_pending() {
            addrs.push(rt.alloc(512, Category::Other));
            assert!(addrs.len() < 100, "minor pacing never triggered");
        }
        // Nothing marked: the whole nursery dies.
        let out = rt.collect();
        assert_eq!(out.freed.len(), addrs.len());
        assert_eq!(rt.metrics().gcs, 1);
        assert_eq!(rt.metrics().gcs_minor, 1);
        assert_eq!(rt.metrics().gcs_major, 0);
        assert_eq!(rt.collector_kind(), CollectorKind::Generational);
    }

    #[test]
    fn generational_minor_spares_old_objects() {
        let mut rt = Runtime::new(RuntimeConfig {
            collector: CollectorKind::Generational,
            nursery_size: 4096,
            min_heap: 1024 * 1024,
            ..quiet_cfg()
        });
        // Fill a nursery generation and promote it (everything marked).
        let mut first_gen = Vec::new();
        while !rt.gc_pending() {
            first_gen.push(rt.alloc(512, Category::Other));
        }
        for &a in &first_gen {
            keep(&mut rt, a);
        }
        rt.collect();
        // Second generation dies unmarked; the promoted one survives a
        // minor even though it is also unmarked (floating until a major).
        while !rt.gc_pending() {
            rt.alloc(512, Category::Other);
        }
        let out = rt.collect();
        assert_eq!(rt.metrics().gcs_minor, 2);
        for addr in &first_gen {
            assert!(
                !out.freed.iter().any(|f| f.addr == *addr),
                "old object swept by a minor cycle"
            );
        }
        assert!(rt.heap_live() >= 512 * first_gen.len() as u64);
    }

    #[test]
    fn go_collector_ignores_store_barrier() {
        let mut rt = Runtime::new(quiet_cfg());
        let a = rt.alloc(64, Category::Other);
        let before = rt.now();
        assert!(!rt.record_store(a, rt.owner(a).unwrap()));
        assert_eq!(rt.now(), before, "mark-sweep barrier must be free");
    }

    #[test]
    fn generational_barrier_charges_old_stores() {
        let mut rt = Runtime::new(RuntimeConfig {
            collector: CollectorKind::Generational,
            nursery_size: 4096,
            min_heap: 1024 * 1024,
            ..quiet_cfg()
        });
        let a = rt.alloc(512, Category::Other);
        let tag = rt.owner(a).unwrap();
        let before = rt.now();
        assert!(!rt.record_store(a, tag));
        assert_eq!(rt.now(), before, "young store: no barrier cost");
        // Promote, then store into the now-old object.
        while !rt.gc_pending() {
            rt.alloc(512, Category::Other);
        }
        keep(&mut rt, a);
        rt.collect();
        let before = rt.now();
        assert!(rt.record_store(a, tag), "old store is newly remembered");
        assert_eq!(
            rt.now() - before,
            cost::WRITE_BARRIER,
            "old store fires the barrier"
        );
    }

    #[test]
    fn trace_is_stamped_with_collector() {
        let mut rt = Runtime::new(RuntimeConfig {
            collector: CollectorKind::Generational,
            trace: true,
            ..quiet_cfg()
        });
        rt.alloc(64, Category::Other);
        let trace = rt.take_trace().expect("traced");
        assert_eq!(trace.collector, CollectorKind::Generational);
    }

    #[test]
    fn identical_seeds_identical_clocks() {
        let run = |seed| {
            let mut rt = Runtime::new(RuntimeConfig {
                seed,
                ..RuntimeConfig::default()
            });
            for i in 0..500 {
                let a = rt.alloc(64 + (i % 7) * 100, Category::Slice);
                if i % 3 == 0 {
                    rt.tcfree(a, FreeSource::SliceLifetime);
                }
            }
            rt.now()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12), "different seeds perturb the clock");
    }
}
