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

use crate::clock::{Clock, CostModel};
use crate::collector::{Collector, CollectorKind, CycleKind};
use crate::heap::{footprint, Heap, ObjAddr, OwnerTag, SweepOutcome};
use crate::metrics::{BailReason, Category, FreeSource, Metrics};
use crate::profile::ROOT_STACK;
use crate::rng::SimRng;
use crate::sizeclass::{class_for, class_size, large_pages, MAX_SMALL_SIZE};
use crate::trace::{FreeStep, HeapSnapshot, Trace, TraceEvent, Tracer};

/// How the §6.8 robustness mock corrupts memory instead of freeing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoisonMode {
    /// Normal operation: really deallocate.
    Off,
    /// Mock: report `Poisoned` where a free would happen; the VM zeroes
    /// the payload.
    Zero,
    /// Mock: the VM flips all bits of the payload.
    Flip,
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
    /// Simulated threads (mcaches).
    pub threads: u32,
    /// Per-allocation probability of a scheduler migration that flushes
    /// the current mcache.
    pub migrate_prob: f64,
    /// RNG seed (jitter + migrations); distinct seeds give the fig. 11
    /// run-to-run distribution.
    pub seed: u64,
    /// Clock jitter amplitude (fraction).
    pub jitter: f64,
    /// The concurrent-mark window: GC stays "running" for
    /// `live_objects / gc_assist_divisor` allocations before the sweep.
    pub gc_assist_divisor: u64,
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
    /// Which collection backend runs ([`crate::collector`]).
    pub collector: CollectorKind,
    /// Nursery size in bytes for the generational backend's minor
    /// trigger (ignored by the default mark-sweep backend). Must stay
    /// below `min_heap` — a nursery at or above the initial full-heap
    /// goal would let major pacing permanently shadow minor cycles
    /// ([`RuntimeConfig::validate`] rejects it).
    pub nursery_size: u64,
    /// Tick charges.
    pub costs: CostModel,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            gc_enabled: true,
            gogc: 100,
            min_heap: 512 * 1024,
            threads: 4,
            migrate_prob: 0.0005,
            seed: 0,
            jitter: 0.02,
            gc_assist_divisor: 16,
            poison: PoisonMode::Off,
            trace: false,
            trace_cap: None,
            collector: CollectorKind::Go,
            nursery_size: 64 * 1024,
            costs: CostModel::default(),
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
    /// `gc_assist_divisor` = 0: the concurrent-mark window length would
    /// divide by zero.
    ZeroAssistDivisor,
    /// Generational backend with a zero-byte nursery: every allocation
    /// would trigger a minor cycle.
    ZeroNursery,
    /// Generational backend with `nursery_size >= min_heap`: the
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
            ConfigError::ZeroAssistDivisor => {
                write!(
                    f,
                    "gc_assist_divisor must be nonzero (mark-window length divides by it)"
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
    /// Rejects configurations that would panic, divide by zero, or
    /// degenerate into a GC livelock.
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
        if self.gc_enabled && self.gc_assist_divisor == 0 {
            return Err(ConfigError::ZeroAssistDivisor);
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

/// One completed GC stop: when it ended and what it cost. The runtime
/// records every cycle here unconditionally — the log is bounded by the
/// cycle count and read by the service harness to attribute pauses to
/// in-flight requests, without requiring full event tracing. Like the
/// tracer, it is pure observation: no clock charges, no metrics, no RNG
/// draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pause {
    /// Virtual time the cycle completed.
    pub at: u64,
    /// Nursery-only or full-heap.
    pub kind: CycleKind,
    /// Virtual ticks the cycle cost (mark + sweep).
    pub ticks: u64,
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
    /// The collection backend: owns pacing state, the mark window, the
    /// cost model application, and the sweep policy. A separate field so
    /// the borrow checker lets it borrow `heap`/`clock`/`rng` disjointly.
    collector: Box<dyn Collector>,
    /// `collector.gc_pending()`, refreshed after `pace`, `collect` and
    /// `force_window`: the per-statement safepoint reads a field.
    gc_pending: bool,
    /// `collector.has_barrier()`, asked once.
    has_barrier: bool,
    live_objects: u64,
    /// The event recorder, present when [`RuntimeConfig::trace`] is on.
    /// Boxed so the untraced hot path only carries a pointer-sized
    /// `None` check.
    tracer: Option<Box<Tracer>>,
    /// The VM's current interned call-stack id, stamped onto traced
    /// alloc/free/bail events ([`ROOT_STACK`] when no VM frame is
    /// active). Pure trace metadata: never read by the simulation.
    cur_stack: u32,
    /// Every completed GC cycle's stop record, in order.
    pauses: Vec<Pause>,
}

impl Runtime {
    /// Creates a runtime.
    pub fn new(cfg: RuntimeConfig) -> Self {
        let clock = Clock::new(cfg.jitter);
        let heap = Heap::new(cfg.threads as usize);
        let rng = SimRng::seed_from_u64(cfg.seed);
        let tracer = cfg.trace.then(|| Box::new(Tracer::with_cap(cfg.trace_cap)));
        let collector = cfg.collector.build(&cfg);
        Runtime {
            gc_pending: collector.gc_pending(),
            has_barrier: collector.has_barrier(),
            cfg,
            heap,
            clock,
            metrics: Metrics::default(),
            rng,
            current_thread: 0,
            collector,
            live_objects: 0,
            tracer,
            cur_stack: ROOT_STACK,
            pauses: Vec::new(),
        }
    }

    /// Sets the interned call-stack id stamped onto subsequent traced
    /// events. The VM engines call this at every function entry/exit;
    /// with tracing off it is a no-op either way (the field is trace
    /// metadata only).
    pub fn set_stack(&mut self, stack: u32) {
        self.cur_stack = stack;
    }

    /// The configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.cfg
    }

    /// Collected metrics so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Mutable metrics access (the VM records stack allocations and
    /// interpreter-side counters here).
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
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
        debug_assert_eq!(self.gc_pending, self.collector.gc_pending());
        self.gc_pending
    }

    /// Whether the concurrent mark window is open (tcfree bails).
    pub fn gc_running(&self) -> bool {
        self.collector.gc_running()
    }

    /// Which collection backend is running.
    pub fn collector_kind(&self) -> CollectorKind {
        self.collector.kind()
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
            self.current_thread = (self.current_thread + 1) % self.cfg.threads.max(1);
        }

        let size = size.max(8);
        let (addr, bytes, large) = if size <= MAX_SMALL_SIZE {
            let class = class_for(size);
            let (addr, events) = self.heap.alloc_small(class, self.current_thread, cat);
            self.clock.charge(self.cfg.costs.alloc_small);
            if events.refilled {
                let c = self.cfg.costs.mcache_refill;
                self.clock.charge_jittered(c, &mut self.rng);
            }
            if events.created_span {
                let c = self.cfg.costs.span_create;
                self.clock.charge_jittered(c, &mut self.rng);
            }
            (addr, class_size(class), false)
        } else {
            let addr = self.heap.alloc_large(size, self.current_thread, cat);
            let c = self.cfg.costs.alloc_large
                + self.cfg.costs.alloc_large_per_page * large_pages(size) as u64;
            self.clock.charge_jittered(c, &mut self.rng);
            (addr, size, true)
        };
        self.metrics.alloced_bytes += bytes;
        self.metrics.alloced_objects += 1;
        self.metrics.heap_allocs[cat.index()] += 1;
        self.live_objects += 1;
        self.collector.on_object_alloc(&mut self.heap, addr, bytes);
        // maxheap is the page-level footprint (like RSS), not live bytes:
        // small-object frees only make slots reusable, while large-object
        // frees return whole pages — exactly the distinction fig. 10's
        // heap-size results rest on.
        self.metrics.maxheap = self.metrics.maxheap.max(footprint(&self.heap));
        if let Some(t) = &mut self.tracer {
            t.note_site(addr, site);
            t.record(TraceEvent::Alloc {
                at: self.clock.now(),
                addr,
                site,
                stack: self.cur_stack,
                cat,
                bytes,
                large,
                heap_live: self.heap.heap_live(),
                footprint: footprint(&self.heap),
            });
        }

        // GC pacing: the collector decides; the runtime records.
        let trigger = self
            .collector
            .pace(&self.cfg, &self.heap, self.live_objects);
        self.gc_pending = self.collector.gc_pending();
        if let Some(trigger) = trigger {
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

    /// Marks `addr` reachable for the coming [`Runtime::collect`];
    /// `true` when this call marked it ([`Heap::mark`]).
    #[inline]
    pub fn mark(&mut self, addr: ObjAddr) -> bool {
        self.heap.mark(addr)
    }

    /// Whether the backend has a write barrier at all (constant for the
    /// run): without one [`Runtime::record_store`] does nothing, and a
    /// caller may skip preparing its argument.
    #[inline]
    pub fn has_barrier(&self) -> bool {
        self.has_barrier
    }

    /// Write-barrier entry point: the VM calls this at every
    /// heap-pointer store site (the same sites the shadow sanitizer
    /// hooks). The default mark-sweep backend makes it a total no-op —
    /// zero ticks, no state — so runs without a barrier-carrying
    /// collector stay bit-identical to the pre-barrier runtime.
    pub fn record_store(&mut self, addr: ObjAddr) {
        let ticks = self.collector.record_store(&self.cfg, &self.heap, addr);
        if ticks > 0 {
            self.clock.charge(ticks);
        }
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
                stack: self.cur_stack,
            });
        }
    }

    /// The `tcfree` primitive (§5): best-effort explicit deallocation.
    /// `TcfreeSlice`/`TcfreeMap` unwrap to this after the VM extracts the
    /// underlying array/bucket address.
    pub fn tcfree(&mut self, addr: ObjAddr, source: FreeSource) -> FreeOutcome {
        self.tcfree_inner(addr, source, true)
    }

    /// Batched `tcfree` (§5, "Possibility of Batching"): adjacent frees in
    /// the same scope share one call overhead. The paper notes this
    /// "typically offers limited performance gains since few objects are
    /// freed in a single scope" — the `batching` experiment measures it.
    pub fn tcfree_batch(&mut self, requests: &[(ObjAddr, FreeSource)]) -> Vec<FreeOutcome> {
        requests
            .iter()
            .enumerate()
            .map(|(i, &(addr, source))| self.tcfree_inner(addr, source, i == 0))
            .collect()
    }

    /// A `tcfree` that continues an open batch: the call overhead was
    /// already paid by the batch's first free.
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
            self.clock.charge(self.cfg.costs.tcfree_attempt);
        } else {
            // Batched follow-ups still pay the per-object status checks
            // (most of tcfree's cost, per §5), just not the call overhead.
            self.clock
                .charge(self.cfg.costs.tcfree_attempt.saturating_sub(2));
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
                    stack: self.cur_stack,
                });
            }
            return FreeOutcome::Poisoned;
        }
        let cat = span.cat(addr.slot);
        let (bytes, step) = if is_large {
            let b = self.heap.free_large_step1(addr);
            self.clock.charge(self.cfg.costs.tcfree_large);
            (b, FreeStep::LargeStep1)
        } else {
            let f = self.heap.free_small(addr);
            self.clock.charge(self.cfg.costs.tcfree_small);
            let step = if f.reverted {
                FreeStep::Revert { cascade: f.cascade }
            } else {
                FreeStep::SlotClear
            };
            (f.bytes, step)
        };
        self.live_objects = self.live_objects.saturating_sub(1);
        self.collector.on_free(&mut self.heap, addr, bytes);
        self.metrics.freed_bytes += bytes;
        self.metrics.freed_bytes_by_source[source.index()] += bytes;
        self.metrics.freed_objects_by_source[source.index()] += 1;
        self.metrics.heap_tcfreed[cat.index()] += 1;
        if let Some(t) = &mut self.tracer {
            let site = t.take_site(addr);
            t.record(TraceEvent::Free {
                at: self.clock.now(),
                addr,
                site,
                stack: self.cur_stack,
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
                stack: self.cur_stack,
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
        // policy; the mechanism below (metrics, live-object accounting,
        // trace events) is collector-agnostic.
        let cycle =
            self.collector
                .collect(&self.cfg, &mut self.heap, &mut self.clock, &mut self.rng);
        self.gc_pending = self.collector.gc_pending();
        let out = cycle.sweep;
        self.debug_check_heap();
        for f in &out.freed {
            self.metrics.heap_gced[f.cat.index()] += 1;
            self.live_objects = self.live_objects.saturating_sub(1);
        }

        let heap_marked = self.heap.heap_live();
        self.metrics.gcs += 1;
        match cycle.kind {
            CycleKind::Minor => self.metrics.gcs_minor += 1,
            CycleKind::Major => self.metrics.gcs_major += 1,
        }
        let ticks = self.clock.now() - before;
        self.metrics.gc_ticks += ticks;
        self.pauses.push(Pause {
            at: self.clock.now(),
            kind: cycle.kind,
            ticks,
        });
        if let Some(t) = &mut self.tracer {
            let at = self.clock.now();
            let mut swept = [0u64; 3];
            let mut swept_bytes = 0;
            for f in &out.freed {
                swept[f.cat.index()] += 1;
                swept_bytes += f.bytes;
                t.forget_site(f.addr);
                // Per-object detail so the profile builder can attribute
                // swept garbage back to its allocating stack; the fold
                // counts only the GcEnd totals below.
                t.record(TraceEvent::Sweep {
                    at,
                    addr: f.addr,
                    cat: f.cat,
                    bytes: f.bytes,
                });
            }
            t.record(TraceEvent::GcEnd {
                at,
                heap_live: heap_marked,
                next_goal: cycle.next_goal,
                swept,
                swept_bytes,
                dangling_retired: out.dangling_retired,
                ticks,
                kind: cycle.kind,
            });
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
            let checked = self.heap.check_invariants();
            if let Err(e) = checked.and_then(|()| self.collector.check_invariants(&self.heap)) {
                panic!("{e}");
            }
        }
    }

    /// Takes the recorded event stream (once, after the run; `None` when
    /// tracing was off). The trace is stamped with the active collector.
    pub fn take_trace(&mut self) -> Option<Trace> {
        let kind = self.collector.kind();
        self.tracer.take().map(|t| {
            let mut trace = t.finish();
            trace.collector = kind;
            trace
        })
    }

    /// Total heap footprint in bytes (pages held).
    pub fn footprint(&self) -> u64 {
        footprint(&self.heap)
    }

    /// Every completed GC cycle's stop record, in completion order.
    pub fn pauses(&self) -> &[Pause] {
        &self.pauses
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
        self.gc_pending = self.collector.gc_pending();
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
            threads: 2,
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
            gc_assist_divisor: u64::MAX, // close the window immediately
            ..quiet_cfg()
        });
        let mut addrs = Vec::new();
        while !rt.gc_pending() {
            addrs.push(rt.alloc(512, Category::Other));
            assert!(addrs.len() < 100, "pacing never triggered");
        }
        // Keep half alive.
        let marked = addrs.iter().step_by(2).filter(|&&a| rt.mark(a)).count();
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

        let zero_div = RuntimeConfig {
            gc_assist_divisor: 0,
            ..RuntimeConfig::default()
        };
        assert_eq!(zero_div.validate(), Err(ConfigError::ZeroAssistDivisor));

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
            gc_assist_divisor: u64::MAX, // close windows immediately
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
            gc_assist_divisor: u64::MAX,
            ..quiet_cfg()
        });
        // Fill a nursery generation and promote it (everything marked).
        let mut first_gen = Vec::new();
        while !rt.gc_pending() {
            first_gen.push(rt.alloc(512, Category::Other));
        }
        for &a in &first_gen {
            rt.mark(a);
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
        rt.record_store(a);
        assert_eq!(rt.now(), before, "mark-sweep barrier must be free");
    }

    #[test]
    fn generational_barrier_charges_old_stores() {
        let mut rt = Runtime::new(RuntimeConfig {
            collector: CollectorKind::Generational,
            nursery_size: 4096,
            min_heap: 1024 * 1024,
            gc_assist_divisor: u64::MAX,
            ..quiet_cfg()
        });
        let a = rt.alloc(512, Category::Other);
        let before = rt.now();
        rt.record_store(a);
        assert_eq!(rt.now(), before, "young store: no barrier cost");
        // Promote, then store into the now-old object.
        while !rt.gc_pending() {
            rt.alloc(512, Category::Other);
        }
        rt.mark(a);
        rt.collect();
        let before = rt.now();
        rt.record_store(a);
        assert_eq!(
            rt.now() - before,
            rt.config().costs.write_barrier,
            "old store enters the remembered set"
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
