//! The runtime event tracing layer: a typed, virtual-time-stamped event
//! stream recording every observable runtime action — allocations,
//! `tcfree` outcomes (including the small-object allocation-index
//! revert/cascade and the large-object dangling-span step), GC cycles
//! with their pacing trigger, mcache flushes, and §4.6.2 map-growth
//! frees.
//!
//! Like the shadow-heap sanitizer, tracing is **opt-in and invisible**:
//! the tracer never charges the clock, never touches [`Metrics`], and
//! never draws from the RNG, so a traced run's report (output, virtual
//! time, metrics, steps, site profile) is bit-identical to an untraced
//! one. Events are recorded *inside* the [`crate::Runtime`] methods both
//! VM engines drive through identical hook sequences, so traces are also
//! bit-identical across engines.
//!
//! The stream is complete: [`Trace::fold`] replays it into a [`Metrics`]
//! value and [`Trace::reconcile`] asserts the replay matches the metrics
//! the run actually produced — the property the workspace's
//! reconciliation tests enforce for every corpus program.
//!
//! On top of the raw stream the trace carries three profiling layers:
//! every allocation/free/bail event is stamped with an interned
//! **call-stack id** (see [`crate::profile::StackTable`]; the VM engines
//! enter and leave stacks through the runtime, and the [`Tracer`] interns
//! them), per-object [`TraceEvent::Sweep`] events let readers attribute
//! GC-reclaimed garbage back to its allocation, and [`HeapSnapshot`]s
//! capture per-size-class occupancy and fragmentation at every GC
//! safepoint. The join from a freed or swept address to its allocation is
//! written once, in [`Trace::replay`]. The event buffer may be capped
//! ([`Tracer::new`]); a capped stream counts what it dropped and
//! [`Trace::reconcile`] then fails loudly instead of reconciling a
//! truncated stream by accident.

use std::collections::HashMap;

use crate::collector::{CollectorKind, CycleKind};
use crate::fxhash::FxHashMap;
use crate::heap::{footprint, Heap, ObjAddr};
use crate::metrics::{BailReason, Category, FreeSource, Metrics};
use crate::profile::{StackId, StackTable, ROOT_STACK};
use crate::sizeclass::PAGE_SIZE;

/// An allocation-site id: the raw `ExprId` number assigned by the MiniGo
/// parser (`None` on events for runtime-internal allocations that have
/// no source expression).
pub type TraceSiteId = u32;

/// How an explicit small/large free returned memory (§5 and fig. 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FreeStep {
    /// Small object not on top of its span: the occupancy bit was
    /// cleared; the slot becomes reusable only after the next sweep.
    SlotClear,
    /// Small object on top: the span's allocation index was reverted,
    /// cascading over `cascade` earlier freed slots below it.
    Revert {
        /// Extra index steps the revert cascaded past (0 = only the
        /// freed slot itself was reclaimed for immediate reuse).
        cascade: u32,
    },
    /// Large object: fig. 9 step 1 — pages returned immediately, the
    /// span struct left dangling until the next GC sweep (step 2, visible
    /// as [`TraceEvent::GcEnd::dangling_retired`]).
    LargeStep1,
}

/// One typed runtime event, stamped with the virtual time (`at`) at which
/// it was recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A heap allocation was served.
    Alloc {
        /// Virtual timestamp (ticks).
        at: u64,
        /// Allocator address handed to the VM.
        addr: ObjAddr,
        /// Allocation-site expression id, when the VM attributed one.
        site: Option<TraceSiteId>,
        /// Interned call stack performing the allocation.
        stack: StackId,
        /// Allocation category (table 8).
        cat: Category,
        /// Accounted bytes (rounded size class for small objects).
        bytes: u64,
        /// Whether the large-object path served it.
        large: bool,
        /// Live heap bytes after the allocation.
        heap_live: u64,
        /// Page-level footprint after the allocation (maxheap input).
        footprint: u64,
    },
    /// The VM placed an object on the stack instead of the heap.
    StackAlloc {
        /// Virtual timestamp (ticks).
        at: u64,
        /// Allocation category.
        cat: Category,
        /// Interned call stack performing the allocation.
        stack: StackId,
    },
    /// A `tcfree` deallocated an object.
    Free {
        /// Virtual timestamp (ticks).
        at: u64,
        /// The freed address.
        addr: ObjAddr,
        /// Interned call stack performing the free (the object's
        /// allocating site and stack are joined from the address's
        /// [`TraceEvent::Alloc`] by [`Trace::replay`]).
        stack: StackId,
        /// The freed object's category.
        cat: Category,
        /// Which runtime entry point freed it (table 9's sources,
        /// including `GrowMapAndFreeOld`).
        source: FreeSource,
        /// Bytes returned.
        bytes: u64,
        /// What the free did structurally (revert/cascade/dangling).
        step: FreeStep,
        /// Live heap bytes after the free.
        heap_live: u64,
    },
    /// A `tcfree` gave up (§5's bail-outs).
    FreeBail {
        /// Virtual timestamp (ticks).
        at: u64,
        /// Why it bailed.
        reason: BailReason,
        /// Interned call stack attempting the free.
        stack: StackId,
    },
    /// Poison mode (§6.8): the free reported `Poisoned`; the object stays
    /// allocated and the VM corrupts the payload.
    FreePoison {
        /// Virtual timestamp (ticks).
        at: u64,
        /// The poisoned address.
        addr: ObjAddr,
        /// Interned call stack attempting the free.
        stack: StackId,
    },
    /// A simulated scheduler migration flushed a thread's mcache.
    McacheFlush {
        /// Virtual timestamp (ticks).
        at: u64,
        /// The thread whose mcache was flushed.
        thread: u32,
    },
    /// The GC pacer triggered: live heap crossed the goal. Opens the
    /// concurrent-mark window.
    GcStart {
        /// Virtual timestamp (ticks).
        at: u64,
        /// Live heap bytes at the trigger.
        heap_live: u64,
        /// The pacing goal that was crossed (`next_gc`, or the nursery
        /// size for a generational minor trigger).
        heap_goal: u64,
        /// Length of the concurrent-mark window in allocations.
        window: u64,
        /// Whether the triggered cycle is nursery-only or full-heap.
        kind: CycleKind,
    },
    /// A GC sweep reclaimed one unmarked object (recorded per object so
    /// the profile builder can attribute swept garbage back to the
    /// allocating stack; the per-cycle totals stay on
    /// [`TraceEvent::GcEnd`], which is what [`Trace::fold`] counts).
    Sweep {
        /// Virtual timestamp (ticks) — the cycle's end time.
        at: u64,
        /// The reclaimed address.
        addr: ObjAddr,
        /// The reclaimed object's category.
        cat: Category,
        /// Bytes reclaimed.
        bytes: u64,
    },
    /// A mark+sweep cycle completed.
    GcEnd {
        /// Virtual timestamp (ticks).
        at: u64,
        /// Live heap bytes after the sweep (`heap_marked`).
        heap_live: u64,
        /// The next pacing goal derived from GOGC.
        next_goal: u64,
        /// Objects swept per category (table 8's "Heap GC" input).
        swept: [u64; 3],
        /// Bytes swept.
        swept_bytes: u64,
        /// Dangling large-object spans that completed fig. 9 step 2.
        dangling_retired: u64,
        /// Virtual ticks the cycle cost (mark + sweep).
        ticks: u64,
        /// Whether the completed cycle was nursery-only or full-heap.
        kind: CycleKind,
    },
    /// End-of-run accounting: objects still live count toward the GC
    /// columns, and the final footprint feeds `maxheap`.
    Finalize {
        /// Virtual timestamp (ticks).
        at: u64,
        /// Leftover live objects per category.
        leftover: [u64; 3],
        /// Final page-level footprint.
        footprint: u64,
    },
    /// One completed service request (the service harness' span events).
    /// Pure annotation: [`Trace::fold`] ignores it, so traces with and
    /// without request spans reconcile against the same [`Metrics`].
    Request {
        /// Virtual timestamp (ticks) — the request's completion time.
        at: u64,
        /// Request index in arrival order.
        id: u64,
        /// When the request arrived (open-loop schedule time).
        arrival: u64,
        /// When the server started executing it (`≥ arrival`; the gap is
        /// queueing delay).
        start: u64,
    },
}

impl TraceEvent {
    /// The event's virtual timestamp.
    pub fn at(&self) -> u64 {
        match *self {
            TraceEvent::Alloc { at, .. }
            | TraceEvent::StackAlloc { at, .. }
            | TraceEvent::Free { at, .. }
            | TraceEvent::FreeBail { at, .. }
            | TraceEvent::FreePoison { at, .. }
            | TraceEvent::McacheFlush { at, .. }
            | TraceEvent::GcStart { at, .. }
            | TraceEvent::Sweep { at, .. }
            | TraceEvent::GcEnd { at, .. }
            | TraceEvent::Finalize { at, .. }
            | TraceEvent::Request { at, .. } => at,
        }
    }
}

/// Per-size-class occupancy inside a [`HeapSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassOccupancy {
    /// Size-class index.
    pub class: usize,
    /// Bytes per slot in this class.
    pub slot_size: u64,
    /// Active spans of this class.
    pub spans: u64,
    /// Total slots those spans carve out.
    pub slots: u64,
    /// Occupied slots.
    pub live_slots: u64,
    /// Bytes held by occupied slots (`live_slots * slot_size`).
    pub live_bytes: u64,
    /// Bytes of backing pages (`spans * npages * PAGE_SIZE`) — the
    /// denominator of the class's fragmentation ratio.
    pub span_bytes: u64,
}

/// A point-in-time picture of the heap, captured at GC safepoints (the
/// pacer trigger, before the sweep runs, so the garbage and any
/// fig. 9 dangling spans are still visible) and once at end of run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeapSnapshot {
    /// Virtual timestamp (ticks).
    pub at: u64,
    /// 1-based GC cycle about to run, or `None` for the end-of-run
    /// snapshot.
    pub cycle: Option<u64>,
    /// Per-size-class occupancy, ascending class order; classes with no
    /// active span are omitted.
    pub classes: Vec<ClassOccupancy>,
    /// Active dedicated large-object spans (pages still held).
    pub large_spans: u64,
    /// Live bytes in those large spans.
    pub large_bytes: u64,
    /// Backing-page bytes of those large spans.
    pub large_span_bytes: u64,
    /// Large-object spans in fig. 9's dangling state: pages already
    /// returned by step 1, the span struct awaiting step 2 at the next
    /// sweep.
    pub dangling_spans: u64,
    /// Live heap bytes (the pacer's input).
    pub heap_live: u64,
    /// Page-level footprint (the `maxheap` input).
    pub footprint: u64,
}

impl HeapSnapshot {
    /// Captures the heap's current occupancy.
    pub fn capture(heap: &Heap, at: u64, cycle: Option<u64>) -> Self {
        let mut classes: HashMap<usize, ClassOccupancy> = HashMap::new();
        let (mut large_spans, mut large_bytes, mut large_span_bytes) = (0, 0, 0);
        let mut dangling_spans = 0;
        for i in 0..heap.span_count() {
            let span = heap.span(crate::heap::SpanId(i as u32));
            if span.dangling {
                dangling_spans += 1;
                continue;
            }
            if !span.active {
                continue;
            }
            match span.class {
                Some(class) => {
                    let c = classes.entry(class).or_insert(ClassOccupancy {
                        class,
                        slot_size: span.slot_size,
                        spans: 0,
                        slots: 0,
                        live_slots: 0,
                        live_bytes: 0,
                        span_bytes: 0,
                    });
                    c.spans += 1;
                    c.slots += span.nslots as u64;
                    let live = span.live_slots() as u64;
                    c.live_slots += live;
                    c.live_bytes += live * span.slot_size;
                    c.span_bytes += span.npages as u64 * PAGE_SIZE;
                }
                None => {
                    large_spans += 1;
                    large_bytes += span.slot_size;
                    large_span_bytes += span.npages as u64 * PAGE_SIZE;
                }
            }
        }
        let mut classes: Vec<ClassOccupancy> = classes.into_values().collect();
        classes.sort_by_key(|c| c.class);
        HeapSnapshot {
            at,
            cycle,
            classes,
            large_spans,
            large_bytes,
            large_span_bytes,
            dangling_spans,
            heap_live: heap.heap_live(),
            footprint: footprint(heap),
        }
    }
}

/// Initial event-buffer capacity: most corpus runs fit without a single
/// reallocation; longer runs grow the buffer geometrically (an append
/// buffer — unless capped, events are never dropped, so folding stays
/// exact).
const TRACE_PREALLOC: usize = 4096;

/// The recording side, owned by the [`crate::Runtime`] when
/// [`crate::RuntimeConfig::trace`] is on: the [`Trace`] being built, its
/// buffer cap, and the call stack events are stamped with. It is the one
/// place a run's history is recorded.
#[derive(Debug)]
pub struct Tracer {
    trace: Trace,
    /// Optional hard cap on the event buffer; `None` = unbounded.
    cap: Option<usize>,
    /// The current interned call stack ([`ROOT_STACK`] when no VM frame
    /// is active), stamped onto alloc/free/bail events.
    stack: StackId,
}

impl Tracer {
    /// Creates a tracer for a run of `collector` whose event buffer holds
    /// at most `cap` events (`None` = unbounded); further events are
    /// counted in `events_dropped` instead of recorded, and the resulting
    /// truncated [`Trace`] refuses to reconcile.
    pub fn new(collector: CollectorKind, cap: Option<usize>) -> Self {
        let prealloc = cap.map_or(TRACE_PREALLOC, |c| c.min(TRACE_PREALLOC));
        Tracer {
            trace: Trace {
                collector,
                events: Vec::with_capacity(prealloc),
                ..Trace::default()
            },
            cap,
            stack: ROOT_STACK,
        }
    }

    /// Appends an event (or counts it as dropped when the buffer is at
    /// its cap — never silently).
    pub fn record(&mut self, ev: TraceEvent) {
        match self.cap {
            Some(cap) if self.trace.events.len() >= cap => self.trace.events_dropped += 1,
            _ => self.trace.events.push(ev),
        }
    }

    /// Appends a heap snapshot (bounded by the GC count, never capped).
    pub fn snapshot(&mut self, snap: HeapSnapshot) {
        self.trace.snapshots.push(snap);
    }

    /// The call stack subsequent events are stamped with.
    pub fn stack(&self) -> StackId {
        self.stack
    }

    /// Enters a call to `name`: interns the current stack extended with
    /// it, makes that the current stack, and returns the caller's stack
    /// for [`Tracer::leave_stack`]. Interning follows the call sequence,
    /// so stack ids do not depend on the engine.
    pub fn enter_stack(&mut self, name: &str) -> StackId {
        let parent = self.stack;
        self.stack = self.trace.stacks.push(parent, name);
        parent
    }

    /// Returns to the caller's stack on function exit.
    pub fn leave_stack(&mut self, parent: StackId) {
        self.stack = parent;
    }

    /// Finishes recording, yielding the immutable trace.
    pub fn finish(self) -> Trace {
        self.trace
    }
}

/// A completed run's event stream, carried out-of-band in the run report
/// (like sanitizer violations).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    /// Which collection backend produced the stream.
    pub collector: CollectorKind,
    /// Events in recording order (timestamps are non-decreasing).
    pub events: Vec<TraceEvent>,
    /// Events the buffer cap discarded (0 for unbounded tracers; a
    /// non-zero value marks the stream truncated and poisons
    /// [`Trace::reconcile`]).
    pub events_dropped: u64,
    /// Heap snapshots captured at each GC trigger plus end of run.
    pub snapshots: Vec<HeapSnapshot>,
    /// Interned call stacks referenced by the events' `stack` ids (only
    /// the root for runtimes driven without a VM).
    pub stacks: StackTable,
}

/// The allocation an address came from, as [`Trace::replay`] joins it
/// from the address's [`TraceEvent::Alloc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Origin {
    /// The allocation site (`None` for runtime-internal allocations).
    pub site: Option<TraceSiteId>,
    /// The allocating call stack.
    pub stack: StackId,
    /// When the object was allocated (virtual ticks).
    pub at: u64,
    /// Accounted bytes.
    pub bytes: u64,
}

/// One event of [`Trace::replay`], with what the replay joined onto it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replayed<'a> {
    /// The event, in recording order.
    pub event: &'a TraceEvent,
    /// For a [`TraceEvent::Free`] or [`TraceEvent::Sweep`]: the
    /// allocation that produced its address (`None` on every other event,
    /// and when the stream holds no such allocation).
    pub origin: Option<Origin>,
    /// For a [`TraceEvent::Finalize`]: every object still live, by birth
    /// tick then address (empty on every other event).
    pub live: Vec<Origin>,
}

impl Trace {
    /// Replays the stream, joining each freed or swept address to the
    /// [`TraceEvent::Alloc`] that produced it and handing over the
    /// objects still live at [`TraceEvent::Finalize`]. Addresses are
    /// reused, so a join always names the *latest* allocation at the
    /// address.
    pub fn replay(&self) -> impl Iterator<Item = Replayed<'_>> {
        let mut live: FxHashMap<ObjAddr, Origin> = FxHashMap::default();
        self.events.iter().map(move |event| {
            let mut step = Replayed {
                event,
                origin: None,
                live: Vec::new(),
            };
            match *event {
                TraceEvent::Alloc {
                    at,
                    addr,
                    site,
                    stack,
                    bytes,
                    ..
                } => {
                    let origin = Origin {
                        site,
                        stack,
                        at,
                        bytes,
                    };
                    live.insert(addr, origin);
                }
                TraceEvent::Free { addr, .. } | TraceEvent::Sweep { addr, .. } => {
                    step.origin = live.remove(&addr);
                }
                TraceEvent::Finalize { .. } => {
                    let mut objs: Vec<(ObjAddr, Origin)> = live.drain().collect();
                    objs.sort_by_key(|&(addr, o)| (o.at, addr));
                    step.live = objs.into_iter().map(|(_, o)| o).collect();
                }
                _ => {}
            }
            step
        })
    }

    /// Replays the event stream into the [`Metrics`] it implies.
    ///
    /// Every counter the runtime maintains is derivable from the stream;
    /// the only exception is [`Metrics::frees_suppressed`], a
    /// compile-time fact that never passes through the runtime (the fold
    /// leaves it 0; [`Trace::reconcile`] copies it from the target).
    pub fn fold(&self) -> Metrics {
        let mut m = Metrics::default();
        for ev in &self.events {
            match *ev {
                TraceEvent::Alloc {
                    cat,
                    bytes,
                    footprint,
                    ..
                } => {
                    m.alloced_bytes += bytes;
                    m.alloced_objects += 1;
                    m.heap_allocs[cat.index()] += 1;
                    m.maxheap = m.maxheap.max(footprint);
                }
                TraceEvent::StackAlloc { cat, .. } => m.record_stack_alloc(cat),
                TraceEvent::Free {
                    cat, source, bytes, ..
                } => {
                    m.tcfree_attempts += 1;
                    m.freed_bytes += bytes;
                    m.freed_bytes_by_source[source.index()] += bytes;
                    m.freed_objects_by_source[source.index()] += 1;
                    m.heap_tcfreed[cat.index()] += 1;
                }
                TraceEvent::FreeBail { reason, .. } => {
                    m.tcfree_attempts += 1;
                    m.tcfree_bails[reason.index()] += 1;
                }
                TraceEvent::FreePoison { .. } => m.tcfree_attempts += 1,
                // Per-object sweep detail; the fold counts the cycle's
                // GcEnd totals instead, so sweeps don't double-count.
                TraceEvent::Sweep { .. } => {}
                TraceEvent::McacheFlush { .. }
                | TraceEvent::GcStart { .. }
                | TraceEvent::Request { .. } => {}
                TraceEvent::GcEnd {
                    swept, ticks, kind, ..
                } => {
                    m.gcs += 1;
                    match kind {
                        CycleKind::Minor => m.gcs_minor += 1,
                        CycleKind::Major => m.gcs_major += 1,
                    }
                    m.gc_ticks += ticks;
                    for (i, n) in swept.iter().enumerate() {
                        m.heap_gced[i] += n;
                    }
                }
                TraceEvent::Finalize {
                    leftover,
                    footprint,
                    ..
                } => {
                    m.maxheap = m.maxheap.max(footprint);
                    for (i, n) in leftover.iter().enumerate() {
                        m.heap_gced[i] += n;
                    }
                }
            }
        }
        m
    }

    /// Checks the folded stream reproduces `target` exactly.
    ///
    /// # Errors
    ///
    /// Returns a description of the first divergence. A truncated stream
    /// (the tracer's buffer cap dropped events) fails immediately and
    /// loudly — a partial fold could otherwise diverge in ways that look
    /// like runtime bugs, or worse, happen to match.
    pub fn reconcile(&self, target: &Metrics) -> Result<(), String> {
        if self.events_dropped > 0 {
            return Err(format!(
                "trace truncated: the buffer cap dropped {} events; a partial stream cannot reconcile",
                self.events_dropped
            ));
        }
        let mut folded = self.fold();
        // Compile-time fact, not a runtime event (see `fold`).
        folded.frees_suppressed = target.frees_suppressed;
        let f = format!("{folded:?}");
        let t = format!("{target:?}");
        if f == t {
            Ok(())
        } else {
            Err(format!(
                "trace does not reconcile with metrics\n folded:  {f}\n metrics: {t}"
            ))
        }
    }

    /// Samples the live-heap curve the stream implies: `(at, heap_live)`
    /// after every event that moves the live-heap figure — the fig. 10/11
    /// heap-size view, re-derived from events instead of end-of-run
    /// aggregates.
    pub fn heap_curve(&self) -> Vec<(u64, u64)> {
        self.events
            .iter()
            .filter_map(|ev| match *ev {
                TraceEvent::Alloc { at, heap_live, .. }
                | TraceEvent::Free { at, heap_live, .. }
                | TraceEvent::GcEnd { at, heap_live, .. } => Some((at, heap_live)),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::SpanId;

    fn addr(n: u32) -> ObjAddr {
        ObjAddr {
            span: SpanId(n),
            slot: 0,
        }
    }

    #[test]
    fn fold_reproduces_counters() {
        let trace = Trace {
            events: vec![
                TraceEvent::Alloc {
                    at: 10,
                    addr: addr(0),
                    site: Some(3),
                    stack: 1,
                    cat: Category::Slice,
                    bytes: 112,
                    large: false,
                    heap_live: 112,
                    footprint: 8192,
                },
                TraceEvent::StackAlloc {
                    at: 11,
                    cat: Category::Other,
                    stack: 1,
                },
                TraceEvent::Free {
                    at: 20,
                    addr: addr(0),
                    stack: 1,
                    cat: Category::Slice,
                    source: FreeSource::SliceLifetime,
                    bytes: 112,
                    step: FreeStep::Revert { cascade: 0 },
                    heap_live: 0,
                },
                TraceEvent::FreeBail {
                    at: 21,
                    reason: BailReason::AlreadyFree,
                    stack: 1,
                },
                TraceEvent::Sweep {
                    at: 30,
                    addr: addr(1),
                    cat: Category::Map,
                    bytes: 96,
                },
                TraceEvent::GcEnd {
                    at: 30,
                    heap_live: 0,
                    next_goal: 512 * 1024,
                    swept: [0, 2, 1],
                    swept_bytes: 96,
                    dangling_retired: 1,
                    ticks: 6000,
                    kind: CycleKind::Major,
                },
                TraceEvent::Finalize {
                    at: 31,
                    leftover: [0, 0, 1],
                    footprint: 4096,
                },
            ],
            ..Trace::default()
        };
        let m = trace.fold();
        assert_eq!(m.alloced_bytes, 112);
        assert_eq!(m.alloced_objects, 1);
        assert_eq!(m.freed_bytes, 112);
        assert_eq!(m.tcfree_attempts, 2);
        assert_eq!(m.tcfree_bails[BailReason::AlreadyFree.index()], 1);
        assert_eq!(m.gcs, 1);
        assert_eq!(m.gcs_major, 1);
        assert_eq!(m.gcs_minor, 0);
        assert_eq!(m.gc_ticks, 6000);
        assert_eq!(m.maxheap, 8192);
        assert_eq!(m.stack_allocs[Category::Other.index()], 1);
        assert_eq!(m.heap_gced, [0, 2, 2]);
        assert_eq!(m.heap_tcfreed[Category::Slice.index()], 1);
        trace.reconcile(&m).expect("fold reconciles with itself");
    }

    #[test]
    fn reconcile_reports_divergence() {
        let trace = Trace::default();
        let target = Metrics {
            alloced_bytes: 1,
            ..Metrics::default()
        };
        let err = trace.reconcile(&target).unwrap_err();
        assert!(err.contains("does not reconcile"), "{err}");
    }

    #[test]
    fn reconcile_ignores_frees_suppressed() {
        let trace = Trace::default();
        let target = Metrics {
            frees_suppressed: 5,
            ..Metrics::default()
        };
        trace.reconcile(&target).expect("compile-time field copied");
    }

    #[test]
    fn capped_tracer_counts_drops_and_refuses_to_reconcile() {
        let mut t = Tracer::new(CollectorKind::Go, Some(2));
        for i in 0..5 {
            t.record(TraceEvent::StackAlloc {
                at: i,
                cat: Category::Other,
                stack: 0,
            });
        }
        let trace = t.finish();
        assert_eq!(trace.events.len(), 2, "cap bounds the buffer");
        assert_eq!(trace.events_dropped, 3, "every drop is counted");
        let mut m = Metrics::default();
        for _ in 0..5 {
            m.record_stack_alloc(Category::Other);
        }
        let err = trace.reconcile(&m).unwrap_err();
        assert!(err.contains("truncated"), "loud failure, got: {err}");
        assert!(err.contains('3'), "names the drop count, got: {err}");
        // And an uncapped tracer over the same stream reconciles.
        let mut t = Tracer::new(CollectorKind::Go, None);
        for i in 0..5 {
            t.record(TraceEvent::StackAlloc {
                at: i,
                cat: Category::Other,
                stack: 0,
            });
        }
        t.finish().reconcile(&m).expect("unbounded stream folds");
    }

    #[test]
    fn snapshot_captures_class_occupancy_and_dangling_spans() {
        use crate::sizeclass::class_for;
        let mut h = Heap::new(1);
        let class = class_for(64);
        let keep = h.alloc_small(class, 0, Category::Other).0;
        h.alloc_small(class, 0, Category::Slice);
        let big = h.alloc_large(PAGE_SIZE * 3, 0, Category::Other);
        let snap = HeapSnapshot::capture(&h, 42, Some(1));
        assert_eq!(snap.at, 42);
        assert_eq!(snap.cycle, Some(1));
        assert_eq!(snap.classes.len(), 1, "one small class in use");
        let c = &snap.classes[0];
        assert_eq!(c.class, class);
        assert_eq!(c.live_slots, 2);
        assert_eq!(c.live_bytes, 2 * c.slot_size);
        assert!(c.span_bytes >= PAGE_SIZE);
        assert_eq!(snap.large_spans, 1);
        assert_eq!(snap.large_bytes, PAGE_SIZE * 3);
        assert_eq!(snap.large_span_bytes, PAGE_SIZE * 3);
        assert_eq!(snap.dangling_spans, 0);
        assert_eq!(snap.heap_live, h.heap_live());
        assert_eq!(snap.footprint, footprint(&h));

        // Fig. 9 step 1 leaves the span dangling: pages gone, struct
        // counted in the snapshot until the next sweep retires it.
        h.free_large_step1(big);
        let snap = HeapSnapshot::capture(&h, 43, None);
        assert_eq!(snap.cycle, None);
        assert_eq!(snap.large_spans, 0);
        assert_eq!(snap.dangling_spans, 1);
        let _ = keep;
    }

    #[test]
    fn heap_curve_samples_live_bytes() {
        let trace = Trace {
            events: vec![
                TraceEvent::Alloc {
                    at: 1,
                    addr: addr(0),
                    site: None,
                    stack: 0,
                    cat: Category::Other,
                    bytes: 64,
                    large: false,
                    heap_live: 64,
                    footprint: 8192,
                },
                TraceEvent::GcStart {
                    at: 2,
                    heap_live: 64,
                    heap_goal: 64,
                    window: 16,
                    kind: CycleKind::Major,
                },
                TraceEvent::GcEnd {
                    at: 3,
                    heap_live: 0,
                    next_goal: 1024,
                    swept: [0, 0, 1],
                    swept_bytes: 64,
                    dangling_retired: 0,
                    ticks: 100,
                    kind: CycleKind::Major,
                },
            ],
            ..Trace::default()
        };
        assert_eq!(trace.heap_curve(), vec![(1, 64), (3, 0)]);
        assert_eq!(trace.events[1].at(), 2);
    }
}
