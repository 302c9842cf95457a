//! Call-stack interning and the allocation-profile builder.
//!
//! A [`StackTable`] interns MiniGo call stacks as parent-pointer nodes
//! over interned function names, pprof-style. The table belongs to the
//! trace: the VM engines only enter and leave stacks through
//! [`crate::Runtime::enter_stack`] / [`crate::Runtime::leave_stack`], and
//! the [`crate::Tracer`] interns them and stamps the current id onto
//! every alloc/free/bail event. Both engines drive function entry/exit
//! through identical sequences, so interning order — and therefore every
//! stack id — is bit-identical across the tree-walk and bytecode
//! engines, the same contract the tracer established for events.
//!
//! [`Profile::build`] is a fold over [`Trace::replay`] (which joins each
//! free, sweep and leftover to its allocation) into per-stack
//! allocation/free/bail statistics and per-site lifetime ("drag")
//! histograms: how many virtual ticks objects sat between allocation and
//! their `tcfree`, versus allocation and their GC sweep — the gap
//! Karkare-style heap-liveness work measures between ideal and actual
//! reclamation. [`Profile::reconcile`] asserts the per-stack sums add up
//! exactly to the run's [`Metrics`], so the profile layer can never
//! drift from the published numbers.

use std::collections::HashMap;

use crate::histogram::Histogram;
use crate::metrics::Metrics;
use crate::trace::{Replayed, Trace, TraceEvent, TraceSiteId};

/// An interned call-stack id. Id 0 ([`ROOT_STACK`]) is the empty stack
/// (no MiniGo frame active — e.g. end-of-run accounting).
pub type StackId = u32;

/// The id of the empty root stack.
pub const ROOT_STACK: StackId = 0;

/// One interned stack node: a frame appended to a parent stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StackNode {
    /// The stack below this frame ([`ROOT_STACK`] for outermost frames).
    parent: StackId,
    /// Index into the interned frame-name list (`u32::MAX` for the
    /// root node itself).
    frame: u32,
}

/// An interned table of call stacks: parent-pointer nodes over interned
/// function names, so each distinct stack is stored once and identified
/// by a dense `u32` id.
///
/// Interning is deterministic in call order: pushing the same sequence
/// of frames always yields the same ids, which is what makes stack ids
/// bit-identical across the two VM engines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StackTable {
    /// Interned frame (function) names.
    frames: Vec<String>,
    frame_ids: HashMap<String, u32>,
    /// Parent-pointer nodes; `nodes[0]` is the root (empty stack).
    nodes: Vec<StackNode>,
    node_ids: HashMap<(StackId, u32), StackId>,
}

impl StackTable {
    /// Creates a table holding only the root (empty) stack.
    pub fn new() -> Self {
        StackTable {
            frames: Vec::new(),
            frame_ids: HashMap::new(),
            nodes: vec![StackNode {
                parent: ROOT_STACK,
                frame: u32::MAX,
            }],
            node_ids: HashMap::new(),
        }
    }

    /// Interns the stack `parent` extended with a call to `name`,
    /// returning its id (stable across repeat pushes).
    pub fn push(&mut self, parent: StackId, name: &str) -> StackId {
        let frame = match self.frame_ids.get(name) {
            Some(&f) => f,
            None => {
                let f = self.frames.len() as u32;
                self.frames.push(name.to_string());
                self.frame_ids.insert(name.to_string(), f);
                f
            }
        };
        match self.node_ids.get(&(parent, frame)) {
            Some(&id) => id,
            None => {
                let id = self.nodes.len() as StackId;
                self.nodes.push(StackNode { parent, frame });
                self.node_ids.insert((parent, frame), id);
                id
            }
        }
    }

    /// The frames of stack `id`, outermost first (root → leaf).
    pub fn frames_of(&self, id: StackId) -> Vec<&str> {
        let mut rev = Vec::new();
        let mut cur = id;
        while cur != ROOT_STACK {
            let node = self.nodes[cur as usize];
            rev.push(self.frames[node.frame as usize].as_str());
            cur = node.parent;
        }
        rev.reverse();
        rev
    }

    /// The stack rendered in Brendan Gregg folded form:
    /// `outer;middle;leaf` (the root stack renders as `(root)`).
    pub fn folded(&self, id: StackId) -> String {
        if id == ROOT_STACK {
            return "(root)".to_string();
        }
        self.frames_of(id).join(";")
    }

    /// Number of interned stacks (including the root).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether only the root stack exists.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }
}

impl Default for StackTable {
    fn default() -> Self {
        StackTable::new()
    }
}

/// Number of log₂ drag buckets: bucket 0 holds drag 0, bucket `i ≥ 1`
/// holds drags in `[2^(i-1), 2^i)` ticks, and the last bucket absorbs
/// everything longer (the [`Histogram`] bucketing rule).
pub const DRAG_BUCKETS: usize = 24;

/// Per-allocation-site lifetime ("drag") histogram: virtual ticks
/// between allocation and reclamation, split by how the object died.
/// The histograms carry the per-source count (`.count()`) and summed
/// drag ticks (`.sum()`) that used to live in separate fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteDrag {
    /// The allocation site (`None` = runtime-internal allocations).
    pub site: Option<TraceSiteId>,
    /// Objects reclaimed by `tcfree`, bucketed by log₂ drag.
    pub tcfree: Histogram<DRAG_BUCKETS>,
    /// Objects reclaimed by a GC sweep, bucketed by log₂ drag.
    pub sweep: Histogram<DRAG_BUCKETS>,
}

impl SiteDrag {
    fn new(site: Option<TraceSiteId>) -> Self {
        SiteDrag {
            site,
            tcfree: Histogram::new(),
            sweep: Histogram::new(),
        }
    }
}

/// Per-stack allocation statistics. Objects are attributed to the stack
/// that **allocated** them (frees and sweeps included), except the
/// attempt counters `free_ops`, `bails`, and `poisons`, which belong to
/// the stack performing the attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StackStat {
    /// Heap objects allocated by this stack.
    pub allocs: u64,
    /// Accounted bytes those allocations took.
    pub alloc_bytes: u64,
    /// Stack (non-heap) allocations made by this stack.
    pub stack_allocs: u64,
    /// Of this stack's heap objects, how many a `tcfree` reclaimed.
    pub frees: u64,
    /// Bytes `tcfree` reclaimed from this stack's objects.
    pub free_bytes: u64,
    /// Of this stack's heap objects, how many a GC sweep reclaimed.
    pub swept: u64,
    /// Bytes GC sweeps reclaimed from this stack's objects.
    pub swept_bytes: u64,
    /// Objects of this stack still live at end of run.
    pub leftover: u64,
    /// Bytes still live at end of run.
    pub leftover_bytes: u64,
    /// Successful `tcfree` calls performed *at* this stack.
    pub free_ops: u64,
    /// `tcfree` bail-outs at this stack (§5).
    pub bails: u64,
    /// Poison-mode (§6.8) pseudo-frees at this stack.
    pub poisons: u64,
}

impl StackStat {
    /// Bytes this stack produced that GoFree did **not** reclaim — the
    /// garbage left for the collector (swept) or the end of the run
    /// (leftover).
    pub fn garbage_bytes(&self) -> u64 {
        self.swept_bytes + self.leftover_bytes
    }

    fn add(&mut self, other: &StackStat) {
        self.allocs += other.allocs;
        self.alloc_bytes += other.alloc_bytes;
        self.stack_allocs += other.stack_allocs;
        self.frees += other.frees;
        self.free_bytes += other.free_bytes;
        self.swept += other.swept;
        self.swept_bytes += other.swept_bytes;
        self.leftover += other.leftover;
        self.leftover_bytes += other.leftover_bytes;
        self.free_ops += other.free_ops;
        self.bails += other.bails;
        self.poisons += other.poisons;
    }
}

/// A per-stack, per-site profile folded from a run's event stream.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Profile {
    /// Per-stack statistics, in ascending stack-id order (deterministic:
    /// ids are interning order, identical across engines).
    pub stacks: Vec<(StackId, StackStat)>,
    /// Per-site drag histograms, in ascending site order with the
    /// unattributed (`None`) row last.
    pub sites: Vec<SiteDrag>,
    /// Events the tracer's buffer cap discarded (a non-zero value means
    /// the profile is incomplete and will not reconcile).
    pub events_dropped: u64,
}

impl Profile {
    /// Folds a trace into the per-stack/per-site profile over
    /// [`Trace::replay`], which joins every free, sweep and end-of-run
    /// leftover to its allocating stack, site and birth time.
    pub fn build(trace: &Trace) -> Profile {
        let mut stats: HashMap<StackId, StackStat> = HashMap::new();
        let mut drags: HashMap<Option<TraceSiteId>, SiteDrag> = HashMap::new();
        for Replayed {
            event,
            origin,
            live,
        } in trace.replay()
        {
            match *event {
                TraceEvent::Alloc { stack, bytes, .. } => {
                    let s = stats.entry(stack).or_default();
                    s.allocs += 1;
                    s.alloc_bytes += bytes;
                }
                TraceEvent::StackAlloc { stack, .. } => {
                    stats.entry(stack).or_default().stack_allocs += 1;
                }
                TraceEvent::Free {
                    at, stack, bytes, ..
                } => {
                    stats.entry(stack).or_default().free_ops += 1;
                    // Attribute the reclaimed object to its allocator.
                    let (origin_stack, origin_site, born) =
                        origin.map_or((stack, None, at), |o| (o.stack, o.site, o.at));
                    let s = stats.entry(origin_stack).or_default();
                    s.frees += 1;
                    s.free_bytes += bytes;
                    let d = drags
                        .entry(origin_site)
                        .or_insert_with(|| SiteDrag::new(origin_site));
                    d.tcfree.record(at.saturating_sub(born));
                }
                TraceEvent::FreeBail { stack, .. } => {
                    stats.entry(stack).or_default().bails += 1;
                }
                TraceEvent::FreePoison { stack, .. } => {
                    stats.entry(stack).or_default().poisons += 1;
                }
                TraceEvent::Sweep { at, bytes, .. } => {
                    let (origin_stack, origin_site, born) =
                        origin.map_or((ROOT_STACK, None, at), |o| (o.stack, o.site, o.at));
                    let s = stats.entry(origin_stack).or_default();
                    s.swept += 1;
                    s.swept_bytes += bytes;
                    let d = drags
                        .entry(origin_site)
                        .or_insert_with(|| SiteDrag::new(origin_site));
                    d.sweep.record(at.saturating_sub(born));
                }
                // Objects still live would eventually be collected; they
                // stay attributed to their allocating stacks.
                TraceEvent::Finalize { .. } => {
                    for o in live {
                        let s = stats.entry(o.stack).or_default();
                        s.leftover += 1;
                        s.leftover_bytes += o.bytes;
                    }
                }
                TraceEvent::McacheFlush { .. }
                | TraceEvent::GcStart { .. }
                | TraceEvent::GcEnd(_)
                | TraceEvent::Request { .. } => {}
            }
        }
        let mut stacks: Vec<(StackId, StackStat)> = stats.into_iter().collect();
        stacks.sort_by_key(|&(id, _)| id);
        let mut sites: Vec<SiteDrag> = drags.into_values().collect();
        sites.sort_by_key(|d| (d.site.is_none(), d.site));
        Profile {
            stacks,
            sites,
            events_dropped: trace.events_dropped,
        }
    }

    /// Sums every per-stack row into one [`StackStat`].
    pub fn totals(&self) -> StackStat {
        let mut total = StackStat::default();
        for (_, s) in &self.stacks {
            total.add(s);
        }
        total
    }

    /// Per-stack rows sorted by a key, descending (ties broken by stack
    /// id ascending, so orderings are deterministic).
    pub fn ranked_by<F: Fn(&StackStat) -> u64>(&self, key: F) -> Vec<(StackId, StackStat)> {
        let mut rows = self.stacks.clone();
        rows.sort_by(|a, b| key(&b.1).cmp(&key(&a.1)).then(a.0.cmp(&b.0)));
        rows
    }

    /// Checks that the per-stack sums reproduce the run's [`Metrics`]
    /// exactly — the same field-exact contract as
    /// [`Trace::reconcile`](crate::trace::Trace::reconcile).
    ///
    /// # Errors
    ///
    /// Returns a description of the first divergence (or of a truncated
    /// stream: a profile built from a capped trace never reconciles).
    pub fn reconcile(&self, target: &Metrics) -> Result<(), String> {
        if self.events_dropped > 0 {
            return Err(format!(
                "profile built from a truncated trace ({} events dropped by the buffer cap)",
                self.events_dropped
            ));
        }
        let t = self.totals();
        let checks: [(&str, u64, u64); 8] = [
            ("alloc objects", t.allocs, target.alloced_objects),
            ("alloc bytes", t.alloc_bytes, target.alloced_bytes),
            (
                "stack allocs",
                t.stack_allocs,
                target.stack_allocs.iter().sum(),
            ),
            (
                "tcfreed objects",
                t.frees,
                target.freed_objects_by_source.iter().sum(),
            ),
            ("tcfreed bytes", t.free_bytes, target.freed_bytes),
            ("tcfree bails", t.bails, target.tcfree_bails.iter().sum()),
            (
                "tcfree attempts",
                t.free_ops + t.bails + t.poisons,
                target.tcfree_attempts,
            ),
            (
                "gc-reclaimed objects",
                t.swept + t.leftover,
                target.heap_gced.iter().sum(),
            ),
        ];
        for (what, folded, metric) in checks {
            if folded != metric {
                return Err(format!(
                    "profile does not reconcile with metrics: {what} folded={folded} metrics={metric}"
                ));
            }
        }
        if t.free_ops != t.frees {
            return Err(format!(
                "profile internal mismatch: free ops {} != freed objects {}",
                t.free_ops, t.frees
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::{ObjAddr, SpanId};
    use crate::metrics::{Category, FreeSource};
    use crate::trace::FreeStep;

    fn addr(n: u32) -> ObjAddr {
        ObjAddr {
            span: SpanId(n),
            slot: 0,
        }
    }

    #[test]
    fn interning_is_deterministic_and_deduplicated() {
        let mut t = StackTable::new();
        let main = t.push(ROOT_STACK, "main");
        let f = t.push(main, "f");
        let g = t.push(f, "g");
        assert_eq!(t.push(ROOT_STACK, "main"), main);
        assert_eq!(t.push(main, "f"), f);
        assert_eq!(t.frames_of(g), vec!["main", "f", "g"]);
        assert_eq!(t.folded(g), "main;f;g");
        assert_eq!(t.folded(ROOT_STACK), "(root)");
        assert_eq!(t.len(), 4);

        // A second table fed the same sequence interns identical ids.
        let mut u = StackTable::new();
        let m2 = u.push(ROOT_STACK, "main");
        let f2 = u.push(m2, "f");
        assert_eq!((m2, f2), (main, f));
        assert_eq!(u.push(f2, "g"), g);
    }

    #[test]
    fn drag_buckets_are_log2() {
        assert_eq!(Histogram::<DRAG_BUCKETS>::bucket_of(0), 0);
        assert_eq!(Histogram::<DRAG_BUCKETS>::bucket_of(1), 1);
        assert_eq!(Histogram::<DRAG_BUCKETS>::bucket_of(2), 2);
        assert_eq!(Histogram::<DRAG_BUCKETS>::bucket_of(3), 2);
        assert_eq!(Histogram::<DRAG_BUCKETS>::bucket_of(4), 3);
        assert_eq!(
            Histogram::<DRAG_BUCKETS>::bucket_of(u64::MAX),
            DRAG_BUCKETS - 1
        );
    }

    #[test]
    fn build_attributes_frees_and_sweeps_to_the_allocating_stack() {
        let mut stacks = StackTable::new();
        let main = stacks.push(ROOT_STACK, "main");
        let leaf = stacks.push(main, "leaf");
        let trace = Trace {
            events: vec![
                TraceEvent::Alloc {
                    at: 10,
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
                    at: 12,
                    addr: addr(1),
                    site: Some(4),
                    stack: main,
                    cat: Category::Map,
                    bytes: 64,
                    large: false,
                    heap_live: 176,
                    footprint: 8192,
                },
                TraceEvent::StackAlloc {
                    at: 13,
                    cat: Category::Other,
                    stack: leaf,
                },
                // main frees the object leaf allocated: bytes attribute
                // back to leaf, the op to main.
                TraceEvent::Free {
                    at: 30,
                    addr: addr(0),
                    stack: main,
                    cat: Category::Slice,
                    source: FreeSource::SliceLifetime,
                    bytes: 112,
                    step: FreeStep::Revert { cascade: 0 },
                    heap_live: 64,
                },
                TraceEvent::FreeBail {
                    at: 31,
                    reason: crate::metrics::BailReason::AlreadyFree,
                    stack: main,
                },
                TraceEvent::Sweep {
                    at: 50,
                    addr: addr(1),
                    cat: Category::Map,
                    bytes: 64,
                },
                TraceEvent::GcEnd(crate::GcCycle {
                    at: 50,
                    heap_live: 0,
                    next_goal: 512 * 1024,
                    swept: [0, 1, 0],
                    swept_bytes: 64,
                    dangling_retired: 0,
                    ticks: 5,
                    kind: crate::collector::CycleKind::Major,
                }),
                TraceEvent::Finalize {
                    at: 60,
                    leftover: [0, 0, 0],
                    footprint: 8192,
                },
            ],
            stacks,
            ..Trace::default()
        };
        let p = Profile::build(&trace);
        let by_id: HashMap<StackId, StackStat> = p.stacks.iter().copied().collect();
        let lf = &by_id[&leaf];
        assert_eq!((lf.allocs, lf.alloc_bytes), (1, 112));
        assert_eq!((lf.frees, lf.free_bytes), (1, 112));
        assert_eq!(lf.free_ops, 0, "the op happened at main");
        assert_eq!(lf.stack_allocs, 1);
        let mn = &by_id[&main];
        assert_eq!((mn.allocs, mn.alloc_bytes), (1, 64));
        assert_eq!((mn.swept, mn.swept_bytes), (1, 64));
        assert_eq!(mn.free_ops, 1);
        assert_eq!(mn.bails, 1);
        assert_eq!(mn.garbage_bytes(), 64);

        // Drag: site 3 lived 20 ticks to tcfree, site 4 lived 38 to sweep.
        let d3 = p.sites.iter().find(|d| d.site == Some(3)).unwrap();
        assert_eq!((d3.tcfree.count(), d3.tcfree.sum()), (1, 20));
        assert_eq!(
            d3.tcfree.buckets()[Histogram::<DRAG_BUCKETS>::bucket_of(20)],
            1
        );
        let d4 = p.sites.iter().find(|d| d.site == Some(4)).unwrap();
        assert_eq!((d4.sweep.count(), d4.sweep.sum()), (1, 38));

        let totals = p.totals();
        assert_eq!(totals.allocs, 2);
        assert_eq!(totals.alloc_bytes, 176);
        assert_eq!(totals.frees + totals.swept + totals.leftover, 2);
    }

    #[test]
    fn leftovers_attribute_at_finalize() {
        let mut stacks = StackTable::new();
        let main = stacks.push(ROOT_STACK, "main");
        let trace = Trace {
            events: vec![
                TraceEvent::Alloc {
                    at: 1,
                    addr: addr(0),
                    site: None,
                    stack: main,
                    cat: Category::Other,
                    bytes: 64,
                    large: false,
                    heap_live: 64,
                    footprint: 8192,
                },
                TraceEvent::Finalize {
                    at: 2,
                    leftover: [0, 0, 1],
                    footprint: 8192,
                },
            ],
            stacks,
            ..Trace::default()
        };
        let p = Profile::build(&trace);
        let by_id: HashMap<StackId, StackStat> = p.stacks.iter().copied().collect();
        assert_eq!(by_id[&main].leftover, 1);
        assert_eq!(by_id[&main].leftover_bytes, 64);
        assert_eq!(by_id[&main].garbage_bytes(), 64);
    }

    #[test]
    fn truncated_trace_fails_reconcile() {
        let trace = Trace {
            events_dropped: 3,
            ..Trace::default()
        };
        let p = Profile::build(&trace);
        let err = p.reconcile(&Metrics::default()).unwrap_err();
        assert!(err.contains("truncated"), "{err}");
    }

    #[test]
    fn reconcile_detects_divergence() {
        let p = Profile::build(&Trace::default());
        p.reconcile(&Metrics::default()).expect("empty reconciles");
        let target = Metrics {
            alloced_objects: 1,
            ..Metrics::default()
        };
        let err = p.reconcile(&target).unwrap_err();
        assert!(err.contains("alloc objects"), "{err}");
    }
}
