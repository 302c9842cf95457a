//! Model-based testing of the heap: random interleavings of allocation,
//! explicit freeing, and GC sweeps are checked against a simple reference
//! model of which objects must be live — and, for the span bitmaps,
//! against [`model::ModelHeap`]: the pre-bitmap heap (`Vec<bool>`
//! occupancy, `HashSet` mark, young and remembered sets, counts summed
//! from them) kept here as the reference the word-wise implementation
//! must match step for step.

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;

use minigo_runtime::{
    class_for, class_size, Category, FreeOutcome, FreeSource, Heap, ObjAddr, OwnerTag, Runtime,
    RuntimeConfig, MAX_SMALL_SIZE, PAGE_SIZE,
};

#[derive(Debug, Clone)]
enum Op {
    Alloc(u64),
    Free(usize),
    Collect { keep_mod: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (8u64..100_000).prop_map(Op::Alloc),
        any::<usize>().prop_map(Op::Free),
        (1usize..5).prop_map(|keep_mod| Op::Collect { keep_mod }),
    ]
}

fn rounded(size: u64) -> u64 {
    if size <= MAX_SMALL_SIZE {
        class_size(class_for(size))
    } else {
        size
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The heap's live-byte accounting always equals the model's, objects
    /// the model considers live are always still allocated, and the page
    /// footprint always covers the live bytes.
    #[test]
    fn heap_matches_reference_model(ops in proptest::collection::vec(op_strategy(), 1..80)) {
        let mut rt = Runtime::new(RuntimeConfig {
            migrate_prob: 0.0,
            jitter: 0.0,
            gc_enabled: false, // collections are explicit in this model
            ..RuntimeConfig::default()
        });
        // model: addr -> rounded size of live objects.
        let mut model: HashMap<ObjAddr, u64> = HashMap::new();
        let mut order: Vec<ObjAddr> = Vec::new();

        for op in ops {
            match op {
                Op::Alloc(size) => {
                    let addr = rt.alloc(size, Category::Other);
                    prop_assert!(!model.contains_key(&addr), "address {addr:?} double-issued");
                    model.insert(addr, rounded(size.max(8)));
                    order.push(addr);
                }
                Op::Free(idx) => {
                    if order.is_empty() {
                        continue;
                    }
                    let addr = order[idx % order.len()];
                    match rt.tcfree(addr, FreeSource::SliceLifetime) {
                        FreeOutcome::Freed { bytes } => {
                            let expected = model.remove(&addr);
                            prop_assert_eq!(expected, Some(bytes), "freed bytes mismatch");
                        }
                        FreeOutcome::Bailed(_) => {
                            // Either already freed (not in model) or a
                            // legitimate bail (span state); both leave the
                            // model unchanged. If it IS in the model the
                            // object must still be allocated.
                        }
                        FreeOutcome::Poisoned => prop_assert!(false, "poison off"),
                    }
                }
                Op::Collect { keep_mod } => {
                    let marked: HashSet<ObjAddr> = order
                        .iter()
                        .enumerate()
                        .filter(|(i, a)| i % keep_mod == 0 && model.contains_key(a))
                        .map(|(_, a)| *a)
                        .collect();
                    for &addr in &marked {
                        rt.mark(addr, rt.owner(addr).expect("live"), false);
                    }
                    let swept = rt.collect();
                    for f in &swept.freed {
                        let expected = model.remove(&f.addr);
                        prop_assert_eq!(expected, Some(f.bytes), "swept bytes mismatch");
                    }
                    // Everything unmarked must now be gone from the model.
                    model.retain(|addr, _| marked.contains(addr));
                }
            }
            let model_live: u64 = model.values().sum();
            prop_assert_eq!(rt.heap_live(), model_live, "live-byte accounting diverged");
            prop_assert!(
                rt.footprint() >= rt.heap_live(),
                "footprint {} < live {}",
                rt.footprint(),
                rt.heap_live()
            );
            prop_assert_eq!(rt.footprint() % PAGE_SIZE, 0, "footprint is whole pages");
        }

        // Every object the model still considers live can be freed exactly
        // once more.
        for (&addr, &size) in &model {
            match rt.tcfree(addr, FreeSource::SliceLifetime) {
                FreeOutcome::Freed { bytes } => prop_assert_eq!(bytes, size),
                FreeOutcome::Bailed(reason) => {
                    // Span swapped out of the cache is the only legitimate
                    // excuse for a live object.
                    prop_assert!(
                        matches!(
                            reason,
                            minigo_runtime::BailReason::SpanSwappedOut
                                | minigo_runtime::BailReason::OwnershipChanged
                        ),
                        "unexpected bail {reason:?}"
                    );
                }
                FreeOutcome::Poisoned => prop_assert!(false, "poison off"),
            }
        }
    }

    /// GC pacing: with GC enabled, heap_live never exceeds twice the
    /// post-collection live set by more than the mark window's slack.
    #[test]
    fn pacing_bounds_heap_growth(sizes in proptest::collection::vec(64u64..4096, 50..300)) {
        let mut rt = Runtime::new(RuntimeConfig {
            migrate_prob: 0.0,
            jitter: 0.0,
            min_heap: 16 * 1024,
            ..RuntimeConfig::default()
        });
        let mut peak_between = 0u64;
        for size in sizes {
            rt.alloc(size, Category::Other);
            peak_between = peak_between.max(rt.heap_live());
            if rt.gc_pending() {
                // Nothing is reachable: everything dies.
                rt.collect();
                prop_assert_eq!(rt.heap_live(), 0);
            }
        }
        // Trigger floor + one mark window of slack (window ≤ 96 allocations
        // of ≤ 4096B, rounded by size classes).
        let bound = 16 * 1024 + 96 * 4096 + MAX_SMALL_SIZE;
        prop_assert!(
            peak_between <= bound,
            "peak {peak_between} exceeded pacing bound {bound}"
        );
    }
}

/// The heap as it was before the span bitmaps, trimmed to what the
/// comparison needs: `Vec<bool>` occupancy scanned slot by slot, sweeps
/// that probe a `HashSet` of marked (and young) addresses, and the
/// generational collector's remembered set as it was before it moved
/// onto the spans.
mod model {
    use std::collections::HashSet;

    use minigo_runtime::sizeclass::{class_count, class_pages, class_slots, large_pages};
    use minigo_runtime::{class_size, AllocEvents, Category, ObjAddr, SmallFree, SpanId};

    pub struct ModelSpan {
        pub class: Option<usize>,
        npages: u32,
        slot_size: u64,
        nslots: u32,
        pub free_index: u32,
        alloc_bits: Vec<bool>,
        cats: Vec<Option<Category>>,
        in_mcache: bool,
        pub dangling: bool,
        pub active: bool,
    }

    impl ModelSpan {
        fn next_free(&self) -> Option<u32> {
            (self.free_index..self.nslots).find(|&i| !self.alloc_bits[i as usize])
        }
    }

    /// `(freed (addr, cat, bytes), spans_swept, dangling_retired)`.
    pub type ModelSweep = (Vec<(ObjAddr, Category, u64)>, usize, u64);

    pub struct ModelHeap {
        pub spans: Vec<ModelSpan>,
        mcaches: Vec<Vec<Option<SpanId>>>,
        pub partial: Vec<Vec<SpanId>>,
        idle: Vec<SpanId>,
        pub pages_in_use: u64,
        pub heap_live: u64,
        young: HashSet<ObjAddr>,
        remembered: HashSet<ObjAddr>,
    }

    impl ModelHeap {
        pub fn new(threads: usize) -> Self {
            ModelHeap {
                spans: Vec::new(),
                mcaches: vec![vec![None; class_count()]; threads],
                partial: vec![Vec::new(); class_count()],
                idle: Vec::new(),
                pages_in_use: 0,
                heap_live: 0,
                young: HashSet::new(),
                remembered: HashSet::new(),
            }
        }

        fn slot_size(&self, addr: ObjAddr) -> u64 {
            self.spans[addr.span.0 as usize].slot_size
        }

        /// Allocated objects, counted slot by slot.
        pub fn objects(&self) -> u64 {
            let live = self.spans.iter().filter(|s| s.active && !s.dangling);
            live.map(|s| s.alloc_bits.iter().filter(|&&b| b).count() as u64)
                .sum()
        }

        pub fn young_objects(&self) -> u64 {
            self.young.len() as u64
        }

        pub fn young_bytes(&self) -> u64 {
            self.young.iter().map(|&a| self.slot_size(a)).sum()
        }

        pub fn remembered(&self) -> u64 {
            self.remembered.len() as u64
        }

        pub fn set_young(&mut self, addr: ObjAddr) {
            self.young.insert(addr);
        }

        /// The write barrier on a handle the caller knows to be live or
        /// stale: `None` for a stale or young one, else whether the set
        /// grew.
        pub fn remember(&mut self, addr: ObjAddr, live: bool) -> Option<bool> {
            if !live || self.young.contains(&addr) {
                return None;
            }
            Some(self.remembered.insert(addr))
        }

        pub fn promote_all(&mut self) {
            self.young.clear();
            self.remembered.clear();
        }

        /// A freed or swept object leaves the nursery and the set.
        fn evict(&mut self, addr: ObjAddr) {
            self.young.remove(&addr);
            self.remembered.remove(&addr);
        }

        pub fn is_allocated(&self, addr: ObjAddr) -> bool {
            // A stale address may point past a span struct that was
            // retired and reused with fewer slots.
            let span = &self.spans[addr.span.0 as usize];
            let bit = span.alloc_bits.get(addr.slot as usize);
            span.active && !span.dangling && bit == Some(&true)
        }

        pub fn alloc_small(
            &mut self,
            class: usize,
            thread: u32,
            cat: Category,
        ) -> (ObjAddr, AllocEvents) {
            let mut events = AllocEvents::default();
            let cached = self.mcaches[thread as usize][class];
            let sid = match cached {
                Some(sid) if self.spans[sid.0 as usize].next_free().is_some() => sid,
                other => {
                    if let Some(full) = other {
                        self.spans[full.0 as usize].in_mcache = false;
                    }
                    events.refilled = true;
                    let sid = self.refill(class, &mut events);
                    self.mcaches[thread as usize][class] = Some(sid);
                    sid
                }
            };
            let span = &mut self.spans[sid.0 as usize];
            let slot = span.next_free().expect("refill found a free slot");
            span.alloc_bits[slot as usize] = true;
            span.cats[slot as usize] = Some(cat);
            span.free_index = slot + 1;
            self.heap_live += span.slot_size;
            (ObjAddr { span: sid, slot }, events)
        }

        fn refill(&mut self, class: usize, events: &mut AllocEvents) -> SpanId {
            while let Some(sid) = self.partial[class].pop() {
                let span = &mut self.spans[sid.0 as usize];
                if span.active && !span.dangling && span.next_free().is_some() {
                    span.in_mcache = true;
                    return sid;
                }
            }
            events.created_span = true;
            let (npages, nslots) = (class_pages(class), class_slots(class));
            self.new_span(Some(class), npages, class_size(class), nslots, true)
        }

        fn new_span(
            &mut self,
            class: Option<usize>,
            npages: u32,
            slot_size: u64,
            nslots: u32,
            in_mcache: bool,
        ) -> SpanId {
            self.pages_in_use += npages as u64;
            let span = ModelSpan {
                class,
                npages,
                slot_size,
                nslots,
                free_index: 0,
                alloc_bits: vec![false; nslots as usize],
                cats: vec![None; nslots as usize],
                in_mcache,
                dangling: false,
                active: true,
            };
            if let Some(sid) = self.idle.pop() {
                self.spans[sid.0 as usize] = span;
                sid
            } else {
                self.spans.push(span);
                SpanId(self.spans.len() as u32 - 1)
            }
        }

        pub fn alloc_large(&mut self, size: u64, cat: Category) -> ObjAddr {
            let sid = self.new_span(None, large_pages(size), size, 1, false);
            let span = &mut self.spans[sid.0 as usize];
            span.alloc_bits[0] = true;
            span.cats[0] = Some(cat);
            span.free_index = 1;
            self.heap_live += size;
            ObjAddr { span: sid, slot: 0 }
        }

        pub fn free_small(&mut self, addr: ObjAddr) -> SmallFree {
            self.evict(addr);
            let span = &mut self.spans[addr.span.0 as usize];
            span.alloc_bits[addr.slot as usize] = false;
            span.cats[addr.slot as usize] = None;
            let mut reverted = false;
            let mut cascade = 0;
            if addr.slot + 1 == span.free_index {
                reverted = true;
                while span.free_index > 0 && !span.alloc_bits[span.free_index as usize - 1] {
                    span.free_index -= 1;
                }
                cascade = addr.slot - span.free_index;
            }
            let bytes = span.slot_size;
            self.heap_live -= bytes;
            SmallFree {
                bytes,
                reverted,
                cascade,
            }
        }

        pub fn free_large_step1(&mut self, addr: ObjAddr) -> u64 {
            self.evict(addr);
            let span = &mut self.spans[addr.span.0 as usize];
            span.alloc_bits[0] = false;
            span.cats[0] = None;
            span.dangling = true;
            let (npages, bytes) = (span.npages, span.slot_size);
            self.pages_in_use -= npages as u64;
            self.heap_live -= bytes;
            bytes
        }

        pub fn flush_mcache(&mut self, thread: u32) {
            for class in 0..class_count() {
                if let Some(sid) = self.mcaches[thread as usize][class].take() {
                    let span = &mut self.spans[sid.0 as usize];
                    span.in_mcache = false;
                    if span.next_free().is_some() {
                        self.partial[class].push(sid);
                    }
                }
            }
        }

        /// The full sweep or the minor one.
        pub fn sweep(&mut self, marked: &HashSet<ObjAddr>, minor: bool) -> ModelSweep {
            let young = minor.then(|| self.young.clone());
            let young = young.as_ref();
            let young_spans: Option<HashSet<u32>> =
                young.map(|y| y.iter().map(|a| a.span.0).collect());
            let (mut freed, mut spans_swept, mut dangling_retired) = (Vec::new(), 0, 0);
            for i in 0..self.spans.len() {
                let sid = SpanId(i as u32);
                if !self.spans[i].active {
                    continue;
                }
                if self.spans[i].dangling {
                    spans_swept += 1;
                    self.retire_span(sid);
                    dangling_retired += 1;
                    continue;
                }
                if young_spans.as_ref().is_some_and(|ys| !ys.contains(&sid.0)) {
                    continue;
                }
                spans_swept += 1;
                for slot in 0..self.spans[i].nslots {
                    let addr = ObjAddr { span: sid, slot };
                    if self.spans[i].alloc_bits[slot as usize]
                        && young.is_none_or(|y| y.contains(&addr))
                        && !marked.contains(&addr)
                    {
                        let cat = self.spans[i].cats[slot as usize].unwrap_or(Category::Other);
                        let bytes = self.spans[i].slot_size;
                        self.spans[i].alloc_bits[slot as usize] = false;
                        self.spans[i].cats[slot as usize] = None;
                        self.heap_live -= bytes;
                        self.evict(addr);
                        freed.push((addr, cat, bytes));
                    }
                }
                let span = &mut self.spans[i];
                span.free_index = 0;
                if !span.alloc_bits.iter().any(|&b| b) && !span.in_mcache {
                    self.retire_span(sid);
                }
            }
            for list in &mut self.partial {
                list.clear();
            }
            for (i, s) in self.spans.iter().enumerate() {
                if let (true, false, false, Some(class)) =
                    (s.active, s.in_mcache, s.dangling, s.class)
                {
                    if s.next_free().is_some() {
                        self.partial[class].push(SpanId(i as u32));
                    }
                }
            }
            (freed, spans_swept, dangling_retired)
        }

        fn retire_span(&mut self, sid: SpanId) {
            let span = &mut self.spans[sid.0 as usize];
            if span.active {
                let was_dangling = span.dangling;
                span.active = false;
                span.dangling = false;
                span.in_mcache = false;
                if !was_dangling {
                    self.pages_in_use -= span.npages as u64;
                }
            }
            self.idle.push(sid);
        }
    }
}

#[derive(Debug, Clone)]
enum HeapOp {
    /// `n` small objects of `SIZES[size]` on `thread`.
    Alloc {
        size: usize,
        n: usize,
        thread: u32,
    },
    /// One dedicated-span object of `pages` pages and a bit.
    AllocLarge {
        pages: u64,
    },
    /// Explicitly free the `pick`-th object ever allocated, if live.
    Free {
        pick: usize,
    },
    /// Fire the write barrier on the `pick`-th allocation's handle:
    /// live or stale (freed, swept, its slot reused), young or old.
    Remember {
        pick: usize,
    },
    /// Explicitly free the last `n` objects allocated, LIFO with holes.
    FreeRecent {
        n: usize,
    },
    /// Mark every `step`-th live object from `skip`.
    Mark {
        skip: usize,
        step: usize,
    },
    Flush {
        thread: u32,
    },
    Minor,
    Major,
}

/// Slot sizes whose spans hold 1024, 170, 73, 51, 8 and 1 slots: word
/// multiples, ragged tails, a sub-word span and a single-slot class.
const SIZES: [u64; 6] = [8, 48, 112, 160, 4096, 32768];

fn heap_op_strategy() -> impl Strategy<Value = HeapOp> {
    prop_oneof![
        (0usize..SIZES.len(), 1usize..200, 0u32..2).prop_map(|(size, n, thread)| HeapOp::Alloc {
            size,
            n,
            thread
        }),
        (0usize..SIZES.len(), 1usize..200, 0u32..2).prop_map(|(size, n, thread)| HeapOp::Alloc {
            size,
            n,
            thread
        }),
        (5u64..9).prop_map(|pages| HeapOp::AllocLarge { pages }),
        any::<usize>().prop_map(|pick| HeapOp::Free { pick }),
        any::<usize>().prop_map(|pick| HeapOp::Remember { pick }),
        any::<usize>().prop_map(|pick| HeapOp::Remember { pick }),
        (1usize..40).prop_map(|n| HeapOp::FreeRecent { n }),
        (0usize..4, 1usize..4).prop_map(|(skip, step)| HeapOp::Mark { skip, step }),
        (0u32..2).prop_map(|thread| HeapOp::Flush { thread }),
        Just(HeapOp::Minor),
        Just(HeapOp::Major),
    ]
}

/// Frees `addr` in both heaps when it is live, comparing what the free
/// did to the span.
fn free_both(heap: &mut Heap, model: &mut model::ModelHeap, addr: ObjAddr) {
    assert_eq!(heap.is_allocated(addr), model.is_allocated(addr));
    if !model.is_allocated(addr) {
        return;
    }
    if model.spans[addr.span.0 as usize].class.is_some() {
        assert_eq!(heap.free_small(addr), model.free_small(addr));
    } else {
        assert_eq!(heap.free_large_step1(addr), model.free_large_step1(addr));
        assert!(heap.span(addr.span).dangling);
    }
    assert_eq!(heap.owner(addr), None, "a free ends the handle");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The bitmap heap and the `HashSet` model stay in lockstep over
    /// random alloc / free / mark / minor / major sequences: same
    /// addresses and events out of every allocation, same §5 revert and
    /// cascade out of every free, the same answer out of every write
    /// barrier, and from every sweep the same `freed` list in the same
    /// order, `spans_swept`, `dangling_retired`, `heap_live`, page count
    /// and mcentral partial lists; after every step the same live,
    /// young and remembered counts. Between cycles the heap's own
    /// invariants hold.
    #[test]
    fn bitmaps_match_the_hashset_model(ops in proptest::collection::vec(heap_op_strategy(), 1..60)) {
        let mut heap = Heap::new(2);
        let mut model = model::ModelHeap::new(2);
        let mut order: Vec<ObjAddr> = Vec::new();
        // Every allocation's stamp, by allocation order: the handles
        // the barrier is fired on.
        let mut tags: Vec<OwnerTag> = Vec::new();
        let mut marked: HashSet<ObjAddr> = HashSet::new();
        let cats = [Category::Slice, Category::Map, Category::Other];

        for op in ops {
            match op {
                HeapOp::Alloc { size, n, thread } => {
                    let class = class_for(SIZES[size]);
                    for i in 0..n {
                        let got = heap.alloc_small(class, thread, cats[i % 3]);
                        prop_assert_eq!(got, model.alloc_small(class, thread, cats[i % 3]));
                        tags.push(heap.owner(got.0).expect("allocated"));
                        heap.set_young(got.0);
                        model.set_young(got.0);
                        order.push(got.0);
                    }
                }
                HeapOp::AllocLarge { pages } => {
                    let size = pages * PAGE_SIZE + 24;
                    let addr = heap.alloc_large(size, 0, Category::Slice);
                    prop_assert_eq!(addr, model.alloc_large(size, Category::Slice));
                    tags.push(heap.owner(addr).expect("allocated"));
                    heap.set_young(addr);
                    model.set_young(addr);
                    order.push(addr);
                }
                HeapOp::Free { pick } => {
                    // A free between mark and sweep cannot happen (both
                    // run inside one safepoint), so neither does it here.
                    if order.is_empty() || !marked.is_empty() {
                        continue;
                    }
                    free_both(&mut heap, &mut model, order[pick % order.len()]);
                }
                HeapOp::Remember { pick } => {
                    if order.is_empty() {
                        continue;
                    }
                    let i = pick % order.len();
                    // The handle is live while no later allocation took
                    // its slot and the model still holds the slot.
                    let reused = order[i + 1..].contains(&order[i]);
                    let live = !reused && model.is_allocated(order[i]);
                    prop_assert_eq!(heap.owner(order[i]) == Some(tags[i]), live);
                    let want = model.remember(order[i], live);
                    prop_assert_eq!(heap.remember(order[i], tags[i]), want);
                }
                HeapOp::FreeRecent { n } => {
                    if !marked.is_empty() {
                        continue;
                    }
                    // Holes first, then from the top down: every top free
                    // has earlier frees below it to cascade over.
                    let recent = &order[order.len().saturating_sub(n)..];
                    for &addr in recent.iter().skip(1).step_by(2) {
                        free_both(&mut heap, &mut model, addr);
                    }
                    for &addr in recent.iter().rev() {
                        free_both(&mut heap, &mut model, addr);
                    }
                }
                HeapOp::Mark { skip, step } => {
                    for &addr in order.iter().skip(skip).step_by(step) {
                        let live = model.is_allocated(addr);
                        let tag = heap.owner(addr);
                        prop_assert_eq!(tag.is_some(), live);
                        let newly = tag.and_then(|t| heap.mark(addr, t, false));
                        prop_assert_eq!(newly.unwrap_or(false), live && marked.insert(addr));
                    }
                }
                HeapOp::Flush { thread } => {
                    heap.flush_mcache(thread);
                    model.flush_mcache(thread);
                }
                HeapOp::Minor | HeapOp::Major => {
                    let minor = matches!(op, HeapOp::Minor);
                    let got = if minor { heap.sweep_young() } else { heap.sweep() };
                    let want = model.sweep(&marked, minor);
                    let freed: Vec<_> = got.freed.iter().map(|f| (f.addr, f.cat, f.bytes)).collect();
                    prop_assert_eq!(freed, want.0, "freed lists (order included)");
                    prop_assert_eq!(got.spans_swept, want.1);
                    prop_assert_eq!(got.dangling_retired, want.2);
                    // The sweep alone keeps the counts exact, before the
                    // promotion that zeroes the young ones.
                    prop_assert_eq!(heap.young_objects(), model.young_objects());
                    prop_assert_eq!(heap.young_bytes(), model.young_bytes());
                    prop_assert_eq!(heap.check_invariants(), Ok(()));
                    // What the generational backend does after either.
                    heap.promote_all();
                    model.promote_all();
                    marked.clear();
                }
            }
            prop_assert_eq!(heap.heap_live(), model.heap_live);
            prop_assert_eq!(heap.objects(), model.objects());
            prop_assert_eq!(heap.young_objects(), model.young_objects());
            prop_assert_eq!(heap.young_bytes(), model.young_bytes());
            prop_assert_eq!(heap.remembered(), model.remembered());
            prop_assert_eq!(heap.pages_in_use(), model.pages_in_use);
            prop_assert_eq!(heap.span_count(), model.spans.len());
            for (class, list) in model.partial.iter().enumerate() {
                prop_assert_eq!(heap.partial_spans(class), &list[..], "partial list of class {}", class);
            }
            for (i, m) in model.spans.iter().enumerate() {
                let s = heap.span(minigo_runtime::SpanId(i as u32));
                prop_assert_eq!((s.free_index, s.active, s.dangling), (m.free_index, m.active, m.dangling));
            }
            if marked.is_empty() {
                prop_assert_eq!(heap.check_invariants(), Ok(()));
            }
        }
    }
}
