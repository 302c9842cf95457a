//! The heap: mspans, per-thread mcaches, the mcentral span pool, and the
//! page heap (§3.3 and fig. 9 of the paper).
//!
//! Memory itself is simulated — the heap tracks addresses, occupancy
//! bitmaps, and byte accounting; object payloads live in the VM. The
//! structure mirrors Go's TCMalloc: small objects come from size-class
//! mspans cached per thread (lock-free fast path), large objects get
//! dedicated multi-page mspans pushed to the mcentral.
//!
//! All per-object GC state lives on the span, as in Go's mspan
//! (`allocBits`/`gcmarkBits`): packed `alloc`, `mark` and `young` words
//! plus a per-slot [`OwnerTag`]. The heap owns `alloc`, `mark` and the
//! tags; `young` is storage the collection backend drives (only the
//! generational one sets it).
//! Mark words are zero between cycles: the VM sets them through
//! [`Heap::mark`] at a safepoint and either sweep clears every span's
//! when it finishes.

use std::fmt;
use std::num::NonZeroU64;

use crate::metrics::Category;
use crate::sizeclass::{class_pages, class_size, class_slots, large_pages, PAGE_SIZE};

/// Identifies an mspan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u32);

/// The simulated address of a heap object: a span and a slot within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjAddr {
    /// The owning span.
    pub span: SpanId,
    /// Slot index within the span (0 for large objects).
    pub slot: u32,
}

/// The stamp an allocation leaves on its slot: the heap's allocation
/// serial, never reused. A handle `(addr, tag)` is live exactly while
/// [`Heap::owner`] still answers `tag` for `addr` — an explicit free or
/// a sweep clears the stamp, a later allocation of the slot overwrites
/// it — which is what lets the VM drop its id ↔ address tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OwnerTag(NonZeroU64);

impl OwnerTag {
    /// The 0-based allocation serial (the VM's `object #N`).
    pub fn serial(self) -> u64 {
        self.0.get() - 1
    }
}

/// GC state of 64 consecutive slots, one bit per slot in each word.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SlotWord {
    alloc: u64,
    mark: u64,
    young: u64,
}

/// Who holds a slot, in one word: zero when free, else the allocation
/// stamp above the two bits of its accounting category.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Holder(u64);

impl Holder {
    fn new(tag: OwnerTag, cat: Category) -> Self {
        Holder(tag.0.get() << 2 | cat.index() as u64)
    }

    fn tag(self) -> Option<OwnerTag> {
        NonZeroU64::new(self.0 >> 2).map(OwnerTag)
    }

    fn cat(self) -> Category {
        Category::all()[(self.0 & 3) as usize]
    }
}

/// An mspan: a run of pages carved into equal slots (small classes) or
/// dedicated to one large object.
#[derive(Debug, Clone)]
pub struct Mspan {
    /// Size class; `None` for a dedicated large-object span.
    pub class: Option<usize>,
    /// Pages backing the span.
    pub npages: u32,
    /// Bytes per slot (the rounded size class, or the large object size).
    pub slot_size: u64,
    /// Number of slots.
    pub nslots: u32,
    /// Allocation scan position: slots below it may still be allocated.
    pub free_index: u32,
    /// Slot state, `nslots.div_ceil(64)` words; bits at or beyond
    /// `nslots` stay zero.
    words: Vec<SlotWord>,
    /// Who holds each slot: the allocation stamp and the category
    /// recorded with it (for tables 8/9 accounting).
    holders: Vec<Holder>,
    /// Owning thread (mcache affinity).
    pub owner: u32,
    /// Whether the span currently sits in its owner's mcache.
    pub in_mcache: bool,
    /// Large-object 2-step free: pages returned, span struct awaiting the
    /// next GC sweep (fig. 9 step 1).
    pub dangling: bool,
    /// Whether the span is live (backing pages held) at all.
    pub active: bool,
}

#[inline]
fn bit_of(slot: u32) -> (usize, u64) {
    (slot as usize / 64, 1u64 << (slot % 64))
}

/// The slots whose bit is set in word `w` of a span, ascending.
fn slots_of(w: usize, mut bits: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        let slot = (bits != 0).then(|| w as u32 * 64 + bits.trailing_zeros())?;
        bits &= bits - 1;
        Some(slot)
    })
}

impl Mspan {
    /// Number of allocated slots.
    pub fn live_slots(&self) -> u32 {
        self.words.iter().map(|w| w.alloc.count_ones()).sum()
    }

    /// Whether `slot` is allocated (`false` for a slot the span lacks).
    pub fn is_allocated(&self, slot: u32) -> bool {
        let (w, bit) = bit_of(slot);
        self.words.get(w).is_some_and(|word| word.alloc & bit != 0)
    }

    /// The category recorded for an occupied slot.
    pub fn cat(&self, slot: u32) -> Category {
        self.holders[slot as usize].cat()
    }

    /// The lowest free slot at or above `free_index`.
    #[inline]
    fn next_free(&self) -> Option<u32> {
        let (first, bit) = bit_of(self.free_index);
        // Slots below `free_index` are not candidates.
        let mut taken = bit - 1;
        for w in first..self.words.len() {
            let free = !(self.words[w].alloc | taken);
            if free != 0 {
                // A hit in the zero tail means every real slot is taken.
                let slot = w as u32 * 64 + free.trailing_zeros();
                return (slot < self.nslots).then_some(slot);
            }
            taken = 0;
        }
        None
    }

    /// One past the highest allocated slot below `end` (0 when none):
    /// where a §5 revert of the slot `end - 1` cascades down to.
    fn top_below(&self, end: u32) -> u32 {
        let (last, bit) = bit_of(end);
        let mut keep = bit - 1;
        for w in (0..=last).rev() {
            let live = self.words[w].alloc & if w == last { keep } else { !0 };
            if live != 0 {
                return w as u32 * 64 + 64 - live.leading_zeros();
            }
            keep = !0;
        }
        0
    }

    fn occupy(&mut self, slot: u32, cat: Category, tag: OwnerTag) {
        let (w, bit) = bit_of(slot);
        self.words[w].alloc |= bit;
        self.holders[slot as usize] = Holder::new(tag, cat);
        self.free_index = slot + 1;
    }

    fn vacate(&mut self, slot: u32) {
        let (w, bit) = bit_of(slot);
        debug_assert!(self.words[w].alloc & bit != 0);
        self.words[w].alloc &= !bit;
        self.holders[slot as usize] = Holder::default();
    }
}

/// What the allocation fast path had to do (the runtime charges costs
/// accordingly).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocEvents {
    /// The mcache had to be refilled from the mcentral.
    pub refilled: bool,
    /// A fresh span was carved from the page heap.
    pub created_span: bool,
}

/// One object a sweep freed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Swept {
    /// Where it lived.
    pub addr: ObjAddr,
    /// Its accounting category.
    pub cat: Category,
    /// Bytes returned (the span's slot size).
    pub bytes: u64,
    /// The stamp of the allocation that died, so the VM's shadow heap
    /// hears about it without an address → id table.
    pub owner: OwnerTag,
}

/// Result of a GC sweep.
#[derive(Debug, Clone, Default)]
pub struct SweepOutcome {
    /// Freed objects, in ascending (span, slot) order.
    pub freed: Vec<Swept>,
    /// Spans examined (cost accounting).
    pub spans_swept: usize,
    /// Dangling large-object spans that completed fig. 9 step 2 (their
    /// struct joined the idle list).
    pub dangling_retired: u64,
}

/// What an explicit small-object free did to its span (the §5
/// allocation-index revert the tracing layer reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmallFree {
    /// Bytes returned (the span's slot size).
    pub bytes: u64,
    /// Whether the freed slot was on top and the allocation index was
    /// reverted (immediate reuse); `false` means the occupancy bit was
    /// cleared and the slot waits for the next sweep.
    pub reverted: bool,
    /// Extra index steps the revert cascaded over earlier freed slots
    /// (0 = only the freed slot itself was reclaimed).
    pub cascade: u32,
}

/// A heap invariant [`Heap::check_invariants`] found broken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeapInvariant {
    /// A state bit is set at or beyond the span's `nslots`.
    TailBits,
    /// `free_index` exceeds `nslots`, or the slot below a nonzero
    /// `free_index` is free (a §5 revert cascades down to the highest
    /// live slot; allocation and sweep leave it there or at zero).
    FreeIndex,
    /// A slot's owner tag and its alloc bit disagree.
    OwnerWithoutAlloc,
    /// A young bit on a free slot.
    YoungNotAllocated,
    /// The generational backend remembers a free or young object.
    RememberedNotOld,
    /// A mark bit survived the cycle that set it.
    MarkNotCleared,
    /// A retired or dangling span still holds a bit or a tag.
    DeadSpanHoldsState,
    /// `heap_live` differs from Σ popcount(alloc) × slot_size.
    HeapLive,
    /// `pages_in_use` differs from Σ npages over page-holding spans.
    PagesInUse,
}

/// A failed [`Heap::check_invariants`]: which invariant, on which span
/// (`None` for the heap-wide byte and page sums).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapInvariantError {
    /// The broken invariant.
    pub invariant: HeapInvariant,
    /// The offending span.
    pub span: Option<SpanId>,
}

impl fmt::Display for HeapInvariantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "heap invariant {:?} broken", self.invariant)?;
        match self.span {
            Some(sid) => write!(f, " on span {}", sid.0),
            None => Ok(()),
        }
    }
}

impl std::error::Error for HeapInvariantError {}

/// The simulated heap.
#[derive(Debug, Clone)]
pub struct Heap {
    spans: Vec<Mspan>,
    /// mcaches[thread][class] = span currently cached.
    mcaches: Vec<Vec<Option<SpanId>>>,
    /// mcentral: per-class spans with free slots, not in any mcache.
    partial: Vec<Vec<SpanId>>,
    /// Span structs whose pages were returned (reusable).
    idle: Vec<SpanId>,
    /// Pages currently backing live spans.
    pages_in_use: u64,
    /// Live heap bytes (allocated minus freed/swept).
    heap_live: u64,
    /// Allocations so far: the next [`OwnerTag`] serial.
    allocations: u64,
}

impl Heap {
    /// Creates a heap serving `threads` mcaches.
    pub fn new(threads: usize) -> Self {
        let classes = crate::sizeclass::class_count();
        Heap {
            spans: Vec::new(),
            mcaches: vec![vec![None; classes]; threads.max(1)],
            partial: vec![Vec::new(); classes],
            idle: Vec::new(),
            pages_in_use: 0,
            heap_live: 0,
            allocations: 0,
        }
    }

    /// Live heap bytes.
    pub fn heap_live(&self) -> u64 {
        self.heap_live
    }

    /// Pages currently in use.
    pub fn pages_in_use(&self) -> u64 {
        self.pages_in_use
    }

    /// Read access to a span.
    pub fn span(&self, id: SpanId) -> &Mspan {
        &self.spans[id.0 as usize]
    }

    fn span_mut(&mut self, id: SpanId) -> &mut Mspan {
        &mut self.spans[id.0 as usize]
    }

    /// Number of span structs ever created (tests).
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// The mcentral's partial list of a class (tests).
    pub fn partial_spans(&self, class: usize) -> &[SpanId] {
        &self.partial[class]
    }

    fn next_tag(&mut self) -> OwnerTag {
        self.allocations += 1;
        OwnerTag(NonZeroU64::new(self.allocations).expect("incremented above zero"))
    }

    /// Allocates a small object of the given class on `thread`.
    pub fn alloc_small(
        &mut self,
        class: usize,
        thread: u32,
        cat: Category,
    ) -> (ObjAddr, AllocEvents) {
        let cached = self.mcaches[thread as usize][class];
        let hit = cached.and_then(|sid| Some((sid, self.span(sid).next_free()?)));
        let ((sid, slot), events) = match hit {
            Some(found) => (found, AllocEvents::default()),
            None => self.refill(class, thread, cached),
        };
        let tag = self.next_tag();
        let span = self.span_mut(sid);
        span.occupy(slot, cat, tag);
        self.heap_live += span.slot_size;
        (ObjAddr { span: sid, slot }, events)
    }

    /// The slow path: swaps the mcache's `full` span for one of `class`
    /// with a free slot — from the mcentral's partial list, else fresh
    /// from the page heap — and returns it with that slot.
    #[cold]
    fn refill(
        &mut self,
        class: usize,
        thread: u32,
        full: Option<SpanId>,
    ) -> ((SpanId, u32), AllocEvents) {
        // The full span keeps its slots; tcfree will bail on it from
        // now on.
        if let Some(full) = full {
            self.span_mut(full).in_mcache = false;
        }
        let mut events = AllocEvents {
            refilled: true,
            created_span: false,
        };
        let found = loop {
            let Some(sid) = self.partial[class].pop() else {
                events.created_span = true;
                let (npages, nslots) = (class_pages(class), class_slots(class));
                break (
                    self.new_span(Some(class), npages, class_size(class), nslots, thread, true),
                    0,
                );
            };
            let span = self.span_mut(sid);
            if let (true, false, Some(slot)) = (span.active, span.dangling, span.next_free()) {
                span.owner = thread;
                span.in_mcache = true;
                break (sid, slot);
            }
        };
        self.mcaches[thread as usize][class] = Some(found.0);
        (found, events)
    }

    fn new_span(
        &mut self,
        class: Option<usize>,
        npages: u32,
        slot_size: u64,
        nslots: u32,
        thread: u32,
        in_mcache: bool,
    ) -> SpanId {
        self.pages_in_use += npages as u64;
        let span = Mspan {
            class,
            npages,
            slot_size,
            nslots,
            free_index: 0,
            words: vec![SlotWord::default(); nslots.div_ceil(64) as usize],
            holders: vec![Holder::default(); nslots as usize],
            owner: thread,
            in_mcache,
            dangling: false,
            active: true,
        };
        if let Some(sid) = self.idle.pop() {
            self.spans[sid.0 as usize] = span;
            sid
        } else {
            let sid = SpanId(self.spans.len() as u32);
            self.spans.push(span);
            sid
        }
    }

    /// Allocates a large object in a dedicated span (fig. 9).
    pub fn alloc_large(&mut self, size: u64, thread: u32, cat: Category) -> ObjAddr {
        let npages = large_pages(size);
        let sid = self.new_span(None, npages, size, 1, thread, false);
        let tag = self.next_tag();
        self.span_mut(sid).occupy(0, cat, tag);
        self.heap_live += size;
        ObjAddr { span: sid, slot: 0 }
    }

    /// Explicitly frees a small object: reverts the allocation index when
    /// the object is on top, otherwise just clears its bit (the slot is
    /// reused after the next sweep). Returns the freed bytes and what the
    /// free did to the allocation index.
    pub fn free_small(&mut self, addr: ObjAddr) -> SmallFree {
        let span = self.span_mut(addr.span);
        span.vacate(addr.slot);
        let mut reverted = false;
        let mut cascade = 0;
        if addr.slot + 1 == span.free_index {
            // Revert the allocator pointer; cascade over earlier frees.
            reverted = true;
            span.free_index = span.top_below(addr.slot);
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

    /// Step 1 of the large-object free (fig. 9): return the pages and mark
    /// the span dangling. Returns the freed bytes.
    pub fn free_large_step1(&mut self, addr: ObjAddr) -> u64 {
        let span = self.span_mut(addr.span);
        debug_assert!(span.class.is_none());
        span.vacate(0);
        span.dangling = true;
        let (npages, bytes) = (span.npages, span.slot_size);
        self.pages_in_use -= npages as u64;
        self.heap_live -= bytes;
        bytes
    }

    fn word(&self, addr: ObjAddr) -> Option<(&SlotWord, u64)> {
        let (w, bit) = bit_of(addr.slot);
        let word = self.spans.get(addr.span.0 as usize)?.words.get(w)?;
        Some((word, bit))
    }

    fn word_mut(&mut self, addr: ObjAddr) -> Option<(&mut SlotWord, u64)> {
        let (w, bit) = bit_of(addr.slot);
        let word = self.spans.get_mut(addr.span.0 as usize)?.words.get_mut(w)?;
        Some((word, bit))
    }

    /// Whether an address is currently allocated. Retired and dangling
    /// spans hold no alloc bits, so the bit alone answers.
    pub fn is_allocated(&self, addr: ObjAddr) -> bool {
        self.word(addr).is_some_and(|(w, bit)| w.alloc & bit != 0)
    }

    /// The stamp of the allocation occupying `addr`, if any. Total over
    /// stale addresses: a span struct may have been reused with fewer
    /// slots since the handle was made.
    pub fn owner(&self, addr: ObjAddr) -> Option<OwnerTag> {
        let span = self.spans.get(addr.span.0 as usize)?;
        span.holders.get(addr.slot as usize)?.tag()
    }

    /// Sets the mark bit of an allocated object; `true` when this call
    /// marked it (free slots and repeat marks answer `false`). The VM
    /// uses the answer as its visited check.
    pub fn mark(&mut self, addr: ObjAddr) -> bool {
        let Some((w, bit)) = self.word_mut(addr) else {
            return false;
        };
        let newly = w.alloc & !w.mark & bit;
        w.mark |= newly;
        newly != 0
    }

    /// Whether the object carries this cycle's mark.
    pub fn is_marked(&self, addr: ObjAddr) -> bool {
        self.word(addr).is_some_and(|(w, bit)| w.mark & bit != 0)
    }

    /// Flags a freshly allocated object young (generational backend).
    pub fn set_young(&mut self, addr: ObjAddr) {
        if let Some((w, bit)) = self.word_mut(addr) {
            w.young |= w.alloc & bit;
        }
    }

    /// Whether the object is flagged young.
    pub fn is_young(&self, addr: ObjAddr) -> bool {
        self.word(addr).is_some_and(|(w, bit)| w.young & bit != 0)
    }

    /// Clears a slot's young flag (the backend's `on_free`); `true`
    /// when it was set.
    pub fn clear_young(&mut self, addr: ObjAddr) -> bool {
        let Some((w, bit)) = self.word_mut(addr) else {
            return false;
        };
        let was = w.young & bit != 0;
        w.young &= !bit;
        was
    }

    /// Wholesale promotion: every young object becomes old.
    pub fn promote_all(&mut self) {
        for w in self.spans.iter_mut().flat_map(|s| &mut s.words) {
            w.young = 0;
        }
    }

    /// `(marked objects, slot size)` per span holding any — all marked
    /// objects, or only the young ones. Collectors price the mark phase
    /// from these sums, which do not depend on visiting order.
    pub fn marked_per_span(&self, young_only: bool) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.spans.iter().filter_map(move |s| {
            let marked = |w: &SlotWord| w.mark & if young_only { w.young } else { !0 };
            let n: u32 = s.words.iter().map(|w| marked(w).count_ones()).sum();
            (n > 0).then_some((n as u64, s.slot_size))
        })
    }

    /// Flushes every span of `thread`'s mcache back to the mcentral
    /// (simulated scheduler migration).
    pub fn flush_mcache(&mut self, thread: u32) {
        let classes = self.mcaches[thread as usize].len();
        for class in 0..classes {
            if let Some(sid) = self.mcaches[thread as usize][class].take() {
                let span = self.span_mut(sid);
                span.in_mcache = false;
                if span.next_free().is_some() {
                    self.partial[class].push(sid);
                }
            }
        }
    }

    /// Sweeps the heap after a mark phase: unmarked allocated slots are
    /// freed, dangling large spans complete step 2 (returned to the idle
    /// list), and empty spans give their pages back.
    pub fn sweep(&mut self) -> SweepOutcome {
        self.sweep_spans(false)
    }

    /// The generational minor sweep: like [`Heap::sweep`], but only
    /// young objects are candidates — old objects sharing a span with
    /// nursery objects are never examined, and spans holding no young
    /// objects are skipped entirely (`spans_swept` reflects that, which
    /// is what makes minor cycles cheap). Dangling large-object spans
    /// still complete fig. 9 step 2: step 1 already returned their
    /// pages, so retirement is generation-agnostic bookkeeping.
    pub fn sweep_young(&mut self) -> SweepOutcome {
        self.sweep_spans(true)
    }

    fn sweep_spans(&mut self, young_only: bool) -> SweepOutcome {
        let mut out = SweepOutcome::default();
        for i in 0..self.spans.len() {
            let sid = SpanId(i as u32);
            let span = &mut self.spans[i];
            if !span.active {
                continue;
            }
            if span.dangling {
                // Fig. 9 step 2: the span struct joins the idle list.
                out.spans_swept += 1;
                out.dangling_retired += 1;
                self.retire_span(sid);
                continue;
            }
            if young_only && span.words.iter().all(|w| w.young == 0) {
                continue;
            }
            out.spans_swept += 1;
            let before = out.freed.len();
            let mut live = 0;
            for w in 0..span.words.len() {
                let word = &mut span.words[w];
                let candidates = if young_only { word.young } else { !0 };
                let garbage = word.alloc & candidates & !word.mark;
                word.alloc &= !garbage;
                word.young &= !garbage;
                live += word.alloc.count_ones();
                for slot in slots_of(w, garbage) {
                    let holder = std::mem::take(&mut span.holders[slot as usize]);
                    out.freed.push(Swept {
                        addr: ObjAddr { span: sid, slot },
                        cat: holder.cat(),
                        bytes: span.slot_size,
                        owner: holder.tag().expect("allocated slots carry a tag"),
                    });
                }
            }
            span.free_index = 0;
            let retire = live == 0 && !span.in_mcache;
            self.heap_live -= (out.freed.len() - before) as u64 * span.slot_size;
            if retire {
                self.retire_span(sid);
            }
        }
        // Rebuild the mcentral partial lists (ascending span order for
        // either sweep — determinism) and end the cycle's marks on every
        // span, so a minor that skipped one cannot leak marks forward.
        for list in &mut self.partial {
            list.clear();
        }
        for (i, s) in self.spans.iter_mut().enumerate() {
            for w in &mut s.words {
                w.mark = 0;
            }
            if let (true, false, false, Some(class)) = (s.active, s.in_mcache, s.dangling, s.class)
            {
                if s.next_free().is_some() {
                    self.partial[class].push(SpanId(i as u32));
                }
            }
        }
        out
    }

    fn retire_span(&mut self, sid: SpanId) {
        let span = self.span_mut(sid);
        if span.active {
            let npages = span.npages;
            let was_dangling = span.dangling;
            span.active = false;
            span.dangling = false;
            span.in_mcache = false;
            if !was_dangling {
                // Dangling spans already returned their pages in step 1.
                self.pages_in_use -= npages as u64;
            }
        }
        self.idle.push(sid);
    }

    /// All currently allocated addresses (used by the end-of-run
    /// accounting and by tests).
    pub fn live_objects(&self) -> Vec<(ObjAddr, Category, u64)> {
        let mut out = Vec::new();
        for (i, span) in self.spans.iter().enumerate() {
            let span_id = SpanId(i as u32);
            for (w, word) in span.words.iter().enumerate() {
                for slot in slots_of(w, word.alloc) {
                    let addr = ObjAddr {
                        span: span_id,
                        slot,
                    };
                    out.push((addr, span.cat(slot), span.slot_size));
                }
            }
        }
        out
    }

    /// Checks the span-state invariants that hold between GC cycles.
    ///
    /// # Errors
    ///
    /// The first broken [`HeapInvariant`], with the span it was found on.
    pub fn check_invariants(&self) -> Result<(), HeapInvariantError> {
        let fail = |invariant, span| Err(HeapInvariantError { invariant, span });
        let (mut live_bytes, mut pages) = (0u64, 0u64);
        for (i, s) in self.spans.iter().enumerate() {
            let here = Some(SpanId(i as u32));
            let dead = !s.active || s.dangling;
            let tail = match s.nslots % 64 {
                0 => 0,
                used => !0u64 << used,
            };
            let last = s.words.len() - 1;
            for (w, word) in s.words.iter().enumerate() {
                let any = word.alloc | word.mark | word.young;
                if w == last && any & tail != 0 {
                    return fail(HeapInvariant::TailBits, here);
                }
                if word.mark != 0 {
                    return fail(HeapInvariant::MarkNotCleared, here);
                }
                if word.young & !word.alloc != 0 {
                    return fail(HeapInvariant::YoungNotAllocated, here);
                }
                if dead && any != 0 {
                    return fail(HeapInvariant::DeadSpanHoldsState, here);
                }
            }
            let tagged = |slot: u32| s.holders[slot as usize].tag().is_some();
            if (0..s.nslots).any(|slot| tagged(slot) != s.is_allocated(slot)) {
                return fail(HeapInvariant::OwnerWithoutAlloc, here);
            }
            if dead {
                continue;
            }
            if s.free_index > s.nslots || (s.free_index > 0 && !s.is_allocated(s.free_index - 1)) {
                return fail(HeapInvariant::FreeIndex, here);
            }
            live_bytes += s.live_slots() as u64 * s.slot_size;
            pages += s.npages as u64;
        }
        if live_bytes != self.heap_live {
            return fail(HeapInvariant::HeapLive, None);
        }
        if pages != self.pages_in_use {
            return fail(HeapInvariant::PagesInUse, None);
        }
        Ok(())
    }
}

/// Estimated total heap footprint in bytes (pages held by live spans).
pub fn footprint(heap: &Heap) -> u64 {
    heap.pages_in_use() * PAGE_SIZE
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sizeclass::class_for;

    #[test]
    fn small_alloc_bumps_and_accounts() {
        let mut h = Heap::new(1);
        let class = class_for(64);
        let (a, ev) = h.alloc_small(class, 0, Category::Slice);
        assert!(ev.refilled && ev.created_span);
        assert_eq!(a.slot, 0);
        assert_eq!(h.heap_live(), 64);
        let (b, ev2) = h.alloc_small(class, 0, Category::Slice);
        assert_eq!(ev2, AllocEvents::default(), "fast path after refill");
        assert_eq!(b.slot, 1);
        assert_eq!(h.heap_live(), 128);
    }

    #[test]
    fn top_free_reverts_index() {
        let mut h = Heap::new(1);
        let class = class_for(64);
        let (a, _) = h.alloc_small(class, 0, Category::Slice);
        let (b, _) = h.alloc_small(class, 0, Category::Slice);
        assert_eq!(
            h.free_small(b),
            SmallFree {
                bytes: 64,
                reverted: true,
                cascade: 0
            }
        );
        // Slot b is immediately reusable.
        let (c, _) = h.alloc_small(class, 0, Category::Slice);
        assert_eq!(c.slot, b.slot);
        assert!(h.is_allocated(a));
    }

    #[test]
    fn cascading_revert() {
        let mut h = Heap::new(1);
        let class = class_for(32);
        let (a, _) = h.alloc_small(class, 0, Category::Other);
        let (b, _) = h.alloc_small(class, 0, Category::Other);
        let (c, _) = h.alloc_small(class, 0, Category::Other);
        let mid = h.free_small(b); // middle: bit cleared, index stays
        assert!(!mid.reverted);
        assert_eq!(mid.cascade, 0);
        assert_eq!(h.span(c.span).free_index, 3);
        let top = h.free_small(c); // top: cascades past b down to 1
        assert!(top.reverted);
        assert_eq!(top.cascade, 1);
        assert_eq!(h.span(c.span).free_index, 1);
        assert!(h.is_allocated(a));
    }

    #[test]
    fn span_fills_and_refills() {
        let mut h = Heap::new(1);
        let class = class_for(4096);
        let slots = class_slots(class);
        let mut first_span = None;
        for i in 0..=slots {
            let (a, _) = h.alloc_small(class, 0, Category::Other);
            if i == 0 {
                first_span = Some(a.span);
            }
            if i == slots {
                assert_ne!(Some(a.span), first_span, "rolled to a new span");
            }
        }
        let old = first_span.unwrap();
        assert!(!h.span(old).in_mcache, "full span left the mcache");
    }

    #[test]
    fn large_alloc_and_two_step_free() {
        let mut h = Heap::new(1);
        let a = h.alloc_large(100_000, 0, Category::Slice);
        assert_eq!(h.pages_in_use(), 13);
        assert_eq!(h.heap_live(), 100_000);
        let freed = h.free_large_step1(a);
        assert_eq!(freed, 100_000);
        assert_eq!(h.pages_in_use(), 0, "step 1 returns the pages");
        assert!(h.span(a.span).dangling);
        assert!(!h.is_allocated(a));
        // Step 2 happens at sweep: the span struct becomes reusable.
        let out = h.sweep();
        assert!(out.freed.is_empty());
        assert_eq!(out.dangling_retired, 1);
        assert!(!h.span(a.span).active);
        let b = h.alloc_large(8192, 0, Category::Map);
        assert_eq!(b.span, a.span, "idle span struct reused");
    }

    #[test]
    fn sweep_frees_unmarked_and_reports_categories() {
        let mut h = Heap::new(1);
        let class = class_for(64);
        let (a, _) = h.alloc_small(class, 0, Category::Slice);
        let (b, _) = h.alloc_small(class, 0, Category::Map);
        assert!(h.mark(a));
        assert!(!h.mark(a), "second mark is not new");
        let out = h.sweep();
        let freed: Vec<_> = out.freed.iter().map(|f| (f.addr, f.cat)).collect();
        assert_eq!(freed, vec![(b, Category::Map)]);
        assert!(h.is_allocated(a));
        assert_eq!(h.heap_live(), 64);
    }

    #[test]
    fn sweep_makes_freed_slots_reusable() {
        let mut h = Heap::new(1);
        let class = class_for(64);
        let (a, _) = h.alloc_small(class, 0, Category::Other);
        let (_b, _) = h.alloc_small(class, 0, Category::Other);
        h.sweep(); // everything dies
        assert_eq!(h.heap_live(), 0);
        let (c, _) = h.alloc_small(class, 0, Category::Other);
        assert_eq!(c.slot, 0, "allocation restarts at the swept span's base");
        assert_eq!(c.span, a.span);
    }

    #[test]
    fn sweep_young_skips_old_objects_and_foreign_spans() {
        let mut h = Heap::new(1);
        let class = class_for(64);
        let (old, _) = h.alloc_small(class, 0, Category::Slice);
        let (young_dead, _) = h.alloc_small(class, 0, Category::Map);
        let (young_live, _) = h.alloc_small(class, 0, Category::Other);
        // A large old object in its own span: not young, span skipped.
        let big = h.alloc_large(50_000, 0, Category::Slice);
        h.set_young(young_dead);
        h.set_young(young_live);
        h.mark(young_live);
        let out = h.sweep_young();
        let freed: Vec<_> = out.freed.iter().map(|f| (f.addr, f.cat)).collect();
        assert_eq!(freed, vec![(young_dead, Category::Map)]);
        assert!(h.is_allocated(old), "old object untouched though unmarked");
        assert!(h.is_allocated(young_live));
        assert!(h.is_allocated(big));
        assert_eq!(out.spans_swept, 1, "only the nursery span was examined");
    }

    #[test]
    fn sweep_young_retires_dangling_spans() {
        let mut h = Heap::new(1);
        let a = h.alloc_large(50_000, 0, Category::Slice);
        h.free_large_step1(a);
        let out = h.sweep_young();
        assert_eq!(out.dangling_retired, 1);
        assert!(!h.span(a.span).active);
    }

    #[test]
    fn ragged_span_tail_is_never_handed_out() {
        let mut h = Heap::new(1);
        let class = class_for(48);
        let slots = class_slots(class);
        assert_ne!(slots % 64, 0, "the class must leave a partial last word");
        let addrs: Vec<_> = (0..=slots)
            .map(|_| h.alloc_small(class, 0, Category::Other).0)
            .collect();
        assert!(addrs[..slots as usize]
            .iter()
            .all(|a| a.span == addrs[0].span && a.slot < slots));
        assert_ne!(addrs[slots as usize].span, addrs[0].span);
        assert_eq!(h.span(addrs[0].span).live_slots(), slots);
        assert_eq!(h.check_invariants(), Ok(()));
    }

    #[test]
    fn owner_tags_tell_reuse_from_the_old_occupant() {
        let mut h = Heap::new(1);
        let class = class_for(64);
        let (a, _) = h.alloc_small(class, 0, Category::Other);
        let first = h.owner(a).expect("allocated");
        assert_eq!(first.serial(), 0);
        h.free_small(a);
        assert_eq!(h.owner(a), None, "a free ends the handle");
        let (b, _) = h.alloc_small(class, 0, Category::Other);
        assert_eq!(b, a, "the revert hands the slot straight back");
        let second = h.owner(b).expect("allocated");
        assert_eq!(second.serial(), 1);
        assert_ne!(Some(first), h.owner(a), "the old handle stays dead");
    }

    #[test]
    fn stale_address_past_a_reused_span_struct_is_absent() {
        let mut h = Heap::new(1);
        let class = class_for(8);
        let last = (0..100)
            .map(|_| h.alloc_small(class, 0, Category::Other).0)
            .last()
            .unwrap();
        h.flush_mcache(0);
        let out = h.sweep(); // nothing marked: the span empties and retires
        assert_eq!(out.freed.len(), 100);
        let big = h.alloc_large(50_000, 0, Category::Slice);
        assert_eq!(big.span, last.span, "the struct is reused with one slot");
        assert_eq!(h.owner(last), None);
        assert!(!h.is_allocated(last));
        assert!(!h.mark(last));
        assert!(!h.clear_young(last));
    }

    #[test]
    fn minor_sweep_ends_marks_on_spans_it_skips() {
        let mut h = Heap::new(1);
        let (old, _) = h.alloc_small(class_for(64), 0, Category::Other);
        let (young, _) = h.alloc_small(class_for(512), 0, Category::Other);
        h.set_young(young);
        h.mark(old);
        h.mark(young);
        let out = h.sweep_young();
        assert_eq!(out.spans_swept, 1, "the old object's span was skipped");
        h.promote_all();
        assert_eq!(h.check_invariants(), Ok(()), "no mark outlives the cycle");
        let freed: Vec<_> = h.sweep().freed.iter().map(|f| f.addr).collect();
        assert_eq!(freed, vec![old, young], "a stale mark would have kept one");
    }

    #[test]
    fn check_invariants_names_the_span() {
        let mut h = Heap::new(1);
        h.alloc_large(50_000, 0, Category::Slice);
        let (a, _) = h.alloc_small(class_for(64), 0, Category::Other);
        assert_eq!(h.check_invariants(), Ok(()));
        h.mark(a);
        let err = h.check_invariants().unwrap_err();
        assert_eq!(
            err,
            HeapInvariantError {
                invariant: HeapInvariant::MarkNotCleared,
                span: Some(a.span),
            }
        );
        assert!(err.to_string().contains("span 1"), "{err}");
    }

    #[test]
    fn flush_mcache_disowns_spans() {
        let mut h = Heap::new(2);
        let class = class_for(64);
        let (a, _) = h.alloc_small(class, 0, Category::Other);
        assert!(h.span(a.span).in_mcache);
        h.flush_mcache(0);
        assert!(!h.span(a.span).in_mcache);
        // Thread 1 can pick the span up from the mcentral.
        let (b, _) = h.alloc_small(class, 1, Category::Other);
        assert_eq!(b.span, a.span);
        assert_eq!(h.span(b.span).owner, 1);
    }

    #[test]
    fn live_objects_enumerates_everything() {
        let mut h = Heap::new(1);
        let class = class_for(64);
        h.alloc_small(class, 0, Category::Slice);
        h.alloc_large(50_000, 0, Category::Map);
        let live = h.live_objects();
        assert_eq!(live.len(), 2);
        let cats: Vec<_> = live.iter().map(|(_, c, _)| *c).collect();
        assert!(cats.contains(&Category::Slice) && cats.contains(&Category::Map));
    }

    #[test]
    fn footprint_counts_pages() {
        let mut h = Heap::new(1);
        h.alloc_large(PAGE_SIZE * 3, 0, Category::Other);
        assert_eq!(footprint(&h), PAGE_SIZE * 3);
    }
}
