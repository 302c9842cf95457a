//! Run metrics — everything the paper's profiling tool collects (table 5)
//! plus the per-category breakdowns of tables 8 and 9.

/// Allocation categories tracked for table 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Slice backing arrays.
    Slice,
    /// Map storage (hmap + buckets).
    Map,
    /// Everything else (`new`, `&T{}`).
    Other,
}

impl Category {
    /// Dense index for counters.
    pub fn index(self) -> usize {
        match self {
            Category::Slice => 0,
            Category::Map => 1,
            Category::Other => 2,
        }
    }

    /// All categories in index order.
    pub fn all() -> [Category; 3] {
        [Category::Slice, Category::Map, Category::Other]
    }
}

/// Where reclaimed bytes came from — the three deallocation categories of
/// table 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FreeSource {
    /// `FreeSlice()`: a slice's lifetime ended.
    SliceLifetime,
    /// `FreeMap()`: a map's lifetime ended.
    MapLifetime,
    /// `GrowMapAndFreeOld()`: a map grew and its old buckets were freed.
    MapGrowOld,
    /// `Tcfree()` on a raw pointer's object (the widened-targets ablation;
    /// not one of the paper's three table 9 categories).
    Object,
}

impl FreeSource {
    /// Dense index for counters.
    pub fn index(self) -> usize {
        match self {
            FreeSource::SliceLifetime => 0,
            FreeSource::MapLifetime => 1,
            FreeSource::MapGrowOld => 2,
            FreeSource::Object => 3,
        }
    }
}

/// Why a `tcfree` call gave up (§5's bail-out conditions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BailReason {
    /// GC is running concurrently; freeing would race the collector.
    GcRunning,
    /// The mspan's ownership changed (thread migration) or it left the
    /// mcache.
    OwnershipChanged,
    /// The object was already freed (tolerated double free).
    AlreadyFree,
    /// The span was swapped out of the cache after filling up.
    SpanSwappedOut,
}

impl BailReason {
    /// Dense index for counters.
    pub fn index(self) -> usize {
        match self {
            BailReason::GcRunning => 0,
            BailReason::OwnershipChanged => 1,
            BailReason::AlreadyFree => 2,
            BailReason::SpanSwappedOut => 3,
        }
    }
}

/// Aggregated counters for one program execution.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// Total heap bytes allocated (`alloced` in table 5).
    pub alloced_bytes: u64,
    /// Total heap objects allocated.
    pub alloced_objects: u64,
    /// Bytes freed by `tcfree` (`freed` in table 5).
    pub freed_bytes: u64,
    /// Bytes freed by `tcfree`, by source (table 9 plus the ablation's
    /// object category).
    pub freed_bytes_by_source: [u64; 4],
    /// Objects freed by `tcfree`, by source.
    pub freed_objects_by_source: [u64; 4],
    /// `tcfree` calls attempted.
    pub tcfree_attempts: u64,
    /// `tcfree` bail-outs by reason.
    pub tcfree_bails: [u64; 4],
    /// GC cycles triggered (`GCs` in table 5; minor + major).
    pub gcs: u64,
    /// Nursery-only cycles (generational backend; 0 under mark-sweep).
    pub gcs_minor: u64,
    /// Full-heap cycles (every mark-sweep cycle; the generational
    /// backend's GOGC-paced cycles). `gcs == gcs_minor + gcs_major`.
    pub gcs_major: u64,
    /// Virtual ticks spent in GC (mark + sweep).
    pub gc_ticks: u64,
    /// Peak live heap bytes (`maxheap` in table 5).
    pub maxheap: u64,
    /// Stack allocations per category (table 8 "Stack" columns).
    pub stack_allocs: [u64; 3],
    /// Heap allocations per category.
    pub heap_allocs: [u64; 3],
    /// Heap objects eventually freed by `tcfree`, per category (table 8
    /// "Heap tcfree" columns).
    pub heap_tcfreed: [u64; 3],
    /// Heap objects reclaimed by GC (or alive at exit), per category
    /// (table 8 "Heap GC" columns).
    pub heap_gced: [u64; 3],
    /// `tcfree` sites the free-safety auditor could not prove and the
    /// pipeline stripped under `--audit deny`. Set at compile time and
    /// copied into every run's metrics so table 7/8 comparisons of
    /// audited builds stay honest about suppressed reclamation.
    pub frees_suppressed: u64,
}

impl Metrics {
    /// `free ratio = freed / alloced` (table 5).
    pub fn free_ratio(&self) -> f64 {
        if self.alloced_bytes == 0 {
            0.0
        } else {
            self.freed_bytes as f64 / self.alloced_bytes as f64
        }
    }

    /// Fraction of reclaimed bytes per table 9 source (slice lifetime, map
    /// lifetime, map growth; sums to 1 when anything in those categories
    /// was freed).
    pub fn source_shares(&self) -> [f64; 3] {
        let total: u64 = self.freed_bytes_by_source[..3].iter().sum();
        if total == 0 {
            return [0.0; 3];
        }
        [
            self.freed_bytes_by_source[0] as f64 / total as f64,
            self.freed_bytes_by_source[1] as f64 / total as f64,
            self.freed_bytes_by_source[2] as f64 / total as f64,
        ]
    }

    /// Records a stack allocation (made by the VM, not the heap).
    pub fn record_stack_alloc(&mut self, cat: Category) {
        self.stack_allocs[cat.index()] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_ratio_handles_zero() {
        let m = Metrics::default();
        assert_eq!(m.free_ratio(), 0.0);
        let m = Metrics {
            alloced_bytes: 200,
            freed_bytes: 50,
            ..Metrics::default()
        };
        assert!((m.free_ratio() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn source_shares_sum_to_one() {
        let m = Metrics {
            freed_bytes_by_source: [10, 30, 60, 0],
            ..Metrics::default()
        };
        let s = m.source_shares();
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((s[2] - 0.6).abs() < 1e-12);
    }

    #[test]
    fn indexes_are_dense() {
        for (i, c) in Category::all().into_iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }
}
