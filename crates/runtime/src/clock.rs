//! The virtual clock: a deterministic cost model standing in for
//! wall-clock time.
//!
//! The paper's table 7 compares *relative* times (GoFree/Go ratios) and
//! derives GC time as `time − time_GCOff`. A cost model makes both exact
//! and reproducible: every allocator, GC, and interpreter action charges a
//! fixed number of ticks, optionally perturbed by seeded jitter so that
//! repeated runs form a distribution (fig. 11).

use crate::rng::SimRng;

/// Tick charges for runtime events: one fixed table, so virtual time is a
/// function of the program and the seed alone.
pub mod cost {
    /// Fast-path small allocation (mcache hit).
    pub const ALLOC_SMALL: u64 = 8;
    /// Refilling an mcache from the mcentral.
    pub const MCACHE_REFILL: u64 = 40;
    /// Carving a fresh mspan out of the page heap.
    pub const SPAN_CREATE: u64 = 50;
    /// Large (dedicated-span) allocation base cost.
    pub const ALLOC_LARGE: u64 = 300;
    /// Extra cost per page of a large allocation.
    pub const ALLOC_LARGE_PER_PAGE: u64 = 6;
    /// A `tcfree` attempt (status checks).
    pub const TCFREE_ATTEMPT: u64 = 4;
    /// Extra cost when a small free succeeds.
    pub const TCFREE_SMALL: u64 = 6;
    /// Extra cost when a large free succeeds (page return + dangling mark).
    pub const TCFREE_LARGE: u64 = 80;
    /// GC stop/start overhead per cycle.
    pub const GC_CYCLE_BASE: u64 = 6000;
    /// Marking one live object.
    pub const GC_MARK_OBJECT: u64 = 10;
    /// Scanning cost per 64 bytes of live data.
    pub const GC_SCAN_PER_64B: u64 = 3;
    /// Sweeping one span.
    pub const GC_SWEEP_SPAN: u64 = 40;
    /// GC stop/start overhead of a generational *minor* cycle (nursery
    /// only — much cheaper than `GC_CYCLE_BASE`). Unused by the default
    /// mark-sweep backend.
    pub const GC_MINOR_BASE: u64 = 1500;
    /// The generational write barrier: charged per store into a live old
    /// object, the first of which sets its remembered bit. The default
    /// mark-sweep backend has no barrier and never charges this.
    pub const WRITE_BARRIER: u64 = 2;

    // The fast path is the cheapest way to memory and a fresh span the
    // dearest; a successful large free costs more than the attempt.
    const _: () = assert!(ALLOC_SMALL < MCACHE_REFILL && MCACHE_REFILL < SPAN_CREATE);
    const _: () = assert!(TCFREE_ATTEMPT < TCFREE_LARGE);
}

/// A monotone virtual clock with jittered charging.
#[derive(Debug, Clone)]
pub struct Clock {
    total: u64,
    /// Jitter amplitude in parts-per-thousand (0 disables).
    jitter_ppm: u64,
}

impl Clock {
    /// Creates a clock; `jitter` is a fraction (e.g. 0.02 for ±2%).
    pub fn new(jitter: f64) -> Self {
        Clock {
            total: 0,
            jitter_ppm: (jitter.clamp(0.0, 0.5) * 1000.0) as u64,
        }
    }

    /// Elapsed virtual ticks.
    #[inline]
    pub fn now(&self) -> u64 {
        self.total
    }

    /// Charges exactly `ticks`.
    #[inline]
    pub fn charge(&mut self, ticks: u64) {
        self.total += ticks;
    }

    /// Charges `ticks` perturbed by seeded jitter (for costs that vary in
    /// real systems: refills, GC cycles, page faults).
    pub fn charge_jittered(&mut self, ticks: u64, rng: &mut SimRng) {
        if self.jitter_ppm == 0 || ticks == 0 {
            self.total += ticks;
            return;
        }
        let amp = self.jitter_ppm;
        let factor = 1000 - amp + rng.gen_range_inclusive(0, 2 * amp);
        self.total += (ticks * factor) / 1000;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_accumulates() {
        let mut c = Clock::new(0.0);
        c.charge(5);
        c.charge(7);
        assert_eq!(c.now(), 12);
    }

    #[test]
    fn zero_jitter_is_exact() {
        let mut rng = SimRng::seed_from_u64(1);
        let mut c = Clock::new(0.0);
        c.charge_jittered(1000, &mut rng);
        assert_eq!(c.now(), 1000);
    }

    #[test]
    fn jitter_stays_bounded() {
        let mut rng = SimRng::seed_from_u64(42);
        let mut c = Clock::new(0.1);
        for _ in 0..100 {
            let before = c.now();
            c.charge_jittered(1000, &mut rng);
            let d = c.now() - before;
            assert!((900..=1100).contains(&d), "delta {d} out of ±10%");
        }
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let run = |seed| {
            let mut rng = SimRng::seed_from_u64(seed);
            let mut c = Clock::new(0.05);
            for _ in 0..10 {
                c.charge_jittered(500, &mut rng);
            }
            c.now()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
