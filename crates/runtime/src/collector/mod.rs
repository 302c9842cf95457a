//! Collection policy behind a trait: pacing, the concurrent-mark window,
//! mark costing, the sweep, and the post-GC goal all live in a
//! [`Collector`] implementation, not in [`crate::Runtime`].
//!
//! The runtime owns the *mechanism* — the heap, the virtual clock, the
//! metrics, the tracer — and delegates every *policy* decision here:
//! when a cycle triggers ([`Collector::pace`]), how long the simulated
//! concurrent-mark window stays open, what the cycle costs on the
//! virtual clock, which objects the sweep examines, and what the next
//! pacing goal is. Two backends ship:
//!
//! - [`GoMarkSweep`] — Go's non-moving mark-sweep with GOGC pacing, the
//!   design the paper evaluates. This is the default and is
//!   **bit-identical** to the pre-trait runtime: same clock charges in
//!   the same order, same RNG draws, same sweep; the workspace's
//!   collector-identity gate (tests/collector_identity.rs) pins it to
//!   pre-refactor golden fingerprints.
//! - [`Generational`] — a nursery with minor/major cycles and a
//!   remembered set fed by the write-barrier-shaped store sites both VM
//!   engines already instrument. Minor cycles sweep only nursery
//!   objects; survivors are promoted wholesale. `tcfree` interacts with
//!   the nursery directly: an explicit free evicts the object, so freed
//!   nursery bytes never count toward the minor trigger.
//!
//! Determinism rules every backend must obey: charge the clock only
//! through the [`crate::clock::CostModel`] passed in the config, draw
//! from the RNG only via `charge_jittered`, and make every decision a
//! pure function of (config, heap state, own state). Mark costs are
//! sums over the span mark words ([`Heap::marked_per_span`]), so the
//! order the VM visited objects in cannot reach the clock. Tracing must
//! stay invisible: a collector never records events itself — it returns
//! the cycle facts and the runtime records them — so traced and untraced
//! runs stay bit-identical.

mod gen;
mod go;

use std::fmt;
use std::str::FromStr;

use crate::clock::Clock;
use crate::heap::{Heap, HeapInvariantError, ObjAddr, SweepOutcome};
use crate::rng::SimRng;
use crate::runtime::RuntimeConfig;

pub use gen::Generational;
pub use go::GoMarkSweep;

/// Selects a collection backend ([`RuntimeConfig::collector`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CollectorKind {
    /// Go's non-moving mark-sweep with GOGC pacing (the paper's design;
    /// the default).
    #[default]
    Go,
    /// Generational mark-sweep: nursery + minor/major cycles + remembered
    /// set.
    Generational,
}

impl CollectorKind {
    /// The backend's CLI / report name.
    pub fn name(self) -> &'static str {
        match self {
            CollectorKind::Go => "go",
            CollectorKind::Generational => "gen",
        }
    }

    /// All backends, in CLI order.
    pub fn all() -> [CollectorKind; 2] {
        [CollectorKind::Go, CollectorKind::Generational]
    }

    /// Instantiates the backend for a runtime configuration.
    pub fn build(self, cfg: &RuntimeConfig) -> Box<dyn Collector> {
        match self {
            CollectorKind::Go => Box::new(GoMarkSweep::new(cfg)),
            CollectorKind::Generational => Box::new(Generational::new(cfg)),
        }
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
            "gen" | "generational" => Ok(CollectorKind::Generational),
            other => Err(format!("unknown collector '{other}' (expected go|gen)")),
        }
    }
}

/// Whether a cycle examined the whole heap or only the nursery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CycleKind {
    /// Nursery-only cycle (generational backend).
    Minor,
    /// Full-heap cycle (every [`GoMarkSweep`] cycle; the generational
    /// backend's GOGC-paced cycles).
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
pub struct GcTrigger {
    /// The pacing goal that was crossed (the byte threshold, for the
    /// trace's `heap_goal`).
    pub goal: u64,
    /// Length of the concurrent-mark window in allocations.
    pub window: u64,
    /// What kind of cycle will run when the window closes.
    pub kind: CycleKind,
}

/// What a completed cycle did, beyond the sweep itself.
#[derive(Debug, Clone)]
pub struct CycleOutcome {
    /// The sweep result (freed objects, spans examined, fig. 9
    /// dangling-span retirements).
    pub sweep: SweepOutcome,
    /// Minor or major.
    pub kind: CycleKind,
    /// The next pacing goal the backend derived.
    pub next_goal: u64,
}

/// A collection backend: owns every policy decision of the GC.
///
/// See the module docs for the determinism contract. All methods receive
/// the runtime's configuration by reference so backends stay stateless
/// about anything the config already records.
pub trait Collector: fmt::Debug {
    /// Which backend this is.
    fn kind(&self) -> CollectorKind;

    /// The backend's display name (CLI flag value, gctrace tag).
    fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// Whether the concurrent-mark window is open (`tcfree` bails with
    /// `GcRunning` while it is).
    fn gc_running(&self) -> bool;

    /// Whether the window has closed and the cycle should run at the
    /// next safepoint.
    fn gc_pending(&self) -> bool;

    /// Registers a freshly allocated object (nursery bookkeeping: the
    /// backend owns the spans' young words and sets them through
    /// `heap`). Must not touch the clock, metrics, or RNG.
    fn on_object_alloc(&mut self, heap: &mut Heap, addr: ObjAddr, bytes: u64);

    /// The pacing decision after an allocation: counts down an open
    /// window, or opens one and returns the trigger. Must not touch the
    /// clock or RNG.
    fn pace(&mut self, cfg: &RuntimeConfig, heap: &Heap, live_objects: u64) -> Option<GcTrigger>;

    /// Whether [`Collector::record_store`] can ever do anything. Constant
    /// for a backend's lifetime; the runtime asks once and skips the hook
    /// (and the VM its liveness lookup) for a backend without a barrier.
    fn has_barrier(&self) -> bool;

    /// Write-barrier hook: the VM stored into the heap object at `addr`.
    /// Returns the ticks to charge (0 = free; [`GoMarkSweep`] has no
    /// barrier and always returns 0, keeping the default backend
    /// observably identical to the pre-trait runtime).
    fn record_store(&mut self, cfg: &RuntimeConfig, heap: &Heap, addr: ObjAddr) -> u64;

    /// A `tcfree` deallocated `addr` (nursery eviction). Must not touch
    /// the clock, metrics, or RNG.
    fn on_free(&mut self, heap: &mut Heap, addr: ObjAddr, bytes: u64);

    /// Runs the cycle: charge the mark cost, sweep, charge the sweep
    /// cost, derive the next goal, close the window. The reachable set
    /// is the span mark bits the VM set from its roots
    /// ([`Heap::mark`]); the sweep clears them.
    fn collect(
        &mut self,
        cfg: &RuntimeConfig,
        heap: &mut Heap,
        clock: &mut Clock,
        rng: &mut SimRng,
    ) -> CycleOutcome;

    /// Checks the backend's own bookkeeping against the heap; the
    /// runtime asks wherever it checks [`Heap::check_invariants`].
    ///
    /// # Errors
    ///
    /// The first broken invariant.
    fn check_invariants(&self, _heap: &Heap) -> Result<(), HeapInvariantError> {
        Ok(())
    }

    /// Test hook: force the concurrent-mark window open for `assists`
    /// allocations.
    fn force_window(&mut self, assists: u64);
}

/// The mark cost of a cycle: `base` plus a per-survivor charge
/// proportional to object count and scanned bytes, over every marked
/// object (major cycles, both backends) or the marked young ones (minor).
pub(crate) fn mark_cost(cfg: &RuntimeConfig, heap: &Heap, base: u64, young_only: bool) -> u64 {
    let per_span = heap
        .marked_per_span(young_only)
        .map(|(objects, slot_size)| {
            objects
                * (cfg.costs.gc_mark_object + cfg.costs.gc_scan_per_64b * slot_size.div_ceil(64))
        });
    base + per_span.sum::<u64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_parses_and_displays() {
        assert_eq!("go".parse::<CollectorKind>().unwrap(), CollectorKind::Go);
        assert_eq!(
            "gen".parse::<CollectorKind>().unwrap(),
            CollectorKind::Generational
        );
        assert_eq!(
            "generational".parse::<CollectorKind>().unwrap(),
            CollectorKind::Generational
        );
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
    fn build_dispatches() {
        let cfg = RuntimeConfig::default();
        assert_eq!(CollectorKind::Go.build(&cfg).kind(), CollectorKind::Go);
        assert_eq!(
            CollectorKind::Generational.build(&cfg).kind(),
            CollectorKind::Generational
        );
    }
}
