//! Shadow-heap sanitizer: the dynamic oracle that cross-validates the
//! static free-safety auditor.
//!
//! The shadow heap mirrors the real heap out-of-band. Every allocation
//! is tagged with its VM object identity (a monotonically increasing,
//! never-reused id — the "generation"), every explicit `tcfree` moves
//! that identity to a *freed* state, and every later allocation that
//! reuses the freed storage (a small-object allocation-index revert, or
//! a §5 fig. 9 step-2 span retirement followed by span reuse) promotes
//! it to *reused*. VM loads, stores, and frees consult the shadow state
//! and classify anything that touches dead storage:
//!
//! * **use-after-free** — an access through a freed identity whose
//!   storage has not been handed out again; the read still sees the old
//!   bytes, so only the sanitizer (or poison mode) can catch it.
//! * **use-after-revert** — an access through a freed identity whose
//!   storage *has* been reallocated; on real hardware this reads another
//!   object's bytes.
//! * **use-after-sweep** — an access through an identity a GC sweep
//!   reclaimed. The collector frees only what its roots cannot reach, so
//!   this is a root the VM failed to report.
//! * **untolerated double free** — a second free of an identity whose
//!   storage was reallocated in between. The runtime's `AlreadyFree`
//!   bail (§5) only tolerates double frees when the allocation bitmap
//!   still shows the slot dead; after reuse the same call would free a
//!   *live* object.
//!
//! A second free *before* reuse is the paper's tolerated double free:
//! the sanitizer counts it ([`ShadowHeap::tolerated_double_frees`]) but
//! does not report a violation, mirroring the runtime bail-out.
//!
//! The sanitizer is deliberately free of side effects on the simulation:
//! it charges no virtual ticks, never touches [`crate::Metrics`] or the
//! RNG, and reports violations out-of-band — so a run's observable
//! report is bit-identical with the sanitizer on or off.

use std::collections::HashMap;

use crate::heap::ObjAddr;

/// How an access or free violated the shadow heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// Load or store through a freed object before its storage was reused.
    UseAfterFree,
    /// Load or store through a freed object after its storage was
    /// reallocated to a new object.
    UseAfterRevert,
    /// Load or store through an object a GC sweep reclaimed.
    UseAfterSweep,
    /// A repeated free after the storage was reallocated — the one kind of
    /// double free §5's `AlreadyFree` bail-out cannot tolerate.
    UntoleratedDoubleFree,
}

impl std::fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ViolationKind::UseAfterFree => write!(f, "use-after-free"),
            ViolationKind::UseAfterRevert => write!(f, "use-after-revert"),
            ViolationKind::UseAfterSweep => write!(f, "use-after-sweep"),
            ViolationKind::UntoleratedDoubleFree => write!(f, "untolerated-double-free"),
        }
    }
}

/// One sanitizer finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShadowViolation {
    /// The classification.
    pub kind: ViolationKind,
    /// The VM object id (generation tag) involved.
    pub object: u64,
    /// What the VM was doing, e.g. `"slice index read"`.
    pub op: &'static str,
    /// The VM statement count at the violation (deterministic across
    /// engines, unlike host state).
    pub step: u64,
}

impl std::fmt::Display for ShadowViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} on object #{} during {} (step {})",
            self.kind, self.object, self.op, self.step
        )
    }
}

/// The state the shadow heap tracks per object identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShadowState {
    /// Allocated and not explicitly freed.
    Live,
    /// Explicitly freed; backing storage not yet handed out again.
    Freed,
    /// Explicitly freed and the backing storage has since been
    /// reallocated to another object.
    Reused,
}

/// The result of [`ShadowHeap::check_free`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FreeCheck {
    /// First free of a live object.
    Ok,
    /// Double free before storage reuse — tolerated by §5's
    /// `AlreadyFree` bail, counted but not a violation.
    Tolerated,
    /// Double free after storage reuse — recorded as a violation.
    Violation,
}

/// The shadow heap itself. Owned by a VM when `--sanitize` is on.
#[derive(Debug, Clone, Default)]
pub struct ShadowHeap {
    /// Shadow state per object identity. An identity a GC sweep freed
    /// is dropped: every heap allocation passes [`ShadowHeap::on_alloc`],
    /// so an identity absent here is a swept one.
    states: HashMap<u64, ShadowState>,
    /// Explicitly freed storage → the identity that used to own it. When
    /// the allocator hands the address out again the old identity is
    /// promoted to [`ShadowState::Reused`].
    freed_addrs: HashMap<ObjAddr, u64>,
    violations: Vec<ShadowViolation>,
    tolerated: u64,
}

impl ShadowHeap {
    /// A fresh, empty shadow heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an allocation: tags `obj` live at `addr` and, if `addr`
    /// was previously vacated by an explicit free, promotes the old
    /// occupant to the reused state (its bytes now belong to `obj`).
    pub fn on_alloc(&mut self, obj: u64, addr: ObjAddr) {
        if let Some(old) = self.freed_addrs.remove(&addr) {
            if let Some(st) = self.states.get_mut(&old) {
                *st = ShadowState::Reused;
            }
        }
        self.states.insert(obj, ShadowState::Live);
    }

    /// Records a successful explicit free of `obj` at `addr`.
    pub fn on_free(&mut self, obj: u64, addr: ObjAddr) {
        self.states.insert(obj, ShadowState::Freed);
        self.freed_addrs.insert(addr, obj);
    }

    /// Records a GC sweep of `obj`: the object was unreachable, so any
    /// later access through it is a use-after-sweep.
    pub fn on_sweep(&mut self, obj: u64) {
        self.states.remove(&obj);
    }

    /// Checks a load or store through heap object `obj`, recording a
    /// violation unless it is live. `op` names the access; `step` is
    /// the VM statement count.
    pub fn check_access(&mut self, obj: u64, op: &'static str, step: u64) {
        let kind = match self.states.get(&obj) {
            Some(ShadowState::Live) => return,
            Some(ShadowState::Freed) => ViolationKind::UseAfterFree,
            Some(ShadowState::Reused) => ViolationKind::UseAfterRevert,
            None => ViolationKind::UseAfterSweep,
        };
        self.violations.push(ShadowViolation {
            kind,
            object: obj,
            op,
            step,
        });
    }

    /// Checks an explicit free of `obj` *before* the runtime performs it,
    /// classifying repeat frees. `op` names the free flavour.
    pub fn check_free(&mut self, obj: u64, op: &'static str, step: u64) -> FreeCheck {
        match self.states.get(&obj) {
            Some(ShadowState::Freed) => {
                self.tolerated += 1;
                FreeCheck::Tolerated
            }
            Some(ShadowState::Reused) => {
                self.violations.push(ShadowViolation {
                    kind: ViolationKind::UntoleratedDoubleFree,
                    object: obj,
                    op,
                    step,
                });
                FreeCheck::Violation
            }
            _ => FreeCheck::Ok,
        }
    }

    /// The violations recorded so far.
    pub fn violations(&self) -> &[ShadowViolation] {
        &self.violations
    }

    /// Consumes the recorded violations (used when assembling a run
    /// report).
    pub fn take_violations(&mut self) -> Vec<ShadowViolation> {
        std::mem::take(&mut self.violations)
    }

    /// How many double frees were tolerated (§5 `AlreadyFree` bails seen
    /// before any storage reuse).
    pub fn tolerated_double_frees(&self) -> u64 {
        self.tolerated
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::SpanId;

    fn addr(span: u32, slot: u32) -> ObjAddr {
        ObjAddr {
            span: SpanId(span),
            slot,
        }
    }

    #[test]
    fn live_accesses_are_clean() {
        let mut sh = ShadowHeap::new();
        sh.on_alloc(1, addr(0, 0));
        sh.check_access(1, "read", 0);
        assert!(sh.violations().is_empty());
    }

    #[test]
    fn freed_then_reused_classification() {
        let mut sh = ShadowHeap::new();
        sh.on_alloc(1, addr(0, 3));
        sh.on_free(1, addr(0, 3));
        sh.check_access(1, "read", 10);
        assert_eq!(sh.violations()[0].kind, ViolationKind::UseAfterFree);
        // Storage handed out again: same address, new identity.
        sh.on_alloc(2, addr(0, 3));
        sh.check_access(1, "read", 20);
        assert_eq!(sh.violations()[1].kind, ViolationKind::UseAfterRevert);
        // The new occupant is fine.
        sh.check_access(2, "read", 21);
        assert_eq!(sh.violations().len(), 2);
    }

    #[test]
    fn double_free_tolerated_until_reuse() {
        let mut sh = ShadowHeap::new();
        sh.on_alloc(1, addr(2, 0));
        sh.on_free(1, addr(2, 0));
        assert_eq!(sh.check_free(1, "TcfreeSlice", 5), FreeCheck::Tolerated);
        assert_eq!(sh.tolerated_double_frees(), 1);
        assert!(sh.violations().is_empty());
        sh.on_alloc(2, addr(2, 0));
        assert_eq!(sh.check_free(1, "TcfreeSlice", 9), FreeCheck::Violation);
        assert_eq!(
            sh.violations()[0].kind,
            ViolationKind::UntoleratedDoubleFree
        );
    }

    #[test]
    fn an_access_through_a_swept_identity_is_a_use_after_sweep() {
        let mut sh = ShadowHeap::new();
        sh.on_alloc(1, addr(0, 0));
        sh.on_sweep(1);
        assert_eq!(sh.check_free(1, "TcfreeMap", 4), FreeCheck::Ok);
        assert!(sh.violations().is_empty(), "the runtime bails on the free");
        sh.check_access(1, "read", 3);
        assert_eq!(sh.violations()[0].kind, ViolationKind::UseAfterSweep);
    }
}
