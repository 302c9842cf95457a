//! Directed tests for the shadow-heap sanitizer against the real
//! runtime: the §5 large-object two-step protocol (fig. 9) and the
//! tolerated-double-free paths, driven exactly as the VM drives them
//! (`on_alloc` after `Runtime::alloc`, `on_free` after a `Freed`
//! outcome, `on_sweep` for GC-reclaimed addresses).

use minigo_runtime::{
    Category, FreeCheck, FreeOutcome, Runtime, RuntimeConfig, ShadowHeap, ViolationKind,
    MAX_SMALL_SIZE,
};

fn quiet_runtime() -> Runtime {
    Runtime::new(RuntimeConfig {
        migrate_prob: 0.0,
        jitter: 0.0,
        gc_enabled: false, // collections are explicit in these tests
        ..RuntimeConfig::default()
    })
}

/// Fig. 9: a freed large object leaves a dangling span (step 1); the next
/// sweep retires the span struct to the idle list (step 2); the following
/// large allocation reuses it. The shadow heap must classify accesses
/// through the stale reference as use-after-free before the reuse and
/// use-after-revert after it — and the repeat free flips from tolerated
/// to an untolerated double free.
#[test]
fn large_object_two_step_reuse_is_classified() {
    let mut rt = quiet_runtime();
    let mut sh = ShadowHeap::new();
    let large = MAX_SMALL_SIZE + 4096;

    let addr = rt.alloc(large, Category::Slice);
    sh.on_alloc(1, addr);
    sh.check_access(1, "slice index read", 1);
    assert!(sh.violations().is_empty(), "live access is clean");

    // Step 1: the explicit free leaves the span dangling.
    match rt.tcfree(addr, minigo_runtime::FreeSource::SliceLifetime) {
        FreeOutcome::Freed { bytes } => {
            assert_eq!(bytes, large);
            sh.on_free(1, addr);
        }
        other => panic!("large tcfree did not free: {other:?}"),
    }

    // Freed but not yet reused: stale reads are use-after-free, a repeat
    // free is the tolerated double free of §5's AlreadyFree bail.
    sh.check_access(1, "slice index read", 2);
    assert_eq!(
        sh.violations().last().unwrap().kind,
        ViolationKind::UseAfterFree
    );
    assert_eq!(
        sh.check_free(1, "FreeSlice", 3),
        FreeCheck::Tolerated,
        "double free before reuse is tolerated"
    );
    assert_eq!(sh.tolerated_double_frees(), 1);

    // Step 2: the sweep retires the dangling span struct to the idle
    // list. Nothing was GC-freed, so the shadow heap sees no sweep event.
    let swept = rt.collect();
    assert!(swept.freed.is_empty(), "dangling span holds no live object");

    // The idle span struct is reused by the next large allocation: same
    // SpanId, same address, new object identity.
    let addr2 = rt.alloc(large, Category::Slice);
    assert_eq!(addr2, addr, "fig. 9: idle span struct reused");
    sh.on_alloc(2, addr2);

    // The stale reference now aliases the *new* object's storage.
    sh.check_access(1, "slice index read", 4);
    assert_eq!(
        sh.violations().last().unwrap().kind,
        ViolationKind::UseAfterRevert
    );
    assert_eq!(
        sh.check_free(1, "FreeSlice", 5),
        FreeCheck::Violation,
        "repeat free after reuse would free the new occupant"
    );
    assert_eq!(
        sh.violations().last().unwrap().kind,
        ViolationKind::UntoleratedDoubleFree
    );
    // The new identity itself stays clean throughout.
    sh.check_access(2, "slice index read", 6);
    let against_new: Vec<_> = sh.violations().iter().filter(|v| v.object == 2).collect();
    assert!(against_new.is_empty());
}

/// Small-object allocation-index reuse: after a small object is freed
/// (revert or bitmap path) and its slot is handed out again, the shadow
/// heap promotes the old identity to reused.
#[test]
fn small_object_slot_reuse_is_classified() {
    let mut rt = quiet_runtime();
    let mut sh = ShadowHeap::new();

    let a = rt.alloc(64, Category::Slice);
    sh.on_alloc(1, a);
    match rt.tcfree(a, minigo_runtime::FreeSource::SliceLifetime) {
        FreeOutcome::Freed { .. } => sh.on_free(1, a),
        other => panic!("small tcfree did not free: {other:?}"),
    }
    // The allocation-index revert hands the same slot straight back.
    let b = rt.alloc(64, Category::Slice);
    sh.on_alloc(2, b);
    assert_eq!(b, a, "allocation-index revert reuses the slot");
    sh.check_access(1, "slice index read", 1);
    assert_eq!(
        sh.violations().last().unwrap().kind,
        ViolationKind::UseAfterRevert
    );
}

/// A deliberately buggy hand-instrumented sequence — free, keep using,
/// free again across a reuse — accumulates exactly the three violation
/// kinds, while GC-swept identities never produce any.
#[test]
fn buggy_sequence_is_flagged_and_swept_identities_are_not() {
    let mut rt = quiet_runtime();
    let mut sh = ShadowHeap::new();

    // A GC-reclaimed object: unreachable, swept, forgotten.
    let g = rt.alloc(128, Category::Other);
    sh.on_alloc(10, g);
    let swept = rt.collect();
    assert!(swept.freed.iter().any(|f| f.addr == g));
    sh.on_sweep(10);
    sh.check_access(10, "pointer deref read", 1);
    assert!(
        sh.violations().is_empty(),
        "no reference can outlive a swept (unreachable) object"
    );

    // The planted bug: free s, read it, let the slot be reused, free again.
    let s = rt.alloc(256, Category::Slice);
    sh.on_alloc(11, s);
    match rt.tcfree(s, minigo_runtime::FreeSource::SliceLifetime) {
        FreeOutcome::Freed { .. } => sh.on_free(11, s),
        other => panic!("tcfree did not free: {other:?}"),
    }
    sh.check_access(11, "slice index read", 2); // use-after-free
    let s2 = rt.alloc(256, Category::Slice);
    sh.on_alloc(12, s2);
    assert_eq!(s2, s);
    sh.check_access(11, "slice index write", 3); // use-after-revert
    sh.check_free(11, "FreeSlice", 4); // untolerated double free
    let kinds: Vec<ViolationKind> = sh.violations().iter().map(|v| v.kind).collect();
    assert_eq!(
        kinds,
        vec![
            ViolationKind::UseAfterFree,
            ViolationKind::UseAfterRevert,
            ViolationKind::UntoleratedDoubleFree
        ]
    );
}
