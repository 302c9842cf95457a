//! The host allocation budgets of the compile path and of execution,
//! and the host memory execution holds. This test binary counts every
//! allocation its threads make, and the bytes they hold, with its own
//! global allocator (so no other test binary is affected; each thread
//! counts its own, so no test sees another's). One test compiles the
//! generated corpus and a fuzz draw under the three option sets the
//! `compile-corpus` benchmark uses; another executes one small program
//! per kind of guest heap object. Each fails when its count is over its
//! budget: the count this code made when the budget was pinned, plus
//! 5 %. A change that allocates more per token, per edge, per
//! instruction or per guest object shows here before it shows as host
//! time. The last holds a run's host bytes to its simulated heap:
//! cyclic garbage the collector reclaims is freed on the host.
//!
//! The counts print with
//! `cargo test --release -q -p gofree --test alloc_budget -- --nocapture`;
//! the debug profile counts the same or a few more (the optimiser may
//! elide an allocation that does not escape), and the budgets hold in
//! both.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gofree::{
    compile, execute, AuditMode, CollectorKind, CompileOptions, FreePlacement, RunConfig, Setting,
    VmEngine,
};
use gofree_workloads::{corpus, fuzzgen};
use minigo_syntax::parse;

/// Counts the calls that obtain memory (`alloc`, `alloc_zeroed`,
/// `realloc`) and the bytes held, and hands every call to the system
/// allocator.
struct Counting;

thread_local! {
    /// This thread's count. Constant-initialised with no destructor, so
    /// reaching it never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated minus the bytes it freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The most `LIVE` has been since it was last reset.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn count_one() {
    // A thread being torn down has nothing left to measure.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// `bytes` more (or, negative, fewer) held by this thread.
fn hold(bytes: i64) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + bytes);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        hold(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        hold(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        hold(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        hold(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// `parse` over every source once: 12,424 allocations when pinned
/// (24,098 before the parser stopped cloning its tokens).
const PARSE_BUDGET: u64 = 13_045;
/// `compile()` over every source under every option set: 118,675 when
/// pinned (197,776 before the compile path stopped churning).
const COMPILE_BUDGET: u64 = 124_608;

fn sources() -> Vec<String> {
    let mut out = vec![corpus::generate(200)];
    out.extend((1..=8).map(fuzzgen::generate));
    out
}

fn option_sets() -> [CompileOptions; 3] {
    [
        CompileOptions::go(),
        CompileOptions::default(),
        CompileOptions {
            free_placement: FreePlacement::LastUse,
            audit: AuditMode::Warn,
            ..CompileOptions::default()
        },
    ]
}

/// The allocations `f` makes on this thread, its result dropped
/// uncounted.
fn allocations<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.get();
    let out = f();
    let made = ALLOCATIONS.get() - before;
    drop(out);
    made
}

#[test]
fn compile_stays_within_its_allocation_budget() {
    let sources = sources();
    let parse_allocs: u64 = sources
        .iter()
        .map(|src| allocations(|| parse(src).expect("generated programs parse")))
        .sum();
    let mut compile_allocs = 0;
    for src in &sources {
        for opts in option_sets() {
            compile_allocs +=
                allocations(|| compile(src, &opts).expect("generated programs compile"));
        }
    }
    println!("parse: {parse_allocs} allocations (budget {PARSE_BUDGET})");
    println!("compile(): {compile_allocs} allocations (budget {COMPILE_BUDGET})");
    assert!(
        parse_allocs <= PARSE_BUDGET,
        "parse made {parse_allocs} allocations, over its budget of {PARSE_BUDGET}"
    );
    assert!(
        compile_allocs <= COMPILE_BUDGET,
        "compile() made {compile_allocs} allocations, over its budget of {COMPILE_BUDGET}"
    );
}

/// How many guest objects each execute-budget program makes.
const OBJECTS: usize = 1000;

/// One loop body per kind of guest object, each making one object per
/// iteration that dies with it, and what one `execute()` of the
/// [`OBJECTS`]-iteration program made when pinned. Before a pointer
/// cell, map or backing array carried its heap handle in its payload's
/// allocation, and a struct's fields were one allocation, the counts
/// were 4,016, 2,015, 3,045, 2,015 and 7,061: per object `&T{}` 4 → 2,
/// a struct literal 2 → 1, `make([]int, n)` 3 → 3, `make(map…)` 2 → 1,
/// and `newNode` — the `gc-pressure` workload's slice plus `&Node{}` —
/// 7 → 5. The slot table that owns heap payloads added its per-span
/// vectors, grown by doubling as slots are first used: `make([]int, n)`
/// 3,036 → 3,085 and `newNode` 5,051 → 5,143 (per span the run uses,
/// not per object).
const EXECUTE_KINDS: [(&str, &str, u64); 5] = [
    ("&T{}", "p := &T{i, nil}\n t += p.a", 2_016),
    ("struct literal", "s := T{i, nil}\n t += s.a", 1_015),
    (
        "make([]int, n)",
        "s := make([]int, 4+i%5)\n t += len(s)",
        3_085,
    ),
    ("make(map…)", "m := make(map[int]int)\n t += len(m)", 1_015),
    ("newNode", "n := newNode(i, nil)\n t += n.vals[0]", 5_143),
];

/// A program whose `main` runs `body` [`OBJECTS`] times.
fn kind_program(body: &str) -> String {
    format!(
        "type T struct {{ a int\n next *T }}\n\
         type Node struct {{ key int\n vals []int\n next *Node }}\n\
         func newNode(key int, next *Node) *Node {{ vals := make([]int, 4+key%5)\n\
         vals[0] = key * 7\n return &Node{{key, vals, next}} }}\n\
         func main() {{ t := 0\n for i := 0; i < {OBJECTS}; i += 1 {{ {body} }}\n print(t) }}\n"
    )
}

#[test]
fn execute_stays_within_its_allocation_budget_per_object_kind() {
    let cfg = RunConfig::deterministic(1);
    let mut over = Vec::new();
    for (kind, body, pinned) in EXECUTE_KINDS {
        let src = kind_program(body);
        let compiled = compile(&src, &CompileOptions::go()).expect("the kind programs compile");
        let made = allocations(|| execute(&compiled, Setting::Go, &cfg).expect("runs"));
        let budget = pinned + pinned / 20;
        println!("execute() {kind}: {made} allocations (budget {budget})");
        if made > budget {
            over.push(format!("{kind}: {made} over {budget}"));
        }
    }
    assert!(over.is_empty(), "over the execute budget: {over:?}");
}

/// A program whose `main` calls `pair` `n` times. Each call builds two
/// heap nodes, each with a 64-int array, that point at each other, and
/// with `cut` ends the cycle before it returns by clearing `b`'s edge
/// (else it stores an int in its place, a store that is no barrier event
/// either). Nothing outlives a call, so the collector reclaims both
/// nodes either way, and the two programs run the same simulation: a
/// minor that finds `a` remembered keeps `b` through `a`'s edge in both.
fn pair_program(n: usize, cut: bool) -> String {
    let cut = if cut { "b.peer = nil" } else { "b.v = 0" };
    format!(
        "type Node struct {{ v int\n vals []int\n peer *Node }}\n\
         func pair(i int) int {{ a := &Node{{i, make([]int, 64), nil}}\n\
         b := &Node{{i + 1, make([]int, 64), a}}\n a.peer = b\n\
         t := a.peer.v + b.peer.v\n {cut}\n return t }}\n\
         func main() {{ t := 0\n for i := 0; i < {n}; i += 1 {{ t += pair(i) }}\n print(t) }}\n"
    )
}

/// One `execute()` of `src`: the most host bytes it held at once and the
/// bytes it left held once its report was dropped, beyond what the
/// thread held before it, and the simulated heap's peak.
fn host_bytes(src: &str, setting: Setting, cfg: &RunConfig) -> (i64, i64, u64) {
    let compiled = compile(src, &setting.compile_options()).expect("compiles");
    let start = LIVE.get();
    PEAK.set(start);
    let report = execute(&compiled, setting, cfg).expect("runs");
    let peak = PEAK.get() - start;
    let maxheap = report.metrics.maxheap;
    drop(report);
    (peak, LIVE.get() - start, maxheap)
}

#[test]
fn cyclic_garbage_the_collector_reclaims_is_freed_on_the_host() {
    const CALLS: usize = 10_000;
    let (cyclic, twin) = (pair_program(CALLS, false), pair_program(CALLS, true));
    for setting in Setting::all() {
        for engine in [VmEngine::TreeWalk, VmEngine::Bytecode] {
            for collector in [CollectorKind::Go, CollectorKind::Generational] {
                let cfg = RunConfig {
                    engine,
                    collector,
                    ..RunConfig::deterministic(1)
                };
                let run = format!("{setting} {engine} {collector:?}");
                let (peak, left, maxheap) = host_bytes(&cyclic, setting, &cfg);
                let (twin_peak, twin_left, twin_maxheap) = host_bytes(&twin, setting, &cfg);
                println!("{run}: cyclic peak {peak} B, acyclic twin {twin_peak} B");
                assert_eq!(maxheap, twin_maxheap, "{run}: one simulated heap");
                // GC off reclaims nothing, on the host as in the heap.
                if setting.gc_enabled() {
                    assert!(
                        peak <= 2 * twin_peak,
                        "{run}: the cyclic program held {peak} B, its twin {twin_peak} B"
                    );
                }
                assert!(
                    left.max(twin_left) <= 4096,
                    "{run}: {left} B (twin {twin_left} B) still held after the run"
                );
            }
        }
    }
}
