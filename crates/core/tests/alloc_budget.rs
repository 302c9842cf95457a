//! The compile path's host allocation budget. This test binary counts
//! every allocation its process makes with its own global allocator
//! (so no other test is affected) and compiles the generated corpus and
//! a fuzz draw under the three option sets the `compile-corpus`
//! benchmark uses. It fails when `parse` or the whole `compile()` asks
//! the allocator for more blocks than its budget: the count this code
//! made when the budget was pinned, plus 5 %. A change that allocates
//! more per token, per edge or per instruction shows here before it
//! shows as host time.
//!
//! The counts print with
//! `cargo test --release -q -p gofree --test alloc_budget -- --nocapture`;
//! the debug profile counts the same or a few more (the optimiser may
//! elide an allocation that does not escape), and the budgets hold in
//! both.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use gofree::{compile, AuditMode, CompileOptions, FreePlacement};
use gofree_workloads::{corpus, fuzzgen};
use minigo_syntax::parse;

/// Counts the calls that obtain memory (`alloc`, `alloc_zeroed`,
/// `realloc`) and hands every call to the system allocator.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is an atomic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
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

/// The allocations `f` makes, its result dropped uncounted.
fn allocations<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.load(Relaxed);
    let out = f();
    let made = ALLOCATIONS.load(Relaxed) - before;
    drop(out);
    made
}

// One test, so no other test thread allocates while it counts.
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
