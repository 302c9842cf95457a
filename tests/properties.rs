//! Property-based tests (proptest) over the core data structures:
//! allocator accounting, escape-graph solving, statistics, and the
//! printer/parser round trip.

use proptest::prelude::*;

use minigo_escape::{points_to, solve, walk, EscapeGraph, Labels, LocKind, SolveConfig, HEAP_LOC};
use minigo_runtime::{Category, FreeOutcome, FreeSource, Runtime, RuntimeConfig};
use minigo_syntax::VarId;

fn quiet_runtime() -> Runtime {
    Runtime::new(RuntimeConfig {
        migrate_prob: 0.0,
        jitter: 0.0,
        gc_enabled: false,
        ..RuntimeConfig::default()
    })
}

proptest! {
    /// Allocator accounting: live bytes equal the rounded sizes of the
    /// objects that were allocated and not freed, in any interleaving.
    #[test]
    fn allocator_accounting_balances(ops in proptest::collection::vec((1u64..40_000, any::<bool>()), 1..120)) {
        let mut rt = quiet_runtime();
        let mut live = Vec::new();
        let mut expected_live: i64 = 0;
        for (size, do_free) in ops {
            let addr = rt.alloc(size, Category::Other);
            let rounded = if size.max(8) <= minigo_runtime::MAX_SMALL_SIZE {
                minigo_runtime::class_size(minigo_runtime::class_for(size.max(8)))
            } else {
                size
            };
            expected_live += rounded as i64;
            live.push((addr, rounded));
            if do_free && live.len() > 1 {
                let (victim, bytes) = live.swap_remove(live.len() / 2);
                match rt.tcfree(victim, FreeSource::SliceLifetime) {
                    FreeOutcome::Freed { bytes: freed } => {
                        prop_assert_eq!(freed, bytes);
                        expected_live -= bytes as i64;
                    }
                    FreeOutcome::Bailed(_) => {
                        // Bails must leave the object allocated.
                        live.push((victim, bytes));
                    }
                    FreeOutcome::Poisoned => unreachable!("poison off"),
                }
            }
        }
        prop_assert_eq!(rt.heap_live() as i64, expected_live);
        prop_assert!(rt.footprint() >= rt.heap_live(), "pages cover live bytes");
        let m = rt.metrics();
        prop_assert!(m.freed_bytes <= m.alloced_bytes);
    }

    /// Double frees are always tolerated, never double-counted.
    #[test]
    fn double_free_tolerated(size in 1u64..5000, repeats in 2usize..6) {
        let mut rt = quiet_runtime();
        let a = rt.alloc(size, Category::Slice);
        let mut freed_count = 0;
        for _ in 0..repeats {
            if let FreeOutcome::Freed { .. } = rt.tcfree(a, FreeSource::SliceLifetime) {
                freed_count += 1;
            }
        }
        prop_assert_eq!(freed_count, 1, "exactly one free succeeds");
        prop_assert_eq!(rt.heap_live(), 0);
    }

    /// Escape graph: PointsTo ⊆ Holds for every location, all dereference
    /// counts ≥ -1, and solving twice changes nothing (idempotence).
    #[test]
    fn solver_invariants(edges in proptest::collection::vec((0u32..12, 0u32..12, -1i32..=2), 0..40)) {
        let mut g = EscapeGraph::new();
        for i in 0..12u32 {
            g.add_location(LocKind::Var(VarId(i)), (i % 3) as i32, 1 + (i % 4) as i32, true);
        }
        for (a, b, w) in edges {
            // Location 0 is the heap dummy; shift user nodes by 1.
            g.add_edge(
                minigo_escape::LocId(a % 12 + 1),
                minigo_escape::LocId(b % 12 + 1),
                w,
            );
        }
        solve(&mut g, &SolveConfig::default());
        let snapshot = g.dump(&Labels::bare());
        for id in g.ids() {
            let dist = walk(&g, id);
            for d in dist.iter().flatten() {
                prop_assert!(*d >= -1, "TrackDerefs(t) >= -1 always holds");
            }
            let pts = points_to(&g, id);
            for p in &pts {
                prop_assert!(dist[p.index()] == Some(-1));
            }
            // Outlived requires a pointee with a strictly smaller
            // OutermostRef (definition 4.15).
            if g.loc(id).outlived {
                let has_witness = pts
                    .iter()
                    .any(|p| g.loc(*p).outermost_ref < g.loc(id).decl_depth);
                prop_assert!(has_witness, "outlived without witness at {id}");
            }
        }
        let mut g2 = g.clone();
        solve(&mut g2, &SolveConfig::default());
        prop_assert_eq!(snapshot, g2.dump(&Labels::bare()), "solve must be idempotent");
    }

    /// Adding edges is monotone for HeapAlloc: escaping more never makes a
    /// heap location become stack.
    #[test]
    fn solver_monotone_in_edges(edges in proptest::collection::vec((0u32..8, 0u32..8, -1i32..=1), 1..24)) {
        let build = |n_edges: usize| {
            let mut g = EscapeGraph::new();
            for i in 0..8u32 {
                g.add_location(LocKind::Var(VarId(i)), 0, 1, true);
            }
            for (a, b, w) in edges.iter().take(n_edges) {
                g.add_edge(
                    minigo_escape::LocId(a % 8 + 1),
                    minigo_escape::LocId(b % 8 + 1),
                    *w,
                );
            }
            // One escape seed: node 1 flows to the heap.
            g.add_edge(minigo_escape::LocId(1), HEAP_LOC, 0);
            solve(&mut g, &SolveConfig::default());
            g
        };
        let smaller = build(edges.len() / 2);
        let bigger = build(edges.len());
        for id in smaller.ids() {
            if smaller.loc(id).heap_alloc {
                prop_assert!(
                    bigger.loc(id).heap_alloc,
                    "more dataflow can only increase escape"
                );
            }
        }
    }

    /// Welch's p-value is always in [0, 1] and symmetric in its arguments.
    #[test]
    fn welch_bounds_and_symmetry(
        a in proptest::collection::vec(-1e6f64..1e6, 2..40),
        b in proptest::collection::vec(-1e6f64..1e6, 2..40),
    ) {
        let w1 = gofree::welch_t_test(&a, &b);
        let w2 = gofree::welch_t_test(&b, &a);
        prop_assert!((0.0..=1.0).contains(&w1.p), "p = {}", w1.p);
        prop_assert!((w1.p - w2.p).abs() < 1e-9, "{} vs {}", w1.p, w2.p);
        prop_assert!((w1.t + w2.t).abs() < 1e-9);
    }

    /// Shifting one sample strictly away from the other never increases
    /// the p-value (more separation = more significance).
    #[test]
    fn welch_monotone_in_separation(base in proptest::collection::vec(0f64..100.0, 5..30), shift in 1f64..50.0) {
        let near: Vec<f64> = base.iter().map(|x| x + 1.0).collect();
        let far: Vec<f64> = base.iter().map(|x| x + 1.0 + shift).collect();
        let p_near = gofree::welch_t_test(&base, &near).p;
        let p_far = gofree::welch_t_test(&base, &far).p;
        prop_assert!(p_far <= p_near + 1e-9, "{p_far} > {p_near}");
    }

    /// Printer/parser fixpoint on generated arithmetic expressions.
    #[test]
    fn expr_print_parse_fixpoint(seed in 0u64..10_000) {
        // Generate a deterministic random expression from the seed.
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        fn gen(depth: u32, next: &mut impl FnMut() -> u32) -> String {
            if depth == 0 || next().is_multiple_of(3) {
                return format!("{}", next() % 100);
            }
            let op = ["+", "-", "*", "/", "%"][(next() % 5) as usize];
            format!("({} {} {})", gen(depth - 1, next), op, gen(depth - 1, next))
        }
        let src = gen(4, &mut next);
        let e1 = minigo_syntax::parse_expr(&src).expect("generated expr parses");
        let mut p1 = String::new();
        minigo_syntax::printer::print_expr(&mut p1, &e1);
        let e2 = minigo_syntax::parse_expr(&p1).expect("printed expr reparses");
        let mut p2 = String::new();
        minigo_syntax::printer::print_expr(&mut p2, &e2);
        prop_assert_eq!(p1, p2, "printing is a fixpoint");
    }

    /// Random map workloads: the VM's map matches a reference HashMap.
    #[test]
    fn vm_map_matches_reference(keys in proptest::collection::vec(0i64..50, 1..60)) {
        use std::collections::HashMap as StdMap;
        let mut body = String::from("func main() { m := make(map[int]int)\n");
        let mut reference: StdMap<i64, i64> = StdMap::new();
        for (i, k) in keys.iter().enumerate() {
            if i % 5 == 4 {
                body.push_str(&format!("delete(m, {k})\n"));
                reference.remove(k);
            } else {
                body.push_str(&format!("m[{k}] = {i}\n"));
                reference.insert(*k, i as i64);
            }
        }
        let probe: Vec<i64> = (0..50).collect();
        for k in &probe {
            body.push_str(&format!("print(m[{k}])\n"));
        }
        body.push_str("print(len(m)) }\n");
        let r = gofree::compile_and_run(
            &body,
            gofree::Setting::GoFree,
            &gofree::RunConfig::deterministic(0),
        )
        .expect("runs");
        let mut expected = String::new();
        for k in &probe {
            expected.push_str(&format!("{}\n", reference.get(k).copied().unwrap_or(0)));
        }
        expected.push_str(&format!("{}\n", reference.len()));
        prop_assert_eq!(r.output, expected);
    }
}
