//! Empirical complexity checks for the escape analysis: the paper's core
//! algorithmic claim is that GoFree keeps Go's O(N²) propagation. We pin
//! the *work counters* (walks, relaxations and locations reached), which
//! are deterministic, rather than wall time.

use minigo_escape::{analyze, build_func_graph, solve, AnalyzeOptions, LocKind, SolveConfig};
use minigo_syntax::{frontend, IdMap, VarId};

/// A straight-line pointer-heavy function with `k` statements.
fn chain_program(k: usize) -> String {
    let mut body = String::from("func big(n int) int {\n    x0 := n\n    p0 := &x0\n");
    for i in 1..k {
        body.push_str(&format!("    x{i} := x{} + 1\n    p{i} := &x{i}\n", i - 1));
        if i % 3 == 0 {
            body.push_str(&format!("    *p{} = x{i}\n", i - 1));
        }
    }
    body.push_str(&format!(
        "    return x{}\n}}\nfunc main() {{ print(big(1)) }}\n",
        k - 1
    ));
    body
}

fn solve_counters(k: usize) -> (usize, usize, usize, usize) {
    let src = chain_program(k);
    let (program, res, types) = frontend(&src).expect("compiles");
    let func = program.func("big").unwrap().clone();
    let mut fg = build_func_graph(&program, &res, &types, &func, &IdMap::default());
    let n = fg.graph.len();
    let stats = solve(&mut fg.graph, &SolveConfig::default());
    (n, stats.walks, stats.relaxations, stats.passes)
}

#[test]
fn walks_scale_linearly_with_locations() {
    // walks ≈ passes × N (+ requeues bounded by constant-height lattices):
    // doubling N should ~double walks, not quadruple them.
    let (n1, w1, _, p1) = solve_counters(100);
    let (n2, w2, _, p2) = solve_counters(200);
    assert!(n2 > n1 * 2 - 20 && n2 < n1 * 2 + 20, "{n1} vs {n2}");
    let ratio = w2 as f64 / w1 as f64;
    assert!(
        ratio < 3.0,
        "walks grew superlinearly: {w1} -> {w2} (x{ratio:.2})"
    );
    assert!(p1 <= 6 && p2 <= 6, "passes stay constant: {p1}, {p2}");
}

#[test]
fn relaxations_bounded_by_n_squared() {
    for k in [50usize, 150] {
        let (n, _, relax, _) = solve_counters(k);
        // Each walk is O(E) with constant revisits; across O(N) walks the
        // total must stay well under N² for sparse graphs.
        assert!(
            relax < n * n,
            "k={k}: {relax} relaxations exceeds N²={}",
            n * n
        );
    }
}

#[test]
fn gofree_work_tracks_go_within_constant() {
    let src = chain_program(150);
    let (program, res, types) = frontend(&src).expect("compiles");
    let go = analyze(&program, &res, &types, &AnalyzeOptions::go());
    let gofree = analyze(&program, &res, &types, &AnalyzeOptions::default());
    let ratio = gofree.stats.solve.relaxations as f64 / go.stats.solve.relaxations.max(1) as f64;
    assert!(
        ratio < 4.0,
        "GoFree must stay within a small constant of Go's work, got x{ratio:.2}"
    );
}

#[test]
fn dense_alias_cliques_converge() {
    // All-to-all copies: the worst case for the walk queue.
    let mut body = String::from("func clique() int {\n    x := 1\n    p0 := &x\n");
    for i in 1..20 {
        body.push_str(&format!("    p{i} := p{}\n", i - 1));
    }
    for i in 0..20 {
        for j in 0..20 {
            if i != j && (i + j) % 5 == 0 {
                body.push_str(&format!("    p{i} = p{j}\n"));
            }
        }
    }
    body.push_str("    return *p19\n}\nfunc main() { print(clique()) }\n");
    let (program, res, types) = frontend(&body).expect("compiles");
    let func = program.func("clique").unwrap().clone();
    let mut fg = build_func_graph(&program, &res, &types, &func, &IdMap::default());
    let stats = solve(&mut fg.graph, &SolveConfig::default());
    assert!(
        stats.passes <= 6,
        "clique converged in {} passes",
        stats.passes
    );
}

/// A walk costs what it reaches, not what the graph holds: K isolated
/// locations add K walks that reach only their own root, and leave the
/// relaxations and reached locations of every other walk unchanged.
#[test]
fn isolated_locations_leave_each_walk_unchanged() {
    let src = chain_program(100);
    let (program, res, types) = frontend(&src).expect("compiles");
    let func = program.func("big").unwrap();
    let fg = build_func_graph(&program, &res, &types, func, &IdMap::default());
    let go = SolveConfig {
        gofree: false,
        back_propagation: false,
        ..SolveConfig::default()
    };
    for cfg in [SolveConfig::default(), go] {
        let base = solve(&mut fg.graph.clone(), &cfg);
        assert!(base.passes > 1, "the chain needs more than one pass");
        for k in [1u32, 1_000, 50_000] {
            let mut g = fg.graph.clone();
            for i in 0..k {
                g.add_location(LocKind::Var(VarId(u32::MAX - i)), 0, 1, true);
            }
            let s = solve(&mut g, &cfg);
            let k = k as usize;
            assert_eq!(s.walks, base.walks + k, "k={k}");
            assert_eq!(s.reached, base.reached + k, "k={k}");
            assert_eq!(s.relaxations, base.relaxations, "k={k}");
            assert_eq!(s.passes, base.passes, "k={k}");
        }
    }
}
