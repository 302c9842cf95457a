//! Property propagation over the escape graph.
//!
//! Implements the paper's fig. 5 `walkall` algorithm: a work queue of root
//! locations; for each root, a reverse walk computes `MinDerefs(m, root)`
//! for every `m ∈ Holds(root)` (definitions 4.6–4.9) and applies the
//! constraints of definitions 4.10–4.16. GoFree's extension (fig. 5 lines
//! 10–13) also updates the *root* from its leaves (back-propagation), which
//! `Incomplete`, `Outlived`, and `PointsToHeap` need.
//!
//! Dereference counts are clamped to the small domain `[-1, CLAMP]`; only
//! `d == -1` (points-to) and `d <= 0` matter to any constraint, so clamping
//! preserves the solution while bounding each node to a constant number of
//! relaxations per walk — this is what keeps the whole pass O(N²). A walk
//! also costs only what it reaches: the walk state is allocated once per
//! [`Solver`], which `analyze` reuses for every function, and each
//! location is stamped with the walk that last reached it, so no walk
//! clears or scans the whole graph.

use std::collections::VecDeque;

use crate::graph::{EscapeGraph, LocId};

/// Upper clamp for dereference counts during walks.
const CLAMP: i32 = 2;

/// Solver configuration.
#[derive(Debug, Clone)]
pub struct SolveConfig {
    /// Apply GoFree's completeness/lifetime constraints (§4.2, §4.3). When
    /// false, only Go's original `HeapAlloc` constraint runs — this is the
    /// "plain Go" mode used for the compilation-speed comparison.
    pub gofree: bool,
    /// Enable leaf→root back-propagation (fig. 5 lines 10–13). Disabling it
    /// is the ablation showing `Incomplete`/`Outlived` need it.
    pub back_propagation: bool,
    /// Skip roots whose reachable subgraph didn't change in the previous
    /// fixpoint pass. Every constraint is monotone and reads only the root
    /// and its walk cone, so a root whose cone is untouched re-derives the
    /// same facts — skipping it cannot change the (unique) fixpoint.
    /// Disabling this is the always-correct reference mode the equivalence
    /// test compares against.
    pub dirty_roots: bool,
}

impl Default for SolveConfig {
    fn default() -> Self {
        SolveConfig {
            gofree: true,
            back_propagation: true,
            dirty_roots: true,
        }
    }
}

/// Counters describing one solve run (used by the complexity tests and the
/// compilation-speed experiment).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Number of root walks performed.
    pub walks: usize,
    /// Number of edge relaxations across all walks.
    pub relaxations: usize,
    /// Locations the walks reached, each walk's root included. With
    /// `relaxations` this is a walk's whole cost: it stamps and revisits
    /// only what it reached, however large the graph.
    pub reached: usize,
    /// Number of outer fixpoint passes (should stay a small constant).
    pub passes: usize,
    /// Root walks skipped by dirty-root tracking (their cone was clean).
    pub skipped_walks: usize,
}

/// One solve's walk state, reused by every root walk. Each location
/// carries a distance and the generation of the walk that last reached
/// it (Go's `walkgen`): starting a walk bumps the generation instead of
/// clearing a distance per location, and the locations a walk reached
/// are listed, so applying the constraints visits only those.
#[derive(Default)]
struct Walker {
    dist: Vec<i32>,
    stamp: Vec<u32>,
    gen: u32,
    /// The last walk's locations, root included, in location order.
    reached: Vec<LocId>,
    queue: VecDeque<LocId>,
}

impl Walker {
    fn new(len: usize) -> Self {
        let mut w = Walker::default();
        w.fit(len);
        w
    }

    /// Makes room for a graph of `len` locations. A stamp left by an
    /// earlier graph is older than every walk still to come, so it reads
    /// as unreached.
    fn fit(&mut self, len: usize) {
        if self.dist.len() < len {
            self.dist.resize(len, 0);
            self.stamp.resize(len, 0);
        }
    }

    /// `MinDerefs(m, root)` of the last walk, `None` when `m ∉ Holds(root)`.
    fn dist(&self, m: LocId) -> Option<i32> {
        (self.stamp[m.index()] == self.gen).then(|| self.dist[m.index()])
    }

    fn set(&mut self, m: LocId, d: i32) {
        if self.stamp[m.index()] != self.gen {
            self.stamp[m.index()] = self.gen;
            self.reached.push(m);
        }
        self.dist[m.index()] = d;
    }

    /// Computes `MinDerefs(m, root)` for every `m ∈ Holds(root)`.
    fn walk(&mut self, g: &EscapeGraph, root: LocId, relaxations: &mut usize) {
        self.gen = self.gen.checked_add(1).unwrap_or_else(|| {
            self.stamp.fill(0);
            1
        });
        self.reached.clear();
        self.set(root, 0);
        self.queue.push_back(root);
        while let Some(cur) = self.queue.pop_front() {
            let d_cur = self.dist[cur.index()];
            for e in g.incoming(cur) {
                *relaxations += 1;
                // TrackDerefs recurrence (definition 4.7): extending the
                // track with an earlier edge clamps the running count at
                // zero first.
                let base = if cur == root { 0 } else { d_cur.max(0) };
                let d_new = (base + e.derefs).min(CLAMP);
                if self.dist(e.src).is_none_or(|old| d_new < old) {
                    self.set(e.src, d_new);
                    self.queue.push_back(e.src);
                }
            }
        }
        self.reached.sort_unstable();
    }

    /// The last walk's reached locations other than `root`, with their
    /// distances, in location order.
    fn leaves(&self, root: LocId) -> impl Iterator<Item = (LocId, i32)> + '_ {
        self.reached
            .iter()
            .filter(move |&&m| m != root)
            .map(|&m| (m, self.dist[m.index()]))
    }
}

/// Computes `MinDerefs(m, root)` for every `m ∈ Holds(root)`.
///
/// Returns a dense vector indexed by location: `None` when
/// `m ∉ Holds(root)`. The entry for `root` itself is `Some(0)` (the empty
/// track), which callers typically skip.
pub fn walk(g: &EscapeGraph, root: LocId) -> Vec<Option<i32>> {
    let mut w = Walker::new(g.len());
    w.walk(g, root, &mut 0);
    g.ids().map(|m| w.dist(m)).collect()
}

/// The leaves of one walk from `root` whose distance passes `keep`, in
/// location order.
fn leaves_where(g: &EscapeGraph, root: LocId, keep: impl Fn(i32) -> bool) -> Vec<LocId> {
    let mut w = Walker::new(g.len());
    w.walk(g, root, &mut 0);
    w.leaves(root)
        .filter_map(|(m, d)| keep(d).then_some(m))
        .collect()
}

/// `PointsTo(root)` (definition 4.9): locations whose address `root` may
/// hold, i.e. `MinDerefs(m, root) == -1`.
///
/// ```
/// use minigo_escape::{points_to, EscapeGraph, LocKind};
/// use minigo_syntax::VarId;
///
/// // p = &x; q = p
/// let mut g = EscapeGraph::new();
/// let x = g.add_location(LocKind::Var(VarId(0)), 0, 1, true);
/// let p = g.add_location(LocKind::Var(VarId(1)), 0, 1, true);
/// let q = g.add_location(LocKind::Var(VarId(2)), 0, 1, true);
/// g.add_edge(x, p, -1);
/// g.add_edge(p, q, 0);
/// assert_eq!(points_to(&g, q), vec![x]);
/// ```
pub fn points_to(g: &EscapeGraph, root: LocId) -> Vec<LocId> {
    leaves_where(g, root, |d| d == -1)
}

/// `Holds(root)` (definition 4.6): every location whose value or address
/// may end up in `root`.
pub fn holds(g: &EscapeGraph, root: LocId) -> Vec<LocId> {
    leaves_where(g, root, |_| true)
}

/// Solves all escape properties on `g` to a fixpoint (see
/// [`Solver::solve`]).
///
/// ```
/// use minigo_escape::{solve, EscapeGraph, LocKind, SolveConfig, HEAP_LOC};
/// use minigo_syntax::VarId;
///
/// // x escapes: p = &x; *q = p
/// let mut g = EscapeGraph::new();
/// let x = g.add_location(LocKind::Var(VarId(0)), 0, 1, true);
/// let p = g.add_location(LocKind::Var(VarId(1)), 0, 1, true);
/// g.add_edge(x, p, -1);
/// g.add_edge(p, HEAP_LOC, 0);
/// solve(&mut g, &SolveConfig::default());
/// assert!(g.loc(x).heap_alloc);
/// ```
pub fn solve(g: &mut EscapeGraph, cfg: &SolveConfig) -> SolveStats {
    Solver::default().solve(g, cfg)
}

/// The solver's buffers — the walk state, the pass's seed roots, its
/// touched and queued flags, and its work queue — sized to the largest
/// graph solved so far. `analyze` solves every function with one, so a
/// function's solve allocates nothing once an earlier graph was as
/// large.
#[derive(Default)]
pub struct Solver {
    walker: Walker,
    seed: Vec<LocId>,
    touched: Vec<bool>,
    in_queue: Vec<bool>,
    queue: VecDeque<LocId>,
}

impl Solver {
    /// Solves all escape properties on `g` to a fixpoint.
    pub fn solve(&mut self, g: &mut EscapeGraph, cfg: &SolveConfig) -> SolveStats {
        let mut stats = SolveStats::default();
        let n = g.len();
        self.walker.fit(n);
        // Every pass leaves `in_queue` all false.
        self.in_queue.clear();
        self.in_queue.resize(n, false);
        // Outer fixpoint: the queue discipline of fig. 5 re-walks updated
        // locations, but a leaf update can also invalidate constraints
        // whose *root* is elsewhere (rule (c) of definition 4.12 reads
        // leaf state from the root's walk). The verification sweep
        // catches those; property lattices have constant height, so the
        // number of passes is bounded by a small constant in practice
        // (tests pin this).
        let max_passes = n + 4;
        // The first pass always seeds every root; later passes only need
        // roots whose walk cone was touched by the previous pass.
        self.seed.clear();
        self.seed.extend(g.ids());
        loop {
            stats.passes += 1;
            self.touched.clear();
            self.touched.resize(n, false);
            if !self.walkall_pass(g, cfg, &mut stats) {
                break;
            }
            assert!(
                stats.passes <= max_passes,
                "escape property solve failed to converge"
            );
            if cfg.dirty_roots {
                self.dirty_roots(g);
                stats.skipped_walks += n - self.seed.len();
            } else {
                self.seed.clear();
                self.seed.extend(g.ids());
            }
        }
        stats
    }

    /// Replaces the seed with the roots that must be re-walked after a
    /// pass that touched `touched`: the forward closure (along src→dst
    /// edges) of every touched location, i.e. exactly the roots whose
    /// walk cone contains a touched location. A root outside this set
    /// re-reads the same operands as last pass, and every constraint is a
    /// pure monotone function of those operands, so re-walking it is a
    /// no-op. Marks the closure in `touched`.
    fn dirty_roots(&mut self, g: &EscapeGraph) {
        let dirty = &mut self.touched;
        self.queue.clear();
        self.queue.extend(g.ids().filter(|id| dirty[id.index()]));
        while let Some(cur) = self.queue.pop_front() {
            for e in g.outgoing(cur) {
                if !dirty[e.dst.index()] {
                    dirty[e.dst.index()] = true;
                    self.queue.push_back(e.dst);
                }
            }
        }
        self.seed.clear();
        self.seed.extend(g.ids().filter(|id| dirty[id.index()]));
    }

    /// One work-queue pass over the seed roots; returns whether anything
    /// changed and flags every mutated location in `touched`. Each root's
    /// constraints are applied leaf by leaf in location order.
    fn walkall_pass(
        &mut self,
        g: &mut EscapeGraph,
        cfg: &SolveConfig,
        stats: &mut SolveStats,
    ) -> bool {
        let Solver {
            walker: w,
            seed,
            touched,
            in_queue,
            queue,
        } = self;
        let mut any_change = false;
        for id in seed.iter() {
            in_queue[id.index()] = true;
        }
        queue.clear();
        queue.extend(seed.iter().copied());
        while let Some(root) = queue.pop_front() {
            in_queue[root.index()] = false;
            stats.walks += 1;
            w.walk(g, root, &mut stats.relaxations);
            stats.reached += w.reached.len();
            let mut root_changed = false;
            for (leaf, d) in w.leaves(root) {
                let leaf_changed = apply_forward(g, root, leaf, d, cfg);
                if leaf_changed {
                    any_change = true;
                    touched[leaf.index()] = true;
                    if !in_queue[leaf.index()] {
                        in_queue[leaf.index()] = true;
                        queue.push_back(leaf);
                    }
                }
                if cfg.back_propagation && apply_backward(g, root, leaf, d, cfg) {
                    any_change = true;
                    root_changed = true;
                }
            }
            if root_changed {
                touched[root.index()] = true;
                if !in_queue[root.index()] {
                    in_queue[root.index()] = true;
                    queue.push_back(root);
                }
            }
        }
        any_change
    }
}

/// Root→leaf constraints: `HeapAlloc` (4.10), `OutermostRef` (4.14),
/// `Exposes` propagation (4.11 clause 4), `Incomplete` from exposure (4.12
/// clause b). Returns whether the leaf changed.
fn apply_forward(g: &mut EscapeGraph, root: LocId, leaf: LocId, d: i32, cfg: &SolveConfig) -> bool {
    let (r_heap, r_loop, r_decl, r_exposes) = {
        let r = g.loc(root);
        (r.heap_alloc, r.loop_depth, r.decl_depth, r.exposes)
    };
    let m = g.loc_mut(leaf);
    let mut changed = false;
    if d == -1 {
        // leaf ∈ PointsTo(root): root may hold leaf's address.
        if !m.heap_alloc && (r_heap || r_loop < m.loop_depth) {
            m.heap_alloc = true;
            changed = true;
        }
        if r_decl < m.outermost_ref {
            m.outermost_ref = r_decl;
            changed = true;
        }
        if cfg.gofree && r_exposes && m.pointerful && !(m.incomplete && m.incomplete_internal) {
            m.incomplete = true;
            m.incomplete_internal = true;
            changed = true;
        }
    }
    if d <= 0 && cfg.gofree && r_exposes && m.pointerful && !m.exposes {
        m.exposes = true;
        changed = true;
    }
    changed
}

/// Leaf→root constraints (GoFree's fig. 5 extension): `Outlived` (4.15),
/// `PointsToHeap` (4.16), `Incomplete` from held values (4.12 clause c).
/// Returns whether the root changed.
fn apply_backward(
    g: &mut EscapeGraph,
    root: LocId,
    leaf: LocId,
    d: i32,
    cfg: &SolveConfig,
) -> bool {
    if !cfg.gofree {
        return false;
    }
    let (m_heap, m_outermost, m_incomplete, m_incomplete_internal) = {
        let m = g.loc(leaf);
        (
            m.heap_alloc,
            m.outermost_ref,
            m.incomplete,
            m.incomplete_internal,
        )
    };
    let r = g.loc_mut(root);
    let mut changed = false;
    if d == -1 {
        // leaf ∈ PointsTo(root): root is a pointer to leaf.
        if !r.outlived && m_outermost < r.decl_depth {
            r.outlived = true;
            changed = true;
        }
        if !r.points_to_heap && m_heap {
            r.points_to_heap = true;
            changed = true;
        }
    }
    // leaf ∈ Holds(root) at a value-level dereference count (d >= 0): the
    // root holds the leaf's (possibly untracked) value, so the root's own
    // points-to set is incomplete. Pure address-of flow (d == -1) is
    // excluded: the root then points *at* the leaf — fully tracked —
    // regardless of what the leaf's contents are.
    if d >= 0 && r.pointerful {
        if m_incomplete && !r.incomplete {
            r.incomplete = true;
            changed = true;
        }
        if m_incomplete_internal && !r.incomplete_internal {
            r.incomplete_internal = true;
            changed = true;
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Labels, LocKind, HEAP_LOC};
    use minigo_syntax::VarId;

    /// Every solved property of every location, in location order.
    fn snapshot(g: &EscapeGraph) -> Vec<(bool, bool, bool, bool, i32, bool, bool)> {
        g.locations()
            .iter()
            .map(|l| {
                (
                    l.heap_alloc,
                    l.exposes,
                    l.incomplete,
                    l.incomplete_internal,
                    l.outermost_ref,
                    l.outlived,
                    l.points_to_heap,
                )
            })
            .collect()
    }

    /// The dense solver the walk-generation one replaced, kept as the
    /// model: every walk allocates a distance per location, the pass
    /// scans all of them, and `dirty_roots` rebuilds its forward lists.
    /// The model tests below hold the real solver to it.
    mod model {
        use super::super::{apply_backward, apply_forward, SolveConfig, SolveStats, CLAMP};
        use crate::graph::{EscapeGraph, LocId};
        use std::collections::VecDeque;

        pub fn walk(g: &EscapeGraph, root: LocId, relaxations: &mut usize) -> Vec<Option<i32>> {
            let mut dist: Vec<Option<i32>> = vec![None; g.len()];
            dist[root.index()] = Some(0);
            let mut queue = VecDeque::new();
            queue.push_back(root);
            while let Some(cur) = queue.pop_front() {
                let d_cur = dist[cur.index()].expect("queued nodes have distances");
                for e in g.incoming(cur) {
                    *relaxations += 1;
                    let base = if cur == root { 0 } else { d_cur.max(0) };
                    let d_new = (base + e.derefs).min(CLAMP);
                    let better = match dist[e.src.index()] {
                        None => true,
                        Some(old) => d_new < old,
                    };
                    if better {
                        dist[e.src.index()] = Some(d_new);
                        queue.push_back(e.src);
                    }
                }
            }
            dist
        }

        pub fn solve(g: &mut EscapeGraph, cfg: &SolveConfig) -> SolveStats {
            let mut stats = SolveStats::default();
            let mut seed: Vec<LocId> = g.ids().collect();
            loop {
                stats.passes += 1;
                let mut touched = vec![false; g.len()];
                if !pass(g, cfg, &mut stats, &seed, &mut touched) {
                    break;
                }
                seed = if cfg.dirty_roots {
                    let dirty = dirty_roots(g, &touched);
                    stats.skipped_walks += g.len() - dirty.len();
                    dirty
                } else {
                    g.ids().collect()
                };
            }
            stats
        }

        fn dirty_roots(g: &EscapeGraph, touched: &[bool]) -> Vec<LocId> {
            let mut out: Vec<Vec<LocId>> = vec![Vec::new(); g.len()];
            for e in g.edges() {
                out[e.src.index()].push(e.dst);
            }
            let mut dirty = touched.to_vec();
            let mut queue: VecDeque<LocId> = g.ids().filter(|id| touched[id.index()]).collect();
            while let Some(cur) = queue.pop_front() {
                for &next in &out[cur.index()] {
                    if !dirty[next.index()] {
                        dirty[next.index()] = true;
                        queue.push_back(next);
                    }
                }
            }
            g.ids().filter(|id| dirty[id.index()]).collect()
        }

        fn pass(
            g: &mut EscapeGraph,
            cfg: &SolveConfig,
            stats: &mut SolveStats,
            seed: &[LocId],
            touched: &mut [bool],
        ) -> bool {
            let mut any_change = false;
            let mut in_queue = vec![false; g.len()];
            for id in seed {
                in_queue[id.index()] = true;
            }
            let mut queue: VecDeque<LocId> = seed.iter().copied().collect();
            while let Some(root) = queue.pop_front() {
                in_queue[root.index()] = false;
                stats.walks += 1;
                let dist = walk(g, root, &mut stats.relaxations);
                stats.reached += dist.iter().flatten().count();
                let mut root_changed = false;
                for (i, d) in dist.iter().enumerate() {
                    let leaf = LocId(i as u32);
                    let Some(d) = *d else { continue };
                    if leaf == root {
                        continue;
                    }
                    if apply_forward(g, root, leaf, d, cfg) {
                        any_change = true;
                        touched[leaf.index()] = true;
                        if !in_queue[leaf.index()] {
                            in_queue[leaf.index()] = true;
                            queue.push_back(leaf);
                        }
                    }
                    if cfg.back_propagation && apply_backward(g, root, leaf, d, cfg) {
                        any_change = true;
                        root_changed = true;
                    }
                }
                if root_changed {
                    touched[root.index()] = true;
                    if !in_queue[root.index()] {
                        in_queue[root.index()] = true;
                        queue.push_back(root);
                    }
                }
            }
            any_change
        }
    }

    /// The graphs the analysis builds for the generated corpus and
    /// fuzzer programs, one per function.
    fn program_graphs() -> Vec<EscapeGraph> {
        use crate::{analyze, build_func_graph, AnalyzeOptions};
        use gofree_workloads::{corpus, fuzzgen};
        let mut sources = vec![corpus::generate(200)];
        sources.extend((0..16).map(fuzzgen::generate));
        let mut graphs = Vec::new();
        for src in &sources {
            let (program, res, types) =
                minigo_syntax::frontend(src).expect("generated programs compile");
            let analysis = analyze(&program, &res, &types, &AnalyzeOptions::default());
            for func in &program.funcs {
                let fg = build_func_graph(&program, &res, &types, func, &analysis.summaries);
                graphs.push(fg.graph);
            }
        }
        graphs
    }

    /// One reused walk state reaches, from every root, exactly the
    /// model's dense map at the same relaxation count.
    #[test]
    fn every_walk_matches_the_dense_model() {
        let graphs = program_graphs();
        let mut roots = 0;
        for g in &graphs {
            let mut w = Walker::new(g.len());
            for root in g.ids() {
                let (mut ours, mut theirs) = (0, 0);
                w.walk(g, root, &mut ours);
                let dense = model::walk(g, root, &mut theirs);
                assert_eq!(g.ids().map(|m| w.dist(m)).collect::<Vec<_>>(), dense);
                assert_eq!(w.reached.len(), dense.iter().flatten().count());
                assert_eq!(ours, theirs);
                assert_eq!(walk(g, root), dense);
                roots += 1;
            }
        }
        assert!(roots > 5_000, "only {roots} roots walked");
    }

    /// The solved properties and every counter equal the dense model's,
    /// in Go and GoFree modes and with each optimisation off.
    #[test]
    fn solve_matches_the_dense_model() {
        let go = SolveConfig {
            gofree: false,
            back_propagation: false,
            ..SolveConfig::default()
        };
        let configs = [
            go.clone(),
            SolveConfig {
                dirty_roots: false,
                ..go
            },
            SolveConfig::default(),
            SolveConfig {
                back_propagation: false,
                ..SolveConfig::default()
            },
            SolveConfig {
                dirty_roots: false,
                ..SolveConfig::default()
            },
        ];
        for g in program_graphs() {
            for cfg in &configs {
                let (mut ours, mut theirs) = (g.clone(), g.clone());
                let stats = solve(&mut ours, cfg);
                assert_eq!(stats, model::solve(&mut theirs, cfg), "{cfg:?}");
                assert_eq!(snapshot(&ours), snapshot(&theirs), "{cfg:?}");
            }
        }
    }

    /// A pointerful variable location; `_name` only documents the test.
    fn var(g: &mut EscapeGraph, _name: &str, loop_depth: i32, decl_depth: i32) -> LocId {
        let n = g.len() as u32;
        g.add_location(LocKind::Var(VarId(n)), loop_depth, decl_depth, true)
    }

    /// p = &x: x -(-1)-> p. PointsTo(p) = {x}.
    #[test]
    fn points_to_via_address_edge() {
        let mut g = EscapeGraph::new();
        let x = var(&mut g, "x", 0, 1);
        let p = var(&mut g, "p", 0, 1);
        g.add_edge(x, p, -1);
        assert_eq!(points_to(&g, p), vec![x]);
        assert_eq!(points_to(&g, x), vec![]);
    }

    /// q = p; p = &x: PointsTo(q) = {x} through the copy.
    #[test]
    fn points_to_through_copies() {
        let mut g = EscapeGraph::new();
        let x = var(&mut g, "x", 0, 1);
        let p = var(&mut g, "p", 0, 1);
        let q = var(&mut g, "q", 0, 1);
        g.add_edge(x, p, -1);
        g.add_edge(p, q, 0);
        assert_eq!(points_to(&g, q), vec![x]);
    }

    /// y = *p; p = &x: y holds x's value (d=0), not x's address.
    #[test]
    fn deref_load_yields_value_not_address() {
        let mut g = EscapeGraph::new();
        let x = var(&mut g, "x", 0, 1);
        let p = var(&mut g, "p", 0, 1);
        let y = var(&mut g, "y", 0, 1);
        g.add_edge(x, p, -1);
        g.add_edge(p, y, 1);
        let dist = walk(&g, y);
        assert_eq!(dist[x.index()], Some(0));
        assert!(points_to(&g, y).is_empty());
    }

    /// Order-2 pointers: pp = &p; p = &x; d2 = **pp reaches x at d=1... and
    /// *pp yields p's value. Checks the clamp-at-zero recurrence.
    #[test]
    fn track_derefs_clamps_at_zero() {
        let mut g = EscapeGraph::new();
        let x = var(&mut g, "x", 0, 1);
        let p = var(&mut g, "p", 0, 1);
        let pp = var(&mut g, "pp", 0, 1);
        let d2 = var(&mut g, "d2", 0, 1);
        g.add_edge(x, p, -1); // p = &x
        g.add_edge(p, pp, -1); // pp = &p
        g.add_edge(pp, d2, 1); // d2 = *pp  (holds p's value == &x)
        let dist = walk(&g, d2);
        // Track pp -> d2: derefs 1. Track p -> pp -> d2: max(0,1)+(-1)=0.
        assert_eq!(dist[p.index()], Some(0));
        // Track x -> p -> pp -> d2: max(0,0)+(-1) = -1: d2 may point to x.
        assert_eq!(dist[x.index()], Some(-1));
        assert_eq!(points_to(&g, d2), vec![x]);
    }

    /// MinDerefs takes the minimum over parallel tracks (definition 4.8).
    #[test]
    fn min_derefs_over_parallel_tracks() {
        let mut g = EscapeGraph::new();
        let x = var(&mut g, "x", 0, 1);
        let a = var(&mut g, "a", 0, 1);
        let b = var(&mut g, "b", 0, 1);
        g.add_edge(x, a, 0); // a = x
        g.add_edge(x, b, -1); // b = &x
        g.add_edge(b, a, 0); // a = b
        let dist = walk(&g, a);
        assert_eq!(dist[x.index()], Some(-1), "address track wins");
    }

    /// Escaping to the heap dummy heap-allocates the pointee (def 4.10).
    #[test]
    fn heap_alloc_via_heap_dummy() {
        let mut g = EscapeGraph::new();
        let x = var(&mut g, "x", 0, 1);
        let p = var(&mut g, "p", 0, 1);
        g.add_edge(x, p, -1);
        g.add_edge(p, HEAP_LOC, 0); // *q = p style escape
        solve(&mut g, &SolveConfig::default());
        assert!(g.loc(x).heap_alloc, "x's address reached the heap");
        assert!(!g.loc(p).heap_alloc, "p itself is not pointed to");
    }

    /// Fig. 3: object allocated inside a loop, pointer declared outside —
    /// the loop-depth constraint heap-allocates it.
    #[test]
    fn heap_alloc_via_loop_depth() {
        let mut g = EscapeGraph::new();
        let outer = var(&mut g, "outer", 0, 1);
        let inner = var(&mut g, "inner", 1, 2);
        g.add_edge(inner, outer, -1); // outer = &inner (loop-carried)
        solve(&mut g, &SolveConfig::default());
        assert!(g.loc(inner).heap_alloc);
        // Same depths: no heap forcing.
        let mut g2 = EscapeGraph::new();
        let a = var(&mut g2, "a", 1, 2);
        let b = var(&mut g2, "b", 1, 2);
        g2.add_edge(a, b, -1);
        solve(&mut g2, &SolveConfig::default());
        assert!(!g2.loc(a).heap_alloc);
    }

    /// OutermostRef takes the smallest DeclDepth of any pointer (def 4.14),
    /// and a deeper pointer to such an object becomes Outlived (def 4.15).
    #[test]
    fn outermost_ref_and_outlived() {
        let mut g = EscapeGraph::new();
        let obj = var(&mut g, "obj", 0, 3);
        let inner_ptr = var(&mut g, "inner", 0, 3);
        let outer_ptr = var(&mut g, "outer", 0, 1);
        g.add_edge(obj, inner_ptr, -1);
        g.add_edge(obj, outer_ptr, -1);
        solve(&mut g, &SolveConfig::default());
        assert_eq!(g.loc(obj).outermost_ref, 1);
        assert!(
            g.loc(inner_ptr).outlived,
            "the object outlives the inner pointer's scope"
        );
        assert!(!g.loc(outer_ptr).outlived);
    }

    /// PointsToHeap (def 4.16): set iff some pointee is heap-allocated.
    #[test]
    fn points_to_heap() {
        let mut g = EscapeGraph::new();
        let obj = var(&mut g, "obj", 0, 1);
        let p = var(&mut g, "p", 0, 1);
        g.add_edge(obj, p, -1);
        g.loc_mut(obj).heap_alloc = true;
        solve(&mut g, &SolveConfig::default());
        assert!(g.loc(p).points_to_heap);
        assert!(g.loc(p).to_free());
    }

    /// Fig. 1's completeness chain: `*ppd = pc` exposes ppd, so pd (which
    /// ppd points to) becomes Incomplete, and pd2 = *ppd (holding pd's
    /// value) becomes Incomplete by rule (c).
    #[test]
    fn exposure_marks_pointees_incomplete() {
        let mut g = EscapeGraph::new();
        let d = var(&mut g, "d", 0, 1);
        let pd = var(&mut g, "pd", 0, 1);
        let ppd = var(&mut g, "ppd", 0, 1);
        let pd2 = var(&mut g, "pd2", 0, 1);
        g.add_edge(d, pd, -1); // pd = &d
        g.add_edge(pd, ppd, -1); // ppd = &pd
        g.add_edge(ppd, pd2, 1); // pd2 = *ppd
        g.loc_mut(ppd).exposes = true; // *ppd = pc
        solve(&mut g, &SolveConfig::default());
        assert!(g.loc(pd).incomplete, "pd's value may change untracked");
        assert!(g.loc(pd2).incomplete, "pd2 holds pd's untracked value");
        assert!(!g.loc(pd2).to_free());
    }

    /// Address-of flow does NOT spread incompleteness: a pointer to an
    /// incomplete-valued object still has a complete points-to set.
    #[test]
    fn address_of_does_not_spread_incompleteness() {
        let mut g = EscapeGraph::new();
        let obj = var(&mut g, "obj", 0, 1);
        let s = var(&mut g, "s", 0, 1);
        g.add_edge(obj, s, -1); // s = &obj
        g.loc_mut(obj).incomplete = true; // obj's contents untracked
        solve(&mut g, &SolveConfig::default());
        assert!(
            !g.loc(s).incomplete,
            "s points exactly at obj; freeing s is still safe"
        );
    }

    /// Exposes propagates root→leaf along MinDerefs ≤ 0 tracks.
    #[test]
    fn exposes_propagates_to_held_values() {
        let mut g = EscapeGraph::new();
        let p = var(&mut g, "p", 0, 1);
        let q = var(&mut g, "q", 0, 1);
        g.add_edge(p, q, 0); // q = p
        g.loc_mut(q).exposes = true; // *q = ...
        solve(&mut g, &SolveConfig::default());
        assert!(g.loc(p).exposes, "p's value is q's value; q exposes it");
    }

    /// Incomplete propagates from held values to holders (rule (c)), which
    /// requires back-propagation; the ablation turns it off.
    #[test]
    fn back_propagation_ablation() {
        let mk = || {
            let mut g = EscapeGraph::new();
            let param = var(&mut g, "param", 0, 1);
            let local = var(&mut g, "local", 0, 1);
            g.add_edge(param, local, 0); // local = param
            g.loc_mut(param).incomplete = true;
            g
        };
        let mut with = mk();
        solve(&mut with, &SolveConfig::default());
        assert!(with.loc(LocId(2)).incomplete);

        let mut without = mk();
        solve(
            &mut without,
            &SolveConfig {
                gofree: true,
                back_propagation: false,
                ..SolveConfig::default()
            },
        );
        assert!(
            !without.loc(LocId(2)).incomplete,
            "without back-propagation rule (c) cannot fire"
        );
    }

    /// Non-pointerful locations never become Exposes/Incomplete (§4.2).
    #[test]
    fn scalars_skip_completeness_tracking() {
        let mut g = EscapeGraph::new();
        let n = g.add_location(LocKind::Var(VarId(9)), 0, 1, false);
        let p = var(&mut g, "p", 0, 1);
        g.add_edge(p, n, 0);
        g.loc_mut(p).incomplete = true;
        solve(&mut g, &SolveConfig::default());
        assert!(!g.loc(n).incomplete);
        assert!(!g.loc(n).exposes);
    }

    /// Go-only mode computes HeapAlloc but none of the GoFree properties.
    #[test]
    fn go_only_mode() {
        let mut g = EscapeGraph::new();
        let x = var(&mut g, "x", 0, 1);
        let p = var(&mut g, "p", 0, 1);
        g.add_edge(x, p, -1);
        g.add_edge(p, HEAP_LOC, 0);
        g.loc_mut(p).exposes = true;
        solve(
            &mut g,
            &SolveConfig {
                gofree: false,
                back_propagation: false,
                ..SolveConfig::default()
            },
        );
        assert!(g.loc(x).heap_alloc);
        assert!(!g.loc(x).incomplete);
        assert!(!g.loc(p).points_to_heap);
    }

    /// Cycles (p = q; q = p) terminate and produce symmetric results.
    #[test]
    fn cycles_terminate() {
        let mut g = EscapeGraph::new();
        let x = var(&mut g, "x", 0, 1);
        let p = var(&mut g, "p", 0, 1);
        let q = var(&mut g, "q", 0, 1);
        g.add_edge(x, p, -1);
        g.add_edge(p, q, 0);
        g.add_edge(q, p, 0);
        let stats = solve(&mut g, &SolveConfig::default());
        assert_eq!(points_to(&g, p), vec![x]);
        assert_eq!(points_to(&g, q), vec![x]);
        assert!(stats.passes <= 3, "converges in few passes");
    }

    /// The solver's pass count stays small even on adversarial chains,
    /// keeping the advertised O(N²) behaviour.
    #[test]
    fn passes_stay_constant_on_long_chains() {
        let mut g = EscapeGraph::new();
        let first = var(&mut g, "v0", 0, 1);
        let mut prev = first;
        for i in 1..200 {
            let v = var(&mut g, &format!("v{i}"), 0, 1);
            g.add_edge(prev, v, 0);
            prev = v;
        }
        g.loc_mut(first).incomplete = true;
        let stats = solve(&mut g, &SolveConfig::default());
        assert!(g.loc(prev).incomplete);
        assert!(stats.passes <= 4, "got {} passes", stats.passes);
    }

    /// Dirty-root tracking must reach the exact same fixpoint as re-walking
    /// every root each pass, while doing strictly fewer walks on graphs
    /// that need multiple passes.
    #[test]
    fn dirty_roots_match_full_passes() {
        // A shape that needs several passes: incompleteness flows down a
        // chain while a side branch stays untouched (and thus skippable).
        let mk = || {
            let mut g = EscapeGraph::new();
            let mut prev = var(&mut g, "v0", 0, 1);
            let first = prev;
            for i in 1..30 {
                let v = var(&mut g, &format!("v{i}"), 0, 1);
                g.add_edge(prev, v, 0);
                prev = v;
            }
            // Disconnected diamond that converges in pass one.
            let a = var(&mut g, "a", 0, 2);
            let b = var(&mut g, "b", 0, 1);
            g.add_edge(a, b, -1);
            g.loc_mut(first).incomplete = true;
            g.loc_mut(first).exposes = true;
            (g, first)
        };
        let (mut with, _) = mk();
        let s_with = solve(&mut with, &SolveConfig::default());
        let (mut without, _) = mk();
        let s_without = solve(
            &mut without,
            &SolveConfig {
                dirty_roots: false,
                ..SolveConfig::default()
            },
        );
        assert_eq!(snapshot(&with), snapshot(&without), "solutions diverge");
        assert_eq!(with.dump(&Labels::bare()), without.dump(&Labels::bare()));
        assert!(s_with.skipped_walks > 0, "nothing was skipped");
        assert_eq!(s_without.skipped_walks, 0);
        assert!(
            s_with.walks < s_without.walks,
            "dirty tracking did not reduce walks: {} vs {}",
            s_with.walks,
            s_without.walks
        );
    }

    /// holds() includes every reachable source; points_to() only d == -1.
    #[test]
    fn holds_superset_of_points_to() {
        let mut g = EscapeGraph::new();
        let x = var(&mut g, "x", 0, 1);
        let p = var(&mut g, "p", 0, 1);
        let y = var(&mut g, "y", 0, 1);
        g.add_edge(x, p, -1);
        g.add_edge(y, p, 0);
        let h = holds(&g, p);
        assert!(h.contains(&x) && h.contains(&y));
        assert_eq!(points_to(&g, p), vec![x]);
    }
}
