//! The whole-program analysis pipeline (fig. 4 of the paper).
//!
//! Functions are processed bottom-up over the call graph. For each function
//! we build its escape graph (embedding callee tags at call sites), solve
//! the escape properties, extract the function's extended parameter tag,
//! and record the allocation and freeing decisions.

use std::time::Instant;

use minigo_syntax::{
    ExprId, FreeKind, FuncId, IdMap, Program, Resolution, Type, TypeInfo, VarId, VarKind,
};

use crate::build::{build_func_graph, FuncGraph};
use crate::callgraph::CallGraph;
use crate::graph::HEAP_LOC;
use crate::solve::{points_to, walk, SolveConfig, SolveStats, Solver};
use crate::summary::{FuncSummary, SummaryDst, SummaryEdge};

/// Which compiler is being modeled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Plain Go: stack allocation only, no explicit deallocation.
    Go,
    /// GoFree: Go plus completeness/lifetime analyses and `tcfree`
    /// insertion.
    GoFree,
}

/// Which reference kinds GoFree inserts frees for. The paper's evaluation
/// (§6.5) restricts freeing to slices and maps because Go's stack
/// allocation already handles most other objects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FreeTargets {
    /// Slices and maps only (the paper's configuration).
    SlicesAndMaps,
    /// Also free raw pointers (`new`/`&T{}` objects) — the widening
    /// ablation.
    All,
}

/// Analysis options.
#[derive(Debug, Clone)]
pub struct AnalyzeOptions {
    /// Go or GoFree.
    pub mode: Mode,
    /// What to free (GoFree mode only).
    pub free_targets: FreeTargets,
    /// Fig. 5 lines 10–13; disabling is an ablation.
    pub back_propagation: bool,
    /// §4.4 content tags; disabling falls back to conservative result tags
    /// (an ablation showing cross-call frees disappear).
    pub content_tags: bool,
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        AnalyzeOptions {
            mode: Mode::GoFree,
            free_targets: FreeTargets::SlicesAndMaps,
            back_propagation: true,
            content_tags: true,
        }
    }
}

impl AnalyzeOptions {
    /// The configuration modeling plain Go.
    pub fn go() -> Self {
        AnalyzeOptions {
            mode: Mode::Go,
            ..AnalyzeOptions::default()
        }
    }
}

/// Where an allocation site's object lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllocPlace {
    /// On the current frame; popped for free.
    Stack,
    /// In the managed heap.
    Heap,
}

/// Aggregate counters for one analysis run.
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalysisStats {
    /// Total escape-graph locations across functions.
    pub locations: usize,
    /// Total escape-graph edges.
    pub edges: usize,
    /// Solver counters summed over functions.
    pub solve: SolveStats,
    /// Number of variables chosen for `tcfree`.
    pub to_free: usize,
    /// Wall-clock analysis time in nanoseconds (for §6.7).
    pub elapsed_nanos: u128,
    /// Wall-clock nanoseconds in the escape solve proper (graph build +
    /// fixpoint + summary extraction), for the compile-phase trace.
    pub solve_nanos: u128,
    /// Wall-clock nanoseconds selecting free variables — evaluating the
    /// completeness/lifetime conjuncts of definition 4.17 over the solved
    /// graphs — for the compile-phase trace.
    pub select_nanos: u128,
}

/// The result of whole-program escape analysis.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Options the analysis ran with.
    pub options: AnalyzeOptions,
    /// Solved per-function graphs.
    pub funcs: IdMap<FuncId, FuncGraph>,
    /// Extracted extended parameter tags.
    pub summaries: IdMap<FuncId, FuncSummary>,
    /// Stack-or-heap decision per allocation expression.
    pub alloc_decisions: IdMap<ExprId, AllocPlace>,
    /// Variables to free per function, with the `tcfree` variant to use.
    pub free_vars: IdMap<FuncId, Vec<(VarId, FreeKind)>>,
    /// Counters.
    pub stats: AnalysisStats,
}

impl Analysis {
    /// The allocation decision for an expression, defaulting to heap for
    /// unknown sites (runtime-managed growth).
    pub fn place_of(&self, expr: ExprId) -> AllocPlace {
        self.alloc_decisions
            .get(expr)
            .copied()
            .unwrap_or(AllocPlace::Heap)
    }
}

/// Runs the full analysis over `program`.
pub fn analyze(
    program: &Program,
    res: &Resolution,
    types: &TypeInfo,
    opts: &AnalyzeOptions,
) -> Analysis {
    let start = Instant::now();
    let cg = CallGraph::build(program);
    let solve_cfg = SolveConfig {
        gofree: opts.mode == Mode::GoFree,
        back_propagation: opts.back_propagation && opts.mode == Mode::GoFree,
        ..SolveConfig::default()
    };

    let mut summaries = IdMap::default();
    let mut funcs = IdMap::default();
    let mut stats = AnalysisStats::default();
    let mut solver = Solver::default();

    for &fid in cg.bottom_up() {
        let func = &program.funcs[fid.index()];
        let mut fg = build_func_graph(program, res, types, func, &summaries);
        stats.locations += fg.graph.len();
        stats.edges += fg.graph.edges().len();
        let s = solver.solve(&mut fg.graph, &solve_cfg);
        stats.solve.walks += s.walks;
        stats.solve.relaxations += s.relaxations;
        stats.solve.reached += s.reached;
        stats.solve.passes += s.passes;
        stats.solve.skipped_walks += s.skipped_walks;
        let summary = extract_summary(program, res, &fg, opts);
        summaries.insert(fid, summary);
        funcs.insert(fid, fg);
    }
    stats.solve_nanos = start.elapsed().as_nanos();
    let select_start = Instant::now();

    let mut alloc_decisions = IdMap::default();
    let mut free_vars = IdMap::default();
    for (fid, fg) in funcs.iter() {
        for (expr, site) in &fg.alloc_sites {
            let place = if fg.graph.loc(site.loc).heap_alloc {
                AllocPlace::Heap
            } else {
                AllocPlace::Stack
            };
            alloc_decisions.insert(*expr, place);
        }
        if opts.mode == Mode::GoFree {
            let list = select_free_vars(res, types, fg, opts);
            stats.to_free += list.len();
            free_vars.insert(fid, list);
        }
    }
    stats.select_nanos = select_start.elapsed().as_nanos();
    stats.elapsed_nanos = start.elapsed().as_nanos();

    Analysis {
        options: opts.clone(),
        funcs,
        summaries,
        alloc_decisions,
        free_vars,
        stats,
    }
}

/// Chooses the `ToFree` variables of one function (definition 4.17 plus the
/// paper's target restriction to slices and maps).
fn select_free_vars(
    res: &Resolution,
    types: &TypeInfo,
    fg: &FuncGraph,
    opts: &AnalyzeOptions,
) -> Vec<(VarId, FreeKind)> {
    let mut out = Vec::new();
    for (&vid, &loc) in &fg.var_locs {
        if res.var(vid).kind != VarKind::Local {
            continue;
        }
        if !fg.graph.loc(loc).to_free() {
            continue;
        }
        let kind = match types.var(vid) {
            Some(Type::Slice(_)) => FreeKind::Slice,
            Some(Type::Map(_, _)) => FreeKind::Map,
            Some(Type::Ptr(_)) if opts.free_targets == FreeTargets::All => FreeKind::Pointer,
            _ => continue,
        };
        out.push((vid, kind));
    }
    out.sort_by_key(|(v, _)| *v);
    out
}

/// Extracts a function's extended parameter tag from its solved graph
/// (§4.4).
fn extract_summary(
    program: &Program,
    res: &Resolution,
    fg: &FuncGraph,
    opts: &AnalyzeOptions,
) -> FuncSummary {
    let func = &program.funcs[fg.func.index()];
    let param_locs: Vec<_> = res
        .params_of(fg.func)
        .iter()
        .map(|v| fg.loc_of(*v))
        .collect();
    let result_vars = res.results_of(fg.func);

    let mut edges = Vec::new();
    for (j, &rvar) in result_vars.iter().enumerate() {
        let dist = walk(&fg.graph, fg.loc_of(rvar));
        for (i, &ploc) in param_locs.iter().enumerate() {
            if let Some(w) = dist[ploc.index()] {
                edges.push(SummaryEdge {
                    param: i,
                    dst: SummaryDst::Result(j),
                    derefs: w,
                });
            }
        }
    }
    let heap_dist = walk(&fg.graph, HEAP_LOC);
    for (i, &ploc) in param_locs.iter().enumerate() {
        if let Some(w) = heap_dist[ploc.index()] {
            // derefs == -1 means the callee's own parameter copy escaped,
            // which is invisible to callers; only value-level escape is
            // exported.
            if w >= 0 {
                edges.push(SummaryEdge {
                    param: i,
                    dst: SummaryDst::Heap,
                    derefs: w,
                });
            }
        }
    }

    let use_content = opts.content_tags && opts.mode == Mode::GoFree;
    let mut result_heap = Vec::with_capacity(result_vars.len());
    let mut result_incomplete = Vec::with_capacity(result_vars.len());
    for (j, &rvar) in result_vars.iter().enumerate() {
        if !use_content {
            result_heap.push(true);
            result_incomplete.push(true);
            continue;
        }
        let tag = fg.result_tags[j];
        // HeapAlloc(m) = PointsToHeap(l), excluding the content tag itself
        // (its own HeapAlloc is an artifact of the r_j -> return edge).
        let heap = points_to(&fg.graph, fg.loc_of(rvar))
            .into_iter()
            .any(|p| p != tag && fg.graph.loc(p).heap_alloc);
        result_heap.push(heap);
        // Incomplete(l) = Incomplete(m): only indirect stores *within* the
        // callee count (§4.4's third export rule); the conservative
        // formal-parameter seed is excluded because the caller re-derives
        // it from its actual arguments.
        result_incomplete.push(fg.graph.loc(fg.loc_of(rvar)).incomplete_internal);
    }

    let param_exposes = if opts.mode == Mode::GoFree {
        param_locs
            .iter()
            .map(|&p| fg.graph.loc(p).exposes)
            .collect()
    } else {
        vec![true; param_locs.len()]
    };

    FuncSummary {
        params: func.params.len(),
        results: func.results.len(),
        edges,
        result_heap,
        result_incomplete,
        param_exposes,
        known: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minigo_syntax::frontend;

    fn run(src: &str, opts: AnalyzeOptions) -> (Program, Resolution, TypeInfo, Analysis) {
        let (p, r, t) = frontend(src).expect("frontend");
        let a = analyze(&p, &r, &t, &opts);
        (p, r, t, a)
    }

    fn free_names(
        p: &Program,
        r: &Resolution,
        a: &Analysis,
        func: &str,
    ) -> Vec<(String, FreeKind)> {
        let fid = p.func(func).unwrap().id;
        a.free_vars
            .get(fid)
            .map(|v| {
                v.iter()
                    .map(|(vid, k)| (r.var(*vid).name.clone(), *k))
                    .collect()
            })
            .unwrap_or_default()
    }

    #[test]
    fn fig3_frees_dynamic_slice_only() {
        let src = "func analyses(n int) { s1 := make([]int, 335)\n s1[0] = 1\n for i := 1; i < n; i += 1 { s2 := make([]int, i)\n s2[0] = i } }\n";
        let (p, r, _, a) = run(src, AnalyzeOptions::default());
        let frees = free_names(&p, &r, &a, "analyses");
        assert_eq!(frees, vec![("s2".to_string(), FreeKind::Slice)]);
        // s1 is stack allocated; s2's site is heap.
        let stack = a
            .alloc_decisions
            .values()
            .filter(|&&d| d == AllocPlace::Stack)
            .count();
        let heap = a
            .alloc_decisions
            .values()
            .filter(|&&d| d == AllocPlace::Heap)
            .count();
        assert_eq!((stack, heap), (1, 1));
    }

    #[test]
    fn go_mode_inserts_no_frees() {
        let src = "func f(n int) { s := make([]int, n)\n s[0] = 1 }\n";
        let (_, _, _, a) = run(src, AnalyzeOptions::go());
        assert_eq!(a.free_vars.values().count(), 0);
        assert_eq!(a.stats.to_free, 0);
        // But allocation decisions still exist.
        assert_eq!(a.alloc_decisions.values().count(), 1);
    }

    #[test]
    fn fig7_content_tags_enable_cross_call_free() {
        let src = r#"
func partialNew(ps *[]int) (r0 []int, r1 []int) {
    pps := &ps
    *pps = ps
    made := make([]int, 3)
    made[0] = 1
    return made, **pps
}

func caller(n int) {
    s := make([]int, n)
    fresh, old := partialNew(&s)
    fresh[0] = old[0]
}
"#;
        let (p, r, _, a) = run(src, AnalyzeOptions::default());
        let frees = free_names(&p, &r, &a, "caller");
        let names: Vec<_> = frees.iter().map(|(n, _)| n.as_str()).collect();
        assert!(
            names.contains(&"fresh"),
            "content tag propagates the callee's make to fresh; got {names:?}"
        );
        assert!(
            !names.contains(&"old"),
            "old's tag is incomplete (indirect store in callee); got {names:?}"
        );
        // `made` must not be freed inside the callee: it escapes by return.
        let callee_frees = free_names(&p, &r, &a, "partialNew");
        assert!(callee_frees.is_empty(), "got {callee_frees:?}");
    }

    #[test]
    fn content_tag_ablation_blocks_cross_call_free() {
        let src = r#"
func mk() []int {
    made := make([]int, 3)
    made[0] = 1
    return made
}

func caller() {
    fresh := mk()
    fresh[0] = 2
}
"#;
        let with = run(src, AnalyzeOptions::default());
        let names: Vec<_> = free_names(&with.0, &with.1, &with.3, "caller");
        assert!(names.iter().any(|(n, _)| n == "fresh"));

        let without = run(
            src,
            AnalyzeOptions {
                content_tags: false,
                ..AnalyzeOptions::default()
            },
        );
        let names: Vec<_> = free_names(&without.0, &without.1, &without.3, "caller");
        assert!(
            names.is_empty(),
            "without content tags the caller cannot free; got {names:?}"
        );
    }

    #[test]
    fn summary_records_param_passthrough() {
        let src = "func id(s []int) []int { return s }\nfunc main() { }\n";
        let (p, _, _, a) = run(src, AnalyzeOptions::default());
        let fid = p.func("id").unwrap().id;
        let tag = &a.summaries[fid];
        assert!(tag.known);
        assert!(tag
            .edges_to_result(0)
            .any(|e| e.param == 0 && e.derefs == 0));
        assert!(!tag.result_incomplete[0]);
        assert!(
            !tag.result_heap[0],
            "id allocates nothing; freeing is the caller's knowledge"
        );
    }

    #[test]
    fn summary_records_heap_escape() {
        let src = "func leak(p *int, sink *[]*int) { *sink = append(*sink, p) }\nfunc main() { }\n";
        let (p, _, _, a) = run(src, AnalyzeOptions::default());
        let fid = p.func("leak").unwrap().id;
        let tag = &a.summaries[fid];
        assert!(
            tag.heap_edges().any(|e| e.param == 0),
            "p escapes into the sink: {:?}",
            tag.edges
        );
    }

    #[test]
    fn caller_of_escaping_callee_cannot_free() {
        let src = r#"
func keep(s []int, sink *[][]int) {
    *sink = append(*sink, s)
}

func caller(n int, sink *[][]int) {
    s := make([]int, n)
    keep(s, sink)
}
"#;
        let (p, r, _, a) = run(src, AnalyzeOptions::default());
        let frees = free_names(&p, &r, &a, "caller");
        assert!(frees.is_empty(), "s escapes through keep; got {frees:?}");
    }

    #[test]
    fn factory_with_multiple_results_mixed() {
        // One result fresh, one passthrough of caller memory (§4.6.3).
        let src = r#"
func factory(s []int) ([]int, []int) {
    fresh := make([]int, 4)
    fresh[0] = 1
    return fresh, s
}

func outer(n int) {
    base := make([]int, n)
    {
        a, b := factory(base)
        a[0] = b[0]
    }
    base[0] = 9
}
"#;
        let (p, r, _, a) = run(src, AnalyzeOptions::default());
        let frees = free_names(&p, &r, &a, "outer");
        let names: Vec<_> = frees.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"a"), "fresh result freeable: {names:?}");
        assert!(
            !names.contains(&"b"),
            "b aliases base which outlives the inner scope: {names:?}"
        );
    }

    #[test]
    fn recursion_is_conservative() {
        let src = r#"
func rec(n int) []int {
    if n == 0 {
        return make([]int, 1)
    }
    s := rec(n - 1)
    return s
}
func main() { s := rec(3)\n s[0] = 1 }
"#;
        let src = src.replace("\\n", "\n");
        let (p, r, _, a) = run(&src, AnalyzeOptions::default());
        assert!(free_names(&p, &r, &a, "rec").is_empty());
    }

    #[test]
    fn maps_freed_and_pointer_targets_gated() {
        // mkp's pointer is heap-allocated (escapes by return); the caller
        // can free it — but only when FreeTargets::All widens the target
        // set beyond the paper's slices-and-maps default (§6.5).
        let src = r#"
func mkp(n int) *int {
    p := new(int)
    *p = n
    return p
}

func f(n int) {
    m := make(map[int]int)
    for i := 0; i < n; i += 1 {
        m[i] = i
    }
    q := mkp(n)
    m[0] = *q
}
"#;
        let (p, r, _, a) = run(src, AnalyzeOptions::default());
        let frees = free_names(&p, &r, &a, "f");
        assert_eq!(frees, vec![("m".to_string(), FreeKind::Map)]);

        let (p2, r2, _, a2) = run(
            src,
            AnalyzeOptions {
                free_targets: FreeTargets::All,
                ..AnalyzeOptions::default()
            },
        );
        let frees2 = free_names(&p2, &r2, &a2, "f");
        assert!(
            frees2
                .iter()
                .any(|(n, k)| n == "q" && *k == FreeKind::Pointer),
            "got {frees2:?}"
        );
    }

    #[test]
    fn stats_are_populated() {
        let (_, _, _, a) = run(
            "func f(n int) { s := make([]int, n)\n s[0] = 1 }\n",
            AnalyzeOptions::default(),
        );
        assert!(a.stats.locations > 0);
        assert!(a.stats.edges > 0);
        assert!(a.stats.solve.walks > 0);
        assert_eq!(a.stats.to_free, 1);
    }
}
