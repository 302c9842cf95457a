//! Liveness-driven free placement.
//!
//! The §4.5 instrumentation frees at scope exit; the PR 5 profiler
//! measures how much lifetime drag that leaves on the table (alloc→free
//! vs alloc→last-use). This module closes part of that gap with a
//! backward last-use analysis over the declaring scope:
//!
//! * **Last-use advancement** ([`plan_placement`]): a `ToFree` variable's
//!   `tcfree` moves from the scope end to the statement after the last
//!   statement that can touch its referent. "Touch" is computed over the
//!   variable's *alias group* — every variable whose solved points-to set
//!   intersects its own — and refined context-sensitively by
//!   [`UseSummary`]: a bare argument handed to a callee position the
//!   callee provably never uses does not extend the live range.
//! * **Partial frees** ([`partial`]): struct locals the §6.5 target
//!   restriction abandons get `tcfree(x.f)` for slice/map fields whose
//!   backing store provably has no alias besides `x.f`.
//!
//! Placement is planned *before* instrumentation and handed to
//! [`instrument_with_plan`](crate::instrument::instrument_with_plan);
//! [`FreePlacement::Scope`] plans nothing and reproduces today's output
//! bit-exactly. Every planned site is subsequently re-proved by the
//! independent auditor (`--audit deny` strips anything unproven), so a
//! planner bug degrades placement, never safety.

use std::collections::BTreeSet;

use minigo_syntax::fxhash::FxHashMap;
use minigo_syntax::{
    Block, Expr, ExprKind, FreeKind, Func, FuncId, IdMap, Program, Resolution, Stmt, StmtId,
    StmtKind, Type, TypeInfo, VarId, VarKind,
};

use crate::analyze::Analysis;
use crate::callgraph::CallGraph;
use crate::solve::points_to;

mod partial;
pub mod summary;

pub use summary::{use_summaries, UseSummary};

/// Where the instrumentation places each inserted `tcfree`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FreePlacement {
    /// Scope-exit placement (§4.5 of the paper); the historical default.
    #[default]
    Scope,
    /// Liveness-driven placement: free after the last use, plus partial
    /// frees for abandoned struct fields.
    LastUse,
}

impl FreePlacement {
    /// Parses a CLI value (`scope` / `lastuse`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "scope" => Some(FreePlacement::Scope),
            "lastuse" | "last-use" => Some(FreePlacement::LastUse),
            _ => None,
        }
    }

    /// Canonical CLI/report name.
    pub fn name(self) -> &'static str {
        match self {
            FreePlacement::Scope => "scope",
            FreePlacement::LastUse => "lastuse",
        }
    }
}

/// Placement outcome counters, surfaced in run reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlacementStats {
    /// Placement mode the program was compiled under.
    pub mode: FreePlacement,
    /// Whole-variable frees moved earlier than their scope-exit slot.
    pub lastuse_advanced: u64,
    /// `tcfree(x.f)` partial frees emitted for abandoned struct locals.
    pub partial_frees: u64,
    /// Planned placements the auditor could not prove (stripped under
    /// `--audit deny`, kept-but-flagged under `warn`).
    pub suppressed: u64,
}

/// One planned partial free: `tcfree(base.field)` after statement `after`.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialFree {
    /// The struct-typed (or pointer-to-struct) local being partially freed.
    pub base: VarId,
    /// Field name.
    pub field: String,
    /// The field's type (recorded on the synthesized expression so both
    /// engines can resolve the field offset).
    pub field_ty: Type,
    /// `tcfree` variant for the field.
    pub kind: FreeKind,
    /// Statement id the free is inserted after.
    pub after: StmtId,
}

/// The full placement plan for a program, consumed by
/// [`instrument_with_plan`](crate::instrument::instrument_with_plan).
#[derive(Debug, Clone, Default)]
pub struct PlacementPlan {
    /// Per function: whole-variable frees to insert after a specific
    /// statement instead of at scope exit.
    pub advance: IdMap<FuncId, Vec<(VarId, FreeKind, StmtId)>>,
    /// Per function: partial frees for abandoned struct locals.
    pub partials: IdMap<FuncId, Vec<PartialFree>>,
    /// Planned counts (suppressed is filled in by the pipeline after the
    /// audit pass).
    pub stats: PlacementStats,
}

/// Plans liveness-driven placement for an analyzed (not yet
/// instrumented) program. Only meaningful under
/// [`FreePlacement::LastUse`]; `Scope` compilations never build a plan.
pub fn plan_placement(
    program: &Program,
    res: &Resolution,
    types: &TypeInfo,
    analysis: &Analysis,
) -> PlacementPlan {
    let cg = CallGraph::build(program);
    let sums = use_summaries(program, res, &cg);
    let mut plan = PlacementPlan {
        stats: PlacementStats {
            mode: FreePlacement::LastUse,
            ..Default::default()
        },
        ..Default::default()
    };
    for func in &program.funcs {
        let Some(fg) = analysis.funcs.get(func.id) else {
            continue;
        };
        let frees = analysis
            .free_vars
            .get(func.id)
            .map_or(&[][..], Vec::as_slice);
        let advances = plan_advances(func, res, fg, frees, &sums);
        let mut partials = partial::plan_partials(func, res, types, fg, frees);
        // Never park a free behind a terminator: it would not execute.
        let terms = terminator_stmts(&func.body);
        partials.retain(|p| !terms.contains(&p.after));
        plan.stats.lastuse_advanced += advances.len() as u64;
        plan.stats.partial_frees += partials.len() as u64;
        if !advances.is_empty() {
            plan.advance.insert(func.id, advances);
        }
        if !partials.is_empty() {
            plan.partials.insert(func.id, partials);
        }
    }
    plan
}

/// Plans last-use advancement for one function's `ToFree` variables.
fn plan_advances(
    func: &Func,
    res: &Resolution,
    fg: &crate::build::FuncGraph,
    frees: &[(VarId, FreeKind)],
    sums: &IdMap<FuncId, UseSummary>,
) -> Vec<(VarId, FreeKind, StmtId)> {
    let mut out = Vec::new();
    if frees.is_empty() {
        return out;
    }
    // Solved points-to sets for every variable in the function (hashed:
    // one function's variables, keyed by a program-wide id).
    let pts: FxHashMap<VarId, BTreeSet<crate::graph::LocId>> = fg
        .var_locs
        .iter()
        .map(|(v, loc)| (*v, points_to(&fg.graph, *loc).into_iter().collect()))
        .collect();
    for &(v, kind) in frees {
        let Some(vp) = pts.get(&v) else { continue };
        // Alias group: anything whose referents intersect v's. A use of
        // any member may touch v's object, so all of them pin liveness.
        let group: Vec<VarId> = pts
            .iter()
            .filter(|(_, wp)| !vp.is_disjoint(wp))
            .map(|(w, _)| *w)
            .collect();
        // A non-local alias (parameter or named result) can carry the
        // object across the call boundary; leave the scope placement.
        if group.iter().any(|w| res.var(*w).kind != VarKind::Local) {
            continue;
        }
        // Deferred calls run at function exit; if one can mention the
        // group, the referent must survive until then.
        if defer_mentions(&func.body, res, &group) {
            continue;
        }
        let Some(decl) = res.decl_stmt_of(v) else {
            continue;
        };
        // For-init declarations have no top-level slot; their free stays
        // on the after-the-loop scope path.
        let Some(stmts) = block_of_stmt(&func.body, decl) else {
            continue;
        };
        let decl_idx = stmts.iter().position(|s| s.id == decl).unwrap();
        let mut last = decl_idx;
        for (i, stmt) in stmts.iter().enumerate().skip(decl_idx + 1) {
            if stmt_uses_group(stmt, res, &group, sums) {
                last = i;
            }
        }
        let last_index = stmts.len() - 1;
        if is_terminator(&stmts[last]) {
            continue; // the last use is on the terminator itself
        }
        // The scope path already places the free at the block end (or
        // just before a trailing terminator); only a strictly earlier
        // slot is an advancement.
        let scope_idx = if is_terminator(&stmts[last_index]) {
            last_index.saturating_sub(1)
        } else {
            last_index
        };
        if last < scope_idx {
            out.push((v, kind, stmts[last].id));
        }
    }
    out.sort_by_key(|(v, _, s)| (*v, *s));
    out
}

fn is_terminator(stmt: &Stmt) -> bool {
    matches!(
        stmt.kind,
        StmtKind::Return { .. } | StmtKind::Break | StmtKind::Continue
    )
}

/// Whether a statement's subtree can touch the referent of any variable
/// in `group`, with the context-sensitive dead-argument refinement.
fn stmt_uses_group(
    stmt: &Stmt,
    res: &Resolution,
    group: &[VarId],
    sums: &IdMap<FuncId, UseSummary>,
) -> bool {
    fn expr_uses(
        e: &Expr,
        res: &Resolution,
        group: &[VarId],
        sums: &IdMap<FuncId, UseSummary>,
    ) -> bool {
        match &e.kind {
            ExprKind::Ident(_) => res
                .def_of(e.id)
                .map(|v| group.contains(&v))
                .unwrap_or(false),
            ExprKind::Unary { operand, .. } => expr_uses(operand, res, group, sums),
            ExprKind::Binary { lhs, rhs, .. } => {
                expr_uses(lhs, res, group, sums) || expr_uses(rhs, res, group, sums)
            }
            ExprKind::Field { base, .. } => expr_uses(base, res, group, sums),
            ExprKind::Index { base, index } => {
                expr_uses(base, res, group, sums) || expr_uses(index, res, group, sums)
            }
            ExprKind::SliceExpr { base, lo, hi } => {
                expr_uses(base, res, group, sums)
                    || [lo, hi]
                        .into_iter()
                        .flatten()
                        .any(|b| expr_uses(b, res, group, sums))
            }
            ExprKind::Call { callee, args } => args.iter().enumerate().any(|(i, a)| {
                !summary::arg_is_dead(a, i, callee, res, sums) && expr_uses(a, res, group, sums)
            }),
            ExprKind::Builtin { args, .. } => args.iter().any(|a| expr_uses(a, res, group, sums)),
            ExprKind::StructLit { fields, .. } => {
                fields.iter().any(|f| expr_uses(f, res, group, sums))
            }
            ExprKind::IntLit(_) | ExprKind::BoolLit(_) | ExprKind::StrLit(_) | ExprKind::Nil => {
                false
            }
        }
    }
    fn block_uses(
        b: &Block,
        res: &Resolution,
        group: &[VarId],
        sums: &IdMap<FuncId, UseSummary>,
    ) -> bool {
        b.stmts.iter().any(|s| stmt_uses_group(s, res, group, sums))
    }
    match &stmt.kind {
        StmtKind::VarDecl { init, .. } | StmtKind::ShortDecl { init, .. } => {
            init.iter().any(|e| expr_uses(e, res, group, sums))
        }
        StmtKind::Assign { lhs, rhs, .. } => lhs
            .iter()
            .chain(rhs)
            .any(|e| expr_uses(e, res, group, sums)),
        StmtKind::If { cond, then, els } => {
            expr_uses(cond, res, group, sums)
                || block_uses(then, res, group, sums)
                || els
                    .as_ref()
                    .is_some_and(|e| stmt_uses_group(e, res, group, sums))
        }
        StmtKind::For {
            init,
            cond,
            post,
            body,
        } => {
            init.as_ref()
                .is_some_and(|i| stmt_uses_group(i, res, group, sums))
                || cond
                    .as_ref()
                    .is_some_and(|c| expr_uses(c, res, group, sums))
                || post
                    .as_ref()
                    .is_some_and(|p| stmt_uses_group(p, res, group, sums))
                || block_uses(body, res, group, sums)
        }
        StmtKind::Return { exprs } => exprs.iter().any(|e| expr_uses(e, res, group, sums)),
        StmtKind::Expr { expr } => expr_uses(expr, res, group, sums),
        StmtKind::BlockStmt { block } => block_uses(block, res, group, sums),
        StmtKind::Defer { call } => expr_uses(call, res, group, sums),
        StmtKind::Switch {
            subject,
            cases,
            default,
        } => {
            expr_uses(subject, res, group, sums)
                || cases.iter().any(|c| {
                    c.values.iter().any(|v| expr_uses(v, res, group, sums))
                        || block_uses(&c.body, res, group, sums)
                })
                || default
                    .as_ref()
                    .is_some_and(|d| block_uses(d, res, group, sums))
        }
        StmtKind::Free { target, .. } => expr_uses(target, res, group, sums),
        StmtKind::Break | StmtKind::Continue => false,
    }
}

/// Whether any `defer` in the function mentions a group member. Deferred
/// argument *values* are captured at defer time, but the paper's model
/// keeps referents alive until the call runs, so we stay conservative.
fn defer_mentions(body: &Block, res: &Resolution, group: &[VarId]) -> bool {
    fn walk(b: &Block, res: &Resolution, group: &[VarId]) -> bool {
        b.stmts.iter().any(|s| stmt_defers(s, res, group))
    }
    fn stmt_defers(s: &Stmt, res: &Resolution, group: &[VarId]) -> bool {
        match &s.kind {
            StmtKind::Defer { call } => mentions(call, res, group),
            StmtKind::If { then, els, .. } => {
                walk(then, res, group) || els.as_ref().is_some_and(|e| stmt_defers(e, res, group))
            }
            StmtKind::For { body, .. } => walk(body, res, group),
            StmtKind::BlockStmt { block } => walk(block, res, group),
            StmtKind::Switch { cases, default, .. } => {
                cases.iter().any(|c| walk(&c.body, res, group))
                    || default.as_ref().is_some_and(|d| walk(d, res, group))
            }
            _ => false,
        }
    }
    fn mentions(e: &Expr, res: &Resolution, group: &[VarId]) -> bool {
        match &e.kind {
            ExprKind::Ident(_) => res
                .def_of(e.id)
                .map(|v| group.contains(&v))
                .unwrap_or(false),
            ExprKind::Unary { operand, .. } => mentions(operand, res, group),
            ExprKind::Binary { lhs, rhs, .. } => {
                mentions(lhs, res, group) || mentions(rhs, res, group)
            }
            ExprKind::Field { base, .. } => mentions(base, res, group),
            ExprKind::Index { base, index } => {
                mentions(base, res, group) || mentions(index, res, group)
            }
            ExprKind::SliceExpr { base, lo, hi } => {
                mentions(base, res, group)
                    || [lo, hi]
                        .into_iter()
                        .flatten()
                        .any(|b| mentions(b, res, group))
            }
            ExprKind::Call { args, .. } | ExprKind::Builtin { args, .. } => {
                args.iter().any(|a| mentions(a, res, group))
            }
            ExprKind::StructLit { fields, .. } => fields.iter().any(|f| mentions(f, res, group)),
            _ => false,
        }
    }
    walk(body, res, group)
}

/// Finds the statement list of the block containing `sid` at top level.
fn block_of_stmt(body: &Block, sid: StmtId) -> Option<&[Stmt]> {
    fn walk(b: &Block, sid: StmtId) -> Option<&[Stmt]> {
        if b.stmts.iter().any(|s| s.id == sid) {
            return Some(&b.stmts);
        }
        for s in &b.stmts {
            let found = match &s.kind {
                StmtKind::If { then, els, .. } => {
                    walk(then, sid).or_else(|| els.as_ref().and_then(|e| stmt_walk(e, sid)))
                }
                StmtKind::For { body, .. } => walk(body, sid),
                StmtKind::BlockStmt { block } => walk(block, sid),
                StmtKind::Switch { cases, default, .. } => cases
                    .iter()
                    .find_map(|c| walk(&c.body, sid))
                    .or_else(|| default.as_ref().and_then(|d| walk(d, sid))),
                _ => None,
            };
            if found.is_some() {
                return found;
            }
        }
        None
    }
    fn stmt_walk(s: &Stmt, sid: StmtId) -> Option<&[Stmt]> {
        match &s.kind {
            StmtKind::BlockStmt { block } => walk(block, sid),
            StmtKind::If { then, els, .. } => {
                walk(then, sid).or_else(|| els.as_ref().and_then(|e| stmt_walk(e, sid)))
            }
            _ => None,
        }
    }
    walk(body, sid)
}

/// Collects every terminator statement id in a function body.
fn terminator_stmts(body: &Block) -> BTreeSet<StmtId> {
    fn walk(b: &Block, out: &mut BTreeSet<StmtId>) {
        for s in &b.stmts {
            stmt(s, out);
        }
    }
    fn stmt(s: &Stmt, out: &mut BTreeSet<StmtId>) {
        match &s.kind {
            StmtKind::Return { .. } | StmtKind::Break | StmtKind::Continue => {
                out.insert(s.id);
            }
            StmtKind::If { then, els, .. } => {
                walk(then, out);
                if let Some(e) = els {
                    stmt(e, out);
                }
            }
            StmtKind::For { body, .. } => walk(body, out),
            StmtKind::BlockStmt { block } => walk(block, out),
            StmtKind::Switch { cases, default, .. } => {
                for c in cases {
                    walk(&c.body, out);
                }
                if let Some(d) = default {
                    walk(d, out);
                }
            }
            _ => {}
        }
    }
    let mut out = BTreeSet::new();
    walk(body, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{analyze, AnalyzeOptions};
    use minigo_syntax::frontend;

    fn plan_for(src: &str) -> (Program, Resolution, PlacementPlan) {
        let (p, r, t) = frontend(src).expect("frontend");
        let a = analyze(&p, &r, &t, &AnalyzeOptions::default());
        let plan = plan_placement(&p, &r, &t, &a);
        (p, r, plan)
    }

    fn var_named(r: &Resolution, f: FuncId, name: &str) -> VarId {
        (0..r.vars().len())
            .map(|i| VarId(i as u32))
            .find(|v| r.var(*v).name == name && r.var(*v).func == f)
            .unwrap()
    }

    #[test]
    fn dead_tail_advances_free() {
        let (p, r, plan) = plan_for(
            "func f(n int) { s := make([]int, n)\n s[0] = 1\n t := make([]int, n)\n t[0] = 2\n print(t[0]) }\n",
        );
        let f = p.funcs.iter().find(|f| f.name == "f").unwrap();
        let adv = plan.advance.get(f.id).expect("advances planned");
        let s = var_named(&r, f.id, "s");
        assert!(adv.iter().any(|(v, _, _)| *v == s), "s advances: {plan:?}");
        // t is used by the trailing print: no advancement.
        let t = var_named(&r, f.id, "t");
        assert!(!adv.iter().any(|(v, _, _)| *v == t));
    }

    #[test]
    fn alias_use_pins_liveness() {
        let (p, _r, plan) = plan_for(
            "func f(n int) { s := make([]int, n)\n u := s\n print(n)\n print(n)\n print(u[0]) }\n",
        );
        let f = p.funcs.iter().find(|f| f.name == "f").unwrap();
        // u reads the array at the end: neither s nor u may advance.
        assert!(plan.advance.get(f.id).is_none(), "{plan:?}");
    }

    #[test]
    fn dead_callee_arg_does_not_pin() {
        let (p, r, plan) = plan_for(
            "func g(s []int, n int) int { return n }\nfunc f(n int) { s := make([]int, n)\n s[0] = 1\n x := g(s, 2)\n print(x)\n print(n) }\nfunc main() { f(3) }\n",
        );
        let f = p.funcs.iter().find(|f| f.name == "f").unwrap();
        let adv = plan.advance.get(f.id).expect("advance past dead arg");
        let s = var_named(&r, f.id, "s");
        let (_, _, after) = adv.iter().find(|(v, _, _)| *v == s).expect("s advances");
        // The free lands after `s[0] = 1`, before the g(s, 2) call.
        let body = &f.body.stmts;
        let idx = body.iter().position(|st| st.id == *after).unwrap();
        assert_eq!(idx, 1, "after the element store, not the call");
    }

    #[test]
    fn scope_mode_plans_nothing_by_construction() {
        // Scope compilations never call plan_placement; the plan default
        // is empty and reports mode=scope.
        let plan = PlacementPlan::default();
        assert_eq!(plan.stats.mode, FreePlacement::Scope);
        assert_eq!(plan.stats.lastuse_advanced, 0);
    }

    #[test]
    fn ptr_struct_partial_free_planned_per_field() {
        let (p, _r, plan) = plan_for(
            "type T struct { a []int\n b map[int]int }\nfunc f(n int) { x := &T{make([]int, n), make(map[int]int)}\n x.a[0] = 1\n print(x.a[0])\n x.b[1] = 2\n print(x.b[1])\n print(n) }\nfunc main() { f(2) }\n",
        );
        let f = p.funcs.iter().find(|f| f.name == "f").unwrap();
        let partials = plan.partials.get(f.id).expect("partials planned");
        let a = partials.iter().find(|pf| pf.field == "a").expect("field a");
        let b = partials.iter().find(|pf| pf.field == "b").expect("field b");
        let body = &f.body.stmts;
        let ai = body.iter().position(|s| s.id == a.after).unwrap();
        let bi = body.iter().position(|s| s.id == b.after).unwrap();
        assert!(ai < bi, "a dies before b: {partials:?}");
        assert_eq!(a.kind, FreeKind::Slice);
        assert_eq!(b.kind, FreeKind::Map);
    }

    #[test]
    fn escaping_field_blocks_partial_free() {
        let (p, _r, plan) = plan_for(
            "func g(s []int) int { return s[0] }\ntype T struct { a []int }\nfunc f(n int) { x := &T{make([]int, n)}\n x.a[0] = 1\n print(g(x.a))\n print(n) }\nfunc main() { f(2) }\n",
        );
        let f = p.funcs.iter().find(|f| f.name == "f").unwrap();
        // x.a passed to a call: the reference escapes our syntactic
        // aliasing argument, no partial free.
        assert!(plan.partials.get(f.id).is_none(), "{plan:?}");
    }

    #[test]
    fn value_struct_partial_freed_at_struct_last_use() {
        let (p, _r, plan) = plan_for(
            "type T struct { a []int\n n int }\nfunc f(n int) { x := T{make([]int, n), 3}\n x.a[0] = 1\n print(x.a[0])\n print(n)\n print(n) }\nfunc main() { f(2) }\n",
        );
        let f = p.funcs.iter().find(|f| f.name == "f").unwrap();
        let partials = plan.partials.get(f.id);
        if let Some(partials) = partials {
            let a = &partials[0];
            let body = &f.body.stmts;
            let ai = body.iter().position(|s| s.id == a.after).unwrap();
            assert_eq!(ai, 2, "after the last mention of x: {partials:?}");
        }
        // (If the solver pins value-struct locations the plan may be
        // empty; the directed assertion above only fires when planned.)
    }

    #[test]
    fn placement_parse_roundtrip() {
        assert_eq!(FreePlacement::parse("scope"), Some(FreePlacement::Scope));
        assert_eq!(
            FreePlacement::parse("lastuse"),
            Some(FreePlacement::LastUse)
        );
        assert_eq!(FreePlacement::parse("bogus"), None);
        assert_eq!(FreePlacement::LastUse.name(), "lastuse");
    }
}
