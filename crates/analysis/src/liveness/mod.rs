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
use minigo_syntax::visit::{self, Walk};
use minigo_syntax::{
    Block, FreeKind, Func, FuncId, IdMap, Program, Resolution, Stmt, StmtId, StmtKind, Type,
    TypeInfo, VarId, VarKind,
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
    /// Canonical CLI/report name.
    pub fn name(self) -> &'static str {
        match self {
            FreePlacement::Scope => "scope",
            FreePlacement::LastUse => "lastuse",
        }
    }
}

impl std::fmt::Display for FreePlacement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for FreePlacement {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "scope" => Ok(FreePlacement::Scope),
            "lastuse" => Ok(FreePlacement::LastUse),
            other => Err(format!(
                "unknown free placement {other:?} (expected \"scope\" or \"lastuse\")"
            )),
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
        let mut terms = BTreeSet::new();
        visit::stmts(&func.body, |s| {
            if s.is_terminator() {
                terms.insert(s.id);
            }
            Walk::Descend
        });
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
        if stmts[last].is_terminator() {
            continue; // the last use is on the terminator itself
        }
        // The scope path already places the free at the block end (or
        // just before a trailing terminator); only a strictly earlier
        // slot is an advancement.
        let scope_idx = if stmts[last_index].is_terminator() {
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

/// Whether a statement's subtree can touch the referent of any variable
/// in `group`, with the context-sensitive dead-argument refinement.
fn stmt_uses_group(
    stmt: &Stmt,
    res: &Resolution,
    group: &[VarId],
    sums: &IdMap<FuncId, UseSummary>,
) -> bool {
    summary::live_idents(stmt, res, sums, |v| group.contains(&v))
}

/// Whether any `defer` in the function mentions a group member. Deferred
/// argument *values* are captured at defer time, but the paper's model
/// keeps referents alive until the call runs, so we stay conservative.
fn defer_mentions(body: &Block, res: &Resolution, group: &[VarId]) -> bool {
    let mut found = false;
    visit::stmts(body, |s| {
        if let StmtKind::Defer { call } = &s.kind {
            found = visit::any_expr(call, |e| {
                res.def_of(e.id).is_some_and(|v| group.contains(&v))
            });
        }
        if found {
            Walk::Stop
        } else {
            Walk::Descend
        }
    });
    found
}

/// The statement list of the block that holds `sid` directly, at any
/// depth; `None` for a statement no block lists (a `for` init or post).
fn block_of_stmt(body: &Block, sid: StmtId) -> Option<&[Stmt]> {
    let mut found = None;
    visit::blocks(body, |b| {
        if b.stmts.iter().any(|s| s.id == sid) {
            found = Some(&b.stmts[..]);
            Walk::Stop
        } else {
            Walk::Descend
        }
    });
    found
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
        assert_eq!("scope".parse(), Ok(FreePlacement::Scope));
        assert_eq!("lastuse".parse(), Ok(FreePlacement::LastUse));
        assert!("bogus".parse::<FreePlacement>().is_err());
        assert_eq!(FreePlacement::LastUse.to_string(), "lastuse");
    }
}
