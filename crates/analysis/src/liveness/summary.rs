//! Context-sensitive parameter-use summaries (the liveness counterpart
//! of the §4.4 extended parameter tags).
//!
//! The escape summaries say where a parameter's referent may *end up*;
//! for last-use placement we additionally need to know whether a callee
//! *touches* a parameter's referent at all. A call `g(x)` whose callee
//! never reads, stores, frees, or forwards `x` does not extend `x`'s
//! live range — the caller may free `x`'s object before the call. The
//! summaries are computed bottom-up over the call graph and composed at
//! call sites: an argument passed straight through to a callee position
//! that is itself unused does not count as a use in the *caller* either,
//! which is what makes the refinement context-sensitive rather than a
//! per-function bit.

use minigo_syntax::{
    Block, Expr, ExprKind, FuncId, IdMap, Program, Resolution, Stmt, StmtKind, VarId,
};

use crate::callgraph::CallGraph;

/// One function's liveness summary: which parameter positions the
/// function (transitively) uses.
#[derive(Debug, Clone, Default)]
pub struct UseSummary {
    /// Per parameter position: `false` means no occurrence of the
    /// parameter can touch its referent — every occurrence is a bare
    /// pass-through into a callee position that is itself unused.
    pub param_used: Vec<bool>,
}

impl UseSummary {
    /// Whether the parameter at `idx` may be used; out-of-range
    /// positions are conservatively used.
    pub fn used(&self, idx: usize) -> bool {
        self.param_used.get(idx).copied().unwrap_or(true)
    }
}

/// Computes use summaries for every function, bottom-up over the call
/// graph. Members of a recursion cycle and functions called through
/// unresolvable edges fall back to all-used (the sound default).
pub fn use_summaries(
    program: &Program,
    res: &Resolution,
    cg: &CallGraph,
) -> IdMap<FuncId, UseSummary> {
    let mut out = IdMap::default();
    for &fid in cg.bottom_up() {
        let func = &program.funcs[fid.index()];
        let params = res.params_of(fid);
        let mut used = vec![false; params.len()];
        // A recursive function's own summary is not available while we
        // walk it; `arg_is_dead` below misses the lookup and counts the
        // occurrence, which is the conservative answer.
        let mut walker = UseWalker {
            res,
            summaries: &out,
            params,
            used: &mut used,
        };
        walker.block(&func.body);
        out.insert(fid, UseSummary { param_used: used });
    }
    out
}

/// Whether argument expression `arg` at position `idx` of a call to
/// `callee` is a dead pass-through: a bare identifier handed to a
/// parameter position the callee provably never uses.
pub(crate) fn arg_is_dead(
    arg: &Expr,
    idx: usize,
    callee: &str,
    res: &Resolution,
    summaries: &IdMap<FuncId, UseSummary>,
) -> bool {
    if !matches!(arg.kind, ExprKind::Ident(_)) {
        return false;
    }
    res.func_by_name(callee)
        .and_then(|fid| summaries.get(fid))
        .map(|s| !s.used(idx))
        .unwrap_or(false)
}

struct UseWalker<'a> {
    res: &'a Resolution,
    summaries: &'a IdMap<FuncId, UseSummary>,
    params: &'a [VarId],
    used: &'a mut [bool],
}

impl<'a> UseWalker<'a> {
    fn mark(&mut self, expr_id: minigo_syntax::ExprId) {
        if let Some(v) = self.res.def_of(expr_id) {
            if let Some(i) = self.params.iter().position(|p| *p == v) {
                self.used[i] = true;
            }
        }
    }

    fn expr(&mut self, e: &Expr) {
        match &e.kind {
            ExprKind::Ident(_) => self.mark(e.id),
            ExprKind::Unary { operand, .. } => self.expr(operand),
            ExprKind::Binary { lhs, rhs, .. } => {
                self.expr(lhs);
                self.expr(rhs);
            }
            ExprKind::Field { base, .. } => self.expr(base),
            ExprKind::Index { base, index } => {
                self.expr(base);
                self.expr(index);
            }
            ExprKind::SliceExpr { base, lo, hi } => {
                self.expr(base);
                for b in [lo, hi].into_iter().flatten() {
                    self.expr(b);
                }
            }
            ExprKind::Call { callee, args } => {
                for (i, a) in args.iter().enumerate() {
                    if arg_is_dead(a, i, callee, self.res, self.summaries) {
                        continue;
                    }
                    self.expr(a);
                }
            }
            ExprKind::Builtin { args, .. } => {
                for a in args {
                    self.expr(a);
                }
            }
            ExprKind::StructLit { fields, .. } => {
                for f in fields {
                    self.expr(f);
                }
            }
            ExprKind::IntLit(_) | ExprKind::BoolLit(_) | ExprKind::StrLit(_) | ExprKind::Nil => {}
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::VarDecl { init, .. } | StmtKind::ShortDecl { init, .. } => {
                init.iter().for_each(|e| self.expr(e))
            }
            StmtKind::Assign { lhs, rhs, .. } => lhs.iter().chain(rhs).for_each(|e| self.expr(e)),
            StmtKind::If { cond, then, els } => {
                self.expr(cond);
                self.block(then);
                if let Some(e) = els {
                    self.stmt(e);
                }
            }
            StmtKind::For {
                init,
                cond,
                post,
                body,
            } => {
                if let Some(i) = init {
                    self.stmt(i);
                }
                if let Some(c) = cond {
                    self.expr(c);
                }
                if let Some(p) = post {
                    self.stmt(p);
                }
                self.block(body);
            }
            StmtKind::Return { exprs } => exprs.iter().for_each(|e| self.expr(e)),
            StmtKind::Expr { expr } => self.expr(expr),
            StmtKind::BlockStmt { block } => self.block(block),
            StmtKind::Defer { call } => self.expr(call),
            StmtKind::Switch {
                subject,
                cases,
                default,
            } => {
                self.expr(subject);
                for case in cases {
                    case.values.iter().for_each(|v| self.expr(v));
                    self.block(&case.body);
                }
                if let Some(d) = default {
                    self.block(d);
                }
            }
            // A `tcfree(p)` occurrence counts as a use: the callee
            // touching the referent (even to free it) matters to a
            // caller deciding whether its own free may move earlier.
            StmtKind::Free { target, .. } => self.expr(target),
            StmtKind::Break | StmtKind::Continue => {}
        }
    }

    fn block(&mut self, b: &Block) {
        for s in &b.stmts {
            self.stmt(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minigo_syntax::frontend;

    fn summaries_for(src: &str) -> (Program, Resolution, IdMap<FuncId, UseSummary>) {
        let (p, r, _t) = frontend(src).expect("frontend");
        let cg = CallGraph::build(&p);
        let s = use_summaries(&p, &r, &cg);
        (p, r, s)
    }

    fn summary<'a>(p: &Program, s: &'a IdMap<FuncId, UseSummary>, name: &str) -> &'a UseSummary {
        let f = p.funcs.iter().find(|f| f.name == name).unwrap();
        &s[f.id]
    }

    #[test]
    fn unused_param_is_dead() {
        let (p, _r, s) =
            summaries_for("func g(s []int, n int) int { return n }\nfunc main() { print(g(make([]int, 4), 2)) }\n");
        let g = summary(&p, &s, "g");
        assert!(!g.used(0), "slice param never touched");
        assert!(g.used(1));
    }

    #[test]
    fn read_param_is_used() {
        let (p, _r, s) = summaries_for(
            "func g(s []int) int { return s[0] }\nfunc main() { print(g(make([]int, 4))) }\n",
        );
        assert!(summary(&p, &s, "g").used(0));
    }

    #[test]
    fn pass_through_to_dead_callee_is_dead() {
        let (p, _r, s) = summaries_for(
            "func leaf(s []int) int { return 1 }\nfunc mid(t []int) int { return leaf(t) }\nfunc main() { print(mid(make([]int, 4))) }\n",
        );
        assert!(!summary(&p, &s, "leaf").used(0));
        assert!(
            !summary(&p, &s, "mid").used(0),
            "pass-through into a dead position composes"
        );
    }

    #[test]
    fn pass_through_to_live_callee_is_used() {
        let (p, _r, s) = summaries_for(
            "func leaf(s []int) int { return s[0] }\nfunc mid(t []int) int { return leaf(t) }\nfunc main() { print(mid(make([]int, 4))) }\n",
        );
        assert!(summary(&p, &s, "mid").used(0));
    }

    #[test]
    fn recursion_stays_conservative() {
        let (p, _r, s) = summaries_for(
            "func f(s []int, n int) int { if n == 0 { return 0 }\n return f(s, n-1) }\nfunc main() { print(f(make([]int, 2), 3)) }\n",
        );
        assert!(
            summary(&p, &s, "f").used(0),
            "cycle member falls back to used"
        );
    }
}
