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

use minigo_syntax::visit::{Node, Visitor, Walk};
use minigo_syntax::{Expr, ExprKind, FuncId, IdMap, Program, Resolution, VarId};

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
        // walk it; `arg_is_dead` misses the lookup and counts the
        // occurrence, which is the conservative answer. A `tcfree(p)`
        // counts as a use: the callee touching the referent (even to
        // free it) matters to a caller deciding whether its own free may
        // move earlier.
        live_idents(&func.body, res, &out, |v| {
            if let Some(i) = params.iter().position(|p| *p == v) {
                used[i] = true;
            }
            false
        });
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

/// Calls `f` on the variable of every identifier under `node` that can
/// touch its referent — every one except a bare argument handed to a
/// callee position that provably never uses it ([`arg_is_dead`]). `f`
/// answering `true` stops the walk, and then so does this: `true`.
pub(crate) fn live_idents<N: Node>(
    node: &N,
    res: &Resolution,
    summaries: &IdMap<FuncId, UseSummary>,
    f: impl FnMut(VarId) -> bool,
) -> bool {
    struct Live<'r, F> {
        res: &'r Resolution,
        summaries: &'r IdMap<FuncId, UseSummary>,
        f: F,
    }
    impl<'a, F: FnMut(VarId) -> bool> Visitor<'a> for Live<'_, F> {
        fn expr(&mut self, e: &'a Expr) -> Walk {
            if let ExprKind::Call { callee, args } = &e.kind {
                for (i, a) in args.iter().enumerate() {
                    if !arg_is_dead(a, i, callee, self.res, self.summaries)
                        && a.walk(self).is_break()
                    {
                        return Walk::Stop;
                    }
                }
                return Walk::Skip;
            }
            match self.res.def_of(e.id) {
                Some(v) if (self.f)(v) => Walk::Stop,
                _ => Walk::Descend,
            }
        }
    }
    node.walk(&mut Live { res, summaries, f }).is_break()
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
