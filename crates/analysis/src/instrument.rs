//! `tcfree` instrumentation (§4.5 of the paper).
//!
//! For each variable chosen by the analysis, a `tcfree` statement is
//! inserted as the last statement of the variable's declaration scope —
//! placed just before a trailing `return` so the free stays live. Variables
//! declared in a `for`-init clause belong to the loop's implicit scope, so
//! their free lands immediately *after* the loop statement.
//!
//! Safety deviations from a literal reading of the paper, both documented
//! in DESIGN.md:
//! * a variable mentioned by the trailing `return`'s expressions is skipped
//!   (freeing before the use would be a use-after-free);
//! * mid-function returns skip the frees entirely — "it is still safe to
//!   leave the deallocation to GC".

use minigo_syntax::fxhash::{FxHashMap, FxHashSet};
use minigo_syntax::{
    Block, Expr, ExprId, ExprKind, FreeKind, IdMap, Program, Resolution, Span, Stmt, StmtId,
    StmtKind, TypeInfo, VarId,
};

use crate::analyze::Analysis;
use crate::liveness::{PartialFree, PlacementPlan};

/// Rewrites `program`, inserting the `tcfree` statements chosen by
/// `analysis`. Synthesized identifier uses are registered in `res` so the
/// VM can resolve them.
pub fn instrument(program: &Program, res: &mut Resolution, analysis: &Analysis) -> Program {
    instrument_inner(program, res, None, analysis, None)
}

/// Like [`instrument`], but honoring a liveness [`PlacementPlan`]:
/// variables the plan advances are freed right after their last-use
/// statement instead of at scope exit, and planned partial frees emit
/// `tcfree(x.f)` statements whose synthesized expressions get types
/// recorded in `types` (both VM engines resolve field projections through
/// the expression type table). An empty plan reproduces [`instrument`]
/// bit-exactly.
pub fn instrument_with_plan(
    program: &Program,
    res: &mut Resolution,
    types: &mut TypeInfo,
    analysis: &Analysis,
    plan: &PlacementPlan,
) -> Program {
    instrument_inner(program, res, Some(types), analysis, Some(plan))
}

fn instrument_inner(
    program: &Program,
    res: &mut Resolution,
    types: Option<&mut TypeInfo>,
    analysis: &Analysis,
    plan: Option<&PlacementPlan>,
) -> Program {
    // Statement ids are unique program-wide, so one table per insertion
    // kind serves every function.
    let mut by_decl: IdMap<StmtId, Vec<(VarId, FreeKind)>> = IdMap::default();
    let mut after_any: IdMap<StmtId, Vec<(VarId, FreeKind)>> = IdMap::default();
    let mut partial_after: IdMap<StmtId, Vec<PartialFree>> = IdMap::default();
    for func in &program.funcs {
        let advances = plan
            .and_then(|pl| pl.advance.get(func.id))
            .map_or(&[][..], Vec::as_slice);
        // Advanced variables leave the scope-exit path entirely.
        let advanced: FxHashSet<VarId> = advances.iter().map(|(v, _, _)| *v).collect();
        for &(vid, kind) in analysis.free_vars.get(func.id).into_iter().flatten() {
            if advanced.contains(&vid) {
                continue;
            }
            if let Some(stmt) = res.decl_stmt_of(vid) {
                by_decl.or_default(stmt).push((vid, kind));
            }
        }
        for &(vid, kind, sid) in advances {
            after_any.or_default(sid).push((vid, kind));
        }
        for pf in plan
            .and_then(|pl| pl.partials.get(func.id))
            .into_iter()
            .flatten()
        {
            partial_after.or_default(pf.after).push(pf.clone());
        }
    }
    let mut out = program.clone();
    let mut ctx = Inserter {
        res,
        types,
        by_decl,
        after_any,
        partial_after,
        next_expr: program.expr_count,
        next_stmt: program.stmt_count,
    };
    for func in &mut out.funcs {
        ctx.rewrite_block(&mut func.body);
    }
    out.expr_count = ctx.next_expr;
    out.stmt_count = ctx.next_stmt;
    out
}

struct Inserter<'a> {
    res: &'a mut Resolution,
    types: Option<&'a mut TypeInfo>,
    by_decl: IdMap<StmtId, Vec<(VarId, FreeKind)>>,
    /// Liveness-advanced whole-variable frees, keyed by the statement
    /// they follow.
    after_any: IdMap<StmtId, Vec<(VarId, FreeKind)>>,
    /// Planned partial frees, keyed by the statement they follow.
    partial_after: IdMap<StmtId, Vec<PartialFree>>,
    next_expr: u32,
    next_stmt: u32,
}

impl<'a> Inserter<'a> {
    fn make_free(&mut self, var: VarId, kind: FreeKind) -> Stmt {
        let expr_id = ExprId(self.next_expr);
        self.next_expr += 1;
        let stmt_id = StmtId(self.next_stmt);
        self.next_stmt += 1;
        self.res.record_use(expr_id, var);
        let name = self.res.var(var).name.clone();
        Stmt {
            id: stmt_id,
            kind: StmtKind::Free {
                target: Expr {
                    id: expr_id,
                    kind: ExprKind::Ident(name),
                    span: Span::synthetic(),
                },
                kind,
            },
            span: Span::synthetic(),
        }
    }

    fn make_partial(&mut self, pf: &PartialFree) -> Stmt {
        let base_id = ExprId(self.next_expr);
        self.next_expr += 1;
        let field_id = ExprId(self.next_expr);
        self.next_expr += 1;
        let stmt_id = StmtId(self.next_stmt);
        self.next_stmt += 1;
        self.res.record_use(base_id, pf.base);
        let name = self.res.var(pf.base).name.clone();
        if let Some(types) = self.types.as_deref_mut() {
            // Both engines resolve `x.f` through the base expression's
            // recorded type (struct name or pointer-to-struct).
            if let Some(bt) = types.var(pf.base).cloned() {
                types.record_expr_type(base_id, bt);
            }
            types.record_expr_type(field_id, pf.field_ty.clone());
        }
        Stmt {
            id: stmt_id,
            kind: StmtKind::Free {
                target: Expr {
                    id: field_id,
                    kind: ExprKind::Field {
                        base: Box::new(Expr {
                            id: base_id,
                            kind: ExprKind::Ident(name),
                            span: Span::synthetic(),
                        }),
                        name: pf.field.clone(),
                    },
                    span: Span::synthetic(),
                },
                kind: pf.kind,
            },
            span: Span::synthetic(),
        }
    }

    fn rewrite_block(&mut self, block: &mut Block) {
        // First recurse into nested statements and collect insertions.
        let mut end_frees: Vec<(VarId, FreeKind)> = Vec::new();
        let mut after: FxHashMap<StmtId, Vec<(VarId, FreeKind)>> = FxHashMap::default();
        let mut partial: FxHashMap<StmtId, Vec<PartialFree>> = FxHashMap::default();
        for stmt in &mut block.stmts {
            self.rewrite_stmt(stmt);
            match &stmt.kind {
                StmtKind::VarDecl { .. } | StmtKind::ShortDecl { .. } => {
                    if let Some(list) = self.by_decl.remove(stmt.id) {
                        end_frees.extend(list);
                    }
                }
                StmtKind::For {
                    init: Some(init), ..
                } => {
                    // Frees for for-init variables go right after the loop:
                    // that is where the implicit loop scope ends.
                    if let Some(list) = self.by_decl.remove(init.id) {
                        after.entry(stmt.id).or_default().extend(list);
                    }
                }
                _ => {}
            }
            // Liveness-advanced frees and partial frees follow whichever
            // statement the plan names, in whatever block it lives.
            if let Some(list) = self.after_any.remove(stmt.id) {
                after.entry(stmt.id).or_default().extend(list);
            }
            if let Some(list) = self.partial_after.remove(stmt.id) {
                partial.entry(stmt.id).or_default().extend(list);
            }
        }
        if end_frees.is_empty() && after.is_empty() && partial.is_empty() {
            return;
        }
        let old = std::mem::take(&mut block.stmts);
        let mut stmts = Vec::with_capacity(old.len() + end_frees.len());
        let last_index = old.len().saturating_sub(1);
        for (i, stmt) in old.into_iter().enumerate() {
            let after_this = after.remove(&stmt.id);
            let partial_this = partial.remove(&stmt.id);
            let is_last = i == last_index;
            if is_last && is_terminator(&stmt) {
                // Insert the end-of-scope frees *before* the trailing
                // terminator so they execute — skipping any variable the
                // terminator still reads.
                let used = vars_read_by(self.res, &stmt);
                for (vid, kind) in end_frees.drain(..) {
                    if !used.contains(&vid) {
                        stmts.push(self.make_free(vid, kind));
                    }
                }
                stmts.push(stmt);
            } else {
                stmts.push(stmt);
            }
            if let Some(list) = after_this {
                for (vid, kind) in list {
                    stmts.push(self.make_free(vid, kind));
                }
            }
            if let Some(list) = partial_this {
                for pf in list {
                    stmts.push(self.make_partial(&pf));
                }
            }
        }
        for (vid, kind) in end_frees {
            stmts.push(self.make_free(vid, kind));
        }
        block.stmts = stmts;
    }

    fn rewrite_stmt(&mut self, stmt: &mut Stmt) {
        match &mut stmt.kind {
            StmtKind::If { then, els, .. } => {
                self.rewrite_block(then);
                if let Some(els) = els {
                    self.rewrite_stmt(els);
                }
            }
            StmtKind::For { body, .. } => self.rewrite_block(body),
            StmtKind::BlockStmt { block } => self.rewrite_block(block),
            StmtKind::Switch { cases, default, .. } => {
                for case in cases {
                    self.rewrite_block(&mut case.body);
                }
                if let Some(default) = default {
                    self.rewrite_block(default);
                }
            }
            _ => {}
        }
    }
}

fn is_terminator(stmt: &Stmt) -> bool {
    matches!(
        stmt.kind,
        StmtKind::Return { .. } | StmtKind::Break | StmtKind::Continue
    )
}

/// Variables read by a statement's expressions (used to keep frees from
/// preceding a use in the trailing return).
fn vars_read_by(res: &Resolution, stmt: &Stmt) -> Vec<VarId> {
    let mut out = Vec::new();
    if let StmtKind::Return { exprs } = &stmt.kind {
        for e in exprs {
            collect_vars(res, e, &mut out);
        }
    }
    out
}

fn collect_vars(res: &Resolution, e: &Expr, out: &mut Vec<VarId>) {
    match &e.kind {
        ExprKind::Ident(_) => {
            if let Some(v) = res.def_of(e.id) {
                out.push(v);
            }
        }
        ExprKind::Unary { operand, .. } => collect_vars(res, operand, out),
        ExprKind::Binary { lhs, rhs, .. } => {
            collect_vars(res, lhs, out);
            collect_vars(res, rhs, out);
        }
        ExprKind::Field { base, .. } => collect_vars(res, base, out),
        ExprKind::Index { base, index } => {
            collect_vars(res, base, out);
            collect_vars(res, index, out);
        }
        ExprKind::Call { args, .. } | ExprKind::Builtin { args, .. } => {
            for a in args {
                collect_vars(res, a, out);
            }
        }
        ExprKind::StructLit { fields, .. } => {
            for f in fields {
                collect_vars(res, f, out);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{analyze, AnalyzeOptions};
    use minigo_syntax::{frontend, print_program};

    fn instrumented(src: &str) -> String {
        let (p, mut r, t) = frontend(src).expect("frontend");
        let a = analyze(&p, &r, &t, &AnalyzeOptions::default());
        let out = instrument(&p, &mut r, &a);
        print_program(&out)
    }

    #[test]
    fn inserts_free_at_scope_end() {
        let text = instrumented("func f(n int) { s := make([]int, n)\n s[0] = 1\n print(s[0]) }\n");
        assert!(text.contains("tcfree(s)"), "{text}");
        let free_pos = text.find("tcfree(s)").unwrap();
        let print_pos = text.find("print(").unwrap();
        assert!(free_pos > print_pos, "free is the last statement: {text}");
    }

    #[test]
    fn inserts_free_inside_loop_body() {
        let text = instrumented(
            "func f(n int) { for i := 0; i < n; i += 1 { s := make([]int, i)\n s[0] = 1 } }\n",
        );
        // The free must be inside the loop body (the declaration scope).
        let body_start = text.find("{ ").unwrap_or(0);
        assert!(text.contains("tcfree(s)"), "{text}");
        assert!(text.rfind("tcfree(s)").unwrap() > body_start);
        // And before the closing braces of the loop.
        let free = text.find("tcfree(s)").unwrap();
        let last_close = text.rfind('}').unwrap();
        assert!(free < last_close);
    }

    #[test]
    fn for_init_variable_freed_after_loop() {
        let text = instrumented(
            "func f(n int) { for s := make([]int, n); len(s) < n+1; s = append(s, 1) { s[0] = 1 }\n print(n) }\n",
        );
        if let Some(free) = text.find("tcfree(s)") {
            // The free must come after the loop's closing brace, not inside.
            let loop_close = text.find("}\n").unwrap_or(0);
            assert!(free > loop_close, "{text}");
        }
    }

    #[test]
    fn free_before_trailing_return_when_var_unused() {
        let text = instrumented(
            "func f(n int) int { s := make([]int, n)\n s[0] = 7\n x := s[0]\n return x }\n",
        );
        let free = text.find("tcfree(s)").expect(&text);
        let ret = text.find("return x").expect(&text);
        assert!(free < ret, "free precedes the return: {text}");
    }

    #[test]
    fn no_free_when_trailing_return_uses_var() {
        let text =
            instrumented("func f(n int) int { s := make([]int, n)\n s[0] = 7\n return s[0] }\n");
        assert!(
            !text.contains("tcfree(s)"),
            "freeing before `return s[0]` would be use-after-free: {text}"
        );
    }

    #[test]
    fn go_mode_program_unchanged() {
        let src = "func f(n int) { s := make([]int, n)\n s[0] = 1 }\n";
        let (p, mut r, t) = frontend(src).unwrap();
        let a = analyze(&p, &r, &t, &AnalyzeOptions::go());
        let out = instrument(&p, &mut r, &a);
        assert_eq!(print_program(&out), print_program(&p));
    }

    #[test]
    fn instrumented_program_reparses() {
        let text = instrumented(
            "func f(n int) { s := make([]int, n)\n m := make(map[int]int)\n for i := 0; i < n; i += 1 { m[i] = i }\n s[0] = len(m) }\n",
        );
        assert!(minigo_syntax::parse(&text).is_ok(), "{text}");
        assert!(text.contains("tcfree(s)"));
        assert!(text.contains("tcfree(m)"));
    }

    #[test]
    fn nested_scope_frees_in_right_blocks() {
        let text = instrumented(
            "func f(n int) { { a := make([]int, n)\n a[0] = 1 }\n b := make([]int, n)\n b[0] = 2 }\n",
        );
        let free_a = text.find("tcfree(a)").expect(&text);
        let decl_b = text.find("b := make").expect(&text);
        assert!(free_a < decl_b, "a freed in its inner block: {text}");
        assert!(text.contains("tcfree(b)"));
    }
}
