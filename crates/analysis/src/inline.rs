//! Function inlining (§4.6.4 of the paper).
//!
//! Go's escape analysis benefits from inlining: an object that escapes a
//! small callee only via `return` can still be stack-allocated once the
//! callee is embedded in the caller. GoFree does *not* depend on inlining
//! — its extended parameter tags already model callee allocations — and
//! the `inlining` experiment binary demonstrates exactly that.
//!
//! The pass is a source-level transform: it replaces statement-position
//! calls to eligible callees with a block containing the renamed callee
//! body. The result has fresh ids and must be re-run through the resolver
//! and type checker (the [`crate::analyze()`](crate::analyze::analyze) pipeline does this via
//! `minigo_syntax::frontend` on the printed output's AST — callers use
//! [`inline_program`] and then treat the result as a brand-new program).

use minigo_syntax::fxhash::FxHashMap;
use minigo_syntax::{
    Block, BlockId, Expr, ExprId, ExprKind, Func, FuncId, IdMap, Program, Stmt, StmtId, StmtKind,
    SwitchCase,
};

use crate::callgraph::CallGraph;

/// Inlining options.
#[derive(Debug, Clone)]
pub struct InlineOptions {
    /// Maximum number of statements in an inlinable callee.
    pub max_stmts: usize,
}

impl Default for InlineOptions {
    fn default() -> Self {
        InlineOptions { max_stmts: 12 }
    }
}

/// Statistics from one inlining pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InlineStats {
    /// Call sites replaced.
    pub inlined_calls: usize,
    /// Call sites left alone (ineligible callee or call shape).
    pub skipped_calls: usize,
}

/// Inlines eligible statement-position calls once (no transitive
/// inlining). Returns the transformed program and statistics.
///
/// ```
/// use minigo_escape::{inline_program, InlineOptions};
///
/// let src = "func mk() []int { s := make([]int, 4)\n return s }\nfunc main() { t := mk()\n print(len(t)) }\n";
/// let program = minigo_syntax::parse(src).unwrap();
/// let (inlined, stats) = inline_program(&program, &InlineOptions::default());
/// assert_eq!(stats.inlined_calls, 1);
/// let text = minigo_syntax::print_program(&inlined);
/// assert!(text.contains("__in0_s := make"));
/// ```
pub fn inline_program(program: &Program, opts: &InlineOptions) -> (Program, InlineStats) {
    let cg = CallGraph::build(program);
    let eligible: IdMap<FuncId, &Func> = program
        .funcs
        .iter()
        .filter(|f| is_eligible(f, &cg, opts))
        .map(|f| (f.id, f))
        .collect();
    let mut out = program.clone();
    let mut ctx = Inliner {
        eligible: &eligible,
        by_name: program
            .funcs
            .iter()
            .map(|f| (f.name.clone(), f.id))
            .collect(),
        next_expr: program.expr_count,
        next_stmt: program.stmt_count,
        next_block: program.block_count,
        next_site: 0,
        stats: InlineStats::default(),
    };
    for func in &mut out.funcs {
        ctx.rewrite_block(&mut func.body);
    }
    out.expr_count = ctx.next_expr;
    out.stmt_count = ctx.next_stmt;
    out.block_count = ctx.next_block;
    let stats = ctx.stats;
    (out, stats)
}

/// A callee is inlinable when it is small, non-recursive, not `main`, and
/// control flow is simple: at most one `return`, which must be the last
/// statement of the body.
fn is_eligible(f: &Func, cg: &CallGraph, opts: &InlineOptions) -> bool {
    if f.name == "main" || cg.is_recursive(f.id) {
        return false;
    }
    if count_stmts(&f.body) > opts.max_stmts {
        return false;
    }
    let returns = count_returns(&f.body);
    match returns {
        0 => f.results.is_empty(),
        1 => matches!(
            f.body.stmts.last().map(|s| &s.kind),
            Some(StmtKind::Return { .. })
        ),
        _ => false,
    }
}

fn count_stmts(block: &Block) -> usize {
    let mut n = 0;
    for stmt in &block.stmts {
        n += 1;
        match &stmt.kind {
            StmtKind::If { then, els, .. } => {
                n += count_stmts(then);
                if let Some(els) = els {
                    n += 1;
                    if let StmtKind::BlockStmt { block } = &els.kind {
                        n += count_stmts(block);
                    }
                }
            }
            StmtKind::For { body, .. } => n += count_stmts(body),
            StmtKind::BlockStmt { block } => n += count_stmts(block),
            StmtKind::Switch { cases, default, .. } => {
                for c in cases {
                    n += count_stmts(&c.body);
                }
                if let Some(d) = default {
                    n += count_stmts(d);
                }
            }
            _ => {}
        }
    }
    n
}

fn count_returns(block: &Block) -> usize {
    let mut n = 0;
    for stmt in &block.stmts {
        match &stmt.kind {
            StmtKind::Return { .. } => n += 1,
            StmtKind::If { then, els, .. } => {
                n += count_returns(then);
                if let Some(els) = els {
                    if let StmtKind::BlockStmt { block } = &els.kind {
                        n += count_returns(block);
                    } else if let StmtKind::Return { .. } = &els.kind {
                        n += 1;
                    }
                }
            }
            StmtKind::For { body, .. } => n += count_returns(body),
            StmtKind::BlockStmt { block } => n += count_returns(block),
            StmtKind::Switch { cases, default, .. } => {
                for c in cases {
                    n += count_returns(&c.body);
                }
                if let Some(d) = default {
                    n += count_returns(d);
                }
            }
            _ => {}
        }
    }
    n
}

struct Inliner<'p> {
    eligible: &'p IdMap<FuncId, &'p Func>,
    by_name: FxHashMap<String, FuncId>,
    next_expr: u32,
    next_stmt: u32,
    next_block: u32,
    next_site: u32,
    stats: InlineStats,
}

impl<'p> Inliner<'p> {
    fn expr_id(&mut self) -> ExprId {
        let id = ExprId(self.next_expr);
        self.next_expr += 1;
        id
    }

    fn stmt_id(&mut self) -> StmtId {
        let id = StmtId(self.next_stmt);
        self.next_stmt += 1;
        id
    }

    fn block_id(&mut self) -> BlockId {
        let id = BlockId(self.next_block);
        self.next_block += 1;
        id
    }

    fn rewrite_block(&mut self, block: &mut Block) {
        let old = std::mem::take(&mut block.stmts);
        let mut stmts = Vec::with_capacity(old.len());
        for mut stmt in old {
            self.rewrite_children(&mut stmt);
            match self.try_inline(&stmt) {
                Some(replacement) => {
                    self.stats.inlined_calls += 1;
                    stmts.extend(replacement);
                }
                None => stmts.push(stmt),
            }
        }
        block.stmts = stmts;
    }

    fn rewrite_children(&mut self, stmt: &mut Stmt) {
        match &mut stmt.kind {
            StmtKind::If { then, els, .. } => {
                self.rewrite_block(then);
                if let Some(els) = els {
                    self.rewrite_children(els);
                }
            }
            StmtKind::For { body, .. } => self.rewrite_block(body),
            StmtKind::BlockStmt { block } => self.rewrite_block(block),
            StmtKind::Switch { cases, default, .. } => {
                for c in cases {
                    self.rewrite_block(&mut c.body);
                }
                if let Some(d) = default {
                    self.rewrite_block(d);
                }
            }
            _ => {}
        }
    }

    /// Inlines `x, y := f(args)`, `x, y = f(args)` (identifier targets
    /// only), and `f(args)` statements. Returns the replacement statement
    /// sequence: declarations for `:=` targets (typed from the callee's
    /// results) followed by the inline block.
    fn try_inline(&mut self, stmt: &Stmt) -> Option<Vec<Stmt>> {
        let (call, targets): (&Expr, Vec<Target>) = match &stmt.kind {
            StmtKind::ShortDecl { names, init } if init.len() == 1 => (
                &init[0],
                names.iter().map(|n| Target::Decl(n.clone())).collect(),
            ),
            StmtKind::Assign { lhs, op: None, rhs } if rhs.len() == 1 => {
                let mut targets = Vec::new();
                for l in lhs {
                    match &l.kind {
                        ExprKind::Ident(name) => targets.push(Target::Assign(name.clone())),
                        _ => return None,
                    }
                }
                (&rhs[0], targets)
            }
            StmtKind::Expr { expr } => (expr, Vec::new()),
            _ => return None,
        };
        let ExprKind::Call { callee, args } = &call.kind else {
            return None;
        };
        let fid = self.by_name.get(callee).copied()?;
        let Some(func) = self.eligible.get(fid) else {
            self.stats.skipped_calls += 1;
            return None;
        };
        if !targets.is_empty() && targets.len() != func.results.len() {
            self.stats.skipped_calls += 1;
            return None;
        }
        // Arguments must not themselves contain calls (evaluation-order
        // fidelity); keep it simple and skip such sites.
        if args.iter().any(contains_call) {
            self.stats.skipped_calls += 1;
            return None;
        }

        let site = self.next_site;
        self.next_site += 1;
        let prefix = format!("__in{site}_");

        let mut stmts = Vec::new();
        // Bind parameters: __inK_param := arg.
        for (param, arg) in func.params.iter().zip(args) {
            let mut arg = arg.clone();
            self.renumber_expr(&mut arg);
            stmts.push(Stmt {
                id: self.stmt_id(),
                kind: StmtKind::ShortDecl {
                    names: vec![format!("{prefix}{}", param.name)],
                    init: vec![arg],
                },
                span: stmt.span,
            });
        }
        // Named results used by a bare return need declarations.
        let named_results: Vec<_> = func.results.iter().filter(|r| !r.name.is_empty()).collect();
        for r in &named_results {
            stmts.push(Stmt {
                id: self.stmt_id(),
                kind: StmtKind::VarDecl {
                    names: vec![format!("{prefix}{}", r.name)],
                    ty: r.ty.clone(),
                    init: Vec::new(),
                },
                span: stmt.span,
            });
        }

        // Copy the body, renaming every identifier and rewriting the
        // trailing return into assignments to the targets.
        let body = func.body.clone();
        let n = body.stmts.len();
        for (i, mut s) in body.stmts.into_iter().enumerate() {
            let is_last = i + 1 == n;
            if is_last {
                if let StmtKind::Return { exprs } = &s.kind {
                    let mut exprs = exprs.clone();
                    for e in &mut exprs {
                        self.rename_expr(e, &prefix);
                        self.renumber_expr(e);
                    }
                    // A bare return uses the named result variables.
                    if exprs.is_empty() && !func.results.is_empty() {
                        for r in &func.results {
                            let mut e = Expr {
                                id: ExprId(0),
                                kind: ExprKind::Ident(format!("{prefix}{}", r.name)),
                                span: stmt.span,
                            };
                            self.renumber_expr(&mut e);
                            exprs.push(e);
                        }
                    }
                    if !targets.is_empty() {
                        stmts.push(self.bind_targets(&targets, exprs, stmt.span));
                    } else {
                        // Results discarded: still evaluate for effects.
                        for e in exprs {
                            if matches!(e.kind, ExprKind::Call { .. } | ExprKind::Builtin { .. }) {
                                stmts.push(Stmt {
                                    id: self.stmt_id(),
                                    kind: StmtKind::Expr { expr: e },
                                    span: stmt.span,
                                });
                            }
                        }
                    }
                    continue;
                }
            }
            self.rename_stmt(&mut s, &prefix);
            self.renumber_stmt(&mut s);
            stmts.push(s);
        }
        // Functions with results but no trailing return (all named,
        // implicit zero values) still need the binding.
        if !targets.is_empty()
            && !matches!(
                stmts.last().map(|s| &s.kind),
                Some(StmtKind::ShortDecl { .. } | StmtKind::Assign { .. })
            )
        {
            // The body ended without a return statement; bind the named
            // results' current values.
            let exprs: Vec<Expr> = func
                .results
                .iter()
                .map(|r| {
                    let mut e = Expr {
                        id: ExprId(0),
                        kind: ExprKind::Ident(format!("{prefix}{}", r.name)),
                        span: stmt.span,
                    };
                    self.renumber_expr(&mut e);
                    e
                })
                .collect();
            stmts.push(self.bind_targets(&targets, exprs, stmt.span));
        }

        let block = Block {
            id: self.block_id(),
            stmts,
            span: stmt.span,
        };
        let mut out = Vec::new();
        // `x := f(...)` targets must be visible after the block: declare
        // them (typed from the callee's results) before it; the bindings
        // inside the block then plain-assign.
        for (t, r) in targets.iter().zip(&func.results) {
            if let Target::Decl(name) = t {
                out.push(Stmt {
                    id: self.stmt_id(),
                    kind: StmtKind::VarDecl {
                        names: vec![name.clone()],
                        ty: r.ty.clone(),
                        init: Vec::new(),
                    },
                    span: stmt.span,
                });
            }
        }
        out.push(Stmt {
            id: self.stmt_id(),
            kind: StmtKind::BlockStmt { block },
            span: stmt.span,
        });
        Some(out)
    }

    /// Binds the callee's (renamed) result expressions to the call-site
    /// targets. Declarations were hoisted before the block, so this is
    /// always a plain assignment.
    fn bind_targets(
        &mut self,
        targets: &[Target],
        exprs: Vec<Expr>,
        span: minigo_syntax::Span,
    ) -> Stmt {
        let lhs: Vec<Expr> = targets
            .iter()
            .map(|t| {
                let name = match t {
                    Target::Decl(n) | Target::Assign(n) => n.clone(),
                };
                let mut e = Expr {
                    id: ExprId(0),
                    kind: ExprKind::Ident(name),
                    span,
                };
                self.renumber_expr(&mut e);
                e
            })
            .collect();
        Stmt {
            id: self.stmt_id(),
            kind: StmtKind::Assign {
                lhs,
                op: None,
                rhs: exprs,
            },
            span,
        }
    }

    // -- renaming (prefix every variable identifier and declaration) --

    fn rename_stmt(&mut self, stmt: &mut Stmt, prefix: &str) {
        match &mut stmt.kind {
            StmtKind::VarDecl { names, init, .. } | StmtKind::ShortDecl { names, init } => {
                for n in names.iter_mut() {
                    *n = format!("{prefix}{n}");
                }
                for e in init {
                    self.rename_expr(e, prefix);
                }
            }
            StmtKind::Assign { lhs, rhs, .. } => {
                for e in lhs.iter_mut().chain(rhs) {
                    self.rename_expr(e, prefix);
                }
            }
            StmtKind::If { cond, then, els } => {
                self.rename_expr(cond, prefix);
                self.rename_block(then, prefix);
                if let Some(els) = els {
                    self.rename_stmt(els, prefix);
                }
            }
            StmtKind::For {
                init,
                cond,
                post,
                body,
            } => {
                if let Some(init) = init {
                    self.rename_stmt(init, prefix);
                }
                if let Some(cond) = cond {
                    self.rename_expr(cond, prefix);
                }
                if let Some(post) = post {
                    self.rename_stmt(post, prefix);
                }
                self.rename_block(body, prefix);
            }
            StmtKind::Return { exprs } => {
                for e in exprs {
                    self.rename_expr(e, prefix);
                }
            }
            StmtKind::Expr { expr } => self.rename_expr(expr, prefix),
            StmtKind::BlockStmt { block } => self.rename_block(block, prefix),
            StmtKind::Defer { call } => self.rename_expr(call, prefix),
            StmtKind::Switch {
                subject,
                cases,
                default,
            } => {
                self.rename_expr(subject, prefix);
                for SwitchCase { values, body } in cases {
                    for v in values {
                        self.rename_expr(v, prefix);
                    }
                    self.rename_block(body, prefix);
                }
                if let Some(d) = default {
                    self.rename_block(d, prefix);
                }
            }
            StmtKind::Break | StmtKind::Continue => {}
            StmtKind::Free { target, .. } => self.rename_expr(target, prefix),
        }
    }

    fn rename_block(&mut self, block: &mut Block, prefix: &str) {
        for s in &mut block.stmts {
            self.rename_stmt(s, prefix);
        }
    }

    fn rename_expr(&mut self, e: &mut Expr, prefix: &str) {
        match &mut e.kind {
            ExprKind::Ident(name) => *name = format!("{prefix}{name}"),
            ExprKind::Unary { operand, .. } => self.rename_expr(operand, prefix),
            ExprKind::Binary { lhs, rhs, .. } => {
                self.rename_expr(lhs, prefix);
                self.rename_expr(rhs, prefix);
            }
            ExprKind::Field { base, .. } => self.rename_expr(base, prefix),
            ExprKind::Index { base, index } => {
                self.rename_expr(base, prefix);
                self.rename_expr(index, prefix);
            }
            ExprKind::SliceExpr { base, lo, hi } => {
                self.rename_expr(base, prefix);
                for bound in [lo, hi].into_iter().flatten() {
                    self.rename_expr(bound, prefix);
                }
            }
            ExprKind::Call { args, .. } | ExprKind::Builtin { args, .. } => {
                for a in args {
                    self.rename_expr(a, prefix);
                }
            }
            ExprKind::StructLit { fields, .. } => {
                for f in fields {
                    self.rename_expr(f, prefix);
                }
            }
            _ => {}
        }
    }

    // -- id renumbering (fresh ids for every cloned node) --

    fn renumber_stmt(&mut self, stmt: &mut Stmt) {
        stmt.id = self.stmt_id();
        match &mut stmt.kind {
            StmtKind::VarDecl { init, .. } | StmtKind::ShortDecl { init, .. } => {
                for e in init {
                    self.renumber_expr(e);
                }
            }
            StmtKind::Assign { lhs, rhs, .. } => {
                for e in lhs.iter_mut().chain(rhs) {
                    self.renumber_expr(e);
                }
            }
            StmtKind::If { cond, then, els } => {
                self.renumber_expr(cond);
                self.renumber_block(then);
                if let Some(els) = els {
                    self.renumber_stmt(els);
                }
            }
            StmtKind::For {
                init,
                cond,
                post,
                body,
            } => {
                if let Some(init) = init {
                    self.renumber_stmt(init);
                }
                if let Some(cond) = cond {
                    self.renumber_expr(cond);
                }
                if let Some(post) = post {
                    self.renumber_stmt(post);
                }
                self.renumber_block(body);
            }
            StmtKind::Return { exprs } => {
                for e in exprs {
                    self.renumber_expr(e);
                }
            }
            StmtKind::Expr { expr } => self.renumber_expr(expr),
            StmtKind::BlockStmt { block } => self.renumber_block(block),
            StmtKind::Defer { call } => self.renumber_expr(call),
            StmtKind::Switch {
                subject,
                cases,
                default,
            } => {
                self.renumber_expr(subject);
                for SwitchCase { values, body } in cases {
                    for v in values {
                        self.renumber_expr(v);
                    }
                    self.renumber_block(body);
                }
                if let Some(d) = default {
                    self.renumber_block(d);
                }
            }
            StmtKind::Break | StmtKind::Continue => {}
            StmtKind::Free { target, .. } => self.renumber_expr(target),
        }
    }

    fn renumber_block(&mut self, block: &mut Block) {
        block.id = self.block_id();
        for s in &mut block.stmts {
            self.renumber_stmt(s);
        }
    }

    fn renumber_expr(&mut self, e: &mut Expr) {
        e.id = self.expr_id();
        match &mut e.kind {
            ExprKind::Unary { operand, .. } => self.renumber_expr(operand),
            ExprKind::Binary { lhs, rhs, .. } => {
                self.renumber_expr(lhs);
                self.renumber_expr(rhs);
            }
            ExprKind::Field { base, .. } => self.renumber_expr(base),
            ExprKind::Index { base, index } => {
                self.renumber_expr(base);
                self.renumber_expr(index);
            }
            ExprKind::SliceExpr { base, lo, hi } => {
                self.renumber_expr(base);
                for bound in [lo, hi].into_iter().flatten() {
                    self.renumber_expr(bound);
                }
            }
            ExprKind::Call { args, .. } | ExprKind::Builtin { args, .. } => {
                for a in args {
                    self.renumber_expr(a);
                }
            }
            ExprKind::StructLit { fields, .. } => {
                for f in fields {
                    self.renumber_expr(f);
                }
            }
            _ => {}
        }
    }
}

enum Target {
    Decl(String),
    Assign(String),
}

fn contains_call(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::Call { .. } => true,
        ExprKind::Unary { operand, .. } => contains_call(operand),
        ExprKind::Binary { lhs, rhs, .. } => contains_call(lhs) || contains_call(rhs),
        ExprKind::Field { base, .. } => contains_call(base),
        ExprKind::Index { base, index } => contains_call(base) || contains_call(index),
        ExprKind::SliceExpr { base, lo, hi } => {
            contains_call(base) || [lo, hi].into_iter().flatten().any(|b| contains_call(b))
        }
        ExprKind::Builtin { args, .. } => args.iter().any(contains_call),
        ExprKind::StructLit { fields, .. } => fields.iter().any(contains_call),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minigo_syntax::{parse, print_program};

    fn inline_and_print(src: &str) -> (String, InlineStats) {
        let p = parse(src).expect("parses");
        let (out, stats) = inline_program(&p, &InlineOptions::default());
        let text = print_program(&out);
        // The transformed program must still be valid MiniGo.
        minigo_syntax::frontend(&text)
            .unwrap_or_else(|e| panic!("inlined program invalid: {}\n{text}", e.render(&text)));
        (text, stats)
    }

    #[test]
    fn inlines_simple_factory() {
        let src = "func mk(n int) []int { s := make([]int, 16)\n s[0] = n\n return s }\nfunc main() { t := mk(3)\n print(t[0]) }\n";
        let (text, stats) = inline_and_print(src);
        assert_eq!(stats.inlined_calls, 1);
        assert!(text.contains("__in0_s := make"), "{text}");
        assert!(text.contains("var t []int"), "{text}");
        assert!(text.contains("t = __in0_s"), "{text}");
    }

    #[test]
    fn skips_recursive_and_large_functions() {
        let src = "func rec(n int) int { if n < 1 { return 0 }\n return rec(n-1) }\nfunc main() { x := rec(3)\n print(x) }\n";
        let (_, stats) = inline_and_print(src);
        assert_eq!(stats.inlined_calls, 0);
    }

    #[test]
    fn skips_mid_body_returns() {
        let src = "func f(n int) int { if n > 0 { return 1 }\n return 2 }\nfunc main() { x := f(3)\n print(x) }\n";
        let (_, stats) = inline_and_print(src);
        assert_eq!(stats.inlined_calls, 0, "two returns: not eligible");
    }

    #[test]
    fn inlined_program_reanalyzes_with_stack_promotion() {
        // The point of §4.6.4: after inlining, the constant-size make that
        // escaped `mk` by return becomes stack-allocatable in plain Go.
        let src = "func mk(n int) []int { s := make([]int, 8)\n s[0] = n * 2\n return s }\nfunc main() { t := mk(21)\n x := t[0] + 1\n print(x) }\n";
        let p = parse(src).expect("parses");
        let (inlined, stats) = inline_program(&p, &InlineOptions::default());
        assert!(stats.inlined_calls >= 1);
        let text = print_program(&inlined);
        let (program, res, types) = minigo_syntax::frontend(&text)
            .unwrap_or_else(|e| panic!("{}\n{text}", e.render(&text)));
        let analysis = crate::analyze::analyze(
            &program,
            &res,
            &types,
            &crate::analyze::AnalyzeOptions::go(),
        );
        let stack_sites = analysis
            .alloc_decisions
            .values()
            .filter(|&&p| p == crate::analyze::AllocPlace::Stack)
            .count();
        assert!(
            stack_sites >= 1,
            "inlining lets Go stack-allocate the callee's make: {:?}",
            analysis.alloc_decisions
        );

        // Without inlining, the same make must stay on the heap.
        let (program, res, types) = minigo_syntax::frontend(src).unwrap();
        let analysis = crate::analyze::analyze(
            &program,
            &res,
            &types,
            &crate::analyze::AnalyzeOptions::go(),
        );
        let stack_sites = analysis
            .alloc_decisions
            .values()
            .filter(|&&p| p == crate::analyze::AllocPlace::Stack)
            .count();
        assert_eq!(
            stack_sites, 0,
            "escaping-by-return make is heap without inlining"
        );
    }

    #[test]
    fn renaming_preserves_shadowing() {
        let src = "func f(x int) int { y := x\n { y := y * 2\n x = y }\n return x + y }\nfunc main() { r := f(5)\n print(r) }\n";
        let (text, stats) = inline_and_print(src);
        assert_eq!(stats.inlined_calls, 1);
        assert!(text.contains("__in0_y"), "{text}");
    }

    #[test]
    fn multi_result_inline() {
        let src = "func two(n int) (int, int) { return n, n * 2 }\nfunc main() { a, b := two(4)\n print(a, b) }\n";
        let (text, stats) = inline_and_print(src);
        assert_eq!(stats.inlined_calls, 1);
        assert!(text.contains("var a int"), "{text}");
        assert!(text.contains("a, b = "), "{text}");
    }

    #[test]
    fn call_argument_sites_are_skipped() {
        let src = "func g(n int) int { return n + 1 }\nfunc main() { x := g(g(1))\n print(x) }\n";
        let (_, stats) = inline_and_print(src);
        // The outer statement has a call argument containing a call.
        assert_eq!(stats.inlined_calls, 0);
        assert!(stats.skipped_calls >= 1);
    }
}
