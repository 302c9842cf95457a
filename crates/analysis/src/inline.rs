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
use minigo_syntax::parser::{block_levels, deepest, MAX_NESTING};
use minigo_syntax::visit::{self, Node, VisitorMut, Walk};
use minigo_syntax::{
    Block, BlockId, Expr, ExprId, ExprKind, Func, FuncId, IdMap, Program, Stmt, StmtId, StmtKind,
};

use crate::callgraph::CallGraph;

/// Maximum number of statements in an inlinable callee.
const MAX_STMTS: usize = 12;

/// Statistics from one inlining pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InlineStats {
    /// Call sites replaced.
    pub inlined_calls: usize,
    /// Call sites left alone (ineligible callee or call shape).
    pub skipped_calls: usize,
}

/// Inlines eligible statement-position calls once (no transitive
/// inlining). Returns the transformed program and statistics. A call
/// whose splice would nest deeper than the parser's budget
/// ([`MAX_NESTING`]) is left alone, so no later pass meets a tree the
/// parser would have refused.
///
/// ```
/// use minigo_escape::inline_program;
///
/// let src = "func mk() []int { s := make([]int, 4)\n return s }\nfunc main() { t := mk()\n print(len(t)) }\n";
/// let program = minigo_syntax::parse(src).unwrap();
/// let (inlined, stats) = inline_program(&program);
/// assert_eq!(stats.inlined_calls, 1);
/// let text = minigo_syntax::print_program(&inlined);
/// assert!(text.contains("__in0_s := make"));
/// ```
pub fn inline_program(program: &Program) -> (Program, InlineStats) {
    let cg = CallGraph::build(program);
    let eligible: IdMap<FuncId, &Func> = program
        .funcs
        .iter()
        .filter(|f| is_eligible(f, &cg))
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
        levels: IdMap::default(),
        stats: InlineStats::default(),
    };
    for func in &mut out.funcs {
        ctx.levels = block_levels(&func.body);
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
fn is_eligible(f: &Func, cg: &CallGraph) -> bool {
    if f.name == "main" || cg.is_recursive(f.id) {
        return false;
    }
    // A `for` clause is part of its loop, not a statement of its own.
    let (mut stmts, mut clauses, mut returns) = (0, 0, 0);
    visit::stmts(&f.body, |s| {
        stmts += 1;
        match &s.kind {
            StmtKind::For { init, post, .. } => {
                clauses += usize::from(init.is_some()) + usize::from(post.is_some())
            }
            StmtKind::Return { .. } => returns += 1,
            _ => {}
        }
        Walk::Descend
    });
    if stmts - clauses > MAX_STMTS {
        return false;
    }
    match returns {
        0 => f.results.is_empty(),
        1 => matches!(
            f.body.stmts.last().map(|s| &s.kind),
            Some(StmtKind::Return { .. })
        ),
        _ => false,
    }
}

struct Inliner<'p> {
    eligible: &'p IdMap<FuncId, &'p Func>,
    by_name: FxHashMap<String, FuncId>,
    next_expr: u32,
    next_stmt: u32,
    next_block: u32,
    next_site: u32,
    /// The nesting level of each block of the function being rewritten.
    levels: IdMap<BlockId, u32>,
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
        let level = self.levels[block.id];
        let old = std::mem::take(&mut block.stmts);
        let mut stmts = Vec::with_capacity(old.len());
        for mut stmt in old {
            visit::blocks_mut(&mut stmt, |inner| {
                self.rewrite_block(inner);
                Walk::Skip
            });
            match self.try_inline(&stmt, level) {
                Some(replacement) => {
                    self.stats.inlined_calls += 1;
                    stmts.extend(replacement);
                }
                None => stmts.push(stmt),
            }
        }
        block.stmts = stmts;
    }

    /// Inlines `x, y := f(args)`, `x, y = f(args)` (identifier targets
    /// only), and `f(args)` statements in a block at nesting `level`.
    /// Returns the replacement statement sequence: declarations for `:=`
    /// targets (typed from the callee's results) followed by the inline
    /// block.
    fn try_inline(&mut self, stmt: &Stmt, level: u32) -> Option<Vec<Stmt>> {
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
        if args
            .iter()
            .any(|a| visit::any_expr(a, |e| matches!(e.kind, ExprKind::Call { .. })))
        {
            self.stats.skipped_calls += 1;
            return None;
        }

        let ids = (self.next_expr, self.next_stmt, self.next_block);
        let site = self.next_site;
        self.next_site += 1;
        let prefix = format!("__in{site}_");

        let mut stmts = Vec::new();
        // Bind parameters: __inK_param := arg.
        for (param, arg) in func.params.iter().zip(args) {
            let mut arg = arg.clone();
            self.refresh(&mut arg, None);
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
                        self.refresh(e, Some(&prefix));
                    }
                    // A bare return uses the named result variables.
                    if exprs.is_empty() && !func.results.is_empty() {
                        for r in &func.results {
                            let mut e = Expr {
                                id: ExprId(0),
                                kind: ExprKind::Ident(format!("{prefix}{}", r.name)),
                                span: stmt.span,
                            };
                            self.refresh(&mut e, None);
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
            self.refresh(&mut s, Some(&prefix));
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
                    self.refresh(&mut e, None);
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
        if out.iter().any(|s| deepest(s, level) > MAX_NESTING) {
            // Too deep to splice: hand back the ids the copy took.
            (self.next_expr, self.next_stmt, self.next_block) = ids;
            self.next_site = site;
            self.stats.skipped_calls += 1;
            return None;
        }
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
                self.refresh(&mut e, None);
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

    /// Gives a copied node fresh ids — in pre-order, the order the
    /// parser numbers in — and, with a prefix, renames every variable it
    /// declares or mentions.
    fn refresh(&mut self, node: &mut impl Node, prefix: Option<&str>) {
        let _ = node.walk_mut(&mut Fresh { ids: self, prefix });
    }
}

struct Fresh<'i, 'p> {
    ids: &'i mut Inliner<'p>,
    prefix: Option<&'i str>,
}

impl VisitorMut for Fresh<'_, '_> {
    fn block(&mut self, b: &mut Block) -> Walk {
        b.id = self.ids.block_id();
        Walk::Descend
    }

    fn stmt(&mut self, s: &mut Stmt) -> Walk {
        s.id = self.ids.stmt_id();
        if let (StmtKind::VarDecl { names, .. } | StmtKind::ShortDecl { names, .. }, Some(p)) =
            (&mut s.kind, self.prefix)
        {
            for n in names {
                *n = format!("{p}{n}");
            }
        }
        Walk::Descend
    }

    fn expr(&mut self, e: &mut Expr) -> Walk {
        e.id = self.ids.expr_id();
        if let (ExprKind::Ident(name), Some(p)) = (&mut e.kind, self.prefix) {
            *name = format!("{p}{name}");
        }
        Walk::Descend
    }
}

enum Target {
    Decl(String),
    Assign(String),
}

#[cfg(test)]
mod tests {
    use super::*;
    use minigo_syntax::{parse, print_program};

    fn inline_and_print(src: &str) -> (String, InlineStats) {
        let p = parse(src).expect("parses");
        let (out, stats) = inline_program(&p);
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
        let (inlined, stats) = inline_program(&p);
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
