//! The one traversal of the AST.
//!
//! Every pass that looks for something in a function body — the call
//! graph, the auditor's site list, liveness placement, the inliner's
//! renaming and renumbering, the tree-walk's address-taken sets — walks
//! it through this module instead of writing its own recursion over
//! [`Block`]/[`Stmt`]/[`Expr`]. A pass that drops a case in a hand-copied
//! recursion silently skips the subtrees behind it; here the `match`es
//! are exhaustive with no `_` arm, so a new AST variant does not compile
//! until the traversal handles it.
//!
//! The order is source pre-order, the order every pass relied on: a node
//! before its children; an assignment's targets before its values; `if`
//! condition, then-block, else; `for` init, condition, post, body;
//! `switch` subject, each case's values and body, then the default; a
//! reslice's base, low bound, high bound. The [`Visitor`] callbacks
//! answer [`Walk::Descend`], [`Walk::Skip`] (leave this node's children
//! out) or [`Walk::Stop`] (end the whole walk). Entry points are
//! [`Node::walk`] / [`Node::walk_mut`] and the closure helpers below.
//!
//! The traversal recurses once per AST level; the parser bounds that
//! depth ([`crate::parser::MAX_NESTING`]).

use std::ops::ControlFlow;

use crate::ast::{Block, Expr, ExprKind, Stmt, StmtKind};

/// What the traversal does after a callback has seen a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Walk {
    /// Visit the node's children next.
    Descend,
    /// Leave the node's children unvisited; continue after the node.
    Skip,
    /// End the traversal: nothing after this node is visited.
    Stop,
}

impl Walk {
    /// `Continue(true)` to descend, `Continue(false)` to skip, `Break`
    /// to stop.
    fn flow(self) -> ControlFlow<(), bool> {
        match self {
            Walk::Descend => ControlFlow::Continue(true),
            Walk::Skip => ControlFlow::Continue(false),
            Walk::Stop => ControlFlow::Break(()),
        }
    }
}

/// Read-only callbacks, each called on a node before its children.
pub trait Visitor<'a> {
    /// A block (function body, branch, loop body, case arm, `{ }`).
    fn block(&mut self, _block: &'a Block) -> Walk {
        Walk::Descend
    }
    /// A statement, including an `else` statement and `for` init/post.
    fn stmt(&mut self, _stmt: &'a Stmt) -> Walk {
        Walk::Descend
    }
    /// An expression.
    fn expr(&mut self, _expr: &'a Expr) -> Walk {
        Walk::Descend
    }
}

/// Mutating callbacks, each called on a node before its children — so a
/// node's own id is seen before any id below it.
pub trait VisitorMut {
    /// A block; its statement list may be edited before it is walked.
    fn block(&mut self, _block: &mut Block) -> Walk {
        Walk::Descend
    }
    /// A statement.
    fn stmt(&mut self, _stmt: &mut Stmt) -> Walk {
        Walk::Descend
    }
    /// An expression.
    fn expr(&mut self, _expr: &mut Expr) -> Walk {
        Walk::Descend
    }
}

/// A node the traversal can start from.
pub trait Node {
    /// Walks the node and everything below it, read-only. `Break` when
    /// a callback stopped the walk.
    fn walk<'a, V: Visitor<'a>>(&'a self, v: &mut V) -> ControlFlow<()>;
    /// Walks the node and everything below it, mutably.
    fn walk_mut<V: VisitorMut>(&mut self, v: &mut V) -> ControlFlow<()>;
}

impl Node for Block {
    fn walk<'a, V: Visitor<'a>>(&'a self, v: &mut V) -> ControlFlow<()> {
        if v.block(self).flow()? {
            for s in &self.stmts {
                s.walk(v)?;
            }
        }
        ControlFlow::Continue(())
    }

    fn walk_mut<V: VisitorMut>(&mut self, v: &mut V) -> ControlFlow<()> {
        if v.block(self).flow()? {
            for s in &mut self.stmts {
                s.walk_mut(v)?;
            }
        }
        ControlFlow::Continue(())
    }
}

impl Node for Stmt {
    fn walk<'a, V: Visitor<'a>>(&'a self, v: &mut V) -> ControlFlow<()> {
        if !v.stmt(self).flow()? {
            return ControlFlow::Continue(());
        }
        match &self.kind {
            StmtKind::VarDecl { init, .. } | StmtKind::ShortDecl { init, .. } => {
                init.iter().try_for_each(|e| e.walk(v))
            }
            StmtKind::Assign { lhs, rhs, .. } => lhs.iter().chain(rhs).try_for_each(|e| e.walk(v)),
            StmtKind::If { cond, then, els } => {
                cond.walk(v)?;
                then.walk(v)?;
                els.iter().try_for_each(|e| e.walk(v))
            }
            StmtKind::For {
                init,
                cond,
                post,
                body,
            } => {
                init.iter().try_for_each(|s| s.walk(v))?;
                cond.iter().try_for_each(|e| e.walk(v))?;
                post.iter().try_for_each(|s| s.walk(v))?;
                body.walk(v)
            }
            StmtKind::Return { exprs } => exprs.iter().try_for_each(|e| e.walk(v)),
            StmtKind::Expr { expr: e }
            | StmtKind::Defer { call: e }
            | StmtKind::Free { target: e, .. } => e.walk(v),
            StmtKind::BlockStmt { block } => block.walk(v),
            StmtKind::Switch {
                subject,
                cases,
                default,
            } => {
                subject.walk(v)?;
                for case in cases {
                    case.values.iter().try_for_each(|e| e.walk(v))?;
                    case.body.walk(v)?;
                }
                default.iter().try_for_each(|d| d.walk(v))
            }
            StmtKind::Break | StmtKind::Continue => ControlFlow::Continue(()),
        }
    }

    fn walk_mut<V: VisitorMut>(&mut self, v: &mut V) -> ControlFlow<()> {
        if !v.stmt(self).flow()? {
            return ControlFlow::Continue(());
        }
        match &mut self.kind {
            StmtKind::VarDecl { init, .. } | StmtKind::ShortDecl { init, .. } => {
                init.iter_mut().try_for_each(|e| e.walk_mut(v))
            }
            StmtKind::Assign { lhs, rhs, .. } => {
                lhs.iter_mut().chain(rhs).try_for_each(|e| e.walk_mut(v))
            }
            StmtKind::If { cond, then, els } => {
                cond.walk_mut(v)?;
                then.walk_mut(v)?;
                els.iter_mut().try_for_each(|e| e.walk_mut(v))
            }
            StmtKind::For {
                init,
                cond,
                post,
                body,
            } => {
                init.iter_mut().try_for_each(|s| s.walk_mut(v))?;
                cond.iter_mut().try_for_each(|e| e.walk_mut(v))?;
                post.iter_mut().try_for_each(|s| s.walk_mut(v))?;
                body.walk_mut(v)
            }
            StmtKind::Return { exprs } => exprs.iter_mut().try_for_each(|e| e.walk_mut(v)),
            StmtKind::Expr { expr: e }
            | StmtKind::Defer { call: e }
            | StmtKind::Free { target: e, .. } => e.walk_mut(v),
            StmtKind::BlockStmt { block } => block.walk_mut(v),
            StmtKind::Switch {
                subject,
                cases,
                default,
            } => {
                subject.walk_mut(v)?;
                for case in cases {
                    case.values.iter_mut().try_for_each(|e| e.walk_mut(v))?;
                    case.body.walk_mut(v)?;
                }
                default.iter_mut().try_for_each(|d| d.walk_mut(v))
            }
            StmtKind::Break | StmtKind::Continue => ControlFlow::Continue(()),
        }
    }
}

impl Node for Expr {
    fn walk<'a, V: Visitor<'a>>(&'a self, v: &mut V) -> ControlFlow<()> {
        if !v.expr(self).flow()? {
            return ControlFlow::Continue(());
        }
        match &self.kind {
            ExprKind::Unary { operand: e, .. } | ExprKind::Field { base: e, .. } => e.walk(v),
            ExprKind::Binary { lhs: a, rhs: b, .. } | ExprKind::Index { base: a, index: b } => {
                a.walk(v)?;
                b.walk(v)
            }
            ExprKind::SliceExpr { base, lo, hi } => {
                base.walk(v)?;
                lo.iter().chain(hi).try_for_each(|e| e.walk(v))
            }
            ExprKind::Call { args, .. }
            | ExprKind::Builtin { args, .. }
            | ExprKind::StructLit { fields: args, .. } => args.iter().try_for_each(|e| e.walk(v)),
            ExprKind::IntLit(_)
            | ExprKind::BoolLit(_)
            | ExprKind::StrLit(_)
            | ExprKind::Nil
            | ExprKind::Ident(_) => ControlFlow::Continue(()),
        }
    }

    fn walk_mut<V: VisitorMut>(&mut self, v: &mut V) -> ControlFlow<()> {
        if !v.expr(self).flow()? {
            return ControlFlow::Continue(());
        }
        match &mut self.kind {
            ExprKind::Unary { operand: e, .. } | ExprKind::Field { base: e, .. } => e.walk_mut(v),
            ExprKind::Binary { lhs: a, rhs: b, .. } | ExprKind::Index { base: a, index: b } => {
                a.walk_mut(v)?;
                b.walk_mut(v)
            }
            ExprKind::SliceExpr { base, lo, hi } => {
                base.walk_mut(v)?;
                lo.iter_mut().chain(hi).try_for_each(|e| e.walk_mut(v))
            }
            ExprKind::Call { args, .. }
            | ExprKind::Builtin { args, .. }
            | ExprKind::StructLit { fields: args, .. } => {
                args.iter_mut().try_for_each(|e| e.walk_mut(v))
            }
            ExprKind::IntLit(_)
            | ExprKind::BoolLit(_)
            | ExprKind::StrLit(_)
            | ExprKind::Nil
            | ExprKind::Ident(_) => ControlFlow::Continue(()),
        }
    }
}

/// A [`Visitor`] that sees expressions only.
struct OnExpr<F>(F);
/// A [`Visitor`] that sees statements only. Expressions hold no
/// statements, so it never descends into one.
struct OnStmt<F>(F);
/// A [`Visitor`] that sees blocks only; like [`OnStmt`], it skips
/// expressions.
struct OnBlock<F>(F);

impl<'a, F: FnMut(&'a Expr) -> Walk> Visitor<'a> for OnExpr<F> {
    fn expr(&mut self, e: &'a Expr) -> Walk {
        (self.0)(e)
    }
}

impl<'a, F: FnMut(&'a Stmt) -> Walk> Visitor<'a> for OnStmt<F> {
    fn stmt(&mut self, s: &'a Stmt) -> Walk {
        (self.0)(s)
    }
    fn expr(&mut self, _: &'a Expr) -> Walk {
        Walk::Skip
    }
}

impl<'a, F: FnMut(&'a Block) -> Walk> Visitor<'a> for OnBlock<F> {
    fn block(&mut self, b: &'a Block) -> Walk {
        (self.0)(b)
    }
    fn expr(&mut self, _: &'a Expr) -> Walk {
        Walk::Skip
    }
}

impl<F: FnMut(&mut Block) -> Walk> VisitorMut for OnBlock<F> {
    fn block(&mut self, b: &mut Block) -> Walk {
        (self.0)(b)
    }
    fn expr(&mut self, _: &mut Expr) -> Walk {
        Walk::Skip
    }
}

/// Calls `f` on every expression under `node` (itself included), in
/// pre-order.
pub fn exprs<'a, N: Node>(node: &'a N, f: impl FnMut(&'a Expr) -> Walk) {
    let _ = node.walk(&mut OnExpr(f));
}

/// Calls `f` on every statement under `node` (itself included), in
/// pre-order — `else` statements and `for` init/post included.
pub fn stmts<'a, N: Node>(node: &'a N, f: impl FnMut(&'a Stmt) -> Walk) {
    let _ = node.walk(&mut OnStmt(f));
}

/// Calls `f` on every block under `node` (itself included), in pre-order.
pub fn blocks<'a, N: Node>(node: &'a N, f: impl FnMut(&'a Block) -> Walk) {
    let _ = node.walk(&mut OnBlock(f));
}

/// Whether any expression under `node` satisfies `pred`; stops at the
/// first that does.
pub fn any_expr<'a, N: Node>(node: &'a N, mut pred: impl FnMut(&'a Expr) -> bool) -> bool {
    node.walk(&mut OnExpr(|e| {
        if pred(e) {
            Walk::Stop
        } else {
            Walk::Descend
        }
    }))
    .is_break()
}

/// Calls `f` on every block under `node`, mutably, in pre-order.
pub fn blocks_mut<N: Node>(node: &mut N, f: impl FnMut(&mut Block) -> Walk) {
    let _ = node.walk_mut(&mut OnBlock(f));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    const SRC: &str = "func f(n int) int { s := make([]int, n)\n if n > 1 { s[0] = 1 } else if n > 0 { s[1] = 2 } else { return 0 }\n for i := 0; i < n; i += 1 { s[i] = i }\n switch n { case 1, 2: print(s[0:n]) default: print(n) }\n return s[0] }\n";

    #[test]
    fn stop_ends_the_walk() {
        let p = parse(SRC).unwrap();
        let body = &p.funcs[0].body;
        let mut all = Vec::new();
        exprs(body, |e| {
            all.push(e.id);
            Walk::Descend
        });
        let cut = all.len() / 2;
        let mut seen = Vec::new();
        exprs(body, |e| {
            seen.push(e.id);
            if seen.len() == cut {
                Walk::Stop
            } else {
                Walk::Descend
            }
        });
        assert_eq!(seen, all[..cut]);
        assert!(any_expr(body, |e| e.id == all[cut]));
        assert!(!any_expr(body, |_| false));
    }

    #[test]
    fn skip_leaves_children_out() {
        let p = parse(SRC).unwrap();
        let mut calls = 0;
        let mut idents = 0;
        exprs(&p.funcs[0].body, |e| match e.kind {
            ExprKind::Builtin { .. } => {
                calls += 1;
                Walk::Skip
            }
            ExprKind::Ident(_) => {
                idents += 1;
                Walk::Descend
            }
            _ => Walk::Descend,
        });
        assert_eq!(calls, 3);
        // The `n` in `make` and the `print`s' arguments are skipped.
        assert_eq!(idents, 12);
    }

    #[test]
    fn statements_include_else_and_for_clauses() {
        let p = parse(SRC).unwrap();
        let mut n = 0;
        stmts(&p.funcs[0].body, |_| {
            n += 1;
            Walk::Descend
        });
        // 5 top level + `s[0] = 1` + else-if + `s[1] = 2` + else block +
        // `return 0` + init + post + `s[i] = i` + two case bodies.
        assert_eq!(n, 15);
        let mut blocks_seen = 0;
        blocks(&p.funcs[0].body, |_| {
            blocks_seen += 1;
            Walk::Descend
        });
        assert_eq!(blocks_seen, 7);
    }
}
