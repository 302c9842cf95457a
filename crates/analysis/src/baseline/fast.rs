//! Fast Escape Analysis (Gay & Steensgaard, 2000) — the O(N) baseline of
//! §2.1.2 and table 3.
//!
//! The analysis "only propagates escape properties among references and
//! does not distinguish among new-ed objects": variables copied into each
//! other are merged into equivalence classes (union-find); address-of adds
//! a pointee to a class; *any* dereference — loads, indexed loads, field
//! loads through pointers, indirect stores — is untracked, making the
//! affected points-to set incomplete and (for stores and escapes) marking
//! the class as escaping. An object is stack-allocated iff the reference it
//! is immediately bound to at its allocation does not escape.

use std::collections::BTreeSet;

use minigo_syntax::fxhash::FxHashMap;
use minigo_syntax::{
    Block, Expr, ExprId, ExprKind, Func, Program, Resolution, Stmt, StmtKind, TypeInfo, UnOp, VarId,
};

/// What a class may point to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Pointee {
    /// The storage of a variable (`&x`).
    Var(VarId),
    /// The object created by an allocation expression.
    Alloc(ExprId),
}

/// Result of the fast analysis on one function.
#[derive(Debug, Clone)]
pub struct FastResult {
    parent: FxHashMap<VarId, VarId>,
    pointees: FxHashMap<VarId, BTreeSet<Pointee>>,
    escaped: FxHashMap<VarId, bool>,
    incomplete: FxHashMap<VarId, bool>,
}

impl FastResult {
    fn find(&self, v: VarId) -> VarId {
        let mut cur = v;
        while let Some(&p) = self.parent.get(&cur) {
            if p == cur {
                break;
            }
            cur = p;
        }
        cur
    }

    /// The points-to set of `v`'s class. Incomplete sets (touched by any
    /// dereference) are empty, as in table 3's Fast column.
    pub fn points_to(&self, v: VarId) -> BTreeSet<Pointee> {
        let root = self.find(v);
        if self.incomplete.get(&root).copied().unwrap_or(false) {
            return BTreeSet::new();
        }
        self.pointees.get(&root).cloned().unwrap_or_default()
    }

    /// Whether the analysis lost track of `v`'s points-to set.
    pub fn is_incomplete(&self, v: VarId) -> bool {
        let root = self.find(v);
        self.incomplete.get(&root).copied().unwrap_or(false)
    }

    /// Whether `v`'s class escapes (heap allocation required for objects
    /// bound to it).
    pub fn escapes(&self, v: VarId) -> bool {
        let root = self.find(v);
        self.escaped.get(&root).copied().unwrap_or(false)
    }
}

/// Runs the fast analysis on `func`.
pub fn analyze_func(
    _program: &Program,
    res: &Resolution,
    _types: &TypeInfo,
    func: &Func,
) -> FastResult {
    let mut a = Fast {
        res,
        out: FastResult {
            parent: FxHashMap::default(),
            pointees: FxHashMap::default(),
            escaped: FxHashMap::default(),
            incomplete: FxHashMap::default(),
        },
    };
    for &v in res.vars_of(func.id) {
        a.out.parent.insert(v, v);
        // Unknown callers: parameter points-to sets are incomplete.
        if res.var(v).kind == minigo_syntax::VarKind::Param {
            a.out.incomplete.insert(v, true);
        }
    }
    // Results escape.
    for &r in res.results_of(func.id) {
        a.out.escaped.insert(r, true);
    }
    a.block(&func.body);
    // Normalize: push flags up to the current roots.
    let vars: Vec<VarId> = a.out.parent.keys().copied().collect();
    for v in vars {
        let root = a.out.find(v);
        if a.out.escaped.get(&v).copied().unwrap_or(false) {
            a.out.escaped.insert(root, true);
        }
        if a.out.incomplete.get(&v).copied().unwrap_or(false) {
            a.out.incomplete.insert(root, true);
        }
    }
    a.out
}

struct Fast<'a> {
    res: &'a Resolution,
    out: FastResult,
}

impl<'a> Fast<'a> {
    fn union(&mut self, a: VarId, b: VarId) {
        let ra = self.out.find(a);
        let rb = self.out.find(b);
        if ra == rb {
            return;
        }
        self.out.parent.insert(rb, ra);
        let pb = self.out.pointees.remove(&rb).unwrap_or_default();
        self.out.pointees.entry(ra).or_default().extend(pb);
        if self.out.escaped.get(&rb).copied().unwrap_or(false) {
            self.out.escaped.insert(ra, true);
        }
        if self.out.incomplete.get(&rb).copied().unwrap_or(false) {
            self.out.incomplete.insert(ra, true);
        }
    }

    fn mark_escaped(&mut self, v: VarId) {
        let r = self.out.find(v);
        self.out.escaped.insert(r, true);
    }

    fn mark_incomplete(&mut self, v: VarId) {
        let r = self.out.find(v);
        self.out.incomplete.insert(r, true);
    }

    fn block(&mut self, block: &Block) {
        for stmt in &block.stmts {
            self.stmt(stmt);
        }
    }

    fn stmt(&mut self, stmt: &Stmt) {
        match &stmt.kind {
            StmtKind::VarDecl { names, init, .. } | StmtKind::ShortDecl { names, init } => {
                for (i, _) in names.iter().enumerate() {
                    if let Some(v) = self.res.decl_of(stmt.id, i) {
                        match init.get(i.min(init.len().saturating_sub(1))) {
                            Some(e) if init.len() == names.len() => self.bind(v, e),
                            Some(_) | None => self.mark_incomplete(v), // multi-value call
                        }
                    }
                }
            }
            StmtKind::Assign { lhs, op, rhs } => {
                if op.is_some() {
                    return;
                }
                for (l, r) in lhs.iter().zip(rhs) {
                    match &l.kind {
                        ExprKind::Ident(_) => {
                            if let Some(v) = self.res.def_of(l.id) {
                                self.bind(v, r);
                            }
                        }
                        _ => {
                            // Indirect store: untracked; the stored value
                            // escapes.
                            self.escape_expr(r);
                        }
                    }
                }
                if rhs.len() == 1 && lhs.len() > 1 {
                    for l in lhs {
                        if let Some(v) = self.res.def_of(l.id) {
                            self.mark_incomplete(v);
                        }
                    }
                }
            }
            StmtKind::If { then, els, .. } => {
                self.block(then);
                if let Some(els) = els {
                    self.stmt(els);
                }
            }
            StmtKind::For {
                init, post, body, ..
            } => {
                if let Some(init) = init {
                    self.stmt(init);
                }
                if let Some(post) = post {
                    self.stmt(post);
                }
                self.block(body);
            }
            StmtKind::Return { exprs } => {
                for e in exprs {
                    self.escape_expr(e);
                }
            }
            StmtKind::Expr { expr } => self.escape_args_of_calls(expr),
            StmtKind::BlockStmt { block } => self.block(block),
            StmtKind::Defer { call } => self.escape_args_of_calls(call),
            StmtKind::Switch {
                subject,
                cases,
                default,
            } => {
                self.escape_args_of_calls(subject);
                for case in cases {
                    self.block(&case.body);
                }
                if let Some(default) = default {
                    self.block(default);
                }
            }
            StmtKind::Break | StmtKind::Continue | StmtKind::Free { .. } => {}
        }
    }

    /// `v = e`.
    fn bind(&mut self, v: VarId, e: &Expr) {
        match &e.kind {
            ExprKind::Ident(_) => {
                if let Some(src) = self.res.def_of(e.id) {
                    self.union(v, src);
                }
            }
            ExprKind::Unary {
                op: UnOp::Addr,
                operand,
            } => match &operand.kind {
                ExprKind::Ident(_) => {
                    if let Some(x) = self.res.def_of(operand.id) {
                        let r = self.out.find(v);
                        self.out
                            .pointees
                            .entry(r)
                            .or_default()
                            .insert(Pointee::Var(x));
                    }
                }
                ExprKind::StructLit { .. } => {
                    let r = self.out.find(v);
                    self.out
                        .pointees
                        .entry(r)
                        .or_default()
                        .insert(Pointee::Alloc(operand.id));
                }
                _ => self.mark_incomplete(v),
            },
            ExprKind::Builtin {
                kind: minigo_syntax::Builtin::Make | minigo_syntax::Builtin::New,
                ..
            } => {
                let r = self.out.find(v);
                self.out
                    .pointees
                    .entry(r)
                    .or_default()
                    .insert(Pointee::Alloc(e.id));
            }
            // Any dereference-level flow is untracked.
            ExprKind::Unary {
                op: UnOp::Deref, ..
            }
            | ExprKind::SliceExpr { .. }
            | ExprKind::Index { .. }
            | ExprKind::Field { .. }
            | ExprKind::Call { .. }
            | ExprKind::Builtin { .. } => self.mark_incomplete(v),
            _ => {}
        }
    }

    /// The value of `e` escapes.
    fn escape_expr(&mut self, e: &Expr) {
        match &e.kind {
            ExprKind::Ident(_) => {
                if let Some(v) = self.res.def_of(e.id) {
                    self.mark_escaped(v);
                }
            }
            ExprKind::Unary { operand, .. } => self.escape_expr(operand),
            ExprKind::Binary { lhs, rhs, .. } => {
                self.escape_expr(lhs);
                self.escape_expr(rhs);
            }
            ExprKind::Field { base, .. } | ExprKind::Index { base, .. } => self.escape_expr(base),
            ExprKind::Call { args, .. } | ExprKind::Builtin { args, .. } => {
                for a in args {
                    self.escape_expr(a);
                }
            }
            ExprKind::StructLit { fields, .. } => {
                for f in fields {
                    self.escape_expr(f);
                }
            }
            _ => {}
        }
    }

    fn escape_args_of_calls(&mut self, e: &Expr) {
        if let ExprKind::Call { args, .. } = &e.kind {
            for a in args {
                self.escape_expr(a);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minigo_syntax::frontend;

    fn run(src: &str) -> (Program, Resolution, FastResult) {
        let (p, r, t) = frontend(src).expect("frontend");
        let func = p.funcs.last().expect("has function").clone();
        let fr = analyze_func(&p, &r, &t, &func);
        (p, r, fr)
    }

    fn var_named(res: &Resolution, name: &str) -> VarId {
        VarId(
            res.vars()
                .iter()
                .position(|v| v.name == name)
                .unwrap_or_else(|| panic!("no var {name}")) as u32,
        )
    }

    #[test]
    fn direct_address_tracked() {
        let (_, r, fr) = run("func f() { x := 1\n p := &x\n q := p\n q = q }\n");
        let x = var_named(&r, "x");
        let q = var_named(&r, "q");
        assert_eq!(fr.points_to(q), BTreeSet::from([Pointee::Var(x)]));
        assert!(!fr.escapes(q));
    }

    #[test]
    fn any_deref_loses_points_to() {
        // Table 3's Fast column: pd2 = *ppd gives the empty set.
        let (_, r, fr) = run(
            "func f() { c := 1\n d := 2\n pc := &c\n pd := &d\n ppd := &pd\n *ppd = pc\n pd2 := *ppd\n pd2 = pd2 }\n",
        );
        let pd2 = var_named(&r, "pd2");
        assert!(fr.is_incomplete(pd2));
        assert!(fr.points_to(pd2).is_empty());
        // pc escaped through the untracked indirect store.
        let pc = var_named(&r, "pc");
        assert!(fr.escapes(pc));
    }

    #[test]
    fn returned_references_escape() {
        let (_, r, fr) = run("func f(n int) []int { s := make([]int, n)\n return s }\n");
        let s = var_named(&r, "s");
        assert!(fr.escapes(s));
    }

    #[test]
    fn copies_merge_escape_state() {
        let (_, r, fr) = run(
            "func g(s []int) {}\nfunc f(n int) { a := make([]int, n)\n b := a\n var sink *[]int\n *sink = b }\n",
        );
        let a = var_named(&r, "a");
        assert!(fr.escapes(a), "escape flows through the b = a copy");
    }

    #[test]
    fn params_are_incomplete() {
        let (_, r, fr) = run("func f(p *int) { q := p\n q = q }\n");
        assert!(fr.is_incomplete(var_named(&r, "q")));
    }
}
