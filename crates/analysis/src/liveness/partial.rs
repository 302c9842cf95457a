//! Partial-free candidate selection.
//!
//! The §6.5 target restriction abandons struct-typed locals even when
//! the escape analysis proves their location `ToFree` — `tcfree(x)` on
//! a value struct frees nothing, and the paper never frees pointers.
//! This module recovers the reclaimable *parts*: for a local struct (or
//! pointer-to-struct) `x` whose location is `ToFree`, it emits
//! `tcfree(x.f)` for each slice/map field whose backing store provably
//! has no alias outside `x.f` itself.
//!
//! The aliasing argument is deliberately syntactic and strict, so the
//! independent auditor can re-prove every emitted site:
//!
//! * `x` never occurs bare — only as the base of a field projection —
//!   so the struct (and everything reachable from it) is never copied,
//!   address-taken, passed, returned, or deferred;
//! * every store to `x.f` is a fresh `make(...)` (or `nil`), in the
//!   declaration literal and in every assignment, so the field's
//!   referent is never shared with another field or variable;
//! * `x.f` itself is only *consumed* — indexed (`x.f[i]`), measured
//!   (`len`/`cap`), or mutated in place (`x.f[i] = v`, `delete`) —
//!   never copied out, resliced, appended, passed, or returned.
//!
//! Under those rules the backing array (or map storage) of `x.f` is
//! reachable through `x.f` alone, and the statement after the last
//! occurrence of `x.f` is a sound free point even while the rest of
//! `x` stays live. Value structs are coarser: the auditor's domain
//! flattens their reference sets, so their partial frees are placed at
//! the *whole struct's* last use (and only emitted when every
//! pointerful field qualifies).

use minigo_syntax::fxhash::FxHashMap;
use minigo_syntax::{
    Block, Builtin, Expr, ExprKind, FreeKind, Func, Resolution, Stmt, StmtId, StmtKind, Type,
    TypeInfo, UnOp, VarId,
};

use super::PartialFree;
use crate::build::FuncGraph;

/// Whether the variable's type makes it a partial-free candidate;
/// returns the struct name and whether access goes through a pointer.
fn struct_shape(types: &TypeInfo, v: VarId) -> Option<(String, bool)> {
    match types.var(v) {
        Some(Type::Named(n)) => Some((n.clone(), false)),
        Some(Type::Ptr(inner)) => match &**inner {
            Type::Named(n) => Some((n.clone(), true)),
            _ => None,
        },
        _ => None,
    }
}

fn freeable_kind(ty: &Type) -> Option<FreeKind> {
    match ty {
        Type::Slice(_) => Some(FreeKind::Slice),
        Type::Map(_, _) => Some(FreeKind::Map),
        _ => None,
    }
}

fn is_fresh(e: &Expr) -> bool {
    matches!(
        &e.kind,
        ExprKind::Nil
            | ExprKind::Builtin {
                kind: Builtin::Make,
                ..
            }
    )
}

/// Plans partial frees for one function. `free_vars` are the variables
/// the primary selection already frees whole (never partial-freed too).
pub(crate) fn plan_partials(
    func: &Func,
    res: &Resolution,
    types: &TypeInfo,
    fg: &FuncGraph,
    free_vars: &[(VarId, FreeKind)],
) -> Vec<PartialFree> {
    let mut out = Vec::new();
    let mut candidates: Vec<VarId> = fg
        .var_locs
        .iter()
        .filter(|(v, loc)| {
            res.var(**v).kind == minigo_syntax::VarKind::Local
                && fg.graph.loc(**loc).to_free()
                && free_vars.iter().all(|(fv, _)| fv != *v)
        })
        .map(|(v, _)| *v)
        .collect();
    candidates.sort();
    for x in candidates {
        let Some((sname, through_ptr)) = struct_shape(types, x) else {
            continue;
        };
        let Some(fields) = types.fields_of(&sname) else {
            continue;
        };
        let fields = fields.to_vec();
        let freeable: Vec<(usize, String, Type, FreeKind)> = fields
            .iter()
            .enumerate()
            .filter_map(|(i, (n, t))| freeable_kind(t).map(|k| (i, n.clone(), t.clone(), k)))
            .collect();
        if freeable.is_empty() {
            continue;
        }
        // Value structs flatten in the auditor's domain: a stray
        // pointerful field would make every partial free unprovable.
        if !through_ptr
            && fields
                .iter()
                .any(|(_, t)| types.contains_pointers(t) && freeable_kind(t).is_none())
        {
            continue;
        }
        let mut scan = Scan {
            res,
            x,
            freeable_names: freeable.iter().map(|(_, n, _, _)| n.clone()).collect(),
            fields: fields.clone(),
            through_ptr,
            bail: false,
            bad: Vec::new(),
            decl_found: false,
            attribution: None,
            whole_last: None,
            field_last: FxHashMap::default(),
        };
        scan.find_and_scan(&func.body);
        if scan.bail || !scan.decl_found {
            continue;
        }
        let eligible: Vec<&(usize, String, Type, FreeKind)> = freeable
            .iter()
            .filter(|(_, n, _, _)| !scan.bad.contains(n))
            .collect();
        if eligible.is_empty() {
            continue;
        }
        if !through_ptr && eligible.len() != freeable.len() {
            // Value struct: one aliased field poisons the flattened set.
            continue;
        }
        for (_, name, ty, kind) in eligible {
            let after = if through_ptr {
                scan.field_last.get(name).copied().or(scan.whole_last)
            } else {
                scan.whole_last
            };
            let Some(after) = after else { continue };
            out.push(PartialFree {
                base: x,
                field: name.clone(),
                field_ty: ty.clone(),
                kind: *kind,
                after,
            });
        }
    }
    out.sort_by(|a, b| (a.base, &a.field).cmp(&(b.base, &b.field)));
    out
}

struct Scan<'a> {
    res: &'a Resolution,
    x: VarId,
    freeable_names: Vec<String>,
    fields: Vec<(String, Type)>,
    through_ptr: bool,
    /// A bare occurrence of `x` (or an unsupported declaration shape):
    /// the whole variable is abandoned.
    bail: bool,
    /// Fields with a disallowed occurrence or a non-fresh store.
    bad: Vec<String>,
    decl_found: bool,
    /// The statement id of the current top-level statement of the
    /// declaring block (mention attribution point).
    attribution: Option<StmtId>,
    whole_last: Option<StmtId>,
    field_last: FxHashMap<String, StmtId>,
}

impl<'a> Scan<'a> {
    /// Finds the block declaring `x` at top level and scans the whole
    /// function, attributing occurrences to that block's statements.
    fn find_and_scan(&mut self, body: &Block) {
        // Locate the declaring block first (occurrences can only be in
        // its subtree), then scan with attribution.
        if let Some(stmts) = find_decl_block(self.res, body, self.x) {
            let decl_idx = stmts.iter().position(|s| self.declares_x(s)).unwrap();
            if !self.check_decl(&stmts[decl_idx]) {
                self.bail = true;
                return;
            }
            self.decl_found = true;
            self.whole_last = Some(stmts[decl_idx].id);
            for stmt in stmts {
                self.attribution = Some(stmt.id);
                if !self.declares_x(stmt) {
                    self.scan_stmt(stmt);
                }
            }
            self.attribution = None;
        }
    }

    fn declares_x(&self, s: &Stmt) -> bool {
        matches!(
            s.kind,
            StmtKind::VarDecl { .. } | StmtKind::ShortDecl { .. }
        ) && (0..16).any(|i| self.res.decl_of(s.id, i) == Some(self.x))
    }

    /// Validates the declaration initializer; marks non-fresh freeable
    /// field initializers bad. Returns false to bail the variable.
    fn check_decl(&mut self, s: &Stmt) -> bool {
        let (names_len, init) = match &s.kind {
            StmtKind::VarDecl { names, init, .. } | StmtKind::ShortDecl { names, init } => {
                (names.len(), init)
            }
            _ => return false,
        };
        let pos = (0..names_len)
            .find(|i| self.res.decl_of(s.id, *i) == Some(self.x))
            .unwrap_or(0);
        if init.is_empty() {
            // `var x T`: zero value. Fine for a value struct (all-nil
            // fields); a nil pointer-struct is never dereferenceable.
            return !self.through_ptr;
        }
        if init.len() != names_len {
            return false; // multi-value call initializer: unknown aliasing
        }
        let lit = match (&init[pos].kind, self.through_ptr) {
            (ExprKind::StructLit { fields, .. }, false) => fields,
            (
                ExprKind::Unary {
                    op: UnOp::Addr,
                    operand,
                },
                true,
            ) => match &operand.kind {
                ExprKind::StructLit { fields, .. } => fields,
                _ => return false,
            },
            _ => return false,
        };
        for (i, fe) in lit.iter().enumerate() {
            if let Some((fname, _)) = self.fields.get(i) {
                if self.freeable_names.contains(fname) && !is_fresh(fe) {
                    self.bad.push(fname.clone());
                }
            }
        }
        true
    }

    /// `Some(field)` when `e` is exactly `x.<field>`.
    fn x_field<'e>(&self, e: &'e Expr) -> Option<&'e str> {
        if let ExprKind::Field { base, name } = &e.kind {
            if matches!(base.kind, ExprKind::Ident(_)) && self.res.def_of(base.id) == Some(self.x) {
                return Some(name);
            }
        }
        None
    }

    fn note(&mut self, field: &str) {
        if let Some(at) = self.attribution {
            self.whole_last = Some(at);
            self.field_last.insert(field.to_string(), at);
        } else {
            self.bail = true;
        }
    }

    fn mark_bad(&mut self, field: &str) {
        if !self.bad.iter().any(|f| f == field) {
            self.bad.push(field.to_string());
        }
    }

    fn scan_expr(&mut self, e: &Expr) {
        if let Some(f) = self.x_field(e) {
            // A field projection reaching here was not consumed by an
            // allowed context: the reference is copied out.
            let f = f.to_string();
            self.note(&f);
            self.mark_bad(&f);
            return;
        }
        match &e.kind {
            ExprKind::Ident(_) => {
                if self.res.def_of(e.id) == Some(self.x) {
                    self.bail = true;
                }
            }
            ExprKind::Index { base, index } => {
                if let Some(f) = self.x_field(base) {
                    let f = f.to_string();
                    self.note(&f); // x.f[i]: element access, array stays put
                } else {
                    self.scan_expr(base);
                }
                self.scan_expr(index);
            }
            ExprKind::Builtin { kind, args, .. } => {
                let measured = matches!(kind, Builtin::Len | Builtin::Cap | Builtin::Delete);
                for (i, a) in args.iter().enumerate() {
                    if i == 0 && measured {
                        if let Some(f) = self.x_field(a) {
                            let f = f.to_string();
                            self.note(&f);
                            continue;
                        }
                    }
                    self.scan_expr(a);
                }
            }
            ExprKind::Unary { operand, .. } => self.scan_expr(operand),
            ExprKind::Binary { lhs, rhs, .. } => {
                self.scan_expr(lhs);
                self.scan_expr(rhs);
            }
            ExprKind::Field { base, .. } => self.scan_expr(base),
            ExprKind::SliceExpr { base, lo, hi } => {
                self.scan_expr(base);
                for b in [lo, hi].into_iter().flatten() {
                    self.scan_expr(b);
                }
            }
            ExprKind::Call { args, .. } => args.iter().for_each(|a| self.scan_expr(a)),
            ExprKind::StructLit { fields, .. } => fields.iter().for_each(|f| self.scan_expr(f)),
            ExprKind::IntLit(_) | ExprKind::BoolLit(_) | ExprKind::StrLit(_) | ExprKind::Nil => {}
        }
    }

    fn scan_stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Assign { lhs, op, rhs } => {
                if lhs.len() == rhs.len() {
                    for (l, r) in lhs.iter().zip(rhs) {
                        if let Some(f) = self.x_field(l) {
                            let f = f.to_string();
                            self.note(&f);
                            if op.is_some() || !is_fresh(r) {
                                self.mark_bad(&f);
                            }
                            if !is_fresh(r) {
                                self.scan_expr(r);
                            }
                            continue;
                        }
                        self.scan_lvalue(l);
                        self.scan_expr(r);
                    }
                } else {
                    // Multi-value call RHS: opaque provenance.
                    for l in lhs {
                        if let Some(f) = self.x_field(l) {
                            let f = f.to_string();
                            self.note(&f);
                            self.mark_bad(&f);
                        } else {
                            self.scan_lvalue(l);
                        }
                    }
                    rhs.iter().for_each(|r| self.scan_expr(r));
                }
            }
            StmtKind::VarDecl { init, .. } | StmtKind::ShortDecl { init, .. } => {
                init.iter().for_each(|e| self.scan_expr(e))
            }
            StmtKind::If { cond, then, els } => {
                self.scan_expr(cond);
                self.scan_block(then);
                if let Some(e) = els {
                    self.scan_stmt(e);
                }
            }
            StmtKind::For {
                init,
                cond,
                post,
                body,
            } => {
                if let Some(i) = init {
                    self.scan_stmt(i);
                }
                if let Some(c) = cond {
                    self.scan_expr(c);
                }
                if let Some(p) = post {
                    self.scan_stmt(p);
                }
                self.scan_block(body);
            }
            StmtKind::Return { exprs } => exprs.iter().for_each(|e| self.scan_expr(e)),
            StmtKind::Expr { expr } => self.scan_expr(expr),
            StmtKind::BlockStmt { block } => self.scan_block(block),
            StmtKind::Defer { call } => self.scan_expr(call),
            StmtKind::Switch {
                subject,
                cases,
                default,
            } => {
                self.scan_expr(subject);
                for case in cases {
                    case.values.iter().for_each(|v| self.scan_expr(v));
                    self.scan_block(&case.body);
                }
                if let Some(d) = default {
                    self.scan_block(d);
                }
            }
            StmtKind::Free { target, .. } => self.scan_expr(target),
            StmtKind::Break | StmtKind::Continue => {}
        }
    }

    /// An assignment target that is not `x.f` itself: `x.f[i] = v` and
    /// `x.f[k] = v` keep the storage in place and are allowed.
    fn scan_lvalue(&mut self, l: &Expr) {
        if let ExprKind::Index { base, index } = &l.kind {
            if let Some(f) = self.x_field(base) {
                let f = f.to_string();
                self.note(&f);
                self.scan_expr(index);
                return;
            }
        }
        self.scan_expr(l);
    }

    fn scan_block(&mut self, b: &Block) {
        // Nested blocks keep the enclosing top-level attribution.
        for s in &b.stmts {
            self.scan_stmt(s);
        }
    }
}

/// Finds the statement list of the block declaring `x` at top level.
fn find_decl_block<'p>(res: &Resolution, body: &'p Block, x: VarId) -> Option<&'p [Stmt]> {
    fn declares(res: &Resolution, s: &Stmt, x: VarId) -> bool {
        matches!(
            s.kind,
            StmtKind::VarDecl { .. } | StmtKind::ShortDecl { .. }
        ) && (0..16).any(|i| res.decl_of(s.id, i) == Some(x))
    }
    fn walk<'p>(res: &Resolution, b: &'p Block, x: VarId) -> Option<&'p [Stmt]> {
        if b.stmts.iter().any(|s| declares(res, s, x)) {
            return Some(&b.stmts);
        }
        for s in &b.stmts {
            let found = match &s.kind {
                StmtKind::If { then, els, .. } => walk(res, then, x).or_else(|| {
                    els.as_ref().and_then(|e| match &e.kind {
                        StmtKind::BlockStmt { block } => walk(res, block, x),
                        StmtKind::If { .. } => {
                            // else-if chain: wrap through recursion.
                            let tmp = std::slice::from_ref(&**e);
                            tmp.iter().find_map(|s| match &s.kind {
                                StmtKind::If { then, els, .. } => {
                                    walk(res, then, x).or_else(|| {
                                        els.as_ref().and_then(|e2| match &e2.kind {
                                            StmtKind::BlockStmt { block } => walk(res, block, x),
                                            _ => None,
                                        })
                                    })
                                }
                                _ => None,
                            })
                        }
                        _ => None,
                    })
                }),
                StmtKind::For { body, .. } => walk(res, body, x),
                StmtKind::BlockStmt { block } => walk(res, block, x),
                StmtKind::Switch { cases, default, .. } => cases
                    .iter()
                    .find_map(|c| walk(res, &c.body, x))
                    .or_else(|| default.as_ref().and_then(|d| walk(res, d, x))),
                _ => None,
            };
            if found.is_some() {
                return found;
            }
        }
        None
    }
    walk(res, body, x)
}
