//! Type checking for MiniGo.
//!
//! Walks each function in source order, infers types for `:=` declarations,
//! and records a type for every expression. Multi-value calls get their full
//! result list recorded separately. The checker is deliberately strict: it
//! rejects anything whose semantics the VM or the escape analysis would have
//! to guess at.

use std::sync::Arc;

use crate::ast::*;
use crate::diag::{Diagnostic, Result};
use crate::fxhash::FxHashMap;
use crate::idmap::IdMap;
use crate::resolver::Resolution;
use crate::types::Type;

/// Types computed for a program.
#[derive(Debug, Clone, Default)]
pub struct TypeInfo {
    expr_ty: IdMap<ExprId, Type>,
    /// Hashed: calls are a small fraction of the expression ids.
    call_results: FxHashMap<ExprId, Vec<Type>>,
    var_ty: IdMap<VarId, Type>,
    struct_fields: FxHashMap<String, Vec<(String, Type)>>,
}

impl TypeInfo {
    /// The type of an expression. Multi-value calls record their first
    /// result here (and the full list in [`TypeInfo::call_result_types`]).
    pub fn expr(&self, id: ExprId) -> Option<&Type> {
        self.expr_ty.get(id)
    }

    /// All result types of a call expression.
    pub fn call_result_types(&self, id: ExprId) -> Option<&[Type]> {
        self.call_results.get(&id).map(Vec::as_slice)
    }

    /// The type of a variable.
    pub fn var(&self, id: VarId) -> Option<&Type> {
        self.var_ty.get(id)
    }

    /// Field list of a struct type.
    pub fn fields_of(&self, name: &str) -> Option<&[(String, Type)]> {
        self.struct_fields.get(name).map(Vec::as_slice)
    }

    /// Whether `ty` can transitively reach pointers (see
    /// [`Type::contains_pointers`]); resolves struct names via this table.
    pub fn contains_pointers(&self, ty: &Type) -> bool {
        let resolve = |name: &str| {
            self.struct_fields
                .get(name)
                .map(|fs| fs.iter().map(|(_, t)| t.clone()).collect())
                .unwrap_or_default()
        };
        ty.contains_pointers(&resolve)
    }

    /// Records a type for a synthesized expression. GoFree's partial-free
    /// instrumentation calls this for the `tcfree(x.f)` field projections
    /// it inserts, so both VM engines can resolve the field's struct.
    pub fn record_expr_type(&mut self, id: ExprId, ty: Type) {
        self.expr_ty.insert(id, ty);
    }

    /// Inline size of `ty` in bytes; resolves struct names via this table.
    pub fn inline_size(&self, ty: &Type) -> u64 {
        let resolve = |name: &str| {
            self.struct_fields
                .get(name)
                .map(|fs| fs.iter().map(|(_, t)| t.clone()).collect())
                .unwrap_or_default()
        };
        ty.inline_size(&resolve)
    }
}

/// Type-checks `program` under `res`.
///
/// # Errors
///
/// Returns the first type error found.
pub fn typecheck(program: &Program, res: &Resolution) -> Result<TypeInfo> {
    let mut info = TypeInfo::default();
    for s in &program.structs {
        if info
            .struct_fields
            .insert(s.name.clone(), s.fields.clone())
            .is_some()
        {
            return Err(Diagnostic::new(
                format!("struct `{}` redeclared", s.name),
                s.span,
            ));
        }
    }
    // Validate that struct fields refer to known structs (no recursion by
    // value: a struct may contain itself only behind a pointer/slice/map).
    for s in &program.structs {
        for (fname, fty) in &s.fields {
            check_type_wf(fty, &info, s.span)?;
            if let Type::Named(n) = fty {
                if n == &s.name {
                    return Err(Diagnostic::new(
                        format!("field `{fname}` embeds `{}` by value recursively", s.name),
                        s.span,
                    ));
                }
            }
        }
    }

    let mut ck = Checker {
        program,
        res,
        info,
        func: None,
    };
    // Pre-record parameter/result variable types for all functions so calls
    // can be checked in any order.
    for func in &program.funcs {
        for (&vid, p) in res.params_of(func.id).iter().zip(&func.params) {
            check_type_wf(&p.ty, &ck.info, p.span)?;
            ck.info.var_ty.insert(vid, p.ty.clone());
        }
        for (&vid, p) in res.results_of(func.id).iter().zip(&func.results) {
            check_type_wf(&p.ty, &ck.info, p.span)?;
            ck.info.var_ty.insert(vid, p.ty.clone());
        }
    }
    for func in &program.funcs {
        ck.func = Some(func);
        ck.block(&func.body)?;
    }
    Ok(ck.info)
}

fn check_type_wf(ty: &Type, info: &TypeInfo, span: crate::span::Span) -> Result<()> {
    match ty {
        Type::Int | Type::Bool | Type::Str => Ok(()),
        Type::Named(name) => {
            if info.struct_fields.contains_key(name) {
                Ok(())
            } else {
                Err(Diagnostic::new(format!("unknown type `{name}`"), span))
            }
        }
        Type::Ptr(t) | Type::Slice(t) => check_type_wf(t, info, span),
        Type::Map(k, v) => {
            match **k {
                Type::Int | Type::Str | Type::Bool => {}
                _ => {
                    return Err(Diagnostic::new(
                        "map keys must be int, string, or bool",
                        span,
                    ));
                }
            }
            check_type_wf(v, info, span)
        }
    }
}

struct Checker<'p> {
    program: &'p Program,
    res: &'p Resolution,
    info: TypeInfo,
    func: Option<&'p Func>,
}

impl<'p> Checker<'p> {
    fn block(&mut self, block: &Block) -> Result<()> {
        for stmt in &block.stmts {
            self.stmt(stmt)?;
        }
        Ok(())
    }

    fn stmt(&mut self, stmt: &Stmt) -> Result<()> {
        match &stmt.kind {
            StmtKind::VarDecl { names, ty, init } => {
                check_type_wf(ty, &self.info, stmt.span)?;
                let tys = self.rhs_types(init, names.len(), stmt.span, Some(ty))?;
                for got in &tys {
                    self.require_assignable(ty, got, stmt.span)?;
                }
                for i in 0..names.len() {
                    let vid = self
                        .res
                        .decl_of(stmt.id, i)
                        .ok_or_else(|| Diagnostic::new("unresolved declaration", stmt.span))?;
                    self.info.var_ty.insert(vid, ty.clone());
                }
                Ok(())
            }
            StmtKind::ShortDecl { names, init } => {
                let tys = self.rhs_types(init, names.len(), stmt.span, None)?;
                for (i, got) in tys.iter().enumerate() {
                    let vid = self
                        .res
                        .decl_of(stmt.id, i)
                        .ok_or_else(|| Diagnostic::new("unresolved declaration", stmt.span))?;
                    self.info.var_ty.insert(vid, got.clone());
                }
                Ok(())
            }
            StmtKind::Assign { lhs, op, rhs } => {
                let mut lhs_tys = Vec::new();
                for l in lhs {
                    self.check_lvalue(l)?;
                    lhs_tys.push(self.expr(l, None)?);
                }
                if let Some(op) = op {
                    let rt = self.expr(&rhs[0], Some(&lhs_tys[0]))?;
                    let out = self.binop_type(*op, &lhs_tys[0], &rt, stmt.span)?;
                    self.require_assignable(&lhs_tys[0], &out, stmt.span)?;
                    return Ok(());
                }
                if rhs.len() == 1 && lhs.len() > 1 {
                    let tys = self.multi_call_types(&rhs[0], lhs.len(), stmt.span)?;
                    for (want, got) in lhs_tys.iter().zip(&tys) {
                        self.require_assignable(want, got, stmt.span)?;
                    }
                    return Ok(());
                }
                if lhs.len() != rhs.len() {
                    return Err(Diagnostic::new("assignment count mismatch", stmt.span));
                }
                for (l, r) in lhs_tys.iter().zip(rhs) {
                    let rt = self.expr(r, Some(l))?;
                    self.require_assignable(l, &rt, stmt.span)?;
                }
                Ok(())
            }
            StmtKind::If { cond, then, els } => {
                let ct = self.expr(cond, Some(&Type::Bool))?;
                self.require_assignable(&Type::Bool, &ct, cond.span)?;
                self.block(then)?;
                if let Some(els) = els {
                    self.stmt(els)?;
                }
                Ok(())
            }
            StmtKind::For {
                init,
                cond,
                post,
                body,
            } => {
                if let Some(init) = init {
                    self.stmt(init)?;
                }
                if let Some(cond) = cond {
                    let ct = self.expr(cond, Some(&Type::Bool))?;
                    self.require_assignable(&Type::Bool, &ct, cond.span)?;
                }
                if let Some(post) = post {
                    self.stmt(post)?;
                }
                self.block(body)
            }
            StmtKind::Return { exprs } => {
                let func = self.func.expect("inside a function");
                let results = self.res.results_of(func.id).to_vec();
                if exprs.is_empty() {
                    // Bare return: legal when there are no results or when
                    // all results are named (their current values are used).
                    if !results.is_empty() && func.results.iter().any(|r| r.name.is_empty()) {
                        return Err(Diagnostic::new(
                            "bare return with unnamed results",
                            stmt.span,
                        ));
                    }
                    return Ok(());
                }
                if exprs.len() == 1 && results.len() > 1 {
                    let tys = self.multi_call_types(&exprs[0], results.len(), stmt.span)?;
                    for (rid, got) in results.iter().zip(&tys) {
                        let want = self.info.var_ty[*rid].clone();
                        self.require_assignable(&want, got, stmt.span)?;
                    }
                    return Ok(());
                }
                if exprs.len() != results.len() {
                    return Err(Diagnostic::new(
                        format!(
                            "return gives {} values, function has {} results",
                            exprs.len(),
                            results.len()
                        ),
                        stmt.span,
                    ));
                }
                for (rid, e) in results.iter().zip(exprs) {
                    let want = self.info.var_ty[*rid].clone();
                    let got = self.expr(e, Some(&want))?;
                    self.require_assignable(&want, &got, e.span)?;
                }
                Ok(())
            }
            StmtKind::Expr { expr } => {
                // Expression statements are calls or builtins with effects.
                match &expr.kind {
                    ExprKind::Call { .. } => {
                        self.call_types(expr)?;
                        Ok(())
                    }
                    ExprKind::Builtin { .. } => {
                        self.expr(expr, None)?;
                        Ok(())
                    }
                    _ => Err(Diagnostic::new(
                        "expression statement must be a call",
                        expr.span,
                    )),
                }
            }
            StmtKind::BlockStmt { block } => self.block(block),
            StmtKind::Defer { call } => {
                match &call.kind {
                    ExprKind::Call { .. } => {
                        self.call_types(call)?;
                    }
                    ExprKind::Builtin { .. } => {
                        self.expr(call, None)?;
                    }
                    _ => unreachable!("parser enforces defer of a call"),
                }
                Ok(())
            }
            StmtKind::Switch {
                subject,
                cases,
                default,
            } => {
                let st = self.expr(subject, None)?;
                match st {
                    Type::Int | Type::Bool | Type::Str => {}
                    other => {
                        return Err(Diagnostic::new(
                            format!("cannot switch on {other}"),
                            stmt.span,
                        ));
                    }
                }
                for case in cases {
                    for v in &case.values {
                        let vt = self.expr(v, Some(&st))?;
                        self.require_assignable(&st, &vt, v.span)?;
                    }
                    self.block(&case.body)?;
                }
                if let Some(default) = default {
                    self.block(default)?;
                }
                Ok(())
            }
            StmtKind::Break | StmtKind::Continue => Ok(()),
            StmtKind::Free { target, .. } => {
                let ty = self.expr(target, None)?;
                if ty.is_freeable_reference() {
                    Ok(())
                } else {
                    Err(Diagnostic::new(
                        format!("tcfree target must be slice, map, or pointer, not {ty}"),
                        target.span,
                    ))
                }
            }
        }
    }

    /// Types of a declaration right-hand side: a matching list, one
    /// multi-value call, or (for `var`) nothing.
    fn rhs_types(
        &mut self,
        init: &[Expr],
        want: usize,
        span: crate::span::Span,
        expected: Option<&Type>,
    ) -> Result<Vec<Type>> {
        if init.is_empty() {
            return Ok(vec![
                expected.cloned().ok_or_else(|| Diagnostic::new(
                    "missing initializer",
                    span
                ))?;
                want
            ]);
        }
        if init.len() == 1 && want > 1 {
            return self.multi_call_types(&init[0], want, span);
        }
        if init.len() != want {
            return Err(Diagnostic::new("initializer count mismatch", span));
        }
        init.iter()
            .map(|e| self.expr(e, expected))
            .collect::<Result<Vec<_>>>()
    }

    fn multi_call_types(
        &mut self,
        expr: &Expr,
        want: usize,
        span: crate::span::Span,
    ) -> Result<Vec<Type>> {
        match &expr.kind {
            ExprKind::Call { .. } => {
                let tys = self.call_types(expr)?;
                if tys.len() != want {
                    return Err(Diagnostic::new(
                        format!("call yields {} values, need {want}", tys.len()),
                        span,
                    ));
                }
                Ok(tys)
            }
            _ => Err(Diagnostic::new(
                "multiple-value context requires a call",
                span,
            )),
        }
    }

    /// Checks a call and records its full result list; returns it.
    fn call_types(&mut self, expr: &Expr) -> Result<Vec<Type>> {
        let (callee, args) = match &expr.kind {
            ExprKind::Call { callee, args } => (callee, args),
            _ => unreachable!("call_types on non-call"),
        };
        let fid = self
            .res
            .func_by_name(callee)
            .ok_or_else(|| Diagnostic::new(format!("undefined function `{callee}`"), expr.span))?;
        let func = &self.program.funcs[fid.index()];
        if args.len() != func.params.len() {
            return Err(Diagnostic::new(
                format!(
                    "`{callee}` takes {} arguments, got {}",
                    func.params.len(),
                    args.len()
                ),
                expr.span,
            ));
        }
        for (p, a) in func.params.clone().iter().zip(args) {
            let got = self.expr(a, Some(&p.ty))?;
            self.require_assignable(&p.ty, &got, a.span)?;
        }
        let tys: Vec<Type> = func.results.iter().map(|r| r.ty.clone()).collect();
        self.info.call_results.insert(expr.id, tys.clone());
        if let Some(first) = tys.first() {
            self.info.expr_ty.insert(expr.id, first.clone());
        }
        Ok(tys)
    }

    fn check_lvalue(&self, expr: &Expr) -> Result<()> {
        match &expr.kind {
            ExprKind::Ident(_) => Ok(()),
            ExprKind::Unary {
                op: UnOp::Deref, ..
            } => Ok(()),
            ExprKind::Field { base, .. } => self.check_lvalue_base(base),
            ExprKind::Index { base, .. } => self.check_lvalue_base(base),
            _ => Err(Diagnostic::new(
                "cannot assign to this expression",
                expr.span,
            )),
        }
    }

    fn check_lvalue_base(&self, base: &Expr) -> Result<()> {
        match &base.kind {
            ExprKind::Ident(_)
            | ExprKind::Unary {
                op: UnOp::Deref, ..
            }
            | ExprKind::Field { .. }
            | ExprKind::Index { .. } => Ok(()),
            // Calls returning slices/maps can be indexed for writing too;
            // keep it simple and allow them.
            ExprKind::Call { .. } | ExprKind::Builtin { .. } => Ok(()),
            _ => Err(Diagnostic::new(
                "cannot assign through this expression",
                base.span,
            )),
        }
    }

    fn require_assignable(&self, want: &Type, got: &Type, span: crate::span::Span) -> Result<()> {
        if want == got {
            return Ok(());
        }
        Err(Diagnostic::new(
            format!("type mismatch: expected {want}, found {got}"),
            span,
        ))
    }

    fn binop_type(&self, op: BinOp, lt: &Type, rt: &Type, span: crate::span::Span) -> Result<Type> {
        use BinOp::*;
        match op {
            Add => match (lt, rt) {
                (Type::Int, Type::Int) => Ok(Type::Int),
                (Type::Str, Type::Str) => Ok(Type::Str),
                _ => Err(Diagnostic::new(
                    format!("invalid operands {lt} + {rt}"),
                    span,
                )),
            },
            Sub | Mul | Div | Rem => {
                if lt == &Type::Int && rt == &Type::Int {
                    Ok(Type::Int)
                } else {
                    Err(Diagnostic::new(
                        format!("invalid operands {lt} {op} {rt}"),
                        span,
                    ))
                }
            }
            Lt | Le | Gt | Ge => match (lt, rt) {
                (Type::Int, Type::Int) | (Type::Str, Type::Str) => Ok(Type::Bool),
                _ => Err(Diagnostic::new(
                    format!("invalid comparison {lt} {op} {rt}"),
                    span,
                )),
            },
            Eq | Ne => {
                if lt == rt {
                    Ok(Type::Bool)
                } else {
                    Err(Diagnostic::new(
                        format!("cannot compare {lt} and {rt}"),
                        span,
                    ))
                }
            }
            And | Or => {
                if lt == &Type::Bool && rt == &Type::Bool {
                    Ok(Type::Bool)
                } else {
                    Err(Diagnostic::new(
                        format!("invalid operands {lt} {op} {rt}"),
                        span,
                    ))
                }
            }
        }
    }

    fn expr(&mut self, expr: &Expr, expected: Option<&Type>) -> Result<Type> {
        let ty = self.expr_inner(expr, expected)?;
        self.info.expr_ty.insert(expr.id, ty.clone());
        Ok(ty)
    }

    fn expr_inner(&mut self, expr: &Expr, expected: Option<&Type>) -> Result<Type> {
        match &expr.kind {
            ExprKind::IntLit(_) => Ok(Type::Int),
            ExprKind::BoolLit(_) => Ok(Type::Bool),
            ExprKind::StrLit(_) => Ok(Type::Str),
            ExprKind::Nil => match expected {
                Some(t @ (Type::Ptr(_) | Type::Slice(_) | Type::Map(_, _))) => Ok(t.clone()),
                Some(other) => Err(Diagnostic::new(
                    format!("nil is not a valid {other}"),
                    expr.span,
                )),
                None => Err(Diagnostic::new(
                    "untyped nil needs an expected type",
                    expr.span,
                )),
            },
            ExprKind::Ident(_) => {
                let vid = self
                    .res
                    .def_of(expr.id)
                    .ok_or_else(|| Diagnostic::new("unresolved identifier", expr.span))?;
                self.info.var_ty.get(vid).cloned().ok_or_else(|| {
                    Diagnostic::new("variable used before its type is known", expr.span)
                })
            }
            ExprKind::Unary { op, operand } => match op {
                UnOp::Neg => {
                    let t = self.expr(operand, Some(&Type::Int))?;
                    self.require_assignable(&Type::Int, &t, expr.span)?;
                    Ok(Type::Int)
                }
                UnOp::Not => {
                    let t = self.expr(operand, Some(&Type::Bool))?;
                    self.require_assignable(&Type::Bool, &t, expr.span)?;
                    Ok(Type::Bool)
                }
                UnOp::Addr => {
                    let t = self.expr(operand, None)?;
                    // Addressable: variables, fields, derefs, struct literals.
                    match &operand.kind {
                        ExprKind::Ident(_)
                        | ExprKind::Field { .. }
                        | ExprKind::Index { .. }
                        | ExprKind::StructLit { .. }
                        | ExprKind::Unary {
                            op: UnOp::Deref, ..
                        } => Ok(Type::ptr(t)),
                        _ => Err(Diagnostic::new("cannot take address", expr.span)),
                    }
                }
                UnOp::Deref => {
                    let t = self.expr(operand, None)?;
                    match t {
                        Type::Ptr(inner) => Ok(Arc::unwrap_or_clone(inner)),
                        other => Err(Diagnostic::new(
                            format!("cannot dereference {other}"),
                            expr.span,
                        )),
                    }
                }
            },
            ExprKind::Binary { op, lhs, rhs } => {
                // `nil == x` needs x's type to give nil one: type the
                // non-nil side first.
                let (lt, rt) = if matches!(lhs.kind, ExprKind::Nil) {
                    let rt = self.expr(rhs, None)?;
                    let lt = self.expr(lhs, Some(&rt))?;
                    (lt, rt)
                } else {
                    let lt = self.expr(lhs, None)?;
                    let rt = self.expr(rhs, Some(&lt))?;
                    (lt, rt)
                };
                // Go: slices and maps are only comparable to nil.
                if matches!(op, BinOp::Eq | BinOp::Ne)
                    && matches!(lt, Type::Slice(_) | Type::Map(_, _))
                    && !matches!(lhs.kind, ExprKind::Nil)
                    && !matches!(rhs.kind, ExprKind::Nil)
                {
                    return Err(Diagnostic::new(
                        format!("{lt} values are only comparable to nil"),
                        expr.span,
                    ));
                }
                self.binop_type(*op, &lt, &rt, expr.span)
            }
            ExprKind::Field { base, name } => {
                let bt = self.expr(base, None)?;
                let sname = match &bt {
                    Type::Named(n) => n.clone(),
                    Type::Ptr(inner) => match &**inner {
                        Type::Named(n) => n.clone(),
                        other => {
                            return Err(Diagnostic::new(
                                format!("{other} has no fields"),
                                expr.span,
                            ));
                        }
                    },
                    other => {
                        return Err(Diagnostic::new(format!("{other} has no fields"), expr.span));
                    }
                };
                let fields = self.info.fields_of(&sname).ok_or_else(|| {
                    Diagnostic::new(format!("unknown struct `{sname}`"), expr.span)
                })?;
                fields
                    .iter()
                    .find(|(f, _)| f == name)
                    .map(|(_, t)| t.clone())
                    .ok_or_else(|| {
                        Diagnostic::new(
                            format!("struct `{sname}` has no field `{name}`"),
                            expr.span,
                        )
                    })
            }
            ExprKind::Index { base, index } => {
                let bt = self.expr(base, None)?;
                match bt {
                    Type::Slice(elem) => {
                        let it = self.expr(index, Some(&Type::Int))?;
                        self.require_assignable(&Type::Int, &it, index.span)?;
                        Ok(Arc::unwrap_or_clone(elem))
                    }
                    Type::Map(k, v) => {
                        let it = self.expr(index, Some(&k))?;
                        self.require_assignable(&k, &it, index.span)?;
                        Ok(Arc::unwrap_or_clone(v))
                    }
                    other => Err(Diagnostic::new(format!("cannot index {other}"), expr.span)),
                }
            }
            ExprKind::SliceExpr { base, lo, hi } => {
                let bt = self.expr(base, None)?;
                for bound in [lo, hi].into_iter().flatten() {
                    let t = self.expr(bound, Some(&Type::Int))?;
                    self.require_assignable(&Type::Int, &t, bound.span)?;
                }
                match bt {
                    Type::Slice(_) => Ok(bt),
                    other => Err(Diagnostic::new(
                        format!("cannot reslice {other}"),
                        expr.span,
                    )),
                }
            }
            ExprKind::Call { .. } => {
                let tys = self.call_types(expr)?;
                match tys.len() {
                    1 => Ok(tys.into_iter().next().expect("len checked")),
                    0 => Err(Diagnostic::new(
                        "call of void function used as a value",
                        expr.span,
                    )),
                    _ => Err(Diagnostic::new(
                        "multi-value call in single-value context",
                        expr.span,
                    )),
                }
            }
            ExprKind::Builtin {
                kind,
                ty_args,
                args,
            } => self.builtin(expr, *kind, ty_args, args),
            ExprKind::StructLit { name, fields } => {
                let decl = self
                    .info
                    .fields_of(name)
                    .ok_or_else(|| Diagnostic::new(format!("unknown struct `{name}`"), expr.span))?
                    .to_vec();
                if decl.len() != fields.len() {
                    return Err(Diagnostic::new(
                        format!(
                            "`{name}` has {} fields, literal gives {}",
                            decl.len(),
                            fields.len()
                        ),
                        expr.span,
                    ));
                }
                for ((_, want), e) in decl.iter().zip(fields) {
                    let got = self.expr(e, Some(want))?;
                    self.require_assignable(want, &got, e.span)?;
                }
                Ok(Type::Named(name.clone()))
            }
        }
    }

    fn builtin(
        &mut self,
        expr: &Expr,
        kind: Builtin,
        ty_args: &[Type],
        args: &[Expr],
    ) -> Result<Type> {
        let span = expr.span;
        match kind {
            Builtin::Make => {
                let ty = ty_args
                    .first()
                    .ok_or_else(|| Diagnostic::new("make needs a type argument", span))?;
                check_type_wf(ty, &self.info, span)?;
                match ty {
                    Type::Slice(_) => {
                        if args.is_empty() || args.len() > 2 {
                            return Err(Diagnostic::new(
                                "make([]T, len[, cap]) takes 1 or 2 sizes",
                                span,
                            ));
                        }
                        for a in args {
                            let t = self.expr(a, Some(&Type::Int))?;
                            self.require_assignable(&Type::Int, &t, a.span)?;
                        }
                        Ok(ty.clone())
                    }
                    Type::Map(_, _) => {
                        if !args.is_empty() {
                            return Err(Diagnostic::new("make(map[K]V) takes no sizes", span));
                        }
                        Ok(ty.clone())
                    }
                    other => Err(Diagnostic::new(format!("cannot make {other}"), span)),
                }
            }
            Builtin::New => {
                let ty = ty_args
                    .first()
                    .ok_or_else(|| Diagnostic::new("new needs a type argument", span))?;
                check_type_wf(ty, &self.info, span)?;
                if !args.is_empty() {
                    return Err(Diagnostic::new("new takes no value arguments", span));
                }
                Ok(Type::ptr(ty.clone()))
            }
            Builtin::Append => {
                if args.len() != 2 {
                    return Err(Diagnostic::new("append(s, v) takes two arguments", span));
                }
                let st = self.expr(&args[0], None)?;
                match st.clone() {
                    Type::Slice(elem) => {
                        let vt = self.expr(&args[1], Some(&elem))?;
                        self.require_assignable(&elem, &vt, args[1].span)?;
                        Ok(st)
                    }
                    other => Err(Diagnostic::new(
                        format!("append needs a slice, got {other}"),
                        span,
                    )),
                }
            }
            Builtin::Len => {
                if args.len() != 1 {
                    return Err(Diagnostic::new("len takes one argument", span));
                }
                let t = self.expr(&args[0], None)?;
                match t {
                    Type::Slice(_) | Type::Map(_, _) | Type::Str => Ok(Type::Int),
                    other => Err(Diagnostic::new(format!("len of {other}"), span)),
                }
            }
            Builtin::Cap => {
                if args.len() != 1 {
                    return Err(Diagnostic::new("cap takes one argument", span));
                }
                let t = self.expr(&args[0], None)?;
                match t {
                    Type::Slice(_) => Ok(Type::Int),
                    other => Err(Diagnostic::new(format!("cap of {other}"), span)),
                }
            }
            Builtin::Delete => {
                if args.len() != 2 {
                    return Err(Diagnostic::new("delete(m, k) takes two arguments", span));
                }
                let mt = self.expr(&args[0], None)?;
                match mt {
                    Type::Map(k, _) => {
                        let kt = self.expr(&args[1], Some(&k))?;
                        self.require_assignable(&k, &kt, args[1].span)?;
                        // delete has no value; give it Int so the table has
                        // an entry, statement context ignores it.
                        Ok(Type::Int)
                    }
                    other => Err(Diagnostic::new(
                        format!("delete needs a map, got {other}"),
                        span,
                    )),
                }
            }
            Builtin::Panic => {
                if args.len() != 1 {
                    return Err(Diagnostic::new("panic takes one argument", span));
                }
                self.expr(&args[0], Some(&Type::Str))?;
                Ok(Type::Int)
            }
            Builtin::Print => {
                for a in args {
                    self.expr(a, None)?;
                }
                Ok(Type::Int)
            }
            Builtin::Itoa => {
                if args.len() != 1 {
                    return Err(Diagnostic::new("itoa takes one argument", span));
                }
                let t = self.expr(&args[0], Some(&Type::Int))?;
                self.require_assignable(&Type::Int, &t, span)?;
                Ok(Type::Str)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::resolver::resolve;

    fn check(src: &str) -> Result<(Program, Resolution, TypeInfo)> {
        let p = parse(src)?;
        let r = resolve(&p)?;
        let t = typecheck(&p, &r)?;
        Ok((p, r, t))
    }

    fn check_ok(src: &str) -> (Program, Resolution, TypeInfo) {
        match check(src) {
            Ok(x) => x,
            Err(e) => panic!("typecheck failed: {}\nsource:\n{src}", e.render(src)),
        }
    }

    #[test]
    fn infers_short_decl_types() {
        let (p, r, t) = check_ok("func f() { x := 1\n s := make([]int, 3)\n x = len(s) }\n");
        let stmt = &p.funcs[0].body.stmts[1];
        let vid = r.decl_of(stmt.id, 0).unwrap();
        assert_eq!(t.var(vid), Some(&Type::slice(Type::Int)));
    }

    #[test]
    fn checks_function_calls() {
        assert!(check("func g(x int) int { return x }\nfunc f() { y := g(1)\n y = y }\n").is_ok());
        assert!(check("func g(x int) int { return x }\nfunc f() { g(true) }\n").is_err());
        assert!(check("func g(x int) int { return x }\nfunc f() { g(1, 2) }\n").is_err());
    }

    #[test]
    fn multi_value_destructuring_types() {
        let (p, r, t) = check_ok(
            "func g() (int, []int) { return 1, make([]int, 2) }\nfunc f() { a, b := g()\n a = len(b) }\n",
        );
        let stmt = &p.funcs[1].body.stmts[0];
        assert_eq!(t.var(r.decl_of(stmt.id, 0).unwrap()), Some(&Type::Int));
        assert_eq!(
            t.var(r.decl_of(stmt.id, 1).unwrap()),
            Some(&Type::slice(Type::Int))
        );
    }

    #[test]
    fn rejects_multi_value_in_single_context() {
        assert!(
            check("func g() (int, int) { return 1, 2 }\nfunc f() { x := g()\n x = x }\n").is_err()
        );
    }

    #[test]
    fn nil_needs_context() {
        assert!(check("func f() { var p *int = nil\n p = p }\n").is_ok());
        assert!(check("func f() { x := nil\n x = x }\n").is_err());
    }

    #[test]
    fn pointer_types() {
        let (p, r, t) = check_ok("func f() { x := 1\n p := &x\n y := *p\n y = y }\n");
        let stmts = &p.funcs[0].body.stmts;
        let pv = r.decl_of(stmts[1].id, 0).unwrap();
        assert_eq!(t.var(pv), Some(&Type::ptr(Type::Int)));
        let yv = r.decl_of(stmts[2].id, 0).unwrap();
        assert_eq!(t.var(yv), Some(&Type::Int));
    }

    #[test]
    fn rejects_deref_of_non_pointer() {
        assert!(check("func f() { x := 1\n y := *x\n y = y }\n").is_err());
    }

    #[test]
    fn struct_fields_and_literals() {
        let src = "type P struct { x int\n next *P }\nfunc f() { p := P{1, nil}\n q := &p\n y := q.x\n y = y }\n";
        let (p, r, t) = check_ok(src);
        let stmts = &p.funcs[0].body.stmts;
        let qv = r.decl_of(stmts[1].id, 0).unwrap();
        assert_eq!(t.var(qv), Some(&Type::ptr(Type::Named("P".into()))));
        let yv = r.decl_of(stmts[2].id, 0).unwrap();
        assert_eq!(t.var(yv), Some(&Type::Int));
    }

    #[test]
    fn rejects_unknown_field() {
        assert!(check("type P struct { x int }\nfunc f(p P) int { return p.y }\n").is_err());
    }

    #[test]
    fn rejects_recursive_struct_by_value() {
        assert!(check("type P struct { p P }\nfunc f() {}\n").is_err());
        assert!(check("type P struct { p *P }\nfunc f() {}\n").is_ok());
    }

    #[test]
    fn slice_and_map_indexing() {
        assert!(
            check("func f(s []int, m map[string]int) int { return s[0] + m[\"k\"] }\n").is_ok()
        );
        assert!(check("func f(s []int) int { return s[\"k\"] }\n").is_err());
        assert!(check("func f(m map[string]int) int { return m[1] }\n").is_err());
    }

    #[test]
    fn append_types() {
        assert!(check("func f(s []int) []int { return append(s, 1) }\n").is_ok());
        assert!(check("func f(s []int) []int { return append(s, true) }\n").is_err());
        assert!(check("func f(x int) int { return len(append(make([]int, x), 1)) }\n").is_ok());
    }

    #[test]
    fn make_checks() {
        assert!(check("func f(n int) { s := make([]int, n)\n s = s }\n").is_ok());
        assert!(check("func f() { m := make(map[string]int)\n m = m }\n").is_ok());
        assert!(check("func f() { x := make(int, 1)\n x = x }\n").is_err());
        assert!(check("func f() { m := make(map[string]int, 1)\n m = m }\n").is_err());
    }

    #[test]
    fn map_key_restriction() {
        assert!(check("func f() { m := make(map[[]int]int)\n m = m }\n").is_err());
    }

    #[test]
    fn slices_and_maps_only_comparable_to_nil() {
        assert!(check("func f(s []int) bool { return s == nil }\n").is_ok());
        assert!(check("func f(m map[int]int) bool { return nil != m }\n").is_ok());
        assert!(check("func f(a []int, b []int) bool { return a == b }\n").is_err());
        assert!(check("func f(a map[int]int, b map[int]int) bool { return a == b }\n").is_err());
    }

    #[test]
    fn string_concat_and_compare() {
        assert!(check("func f(a string, b string) bool { return a + b < \"z\" }\n").is_ok());
        assert!(check("func f(a string) string { return a - a }\n").is_err());
    }

    #[test]
    fn bare_return_with_named_results() {
        assert!(check("func f() (out int) { out = 3\n return }\n").is_ok());
        assert!(check("func f() (int) { return }\n").is_err());
    }

    #[test]
    fn return_arity() {
        assert!(check("func f() (int, int) { return 1 }\n").is_err());
        assert!(check("func f() int { return 1, 2 }\n").is_err());
    }

    #[test]
    fn assign_through_pointer_and_index() {
        assert!(check(
            "func f(p *int, s []int, m map[string]int) { *p = 1\n s[0] = 2\n m[\"k\"] = 3 }\n"
        )
        .is_ok());
        assert!(check("func f() { 1 = 2 }\n").is_err());
    }

    #[test]
    fn expr_statement_must_be_call() {
        assert!(check("func f(x int) { x + 1 }\n").is_err());
        assert!(check("func g() {}\nfunc f() { g() }\n").is_ok());
    }

    #[test]
    fn tcfree_target_type_checked() {
        assert!(check("func f(s []int) { tcfree(s) }\n").is_ok());
        assert!(check("func f(m map[int]int) { tcfree(m) }\n").is_ok());
        assert!(check("func f(x int) { tcfree(x) }\n").is_err());
    }

    #[test]
    fn itoa_and_print() {
        assert!(check("func f(n int) { print(itoa(n), n, \"x\") }\n").is_ok());
        assert!(check("func f(s string) { s = itoa(s) }\n").is_err());
    }

    #[test]
    fn records_expr_types() {
        let (p, _, t) = check_ok("func f(n int) int { return n * 2 }\n");
        if let StmtKind::Return { exprs } = &p.funcs[0].body.stmts[0].kind {
            assert_eq!(t.expr(exprs[0].id), Some(&Type::Int));
        } else {
            panic!("expected return");
        }
    }

    #[test]
    fn records_call_result_types() {
        let (p, _, t) =
            check_ok("func g() (int, int) { return 1, 2 }\nfunc f() { a, b := g()\n a = b }\n");
        if let StmtKind::ShortDecl { init, .. } = &p.funcs[1].body.stmts[0].kind {
            assert_eq!(
                t.call_result_types(init[0].id),
                Some(&[Type::Int, Type::Int][..])
            );
        } else {
            panic!("expected short decl");
        }
    }
}
