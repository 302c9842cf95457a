//! Name resolution for MiniGo.
//!
//! Resolves every identifier use to a variable id, records each variable's
//! declaration scope depth (`DeclDepth`, definition 4.13 of the paper) and
//! loop depth (`LoopDepth`, definition 4.3), and indexes functions by name.
//! The escape analysis consumes these side tables directly.

use crate::ast::*;
use crate::diag::{Diagnostic, Result};
use crate::fxhash::FxHashMap;
use crate::idmap::IdMap;
use crate::types::Type;

/// What kind of binding a variable is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarKind {
    /// A formal parameter.
    Param,
    /// A named (or synthesized) result variable.
    Result,
    /// A local declared with `var` or `:=`.
    Local,
}

/// Everything the later passes need to know about one variable.
#[derive(Debug, Clone)]
pub struct VarInfo {
    /// Source name (possibly synthesized for unnamed results).
    pub name: String,
    /// Binding kind.
    pub kind: VarKind,
    /// The function the variable belongs to.
    pub func: FuncId,
    /// The block in which the variable is declared. Parameters and results
    /// use the function body block.
    pub block: BlockId,
    /// Scope nesting depth at the declaration (function body = 1).
    pub decl_depth: i32,
    /// Loop nesting depth at the declaration (outside any loop = 0).
    pub loop_depth: i32,
    /// Declared type, if syntactically present (params, results, `var`).
    /// `:=` locals get their types from the type checker.
    pub declared_ty: Option<Type>,
}

/// The result of name resolution for a whole program.
#[derive(Debug, Clone, Default)]
pub struct Resolution {
    vars: Vec<VarInfo>,
    use_def: IdMap<ExprId, VarId>,
    /// A declaration's first variable and its name count: the resolver
    /// numbers one statement's names consecutively.
    decl_def: IdMap<StmtId, (VarId, usize)>,
    decl_stmt: IdMap<VarId, StmtId>,
    params: IdMap<FuncId, Vec<VarId>>,
    results: IdMap<FuncId, Vec<VarId>>,
    by_func: IdMap<FuncId, Vec<VarId>>,
    funcs_by_name: FxHashMap<String, FuncId>,
    block_depth: IdMap<BlockId, i32>,
}

impl Resolution {
    /// Info for a variable id.
    pub fn var(&self, id: VarId) -> &VarInfo {
        &self.vars[id.index()]
    }

    /// All variables, indexable by [`VarId::index`].
    pub fn vars(&self) -> &[VarInfo] {
        &self.vars
    }

    /// The variable a use-site identifier refers to, if the expression is a
    /// resolved identifier.
    pub fn def_of(&self, expr: ExprId) -> Option<VarId> {
        self.use_def.get(expr).copied()
    }

    /// The variable declared by name index `idx` of a declaration statement.
    pub fn decl_of(&self, stmt: StmtId, idx: usize) -> Option<VarId> {
        let &(first, count) = self.decl_def.get(stmt)?;
        (idx < count).then(|| VarId(first.0 + idx as u32))
    }

    /// The parameter variables of a function, in order.
    pub fn params_of(&self, func: FuncId) -> &[VarId] {
        self.params.get(func).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The result variables of a function, in order.
    pub fn results_of(&self, func: FuncId) -> &[VarId] {
        self.results.get(func).map(Vec::as_slice).unwrap_or(&[])
    }

    /// A function's variables (parameters, results, locals) in id order.
    pub fn vars_of(&self, func: FuncId) -> &[VarId] {
        self.by_func.get(func).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Finds a function id by name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.funcs_by_name.get(name).copied()
    }

    /// Scope depth of a block (function body = 1).
    pub fn depth_of_block(&self, block: BlockId) -> i32 {
        self.block_depth.get(block).copied().unwrap_or(0)
    }

    /// The statement that declares `var`, if it was declared by a `var` or
    /// `:=` statement (parameters and results have none).
    pub fn decl_stmt_of(&self, var: VarId) -> Option<StmtId> {
        self.decl_stmt.get(var).copied()
    }

    /// Registers a use of `var` at a synthesized identifier expression.
    /// GoFree's instrumentation pass calls this for the `tcfree(x)`
    /// statements it inserts, so the VM can resolve their targets.
    pub fn record_use(&mut self, expr: ExprId, var: VarId) {
        self.use_def.insert(expr, var);
    }
}

/// Resolves `program`, producing the [`Resolution`] side tables.
///
/// # Errors
///
/// Returns a [`Diagnostic`] for undefined variables, undefined callees,
/// duplicate function names, or arity mismatches in declarations.
pub fn resolve(program: &Program) -> Result<Resolution> {
    let mut r = Resolver {
        res: Resolution::default(),
        scopes: Vec::new(),
        func: FuncId(0),
        depth: 0,
        loop_depth: 0,
        body_block: BlockId(0),
    };
    for func in &program.funcs {
        if r.res
            .funcs_by_name
            .insert(func.name.clone(), func.id)
            .is_some()
        {
            return Err(Diagnostic::new(
                format!("function `{}` redeclared", func.name),
                func.span,
            ));
        }
    }
    for func in &program.funcs {
        r.func_decl(func)?;
    }
    Ok(r.res)
}

struct Resolver<'p> {
    res: Resolution,
    /// Stack of lexical scopes mapping names to variables.
    scopes: Vec<FxHashMap<&'p str, VarId>>,
    func: FuncId,
    depth: i32,
    loop_depth: i32,
    body_block: BlockId,
}

impl<'p> Resolver<'p> {
    fn new_var(&mut self, name: String, kind: VarKind, block: BlockId, ty: Option<Type>) -> VarId {
        let id = VarId(self.res.vars.len() as u32);
        self.res.vars.push(VarInfo {
            name,
            kind,
            func: self.func,
            block,
            decl_depth: self.depth,
            loop_depth: self.loop_depth,
            declared_ty: ty,
        });
        self.res.by_func.or_default(self.func).push(id);
        id
    }

    /// A new variable that uses can name: it enters the innermost scope.
    fn declare(&mut self, name: &'p str, kind: VarKind, block: BlockId, ty: Option<Type>) -> VarId {
        let id = self.new_var(name.to_string(), kind, block, ty);
        if !name.is_empty() {
            self.scopes
                .last_mut()
                .expect("scope stack is never empty while resolving")
                .insert(name, id);
        }
        id
    }

    /// Declares the names of a `var` / `:=` statement, filling the
    /// statement → variables and variable → statement tables.
    fn declare_names(&mut self, stmt: StmtId, names: &'p [String], ty: Option<&Type>) {
        let first = VarId(self.res.vars.len() as u32);
        for name in names {
            let block = self.enclosing_block();
            let id = self.declare(name, VarKind::Local, block, ty.cloned());
            self.res.decl_stmt.insert(id, stmt);
        }
        self.res.decl_def.insert(stmt, (first, names.len()));
    }

    fn lookup(&self, name: &str) -> Option<VarId> {
        self.scopes
            .iter()
            .rev()
            .find_map(|scope| scope.get(name).copied())
    }

    fn func_decl(&mut self, func: &'p Func) -> Result<()> {
        self.func = func.id;
        self.depth = 1;
        self.loop_depth = 0;
        self.body_block = func.body.id;
        self.scopes.push(FxHashMap::default());
        self.res.block_depth.insert(func.body.id, 1);

        let mut params = Vec::new();
        for p in &func.params {
            params.push(self.declare(&p.name, VarKind::Param, func.body.id, Some(p.ty.clone())));
        }
        self.res.params.insert(func.id, params);

        let mut results = Vec::new();
        for (i, p) in func.results.iter().enumerate() {
            let ty = Some(p.ty.clone());
            results.push(if p.name.is_empty() {
                // Unnamed results still need identities for the analysis;
                // no identifier contains `$`, so no use can name one.
                self.new_var(format!("$ret{i}"), VarKind::Result, func.body.id, ty)
            } else {
                self.declare(&p.name, VarKind::Result, func.body.id, ty)
            });
        }
        self.res.results.insert(func.id, results);

        // The body block reuses the scope that already holds params/results,
        // mirroring Go where they share the function scope.
        for stmt in &func.body.stmts {
            self.stmt(stmt)?;
        }
        self.scopes.pop();
        Ok(())
    }

    fn block(&mut self, block: &'p Block) -> Result<()> {
        self.depth += 1;
        self.res.block_depth.insert(block.id, self.depth);
        self.scopes.push(FxHashMap::default());
        for stmt in &block.stmts {
            self.stmt(stmt)?;
        }
        self.scopes.pop();
        self.depth -= 1;
        Ok(())
    }

    fn current_block_of_depth(&self) -> BlockId {
        // The innermost block id at the current depth. We track it lazily:
        // declarations record the block they appear in via `stmt` context.
        self.body_block
    }

    fn stmt(&mut self, stmt: &'p Stmt) -> Result<()> {
        match &stmt.kind {
            StmtKind::VarDecl { names, ty, init } => {
                for e in init {
                    self.expr(e)?;
                }
                if !init.is_empty() && init.len() != names.len() && init.len() != 1 {
                    return Err(Diagnostic::new(
                        "initializer count must match declared names or be one call",
                        stmt.span,
                    ));
                }
                self.declare_names(stmt.id, names, Some(ty));
                Ok(())
            }
            StmtKind::ShortDecl { names, init } => {
                for e in init {
                    self.expr(e)?;
                }
                if init.len() != names.len() && init.len() != 1 {
                    return Err(Diagnostic::new(
                        "assignment mismatch in short declaration",
                        stmt.span,
                    ));
                }
                self.declare_names(stmt.id, names, None);
                Ok(())
            }
            StmtKind::Assign { lhs, rhs, .. } => {
                for e in lhs {
                    self.expr(e)?;
                }
                for e in rhs {
                    self.expr(e)?;
                }
                Ok(())
            }
            StmtKind::If { cond, then, els } => {
                self.expr(cond)?;
                self.with_block(then)?;
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
                // The init clause lives in an implicit scope wrapping the
                // body, as in Go.
                self.depth += 1;
                self.scopes.push(FxHashMap::default());
                let saved_block = self.body_block;
                self.body_block = body.id;
                if let Some(init) = init {
                    self.stmt(init)?;
                }
                if let Some(cond) = cond {
                    self.expr(cond)?;
                }
                if let Some(post) = post {
                    self.stmt(post)?;
                }
                self.loop_depth += 1;
                self.with_block(body)?;
                self.loop_depth -= 1;
                self.body_block = saved_block;
                self.scopes.pop();
                self.depth -= 1;
                Ok(())
            }
            StmtKind::Return { exprs } => {
                for e in exprs {
                    self.expr(e)?;
                }
                Ok(())
            }
            StmtKind::Expr { expr } => self.expr(expr),
            StmtKind::BlockStmt { block } => self.with_block(block),
            StmtKind::Defer { call } => self.expr(call),
            StmtKind::Switch {
                subject,
                cases,
                default,
            } => {
                self.expr(subject)?;
                for case in cases {
                    for v in &case.values {
                        self.expr(v)?;
                    }
                    self.with_block(&case.body)?;
                }
                if let Some(default) = default {
                    self.with_block(default)?;
                }
                Ok(())
            }
            StmtKind::Break | StmtKind::Continue => Ok(()),
            StmtKind::Free { target, .. } => self.expr(target),
        }
    }

    fn with_block(&mut self, block: &'p Block) -> Result<()> {
        let saved = self.body_block;
        self.body_block = block.id;
        let out = self.block(block);
        self.body_block = saved;
        out
    }

    fn enclosing_block(&self) -> BlockId {
        self.current_block_of_depth()
    }

    fn expr(&mut self, expr: &Expr) -> Result<()> {
        match &expr.kind {
            ExprKind::Ident(name) => {
                let id = self.lookup(name).ok_or_else(|| {
                    Diagnostic::new(format!("undefined variable `{name}`"), expr.span)
                })?;
                self.res.use_def.insert(expr.id, id);
                Ok(())
            }
            ExprKind::IntLit(_) | ExprKind::BoolLit(_) | ExprKind::StrLit(_) | ExprKind::Nil => {
                Ok(())
            }
            ExprKind::Unary { operand, .. } => self.expr(operand),
            ExprKind::Binary { lhs, rhs, .. } => {
                self.expr(lhs)?;
                self.expr(rhs)
            }
            ExprKind::Field { base, .. } => self.expr(base),
            ExprKind::Index { base, index } => {
                self.expr(base)?;
                self.expr(index)
            }
            ExprKind::SliceExpr { base, lo, hi } => {
                self.expr(base)?;
                if let Some(lo) = lo {
                    self.expr(lo)?;
                }
                if let Some(hi) = hi {
                    self.expr(hi)?;
                }
                Ok(())
            }
            ExprKind::Call { callee, args } => {
                if self.res.func_by_name(callee).is_none() {
                    return Err(Diagnostic::new(
                        format!("undefined function `{callee}`"),
                        expr.span,
                    ));
                }
                for a in args {
                    self.expr(a)?;
                }
                Ok(())
            }
            ExprKind::Builtin { args, .. } => {
                for a in args {
                    self.expr(a)?;
                }
                Ok(())
            }
            ExprKind::StructLit { fields, .. } => {
                for f in fields {
                    self.expr(f)?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn resolve_src(src: &str) -> (Program, Resolution) {
        let p = parse(src).expect("parse");
        let r = resolve(&p).expect("resolve");
        (p, r)
    }

    fn find_var<'r>(r: &'r Resolution, name: &str) -> &'r VarInfo {
        r.vars()
            .iter()
            .find(|v| v.name == name)
            .unwrap_or_else(|| panic!("no var {name}"))
    }

    #[test]
    fn params_results_and_locals_have_kinds() {
        let (_, r) = resolve_src("func f(a int) (out int) { b := a\n out = b\n return }\n");
        assert_eq!(find_var(&r, "a").kind, VarKind::Param);
        assert_eq!(find_var(&r, "out").kind, VarKind::Result);
        assert_eq!(find_var(&r, "b").kind, VarKind::Local);
        // Parameters and results have no declaring statement.
        assert_eq!(r.decl_stmt_of(VarId(0)), None);
        assert_eq!(r.decl_stmt_of(VarId(1)), None);
        assert!(r.decl_stmt_of(VarId(2)).is_some());
    }

    #[test]
    fn unnamed_results_are_synthesized() {
        let (p, r) = resolve_src("func f() (int, int) { return 1, 2 }\n");
        let results = r.results_of(p.funcs[0].id);
        assert_eq!(results.len(), 2);
        assert_eq!(r.var(results[0]).name, "$ret0");
        assert_eq!(r.var(results[1]).name, "$ret1");
    }

    #[test]
    fn decl_depth_tracks_nesting() {
        let (_, r) = resolve_src("func f() { a := 1\n { b := 2\n { c := 3\n c = b + a } } }\n");
        assert_eq!(find_var(&r, "a").decl_depth, 1);
        assert_eq!(find_var(&r, "b").decl_depth, 2);
        assert_eq!(find_var(&r, "c").decl_depth, 3);
    }

    #[test]
    fn loop_depth_tracks_for_nesting() {
        let (_, r) = resolve_src(
            "func f(n int) { a := 0\n for i := 0; i < n; i += 1 { b := i\n for j := 0; j < n; j += 1 { c := j\n c = b + a } } }\n",
        );
        assert_eq!(find_var(&r, "a").loop_depth, 0);
        // Loop variables are declared outside the iterated body.
        assert_eq!(find_var(&r, "i").loop_depth, 0);
        assert_eq!(find_var(&r, "b").loop_depth, 1);
        assert_eq!(find_var(&r, "j").loop_depth, 1);
        assert_eq!(find_var(&r, "c").loop_depth, 2);
    }

    #[test]
    fn shadowing_resolves_to_innermost() {
        let (p, r) = resolve_src("func f() { x := 1\n { x := 2\n x = 3 }\n x = 4 }\n");
        // Find the two `x = ...` assignments and compare their targets.
        let body = &p.funcs[0].body;
        let inner_assign = match &body.stmts[1].kind {
            StmtKind::BlockStmt { block } => match &block.stmts[1].kind {
                StmtKind::Assign { lhs, .. } => lhs[0].id,
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        };
        let outer_assign = match &body.stmts[2].kind {
            StmtKind::Assign { lhs, .. } => lhs[0].id,
            other => panic!("unexpected {other:?}"),
        };
        let inner_var = r.def_of(inner_assign).unwrap();
        let outer_var = r.def_of(outer_assign).unwrap();
        assert_ne!(inner_var, outer_var);
        assert_eq!(r.var(inner_var).decl_depth, 2);
        assert_eq!(r.var(outer_var).decl_depth, 1);
    }

    #[test]
    fn undefined_variable_is_an_error() {
        let p = parse("func f() { x = 1 }\n").unwrap();
        assert!(resolve(&p).is_err());
    }

    #[test]
    fn undefined_function_is_an_error() {
        let p = parse("func f() { g() }\n").unwrap();
        assert!(resolve(&p).is_err());
    }

    #[test]
    fn duplicate_function_is_an_error() {
        let p = parse("func f() {}\nfunc f() {}\n").unwrap();
        assert!(resolve(&p).is_err());
    }

    #[test]
    fn for_init_variable_visible_in_body_and_post() {
        let (_, r) =
            resolve_src("func f(n int) { for i := 0; i < n; i += 1 { x := i\n x = x } }\n");
        assert_eq!(find_var(&r, "i").kind, VarKind::Local);
    }

    #[test]
    fn var_decl_multiple_names() {
        let (p, r) = resolve_src("func f() { var a, b int = 1, 2\n a = b }\n");
        let stmt_id = p.funcs[0].body.stmts[0].id;
        assert!(r.decl_of(stmt_id, 0).is_some());
        assert!(r.decl_of(stmt_id, 1).is_some());
        assert_ne!(r.decl_of(stmt_id, 0), r.decl_of(stmt_id, 1));
        assert_eq!(r.decl_of(stmt_id, 2), None);
        for i in 0..2 {
            assert_eq!(
                r.decl_stmt_of(r.decl_of(stmt_id, i).unwrap()),
                Some(stmt_id)
            );
        }
    }

    #[test]
    fn block_depths_recorded() {
        let (p, r) = resolve_src("func f() { { } }\n");
        let body = &p.funcs[0].body;
        assert_eq!(r.depth_of_block(body.id), 1);
        if let StmtKind::BlockStmt { block } = &body.stmts[0].kind {
            assert_eq!(r.depth_of_block(block.id), 2);
        } else {
            panic!("expected block");
        }
    }

    #[test]
    fn multi_value_mismatch_is_error() {
        let p = parse("func f() { a, b := 1, 2, 3\n a = b }\n").unwrap();
        assert!(resolve(&p).is_err());
    }
}
