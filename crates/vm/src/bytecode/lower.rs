//! AST → bytecode lowering.
//!
//! Lowering is total: constructs the engine cannot execute become
//! [`Instr::TrapUnsupported`]/[`Instr::TrapInternal`] instructions that
//! only fail if reached, so lowered programs preserve the tree-walk's
//! runtime-error behaviour exactly.
//!
//! Every static decision the tree-walking interpreter makes per
//! execution — hash-map variable lookup, address-taken queries, escape
//! analysis placement, struct field resolution, zero-value
//! construction — is resolved here once: variables become dense frame
//! slots, allocation sites carry their heap/stack decision and sizes,
//! field accesses carry their index, and zero values live in the
//! constant pool.
//!
//! Expressions lower to three-address form. A leaf (a variable or a
//! literal) becomes a [`Src`] its consumer reads; any other expression
//! writes a temporary, a slot numbered above the variables and reused
//! from one statement to the next. When code is lowered between a leaf
//! operand and its consumer, the leaf's ticks are charged where the
//! tree-walk evaluates it ([`Instr::Tick`]), and only the read moves to
//! the consumer. That is invisible for a literal and for a variable
//! whose address is never taken: nothing can change it (no pointer to
//! it exists) and reading it cannot fail (it is declared before any use
//! and never holds a poisoned value). An address-taken variable is
//! copied into a temporary instead, because the code in between may
//! store through a pointer to it or free it.

use std::sync::Arc;

use minigo_escape::{AllocPlace, Analysis};
use minigo_syntax::{
    BinOp, Block, Builtin, Expr, ExprKind, Func, FuncId, Program, Resolution, Stmt, StmtKind, Type,
    TypeInfo, UnOp, VarId,
};

use super::ir::{BFunc, Const, Instr, Module, Src, SrcKind};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::interp::addr_taken_vars;

/// Lowers a checked (and, in GoFree mode, instrumented) program to
/// bytecode. Never fails: see the module docs.
pub fn lower(program: &Program, res: &Resolution, types: &TypeInfo, analysis: &Analysis) -> Module {
    let mut consts = ConstPool::default();
    let funcs = program
        .funcs
        .iter()
        .map(|f| lower_func(f, res, types, analysis, &mut consts))
        .collect();
    Module {
        funcs,
        consts: consts.pool,
    }
}

#[derive(Default)]
struct ConstPool {
    pool: Vec<Const>,
    scalars: FxHashMap<ScalarKey, u32>,
}

#[derive(PartialEq, Eq, Hash)]
enum ScalarKey {
    Int(i64),
    Bool(bool),
    Str(std::sync::Arc<str>),
    Nil,
}

impl ConstPool {
    fn add(&mut self, v: Const) -> u32 {
        let key = match &v {
            Const::Int(i) => Some(ScalarKey::Int(*i)),
            Const::Bool(b) => Some(ScalarKey::Bool(*b)),
            Const::Str(s) => Some(ScalarKey::Str(s.clone())),
            Const::Nil => Some(ScalarKey::Nil),
            _ => None,
        };
        if let Some(key) = key {
            if let Some(&idx) = self.scalars.get(&key) {
                return idx;
            }
            let idx = self.pool.len() as u32;
            self.pool.push(v);
            self.scalars.insert(key, idx);
            return idx;
        }
        let idx = self.pool.len() as u32;
        self.pool.push(v);
        idx
    }
}

fn lower_func(
    func: &Func,
    res: &Resolution,
    types: &TypeInfo,
    analysis: &Analysis,
    consts: &mut ConstPool,
) -> BFunc {
    let addr_taken = addr_taken_vars(&func.body, res);

    // Dense slot assignment: every variable the resolver attributed to
    // this function, in VarId order (parameters and results first, since
    // the resolver numbers them at function entry). The resolver numbers
    // one function's variables consecutively, so a variable's slot is its
    // offset from the first.
    let vars = res.vars_of(func.id);
    let first_var = vars.first().map_or(0, |v| v.0);
    assert!(
        vars.iter().zip(first_var..).all(|(v, id)| v.0 == id),
        "the variables of `{}` are not numbered consecutively",
        func.name
    );
    let slot_names: Arc<[String]> = vars.iter().map(|&v| res.var(v).name.clone()).collect();
    let nvars = slot_names.len() as u32;
    let boxed = vars.iter().map(|v| addr_taken.contains(v)).collect();

    let mut lo = FnLowerer {
        fid: func.id,
        res,
        types,
        analysis,
        addr_taken,
        first_var,
        boxed,
        consts,
        code: Vec::new(),
        patches: Vec::new(),
        break_stack: Vec::new(),
        continue_stack: Vec::new(),
        next_temp: nvars,
        nslots: nvars,
    };
    lo.lower_block(&func.body);
    lo.code.push(Instr::Ret);
    lo.apply_patches();

    let params = res
        .params_of(func.id)
        .iter()
        .map(|&v| (lo.slot(v), lo.addr_taken.contains(&v)))
        .collect();
    let results = res
        .results_of(func.id)
        .iter()
        .map(|&v| {
            let zero = types.var(v).map(|t| lo.consts.add(zero_value(t, types)));
            (lo.slot(v), lo.addr_taken.contains(&v), zero)
        })
        .collect();
    let code = std::mem::take(&mut lo.code);
    BFunc {
        name: func.name.clone(),
        nslots: lo.nslots,
        params,
        results,
        slot_names,
        code,
    }
}

/// Computes a type's zero value.
pub(crate) fn zero_value(ty: &Type, types: &TypeInfo) -> Const {
    match ty {
        Type::Int => Const::Int(0),
        Type::Bool => Const::Bool(false),
        Type::Str => Const::Str(std::sync::Arc::from("")),
        Type::Ptr(_) | Type::Slice(_) | Type::Map(_, _) => Const::Nil,
        Type::Named(name) => {
            let fields = types.fields_of(name).map(<[_]>::to_vec).unwrap_or_default();
            Const::Struct(fields.iter().map(|(_, t)| zero_value(t, types)).collect())
        }
    }
}

struct FnLowerer<'a> {
    fid: FuncId,
    res: &'a Resolution,
    types: &'a TypeInfo,
    analysis: &'a Analysis,
    addr_taken: FxHashSet<VarId>,
    /// The function's first variable: variable `v` lives in slot
    /// `v - first_var`.
    first_var: u32,
    /// Per variable slot, whether the variable is address-taken.
    boxed: Vec<bool>,
    consts: &'a mut ConstPool,
    code: Vec<Instr>,
    /// The back-patch table: every forward jump is emitted with a
    /// `usize::MAX` placeholder and recorded here with its resolved
    /// target; [`Self::apply_patches`] writes them all in one pass at
    /// the end of the function instead of re-touching `code` per patch.
    patches: Vec<(usize, usize)>,
    /// Per innermost breakable construct (loop or switch): indices of
    /// placeholder jumps to patch to the construct's end.
    break_stack: Vec<Vec<usize>>,
    /// Per innermost loop: placeholder jumps to patch to the post
    /// statement (continue target).
    continue_stack: Vec<Vec<usize>>,
    /// The next free temporary. Temporaries live within one statement,
    /// so each statement starts numbering where its parent stood.
    next_temp: u32,
    /// Slots used so far: the variables, then the most temporaries any
    /// statement held at once.
    nslots: u32,
}

impl<'a> FnLowerer<'a> {
    fn emit(&mut self, i: Instr) -> usize {
        self.code.push(i);
        self.code.len() - 1
    }

    fn here(&self) -> usize {
        self.code.len()
    }

    /// Records a jump patch; applied in bulk by [`Self::apply_patches`].
    fn patch(&mut self, at: usize, target: usize) {
        self.patches.push((at, target));
    }

    /// Applies the accumulated back-patch table. A `break`/`continue`
    /// placeholder that was rewritten to `Ret` (stray outside any loop)
    /// never reaches here, so every patched instruction must be a jump.
    fn apply_patches(&mut self) {
        for &(at, target) in &self.patches {
            match self.code[at].jump_target_mut() {
                Some(t) => *t = target,
                None => unreachable!("patching non-jump {:?}", self.code[at]),
            }
        }
        self.patches.clear();
    }

    fn slot(&self, var: VarId) -> u32 {
        var.0
            .checked_sub(self.first_var)
            .filter(|&slot| (slot as usize) < self.boxed.len())
            .unwrap_or_else(|| panic!("{var:?} is not a variable of this function"))
    }

    fn intern(&mut self, v: Const) -> u32 {
        self.consts.add(v)
    }

    /// `n` fresh consecutive temporaries; the first one's slot.
    fn temps(&mut self, n: u32) -> u32 {
        let t = self.next_temp;
        self.next_temp += n;
        self.nslots = self.nslots.max(self.next_temp);
        t
    }

    fn temp(&mut self) -> u32 {
        self.temps(1)
    }

    fn heap_placed(&self, e: &Expr) -> bool {
        self.analysis.place_of(e.id) == AllocPlace::Heap
    }

    fn expr_size(&self, e: &Expr) -> u64 {
        self.types
            .expr(e.id)
            .map(|t| self.types.inline_size(t))
            .unwrap_or(8)
    }

    // ---- operands ----

    /// Whether `e` lowers to a [`Src`] without emitting anything.
    fn is_leaf(&self, e: &Expr) -> bool {
        match &e.kind {
            ExprKind::IntLit(_) | ExprKind::BoolLit(_) | ExprKind::StrLit(_) | ExprKind::Nil => {
                true
            }
            ExprKind::Ident(_) => self.res.def_of(e.id).is_some(),
            _ => false,
        }
    }

    /// A leaf's operand: a variable, or a literal charging its tick.
    fn leaf(&mut self, e: &Expr) -> Option<Src> {
        let c = match &e.kind {
            ExprKind::IntLit(v) => Const::Int(*v),
            ExprKind::BoolLit(b) => Const::Bool(*b),
            ExprKind::StrLit(s) => Const::Str(std::sync::Arc::from(s.as_str())),
            ExprKind::Nil => Const::Nil,
            ExprKind::Ident(_) => return Some(Src::var(self.slot(self.res.def_of(e.id)?))),
            _ => return None,
        };
        Some(Src::k(self.intern(c), 1))
    }

    /// Evaluates `s` here into a value of its own, as the tree-walk
    /// would at this point: a variable is copied into a temporary, a
    /// literal's ticks charged. For values that separate instructions
    /// consume, such as a multi-value assignment's, where a store in
    /// between may change the variable.
    fn pin(&mut self, s: Src) -> Src {
        if s.kind == SrcKind::Var {
            let dst = self.temp();
            self.emit(Instr::Move { dst, src: s });
            return Src::tmp(dst);
        }
        self.settle(s)
    }

    /// Charges `s`'s ticks here, where the tree-walk evaluates it, and
    /// leaves the read to its consumer (see the module docs); an
    /// address-taken variable is pinned.
    fn settle(&mut self, s: Src) -> Src {
        if s.kind == SrcKind::Var && self.boxed[s.at as usize] {
            return self.pin(s);
        }
        if s.ticks > 0 {
            self.emit(Instr::Tick(u32::from(s.ticks)));
        }
        Src { ticks: 0, ..s }
    }

    /// `s` as an operand read before `next` is lowered: settled unless
    /// `next` is a leaf (which emits nothing in between).
    fn before(&mut self, s: Src, next: &Expr) -> Src {
        if self.is_leaf(next) {
            s
        } else {
            self.settle(s)
        }
    }

    /// Lowers `es` left to right into one instruction's operands.
    fn operands<'e>(&mut self, es: impl IntoIterator<Item = &'e Expr>) -> Box<[Src]> {
        let mut ops: Vec<Src> = Vec::new();
        for e in es {
            if !self.is_leaf(e) {
                for s in &mut ops {
                    *s = self.settle(*s);
                }
            }
            let s = self.lower_expr(e);
            ops.push(s);
        }
        ops.into()
    }

    /// The operands of `base[index]`, read after a store's `val`.
    fn index_operands(&mut self, val: Option<&mut Src>, base: &Expr, index: &Expr) -> (Src, Src) {
        let mut val = val;
        if let Some(v) = val.as_deref_mut() {
            *v = self.before(*v, base);
        }
        let mut b = self.lower_expr(base);
        if !self.is_leaf(index) {
            if let Some(v) = val {
                *v = self.settle(*v);
            }
            b = self.settle(b);
            // The tree-walk checks the base before it evaluates the index.
            self.emit(Instr::CheckIndexBase(b));
        }
        (b, self.lower_expr(index))
    }

    // ---- statements ----

    fn lower_block(&mut self, block: &Block) {
        let mut prev_was_free = false;
        for stmt in &block.stmts {
            self.emit(Instr::Safepoint);
            let is_free = matches!(stmt.kind, StmtKind::Free { .. });
            let mark = self.next_temp;
            self.lower_stmt(stmt, is_free && prev_was_free);
            self.next_temp = mark;
            prev_was_free = is_free;
        }
    }

    fn lower_stmt(&mut self, stmt: &Stmt, follows_free: bool) {
        match &stmt.kind {
            StmtKind::VarDecl { names, ty, init } => {
                if init.is_empty() {
                    // Zero initialization evaluates nothing.
                    let zero = Src::k(self.intern(zero_value(ty, self.types)), 0);
                    for i in 0..names.len() {
                        self.lower_decl(stmt.id, i, zero);
                    }
                } else {
                    self.lower_decl_inits(stmt.id, names.len(), init);
                }
            }
            StmtKind::ShortDecl { names, init } => {
                self.lower_decl_inits(stmt.id, names.len(), init);
            }
            StmtKind::Assign { lhs, op, rhs } => {
                if let Some(op) = op {
                    let a = self.lower_expr(&lhs[0]);
                    let a = self.before(a, &rhs[0]);
                    let b = self.lower_expr(&rhs[0]);
                    // The operator applies directly: no node tick.
                    let var = self.var_of(&lhs[0]);
                    let dst = var.unwrap_or_else(|| self.temp());
                    let op = *op;
                    self.emit(Instr::Bin {
                        op,
                        dst,
                        a,
                        b,
                        ticks: 0,
                    });
                    if var.is_none() {
                        self.lower_store(&lhs[0], Src::tmp(dst));
                    }
                    return;
                }
                if let ([l], [r]) = (&lhs[..], &rhs[..]) {
                    match self.var_of(l) {
                        Some(dst) => self.lower_into(r, dst),
                        None => {
                            let v = self.lower_expr(r);
                            self.lower_store(l, v);
                        }
                    }
                    return;
                }
                let values = self.lower_values(rhs, lhs.len());
                for (l, v) in lhs.iter().zip(values) {
                    self.lower_store(l, v);
                }
            }
            StmtKind::If { cond, then, els } => {
                let jf = self.lower_cond(cond, false);
                self.lower_block(then);
                if let Some(els) = els {
                    let jend = self.emit(Instr::Jump(usize::MAX));
                    let else_at = self.here();
                    self.patch(jf, else_at);
                    self.lower_stmt(els, false);
                    let end = self.here();
                    self.patch(jend, end);
                } else {
                    let end = self.here();
                    self.patch(jf, end);
                }
            }
            StmtKind::For {
                init,
                cond,
                post,
                body,
            } => {
                if let Some(init) = init {
                    self.lower_stmt(init, false);
                }
                // The condition sits at the bottom, so an iteration takes
                // one branch: enter at the condition, loop back while it
                // holds.
                let enter = cond.as_ref().map(|_| self.emit(Instr::Jump(usize::MAX)));
                let top = self.here();
                self.break_stack.push(Vec::new());
                self.continue_stack.push(Vec::new());
                self.lower_block(body);
                let post_at = self.here();
                if let Some(post) = post {
                    self.lower_stmt(post, false);
                }
                self.emit(Instr::Safepoint);
                match cond {
                    Some(cond) => {
                        let at = self.here();
                        self.patch(enter.expect("emitted with the condition"), at);
                        let back = self.lower_cond(cond, true);
                        self.patch(back, top);
                    }
                    None => {
                        self.emit(Instr::Jump(top));
                    }
                }
                let end = self.here();
                for at in self.break_stack.pop().expect("pushed above") {
                    self.patch(at, end);
                }
                for at in self.continue_stack.pop().expect("pushed above") {
                    self.patch(at, post_at);
                }
            }
            StmtKind::Return { exprs } => {
                let results = self.res.results_of(self.fid);
                if let ([e], [r]) = (&exprs[..], results) {
                    let dst = self.slot(*r);
                    self.lower_into(e, dst);
                } else if !exprs.is_empty() {
                    let results = results.to_vec();
                    let values = self.lower_values(exprs, results.len());
                    for (&rvar, src) in results.iter().zip(values) {
                        let dst = self.slot(rvar);
                        self.emit(Instr::Move { dst, src });
                    }
                }
                self.emit(Instr::Ret);
            }
            StmtKind::Expr { expr } => {
                if matches!(expr.kind, ExprKind::Call { .. }) {
                    self.lower_call(expr, 0, u32::MAX);
                } else {
                    let s = self.lower_expr(expr);
                    self.settle(s);
                }
            }
            StmtKind::BlockStmt { block } => self.lower_block(block),
            StmtKind::Defer { call } => match &call.kind {
                ExprKind::Call { callee, args } => {
                    match self.res.func_by_name(callee) {
                        Some(fid) => {
                            let args = self.operands(args);
                            self.emit(Instr::DeferFunc {
                                fid: fid.index() as u32,
                                args,
                            });
                        }
                        None => {
                            self.emit(Instr::TrapInternal("unknown callee".into()));
                        }
                    };
                }
                ExprKind::Builtin { kind, args, .. } => {
                    let args = self.operands(args);
                    self.emit(Instr::DeferBuiltin {
                        builtin: *kind,
                        args,
                    });
                }
                _ => {
                    self.emit(Instr::TrapInternal("defer of non-call".into()));
                }
            },
            StmtKind::Switch {
                subject,
                cases,
                default,
            } => {
                let s = self.lower_expr(subject);
                let subject = self.settle(s);
                let mut case_jumps: Vec<Vec<usize>> = Vec::new();
                for case in cases {
                    let mut jumps = Vec::new();
                    for v in &case.values {
                        let case = self.lower_expr(v);
                        jumps.push(self.emit(Instr::CaseJump {
                            subject,
                            case,
                            t: usize::MAX,
                        }));
                    }
                    case_jumps.push(jumps);
                }
                // No case matched: run the default.
                let mut end_jumps = Vec::new();
                if let Some(default) = default {
                    self.break_stack.push(Vec::new());
                    self.lower_block(default);
                    let breaks = self.break_stack.pop().expect("pushed above");
                    end_jumps.extend(breaks);
                }
                end_jumps.push(self.emit(Instr::Jump(usize::MAX)));
                for (case, jumps) in cases.iter().zip(case_jumps) {
                    let body_at = self.here();
                    for at in jumps {
                        self.patch(at, body_at);
                    }
                    self.break_stack.push(Vec::new());
                    self.lower_block(&case.body);
                    let breaks = self.break_stack.pop().expect("pushed above");
                    end_jumps.extend(breaks);
                    end_jumps.push(self.emit(Instr::Jump(usize::MAX)));
                }
                let end = self.here();
                for at in end_jumps {
                    self.patch(at, end);
                }
            }
            StmtKind::Break => {
                let at = self.emit(Instr::Jump(usize::MAX));
                match self.break_stack.last_mut() {
                    Some(patches) => patches.push(at),
                    // A stray break outside any loop leaves the function
                    // body, which the call protocol treats as a return.
                    None => self.code[at] = Instr::Ret,
                }
            }
            StmtKind::Continue => {
                let at = self.emit(Instr::Jump(usize::MAX));
                match self.continue_stack.last_mut() {
                    Some(patches) => patches.push(at),
                    None => self.code[at] = Instr::Ret,
                }
            }
            StmtKind::Free { target, .. } => {
                let src = self.lower_expr(target);
                self.emit(Instr::Tcfree { src, follows_free });
            }
        }
    }

    /// The slot of `e` when it is a resolved variable.
    fn var_of(&self, e: &Expr) -> Option<u32> {
        match e.kind {
            ExprKind::Ident(_) => self.res.def_of(e.id).map(|v| self.slot(v)),
            _ => None,
        }
    }

    /// Lowers a condition; returns the branch to patch to where control
    /// goes when it is `when`.
    fn lower_cond(&mut self, cond: &Expr, when: bool) -> usize {
        let t = usize::MAX;
        if let ExprKind::Binary { op, lhs, rhs } = &cond.kind {
            if !matches!(op, BinOp::And | BinOp::Or) {
                let a = self.lower_expr(lhs);
                let a = self.before(a, rhs);
                let b = self.lower_expr(rhs);
                let op = *op;
                return self.emit(Instr::BrCmp { op, a, b, when, t });
            }
        }
        let cond = self.lower_expr(cond);
        self.emit(Instr::JumpIf { cond, when, t })
    }

    /// Lowers a value list (the tree-walk's evaluate-all-then-assign):
    /// one call in multi-value position yields its results, anything
    /// else one value per expression. Every value is pinned, since each
    /// is consumed by an instruction of its own.
    fn lower_values(&mut self, exprs: &[Expr], want: usize) -> Vec<Src> {
        if let [e @ Expr {
            kind: ExprKind::Call { .. },
            ..
        }] = exprs
        {
            if want > 1 {
                let dst = self.temps(want as u32);
                self.lower_call(e, dst, want as u32);
                return (dst..dst + want as u32).map(Src::tmp).collect();
            }
        }
        let ops = self.operands(exprs);
        ops.iter().map(|&s| self.pin(s)).collect()
    }

    /// Lowers a declaration's initializer list and the declares
    /// themselves, preserving the tree-walk's evaluate-all-then-declare
    /// order.
    fn lower_decl_inits(&mut self, stmt: minigo_syntax::StmtId, nnames: usize, init: &[Expr]) {
        let values = match init {
            [e] if nnames == 1 || !matches!(e.kind, ExprKind::Call { .. }) => {
                vec![self.lower_expr(e)]
            }
            _ => self.lower_values(init, nnames),
        };
        for (i, src) in values.into_iter().enumerate() {
            self.lower_decl(stmt, i, src);
        }
    }

    /// Emits the declare for `decl_of(stmt, idx)` with initial value
    /// `src`.
    fn lower_decl(&mut self, stmt: minigo_syntax::StmtId, idx: usize, src: Src) {
        let Some(var) = self.res.decl_of(stmt, idx) else {
            self.emit(Instr::TrapInternal("unresolved decl".into()));
            return;
        };
        let boxed = self.addr_taken.contains(&var);
        self.emit(Instr::Declare {
            slot: self.slot(var),
            src,
            boxed,
            heap: boxed && boxed_on_heap(self.analysis, self.fid, var),
            size: var_size(self.types, var),
        });
    }

    /// Lowers a call expression. `want` is the expected result arity
    /// (`u32::MAX` discards), stored from `dst` up.
    fn lower_call(&mut self, e: &Expr, dst: u32, want: u32) {
        let ExprKind::Call { callee, args } = &e.kind else {
            unreachable!("lower_call on non-call");
        };
        let Some(fid) = self.res.func_by_name(callee) else {
            self.emit(Instr::TrapInternal("unknown callee".into()));
            return;
        };
        let args = self.operands(args);
        self.emit(Instr::Call {
            fid: fid.index() as u32,
            args,
            dst,
            want,
        });
    }

    // ---- expressions ----

    /// Lowers `e` to the operand its consumer reads: a leaf as itself,
    /// anything else into a fresh temporary.
    fn lower_expr(&mut self, e: &Expr) -> Src {
        if let Some(s) = self.leaf(e) {
            return s;
        }
        let dst = self.temp();
        self.lower_into(e, dst);
        Src::tmp(dst)
    }

    /// Lowers `e` so that its value ends up in slot `dst`. Every
    /// instruction stores its result after reading all its operands, so
    /// `dst` may be one of the variables `e` reads.
    fn lower_into(&mut self, e: &Expr, dst: u32) {
        if let Some(src) = self.leaf(e) {
            self.emit(Instr::Move { dst, src });
            return;
        }
        match &e.kind {
            ExprKind::IntLit(_)
            | ExprKind::BoolLit(_)
            | ExprKind::StrLit(_)
            | ExprKind::Nil
            | ExprKind::Ident(_) => {
                self.emit(Instr::TrapInternal("unresolved ident".into()));
            }
            ExprKind::Unary { op, operand } => match op {
                UnOp::Neg => {
                    let src = self.lower_expr(operand);
                    self.emit(Instr::Neg { dst, src });
                }
                UnOp::Not => {
                    let src = self.lower_expr(operand);
                    self.emit(Instr::Not { dst, src });
                }
                UnOp::Addr => self.lower_addr_of(operand, dst),
                UnOp::Deref => {
                    let ptr = self.lower_expr(operand);
                    self.emit(Instr::Deref { dst, ptr });
                }
            },
            ExprKind::Binary { op, lhs, rhs } => match op {
                BinOp::And | BinOp::Or => {
                    // The result is written twice, so never straight
                    // into a variable the right operand may read.
                    let var = (dst as usize) < self.boxed.len();
                    let d = if var { self.temp() } else { dst };
                    self.emit(Instr::Tick(1));
                    self.lower_into(lhs, d);
                    let j = self.emit(Instr::JumpIf {
                        cond: Src::tmp(d),
                        when: *op == BinOp::Or,
                        t: usize::MAX,
                    });
                    self.lower_into(rhs, d);
                    self.emit(Instr::AssertBool(Src::tmp(d)));
                    let end = self.here();
                    self.patch(j, end);
                    if d != dst {
                        self.emit(Instr::Move {
                            dst,
                            src: Src::tmp(d),
                        });
                    }
                }
                _ => {
                    let a = self.lower_expr(lhs);
                    let a = self.before(a, rhs);
                    let b = self.lower_expr(rhs);
                    self.emit(Instr::Bin {
                        op: *op,
                        dst,
                        a,
                        b,
                        ticks: 1,
                    });
                }
            },
            ExprKind::Field { base, name } => {
                let b = self.lower_expr(base);
                match field_target(self.types, base, name) {
                    Ok((idx, through_ptr)) => {
                        self.emit(Instr::GetField {
                            dst,
                            base: b,
                            idx: idx as u32,
                            through_ptr,
                        });
                    }
                    Err(msg) => {
                        self.pin(b);
                        self.emit(Instr::TrapInternal(msg.into()));
                    }
                }
            }
            ExprKind::Index { base, index } => {
                let (base, idx) = self.index_operands(None, base, index);
                self.emit(Instr::IndexGet { dst, base, idx });
            }
            ExprKind::SliceExpr { base, lo, hi } => {
                let bounds = lo.iter().chain(hi).map(|b| &**b);
                let ops = self.operands(std::iter::once(&**base).chain(bounds));
                // An absent low bound is a 0 the tree-walk never evaluates.
                let lo = match lo {
                    Some(_) => ops[1],
                    None => Src::k(self.intern(Const::Int(0)), 0),
                };
                self.emit(Instr::ReSlice {
                    dst,
                    base: ops[0],
                    lo,
                    hi: hi.as_ref().map(|_| ops[ops.len() - 1]),
                });
            }
            ExprKind::Call { .. } => self.lower_call(e, dst, 1),
            ExprKind::Builtin {
                kind,
                ty_args,
                args,
            } => {
                self.lower_builtin(e, *kind, ty_args, args, dst);
            }
            ExprKind::StructLit { fields, .. } => {
                let fields = self.operands(fields);
                self.emit(Instr::MakeStruct { dst, fields });
            }
        }
    }

    fn lower_addr_of(&mut self, operand: &Expr, dst: u32) {
        match &operand.kind {
            ExprKind::Ident(_) => match self.res.def_of(operand.id) {
                Some(var) => {
                    let slot = self.slot(var);
                    self.emit(Instr::AddrOfSlot { dst, slot });
                }
                None => {
                    self.emit(Instr::TrapInternal("unresolved ident".into()));
                }
            },
            ExprKind::StructLit { .. } => {
                let src = self.lower_expr(operand);
                self.emit(Instr::AllocBox {
                    dst,
                    src,
                    heap: self.heap_placed(operand),
                    size: self.expr_size(operand),
                    site: operand.id,
                });
            }
            ExprKind::Unary {
                op: UnOp::Deref,
                operand: inner,
            } => {
                // `&*p` evaluates to `p`; the `&` node still ticks.
                self.emit(Instr::Tick(1));
                self.lower_into(inner, dst);
            }
            other => {
                self.emit(Instr::TrapUnsupported(
                    format!("interior pointers (&{other:?}) are not supported by the VM").into(),
                ));
            }
        }
    }

    fn lower_builtin(
        &mut self,
        e: &Expr,
        kind: Builtin,
        ty_args: &[Type],
        args: &[Expr],
        dst: u32,
    ) {
        match kind {
            Builtin::Make => match ty_args.first() {
                Some(Type::Slice(elem)) => {
                    let ops = self.operands(&args[..args.len().min(2)]);
                    let zero = self.intern(zero_value(elem, self.types));
                    self.emit(Instr::MakeSlice {
                        dst,
                        len: ops[0],
                        cap: ops.get(1).copied(),
                        elem_size: self.types.inline_size(elem),
                        heap: self.heap_placed(e),
                        site: e.id,
                        zero,
                    });
                }
                Some(Type::Map(_, v)) => {
                    let default = self.intern(zero_value(v, self.types));
                    self.emit(Instr::MakeMap {
                        dst,
                        entry_size: 16 + self.types.inline_size(v),
                        heap: self.heap_placed(e),
                        site: e.id,
                        default,
                    });
                }
                _ => {
                    self.emit(Instr::TrapInternal("make of bad type".into()));
                }
            },
            Builtin::New => match ty_args.first() {
                Some(ty) => {
                    let zero = self.intern(zero_value(ty, self.types));
                    self.emit(Instr::NewPtr {
                        dst,
                        size: self.types.inline_size(ty),
                        heap: self.heap_placed(e),
                        site: e.id,
                        zero,
                    });
                }
                None => {
                    self.emit(Instr::TrapInternal("make of bad type".into()));
                }
            },
            Builtin::Append => {
                let ops = self.operands(&args[..2]);
                let elem_size = match self.types.expr(args[0].id) {
                    Some(Type::Slice(elem)) => self.types.inline_size(elem),
                    _ => 8,
                };
                self.emit(Instr::Append {
                    dst,
                    slice: ops[0],
                    item: ops[1],
                    elem_size,
                    site: e.id,
                });
            }
            Builtin::Len => {
                let src = self.lower_expr(&args[0]);
                self.emit(Instr::Len { dst, src });
            }
            Builtin::Cap => {
                let src = self.lower_expr(&args[0]);
                self.emit(Instr::Cap { dst, src });
            }
            Builtin::Delete => {
                let ops = self.operands(&args[..2]);
                self.emit(Instr::MapDelete {
                    dst,
                    map: ops[0],
                    key: ops[1],
                });
            }
            Builtin::Panic => {
                let src = self.lower_expr(&args[0]);
                self.emit(Instr::Panic(src));
            }
            Builtin::Print => {
                let args = self.operands(args);
                self.emit(Instr::Print { dst, args });
            }
            Builtin::Itoa => {
                let src = self.lower_expr(&args[0]);
                self.emit(Instr::Itoa { dst, src });
            }
        }
    }

    // ---- lvalues ----

    /// Lowers a store of `val` (an operand read before anything the
    /// lvalue evaluates) into `lv`.
    fn lower_store(&mut self, lv: &Expr, val: Src) {
        match &lv.kind {
            ExprKind::Ident(_) => match self.res.def_of(lv.id) {
                Some(var) => {
                    let dst = self.slot(var);
                    self.emit(Instr::Move { dst, src: val });
                }
                None => {
                    self.emit(Instr::TrapInternal("unresolved ident".into()));
                }
            },
            ExprKind::Unary {
                op: UnOp::Deref,
                operand,
            } => {
                let val = self.before(val, operand);
                let ptr = self.lower_expr(operand);
                self.emit(Instr::DerefSet { val, ptr });
            }
            ExprKind::Field { base, name } => {
                let val = self.before(val, base);
                let b = self.lower_expr(base);
                match field_target(self.types, base, name) {
                    Ok((idx, true)) => {
                        self.emit(Instr::FieldSetPtr {
                            val,
                            ptr: b,
                            idx: idx as u32,
                        });
                    }
                    Ok((idx, false)) => {
                        let dst = self.temp();
                        self.emit(Instr::StructSetField {
                            dst,
                            val,
                            base: b,
                            idx: idx as u32,
                        });
                        self.lower_store(base, Src::tmp(dst));
                    }
                    Err(msg) => {
                        self.pin(val);
                        self.pin(b);
                        self.emit(Instr::TrapInternal(msg.into()));
                    }
                }
            }
            ExprKind::Index { base, index } => {
                let mut val = val;
                let (base, idx) = self.index_operands(Some(&mut val), base, index);
                self.emit(Instr::IndexSet { val, base, idx });
            }
            _ => {
                self.emit(Instr::TrapInternal("bad lvalue".into()));
            }
        }
    }
}

/// Resolves a field access statically: the field's index and whether
/// the base is accessed through a pointer.
pub(crate) fn field_target(
    types: &TypeInfo,
    base: &Expr,
    field: &str,
) -> Result<(usize, bool), String> {
    let (sname, through_ptr) = match types.expr(base.id) {
        Some(Type::Named(n)) => (n, false),
        Some(Type::Ptr(inner)) => match &**inner {
            Type::Named(n) => (n, true),
            _ => return Err("pointer to non-struct".into()),
        },
        other => return Err(format!("no struct type for base: {other:?}")),
    };
    let idx = types
        .fields_of(sname)
        .and_then(|fs| fs.iter().position(|(f, _)| f == field))
        .ok_or_else(|| format!("no field {field} on {sname}"))?;
    Ok((idx, through_ptr))
}

/// Whether the escape analysis put the box of address-taken variable
/// `var` (declared in function `fid`) on the heap.
pub(crate) fn boxed_on_heap(analysis: &Analysis, fid: FuncId, var: VarId) -> bool {
    let Some(fg) = analysis.funcs.get(fid) else {
        return false;
    };
    let loc = fg.var_locs.get(&var);
    loc.is_some_and(|&loc| fg.graph.loc(loc).heap_alloc)
}

/// The bytes a variable's box is accounted at.
pub(crate) fn var_size(types: &TypeInfo, var: VarId) -> u64 {
    types.var(var).map(|t| types.inline_size(t)).unwrap_or(8)
}
