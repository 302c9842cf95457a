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

use minigo_escape::{AllocPlace, Analysis};
use minigo_syntax::{
    BinOp, Block, Builtin, Expr, ExprKind, Func, FuncId, Program, Resolution, Stmt, StmtKind, Type,
    TypeInfo, UnOp, VarId,
};

use super::ir::{BFunc, Const, Instr, Module};
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
    Str(String),
    Nil,
}

impl ConstPool {
    fn add(&mut self, v: Const) -> u32 {
        let key = match &v {
            Const::Int(i) => Some(ScalarKey::Int(*i)),
            Const::Bool(b) => Some(ScalarKey::Bool(*b)),
            Const::Str(s) => Some(ScalarKey::Str(s.to_string())),
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
    // the resolver numbers them at function entry).
    let mut slot_of = FxHashMap::default();
    let mut slot_names = Vec::new();
    for &v in res.vars_of(func.id) {
        slot_of.insert(v, slot_names.len() as u32);
        slot_names.push(res.var(v).name.clone());
    }

    let mut lo = FnLowerer {
        fid: func.id,
        res,
        types,
        analysis,
        addr_taken,
        slot_of,
        consts,
        code: Vec::new(),
        patches: Vec::new(),
        break_stack: Vec::new(),
        continue_stack: Vec::new(),
    };
    lo.lower_block(&func.body);
    lo.code.push(Instr::Ret);
    lo.apply_patches();

    let params = res
        .params_of(func.id)
        .iter()
        .map(|&v| (lo.slot_of[&v], lo.addr_taken.contains(&v)))
        .collect();
    let results = res
        .results_of(func.id)
        .iter()
        .map(|&v| {
            let zero = types.var(v).map(|t| lo.consts.add(zero_value(t, types)));
            (lo.slot_of[&v], lo.addr_taken.contains(&v), zero)
        })
        .collect();
    let code = std::mem::take(&mut lo.code);
    BFunc {
        name: func.name.clone(),
        nslots: slot_names.len() as u32,
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
    slot_of: FxHashMap<VarId, u32>,
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
        self.slot_of[&var]
    }

    fn intern(&mut self, v: Const) -> u32 {
        self.consts.add(v)
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

    // ---- statements ----

    fn lower_block(&mut self, block: &Block) {
        let mut prev_was_free = false;
        for stmt in &block.stmts {
            self.emit(Instr::Safepoint);
            let is_free = matches!(stmt.kind, StmtKind::Free { .. });
            self.lower_stmt(stmt, is_free && prev_was_free);
            prev_was_free = is_free;
        }
    }

    fn lower_stmt(&mut self, stmt: &Stmt, follows_free: bool) {
        match &stmt.kind {
            StmtKind::VarDecl { names, ty, init } => {
                if init.is_empty() {
                    // Zero initialization evaluates nothing, so the
                    // per-name push/declare interleave preserves the
                    // tree-walk's declaration (and alloc) order.
                    let zero = self.intern(zero_value(ty, self.types));
                    for i in 0..names.len() {
                        self.emit(Instr::ConstRaw(zero));
                        self.lower_decl(stmt.id, i);
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
                    self.lower_expr(&lhs[0]);
                    self.lower_expr(&rhs[0]);
                    self.emit(Instr::BinRaw(*op));
                    self.lower_store(&lhs[0]);
                    return;
                }
                let n = if rhs.len() == 1 && lhs.len() > 1 {
                    self.lower_multi(&rhs[0], lhs.len())
                } else {
                    for e in rhs {
                        self.lower_expr(e);
                    }
                    rhs.len()
                };
                if n > 1 {
                    self.emit(Instr::ReverseN(n as u32));
                }
                for l in lhs.iter().take(n) {
                    self.lower_store(l);
                }
            }
            StmtKind::If { cond, then, els } => {
                self.lower_expr(cond);
                let jf = self.emit(Instr::JumpIfFalse(usize::MAX));
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
                let top = self.here();
                let exit = if let Some(cond) = cond {
                    self.lower_expr(cond);
                    Some(self.emit(Instr::JumpIfFalse(usize::MAX)))
                } else {
                    None
                };
                self.break_stack.push(Vec::new());
                self.continue_stack.push(Vec::new());
                self.lower_block(body);
                let post_at = self.here();
                if let Some(post) = post {
                    self.lower_stmt(post, false);
                }
                self.emit(Instr::Safepoint);
                self.emit(Instr::Jump(top));
                let end = self.here();
                if let Some(exit) = exit {
                    self.patch(exit, end);
                }
                for at in self.break_stack.pop().expect("pushed above") {
                    self.patch(at, end);
                }
                for at in self.continue_stack.pop().expect("pushed above") {
                    self.patch(at, post_at);
                }
            }
            StmtKind::Return { exprs } => {
                let results = self.res.results_of(self.fid).to_vec();
                if !exprs.is_empty() {
                    let n = if exprs.len() == 1 && results.len() > 1 {
                        self.lower_multi(&exprs[0], results.len())
                    } else {
                        for e in exprs {
                            self.lower_expr(e);
                        }
                        exprs.len()
                    };
                    if n > 1 {
                        self.emit(Instr::ReverseN(n as u32));
                    }
                    for &rvar in results.iter().take(n) {
                        let slot = self.slot(rvar);
                        self.emit(Instr::StoreSlot(slot));
                    }
                }
                self.emit(Instr::Ret);
            }
            StmtKind::Expr { expr } => {
                if matches!(expr.kind, ExprKind::Call { .. }) {
                    self.lower_call(expr, u32::MAX, false);
                } else {
                    self.lower_expr(expr);
                    self.emit(Instr::Pop(1));
                }
            }
            StmtKind::BlockStmt { block } => self.lower_block(block),
            StmtKind::Defer { call } => match &call.kind {
                ExprKind::Call { callee, args } => {
                    match self.res.func_by_name(callee) {
                        Some(fid) => {
                            for a in args {
                                self.lower_expr(a);
                            }
                            self.emit(Instr::DeferFunc {
                                fid: fid.index(),
                                nargs: args.len() as u32,
                            });
                        }
                        None => {
                            self.emit(Instr::TrapInternal("unknown callee".into()));
                        }
                    };
                }
                ExprKind::Builtin { kind, args, .. } => {
                    for a in args {
                        self.lower_expr(a);
                    }
                    self.emit(Instr::DeferBuiltin {
                        builtin: *kind,
                        nargs: args.len() as u32,
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
                self.lower_expr(subject);
                let mut case_jumps: Vec<Vec<usize>> = Vec::new();
                for case in cases {
                    let mut jumps = Vec::new();
                    for v in &case.values {
                        self.lower_expr(v);
                        jumps.push(self.emit(Instr::CaseJump(usize::MAX)));
                    }
                    case_jumps.push(jumps);
                }
                // No case matched: drop the subject, run the default.
                self.emit(Instr::Pop(1));
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
                self.lower_expr(target);
                self.emit(Instr::Tcfree { follows_free });
            }
        }
    }

    /// Lowers a declaration's initializer list and the declares
    /// themselves, preserving the tree-walk's evaluate-all-then-declare
    /// order.
    fn lower_decl_inits(&mut self, stmt: minigo_syntax::StmtId, nnames: usize, init: &[Expr]) {
        let n = if init.len() == 1 && nnames > 1 {
            self.lower_multi(&init[0], nnames)
        } else {
            for e in init {
                self.lower_expr(e);
            }
            init.len()
        };
        if n > 1 {
            self.emit(Instr::ReverseN(n as u32));
        }
        for i in 0..n {
            self.lower_decl(stmt, i);
        }
    }

    /// Emits the declare for `decl_of(stmt, idx)`; the initial value is
    /// on the stack.
    fn lower_decl(&mut self, stmt: minigo_syntax::StmtId, idx: usize) {
        let Some(var) = self.res.decl_of(stmt, idx) else {
            self.emit(Instr::TrapInternal("unresolved decl".into()));
            return;
        };
        let boxed = self.addr_taken.contains(&var);
        self.emit(Instr::Declare {
            slot: self.slot(var),
            boxed,
            heap: boxed && boxed_on_heap(self.analysis, self.fid, var),
            size: var_size(self.types, var),
        });
    }

    /// Lowers an expression in multi-value position (the tree-walk's
    /// `eval_multi`): a call pushes its results, anything else a single
    /// value. Returns how many values are on the stack.
    fn lower_multi(&mut self, e: &Expr, want: usize) -> usize {
        if matches!(e.kind, ExprKind::Call { .. }) {
            self.lower_call(e, want as u32, false);
            want
        } else {
            self.lower_expr(e);
            1
        }
    }

    /// Lowers a call expression. `want` is the expected result arity
    /// (`u32::MAX` discards); `value_pos` marks single-value expression
    /// position, which charges the call node's own tick.
    fn lower_call(&mut self, e: &Expr, want: u32, value_pos: bool) {
        let ExprKind::Call { callee, args } = &e.kind else {
            unreachable!("lower_call on non-call");
        };
        let Some(fid) = self.res.func_by_name(callee) else {
            self.emit(Instr::TrapInternal("unknown callee".into()));
            return;
        };
        for a in args {
            self.lower_expr(a);
        }
        self.emit(Instr::Call {
            fid: fid.index(),
            nargs: args.len() as u32,
            want,
            value_pos,
        });
    }

    // ---- expressions ----

    fn lower_expr(&mut self, e: &Expr) {
        match &e.kind {
            ExprKind::IntLit(v) => {
                let c = self.intern(Const::Int(*v));
                self.emit(Instr::Const(c));
            }
            ExprKind::BoolLit(b) => {
                let c = self.intern(Const::Bool(*b));
                self.emit(Instr::Const(c));
            }
            ExprKind::StrLit(s) => {
                let c = self.intern(Const::Str(std::sync::Arc::from(s.as_str())));
                self.emit(Instr::Const(c));
            }
            ExprKind::Nil => {
                let c = self.intern(Const::Nil);
                self.emit(Instr::Const(c));
            }
            ExprKind::Ident(_) => match self.res.def_of(e.id) {
                Some(var) => {
                    let slot = self.slot(var);
                    self.emit(Instr::LoadSlot(slot));
                }
                None => {
                    self.emit(Instr::TrapInternal("unresolved ident".into()));
                }
            },
            ExprKind::Unary { op, operand } => match op {
                UnOp::Neg => {
                    self.lower_expr(operand);
                    self.emit(Instr::Neg);
                }
                UnOp::Not => {
                    self.lower_expr(operand);
                    self.emit(Instr::Not);
                }
                UnOp::Addr => self.lower_addr_of(operand),
                UnOp::Deref => {
                    self.lower_expr(operand);
                    self.emit(Instr::Deref);
                }
            },
            ExprKind::Binary { op, lhs, rhs } => match op {
                BinOp::And | BinOp::Or => {
                    self.emit(Instr::Tick(1));
                    self.lower_expr(lhs);
                    let j = self.emit(if *op == BinOp::And {
                        Instr::AndJump(usize::MAX)
                    } else {
                        Instr::OrJump(usize::MAX)
                    });
                    self.lower_expr(rhs);
                    self.emit(Instr::AssertBool);
                    let end = self.here();
                    self.patch(j, end);
                }
                _ => {
                    self.lower_expr(lhs);
                    self.lower_expr(rhs);
                    self.emit(Instr::Bin(*op));
                }
            },
            ExprKind::Field { base, name } => {
                self.lower_expr(base);
                match field_target(self.types, base, name) {
                    Ok((idx, through_ptr)) => {
                        self.emit(Instr::GetField {
                            idx: idx as u32,
                            through_ptr,
                        });
                    }
                    Err(msg) => {
                        self.emit(Instr::TrapInternal(msg.into()));
                    }
                }
            }
            ExprKind::Index { base, index } => {
                self.lower_expr(base);
                self.emit(Instr::CheckIndexBase);
                self.lower_expr(index);
                self.emit(Instr::IndexGet);
            }
            ExprKind::SliceExpr { base, lo, hi } => {
                self.lower_expr(base);
                match lo {
                    Some(lo) => self.lower_expr(lo),
                    None => {
                        let c = self.intern(Const::Int(0));
                        self.emit(Instr::ConstRaw(c));
                    }
                }
                if let Some(hi) = hi {
                    self.lower_expr(hi);
                }
                self.emit(Instr::ReSlice {
                    has_hi: hi.is_some(),
                });
            }
            ExprKind::Call { .. } => self.lower_call(e, 1, true),
            ExprKind::Builtin {
                kind,
                ty_args,
                args,
            } => {
                self.lower_builtin(e, *kind, ty_args, args);
            }
            ExprKind::StructLit { fields, .. } => {
                for f in fields {
                    self.lower_expr(f);
                }
                self.emit(Instr::MakeStruct(fields.len() as u32));
            }
        }
    }

    fn lower_addr_of(&mut self, operand: &Expr) {
        match &operand.kind {
            ExprKind::Ident(_) => match self.res.def_of(operand.id) {
                Some(var) => {
                    let slot = self.slot(var);
                    self.emit(Instr::AddrOfSlot(slot));
                }
                None => {
                    self.emit(Instr::TrapInternal("unresolved ident".into()));
                }
            },
            ExprKind::StructLit { .. } => {
                self.lower_expr(operand);
                self.emit(Instr::AllocBox {
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
                self.lower_expr(inner);
            }
            other => {
                self.emit(Instr::TrapUnsupported(
                    format!("interior pointers (&{other:?}) are not supported by the VM").into(),
                ));
            }
        }
    }

    fn lower_builtin(&mut self, e: &Expr, kind: Builtin, ty_args: &[Type], args: &[Expr]) {
        match kind {
            Builtin::Make => match ty_args.first() {
                Some(Type::Slice(elem)) => {
                    self.lower_expr(&args[0]);
                    let has_cap = args.len() > 1;
                    if has_cap {
                        self.lower_expr(&args[1]);
                    }
                    let zero = self.intern(zero_value(elem, self.types));
                    self.emit(Instr::MakeSlice {
                        elem_size: self.types.inline_size(elem),
                        has_cap,
                        heap: self.heap_placed(e),
                        site: e.id,
                        zero,
                    });
                }
                Some(Type::Map(_, v)) => {
                    let default = self.intern(zero_value(v, self.types));
                    self.emit(Instr::MakeMap {
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
                self.lower_expr(&args[0]);
                self.lower_expr(&args[1]);
                let elem_size = match self.types.expr(args[0].id) {
                    Some(Type::Slice(elem)) => self.types.inline_size(elem),
                    _ => 8,
                };
                self.emit(Instr::Append {
                    elem_size,
                    site: e.id,
                });
            }
            Builtin::Len => {
                self.lower_expr(&args[0]);
                self.emit(Instr::Len);
            }
            Builtin::Cap => {
                self.lower_expr(&args[0]);
                self.emit(Instr::Cap);
            }
            Builtin::Delete => {
                self.lower_expr(&args[0]);
                self.lower_expr(&args[1]);
                self.emit(Instr::MapDelete);
            }
            Builtin::Panic => {
                self.lower_expr(&args[0]);
                self.emit(Instr::Panic);
            }
            Builtin::Print => {
                for a in args {
                    self.lower_expr(a);
                }
                self.emit(Instr::Print(args.len() as u32));
            }
            Builtin::Itoa => {
                self.lower_expr(&args[0]);
                self.emit(Instr::Itoa);
            }
        }
    }

    // ---- lvalues ----

    /// Lowers a store into `lv`; the value to store is on the stack
    /// beneath whatever operands the lvalue itself evaluates.
    fn lower_store(&mut self, lv: &Expr) {
        match &lv.kind {
            ExprKind::Ident(_) => match self.res.def_of(lv.id) {
                Some(var) => {
                    let slot = self.slot(var);
                    self.emit(Instr::StoreSlot(slot));
                }
                None => {
                    self.emit(Instr::TrapInternal("unresolved ident".into()));
                }
            },
            ExprKind::Unary {
                op: UnOp::Deref,
                operand,
            } => {
                self.lower_expr(operand);
                self.emit(Instr::DerefSet);
            }
            ExprKind::Field { base, name } => {
                self.lower_expr(base);
                match field_target(self.types, base, name) {
                    Ok((idx, true)) => {
                        self.emit(Instr::FieldSetPtr { idx: idx as u32 });
                    }
                    Ok((idx, false)) => {
                        self.emit(Instr::StructSetField { idx: idx as u32 });
                        self.lower_store(base);
                    }
                    Err(msg) => {
                        self.emit(Instr::TrapInternal(msg.into()));
                    }
                }
            }
            ExprKind::Index { base, index } => {
                self.lower_expr(base);
                self.emit(Instr::CheckIndexBase);
                self.lower_expr(index);
                self.emit(Instr::IndexSet);
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
