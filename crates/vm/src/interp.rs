//! The tree-walking dispatcher.
//!
//! Walks an (optionally instrumented) MiniGo AST directly. Like every
//! engine it owns control flow only — frames, evaluation order, each
//! node's own tick — and performs every heap operation through the
//! [`Machine`]: allocation sites honor the escape analysis'
//! stack-or-heap decisions, inserted `tcfree` statements reach the
//! runtime's free primitives, and GC runs at statement boundaries
//! (safepoints), marking from the frames reported here. It is the
//! simplest engine and the differential reference for the bytecode one.

use std::rc::Rc;

use minigo_escape::{AllocPlace, Analysis};
use minigo_syntax::{
    BinOp, Block, Builtin, Expr, ExprKind, FuncId, IdMap, Program, Resolution, Stmt, StmtKind,
    Type, TypeInfo, UnOp, VarId,
};

use crate::bytecode::lower::{boxed_on_heap, field_target, var_size, zero_value};
use crate::error::ExecError;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::machine::{
    cap_of, check_index_base, check_poison, expected_bool, int_of, itoa, len_of, reslice, value_eq,
    with_field, Dispatch, Machine, Result, RunOutcome, Session, VmConfig,
};
use crate::mark::RootSink;
use crate::value::{Cell, ObjId, PtrVal, Value};

/// Runs `program`'s `main` function on the tree-walk.
///
/// # Errors
///
/// Returns an [`ExecError`] on panics, nil dereferences, bounds errors,
/// poisoned reads (§6.8), or resource-limit violations.
pub fn run(
    program: &Program,
    res: &Resolution,
    types: &TypeInfo,
    analysis: &Analysis,
    cfg: VmConfig,
) -> Result<RunOutcome> {
    let mut session = Session::new(TreeWalk::new(program, res, types, analysis), cfg)?;
    session.call_main()?;
    Ok(session.finish())
}

enum Flow {
    Normal,
    Break,
    Continue,
    Return,
}

enum Slot {
    Plain(Value),
    Boxed(Cell, Option<ObjId>),
}

enum DeferKind {
    Func(FuncId),
    Builtin(Builtin),
}

struct Deferred {
    kind: DeferKind,
    args: Vec<Value>,
}

struct Frame {
    func: FuncId,
    slots: FxHashMap<VarId, Slot>,
    defers: Vec<Deferred>,
}

/// The tree-walk engine: a checked program and its frame stack.
pub struct TreeWalk<'p> {
    program: &'p Program,
    res: &'p Resolution,
    types: &'p TypeInfo,
    analysis: &'p Analysis,
    /// Address-taken variables per function (these get boxed slots).
    addr_taken: IdMap<FuncId, FxHashSet<VarId>>,
    frames: Vec<Frame>,
}

impl<'p> TreeWalk<'p> {
    /// An engine over `program` as the front end and the escape analysis
    /// left it.
    pub fn new(
        program: &'p Program,
        res: &'p Resolution,
        types: &'p TypeInfo,
        analysis: &'p Analysis,
    ) -> Self {
        let mut addr_taken = IdMap::default();
        for func in &program.funcs {
            collect_addr_taken_block(&func.body, res, addr_taken.or_default(func.id));
        }
        TreeWalk {
            program,
            res,
            types,
            analysis,
            addr_taken,
            frames: Vec::new(),
        }
    }
}

impl Dispatch for TreeWalk<'_> {
    fn call(&mut self, m: &mut Machine, name: &str, args: Vec<Value>) -> Result<Vec<Value>> {
        let func = self
            .program
            .func(name)
            .ok_or_else(|| ExecError::NoFunc(name.to_string()))?;
        Vm { tw: self, m }.call_function(func.id, args)
    }

    fn roots(&self, sink: &mut dyn RootSink) {
        for frame in &self.frames {
            for slot in frame.slots.values() {
                match slot {
                    Slot::Plain(v) => sink.value(v),
                    Slot::Boxed(cell, obj) => sink.boxed(cell, *obj),
                }
            }
            for v in frame.defers.iter().flat_map(|d| &d.args) {
                sink.value(v);
            }
        }
    }
}

/// One call in flight: the engine's frames and the machine they run on.
struct Vm<'a, 'p> {
    tw: &'a mut TreeWalk<'p>,
    m: &'a mut Machine,
}

impl Vm<'_, '_> {
    // ---- calls ----

    fn call_function(&mut self, fid: FuncId, args: Vec<Value>) -> Result<Vec<Value>> {
        self.m.check_depth(self.tw.frames.len())?;
        let func = &self.tw.program.funcs[fid.index()];
        let (res, types) = (self.tw.res, self.tw.types);
        let mut slots = FxHashMap::default();
        let taken = &self.tw.addr_taken[fid];
        for (&pvar, arg) in res.params_of(fid).iter().zip(args) {
            slots.insert(pvar, make_slot(arg, taken.contains(&pvar)));
        }
        for &rvar in res.results_of(fid) {
            let ty = types
                .var(rvar)
                .ok_or_else(|| ExecError::Internal("untyped result".into()))?;
            let zero = zero_value(ty, types).to_value();
            slots.insert(rvar, make_slot(zero, taken.contains(&rvar)));
        }
        self.tw.frames.push(Frame {
            func: fid,
            slots,
            defers: Vec::new(),
        });
        let parent_stack = self.m.enter_stack(&func.name);

        let flow = self.exec_block(&func.body);
        // Run defers LIFO regardless of how the body exited; on panic the
        // defers still run before unwinding continues.
        let defer_result = self.run_defers();
        // Read the results, then pop, then propagate: no failure may
        // leave the frame behind (a root set and a `max_frames` unit for
        // the rest of a session).
        let results = flow.and(defer_result).and_then(|_| {
            let vars = res.results_of(fid).iter();
            vars.map(|&rvar| self.read_var(rvar)).collect()
        });
        self.m.leave_stack(parent_stack);
        self.tw.frames.pop();
        results
    }

    fn run_defers(&mut self) -> Result<()> {
        loop {
            let Some(d) = self.tw.frames.last_mut().and_then(|f| f.defers.pop()) else {
                return Ok(());
            };
            match d.kind {
                DeferKind::Func(fid) => {
                    self.call_function(fid, d.args)?;
                }
                DeferKind::Builtin(Builtin::Print) => self.m.print(&d.args),
                DeferKind::Builtin(_) => {}
            }
        }
    }

    /// Declares a variable, boxing it when its address is taken and
    /// charging heap accounting when the analysis decided its storage
    /// escapes.
    fn declare_var(&mut self, var: VarId, value: Value) {
        let fid = self.tw.frames.last().expect("in a frame").func;
        let slot = if self.tw.addr_taken[fid].contains(&var) {
            let heap = boxed_on_heap(self.tw.analysis, fid, var);
            let size = var_size(self.tw.types, var);
            let PtrVal { cell, obj } = self.m.alloc_box(value, heap, size, None);
            Slot::Boxed(cell, obj)
        } else {
            Slot::Plain(value)
        };
        self.tw
            .frames
            .last_mut()
            .expect("in a frame")
            .slots
            .insert(var, slot);
    }

    fn read_var(&self, var: VarId) -> Result<Value> {
        for frame in self.tw.frames.iter().rev() {
            if let Some(slot) = frame.slots.get(&var) {
                let v = match slot {
                    Slot::Plain(v) => v.clone(),
                    Slot::Boxed(cell, _) => cell.borrow().clone(),
                };
                return check_poison(v);
            }
        }
        Err(ExecError::Internal(format!(
            "variable {} not found in any frame",
            self.tw.res.var(var).name
        )))
    }

    fn write_var(&mut self, var: VarId, value: Value) -> Result<()> {
        for frame in self.tw.frames.iter_mut().rev() {
            if let Some(slot) = frame.slots.get_mut(&var) {
                match slot {
                    Slot::Plain(v) => *v = value,
                    Slot::Boxed(cell, _) => *cell.borrow_mut() = value,
                }
                return Ok(());
            }
        }
        Err(ExecError::Internal("write to undeclared variable".into()))
    }

    fn on_heap(&self, e: &Expr) -> bool {
        self.tw.analysis.place_of(e.id) == AllocPlace::Heap
    }

    // ---- statements ----

    fn exec_block(&mut self, block: &Block) -> Result<Flow> {
        let mut prev_was_free = false;
        for stmt in &block.stmts {
            self.m.safepoint(&*self.tw)?;
            let is_free = matches!(stmt.kind, StmtKind::Free { .. });
            let flow = self.exec_stmt(stmt, is_free && prev_was_free)?;
            prev_was_free = is_free;
            match flow {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    /// Executes one statement; `follows_free` marks a `tcfree` directly
    /// after another in the same block (§5 batching).
    fn exec_stmt(&mut self, stmt: &Stmt, follows_free: bool) -> Result<Flow> {
        match &stmt.kind {
            StmtKind::VarDecl { names, ty, init } => {
                let values = if init.is_empty() {
                    vec![zero_value(ty, self.tw.types).to_value(); names.len()]
                } else if init.len() == 1 && names.len() > 1 {
                    self.eval_multi(&init[0], names.len())?
                } else {
                    init.iter().map(|e| self.eval(e)).collect::<Result<_>>()?
                };
                for (i, v) in values.into_iter().enumerate() {
                    let var = self
                        .tw
                        .res
                        .decl_of(stmt.id, i)
                        .ok_or_else(|| ExecError::Internal("unresolved decl".into()))?;
                    self.declare_var(var, v);
                }
                Ok(Flow::Normal)
            }
            StmtKind::ShortDecl { names, init } => {
                let values = if init.len() == 1 && names.len() > 1 {
                    self.eval_multi(&init[0], names.len())?
                } else {
                    init.iter().map(|e| self.eval(e)).collect::<Result<_>>()?
                };
                for (i, v) in values.into_iter().enumerate() {
                    let var = self
                        .tw
                        .res
                        .decl_of(stmt.id, i)
                        .ok_or_else(|| ExecError::Internal("unresolved decl".into()))?;
                    self.declare_var(var, v);
                }
                Ok(Flow::Normal)
            }
            StmtKind::Assign { lhs, op, rhs } => {
                if let Some(op) = op {
                    let old = self.eval(&lhs[0])?;
                    let rv = self.eval(&rhs[0])?;
                    let new = self.m.binop(*op, &old, &rv)?;
                    self.store(&lhs[0], new)?;
                    return Ok(Flow::Normal);
                }
                let values = if rhs.len() == 1 && lhs.len() > 1 {
                    self.eval_multi(&rhs[0], lhs.len())?
                } else {
                    rhs.iter().map(|e| self.eval(e)).collect::<Result<_>>()?
                };
                for (l, v) in lhs.iter().zip(values) {
                    self.store(l, v)?;
                }
                Ok(Flow::Normal)
            }
            StmtKind::If { cond, then, els } => {
                if self.eval_bool(cond)? {
                    self.exec_block(then)
                } else if let Some(els) = els {
                    self.exec_stmt(els, false)
                } else {
                    Ok(Flow::Normal)
                }
            }
            StmtKind::For {
                init,
                cond,
                post,
                body,
            } => {
                if let Some(init) = init {
                    self.exec_stmt(init, false)?;
                }
                loop {
                    if let Some(cond) = cond {
                        if !self.eval_bool(cond)? {
                            break;
                        }
                    }
                    match self.exec_block(body)? {
                        Flow::Break => break,
                        Flow::Return => return Ok(Flow::Return),
                        Flow::Normal | Flow::Continue => {}
                    }
                    if let Some(post) = post {
                        self.exec_stmt(post, false)?;
                    }
                    self.m.safepoint(&*self.tw)?;
                }
                Ok(Flow::Normal)
            }
            StmtKind::Return { exprs } => {
                let fid = self.tw.frames.last().expect("in a frame").func;
                let results = self.tw.res.results_of(fid).to_vec();
                if !exprs.is_empty() {
                    let values = if exprs.len() == 1 && results.len() > 1 {
                        self.eval_multi(&exprs[0], results.len())?
                    } else {
                        exprs.iter().map(|e| self.eval(e)).collect::<Result<_>>()?
                    };
                    for (&rvar, v) in results.iter().zip(values) {
                        self.write_var(rvar, v)?;
                    }
                }
                Ok(Flow::Return)
            }
            StmtKind::Expr { expr } => {
                self.eval_multi(expr, usize::MAX)?;
                Ok(Flow::Normal)
            }
            StmtKind::BlockStmt { block } => self.exec_block(block),
            StmtKind::Defer { call } => {
                let (kind, args) = match &call.kind {
                    ExprKind::Call { callee, args } => {
                        let fid = self
                            .tw
                            .res
                            .func_by_name(callee)
                            .ok_or_else(|| ExecError::Internal("unknown callee".into()))?;
                        (DeferKind::Func(fid), args)
                    }
                    ExprKind::Builtin { kind, args, .. } => (DeferKind::Builtin(*kind), args),
                    _ => return Err(ExecError::Internal("defer of non-call".into())),
                };
                let args = args
                    .iter()
                    .map(|a| self.eval(a))
                    .collect::<Result<Vec<_>>>()?;
                self.tw
                    .frames
                    .last_mut()
                    .expect("in a frame")
                    .defers
                    .push(Deferred { kind, args });
                Ok(Flow::Normal)
            }
            StmtKind::Switch {
                subject,
                cases,
                default,
            } => {
                let sv = self.eval(subject)?;
                for case in cases {
                    for v in &case.values {
                        let cv = self.eval(v)?;
                        if value_eq(&sv, &cv)? {
                            // Go semantics: `break` inside a switch exits
                            // the switch, not an enclosing loop.
                            return Ok(match self.exec_block(&case.body)? {
                                Flow::Break => Flow::Normal,
                                other => other,
                            });
                        }
                    }
                }
                if let Some(default) = default {
                    return Ok(match self.exec_block(default)? {
                        Flow::Break => Flow::Normal,
                        other => other,
                    });
                }
                Ok(Flow::Normal)
            }
            StmtKind::Break => Ok(Flow::Break),
            StmtKind::Continue => Ok(Flow::Continue),
            StmtKind::Free { target, .. } => {
                let v = self.eval(target)?;
                self.m.exec_tcfree(v, follows_free);
                Ok(Flow::Normal)
            }
        }
    }

    // ---- expressions ----

    fn eval_bool(&mut self, e: &Expr) -> Result<bool> {
        match self.eval(e)? {
            Value::Bool(b) => Ok(b),
            other => Err(expected_bool(&other)),
        }
    }

    fn eval_int(&mut self, e: &Expr) -> Result<i64> {
        int_of(&self.eval(e)?)
    }

    /// Evaluates an expression that may yield multiple values (a call in
    /// multi-value position). `want == usize::MAX` means "any arity"
    /// (expression statements).
    fn eval_multi(&mut self, e: &Expr, want: usize) -> Result<Vec<Value>> {
        if let ExprKind::Call { callee, args } = &e.kind {
            let fid = self
                .tw
                .res
                .func_by_name(callee)
                .ok_or_else(|| ExecError::Internal("unknown callee".into()))?;
            let argv = args
                .iter()
                .map(|a| self.eval(a))
                .collect::<Result<Vec<_>>>()?;
            // A call in value position charges its expression-node tick
            // here, after the arguments (the bytecode `Call` instruction's
            // `value_pos` extra).
            if want == 1 {
                self.m.tick(1);
            }
            self.m.tick(2);
            let out = self.call_function(fid, argv)?;
            if want != usize::MAX && out.len() != want {
                return Err(ExecError::Internal("result arity mismatch".into()));
            }
            return Ok(out);
        }
        Ok(vec![self.eval(e)?])
    }

    /// Evaluates an expression. Each node charges its one tick at the
    /// point where the bytecode VM's corresponding instruction charges it
    /// (post-order: after the operands, right before the node's own
    /// effect), so runtime trace timestamps are bit-identical across
    /// engines. Totals per statement are unchanged — one tick per node.
    fn eval(&mut self, e: &Expr) -> Result<Value> {
        match &e.kind {
            ExprKind::IntLit(v) => {
                self.m.tick(1);
                Ok(Value::Int(*v))
            }
            ExprKind::BoolLit(b) => {
                self.m.tick(1);
                Ok(Value::Bool(*b))
            }
            ExprKind::StrLit(s) => {
                self.m.tick(1);
                Ok(Value::Str(Rc::from(s.as_str())))
            }
            ExprKind::Nil => {
                self.m.tick(1);
                Ok(Value::Nil)
            }
            ExprKind::Ident(_) => {
                self.m.tick(1);
                let var = self
                    .tw
                    .res
                    .def_of(e.id)
                    .ok_or_else(|| ExecError::Internal("unresolved ident".into()))?;
                self.read_var(var)
            }
            ExprKind::Unary { op, operand } => match op {
                UnOp::Neg => {
                    let v = self.eval_int(operand)?;
                    self.m.tick(1);
                    Ok(Value::Int(v.wrapping_neg()))
                }
                UnOp::Not => {
                    let v = self.eval_bool(operand)?;
                    self.m.tick(1);
                    Ok(Value::Bool(!v))
                }
                UnOp::Addr => self.addr_of(operand),
                UnOp::Deref => {
                    let v = self.eval(operand)?;
                    self.m.tick(1);
                    self.m.deref(&v)
                }
            },
            ExprKind::Binary { op, lhs, rhs } => match op {
                // Short-circuit operators charge up front (the lowering
                // emits their tick before the left operand).
                BinOp::And => {
                    self.m.tick(1);
                    if !self.eval_bool(lhs)? {
                        return Ok(Value::Bool(false));
                    }
                    Ok(Value::Bool(self.eval_bool(rhs)?))
                }
                BinOp::Or => {
                    self.m.tick(1);
                    if self.eval_bool(lhs)? {
                        return Ok(Value::Bool(true));
                    }
                    Ok(Value::Bool(self.eval_bool(rhs)?))
                }
                _ => {
                    let l = self.eval(lhs)?;
                    let r = self.eval(rhs)?;
                    self.m.tick(1);
                    self.m.binop(*op, &l, &r)
                }
            },
            ExprKind::Field { base, name } => {
                let bv = self.eval(base)?;
                let (idx, through_ptr) =
                    field_target(self.tw.types, base, name).map_err(ExecError::Internal)?;
                self.m.tick(1);
                self.m.get_field(&bv, idx, through_ptr)
            }
            ExprKind::Index { base, index } => {
                let bv = self.eval(base)?;
                check_index_base(&bv)?;
                let iv = self.eval(index)?;
                self.m.tick(1);
                self.m.index_get(&bv, &iv)
            }
            ExprKind::SliceExpr { base, lo, hi } => {
                let bv = self.eval(base)?;
                let lo = match lo {
                    Some(e) => self.eval_int(e)?,
                    None => 0,
                };
                let hi = match hi {
                    Some(e) => Some(self.eval_int(e)?),
                    None => None,
                };
                self.m.tick(1);
                reslice(&bv, lo, hi)
            }
            ExprKind::Call { .. } => {
                let mut out = self.eval_multi(e, 1)?;
                Ok(out.pop().expect("arity checked"))
            }
            ExprKind::Builtin {
                kind,
                ty_args,
                args,
            } => self.builtin(e, *kind, ty_args, args),
            ExprKind::StructLit { fields, .. } => {
                let mut values = Vec::with_capacity(fields.len());
                for f in fields {
                    values.push(self.eval(f)?);
                }
                self.m.tick(1);
                Ok(Value::struct_of(values))
            }
        }
    }

    fn addr_of(&mut self, operand: &Expr) -> Result<Value> {
        match &operand.kind {
            ExprKind::Ident(_) => {
                self.m.tick(1);
                let var = self
                    .tw
                    .res
                    .def_of(operand.id)
                    .ok_or_else(|| ExecError::Internal("unresolved ident".into()))?;
                for frame in self.tw.frames.iter().rev() {
                    if let Some(slot) = frame.slots.get(&var) {
                        return match slot {
                            Slot::Boxed(cell, obj) => Ok(Value::ptr(PtrVal {
                                cell: cell.clone(),
                                obj: *obj,
                            })),
                            Slot::Plain(_) => Err(ExecError::Internal(format!(
                                "address taken of unboxed variable {}",
                                self.tw.res.var(var).name
                            ))),
                        };
                    }
                }
                Err(ExecError::Internal("variable not found".into()))
            }
            ExprKind::StructLit { .. } => {
                let v = self.eval(operand)?;
                self.m.tick(1);
                let types = self.tw.types;
                let size = types.expr(operand.id).map(|t| types.inline_size(t));
                let heap = self.on_heap(operand);
                let site = Some(operand.id);
                Ok(Value::ptr(self.m.alloc_box(
                    v,
                    heap,
                    size.unwrap_or(8),
                    site,
                )))
            }
            ExprKind::Unary {
                op: UnOp::Deref,
                operand: inner,
            } => {
                // `&*p` evaluates to `p`; the `&` node still ticks (the
                // lowering emits its tick ahead of the inner expression).
                self.m.tick(1);
                self.eval(inner)
            }
            other => Err(ExecError::Unsupported(format!(
                "interior pointers (&{other:?}) are not supported by the VM"
            ))),
        }
    }

    fn builtin(
        &mut self,
        e: &Expr,
        kind: Builtin,
        ty_args: &[Type],
        args: &[Expr],
    ) -> Result<Value> {
        let types = self.tw.types;
        match kind {
            Builtin::Make => match &ty_args[0] {
                Type::Slice(elem) => {
                    let len = self.eval_int(&args[0])?;
                    let cap = match args.get(1) {
                        Some(a) => Some(self.eval_int(a)?),
                        None => None,
                    };
                    self.m.tick(1);
                    let zero = zero_value(elem, types).to_value();
                    let (elem_size, heap) = (types.inline_size(elem), self.on_heap(e));
                    self.m.make_slice(len, cap, elem_size, zero, heap, e.id)
                }
                Type::Map(_, v) => {
                    self.m.tick(1);
                    let default = zero_value(v, types).to_value();
                    let (entry_size, heap) = (16 + types.inline_size(v), self.on_heap(e));
                    Ok(self.m.make_map(default, entry_size, heap, e.id))
                }
                _ => Err(ExecError::Internal("make of bad type".into())),
            },
            Builtin::New => {
                self.m.tick(1);
                let ty = &ty_args[0];
                let zero = zero_value(ty, types).to_value();
                let (size, heap) = (types.inline_size(ty), self.on_heap(e));
                Ok(Value::ptr(self.m.alloc_box(zero, heap, size, Some(e.id))))
            }
            Builtin::Append => {
                let sv = self.eval(&args[0])?;
                let item = self.eval(&args[1])?;
                self.m.tick(1);
                let elem_size = match types.expr(args[0].id) {
                    Some(Type::Slice(elem)) => types.inline_size(elem),
                    _ => 8,
                };
                self.m.append(sv, item, elem_size, e.id)
            }
            Builtin::Len => {
                let v = self.eval(&args[0])?;
                self.m.tick(1);
                len_of(&v)
            }
            Builtin::Cap => {
                let v = self.eval(&args[0])?;
                self.m.tick(1);
                cap_of(&v)
            }
            Builtin::Delete => {
                let mv = self.eval(&args[0])?;
                let kv = self.eval(&args[1])?;
                self.m.tick(1);
                self.m.map_delete(&mv, &kv)?;
                Ok(Value::Int(0))
            }
            Builtin::Panic => {
                let v = self.eval(&args[0])?;
                self.m.tick(1);
                Err(ExecError::Panic(v.display()))
            }
            Builtin::Print => {
                let values = args
                    .iter()
                    .map(|a| self.eval(a))
                    .collect::<Result<Vec<_>>>()?;
                self.m.tick(1);
                self.m.print(&values);
                Ok(Value::Int(0))
            }
            Builtin::Itoa => {
                let v = self.eval_int(&args[0])?;
                self.m.tick(1);
                Ok(itoa(v))
            }
        }
    }

    // ---- lvalue stores ----

    fn store(&mut self, lv: &Expr, value: Value) -> Result<()> {
        match &lv.kind {
            ExprKind::Ident(_) => {
                let var = self
                    .tw
                    .res
                    .def_of(lv.id)
                    .ok_or_else(|| ExecError::Internal("unresolved ident".into()))?;
                self.write_var(var, value)
            }
            ExprKind::Unary {
                op: UnOp::Deref,
                operand,
            } => {
                let p = self.eval(operand)?;
                self.m.deref_set(&p, value)
            }
            ExprKind::Field { base, name } => {
                let bv = self.eval(base)?;
                let (idx, through_ptr) =
                    field_target(self.tw.types, base, name).map_err(ExecError::Internal)?;
                if through_ptr {
                    self.m.field_set_ptr(&bv, idx, value)
                } else {
                    // Value semantics: copy, modify, write back.
                    let updated = with_field(bv, idx, value)?;
                    self.store(base, updated)
                }
            }
            ExprKind::Index { base, index } => {
                let bv = self.eval(base)?;
                check_index_base(&bv)?;
                let iv = self.eval(index)?;
                self.m.index_set(&bv, &iv, value)
            }
            _ => Err(ExecError::Internal("bad lvalue".into())),
        }
    }
}

fn make_slot(value: Value, boxed: bool) -> Slot {
    if boxed {
        Slot::Boxed(Rc::new(std::cell::RefCell::new(value)), None)
    } else {
        Slot::Plain(value)
    }
}

pub(crate) fn collect_addr_taken_block(
    block: &Block,
    res: &Resolution,
    out: &mut FxHashSet<VarId>,
) {
    for stmt in &block.stmts {
        collect_addr_taken_stmt(stmt, res, out);
    }
}

fn collect_addr_taken_stmt(stmt: &Stmt, res: &Resolution, out: &mut FxHashSet<VarId>) {
    let mut visit_expr = |e: &Expr| collect_addr_taken_expr(e, res, out);
    match &stmt.kind {
        StmtKind::VarDecl { init, .. } | StmtKind::ShortDecl { init, .. } => {
            init.iter().for_each(&mut visit_expr)
        }
        StmtKind::Assign { lhs, rhs, .. } => {
            lhs.iter().for_each(&mut visit_expr);
            rhs.iter().for_each(&mut visit_expr);
        }
        StmtKind::If { cond, then, els } => {
            visit_expr(cond);
            collect_addr_taken_block(then, res, out);
            if let Some(els) = els {
                collect_addr_taken_stmt(els, res, out);
            }
        }
        StmtKind::For {
            init,
            cond,
            post,
            body,
        } => {
            if let Some(init) = init {
                collect_addr_taken_stmt(init, res, out);
            }
            if let Some(cond) = cond {
                collect_addr_taken_expr(cond, res, out);
            }
            if let Some(post) = post {
                collect_addr_taken_stmt(post, res, out);
            }
            collect_addr_taken_block(body, res, out);
        }
        StmtKind::Return { exprs } => exprs.iter().for_each(&mut visit_expr),
        StmtKind::Expr { expr } => visit_expr(expr),
        StmtKind::BlockStmt { block } => collect_addr_taken_block(block, res, out),
        StmtKind::Defer { call } => visit_expr(call),
        StmtKind::Switch {
            subject,
            cases,
            default,
        } => {
            collect_addr_taken_expr(subject, res, out);
            for case in cases {
                for v in &case.values {
                    collect_addr_taken_expr(v, res, out);
                }
                collect_addr_taken_block(&case.body, res, out);
            }
            if let Some(default) = default {
                collect_addr_taken_block(default, res, out);
            }
        }
        StmtKind::Break | StmtKind::Continue => {}
        StmtKind::Free { target, .. } => visit_expr(target),
    }
}

fn collect_addr_taken_expr(e: &Expr, res: &Resolution, out: &mut FxHashSet<VarId>) {
    match &e.kind {
        ExprKind::Unary {
            op: UnOp::Addr,
            operand,
        } => {
            if let ExprKind::Ident(_) = &operand.kind {
                if let Some(v) = res.def_of(operand.id) {
                    out.insert(v);
                }
            }
            collect_addr_taken_expr(operand, res, out);
        }
        ExprKind::Unary { operand, .. } => collect_addr_taken_expr(operand, res, out),
        ExprKind::Binary { lhs, rhs, .. } => {
            collect_addr_taken_expr(lhs, res, out);
            collect_addr_taken_expr(rhs, res, out);
        }
        ExprKind::Field { base, .. } => collect_addr_taken_expr(base, res, out),
        ExprKind::Index { base, index } => {
            collect_addr_taken_expr(base, res, out);
            collect_addr_taken_expr(index, res, out);
        }
        ExprKind::SliceExpr { base, lo, hi } => {
            collect_addr_taken_expr(base, res, out);
            for bound in [lo, hi].into_iter().flatten() {
                collect_addr_taken_expr(bound, res, out);
            }
        }
        ExprKind::Call { args, .. } | ExprKind::Builtin { args, .. } => {
            args.iter()
                .for_each(|a| collect_addr_taken_expr(a, res, out));
        }
        ExprKind::StructLit { fields, .. } => {
            fields
                .iter()
                .for_each(|f| collect_addr_taken_expr(f, res, out));
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minigo_escape::{analyze, instrument, AnalyzeOptions};
    use minigo_runtime::{Category, FreeSource, PoisonMode, RuntimeConfig};
    use minigo_syntax::frontend;

    fn run_src_with(src: &str, opts: AnalyzeOptions, cfg: VmConfig) -> Result<RunOutcome> {
        let (program, mut res, types) = frontend(src).expect("frontend");
        let analysis = analyze(&program, &res, &types, &opts);
        let instrumented = instrument(&program, &mut res, &analysis);
        run(&instrumented, &res, &types, &analysis, cfg)
    }

    fn run_src(src: &str) -> RunOutcome {
        let cfg = VmConfig {
            runtime: RuntimeConfig {
                migrate_prob: 0.0,
                jitter: 0.0,
                ..RuntimeConfig::default()
            },
            ..VmConfig::default()
        };
        match run_src_with(src, AnalyzeOptions::default(), cfg) {
            Ok(out) => out,
            Err(e) => panic!("run failed: {e}\nsource:\n{src}"),
        }
    }

    #[test]
    fn arithmetic_and_print() {
        let out = run_src("func main() { x := 2 + 3 * 4\n print(x, x % 5, x / 2) }\n");
        assert_eq!(out.output, "14 4 7\n");
    }

    #[test]
    fn control_flow_fib() {
        let out = run_src(
            "func fib(n int) int { if n < 2 { return n }\n return fib(n-1) + fib(n-2) }\nfunc main() { print(fib(10)) }\n",
        );
        assert_eq!(out.output, "55\n");
    }

    #[test]
    fn loops_break_continue() {
        let out = run_src(
            "func main() { sum := 0\n for i := 0; i < 10; i += 1 { if i == 3 { continue }\n if i == 7 { break }\n sum += i }\n print(sum) }\n",
        );
        assert_eq!(out.output, "18\n"); // 0+1+2+4+5+6
    }

    #[test]
    fn slices_share_backing() {
        let out =
            run_src("func main() { s := make([]int, 3)\n t := s\n t[1] = 42\n print(s[1]) }\n");
        assert_eq!(out.output, "42\n");
    }

    #[test]
    fn append_grows_and_preserves() {
        let out = run_src(
            "func main() { var s []int\n for i := 0; i < 20; i += 1 { s = append(s, i*i) }\n print(len(s), s[19], cap(s) >= 20) }\n",
        );
        assert_eq!(out.output, "20 361 true\n");
    }

    #[test]
    fn append_within_cap_aliases() {
        let out = run_src(
            "func main() { s := make([]int, 1, 4)\n t := append(s, 9)\n print(t[1], len(s), len(t)) }\n",
        );
        assert_eq!(out.output, "9 1 2\n");
    }

    #[test]
    fn maps_insert_lookup_delete() {
        let out = run_src(
            "func main() { m := make(map[string]int)\n m[\"a\"] = 1\n m[\"b\"] = 2\n m[\"a\"] = 3\n print(m[\"a\"], m[\"b\"], m[\"missing\"], len(m))\n delete(m, \"a\")\n print(len(m)) }\n",
        );
        assert_eq!(out.output, "3 2 0 2\n1\n");
    }

    #[test]
    fn map_growth_allocates_and_frees_old_buckets() {
        let out = run_src(
            "func main() { m := make(map[int]int)\n for i := 0; i < 100; i += 1 { m[i] = i }\n print(m[77], len(m)) }\n",
        );
        assert_eq!(out.output, "77 100\n");
        let grow_frees = out.metrics.freed_objects_by_source[FreeSource::MapGrowOld.index()];
        assert!(grow_frees >= 2, "expected grow-frees, got {grow_frees}");
    }

    #[test]
    fn pointers_read_write() {
        let out =
            run_src("func main() { x := 1\n p := &x\n *p = 41\n y := *p + 1\n print(x, y) }\n");
        assert_eq!(out.output, "41 42\n");
    }

    #[test]
    fn structs_are_values() {
        let out = run_src(
            "type P struct { x int\n y int }\nfunc main() { a := P{1, 2}\n b := a\n b.x = 99\n print(a.x, b.x) }\n",
        );
        assert_eq!(out.output, "1 99\n");
    }

    #[test]
    fn struct_through_pointer_shares() {
        let out = run_src(
            "type P struct { x int }\nfunc main() { p := &P{5}\n q := p\n q.x = 7\n print(p.x) }\n",
        );
        assert_eq!(out.output, "7\n");
    }

    #[test]
    fn multiple_return_values() {
        let out = run_src(
            "func divmod(a int, b int) (int, int) { return a / b, a % b }\nfunc main() { q, r := divmod(17, 5)\n print(q, r) }\n",
        );
        assert_eq!(out.output, "3 2\n");
    }

    #[test]
    fn named_results_and_bare_return() {
        let out = run_src(
            "func f(n int) (out int) { out = n * 2\n return }\nfunc main() { print(f(21)) }\n",
        );
        assert_eq!(out.output, "42\n");
    }

    #[test]
    fn defers_run_lifo_at_exit() {
        let out = run_src("func main() { defer print(1)\n defer print(2)\n print(3) }\n");
        assert_eq!(out.output, "3\n2\n1\n");
    }

    #[test]
    fn panic_unwinds_with_defers() {
        let src =
            "func boom() { defer print(\"deferred\")\n panic(\"bad\") }\nfunc main() { boom() }\n";
        let cfg = VmConfig::default();
        let err = run_src_with(src, AnalyzeOptions::default(), cfg).unwrap_err();
        assert_eq!(err, ExecError::Panic("bad".into()));
    }

    #[test]
    fn out_of_bounds_detected() {
        let src = "func main() { s := make([]int, 2)\n print(s[5]) }\n";
        let err = run_src_with(src, AnalyzeOptions::default(), VmConfig::default()).unwrap_err();
        assert!(matches!(err, ExecError::OutOfBounds { index: 5, len: 2 }));
    }

    #[test]
    fn nil_map_store_fails() {
        let src = "func main() { var m map[int]int\n m[1] = 2 }\n";
        let err = run_src_with(src, AnalyzeOptions::default(), VmConfig::default()).unwrap_err();
        assert_eq!(err, ExecError::NilDeref);
    }

    #[test]
    fn div_by_zero() {
        let src = "func main() { x := 1\n y := 0\n print(x / y) }\n";
        let err = run_src_with(src, AnalyzeOptions::default(), VmConfig::default()).unwrap_err();
        assert_eq!(err, ExecError::DivByZero);
    }

    #[test]
    fn string_ops() {
        let out = run_src(
            "func main() { a := \"go\" + \"free\"\n print(a, len(a), itoa(42) + \"!\") }\n",
        );
        assert_eq!(out.output, "gofree 6 42!\n");
    }

    #[test]
    fn tcfree_frees_local_slices() {
        let out = run_src(
            "func work(n int) int { s := make([]int, n)\n s[0] = n\n x := s[0]\n return x }\nfunc main() { total := 0\n for i := 0; i < 50; i += 1 { total += work(100 + i) }\n print(total) }\n",
        );
        assert_eq!(out.output, "6225\n");
        assert!(
            out.metrics.freed_bytes > 0,
            "inserted tcfrees reclaimed memory: {:?}",
            out.metrics
        );
        assert!(out.metrics.free_ratio() > 0.5);
    }

    #[test]
    fn go_mode_frees_nothing() {
        let src = "func work(n int) int { s := make([]int, n)\n s[0] = n\n x := s[0]\n return x }\nfunc main() { total := 0\n for i := 0; i < 50; i += 1 { total += work(100 + i) }\n print(total) }\n";
        let cfg = VmConfig {
            grow_map_free_old: false,
            ..VmConfig::default()
        };
        let out = run_src_with(src, AnalyzeOptions::go(), cfg).unwrap();
        assert_eq!(out.metrics.freed_bytes, 0);
        assert_eq!(out.metrics.tcfree_attempts, 0);
    }

    #[test]
    fn gc_collects_dead_objects() {
        // Allocate far past the GC trigger with everything dying young.
        let src = "func main() { for i := 0; i < 2000; i += 1 { s := make([]int, 100 + i % 3)\n s[0] = i } }\n";
        let cfg = VmConfig {
            runtime: RuntimeConfig {
                migrate_prob: 0.0,
                jitter: 0.0,
                min_heap: 64 * 1024,
                ..RuntimeConfig::default()
            },
            ..VmConfig::default()
        };
        // Run in plain Go mode so GC does all the work.
        let out = run_src_with(src, AnalyzeOptions::go(), cfg).unwrap();
        assert!(out.metrics.gcs >= 1, "GC ran: {:?}", out.metrics.gcs);
        assert!(out.metrics.heap_gced[Category::Slice.index()] > 0);
    }

    #[test]
    fn gofree_reduces_gcs_versus_go() {
        let src = "func work(n int) int { s := make([]int, n)\n s[0] = n\n x := s[0]\n return x }\nfunc main() { total := 0\n for i := 0; i < 3000; i += 1 { total += work(120) }\n print(total) }\n";
        let mk_cfg = || VmConfig {
            runtime: RuntimeConfig {
                migrate_prob: 0.0,
                jitter: 0.0,
                min_heap: 64 * 1024,
                ..RuntimeConfig::default()
            },
            ..VmConfig::default()
        };
        let go = run_src_with(src, AnalyzeOptions::go(), mk_cfg()).unwrap();
        let gofree = run_src_with(src, AnalyzeOptions::default(), mk_cfg()).unwrap();
        assert_eq!(go.output, gofree.output, "same program behaviour");
        assert!(
            gofree.metrics.gcs < go.metrics.gcs,
            "GoFree {} GCs vs Go {} GCs",
            gofree.metrics.gcs,
            go.metrics.gcs
        );
        assert!(gofree.metrics.free_ratio() > 0.5);
    }

    #[test]
    fn poison_mode_detects_unsound_free() {
        // Directly free a slice that is still used afterwards — the mock
        // tcfree (§6.8) must surface the bug as a poisoned read.
        let src =
            "func main() { n := 100\n s := make([]int, n)\n s[0] = 7\n tcfree(s)\n print(s[0]) }\n";
        let cfg = VmConfig {
            runtime: RuntimeConfig {
                poison: PoisonMode::Zero,
                migrate_prob: 0.0,
                ..RuntimeConfig::default()
            },
            ..VmConfig::default()
        };
        let err = run_src_with(src, AnalyzeOptions::go(), cfg).unwrap_err();
        assert_eq!(err, ExecError::PoisonedRead);
    }

    #[test]
    fn sanitizer_flags_use_after_free() {
        // The same unsound hand-written free, but caught by the shadow
        // heap instead of poison: the run completes (the stale read sees
        // the old bytes) and the violation is reported out-of-band.
        let src =
            "func main() { n := 100\n s := make([]int, n)\n s[0] = 7\n tcfree(s)\n print(s[0]) }\n";
        let cfg = VmConfig {
            runtime: RuntimeConfig {
                migrate_prob: 0.0,
                jitter: 0.0,
                ..RuntimeConfig::default()
            },
            sanitize: true,
            ..VmConfig::default()
        };
        let out = run_src_with(src, AnalyzeOptions::go(), cfg).unwrap();
        assert_eq!(out.output, "7\n", "stale read still sees old bytes");
        assert!(!out.violations.is_empty());
        assert_eq!(
            out.violations[0].kind,
            minigo_runtime::ViolationKind::UseAfterFree
        );
        assert_eq!(out.violations[0].op, "slice index read");
    }

    #[test]
    fn sanitizer_is_invisible_and_clean_on_sound_program() {
        // Instrumented (sound) frees: zero violations, and the observable
        // report is bit-identical with the sanitizer on or off.
        let src = "func work(n int) int { s := make([]int, n)\n s[0] = n\n x := s[0]\n return x }\nfunc main() { total := 0\n for i := 0; i < 50; i += 1 { total += work(100 + i) }\n print(total) }\n";
        let base = VmConfig {
            runtime: RuntimeConfig {
                migrate_prob: 0.0,
                jitter: 0.0,
                ..RuntimeConfig::default()
            },
            ..VmConfig::default()
        };
        let plain = run_src_with(src, AnalyzeOptions::default(), base.clone()).unwrap();
        let sanitized = run_src_with(
            src,
            AnalyzeOptions::default(),
            VmConfig {
                sanitize: true,
                ..base
            },
        )
        .unwrap();
        assert!(sanitized.violations.is_empty());
        assert_eq!(plain.output, sanitized.output);
        assert_eq!(plain.time, sanitized.time);
        assert_eq!(plain.steps, sanitized.steps);
        assert_eq!(
            format!("{:?}", plain.metrics),
            format!("{:?}", sanitized.metrics)
        );
        assert_eq!(plain.site_profile, sanitized.site_profile);
    }

    #[test]
    fn poison_mode_passes_on_sound_program() {
        // The instrumented frees are all sound, so poisoning must not
        // change observable behaviour.
        let src = "func work(n int) int { s := make([]int, n)\n s[0] = n\n x := s[0]\n return x }\nfunc main() { total := 0\n for i := 0; i < 50; i += 1 { total += work(100 + i) }\n print(total) }\n";
        let cfg = VmConfig {
            runtime: RuntimeConfig {
                poison: PoisonMode::Flip,
                migrate_prob: 0.0,
                ..RuntimeConfig::default()
            },
            ..VmConfig::default()
        };
        let out = run_src_with(src, AnalyzeOptions::default(), cfg).unwrap();
        assert_eq!(out.output, "6225\n");
    }

    #[test]
    fn stack_allocation_counted() {
        let out = run_src("func main() { s := make([]int, 10)\n s[0] = 1\n print(s[0]) }\n");
        assert_eq!(out.metrics.stack_allocs[Category::Slice.index()], 1);
        assert_eq!(out.metrics.heap_allocs[Category::Slice.index()], 0);
    }

    #[test]
    fn escaping_var_is_heap_accounted() {
        let src = "func mk() *int { x := 5\n return &x }\nfunc main() { p := mk()\n print(*p) }\n";
        let out = run_src(src);
        assert_eq!(out.output, "5\n");
        assert!(
            out.metrics.heap_allocs[Category::Other.index()] >= 1,
            "escaping x must be heap-accounted: {:?}",
            out.metrics.heap_allocs
        );
    }

    #[test]
    fn step_limit_stops_runaway() {
        let src = "func main() { for { } }\n";
        let cfg = VmConfig {
            step_limit: 10_000,
            ..VmConfig::default()
        };
        let err = run_src_with(src, AnalyzeOptions::default(), cfg).unwrap_err();
        assert_eq!(err, ExecError::StepLimit);
    }

    #[test]
    fn deterministic_across_runs() {
        let src = "func main() { m := make(map[int]int)\n for i := 0; i < 500; i += 1 { m[i % 50] = i }\n print(len(m)) }\n";
        let a = run_src(src);
        let b = run_src(src);
        assert_eq!(a.output, b.output);
        assert_eq!(a.time, b.time);
        assert_eq!(a.metrics.alloced_bytes, b.metrics.alloced_bytes);
    }
}
