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
use minigo_syntax::visit::{self, Walk};
use minigo_syntax::{
    BinOp, Block, Builtin, Expr, ExprId, ExprKind, FuncId, IdMap, Program, Resolution, Stmt,
    StmtKind, Type, TypeInfo, UnOp, VarId,
};

use crate::bytecode::lower::{field_target, frame_layout, zero_value, FrameLayout};
use crate::error::ExecError;
use crate::machine::{
    cap_of, check_index_base, check_poison, expected_bool, int_of, itoa, len_of, reslice, value_eq,
    with_field, DeferKind, Deferred, Dispatch, Frame, Machine, Result, RunOutcome, Session, Slot,
    VmConfig,
};
use crate::mark::RootSink;
use crate::value::Value;

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

/// The tree-walk engine: a checked program and its frame stack.
pub struct TreeWalk<'p> {
    program: &'p Program,
    res: &'p Resolution,
    types: &'p TypeInfo,
    analysis: &'p Analysis,
    /// Per function, by `FuncId` index, its frame layout.
    layouts: Vec<FrameLayout>,
    /// The expressions that contain a call: only a call reaches a
    /// safepoint, so only these can collect while an operand waits.
    calls: IdMap<ExprId, ()>,
    frames: Vec<Frame<'static>>,
    /// Operands evaluated and not yet consumed, innermost last: GC roots
    /// while a call made in between runs (the bytecode's pending
    /// temporaries).
    pending: Vec<Value>,
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
        let layouts = program
            .funcs
            .iter()
            .map(|func| frame_layout(func, res, types, analysis));
        TreeWalk {
            program,
            res,
            types,
            analysis,
            layouts: layouts.collect(),
            calls: call_exprs(program),
            frames: Vec::new(),
            pending: Vec::new(),
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
            frame.roots(sink);
        }
        for v in &self.pending {
            sink.value(v);
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
        let (func, res) = (&self.tw.program.funcs[fid.index()], self.tw.res);
        let layout = &self.tw.layouts[fid.index()];
        if layout.results.iter().any(|r| r.2.is_none()) {
            return Err(ExecError::Internal("untyped result".into()));
        }
        let vars = layout.storage.len();
        let mut slots = vec![Slot::Empty; vars];
        for (&(s, _), arg) in layout.params.iter().zip(args) {
            slots[s as usize] = Slot::Plain(arg);
        }
        self.tw.frames.push(Frame::new(fid, slots, vars));
        let parent_stack = self.m.enter_stack(&func.name);
        let params = layout.params.iter().copied();
        let results = layout.results.iter().map(|(s, storage, zero)| {
            let zero = zero.as_ref().expect("checked above").to_value();
            (*s, *storage, zero)
        });
        let frame = self.tw.frames.last_mut().expect("pushed above");
        self.m.enter_frame(&mut frame.slots, params, results);

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

    /// The running frame, and the slot of `var`, one of its variables.
    fn top(&self, var: VarId) -> (&Frame<'static>, u32) {
        let frame = self.tw.frames.last().expect("in a frame");
        (frame, var.0 - self.tw.layouts[frame.func.index()].first)
    }

    /// The variable identifier `e` names.
    fn ident(&self, e: &Expr) -> Result<VarId> {
        let var = self.tw.res.def_of(e.id);
        var.ok_or_else(|| ExecError::Internal("unresolved ident".into()))
    }

    fn callee(&self, name: &str) -> Result<FuncId> {
        let fid = self.tw.res.func_by_name(name);
        fid.ok_or_else(|| ExecError::Internal("unknown callee".into()))
    }

    /// Declares `stmt`'s variables with `values`: the machine boxes an
    /// address-taken one, heap-accounted when the analysis decided it
    /// escapes.
    fn declare(&mut self, stmt: &Stmt, values: Vec<Value>) -> Result<Flow> {
        for (i, v) in values.into_iter().enumerate() {
            let var = self.tw.res.decl_of(stmt.id, i);
            let var = var.ok_or_else(|| ExecError::Internal("unresolved decl".into()))?;
            let (frame, s) = self.top(var);
            let storage = self.tw.layouts[frame.func.index()].storage[s as usize];
            let slot = self.m.new_slot(v, storage);
            self.tw.frames.last_mut().expect("in a frame").slots[s as usize] = slot;
        }
        Ok(Flow::Normal)
    }

    fn read_var(&self, var: VarId) -> Result<Value> {
        let (frame, s) = self.top(var);
        match frame.lend(s) {
            Some(v) => check_poison(v.clone()),
            None => Err(ExecError::Internal(format!(
                "variable {} not found in any frame",
                self.tw.res.var(var).name
            ))),
        }
    }

    fn write_var(&mut self, var: VarId, value: Value) -> Result<()> {
        let s = self.top(var).1;
        let frame = self.tw.frames.last_mut().expect("in a frame");
        frame.store(s, value)
    }

    fn on_heap(&self, e: &Expr) -> bool {
        self.tw.analysis.place_of(e.id) == AllocPlace::Heap
    }

    // ---- pending operands ----

    /// Evaluates `e`, with copies of `held` pending (roots) while it runs
    /// if it can make a call, and so collect.
    fn eval_holding(&mut self, held: &[&Value], e: &Expr) -> Result<Value> {
        if self.tw.calls.get(e.id).is_none() {
            return self.eval(e);
        }
        let base = self.tw.pending.len();
        self.tw.pending.extend(held.iter().map(|&v| v.clone()));
        let out = self.eval(e);
        self.tw.pending.truncate(base);
        out
    }

    /// Evaluates `es` in order, each value pending until the last is
    /// done, and leaves the values on the pending stack from the
    /// returned base up.
    fn eval_onto(&mut self, es: &[Expr]) -> Result<usize> {
        let base = self.tw.pending.len();
        for e in es {
            match self.eval(e) {
                Ok(v) => self.tw.pending.push(v),
                Err(err) => {
                    self.tw.pending.truncate(base);
                    return Err(err);
                }
            }
        }
        Ok(base)
    }

    /// [`Vm::eval_onto`], the values taken off the pending stack.
    fn eval_all(&mut self, es: &[Expr]) -> Result<Vec<Value>> {
        let base = self.eval_onto(es)?;
        Ok(self.tw.pending.drain(base..).collect())
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
                    self.eval_all(init)?
                };
                self.declare(stmt, values)
            }
            StmtKind::ShortDecl { names, init } => {
                let values = if init.len() == 1 && names.len() > 1 {
                    self.eval_multi(&init[0], names.len())?
                } else {
                    self.eval_all(init)?
                };
                self.declare(stmt, values)
            }
            StmtKind::Assign { lhs, op, rhs } => {
                if let Some(op) = op {
                    let old = self.eval(&lhs[0])?;
                    let rv = self.eval_holding(&[&old], &rhs[0])?;
                    let new = self.m.binop(*op, &old, &rv)?;
                    self.store(&lhs[0], new)?;
                    return Ok(Flow::Normal);
                }
                let values = if rhs.len() == 1 && lhs.len() > 1 {
                    self.eval_multi(&rhs[0], lhs.len())?
                } else {
                    self.eval_all(rhs)?
                };
                // Each value stays pending until its own store.
                let base = self.tw.pending.len();
                self.tw.pending.extend(values.into_iter().rev());
                for l in lhs {
                    let v = self.tw.pending.pop().expect("one value per target");
                    if let Err(e) = self.store(l, v) {
                        self.tw.pending.truncate(base);
                        return Err(e);
                    }
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
                        self.eval_all(exprs)?
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
                        (DeferKind::Func(self.callee(callee)?), args)
                    }
                    ExprKind::Builtin { kind, args, .. } => (DeferKind::Builtin(*kind), args),
                    _ => return Err(ExecError::Internal("defer of non-call".into())),
                };
                let args = self.eval_all(args)?;
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
                let mut matched = default.as_ref();
                'cases: for case in cases {
                    for v in &case.values {
                        if value_eq(&sv, &self.eval_holding(&[&sv], v)?)? {
                            matched = Some(&case.body);
                            break 'cases;
                        }
                    }
                }
                // Go semantics: `break` inside a switch exits the switch,
                // not an enclosing loop.
                Ok(match matched {
                    Some(body) => match self.exec_block(body)? {
                        Flow::Break => Flow::Normal,
                        other => other,
                    },
                    None => Flow::Normal,
                })
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
            let fid = self.callee(callee)?;
            let argv = self.eval_all(args)?;
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
                self.read_var(self.ident(e)?)
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
                    let r = self.eval_holding(&[&l], rhs)?;
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
                let iv = self.eval_holding(&[&bv], index)?;
                self.m.tick(1);
                self.m.index_get(&bv, &iv)
            }
            ExprKind::SliceExpr { base, lo, hi } => {
                let bv = self.eval(base)?;
                let mut bound = |e: &Expr| int_of(&self.eval_holding(&[&bv], e)?);
                let lo = lo.as_deref().map_or(Ok(0), &mut bound)?;
                let hi = hi.as_deref().map(bound).transpose()?;
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
                let base = self.eval_onto(fields)?;
                let v = Value::struct_of(self.tw.pending.drain(base..));
                self.m.tick(1);
                Ok(v)
            }
        }
    }

    fn addr_of(&mut self, operand: &Expr) -> Result<Value> {
        match &operand.kind {
            ExprKind::Ident(_) => {
                self.m.tick(1);
                let var = self.ident(operand)?;
                let (frame, s) = self.top(var);
                frame.addr_of(s, &self.tw.res.var(var).name)
            }
            ExprKind::StructLit { .. } => {
                let v = self.eval(operand)?;
                self.m.tick(1);
                let types = self.tw.types;
                let size = types.expr(operand.id).map(|t| types.inline_size(t));
                let heap = self.on_heap(operand);
                let site = Some(operand.id);
                Ok(Value::Ptr(self.m.alloc_box(
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
                Ok(Value::Ptr(self.m.alloc_box(zero, heap, size, Some(e.id))))
            }
            Builtin::Append => {
                let sv = self.eval(&args[0])?;
                let item = self.eval_holding(&[&sv], &args[1])?;
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
                let kv = self.eval_holding(&[&mv], &args[1])?;
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
                let values = self.eval_all(args)?;
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
            ExprKind::Ident(_) => self.write_var(self.ident(lv)?, value),
            ExprKind::Unary {
                op: UnOp::Deref,
                operand,
            } => {
                let p = self.eval_holding(&[&value], operand)?;
                self.m.deref_set(&p, value)
            }
            ExprKind::Field { base, name } => {
                let bv = self.eval_holding(&[&value], base)?;
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
                let bv = self.eval_holding(&[&value], base)?;
                check_index_base(&bv)?;
                let iv = self.eval_holding(&[&value, &bv], index)?;
                self.m.index_set(&bv, &iv, value)
            }
            _ => Err(ExecError::Internal("bad lvalue".into())),
        }
    }
}

/// The expressions of `program` that contain a call, themselves included.
fn call_exprs(program: &Program) -> IdMap<ExprId, ()> {
    let mut order = Vec::new();
    for func in &program.funcs {
        visit::exprs(&func.body, |e| {
            order.push(e);
            Walk::Descend
        });
    }
    // Backwards through pre-order, an expression comes after all below it.
    let mut calls = IdMap::default();
    for e in order.into_iter().rev() {
        let mut call = matches!(e.kind, ExprKind::Call { .. });
        visit::exprs(e, |below| {
            if below.id == e.id {
                return Walk::Descend;
            }
            call |= calls.get(below.id).is_some();
            Walk::Skip
        });
        if call {
            calls.insert(e.id, ());
        }
    }
    calls
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
                poison: PoisonMode::Zero,
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
