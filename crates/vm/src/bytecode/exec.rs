//! The bytecode engine: a loop-dispatch VM over the slot-indexed IR.
//!
//! Executes one instruction stream per function. Like every engine it
//! owns control flow only — frames, the operand stack, each
//! instruction's own tick — and performs every heap operation through
//! the [`Machine`], so the sequence of allocations, frees, safepoints,
//! and GC cycles, and the total clock charge per statement, are the
//! tree-walk's by construction (and checked by the differential tests).
//!
//! Frames hold a dense `Vec` of slots instead of a `HashMap<VarId, _>`;
//! each call's operand stack is a plain local `Vec`. Operand-stack
//! temporaries are deliberately *not* GC roots: only frame slots and
//! deferred-call arguments are, on either engine.

use std::cell::{Ref, RefCell};
use std::rc::Rc;

use minigo_syntax::{BinOp, Builtin};

use super::ir::{BFunc, Const, Instr, Module};
use crate::error::ExecError;
use crate::machine::{
    cap_of, check_index_base, expected_bool, int_of, itoa, len_of, reslice, value_eq, with_field,
    Dispatch, Machine, Result, RunOutcome, Session, VmConfig,
};
use crate::mark::RootSink;
use crate::value::{ObjId, PtrVal, SliceVal, Value};

/// Runs a lowered module's `main`.
///
/// # Errors
///
/// Returns the same [`ExecError`]s as the tree-walking interpreter:
/// panics, nil dereferences, bounds errors, poisoned reads, and
/// resource-limit violations.
pub fn run_module(module: &Module, cfg: VmConfig) -> Result<RunOutcome> {
    let mut session = Session::new(Bytecode::new(module), cfg)?;
    session.call_main()?;
    Ok(session.finish())
}

/// A frame slot. `Empty` marks a not-yet-declared local; reading one is
/// the engine's analogue of the tree-walk's "variable not found".
#[derive(Clone)]
enum BSlot {
    Empty,
    Plain(Value),
    Boxed(Rc<RefCell<Value>>, Option<ObjId>),
}

// A handle without a niche would grow every frame slot.
const _: () = assert!(std::mem::size_of::<BSlot>() == 32);

enum BDeferKind {
    Func(usize),
    Builtin(Builtin),
}

struct BDeferred {
    kind: BDeferKind,
    args: Vec<Value>,
}

struct BFrame {
    slots: Vec<BSlot>,
    defers: Vec<BDeferred>,
}

/// The bytecode engine: a lowered (optionally optimized) module and its
/// frame stack.
pub struct Bytecode<'m> {
    module: &'m Module,
    /// Per-run materialization of the module's (thread-shared) constant
    /// pool; string payloads are `Rc`-shared within the run.
    consts: Vec<Value>,
    frames: Vec<BFrame>,
    /// Retired frame-slot vectors, reused across calls so a call does
    /// not malloc (values were dropped when the owning frame popped).
    slot_pool: Vec<Vec<BSlot>>,
    /// Retired operand stacks, reused across calls for the same reason.
    stack_pool: Vec<Vec<Value>>,
}

#[inline]
fn bslot(value: Value, boxed: bool) -> BSlot {
    if boxed {
        BSlot::Boxed(Rc::new(RefCell::new(value)), None)
    } else {
        BSlot::Plain(value)
    }
}

/// The `JumpIfFalse` test, shared with the fused branch handlers.
#[inline]
fn branch_if_false(v: &Value, pc: &mut usize, t: usize) -> Result<()> {
    match v {
        Value::Bool(b) => {
            if !b {
                *pc = t;
            }
            Ok(())
        }
        other => Err(expected_bool(other)),
    }
}

/// A frame slot's value lent in place: a plain slot's `&Value`, or the
/// open `Ref` of a boxed one (which must drop before a store to the same
/// slot re-borrows the cell mutably).
enum Operand<'a> {
    Plain(&'a Value),
    Boxed(Ref<'a, Value>),
}

impl std::ops::Deref for Operand<'_> {
    type Target = Value;

    #[inline(always)]
    fn deref(&self) -> &Value {
        match self {
            Operand::Plain(v) => v,
            Operand::Boxed(r) => r,
        }
    }
}

/// The one way the engine reads a frame slot (the `LoadSlot` body sans
/// tick and sans clone): lends the top frame's slot `s`, poison-checked
/// on the borrow. A free function over `frames` so the loan leaves the
/// rest of the engine free to be mutated (the [`Machine`] is a separate
/// struct for the same reason). The
/// hot path (a plain, unpoisoned slot) must stay small enough to inline
/// into the dispatch loop; the error constructions are kept out of line
/// behind `#[cold]`. `inline(always)` because LLVM refuses the hint at
/// this size yet the call sits on every fused load's hot path (a
/// measured win; see DESIGN.md §12).
#[inline(always)]
fn operand<'a>(frames: &'a [BFrame], f: &BFunc, s: u32) -> Result<Operand<'a>> {
    #[cold]
    fn undeclared(f: &BFunc, s: u32) -> ExecError {
        ExecError::Internal(format!(
            "variable {} not found in any frame",
            f.slot_names[s as usize]
        ))
    }
    let frame = frames.last().expect("in a frame");
    let v = match &frame.slots[s as usize] {
        BSlot::Plain(v) => Operand::Plain(v),
        BSlot::Boxed(cell, _) => Operand::Boxed(cell.borrow()),
        BSlot::Empty => return Err(undeclared(f, s)),
    };
    if matches!(*v, Value::Poison) {
        return Err(ExecError::PoisonedRead);
    }
    Ok(v)
}

// ---- the int lane ----
//
// The handlers that dominate the measured instruction mix try these
// first: when every slot, constant and stack top involved is a plain
// `Value::Int` they compute on `i64`s and write an `i64` back (or set
// `pc`) — no `Operand`, no `Result<Value>`, no slot drop. A `None` from
// any of them (a boxed, empty, poisoned or non-int operand, `/ 0`, `% 0`,
// `&&`, `||`) has changed nothing, and the handler's generic body runs:
// every error and every non-int row stays the generic path's.

#[inline(always)]
fn as_int(v: &Value) -> Option<i64> {
    match v {
        Value::Int(i) => Some(*i),
        _ => None,
    }
}

/// The top frame's slot `s`, when it is a plain int.
#[inline(always)]
fn int_slot(frames: &[BFrame], s: u32) -> Option<i64> {
    match &frames.last()?.slots[s as usize] {
        BSlot::Plain(v) => as_int(v),
        _ => None,
    }
}

/// Plain slot `base` as a slice header beside plain slot `idx` as an int.
#[inline(always)]
fn slice_and_int(frames: &[BFrame], base: u32, idx: u32) -> Option<(&SliceVal, i64)> {
    match &frames.last()?.slots[base as usize] {
        BSlot::Plain(Value::Slice(s)) => Some((s, int_slot(frames, idx)?)),
        _ => None,
    }
}

/// Overwrites the int in the top frame's plain slot `s` with `v`.
#[inline(always)]
fn set_int_slot(frames: &mut [BFrame], s: u32, v: Option<i64>) -> Option<()> {
    match &mut frames.last_mut()?.slots[s as usize] {
        BSlot::Plain(Value::Int(i)) => *i = v?,
        _ => return None,
    }
    Some(())
}

/// `a op b` for the operators with an int result ([`Machine::binop`]'s
/// first rows); division by zero is left to the generic body to report.
#[inline(always)]
fn arith(op: BinOp, a: i64, b: i64) -> Option<i64> {
    Some(match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div if b != 0 => a.wrapping_div(b),
        BinOp::Rem if b != 0 => a.wrapping_rem(b),
        _ => return None,
    })
}

/// `a op b` for the comparisons.
#[inline(always)]
fn cmp(op: BinOp, a: i64, b: i64) -> Option<bool> {
    Some(match op {
        BinOp::Lt => a < b,
        BinOp::Le => a <= b,
        BinOp::Gt => a > b,
        BinOp::Ge => a >= b,
        BinOp::Eq => a == b,
        BinOp::Ne => a != b,
        _ => return None,
    })
}

/// Branches as `JumpIfFalse` would on `a op b`, a comparison.
#[inline(always)]
fn int_branch(op: BinOp, ints: Option<(i64, i64)>, pc: &mut usize, t: usize) -> Option<()> {
    let (a, b) = ints?;
    if !cmp(op, a, b)? {
        *pc = t;
    }
    Some(())
}

/// Pushes `a op b`, as a push form leaves it on the stack.
#[inline(always)]
fn push_int_bin(stack: &mut Vec<Value>, op: BinOp, ints: Option<(i64, i64)>) -> Option<()> {
    let (a, b) = ints?;
    stack.push(match arith(op, a, b) {
        Some(v) => Value::Int(v),
        None => Value::Bool(cmp(op, a, b)?),
    });
    Some(())
}

/// `*l = *l op r` in place, when `l` is an int.
#[inline(always)]
fn int_bin_assign(l: &mut Value, op: BinOp, r: Option<i64>) -> Option<()> {
    let (Value::Int(a), r) = (&mut *l, r?) else {
        return None;
    };
    match arith(op, *a, r) {
        Some(v) => *a = v,
        None => *l = Value::Bool(cmp(op, *a, r)?),
    }
    Some(())
}

#[inline]
fn pop(stack: &mut Vec<Value>) -> Value {
    stack.pop().expect("operand stack underflow")
}

/// The top two operands in place, the top one last.
#[inline(always)]
fn top2(stack: &[Value]) -> (&Value, &Value) {
    match stack {
        [.., l, r] => (l, r),
        _ => panic!("operand stack underflow"),
    }
}

/// `[.., l, r]` to `[.., l op r]` in place, when both are ints.
#[inline(always)]
fn int_bin_top2(stack: &mut Vec<Value>, op: BinOp) -> Option<()> {
    let [.., l, r] = &mut stack[..] else {
        return None;
    };
    int_bin_assign(l, op, as_int(r))?;
    stack.pop();
    Some(())
}

/// Overwrites the top two operands with `v` (a binary result).
#[inline(always)]
fn replace_top2(stack: &mut Vec<Value>, v: Value) {
    stack.pop();
    *stack.last_mut().expect("operand stack underflow") = v;
}

/// The `IndexSet` operands `[.., v, base, idx]`: `v` moved out (it is
/// what gets stored), base and index in place; the caller truncates.
#[inline(always)]
fn store_operands(stack: &mut [Value]) -> (Value, &Value, &Value) {
    match stack {
        [.., v, base, idx] => (std::mem::replace(v, Value::Nil), base, idx),
        _ => panic!("operand stack underflow"),
    }
}

impl<'m> Bytecode<'m> {
    /// An engine over `module`.
    pub fn new(module: &'m Module) -> Self {
        Bytecode {
            module,
            consts: module.consts.iter().map(Const::to_value).collect(),
            frames: Vec::new(),
            slot_pool: Vec::new(),
            stack_pool: Vec::new(),
        }
    }

    // ---- calls ----

    /// The call protocol: moves the top `nargs` of the caller's operand
    /// stack into the callee's parameter slots, runs body + defers, and
    /// pushes the poison-checked results back (dropped when `want` is
    /// `u32::MAX`). Frame-slot vectors and operand stacks are recycled
    /// through pools, so a call steady-state allocates nothing.
    fn call_on_stack(
        &mut self,
        m: &mut Machine,
        fid: usize,
        stack: &mut Vec<Value>,
        nargs: usize,
        want: u32,
    ) -> Result<()> {
        m.check_depth(self.frames.len())?;
        let f = &self.module.funcs[fid];
        let mut slots = self.slot_pool.pop().unwrap_or_default();
        slots.resize(f.nslots as usize, BSlot::Empty);
        let base = stack.len() - nargs;
        for (&(slot, boxed), arg) in f.params.iter().zip(stack.drain(base..)) {
            slots[slot as usize] = bslot(arg, boxed);
        }
        for &(slot, boxed, zero) in &f.results {
            let Some(zero) = zero else {
                slots.clear();
                self.slot_pool.push(slots);
                return Err(ExecError::Internal("untyped result".into()));
            };
            slots[slot as usize] = bslot(self.consts[zero as usize].clone(), boxed);
        }
        self.frames.push(BFrame {
            slots,
            defers: Vec::new(),
        });
        let parent_stack = m.enter_stack(&f.name);

        let body = self.exec(m, f);
        let defer_result = self.run_defers(m);
        // Read the results, then pop, then propagate: a poisoned or
        // undeclared result must not leave the frame behind (a root set
        // and a `max_frames` unit for the rest of a session).
        let rbase = stack.len();
        let results = body.and(defer_result).and_then(|()| {
            f.results.iter().try_for_each(|&(slot, _, _)| {
                stack.push(self.slot_value(f, slot)?);
                Ok(())
            })
        });
        m.leave_stack(parent_stack);
        self.pop_frame();
        results?;
        if want == u32::MAX {
            stack.truncate(rbase);
        } else if stack.len() - rbase != want as usize {
            return Err(ExecError::Internal("result arity mismatch".into()));
        }
        Ok(())
    }

    /// Pops the current frame, recycling its slot vector (the slot
    /// values drop here, exactly when the frame itself used to drop).
    fn pop_frame(&mut self) {
        if let Some(frame) = self.frames.pop() {
            let mut slots = frame.slots;
            slots.clear();
            self.slot_pool.push(slots);
        }
    }

    fn run_defers(&mut self, m: &mut Machine) -> Result<()> {
        loop {
            let Some(d) = self.frames.last_mut().and_then(|f| f.defers.pop()) else {
                return Ok(());
            };
            match d.kind {
                BDeferKind::Func(fid) => {
                    // The arguments become the callee's parameters; its
                    // results are read and poison-checked like any
                    // call's, then discarded.
                    let mut stack = d.args;
                    let nargs = stack.len();
                    self.call_on_stack(m, fid, &mut stack, nargs, u32::MAX)?;
                }
                BDeferKind::Builtin(Builtin::Print) => m.print(&d.args),
                BDeferKind::Builtin(_) => {}
            }
        }
    }

    // ---- the dispatch loop ----

    /// Runs one function body on a pooled operand stack.
    fn exec(&mut self, m: &mut Machine, f: &BFunc) -> Result<()> {
        let mut stack = self.stack_pool.pop().unwrap_or_default();
        let res = self.exec_on(m, f, &mut stack);
        stack.clear();
        self.stack_pool.push(stack);
        res
    }

    #[allow(clippy::too_many_lines)]
    fn exec_on(&mut self, m: &mut Machine, f: &BFunc, stack: &mut Vec<Value>) -> Result<()> {
        let code = &f.code;
        let mut pc = 0usize;
        loop {
            let instr = &code[pc];
            pc += 1;
            match instr {
                Instr::Safepoint => m.safepoint(&*self)?,
                Instr::Tick(n) => m.tick(u64::from(*n)),
                Instr::Jump(t) => pc = *t,
                Instr::JumpIfFalse(t) => branch_if_false(&pop(stack), &mut pc, *t)?,
                Instr::AndJump(t) => match pop(stack) {
                    Value::Bool(b) => {
                        if !b {
                            stack.push(Value::Bool(false));
                            pc = *t;
                        }
                    }
                    other => return Err(expected_bool(&other)),
                },
                Instr::OrJump(t) => match pop(stack) {
                    Value::Bool(b) => {
                        if b {
                            stack.push(Value::Bool(true));
                            pc = *t;
                        }
                    }
                    other => return Err(expected_bool(&other)),
                },
                Instr::AssertBool => {
                    let v = stack.last().expect("operand stack underflow");
                    if !matches!(v, Value::Bool(_)) {
                        return Err(expected_bool(v));
                    }
                }
                Instr::CaseJump(t) => {
                    let cv = pop(stack);
                    let sv = stack.last().expect("operand stack underflow");
                    if value_eq(sv, &cv)? {
                        stack.pop();
                        pc = *t;
                    }
                }
                Instr::Ret => return Ok(()),
                Instr::Call {
                    fid,
                    nargs,
                    want,
                    value_pos,
                } => {
                    if *value_pos {
                        m.tick(1);
                    }
                    m.tick(2);
                    self.call_on_stack(m, *fid, stack, *nargs as usize, *want)?;
                }
                Instr::DeferFunc { fid, nargs } => {
                    let args = stack.split_off(stack.len() - *nargs as usize);
                    self.frames
                        .last_mut()
                        .expect("in a frame")
                        .defers
                        .push(BDeferred {
                            kind: BDeferKind::Func(*fid),
                            args,
                        });
                }
                Instr::DeferBuiltin { builtin, nargs } => {
                    let args = stack.split_off(stack.len() - *nargs as usize);
                    self.frames
                        .last_mut()
                        .expect("in a frame")
                        .defers
                        .push(BDeferred {
                            kind: BDeferKind::Builtin(*builtin),
                            args,
                        });
                }
                Instr::Const(c) => {
                    m.tick(1);
                    stack.push(self.consts[*c as usize].clone());
                }
                Instr::ConstRaw(c) => stack.push(self.consts[*c as usize].clone()),
                Instr::LoadSlot(s) => {
                    m.tick(1);
                    let v = self.slot_value(f, *s)?;
                    stack.push(v);
                }
                Instr::StoreSlot(s) => {
                    let v = pop(stack);
                    self.store_slot(*s, v)?;
                }
                Instr::Declare {
                    slot,
                    boxed,
                    heap,
                    size,
                } => {
                    let v = pop(stack);
                    let new_slot = if *boxed {
                        let PtrVal { cell, obj } = m.alloc_box(v, *heap, *size, None);
                        BSlot::Boxed(cell, obj)
                    } else {
                        BSlot::Plain(v)
                    };
                    let frame = self.frames.last_mut().expect("in a frame");
                    frame.slots[*slot as usize] = new_slot;
                }
                Instr::Pop(n) => {
                    stack.truncate(stack.len() - *n as usize);
                }
                Instr::ReverseN(n) => {
                    let at = stack.len() - *n as usize;
                    stack[at..].reverse();
                }
                Instr::Neg => {
                    let v = int_of(&pop(stack))?;
                    m.tick(1);
                    stack.push(Value::Int(v.wrapping_neg()));
                }
                Instr::Not => match pop(stack) {
                    Value::Bool(b) => {
                        m.tick(1);
                        stack.push(Value::Bool(!b));
                    }
                    other => return Err(expected_bool(&other)),
                },
                Instr::Bin(op) => {
                    m.tick(1);
                    if int_bin_top2(stack, *op).is_some() {
                        continue;
                    }
                    let (l, r) = top2(stack);
                    let v = m.binop(*op, l, r)?;
                    replace_top2(stack, v);
                }
                Instr::BinRaw(op) => {
                    if int_bin_top2(stack, *op).is_some() {
                        continue;
                    }
                    let (l, r) = top2(stack);
                    let v = m.binop(*op, l, r)?;
                    replace_top2(stack, v);
                }
                Instr::AddrOfSlot(s) => {
                    m.tick(1);
                    let frame = self.frames.last().expect("in a frame");
                    match &frame.slots[*s as usize] {
                        BSlot::Boxed(cell, obj) => stack.push(Value::ptr(PtrVal {
                            cell: cell.clone(),
                            obj: *obj,
                        })),
                        BSlot::Plain(_) => {
                            return Err(ExecError::Internal(format!(
                                "address taken of unboxed variable {}",
                                f.slot_names[*s as usize]
                            )))
                        }
                        BSlot::Empty => {
                            return Err(ExecError::Internal("variable not found".into()))
                        }
                    }
                }
                Instr::AllocBox { heap, size, site } => {
                    m.tick(1);
                    let v = pop(stack);
                    stack.push(Value::ptr(m.alloc_box(v, *heap, *size, Some(*site))));
                }
                Instr::Deref => {
                    m.tick(1);
                    let p = pop(stack);
                    stack.push(m.deref(&p)?);
                }
                Instr::DerefSet => {
                    let p = pop(stack);
                    m.deref_set(&p, pop(stack))?;
                }
                Instr::GetField { idx, through_ptr } => {
                    m.tick(1);
                    let base = pop(stack);
                    stack.push(m.get_field(&base, *idx as usize, *through_ptr)?);
                }
                Instr::StructSetField { idx } => {
                    let base = pop(stack);
                    let v = pop(stack);
                    stack.push(with_field(base, *idx as usize, v)?);
                }
                Instr::FieldSetPtr { idx } => {
                    let p = pop(stack);
                    m.field_set_ptr(&p, *idx as usize, pop(stack))?;
                }
                Instr::CheckIndexBase => {
                    check_index_base(stack.last().expect("operand stack underflow"))?
                }
                Instr::IndexGet => {
                    m.tick(1);
                    let (base, idx) = top2(stack);
                    let v = m.index_get(base, idx)?;
                    replace_top2(stack, v);
                }
                Instr::IndexSet => {
                    let (v, base, idx) = store_operands(stack);
                    m.index_set(base, idx, v)?;
                    stack.truncate(stack.len() - 3);
                }
                Instr::ReSlice { has_hi } => {
                    m.tick(1);
                    let hi = if *has_hi {
                        Some(int_of(&pop(stack))?)
                    } else {
                        None
                    };
                    let lo = int_of(&pop(stack))?;
                    let base = pop(stack);
                    stack.push(reslice(&base, lo, hi)?);
                }
                Instr::MakeSlice {
                    elem_size,
                    has_cap,
                    heap,
                    site,
                    zero,
                } => {
                    m.tick(1);
                    let cap = if *has_cap {
                        Some(int_of(&pop(stack))?)
                    } else {
                        None
                    };
                    let len = int_of(&pop(stack))?;
                    let zero = self.consts[*zero as usize].clone();
                    stack.push(m.make_slice(len, cap, *elem_size, zero, *heap, *site)?);
                }
                Instr::MakeMap {
                    entry_size,
                    heap,
                    site,
                    default,
                } => {
                    m.tick(1);
                    let default = self.consts[*default as usize].clone();
                    stack.push(m.make_map(default, *entry_size, *heap, *site));
                }
                Instr::NewPtr {
                    size,
                    heap,
                    site,
                    zero,
                } => {
                    m.tick(1);
                    let zero = self.consts[*zero as usize].clone();
                    stack.push(Value::ptr(m.alloc_box(zero, *heap, *size, Some(*site))));
                }
                Instr::Append { elem_size, site } => {
                    m.tick(1);
                    let item = pop(stack);
                    let sv = pop(stack);
                    let out = m.append(sv, item, *elem_size, *site)?;
                    stack.push(out);
                }
                Instr::MakeStruct(n) => {
                    m.tick(1);
                    let fields = stack.split_off(stack.len() - *n as usize);
                    stack.push(Value::struct_of(fields));
                }
                Instr::Len => {
                    m.tick(1);
                    let top = stack.last_mut().expect("operand stack underflow");
                    *top = len_of(top)?;
                }
                Instr::Cap => {
                    m.tick(1);
                    let v = pop(stack);
                    stack.push(cap_of(&v)?);
                }
                Instr::MapDelete => {
                    m.tick(1);
                    let kv = pop(stack);
                    let mv = pop(stack);
                    m.map_delete(&mv, &kv)?;
                    stack.push(Value::Int(0));
                }
                Instr::Panic => {
                    m.tick(1);
                    let v = pop(stack);
                    return Err(ExecError::Panic(v.display()));
                }
                Instr::Print(n) => {
                    m.tick(1);
                    let args = stack.split_off(stack.len() - *n as usize);
                    m.print(&args);
                    stack.push(Value::Int(0));
                }
                Instr::Itoa => {
                    m.tick(1);
                    let v = int_of(&pop(stack))?;
                    stack.push(itoa(v));
                }
                Instr::Tcfree { follows_free } => m.exec_tcfree(pop(stack), *follows_free),
                Instr::TrapUnsupported(msg) => {
                    return Err(ExecError::Unsupported(msg.to_string()));
                }
                Instr::TrapInternal(msg) => {
                    return Err(ExecError::Internal(msg.to_string()));
                }
                // ---- optimizer-tier instructions ----
                //
                // Each fused handler charges its summed constituent
                // ticks upfront, then runs the constituent logic in the
                // original order. Coalescing is invisible: the clock
                // charge is an exact add and no observable event can
                // occur between the constituents' charges.
                Instr::ConstTicked { c, ticks } => {
                    m.tick(u64::from(*ticks));
                    stack.push(self.consts[*c as usize].clone());
                }
                Instr::LoadLoadBin { a, b, op, ticks } => {
                    m.tick(u64::from(*ticks));
                    let ints = int_slot(&self.frames, *a).zip(int_slot(&self.frames, *b));
                    if push_int_bin(stack, *op, ints).is_none() {
                        stack.push(self.bin_slots(m, f, *a, *b, *op)?);
                    }
                }
                Instr::LoadConstBin { a, c, op, ticks } => {
                    m.tick(u64::from(*ticks));
                    let ints = int_slot(&self.frames, *a).zip(as_int(&self.consts[*c as usize]));
                    if push_int_bin(stack, *op, ints).is_none() {
                        stack.push(self.bin_slot_const(m, f, *a, *c, *op)?);
                    }
                }
                Instr::LoadLoadBinStore {
                    a,
                    b,
                    op,
                    dst,
                    ticks,
                } => {
                    m.tick(u64::from(*ticks));
                    let ints = int_slot(&self.frames, *a).zip(int_slot(&self.frames, *b));
                    let v = ints.and_then(|(a, b)| arith(*op, a, b));
                    if set_int_slot(&mut self.frames, *dst, v).is_some() {
                        continue;
                    }
                    let v = self.bin_slots(m, f, *a, *b, *op)?;
                    self.store_slot(*dst, v)?;
                }
                Instr::LoadConstBinStore {
                    a,
                    c,
                    op,
                    dst,
                    ticks,
                } => {
                    m.tick(u64::from(*ticks));
                    let ints = int_slot(&self.frames, *a).zip(as_int(&self.consts[*c as usize]));
                    let v = ints.and_then(|(a, c)| arith(*op, a, c));
                    if set_int_slot(&mut self.frames, *dst, v).is_some() {
                        continue;
                    }
                    let v = self.bin_slot_const(m, f, *a, *c, *op)?;
                    self.store_slot(*dst, v)?;
                }
                Instr::LoadLoadBinJump { a, b, op, t, ticks } => {
                    m.tick(u64::from(*ticks));
                    let ints = int_slot(&self.frames, *a).zip(int_slot(&self.frames, *b));
                    if int_branch(*op, ints, &mut pc, *t).is_some() {
                        continue;
                    }
                    let v = self.bin_slots(m, f, *a, *b, *op)?;
                    branch_if_false(&v, &mut pc, *t)?;
                }
                Instr::LoadConstBinJump { a, c, op, t, ticks } => {
                    m.tick(u64::from(*ticks));
                    let ints = int_slot(&self.frames, *a).zip(as_int(&self.consts[*c as usize]));
                    if int_branch(*op, ints, &mut pc, *t).is_some() {
                        continue;
                    }
                    let v = self.bin_slot_const(m, f, *a, *c, *op)?;
                    branch_if_false(&v, &mut pc, *t)?;
                }
                Instr::LoadJumpIfFalse { s, t, ticks } => {
                    m.tick(u64::from(*ticks));
                    branch_if_false(&*operand(&self.frames, f, *s)?, &mut pc, *t)?;
                }
                Instr::BinJumpIfFalse { op, t, ticks } => {
                    m.tick(u64::from(*ticks));
                    let (l, r) = top2(stack);
                    if int_branch(*op, as_int(l).zip(as_int(r)), &mut pc, *t).is_some() {
                        stack.truncate(stack.len() - 2);
                        continue;
                    }
                    let v = m.binop(*op, l, r)?;
                    stack.truncate(stack.len() - 2);
                    branch_if_false(&v, &mut pc, *t)?;
                }
                Instr::LoadLoadIndexGet { base, idx, ticks } => {
                    m.tick(u64::from(*ticks));
                    if let Some((s, i)) = slice_and_int(&self.frames, *base, *idx) {
                        stack.push(m.slice_get(s, i)?);
                        continue;
                    }
                    let b = operand(&self.frames, f, *base)?;
                    check_index_base(&b)?;
                    let i = operand(&self.frames, f, *idx)?;
                    stack.push(m.index_get(&b, &i)?);
                }
                Instr::LoadConstIndexGet { base, c, ticks } => {
                    m.tick(u64::from(*ticks));
                    let b = operand(&self.frames, f, *base)?;
                    check_index_base(&b)?;
                    let i = &self.consts[*c as usize];
                    stack.push(m.index_get(&b, i)?);
                }
                Instr::LoadLoadIndexSet { base, idx, ticks } => {
                    m.tick(u64::from(*ticks));
                    if let Some((s, i)) = slice_and_int(&self.frames, *base, *idx) {
                        m.slice_set(s, i, pop(stack))?;
                        continue;
                    }
                    let b = operand(&self.frames, f, *base)?;
                    check_index_base(&b)?;
                    let i = operand(&self.frames, f, *idx)?;
                    m.index_set(&b, &i, pop(stack))?;
                }
                Instr::LoadConstIndexSet { base, c, ticks } => {
                    m.tick(u64::from(*ticks));
                    let b = operand(&self.frames, f, *base)?;
                    check_index_base(&b)?;
                    let i = &self.consts[*c as usize];
                    m.index_set(&b, i, pop(stack))?;
                }
                Instr::LoadLen { s, ticks } => {
                    m.tick(u64::from(*ticks));
                    stack.push(len_of(&*operand(&self.frames, f, *s)?)?);
                }
                Instr::LoadLenStore { s, dst, ticks } => {
                    m.tick(u64::from(*ticks));
                    let v = len_of(&*operand(&self.frames, f, *s)?)?;
                    self.store_slot(*dst, v)?;
                }
                Instr::LoadLoadLenBinJump { a, s, op, t, ticks } => {
                    m.tick(u64::from(*ticks));
                    let ints = slice_and_int(&self.frames, *s, *a).map(|(s, a)| (a, s.len as i64));
                    if int_branch(*op, ints, &mut pc, *t).is_some() {
                        continue;
                    }
                    let l = operand(&self.frames, f, *a)?;
                    let r = len_of(&*operand(&self.frames, f, *s)?)?;
                    let v = m.binop(*op, &l, &r)?;
                    branch_if_false(&v, &mut pc, *t)?;
                }
                Instr::BinSlot { s, op, ticks } => {
                    m.tick(u64::from(*ticks));
                    let l = stack.last_mut().expect("operand stack underflow");
                    if int_bin_assign(l, *op, int_slot(&self.frames, *s)).is_some() {
                        continue;
                    }
                    let r = operand(&self.frames, f, *s)?;
                    *l = m.binop(*op, l, &r)?;
                }
                Instr::BinConst { c, op, ticks } => {
                    m.tick(u64::from(*ticks));
                    let l = stack.last_mut().expect("operand stack underflow");
                    if int_bin_assign(l, *op, as_int(&self.consts[*c as usize])).is_some() {
                        continue;
                    }
                    *l = m.binop(*op, l, &self.consts[*c as usize])?;
                }
                Instr::BinConstStore { c, op, dst, ticks } => {
                    m.tick(u64::from(*ticks));
                    let l = pop(stack);
                    let v = m.binop(*op, &l, &self.consts[*c as usize])?;
                    self.store_slot(*dst, v)?;
                }
                Instr::BinConstJump { c, op, t, ticks } => {
                    m.tick(u64::from(*ticks));
                    let l = pop(stack);
                    let ints = as_int(&l).zip(as_int(&self.consts[*c as usize]));
                    if int_branch(*op, ints, &mut pc, *t).is_some() {
                        continue;
                    }
                    let v = m.binop(*op, &l, &self.consts[*c as usize])?;
                    branch_if_false(&v, &mut pc, *t)?;
                }
                Instr::LoadLoad { a, b, ticks } => {
                    m.tick(u64::from(*ticks));
                    stack.push(self.slot_value(f, *a)?);
                    stack.push(self.slot_value(f, *b)?);
                }
            }
        }
    }

    // ---- slot access ----

    /// An owned copy of a slot, for when the copy is the point (a push).
    #[inline(always)]
    fn slot_value(&self, f: &BFunc, s: u32) -> Result<Value> {
        Ok(operand(&self.frames, f, s)?.clone())
    }

    /// `slot[a] op slot[b]`, the operand loans ended by the time it
    /// returns (so the result may be stored to either slot).
    #[inline(always)]
    fn bin_slots(&self, m: &mut Machine, f: &BFunc, a: u32, b: u32, op: BinOp) -> Result<Value> {
        let l = operand(&self.frames, f, a)?;
        let r = operand(&self.frames, f, b)?;
        m.binop(op, &l, &r)
    }

    /// `slot[a] op const[c]`, likewise.
    #[inline(always)]
    fn bin_slot_const(
        &self,
        m: &mut Machine,
        f: &BFunc,
        a: u32,
        c: u32,
        op: BinOp,
    ) -> Result<Value> {
        let l = operand(&self.frames, f, a)?;
        m.binop(op, &l, &self.consts[c as usize])
    }

    /// The `StoreSlot` body, shared with the fused handlers.
    #[inline(always)]
    fn store_slot(&mut self, s: u32, v: Value) -> Result<()> {
        let frame = self.frames.last_mut().expect("in a frame");
        match &mut frame.slots[s as usize] {
            BSlot::Plain(p) => *p = v,
            BSlot::Boxed(cell, _) => *cell.borrow_mut() = v,
            BSlot::Empty => Err(ExecError::Internal("write to undeclared variable".into()))?,
        }
        Ok(())
    }
}

impl Dispatch for Bytecode<'_> {
    fn call(&mut self, m: &mut Machine, name: &str, args: Vec<Value>) -> Result<Vec<Value>> {
        let funcs = &self.module.funcs;
        let fid = funcs
            .iter()
            .position(|f| f.name == name)
            .ok_or_else(|| ExecError::NoFunc(name.to_string()))?;
        let want = funcs[fid].results.len() as u32;
        let mut stack = args;
        let nargs = stack.len();
        self.call_on_stack(m, fid, &mut stack, nargs, want)?;
        Ok(stack)
    }

    fn roots(&self, sink: &mut dyn RootSink) {
        for frame in &self.frames {
            for slot in &frame.slots {
                match slot {
                    BSlot::Empty => {}
                    BSlot::Plain(v) => sink.value(v),
                    BSlot::Boxed(cell, obj) => sink.boxed(cell, *obj),
                }
            }
            for v in frame.defers.iter().flat_map(|d| &d.args) {
                sink.value(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use minigo_runtime::{PoisonMode, RuntimeConfig};

    use super::*;

    fn func(name: &str, nslots: u32, code: Vec<Instr>) -> BFunc {
        BFunc {
            name: name.into(),
            nslots,
            params: Vec::new(),
            results: vec![(0, false, Some(0))],
            slot_names: (0..nslots).map(|i| format!("v{i}")).collect(),
            code,
        }
    }

    /// ROADMAP aim 3: a failing request leaves the session usable
    /// (`tests/engines.rs` drives the failures a guest program can reach
    /// through every engine). The failure here is the one none can reach — the callee's
    /// own *result slot* reads poisoned after body and defers succeeded —
    /// so the module is written by hand: `bad` re-declares its result as
    /// a heap box, frees it through a pointer under the §6.8 mock, and
    /// returns with a heap slice still in its frame.
    #[test]
    fn a_poisoned_result_leaves_no_frame_behind() {
        let bad = func(
            "bad",
            2,
            vec![
                Instr::Const(0),
                Instr::Declare {
                    slot: 0,
                    boxed: true,
                    heap: true,
                    size: 8,
                },
                Instr::Const(1),
                Instr::MakeSlice {
                    elem_size: 8,
                    has_cap: false,
                    heap: true,
                    site: minigo_syntax::ExprId(1),
                    zero: 0,
                },
                Instr::Declare {
                    slot: 1,
                    boxed: false,
                    heap: false,
                    size: 0,
                },
                Instr::AddrOfSlot(0),
                Instr::Tcfree {
                    follows_free: false,
                },
                Instr::Ret,
            ],
        );
        let good = func(
            "good",
            1,
            vec![Instr::Const(1), Instr::StoreSlot(0), Instr::Ret],
        );
        let module = Module {
            funcs: vec![bad, good],
            consts: vec![Const::Int(0), Const::Int(64)],
        };
        let cfg = VmConfig {
            runtime: RuntimeConfig {
                poison: PoisonMode::Zero,
                trace: true,
                ..RuntimeConfig::default()
            },
            // One frame is all a top-level call needs: a leaked one turns
            // every later request into a stack overflow.
            max_frames: 1,
            ..VmConfig::default()
        };
        let mut s = Session::new(Bytecode::new(&module), cfg).expect("valid config");
        let roots =
            |s: &Session<Bytecode>| s.engine.frames.iter().map(|f| f.slots.len()).sum::<usize>();
        assert_eq!(roots(&s), 0);
        for _ in 0..3 {
            assert_eq!(
                s.call("bad", Vec::new()).err(),
                Some(ExecError::PoisonedRead)
            );
            assert!(s.engine.frames.is_empty(), "callee frame left behind");
            assert_eq!(roots(&s), 0, "callee slots still rooted");
            assert_eq!(s.m.cur_stack(), minigo_runtime::ROOT_STACK);
        }
        let out = s.call("good", Vec::new()).expect("session still usable");
        assert!(matches!(out[..], [Value::Int(64)]), "got {out:?}");
        assert!(s.engine.frames.is_empty());
    }

    /// The int lane of a `...BinStore` form writes through the
    /// destination's `i64`, so it must decline whenever the destination
    /// holds anything else: the store is then the generic body's, with
    /// its result or error. No typed program stores an int over a string
    /// or into an undeclared slot, hence the hand-written module.
    #[test]
    fn the_int_lane_declines_a_destination_that_is_not_a_plain_int() {
        let add_into = |dst| Instr::LoadConstBinStore {
            a: 0,
            c: 1,
            op: BinOp::Add,
            dst,
            ticks: 3,
        };
        let declare = |boxed| Instr::Declare {
            slot: 1,
            boxed,
            heap: false,
            size: 8,
        };
        let over_str = vec![
            Instr::Const(2),
            declare(false),
            add_into(1),
            Instr::LoadSlot(1),
            Instr::StoreSlot(0),
            Instr::Ret,
        ];
        let into_box = vec![
            Instr::Const(2),
            declare(true),
            add_into(1),
            Instr::AddrOfSlot(1),
            Instr::Deref,
            Instr::StoreSlot(0),
            Instr::Ret,
        ];
        let module = Module {
            funcs: vec![
                func("over_str", 2, over_str),
                func("into_box", 2, into_box),
                func("into_empty", 2, vec![add_into(1), Instr::Ret]),
            ],
            consts: vec![Const::Int(5), Const::Int(64), Const::Str("s".into())],
        };
        let mut s = Session::new(Bytecode::new(&module), VmConfig::default()).expect("valid");
        for name in ["over_str", "into_box"] {
            let out = s.call(name, Vec::new()).expect(name);
            assert!(matches!(out[..], [Value::Int(69)]), "{name}: got {out:?}");
        }
        assert_eq!(
            s.call("into_empty", Vec::new()).err(),
            Some(ExecError::Internal("write to undeclared variable".into()))
        );
        assert!(s.engine.frames.is_empty());
    }
}
