//! The bytecode engine: a loop-dispatch VM over the register-form IR.
//!
//! Executes one instruction stream per function. Like every engine it
//! owns control flow only — frames, each instruction's operand reads and
//! its own tick — and performs every heap operation through the
//! [`Machine`], so the sequence of allocations, frees, safepoints, and GC
//! cycles, and the clock at each of them, are the tree-walk's by
//! construction (and checked by the differential tests).
//!
//! A frame is a dense `Vec` of slots: the function's variables, then the
//! temporaries lowering numbered above them. Temporaries are
//! deliberately *not* GC roots: only variable slots and deferred-call
//! arguments are, on either engine (the tree-walk's temporaries are
//! Rust locals).

use std::cell::{Ref, RefCell};
use std::rc::Rc;

use minigo_syntax::{BinOp, Builtin};

use super::ir::{BFunc, Const, Instr, Module, Src, SrcKind};
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

#[derive(Default)]
struct BFrame {
    slots: Vec<BSlot>,
    /// How many of `slots` are variables (the rest are temporaries).
    vars: usize,
    defers: Vec<BDeferred>,
}

/// The bytecode engine: a lowered (optionally optimized) module and its
/// frame stack.
pub struct Bytecode<'m> {
    module: &'m Module,
    /// Per-run materialization of the module's (thread-shared) constant
    /// pool; string payloads are `Rc`-shared within the run.
    consts: Vec<Value>,
    /// The running function's frame (an empty one between calls), kept
    /// apart so a slot access is one index.
    top: BFrame,
    /// The suspended callers' frames, innermost last.
    frames: Vec<BFrame>,
    /// Retired frame-slot vectors, reused across calls so a call does
    /// not malloc (values were dropped when the owning frame popped).
    slot_pool: Vec<Vec<BSlot>>,
}

#[inline]
fn bslot(value: Value, boxed: bool) -> BSlot {
    if boxed {
        BSlot::Boxed(Rc::new(RefCell::new(value)), None)
    } else {
        BSlot::Plain(value)
    }
}

/// The `JumpIf` test: jump to `t` when `v` is `when`.
#[inline]
fn jump_if(v: &Value, when: bool, pc: &mut usize, t: usize) -> Result<()> {
    match v {
        Value::Bool(b) => {
            if *b == when {
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

/// Lends slot `s` of `frame`. A free function so the loan leaves the
/// rest of the engine free to be mutated (the [`Machine`] is a separate
/// struct for the same reason). The error construction is kept out of
/// line so the hot path inlines.
#[inline(always)]
fn lend<'a>(frame: &'a BFrame, f: &BFunc, s: u32) -> Result<Operand<'a>> {
    #[cold]
    fn undeclared(f: &BFunc, s: u32) -> ExecError {
        ExecError::Internal(format!(
            "variable {} not found in any frame",
            f.slot_names[s as usize]
        ))
    }
    match &frame.slots[s as usize] {
        BSlot::Plain(v) => Ok(Operand::Plain(v)),
        BSlot::Boxed(cell, _) => Ok(Operand::Boxed(cell.borrow())),
        BSlot::Empty => Err(undeclared(f, s)),
    }
}

/// Stores `v` to slot `s` of `frame` (through its cell when boxed).
#[inline(always)]
fn store_in(frame: &mut BFrame, s: u32, v: Value) -> Result<()> {
    let slot = &mut frame.slots[s as usize];
    // An int over an int, the hot case, in place: no drop to run.
    if let (BSlot::Plain(Value::Int(d)), Value::Int(n)) = (&mut *slot, &v) {
        *d = *n;
        return Ok(());
    }
    match slot {
        BSlot::Plain(p) => *p = v,
        BSlot::Boxed(cell, _) => *cell.borrow_mut() = v,
        BSlot::Empty => Err(ExecError::Internal("write to undeclared variable".into()))?,
    }
    Ok(())
}

/// [`lend`], poison-checked: the tree-walk's variable read.
#[inline(always)]
fn checked<'a>(frame: &'a BFrame, f: &BFunc, s: u32) -> Result<Operand<'a>> {
    let v = lend(frame, f, s)?;
    if matches!(*v, Value::Poison) {
        return Err(ExecError::PoisonedRead);
    }
    Ok(v)
}

// ---- the int lane ----
//
// `Bin`, `BrCmp`, `Move`, the index instructions and `Len` try these
// first: when every operand involved is a plain `Value::Int` (or slice)
// they charge the instruction's ticks in one add and compute on `i64`s —
// no `Operand`, no `Result<Value>`. Such operands cannot fail to read,
// so no tick is charged early. A `None` (a boxed, empty, poisoned or
// non-int operand, `/ 0`, `% 0`, `&&`, `||`) has changed nothing, and
// the handler's generic body runs: every error and every non-int row
// stays the generic path's.

/// The ticks reading `srcs` charges.
#[inline(always)]
fn read_ticks<const N: usize>(srcs: &[Src; N]) -> u64 {
    srcs.iter().map(|s| u64::from(s.ticks)).sum()
}

#[inline(always)]
fn as_int(v: &Value) -> Option<i64> {
    match v {
        Value::Int(i) => Some(*i),
        _ => None,
    }
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

/// `a op b` for the operators with an int result, as [`Machine::binop`]
/// computes them; division by zero is left to the generic body to
/// report.
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

impl<'m> Bytecode<'m> {
    /// An engine over `module`.
    pub fn new(module: &'m Module) -> Self {
        Bytecode {
            module,
            consts: module.consts.iter().map(Const::to_value).collect(),
            top: BFrame::default(),
            frames: Vec::new(),
            slot_pool: Vec::new(),
        }
    }

    // ---- calls ----

    /// A fresh frame for `f`: every variable undeclared, every
    /// temporary nil. Slot vectors are recycled through a pool, so a
    /// call steady-state allocates nothing.
    fn fresh_slots(&mut self, f: &BFunc) -> Vec<BSlot> {
        let mut slots = self.slot_pool.pop().unwrap_or_default();
        slots.resize(f.slot_names.len(), BSlot::Empty);
        slots.resize(f.nslots as usize, BSlot::Plain(Value::Nil));
        slots
    }

    /// Returns a slot vector to the pool (its values drop here).
    fn recycle(&mut self, mut slots: Vec<BSlot>) {
        slots.clear();
        self.slot_pool.push(slots);
    }

    /// A frame for `fid` with `args` in its parameter slots.
    fn frame_of(&mut self, fid: usize, args: Vec<Value>) -> Vec<BSlot> {
        let f = &self.module.funcs[fid];
        let mut slots = self.fresh_slots(f);
        for (&(slot, boxed), arg) in f.params.iter().zip(args) {
            slots[slot as usize] = bslot(arg, boxed);
        }
        slots
    }

    /// The call protocol, once the callee's parameters are in `slots`:
    /// runs body + defers and reads the results, poison-checked. With
    /// `into = Some((dst, want))` they are stored to the caller's slots
    /// from `dst` up, and there must be `want` of them; otherwise they
    /// are returned.
    fn invoke(
        &mut self,
        m: &mut Machine,
        fid: usize,
        mut slots: Vec<BSlot>,
        into: Option<(u32, u32)>,
    ) -> Result<Vec<Value>> {
        let module = self.module;
        let f = &module.funcs[fid];
        if let Err(e) = m.check_depth(self.frames.len()) {
            self.recycle(slots);
            return Err(e);
        }
        for &(slot, boxed, zero) in &f.results {
            let Some(zero) = zero else {
                self.recycle(slots);
                return Err(ExecError::Internal("untyped result".into()));
            };
            slots[slot as usize] = bslot(self.consts[zero as usize].clone(), boxed);
        }
        let callee = BFrame {
            slots,
            vars: f.slot_names.len(),
            defers: Vec::new(),
        };
        let caller = std::mem::replace(&mut self.top, callee);
        self.frames.push(caller);
        let parent_stack = m.enter_stack(&f.name);

        let body = self.exec(m, f);
        let defer_result = self.run_defers(m);
        // Read the results, then pop, then propagate: a poisoned or
        // undeclared result must not leave the frame behind (a root set
        // and a `max_frames` unit for the rest of a session).
        let results = body.and(defer_result).and_then(|()| {
            let mut out = Vec::new();
            let arity = into.is_none_or(|(_, want)| f.results.len() == want as usize);
            for (k, &(slot, _, _)) in (0..).zip(&f.results) {
                let v = checked(&self.top, f, slot)?.clone();
                match (into, arity) {
                    (Some((dst, _)), true) => {
                        let caller = self.frames.last_mut().expect("pushed above");
                        store_in(caller, dst + k, v)?;
                    }
                    (None, _) => out.push(v),
                    _ => {}
                }
            }
            match arity {
                true => Ok(out),
                false => Err(ExecError::Internal("result arity mismatch".into())),
            }
        });
        m.leave_stack(parent_stack);
        let caller = self.frames.pop().expect("pushed above");
        let callee = std::mem::replace(&mut self.top, caller);
        self.recycle(callee.slots);
        results
    }

    fn run_defers(&mut self, m: &mut Machine) -> Result<()> {
        loop {
            let Some(d) = self.top.defers.pop() else {
                return Ok(());
            };
            match d.kind {
                BDeferKind::Func(fid) => {
                    // The arguments become the callee's parameters; its
                    // results are read and poison-checked like any
                    // call's, then discarded.
                    let slots = self.frame_of(fid, d.args);
                    self.invoke(m, fid, slots, None)?;
                }
                BDeferKind::Builtin(Builtin::Print) => m.print(&d.args),
                BDeferKind::Builtin(_) => {}
            }
        }
    }

    // ---- operands ----

    /// Reads operand `s` as the tree-walk evaluates its leaf: charges
    /// its ticks, then poison-checks a variable.
    #[inline(always)]
    fn src(&self, m: &mut Machine, f: &BFunc, s: Src) -> Result<Operand<'_>> {
        m.tick(u64::from(s.ticks));
        match s.kind {
            SrcKind::Var => checked(&self.top, f, s.at),
            SrcKind::Tmp => lend(&self.top, f, s.at),
            SrcKind::K => Ok(Operand::Plain(&self.consts[s.at as usize])),
        }
    }

    /// An owned copy of operand `s`, for when the copy is the point.
    #[inline(always)]
    fn value(&self, m: &mut Machine, f: &BFunc, s: Src) -> Result<Value> {
        let v = self.src(m, f, s)?;
        // An int is copied in line; `Value::clone` is out of line.
        Ok(match *v {
            Value::Int(n) => Value::Int(n),
            ref other => other.clone(),
        })
    }

    /// Owned copies of `srcs`, read in order.
    fn values(&self, m: &mut Machine, f: &BFunc, srcs: &[Src]) -> Result<Vec<Value>> {
        srcs.iter().map(|&s| self.value(m, f, s)).collect()
    }

    /// Operand `s` when it is a plain int.
    #[inline(always)]
    fn int(&self, s: Src) -> Option<i64> {
        match s.kind {
            SrcKind::K => as_int(&self.consts[s.at as usize]),
            SrcKind::Var | SrcKind::Tmp => match self.top.slots[s.at as usize] {
                BSlot::Plain(Value::Int(n)) => Some(n),
                _ => None,
            },
        }
    }

    /// Operands `a` and `b` when both are plain ints.
    #[inline(always)]
    fn ints(&self, a: Src, b: Src) -> Option<(i64, i64)> {
        Some((self.int(a)?, self.int(b)?))
    }

    /// Operand `s` when it is a plain slice in a slot.
    #[inline(always)]
    fn slice(&self, s: Src) -> Option<&SliceVal> {
        if !matches!(s.kind, SrcKind::Var | SrcKind::Tmp) {
            return None;
        }
        match &self.top.slots[s.at as usize] {
            BSlot::Plain(Value::Slice(sv)) => Some(sv),
            _ => None,
        }
    }

    /// Stores `v` to slot `s` of the running frame.
    #[inline(always)]
    fn store(&mut self, s: u32, v: Value) -> Result<()> {
        store_in(&mut self.top, s, v)
    }

    fn defer(&mut self, kind: BDeferKind, args: Vec<Value>) {
        self.top.defers.push(BDeferred { kind, args });
    }

    // ---- the dispatch loop ----

    #[allow(clippy::too_many_lines)]
    fn exec(&mut self, m: &mut Machine, f: &BFunc) -> Result<()> {
        let module = self.module;
        let code = &f.code;
        let mut pc = 0usize;
        loop {
            let instr = &code[pc];
            pc += 1;
            match instr {
                Instr::Safepoint => m.safepoint(&*self)?,
                Instr::Tick(n) => m.tick(u64::from(*n)),
                Instr::Jump(t) => pc = *t,
                Instr::JumpIf { cond, when, t } => {
                    jump_if(&*self.src(m, f, *cond)?, *when, &mut pc, *t)?;
                }
                Instr::BrCmp { op, a, b, when, t } => {
                    if let Some(r) = self.ints(*a, *b).and_then(|(x, y)| cmp(*op, x, y)) {
                        m.tick(read_ticks(&[*a, *b]) + 1);
                        if r == *when {
                            pc = *t;
                        }
                        continue;
                    }
                    let v = {
                        let l = self.src(m, f, *a)?;
                        let r = self.src(m, f, *b)?;
                        m.tick(1);
                        m.binop(*op, &l, &r)?
                    };
                    jump_if(&v, *when, &mut pc, *t)?;
                }
                Instr::AssertBool(s) => {
                    let v = self.src(m, f, *s)?;
                    if !matches!(*v, Value::Bool(_)) {
                        return Err(expected_bool(&v));
                    }
                }
                Instr::CaseJump { subject, case, t } => {
                    let s = self.src(m, f, *subject)?;
                    if value_eq(&s, &*self.src(m, f, *case)?)? {
                        pc = *t;
                    }
                }
                Instr::Ret => return Ok(()),
                Instr::Call {
                    fid,
                    args,
                    dst,
                    want,
                } => {
                    let callee = &module.funcs[*fid as usize];
                    let mut slots = self.fresh_slots(callee);
                    for (i, &a) in args.iter().enumerate() {
                        let v = match self.value(m, f, a) {
                            Ok(v) => v,
                            Err(e) => {
                                self.recycle(slots);
                                return Err(e);
                            }
                        };
                        if let Some(&(slot, boxed)) = callee.params.get(i) {
                            slots[slot as usize] = bslot(v, boxed);
                        }
                    }
                    m.tick(if *want == 1 { 3 } else { 2 });
                    let into = (*want != u32::MAX).then_some((*dst, *want));
                    self.invoke(m, *fid as usize, slots, into)?;
                }
                Instr::Move { dst, src } => {
                    if let Some(n) = self.int(*src) {
                        m.tick(read_ticks(&[*src]));
                        self.store(*dst, Value::Int(n))?;
                        continue;
                    }
                    let v = self.value(m, f, *src)?;
                    self.store(*dst, v)?;
                }
                Instr::Declare {
                    slot,
                    src,
                    boxed,
                    heap,
                    size,
                } => {
                    let v = self.value(m, f, *src)?;
                    let new_slot = if *boxed {
                        let PtrVal { cell, obj } = m.alloc_box(v, *heap, *size, None);
                        BSlot::Boxed(cell, obj)
                    } else {
                        BSlot::Plain(v)
                    };
                    self.top.slots[*slot as usize] = new_slot;
                }
                Instr::Bin {
                    op,
                    dst,
                    a,
                    b,
                    ticks,
                } => {
                    if let Some((x, y)) = self.ints(*a, *b) {
                        if let Some(n) = arith(*op, x, y) {
                            m.tick(read_ticks(&[*a, *b]) + u64::from(*ticks));
                            self.store(*dst, Value::Int(n))?;
                            continue;
                        }
                        if let Some(c) = cmp(*op, x, y) {
                            m.tick(read_ticks(&[*a, *b]) + u64::from(*ticks));
                            self.store(*dst, Value::Bool(c))?;
                            continue;
                        }
                    }
                    let v = {
                        let l = self.src(m, f, *a)?;
                        let r = self.src(m, f, *b)?;
                        m.tick(u64::from(*ticks));
                        m.binop(*op, &l, &r)?
                    };
                    self.store(*dst, v)?;
                }
                Instr::GetField {
                    dst,
                    base,
                    idx,
                    through_ptr,
                } => {
                    let v = {
                        let b = self.src(m, f, *base)?;
                        m.tick(1);
                        m.get_field(&b, *idx as usize, *through_ptr)?
                    };
                    self.store(*dst, v)?;
                }
                Instr::CheckIndexBase(s) => check_index_base(&*self.src(m, f, *s)?)?,
                Instr::IndexGet { dst, base, idx } => {
                    let v = if let Some((s, i)) = self.slice(*base).zip(self.int(*idx)) {
                        m.tick(read_ticks(&[*base, *idx]) + 1);
                        m.slice_get(s, i)?
                    } else {
                        let b = self.src(m, f, *base)?;
                        check_index_base(&b)?;
                        let i = self.src(m, f, *idx)?;
                        m.tick(1);
                        m.index_get(&b, &i)?
                    };
                    self.store(*dst, v)?;
                }
                Instr::IndexSet { val, base, idx } => {
                    let v = self.value(m, f, *val)?;
                    if let Some((s, i)) = self.slice(*base).zip(self.int(*idx)) {
                        m.tick(read_ticks(&[*base, *idx]));
                        m.slice_set(s, i, v)?;
                        continue;
                    }
                    let b = self.src(m, f, *base)?;
                    check_index_base(&b)?;
                    let i = self.src(m, f, *idx)?;
                    m.index_set(&b, &i, v)?;
                }
                Instr::Len { dst, src } => {
                    if let Some(s) = self.slice(*src) {
                        let n = s.len as i64;
                        m.tick(read_ticks(&[*src]) + 1);
                        self.store(*dst, Value::Int(n))?;
                        continue;
                    }
                    let v = {
                        let v = self.src(m, f, *src)?;
                        m.tick(1);
                        len_of(&v)?
                    };
                    self.store(*dst, v)?;
                }
                _ => self.step(m, f, instr)?,
            }
        }
    }

    /// The instructions off the hot path, out of line so the dispatch
    /// loop stays small.
    #[inline(never)]
    fn step(&mut self, m: &mut Machine, f: &BFunc, instr: &Instr) -> Result<()> {
        match instr {
            Instr::DeferFunc { fid, args } => {
                let args = self.values(m, f, args)?;
                self.defer(BDeferKind::Func(*fid as usize), args);
            }
            Instr::DeferBuiltin { builtin, args } => {
                let args = self.values(m, f, args)?;
                self.defer(BDeferKind::Builtin(*builtin), args);
            }
            Instr::Neg { dst, src } => {
                let v = int_of(&*self.src(m, f, *src)?)?;
                m.tick(1);
                self.store(*dst, Value::Int(v.wrapping_neg()))?;
            }
            Instr::Not { dst, src } => {
                let v = match *self.src(m, f, *src)? {
                    Value::Bool(b) => !b,
                    ref other => return Err(expected_bool(other)),
                };
                m.tick(1);
                self.store(*dst, Value::Bool(v))?;
            }
            Instr::AddrOfSlot { dst, slot } => {
                m.tick(1);
                let p = match &self.top.slots[*slot as usize] {
                    BSlot::Boxed(cell, obj) => Value::ptr(PtrVal {
                        cell: cell.clone(),
                        obj: *obj,
                    }),
                    BSlot::Plain(_) => {
                        return Err(ExecError::Internal(format!(
                            "address taken of unboxed variable {}",
                            f.slot_names[*slot as usize]
                        )))
                    }
                    BSlot::Empty => return Err(ExecError::Internal("variable not found".into())),
                };
                self.store(*dst, p)?;
            }
            Instr::AllocBox {
                dst,
                src,
                heap,
                size,
                site,
            } => {
                let v = self.value(m, f, *src)?;
                m.tick(1);
                let p = Value::ptr(m.alloc_box(v, *heap, *size, Some(*site)));
                self.store(*dst, p)?;
            }
            Instr::Deref { dst, ptr } => {
                let p = self.value(m, f, *ptr)?;
                m.tick(1);
                let v = m.deref(&p)?;
                self.store(*dst, v)?;
            }
            Instr::DerefSet { val, ptr } => {
                let v = self.value(m, f, *val)?;
                let p = self.value(m, f, *ptr)?;
                m.deref_set(&p, v)?;
            }
            Instr::StructSetField {
                dst,
                val,
                base,
                idx,
            } => {
                let v = self.value(m, f, *val)?;
                let b = self.value(m, f, *base)?;
                self.store(*dst, with_field(b, *idx as usize, v)?)?;
            }
            Instr::FieldSetPtr { val, ptr, idx } => {
                let v = self.value(m, f, *val)?;
                let p = self.value(m, f, *ptr)?;
                m.field_set_ptr(&p, *idx as usize, v)?;
            }
            Instr::ReSlice { dst, base, lo, hi } => {
                let v = {
                    let b = self.src(m, f, *base)?;
                    let lo = int_of(&*self.src(m, f, *lo)?)?;
                    let hi = match hi {
                        Some(h) => Some(int_of(&*self.src(m, f, *h)?)?),
                        None => None,
                    };
                    m.tick(1);
                    reslice(&b, lo, hi)?
                };
                self.store(*dst, v)?;
            }
            Instr::MakeSlice {
                dst,
                len,
                cap,
                elem_size,
                heap,
                site,
                zero,
            } => {
                let len = int_of(&*self.src(m, f, *len)?)?;
                let cap = match cap {
                    Some(c) => Some(int_of(&*self.src(m, f, *c)?)?),
                    None => None,
                };
                m.tick(1);
                let zero = self.consts[*zero as usize].clone();
                let v = m.make_slice(len, cap, *elem_size, zero, *heap, *site)?;
                self.store(*dst, v)?;
            }
            Instr::MakeMap {
                dst,
                entry_size,
                heap,
                site,
                default,
            } => {
                m.tick(1);
                let default = self.consts[*default as usize].clone();
                let v = m.make_map(default, *entry_size, *heap, *site);
                self.store(*dst, v)?;
            }
            Instr::NewPtr {
                dst,
                size,
                heap,
                site,
                zero,
            } => {
                m.tick(1);
                let zero = self.consts[*zero as usize].clone();
                let p = Value::ptr(m.alloc_box(zero, *heap, *size, Some(*site)));
                self.store(*dst, p)?;
            }
            Instr::Append {
                dst,
                slice,
                item,
                elem_size,
                site,
            } => {
                let sv = self.value(m, f, *slice)?;
                let item = self.value(m, f, *item)?;
                m.tick(1);
                let out = m.append(sv, item, *elem_size, *site)?;
                self.store(*dst, out)?;
            }
            Instr::MakeStruct { dst, fields } => {
                let fields = self.values(m, f, fields)?;
                m.tick(1);
                self.store(*dst, Value::struct_of(fields))?;
            }
            Instr::Cap { dst, src } => {
                let v = {
                    let v = self.src(m, f, *src)?;
                    m.tick(1);
                    cap_of(&v)?
                };
                self.store(*dst, v)?;
            }
            Instr::MapDelete { dst, map, key } => {
                {
                    let mv = self.src(m, f, *map)?;
                    let kv = self.src(m, f, *key)?;
                    m.tick(1);
                    m.map_delete(&mv, &kv)?;
                }
                self.store(*dst, Value::Int(0))?;
            }
            Instr::Panic(s) => {
                let v = self.src(m, f, *s)?;
                m.tick(1);
                return Err(ExecError::Panic(v.display()));
            }
            Instr::Print { dst, args } => {
                let args = self.values(m, f, args)?;
                m.tick(1);
                m.print(&args);
                self.store(*dst, Value::Int(0))?;
            }
            Instr::Itoa { dst, src } => {
                let v = int_of(&*self.src(m, f, *src)?)?;
                m.tick(1);
                self.store(*dst, itoa(v))?;
            }
            Instr::Tcfree { src, follows_free } => {
                let v = self.value(m, f, *src)?;
                m.exec_tcfree(v, *follows_free);
            }
            Instr::TrapUnsupported(msg) => {
                return Err(ExecError::Unsupported(msg.to_string()));
            }
            Instr::TrapInternal(msg) => {
                return Err(ExecError::Internal(msg.to_string()));
            }

            _ => unreachable!("dispatched in the loop: {instr:?}"),
        }
        Ok(())
    }
}

impl Dispatch for Bytecode<'_> {
    fn call(&mut self, m: &mut Machine, name: &str, args: Vec<Value>) -> Result<Vec<Value>> {
        let fid = self
            .module
            .funcs
            .iter()
            .position(|f| f.name == name)
            .ok_or_else(|| ExecError::NoFunc(name.to_string()))?;
        let slots = self.frame_of(fid, args);
        self.invoke(m, fid, slots, None)
    }

    fn roots(&self, sink: &mut dyn RootSink) {
        for frame in self.frames.iter().chain([&self.top]) {
            for slot in &frame.slots[..frame.vars] {
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

    /// A function with `vars` variables (the first its result) and one
    /// temporary, slot `vars`.
    fn func(name: &str, vars: u32, code: Vec<Instr>) -> BFunc {
        BFunc {
            name: name.into(),
            nslots: vars + 1,
            params: Vec::new(),
            results: vec![(0, false, Some(0))],
            slot_names: (0..vars).map(|i| format!("v{i}")).collect(),
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
                Instr::Declare {
                    slot: 0,
                    src: Src::k(0, 1),
                    boxed: true,
                    heap: true,
                    size: 8,
                },
                Instr::MakeSlice {
                    dst: 2,
                    len: Src::k(1, 1),
                    cap: None,
                    elem_size: 8,
                    heap: true,
                    site: minigo_syntax::ExprId(1),
                    zero: 0,
                },
                Instr::Declare {
                    slot: 1,
                    src: Src::tmp(2),
                    boxed: false,
                    heap: false,
                    size: 0,
                },
                Instr::AddrOfSlot { dst: 2, slot: 0 },
                Instr::Tcfree {
                    src: Src::tmp(2),
                    follows_free: false,
                },
                Instr::Ret,
            ],
        );
        let good = func(
            "good",
            1,
            vec![
                Instr::Move {
                    dst: 0,
                    src: Src::k(1, 1),
                },
                Instr::Ret,
            ],
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
        let roots = |s: &Session<Bytecode>| {
            let frames = s.engine.frames.iter().chain([&s.engine.top]);
            frames.map(|f| f.slots.len()).sum::<usize>()
        };
        assert_eq!(roots(&s), 0);
        for _ in 0..3 {
            assert_eq!(
                s.call("bad", Vec::new()).err(),
                Some(ExecError::PoisonedRead)
            );
            assert!(s.engine.frames.is_empty(), "callee frame left behind");
            assert_eq!(roots(&s), 0, "callee slots still rooted");
        }
        let out = s.call("good", Vec::new()).expect("session still usable");
        assert!(matches!(out[..], [Value::Int(64)]), "got {out:?}");
        assert!(s.engine.frames.is_empty());
        // Every failed call left its stack too: `bad` was entered from
        // the root each time, and so was `good` after it.
        let trace = s.finish().trace.expect("traced session");
        let stacks: Vec<String> = (0..trace.stacks.len() as u32)
            .map(|id| trace.stacks.folded(id))
            .collect();
        assert_eq!(stacks, ["(root)", "bad", "good"]);
    }

    /// The int lane of `Bin` computes on `i64`s but stores like `Move`:
    /// over a string, through a box, and not into an undeclared slot. No
    /// typed program stores an int over a string or into an undeclared
    /// slot, hence the hand-written module.
    #[test]
    fn the_int_lane_stores_to_any_destination_like_a_move() {
        let add_into = |dst| Instr::Bin {
            op: BinOp::Add,
            dst,
            a: Src::var(0),
            b: Src::k(1, 1),
            ticks: 0,
        };
        let declare = |boxed| Instr::Declare {
            slot: 1,
            src: Src::k(2, 1),
            boxed,
            heap: false,
            size: 8,
        };
        let result = |src| Instr::Move { dst: 0, src };
        let over_str = vec![declare(false), add_into(1), result(Src::var(1)), Instr::Ret];
        let into_box = vec![
            declare(true),
            add_into(1),
            Instr::AddrOfSlot { dst: 2, slot: 1 },
            Instr::Deref {
                dst: 0,
                ptr: Src::tmp(2),
            },
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
