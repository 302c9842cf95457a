//! The bytecode engine: a loop-dispatch VM over the slot-indexed IR.
//!
//! Executes one instruction stream per function against the same
//! simulated runtime as the tree-walking interpreter, with identical
//! observable behaviour: the sequence of allocations, frees, safepoints,
//! and GC cycles — and the total clock charge per statement — match the
//! tree-walk exactly, so outputs, free counts, and heap/GC metrics are
//! bit-identical across engines (enforced by the differential tests).
//!
//! Frames hold a dense `Vec` of slots instead of a `HashMap<VarId, _>`;
//! each call's operand stack is a plain local `Vec`. Operand-stack
//! temporaries are deliberately *not* GC roots, mirroring the tree-walk,
//! which marks only frame slots and deferred-call arguments.

use std::cell::{Ref, RefCell};
use std::rc::Rc;

use minigo_runtime::{Category, FreeOutcome, FreeSource, Runtime, ShadowHeap};
use minigo_syntax::{BinOp, Builtin};

use super::ir::{BFunc, Const, Instr, Module};
use crate::error::ExecError;
use crate::fxhash::FxHashMap;
use crate::interp::{binop, check_poison, free_op_name, value_eq};
use crate::interp::{Result, RunOutcome, SiteProfile, VmConfig};
use crate::mark::{collect_garbage, RootSink};
use crate::value::{Key, MapData, MapVal, ObjId, PtrVal, SliceVal, Value};

/// Runs a lowered module's `main`.
///
/// # Errors
///
/// Returns the same [`ExecError`]s as the tree-walking interpreter:
/// panics, nil dereferences, bounds errors, poisoned reads, and
/// resource-limit violations.
pub fn run_module(module: &Module, cfg: VmConfig) -> Result<RunOutcome> {
    cfg.runtime.validate().map_err(ExecError::InvalidConfig)?;
    if module.main == usize::MAX {
        return Err(ExecError::NoMain);
    }
    let mut vm = BVm::new(cfg, module);
    vm.run_function(module, module.main, Vec::new())?;
    Ok(vm.finish())
}

/// A persistent bytecode execution session — the bytecode twin of
/// [`crate::interp::Session`], driving the same call protocol the
/// engine's internal calls use so session runs stay bit-identical
/// across engines. See the tree-walk session for the contract.
pub struct BSession<'m> {
    module: &'m Module,
    vm: BVm,
}

impl<'m> BSession<'m> {
    /// Creates a session over a lowered (optionally optimized) module.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::InvalidConfig`] when the runtime
    /// configuration fails validation.
    pub fn new(module: &'m Module, cfg: VmConfig) -> Result<Self> {
        cfg.runtime.validate().map_err(ExecError::InvalidConfig)?;
        Ok(BSession {
            module,
            vm: BVm::new(cfg, module),
        })
    }

    /// Calls a top-level function by name and returns its results.
    ///
    /// # Errors
    ///
    /// [`ExecError::NoFunc`] for an unknown name; otherwise whatever the
    /// call itself raises.
    pub fn call(&mut self, name: &str, args: Vec<Value>) -> Result<Vec<Value>> {
        let fid = self
            .module
            .funcs
            .iter()
            .position(|f| f.name == name)
            .ok_or_else(|| ExecError::NoFunc(name.to_string()))?;
        let want = self.module.funcs[fid].results.len() as u32;
        let mut stack = args;
        let nargs = stack.len();
        self.vm
            .call_on_stack(self.module, fid, &mut stack, nargs, want)?;
        Ok(stack)
    }

    /// Roots `values` for the rest of the session (marked at every GC).
    pub fn hold(&mut self, values: Vec<Value>) {
        self.vm.held.extend(values);
    }

    /// Elapsed virtual time.
    pub fn now(&self) -> u64 {
        self.vm.m.rt.now()
    }

    /// Advances the virtual clock to absolute time `t` (idle waiting).
    pub fn idle_until(&mut self, t: u64) {
        self.vm.m.rt.idle_until(t);
    }

    /// Current live heap bytes.
    pub fn heap_live(&self) -> u64 {
        self.vm.m.rt.heap_live()
    }

    /// Current page-level heap footprint in bytes.
    pub fn footprint(&self) -> u64 {
        self.vm.m.rt.footprint()
    }

    /// Every completed GC cycle's stop record so far.
    pub fn pauses(&self) -> &[minigo_runtime::Pause] {
        self.vm.m.rt.pauses()
    }

    /// Records a completed-request trace span (no-op without tracing).
    pub fn note_request(&mut self, id: u64, arrival: u64, start: u64) {
        self.vm.m.rt.trace_request(id, arrival, start);
    }

    /// Ends the session and assembles the same [`RunOutcome`] a one-shot
    /// [`run_module`] would produce.
    pub fn finish(self) -> RunOutcome {
        self.vm.finish()
    }
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

struct BVm {
    /// Per-run materialization of the module's (thread-shared) constant
    /// pool; string payloads are `Rc`-shared within the run.
    consts: Vec<Value>,
    frames: Vec<BFrame>,
    /// Retired frame-slot vectors, reused across calls so a call does
    /// not malloc (values were dropped when the owning frame popped).
    slot_pool: Vec<Vec<BSlot>>,
    /// Retired operand stacks, reused across calls for the same reason.
    stack_pool: Vec<Vec<Value>>,
    /// Interned call stacks when tracing (hooked at the same function
    /// entry/exit points as the tree-walk's, so ids are bit-identical
    /// across engines).
    stacks: Option<minigo_runtime::StackTable>,
    /// The interned id of the current call stack (root when not tracing).
    cur_stack: u32,
    /// Session-held GC roots (see the tree-walk's `held`); always empty
    /// in one-shot [`run_module`] executions.
    held: Vec<Value>,
    output: String,
    m: Machine,
}

/// Everything a heap operation mutates. Kept apart from the frame stack
/// so a handler can hold operands borrowed from the top frame (see
/// [`operand`]) while an index, store, or allocation runs.
struct Machine {
    cfg: VmConfig,
    rt: Runtime,
    site_profile: FxHashMap<minigo_syntax::ExprId, (u64, u64)>,
    /// The shadow-heap sanitizer, present when `cfg.sanitize` is on
    /// (hooked at the same points as the tree-walk's).
    shadow: Option<ShadowHeap>,
    /// Monomorphic inline caches, one per `ic_slots` entry in the
    /// module. A cache can only *miss* when stale (the tag is the map
    /// storage's address and the cached entry's key is re-checked on
    /// every hit), so it accelerates lookups without being able to
    /// change any observable result.
    ics: Vec<IcEntry>,
    ic_hits: u64,
    ic_misses: u64,
    steps: u64,
}

/// One inline-cache entry: the identity of the last map storage seen at
/// this site plus the entry index its key resolved to.
#[derive(Clone, Copy)]
struct IcEntry {
    tag: usize,
    idx: usize,
}

const IC_EMPTY: IcEntry = IcEntry {
    tag: 0,
    idx: usize::MAX,
};

#[inline]
fn bslot(value: Value, boxed: bool) -> BSlot {
    if boxed {
        BSlot::Boxed(Rc::new(RefCell::new(value)), None)
    } else {
        BSlot::Plain(value)
    }
}

fn expected_bool(v: &Value) -> ExecError {
    ExecError::Internal(format!("expected bool, got {}", v.display()))
}

fn expected_int(v: &Value) -> ExecError {
    ExecError::Internal(format!("expected int, got {}", v.display()))
}

/// The `CheckIndexBase` test, shared with the fused index handlers.
#[inline]
fn check_index_base(v: &Value) -> Result<()> {
    match v {
        Value::Slice(_) | Value::Map(_) => Ok(()),
        Value::Nil => Err(ExecError::NilDeref),
        _ => Err(ExecError::Internal("index of non-indexable".into())),
    }
}

/// The `Len` computation, shared with the fused length handlers.
#[inline]
fn len_of(v: &Value) -> Result<Value> {
    let n = match v {
        Value::Slice(s) => s.len as i64,
        Value::Map(map) => map.data.borrow().len() as i64,
        Value::Str(s) => s.len() as i64,
        Value::Nil => 0,
        _ => return Err(ExecError::Internal("len of bad value".into())),
    };
    Ok(Value::Int(n))
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
/// rest of the VM — the [`Machine`] above all — free to be mutated. The
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

impl BVm {
    fn new(cfg: VmConfig, module: &Module) -> Self {
        let rt = Runtime::new(cfg.runtime.clone());
        let shadow = cfg.sanitize.then(ShadowHeap::new);
        let stacks = cfg.runtime.trace.then(minigo_runtime::StackTable::new);
        BVm {
            consts: module.consts.iter().map(Const::to_value).collect(),
            frames: Vec::new(),
            slot_pool: Vec::new(),
            stack_pool: Vec::new(),
            stacks,
            cur_stack: minigo_runtime::ROOT_STACK,
            held: Vec::new(),
            output: String::new(),
            m: Machine {
                cfg,
                rt,
                site_profile: FxHashMap::default(),
                shadow,
                ics: vec![IC_EMPTY; module.ic_slots as usize],
                ic_hits: 0,
                ic_misses: 0,
                steps: 0,
            },
        }
    }

    /// End-of-run accounting shared by [`run_module`] and
    /// [`BSession::finish`]: finalizes the runtime and assembles the
    /// report (mirrors the tree-walk's `finish`).
    fn finish(mut self) -> RunOutcome {
        self.m.rt.finalize();
        let mut site_profile: Vec<SiteProfile> = self
            .m
            .site_profile
            .iter()
            .map(|(&site, &(count, bytes))| SiteProfile { site, count, bytes })
            .collect();
        site_profile.sort_by(|a, b| b.bytes.cmp(&a.bytes).then(a.site.cmp(&b.site)));
        let violations = match self.m.shadow.as_mut() {
            Some(sh) => sh.take_violations(),
            None => Vec::new(),
        };
        let mut trace = self.m.rt.take_trace();
        if let (Some(tr), Some(st)) = (trace.as_mut(), self.stacks.take()) {
            // The runtime only sees interned ids; the table that resolves
            // them lives in the VM and rides along in the trace.
            tr.stacks = st;
        }
        RunOutcome {
            output: std::mem::take(&mut self.output),
            time: self.m.rt.now(),
            metrics: self.m.rt.metrics().clone(),
            steps: self.m.steps,
            site_profile,
            violations,
            trace,
            collector: self.m.rt.collector_kind(),
            ic_hits: self.m.ic_hits,
            ic_misses: self.m.ic_misses,
            opt: None,
            placement: None,
        }
    }

    // ---- GC ----

    #[inline]
    fn safepoint(&mut self) -> Result<()> {
        self.m.steps += 1;
        if self.m.steps > self.m.cfg.step_limit {
            return Err(ExecError::StepLimit);
        }
        self.m.rt.tick(1);
        if self.m.rt.gc_pending() {
            self.collect_garbage();
        }
        Ok(())
    }

    fn collect_garbage(&mut self) {
        let (frames, held, m) = (&self.frames, &self.held, &mut self.m);
        collect_garbage(&mut m.rt, &mut m.shadow, |sink: &mut dyn RootSink| {
            for frame in frames {
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
            for v in held {
                sink.value(v);
            }
        });
    }

    // ---- calls ----

    /// Calls a function whose results are discarded (entry point and
    /// deferred calls); `args` become the callee's parameters. Results
    /// are still read and poison-checked exactly as a stack call's.
    fn run_function(&mut self, m: &Module, fid: usize, args: Vec<Value>) -> Result<()> {
        let mut stack = args;
        let nargs = stack.len();
        self.call_on_stack(m, fid, &mut stack, nargs, u32::MAX)
    }

    /// The call protocol: moves the top `nargs` of the caller's operand
    /// stack into the callee's parameter slots, runs body + defers, and
    /// pushes the poison-checked results back (dropped when `want` is
    /// `u32::MAX`). Frame-slot vectors and operand stacks are recycled
    /// through pools, so a call steady-state allocates nothing.
    fn call_on_stack(
        &mut self,
        m: &Module,
        fid: usize,
        stack: &mut Vec<Value>,
        nargs: usize,
        want: u32,
    ) -> Result<()> {
        if self.frames.len() >= self.m.cfg.max_frames {
            return Err(ExecError::StackOverflow);
        }
        let f = &m.funcs[fid];
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
        let parent_stack = self.enter_stack(&f.name);

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
        self.leave_stack(parent_stack);
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

    /// Tracing only: interns the stack extended with `name`, stamps it
    /// into the runtime, and returns the previous stack id (mirrors the
    /// tree-walk's hook exactly — same call points, same interning order).
    fn enter_stack(&mut self, name: &str) -> u32 {
        let parent = self.cur_stack;
        if let Some(st) = &mut self.stacks {
            self.cur_stack = st.push(parent, name);
            self.m.rt.set_stack(self.cur_stack);
        }
        parent
    }

    /// Tracing only: restores the caller's stack id on function exit.
    fn leave_stack(&mut self, parent: u32) {
        if self.stacks.is_some() {
            self.cur_stack = parent;
            self.m.rt.set_stack(parent);
        }
    }

    fn run_defers(&mut self, m: &Module) -> Result<()> {
        loop {
            let Some(d) = self.frames.last_mut().and_then(|f| f.defers.pop()) else {
                return Ok(());
            };
            match d.kind {
                BDeferKind::Func(fid) => {
                    self.run_function(m, fid, d.args)?;
                }
                BDeferKind::Builtin(Builtin::Print) => {
                    self.do_print(&d.args);
                }
                BDeferKind::Builtin(_) => {}
            }
        }
    }

    // ---- the dispatch loop ----

    /// Runs one function body on a pooled operand stack.
    fn exec(&mut self, m: &Module, f: &BFunc) -> Result<()> {
        let mut stack = self.stack_pool.pop().unwrap_or_default();
        let res = self.exec_on(m, f, &mut stack);
        stack.clear();
        self.stack_pool.push(stack);
        res
    }

    #[allow(clippy::too_many_lines)]
    fn exec_on(&mut self, m: &Module, f: &BFunc, stack: &mut Vec<Value>) -> Result<()> {
        let code = &f.code;
        let mut pc = 0usize;
        loop {
            let instr = &code[pc];
            pc += 1;
            match instr {
                Instr::Safepoint => self.safepoint()?,
                Instr::Tick(n) => self.m.rt.tick(u64::from(*n)),
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
                        self.m.rt.tick(1);
                    }
                    self.m.rt.tick(2);
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
                    self.m.rt.tick(1);
                    stack.push(self.consts[*c as usize].clone());
                }
                Instr::ConstRaw(c) => stack.push(self.consts[*c as usize].clone()),
                Instr::LoadSlot(s) => {
                    self.m.rt.tick(1);
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
                        let obj = if *heap {
                            Some(self.m.new_obj(*size, Category::Other))
                        } else {
                            self.m.rt.stack_alloc(Category::Other);
                            None
                        };
                        BSlot::Boxed(Rc::new(RefCell::new(v)), obj)
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
                Instr::Neg => match pop(stack) {
                    Value::Int(v) => {
                        self.m.rt.tick(1);
                        stack.push(Value::Int(v.wrapping_neg()));
                    }
                    other => return Err(expected_int(&other)),
                },
                Instr::Not => match pop(stack) {
                    Value::Bool(b) => {
                        self.m.rt.tick(1);
                        stack.push(Value::Bool(!b));
                    }
                    other => return Err(expected_bool(&other)),
                },
                Instr::Bin(op) => {
                    self.m.rt.tick(1);
                    let (l, r) = top2(stack);
                    let v = binop(&mut self.m.rt, *op, l, r)?;
                    replace_top2(stack, v);
                }
                Instr::BinRaw(op) => {
                    let (l, r) = top2(stack);
                    let v = binop(&mut self.m.rt, *op, l, r)?;
                    replace_top2(stack, v);
                }
                Instr::AddrOfSlot(s) => {
                    self.m.rt.tick(1);
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
                    self.m.rt.tick(1);
                    let v = pop(stack);
                    let obj = if *heap {
                        Some(self.m.new_obj_at(*size, Category::Other, Some(*site)))
                    } else {
                        self.m.rt.stack_alloc(Category::Other);
                        None
                    };
                    stack.push(Value::ptr(PtrVal {
                        cell: Rc::new(RefCell::new(v)),
                        obj,
                    }));
                }
                Instr::Deref => {
                    self.m.rt.tick(1);
                    match pop(stack) {
                        Value::Ptr(p) => {
                            self.m.shadow_access(p.obj, "pointer deref read");
                            let v = check_poison(p.cell.borrow().clone())?;
                            stack.push(v);
                        }
                        Value::Nil => return Err(ExecError::NilDeref),
                        _ => return Err(ExecError::Internal("deref of non-pointer".into())),
                    }
                }
                Instr::DerefSet => match pop(stack) {
                    Value::Ptr(p) => {
                        self.m.shadow_access(p.obj, "pointer deref write");
                        self.m.barrier_store(p.obj);
                        let v = pop(stack);
                        *p.cell.borrow_mut() = v;
                    }
                    Value::Nil => return Err(ExecError::NilDeref),
                    _ => return Err(ExecError::Internal("store through non-pointer".into())),
                },
                Instr::GetField { idx, through_ptr } => {
                    self.m.rt.tick(1);
                    let fields = match (pop(stack), through_ptr) {
                        (Value::Struct(fields), false) => fields,
                        (Value::Ptr(p), true) => {
                            self.m.shadow_access(p.obj, "field read");
                            let inner = p.cell.borrow().clone();
                            match inner {
                                Value::Struct(fields) => fields,
                                Value::Poison => return Err(ExecError::PoisonedRead),
                                _ => return Err(ExecError::Internal("field of non-struct".into())),
                            }
                        }
                        (Value::Nil, _) => return Err(ExecError::NilDeref),
                        (Value::Poison, _) => return Err(ExecError::PoisonedRead),
                        _ => return Err(ExecError::Internal("field of non-struct".into())),
                    };
                    stack.push(check_poison(fields[*idx as usize].clone())?);
                }
                Instr::StructSetField { idx } => match pop(stack) {
                    Value::Struct(mut fields) => {
                        let v = pop(stack);
                        Rc::make_mut(&mut fields)[*idx as usize] = v;
                        stack.push(Value::Struct(fields));
                    }
                    Value::Nil => return Err(ExecError::NilDeref),
                    Value::Poison => return Err(ExecError::PoisonedRead),
                    _ => return Err(ExecError::Internal("field store on non-struct".into())),
                },
                Instr::FieldSetPtr { idx } => match pop(stack) {
                    Value::Ptr(p) => {
                        self.m.shadow_access(p.obj, "field write");
                        self.m.barrier_store(p.obj);
                        let v = pop(stack);
                        let mut target = p.cell.borrow_mut();
                        match &mut *target {
                            Value::Struct(fields) => Rc::make_mut(fields)[*idx as usize] = v,
                            Value::Poison => return Err(ExecError::PoisonedRead),
                            _ => {
                                return Err(ExecError::Internal("field store on non-struct".into()))
                            }
                        }
                    }
                    Value::Nil => return Err(ExecError::NilDeref),
                    Value::Poison => return Err(ExecError::PoisonedRead),
                    _ => return Err(ExecError::Internal("field store on non-struct".into())),
                },
                Instr::CheckIndexBase => {
                    check_index_base(stack.last().expect("operand stack underflow"))?
                }
                Instr::IndexGet => {
                    self.m.rt.tick(1);
                    let (base, idx) = top2(stack);
                    let v = self.m.index_get(base, idx, None)?;
                    replace_top2(stack, v);
                }
                Instr::IndexGetIC(ic) => {
                    self.m.rt.tick(1);
                    let (base, idx) = top2(stack);
                    let v = self.m.index_get(base, idx, Some(*ic))?;
                    replace_top2(stack, v);
                }
                Instr::IndexSet => {
                    let (v, base, idx) = store_operands(stack);
                    self.m.index_set(base, idx, v, None)?;
                    stack.truncate(stack.len() - 3);
                }
                Instr::IndexSetIC(ic) => {
                    let (v, base, idx) = store_operands(stack);
                    self.m.index_set(base, idx, v, Some(*ic))?;
                    stack.truncate(stack.len() - 3);
                }
                Instr::ReSlice { has_hi } => {
                    self.m.rt.tick(1);
                    let hi_v = if *has_hi { Some(pop(stack)) } else { None };
                    let lo_v = pop(stack);
                    let base = pop(stack);
                    let Value::Int(lo) = lo_v else {
                        return Err(expected_int(&lo_v));
                    };
                    let hi = match &hi_v {
                        Some(Value::Int(h)) => Some(*h),
                        Some(other) => return Err(expected_int(other)),
                        None => None,
                    };
                    match base {
                        Value::Slice(s) => {
                            let hi = hi.unwrap_or(s.len as i64);
                            if lo < 0 || hi < lo || hi as usize > s.cap() {
                                return Err(ExecError::OutOfBounds {
                                    index: hi,
                                    len: s.cap(),
                                });
                            }
                            stack.push(Value::slice(SliceVal {
                                cells: s.cells.clone(),
                                obj: s.obj,
                                offset: s.offset + lo as usize,
                                len: (hi - lo) as usize,
                                elem_size: s.elem_size,
                            }));
                        }
                        Value::Nil => {
                            let hi = hi.unwrap_or(0);
                            if lo == 0 && hi == 0 {
                                stack.push(Value::Nil);
                            } else {
                                return Err(ExecError::NilDeref);
                            }
                        }
                        _ => return Err(ExecError::Internal("reslice of non-slice".into())),
                    }
                }
                Instr::MakeSlice {
                    elem_size,
                    has_cap,
                    heap,
                    site,
                    zero,
                } => {
                    self.m.rt.tick(1);
                    let cap_v = if *has_cap { Some(pop(stack)) } else { None };
                    let len_v = pop(stack);
                    let Value::Int(len_raw) = len_v else {
                        return Err(expected_int(&len_v));
                    };
                    let len = len_raw.max(0) as usize;
                    let cap = match cap_v {
                        Some(Value::Int(c)) => (c.max(0) as usize).max(len),
                        Some(other) => return Err(expected_int(&other)),
                        None => len,
                    };
                    let cap = cap.max(1);
                    let obj = if *heap {
                        Some(self.m.new_obj_at(
                            (cap as u64 * elem_size).max(8),
                            Category::Slice,
                            Some(*site),
                        ))
                    } else {
                        self.m.rt.stack_alloc(Category::Slice);
                        None
                    };
                    let zero = self.consts[*zero as usize].clone();
                    stack.push(Value::slice(SliceVal {
                        cells: Rc::new(RefCell::new(vec![zero; cap])),
                        obj,
                        offset: 0,
                        len,
                        elem_size: *elem_size,
                    }));
                }
                Instr::MakeMap {
                    entry_size,
                    heap,
                    site,
                    default,
                } => {
                    self.m.rt.tick(1);
                    let obj = if *heap {
                        Some(self.m.new_obj_at(
                            minigo_escape::MAP_BASE_BYTES,
                            Category::Map,
                            Some(*site),
                        ))
                    } else {
                        self.m.rt.stack_alloc(Category::Map);
                        None
                    };
                    stack.push(Value::map(MapVal {
                        data: Rc::new(RefCell::new(MapData {
                            entries: Vec::new(),
                            index: FxHashMap::default(),
                            buckets_obj: None,
                            bucket_cap: 8,
                            default: self.consts[*default as usize].clone(),
                            entry_size: *entry_size,
                            origin: Some(*site),
                            poisoned: false,
                        })),
                        obj,
                    }));
                }
                Instr::NewPtr {
                    size,
                    heap,
                    site,
                    zero,
                } => {
                    self.m.rt.tick(1);
                    let obj = if *heap {
                        Some(self.m.new_obj_at(*size, Category::Other, Some(*site)))
                    } else {
                        self.m.rt.stack_alloc(Category::Other);
                        None
                    };
                    stack.push(Value::ptr(PtrVal {
                        cell: Rc::new(RefCell::new(self.consts[*zero as usize].clone())),
                        obj,
                    }));
                }
                Instr::Append { elem_size, site } => {
                    self.m.rt.tick(1);
                    let item = pop(stack);
                    let sv = pop(stack);
                    let out = self.m.append(sv, item, *elem_size, *site)?;
                    stack.push(out);
                }
                Instr::MakeStruct(n) => {
                    self.m.rt.tick(1);
                    let fields = stack.split_off(stack.len() - *n as usize);
                    stack.push(Value::struct_of(fields));
                }
                Instr::Len => {
                    self.m.rt.tick(1);
                    let top = stack.last_mut().expect("operand stack underflow");
                    *top = len_of(top)?;
                }
                Instr::Cap => {
                    self.m.rt.tick(1);
                    let v = match pop(stack) {
                        Value::Slice(s) => s.cap() as i64,
                        Value::Nil => 0,
                        _ => return Err(ExecError::Internal("cap of bad value".into())),
                    };
                    stack.push(Value::Int(v));
                }
                Instr::MapDelete => {
                    self.m.rt.tick(1);
                    let kv = pop(stack);
                    if let Value::Map(map) = pop(stack) {
                        let key = kv
                            .as_key()
                            .ok_or_else(|| ExecError::Internal("bad map key".into()))?;
                        self.m.rt.tick(2);
                        self.m.shadow_access_map(&map, "map delete");
                        map.data.borrow_mut().remove(&key);
                    }
                    stack.push(Value::Int(0));
                }
                Instr::Panic => {
                    self.m.rt.tick(1);
                    let v = pop(stack);
                    return Err(ExecError::Panic(v.display()));
                }
                Instr::Print(n) => {
                    self.m.rt.tick(1);
                    let args = stack.split_off(stack.len() - *n as usize);
                    self.do_print(&args);
                    stack.push(Value::Int(0));
                }
                Instr::Itoa => {
                    self.m.rt.tick(1);
                    match pop(stack) {
                        Value::Int(v) => {
                            stack.push(Value::Str(Rc::from(v.to_string().as_str())));
                        }
                        other => return Err(expected_int(&other)),
                    }
                }
                Instr::Tcfree { follows_free } => {
                    let v = pop(stack);
                    let batched = self.m.cfg.batch_frees && *follows_free;
                    self.m.exec_tcfree(v, batched)?;
                }
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
                    self.m.rt.tick(u64::from(*ticks));
                    stack.push(self.consts[*c as usize].clone());
                }
                Instr::LoadLoadBin { a, b, op, ticks } => {
                    self.m.rt.tick(u64::from(*ticks));
                    stack.push(self.bin_slots(f, *a, *b, *op)?);
                }
                Instr::LoadConstBin { a, c, op, ticks } => {
                    self.m.rt.tick(u64::from(*ticks));
                    stack.push(self.bin_slot_const(f, *a, *c, *op)?);
                }
                Instr::LoadLoadBinStore {
                    a,
                    b,
                    op,
                    dst,
                    ticks,
                } => {
                    self.m.rt.tick(u64::from(*ticks));
                    let v = self.bin_slots(f, *a, *b, *op)?;
                    self.store_slot(*dst, v)?;
                }
                Instr::LoadConstBinStore {
                    a,
                    c,
                    op,
                    dst,
                    ticks,
                } => {
                    self.m.rt.tick(u64::from(*ticks));
                    let v = self.bin_slot_const(f, *a, *c, *op)?;
                    self.store_slot(*dst, v)?;
                }
                Instr::LoadLoadBinJump { a, b, op, t, ticks } => {
                    self.m.rt.tick(u64::from(*ticks));
                    let v = self.bin_slots(f, *a, *b, *op)?;
                    branch_if_false(&v, &mut pc, *t)?;
                }
                Instr::LoadConstBinJump { a, c, op, t, ticks } => {
                    self.m.rt.tick(u64::from(*ticks));
                    let v = self.bin_slot_const(f, *a, *c, *op)?;
                    branch_if_false(&v, &mut pc, *t)?;
                }
                Instr::LoadJumpIfFalse { s, t, ticks } => {
                    self.m.rt.tick(u64::from(*ticks));
                    branch_if_false(&*operand(&self.frames, f, *s)?, &mut pc, *t)?;
                }
                Instr::BinJumpIfFalse { op, t, ticks } => {
                    self.m.rt.tick(u64::from(*ticks));
                    let (l, r) = top2(stack);
                    let v = binop(&mut self.m.rt, *op, l, r)?;
                    stack.truncate(stack.len() - 2);
                    branch_if_false(&v, &mut pc, *t)?;
                }
                Instr::LoadLoadIndexGet {
                    base,
                    idx,
                    ic,
                    ticks,
                } => {
                    self.m.rt.tick(u64::from(*ticks));
                    let b = operand(&self.frames, f, *base)?;
                    check_index_base(&b)?;
                    let i = operand(&self.frames, f, *idx)?;
                    stack.push(self.m.index_get(&b, &i, Some(*ic))?);
                }
                Instr::LoadConstIndexGet { base, c, ic, ticks } => {
                    self.m.rt.tick(u64::from(*ticks));
                    let b = operand(&self.frames, f, *base)?;
                    check_index_base(&b)?;
                    let i = &self.consts[*c as usize];
                    stack.push(self.m.index_get(&b, i, Some(*ic))?);
                }
                Instr::LoadLoadIndexSet {
                    base,
                    idx,
                    ic,
                    ticks,
                } => {
                    self.m.rt.tick(u64::from(*ticks));
                    let b = operand(&self.frames, f, *base)?;
                    check_index_base(&b)?;
                    let i = operand(&self.frames, f, *idx)?;
                    self.m.index_set(&b, &i, pop(stack), Some(*ic))?;
                }
                Instr::LoadConstIndexSet { base, c, ic, ticks } => {
                    self.m.rt.tick(u64::from(*ticks));
                    let b = operand(&self.frames, f, *base)?;
                    check_index_base(&b)?;
                    let i = &self.consts[*c as usize];
                    self.m.index_set(&b, i, pop(stack), Some(*ic))?;
                }
                Instr::LoadLen { s, ticks } => {
                    self.m.rt.tick(u64::from(*ticks));
                    stack.push(len_of(&*operand(&self.frames, f, *s)?)?);
                }
                Instr::LoadLenStore { s, dst, ticks } => {
                    self.m.rt.tick(u64::from(*ticks));
                    let v = len_of(&*operand(&self.frames, f, *s)?)?;
                    self.store_slot(*dst, v)?;
                }
                Instr::LoadLoadLenBinJump { a, s, op, t, ticks } => {
                    self.m.rt.tick(u64::from(*ticks));
                    let l = operand(&self.frames, f, *a)?;
                    let r = len_of(&*operand(&self.frames, f, *s)?)?;
                    let v = binop(&mut self.m.rt, *op, &l, &r)?;
                    branch_if_false(&v, &mut pc, *t)?;
                }
                Instr::BinSlot { s, op, ticks } => {
                    self.m.rt.tick(u64::from(*ticks));
                    let r = operand(&self.frames, f, *s)?;
                    let l = stack.last_mut().expect("operand stack underflow");
                    *l = binop(&mut self.m.rt, *op, l, &r)?;
                }
                Instr::BinConst { c, op, ticks } => {
                    self.m.rt.tick(u64::from(*ticks));
                    let l = stack.last_mut().expect("operand stack underflow");
                    *l = binop(&mut self.m.rt, *op, l, &self.consts[*c as usize])?;
                }
                Instr::BinConstStore { c, op, dst, ticks } => {
                    self.m.rt.tick(u64::from(*ticks));
                    let l = pop(stack);
                    let v = binop(&mut self.m.rt, *op, &l, &self.consts[*c as usize])?;
                    self.store_slot(*dst, v)?;
                }
                Instr::BinConstJump { c, op, t, ticks } => {
                    self.m.rt.tick(u64::from(*ticks));
                    let l = pop(stack);
                    let v = binop(&mut self.m.rt, *op, &l, &self.consts[*c as usize])?;
                    branch_if_false(&v, &mut pc, *t)?;
                }
                Instr::LoadLoad { a, b, ticks } => {
                    self.m.rt.tick(u64::from(*ticks));
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
    fn bin_slots(&mut self, f: &BFunc, a: u32, b: u32, op: BinOp) -> Result<Value> {
        let l = operand(&self.frames, f, a)?;
        let r = operand(&self.frames, f, b)?;
        binop(&mut self.m.rt, op, &l, &r)
    }

    /// `slot[a] op const[c]`, likewise.
    #[inline(always)]
    fn bin_slot_const(&mut self, f: &BFunc, a: u32, c: u32, op: BinOp) -> Result<Value> {
        let l = operand(&self.frames, f, a)?;
        binop(&mut self.m.rt, op, &l, &self.consts[c as usize])
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

    fn do_print(&mut self, values: &[Value]) {
        let line: Vec<String> = values.iter().map(Value::display).collect();
        self.output.push_str(&line.join(" "));
        self.output.push('\n');
    }
}

impl Machine {
    // ---- object accounting (mirrors the tree-walk's) ----

    fn new_obj(&mut self, size: u64, cat: Category) -> ObjId {
        self.new_obj_at(size, cat, None)
    }

    fn new_obj_at(
        &mut self,
        size: u64,
        cat: Category,
        site: Option<minigo_syntax::ExprId>,
    ) -> ObjId {
        if let Some(site) = site {
            let entry = self.site_profile.entry(site).or_insert((0, 0));
            entry.0 += 1;
            entry.1 += size;
        }
        let (addr, tag) = self.rt.alloc_at(size, cat, site.map(|s| s.0));
        let id = ObjId { tag, addr };
        if let Some(sh) = &mut self.shadow {
            sh.on_alloc(id.number(), addr);
        }
        id
    }

    fn free_obj(&mut self, obj: ObjId, source: FreeSource, batched: bool) -> (FreeOutcome, bool) {
        if let Some(sh) = &mut self.shadow {
            sh.check_free(obj.number(), free_op_name(source), self.steps);
        }
        if !obj.is_live(&self.rt) {
            return (
                FreeOutcome::Bailed(minigo_runtime::BailReason::AlreadyFree),
                false,
            );
        }
        let out = if batched {
            self.rt.tcfree_continue(obj.addr, source)
        } else {
            self.rt.tcfree(obj.addr, source)
        };
        match out {
            FreeOutcome::Freed { .. } => {
                if let Some(sh) = &mut self.shadow {
                    sh.on_free(obj.number(), obj.addr);
                }
                (out, false)
            }
            FreeOutcome::Poisoned => (out, true),
            FreeOutcome::Bailed(_) => (out, false),
        }
    }

    // ---- shadow-heap sanitizer hooks (mirror the tree-walk's) ----

    fn shadow_access(&mut self, obj: Option<ObjId>, op: &'static str) {
        if let (Some(sh), Some(obj)) = (self.shadow.as_mut(), obj) {
            sh.check_access(obj.number(), op, self.steps);
        }
    }

    fn shadow_access_map(&mut self, m: &MapVal, op: &'static str) {
        if self.shadow.is_some() {
            let buckets = m.data.borrow().buckets_obj;
            self.shadow_access(m.obj, op);
            self.shadow_access(buckets, op);
        }
    }

    // ---- collector write barriers (mirror the tree-walk's) ----

    #[inline]
    fn barrier_store(&mut self, obj: Option<ObjId>) {
        if let Some(obj) = obj.filter(|o| o.is_live(&self.rt)) {
            self.rt.record_store(obj.addr);
        }
    }

    fn barrier_store_map(&mut self, m: &MapVal) {
        let buckets = m.data.borrow().buckets_obj;
        self.barrier_store(m.obj);
        self.barrier_store(buckets);
    }

    // ---- runtime-value helpers (mirror the tree-walk's) ----

    fn exec_tcfree(&mut self, v: Value, batched: bool) -> Result<()> {
        match v {
            Value::Slice(s) => {
                if let Some(obj) = s.obj {
                    let (_, poison) = self.free_obj(obj, FreeSource::SliceLifetime, batched);
                    if poison {
                        let mut cells = s.cells.borrow_mut();
                        for c in cells.iter_mut() {
                            *c = Value::Poison;
                        }
                    }
                }
            }
            Value::Map(map) => {
                let buckets = map.data.borrow().buckets_obj;
                let mut poisoned = false;
                if let Some(b) = buckets {
                    let (out, poison) = self.free_obj(b, FreeSource::MapLifetime, batched);
                    poisoned |= poison;
                    if matches!(out, FreeOutcome::Freed { .. }) {
                        map.data.borrow_mut().buckets_obj = None;
                    }
                }
                if let Some(h) = map.obj {
                    let (_, poison) = self.free_obj(h, FreeSource::MapLifetime, batched);
                    poisoned |= poison;
                }
                if poisoned {
                    let mut data = map.data.borrow_mut();
                    data.poisoned = true;
                    for (_, v) in data.entries.iter_mut() {
                        *v = Value::Poison;
                    }
                }
            }
            Value::Ptr(p) => {
                if let Some(obj) = p.obj {
                    let (_, poison) = self.free_obj(obj, FreeSource::Object, batched);
                    if poison {
                        *p.cell.borrow_mut() = Value::Poison;
                    }
                }
            }
            _ => {}
        }
        Ok(())
    }

    fn append(
        &mut self,
        sv: Value,
        item: Value,
        elem_size: u64,
        site: minigo_syntax::ExprId,
    ) -> Result<Value> {
        self.rt.tick(2);
        match sv {
            Value::Nil => {
                let cap = 8;
                let obj = self.new_obj_at(cap as u64 * elem_size, Category::Slice, Some(site));
                let mut cells = vec![item];
                cells.resize(cap, Value::Int(0));
                Ok(Value::slice(SliceVal {
                    cells: Rc::new(RefCell::new(cells)),
                    obj: Some(obj),
                    offset: 0,
                    len: 1,
                    elem_size,
                }))
            }
            Value::Slice(mut s) => {
                self.shadow_access(s.obj, "append");
                if s.len < s.cap() {
                    let at = s.offset + s.len;
                    s.cells.borrow_mut()[at] = item;
                    Rc::make_mut(&mut s).len += 1;
                    Ok(Value::Slice(s))
                } else {
                    let new_cap = (s.cap() * 2).max(8);
                    let obj =
                        self.new_obj_at(new_cap as u64 * elem_size, Category::Slice, Some(site));
                    let mut cells: Vec<Value> =
                        s.cells.borrow()[s.offset..s.offset + s.len].to_vec();
                    cells.push(item);
                    cells.resize(new_cap, Value::Int(0));
                    Ok(Value::slice(SliceVal {
                        cells: Rc::new(RefCell::new(cells)),
                        obj: Some(obj),
                        offset: 0,
                        len: s.len + 1,
                        elem_size,
                    }))
                }
            }
            _ => Err(ExecError::Internal("append to non-slice".into())),
        }
    }

    /// The `IndexGet` body, shared by the plain, IC, and fused handlers.
    /// The caller has already charged the instruction's own tick; map
    /// lookups charge their data-dependent ticks here, identically on
    /// hit and miss.
    #[inline]
    fn index_get(&mut self, base: &Value, idx: &Value, ic: Option<u32>) -> Result<Value> {
        match base {
            Value::Slice(s) => {
                let &Value::Int(i) = idx else {
                    return Err(expected_int(idx));
                };
                if i < 0 || i as usize >= s.len {
                    return Err(ExecError::OutOfBounds {
                        index: i,
                        len: s.len,
                    });
                }
                self.shadow_access(s.obj, "slice index read");
                let v = s.cells.borrow()[s.offset + i as usize].clone();
                check_poison(v)
            }
            Value::Map(map) => {
                let key = idx
                    .as_key()
                    .ok_or_else(|| ExecError::Internal("bad map key".into()))?;
                self.rt.tick(2);
                self.shadow_access_map(map, "map lookup");
                let data = map.data.borrow();
                if data.poisoned {
                    return Err(ExecError::PoisonedRead);
                }
                if let Some(slot) = ic {
                    let tag = Rc::as_ptr(&map.data) as usize;
                    let e = self.ics[slot as usize];
                    if e.tag == tag && data.entries.get(e.idx).is_some_and(|(k, _)| *k == key) {
                        // Hit: the cached entry index resolves this key
                        // without hashing. A stale tag or moved entry
                        // fails the check and falls through to a miss.
                        self.ic_hits += 1;
                        return check_poison(data.entries[e.idx].1.clone());
                    }
                    self.ic_misses += 1;
                    return match data.index.get(&key) {
                        Some(&i) => {
                            self.ics[slot as usize] = IcEntry { tag, idx: i };
                            check_poison(data.entries[i].1.clone())
                        }
                        None => {
                            self.ics[slot as usize] = IC_EMPTY;
                            Ok(data.default.clone())
                        }
                    };
                }
                match data.get(&key) {
                    Some(v) => check_poison(v.clone()),
                    None => Ok(data.default.clone()),
                }
            }
            Value::Nil => Err(ExecError::NilDeref),
            _ => Err(ExecError::Internal("index of non-indexable".into())),
        }
    }

    /// The `IndexSet` body, shared by the plain, IC, and fused handlers.
    #[inline]
    fn index_set(&mut self, base: &Value, idx: &Value, v: Value, ic: Option<u32>) -> Result<()> {
        match base {
            Value::Slice(s) => {
                let &Value::Int(i) = idx else {
                    return Err(expected_int(idx));
                };
                if i < 0 || i as usize >= s.len {
                    return Err(ExecError::OutOfBounds {
                        index: i,
                        len: s.len,
                    });
                }
                self.shadow_access(s.obj, "slice index write");
                self.barrier_store(s.obj);
                s.cells.borrow_mut()[s.offset + i as usize] = v;
                Ok(())
            }
            Value::Map(map) => {
                let key = idx
                    .as_key()
                    .ok_or_else(|| ExecError::Internal("bad map key".into()))?;
                self.map_insert(map, key, v, ic)
            }
            Value::Nil => Err(ExecError::NilDeref),
            _ => Err(ExecError::Internal("store into non-indexable".into())),
        }
    }

    #[inline]
    fn map_insert(&mut self, m: &MapVal, key: Key, value: Value, ic: Option<u32>) -> Result<()> {
        self.rt.tick(3);
        self.shadow_access_map(m, "map insert");
        self.barrier_store_map(m);
        if let Some(slot) = ic {
            let tag = Rc::as_ptr(&m.data) as usize;
            let e = self.ics[slot as usize];
            {
                let mut data = m.data.borrow_mut();
                if data.poisoned {
                    return Err(ExecError::PoisonedRead);
                }
                if e.tag == tag && data.entries.get(e.idx).is_some_and(|(k, _)| *k == key) {
                    // Hit: updating an existing entry in place — no
                    // growth check needed, exactly what the slow path's
                    // `insert` would do for a present key.
                    self.ic_hits += 1;
                    data.entries[e.idx].1 = value;
                    return Ok(());
                }
            }
            self.ic_misses += 1;
            self.map_insert_slow(m, key.clone(), value)?;
            let idx = m
                .data
                .borrow()
                .index
                .get(&key)
                .copied()
                .unwrap_or(usize::MAX);
            self.ics[slot as usize] = IcEntry { tag, idx };
            return Ok(());
        }
        self.map_insert_slow(m, key, value)
    }

    /// The growth-checking insert; ticks/shadow/barrier are the caller's.
    fn map_insert_slow(&mut self, m: &MapVal, key: Key, value: Value) -> Result<()> {
        let (is_new, needs_growth) = {
            let data = m.data.borrow();
            if data.poisoned {
                return Err(ExecError::PoisonedRead);
            }
            let is_new = data.get(&key).is_none();
            (is_new, is_new && data.len() + 1 > data.bucket_cap)
        };
        if needs_growth {
            let (old, new_cap, entry_size, origin) = {
                let mut data = m.data.borrow_mut();
                let new_cap = data.bucket_cap * 2;
                data.bucket_cap = new_cap;
                (
                    data.buckets_obj.take(),
                    new_cap,
                    data.entry_size,
                    data.origin,
                )
            };
            let new_obj = self.new_obj_at(new_cap as u64 * entry_size, Category::Map, origin);
            m.data.borrow_mut().buckets_obj = Some(new_obj);
            if let Some(old) = old {
                if self.cfg.grow_map_free_old {
                    let (_, _poison) = self.free_obj(old, FreeSource::MapGrowOld, false);
                } else {
                    let _ = old;
                }
            }
        }
        let _ = is_new;
        m.data.borrow_mut().insert(key, value);
        Ok(())
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

    /// ROADMAP aim 3: a failing request leaves the session usable. The
    /// failure here is the one no guest program can reach — the callee's
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
            main: 1,
            consts: vec![Const::Int(0), Const::Int(64)],
            ic_slots: 0,
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
        let mut s = BSession::new(&module, cfg).expect("valid config");
        let roots = |s: &BSession| s.vm.frames.iter().map(|f| f.slots.len()).sum::<usize>();
        assert_eq!(roots(&s), 0);
        for _ in 0..3 {
            assert_eq!(
                s.call("bad", Vec::new()).err(),
                Some(ExecError::PoisonedRead)
            );
            assert!(s.vm.frames.is_empty(), "callee frame left behind");
            assert_eq!(roots(&s), 0, "callee slots still rooted");
            assert_eq!(s.vm.cur_stack, minigo_runtime::ROOT_STACK);
        }
        let out = s.call("good", Vec::new()).expect("session still usable");
        assert!(matches!(out[..], [Value::Int(64)]), "got {out:?}");
        assert!(s.vm.frames.is_empty());
    }
}
