//! The slot-indexed bytecode IR.
//!
//! A [`Module`] is the unit of lowering: one [`BFunc`] per source
//! function, a shared constant pool, and flat instruction vectors with
//! explicit jump targets. Variables are compile-time frame slots (dense
//! indices assigned per function), so the executing engine indexes a
//! `Vec` instead of hashing [`VarId`](minigo_syntax::VarId)s.
//!
//! Tick accounting is baked into the instructions: an instruction that
//! corresponds to an AST node the tree-walking interpreter would `eval`
//! charges that node's clock ticks when it executes. Tick *placement*
//! within a statement differs from the tree-walk (which charges on node
//! entry), but per-statement totals are identical, and the simulated
//! runtime's observable behaviour (GC pacing, RNG draws, metrics)
//! depends only on the allocation/free/safepoint sequence and on total
//! charged ticks — so the two engines produce identical outcomes.

use std::sync::Arc;

use minigo_syntax::{BinOp, Builtin, ExprId};

use crate::value::Value;

/// A lowered program: all functions plus the shared constant pool.
///
/// A `Module` is deliberately `Send + Sync` (statically asserted below):
/// the parallel experiment harness shares one compiled module across
/// worker threads by reference, so nothing in the IR may hold
/// thread-bound state. That is why the constant pool stores [`Const`]
/// (with `Arc<str>` strings) rather than runtime [`Value`]s (with
/// `Rc<str>`); each run materializes thread-local `Value`s from the pool
/// at VM startup.
#[derive(Debug, Clone)]
pub struct Module {
    /// Functions, indexed by `FuncId::index()`.
    pub funcs: Vec<BFunc>,
    /// The constant pool. Holds literals and statically computed zero
    /// values; the engine materializes them into per-run [`Value`]s that
    /// are cloned onto the operand stack.
    pub consts: Vec<Const>,
}

impl Module {
    /// Total number of instructions across all functions.
    pub fn instr_count(&self) -> usize {
        self.funcs.iter().map(|f| f.code.len()).sum()
    }
}

// A compiled module must remain shareable across the parallel harness's
// worker threads; adding an `Rc`/`RefCell` anywhere in the IR breaks
// this at compile time rather than at run time.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Module>();
};

/// A constant-pool entry: the thread-shareable (`Send + Sync`) subset of
/// [`Value`] the lowering can produce — literals and statically computed
/// zero values. Reference-typed zeros are `Nil`, so slices/maps/pointers
/// never appear here.
#[derive(Debug, Clone, PartialEq)]
pub enum Const {
    /// Integer literal or zero.
    Int(i64),
    /// Boolean literal or zero.
    Bool(bool),
    /// String literal or the empty-string zero.
    Str(Arc<str>),
    /// Zero value of pointer/slice/map types.
    Nil,
    /// Struct zero value: field zeros in declaration order.
    Struct(Vec<Const>),
}

impl Const {
    /// Materializes the per-run runtime [`Value`] for this constant.
    /// Called once per constant per run (the engine keeps the result and
    /// clones it onto the operand stack), so per-run `Rc` sharing of
    /// string payloads matches the previous `Value`-pool behaviour.
    pub fn to_value(&self) -> Value {
        match self {
            Const::Int(i) => Value::Int(*i),
            Const::Bool(b) => Value::Bool(*b),
            Const::Str(s) => Value::Str(std::rc::Rc::from(&**s)),
            Const::Nil => Value::Nil,
            Const::Struct(fields) => Value::struct_of(fields.iter().map(Const::to_value).collect()),
        }
    }
}

/// One lowered function.
#[derive(Debug, Clone)]
pub struct BFunc {
    /// Source name (for error messages).
    pub name: String,
    /// Number of frame slots (parameters + results + locals).
    pub nslots: u32,
    /// Parameter slots in declaration order, with their boxed-ness
    /// (address-taken variables live in shared cells).
    pub params: Vec<(u32, bool)>,
    /// Result slots in declaration order: slot, boxed-ness, and the
    /// constant-pool index of the zero value they start as. `None` when
    /// the front end left the result untyped (calling such a function is
    /// a runtime error, exactly as in the tree-walk).
    pub results: Vec<(u32, bool, Option<u32>)>,
    /// Slot names, for error messages.
    pub slot_names: Vec<String>,
    /// The instruction stream. Always ends with [`Instr::Ret`].
    pub code: Vec<Instr>,
}

/// A bytecode instruction.
///
/// Stack effects are written `[before] -> [after]` with the top of the
/// stack on the right.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    // ---- control ----
    /// Statement-boundary safepoint: count a step, charge one tick, and
    /// collect garbage if the pacer requested it.
    Safepoint,
    /// Charge `n` clock ticks.
    Tick(u32),
    /// Unconditional jump to an instruction index.
    Jump(usize),
    /// `[cond] -> []` — jump if the popped bool is false. Errors if the
    /// value is not a bool (the tree-walk's `eval_bool`).
    JumpIfFalse(usize),
    /// `[lhs] -> [false]?` — short-circuit `&&`: if the popped bool is
    /// false, push `false` back and jump past the rhs. Charges the
    /// binary node's tick.
    AndJump(usize),
    /// `[lhs] -> [true]?` — short-circuit `||`.
    OrJump(usize),
    /// `[v] -> [v]` — error unless the top of stack is a bool (the type
    /// check `eval_bool` applies to `&&`/`||` right operands).
    AssertBool,
    /// `[subject, case] -> [subject]` or `[] + jump` — switch dispatch:
    /// pop the case value, compare to the subject below it; on a match
    /// pop the subject too and jump to the case body.
    CaseJump(usize),
    /// Return from the current function. Defers and result-slot reads
    /// are handled by the engine's call protocol.
    Ret,
    /// `[args...] -> [results...]` — call a function: pop `nargs`
    /// arguments, charge call ticks (2, plus 1 more in single-value
    /// expression position), recurse. `want == u32::MAX` discards the
    /// results (expression statements); otherwise the result count must
    /// equal `want` and the results are pushed in order.
    Call {
        /// Callee function index.
        fid: usize,
        /// Argument count.
        nargs: u32,
        /// Expected result arity, or `u32::MAX` for "any, discarded".
        want: u32,
        /// Whether the call sits in single-value expression position
        /// (charges the expression node's extra tick).
        value_pos: bool,
    },
    /// Record a deferred call of a user function: pop `nargs` arguments.
    DeferFunc {
        /// Callee function index.
        fid: usize,
        /// Argument count.
        nargs: u32,
    },
    /// Record a deferred builtin: pop `nargs` arguments.
    DeferBuiltin {
        /// The builtin.
        builtin: Builtin,
        /// Argument count.
        nargs: u32,
    },

    // ---- stack & slots ----
    /// `[] -> [const]` — push a constant and charge the literal node's
    /// tick.
    Const(u32),
    /// `[] -> [const]` — push a constant without charging ticks (used
    /// for implicit values the tree-walk never evaluates: zero-value
    /// initializers and absent reslice bounds).
    ConstRaw(u32),
    /// `[] -> [v]` — read a slot (through its cell when boxed) with a
    /// poison check; charges the identifier node's tick.
    LoadSlot(u32),
    /// `[v] -> []` — write a slot (through its cell when boxed).
    StoreSlot(u32),
    /// `[v] -> []` — declare a variable: allocate a fresh cell when
    /// boxed, charging heap or stack accounting per the escape
    /// analysis's static decision.
    Declare {
        /// Destination slot.
        slot: u32,
        /// Whether the variable is address-taken (boxed).
        boxed: bool,
        /// Whether the box is heap-accounted.
        heap: bool,
        /// Heap object size when `heap`.
        size: u64,
    },
    /// `[v] -> []` — discard `n` values.
    Pop(u32),
    /// Reverse the top `n` stack values (so multi-value results pop in
    /// declaration order).
    ReverseN(u32),

    // ---- operators ----
    /// `[v] -> [-v]` — integer negation; charges the unary node's tick.
    Neg,
    /// `[v] -> [!v]` — boolean not.
    Not,
    /// `[l, r] -> [l op r]` — binary operator, charging the node's tick
    /// (string concatenation charges extra inside, as in the tree-walk).
    Bin(BinOp),
    /// `[l, r] -> [l op r]` — binary operator *without* the node tick:
    /// compound assignments apply the operator directly.
    BinRaw(BinOp),

    // ---- memory ----
    /// `[] -> [ptr]` — address of a boxed slot; charges the `&x` node's
    /// tick.
    AddrOfSlot(u32),
    /// `[v] -> [ptr]` — box a value into a fresh cell (`&T{...}`),
    /// charging heap or stack accounting; charges the node's tick.
    AllocBox {
        /// Heap-allocated per the escape analysis.
        heap: bool,
        /// Object size when heap-allocated.
        size: u64,
        /// Profile attribution site.
        site: ExprId,
    },
    /// `[ptr] -> [*ptr]` — pointer load with poison check.
    Deref,
    /// `[v, ptr] -> []` — pointer store.
    DerefSet,
    /// `[base] -> [field]` — struct field read with auto-deref decided
    /// statically.
    GetField {
        /// Field index in declaration order.
        idx: u32,
        /// Whether the base is a pointer (deref through the cell).
        through_ptr: bool,
    },
    /// `[v, base] -> [base']` — value-semantics field store: writes the
    /// field into the popped struct and pushes the updated struct (the
    /// lowering then stores it back into the base lvalue).
    StructSetField {
        /// Field index.
        idx: u32,
    },
    /// `[v, ptr] -> []` — through-pointer field store: mutate in place.
    FieldSetPtr {
        /// Field index.
        idx: u32,
    },
    /// `[.., base] -> [.., base]` — error out on nil (or non-indexable)
    /// index bases *before* the index expression is evaluated, matching
    /// the tree-walk's dispatch order.
    CheckIndexBase,
    /// `[base, idx] -> [v]` — slice/map read, dispatching on the base
    /// value exactly like the tree-walk (slice: bounds check; map: key
    /// lookup charging the map-op ticks).
    IndexGet,
    /// `[v, base, idx] -> []` — slice/map store (map stores run the full
    /// insert-with-growth path).
    IndexSet,
    /// `[base, lo, hi?] -> [slice]` — reslice; `has_hi` tells whether a
    /// high bound was pushed (otherwise it defaults to the length).
    ReSlice {
        /// Whether an explicit high bound is on the stack.
        has_hi: bool,
    },

    // ---- allocation ----
    /// `[len, cap?] -> [slice]` — `make([]T, ..)`.
    MakeSlice {
        /// Element size in bytes.
        elem_size: u64,
        /// Whether an explicit capacity was pushed.
        has_cap: bool,
        /// Heap-allocated per the escape analysis.
        heap: bool,
        /// Profile attribution site.
        site: ExprId,
        /// Constant-pool index of the element zero value.
        zero: u32,
    },
    /// `[] -> [map]` — `make(map[K]V)`.
    MakeMap {
        /// Entry size in bytes (16 + value inline size).
        entry_size: u64,
        /// Heap-allocated per the escape analysis.
        heap: bool,
        /// Profile attribution site.
        site: ExprId,
        /// Constant-pool index of the value-type zero (missing-key
        /// default).
        default: u32,
    },
    /// `[] -> [ptr]` — `new(T)`.
    NewPtr {
        /// Pointee size in bytes.
        size: u64,
        /// Heap-allocated per the escape analysis.
        heap: bool,
        /// Profile attribution site.
        site: ExprId,
        /// Constant-pool index of the pointee zero value.
        zero: u32,
    },
    /// `[slice, item] -> [slice']` — `append`, including nil-slice
    /// bootstrap and growth.
    Append {
        /// Element size in bytes.
        elem_size: u64,
        /// Profile attribution site.
        site: ExprId,
    },
    /// `[fields...] -> [struct]` — build a struct from `n` field values.
    MakeStruct(u32),

    // ---- builtins ----
    /// `[v] -> [len]`.
    Len,
    /// `[v] -> [cap]`.
    Cap,
    /// `[map, key] -> [0]` — `delete`.
    MapDelete,
    /// `[v] -> !` — `panic`.
    Panic,
    /// `[args...] -> [0]` — `print(n args)`.
    Print(u32),
    /// `[int] -> [str]` — `itoa`.
    Itoa,

    // ---- frees ----
    /// `[v] -> []` — a `tcfree` statement: dispatch on the value
    /// (slice/map/pointer) and call the runtime's free primitives.
    /// `follows_free` marks statically adjacent frees for §5 batching.
    Tcfree {
        /// Whether the previous statement in the block was also a free.
        follows_free: bool,
    },

    // ---- diagnostics ----
    /// Fail with [`ExecError::Unsupported`](crate::ExecError) when
    /// executed. Lowering never fails; constructs the engines cannot run
    /// become traps so programs that never reach them behave
    /// identically.
    TrapUnsupported(Box<str>),
    /// Fail with [`ExecError::Internal`](crate::ExecError) when
    /// executed.
    TrapInternal(Box<str>),

    // ---- optimizer tier ----
    //
    // Everything below is installed by `bytecode::opt`, never emitted by
    // lowering, so the baseline stream stays available under `--opt
    // off`. Each fused instruction charges `ticks` — the summed static
    // charges of its constituents — up front, then runs the constituent
    // handlers in order; per-statement tick totals (and therefore GC
    // pacing, safepoints, and every metric) are unchanged, because the
    // clock charge is an exact add and no observable runtime event can
    // occur between the coalesced charges.
    /// `[] -> [const]` — push a constant charging `ticks`: a folded
    /// constant expression carrying the summed charge of the
    /// instructions it replaced.
    ConstTicked {
        /// Constant-pool index.
        c: u32,
        /// Coalesced tick charge.
        ticks: u32,
    },
    /// `[] -> [a op b]` — fused `LoadSlot a; LoadSlot b; Bin/BinRaw op`.
    LoadLoadBin {
        /// Left operand slot.
        a: u32,
        /// Right operand slot.
        b: u32,
        /// The operator.
        op: BinOp,
        /// Coalesced tick charge.
        ticks: u32,
    },
    /// `[] -> [a op c]` — fused `LoadSlot a; Const c; Bin/BinRaw op`.
    LoadConstBin {
        /// Left operand slot.
        a: u32,
        /// Right operand constant-pool index.
        c: u32,
        /// The operator.
        op: BinOp,
        /// Coalesced tick charge.
        ticks: u32,
    },
    /// `[] -> []` — fused `LoadSlot a; LoadSlot b; Bin/BinRaw;
    /// StoreSlot dst` (e.g. `x = a + b`).
    LoadLoadBinStore {
        /// Left operand slot.
        a: u32,
        /// Right operand slot.
        b: u32,
        /// The operator.
        op: BinOp,
        /// Destination slot.
        dst: u32,
        /// Coalesced tick charge.
        ticks: u32,
    },
    /// `[] -> []` — fused `LoadSlot a; Const c; Bin/BinRaw; StoreSlot
    /// dst` (compound assignments like `i += 1` collapse 4 → 1).
    LoadConstBinStore {
        /// Left operand slot.
        a: u32,
        /// Right operand constant-pool index.
        c: u32,
        /// The operator.
        op: BinOp,
        /// Destination slot.
        dst: u32,
        /// Coalesced tick charge.
        ticks: u32,
    },
    /// `[] -> []` or jump — fused `LoadSlot a; LoadSlot b; Bin;
    /// JumpIfFalse t` (loop conditions like `i < n` collapse 4 → 1).
    LoadLoadBinJump {
        /// Left operand slot.
        a: u32,
        /// Right operand slot.
        b: u32,
        /// The operator.
        op: BinOp,
        /// Branch target when the result is false.
        t: usize,
        /// Coalesced tick charge.
        ticks: u32,
    },
    /// `[] -> []` or jump — fused `LoadSlot a; Const c; Bin;
    /// JumpIfFalse t`.
    LoadConstBinJump {
        /// Left operand slot.
        a: u32,
        /// Right operand constant-pool index.
        c: u32,
        /// The operator.
        op: BinOp,
        /// Branch target when the result is false.
        t: usize,
        /// Coalesced tick charge.
        ticks: u32,
    },
    /// `[] -> []` or jump — fused `LoadSlot s; JumpIfFalse t`.
    LoadJumpIfFalse {
        /// Condition slot.
        s: u32,
        /// Branch target when false.
        t: usize,
        /// Coalesced tick charge.
        ticks: u32,
    },
    /// `[l, r] -> []` or jump — fused `Bin op; JumpIfFalse t`.
    BinJumpIfFalse {
        /// The operator.
        op: BinOp,
        /// Branch target when false.
        t: usize,
        /// Coalesced tick charge.
        ticks: u32,
    },
    /// `[] -> [v]` — fused `LoadSlot base; CheckIndexBase; LoadSlot
    /// idx; IndexGet`.
    LoadLoadIndexGet {
        /// Slot holding the slice/map base.
        base: u32,
        /// Slot holding the index/key.
        idx: u32,
        /// Coalesced tick charge.
        ticks: u32,
    },
    /// `[] -> [v]` — fused `LoadSlot base; CheckIndexBase; Const c;
    /// IndexGet`.
    LoadConstIndexGet {
        /// Slot holding the slice/map base.
        base: u32,
        /// Constant-pool index of the index/key.
        c: u32,
        /// Coalesced tick charge.
        ticks: u32,
    },
    /// `[v] -> []` — fused `LoadSlot base; CheckIndexBase; LoadSlot
    /// idx; IndexSet`.
    LoadLoadIndexSet {
        /// Slot holding the slice/map base.
        base: u32,
        /// Slot holding the index/key.
        idx: u32,
        /// Coalesced tick charge.
        ticks: u32,
    },
    /// `[v] -> []` — fused `LoadSlot base; CheckIndexBase; Const c;
    /// IndexSet`.
    LoadConstIndexSet {
        /// Slot holding the slice/map base.
        base: u32,
        /// Constant-pool index of the index/key.
        c: u32,
        /// Coalesced tick charge.
        ticks: u32,
    },
    /// `[] -> [len]` — fused `LoadSlot s; Len` (e.g. `n := len(s)`).
    LoadLen {
        /// Slot holding the slice/map/string.
        s: u32,
        /// Coalesced tick charge.
        ticks: u32,
    },
    /// `[] -> []` — fused `LoadSlot s; Len; StoreSlot dst`.
    LoadLenStore {
        /// Slot holding the slice/map/string.
        s: u32,
        /// Destination slot.
        dst: u32,
        /// Coalesced tick charge.
        ticks: u32,
    },
    /// `[] -> []` or jump — fused `LoadSlot a; LoadSlot s; Len; Bin;
    /// JumpIfFalse t`: the canonical loop header `for i < len(s)`
    /// collapses 5 → 1.
    LoadLoadLenBinJump {
        /// Left operand slot (the induction variable).
        a: u32,
        /// Slot holding the slice/map/string whose length is compared.
        s: u32,
        /// The comparison operator.
        op: BinOp,
        /// Branch target when the result is false.
        t: usize,
        /// Coalesced tick charge.
        ticks: u32,
    },
    /// `[l] -> [l op s]` — fused `LoadSlot s; Bin/BinRaw op`: the right
    /// operand is a slot, the left comes from the stack (a complex
    /// subexpression already evaluated).
    BinSlot {
        /// Right operand slot.
        s: u32,
        /// The operator.
        op: BinOp,
        /// Coalesced tick charge.
        ticks: u32,
    },
    /// `[l] -> [l op c]` — fused `Const c; Bin/BinRaw op`: the right
    /// operand is a constant, the left comes from the stack.
    BinConst {
        /// Right operand constant-pool index.
        c: u32,
        /// The operator.
        op: BinOp,
        /// Coalesced tick charge.
        ticks: u32,
    },
    /// `[l] -> []` — fused `Const c; Bin/BinRaw op; StoreSlot dst`.
    BinConstStore {
        /// Right operand constant-pool index.
        c: u32,
        /// The operator.
        op: BinOp,
        /// Destination slot.
        dst: u32,
        /// Coalesced tick charge.
        ticks: u32,
    },
    /// `[l] -> []` or jump — fused `Const c; Bin op; JumpIfFalse t`
    /// (conditions like `x % 2 == 0` finish in one dispatch).
    BinConstJump {
        /// Right operand constant-pool index.
        c: u32,
        /// The operator.
        op: BinOp,
        /// Branch target when the result is false.
        t: usize,
        /// Coalesced tick charge.
        ticks: u32,
    },
    /// `[] -> [a, b]` — fused `LoadSlot a; LoadSlot b`: adjacent slot
    /// reads feeding an unfuseable consumer (call arguments, struct
    /// literals, prints) still coalesce their dispatch.
    LoadLoad {
        /// First slot pushed.
        a: u32,
        /// Second slot pushed.
        b: u32,
        /// Coalesced tick charge.
        ticks: u32,
    },
}

impl Instr {
    /// The instruction's jump-target operand, if it has one. The
    /// optimizer uses this to find fusion barriers and to rewrite
    /// targets after structural passes.
    pub fn jump_target(&self) -> Option<usize> {
        match self {
            Instr::Jump(t)
            | Instr::JumpIfFalse(t)
            | Instr::AndJump(t)
            | Instr::OrJump(t)
            | Instr::CaseJump(t)
            | Instr::LoadLoadBinJump { t, .. }
            | Instr::LoadConstBinJump { t, .. }
            | Instr::LoadJumpIfFalse { t, .. }
            | Instr::BinJumpIfFalse { t, .. }
            | Instr::LoadLoadLenBinJump { t, .. }
            | Instr::BinConstJump { t, .. } => Some(*t),
            _ => None,
        }
    }

    /// Mutable access to the jump-target operand.
    pub fn jump_target_mut(&mut self) -> Option<&mut usize> {
        match self {
            Instr::Jump(t)
            | Instr::JumpIfFalse(t)
            | Instr::AndJump(t)
            | Instr::OrJump(t)
            | Instr::CaseJump(t)
            | Instr::LoadLoadBinJump { t, .. }
            | Instr::LoadConstBinJump { t, .. }
            | Instr::LoadJumpIfFalse { t, .. }
            | Instr::BinJumpIfFalse { t, .. }
            | Instr::LoadLoadLenBinJump { t, .. }
            | Instr::BinConstJump { t, .. } => Some(t),
            _ => None,
        }
    }
}
