//! The register-form bytecode IR.
//!
//! A [`Module`] is the unit of lowering: one [`BFunc`] per source
//! function, a shared constant pool, and flat instruction vectors with
//! explicit jump targets. Every instruction names its operands as
//! [`Src`]s — a frame slot or a constant-pool entry — and writes its
//! result to a frame slot or branches on it. Frame slots are the
//! function's variables (dense indices assigned per function, so the
//! executing engine indexes a `Vec` instead of hashing
//! [`VarId`](minigo_syntax::VarId)s) followed by the temporaries
//! lowering numbers above them.
//!
//! Tick accounting is baked into the instructions: an instruction
//! charges the ticks of the AST nodes it evaluates, in the tree-walk's
//! order — each operand's own charge as it is read (a variable read is
//! the identifier's one tick, then its poison check), then the node's
//! own — so the clock at every allocation, free, safepoint and error is
//! the tree-walking interpreter's.

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
    /// instructions read in place.
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
    /// clones it where an instruction stores it), so string payloads are
    /// `Rc`-shared within a run.
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
    /// Number of frame slots: the variables (parameters + results +
    /// locals), then the temporaries lowering numbered above them.
    pub nslots: u32,
    /// Parameter slots in declaration order, with their boxed-ness
    /// (address-taken variables live in shared cells).
    pub params: Vec<(u32, bool)>,
    /// Result slots in declaration order: slot, boxed-ness, and the
    /// constant-pool index of the zero value they start as. `None` when
    /// the front end left the result untyped (calling such a function is
    /// a runtime error, exactly as in the tree-walk).
    pub results: Vec<(u32, bool, Option<u32>)>,
    /// Variable names, for error messages. There is one per variable
    /// slot; every slot from `slot_names.len()` up is a temporary. The
    /// optimized module shares the lowered one's names.
    pub slot_names: Arc<[String]>,
    /// The instruction stream. Always ends with [`Instr::Ret`].
    pub code: Vec<Instr>,
}

/// An instruction operand, read the way the tree-walk evaluates the
/// leaf it stands for: `ticks` are charged, then the value at `at` is
/// read (see [`SrcKind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Src {
    /// What `at` indexes, and how it is read.
    pub kind: SrcKind,
    /// The ticks charged before the operand is read: 1 for a variable
    /// (the identifier's), 0 for a temporary, and for a constant 1 for a
    /// literal, 0 for the implicit values the tree-walk never evaluates.
    /// Lowering moves charges between operands (see `lower`) and the
    /// optimizer merges `Tick`s into an instruction's first operand,
    /// never past an event or a failure.
    pub ticks: u16,
    /// A frame slot, or a constant-pool index.
    pub at: u32,
}

/// What a [`Src`] reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SrcKind {
    /// A variable's slot, poison-checked (through its cell when boxed).
    Var,
    /// A slot an earlier instruction wrote, never checked.
    Tmp,
    /// A constant-pool entry.
    K,
}

impl Src {
    /// Variable slot `slot`.
    pub fn var(slot: u32) -> Src {
        Src {
            kind: SrcKind::Var,
            ticks: 1,
            at: slot,
        }
    }

    /// Temporary (or otherwise already evaluated) slot `slot`.
    pub fn tmp(slot: u32) -> Src {
        Src {
            kind: SrcKind::Tmp,
            ticks: 0,
            at: slot,
        }
    }

    /// Constant-pool entry `c`, charging `ticks`.
    pub fn k(c: u32, ticks: u16) -> Src {
        Src {
            kind: SrcKind::K,
            ticks,
            at: c,
        }
    }
}

/// A bytecode instruction.
///
/// Operands are read in the order the fields are listed, each charging
/// its own ticks as it is read ([`Src::ticks`]); an instruction that
/// evaluates an AST node then charges the node's tick and acts. `dst`
/// is the slot the result is stored to (through its cell when boxed).
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
    /// Jump to `t` when `cond` is `when`. Errors if `cond` is not a bool
    /// (the tree-walk's `eval_bool`).
    JumpIf {
        /// The condition.
        cond: Src,
        /// The value that takes the jump.
        when: bool,
        /// Branch target.
        t: usize,
    },
    /// Compare-and-branch: charge the operator node's tick and jump to
    /// `t` when `a op b` is `when` (an `if` or `for` condition). Errors
    /// if the result is not a bool.
    BrCmp {
        /// The operator.
        op: BinOp,
        /// Left operand.
        a: Src,
        /// Right operand.
        b: Src,
        /// The result that takes the jump.
        when: bool,
        /// Branch target.
        t: usize,
    },
    /// Error unless `src` is a bool (the type check `eval_bool` applies
    /// to a `&&`/`||` right operand).
    AssertBool(Src),
    /// Switch dispatch: jump to the case body when `case` equals
    /// `subject`.
    CaseJump {
        /// The switch subject.
        subject: Src,
        /// One case value.
        case: Src,
        /// The case body.
        t: usize,
    },
    /// Return from the current function. Defers and result-slot reads
    /// are handled by the engine's call protocol.
    Ret,
    /// Call a function: read the arguments, charge call ticks (2, plus 1
    /// more in single-value expression position, `want == 1`), recurse.
    /// `want == u32::MAX` discards the results (expression statements);
    /// otherwise the result count must equal `want` and the results are
    /// stored to `dst, dst + 1, ..`.
    Call {
        /// Callee function index.
        fid: u32,
        /// The arguments.
        args: Box<[Src]>,
        /// First result slot.
        dst: u32,
        /// Expected result arity, or `u32::MAX` for "any, discarded".
        want: u32,
    },
    /// Record a deferred call of a user function.
    DeferFunc {
        /// Callee function index.
        fid: u32,
        /// The arguments, read now.
        args: Box<[Src]>,
    },
    /// Record a deferred builtin.
    DeferBuiltin {
        /// The builtin.
        builtin: Builtin,
        /// The arguments, read now.
        args: Box<[Src]>,
    },

    // ---- slots ----
    /// `dst = src`.
    Move {
        /// Destination slot.
        dst: u32,
        /// The value.
        src: Src,
    },
    /// Declare a variable: allocate a fresh cell when boxed, charging
    /// heap or stack accounting per the escape analysis's static
    /// decision.
    Declare {
        /// Destination slot.
        slot: u32,
        /// The initial value.
        src: Src,
        /// Whether the variable is address-taken (boxed).
        boxed: bool,
        /// Whether the box is heap-accounted.
        heap: bool,
        /// Heap object size when `heap`.
        size: u64,
    },

    // ---- operators ----
    /// `dst = -src`, integer negation; charges the unary node's tick.
    Neg {
        /// Destination slot.
        dst: u32,
        /// The operand.
        src: Src,
    },
    /// `dst = !src`, boolean not.
    Not {
        /// Destination slot.
        dst: u32,
        /// The operand.
        src: Src,
    },
    /// `dst = a op b`, charging the node's `ticks` (string concatenation
    /// charges extra inside, as in the tree-walk).
    Bin {
        /// The operator.
        op: BinOp,
        /// Destination slot.
        dst: u32,
        /// Left operand.
        a: Src,
        /// Right operand.
        b: Src,
        /// The node's own charge: 1, or 0 for a compound assignment,
        /// which applies the operator directly.
        ticks: u8,
    },

    // ---- memory ----
    /// `dst = &slot`, the address of a boxed slot; charges the `&x`
    /// node's tick.
    AddrOfSlot {
        /// Destination slot.
        dst: u32,
        /// The boxed variable.
        slot: u32,
    },
    /// `dst = &src`: box a value into a fresh cell (`&T{...}`), charging
    /// heap or stack accounting; charges the node's tick.
    AllocBox {
        /// Destination slot.
        dst: u32,
        /// The boxed value.
        src: Src,
        /// Heap-allocated per the escape analysis.
        heap: bool,
        /// Object size when heap-allocated.
        size: u64,
        /// Profile attribution site.
        site: ExprId,
    },
    /// `dst = *ptr`, with poison check.
    Deref {
        /// Destination slot.
        dst: u32,
        /// The pointer.
        ptr: Src,
    },
    /// `*ptr = val`.
    DerefSet {
        /// The stored value.
        val: Src,
        /// The pointer.
        ptr: Src,
    },
    /// `dst = base.field`, with auto-deref decided statically.
    GetField {
        /// Destination slot.
        dst: u32,
        /// The struct or pointer.
        base: Src,
        /// Field index in declaration order.
        idx: u32,
        /// Whether the base is a pointer (deref through the cell).
        through_ptr: bool,
    },
    /// `dst = base` with field `idx` set to `val`: a value-semantics
    /// field store (lowering then stores `dst` back into the base
    /// lvalue).
    StructSetField {
        /// Destination slot.
        dst: u32,
        /// The stored value.
        val: Src,
        /// The struct.
        base: Src,
        /// Field index.
        idx: u32,
    },
    /// `ptr.field = val`: a through-pointer field store, in place.
    FieldSetPtr {
        /// The stored value.
        val: Src,
        /// The pointer.
        ptr: Src,
        /// Field index.
        idx: u32,
    },
    /// Error out on a nil (or non-indexable) index base *before* the
    /// index expression is evaluated, matching the tree-walk's dispatch
    /// order. Lowered only where the index is not a leaf; the index
    /// instructions check their own base.
    CheckIndexBase(Src),
    /// `dst = base[idx]`: slice or map read, dispatching on the base
    /// value exactly like the tree-walk (slice: bounds check; map: key
    /// lookup charging the map-op ticks).
    IndexGet {
        /// Destination slot.
        dst: u32,
        /// The slice or map.
        base: Src,
        /// The index or key.
        idx: Src,
    },
    /// `base[idx] = val` (map stores run the full insert-with-growth
    /// path).
    IndexSet {
        /// The stored value.
        val: Src,
        /// The slice or map.
        base: Src,
        /// The index or key.
        idx: Src,
    },
    /// `dst = base[lo:hi]`; without `hi` the high bound is the length.
    ReSlice {
        /// Destination slot.
        dst: u32,
        /// The slice.
        base: Src,
        /// Low bound.
        lo: Src,
        /// High bound.
        hi: Option<Src>,
    },

    // ---- allocation ----
    /// `dst = make([]T, len, cap?)`.
    MakeSlice {
        /// Destination slot.
        dst: u32,
        /// Length.
        len: Src,
        /// Capacity.
        cap: Option<Src>,
        /// Element size in bytes.
        elem_size: u64,
        /// Heap-allocated per the escape analysis.
        heap: bool,
        /// Profile attribution site.
        site: ExprId,
        /// Constant-pool index of the element zero value.
        zero: u32,
    },
    /// `dst = make(map[K]V)`.
    MakeMap {
        /// Destination slot.
        dst: u32,
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
    /// `dst = new(T)`.
    NewPtr {
        /// Destination slot.
        dst: u32,
        /// Pointee size in bytes.
        size: u64,
        /// Heap-allocated per the escape analysis.
        heap: bool,
        /// Profile attribution site.
        site: ExprId,
        /// Constant-pool index of the pointee zero value.
        zero: u32,
    },
    /// `dst = append(slice, item)`, including nil-slice bootstrap and
    /// growth.
    Append {
        /// Destination slot.
        dst: u32,
        /// The slice.
        slice: Src,
        /// The appended element.
        item: Src,
        /// Element size in bytes.
        elem_size: u64,
        /// Profile attribution site.
        site: ExprId,
    },
    /// `dst = T{fields...}`.
    MakeStruct {
        /// Destination slot.
        dst: u32,
        /// Field values in declaration order.
        fields: Box<[Src]>,
    },

    // ---- builtins ----
    /// `dst = len(src)`.
    Len {
        /// Destination slot.
        dst: u32,
        /// Slice, map or string.
        src: Src,
    },
    /// `dst = cap(src)`.
    Cap {
        /// Destination slot.
        dst: u32,
        /// The slice.
        src: Src,
    },
    /// `delete(map, key)`; `dst` gets the builtin's 0.
    MapDelete {
        /// Destination slot.
        dst: u32,
        /// The map.
        map: Src,
        /// The key.
        key: Src,
    },
    /// `panic(src)`.
    Panic(Src),
    /// `print(args...)`; `dst` gets the builtin's 0.
    Print {
        /// Destination slot.
        dst: u32,
        /// The printed values.
        args: Box<[Src]>,
    },
    /// `dst = itoa(src)`.
    Itoa {
        /// Destination slot.
        dst: u32,
        /// The int.
        src: Src,
    },

    // ---- frees ----
    /// A `tcfree` statement: dispatch on the value (slice/map/pointer)
    /// and call the runtime's free primitives. `follows_free` marks
    /// statically adjacent frees for §5 batching.
    Tcfree {
        /// The freed value.
        src: Src,
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
}

impl Instr {
    /// The instruction's jump-target operand, if it has one. The
    /// optimizer uses this to find jump targets and to remap them.
    pub fn jump_target(&self) -> Option<usize> {
        match self {
            Instr::Jump(t)
            | Instr::JumpIf { t, .. }
            | Instr::BrCmp { t, .. }
            | Instr::CaseJump { t, .. } => Some(*t),
            _ => None,
        }
    }

    /// Mutable access to the jump-target operand.
    pub fn jump_target_mut(&mut self) -> Option<&mut usize> {
        match self {
            Instr::Jump(t)
            | Instr::JumpIf { t, .. }
            | Instr::BrCmp { t, .. }
            | Instr::CaseJump { t, .. } => Some(t),
            _ => None,
        }
    }

    /// Visits the operands in the order the instruction reads them.
    pub fn visit_srcs(&mut self, f: &mut impl FnMut(&mut Src)) {
        match self {
            Instr::JumpIf { cond: a, .. }
            | Instr::AssertBool(a)
            | Instr::Move { src: a, .. }
            | Instr::Declare { src: a, .. }
            | Instr::Neg { src: a, .. }
            | Instr::Not { src: a, .. }
            | Instr::AllocBox { src: a, .. }
            | Instr::Deref { ptr: a, .. }
            | Instr::GetField { base: a, .. }
            | Instr::CheckIndexBase(a)
            | Instr::Len { src: a, .. }
            | Instr::Cap { src: a, .. }
            | Instr::Panic(a)
            | Instr::Itoa { src: a, .. }
            | Instr::Tcfree { src: a, .. } => f(a),
            Instr::BrCmp { a, b, .. }
            | Instr::Bin { a, b, .. }
            | Instr::CaseJump {
                subject: a,
                case: b,
                ..
            }
            | Instr::DerefSet { val: a, ptr: b }
            | Instr::StructSetField {
                val: a, base: b, ..
            }
            | Instr::FieldSetPtr { val: a, ptr: b, .. }
            | Instr::IndexGet {
                base: a, idx: b, ..
            }
            | Instr::Append {
                slice: a, item: b, ..
            }
            | Instr::MapDelete { map: a, key: b, .. } => {
                f(a);
                f(b);
            }
            Instr::IndexSet { val, base, idx } => {
                f(val);
                f(base);
                f(idx);
            }
            Instr::ReSlice { base, lo, hi, .. } => {
                f(base);
                f(lo);
                hi.iter_mut().for_each(f);
            }
            Instr::MakeSlice { len, cap, .. } => {
                f(len);
                cap.iter_mut().for_each(f);
            }
            Instr::Call { args, .. }
            | Instr::DeferFunc { args, .. }
            | Instr::DeferBuiltin { args, .. }
            | Instr::Print { args, .. }
            | Instr::MakeStruct { fields: args, .. } => args.iter_mut().for_each(f),
            _ => {}
        }
    }
}
