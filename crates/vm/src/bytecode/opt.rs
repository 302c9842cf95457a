//! The bytecode optimizer tier: peephole/constant folding, jump
//! threading, and superinstruction fusion.
//!
//! [`optimize`] rewrites a lowered [`Module`] into a faster but
//! observably identical one. "Observably identical" is a hard contract
//! here, enforced by the workspace's differential suites: program
//! output, virtual time, step counts, metrics, traces, and profiles
//! must be bit-identical to both the unoptimized stream and the
//! tree-walking interpreter.
//!
//! The contract holds because of one rule — **tick preservation**:
//! every rewrite that removes instructions carries their summed static
//! tick charges on the replacement (the `ticks` operand of
//! [`Instr::ConstTicked`] and the fused instructions). The runtime's
//! clock charge is an exact add with no per-call randomness, and no
//! observable event (allocation, trace event, safepoint, GC poll) can
//! occur *between* the charges of a fused window, so coalescing
//! `tick(1); tick(1)` into `tick(2)` is invisible to every observer.
//! Rewrites that could change error behaviour are refused: division by
//! a constant zero is never folded, branch folding only applies to
//! constant bools, and fusion windows never span a jump target.
//!
//! Pass ordering (per function):
//!
//! 1. **Fold** (to a fixpoint): constant arithmetic/comparisons into
//!    pool entries, dead push/pop pairs, constant branches, adjacent
//!    tick merging.
//! 2. **Thread**: collapse jump-to-jump chains and jumps-to-return.
//! 3. **Fuse**: superinstructions for the hot shapes the lowering
//!    emits (`load load bin [store|branch]`, `load const bin ...`,
//!    slice-index-then-load, `load branch`), longest match first.
//!
//! Structural passes rebuild the instruction vector and remap every
//! jump operand through an old-index → new-index table; a window is
//! only rewritten when no jump targets its interior (targets *at* a
//! window start stay valid, since entering the window's replacement
//! executes exactly the constituent sequence).

use minigo_syntax::BinOp;

use super::ir::{BFunc, Const, Instr, Module};
use crate::fxhash::FxHashMap;

/// Per-pass rewrite counters for one [`optimize`] run, surfaced through
/// the compile pipeline next to its phase timings and exported in the
/// JSON report (`gofree-report/3`'s additive `"opt"` object).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Instructions across the module before optimization.
    pub instrs_before: u64,
    /// Instructions after all passes.
    pub instrs_after: u64,
    /// Constant expressions folded into pool entries (fold pass).
    pub consts_folded: u64,
    /// Constant branches resolved to straight-line code (fold pass).
    pub branches_folded: u64,
    /// Dead push/pop pairs eliminated (fold pass).
    pub pushpops_elided: u64,
    /// Adjacent tick charges merged (fold pass).
    pub ticks_merged: u64,
    /// Jump-to-jump chains and jumps-to-return collapsed (thread pass).
    pub jumps_threaded: u64,
    /// Superinstructions fused (fuse pass).
    pub fusions: u64,
}

impl OptStats {
    /// Total rewrites across all passes.
    pub fn total_rewrites(&self) -> u64 {
        self.consts_folded
            + self.branches_folded
            + self.pushpops_elided
            + self.ticks_merged
            + self.jumps_threaded
            + self.fusions
    }
}

/// Runs the optimizer tier over a lowered module, returning the
/// optimized module and the per-pass rewrite counters. The input is
/// left untouched so the baseline stream stays available for `--opt
/// off`.
pub fn optimize(m: &Module) -> (Module, OptStats) {
    let mut out = m.clone();
    let mut stats = OptStats {
        instrs_before: out.instr_count() as u64,
        ..OptStats::default()
    };
    let mut pool = PoolInterner::new(&mut out.consts);
    for f in &mut out.funcs {
        // Fold to a fixpoint so nested constant expressions collapse
        // fully (`1 + 2 + 3` needs two rounds); bounded for safety.
        for _ in 0..8 {
            if fold_pass(f, &mut pool, &mut stats) == 0 {
                break;
            }
        }
        thread_jumps(f, &mut stats);
        fuse_pass(f, &mut stats);
    }
    stats.instrs_after = out.instr_count() as u64;
    (out, stats)
}

// ---- constant pool interning ----

/// Interns scalar constants into an existing pool, mirroring the
/// lowering's dedup so folding reuses entries instead of growing the
/// pool per rewrite.
struct PoolInterner<'a> {
    pool: &'a mut Vec<Const>,
    scalars: FxHashMap<ScalarKey, u32>,
}

#[derive(PartialEq, Eq, Hash)]
enum ScalarKey {
    Int(i64),
    Bool(bool),
    Str(String),
    Nil,
}

fn scalar_key(c: &Const) -> Option<ScalarKey> {
    match c {
        Const::Int(i) => Some(ScalarKey::Int(*i)),
        Const::Bool(b) => Some(ScalarKey::Bool(*b)),
        Const::Str(s) => Some(ScalarKey::Str(s.to_string())),
        Const::Nil => Some(ScalarKey::Nil),
        Const::Struct(_) => None,
    }
}

impl<'a> PoolInterner<'a> {
    fn new(pool: &'a mut Vec<Const>) -> Self {
        let scalars = pool
            .iter()
            .enumerate()
            .filter_map(|(i, c)| scalar_key(c).map(|k| (k, i as u32)))
            .collect();
        PoolInterner { pool, scalars }
    }

    fn add(&mut self, c: Const) -> u32 {
        match scalar_key(&c) {
            Some(key) => *self.scalars.entry(key).or_insert_with(|| {
                let idx = self.pool.len() as u32;
                self.pool.push(c);
                idx
            }),
            None => {
                let idx = self.pool.len() as u32;
                self.pool.push(c);
                idx
            }
        }
    }

    fn get(&self, idx: u32) -> &Const {
        &self.pool[idx as usize]
    }
}

// ---- shared rewrite machinery ----

/// Marks every instruction index that is a jump target.
fn target_flags(code: &[Instr]) -> Vec<bool> {
    let mut flags = vec![false; code.len() + 1];
    for i in code {
        if let Some(t) = i.jump_target() {
            flags[t] = true;
        }
    }
    flags
}

/// Rebuilds `f.code` by scanning left to right: at each position the
/// matcher may claim a window of `consumed` instructions and supply a
/// replacement (with jump operands still in the *old* index space).
/// Afterwards every jump operand — survivors and replacements alike —
/// is remapped to the new index space. Returns the number of windows
/// rewritten.
///
/// The matcher must refuse windows whose interior (everything after the
/// first instruction) is a jump target; a jump *at* the window start
/// lands on the replacement, which executes the same sequence.
fn rewrite_windows(
    f: &mut BFunc,
    mut matcher: impl FnMut(&[Instr], usize, &[bool]) -> Option<(usize, Vec<Instr>)>,
) -> u64 {
    let code = &f.code;
    let is_target = target_flags(code);
    let mut new_code: Vec<Instr> = Vec::with_capacity(code.len());
    let mut map: Vec<usize> = vec![0; code.len() + 1];
    let mut rewrites = 0u64;
    let mut i = 0;
    while i < code.len() {
        map[i] = new_code.len();
        match matcher(code, i, &is_target) {
            Some((consumed, repl)) => {
                debug_assert!(consumed >= 1 && i + consumed <= code.len());
                debug_assert!(!is_target[i + 1..i + consumed].iter().any(|&b| b));
                for j in i + 1..i + consumed {
                    map[j] = map[i];
                }
                new_code.extend(repl);
                rewrites += 1;
                i += consumed;
            }
            None => {
                new_code.push(code[i].clone());
                i += 1;
            }
        }
    }
    map[code.len()] = new_code.len();
    for instr in &mut new_code {
        if let Some(t) = instr.jump_target_mut() {
            *t = map[*t];
        }
    }
    f.code = new_code;
    rewrites
}

/// Views an instruction as a constant push: `(pool index, ticks)`.
fn as_const_push(i: &Instr) -> Option<(u32, u32)> {
    match i {
        Instr::Const(c) => Some((*c, 1)),
        Instr::ConstRaw(c) => Some((*c, 0)),
        Instr::ConstTicked { c, ticks } => Some((*c, *ticks)),
        _ => None,
    }
}

/// `ConstTicked`, but degrading to the cheapest encoding.
fn const_push(c: u32, ticks: u32) -> Instr {
    match ticks {
        0 => Instr::ConstRaw(c),
        1 => Instr::Const(c),
        _ => Instr::ConstTicked { c, ticks },
    }
}

// ---- pass 1: peephole + constant folding ----

/// One fold round. Returns the number of rewrites.
fn fold_pass(f: &mut BFunc, pool: &mut PoolInterner, stats: &mut OptStats) -> u64 {
    // Counters are attributed inside the matcher; the closure borrows
    // them individually to keep borrowck happy.
    let mut folded = 0u64;
    let mut branches = 0u64;
    let mut pushpops = 0u64;
    let mut ticks_merged = 0u64;
    let total = rewrite_windows(f, |code, i, is_target| {
        let interior_free =
            |n: usize| i + n <= code.len() && !is_target[i + 1..i + n].iter().any(|&b| b);
        // [Tick a, Tick b] -> [Tick a+b]; [Tick n, const] -> const+n.
        if let Instr::Tick(a) = code[i] {
            if interior_free(2) {
                if let Instr::Tick(b) = code[i + 1] {
                    ticks_merged += 1;
                    return Some((2, vec![Instr::Tick(a + b)]));
                }
                if let Some((c, t)) = as_const_push(&code[i + 1]) {
                    ticks_merged += 1;
                    return Some((2, vec![const_push(c, a + t)]));
                }
            }
            if a == 0 {
                ticks_merged += 1;
                return Some((1, Vec::new()));
            }
            return None;
        }
        let (ca, ta) = as_const_push(&code[i])?;
        // [const a, const b, Bin op] -> folded const.
        if interior_free(3) {
            if let Some((cb, tb)) = as_const_push(&code[i + 1]) {
                let op_ticks = match &code[i + 2] {
                    Instr::Bin(op) => Some((*op, 1u32)),
                    Instr::BinRaw(op) => Some((*op, 0u32)),
                    _ => None,
                };
                if let Some((op, op_tick)) = op_ticks {
                    if let Some((folded_c, extra)) = fold_binop(pool.get(ca), pool.get(cb), op) {
                        let idx = pool.add(folded_c);
                        folded += 1;
                        return Some((3, vec![const_push(idx, ta + tb + op_tick + extra as u32)]));
                    }
                }
            }
        }
        if !interior_free(2) {
            return None;
        }
        match &code[i + 1] {
            // [const int, Neg] / [const bool, Not].
            Instr::Neg => {
                if let Const::Int(v) = pool.get(ca) {
                    let idx = pool.add(Const::Int(v.wrapping_neg()));
                    folded += 1;
                    return Some((2, vec![const_push(idx, ta + 1)]));
                }
            }
            Instr::Not => {
                if let Const::Bool(b) = pool.get(ca) {
                    let idx = pool.add(Const::Bool(!b));
                    folded += 1;
                    return Some((2, vec![const_push(idx, ta + 1)]));
                }
            }
            // [const, Pop 1] -> the ticks alone.
            Instr::Pop(1) => {
                pushpops += 1;
                let repl = if ta > 0 {
                    vec![Instr::Tick(ta)]
                } else {
                    Vec::new()
                };
                return Some((2, repl));
            }
            // [const bool, JumpIfFalse t] -> straight line or jump.
            Instr::JumpIfFalse(t) => {
                if let Const::Bool(b) = pool.get(ca) {
                    let mut repl = Vec::new();
                    if ta > 0 {
                        repl.push(Instr::Tick(ta));
                    }
                    if !b {
                        repl.push(Instr::Jump(*t));
                    }
                    branches += 1;
                    return Some((2, repl));
                }
            }
            // [const bool, AndJump t]: false short-circuits (push false,
            // jump), true continues with nothing pushed.
            Instr::AndJump(t) => {
                if let Const::Bool(b) = pool.get(ca) {
                    let repl = if *b {
                        if ta > 0 {
                            vec![Instr::Tick(ta)]
                        } else {
                            Vec::new()
                        }
                    } else {
                        vec![const_push(ca, ta), Instr::Jump(*t)]
                    };
                    branches += 1;
                    return Some((2, repl));
                }
            }
            Instr::OrJump(t) => {
                if let Const::Bool(b) = pool.get(ca) {
                    let repl = if *b {
                        vec![const_push(ca, ta), Instr::Jump(*t)]
                    } else if ta > 0 {
                        vec![Instr::Tick(ta)]
                    } else {
                        Vec::new()
                    };
                    branches += 1;
                    return Some((2, repl));
                }
            }
            _ => {}
        }
        None
    });
    stats.consts_folded += folded;
    stats.branches_folded += branches;
    stats.pushpops_elided += pushpops;
    stats.ticks_merged += ticks_merged;
    total
}

/// Folds `a op b` exactly as [`binop`](crate::interp) would evaluate
/// it, or `None` when the operation could fail (division by a constant
/// zero), charges data-dependent ticks the fold can't express, or
/// involves non-scalar operands. Returns the result and any extra ticks
/// the runtime op would have charged beyond the `Bin` node's own
/// (string concatenation's length-scaled charge).
fn fold_binop(a: &Const, b: &Const, op: BinOp) -> Option<(Const, u64)> {
    use BinOp::*;
    let out = match (op, a, b) {
        (Add, Const::Int(x), Const::Int(y)) => (Const::Int(x.wrapping_add(*y)), 0),
        (Sub, Const::Int(x), Const::Int(y)) => (Const::Int(x.wrapping_sub(*y)), 0),
        (Mul, Const::Int(x), Const::Int(y)) => (Const::Int(x.wrapping_mul(*y)), 0),
        (Div, Const::Int(x), Const::Int(y)) if *y != 0 => (Const::Int(x.wrapping_div(*y)), 0),
        (Rem, Const::Int(x), Const::Int(y)) if *y != 0 => (Const::Int(x.wrapping_rem(*y)), 0),
        (Add, Const::Str(x), Const::Str(y)) => {
            let s = format!("{x}{y}");
            let extra = 1 + (s.len() as u64) / 16;
            (Const::Str(s.into()), extra)
        }
        (Lt, Const::Int(x), Const::Int(y)) => (Const::Bool(x < y), 0),
        (Le, Const::Int(x), Const::Int(y)) => (Const::Bool(x <= y), 0),
        (Gt, Const::Int(x), Const::Int(y)) => (Const::Bool(x > y), 0),
        (Ge, Const::Int(x), Const::Int(y)) => (Const::Bool(x >= y), 0),
        (Lt, Const::Str(x), Const::Str(y)) => (Const::Bool(x < y), 0),
        (Le, Const::Str(x), Const::Str(y)) => (Const::Bool(x <= y), 0),
        (Gt, Const::Str(x), Const::Str(y)) => (Const::Bool(x > y), 0),
        (Ge, Const::Str(x), Const::Str(y)) => (Const::Bool(x >= y), 0),
        (Eq, _, _) => (Const::Bool(const_eq(a, b)?), 0),
        (Ne, _, _) => (Const::Bool(!const_eq(a, b)?), 0),
        _ => return None,
    };
    Some(out)
}

/// Scalar equality mirroring the runtime's `value_eq`: mismatched
/// scalar kinds compare unequal (its `_ => false` arm); structs are
/// skipped rather than recursed.
fn const_eq(a: &Const, b: &Const) -> Option<bool> {
    Some(match (a, b) {
        (Const::Struct(_), _) | (_, Const::Struct(_)) => return None,
        (Const::Int(x), Const::Int(y)) => x == y,
        (Const::Bool(x), Const::Bool(y)) => x == y,
        (Const::Str(x), Const::Str(y)) => x == y,
        (Const::Nil, Const::Nil) => true,
        _ => false,
    })
}

// ---- pass 2: jump threading ----

/// Retargets jump-to-jump chains to their final destination and
/// collapses unconditional jumps-to-return into `Ret`. Non-structural:
/// indices are unchanged.
fn thread_jumps(f: &mut BFunc, stats: &mut OptStats) {
    let code = &mut f.code;
    for i in 0..code.len() {
        let Some(t0) = code[i].jump_target() else {
            continue;
        };
        let mut t = t0;
        // Follow the chain with a hop bound as the cycle guard.
        let mut hops = 0;
        while hops <= code.len() {
            match &code[t] {
                Instr::Jump(u) if *u != t => {
                    t = *u;
                    hops += 1;
                }
                _ => break,
            }
        }
        if hops > code.len() {
            // Pure jump cycle (unreachable from lowered code, which
            // always has a safepoint in loops): leave it alone.
            continue;
        }
        if t != t0 {
            *code[i].jump_target_mut().expect("jump checked above") = t;
            stats.jumps_threaded += 1;
        }
        // An unconditional jump to `Ret` is a return.
        if let Instr::Jump(jt) = code[i] {
            if matches!(code[jt], Instr::Ret) {
                code[i] = Instr::Ret;
                stats.jumps_threaded += 1;
            }
        }
    }
}

// ---- pass 3: superinstruction fusion ----

/// Fuses the hot instruction shapes, longest match first. Every fused
/// instruction's `ticks` operand is the sum of its constituents' static
/// charges; data-dependent charges (map-op ticks, string concat) stay
/// inside the shared runtime helpers the fused handlers call.
fn fuse_pass(f: &mut BFunc, stats: &mut OptStats) {
    let fused = rewrite_windows(f, |code, i, is_target| {
        let interior_free =
            |n: usize| i + n <= code.len() && !is_target[i + 1..i + n].iter().any(|&b| b);
        let Instr::LoadSlot(a) = code[i] else {
            // Non-load-led shapes: [Bin, JumpIfFalse].
            if interior_free(2) {
                if let (Instr::Bin(op), Instr::JumpIfFalse(t)) = (&code[i], &code[i + 1]) {
                    return Some((
                        2,
                        vec![Instr::BinJumpIfFalse {
                            op: *op,
                            t: *t,
                            ticks: 1,
                        }],
                    ));
                }
            }
            // Const-led shapes: [const, Bin|BinRaw, ...] — the left
            // operand is already on the stack (a complex subexpression),
            // the right is a constant. Reached only when the const was
            // not absorbed by a load-led window further left.
            if let Some((c, tc)) = as_const_push(&code[i]) {
                let op = if interior_free(2) {
                    match &code[i + 1] {
                        Instr::Bin(op) => Some((*op, tc + 1)),
                        Instr::BinRaw(op) => Some((*op, tc)),
                        _ => None,
                    }
                } else {
                    None
                };
                if let Some((op, ticks)) = op {
                    let tail = if interior_free(3) {
                        Some(&code[i + 2])
                    } else {
                        None
                    };
                    return Some(match tail {
                        Some(Instr::JumpIfFalse(t)) => (
                            3,
                            vec![Instr::BinConstJump {
                                c,
                                op,
                                t: *t,
                                ticks,
                            }],
                        ),
                        Some(Instr::StoreSlot(dst)) => (
                            3,
                            vec![Instr::BinConstStore {
                                c,
                                op,
                                dst: *dst,
                                ticks,
                            }],
                        ),
                        _ => (2, vec![Instr::BinConst { c, op, ticks }]),
                    });
                }
            }
            return None;
        };
        // Loop-header shape: [LoadSlot i, LoadSlot s, Len, Bin,
        // JumpIfFalse] (`for i < len(s)`) collapses 5 -> 1.
        if interior_free(5) {
            if let (Instr::LoadSlot(s), Instr::Len, Instr::Bin(op), Instr::JumpIfFalse(t)) =
                (&code[i + 1], &code[i + 2], &code[i + 3], &code[i + 4])
            {
                return Some((
                    5,
                    vec![Instr::LoadLoadLenBinJump {
                        a,
                        s: *s,
                        op: *op,
                        t: *t,
                        ticks: 4,
                    }],
                ));
            }
        }
        // Arithmetic shapes: [LoadSlot, LoadSlot|const, Bin|BinRaw, ...].
        let rhs = if interior_free(3) {
            match &code[i + 1] {
                Instr::LoadSlot(b) => match &code[i + 2] {
                    Instr::Bin(op) => Some((Ok(*b), *op, 2 + 1)),
                    Instr::BinRaw(op) => Some((Ok(*b), *op, 2)),
                    _ => None,
                },
                other => match (as_const_push(other), &code[i + 2]) {
                    (Some((c, tc)), Instr::Bin(op)) => Some((Err(c), *op, 1 + tc + 1)),
                    (Some((c, tc)), Instr::BinRaw(op)) => Some((Err(c), *op, 1 + tc)),
                    _ => None,
                },
            }
        } else {
            None
        };
        if let Some((rhs, op, ticks)) = rhs {
            // Try to absorb a trailing StoreSlot or JumpIfFalse.
            let tail = if interior_free(4) {
                Some(&code[i + 3])
            } else {
                None
            };
            let instr = match (rhs, tail) {
                (Ok(b), Some(Instr::StoreSlot(dst))) => Some((
                    4,
                    Instr::LoadLoadBinStore {
                        a,
                        b,
                        op,
                        dst: *dst,
                        ticks,
                    },
                )),
                (Err(c), Some(Instr::StoreSlot(dst))) => Some((
                    4,
                    Instr::LoadConstBinStore {
                        a,
                        c,
                        op,
                        dst: *dst,
                        ticks,
                    },
                )),
                (Ok(b), Some(Instr::JumpIfFalse(t))) => Some((
                    4,
                    Instr::LoadLoadBinJump {
                        a,
                        b,
                        op,
                        t: *t,
                        ticks,
                    },
                )),
                (Err(c), Some(Instr::JumpIfFalse(t))) => Some((
                    4,
                    Instr::LoadConstBinJump {
                        a,
                        c,
                        op,
                        t: *t,
                        ticks,
                    },
                )),
                (Ok(b), _) => Some((3, Instr::LoadLoadBin { a, b, op, ticks })),
                (Err(c), _) => Some((3, Instr::LoadConstBin { a, c, op, ticks })),
            };
            if let Some((n, instr)) = instr {
                return Some((n, vec![instr]));
            }
        }
        // Index shapes: [LoadSlot base, CheckIndexBase, LoadSlot|const,
        // IndexGet|IndexSet].
        if interior_free(4) {
            if let Instr::CheckIndexBase = code[i + 1] {
                let idx = match &code[i + 2] {
                    Instr::LoadSlot(s) => Some((Ok(*s), 1u32)),
                    other => as_const_push(other).map(|(c, tc)| (Err(c), tc)),
                };
                if let Some((idx, tidx)) = idx {
                    let instr = match (&code[i + 3], idx) {
                        (Instr::IndexGet, Ok(s)) => Some(Instr::LoadLoadIndexGet {
                            base: a,
                            idx: s,
                            ticks: 1 + tidx + 1,
                        }),
                        (Instr::IndexGet, Err(c)) => Some(Instr::LoadConstIndexGet {
                            base: a,
                            c,
                            ticks: 1 + tidx + 1,
                        }),
                        (Instr::IndexSet, Ok(s)) => Some(Instr::LoadLoadIndexSet {
                            base: a,
                            idx: s,
                            ticks: 1 + tidx,
                        }),
                        (Instr::IndexSet, Err(c)) => Some(Instr::LoadConstIndexSet {
                            base: a,
                            c,
                            ticks: 1 + tidx,
                        }),
                        _ => None,
                    };
                    if let Some(instr) = instr {
                        return Some((4, vec![instr]));
                    }
                }
            }
        }
        // [LoadSlot, JumpIfFalse] (bare bool conditions).
        if interior_free(2) {
            if let Instr::JumpIfFalse(t) = code[i + 1] {
                return Some((2, vec![Instr::LoadJumpIfFalse { s: a, t, ticks: 1 }]));
            }
        }
        // [LoadSlot, Len, StoreSlot?] (`n := len(s)` and friends).
        if interior_free(2) {
            if let Instr::Len = code[i + 1] {
                if interior_free(3) {
                    if let Instr::StoreSlot(dst) = code[i + 2] {
                        return Some((
                            3,
                            vec![Instr::LoadLenStore {
                                s: a,
                                dst,
                                ticks: 2,
                            }],
                        ));
                    }
                }
                return Some((2, vec![Instr::LoadLen { s: a, ticks: 2 }]));
            }
        }
        // [LoadSlot, Bin|BinRaw]: slot right operand under a stack left
        // operand (reached only when the longer arithmetic windows
        // above did not match).
        if interior_free(2) {
            let op = match &code[i + 1] {
                Instr::Bin(op) => Some((*op, 2)),
                Instr::BinRaw(op) => Some((*op, 1)),
                _ => None,
            };
            if let Some((op, ticks)) = op {
                return Some((2, vec![Instr::BinSlot { s: a, op, ticks }]));
            }
        }
        // [LoadSlot, LoadSlot] pairs feeding an unfuseable consumer
        // (call arguments, struct literals, prints). Guarded: when the
        // instruction after the pair could start a fusion led by the
        // second load, leave the pair alone so that window stays
        // available.
        if interior_free(2) {
            if let Instr::LoadSlot(b) = code[i + 1] {
                let blocks_b = i + 2 < code.len()
                    && matches!(
                        code[i + 2],
                        Instr::LoadSlot(_)
                            | Instr::Const(_)
                            | Instr::ConstRaw(_)
                            | Instr::ConstTicked { .. }
                            | Instr::Len
                            | Instr::CheckIndexBase
                            | Instr::Bin(_)
                            | Instr::BinRaw(_)
                            | Instr::JumpIfFalse(_)
                    );
                if !blocks_b {
                    return Some((2, vec![Instr::LoadLoad { a, b, ticks: 2 }]));
                }
            }
        }
        None
    });
    stats.fusions += fused;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn module(code: Vec<Instr>, consts: Vec<Const>) -> Module {
        Module {
            funcs: vec![BFunc {
                name: "main".into(),
                nslots: 4,
                params: Vec::new(),
                results: Vec::new(),
                slot_names: vec!["a".into(), "b".into(), "c".into(), "d".into()],
                code,
            }],
            consts,
        }
    }

    #[test]
    fn folds_constant_arithmetic_with_summed_ticks() {
        // 1 + 2 + 3 -> one push charging all five constituent ticks.
        let m = module(
            vec![
                Instr::Const(0),
                Instr::Const(1),
                Instr::Bin(BinOp::Add),
                Instr::Const(2),
                Instr::Bin(BinOp::Add),
                Instr::Pop(1),
                Instr::Ret,
            ],
            vec![Const::Int(1), Const::Int(2), Const::Int(3)],
        );
        let (opt, stats) = optimize(&m);
        assert!(stats.consts_folded >= 2, "{stats:?}");
        assert!(stats.pushpops_elided >= 1, "{stats:?}");
        // The whole expression statement collapses to its tick charge.
        assert_eq!(opt.funcs[0].code, vec![Instr::Tick(5), Instr::Ret]);
        assert!(opt.consts.iter().any(|c| matches!(c, Const::Int(6))));
    }

    #[test]
    fn never_folds_division_by_zero() {
        let m = module(
            vec![
                Instr::Const(0),
                Instr::Const(1),
                Instr::Bin(BinOp::Div),
                Instr::Pop(1),
                Instr::Ret,
            ],
            vec![Const::Int(1), Const::Int(0)],
        );
        let (opt, stats) = optimize(&m);
        assert_eq!(stats.consts_folded, 0);
        // The division must still execute at runtime (where it errors);
        // fusing it into a const-operand form is fine, folding is not.
        assert!(opt.funcs[0].code.iter().any(|i| matches!(
            i,
            Instr::Bin(BinOp::Div) | Instr::BinConst { op: BinOp::Div, .. }
        )));
    }

    #[test]
    fn fuses_compound_assignment_to_one_instruction() {
        // i += 1 -> LoadConstBinStore with the original 2-tick charge.
        let m = module(
            vec![
                Instr::LoadSlot(0),
                Instr::Const(0),
                Instr::BinRaw(BinOp::Add),
                Instr::StoreSlot(0),
                Instr::Ret,
            ],
            vec![Const::Int(1)],
        );
        let (opt, stats) = optimize(&m);
        assert_eq!(stats.fusions, 1);
        assert_eq!(
            opt.funcs[0].code,
            vec![
                Instr::LoadConstBinStore {
                    a: 0,
                    c: 0,
                    op: BinOp::Add,
                    dst: 0,
                    ticks: 2,
                },
                Instr::Ret,
            ]
        );
    }

    #[test]
    fn fusion_respects_jump_targets_and_remaps() {
        // The StoreSlot at index 3 is a jump target, so the 4-window
        // must not absorb it; the 3-window [Load, Load, Bin] still
        // fuses and the jump is remapped onto the surviving store.
        let m = module(
            vec![
                Instr::Jump(3),
                Instr::LoadSlot(0),
                Instr::LoadSlot(1),
                Instr::StoreSlot(2), // target
                Instr::LoadSlot(0),
                Instr::LoadSlot(1),
                Instr::Bin(BinOp::Add),
                Instr::StoreSlot(3), // target of nothing: fused fully
                Instr::Ret,
            ],
            Vec::new(),
        );
        let (opt, stats) = optimize(&m);
        assert!(stats.fusions >= 1);
        let code = &opt.funcs[0].code;
        let Some(Instr::Jump(t)) = code.first() else {
            panic!("expected leading jump, got {code:?}");
        };
        assert!(
            matches!(code[*t], Instr::StoreSlot(2)),
            "jump should land on the store: {code:?}"
        );
    }

    #[test]
    fn fuses_index_reads() {
        let m = module(
            vec![
                Instr::LoadSlot(0),
                Instr::CheckIndexBase,
                Instr::LoadSlot(1),
                Instr::IndexGet,
                Instr::Pop(1),
                Instr::Ret,
            ],
            Vec::new(),
        );
        let (opt, stats) = optimize(&m);
        assert_eq!(stats.fusions, 1);
        assert!(matches!(
            opt.funcs[0].code[0],
            Instr::LoadLoadIndexGet {
                base: 0,
                idx: 1,
                ticks: 3,
            }
        ));
    }

    #[test]
    fn threads_jump_chains() {
        let m = module(
            vec![
                Instr::JumpIfFalse(2),
                Instr::Ret,
                Instr::Jump(4),
                Instr::Ret,
                Instr::Ret,
            ],
            Vec::new(),
        );
        let (opt, stats) = optimize(&m);
        assert!(stats.jumps_threaded >= 1);
        assert!(matches!(opt.funcs[0].code[0], Instr::JumpIfFalse(4)));
    }
}
