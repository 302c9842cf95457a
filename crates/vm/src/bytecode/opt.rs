//! The bytecode optimizer tier: constant folding, constant branches,
//! tick merging, and jump threading.
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
//! tick charges on the replacement (a folded constant operand's ticks,
//! or a [`Instr::Tick`]). The runtime's clock charge is an exact add
//! with no per-call randomness, and no observable event (allocation,
//! trace event, safepoint, GC poll, error) can occur *between* the
//! charges a rewrite coalesces, so the clock reads the same at every
//! event. Rewrites that could change error behaviour are refused:
//! division by a constant zero is never folded, and branch folding only
//! applies to constant bools.
//!
//! Pass ordering (per function):
//!
//! 1. **Fold** (to a fixpoint): constant arithmetic, comparisons and
//!    negations into a move from a pool entry, constant branches, and
//!    tick merging (a `Tick` into the next `Tick`, or into the next
//!    instruction's first operand read, which charges before anything
//!    else it does).
//! 2. **Thread**: collapse jump-to-jump chains and jumps-to-return.
//!
//! Rewrites rebuild the instruction vector and remap every jump operand
//! through an old-index → new-index table; a window is only rewritten
//! when no jump targets its interior.

use minigo_syntax::BinOp;

use super::ir::{BFunc, Const, Instr, Module, Src, SrcKind};
use crate::fxhash::FxHashMap;

/// Per-pass rewrite counters for one [`optimize`] run, surfaced through
/// the compile pipeline next to its phase timings and exported in the
/// JSON report (`"opt"`).
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
    /// Adjacent tick charges merged (fold pass).
    pub ticks_merged: u64,
    /// Jump-to-jump chains and jumps-to-return collapsed (thread pass).
    pub jumps_threaded: u64,
}

impl OptStats {
    /// Total rewrites across all passes.
    pub fn total_rewrites(&self) -> u64 {
        self.consts_folded + self.branches_folded + self.ticks_merged + self.jumps_threaded
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
        // Fold to a fixpoint so chains of ticks merge fully; bounded
        // for safety.
        for _ in 0..8 {
            if fold_pass(f, &mut pool, &mut stats) == 0 {
                break;
            }
        }
        thread_jumps(f, &mut stats);
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
/// lands on the replacement, which executes the same sequence. It may
/// look ahead of `i` but never behind it.
fn rewrite_windows(
    f: &mut BFunc,
    mut matcher: impl FnMut(&[Instr], usize, &[bool]) -> Option<(usize, Vec<Instr>)>,
) -> u64 {
    let mut code = std::mem::take(&mut f.code);
    let is_target = target_flags(&code);
    let mut new_code: Vec<Instr> = Vec::with_capacity(code.len());
    let mut map: Vec<usize> = vec![0; code.len() + 1];
    let mut rewrites = 0u64;
    let mut i = 0;
    while i < code.len() {
        map[i] = new_code.len();
        match matcher(&code, i, &is_target) {
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
                new_code.push(std::mem::replace(&mut code[i], Instr::Ret));
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

/// A constant operand carrying `ticks`, unless the charge overflows.
fn konst(c: u32, ticks: u64) -> Option<Src> {
    Some(Src::k(c, u16::try_from(ticks).ok()?))
}

/// `[Tick(t)]`, or nothing for no ticks.
fn tick_instrs(t: u64) -> Vec<Instr> {
    match u32::try_from(t) {
        Ok(0) => Vec::new(),
        Ok(t) => vec![Instr::Tick(t)],
        Err(_) => unreachable!("operand ticks fit in u16"),
    }
}

// ---- pass 1: constant folding ----

/// One fold round over single instructions and tick pairs. Returns the
/// number of rewrites.
fn fold_pass(f: &mut BFunc, pool: &mut PoolInterner, stats: &mut OptStats) -> u64 {
    // Counters are attributed inside the matcher; the closure borrows
    // them individually to keep borrowck happy.
    let mut folded = 0u64;
    let mut branches = 0u64;
    let mut ticks_merged = 0u64;
    let total = rewrite_windows(f, |code, i, is_target| {
        let k = |s: Src| (s.kind == SrcKind::K).then_some((s.at, u64::from(s.ticks)));
        match code[i] {
            // [Tick a, Tick b] -> [Tick a+b]; [Tick a, I] -> I charging a
            // more before its first operand read; [Tick 0] -> [].
            Instr::Tick(a) => {
                if let (Some(next), false) = (code.get(i + 1), is_target[i + 1]) {
                    if let Instr::Tick(b) = next {
                        ticks_merged += 1;
                        return Some((2, vec![Instr::Tick(a + b)]));
                    }
                    let mut next = next.clone();
                    let mut first = true;
                    let mut merged = false;
                    next.visit_srcs(&mut |s| {
                        if std::mem::take(&mut first) {
                            if let Ok(t) = u16::try_from(u32::from(s.ticks) + a) {
                                s.ticks = t;
                                merged = true;
                            }
                        }
                    });
                    if merged {
                        ticks_merged += 1;
                        return Some((2, vec![next]));
                    }
                }
                if a == 0 {
                    ticks_merged += 1;
                    return Some((1, Vec::new()));
                }
                None
            }
            Instr::Bin {
                op,
                dst,
                a,
                b,
                ticks,
            } => {
                let ((ca, ta), (cb, tb)) = (k(a)?, k(b)?);
                let (c, extra) = fold_binop(pool.get(ca), pool.get(cb), op)?;
                let src = konst(pool.add(c), ta + tb + u64::from(ticks) + extra)?;
                folded += 1;
                Some((1, vec![Instr::Move { dst, src }]))
            }
            Instr::Neg { dst, src } => {
                let (c, t) = k(src)?;
                let Const::Int(v) = pool.get(c) else {
                    return None;
                };
                let src = konst(pool.add(Const::Int(v.wrapping_neg())), t + 1)?;
                folded += 1;
                Some((1, vec![Instr::Move { dst, src }]))
            }
            Instr::Not { dst, src } => {
                let (c, t) = k(src)?;
                let Const::Bool(v) = pool.get(c) else {
                    return None;
                };
                let src = konst(pool.add(Const::Bool(!v)), t + 1)?;
                folded += 1;
                Some((1, vec![Instr::Move { dst, src }]))
            }
            // A constant condition: its ticks, then the jump if taken.
            Instr::BrCmp { op, a, b, when, t } => {
                let ((ca, ta), (cb, tb)) = (k(a)?, k(b)?);
                let (Const::Bool(v), 0) = fold_binop(pool.get(ca), pool.get(cb), op)? else {
                    return None;
                };
                let mut repl = tick_instrs(ta + tb + 1);
                if v == when {
                    repl.push(Instr::Jump(t));
                }
                branches += 1;
                Some((1, repl))
            }
            Instr::JumpIf { cond, when, t } => {
                let (c, tc) = k(cond)?;
                let Const::Bool(v) = *pool.get(c) else {
                    return None;
                };
                let mut repl = tick_instrs(tc);
                if v == when {
                    repl.push(Instr::Jump(t));
                }
                branches += 1;
                Some((1, repl))
            }
            _ => None,
        }
    });
    stats.consts_folded += folded;
    stats.branches_folded += branches;
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

#[cfg(test)]
mod tests {
    use super::*;

    /// `main` with four variables (`a`..`d`, slots 0-3) and temporaries
    /// from slot 4 up.
    fn module(code: Vec<Instr>, consts: Vec<Const>) -> Module {
        Module {
            funcs: vec![BFunc {
                name: "main".into(),
                nslots: 8,
                params: Vec::new(),
                results: Vec::new(),
                slot_names: vec!["a".into(), "b".into(), "c".into(), "d".into()],
                code,
            }],
            consts,
        }
    }

    fn add(dst: u32, a: Src, b: Src) -> Instr {
        Instr::Bin {
            op: BinOp::Add,
            dst,
            a,
            b,
            ticks: 1,
        }
    }

    #[test]
    fn folds_constant_arithmetic_with_summed_ticks() {
        // a = 1 + 2 -> one constant move charging all three ticks; a
        // Bin that reads the folded temporary stays.
        let m = module(
            vec![
                add(4, Src::k(0, 1), Src::k(1, 1)),
                add(0, Src::tmp(4), Src::k(1, 1)),
                Instr::Ret,
            ],
            vec![Const::Int(1), Const::Int(2)],
        );
        let (opt, stats) = optimize(&m);
        assert_eq!(stats.consts_folded, 1, "{stats:?}");
        let three = opt.consts.iter().position(|c| *c == Const::Int(3));
        let three = three.expect("3 interned") as u32;
        assert_eq!(
            opt.funcs[0].code,
            vec![
                Instr::Move {
                    dst: 4,
                    src: Src::k(three, 3)
                },
                add(0, Src::tmp(4), Src::k(1, 1)),
                Instr::Ret
            ]
        );
    }

    #[test]
    fn never_folds_division_by_zero() {
        let div = Instr::Bin {
            op: BinOp::Div,
            dst: 0,
            a: Src::k(0, 1),
            b: Src::k(1, 1),
            ticks: 1,
        };
        let m = module(
            vec![div.clone(), Instr::Ret],
            vec![Const::Int(1), Const::Int(0)],
        );
        let (opt, stats) = optimize(&m);
        assert_eq!(stats.consts_folded, 0);
        // The division must still execute at runtime, where it errors.
        assert_eq!(opt.funcs[0].code, vec![div, Instr::Ret]);
    }

    #[test]
    fn folds_constant_branches_to_their_ticks() {
        let lt = |t| Instr::BrCmp {
            op: BinOp::Lt,
            a: Src::k(0, 1),
            b: Src::k(1, 1),
            when: false,
            t,
        };
        let m = module(
            vec![lt(2), Instr::Tick(4), Instr::Ret],
            vec![Const::Int(1), Const::Int(2)],
        );
        let (opt, stats) = optimize(&m);
        assert_eq!(stats.branches_folded, 1);
        assert_eq!(stats.ticks_merged, 1);
        assert_eq!(opt.funcs[0].code, vec![Instr::Tick(7), Instr::Ret]);
        let m = module(
            vec![lt(2), Instr::Tick(4), Instr::Ret],
            vec![Const::Int(2), Const::Int(1)],
        );
        let (opt, _) = optimize(&m);
        assert_eq!(
            opt.funcs[0].code,
            vec![Instr::Tick(3), Instr::Ret, Instr::Tick(4), Instr::Ret]
        );
    }

    #[test]
    fn threads_jump_chains() {
        let m = module(
            vec![
                Instr::JumpIf {
                    cond: Src::var(0),
                    when: false,
                    t: 2,
                },
                Instr::Ret,
                Instr::Jump(4),
                Instr::Ret,
                Instr::Ret,
            ],
            Vec::new(),
        );
        let (opt, stats) = optimize(&m);
        assert!(stats.jumps_threaded >= 1);
        assert!(matches!(opt.funcs[0].code[0], Instr::JumpIf { t: 4, .. }));
    }
}
