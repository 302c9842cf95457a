//! The bytecode optimizer tier: tick merging.
//!
//! [`optimize`] rewrites a lowered [`Module`] into a faster but
//! observably identical one. "Observably identical" is a hard contract
//! here, enforced by the workspace's differential suites: program
//! output, virtual time, step counts, metrics, traces, and profiles
//! must be bit-identical to both the unoptimized stream and the
//! tree-walking interpreter.
//!
//! The contract holds because of one rule — **tick preservation**: an
//! [`Instr::Tick`] that disappears carries its charge onto the next
//! instruction's first operand read, which charges before anything
//! else that instruction does, or onto a `Tick` that stays. The
//! runtime's clock charge is an exact add with no per-call randomness,
//! and no observable event (allocation, trace event, safepoint, GC
//! poll, error) can occur between a `Tick` and the read it merges
//! into, so the clock reads the same at every event.
//!
//! The pass is one left-to-right scan per function. It carries the
//! charge of the `Tick`s it has read and lays it on the next
//! instruction's first operand when the sum fits in that operand's
//! `u16`. It writes the charge out as one `Tick` before a jump target,
//! which must still charge it on every path that lands there, and
//! before an instruction the charge cannot ride on. A `Tick(0)`
//! disappears. Jump operands are remapped once at the end.
//!
//! Nothing else is rewritten because lowering emits nothing else to
//! rewrite: no operator on constants and no jump to a jump (DESIGN.md
//! §12 has the census).

use std::sync::Arc;

use super::ir::{BFunc, Instr, Module};

/// Rewrite counters for one [`optimize`] run, surfaced through the
/// compile pipeline next to its phase timings and exported in the JSON
/// report (`"opt"`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Instructions across the module before optimization.
    pub instrs_before: u64,
    /// Instructions after optimization.
    pub instrs_after: u64,
    /// `Tick`s merged into a neighbour or dropped as zero.
    pub ticks_merged: u64,
}

impl OptStats {
    /// Total rewrites: the tick merges, the pass's one rewrite.
    pub fn total_rewrites(&self) -> u64 {
        self.ticks_merged
    }
}

/// Runs the optimizer tier over a lowered module, returning the
/// optimized module and its rewrite counters. The input is left
/// untouched so the baseline stream stays available for `--opt off`;
/// the two share each function's slot names.
pub fn optimize(m: &Module) -> (Module, OptStats) {
    let out = Module {
        funcs: m
            .funcs
            .iter()
            .map(|f| BFunc {
                name: f.name.clone(),
                nslots: f.nslots,
                params: f.params.clone(),
                results: f.results.clone(),
                slot_names: Arc::clone(&f.slot_names),
                code: merge_ticks(&f.code),
            })
            .collect(),
        consts: m.consts.clone(),
    };
    let instrs_before = m.instr_count() as u64;
    let instrs_after = out.instr_count() as u64;
    // Every instruction the pass removes is a merged or zero `Tick`.
    let stats = OptStats {
        instrs_before,
        instrs_after,
        ticks_merged: instrs_before - instrs_after,
    };
    (out, stats)
}

/// Merges each run of `Tick`s into the instruction after it; see the
/// module doc.
fn merge_ticks(code: &[Instr]) -> Vec<Instr> {
    let n = code.len();
    let mut is_target = vec![false; n + 1];
    for t in code.iter().filter_map(Instr::jump_target) {
        is_target[t] = true;
    }
    let mut out = Vec::with_capacity(n);
    // Old index -> new index; a merged `Tick` maps to whatever carries
    // its charge, which is what a jump landing on it must execute.
    let mut map = vec![0; n + 1];
    // The charge of the `Tick`s read since the last instruction written.
    let mut pending = 0u32;
    for (i, instr) in code.iter().enumerate() {
        if is_target[i] {
            flush(&mut out, &mut pending);
        }
        map[i] = out.len();
        if let Instr::Tick(t) = *instr {
            match pending.checked_add(t) {
                Some(sum) => pending = sum,
                None => {
                    flush(&mut out, &mut pending);
                    pending = t;
                }
            }
            continue;
        }
        let mut instr = instr.clone();
        if pending > 0 && !ride(&mut instr, pending) {
            flush(&mut out, &mut pending);
        }
        pending = 0;
        out.push(instr);
    }
    flush(&mut out, &mut pending);
    map[n] = out.len();
    for instr in &mut out {
        if let Some(t) = instr.jump_target_mut() {
            *t = map[*t];
        }
    }
    out
}

/// Writes a nonzero pending charge out as a `Tick`.
fn flush(out: &mut Vec<Instr>, pending: &mut u32) {
    match std::mem::take(pending) {
        0 => {}
        t => out.push(Instr::Tick(t)),
    }
}

/// Adds `charge` to `instr`'s first operand read, if it has one and the
/// sum fits in the operand's ticks.
fn ride(instr: &mut Instr, charge: u32) -> bool {
    let mut first = true;
    let mut rode = false;
    instr.visit_srcs(&mut |s| {
        if std::mem::take(&mut first) {
            if let Ok(t) = u16::try_from(u64::from(s.ticks) + u64::from(charge)) {
                s.ticks = t;
                rode = true;
            }
        }
    });
    rode
}

#[cfg(test)]
mod tests {
    use super::super::ir::{BFunc, Src};
    use super::*;

    /// `main` with four variables (`a`..`d`, slots 0-3) and temporaries
    /// from slot 4 up.
    fn module(code: Vec<Instr>) -> Module {
        Module {
            funcs: vec![BFunc {
                name: "main".into(),
                nslots: 8,
                params: Vec::new(),
                results: Vec::new(),
                slot_names: ["a", "b", "c", "d"].map(String::from).into(),
                code,
            }],
            consts: Vec::new(),
        }
    }

    fn mov(ticks: u16) -> Instr {
        Instr::Move {
            dst: 0,
            src: Src::k(0, ticks),
        }
    }

    fn code_of(code: Vec<Instr>) -> (Vec<Instr>, OptStats) {
        let (opt, stats) = optimize(&module(code));
        (opt.funcs[0].code.clone(), stats)
    }

    #[test]
    fn a_run_of_ticks_rides_on_the_next_operand() {
        for n in [256u16, 1000] {
            let mut code = vec![Instr::Tick(1); usize::from(n)];
            code.push(mov(1));
            let (code, stats) = code_of(code);
            assert_eq!(code, vec![mov(n + 1)], "run of {n}");
            assert_eq!(stats.ticks_merged, u64::from(n));
            assert_eq!(stats.instrs_after, 1);
        }
    }

    #[test]
    fn a_tick_before_a_jump_target_stays_and_jumps_land_on_it() {
        // The jump targets index 4, the second `Move`.
        let code = vec![
            Instr::Tick(1),
            Instr::Tick(1),
            mov(1),
            Instr::Tick(5),
            mov(1),
            Instr::Jump(4),
        ];
        let (code, stats) = code_of(code);
        assert_eq!(code, vec![mov(3), Instr::Tick(5), mov(1), Instr::Jump(2)]);
        assert_eq!(stats.ticks_merged, 2);
        // A targeted `Tick` rides on; the jump lands on what carries it.
        let code = vec![Instr::Tick(2), Instr::Tick(3), mov(1), Instr::Jump(1)];
        let (code, _) = code_of(code);
        assert_eq!(code, vec![Instr::Tick(2), mov(4), Instr::Jump(1)]);
    }

    #[test]
    fn a_charge_that_would_overflow_an_operand_stays_a_tick() {
        let (code, stats) = code_of(vec![Instr::Tick(10), mov(u16::MAX - 5), Instr::Ret]);
        assert_eq!(code, vec![Instr::Tick(10), mov(u16::MAX - 5), Instr::Ret]);
        assert_eq!(stats.ticks_merged, 0);
    }

    #[test]
    fn a_zero_tick_is_removed() {
        let (code, stats) = code_of(vec![Instr::Safepoint, Instr::Tick(0), Instr::Ret]);
        assert_eq!(code, vec![Instr::Safepoint, Instr::Ret]);
        assert_eq!(stats.ticks_merged, 1);
    }
}
