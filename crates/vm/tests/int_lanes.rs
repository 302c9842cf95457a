//! The bytecode handlers' int lanes against the operator table they
//! shortcut. Every handler that applies a `BinOp` is run on hand-written
//! modules three ways: with plain int slots (the lane's case), with the
//! same slots boxed (the lane declines, so `Machine::binop` and the
//! generic store or branch compute the answer), and against Go's integer
//! semantics worked out here. All three must agree for every operator —
//! result, error, output, virtual time and step count — over the values
//! where wrapping arithmetic and division differ from the naive reading.
//!
//! Driven through the crate's public surface (`Module`, `run_module`)
//! rather than the lane helpers themselves, so the same file pins the
//! behaviour before and after the lanes existed.

use proptest::prelude::*;

use minigo_syntax::{BinOp, ExprId};
use minigo_vm::bytecode::{BFunc, Instr};
use minigo_vm::{run_module, Const as K, Module, VmConfig};

const OPS: [BinOp; 13] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Rem,
    BinOp::Eq,
    BinOp::Ne,
    BinOp::Lt,
    BinOp::Le,
    BinOp::Gt,
    BinOp::Ge,
    BinOp::And,
    BinOp::Or,
];

const EDGES: [i64; 5] = [i64::MIN, -1, 0, 1, i64::MAX];

// Slots: x and y hold the operands, D is a store form's destination, S a
// slice whose length is y. Constants: 0 and 1 are themselves, Y is y.
const X: u32 = 0;
const Y: u32 = 1;
const D: u32 = 2;
const S: u32 = 3;
const CY: u32 = 2;

/// Where a branch form goes when its comparison is false (see
/// [`program`]).
const FALSE_ARM: usize = 10;

/// What Go computes for `a op b` on ints: the value as `print` renders
/// it, or the run-time error's rendering. `&&`/`||` never reach the
/// operator table with ints in a typed program; any error will do.
fn oracle(op: BinOp, a: i64, b: i64) -> Result<String, Option<&'static str>> {
    let int = |v: i64| Ok(v.to_string());
    let bool = |v: bool| Ok(v.to_string());
    match op {
        BinOp::Add => int(a.wrapping_add(b)),
        BinOp::Sub => int(a.wrapping_sub(b)),
        BinOp::Mul => int(a.wrapping_mul(b)),
        BinOp::Div | BinOp::Rem if b == 0 => Err(Some("integer divide by zero")),
        BinOp::Div => int(a.wrapping_div(b)),
        BinOp::Rem => int(a.wrapping_rem(b)),
        BinOp::Eq => bool(a == b),
        BinOp::Ne => bool(a != b),
        BinOp::Lt => bool(a < b),
        BinOp::Le => bool(a <= b),
        BinOp::Gt => bool(a > b),
        BinOp::Ge => bool(a >= b),
        BinOp::And | BinOp::Or => Err(None),
    }
}

/// The handlers under test: `(name, code computing x op y, whether the
/// code is a branch)`. A value form leaves the result on the stack; a
/// branch form jumps to [`FALSE_ARM`] when the comparison is false.
fn forms(op: BinOp) -> Vec<(&'static str, Vec<Instr>, bool)> {
    use Instr::*;
    let ticks = 3;
    let (a, b, c, s, dst, t) = (X, Y, CY, Y, D, FALSE_ARM);
    vec![
        ("LoadLoadBin", vec![LoadLoadBin { a, b, op, ticks }], false),
        (
            "LoadConstBin",
            vec![LoadConstBin { a, c, op, ticks }],
            false,
        ),
        (
            "LoadLoadBinStore",
            vec![
                LoadLoadBinStore {
                    a,
                    b,
                    op,
                    dst,
                    ticks,
                },
                LoadSlot(D),
            ],
            false,
        ),
        (
            "LoadConstBinStore",
            vec![
                LoadConstBinStore {
                    a,
                    c,
                    op,
                    dst,
                    ticks,
                },
                LoadSlot(D),
            ],
            false,
        ),
        // The destination is an operand: `x = x op y`.
        (
            "LoadLoadBinStore to x",
            vec![
                LoadLoadBinStore {
                    a,
                    b,
                    op,
                    dst: X,
                    ticks,
                },
                LoadSlot(X),
            ],
            false,
        ),
        ("Bin", vec![LoadSlot(X), LoadSlot(Y), Bin(op)], false),
        ("BinRaw", vec![LoadSlot(X), LoadSlot(Y), BinRaw(op)], false),
        (
            "BinSlot",
            vec![LoadSlot(X), BinSlot { s, op, ticks }],
            false,
        ),
        (
            "BinConst",
            vec![LoadSlot(X), BinConst { c, op, ticks }],
            false,
        ),
        (
            "BinConstStore",
            vec![
                LoadSlot(X),
                BinConstStore { c, op, dst, ticks },
                LoadSlot(D),
            ],
            false,
        ),
        (
            "LoadLoadBinJump",
            vec![LoadLoadBinJump { a, b, op, t, ticks }],
            true,
        ),
        (
            "LoadConstBinJump",
            vec![LoadConstBinJump { a, c, op, t, ticks }],
            true,
        ),
        (
            "BinJumpIfFalse",
            vec![LoadSlot(X), LoadSlot(Y), BinJumpIfFalse { op, t, ticks }],
            true,
        ),
        (
            "BinConstJump",
            vec![LoadSlot(X), BinConstJump { c, op, t, ticks }],
            true,
        ),
        // x against len(S), which is y whenever a slice can be that long.
        (
            "LoadLoadLenBinJump",
            vec![LoadLoadLenBinJump {
                a,
                s: S,
                op,
                t,
                ticks,
            }],
            true,
        ),
    ]
}

/// `main`: declares the slots (boxed or plain), runs `body`, and prints
/// the value it left — or, for a branch, `true` / `false` by which way it
/// went.
fn program(x: i64, y: i64, boxed: bool, body: Vec<Instr>, branch: bool) -> Module {
    use Instr::*;
    let declare = |slot, boxed| Declare {
        slot,
        boxed,
        heap: false,
        size: 8,
    };
    let mut code = vec![
        Const(3),
        declare(X, boxed),
        Const(CY),
        declare(Y, boxed),
        Const(0),
        declare(D, false),
        Const(4),
        MakeSlice {
            elem_size: 8,
            has_cap: false,
            heap: false,
            site: ExprId(1),
            zero: 0,
        },
        declare(S, boxed),
    ];
    let print = code.len() + 3 + body.len() + usize::from(branch);
    code.push(Jump(FALSE_ARM + 2));
    assert_eq!(code.len(), FALSE_ARM);
    code.extend([Const(5), Jump(print)]);
    code.extend(body);
    if branch {
        code.push(Const(6));
    }
    assert_eq!(code.len(), print);
    code.extend([Print(1), Pop(1), Ret]);
    let slice_len = if (0..=16).contains(&y) { y } else { 0 };
    Module {
        funcs: vec![BFunc {
            name: "main".into(),
            nslots: 4,
            params: Vec::new(),
            results: Vec::new(),
            slot_names: ["x", "y", "d", "s"].map(String::from).to_vec(),
            code,
        }],
        consts: vec![
            K::Int(0),
            K::Int(1),
            K::Int(y),
            K::Int(x),
            K::Int(slice_len),
            K::Bool(false),
            K::Bool(true),
        ],
    }
}

/// Output, virtual time and steps of a run, or its error's rendering.
fn observe(module: &Module) -> Result<(String, u64, u64), String> {
    run_module(module, VmConfig::default())
        .map(|out| (out.output, out.time, out.steps))
        .map_err(|e| e.to_string())
}

fn check(x: i64, y: i64) {
    for op in OPS {
        for (name, body, branch) in forms(op) {
            if name == "LoadLoadLenBinJump" && !(0..=16).contains(&y) {
                continue;
            }
            let plain = observe(&program(x, y, false, body.clone(), branch));
            let boxed = observe(&program(x, y, true, body, branch));
            assert_eq!(plain, boxed, "{name} {x} {op} {y}: lane vs generic body");
            match (oracle(op, x, y), &plain) {
                (Ok(want), Ok((got, _, _))) if !branch || want.parse::<bool>().is_ok() => {
                    assert_eq!(got, &format!("{want}\n"), "{name} {x} {op} {y}");
                }
                // An int where a branch wants a bool.
                (Ok(_), Err(e)) => assert!(e.contains("expected bool"), "{name} {x} {op} {y}: {e}"),
                (Err(want), Err(e)) => {
                    assert!(e.contains(want.unwrap_or("")), "{name} {x} {op} {y}: {e}");
                }
                (want, got) => panic!("{name} {x} {op} {y}: want {want:?}, got {got:?}"),
            }
        }
    }
}

#[test]
fn edges_against_edges() {
    for x in EDGES {
        for y in EDGES {
            check(x, y);
        }
    }
    // Lengths a slice can have, for the loop-header form.
    for x in [-1, 0, 3, 16, 17, i64::MAX] {
        for y in [0, 1, 3, 16] {
            check(x, y);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn edges_against_random_ints(
        edge in prop_oneof![Just(EDGES[0]), Just(EDGES[1]), Just(EDGES[2]), Just(EDGES[3]), Just(EDGES[4])],
        other in any::<i64>(),
        small in -2i64..18,
    ) {
        check(edge, other);
        check(other, edge);
        check(other, small);
    }
}
