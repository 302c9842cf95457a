//! Model-based testing of [`Cells`], the two-representation backing
//! array, against the `Vec<Value>` it replaced: random sequences of the
//! operations `make`, `append`, reslicing, indexing and the §6.8 mock
//! free perform on it are applied to both in lockstep, and every read
//! must agree — through every header, including aliases taken before an
//! array generalised.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;

use minigo_vm::{Cells, SliceVal, Value};

/// One backing array, both ways, plus whether only ints have ever been
/// stored in it — what decides the representation, so what the marker is
/// allowed to skip.
struct Array {
    cells: Rc<RefCell<Cells>>,
    model: Rc<RefCell<Vec<Value>>>,
    ints_only: bool,
}

impl Array {
    fn new(cells: Cells, model: Vec<Value>, ints_only: bool) -> Array {
        Array {
            cells: Rc::new(RefCell::new(cells)),
            model: Rc::new(RefCell::new(model)),
            ints_only,
        }
    }
}

/// A slice header over `arrays[array]`.
#[derive(Clone, Copy)]
struct Header {
    array: usize,
    offset: usize,
    len: usize,
}

fn value_strategy() -> impl Strategy<Value = Value> {
    let other = prop_oneof![
        Just(Value::Nil),
        Just(Value::Bool(true)),
        Just(Value::Str("s".into())),
        (0i64..9).prop_map(|i| Value::struct_of(vec![Value::Int(i), Value::Nil])),
        Just(Value::Poison),
    ];
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        (-3i64..4).prop_map(Value::Int),
        other,
    ]
}

fn zero_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Int(0)),
        Just(Value::Int(0)),
        Just(Value::Nil),
        Just(Value::Str("".into())),
        Just(Value::struct_of(vec![Value::Int(0), Value::Nil])),
    ]
}

/// `Value` has no `PartialEq` (pointers compare by identity); none of
/// the generated values holds one, so the rendering decides.
fn same(a: &Value, b: &Value) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

fn check(arrays: &[Array], headers: &[Header]) {
    for a in arrays {
        let (cells, model) = (a.cells.borrow(), a.model.borrow());
        assert_eq!(cells.len(), model.len());
        assert_eq!(cells.is_empty(), model.is_empty());
        for (i, want) in model.iter().enumerate() {
            assert!(same(&cells.get(i), want), "element {i}: {cells:?}");
        }
        // An array that has only held ints shows the marker nothing; any
        // other shows it every element.
        let traced = cells.traced();
        if a.ints_only {
            assert!(traced.is_empty(), "ints stay ints: {cells:?}");
            assert!(model.iter().all(|v| matches!(v, Value::Int(_))));
        } else {
            assert_eq!(traced.len(), model.len(), "{cells:?}");
            assert!(traced.iter().zip(model.iter()).all(|(t, m)| same(t, m)));
        }
    }
    for h in headers {
        let slice = Value::slice(SliceVal {
            cells: arrays[h.array].cells.clone(),
            obj: None,
            offset: h.offset,
            len: h.len,
            elem_size: 8,
        });
        let model = arrays[h.array].model.borrow();
        let want: Vec<String> = model[h.offset..h.offset + h.len]
            .iter()
            .map(Value::display)
            .collect();
        assert_eq!(slice.display(), format!("[{}]", want.join(" ")));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cells_match_the_vec_of_values_they_replace(
        ops in proptest::collection::vec((0u8..8, any::<usize>(), any::<usize>(), value_strategy()), 1..60),
        zeros in proptest::collection::vec((zero_strategy(), 0usize..12), 1..4),
    ) {
        let mut arrays = Vec::new();
        let mut headers = Vec::new();
        // make([]T, n), from an int, nil, string or struct zero.
        for (zero, n) in zeros {
            let cells = Cells::filled(zero.clone(), n).expect("small");
            let ints_only = matches!(zero, Value::Int(_));
            arrays.push(Array::new(cells, vec![zero; n], ints_only));
            headers.push(Header { array: arrays.len() - 1, offset: 0, len: n });
        }
        check(&arrays, &headers);

        for (kind, a, b, v) in ops {
            let h = headers[a % headers.len()];
            let cap = arrays[h.array].model.borrow().len() - h.offset;
            match kind {
                // s[i] = v
                0 | 1 if h.len > 0 => {
                    let i = h.offset + b % h.len;
                    let arr = &mut arrays[h.array];
                    arr.ints_only &= matches!(v, Value::Int(_));
                    arr.cells.borrow_mut().set(i, v.clone());
                    arr.model.borrow_mut()[i] = v;
                }
                // append(s, v), in capacity: the store lands in the shared
                // array, where every header over it sees it.
                2 | 3 if h.len < cap => {
                    let arr = &mut arrays[h.array];
                    arr.ints_only &= matches!(v, Value::Int(_));
                    arr.cells.borrow_mut().set(h.offset + h.len, v.clone());
                    arr.model.borrow_mut()[h.offset + h.len] = v;
                    headers.push(Header { len: h.len + 1, ..h });
                }
                // append(s, v), growing: a fresh array; the old one and
                // its headers stay as they were.
                2 | 3 => {
                    let new_cap = (cap * 2).max(8);
                    let (lo, hi) = (h.offset, h.offset + h.len);
                    let arr = &arrays[h.array];
                    let cells = arr.cells.borrow().grown(lo, hi, v.clone(), new_cap).expect("small");
                    let ints_only = arr.ints_only && matches!(v, Value::Int(_));
                    let mut model = arr.model.borrow()[lo..hi].to_vec();
                    model.push(v);
                    model.resize(new_cap, Value::Int(0));
                    arrays.push(Array::new(cells, model, ints_only));
                    headers.push(Header { array: arrays.len() - 1, offset: 0, len: h.len + 1 });
                }
                // s[lo:hi], up to cap(s): an alias of the same array.
                4 => {
                    let hi = a / 7 % (cap + 1);
                    let lo = b % (hi + 1);
                    headers.push(Header { array: h.array, offset: h.offset + lo, len: hi - lo });
                }
                // The mock tcfree poisons the whole array, whichever
                // header it was handed.
                5 | 6 if b % 4 == 0 => {
                    let v = if kind == 5 { Value::Poison } else { v };
                    let arr = &mut arrays[h.array];
                    arr.ints_only &= matches!(v, Value::Int(_));
                    arr.cells.borrow_mut().fill(v.clone());
                    arr.model.borrow_mut().fill(v);
                }
                // append(nil, v)
                7 => {
                    let cells = Cells::default().grown(0, 0, v.clone(), 8).expect("small");
                    let mut model = vec![v.clone()];
                    model.resize(8, Value::Int(0));
                    arrays.push(Array::new(cells, model, matches!(v, Value::Int(_))));
                    headers.push(Header { array: arrays.len() - 1, offset: 0, len: 1 });
                }
                _ => continue,
            }
            check(&arrays, &headers);
        }
    }
}

#[test]
fn an_alias_taken_before_a_generalisation_reads_the_generalised_contents() {
    let cells = Rc::new(RefCell::new(
        Cells::filled(Value::Int(7), 4).expect("four ints"),
    ));
    let alias = cells.clone();
    assert!(alias.borrow().traced().is_empty());
    cells.borrow_mut().set(2, Value::Str("x".into()));
    let seen: Vec<String> = (0..4).map(|i| alias.borrow().get(i).display()).collect();
    assert_eq!(seen, ["7", "7", "x", "7"]);
    assert_eq!(
        alias.borrow().traced().len(),
        4,
        "the marker sees the string"
    );
    // And back to an int in the same place: the array stays general.
    alias.borrow_mut().set(2, Value::Int(1));
    assert_eq!(cells.borrow().traced().len(), 4);
}

#[test]
fn a_length_the_host_cannot_back_is_an_error_not_an_abort() {
    for zero in [Value::Int(0), Value::Nil] {
        assert!(Cells::filled(zero.clone(), usize::MAX / 4).is_err());
        let small = Cells::filled(zero, 2).expect("two elements");
        assert!(small.grown(0, 2, Value::Int(1), usize::MAX / 4).is_err());
    }
}
