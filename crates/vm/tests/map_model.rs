//! Model-based testing of [`MapData`], the two-tier map storage, against
//! the `Vec<(Key, Value)>` it stands for: random sequences of the
//! inserts, updates, deletes and the §6.8 mock's poison fill a program can
//! perform are applied to both in lockstep (an insert the way the machine
//! does it: one `find`, then `set_at` or `push`), and every lookup, the
//! length, the insertion order and the printed form must agree.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;

use minigo_vm::{Key, MapData, MapVal, Value};

fn value_strategy() -> impl Strategy<Value = Value> {
    let other = prop_oneof![
        Just(Value::Nil),
        Just(Value::Str("s".into())),
        (0i64..9).prop_map(|i| Value::struct_of(vec![Value::Int(i), Value::Nil])),
        Just(Value::Poison),
    ];
    // Mostly ints, so that many maps keep int values throughout.
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        (-3i64..4).prop_map(Value::Int),
        (0i64..9).prop_map(Value::Int),
        any::<i64>().prop_map(Value::Int),
        other,
    ]
}

/// `Value` has no `PartialEq` (pointers compare by identity); none of
/// the generated values holds one, so the rendering decides.
fn same(a: &Value, b: &Value) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

/// The key operation `kind` picks, given the model's current entries.
fn key_for(kind: u8, a: usize, model: &[(Key, Value)]) -> Key {
    match kind {
        // The next key of a dense map.
        0 | 1 => Key::Int(model.len() as i64),
        // Sparse, colliding with earlier keys.
        2 => Key::Int((a % 40) as i64),
        3 => Key::Int(-((a % 5) as i64) - 1),
        4 => Key::Int(if a.is_multiple_of(2) {
            i64::MIN
        } else {
            i64::MAX
        }),
        5 => Key::Bool(a.is_multiple_of(2)),
        6 => Key::Str(["", "a", "b", "zz"][a % 4].into()),
        // An update of a present key (or of key 0 in an empty map).
        _ => model
            .get(a % model.len().max(1))
            .map_or(Key::Int(0), |(k, _)| k.clone()),
    }
}

fn check(map: &Rc<RefCell<MapData>>, model: &[(Key, Value)], ints_only: bool) {
    let data = map.borrow();
    assert_eq!(data.len(), model.len());
    assert_eq!(data.is_empty(), model.is_empty());
    let entries: Vec<(Key, Value)> = data.entries().collect();
    assert_eq!(entries.len(), model.len());
    for (i, ((k, v), (mk, mv))) in entries.iter().zip(model).enumerate() {
        assert_eq!(k, mk, "key at {i}");
        assert!(same(v, mv), "value at {i}: {v:?} vs {mv:?}");
        assert_eq!(data.find(mk), Some(i), "find {mk:?}");
        assert!(same(&data.get(mk).expect("present"), mv));
    }
    let absent = [
        Key::Int(model.len() as i64),
        Key::Int(-1),
        Key::Int(1000),
        Key::Int(i64::MIN),
        Key::Int(i64::MAX),
        Key::Bool(true),
        Key::Bool(false),
        Key::Str("a".into()),
        Key::Str("q".into()),
    ];
    for k in absent
        .iter()
        .filter(|k| model.iter().all(|(mk, _)| mk != *k))
    {
        assert_eq!(data.find(k), None, "find {k:?}");
        assert!(data.get(k).is_none());
    }
    // A map whose values have only been ints shows the marker nothing.
    let traced = data.traced();
    if ints_only {
        assert!(traced.is_empty(), "{data:?}");
    } else {
        assert_eq!(traced.len(), model.len());
        assert!(traced.iter().zip(model).all(|(t, (_, m))| same(t, m)));
    }
    drop(data);
    let shown: Vec<String> = model
        .iter()
        .map(|(k, v)| format!("{k}:{}", v.display()))
        .collect();
    let value = Value::map(MapVal {
        data: map.clone(),
        obj: None,
    });
    assert_eq!(value.display(), format!("map[{}]", shown.join(" ")));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn map_data_matches_the_entry_list_it_stands_for(
        ops in proptest::collection::vec((0u8..16, any::<usize>(), value_strategy()), 1..80),
    ) {
        let map = Rc::new(RefCell::new(MapData::new(Value::Int(0), 16, None)));
        let mut model: Vec<(Key, Value)> = Vec::new();
        let mut ints_only = true;
        check(&map, &model, ints_only);
        for (kind, a, v) in ops {
            match kind {
                // m[k] = v
                0..=8 => {
                    let key = key_for(kind, a, &model);
                    ints_only &= matches!(v, Value::Int(_));
                    let mut data = map.borrow_mut();
                    match data.find(&key) {
                        Some(i) => data.set_at(i, v.clone()),
                        None => data.push(key.clone(), v.clone()),
                    }
                    match model.iter().position(|(k, _)| *k == key) {
                        Some(i) => model[i].1 = v,
                        None => model.push((key, v)),
                    }
                }
                // delete(m, k): the first, a middle, the last entry, or
                // any key at all (often absent).
                9..=12 => {
                    let at = match (kind, model.len()) {
                        (12, _) | (_, 0) => None,
                        (9, _) => Some(0),
                        (10, n) => Some(n / 2),
                        (_, n) => Some(n - 1),
                    };
                    let key = match at {
                        Some(i) => model[i].0.clone(),
                        None => key_for((a % 9) as u8, a / 9, &model),
                    };
                    let present = model.iter().position(|(k, _)| *k == key);
                    assert_eq!(map.borrow_mut().remove(&key), present.is_some());
                    if let Some(i) = present {
                        model.remove(i);
                    }
                }
                // The mock tcfree's poison fill.
                13 if a % 4 == 0 => {
                    map.borrow_mut().fill(Value::Poison);
                    model.iter_mut().for_each(|(_, v)| *v = Value::Poison);
                    ints_only = false;
                }
                _ => continue,
            }
            check(&map, &model, ints_only);
        }
    }
}
