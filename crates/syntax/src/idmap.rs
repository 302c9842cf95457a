//! Side tables keyed by a dense id.
//!
//! The parser numbers expressions, statements, blocks and functions from
//! zero, and the resolver numbers variables the same way, so a table
//! keyed by one of those ids is a `Vec` indexed by it: no hashing, and
//! iteration runs in id order. A table grows on insert, because the
//! instrumentation pass synthesizes ids past [`Program::expr_count`].
//!
//! [`Program::expr_count`]: crate::Program::expr_count

use std::marker::PhantomData;
use std::ops::Index;

/// A dense id: a `u32` newtype numbered from zero.
pub trait Id: Copy {
    /// The id as a plain index.
    fn index(self) -> usize;
    /// The id whose index is `i`.
    fn from_index(i: usize) -> Self;
}

/// A map from a dense id `I` to `T`: a `Vec<Option<T>>` indexed by the id.
#[derive(Debug, Clone)]
pub struct IdMap<I, T> {
    slots: Vec<Option<T>>,
    id: PhantomData<fn(I)>,
}

impl<I, T> Default for IdMap<I, T> {
    fn default() -> Self {
        IdMap {
            slots: Vec::new(),
            id: PhantomData,
        }
    }
}

impl<I: Id, T> IdMap<I, T> {
    /// The value at `id`, if any.
    pub fn get(&self, id: I) -> Option<&T> {
        self.slots.get(id.index())?.as_ref()
    }

    /// The value at `id`, mutably, if any.
    pub fn get_mut(&mut self, id: I) -> Option<&mut T> {
        self.slots.get_mut(id.index())?.as_mut()
    }

    fn slot(&mut self, id: I) -> &mut Option<T> {
        let i = id.index();
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        &mut self.slots[i]
    }

    /// Sets the value at `id`, returning the one it replaces.
    pub fn insert(&mut self, id: I, value: T) -> Option<T> {
        self.slot(id).replace(value)
    }

    /// Takes the value at `id` out of the map.
    pub fn remove(&mut self, id: I) -> Option<T> {
        self.slots.get_mut(id.index())?.take()
    }

    /// The value at `id`, inserting `T::default()` first if there is none.
    pub fn or_default(&mut self, id: I) -> &mut T
    where
        T: Default,
    {
        self.slot(id).get_or_insert_with(T::default)
    }

    /// `(id, value)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (I, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, v)| Some((I::from_index(i), v.as_ref()?)))
    }

    /// Values in id order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().flatten()
    }
}

impl<I: Id, T> FromIterator<(I, T)> for IdMap<I, T> {
    fn from_iter<It: IntoIterator<Item = (I, T)>>(pairs: It) -> Self {
        let mut map = IdMap::default();
        for (id, value) in pairs {
            map.insert(id, value);
        }
        map
    }
}

impl<I: Id, T> Index<I> for IdMap<I, T> {
    type Output = T;

    fn index(&self, id: I) -> &T {
        self.get(id).expect("IdMap: no value at this id")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::ExprId;

    #[test]
    fn out_of_order_inserts_land_at_their_ids() {
        let mut m = IdMap::default();
        assert_eq!(m.insert(ExprId(7), "seven"), None);
        assert_eq!(m.insert(ExprId(2), "two"), None);
        assert_eq!(m.get(ExprId(7)), Some(&"seven"));
        assert_eq!(m[ExprId(2)], "two");
        assert_eq!(
            m.get(ExprId(3)),
            None,
            "a gap below the largest id is empty"
        );
    }

    #[test]
    fn insert_over_a_value_returns_the_old_one() {
        let mut m = IdMap::default();
        m.insert(ExprId(1), 10);
        assert_eq!(m.insert(ExprId(1), 11), Some(10));
        assert_eq!(m.remove(ExprId(1)), Some(11));
        assert_eq!(m.remove(ExprId(1)), None);
        *m.or_default(ExprId(4)) += 5;
        *m.or_default(ExprId(4)) += 5;
        assert_eq!(m.get(ExprId(4)), Some(&10));
    }

    #[test]
    fn lookups_past_the_end_answer_none() {
        let mut m: IdMap<ExprId, u8> = IdMap::default();
        assert_eq!(m.get(ExprId(0)), None);
        m.insert(ExprId(3), 1);
        assert_eq!(m.get(ExprId(u32::MAX)), None);
        assert_eq!(m.get_mut(ExprId(4)), None);
        assert_eq!(m.remove(ExprId(100)), None);
    }

    #[test]
    fn iteration_runs_in_id_order() {
        let mut m = IdMap::default();
        for i in [9, 0, 4, 2] {
            m.insert(ExprId(i), i * 10);
        }
        let pairs: Vec<_> = m.iter().map(|(id, v)| (id.0, *v)).collect();
        assert_eq!(pairs, [(0, 0), (2, 20), (4, 40), (9, 90)]);
        assert_eq!(m.values().copied().collect::<Vec<_>>(), [0, 20, 40, 90]);
    }
}
