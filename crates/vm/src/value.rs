//! Runtime values.
//!
//! MiniGo values follow Go's semantics: structs are values (copied on
//! assignment), slices are headers sharing a backing array, maps are
//! references to runtime-managed storage, and pointers address either a
//! heap cell or a stack slot (uniformly represented as shared cells; the
//! escape analysis decides which get heap *accounting*).
//!
//! # The three-tier layout
//!
//! [`Value`] is the unit of operand-stack and frame-slot traffic, so its
//! size is the VM's memory bandwidth. The enum is kept at **24 bytes**
//! (asserted by a test below) by tiering the payloads:
//!
//! 1. **Inline scalars** — `Int`, `Bool`, `Nil`, `Poison` fit in the
//!    discriminant + 8 payload bytes.
//! 2. **Shared string** — `Str(Rc<str>)` is a 16-byte fat pointer; the
//!    payload is immutable, so a clone is a refcount bump. This tier
//!    sets the enum's size floor.
//! 3. **Boxed aggregates** — `Struct`, `Ptr`, `Slice`, and `Map` hold an
//!    8-byte `Rc` to their (formerly inline, up to 48-byte) payloads.
//!    Cloning any of them is a refcount bump instead of a header
//!    memcpy. Value semantics for structs and slice headers are
//!    preserved with copy-on-write: every mutation site goes through
//!    [`Rc::make_mut`], which clones the payload only when it is
//!    actually shared — exactly the copy Go semantics would have made
//!    eagerly. Maps and pointer cells are reference types, so sharing
//!    the payload *is* their semantics and they are never `make_mut`.
//!
//! # Backing arrays: ints stored as ints
//!
//! The tiering above is about the operand stack. A slice's backing array
//! is tiered the same way by [`Cells`], which has two representations:
//! `Ints(Vec<i64>)` — 8 bytes an element, zero-filled by one `memset`,
//! nothing for the marker to trace and no drop glue — for an array that
//! has only ever held ints, and `Any(Vec<Value>)` for everything else.
//! The representation is chosen from what the code can observe, never
//! from a static type: the zero value `make` fills with, the item
//! `append` grows a nil slice by. The moment something that is not an
//! `Int` is stored into an `Ints` array (the §6.8 mock `tcfree`'s
//! `Poison` fill is the one case a typed program reaches) the array
//! *generalises in place*, inside the `RefCell` every alias shares, so
//! correctness never rests on the typechecker. No caller outside this
//! module matches on the variant; they go through [`Cells`]' methods.
//!
//! # Map storage: keys `0..n` need no hash table
//!
//! [`MapData`] keeps its entries in insertion order as two columns: the
//! values are a [`Cells`], and the keys one of two tiers. While every key
//! ever inserted is an int they are a `Vec<i64>`, with no index at all as
//! long as key `i` sits at position `i` (a lookup is a bounds check); the
//! first key out of place (negative, skipping ahead, or a deletion that
//! shifts the entries after it) builds an `i64` index, and the first
//! non-int key moves the map to `Key`s with a `Key` index. Each step is
//! taken in place, once, and never undone; a lookup never takes one.

use std::cell::RefCell;
use std::collections::TryReserveError;
use std::fmt;
use std::hash::Hash;
use std::rc::Rc;

use minigo_runtime::{ObjAddr, OwnerTag, Runtime};

use crate::fxhash::FxHashMap;

/// A handle to a heap-accounted object: the allocator address plus the
/// stamp the allocation left on the slot. There is no object table —
/// the handle is live exactly while the heap still reports `tag` as the
/// slot's owner (`Runtime::owner`), which an explicit free, a sweep, or
/// reuse of the slot all end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ObjId {
    /// The allocation stamp (its niche keeps `Option<ObjId>` at 16 bytes).
    pub tag: OwnerTag,
    /// Where the allocator put the object.
    pub addr: ObjAddr,
}

impl ObjId {
    /// The allocation serial the sanitizer prints as `object #N`.
    pub fn number(self) -> u64 {
        self.tag.serial()
    }

    /// Whether the object is still allocated under this handle.
    #[inline]
    pub fn is_live(self, rt: &Runtime) -> bool {
        rt.owner(self.addr) == Some(self.tag)
    }
}

/// A shared, mutable storage cell (a variable's box or an object's
/// payload slot).
pub type Cell = Rc<RefCell<Value>>;

/// A MiniGo runtime value.
#[derive(Debug, Clone)]
pub enum Value {
    /// Integer.
    Int(i64),
    /// Boolean.
    Bool(bool),
    /// String (immutable).
    Str(Rc<str>),
    /// Typed nil (pointer, slice, or map).
    Nil,
    /// A struct value: fields in declaration order. Copy-on-write:
    /// mutations go through [`Rc::make_mut`] (see the module docs).
    Struct(Rc<Vec<Value>>),
    /// A pointer to a cell.
    Ptr(Rc<PtrVal>),
    /// A slice header. Copy-on-write like `Struct`.
    Slice(Rc<SliceVal>),
    /// A map reference.
    Map(Rc<MapVal>),
    /// Poisoned memory written by the §6.8 mock `tcfree`; reading it is a
    /// runtime error, which is how unsound frees are detected.
    Poison,
}

/// A pointer value: the cell it addresses plus the heap-accounting id of
/// the box, when the pointee is heap-allocated.
#[derive(Debug, Clone)]
pub struct PtrVal {
    /// The addressed storage.
    pub cell: Cell,
    /// Heap object backing the cell, if any.
    pub obj: Option<ObjId>,
}

/// A slice header: shared backing array, offset, length, and element size
/// (bytes) for allocator accounting. Reslicing (`s[a:b]`) produces a new
/// header over the same cells, exactly like Go.
#[derive(Debug, Clone)]
pub struct SliceVal {
    /// The backing array.
    pub cells: Rc<RefCell<Cells>>,
    /// Heap object backing the array, if heap-allocated.
    pub obj: Option<ObjId>,
    /// Start offset into the backing array.
    pub offset: usize,
    /// Visible length.
    pub len: usize,
    /// Element size in bytes.
    pub elem_size: u64,
}

impl SliceVal {
    /// Capacity: from the offset to the end of the backing array.
    pub fn cap(&self) -> usize {
        self.cells.borrow().len().saturating_sub(self.offset)
    }
}

/// A slice's backing array, in one of two representations (see the
/// module docs). Which one an array is in is observable only through
/// host time and memory: every method answers as a `Vec<Value>` would.
#[derive(Debug, Clone)]
pub enum Cells {
    /// Only ints have ever been stored.
    Ints(Vec<i64>),
    /// Anything else.
    Any(Vec<Value>),
}

/// The empty array, which `append` grows a nil slice from.
impl Default for Cells {
    fn default() -> Self {
        Cells::Ints(Vec::new())
    }
}

/// An `Ints` array's elements as an `Any` array holds them. The caller
/// replaces the array inside the `RefCell` every alias shares, so they
/// all read the generalised contents.
#[cold]
fn generalised(ints: &[i64]) -> Vec<Value> {
    ints.iter().map(|&i| Value::Int(i)).collect()
}

/// A vector of `n` copies of `v`, or the host's refusal to back it.
fn try_filled<T: Clone>(v: T, n: usize) -> Result<Vec<T>, TryReserveError> {
    let mut cells = Vec::new();
    cells.try_reserve_exact(n)?;
    cells.resize(n, v);
    Ok(cells)
}

/// A vector of `cap` elements: `kept`, then `item`, then `pad`.
fn try_grown<T: Clone>(
    kept: impl Iterator<Item = T>,
    item: T,
    pad: T,
    cap: usize,
) -> Result<Vec<T>, TryReserveError> {
    let mut cells = Vec::new();
    cells.try_reserve_exact(cap)?;
    cells.extend(kept);
    cells.push(item);
    cells.resize(cap, pad);
    Ok(cells)
}

impl Cells {
    /// An array of `n` copies of `zero`: `Ints` when `zero` is an int.
    ///
    /// # Errors
    ///
    /// The host allocator's refusal, before anything is written.
    pub fn filled(zero: Value, n: usize) -> Result<Cells, TryReserveError> {
        Ok(match zero {
            Value::Int(i) => Cells::Ints(try_filled(i, n)?),
            zero => Cells::Any(try_filled(zero, n)?),
        })
    }

    /// Number of elements (the array's capacity in Go's terms).
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            Cells::Ints(c) => c.len(),
            Cells::Any(c) => c.len(),
        }
    }

    /// Whether the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Element `i`.
    ///
    /// # Panics
    ///
    /// When `i` is out of range, like indexing a `Vec`.
    #[inline]
    pub fn get(&self, i: usize) -> Value {
        match self {
            Cells::Ints(c) => Value::Int(c[i]),
            Cells::Any(c) => c[i].clone(),
        }
    }

    /// Stores `v` at `i`, generalising an `Ints` array when `v` is not
    /// an int.
    ///
    /// # Panics
    ///
    /// When `i` is out of range, like indexing a `Vec`.
    #[inline]
    pub fn set(&mut self, i: usize, v: Value) {
        match (&mut *self, v) {
            (Cells::Ints(c), Value::Int(v)) => c[i] = v,
            (Cells::Any(c), v) => c[i] = v,
            (Cells::Ints(c), v) => {
                let mut any = generalised(c);
                any[i] = v;
                *self = Cells::Any(any);
            }
        }
    }

    /// Appends `v`, generalising an `Ints` array when `v` is not an int.
    pub fn push(&mut self, v: Value) {
        match (&mut *self, v) {
            (Cells::Ints(c), Value::Int(v)) => c.push(v),
            (Cells::Any(c), v) => c.push(v),
            (Cells::Ints(c), v) => {
                let mut any = generalised(c);
                any.push(v);
                *self = Cells::Any(any);
            }
        }
    }

    /// Removes element `i`, shifting the ones after it down.
    ///
    /// # Panics
    ///
    /// When `i` is out of range, like `Vec::remove`.
    pub fn remove(&mut self, i: usize) {
        match self {
            Cells::Ints(c) => drop(c.remove(i)),
            Cells::Any(c) => drop(c.remove(i)),
        }
    }

    /// Overwrites every element with `v`.
    pub fn fill(&mut self, v: Value) {
        match (&mut *self, v) {
            (Cells::Ints(c), Value::Int(v)) => c.fill(v),
            (Cells::Any(c), v) => c.fill(v),
            (Cells::Ints(c), v) => *self = Cells::Any(vec![v; c.len()]),
        }
    }

    /// `append`'s copy-and-grow: a fresh array of `cap` elements holding
    /// `self[lo..hi]`, then `item`, then zero padding. Ints stay ints
    /// while `item` is one.
    ///
    /// # Errors
    ///
    /// The host allocator's refusal, before anything is copied.
    ///
    /// # Panics
    ///
    /// When `lo..hi` is out of range or `cap` cannot hold it and `item`.
    pub fn grown(
        &self,
        lo: usize,
        hi: usize,
        item: Value,
        cap: usize,
    ) -> Result<Cells, TryReserveError> {
        assert!(hi - lo < cap, "grown: no room for the item");
        Ok(match (self, item) {
            (Cells::Ints(c), Value::Int(item)) => {
                Cells::Ints(try_grown(c[lo..hi].iter().copied(), item, 0, cap)?)
            }
            (kept, item) => {
                let kept = (lo..hi).map(|i| kept.get(i));
                Cells::Any(try_grown(kept, item, Value::Int(0), cap)?)
            }
        })
    }

    /// The elements a marker has to visit: none for an `Ints` array,
    /// which cannot hold a reference.
    #[inline]
    pub fn traced(&self) -> &[Value] {
        match self {
            Cells::Ints(_) => &[],
            Cells::Any(c) => c,
        }
    }
}

/// A map reference.
#[derive(Debug, Clone)]
pub struct MapVal {
    /// The shared map storage.
    pub data: Rc<RefCell<MapData>>,
    /// Heap object for the hmap + initial bucket, if heap-allocated.
    pub obj: Option<ObjId>,
}

/// Map keys: Go restricts ours to scalars.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Key {
    /// Integer key.
    Int(i64),
    /// Boolean key.
    Bool(bool),
    /// String key.
    Str(Rc<str>),
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Key::Int(v) => write!(f, "{v}"),
            Key::Bool(b) => write!(f, "{b}"),
            Key::Str(s) => write!(f, "{s}"),
        }
    }
}

/// A map's keys in insertion order, in one of two tiers (see the module
/// docs), each with the index from key to position it needs.
#[derive(Debug)]
enum Keys {
    /// Only ints have ever been inserted. No index while key `i` sits at
    /// position `i`.
    Ints(Vec<i64>, Option<FxHashMap<i64, usize>>),
    /// Anything else.
    Any(Vec<Key>, FxHashMap<Key, usize>),
}

/// Each key mapped to its position.
fn positions<K: Hash + Eq>(keys: impl Iterator<Item = K>) -> FxHashMap<K, usize> {
    keys.enumerate().map(|(i, k)| (k, i)).collect()
}

/// Removes position `i` from an indexed tier, renumbering the ones after.
fn remove_indexed<K: Hash + Eq>(keys: &mut Vec<K>, index: &mut FxHashMap<K, usize>, i: usize) {
    index.remove(&keys.remove(i));
    for (j, k) in keys.iter().enumerate().skip(i) {
        *index.get_mut(k).expect("every key is indexed") = j;
    }
}

impl Keys {
    /// The first int key out of place: index the ints.
    #[cold]
    fn index_ints(&mut self) {
        if let Keys::Ints(ints, index @ None) = self {
            *index = Some(positions(ints.iter().copied()));
        }
    }

    /// The first key that is not an int: every key becomes a [`Key`].
    #[cold]
    fn make_any(&mut self) {
        if let Keys::Ints(ints, _) = self {
            let keys: Vec<Key> = ints.iter().map(|&k| Key::Int(k)).collect();
            let index = positions(keys.iter().cloned());
            *self = Keys::Any(keys, index);
        }
    }

    /// The key at position `i`.
    fn at(&self, i: usize) -> Key {
        match self {
            Keys::Ints(keys, _) => Key::Int(keys[i]),
            Keys::Any(keys, _) => keys[i].clone(),
        }
    }
}

/// The runtime-managed body of a map: entries in insertion order (for
/// deterministic runs) as a key column and a value column.
#[derive(Debug)]
pub struct MapData {
    keys: Keys,
    vals: Cells,
    /// Current bucket array, if it has been grown off the hmap.
    pub buckets_obj: Option<ObjId>,
    /// Bucket capacity (entries before the next growth).
    pub bucket_cap: usize,
    /// Zero value returned on missing keys.
    pub default: Value,
    /// Bytes per entry charged to bucket arrays.
    pub entry_size: u64,
    /// The `make(map...)` expression that created this map (profile
    /// attribution for growth allocations).
    pub origin: Option<crate::machine::SiteId>,
    /// Set when the §6.8 mock poisoned this map's storage.
    pub poisoned: bool,
}

impl MapData {
    /// An empty map: the hmap with room for eight entries before its
    /// first growth.
    pub fn new(default: Value, entry_size: u64, origin: Option<crate::machine::SiteId>) -> Self {
        MapData {
            keys: Keys::Ints(Vec::new(), None),
            vals: Cells::default(),
            buckets_obj: None,
            bucket_cap: 8,
            default,
            entry_size,
            origin,
            poisoned: false,
        }
    }

    /// Number of live entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The position of `key`'s entry, if present.
    #[inline]
    pub fn find(&self, key: &Key) -> Option<usize> {
        match (&self.keys, key) {
            (Keys::Ints(keys, None), &Key::Int(k)) => {
                usize::try_from(k).ok().filter(|&i| i < keys.len())
            }
            (Keys::Ints(_, Some(index)), Key::Int(k)) => index.get(k).copied(),
            (Keys::Ints(..), _) => None,
            (Keys::Any(_, index), key) => index.get(key).copied(),
        }
    }

    /// The value stored under `key`, if present.
    #[inline]
    pub fn get(&self, key: &Key) -> Option<Value> {
        self.find(key).map(|i| self.vals.get(i))
    }

    /// Overwrites the value at position `i`.
    ///
    /// # Panics
    ///
    /// When `i` is out of range.
    #[inline]
    pub fn set_at(&mut self, i: usize, v: Value) {
        self.vals.set(i, v);
    }

    /// Appends an entry for `key`, which must not be present.
    pub fn push(&mut self, key: Key, v: Value) {
        debug_assert!(self.find(&key).is_none(), "push of a present key");
        let at = self.len();
        match (&mut self.keys, key) {
            (Keys::Ints(keys, None), Key::Int(k)) if usize::try_from(k) == Ok(at) => keys.push(k),
            (Keys::Ints(keys, Some(index)), Key::Int(k)) => {
                index.insert(k, at);
                keys.push(k);
            }
            (Keys::Any(keys, index), key) => {
                index.insert(key.clone(), at);
                keys.push(key);
            }
            (Keys::Ints(_, None), key @ Key::Int(_)) => {
                self.keys.index_ints();
                return self.push(key, v);
            }
            (Keys::Ints(..), key) => {
                self.keys.make_any();
                return self.push(key, v);
            }
        }
        self.vals.push(v);
    }

    /// Removes `key`'s entry if present; the entries after it move up
    /// one position. Returns whether there was one.
    pub fn remove(&mut self, key: &Key) -> bool {
        let Some(i) = self.find(key) else {
            return false;
        };
        if i + 1 < self.len() && matches!(self.keys, Keys::Ints(_, None)) {
            // The keys after `i` are about to leave their positions.
            self.keys.index_ints();
        }
        self.vals.remove(i);
        match &mut self.keys {
            Keys::Ints(keys, None) => drop(keys.pop()),
            Keys::Ints(keys, Some(index)) => remove_indexed(keys, index, i),
            Keys::Any(keys, index) => remove_indexed(keys, index, i),
        }
        true
    }

    /// Overwrites every value with `v` (the §6.8 mock's poison fill).
    pub fn fill(&mut self, v: Value) {
        self.vals.fill(v);
    }

    /// The entries in insertion order.
    pub fn entries(&self) -> impl Iterator<Item = (Key, Value)> + '_ {
        (0..self.len()).map(|i| (self.keys.at(i), self.vals.get(i)))
    }

    /// The values a marker has to visit: none while every value is an
    /// int (keys are scalars and never hold a reference).
    #[inline]
    pub fn traced(&self) -> &[Value] {
        self.vals.traced()
    }
}

impl Value {
    /// Renders the value for `print`.
    pub fn display(&self) -> String {
        match self {
            Value::Int(v) => v.to_string(),
            Value::Bool(b) => b.to_string(),
            Value::Str(s) => s.to_string(),
            Value::Nil => "nil".to_string(),
            Value::Struct(fields) => {
                let inner: Vec<String> = fields.iter().map(Value::display).collect();
                format!("{{{}}}", inner.join(" "))
            }
            Value::Ptr(_) => "<ptr>".to_string(),
            Value::Slice(s) => {
                let cells = s.cells.borrow();
                let inner: Vec<String> = (s.offset..s.offset + s.len)
                    .map(|i| cells.get(i).display())
                    .collect();
                format!("[{}]", inner.join(" "))
            }
            Value::Map(m) => {
                let data = m.data.borrow();
                let inner: Vec<String> = data
                    .entries()
                    .map(|(k, v)| format!("{k}:{}", v.display()))
                    .collect();
                format!("map[{}]", inner.join(" "))
            }
            Value::Poison => "<poison>".to_string(),
        }
    }

    /// Converts to a map key.
    pub fn as_key(&self) -> Option<Key> {
        match self {
            Value::Int(v) => Some(Key::Int(*v)),
            Value::Bool(b) => Some(Key::Bool(*b)),
            Value::Str(s) => Some(Key::Str(s.clone())),
            _ => None,
        }
    }

    /// Builds a struct value (tier-3 boxing in one place).
    pub fn struct_of(fields: Vec<Value>) -> Value {
        Value::Struct(Rc::new(fields))
    }

    /// Builds a pointer value.
    pub fn ptr(p: PtrVal) -> Value {
        Value::Ptr(Rc::new(p))
    }

    /// Builds a slice value.
    pub fn slice(s: SliceVal) -> Value {
        Value::Slice(Rc::new(s))
    }

    /// Builds a map value.
    pub fn map(m: MapVal) -> Value {
        Value::Map(Rc::new(m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_data_insert_get_remove() {
        let mut m = MapData::new(Value::Int(0), 32, None);
        m.push(Key::Int(1), Value::Int(10));
        let at = m.find(&Key::Int(1)).expect("present");
        m.set_at(at, Value::Int(11));
        m.push(Key::Str("a".into()), Value::Int(2));
        assert_eq!(m.len(), 2);
        assert!(matches!(m.get(&Key::Int(1)), Some(Value::Int(11))));
        assert!(m.remove(&Key::Int(1)));
        assert!(!m.remove(&Key::Int(1)));
        assert!(matches!(m.get(&Key::Str("a".into())), Some(Value::Int(2))));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn map_reindexes_after_remove() {
        let mut m = MapData::new(Value::Int(0), 32, None);
        for i in 0..5 {
            m.push(Key::Int(i), Value::Int(i * 10));
        }
        assert!(matches!(m.keys, Keys::Ints(_, None)), "keys 0..5 in place");
        m.remove(&Key::Int(2));
        assert!(matches!(m.get(&Key::Int(4)), Some(Value::Int(40))));
        assert!(matches!(m.get(&Key::Int(3)), Some(Value::Int(30))));
        assert_eq!(m.find(&Key::Int(2)), None);
        assert!(
            matches!(m.keys, Keys::Ints(_, Some(_))),
            "3 left position 3"
        );
    }

    #[test]
    fn keys_zero_to_n_need_no_index_and_a_lookup_never_generalises() {
        let mut m = MapData::new(Value::Int(0), 16, None);
        for i in 0..100 {
            m.push(Key::Int(i), Value::Int(i * 2));
        }
        for k in [
            Key::Int(-1),
            Key::Int(100),
            Key::Int(i64::MIN),
            Key::Bool(true),
            Key::Str("0".into()),
        ] {
            assert_eq!(m.find(&k), None);
        }
        assert!(
            matches!(m.keys, Keys::Ints(_, None)),
            "probes build nothing"
        );
        assert!(matches!(m.vals, Cells::Ints(_)));
        assert_eq!(m.find(&Key::Int(57)), Some(57));
        // Deleting the last entry keeps every key in place.
        assert!(m.remove(&Key::Int(99)));
        assert!(matches!(m.keys, Keys::Ints(_, None)));
        // A string key moves every key to the general tier, in order.
        m.push(Key::Str("s".into()), Value::Int(7));
        assert!(matches!(m.keys, Keys::Any(..)));
        assert_eq!(m.find(&Key::Int(98)), Some(98));
        assert_eq!(m.find(&Key::Str("s".into())), Some(99));
        assert!(matches!(m.get(&Key::Int(3)), Some(Value::Int(6))));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Int(3).display(), "3");
        assert_eq!(Value::Nil.display(), "nil");
        let s = Value::slice(SliceVal {
            cells: Rc::new(RefCell::new(Cells::Any(vec![
                Value::Int(1),
                Value::Int(2),
                Value::Int(0),
            ]))),
            obj: None,
            offset: 0,
            len: 2,
            elem_size: 8,
        });
        assert_eq!(s.display(), "[1 2]");
        assert_eq!(
            Value::struct_of(vec![Value::Int(1), Value::Bool(true)]).display(),
            "{1 true}"
        );
    }

    /// The three-tier layout (module docs) pins `Value` at 24 bytes on
    /// 64-bit hosts: 16 for the `Rc<str>` fat pointer plus 8 for the
    /// discriminant-bearing word. Growing any variant past that is a
    /// regression in operand-stack and slot bandwidth.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn value_stays_compact() {
        assert_eq!(std::mem::size_of::<Value>(), 24);
        assert_eq!(std::mem::size_of::<Option<Value>>(), 24);
        // Frame slots hold a cell pointer beside an optional handle.
        assert_eq!(std::mem::size_of::<Option<ObjId>>(), 16);
    }

    #[test]
    fn struct_mutation_is_copy_on_write() {
        // A cloned struct value must not observe mutations of the
        // original (Go value semantics, preserved via Rc::make_mut).
        let mut a = Value::struct_of(vec![Value::Int(1), Value::Int(2)]);
        let b = a.clone();
        if let Value::Struct(fields) = &mut a {
            Rc::make_mut(fields)[0] = Value::Int(99);
        }
        assert_eq!(a.display(), "{99 2}");
        assert_eq!(b.display(), "{1 2}");
    }

    #[test]
    fn keys_from_values() {
        assert_eq!(Value::Int(3).as_key(), Some(Key::Int(3)));
        assert_eq!(Value::Nil.as_key(), None);
        assert!(Value::Str("x".into()).as_key().is_some());
    }
}
