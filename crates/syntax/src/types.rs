//! MiniGo's type representation and layout rules.
//!
//! Sizes follow Go's 64-bit layout closely enough for the allocator's size
//! classes to behave like the paper's: words are 8 bytes, slice headers are
//! 3 words, and struct fields are 8-byte aligned.

use std::fmt;
use std::sync::Arc;

/// A MiniGo type. Composite types share their element types, so
/// cloning a type copies at most one level.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    /// 64-bit signed integer.
    Int,
    /// Boolean.
    Bool,
    /// Immutable string.
    Str,
    /// A named struct type.
    Named(String),
    /// Pointer to `T`.
    Ptr(Arc<Type>),
    /// Slice of `T` (fat pointer to a heap or stack array).
    Slice(Arc<Type>),
    /// Map from `K` to `V` (reference to a runtime-managed hash table).
    Map(Arc<Type>, Arc<Type>),
}

impl Type {
    /// Convenience constructor for `*T`.
    pub fn ptr(inner: Type) -> Type {
        Type::Ptr(Arc::new(inner))
    }

    /// Convenience constructor for `[]T`.
    pub fn slice(elem: Type) -> Type {
        Type::Slice(Arc::new(elem))
    }

    /// Convenience constructor for `map[K]V`.
    pub fn map(key: Type, value: Type) -> Type {
        Type::Map(Arc::new(key), Arc::new(value))
    }

    /// Whether values of this type can transitively reach pointers.
    ///
    /// The paper's §4.2 notes that `Exposes`/`Incomplete` "need not be
    /// computed for data types not containing pointers"; this is the
    /// predicate that decides it. `resolve_fields` maps a struct name to its
    /// field types.
    pub fn contains_pointers(&self, resolve_fields: &dyn Fn(&str) -> Vec<Type>) -> bool {
        match self {
            Type::Int | Type::Bool | Type::Str => false,
            Type::Ptr(_) | Type::Slice(_) | Type::Map(_, _) => true,
            Type::Named(name) => resolve_fields(name)
                .iter()
                .any(|t| t.contains_pointers(resolve_fields)),
        }
    }

    /// Whether this type is a reference kind GoFree can free directly
    /// (slice, map, or pointer — see table 4).
    pub fn is_freeable_reference(&self) -> bool {
        matches!(self, Type::Ptr(_) | Type::Slice(_) | Type::Map(_, _))
    }

    /// The size in bytes of a value of this type when stored inline
    /// (in a variable, field, or array element).
    pub fn inline_size(&self, resolve_fields: &dyn Fn(&str) -> Vec<Type>) -> u64 {
        match self {
            Type::Int => 8,
            Type::Bool => 8, // padded to a word, as in Go structs
            Type::Str => 16, // pointer + length
            Type::Ptr(_) => 8,
            Type::Slice(_) => 24, // pointer + len + cap
            Type::Map(_, _) => 8, // pointer to the runtime hmap
            Type::Named(name) => resolve_fields(name)
                .iter()
                .map(|t| t.inline_size(resolve_fields))
                .sum::<u64>()
                .max(8),
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Int => write!(f, "int"),
            Type::Bool => write!(f, "bool"),
            Type::Str => write!(f, "string"),
            Type::Named(name) => write!(f, "{name}"),
            Type::Ptr(t) => write!(f, "*{t}"),
            Type::Slice(t) => write!(f, "[]{t}"),
            Type::Map(k, v) => write!(f, "map[{k}]{v}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_structs(_: &str) -> Vec<Type> {
        Vec::new()
    }

    #[test]
    fn display_round_trips_shapes() {
        assert_eq!(Type::slice(Type::Int).to_string(), "[]int");
        assert_eq!(Type::ptr(Type::slice(Type::Int)).to_string(), "*[]int");
        assert_eq!(
            Type::map(Type::Str, Type::Int).to_string(),
            "map[string]int"
        );
    }

    #[test]
    fn pointer_content_detection() {
        assert!(!Type::Int.contains_pointers(&no_structs));
        assert!(!Type::Str.contains_pointers(&no_structs));
        assert!(Type::ptr(Type::Int).contains_pointers(&no_structs));
        assert!(Type::slice(Type::Int).contains_pointers(&no_structs));
        assert!(Type::map(Type::Int, Type::Int).contains_pointers(&no_structs));
    }

    #[test]
    fn struct_pointer_content_is_transitive() {
        let fields = |name: &str| -> Vec<Type> {
            match name {
                "Flat" => vec![Type::Int, Type::Bool],
                "Deep" => vec![Type::Named("Flat".into()), Type::slice(Type::Int)],
                _ => vec![],
            }
        };
        assert!(!Type::Named("Flat".into()).contains_pointers(&fields));
        assert!(Type::Named("Deep".into()).contains_pointers(&fields));
    }

    #[test]
    fn sizes_match_go_layout() {
        assert_eq!(Type::Int.inline_size(&no_structs), 8);
        assert_eq!(Type::slice(Type::Int).inline_size(&no_structs), 24);
        assert_eq!(Type::map(Type::Int, Type::Int).inline_size(&no_structs), 8);
        let fields = |_: &str| vec![Type::Int, Type::slice(Type::Int)];
        assert_eq!(Type::Named("S".into()).inline_size(&fields), 32);
    }

    #[test]
    fn freeable_reference_kinds() {
        assert!(Type::slice(Type::Int).is_freeable_reference());
        assert!(Type::map(Type::Int, Type::Int).is_freeable_reference());
        assert!(Type::ptr(Type::Int).is_freeable_reference());
        assert!(!Type::Int.is_freeable_reference());
        assert!(!Type::Named("S".into()).is_freeable_reference());
    }
}
