//! # nrs-value
//!
//! The nested relational data model used throughout the workspace.
//!
//! This crate implements the substrate that the paper
//! *Synthesizing Nested Relational Queries from Implicit Specifications*
//! (Benedikt, Pradic, Wernhard; PODS 2023) assumes: the type system
//! `Unit | 𝔘 | T × U | Set(T)`, the nested relational values inhabiting those
//! types, schemas and instances, plus generators for synthetic workloads used
//! by the tests and the benchmark harness.
//!
//! Values are kept in a canonical, *extensional* representation: sets are
//! sorted and duplicate-free (persistent B-trees, see [`pmap`]), so two sets
//! with the same members are structurally equal.
//! This mirrors the paper's `|=_nested` semantics, where entailment is
//! evaluated over genuine nested relations (extensional models).
//!
//! ## Quick tour
//!
//! ```
//! use nrs_value::{Type, Value};
//!
//! // Set(𝔘 × Set(𝔘)), the type of Example 1.1's base data B.
//! let ty = Type::set(Type::prod(Type::Ur, Type::set(Type::Ur)));
//!
//! let b = Value::set(vec![
//!     Value::pair(Value::atom(4), Value::set(vec![Value::atom(6), Value::atom(9)])),
//! ]);
//! assert!(b.has_type(&ty));
//! assert_eq!(b.as_set().unwrap().len(), 1);
//! ```

pub mod atoms;
pub mod error;
pub mod generate;
pub mod instance;
pub mod name;
pub mod pmap;
pub mod types;
pub mod value;

pub use atoms::Atom;
pub use error::ValueError;
pub use instance::{Instance, Schema};
pub use name::{Name, NameGen};
pub use pmap::PMap;
pub use types::{SubtypePath, SubtypeStep, Type};
pub use value::{Cursor, SetValue, Value};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_ordered_lexicographically() {
        let a = Name::new("a");
        let b = Name::new("b");
        assert!(a < b);
        assert_eq!(a, Name::from("a"));
    }

    #[test]
    fn namegen_produces_distinct_names() {
        let mut g = NameGen::new();
        let x1 = g.fresh("x");
        let x2 = g.fresh("x");
        let y = g.fresh("y");
        assert_ne!(x1, x2);
        assert_ne!(x1, y);
        assert!(x1.as_str().starts_with("x#"));
    }

    #[test]
    fn namegen_avoiding_skips_existing_suffixes() {
        let existing = [Name::new("x#7"), Name::new("plain")];
        let mut g = NameGen::avoiding(existing.iter());
        let f = g.fresh("x");
        assert_eq!(f.as_str(), "x#8");
    }

    #[test]
    fn display_roundtrip() {
        let n = Name::new("hello");
        assert_eq!(format!("{n}"), "hello");
    }
}
