//! Cheaply clonable operation / target names.
//!
//! Node names and target stamps are tiny strings ("add", "TABLA") cloned
//! once per node during template instantiation and target stamping — on an
//! expanded graph that is hundreds of thousands of heap allocations if they
//! are `String`s. [`Ident`] is a shared string behind one pointer, so a
//! clone is a refcount bump, while `Deref<Target = str>` keeps read sites
//! (`==`, `starts_with`, formatting) source-compatible.
//!
//! The pointer is thin: the shared record holds a `Box<str>`, so an
//! `Ident` is one word (an `Arc<str>` would be two, pointer and length) and
//! `Option<Ident>` is one word too. Every [`Node`](crate::graph::Node)
//! carries a name and an optional target, so the word saved is paid back
//! on each of the graph's nodes; reading the text costs one more pointer
//! hop, which the support checks that read names memoize away.

use std::borrow::Borrow;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// A shared immutable name. Equality, ordering, and hashing all follow the
/// string contents (so it hashes identically to a `String` with the same
/// text and can key the same maps).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ident(Arc<Box<str>>);

impl Ident {
    /// The name as a borrowed string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Address identity of the shared string — equal exactly for clones of
    /// one allocation. Usable as a cheap memo key (resolver caches key off
    /// it instead of re-hashing the text); *not* a content identity, since
    /// two independently built `Ident`s with equal text have distinct ids.
    pub fn ptr_id(&self) -> usize {
        Arc::as_ptr(&self.0) as usize
    }

    /// Heap bytes of the shared record: the `Arc` block around the
    /// `Box<str>` plus the text.
    pub fn heap_bytes(&self) -> usize {
        2 * std::mem::size_of::<usize>() + std::mem::size_of::<Box<str>>() + self.0.len()
    }
}

impl Deref for Ident {
    type Target = str;
    fn deref(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for Ident {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for Ident {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl From<&str> for Ident {
    fn from(s: &str) -> Self {
        Ident(Arc::new(s.into()))
    }
}

impl From<String> for Ident {
    fn from(s: String) -> Self {
        Ident(Arc::new(s.into_boxed_str()))
    }
}

impl From<&String> for Ident {
    fn from(s: &String) -> Self {
        Ident::from(s.as_str())
    }
}

impl Default for Ident {
    fn default() -> Self {
        Ident::from("")
    }
}

impl PartialEq<str> for Ident {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Ident {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for Ident {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialEq<Ident> for str {
    fn eq(&self, other: &Ident) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<Ident> for &str {
    fn eq(&self, other: &Ident) -> bool {
        *self == other.as_str()
    }
}

impl fmt::Display for Ident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_str().fmt(f)
    }
}

impl fmt::Debug for Ident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_str().fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    #[test]
    fn eq_and_deref() {
        let i: Ident = "add".into();
        assert_eq!(i, "add");
        assert_eq!("add", i);
        assert_eq!(i, "add".to_string());
        assert!(i.starts_with('a'));
        assert_eq!(format!("{i}"), "add");
    }

    #[test]
    fn hashes_like_the_string_contents() {
        fn h<T: Hash>(t: &T) -> u64 {
            let mut s = DefaultHasher::new();
            t.hash(&mut s);
            s.finish()
        }
        let i: Ident = "mul".into();
        // `Borrow<str>` requires Ident and str to hash identically.
        assert_eq!(h(&i), h(&"mul".to_string()));
        let mut set = std::collections::HashSet::new();
        set.insert(Ident::from("x"));
        assert!(set.contains("x"));
    }

    #[test]
    fn one_word_and_pointer_identity_per_allocation() {
        assert_eq!(std::mem::size_of::<Ident>(), 8);
        assert_eq!(std::mem::size_of::<Option<Ident>>(), 8);
        let a = Ident::from("add");
        let b = Ident::from(String::from("add"));
        assert_eq!(a, b);
        assert_eq!(a.ptr_id(), a.clone().ptr_id());
        assert_ne!(a.ptr_id(), b.ptr_id(), "equal text, distinct allocations");
        let (a, b) = (Ident::from("a"), Ident::from("b"));
        assert!(a < b, "ordering follows the text");
    }
}
