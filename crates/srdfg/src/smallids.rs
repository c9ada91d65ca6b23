//! A small-list type for the per-node / per-edge id lists of the srDFG.
//!
//! Expanded graphs hold hundreds of thousands of nodes whose operand and
//! result lists are almost always 1–3 entries long (a scalar `add` has two
//! inputs and one output; most edges have a single consumer). Storing those
//! lists as `Vec` costs one heap allocation per list, and template
//! instantiation ([`SrDfg::instantiate`]) is dominated by exactly those
//! allocations. [`SmallIds`] keeps up to `N` entries inline and only spills
//! beyond that, so the common case allocates nothing.
//!
//! A list is *either* its inline entries *or* one boxed spill vector, never
//! both: the spill costs one word inside the list rather than a three-word
//! `Vec` in every list, so `SmallIds<EdgeId, 3>` is 16 bytes and a node's
//! two id lists together are 32.
//!
//! The type dereferences to `[T]`, so read sites (`.iter()`, `.len()`,
//! indexing, `.contains(..)`) work unchanged; mutation goes through
//! [`SmallIds::push`] / [`SmallIds::retain`] / `DerefMut`.
//!
//! [`SrDfg::instantiate`]: crate::graph::SrDfg::instantiate

use std::fmt;
use std::ops::{Deref, DerefMut};

/// An inline-first list of copyable ids: up to `N` (at most 255) entries
/// live in the struct itself, longer lists spill wholesale into one boxed
/// `Vec`.
///
/// A spilled list never migrates back inline (entries removed by
/// [`retain`] just shrink the spill vector), which keeps the two forms
/// trivially stable.
///
/// [`retain`]: SmallIds::retain
#[derive(Clone)]
pub struct SmallIds<T: Copy + Default, const N: usize>(Repr<T, N>);

#[derive(Clone)]
enum Repr<T, const N: usize> {
    /// The entries are `items[..len]`.
    Inline { len: u8, items: [T; N] },
    /// All entries, once the list has outgrown `N`. Boxed so the spill is
    /// one word of the list where a bare `Vec` would be three.
    #[allow(clippy::box_collection)]
    Spill(Box<Vec<T>>),
}

impl<T: Copy + Default, const N: usize> SmallIds<T, N> {
    /// The empty list (allocation-free).
    pub fn new() -> Self {
        SmallIds(Repr::Inline { len: 0, items: [T::default(); N] })
    }

    /// Appends an entry, spilling to the heap on the `N+1`-th push.
    pub fn push(&mut self, v: T) {
        match &mut self.0 {
            Repr::Inline { len, items } => {
                if (*len as usize) < N {
                    items[*len as usize] = v;
                    *len += 1;
                    return;
                }
                let mut spill = Vec::with_capacity(N + 1);
                spill.extend_from_slice(&items[..]);
                spill.push(v);
                self.0 = Repr::Spill(Box::new(spill));
            }
            Repr::Spill(spill) => spill.push(v),
        }
    }

    /// Keeps only the entries for which `f` returns `true`, preserving
    /// order (mirrors `Vec::retain`).
    pub fn retain<F: FnMut(&T) -> bool>(&mut self, mut f: F) {
        match &mut self.0 {
            Repr::Inline { len, items } => {
                let mut w = 0u8;
                for i in 0..*len as usize {
                    let v = items[i];
                    if f(&v) {
                        items[w as usize] = v;
                        w += 1;
                    }
                }
                *len = w;
            }
            Repr::Spill(spill) => spill.retain(f),
        }
    }

    /// Removes all entries (keeps any spill capacity).
    pub fn clear(&mut self) {
        match &mut self.0 {
            Repr::Inline { len, .. } => *len = 0,
            Repr::Spill(spill) => spill.clear(),
        }
    }

    /// Builds a list by mapping `f` over a slice — the
    /// [`SrDfg::instantiate`] hot path. The inline/spill decision is taken
    /// once from the source length instead of being re-checked on every
    /// push.
    ///
    /// [`SrDfg::instantiate`]: crate::graph::SrDfg::instantiate
    pub fn map_from<U: Copy>(src: &[U], mut f: impl FnMut(U) -> T) -> Self {
        if src.len() <= N {
            let mut items = [T::default(); N];
            for (d, &v) in items.iter_mut().zip(src) {
                *d = f(v);
            }
            // `src.len() <= N`, and `N` fits a `u8` (see the type's docs).
            let len = u8::try_from(src.len()).expect("SmallIds inline capacity exceeds 255");
            SmallIds(Repr::Inline { len, items })
        } else {
            SmallIds(Repr::Spill(Box::new(src.iter().map(|&v| f(v)).collect())))
        }
    }

    /// Heap bytes the list holds: 0 inline, the box and its vector's
    /// capacity once spilled.
    pub fn heap_bytes(&self) -> usize {
        match &self.0 {
            Repr::Inline { .. } => 0,
            Repr::Spill(spill) => {
                std::mem::size_of::<Vec<T>>() + spill.capacity() * std::mem::size_of::<T>()
            }
        }
    }

    fn as_slice(&self) -> &[T] {
        match &self.0 {
            Repr::Inline { len, items } => &items[..*len as usize],
            Repr::Spill(spill) => spill,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [T] {
        match &mut self.0 {
            Repr::Inline { len, items } => &mut items[..*len as usize],
            Repr::Spill(spill) => spill,
        }
    }
}

impl<T: Copy + Default, const N: usize> Default for SmallIds<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy + Default, const N: usize> Deref for SmallIds<T, N> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy + Default, const N: usize> DerefMut for SmallIds<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: Copy + Default + fmt::Debug, const N: usize> fmt::Debug for SmallIds<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for SmallIds<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default + Eq, const N: usize> Eq for SmallIds<T, N> {}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq<Vec<T>> for SmallIds<T, N> {
    fn eq(&self, other: &Vec<T>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default + PartialEq, const N: usize, const M: usize> PartialEq<[T; M]>
    for SmallIds<T, N>
{
    fn eq(&self, other: &[T; M]) -> bool {
        self.as_slice() == &other[..]
    }
}

impl<T: Copy + Default, const N: usize> From<Vec<T>> for SmallIds<T, N> {
    fn from(v: Vec<T>) -> Self {
        if v.len() <= N {
            Self::map_from(&v, |x| x)
        } else {
            SmallIds(Repr::Spill(Box::new(v)))
        }
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for SmallIds<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut s = Self::new();
        for x in iter {
            s.push(x);
        }
        s
    }
}

impl<T: Copy + Default, const N: usize> Extend<T> for SmallIds<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

impl<'a, T: Copy + Default, const N: usize> IntoIterator for &'a SmallIds<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<T: Copy + Default, const N: usize> IntoIterator for SmallIds<T, N> {
    type Item = T;
    type IntoIter = IntoIter<T, N>;
    fn into_iter(self) -> Self::IntoIter {
        IntoIter { list: self, next: 0 }
    }
}

/// The owning iterator of a [`SmallIds`]: it walks the list in place, so an
/// inline list is iterated without a heap copy.
pub struct IntoIter<T: Copy + Default, const N: usize> {
    list: SmallIds<T, N>,
    next: usize,
}

impl<T: Copy + Default, const N: usize> Iterator for IntoIter<T, N> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        let v = self.list.get(self.next).copied()?;
        self.next += 1;
        Some(v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.list.len() - self.next;
        (left, Some(left))
    }
}

impl<T: Copy + Default, const N: usize> ExactSizeIterator for IntoIter<T, N> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_then_spill() {
        let mut s: SmallIds<u32, 2> = SmallIds::new();
        assert!(s.is_empty());
        s.push(1);
        s.push(2);
        assert_eq!(&s[..], &[1, 2]);
        s.push(3); // spills
        assert_eq!(&s[..], &[1, 2, 3]);
        s.push(4);
        assert_eq!(s.len(), 4);
        assert_eq!(s, vec![1, 2, 3, 4]);
    }

    #[test]
    fn retain_inline_and_spilled() {
        let mut s: SmallIds<u32, 3> = (0..3).collect();
        s.retain(|&x| x != 1);
        assert_eq!(s, vec![0, 2]);
        let mut big: SmallIds<u32, 3> = (0..10).collect();
        big.retain(|&x| x % 2 == 0);
        assert_eq!(big, vec![0, 2, 4, 6, 8]);
        big.retain(|_| false);
        assert!(big.is_empty());
        // Push after a drained spill still works.
        big.push(7);
        assert_eq!(big, vec![7]);
    }

    #[test]
    fn from_vec_and_iterators() {
        let s: SmallIds<u32, 2> = vec![5, 6].into();
        assert_eq!(s.iter().copied().collect::<Vec<_>>(), vec![5, 6]);
        let big: SmallIds<u32, 2> = vec![1, 2, 3].into();
        assert_eq!(big.into_iter().collect::<Vec<_>>(), vec![1, 2, 3]);
        let mut m: SmallIds<u32, 2> = SmallIds::new();
        m.extend([9, 8, 7]);
        assert_eq!(m, [9, 8, 7]);
        m[0] = 1; // DerefMut indexing
        assert_eq!(m, [1, 8, 7]);
    }

    #[test]
    fn mem_take_leaves_empty() {
        let mut s: SmallIds<u32, 2> = vec![1, 2].into();
        let t = std::mem::take(&mut s);
        assert_eq!(t, vec![1, 2]);
        assert!(s.is_empty());
    }

    fn is_spilled<T: Copy + Default, const N: usize>(s: &SmallIds<T, N>) -> bool {
        matches!(s.0, Repr::Spill(_))
    }

    #[test]
    fn a_spill_costs_one_word() {
        use crate::graph::{EdgeId, NodeId};
        use std::mem::size_of;
        assert_eq!(size_of::<SmallIds<EdgeId, 3>>(), 16);
        assert_eq!(size_of::<SmallIds<EdgeId, 2>>(), 16);
        assert_eq!(size_of::<SmallIds<(NodeId, u32), 2>>(), 24);
    }

    #[test]
    fn a_spilled_list_retained_to_empty_takes_pushes_again() {
        let mut s: SmallIds<u32, 2> = SmallIds::new();
        s.extend([1, 2, 3]);
        assert!(is_spilled(&s));
        s.retain(|_| false);
        assert!(s.is_empty() && is_spilled(&s), "a spill never migrates back inline");
        s.push(4);
        s.push(5);
        s.push(6);
        assert_eq!(s, [4, 5, 6]);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn map_from_past_n_spills_and_within_n_stays_inline() {
        let big: SmallIds<u32, 2> = SmallIds::map_from(&[1u8, 2, 3, 4], u32::from);
        assert!(is_spilled(&big));
        assert_eq!(big, [1, 2, 3, 4]);
        let small: SmallIds<u32, 2> = SmallIds::map_from(&[5u8, 6], |v| u32::from(v) * 10);
        assert!(!is_spilled(&small));
        assert_eq!(small, [50, 60]);
    }

    #[test]
    fn owning_iteration_on_both_forms() {
        let inline: SmallIds<u32, 3> = vec![7, 8].into();
        let mut it = inline.into_iter();
        assert_eq!(it.size_hint(), (2, Some(2)));
        assert_eq!(it.next(), Some(7));
        assert_eq!(it.len(), 1);
        assert_eq!(it.collect::<Vec<_>>(), vec![8]);
        let spilled: SmallIds<u32, 3> = (0..5).collect();
        assert!(is_spilled(&spilled));
        let mut it = spilled.into_iter();
        assert_eq!(it.by_ref().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
        assert_eq!(it.next(), None, "a finished iterator stays finished");
    }

    #[test]
    fn a_spilled_and_an_inline_list_with_the_same_entries_are_equal() {
        let mut spilled: SmallIds<u32, 2> = vec![1, 2, 3].into();
        spilled.retain(|&x| x != 3);
        let inline: SmallIds<u32, 2> = vec![1, 2].into();
        assert!(is_spilled(&spilled) && !is_spilled(&inline));
        assert_eq!(spilled, inline);
        assert_eq!(inline, spilled);
    }
}
