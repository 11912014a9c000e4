//! A list that keeps a single element inline.
//!
//! The per-frame data plane walks several lists that usually hold one
//! element: a stream's pipeline stages, a load balancer's TPU targets, a
//! TPU's co-compiled models (one element in 92–100 % of data-plane calls
//! on each `perfbench` workload; EXPERIMENTS.md "Data-plane handlers").
//! As a `Vec` each costs a pointer hop into the heap on every frame. [`Inline`] stores the one-element case in place and
//! falls back to a `Vec` for zero or several elements. It derefs to `[T]`,
//! so callers index, iterate and zip it like a slice.
//!
//! Equality compares the elements, not the representation: `One([x])`
//! equals `Many(vec![x])`.
//!
//! # Examples
//!
//! ```
//! use microedge_sim::inline::Inline;
//!
//! let mut list: Inline<u32> = [3, 5, 3].into_iter().collect();
//! list.retain(|&x| x != 3);
//! assert!(matches!(list, Inline::One([5])));
//! assert_eq!(list, Inline::Many(vec![5]));
//! assert_eq!(&list[..], &[5]);
//! ```

use std::ops::{Deref, DerefMut};

/// A list of `T` with the one-element case stored inline.
///
/// Built by [`FromIterator`] and kept by [`Inline::retain`] in canonical
/// form: exactly one element is `One`, anything else is `Many`. Other
/// values are still valid lists; only the representation differs.
#[derive(Debug, Clone)]
pub enum Inline<T> {
    /// Exactly one element, stored in place.
    One([T; 1]),
    /// Zero or several elements on the heap.
    Many(Vec<T>),
}

impl<T> Inline<T> {
    /// Appends `value`. An empty list takes it inline; a one-element list
    /// moves to the heap.
    pub fn push(&mut self, value: T) {
        *self = match std::mem::take(self) {
            Inline::One([first]) => Inline::Many(vec![first, value]),
            Inline::Many(v) if v.is_empty() => Inline::One([value]),
            Inline::Many(mut v) => {
                v.push(value);
                Inline::Many(v)
            }
        };
    }

    /// Keeps only the elements for which `keep` returns `true`, in order.
    /// A list left with one element moves it inline.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        match self {
            Inline::One([x]) => {
                if !keep(x) {
                    *self = Inline::Many(Vec::new());
                }
            }
            Inline::Many(v) => {
                v.retain(keep);
                if v.len() == 1 {
                    *self = std::mem::take(v).into_iter().collect();
                }
            }
        }
    }
}

impl<T> Default for Inline<T> {
    fn default() -> Self {
        Inline::Many(Vec::new())
    }
}

impl<T> Deref for Inline<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match self {
            Inline::One(one) => one,
            Inline::Many(v) => v,
        }
    }
}

impl<T> DerefMut for Inline<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        match self {
            Inline::One(one) => one,
            Inline::Many(v) => v,
        }
    }
}

impl<'a, T> IntoIterator for &'a Inline<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<'a, T> IntoIterator for &'a mut Inline<T> {
    type Item = &'a mut T;
    type IntoIter = std::slice::IterMut<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter_mut()
    }
}

impl<T> FromIterator<T> for Inline<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut iter = iter.into_iter();
        let Some(first) = iter.next() else {
            return Inline::Many(Vec::new());
        };
        let Some(second) = iter.next() else {
            return Inline::One([first]);
        };
        let mut v = Vec::with_capacity(iter.size_hint().0.saturating_add(2));
        v.push(first);
        v.push(second);
        v.extend(iter);
        Inline::Many(v)
    }
}

impl<T: PartialEq> PartialEq for Inline<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Eq> Eq for Inline<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_iter_picks_the_representation_by_length() {
        let none: Inline<u8> = std::iter::empty().collect();
        assert!(matches!(&none, Inline::Many(v) if v.is_empty()));
        assert!(none.is_empty());

        let one: Inline<u8> = std::iter::once(7).collect();
        assert!(matches!(one, Inline::One([7])));
        assert_eq!(one.len(), 1);

        let many: Inline<u8> = (1..=4).collect();
        assert!(matches!(&many, Inline::Many(v) if v == &[1, 2, 3, 4]));
        assert_eq!(&many[..], &[1, 2, 3, 4]);
    }

    #[test]
    fn push_keeps_the_canonical_representation() {
        let mut l: Inline<u8> = Inline::default();
        l.push(1);
        assert!(matches!(l, Inline::One([1])));
        l.push(2);
        assert!(matches!(&l, Inline::Many(v) if v == &[1, 2]));
        l.push(3);
        assert_eq!(&l[..], &[1, 2, 3]);
    }

    #[test]
    fn retain_one_to_zero() {
        let mut l: Inline<u8> = std::iter::once(1).collect();
        l.retain(|&x| x == 1);
        assert!(matches!(l, Inline::One([1])));
        l.retain(|&x| x != 1);
        assert!(matches!(&l, Inline::Many(v) if v.is_empty()));
    }

    #[test]
    fn retain_many_to_one_moves_inline() {
        let mut l: Inline<u8> = [1, 2, 3].into_iter().collect();
        l.retain(|&x| x != 2);
        assert!(matches!(&l, Inline::Many(v) if v == &[1, 3]));
        l.retain(|&x| x == 3);
        assert!(matches!(l, Inline::One([3])));
    }

    #[test]
    fn equality_ignores_the_representation() {
        let one = Inline::One([5u32]);
        let many = Inline::Many(vec![5u32]);
        assert_eq!(one, many);
        assert_ne!(one, Inline::Many(vec![5, 5]));
        assert_ne!(one, Inline::default());
        assert_eq!(Inline::<u32>::default(), Inline::Many(Vec::new()));
    }

    #[test]
    fn mutation_through_deref_and_iteration() {
        let mut l: Inline<u32> = std::iter::once(1).collect();
        l[0] += 1;
        for x in l.iter_mut() {
            *x *= 10;
        }
        assert_eq!(&l[..], &[20]);
    }
}
