//! An inline-first vector: one element held in place, two or more in a
//! `Vec`. Almost every list VOS keeps or hands back has exactly one
//! element — the one segment a read of data written once returns, the one
//! akey under a chunk's or a KV entry's dkey, the one extent of a chunk
//! written in one piece — so holding that element inline makes each of
//! them cost no allocation of its own. Only a second element spills.

use std::iter::Chain;
use std::ops::{Deref, DerefMut};
use std::{option, vec};

/// One element inline, or any number in a `Vec`; empty is
/// `Many(Vec::new())`, which holds no allocation. It is the slice it
/// dereferences to: equality compares those, element for element.
#[derive(Clone, Debug)]
pub enum OneOrMany<T> {
    One(T),
    Many(Vec<T>),
}

impl<T> OneOrMany<T> {
    /// Put `item` at `index`, shifting what follows. Into an empty one it
    /// goes inline; a second element spills both to a `Vec` of the four
    /// slots a `Vec`'s first push takes, so a list that keeps growing
    /// allocates no more often than a `Vec` would. Panics when `index >
    /// len`, as `Vec::insert` does.
    pub fn insert(&mut self, index: usize, item: T) {
        *self = match std::mem::take(self) {
            OneOrMany::Many(v) if v.is_empty() && index == 0 => OneOrMany::One(item),
            OneOrMany::One(first) => {
                let mut v = Vec::with_capacity(4);
                v.push(first);
                v.insert(index, item);
                OneOrMany::Many(v)
            }
            OneOrMany::Many(mut v) => {
                v.insert(index, item);
                OneOrMany::Many(v)
            }
        };
    }

    /// Append `item` ([`insert`](Self::insert) at the end).
    pub fn push(&mut self, item: T) {
        self.insert(self.len(), item);
    }

    /// Append `more`'s elements. An empty one takes `more` as it is, its
    /// allocation included.
    pub fn append(&mut self, more: OneOrMany<T>) {
        match self.is_empty() {
            true => *self = more,
            false => self.extend(more),
        }
    }
}

impl<T> Default for OneOrMany<T> {
    /// No element, and no allocation.
    fn default() -> Self {
        OneOrMany::Many(Vec::new())
    }
}

impl<T> Deref for OneOrMany<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match self {
            OneOrMany::One(item) => std::slice::from_ref(item),
            OneOrMany::Many(items) => items,
        }
    }
}

impl<T> DerefMut for OneOrMany<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        match self {
            OneOrMany::One(item) => std::slice::from_mut(item),
            OneOrMany::Many(items) => items,
        }
    }
}

impl<T: PartialEq> PartialEq for OneOrMany<T> {
    fn eq(&self, other: &OneOrMany<T>) -> bool {
        **self == **other
    }
}

impl<T: Eq> Eq for OneOrMany<T> {}

impl<T> FromIterator<T> for OneOrMany<T> {
    /// One element stays inline; two or more go to a `Vec`.
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut iter = iter.into_iter();
        let Some(first) = iter.next() else {
            return OneOrMany::default();
        };
        match iter.next() {
            None => OneOrMany::One(first),
            Some(second) => OneOrMany::Many([first, second].into_iter().chain(iter).collect()),
        }
    }
}

impl<T> Extend<T> for OneOrMany<T> {
    /// Elements appended to one inline element promote it to a `Vec`.
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        let mut iter = iter.into_iter().peekable();
        if iter.peek().is_none() {
            return;
        }
        *self = match std::mem::take(self) {
            OneOrMany::One(first) => OneOrMany::Many(std::iter::once(first).chain(iter).collect()),
            OneOrMany::Many(mut items) => {
                items.extend(iter);
                OneOrMany::Many(items)
            }
        };
    }
}

impl<T> IntoIterator for OneOrMany<T> {
    type Item = T;
    type IntoIter = Chain<option::IntoIter<T>, vec::IntoIter<T>>;

    fn into_iter(self) -> Self::IntoIter {
        let (one, many) = match self {
            OneOrMany::One(item) => (Some(item), Vec::new()),
            OneOrMany::Many(items) => (None, items),
        };
        one.into_iter().chain(many)
    }
}

impl<'a, T> IntoIterator for &'a OneOrMany<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Inserting in any order keeps the elements where `Vec::insert` puts
    /// them; the first stays inline, the second spills to four slots, and
    /// growth beyond them reallocates as a `Vec` does.
    #[test]
    fn inserts_land_where_a_vec_puts_them_and_spill_once() {
        let mut list = OneOrMany::default();
        let mut model = Vec::new();
        for (index, item) in [(0, 'c'), (0, 'a'), (1, 'b'), (3, 'e'), (3, 'd'), (5, 'f')] {
            list.insert(index, item);
            model.insert(index, item);
            assert_eq!(list[..], model[..]);
            match (&list, model.len()) {
                (OneOrMany::One(_), 1) => {}
                (OneOrMany::Many(v), 2..=4) => assert_eq!(v.capacity(), 4),
                (OneOrMany::Many(v), _) => assert_eq!(v.capacity(), 8),
                _ => panic!("{list:?} at {} elements", model.len()),
            }
        }
        let mut pushed = OneOrMany::default();
        pushed.push(1);
        assert!(matches!(pushed, OneOrMany::One(1)));
        pushed.push(2);
        assert_eq!(pushed, OneOrMany::Many(vec![1, 2]));
    }

    #[test]
    #[should_panic]
    fn an_insert_past_the_end_panics_as_a_vec_does() {
        OneOrMany::default().insert(1, 0u8);
    }
}
