//! Keys as values: a dkey or akey is at most a few bytes in every workload
//! here (an 8-byte chunk index, `"0"`, `"v"`, a file name), so a [`Key`]
//! keeps up to [`Key::INLINE`] bytes in itself and only a longer one on the
//! heap. Cloning, storing and sending a short key allocates nothing —
//! closer to `libdaos`, whose keys are `d_iov_t` views of caller memory,
//! than a `Vec<u8>` per key was.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::ops::Deref;

/// A dkey or akey: arbitrary bytes, ordered, compared and printed exactly
/// as the `Vec<u8>` of the same bytes, and looked up in a map by `&[u8]`
/// ([`Borrow`]). The same size as a `Vec<u8>`.
#[derive(Clone)]
pub struct Key(Repr);

#[derive(Clone)]
enum Repr {
    Inline { len: u8, bytes: [u8; Key::INLINE] },
    Heap(Box<[u8]>),
}

impl Key {
    /// Bytes a key holds without a heap block.
    pub const INLINE: usize = 22;

    /// A key holding a copy of `bytes`.
    pub fn new(bytes: &[u8]) -> Key {
        if bytes.len() > Key::INLINE {
            return Key(Repr::Heap(bytes.into()));
        }
        let mut inline = [0; Key::INLINE];
        inline[..bytes.len()].copy_from_slice(bytes);
        Key(Repr::Inline {
            len: bytes.len() as u8,
            bytes: inline,
        })
    }

    fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..*len as usize],
            Repr::Heap(bytes) => bytes,
        }
    }
}

impl Deref for Key {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl AsRef<[u8]> for Key {
    fn as_ref(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl Borrow<[u8]> for Key {
    fn borrow(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Key) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Key) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Key) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_bytes(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::ops::Bound;

    impl Key {
        fn spilled(&self) -> bool {
            matches!(self.0, Repr::Heap(_))
        }
    }

    #[test]
    fn a_key_is_the_size_of_a_vec() {
        assert_eq!(std::mem::size_of::<Key>(), std::mem::size_of::<Vec<u8>>());
    }

    #[test]
    fn short_keys_stay_inline_and_long_ones_spill() {
        let edge = [7u8; Key::INLINE];
        assert!(!Key::new(&edge).spilled());
        assert!(!Key::new(&[]).spilled());
        let over = [7u8; Key::INLINE + 1];
        assert!(Key::new(&over).spilled());
        assert_eq!(&*Key::new(&over), &over[..]);
        assert_eq!(&*Key::new(&edge), &edge[..]);
    }

    proptest! {
        /// Lengths 0..=40, across the inline limit, over a three-letter
        /// alphabet so that keys share long prefixes: every comparison,
        /// rendering and `&[u8]` map lookup a `Vec<u8>` of the same bytes
        /// makes.
        #[test]
        fn a_key_behaves_as_the_vec_of_its_bytes(
            vecs in vec(vec(0u8..3, 0..=40), 1..24),
            probe in vec(0u8..3, 0..=40),
        ) {
            let keys: Vec<Key> = vecs.iter().map(|v| Key::new(v)).collect();
            for (a, ka) in vecs.iter().zip(&keys) {
                prop_assert_eq!(&**ka, &a[..]);
                prop_assert_eq!(ka.spilled(), a.len() > Key::INLINE);
                prop_assert_eq!(format!("{ka:?}"), format!("{a:?}"));
                for (b, kb) in vecs.iter().zip(&keys) {
                    prop_assert_eq!(ka.cmp(kb), a.cmp(b));
                    prop_assert_eq!(ka == kb, a == b);
                }
            }
            let by_vec: BTreeMap<Vec<u8>, usize> = vecs.iter().cloned().zip(0..).collect();
            let by_key: BTreeMap<Key, usize> = keys.into_iter().zip(0..).collect();
            prop_assert!(by_vec.keys().map(|v| &v[..]).eq(by_key.keys().map(|k| &k[..])));
            for q in vecs.iter().chain([&probe]) {
                let from = (Bound::Included(&q[..]), Bound::Unbounded);
                prop_assert_eq!(by_key.get(&q[..]), by_vec.get(&q[..]));
                prop_assert_eq!(
                    by_key.range::<[u8], _>(from).next().map(|(_, i)| i),
                    by_vec.range::<[u8], _>(from).next().map(|(_, i)| i)
                );
            }
        }
    }
}
