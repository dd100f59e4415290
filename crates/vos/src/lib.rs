//! # daos-vos — the Versioned Object Store
//!
//! VOS is the per-target storage engine of DAOS: every target keeps a tree
//! of containers → objects → distribution keys (dkey) → attribute keys
//! (akey) → values, where a value is either a *single value* (replaced
//! wholesale per epoch) or a *byte array* maintained as an epoch-versioned
//! extent tree. All updates are tagged with an epoch; reads are served "as
//! of" an epoch, which is how DAOS gives writers isolation without locks —
//! the property behind the paper's observation that shared-file I/O costs
//! the same as file-per-process (§IV).
//!
//! This crate implements the data structures *for real* (bytes in, bytes
//! out, punch semantics, aggregation) while charging simulated time against
//! a [`daos_media::MediaSet`]. Payloads can be literal bytes or a
//! deterministic [`Payload::Pattern`] so benchmarks can push terabytes
//! through the data path without allocating them.

// No `unsafe` may enter the workspace outside the audited kernel
// crate (`daos-sim`, which denies `clippy::undocumented_unsafe_blocks`).
#![forbid(unsafe_code)]
// P01: nothing on a simulated path panics. A site that cannot fail says
// why in `#[expect(clippy::…, reason = "INVARIANT: …")]`; tests may panic.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

mod key;
mod one_or_many;
pub mod target;
pub mod tree;

pub use key::Key;
pub use one_or_many::OneOrMany;
pub use target::{ScrubFinding, ScrubReport, VosConfig, VosCounters, VosError, VosTarget};
pub use tree::{CsumViolation, Extent, ExtentTree, ReadSeg, Segs};

use std::cell::Cell;
use std::ops::Range;
use std::rc::Rc;

/// An update epoch (DAOS uses HLC timestamps; monotonic u64 here).
pub type Epoch = u64;

/// Helper: a key from anything byte-like.
pub fn key(k: impl AsRef<[u8]>) -> Key {
    Key::new(k.as_ref())
}

/// Value payload: literal bytes, or a deterministic pattern standing in for
/// `len` bytes of synthetic benchmark data (no allocation).
#[derive(Clone, Debug, Eq)]
pub enum Payload {
    /// Actual data: `range` of a shared buffer, so a slice or a clone
    /// shares the bytes instead of copying them.
    Bytes(Rc<[u8]>, Range<usize>),
    /// `len` synthetic bytes of the stream for `seed`, from stream
    /// position `skew` on.
    Pattern { seed: u64, skew: u64, len: u64 },
}

impl Payload {
    /// A payload from literal bytes (a `Vec<u8>`, a slice, or another
    /// payload's [`Payload::materialize`]).
    pub fn bytes(data: impl Into<Rc<[u8]>>) -> Self {
        let buf: Rc<[u8]> = data.into();
        Payload::Bytes(Rc::clone(&buf), 0..buf.len())
    }

    /// A synthetic payload of `len` bytes.
    pub fn pattern(seed: u64, len: u64) -> Self {
        Payload::Pattern { seed, skew: 0, len }
    }

    /// Length in bytes.
    pub fn len(&self) -> u64 {
        match self {
            Payload::Bytes(_, range) => range.len() as u64,
            Payload::Pattern { len, .. } => *len,
        }
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sub-range `[off, off+len)`; both payload kinds slice consistently
    /// (a pattern's slice yields the same bytes as slicing its
    /// materialisation). Panics when the range does not lie inside the
    /// payload.
    pub fn slice(&self, off: u64, len: u64) -> Payload {
        // callers slice inside the payload they hold. A pattern
        // sliced past its end would fabricate bytes, and a checksum that
        // vouches for them, so the check is not a debug-only one.
        assert!(
            off.checked_add(len).is_some_and(|end| end <= self.len()),
            "slice out of range"
        );
        match self {
            Payload::Bytes(buf, range) => {
                let start = range.start + off as usize;
                Payload::Bytes(Rc::clone(buf), start..start + len as usize)
            }
            Payload::Pattern { seed, skew, .. } => Payload::Pattern {
                seed: *seed,
                skew: *skew + off,
                len,
            },
        }
    }

    /// The byte at stream position `i`.
    pub fn byte_at(&self, i: u64) -> u8 {
        match self {
            Payload::Bytes(buf, range) => buf[range.start + i as usize],
            Payload::Pattern { seed, skew, .. } => pattern_byte(*seed, *skew + i),
        }
    }

    /// Materialise to bytes (tests / verification — O(len) memory). A
    /// literal that spans its whole buffer hands out that buffer.
    pub fn materialize(&self) -> Rc<[u8]> {
        match self {
            Payload::Bytes(buf, range) if range.len() == buf.len() => Rc::clone(buf),
            Payload::Bytes(buf, range) => buf[range.clone()].into(),
            Payload::Pattern { seed, skew, len } => {
                let len = *len as usize;
                let mut v = Vec::with_capacity(len + 8);
                let mut gen = PatternWords::new(*seed, *skew);
                while v.len() < len {
                    v.extend_from_slice(&gen.next_word().to_le_bytes());
                }
                v.truncate(len);
                v.into()
            }
        }
    }

    /// What a payload compares by: a literal's bytes, a pattern's
    /// `(seed, skew, len)`.
    fn identity(&self) -> Result<&[u8], (u64, u64, u64)> {
        match self {
            Payload::Bytes(buf, range) => Ok(&buf[range.clone()]),
            &Payload::Pattern { seed, skew, len } => Err((seed, skew, len)),
        }
    }

    /// A deterministically *corrupted* copy of this payload — the
    /// fault-injection primitive behind bit rot and torn frames. The result
    /// has the same length but different bytes, so a checksum computed over
    /// the original no longer matches.
    pub fn corrupted(&self) -> Payload {
        match self {
            Payload::Bytes(buf, range) => {
                if range.is_empty() {
                    return self.clone();
                }
                let mut v = buf[range.clone()].to_vec();
                let mid = v.len() / 2;
                v[mid] ^= 0x80;
                Payload::bytes(v)
            }
            Payload::Pattern { seed, skew, len } => Payload::Pattern {
                seed: seed ^ 0xB17_2077_DEAD_BEEF,
                skew: *skew,
                len: *len,
            },
        }
    }
}

/// Payloads are equal when they are the same kind with the same bytes: a
/// literal is compared by its bytes, wherever they sit in their buffer.
impl PartialEq for Payload {
    fn eq(&self, other: &Payload) -> bool {
        self.identity() == other.identity()
    }
}

/// Seed for every stored / on-wire checksum in the stack (a deployment-wide
/// constant in real DAOS; the seed keeps the hash from being forgeable by
/// all-zero data).
pub const CSUM_SEED: u64 = 0xC5C5_5EED_DA05_0001;

/// Multiplier of the checksum polynomial. Odd, so every power of it is a
/// unit of Z/2^64 and a changed word can never be multiplied away.
const X: u64 = 0x5851_F42D_4C95_7F2D;

/// Words a walk folds per step.
const WIDE: usize = 8;

/// `X^0 ..= X^WIDE`.
const X_POW: [u64; WIDE + 1] = {
    let mut pow = [1; WIDE + 1];
    let mut i = 1;
    while i <= WIDE {
        pow[i] = X.wrapping_mul(pow[i - 1]);
        i += 1;
    }
    pow
};

/// Ratio of the synthetic stream's whitened words: odd, of full order
/// 2^62 (`G % 8 == 5`), and `G % 4 == X % 4` so that `X + G` is twice an
/// odd number, which keeps [`geometric`]'s sums as odd as they can be.
const G: u64 = 0x9E37_79B9_7F4A_7C15;

/// Seeded 64-bit checksum over a payload's *real bytes*. The bytes are
/// read as 8-byte little-endian words `w`, the up-to-7 tail bytes as one
/// zero-padded word, the length as the last word, and folded by Horner's
/// rule in Z/2^64, `h = h·X + f(w)` with the whitening `f(w) = w ^ (w >> 32)`
/// (an involution); the seed is mixed in last. Both kinds of payload with
/// identical bytes produce the identical checksum.
///
/// The fold is algebraic so that a pattern need not be walked: the
/// synthetic stream is *defined* by its whitened words being the geometric
/// sequence `f(block q) = A(seed)·G^q`, which makes the fold of `n` words
/// from block `q` equal to `A·G^q·Σ G^i·X^(n-1-i)`, a sum with an O(log n) doubling
/// recurrence. A `Payload::Pattern` that starts on a word boundary
/// (`skew % 8 == 0`, every pattern the data path produces) therefore costs
/// a few dozen multiplies whatever its length; one that starts mid-word
/// has no such form, because its words straddle two blocks, and is folded
/// word by word out of the generator like a literal. Every check site
/// (client wire checksum, server verify, stored extent checksum, fetch
/// verify, reply checksum, client verify, scrubber) calls this and
/// compares; [`csum_stats`] counts which way each call went.
pub fn csum64(csum_seed: u64, p: &Payload) -> u64 {
    let (h, tail) = match p {
        Payload::Bytes(buf, range) => {
            count_walk(range.len() as u64);
            count(|s| s.literal_bytes += range.len() as u64);
            fold_bytes(&buf[range.clone()])
        }
        &Payload::Pattern { seed, skew, len } if skew.is_multiple_of(8) => {
            count(|s| s.closed_form_calls += 1);
            fold_stream(seed, skew / 8, len / 8)
        }
        &Payload::Pattern { seed, skew, len } => {
            count_walk(len);
            fold_walk(seed, skew, len)
        }
    };
    finish(csum_seed, h, tail, p.len())
}

/// Seeded 64-bit checksum over literal bytes (same function as
/// [`csum64`] on a `Payload::Bytes`).
pub fn csum64_bytes(seed: u64, bytes: &[u8]) -> u64 {
    let (h, tail) = fold_bytes(bytes);
    finish(seed, h, tail, bytes.len() as u64)
}

/// Host-cost counters of [`csum64`] on the calling thread: the
/// deterministic "bytes hashed" proxy for simulator speed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CsumStats {
    /// Bytes folded word by word: every literal, and patterns that start
    /// mid-word.
    pub walked_bytes: u64,
    /// Calls that walked their payload.
    pub walked_calls: u64,
    /// Calls on a word-aligned pattern, answered in closed form.
    pub closed_form_calls: u64,
    /// The part of `walked_bytes` that was `Payload::Bytes` (metadata
    /// values); the rest is pattern bytes that had to be generated.
    pub literal_bytes: u64,
}

thread_local! {
    static CSUM_STATS: Cell<CsumStats> = const { Cell::new(CsumStats {
        walked_bytes: 0,
        walked_calls: 0,
        closed_form_calls: 0,
        literal_bytes: 0,
    }) };
}

fn count(f: impl FnOnce(&mut CsumStats)) {
    CSUM_STATS.with(|c| {
        let mut s = c.get();
        f(&mut s);
        c.set(s);
    });
}

fn count_walk(len: u64) {
    count(|s| {
        s.walked_bytes += len;
        s.walked_calls += 1;
    });
}

/// This thread's [`CsumStats`] since the last [`reset_csum_stats`].
pub fn csum_stats() -> CsumStats {
    CSUM_STATS.with(Cell::get)
}

/// Zero this thread's [`CsumStats`].
pub fn reset_csum_stats() {
    CSUM_STATS.with(|s| s.set(CsumStats::default()));
}

/// The fold's whitening, its own inverse. It is what lets the synthetic
/// stream be geometric *under the fold* while its bytes still vary in
/// every position: the low bits of `A·G^q` alone cycle with a short period.
#[inline]
fn whiten(w: u64) -> u64 {
    w ^ (w >> 32)
}

/// `N` Horner steps of the fold in one: `h·X^N + Σ f(w_i)·X^(N-1-i)`. The
/// multiplies of a wide step do not wait on each other, which is worth
/// 1.4× on a walk over one word at a time.
#[inline]
fn steps<const N: usize>(h: u64, w: [u64; N]) -> u64 {
    let mut h = h.wrapping_mul(X_POW[N]);
    for (i, w) in w.into_iter().enumerate() {
        h = h.wrapping_add(whiten(w).wrapping_mul(X_POW[N - 1 - i]));
    }
    h
}

/// The unfinished fold of a byte string's whole words, and its tail bytes
/// as a zero-padded word. For strings `a`, `b` of whole words,
/// `fold(a‖b) = fold(a)·X^words(b) + fold(b)`.
fn fold_bytes(bytes: &[u8]) -> (u64, u64) {
    #[expect(
        clippy::unwrap_used,
        reason = "INVARIANT: every slice handed to `le` is exactly 8 bytes long"
    )]
    let le = |w: &[u8]| u64::from_le_bytes(w.try_into().unwrap());
    let mut wide = bytes.chunks_exact(8 * WIDE);
    let h = (&mut wide).fold(0, |h, g| {
        steps::<WIDE>(h, std::array::from_fn(|i| le(&g[8 * i..8 * i + 8])))
    });
    let mut words = wide.remainder().chunks_exact(8);
    let h = (&mut words).fold(h, |h, w| steps(h, [le(w)]));
    let mut tail = [0u8; 8];
    tail[..bytes.len() % 8].copy_from_slice(words.remainder());
    (h, u64::from_le_bytes(tail))
}

/// [`fold_bytes`] of `len` bytes of the stream for `seed` from any byte
/// position, drawn from the generator without materialising them. A twin
/// of the loops in `fold_bytes`, not one loop over a source of words:
/// drawing a literal's words one call at a time costs its fold 1.3×.
fn fold_walk(seed: u64, skew: u64, len: u64) -> (u64, u64) {
    let mut gen = PatternWords::new(seed, skew);
    let h = (0..len / (8 * WIDE as u64)).fold(0, |h, _| {
        steps::<WIDE>(h, std::array::from_fn(|_| gen.next_word()))
    });
    let h = (0..len / 8 % WIDE as u64).fold(h, |h, _| steps(h, [gen.next_word()]));
    (h, gen.next_word())
}

/// Close a fold over `len` bytes: the tail bytes (the low `len % 8` bytes
/// of `tail`) if there are any, then the length, then the seed. For a
/// fixed length this is a bijection of `h`.
fn finish(seed: u64, mut h: u64, tail: u64, len: u64) -> u64 {
    if !len.is_multiple_of(8) {
        h = steps(h, [tail & (!0 >> (64 - 8 * (len % 8)))]);
    }
    daos_splitmix(seed ^ steps(h, [len]))
}

/// `(Σ_{i<n} G^i·X^(n-1-i), G^n)`: the fold of `n` words of a stream whose
/// whitened words are `1, G, G², …`, and the word after them. Built from
/// the top bit of `n` down by `F(2k) = F(k)·(X^k + G^k)` and
/// `F(2k+1) = F(2k)·X + G^(2k)`, which needs no division (`X - G` is even,
/// so the textbook `(X^n - G^n)/(X - G)` does not exist in Z/2^64).
fn geometric(n: u64) -> (u64, u64) {
    let (mut sum, mut x_k, mut g_k) = (0u64, 1u64, 1u64);
    for bit in (0..u64::BITS - n.leading_zeros()).rev() {
        sum = sum.wrapping_mul(x_k.wrapping_add(g_k));
        x_k = x_k.wrapping_mul(x_k);
        g_k = g_k.wrapping_mul(g_k);
        if (n >> bit) & 1 == 1 {
            sum = sum.wrapping_mul(X).wrapping_add(g_k);
            x_k = x_k.wrapping_mul(X);
            g_k = g_k.wrapping_mul(G);
        }
    }
    (sum, g_k)
}

/// The unfinished fold of blocks `q..q+n` of the stream for `seed`, and
/// block `q+n`, whose low bytes are the tail of a longer payload.
fn fold_stream(seed: u64, q: u64, n: u64) -> (u64, u64) {
    let first = stream_word(seed, q);
    let (sum, g_n) = geometric(n);
    (first.wrapping_mul(sum), whiten(first.wrapping_mul(g_n)))
}

/// The whitened 8-byte block `q` of the stream for `seed`: `A(seed)·G^q`
/// with `A` odd, so the map from block to word is a bijection at every `q`.
fn stream_word(seed: u64, q: u64) -> u64 {
    (daos_splitmix(seed) | 1).wrapping_mul(geometric(q).1)
}

/// Streaming 64-bit-word view of the synthetic pattern starting at stream
/// position `skew`: each call yields the next 8 bytes as a little-endian
/// word, at one multiply per word. When `skew` is block-unaligned every
/// output word straddles two blocks.
struct PatternWords {
    /// Whitened block after `block`.
    next: u64,
    /// The block the next word starts in.
    block: u64,
    /// Bit shift of the stream position within its block (8 * (skew & 7)).
    shift: u32,
}

impl PatternWords {
    fn new(seed: u64, skew: u64) -> Self {
        let first = stream_word(seed, skew >> 3);
        PatternWords {
            next: first.wrapping_mul(G),
            block: whiten(first),
            shift: 8 * (skew & 7) as u32,
        }
    }

    #[inline]
    fn next_word(&mut self) -> u64 {
        let lo = std::mem::replace(&mut self.block, whiten(self.next));
        self.next = self.next.wrapping_mul(G);
        // the two-step shift keeps `shift == 0` in range
        (lo >> self.shift) | ((self.block << 1) << (63 - self.shift))
    }
}

/// Deterministic byte `pos` of the synthetic stream for `seed`.
pub fn pattern_byte(seed: u64, pos: u64) -> u8 {
    (whiten(stream_word(seed, pos >> 3)) >> (8 * (pos & 7))) as u8
}

#[inline]
pub(crate) fn daos_splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pattern_slice_matches_materialized_slice() {
        let p = Payload::pattern(42, 1000);
        let full = p.materialize();
        let s = p.slice(100, 50);
        assert_eq!(s.len(), 50);
        assert_eq!(&s.materialize()[..], &full[100..150]);
    }

    #[test]
    fn bytes_slice_matches() {
        let p = Payload::bytes(vec![1u8, 2, 3, 4, 5]);
        assert_eq!(&p.slice(1, 3).materialize()[..], &[2, 3, 4]);
        assert_eq!(p.byte_at(4), 5);
    }

    /// A slice of a literal, and a slice of that, share the one buffer and
    /// index from their own start; a whole literal materialises as that
    /// buffer, and literals compare by their bytes alone.
    #[test]
    fn slice_shares_and_indexes() {
        let p = Payload::bytes(vec![1u8, 2, 3, 4, 5]);
        let s = p.slice(1, 3);
        assert_eq!((s.len(), s.byte_at(0)), (3, 2));
        let ss = s.slice(1, 2);
        assert_eq!(&ss.materialize()[..], &[3, 4]);
        let (Payload::Bytes(whole, _), Payload::Bytes(inner, _)) = (&p, &ss) else {
            panic!("slices of a literal are literals")
        };
        assert!(Rc::ptr_eq(whole, inner), "a slice copies nothing");
        assert!(Rc::ptr_eq(whole, &p.materialize()));
        assert_eq!(ss, Payload::bytes(vec![3, 4]));
        assert_ne!(ss, Payload::pattern(0, 2));
    }

    /// A slice of a literal is bounded by its own range, not by the shared
    /// buffer behind it: `2..6` lies inside the 8-byte buffer but past the
    /// end of the 4-byte slice.
    #[test]
    #[should_panic(expected = "slice out of range")]
    fn slice_oob_panics() {
        Payload::bytes(vec![0u8; 8]).slice(0, 4).slice(2, 4);
    }

    #[test]
    #[should_panic(expected = "slice out of range")]
    fn pattern_slice_past_the_end_panics() {
        Payload::pattern(42, 1000).slice(996, 5);
    }

    #[test]
    #[should_panic(expected = "slice out of range")]
    fn bytes_slice_past_the_end_panics() {
        Payload::bytes(vec![0u8; 16]).slice(16, 1);
    }

    #[test]
    #[should_panic(expected = "slice out of range")]
    fn slice_whose_end_overflows_panics() {
        Payload::pattern(42, 1000).slice(8, u64::MAX - 7);
    }

    #[test]
    fn pattern_is_deterministic_and_varied() {
        let a = Payload::pattern(7, 256).materialize();
        let b = Payload::pattern(7, 256).materialize();
        let c = Payload::pattern(8, 256).materialize();
        assert_eq!(a, b);
        assert_ne!(a, c);
        // not all-identical bytes
        assert!(a.iter().collect::<std::collections::BTreeSet<_>>().len() > 16);
    }

    /// A slice of a slice is the slice of the sum of the offsets: same
    /// value, same bytes, same checksum.
    #[test]
    fn nested_pattern_slices_compose() {
        let p = Payload::pattern(3, 1000);
        for (o1, o2) in [(200, 100), (200, 96), (8, 3), (5, 3), (0, 0)] {
            let nested = p.slice(o1, 400).slice(o2, 50);
            assert_eq!(nested, p.slice(o1 + o2, 50));
            let bytes = &p.materialize()[(o1 + o2) as usize..][..50];
            assert_eq!(&nested.materialize()[..], bytes);
            assert_eq!(csum64(CSUM_SEED, &nested), csum64_bytes(CSUM_SEED, bytes));
        }
    }

    #[test]
    fn a_payload_is_four_words() {
        assert_eq!(std::mem::size_of::<Payload>(), 32);
    }

    fn sliced(seed: u64, skew: u64, len: u64) -> Payload {
        Payload::pattern(seed, skew + len).slice(skew, len)
    }

    /// [`csum64`] of a pattern — closed form when `skew` is word-aligned,
    /// generator walk otherwise — must produce the same value as folding
    /// the materialized bytes, at every block alignment of `skew` and for
    /// lengths on both sides of the word and wide-step boundaries.
    #[test]
    fn pattern_csum_matches_bytes_csum_at_all_alignments() {
        for skew in 0..17u64 {
            for len in [
                0u64, 1, 7, 8, 9, 24, 31, 32, 33, 63, 64, 65, 127, 255, 256, 257, 1000, 4096,
            ] {
                let p = sliced(42, skew, len);
                let direct = csum64(CSUM_SEED, &p);
                let via_bytes = csum64_bytes(CSUM_SEED, &p.materialize());
                assert_eq!(direct, via_bytes, "skew {skew} len {len}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn pattern_csum_matches_bytes_csum(
            seed in any::<u64>(),
            skew in 0u64..64,
            len in 0u64..=3 << 20,
        ) {
            let p = sliced(seed, skew, len);
            prop_assert_eq!(csum64(seed, &p), csum64_bytes(seed, &p.materialize()));
        }
    }

    /// `b^e` by plain square-and-multiply, independent of [`geometric`].
    fn pow(mut b: u64, mut e: u64) -> u64 {
        let mut r = 1u64;
        while e > 0 {
            if e & 1 == 1 {
                r = r.wrapping_mul(b);
            }
            b = b.wrapping_mul(b);
            e >>= 1;
        }
        r
    }

    /// The doubling recurrence against the sum it stands for: term by term
    /// for every small `n`, and for 64-bit `n`, where nobody can add the
    /// terms up, through `F(n)·(X - G) = X^n - G^n` and the splitting law
    /// `F(a+b) = F(a)·X^b + G^a·F(b)`.
    #[test]
    fn geometric_matches_the_naive_sum() {
        let (mut sum, mut g_n) = (0u64, 1u64);
        for n in 0..1024 {
            assert_eq!(geometric(n), (sum, g_n), "n = {n}");
            sum = sum.wrapping_mul(X).wrapping_add(g_n);
            g_n = g_n.wrapping_mul(G);
        }
        let mut rng = proptest::test_runner::TestRng::new(0x6E0);
        for _ in 0..1000 {
            let n = rng.next_u64();
            let (f_n, g_n) = geometric(n);
            assert_eq!(g_n, pow(G, n));
            assert_eq!(
                f_n.wrapping_mul(X.wrapping_sub(G)),
                pow(X, n).wrapping_sub(g_n),
                "n = {n}"
            );
            let a = rng.below(n);
            let (f_a, f_b) = (geometric(a).0, geometric(n - a).0);
            let split = f_a
                .wrapping_mul(pow(X, n - a))
                .wrapping_add(pow(G, a).wrapping_mul(f_b));
            assert_eq!(f_n, split, "n = {n} a = {a}");
        }
    }

    /// `F(n)` is exactly as even as `n` (`X + G ≡ 2 (mod 4)`): reseeding a
    /// pattern of `n` whole words changes its fold unless the two `A`
    /// agree modulo `2^(64 - v2(n))`, and no choice of constants does
    /// better.
    #[test]
    fn geometric_sums_are_as_odd_as_their_length() {
        assert_eq!(X.wrapping_add(G) % 4, 2);
        let mut rng = proptest::test_runner::TestRng::new(0x0DD);
        for n in (1..4096).chain((0..1000).map(|_| rng.next_u64().max(1))) {
            assert_eq!(geometric(n).0.trailing_zeros(), n.trailing_zeros(), "{n}");
        }
    }

    /// Lengths nobody can materialise: a closed form over up to 2^50 bytes
    /// is tied to its two halves by the concatenation law of the fold,
    /// `fold(a‖b) = fold(a)·X^words(b) + fold(b)`, one half is split again,
    /// and the piece left at the bottom is small enough to compare with
    /// the literal fold of its bytes.
    #[test]
    fn closed_form_obeys_the_concatenation_law_down_to_real_bytes() {
        let mut rng = proptest::test_runner::TestRng::new(0xC47);
        for _ in 0..200 {
            let seed = rng.next_u64();
            let (mut q, mut n) = (rng.below(1 << 40), (1 << 33) + rng.below(1 << 47));
            while n > 64 {
                let a = rng.below(n + 1);
                let (left, right) = (fold_stream(seed, q, a).0, fold_stream(seed, q + a, n - a).0);
                let joined = left.wrapping_mul(pow(X, n - a)).wrapping_add(right);
                assert_eq!(fold_stream(seed, q, n).0, joined, "q {q} n {n} a {a}");
                if rng.below(2) == 0 {
                    n = a;
                } else {
                    (q, n) = (q + a, n - a);
                }
            }
            let bytes = sliced(seed, 8 * q, 8 * n).materialize();
            assert_eq!(
                fold_stream(seed, q, n).0,
                fold_bytes(&bytes).0,
                "q {q} n {n}"
            );
        }
    }

    /// `X` is odd, so `X^k` is a unit, and `f` is a bijection: a literal
    /// that differs from another in one word can never share its checksum.
    /// Exhaustively: every single-bit flip of a 4 KiB literal (and of its
    /// 5-byte tail) changes the sum.
    #[test]
    fn every_single_bit_flip_of_a_literal_changes_the_sum() {
        let mut bytes = Payload::pattern(0xF11B, 4096 + 5).materialize().to_vec();
        let clean = csum64_bytes(CSUM_SEED, &bytes);
        for bit in 0..8 * bytes.len() {
            bytes[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(csum64_bytes(CSUM_SEED, &bytes), clean, "bit {bit}");
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
        assert_eq!(csum64_bytes(CSUM_SEED, &bytes), clean);
    }

    /// Fault injection on a pattern swaps its seed; at any length of a
    /// word or more, aligned or not, the sum must move.
    #[test]
    fn corrupted_patterns_change_the_sum() {
        let mut rng = proptest::test_runner::TestRng::new(0xBAD);
        for i in 0..10_000 {
            let (seed, skew) = (rng.next_u64(), rng.below(1 << 20));
            // the closed form is free at any length; a walk is not
            let cap = if skew % 8 == 0 { 1 << 40 } else { 1 << 12 };
            let p = sliced(seed, skew, 8 + rng.below(cap));
            assert_ne!(p.corrupted(), p);
            assert_ne!(
                csum64(CSUM_SEED, &p.corrupted()),
                csum64(CSUM_SEED, &p),
                "case {i}: {p:?}"
            );
        }
    }

    /// Which calls walk bytes: every literal and every pattern that starts
    /// mid-word. A word-aligned pattern of any length — whole, sliced,
    /// with a tail, corrupted — is answered from its description.
    #[test]
    fn aligned_patterns_close_and_the_rest_walk() {
        let delta = |p: &Payload| {
            let before = csum_stats();
            csum64(CSUM_SEED, p);
            let after = csum_stats();
            (
                after.closed_form_calls - before.closed_form_calls,
                after.walked_bytes - before.walked_bytes,
            )
        };
        let p = Payload::pattern(9, 4096);
        assert_eq!(delta(&p), (1, 0));
        assert_eq!(delta(&p), (1, 0), "nothing is remembered between calls");
        assert_eq!(delta(&p.slice(0, 4095)), (1, 0));
        assert_eq!(delta(&p.slice(8, 4088)), (1, 0));
        assert_eq!(delta(&p.corrupted()), (1, 0));
        assert_eq!(delta(&Payload::pattern(9, 1 << 50)), (1, 0));
        assert_eq!(delta(&p.slice(3, 4000)), (0, 4000));
        assert_eq!(delta(&p.slice(3, 4000).slice(5, 16)), (1, 0), "3 + 5");
        let lit = Payload::bytes(p.materialize());
        assert_eq!(delta(&lit), (0, 4096));

        reset_csum_stats();
        csum64(CSUM_SEED, &p);
        csum64(CSUM_SEED, &p.slice(1, 100));
        csum64(CSUM_SEED, &lit);
        assert_eq!(
            csum_stats(),
            CsumStats {
                walked_bytes: 100 + 4096,
                walked_calls: 2,
                closed_form_calls: 1,
                literal_bytes: 4096,
            }
        );
    }
}
