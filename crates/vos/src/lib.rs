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
// crate (`daos-sim`, which carries `deny`): see simlint rule D05.
#![forbid(unsafe_code)]

pub mod target;
pub mod tree;

pub use target::{ScrubFinding, ScrubReport, VosConfig, VosCounters, VosError, VosTarget};
pub use tree::{CsumViolation, Extent, ExtentTree, ReadSeg};

use bytes::Bytes;
use std::cell::Cell;
use std::num::NonZeroU64;

/// An update epoch (DAOS uses HLC timestamps; monotonic u64 here).
pub type Epoch = u64;

/// A dkey or akey: arbitrary bytes, ordered.
pub type Key = Vec<u8>;

/// Helper: a key from anything byte-like.
pub fn key(k: impl AsRef<[u8]>) -> Key {
    k.as_ref().to_vec()
}

/// Value payload: literal bytes, or a deterministic pattern standing in for
/// `len` bytes of synthetic benchmark data (no allocation).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Payload {
    /// Actual data.
    Bytes(Bytes),
    /// `len` synthetic bytes from a seeded stream starting at `skew`.
    /// `digest` caches the checksum fold of exactly these bytes; build
    /// patterns with [`Payload::pattern`] and [`Payload::slice`].
    Pattern {
        seed: u64,
        skew: u64,
        len: u64,
        digest: Digest,
    },
}

/// The checksum fold of a pattern payload's own bytes, carried with the
/// value so every verify site after the first compares against one
/// computation. It is a cache of a pure function of the payload's
/// `(seed, skew, len)`: only [`csum64`] fills it, `clone()` and the
/// identity slice keep it, and everything that yields different bytes
/// ([`Payload::slice`] of a sub-range, [`Payload::corrupted`]) starts
/// empty. The field is private, so no code outside this crate can attach
/// a digest to bytes it was not computed over.
#[derive(Clone, Default)]
pub struct Digest(Cell<Option<NonZeroU64>>);

/// A digest is not part of a payload's value: two payloads with the same
/// bytes are equal whether or not either has been hashed yet.
impl PartialEq for Digest {
    fn eq(&self, _: &Digest) -> bool {
        true
    }
}
impl Eq for Digest {}

/// Prints the same whether or not the payload has been hashed, so no
/// formatted output can depend on which check site ran first.
impl std::fmt::Debug for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("..")
    }
}

impl Payload {
    /// A payload from literal bytes.
    pub fn bytes(data: impl Into<Bytes>) -> Self {
        Payload::Bytes(data.into())
    }

    /// A synthetic payload of `len` bytes.
    pub fn pattern(seed: u64, len: u64) -> Self {
        Payload::Pattern {
            seed,
            skew: 0,
            len,
            digest: Digest::default(),
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> u64 {
        match self {
            Payload::Bytes(b) => b.len() as u64,
            Payload::Pattern { len, .. } => *len,
        }
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sub-range `[off, off+len)`; both payload kinds slice consistently
    /// (a pattern's slice yields the same bytes as slicing its
    /// materialisation). Only the identity slice keeps a pattern's digest.
    pub fn slice(&self, off: u64, len: u64) -> Payload {
        debug_assert!(off + len <= self.len(), "slice out of range");
        match self {
            Payload::Bytes(b) => Payload::Bytes(b.slice(off as usize..(off + len) as usize)),
            Payload::Pattern { len: whole, .. } if off == 0 && len == *whole => self.clone(),
            Payload::Pattern { seed, skew, .. } => Payload::Pattern {
                seed: *seed,
                skew: *skew + off,
                len,
                digest: Digest::default(),
            },
        }
    }

    /// The byte at stream position `i`.
    pub fn byte_at(&self, i: u64) -> u8 {
        match self {
            Payload::Bytes(b) => b[i as usize],
            Payload::Pattern { seed, skew, .. } => pattern_byte(*seed, *skew + i),
        }
    }

    /// Materialise to owned bytes (tests / verification — O(len) memory).
    pub fn materialize(&self) -> Bytes {
        match self {
            Payload::Bytes(b) => b.clone(),
            Payload::Pattern {
                seed, skew, len, ..
            } => {
                let mut v = Vec::with_capacity(*len as usize);
                let mut gen = PatternWords::new(*seed, *skew);
                let words = *len / 8;
                for _ in 0..words {
                    v.extend_from_slice(&gen.next_word().to_le_bytes());
                }
                for i in (words * 8)..*len {
                    v.push(pattern_byte(*seed, *skew + i));
                }
                Bytes::from(v)
            }
        }
    }

    /// A deterministically *corrupted* copy of this payload — the
    /// fault-injection primitive behind bit rot and torn frames. The result
    /// has the same length but different bytes, so a checksum computed over
    /// the original no longer matches; it never inherits the original's
    /// digest.
    pub fn corrupted(&self) -> Payload {
        match self {
            Payload::Bytes(b) => {
                if b.is_empty() {
                    return self.clone();
                }
                let mut v = b.to_vec();
                let mid = v.len() / 2;
                v[mid] ^= 0x80;
                Payload::Bytes(Bytes::from(v))
            }
            Payload::Pattern {
                seed, skew, len, ..
            } => Payload::Pattern {
                seed: seed ^ 0xB17_2077_DEAD_BEEF,
                skew: *skew,
                len: *len,
                digest: Digest::default(),
            },
        }
    }
}

/// Seed for every stored / on-wire checksum in the stack (a deployment-wide
/// constant in real DAOS; the seed keeps the hash from being forgeable by
/// all-zero data).
pub const CSUM_SEED: u64 = 0xC5C5_5EED_DA05_0001;

/// Seeded 64-bit checksum over a payload's *real bytes*: their 8-byte
/// words folded round-robin into four multiply-rotate lanes, lanes and
/// length combined at the end, the seed mixed in last. `Payload::Bytes`
/// folds the slice; `Payload::Pattern` folds the synthetic stream
/// word-by-word straight out of the generator, so terabyte-scale synthetic
/// payloads stay allocation-free and never touch a byte buffer. Both kinds
/// of payload with identical bytes produce the identical checksum.
///
/// The data path checks each chunk several times (client wire checksum,
/// server verify, stored extent checksum, fetch verify, reply checksum,
/// client verify, scrubber). A pattern payload is folded by the first of
/// those calls and carries the result in its [`Digest`] from then on, so
/// each distinct payload costs one pass however many sites check it. The
/// digest is a cache of a pure function: it has no observable effect
/// beyond host time ([`csum_stats`] counts it).
pub fn csum64(seed: u64, p: &Payload) -> u64 {
    let fold = match p {
        Payload::Bytes(b) => {
            count(|s| s.literal_bytes += b.len() as u64);
            count_cold(b.len() as u64);
            csum_fold(b)
        }
        Payload::Pattern {
            seed: pseed,
            skew,
            len,
            digest,
        } => match digest.0.get() {
            Some(fold) => {
                count(|s| s.digest_hits += 1);
                fold.get()
            }
            None => {
                count_cold(*len);
                let fold = csum_fold_pattern(*pseed, *skew, *len);
                // a fold of exactly zero is simply never cached
                digest.0.set(NonZeroU64::new(fold));
                fold
            }
        },
    };
    daos_splitmix(seed ^ fold)
}

/// Seeded 64-bit checksum over literal bytes (same function as
/// [`csum64`] on a `Payload::Bytes`).
pub fn csum64_bytes(seed: u64, bytes: &[u8]) -> u64 {
    daos_splitmix(seed ^ csum_fold(bytes))
}

/// Host-cost counters of [`csum64`] on the calling thread: the
/// deterministic "bytes hashed" proxy for simulator speed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CsumStats {
    /// Bytes actually folded (payloads without a digest to reuse).
    pub cold_bytes: u64,
    /// Calls that folded their payload.
    pub cold_calls: u64,
    /// Calls answered from the payload's digest.
    pub digest_hits: u64,
    /// The part of `cold_bytes` that was `Payload::Bytes`, which carries
    /// no digest (metadata values; every check re-folds them).
    pub literal_bytes: u64,
}

thread_local! {
    static CSUM_STATS: Cell<CsumStats> = const { Cell::new(CsumStats {
        cold_bytes: 0,
        cold_calls: 0,
        digest_hits: 0,
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

fn count_cold(len: u64) {
    count(|s| {
        s.cold_bytes += len;
        s.cold_calls += 1;
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

const FOLD_MUL: u64 = 0x100_0000_01b3;

/// Four independent fold lanes: word `i` of the stream goes to lane
/// `i % 4`, so the multiply-rotate chains of consecutive words overlap
/// instead of serialising.
struct Lanes([u64; 4]);

impl Lanes {
    fn new() -> Self {
        Lanes([
            0x9E37_79B9_7F4A_7C15,
            0xBF58_476D_1CE4_E5B9,
            0x94D0_49BB_1331_11EB,
            0xD6E8_FEB8_6659_FD93,
        ])
    }

    #[inline]
    fn fold(&mut self, lane: usize, word: u64) {
        self.0[lane] = (self.0[lane] ^ word).wrapping_mul(FOLD_MUL).rotate_left(23);
    }

    /// Combine the lanes with the stream length, then the up-to-7 tail
    /// bytes that did not fill a word.
    fn finish(self, len: u64, tail: impl Iterator<Item = u8>) -> u64 {
        let mut h = len;
        for lane in self.0 {
            h = (h ^ lane).wrapping_mul(FOLD_MUL).rotate_left(23);
        }
        for b in tail {
            h = (h ^ b as u64).wrapping_mul(FOLD_MUL);
        }
        h
    }
}

/// The unseeded fold of a byte string: 8-byte little-endian words into
/// four lanes round-robin, lanes and length combined at the end, tail
/// bytes last. [`csum_fold_pattern`] is the same function computed from
/// the generator.
fn csum_fold(bytes: &[u8]) -> u64 {
    // INVARIANT: every slice handed to `word` is exactly 8 bytes long.
    let word = |w: &[u8]| u64::from_le_bytes(w.try_into().unwrap());
    let mut lanes = Lanes::new();
    let mut groups = bytes.chunks_exact(32);
    for g in &mut groups {
        for lane in 0..4 {
            lanes.fold(lane, word(&g[8 * lane..8 * lane + 8]));
        }
    }
    let mut words = groups.remainder().chunks_exact(8);
    for (lane, w) in (&mut words).enumerate() {
        lanes.fold(lane, word(w));
    }
    lanes.finish(bytes.len() as u64, words.remainder().iter().copied())
}

/// [`csum_fold`] of a pattern's bytes without materialising them: one
/// splitmix block per 8 bytes, shifted into place when `skew` is
/// unaligned, with no intermediate buffer. The equivalence test below pins
/// the two at every skew alignment.
fn csum_fold_pattern(pseed: u64, skew: u64, len: u64) -> u64 {
    let mut lanes = Lanes::new();
    let mut gen = PatternWords::new(pseed, skew);
    let words = len / 8;
    for _ in 0..words / 4 {
        for lane in 0..4 {
            lanes.fold(lane, gen.next_word());
        }
    }
    for lane in 0..(words % 4) as usize {
        lanes.fold(lane, gen.next_word());
    }
    lanes.finish(
        len,
        ((words * 8)..len).map(|i| pattern_byte(pseed, skew + i)),
    )
}

/// Streaming 64-bit-word view of the synthetic pattern starting at stream
/// position `skew`: each call yields the next 8 bytes as a little-endian
/// word. When `skew` is block-unaligned every output word straddles two
/// splitmix blocks; the high block is carried into the next call so the
/// cost stays at one splitmix per word.
struct PatternWords {
    seed: u64,
    /// Block index the next word starts in.
    q: u64,
    /// Bit shift of the stream position within its block (8 * (skew & 7)).
    shift: u32,
    /// `block(q)` for the upcoming word (valid when `shift != 0`).
    carry: u64,
}

impl PatternWords {
    fn new(seed: u64, skew: u64) -> Self {
        let q = skew >> 3;
        let shift = 8 * (skew & 7) as u32;
        let carry = if shift != 0 {
            pattern_block(seed, q)
        } else {
            0
        };
        PatternWords {
            seed,
            q,
            shift,
            carry,
        }
    }

    #[inline]
    fn next_word(&mut self) -> u64 {
        if self.shift == 0 {
            let w = pattern_block(self.seed, self.q);
            self.q += 1;
            w
        } else {
            let hi = pattern_block(self.seed, self.q + 1);
            let w = (self.carry >> self.shift) | (hi << (64 - self.shift));
            self.carry = hi;
            self.q += 1;
            w
        }
    }
}

/// The 8-byte splitmix block at block index `q` of the stream for `seed`.
#[inline]
fn pattern_block(seed: u64, q: u64) -> u64 {
    daos_splitmix(seed ^ q.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Deterministic byte `pos` of the synthetic stream for `seed`.
#[inline]
pub fn pattern_byte(seed: u64, pos: u64) -> u8 {
    let block = daos_splitmix(seed ^ (pos >> 3).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (block >> (8 * (pos & 7))) as u8
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

    #[test]
    fn nested_pattern_slices_compose() {
        let p = Payload::pattern(3, 1000);
        let s1 = p.slice(200, 400);
        let s2 = s1.slice(100, 50);
        assert_eq!(&s2.materialize()[..], &p.materialize()[300..350]);
    }

    /// The generator-fed fold in [`csum64`] must produce the same value
    /// as folding the materialized bytes, at every block alignment of
    /// `skew` and for lengths on both sides of the word and four-lane
    /// group boundaries.
    #[test]
    fn pattern_csum_matches_bytes_csum_at_all_alignments() {
        for skew in 0..9u64 {
            for len in [
                0u64, 1, 7, 8, 9, 24, 31, 32, 33, 63, 255, 256, 257, 1000, 4096,
            ] {
                let p = Payload::pattern(42, skew + len).slice(skew, len);
                let direct = csum64(CSUM_SEED, &p);
                let via_bytes = csum64_bytes(CSUM_SEED, &p.materialize());
                assert_eq!(direct, via_bytes, "skew {skew} len {len}");
            }
        }
    }

    /// Which payloads answer from a digest: the hashed value itself, its
    /// clones and its identity slice — never a sub-slice or a corrupted
    /// copy, and never a literal.
    #[test]
    fn digest_travels_with_the_value_and_no_further() {
        let cold_after = |p: &Payload| {
            let before = csum_stats();
            csum64(CSUM_SEED, p);
            csum_stats().cold_calls - before.cold_calls
        };
        let p = Payload::pattern(9, 4096);
        let early_clone = p.clone();
        assert_eq!(cold_after(&p), 1);
        assert_eq!(cold_after(&p), 0);
        assert_eq!(cold_after(&p.clone()), 0);
        assert_eq!(cold_after(&p.slice(0, 4096)), 0);
        assert_eq!(cold_after(&early_clone), 1, "cloned before the hash");
        assert_eq!(cold_after(&p.slice(0, 4095)), 1);
        assert_eq!(cold_after(&p.slice(8, 4088)), 1);
        assert_eq!(cold_after(&p.corrupted()), 1);
        let lit = Payload::bytes(p.materialize());
        assert_eq!(cold_after(&lit), 1);
        assert_eq!(cold_after(&lit), 1);
        assert_eq!(p, early_clone);

        reset_csum_stats();
        csum64(CSUM_SEED, &p);
        csum64(CSUM_SEED, &lit);
        assert_eq!(
            csum_stats(),
            CsumStats {
                cold_bytes: 4096,
                cold_calls: 1,
                digest_hits: 1,
                literal_bytes: 4096,
            }
        );
    }
}
