//! Epoch-versioned value trees: the array extent tree and the single-value
//! log.
//!
//! Reads are *as-of-epoch* overlays: an extent written at epoch `e` is
//! visible to reads at `e' >= e` unless shadowed by a newer overlapping
//! extent with epoch `<= e'`, or hidden by a punch.

use std::cell::RefCell;

use crate::{csum64, Epoch, Payload, CSUM_SEED};

/// One recorded write (or punch, when `data` is `None`) into an array akey.
#[derive(Clone, Debug)]
pub struct Extent {
    pub offset: u64,
    pub len: u64,
    pub epoch: Epoch,
    /// Tie-break for writes in the same epoch (later insert wins).
    pub minor: u64,
    /// `None` models a punched hole.
    pub data: Option<Payload>,
    /// Seeded 64-bit checksum over `data`'s bytes, computed at insert time
    /// and carried through aggregation; `0` for punches. Stored alongside
    /// the extent exactly like real VOS keeps checksums in the evtree.
    pub csum: u64,
}

impl Extent {
    fn end(&self) -> u64 {
        self.offset + self.len
    }

    /// Does the stored checksum still match the stored bytes?
    fn csum_ok(&self) -> bool {
        match &self.data {
            Some(p) => csum64(CSUM_SEED, p) == self.csum,
            None => true,
        }
    }
}

/// A detected checksum mismatch: the stored extent whose bytes no longer
/// hash to the stored checksum.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CsumViolation {
    /// Offset of the bad extent within the akey's address space.
    pub offset: u64,
    /// Length of the bad extent.
    pub len: u64,
}

/// A segment of a read result: either data or a hole.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReadSeg {
    pub offset: u64,
    pub len: u64,
    /// `None` = never written (or punched): reads as zeroes.
    pub data: Option<Payload>,
}

impl ReadSeg {
    /// The same segment in another address space: the byte at `from` in
    /// this segment's space sits at `to` in the new one (shard-relative →
    /// chunk-relative → array → dataset offsets).
    pub fn rebased(self, from: u64, to: u64) -> ReadSeg {
        ReadSeg {
            offset: self.offset - from + to,
            ..self
        }
    }
}

/// Materialise the window `[base, base + len)` of a read result: holes are
/// zero, segments are clipped to the window.
pub fn flatten(segs: &[ReadSeg], base: u64, len: u64) -> Vec<u8> {
    let mut out = vec![0u8; len as usize];
    for s in segs {
        let Some(d) = &s.data else { continue };
        let lo = s.offset.max(base);
        let hi = (s.offset + s.len).min(base + len);
        if lo < hi {
            let m = d.materialize();
            out[(lo - base) as usize..(hi - base) as usize]
                .copy_from_slice(&m[(lo - s.offset) as usize..(hi - s.offset) as usize]);
        }
    }
    out
}

/// Intermediate paint segment: `src` points into the visible-extent list of
/// the overlay it came from (`None` = hole).
#[derive(Clone, Debug, PartialEq)]
struct Seg {
    start: u64,
    end: u64,
    src: Option<(usize, u64)>, // (index into vis, offset within extent)
}

/// One overlay pass over a query range `[offset, qend)`
/// ([`ExtentTree::overlay`]). The bytes ([`Overlay::segs`]) and the
/// checksum verdict ([`Overlay::verify`]) are both read off it without
/// painting again.
pub struct Overlay<'a> {
    offset: u64,
    qend: u64,
    shape: Shape<'a>,
}

/// What an overlay found. A query that one extent answers — every 4 KiB
/// read of data written once — needs no scratch to say so.
enum Shape<'a> {
    /// No extent contributes a byte: the range is one hole.
    Hole,
    /// One extent covers `[start, end)` of the range, holes either side.
    One {
        extent: &'a Extent,
        start: u64,
        end: u64,
    },
    /// Two or more candidates, painted: the coalesced segments in offset
    /// order, whose `src` indices refer to `vis`.
    Painted {
        segs: Vec<Seg>,
        vis: Vec<&'a Extent>,
    },
}

impl<'a> Overlay<'a> {
    /// Paint the candidate extents `vis` over `[offset, qend)`.
    fn painted(mut vis: Vec<&'a Extent>, offset: u64, qend: u64) -> Self {
        // overlay order: older first, same epoch by minor; the keys are
        // unique, so the sorted order — all painting depends on — is that
        // of a full scan too
        vis.sort_by_key(|e| (e.epoch, e.minor));
        let segs = ExtentTree::paint(&vis, offset, qend);
        Overlay {
            offset,
            qend,
            shape: Shape::Painted { segs, vis },
        }
    }

    /// The overlay of at most one candidate extent over `[offset, qend)`:
    /// the extent clipped to the query between at most two holes — unless
    /// it clips to nothing (a zero-length one inside the range), which
    /// leaves the range one hole, as painting would.
    fn of_one(extent: Option<&'a Extent>, offset: u64, qend: u64) -> Self {
        let clipped = extent.map(|e| (e, e.offset.max(offset), e.end().min(qend)));
        let shape = match clipped {
            Some((extent, start, end)) if start < end => Shape::One { extent, start, end },
            _ => Shape::Hole,
        };
        Overlay {
            offset,
            qend,
            shape,
        }
    }

    /// The query range as maximal contiguous segments in order. Holes
    /// appear as `data: None`.
    pub fn segs(&self) -> Vec<ReadSeg> {
        let hole = |offset, end: u64| ReadSeg {
            offset,
            len: end - offset,
            data: None,
        };
        match &self.shape {
            Shape::Hole if self.offset == self.qend => Vec::new(),
            Shape::Hole => vec![hole(self.offset, self.qend)],
            &Shape::One { extent, start, end } => {
                let data = extent.data.as_ref();
                let laid = [
                    hole(self.offset, start),
                    ReadSeg {
                        offset: start,
                        len: end - start,
                        data: data.map(|p| p.slice(start - extent.offset, end - start)),
                    },
                    hole(end, self.qend),
                ];
                laid.into_iter().filter(|s| s.len > 0).collect()
            }
            Shape::Painted { segs, vis } => {
                let seg = |s: &Seg| {
                    let data = s.src.and_then(|(i, off)| {
                        let stored = vis[i].data.as_ref();
                        stored.map(|p| p.slice(off, s.end - s.start))
                    });
                    ReadSeg {
                        offset: s.start,
                        len: s.end - s.start,
                        data,
                    }
                };
                segs.iter().map(seg).collect()
            }
        }
    }

    /// Verify the checksum of every stored extent that contributes at least
    /// one visible byte, in segment order. Each contributing extent is
    /// hashed over its *full* stored payload (the checksum covers the whole
    /// extent, not the visible slice). Returns the total number of payload
    /// bytes hashed, or the first violation found.
    pub fn verify(&self) -> Result<u64, CsumViolation> {
        let judge = |e: &Extent| match e.csum_ok() {
            true => Ok(e.len),
            false => Err(CsumViolation {
                offset: e.offset,
                len: e.len,
            }),
        };
        match &self.shape {
            Shape::Hole => Ok(0),
            Shape::One { extent, .. } => judge(extent),
            Shape::Painted { segs, vis } => {
                let contributors = || segs.iter().filter_map(|s| s.src).map(|(i, _)| i);
                let mut rest = contributors();
                match rest.next() {
                    None => Ok(0),
                    // one extent under every segment: nothing to dedupe
                    Some(i) if rest.all(|j| j == i) => judge(vis[i]),
                    Some(_) => {
                        let mut seen = vec![false; vis.len()];
                        contributors()
                            .filter(|&i| !std::mem::replace(&mut seen[i], true))
                            .try_fold(0, |bytes, i| Ok(bytes + judge(vis[i])?))
                    }
                }
            }
        }
    }
}

/// The epoch-versioned extent tree backing one array akey.
///
/// Kept as an insert-ordered vec; visibility queries overlay extents in
/// `(epoch, minor)` order. Real VOS uses an R-tree in persistent memory;
/// the semantics here are identical and the simulator charges index-update
/// costs separately via [`crate::VosTarget`].
#[derive(Clone, Debug, Default)]
pub struct ExtentTree {
    extents: Vec<Extent>,
    next_minor: u64,
    /// Interval index over `extents`, rebuilt lazily after mutations so
    /// write bursts don't pay per-insert maintenance.
    index: RefCell<ExtentIndex>,
}

/// Dense-id interval index: extent ids (indices into `extents`) sorted by
/// `(offset, id)`, and `bounds`, two arrays of that length end to end:
/// `starts[i]`, the offset of extent `by_start[i]`, then
/// `prefix_max_end[i]` = max `end()` over `by_start[0..=i]`. A range query
/// `[offset, qend)` then reduces to two binary searches over contiguous
/// arrays, no extent dereferenced: ids at positions `< lo` all end at or
/// before `offset` (prefix max is non-decreasing), ids at positions `>= hi`
/// all start at or beyond `qend` — only `by_start[lo..hi]` need be tested.
/// (One vector for both arrays keeps the tree, and with it every akey slot
/// of a dkey's map, the size it was with one array.)
#[derive(Clone, Debug, Default)]
struct ExtentIndex {
    by_start: Vec<u32>,
    bounds: Vec<u64>,
    dirty: bool,
}

impl ExtentTree {
    /// Empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a write of `data` at `offset` at `epoch`.
    pub fn insert(&mut self, offset: u64, epoch: Epoch, data: Payload) {
        let minor = self.next_minor;
        self.next_minor += 1;
        let csum = csum64(CSUM_SEED, &data);
        self.extents.push(Extent {
            offset,
            len: data.len(),
            epoch,
            minor,
            data: Some(data),
            csum,
        });
        self.index.borrow_mut().dirty = true;
    }

    /// Punch (logically zero) `[offset, offset+len)` at `epoch`.
    pub fn punch(&mut self, offset: u64, len: u64, epoch: Epoch) {
        let minor = self.next_minor;
        self.next_minor += 1;
        self.extents.push(Extent {
            offset,
            len,
            epoch,
            minor,
            data: None,
            csum: 0,
        });
        self.index.borrow_mut().dirty = true;
    }

    /// Number of stored extents (index size; drives media index cost).
    pub fn extent_count(&self) -> usize {
        self.extents.len()
    }

    /// Highest offset visible *as data* at `epoch` (array size). Punches
    /// count: truncating the tail shrinks the size.
    pub fn size_at(&self, epoch: Epoch) -> u64 {
        let span = self
            .extents
            .iter()
            .filter(|e| e.epoch <= epoch)
            .map(|e| e.end())
            .max()
            .unwrap_or(0);
        if span == 0 {
            return 0;
        }
        self.read(0, span, epoch)
            .iter()
            .rev()
            .find(|s| s.data.is_some())
            .map(|s| s.offset + s.len)
            .unwrap_or(0)
    }

    /// Maximum end offset over all stored extents visible at `epoch` — the
    /// address-space span a full scrub must cover (punches included: a
    /// punched region still has index entries to walk).
    pub fn span(&self, epoch: Epoch) -> u64 {
        self.extents
            .iter()
            .filter(|e| e.epoch <= epoch)
            .map(|e| e.end())
            .max()
            .unwrap_or(0)
    }

    /// Read `[offset, offset+len)` as of `epoch`, returning maximal
    /// contiguous segments in order. Holes appear as `data: None`.
    pub fn read(&self, offset: u64, len: u64, epoch: Epoch) -> Vec<ReadSeg> {
        self.overlay(offset, len, epoch).segs()
    }

    /// Verify the checksum of every stored extent that contributes at least
    /// one visible byte to `[offset, offset+len)` at `epoch`
    /// ([`Overlay::verify`]).
    pub fn verify_range(&self, offset: u64, len: u64, epoch: Epoch) -> Result<u64, CsumViolation> {
        self.overlay(offset, len, epoch).verify()
    }

    /// Fault injection: deterministically corrupt stored data extents,
    /// leaving their recorded checksums stale (that is the point — the rot
    /// is silent until a verify looks). Each data extent rots independently
    /// with probability `fraction_ppm` parts-per-million, decided by a hash
    /// of `seed` and the extent's identity. Returns the number of extents
    /// corrupted.
    pub fn inject_rot(&mut self, seed: u64, fraction_ppm: u32) -> u64 {
        let mut rotted = 0u64;
        for e in self.extents.iter_mut().filter(|e| e.data.is_some()) {
            let roll = crate::daos_splitmix(
                seed ^ e.minor.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (e.offset << 1) ^ e.epoch,
            ) % 1_000_000;
            if roll < fraction_ppm as u64 {
                e.data = e.data.as_ref().map(|p| p.corrupted());
                rotted += 1;
            }
        }
        rotted
    }

    /// Run `f` against an up-to-date interval index, rebuilding it first
    /// if mutations invalidated it. Rebuild is `O(n log n)` but amortized:
    /// a burst of inserts marks the index dirty once and the next query
    /// pays a single rebuild (and appends arrive nearly sorted, which
    /// `sort_unstable` handles in near-linear time).
    fn with_index<R>(&self, f: impl FnOnce(&ExtentIndex) -> R) -> R {
        let mut ix = self.index.borrow_mut();
        let ix = &mut *ix;
        if ix.dirty || ix.by_start.len() != self.extents.len() {
            ix.by_start.clear();
            ix.by_start.extend(0..self.extents.len() as u32);
            ix.by_start
                .sort_unstable_by_key(|&id| (self.extents[id as usize].offset, id));
            let sorted = || ix.by_start.iter().map(|&id| &self.extents[id as usize]);
            ix.bounds.clear();
            ix.bounds.extend(sorted().map(|e| e.offset));
            let mut m = 0u64;
            ix.bounds.extend(sorted().map(|e| {
                m = m.max(e.end());
                m
            }));
            ix.dirty = false;
        }
        f(ix)
    }

    /// Overlay the extents visible at `epoch` over `[offset, offset+len)`
    /// in `(epoch, minor)` order — the one pass behind [`read`](Self::read),
    /// [`verify_range`](Self::verify_range) and a verified fetch, which
    /// takes both answers from the same [`Overlay`].
    pub fn overlay(&self, offset: u64, len: u64, epoch: Epoch) -> Overlay<'_> {
        let qend = offset + len;
        let visible = |e: &&Extent| e.epoch <= epoch && e.end() > offset;
        // a tree of one extent (every chunk written once) answers without
        // an index: that extent, if it overlaps the range and is visible
        if self.extents.len() <= 1 {
            let only = self.extents.first().filter(|e| e.offset < qend);
            return Overlay::of_one(only.filter(visible), offset, qend);
        }
        // candidates come from the interval index, then the epoch/end
        // filters: the candidate *set* is identical to a full scan
        self.with_index(|ix| {
            let (starts, prefix_max_end) = ix.bounds.split_at(ix.by_start.len());
            let hi = starts.partition_point(|&start| start < qend);
            let lo = prefix_max_end[..hi].partition_point(|&m| m <= offset);
            let mut candidates = ix.by_start[lo..hi]
                .iter()
                .map(|&id| &self.extents[id as usize])
                .filter(visible);
            match (candidates.next(), candidates.next()) {
                (Some(a), Some(b)) => {
                    let vis = [a, b].into_iter().chain(candidates).collect();
                    Overlay::painted(vis, offset, qend)
                }
                (one, _) => Overlay::of_one(one, offset, qend),
            }
        })
    }

    /// The paint algorithm: lay `vis` (in overlay order) over `[offset, qend)`
    /// one extent at a time, newer over older, and coalesce what is left into
    /// maximal segments; `src` indices refer to `vis`.
    fn paint(vis: &[&Extent], offset: u64, qend: u64) -> Vec<Seg> {
        let mut segs = vec![Seg {
            start: offset,
            end: qend,
            src: None,
        }];
        for (i, e) in vis.iter().enumerate() {
            let (es, ee) = (e.offset.max(offset), e.end().min(qend));
            let mut out = Vec::with_capacity(segs.len() + 2);
            for s in segs.drain(..) {
                if s.end <= es || s.start >= ee {
                    out.push(s);
                    continue;
                }
                if s.start < es {
                    out.push(Seg {
                        start: s.start,
                        end: es,
                        src: s.src,
                    });
                }
                out.push(Seg {
                    start: s.start.max(es),
                    end: s.end.min(ee),
                    src: Some((i, s.start.max(es) - e.offset)),
                });
                if s.end > ee {
                    let adj = s.src.map(|(idx, off)| (idx, off + (ee - s.start)));
                    out.push(Seg {
                        start: ee,
                        end: s.end,
                        src: adj,
                    });
                }
            }
            segs = out;
            segs.sort_by_key(|s| s.start);
        }

        // coalesce fragments the paint loop split: adjacent pieces of the
        // same extent (continuous source offset) and adjacent holes
        let mut merged: Vec<Seg> = Vec::with_capacity(segs.len());
        for s in segs.into_iter().filter(|s| s.end > s.start) {
            if let Some(prev) = merged.last_mut() {
                let contiguous = prev.end == s.start
                    && match (&prev.src, &s.src) {
                        (None, None) => true,
                        (Some((pi, po)), Some((si, so))) => {
                            pi == si && po + (prev.end - prev.start) == *so
                        }
                        _ => false,
                    };
                if contiguous {
                    prev.end = s.end;
                    continue;
                }
            }
            merged.push(s);
        }
        merged
    }

    /// Flatten history at or below `upto`: replace all extents with epoch
    /// `<= upto` by the visible overlay at `upto` (epoch-tagged `upto`).
    /// Returns the number of extents reclaimed. This is VOS aggregation.
    ///
    /// Safety rule borrowed from real VOS: if any extent in the aggregation
    /// window fails its checksum, the pass aborts (returns 0) rather than
    /// re-hashing rotten bytes under a fresh checksum — aggregation must
    /// never launder silent corruption into "valid" data. The scrubber (or
    /// the next verified read) will find and repair it first.
    pub fn aggregate(&mut self, upto: Epoch) -> usize {
        let old: Vec<Extent> = self
            .extents
            .iter()
            .filter(|e| e.epoch <= upto)
            .cloned()
            .collect();
        if old.len() <= 1 {
            return 0;
        }
        if old.iter().any(|e| !e.csum_ok()) {
            return 0;
        }
        // the visible image over the old extents' full span
        #[expect(
            clippy::unwrap_used,
            reason = "INVARIANT: old.len() > 1 was checked above, so min() is Some"
        )]
        let lo = old.iter().map(|e| e.offset).min().unwrap();
        #[expect(
            clippy::unwrap_used,
            reason = "INVARIANT: same non-empty check covers max()"
        )]
        let hi = old.iter().map(|e| e.end()).max().unwrap();
        let image = self.read(lo, hi - lo, upto);
        let newer: Vec<Extent> = self.extents.drain(..).filter(|e| e.epoch > upto).collect();
        let reclaimed = old.len();
        let mut added = 0usize;
        for seg in image {
            if let Some(d) = seg.data {
                let minor = self.next_minor;
                self.next_minor += 1;
                let csum = csum64(CSUM_SEED, &d);
                self.extents.push(Extent {
                    offset: seg.offset,
                    len: seg.len,
                    epoch: upto,
                    minor,
                    data: Some(d),
                    csum,
                });
                added += 1;
            }
        }
        self.extents.extend(newer);
        self.index.borrow_mut().dirty = true;
        reclaimed.saturating_sub(added)
    }
}

/// Epoch log of whole-value updates for a single-value akey.
#[derive(Clone, Debug, Default)]
pub struct SingleValue {
    /// (epoch, value); `None` is a punch. Sorted by insertion (epochs
    /// monotone in practice; we search for the max `<=` query epoch).
    versions: Vec<(Epoch, Option<Payload>)>,
}

impl SingleValue {
    /// Empty value.
    pub fn new() -> Self {
        Self::default()
    }
    /// Record an update at `epoch`.
    pub fn update(&mut self, epoch: Epoch, value: Payload) {
        self.versions.push((epoch, Some(value)));
    }
    /// Punch at `epoch`.
    pub fn punch(&mut self, epoch: Epoch) {
        self.versions.push((epoch, None));
    }
    /// The value visible at `epoch`.
    pub fn fetch(&self, epoch: Epoch) -> Option<&Payload> {
        self.versions
            .iter()
            .filter(|(e, _)| *e <= epoch)
            .max_by_key(|(e, _)| *e)
            .and_then(|(_, v)| v.as_ref())
    }
    /// Number of retained versions.
    pub fn version_count(&self) -> usize {
        self.versions.len()
    }
    /// Drop superseded versions at or below `upto`.
    pub fn aggregate(&mut self, upto: Epoch) {
        let keep_latest = self
            .versions
            .iter()
            .enumerate()
            .filter(|(_, (e, _))| *e <= upto)
            .max_by_key(|(_, (e, _))| *e)
            .map(|(i, _)| i);
        if let Some(latest) = keep_latest {
            let mut i = 0;
            self.versions.retain(|(e, _)| {
                let keep = *e > upto || i == latest;
                i += 1;
                keep
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(tag: u64, len: u64) -> Payload {
        Payload::pattern(tag, len)
    }

    /// Naive model: a byte map, for differential testing.
    fn model_read(
        writes: &[(u64, Epoch, Vec<u8>)],
        off: u64,
        len: u64,
        epoch: Epoch,
    ) -> Vec<Option<u8>> {
        let mut img: Vec<Option<u8>> = vec![None; (off + len) as usize];
        for (woff, wep, data) in writes {
            if *wep > epoch {
                continue;
            }
            for (i, b) in data.iter().enumerate() {
                let pos = *woff as usize + i;
                if pos < img.len() {
                    img[pos] = Some(*b);
                }
            }
        }
        img[off as usize..].to_vec()
    }

    fn tree_read_bytes(t: &ExtentTree, off: u64, len: u64, epoch: Epoch) -> Vec<Option<u8>> {
        let mut out = vec![None; len as usize];
        for seg in t.read(off, len, epoch) {
            if let Some(d) = seg.data {
                let m = d.materialize();
                for i in 0..seg.len {
                    out[(seg.offset - off + i) as usize] = Some(m[i as usize]);
                }
            }
        }
        out
    }

    #[test]
    fn flatten_zeroes_holes_honours_base_and_clips() {
        let seg = |offset, len, seed: Option<u64>| ReadSeg {
            offset,
            len,
            data: seed.map(|s| payload(s, len)),
        };
        let segs = [
            seg(90, 20, Some(1)),
            seg(110, 10, None),
            seg(120, 30, Some(2)),
        ];
        let got = flatten(&segs, 100, 40);
        let (a, b) = (payload(1, 20).materialize(), payload(2, 30).materialize());
        assert_eq!(got[..10], a[10..], "first segment clipped at the base");
        assert_eq!(got[10..20], [0u8; 10], "holes read as zeroes");
        assert_eq!(got[20..], b[..20], "last segment clipped at the end");
        assert_eq!(seg(5, 3, None).rebased(4, 100).offset, 101);
    }

    #[test]
    fn simple_write_read_round_trip() {
        let mut t = ExtentTree::new();
        let p = payload(1, 100);
        t.insert(50, 1, p.clone());
        let segs = t.read(50, 100, 1);
        assert_eq!(segs.len(), 1);
        assert_eq!(
            segs[0].data.as_ref().unwrap().materialize(),
            p.materialize()
        );
        assert_eq!(t.size_at(1), 150);
        assert_eq!(t.size_at(0), 0);
    }

    #[test]
    fn read_before_epoch_sees_nothing() {
        let mut t = ExtentTree::new();
        t.insert(0, 5, payload(1, 10));
        let segs = t.read(0, 10, 4);
        assert_eq!(segs.len(), 1);
        assert!(segs[0].data.is_none());
    }

    #[test]
    fn newer_extent_shadows_older() {
        let mut t = ExtentTree::new();
        t.insert(0, 1, payload(1, 100));
        t.insert(25, 2, payload(2, 50));
        let img = tree_read_bytes(&t, 0, 100, 2);
        let old = payload(1, 100).materialize();
        let new = payload(2, 50).materialize();
        for i in 0..25 {
            assert_eq!(img[i], Some(old[i]));
        }
        for i in 25..75 {
            assert_eq!(img[i], Some(new[i - 25]));
        }
        for i in 75..100 {
            assert_eq!(img[i], Some(old[i]));
        }
        // as-of epoch 1 still sees the old data intact
        let img1 = tree_read_bytes(&t, 0, 100, 1);
        for i in 0..100 {
            assert_eq!(img1[i], Some(old[i]));
        }
    }

    #[test]
    fn same_epoch_later_minor_wins() {
        let mut t = ExtentTree::new();
        t.insert(0, 3, payload(1, 10));
        t.insert(0, 3, payload(2, 10));
        let img = tree_read_bytes(&t, 0, 10, 3);
        let want = payload(2, 10).materialize();
        for i in 0..10 {
            assert_eq!(img[i], Some(want[i]));
        }
    }

    #[test]
    fn punch_hides_then_overwrite_restores() {
        let mut t = ExtentTree::new();
        t.insert(0, 1, payload(1, 100));
        t.punch(20, 30, 2);
        let img = tree_read_bytes(&t, 0, 100, 2);
        for b in &img[20..50] {
            assert_eq!(*b, None);
        }
        assert_eq!(img[19], Some(payload(1, 100).materialize()[19]));
        t.insert(30, 3, payload(3, 10));
        let img3 = tree_read_bytes(&t, 25, 20, 3);
        assert_eq!(img3[0], None); // 25..30 still hole
        assert_eq!(img3[5], Some(payload(3, 10).materialize()[0]));
    }

    /// A zero-length extent inside the query contributes no byte: it must
    /// neither surface as an empty segment nor split the hole around it.
    #[test]
    fn zero_length_extent_leaves_one_hole() {
        for zero in [payload(1, 0), Payload::bytes(Vec::new())] {
            let mut t = ExtentTree::new();
            t.insert(50, 1, zero);
            let hole = ReadSeg {
                offset: 0,
                len: 100,
                data: None,
            };
            assert_eq!(t.read(0, 100, 1), vec![hole]);
            assert_eq!(t.verify_range(0, 100, 1), Ok(0));
        }
        let mut t = ExtentTree::new();
        t.punch(50, 0, 1);
        assert_eq!(t.read(0, 100, 1).len(), 1);
    }

    /// With at most one candidate extent `overlay` answers without
    /// painting, and a tree of one extent without an index; the answer —
    /// segments and verdict — is the painted one for a data extent, a
    /// rotten one, a punch and a zero-length one, at every query that
    /// starts or ends before, on, inside and beyond it.
    #[test]
    fn single_extent_shortcut_equals_the_paint_path() {
        let mut data = ExtentTree::new();
        data.insert(10, 2, payload(7, 10));
        let mut rotten = data.clone();
        rotten.inject_rot(1, 1_000_000);
        let mut punch = ExtentTree::new();
        punch.punch(10, 10, 2);
        let mut zero = ExtentTree::new();
        zero.insert(10, 2, payload(7, 0));
        for t in [data, rotten, punch, zero] {
            for (offset, len, epoch) in (0..25)
                .flat_map(|o| (0..25).map(move |l| (o, l)))
                .flat_map(|(o, l)| [1, 2].map(|e| (o, l, e)))
            {
                let qend = offset + len;
                let got = t.overlay(offset, len, epoch);
                assert!(!matches!(got.shape, Shape::Painted { .. }));
                let scan = t.extents.iter();
                let vis = scan.filter(|e| e.epoch <= epoch && e.offset < qend && e.end() > offset);
                let want = Overlay::painted(vis.collect(), offset, qend);
                let at = format!("[{offset}, +{len}) at epoch {epoch}");
                assert_eq!(got.segs(), want.segs(), "{at}");
                assert_eq!(got.verify(), want.verify(), "{at}");
            }
            let ix = t.index.borrow();
            assert!(
                ix.by_start.is_empty() && ix.bounds.is_empty(),
                "no index built"
            );
        }
    }

    /// A painted overlay under which one extent shows is judged once, the
    /// same as that extent alone; two that show are judged in segment
    /// order, each over its full length.
    #[test]
    fn painted_verify_judges_each_contributor_once() {
        let mut t = ExtentTree::new();
        t.insert(0, 1, payload(1, 100));
        t.insert(20, 1, payload(2, 10));
        t.insert(0, 2, payload(3, 100));
        assert_eq!(t.verify_range(0, 100, 2), Ok(100), "the newest covers all");
        assert_eq!(t.verify_range(0, 100, 1), Ok(110), "split old, then new");
        t.inject_rot(5, 1_000_000);
        let first = CsumViolation {
            offset: 0,
            len: 100,
        };
        assert_eq!(t.verify_range(0, 100, 1), Err(first));
        assert_eq!(
            t.verify_range(25, 10, 1),
            Err(CsumViolation {
                offset: 20,
                len: 10
            })
        );
    }

    #[test]
    fn differential_random_overlay() {
        // hand-rolled xorshift for reproducibility
        let mut s = 0x12345u64;
        let mut rnd = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut t = ExtentTree::new();
        let mut writes: Vec<(u64, Epoch, Vec<u8>)> = Vec::new();
        for ep in 1..=40u64 {
            let off = rnd() % 200;
            let len = 1 + rnd() % 60;
            let p = Payload::pattern(ep, len);
            writes.push((off, ep, p.materialize().to_vec()));
            t.insert(off, ep, p);
        }
        for q in [0u64, 10, 20, 40] {
            let img = tree_read_bytes(&t, 0, 260, q);
            let want = model_read(&writes, 0, 260, q);
            assert_eq!(img, want, "mismatch at epoch {q}");
        }
    }

    #[test]
    fn aggregation_preserves_visible_image_and_reclaims() {
        let mut t = ExtentTree::new();
        // growing rewrites of the same region: the last one shadows all
        for ep in 1..=20u64 {
            t.insert(0, ep, payload(ep, 30 + ep));
        }
        let before = tree_read_bytes(&t, 0, 100, 20);
        let n_before = t.extent_count();
        let reclaimed = t.aggregate(20);
        let after = tree_read_bytes(&t, 0, 100, 20);
        assert_eq!(before, after);
        assert!(t.extent_count() < n_before);
        assert!(reclaimed > 0);
    }

    #[test]
    fn aggregation_keeps_newer_epochs_untouched() {
        let mut t = ExtentTree::new();
        t.insert(0, 1, payload(1, 50));
        t.insert(10, 2, payload(2, 20));
        t.insert(0, 10, payload(10, 5));
        t.aggregate(2);
        let img10 = tree_read_bytes(&t, 0, 50, 10);
        let want10 = {
            let mut v = payload(1, 50).materialize().to_vec();
            let p2 = payload(2, 20).materialize();
            v[10..30].copy_from_slice(&p2);
            let p10 = payload(10, 5).materialize();
            v[0..5].copy_from_slice(&p10);
            v
        };
        for i in 0..50 {
            assert_eq!(img10[i], Some(want10[i]));
        }
    }

    #[test]
    fn verify_range_clean_after_interleaved_ops() {
        let mut t = ExtentTree::new();
        t.insert(0, 1, payload(1, 100));
        t.punch(20, 30, 2);
        t.insert(30, 3, payload(3, 10));
        t.aggregate(2);
        t.insert(90, 4, payload(4, 40));
        for q in [1u64, 2, 3, 4] {
            let span = t.span(q);
            if span > 0 {
                assert!(t.verify_range(0, span, q).is_ok(), "epoch {q}");
            }
        }
        // bytes hashed counts full extents, not just visible slices
        let n = t.verify_range(0, t.span(4), 4).unwrap();
        assert!(n > 0);
    }

    #[test]
    fn inject_rot_is_detected_and_locatable() {
        let mut t = ExtentTree::new();
        t.insert(0, 1, payload(1, 64));
        t.insert(64, 1, payload(2, 64));
        // 100% rot corrupts every data extent
        let n = t.inject_rot(0xDEAD, 1_000_000);
        assert_eq!(n, 2);
        let v = t.verify_range(0, 128, 1).unwrap_err();
        assert!(v.len == 64);
        // reads still "succeed" (rot is silent at the tree level); the
        // returned bytes differ from the originals
        let segs = t.read(0, 64, 1);
        assert_ne!(
            segs[0].data.as_ref().unwrap().materialize(),
            payload(1, 64).materialize()
        );
    }

    #[test]
    fn rot_only_hits_requested_fraction_deterministically() {
        let mk = || {
            let mut t = ExtentTree::new();
            for i in 0..100u64 {
                t.insert(i * 10, 1, payload(i, 10));
            }
            t
        };
        let mut a = mk();
        let mut b = mk();
        let na = a.inject_rot(42, 100_000); // ~10%
        let nb = b.inject_rot(42, 100_000);
        assert_eq!(na, nb, "injection must be deterministic");
        assert!(na > 0 && na < 100, "fraction should be partial, got {na}");
    }

    #[test]
    fn aggregation_refuses_to_launder_rot() {
        let mut t = ExtentTree::new();
        for ep in 1..=5u64 {
            t.insert(0, ep, payload(ep, 40));
        }
        t.inject_rot(7, 1_000_000);
        let n = t.extent_count();
        assert_eq!(t.aggregate(5), 0, "aggregation must abort on bad csum");
        assert_eq!(t.extent_count(), n, "tree untouched after abort");
        assert!(t.verify_range(0, 40, 5).is_err(), "rot stays detectable");
    }

    #[test]
    fn aggregated_extents_carry_fresh_valid_csums() {
        let mut t = ExtentTree::new();
        for ep in 1..=10u64 {
            t.insert(0, ep, payload(ep, 50 + ep));
        }
        assert!(t.aggregate(10) > 0);
        let span = t.span(10);
        assert!(t.verify_range(0, span, 10).is_ok());
    }

    #[test]
    fn single_value_epochs() {
        let mut sv = SingleValue::new();
        sv.update(5, payload(1, 8));
        sv.update(9, payload(2, 8));
        assert!(sv.fetch(4).is_none());
        assert_eq!(
            sv.fetch(5).unwrap().materialize(),
            payload(1, 8).materialize()
        );
        assert_eq!(
            sv.fetch(100).unwrap().materialize(),
            payload(2, 8).materialize()
        );
        sv.punch(12);
        assert!(sv.fetch(12).is_none());
        assert!(sv.fetch(11).is_some());
    }

    #[test]
    fn single_value_aggregate() {
        let mut sv = SingleValue::new();
        for e in 1..=10 {
            sv.update(e, payload(e, 4));
        }
        sv.aggregate(8);
        assert_eq!(
            sv.fetch(8).unwrap().materialize(),
            payload(8, 4).materialize()
        );
        assert_eq!(
            sv.fetch(10).unwrap().materialize(),
            payload(10, 4).materialize()
        );
        assert!(sv.version_count() <= 3);
    }
}
