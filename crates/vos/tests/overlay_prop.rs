//! Property test for the one-pass fetch: over random extent trees —
//! overlapping and nested writes, punches, zero-length records, several
//! epochs in any order, rot injected part-way — one [`ExtentTree::overlay`]
//! yields the segments of `read` (and, without building them, where their
//! last data segment ends) and the verdict of `verify_range`, and both
//! equal a byte-by-byte model that knows nothing of painting or of
//! the shortcut `overlay` takes when it sees at most one extent — and that
//! shortcut answers every query as painting the same record does. Queries
//! start and end on every extent edge, one byte either side, and beyond
//! the span.

use daos_vos::tree::{CsumViolation, ExtentTree, ReadSeg, Scratch, Segs};
use daos_vos::{csum64, Epoch, Payload, CSUM_SEED};
use proptest::prelude::*;

const ARENA: u64 = 160;
const EPOCHS: Epoch = 4;
/// Queries reach this far: past every record's end.
const BEYOND: u64 = ARENA + 10;

/// One record as the model keeps it: `data` is what the tree stores now
/// (`None` for a punch), `rotten` whether it no longer matches the
/// checksum taken at insert.
struct Rec {
    offset: u64,
    len: u64,
    epoch: Epoch,
    data: Option<Payload>,
    rotten: bool,
}

/// The record each byte of the arena shows at `epoch`: the covering one
/// with the greatest `(epoch, insertion index)`.
fn owners(recs: &[Rec], epoch: Epoch) -> Vec<Option<usize>> {
    let owner = |p: u64| {
        let visible = recs.iter().enumerate().filter(|(_, r)| r.epoch <= epoch);
        let covering = visible.filter(|(_, r)| r.offset <= p && p < r.offset + r.len);
        covering.max_by_key(|(i, r)| (r.epoch, *i)).map(|(i, _)| i)
    };
    (0..BEYOND).map(owner).collect()
}

/// What a verified fetch of `[offset, offset + owners.len())` must answer,
/// from the byte model (`owners` is that window of [`owners`]): maximal
/// runs of one owner as segments, and the verdict over the owners in run
/// order, each judged once over its full stored length.
fn model(
    recs: &[Rec],
    owners: &[Option<usize>],
    offset: u64,
) -> (Segs, Result<u64, CsumViolation>) {
    let mut segs = Segs::default();
    let mut verdict = Ok(0);
    let mut judged = vec![false; recs.len()];
    let mut at = 0;
    while at < owners.len() {
        let run = owners[at..]
            .iter()
            .take_while(|o| **o == owners[at])
            .count();
        let start = offset + at as u64;
        let stored = owners[at].map(|i| &recs[i]);
        let data = stored.and_then(|r| Some(r.data.as_ref()?.slice(start - r.offset, run as u64)));
        segs.extend([ReadSeg {
            offset: start,
            len: run as u64,
            data,
        }]);
        if let (Some(i), Ok(bytes)) = (owners[at], verdict) {
            if !std::mem::replace(&mut judged[i], true) {
                let r = &recs[i];
                verdict = match r.rotten {
                    true => Err(CsumViolation {
                        offset: r.offset,
                        len: r.len,
                    }),
                    false => Ok(bytes + r.len),
                };
            }
        }
        at += run;
    }
    (segs, verdict)
}

/// The payload of record kind `kind`: 0 punches, 1 writes literal bytes,
/// 2-3 write a pattern.
fn payload(kind: u8, seed: u64, len: u64) -> Option<Payload> {
    match kind {
        0 => None,
        1 => Some(Payload::bytes(Payload::pattern(seed, len).materialize())),
        _ => Some(Payload::pattern(seed, len)),
    }
}

/// Every query edge for records `recs`: each record's ends, one byte
/// either side, the arena's start and past every end.
fn edges(recs: &[Rec]) -> Vec<u64> {
    let mut edges: Vec<u64> = recs
        .iter()
        .flat_map(|r| [r.offset, r.offset + r.len])
        .flat_map(|e| [e.saturating_sub(1), e, e + 1])
        .chain([0, BEYOND])
        .collect();
    edges.sort_unstable();
    edges.dedup();
    edges
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The shortcut for a query with at most one candidate extent, against
    /// painting: `alone` holds one record, `twin` holds the same record
    /// over an older one inside its range (written first in the same
    /// epoch, so it shows nowhere), which every query touching both must
    /// paint. Both trees read and verify alike, and as the byte model says,
    /// for data, literal, punched, zero-length and rotten records.
    #[test]
    fn the_one_extent_shortcut_answers_as_painting_does(
        // (offset, len, payload seed, kind) of the record that shows
        rec in (0u64..ARENA - 40, 0u64..40, any::<u64>(), 0u8..4),
        // where in it the shadowed record starts, its length, its kind
        under in (any::<u64>(), any::<u64>(), 0u8..4),
        rot in any::<bool>(),
    ) {
        let ((offset, len, seed, kind), (under_at, under_len, under_kind)) = (rec, under);
        let under_off = offset + under_at % (len + 1);
        let under_len = under_len % (offset + len - under_off + 1);
        let (mut alone, mut twin) = (ExtentTree::new(), ExtentTree::new());
        let under = payload(under_kind, !seed, under_len);
        match under {
            Some(p) => twin.insert(under_off, 2, p),
            None => twin.punch(under_off, under_len, 2),
        }
        let data = payload(kind, seed, len);
        for t in [&mut alone, &mut twin] {
            match &data {
                Some(p) => t.insert(offset, 2, p.clone()),
                None => t.punch(offset, len, 2),
            }
            if rot {
                t.inject_rot(seed, 1_000_000);
            }
        }
        let rotten = rot && data.as_ref().is_some_and(|p| {
            csum64(CSUM_SEED, &p.corrupted()) != csum64(CSUM_SEED, p)
        });
        let data = data.map(|p| if rot { p.corrupted() } else { p });
        let recs = [Rec { offset, len, epoch: 2, data, rotten }];
        let edges = edges(&recs);
        let (mut alone_scratch, mut twin_scratch) = (Scratch::default(), Scratch::default());
        for epoch in 0..=3 {
            let owners = owners(&recs, epoch);
            for (i, &start) in edges.iter().enumerate() {
                for &end in &edges[i..] {
                    let mut a = alone.overlay(start, end - start, epoch, &mut alone_scratch);
                    let mut t = twin.overlay(start, end - start, epoch, &mut twin_scratch);
                    let shortcut = (a.segs(), a.verify());
                    prop_assert_eq!(&shortcut, &(t.segs(), t.verify()), "[{}, {}) at epoch {}", start, end, epoch);
                    let want = model(&recs, &owners[start as usize..end as usize], start);
                    prop_assert_eq!(&shortcut, &want, "[{}, {}) at epoch {}", start, end, epoch);
                }
            }
        }
    }

    #[test]
    fn one_overlay_pass_equals_read_plus_verify_and_the_byte_model(
        ops in prop::collection::vec(
            // (offset, len, epoch, payload seed, kind): kind 0 punches,
            // 1 writes literal bytes, 2-3 write a pattern
            (0u64..ARENA - 40, 0u64..40, 1..=EPOCHS, any::<u64>(), 0u8..4),
            1..12,
        ),
        rot_after in 0usize..12,
    ) {
        let mut tree = ExtentTree::new();
        let mut recs = Vec::new();
        for (n, &(offset, len, epoch, seed, kind)) in ops.iter().enumerate() {
            if n == rot_after {
                // every data record so far rots; later ones stay clean
                tree.inject_rot(seed, 1_000_000);
                for r in &mut recs {
                    let Rec { data: Some(p), rotten, .. } = r else { continue };
                    let rot = p.corrupted();
                    *rotten = csum64(CSUM_SEED, &rot) != csum64(CSUM_SEED, p);
                    *p = rot;
                }
            }
            let data = payload(kind, seed, len);
            match &data {
                Some(p) => tree.insert(offset, epoch, p.clone()),
                None => tree.punch(offset, len, epoch),
            }
            recs.push(Rec { offset, len, epoch, data, rotten: false });
        }

        let edges = edges(&recs);
        let mut scratch = Scratch::default();
        for epoch in 0..=EPOCHS {
            let owners = owners(&recs, epoch);
            for (i, &start) in edges.iter().enumerate() {
                for &end in &edges[i..] {
                    let len = end - start;
                    let mut overlay = tree.overlay(start, len, epoch, &mut scratch);
                    let one_pass = (overlay.segs(), overlay.verify());
                    // a size query's answer, read off without the segments
                    let data_end = one_pass.0.iter().rev().find(|s| s.data.is_some());
                    prop_assert_eq!(overlay.data_end(), data_end.map_or(0, |s| s.offset + s.len));
                    let two_pass = (tree.read(start, len, epoch), tree.verify_range(start, len, epoch, &mut scratch));
                    prop_assert_eq!(&one_pass, &two_pass);
                    let want = model(&recs, &owners[start as usize..end as usize], start);
                    prop_assert_eq!(&one_pass, &want, "[{}, {}) at epoch {}", start, end, epoch);
                }
            }
        }
    }
}
