//! Whole-target passes: aggregation, the incremental scrubber and bit-rot
//! injection. Each visits akeys in the one key order of `walk`.

use daos_media::Device;
use daos_sim::Sim;

use super::{akey_at, walk, AkeyStore, ContId, ScrubFinding, ScrubReport, VosTarget};
use crate::Epoch;

impl VosTarget {
    /// Run aggregation over every array akey in `cid` up to `epoch`;
    /// returns reclaimed extent count. (Background service; instantaneous
    /// in sim time — the paper's runs do not overlap aggregation windows.)
    pub fn aggregate(&self, cid: ContId, epoch: Epoch) -> usize {
        let mut conts = self.containers.borrow_mut();
        let mut scratch = self.scratch.borrow_mut();
        walk(conts.range_mut(cid..=cid), None, false)
            .map(|(_, _, ak)| match ak {
                AkeyStore::Array { tree, .. } => tree.aggregate(epoch, &mut scratch),
                AkeyStore::Single(sv) => {
                    sv.aggregate(epoch);
                    0
                }
            })
            .sum()
    }

    /// One incremental scrub step: resume from the persistent cursor, walk
    /// up to `budget` array akeys (chunks) verifying every visible extent's
    /// checksum, and charge media read time for the bytes hashed — the
    /// scrubber competes with foreground I/O for media bandwidth, which is
    /// the cost the scrub-rate knob trades against detection latency.
    ///
    /// Punched objects are skipped (their data is no longer visible);
    /// single-value akeys are covered by wire checksums at the engine
    /// boundary, not stored ones, so the scrubber skips them too.
    pub async fn scrub_step(&self, sim: &Sim, budget: usize) -> ScrubReport {
        // Snapshot the coordinates of the next `budget` chunks after the
        // cursor (borrows must not be held across awaits).
        let (items, wrapped) = {
            let mut conts = self.containers.borrow_mut();
            let cursor = self.scrub_cursor.borrow();
            let after = cursor.as_ref().map(|(c, o, d, a)| (*c, *o, &d[..], &a[..]));
            let mut todo = walk(conts.range_mut(after.map_or(0, |a| a.0)..), after, true)
                .filter(|(.., ak)| ak.array().is_ok());
            // in the batch buffer the last step left, so a warm scrubber
            // allocates nothing
            let mut items = std::mem::take(&mut *self.scrub_batch.borrow_mut());
            items.clear();
            items.reserve(budget);
            let batch = todo.by_ref().take(budget);
            items.extend(batch.map(|((c, o, d, a), ..)| (c, o, d.clone(), a.clone())));
            // the pass is done when no work remains past this batch
            (items, todo.next().is_none())
        };
        let mut report = ScrubReport::default();
        for (cid, oid, dkey, akey) in &items {
            // Re-resolve each chunk: it may have been punched or dropped
            // while an earlier iteration awaited media time.
            let outcome = {
                let conts = self.containers.borrow();
                let mut scratch = self.scratch.borrow_mut();
                akey_at(&conts, (*cid, *oid, dkey, akey), Epoch::MAX).and_then(|ak| {
                    let tree = ak.array().ok()?;
                    let span = tree.span(Epoch::MAX);
                    let verdict = tree.verify_range(0, span, Epoch::MAX, &mut scratch);
                    Some((verdict, span))
                })
            };
            let Some((result, span)) = outcome else {
                continue;
            };
            self.media.scm().read(sim, self.cfg.fetch_index_bytes).await;
            report.chunks += 1;
            match result {
                Ok(bytes) => {
                    self.media.read_payload(sim, bytes).await;
                    report.bytes += bytes;
                }
                Err(v) => {
                    // a failed pass still read the chunk before disagreeing
                    self.media.read_payload(sim, span).await;
                    report.bytes += span;
                    report.findings.push(ScrubFinding {
                        cid: *cid,
                        oid: *oid,
                        dkey: dkey.clone(),
                        akey: akey.clone(),
                        offset: v.offset,
                        len: v.len,
                    });
                }
            }
        }
        {
            let mut c = self.counters.borrow_mut();
            c.scrub_chunks += report.chunks;
            c.scrub_bytes += report.bytes;
            c.csum_mismatches += report.findings.len() as u64;
        }
        *self.scrub_cursor.borrow_mut() = if wrapped { None } else { items.last().cloned() };
        *self.scrub_batch.borrow_mut() = items;
        report.wrapped = wrapped;
        report
    }

    /// Fault injection: silently corrupt stored array extents across the
    /// whole target. Each data extent rots independently with probability
    /// `fraction_ppm` parts-per-million (deterministic in `seed`). Stored
    /// checksums are left stale — that is the definition of silent
    /// corruption. Returns the number of extents corrupted.
    pub fn inject_bit_rot(&self, fraction_ppm: u32, seed: u64) -> u64 {
        fn mix(mut h: u64, bytes: &[u8]) -> u64 {
            for &b in bytes {
                h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
            h
        }
        let mut rotted = 0u64;
        for ((cid, oid, dkey, akey), _, ak) in
            walk(self.containers.borrow_mut().iter_mut(), None, false)
        {
            if let AkeyStore::Array { tree, .. } = ak {
                let s = seed ^ cid ^ (oid as u64) ^ ((oid >> 64) as u64);
                rotted += tree.inject_rot(mix(mix(s, dkey), akey), fraction_ppm);
            }
        }
        self.counters.borrow_mut().extents_rotted += rotted;
        rotted
    }
}
