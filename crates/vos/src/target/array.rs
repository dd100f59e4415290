//! Byte-array akeys: extent update, fetch, punch, and the array-size query.

use daos_media::Device;
use daos_sim::Sim;

use super::{akey_at, object_at, AkeyStore, ContId, ObjKey, Shape, VosError, VosTarget};
use crate::tree::{ReadSeg, Segs};
use crate::{Epoch, Key, Payload};

impl VosTarget {
    /// Write `data` into an array akey at `offset` with epoch `epoch`.
    ///
    /// Returns the number of index ops charged (for tests/ablation), or
    /// [`VosError::AkeyKind`] if the akey holds a single value.
    pub async fn update_array(
        &self,
        sim: &Sim,
        cid: ContId,
        oid: ObjKey,
        dkey: &[u8],
        akey: &[u8],
        offset: u64,
        epoch: Epoch,
        data: Payload,
    ) -> Result<u64, VosError> {
        let len = data.len();
        let ops = {
            let mut conts = self.containers.borrow_mut();
            let (ak, mut ops) = self.upsert(&mut conts, (cid, oid, dkey, akey), Shape::Array)?;
            // `upsert` refused every other shape
            if let AkeyStore::Array { tree, last_end } = ak {
                ops += if offset == *last_end {
                    self.cfg.extent_append_ops
                } else {
                    self.cfg.extent_cold_ops
                };
                tree.insert(offset, epoch, data);
                *last_end = offset + len;
            }
            ops
        };
        self.charge_update(sim, len, ops).await;
        Ok(ops)
    }

    /// Read `[offset, offset+len)` from an array akey as of `epoch`,
    /// verifying the checksum of every stored extent the read touches
    /// (when `csum_enabled`). A violation still charges the media time the
    /// failed read consumed — the bytes were read before the hash disagreed.
    pub async fn fetch_array(
        &self,
        sim: &Sim,
        cid: ContId,
        oid: ObjKey,
        dkey: &[u8],
        akey: &[u8],
        offset: u64,
        len: u64,
        epoch: Epoch,
    ) -> Result<Segs, VosError> {
        let (segs, violation) = {
            let conts = self.containers.borrow();
            let ak = akey_at(&conts, (cid, oid, dkey, akey), epoch);
            match ak.map(AkeyStore::array).transpose()? {
                Some(tree) => {
                    // one pass, in the target's scratch: the bytes and the
                    // verdict on them
                    let mut scratch = self.scratch.borrow_mut();
                    let mut overlay = tree.overlay(offset, len, epoch, &mut scratch);
                    let verdict = self.cfg.csum_enabled.then(|| overlay.verify());
                    (overlay.segs(), verdict.and_then(Result::err))
                }
                None => {
                    let hole = ReadSeg {
                        offset,
                        len,
                        data: None,
                    };
                    (Segs::One(hole), None)
                }
            }
        };
        let data_bytes = segs.data_bytes();
        if violation.is_some() {
            self.counters.borrow_mut().csum_mismatches += 1;
        }
        self.charge_fetch(sim, data_bytes).await;
        self.media.read_payload(sim, data_bytes).await;
        match violation {
            Some(v) => Err(VosError::Csum(v)),
            None => Ok(segs),
        }
    }

    /// Punch (logically zero) a byte range of an array akey at `epoch`.
    pub async fn punch_array(
        &self,
        sim: &Sim,
        cid: ContId,
        oid: ObjKey,
        dkey: &[u8],
        akey: &[u8],
        offset: u64,
        len: u64,
        epoch: Epoch,
    ) -> Result<(), VosError> {
        {
            let mut conts = self.containers.borrow_mut();
            if let Some(ak) = conts
                .get_mut(&cid)
                .and_then(|c| c.objects.get_mut(&oid))
                .and_then(|o| o.dkeys.get_mut(dkey))
                .and_then(|d| d.akey_mut(akey))
            {
                match ak {
                    AkeyStore::Array { tree, .. } => tree.punch(offset, len, epoch),
                    AkeyStore::Single(_) => return Err(Shape::Array.refused()),
                }
            }
        }
        self.media.index_update(sim, self.cfg.extent_cold_ops).await;
        Ok(())
    }

    /// For array objects: the highest dkey on this target and the visible
    /// byte size within it (array-size queries; the client combines across
    /// shards knowing the chunk size). Charges one index read.
    pub async fn array_max_chunk(
        &self,
        sim: &Sim,
        cid: ContId,
        oid: ObjKey,
        akey: &[u8],
        epoch: Epoch,
    ) -> Option<(Key, u64)> {
        let out = {
            let conts = self.containers.borrow();
            let mut scratch = self.scratch.borrow_mut();
            object_at(&conts, cid, oid, epoch).and_then(|o| {
                o.dkeys.iter().rev().find_map(|(dk, d)| {
                    let sz = d.akey(akey)?.array().ok()?.size_at(epoch, &mut scratch);
                    (sz > 0).then(|| (dk.clone(), sz))
                })
            })
        };
        self.media.scm().read(sim, self.cfg.fetch_index_bytes).await;
        out
    }
}
