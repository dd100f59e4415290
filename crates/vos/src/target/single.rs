//! Single-value akeys: a whole value per epoch, replaced on update.

use daos_sim::Sim;

use super::{akey_at, AkeyStore, ContId, ObjKey, Shape, VosError, VosTarget};
use crate::{Epoch, Payload};

impl VosTarget {
    /// Upsert a single-value akey.
    pub async fn update_single(
        &self,
        sim: &Sim,
        cid: ContId,
        oid: ObjKey,
        dkey: &[u8],
        akey: &[u8],
        epoch: Epoch,
        value: Payload,
    ) -> Result<(), VosError> {
        let len = value.len();
        let ops = {
            let mut conts = self.containers.borrow_mut();
            let (ak, ops) = self.upsert(&mut conts, (cid, oid, dkey, akey), Shape::Single)?;
            // `upsert` refused every other shape
            if let AkeyStore::Single(sv) = ak {
                sv.update(epoch, value);
            }
            // and the value's own record
            ops + 1
        };
        self.charge_update(sim, len, ops).await;
        Ok(())
    }

    /// Read a single-value akey as of `epoch`.
    pub async fn fetch_single(
        &self,
        sim: &Sim,
        cid: ContId,
        oid: ObjKey,
        dkey: &[u8],
        akey: &[u8],
        epoch: Epoch,
    ) -> Result<Option<Payload>, VosError> {
        let val = {
            let conts = self.containers.borrow();
            let ak = akey_at(&conts, (cid, oid, dkey, akey), epoch);
            let sv = ak.map(AkeyStore::single).transpose()?;
            sv.and_then(|sv| sv.fetch(epoch).cloned())
        };
        let bytes = val.as_ref().map(|v| v.len()).unwrap_or(0);
        self.charge_fetch(sim, bytes).await;
        if bytes > 0 {
            self.media.read_payload(sim, bytes).await;
        }
        Ok(val)
    }
}
