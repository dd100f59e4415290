//! The service half of the request pipeline, run while holding the
//! xstream permit: the per-RPC CPU/copy/checksum charge, then the VOS
//! operation itself behind the engine's stream window and bulk pipes.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;

use daos_placement::ObjectId;
use daos_sim::Sim;
use daos_vos::target::ObjKey;
use daos_vos::{Payload, VosTarget};

use super::Engine;
use crate::proto::{wire_csum, wire_csum_segs, DaosError, Request, Response};

/// The key VOS files an object under.
pub(super) fn oid_key(oid: ObjectId) -> ObjKey {
    ((oid.hi as u128) << 64) | oid.lo as u128
}

/// Inverse of [`oid_key`].
pub(super) fn key_oid(key: ObjKey) -> ObjectId {
    ObjectId::new((key >> 64) as u64, key as u64)
}

/// The engine-wide stream window: the most recently written/read
/// objects, standing in for DCPMM write-combining plus the DRAM VOS-tree
/// cache (see [`super::EngineConfig::stream_lru`]). Volatile — a crash
/// empties it.
pub(super) struct StreamWindow {
    /// Least recently touched first.
    lru: RefCell<VecDeque<(u64, ObjKey)>>,
    capacity: usize,
    misses: Cell<u64>,
    hits: Cell<u64>,
}

impl StreamWindow {
    pub(super) fn new(capacity: usize) -> Self {
        StreamWindow {
            lru: RefCell::new(VecDeque::new()),
            capacity,
            misses: Cell::new(0),
            hits: Cell::new(0),
        }
    }

    /// Touch an object; returns true on a locality miss.
    pub(super) fn touch(&self, cont: u64, oid: ObjectId) -> bool {
        let key = (cont, oid_key(oid));
        let mut lru = self.lru.borrow_mut();
        if let Some(pos) = lru.iter().position(|&k| k == key) {
            lru.remove(pos);
            lru.push_back(key);
            self.hits.set(self.hits.get() + 1);
            return false;
        }
        lru.push_back(key);
        if lru.len() > self.capacity {
            lru.pop_front();
        }
        self.misses.set(self.misses.get() + 1);
        true
    }

    pub(super) fn clear(&self) {
        self.lru.borrow_mut().clear();
    }

    /// `(misses, hits)` so far.
    pub(super) fn stats(&self) -> (u64, u64) {
        (self.misses.get(), self.hits.get())
    }
}

impl Engine {
    /// What one RPC costs its xstream before the VOS op runs: the fixed
    /// parse/dispatch/complete cost, then CPU proportional to payload.
    pub(super) async fn charge(&self, sim: &Sim, copy_bytes: u64) {
        sim.sleep(self.cfg.rpc_cpu).await;
        if copy_bytes > 0 {
            sim.sleep_ns(self.cfg.xstream_copy_bw.ns_for(copy_bytes))
                .await;
            // checksum engine: hash every payload byte once on the
            // serving xstream (verify-on-write / csum-on-fetch)
            if self.cfg.vos.csum_enabled {
                sim.sleep_ns(self.cfg.csum_bw.ns_for(copy_bytes)).await;
            }
        }
    }

    /// Roll the in-flight corruption dice for one frame.
    fn frame_torn(&self, sim: &Sim) -> bool {
        let ppm = self.corrupt_ppm.get();
        ppm > 0 && sim.rand_below(1_000_000) < ppm as u64
    }

    /// Verify-on-write: the bulk may tear in flight (fault injection),
    /// and re-hashing what arrived against the sender's checksum is what
    /// keeps torn frames off media — reject before anything is committed.
    fn received(&self, sim: &Sim, payload: Payload, csum: u64) -> Result<Payload, DaosError> {
        let payload = if self.frame_torn(sim) {
            payload.corrupted()
        } else {
            payload
        };
        if self.cfg.vos.csum_enabled && wire_csum(&payload) != csum {
            return Err(DaosError::CorruptFrame);
        }
        Ok(payload)
    }

    /// Execute a request addressed to one target ([`Request::target`]):
    /// an array or single-value update or fetch. VOS failures (csum
    /// violations, akey-shape mismatches) surface as their typed
    /// [`DaosError`] twins.
    pub(super) async fn exec_target(
        &self,
        sim: &Sim,
        target: &VosTarget,
        req: &Request,
    ) -> Result<Response, DaosError> {
        let cfg = &self.cfg;
        Ok(match *req {
            Request::UpdateArray {
                cont,
                oid,
                ref dkey,
                ref akey,
                offset,
                ref data,
                csum,
                ..
            } => {
                if self.window.touch(cont, oid) {
                    // WPQ flush + cold-tree stall
                    sim.sleep(cfg.write_miss_stall).await;
                }
                self.bulk_write.transfer(sim, data.len()).await;
                let data = self.received(sim, data.clone(), csum)?;
                let epoch = target.next_epoch_at(sim.now().as_ns());
                target
                    .update_array(sim, cont, oid_key(oid), dkey, akey, offset, epoch, data)
                    .await?;
                Response::Written { epoch }
            }
            Request::FetchArray {
                cont,
                oid,
                ref dkey,
                ref akey,
                offset,
                len,
                epoch,
                ..
            } => {
                let miss = self.window.touch(cont, oid);
                if miss {
                    sim.sleep(cfg.read_miss_latency).await;
                }
                let mut segs = target
                    .fetch_array(sim, cont, oid_key(oid), dkey, akey, offset, len, epoch)
                    .await?;
                let data = segs.data_bytes();
                let amp = if miss { cfg.read_miss_amp } else { 1.0 };
                self.bulk_read
                    .transfer(sim, (data as f64 * amp) as u64)
                    .await;
                // checksum the response before it leaves, then maybe tear
                // it in flight — the client's verify catches the tear
                let csum = cfg.vos.csum_enabled.then(|| wire_csum_segs(&segs));
                if self.frame_torn(sim) {
                    for s in segs.iter_mut() {
                        s.data = s.data.take().map(|d| d.corrupted());
                    }
                }
                Response::Fetched { segs, csum }
            }
            Request::UpdateSingle {
                cont,
                oid,
                ref dkey,
                ref akey,
                ref value,
                csum,
                ..
            } => {
                let value = self.received(sim, value.clone(), csum)?;
                let epoch = target.next_epoch_at(sim.now().as_ns());
                target
                    .update_single(sim, cont, oid_key(oid), dkey, akey, epoch, value)
                    .await?;
                Response::Written { epoch }
            }
            Request::FetchSingle {
                cont,
                oid,
                ref dkey,
                ref akey,
                epoch,
                ..
            } => Response::Single(
                target
                    .fetch_single(sim, cont, oid_key(oid), dkey, akey, epoch)
                    .await?,
            ),
            _ => return Err(DaosError::Other("not a one-target op".into())),
        })
    }

    /// Execute one target's share of an object-wide request
    /// ([`Request::targets`]): a punch, a listing or a query. Kept apart
    /// from [`Engine::exec_target`] so that a visit's children, one per
    /// target, are sized by these steps and not by the bulk path's.
    pub(super) async fn exec_visit(
        &self,
        sim: &Sim,
        target: &VosTarget,
        req: &Request,
    ) -> Result<Response, DaosError> {
        Ok(match *req {
            Request::PunchArray {
                cont,
                oid,
                ref dkey,
                ref akey,
                offset,
                len,
                ..
            } => {
                let epoch = target.next_epoch_at(sim.now().as_ns());
                target
                    .punch_array(sim, cont, oid_key(oid), dkey, akey, offset, len, epoch)
                    .await?;
                Response::Ok
            }
            Request::PunchObject { cont, oid, .. } => {
                let epoch = target.next_epoch_at(sim.now().as_ns());
                target.punch_object(sim, cont, oid_key(oid), epoch).await;
                Response::Ok
            }
            Request::ListDkeys { cont, oid, .. } => {
                Response::Dkeys(target.list_dkeys(sim, cont, oid_key(oid), u64::MAX).await)
            }
            Request::ArrayMaxChunk {
                cont,
                oid,
                ref akey,
                ..
            } => Response::MaxChunk(
                target
                    .array_max_chunk(sim, cont, oid_key(oid), akey, u64::MAX)
                    .await,
            ),
            Request::QueryEpoch { .. } => Response::Epoch(target.current_epoch()),
            _ => return Err(DaosError::Other("not an object-wide op".into())),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oid_key_round_trips() {
        let oid = ObjectId::new(0xDEAD_BEEF_0000_0001, u64::MAX - 2);
        assert_eq!(key_oid(oid_key(oid)), oid);
        assert_eq!(oid_key(ObjectId::new(1, 2)), (1u128 << 64) | 2);
    }

    #[test]
    fn stream_window_is_an_lru_of_its_capacity() {
        let w = StreamWindow::new(2);
        let (a, b, c) = (
            ObjectId::new(0, 1),
            ObjectId::new(0, 2),
            ObjectId::new(0, 3),
        );
        assert!(w.touch(7, a), "cold: miss");
        assert!(w.touch(7, b), "cold: miss");
        assert!(
            !w.touch(7, a),
            "a is resident: hit, and now the most recent"
        );
        assert!(
            w.touch(7, c),
            "a third key misses and evicts b, the least recent"
        );
        assert!(
            !w.touch(7, a),
            "a survived the eviction because the hit reordered it"
        );
        assert!(w.touch(7, b), "b did not");
        assert!(w.touch(8, a), "the container is part of the key");
        assert_eq!(w.stats(), (5, 2), "(misses, hits)");

        w.clear();
        assert!(w.touch(8, a), "a crash leaves a cold window");
        assert_eq!(w.stats(), (6, 2), "but keeps the counters");
    }
}
