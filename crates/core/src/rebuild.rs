//! Background rebuild: re-protecting objects after a pool-map change.
//!
//! When targets are excluded, protected objects (`RP_n`, `EC_k+p`) get new
//! layouts; the shards that moved must be repopulated on their new homes
//! from the surviving group members — a copy for replication, an XOR
//! reconstruction for erasure coding. Reintegration is the same pass run in
//! reverse: the layout reverts and the returning shards are refilled from
//! the group members that served while the target was out. A targeted
//! repair of one reported-bad copy is the same refill of one chunk.
//!
//! The pass is server-pull, as in DAOS: the destination engine's node
//! issues the fetch and update RPCs, so repair traffic competes with
//! foreground I/O for engine bandwidth. Concurrency is bounded by
//! `REBUILD_INFLIGHT`.

use std::collections::BTreeSet;
use std::ops::Range;
use std::rc::Rc;

use daos_placement::{place, Layout, ObjectId, PoolMap, Stripe, TargetId};
use daos_sim::executor::join_all;
use daos_sim::time::SimDuration;
use daos_sim::{Semaphore, Sim};
use daos_vos::tree::{flatten, ReadSeg, Segs};
use daos_vos::{Epoch, Payload};

use crate::client::xor_into;
use crate::cluster::Cluster;
use crate::pool::local_excluded;
use crate::proto::{chunk_of_dkey, wire_csum, Request, Response, Rpc};
use crate::ContId;

/// Per-RPC deadline inside a rebuild pass; a source that stays dark this
/// long is skipped and the chunk is left for the next pass.
const REPAIR_RPC_DEADLINE: SimDuration = SimDuration::from_secs(2);
/// Concurrent repair RPCs per rebuild pass: more drains faster but
/// steals more engine bandwidth from foreground I/O.
const REBUILD_INFLIGHT: usize = 4;

/// What a rebuild pass accomplished.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RebuildStats {
    /// Rebuild passes merged into these stats.
    pub passes: u64,
    /// Registered objects examined.
    pub objects_scanned: u64,
    /// Shards whose target changed between the old and new map.
    pub shards_moved: u64,
    /// Chunks copied or reconstructed onto their new target.
    pub chunks_repaired: u64,
    /// Bytes written to the new targets.
    pub bytes_moved: u64,
    /// Chunks left unrepaired (no live donor or RPC failure).
    pub chunks_skipped: u64,
}

impl RebuildStats {
    /// Fold another pass's stats into this one.
    pub fn merge(&mut self, other: &RebuildStats) {
        self.passes += other.passes;
        self.objects_scanned += other.objects_scanned;
        self.shards_moved += other.shards_moved;
        self.chunks_repaired += other.chunks_repaired;
        self.bytes_moved += other.bytes_moved;
        self.chunks_skipped += other.chunks_skipped;
    }
}

/// One bad chunk copy, as reported by a client read that hit a checksum
/// mismatch or by an engine's background scrubber. Identifies exactly one
/// stored copy: the chunk's extent on one target.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct CorruptionReport {
    /// Container holding the object.
    pub cont: ContId,
    /// The damaged object.
    pub oid: ObjectId,
    /// Array chunk index (big-endian dkey).
    pub chunk: u64,
    /// The target whose copy failed verification.
    pub target: TargetId,
}

/// Callback fired when a component learns of a bad stored copy — wired by
/// the cluster to spawn a targeted repair.
pub(crate) type CorruptionHook = Box<dyn Fn(&Sim, CorruptionReport)>;

fn map_with(cluster: &Cluster, excluded: &BTreeSet<TargetId>) -> PoolMap {
    let mut m = PoolMap::new(cluster.cfg.engine_count(), cluster.cfg.targets_per_engine);
    for &t in excluded {
        m.exclude(t);
    }
    m
}

/// One engine-to-engine RPC, issued from `from_engine`'s node. Every
/// rebuild/repair RPC crosses this one chokepoint, so billing here puts
/// the whole repair path under the background tenant's QoS budget at the
/// destination engine ([`crate::qos::BG_TENANT`]).
async fn engine_rpc(
    sim: &Sim,
    cluster: &Cluster,
    from_engine: u32,
    to_target: TargetId,
    req: Request,
) -> Option<Response> {
    let tpe = cluster.cfg.targets_per_engine;
    let from = cluster.engine(from_engine).node();
    let bulk = req.bulk_in();
    let rpc = Rpc {
        tenant: crate::qos::BG_TENANT,
        req,
    };
    cluster
        .engine(to_target / tpe)
        .endpoint()
        .call_deadline(sim, from, rpc, bulk, REPAIR_RPC_DEADLINE)
        .await
        .ok()
}

/// Make `range` of one chunk on `dst` target read as `data`: written, or
/// punched when `data` is a hole.
async fn write_to(
    sim: &Sim,
    cluster: &Cluster,
    dst: TargetId,
    (cont, oid, chunk): (ContId, ObjectId, u64),
    range: Range<u64>,
    data: Option<Payload>,
) -> bool {
    let tpe = cluster.cfg.targets_per_engine;
    let req = match data {
        Some(data) => {
            let csum = wire_csum(&data);
            Request::update_chunk(dst % tpe, cont, oid, chunk, range.start, data, csum)
        }
        None => Request::punch_chunk(vec![dst % tpe].into(), cont, oid, chunk, range),
    };
    let rsp = engine_rpc(sim, cluster, dst / tpe, dst, req).await;
    rsp.is_some_and(|r| r.ok().is_ok())
}

/// One protected array's move from its `old` to its `new` layout under
/// `map`: what the rebuild pass and a targeted repair (whose two layouts
/// are the same) need to refill a shard.
struct Move {
    cont: ContId,
    stripe: Stripe,
    old: Layout,
    new: Layout,
    map: Rc<PoolMap>,
}

impl Move {
    /// Place the array on `old` and on `map`, its new map.
    fn new(cont: ContId, stripe: Stripe, old: &PoolMap, map: Rc<PoolMap>) -> Move {
        let (oid, class) = (stripe.oid, stripe.class);
        let (old, new) = (place(oid, class, old), place(oid, class, &map));
        Move {
            cont,
            stripe,
            old,
            new,
            map,
        }
    }

    /// Can member `d` of `shard`'s group refill it: another member that
    /// stayed put on a live target?
    fn is_donor(&self, shard: u32, d: u32) -> bool {
        let t = self.new.target_of(d);
        d != shard && self.old.target_of(d) == t && !self.map.is_excluded(t)
    }

    /// `shard`'s redundancy group and its first donor; `None` when no
    /// member can refill it.
    fn donors(&self, shard: u32) -> Option<(Range<u32>, u32)> {
        let group = self.stripe.group_of_shard(shard);
        let first = group.clone().find(|&d| self.is_donor(shard, d))?;
        Some((group, first))
    }
}

/// Refill `chunk` of `shard` on its new target so it reads as its
/// donors' image, re-derived as the stripe says ([`Stripe::rederive`]):
/// every source the XOR needs, then the first donor to serve clean where
/// one more is needed — a donor can itself hold rot (its engine answers
/// the fetch with a checksum error) or be torn in flight, and neither may
/// be written back as truth. One source (a replica) is copied as it
/// reads, data written and holes punched; several (an EC cell) are XORed
/// into one whole cell, punched whole when none holds data. Returns bytes
/// written, or `None` if the chunk could not be repaired.
async fn repair_chunk(
    sim: &Sim,
    cluster: &Cluster,
    mv: &Move,
    chunk: u64,
    shard: u32,
) -> Option<u64> {
    let tpe = cluster.cfg.targets_per_engine;
    let (dst, cell) = (mv.new.target_of(shard), mv.stripe.cell_size());
    let group = mv.stripe.group_of_shard(shard).start;
    let (all, any) = mv.stripe.rederive(shard - group);
    let needs_one = any.clone().next().is_some();
    let mut donors = any.filter(|&c| mv.is_donor(shard, group + c)).peekable();
    if needs_one && donors.peek().is_none() {
        return None;
    }
    let fetch = |c: u32| {
        let (src, oid) = (mv.new.target_of(group + c), mv.stripe.oid);
        let req = Request::fetch_chunk(src % tpe, mv.cont, oid, chunk, 0, cell, Epoch::MAX);
        async move {
            let rsp = engine_rpc(sim, cluster, dst / tpe, src, req).await?;
            rsp.fetched().ok()
        }
    };
    let mut sources = Vec::new();
    for c in all {
        sources.push(fetch(c).await?);
    }
    if needs_one {
        sources.push(loop {
            if let Some(segs) = fetch(donors.next()?).await {
                break segs;
            }
        });
    }
    let image = match <[_; 1]>::try_from(sources) {
        Ok([copy]) => copy,
        Err(sources) => {
            let mut acc = vec![0u8; cell as usize];
            for segs in &sources {
                xor_into(&mut acc, &flatten(segs, 0, cell));
            }
            let any_data = sources.iter().flatten().any(|s| s.data.is_some());
            let data = any_data.then(|| Payload::bytes(acc));
            Segs::One(ReadSeg {
                offset: 0,
                len: cell,
                data,
            })
        }
    };
    let (at, mut moved) = ((mv.cont, mv.stripe.oid, chunk), 0);
    for s in image {
        moved += s.data.as_ref().map_or(0, Payload::len);
        if !write_to(sim, cluster, dst, at, s.offset..s.offset + s.len, s.data).await {
            return None;
        }
    }
    Some(moved)
}

/// Push map version `version` to every engine that may host repair
/// destinations: a returning engine that still believes its own targets
/// are excluded would reject the repair writes with `StaleMap`. Engines
/// whose targets are all excluded are skipped (nothing lands on them, and
/// after a crash they may be dark).
async fn push_map(sim: &Sim, cluster: &Cluster, version: u32, new_excluded: &BTreeSet<TargetId>) {
    let tpe = cluster.cfg.targets_per_engine;
    for e in 0..cluster.cfg.engine_count() {
        let local = local_excluded(new_excluded, e, tpe);
        if local.len() as u32 == tpe {
            continue;
        }
        engine_rpc(
            sim,
            cluster,
            e,
            e * tpe,
            Request::Ping {
                version,
                excluded: local,
            },
        )
        .await;
    }
}

/// Run one rebuild pass for a map transition `old_excluded → new_excluded`
/// committed as map version `version`.
pub(crate) async fn run(
    sim: &Sim,
    cluster: &Rc<Cluster>,
    version: u32,
    old_excluded: &BTreeSet<TargetId>,
    new_excluded: &BTreeSet<TargetId>,
) -> RebuildStats {
    let mut stats = RebuildStats {
        passes: 1,
        ..RebuildStats::default()
    };
    push_map(sim, cluster, version, new_excluded).await;
    let old_map = map_with(cluster, old_excluded);
    let new_map = Rc::new(map_with(cluster, new_excluded));
    let throttle = Semaphore::new(REBUILD_INFLIGHT);
    let tpe = cluster.cfg.targets_per_engine;

    // only protected arrays are registered: unprotected shards on a dead
    // target are just lost
    for (cont, stripe) in cluster.registered_arrays() {
        stats.objects_scanned += 1;
        let mv = Rc::new(Move::new(cont, stripe, &old_map, Rc::clone(&new_map)));
        if mv.old == mv.new {
            continue;
        }
        let width = mv.new.width();
        for s in (0..width).filter(|&s| mv.old.target_of(s) != mv.new.target_of(s)) {
            stats.shards_moved += 1;
            let Some((group, lister)) = mv.donors(s) else {
                stats.chunks_skipped += 1;
                continue;
            };
            // every group member holds a piece of every chunk in the
            // group, so one donor's dkey listing enumerates them all
            let (dest_engine, src) = (mv.new.target_of(s) / tpe, mv.new.target_of(lister));
            let list = Request::ListDkeys {
                targets: vec![src % tpe].into(),
                cont,
                oid: stripe.oid,
            };
            let listed = engine_rpc(sim, cluster, dest_engine, src, list).await;
            let Some(Response::Dkeys(dkeys)) = listed else {
                stats.chunks_skipped += 1;
                continue;
            };
            let chunks = dkeys.iter().filter_map(|d| chunk_of_dkey(d));
            let futs: Vec<_> = chunks
                .filter(|&c| mv.stripe.group(width, c) == group)
                .map(|chunk| {
                    let (sim, cluster) = (sim.clone(), Rc::clone(cluster));
                    let (throttle, mv) = (throttle.clone(), Rc::clone(&mv));
                    async move {
                        let _slot = throttle.acquire().await;
                        repair_chunk(&sim, &cluster, &mv, chunk, s).await
                    }
                })
                .collect();
            for r in join_all(sim, futs).await {
                stats.chunks_repaired += u64::from(r.is_some());
                stats.chunks_skipped += u64::from(r.is_none());
                stats.bytes_moved += r.unwrap_or(0);
            }
        }
    }
    stats
}

/// Targeted self-healing of one reported-bad chunk copy: a one-chunk
/// repair of the reported shard whose old and new layouts are both the
/// current one. The chunk is re-derived from the surviving group members
/// and overwrites the rotten copy at a fresh epoch, so the damaged extent
/// is shadowed and never served again. Returns whether the repair landed.
pub(crate) async fn repair_corruption(
    sim: &Sim,
    cluster: &Rc<Cluster>,
    report: CorruptionReport,
) -> bool {
    let Some(stripe) = cluster.registered_array(report.cont, report.oid) else {
        return false; // unknown or unprotected: no redundancy to heal from
    };
    let map = Rc::new(cluster.pool_map().clone());
    let mv = Move::new(report.cont, stripe, &map, Rc::clone(&map));
    // resolve the chunk's group first, then look for the reported target
    // inside it — placement may park shards of several groups on one
    // target, and only the shard in this chunk's group holds its extent
    let mut group = stripe.group(mv.new.width(), report.chunk);
    let Some(shard) = group.find(|&s| mv.new.target_of(s) == report.target) else {
        return false; // the layout moved on; a rebuild pass owns it now
    };
    if mv.donors(shard).is_none() {
        return false;
    }
    let repaired = repair_chunk(sim, cluster, &mv, report.chunk, shard);
    repaired.await.is_some()
}
