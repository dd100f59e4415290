//! Background rebuild: re-protecting objects after a pool-map change.
//!
//! When targets are excluded, protected objects (`RP_n`, `EC_k+p`) get new
//! layouts; the shards that moved must be repopulated on their new homes
//! from the surviving group members — a copy for replication, an XOR
//! reconstruction for erasure coding. Reintegration is the same pass run in
//! reverse: the layout reverts and the returning shards are refilled from
//! the replicas that served while the target was out.
//!
//! The pass is server-pull, as in DAOS: the destination engine's node
//! issues the fetch and update RPCs, so repair traffic competes with
//! foreground I/O for engine bandwidth. Concurrency is bounded by the
//! `rebuild_inflight` knob.

use std::collections::BTreeSet;
use std::rc::Rc;

use daos_placement::{place, ObjectClass, ObjectId, PoolMap, TargetId};
use daos_sim::executor::join_all;
use daos_sim::time::SimDuration;
use daos_sim::{Semaphore, Sim};
use daos_vos::tree::{flatten, ReadSeg};
use daos_vos::{Epoch, Payload};

use crate::client::{group_of_chunk, xor_into};
use crate::cluster::Cluster;
use crate::proto::{chunk_of_dkey, wire_csum, Request, Response, Rpc};
use crate::ContId;

/// Per-RPC deadline inside a rebuild pass; a source that stays dark this
/// long is skipped and the chunk is left for the next pass.
const REPAIR_RPC_DEADLINE: SimDuration = SimDuration::from_secs(2);

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

/// Fetch `[0, len)` of one chunk cell/replica from `src` target. A donor
/// read torn in flight must not be written back as truth: like any other
/// failure it comes back as `None`.
async fn fetch_from(
    sim: &Sim,
    cluster: &Cluster,
    dest_engine: u32,
    src: TargetId,
    (cont, oid, chunk): (ContId, ObjectId, u64),
    len: u64,
) -> Option<Vec<ReadSeg>> {
    let target = src % cluster.cfg.targets_per_engine;
    let req = Request::fetch_chunk(target, cont, oid, chunk, 0, len, Epoch::MAX);
    let rsp = engine_rpc(sim, cluster, dest_engine, src, req).await?;
    rsp.fetched().ok()
}

/// Write `data` at `offset` of one chunk on `dst` target.
async fn write_to(
    sim: &Sim,
    cluster: &Cluster,
    dst: TargetId,
    (cont, oid, chunk): (ContId, ObjectId, u64),
    offset: u64,
    data: Payload,
) -> bool {
    let tpe = cluster.cfg.targets_per_engine;
    let csum = wire_csum(&data);
    let req = Request::update_chunk(dst % tpe, cont, oid, chunk, offset, data, csum);
    let rsp = engine_rpc(sim, cluster, dst / tpe, dst, req).await;
    matches!(rsp, Some(Response::Written { .. }))
}

/// Repair one chunk of one moved shard; returns bytes written, or `None`
/// if the chunk could not be repaired.
#[allow(
    clippy::too_many_arguments,
    reason = "one chunk's repair coordinates; a struct would exist for this call alone"
)]
async fn repair_chunk(
    sim: &Sim,
    cluster: &Cluster,
    cont: u64,
    oid: ObjectId,
    class: ObjectClass,
    chunk_size: u64,
    chunk: u64,
    moved_shard: u32,
    group: std::ops::Range<u32>,
    donors: &[u32],
    new_targets: &[TargetId],
) -> Option<u64> {
    let at = (cont, oid, chunk);
    let dst = new_targets[moved_shard as usize];
    let dest_engine = dst / cluster.cfg.targets_per_engine;
    match class {
        ObjectClass::Replicated { .. } => {
            // copy the whole chunk from the first replica that serves it
            // clean — a donor can itself hold rot (its engine answers the
            // fetch with a checksum error, surfacing here as None)
            for &donor in donors {
                let src = new_targets[donor as usize];
                let Some(segs) = fetch_from(sim, cluster, dest_engine, src, at, chunk_size).await
                else {
                    continue;
                };
                let mut moved = 0;
                for s in segs {
                    if let Some(d) = s.data {
                        moved += d.len();
                        if !write_to(sim, cluster, dst, at, s.offset, d).await {
                            return None;
                        }
                    }
                }
                return Some(moved);
            }
            None
        }
        ObjectClass::ErasureCoded {
            data: k, parity, ..
        } => {
            let (k, parity) = (k as u32, parity as u32);
            let cell = chunk_size / k as u64;
            let c = moved_shard - group.start; // cell index within the group
                                               // XOR set: every other data cell, plus one parity when the lost
                                               // cell is itself a data cell (all parity cells are XOR parity)
            let mut sources: Vec<u32> = (0..k)
                .filter(|&d| d != c)
                .map(|d| group.start + d)
                .collect();
            if c < k {
                let p = (k..k + parity)
                    .map(|j| group.start + j)
                    .find(|s| donors.contains(s))?;
                sources.push(p);
            }
            let mut acc = vec![0u8; cell as usize];
            let mut any = false;
            for src in sources {
                let src = new_targets[src as usize];
                let segs = fetch_from(sim, cluster, dest_engine, src, at, cell).await?;
                any |= segs.iter().any(|s| s.data.is_some());
                xor_into(&mut acc, &flatten(&segs, 0, cell));
            }
            if !any {
                return Some(0); // chunk exists but this stripe was never written
            }
            if !write_to(sim, cluster, dst, at, 0, Payload::bytes(acc)).await {
                return None;
            }
            Some(cell)
        }
        _ => None,
    }
}

/// Push map version `version` to every engine that may host repair
/// destinations: a returning engine that still believes its own targets
/// are excluded would reject the repair writes with `StaleMap`. Engines
/// whose targets are all excluded are skipped (nothing lands on them, and
/// after a crash they may be dark).
async fn push_map(sim: &Sim, cluster: &Cluster, version: u32, new_excluded: &BTreeSet<TargetId>) {
    let tpe = cluster.cfg.targets_per_engine;
    for e in 0..cluster.cfg.engine_count() {
        let local: Vec<u32> = new_excluded
            .iter()
            .filter(|&&t| t / tpe == e)
            .map(|&t| t % tpe)
            .collect();
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
    let new_map = map_with(cluster, new_excluded);
    let throttle = Semaphore::new(cluster.cfg.rebuild_inflight.max(1) as usize);

    for (cont, oid, class, chunk_size) in cluster.registered_objects() {
        let protected = matches!(
            class,
            ObjectClass::Replicated { .. } | ObjectClass::ErasureCoded { .. }
        );
        let Some(chunk_size) = chunk_size else {
            continue;
        };
        if !protected {
            continue; // unprotected shards on a dead target are just lost
        }
        stats.objects_scanned += 1;
        let old_layout = place(oid, class, &old_map);
        let new_layout = place(oid, class, &new_map);
        if old_layout == new_layout {
            continue;
        }
        let gw = class.group_width();
        let width = new_layout.width();
        let group_count = (width / gw).max(1);
        let moved: Vec<u32> = (0..width)
            .filter(|&s| old_layout.target_of(s) != new_layout.target_of(s))
            .collect();

        for &s in &moved {
            stats.shards_moved += 1;
            let g = s / gw;
            let group = g * gw..(g + 1) * gw;
            // donors: group members that stayed put on live targets
            let donors: Vec<u32> = group
                .clone()
                .filter(|&d| {
                    d != s
                        && old_layout.target_of(d) == new_layout.target_of(d)
                        && !new_map.is_excluded(new_layout.target_of(d))
                })
                .collect();
            let Some(&lister) = donors.first() else {
                stats.chunks_skipped += 1;
                continue;
            };
            // every group member holds a piece of every chunk in the
            // group, so one donor's dkey listing enumerates them all
            let dest_engine = new_layout.target_of(s) / cluster.cfg.targets_per_engine;
            let listed = engine_rpc(
                sim,
                cluster,
                dest_engine,
                new_layout.target_of(lister),
                Request::ListDkeys {
                    targets: vec![new_layout.target_of(lister) % cluster.cfg.targets_per_engine]
                        .into(),
                    cont,
                    oid,
                },
            )
            .await;
            let Some(Response::Dkeys(dkeys)) = listed else {
                stats.chunks_skipped += 1;
                continue;
            };
            let chunks: Vec<u64> = dkeys
                .iter()
                .filter_map(|d| chunk_of_dkey(d))
                .filter(|&c| group_of_chunk(oid, c, group_count) == g)
                .collect();
            let new_targets: Vec<TargetId> = (0..width).map(|i| new_layout.target_of(i)).collect();
            let futs: Vec<_> = chunks
                .into_iter()
                .map(|chunk| {
                    let sim2 = sim.clone();
                    let cluster = Rc::clone(cluster);
                    let throttle = throttle.clone();
                    let group = group.clone();
                    let new_targets = new_targets.clone();
                    let donors = donors.clone();
                    async move {
                        let _slot = throttle.acquire().await;
                        repair_chunk(
                            &sim2,
                            &cluster,
                            cont,
                            oid,
                            class,
                            chunk_size,
                            chunk,
                            s,
                            group,
                            &donors,
                            &new_targets,
                        )
                        .await
                    }
                })
                .collect();
            for r in join_all(sim, futs).await {
                match r {
                    Some(bytes) => {
                        stats.chunks_repaired += 1;
                        stats.bytes_moved += bytes;
                    }
                    None => stats.chunks_skipped += 1,
                }
            }
        }
    }
    stats
}

/// Targeted self-healing of one reported-bad chunk copy: re-derive the
/// chunk from the surviving group members (replica copy or EC
/// reconstruction) and overwrite the rotten copy at a fresh epoch, so the
/// damaged extent is shadowed and never served again. Unlike a rebuild
/// pass this touches exactly one chunk on one target. Returns whether the
/// repair landed.
pub(crate) async fn repair_corruption(
    sim: &Sim,
    cluster: &Rc<Cluster>,
    report: CorruptionReport,
) -> bool {
    let Some((class, chunk_size)) = cluster
        .registered_objects()
        .into_iter()
        .find(|&(c, o, _, _)| c == report.cont && o == report.oid)
        .map(|(_, _, class, cs)| (class, cs))
    else {
        return false; // unknown object: nothing to repair from
    };
    let Some(chunk_size) = chunk_size else {
        return false;
    };
    if !matches!(
        class,
        ObjectClass::Replicated { .. } | ObjectClass::ErasureCoded { .. }
    ) {
        return false; // unprotected: no redundancy to heal from
    }
    let map = cluster.pool_map().clone();
    let layout = place(report.oid, class, &map);
    let width = layout.width();
    let gw = class.group_width();
    let group_count = (width / gw).max(1);
    // resolve the chunk's group first, then look for the reported target
    // inside it — placement may park shards of several groups on one
    // target, and only the shard in this chunk's group holds its extent
    let g = group_of_chunk(report.oid, report.chunk, group_count);
    let group = g * gw..(g + 1) * gw;
    let Some(shard) = group
        .clone()
        .find(|&s| layout.target_of(s) == report.target)
    else {
        return false; // the layout moved on; a rebuild pass owns it now
    };
    let donors: Vec<u32> = group
        .clone()
        .filter(|&d| d != shard && !map.is_excluded(layout.target_of(d)))
        .collect();
    if donors.is_empty() {
        return false;
    }
    let targets: Vec<TargetId> = (0..width).map(|i| layout.target_of(i)).collect();
    repair_chunk(
        sim,
        cluster,
        report.cont,
        report.oid,
        class,
        chunk_size,
        report.chunk,
        shard,
        group,
        &donors,
        &targets,
    )
    .await
    .is_some()
}
