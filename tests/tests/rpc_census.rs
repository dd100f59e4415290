//! The RPC census of a metadata op, exact: an mdtest-style create / stat /
//! unlink storm through DFuse on the paper's 16-engine × 8-target cluster,
//! counted phase by phase from the engines' own counters. DFuse creates
//! files with the mount's default class `SX`, 128 shards wide here, and
//! `stat` and `unlink` must visit every shard; what they may not do is
//! send every shard its own RPC. An object-wide op costs one RPC per
//! engine holding a shard, so the census is 3 / 2 + 16 / 3 + 16 — it was
//! 3 / 130 / 131 when `size` and `punch` fanned out per target — while
//! every one of the 128 targets is still admitted and served. The same
//! storm on `S1` files costs 3 / 3 / 4: the path is chosen by the layout.
//!
//! And of an array data op, exact to the task: one RPC per chunk touched
//! (per replica, for a replicated write), one engine handler task per RPC
//! and no task on the client side — a write or read inside one chunk runs
//! in its caller's task, one spanning several joins its pieces there.
//! Once the engines have served a few, a handler task costs no allocation:
//! it runs in the box of one that finished. Nor does a collective's
//! fan-out, on either side: each join's slots go in the block of one that
//! finished.

use std::rc::Rc;

use daos_bench::paper_cluster;
use daos_dfs::DfsConfig;
use daos_dfuse::{DfuseConfig, OpenFlags};
use daos_ior::DaosTestbed;
use daos_placement::{ObjectClass, ObjectId};
use daos_sim::executor::join_all;
use daos_sim::time::SimDuration;
use daos_sim::units::{KIB, MIB};
use daos_sim::Sim;
use daos_vos::Payload;

const NODES: u32 = 2;
const PPN: u32 = 4;
const FILES: u32 = 16;
const OPS: u64 = (NODES * PPN * FILES) as u64;
/// Engines and targets of `paper_cluster`: an `SX` file has a shard on
/// every target.
const ENGINES: u64 = 16;
const TARGETS: u64 = 128;

/// `(rpcs, admitted)` per create, stat and unlink of an `SX` file:
/// create: parent lookup, dirent probe, dirent insert;
/// stat:   parent lookup, dirent fetch, then the size of all 128 shards;
/// unlink: parent lookup, dirent fetch, tombstone, then 128 punches.
const SX: [(u64, u64); 3] = [
    (3, 3),
    (2 + ENGINES, 2 + TARGETS),
    (3 + ENGINES, 3 + TARGETS),
];

/// What one phase of the storm cost in total.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Phase {
    /// RPCs issued to the engines' endpoints.
    rpcs: u64,
    /// Data-plane requests admitted to an xstream.
    admitted: u64,
    /// Simulator tasks spawned.
    tasks: u64,
}

/// Create, stat, then unlink `FILES` files per rank through DFuse, every
/// rank in its own directory, all ranks of a phase at once.
fn storm(flags: OpenFlags) -> [Phase; 3] {
    let mut sim = Sim::new(0xCE5);
    sim.block_on(move |sim| async move {
        // park the failure detector: every RPC counted is an op's own
        let mut cfg = paper_cluster(NODES);
        cfg.heartbeat.interval = SimDuration::from_secs(3600);
        let (dfs, dfuse) = (DfsConfig::default(), DfuseConfig::default());
        let env = DaosTestbed::setup(&sim, cfg, dfs, dfuse)
            .await
            .expect("testbed");
        assert_eq!(cfg.engine_count() as u64, ENGINES);
        assert_eq!(ENGINES * cfg.targets_per_engine as u64, TARGETS);
        for r in 0..NODES * PPN {
            let mount = &env.dfuse[(r / PPN) as usize];
            mount.mkdir(&sim, &format!("/md.{r}")).await.expect("mkdir");
        }
        let totals = |sim: &Sim| {
            let engines = env.cluster.engines().iter();
            let (rpcs, admitted) = engines.fold((0, 0), |(r, a), e| {
                let calls = e.endpoint().call_count();
                (r + calls, a + e.admission_stats().admitted)
            });
            (rpcs, admitted, sim.spawned_total())
        };
        let mut phases = Vec::new();
        for op in 0..3 {
            let before = totals(&sim);
            let ranks = (0..NODES * PPN).map(|r| {
                let (env, sim) = (Rc::clone(&env), sim.clone());
                async move {
                    let mount = &env.dfuse[(r / PPN) as usize];
                    for i in 0..FILES {
                        let path = format!("/md.{r}/f.{i:06}");
                        match op {
                            0 => drop(mount.open(&sim, &path, flags).await.expect("create")),
                            1 => drop(mount.stat(&sim, &path).await.expect("stat")),
                            _ => mount.unlink(&sim, &path).await.expect("unlink"),
                        }
                    }
                }
            });
            join_all(&sim, ranks.collect()).await;
            let after = totals(&sim);
            phases.push(Phase {
                rpcs: after.0 - before.0,
                admitted: after.1 - before.1,
                tasks: after.2 - before.2,
            });
        }
        [phases[0], phases[1], phases[2]]
    })
}

/// Check a census against per-op costs `(rpcs, admitted)` for create, stat
/// and unlink. Counts are exact. Tasks are bounded: one engine handler
/// per RPC and one rank task per `OPS / FILES` ops, nothing per target.
fn check(census: &[Phase; 3], per_op: [(u64, u64); 3]) -> Result<(), String> {
    for ((name, phase), (rpcs, admitted)) in
        ["create", "stat", "unlink"].iter().zip(census).zip(per_op)
    {
        if (phase.rpcs, phase.admitted) != (OPS * rpcs, OPS * admitted) {
            return Err(format!(
                "{name}: {phase:?} is not {rpcs} RPCs and {admitted} admissions per op"
            ));
        }
        if phase.tasks > phase.rpcs + OPS / FILES as u64 {
            return Err(format!("{name}: {phase:?} spawns more than a task per RPC"));
        }
    }
    Ok(())
}

#[test]
fn sx_files_cost_one_rpc_per_engine_and_visit_every_target() {
    let census = storm(OpenFlags::create());
    check(&census, SX).unwrap_or_else(|e| panic!("{e}\n{census:#?}"));
}

#[test]
fn s1_files_cost_one_rpc_where_sx_costs_sixteen() {
    let census = storm(OpenFlags::create_with(ObjectClass::S1));
    check(&census, [(3, 3), (3, 3), (4, 4)]).unwrap_or_else(|e| panic!("{e}\n{census:#?}"));
}

/// Planted negative: the census this repo had while `size` and `punch`
/// sent one RPC to each of the 128 shards — 3 / 130 / 131 RPCs per op, a
/// client task and a handler task for each — must not pass the check.
#[test]
fn the_per_target_census_fails_the_check() {
    let per_target = [(3, 0), (2, TARGETS), (3, TARGETS)].map(|(kv, fanned)| Phase {
        rpcs: OPS * (kv + fanned),
        admitted: OPS * (kv + fanned),
        tasks: OPS * (kv + 2 * fanned),
    });
    let verdict = check(&per_target, SX);
    assert!(
        verdict.as_ref().is_err_and(|e| e.starts_with("stat")),
        "{verdict:?}"
    );
    // and neither do the right RPC counts with a task per target
    let mut tasks_per_target = SX.map(|(rpcs, admitted)| Phase {
        rpcs: OPS * rpcs,
        admitted: OPS * admitted,
        tasks: OPS * rpcs,
    });
    check(&tasks_per_target, SX).expect("a task per RPC passes");
    tasks_per_target[2].tasks += OPS * TARGETS;
    let verdict = check(&tasks_per_target, SX);
    assert!(
        verdict.as_ref().is_err_and(|e| e.starts_with("unlink")),
        "{verdict:?}"
    );
}

/// The four shapes of array op the census takes: `(name, is a write,
/// chunks touched)`, on 1 MiB chunks.
const SHAPES: [(&str, bool, u64); 4] = [
    ("write inside one chunk", true, 1),
    ("read inside one chunk", false, 1),
    ("write over three chunks", true, 3),
    ("read over three chunks", false, 3),
];

/// A one-node testbed with the failure detector and the raft chatter
/// parked: every RPC and every task counted is an op's own.
async fn quiet_testbed(sim: &Sim) -> Rc<DaosTestbed> {
    let mut cfg = paper_cluster(1);
    cfg.heartbeat.interval = SimDuration::from_secs(3600);
    cfg.svc_replicas = 1;
    let (dfs, dfuse) = (DfsConfig::default(), DfuseConfig::default());
    DaosTestbed::setup(sim, cfg, dfs, dfuse)
        .await
        .expect("testbed")
}

/// RPCs issued to the engines of `env` so far.
fn engine_rpcs(env: &DaosTestbed) -> u64 {
    let engines = env.cluster.engines().iter();
    engines.map(|e| e.endpoint().call_count()).sum()
}

/// `(rpcs, tasks)` of each of [`SHAPES`] on an array of `class`, issued
/// from the root task with the cluster otherwise silent.
fn array_census(class: ObjectClass) -> [(u64, u64); 4] {
    let mut sim = Sim::new(0xCE5);
    sim.block_on(move |sim| async move {
        let env = quiet_testbed(&sim).await;
        let arr = env.containers[0]
            .object(ObjectId::new(0xA, 0xCE5), class)
            .array(MIB);
        let totals = |sim: &Sim| (engine_rpcs(&env), sim.spawned_total());
        let mut census = [(0, 0); 4];
        for (cost, (_, write, chunks)) in census.iter_mut().zip(SHAPES) {
            // start mid-chunk; a one-chunk op is the 4 KiB transfer of
            // `ior_rand4k_dfs`, a wider one ends mid-chunk too
            let (offset, len) = (8 * MIB + 300 * KIB, (chunks - 1) * MIB + 4 * KIB);
            let before = totals(&sim);
            if write {
                let data = Payload::pattern(chunks, len);
                arr.write(&sim, offset, data).await.expect("write");
            } else {
                arr.read(&sim, offset, len).await.expect("read");
            }
            let after = totals(&sim);
            *cost = (after.0 - before.0, after.1 - before.1);
        }
        census
    })
}

/// Check an array census: every shape costs one RPC per chunk — times
/// `copies` for a write, which goes to every replica — and exactly one
/// task per RPC, the engine's handler.
fn check_array(census: &[(u64, u64); 4], copies: u64) -> Result<(), String> {
    for (&(rpcs, tasks), (name, write, chunks)) in census.iter().zip(SHAPES) {
        let want = chunks * if write { copies } else { 1 };
        if (rpcs, tasks) != (want, want) {
            return Err(format!(
                "{name}: {rpcs} RPCs and {tasks} tasks, not {want} and {want}"
            ));
        }
    }
    Ok(())
}

#[test]
fn an_array_op_costs_one_rpc_and_one_task_per_chunk() {
    for class in [ObjectClass::S1, ObjectClass::S2, ObjectClass::SX] {
        let census = array_census(class);
        check_array(&census, 1).unwrap_or_else(|e| panic!("{class}: {e}\n{census:?}"));
    }
    let census = array_census(ObjectClass::RP_3G1);
    check_array(&census, 3).unwrap_or_else(|e| panic!("RP_3: {e}\n{census:?}"));
}

/// Planted negative: the census this repo had while every piece of an
/// array op, however few, ran in a client task of its own — 2 tasks for
/// the 1 RPC of a one-chunk op, 7 for the 3 of an `RP_3` chunk write (the
/// piece, its three shard updates, their handlers) — must not pass.
#[test]
fn the_task_per_piece_census_fails_the_check() {
    let verdict = check_array(&[(1, 2), (1, 2), (3, 6), (3, 6)], 1);
    assert!(
        verdict
            .as_ref()
            .is_err_and(|e| e.starts_with("write inside")),
        "{verdict:?}"
    );
    let verdict = check_array(&[(3, 7), (1, 2), (9, 21), (3, 6)], 3);
    assert!(verdict.is_err(), "{verdict:?}");
    // nor does a fan-out that is right for writes and spawns for reads
    let verdict = check_array(&[(1, 1), (1, 1), (3, 3), (3, 6)], 1);
    assert!(
        verdict.as_ref().is_err_and(|e| e.starts_with("read over")),
        "{verdict:?}"
    );
}

/// Warm-up transfers before the counted ones: enough to leave a finished
/// handler's box idle on every engine.
const WARM_UP: u64 = 64;
/// Counted 4 KiB transfers, one RPC each.
const TRANSFERS: u64 = 1_000;

/// `(rpcs, tasks, task boxes)` of [`TRANSFERS`] 4 KiB writes and reads,
/// alternating, on an `S1` array after [`WARM_UP`] of them, issued from
/// the root task one at a time with the cluster otherwise silent.
fn recycling_census() -> (u64, u64, u64) {
    let mut sim = Sim::new(0xCE5);
    sim.block_on(move |sim| async move {
        let env = quiet_testbed(&sim).await;
        let arr = env.containers[0]
            .object(ObjectId::new(0xB, 0xCE5), ObjectClass::S1)
            .array(MIB);
        let totals = |sim: &Sim| (engine_rpcs(&env), sim.spawned_total(), sim.task_boxes());
        let mut before = totals(&sim);
        for i in 0..WARM_UP + TRANSFERS {
            if i == WARM_UP {
                before = totals(&sim);
            }
            let offset = (i / 2 % 256) * 4 * KIB;
            if i % 2 == 0 {
                let data = Payload::pattern(i, 4 * KIB);
                arr.write(&sim, offset, data).await.expect("write");
            } else {
                arr.read(&sim, offset, 4 * KIB).await.expect("read");
            }
        }
        let after = totals(&sim);
        (after.0 - before.0, after.1 - before.1, after.2 - before.2)
    })
}

/// Check a recycling census: one RPC and one handler task per transfer,
/// and no task box allocated for any of them.
fn check_recycling((rpcs, tasks, boxes): (u64, u64, u64)) -> Result<(), String> {
    if (rpcs, tasks) != (TRANSFERS, TRANSFERS) {
        return Err(format!(
            "{rpcs} RPCs and {tasks} tasks, not {TRANSFERS} and {TRANSFERS}"
        ));
    }
    if boxes != 0 {
        return Err(format!("{boxes} task boxes allocated after the warm-up"));
    }
    Ok(())
}

#[test]
fn a_warm_engine_serves_an_rpc_in_a_finished_handlers_box() {
    let census = recycling_census();
    check_recycling(census).unwrap_or_else(|e| panic!("{e}: {census:?}"));
}

/// Planted negative: the census this repo had while every task got a box
/// of its own — a box per handler — must not pass the check.
#[test]
fn a_box_per_handler_fails_the_check() {
    let verdict = check_recycling((TRANSFERS, TRANSFERS, TRANSFERS));
    assert!(
        verdict.as_ref().is_err_and(|e| e.contains("task boxes")),
        "{verdict:?}"
    );
    check_recycling((TRANSFERS, TRANSFERS, 0)).expect("recycled boxes pass");
}

/// Counted `size` calls, each one `ArrayMaxChunk` collective.
const SIZES: u64 = 200;

/// `(rpcs, join blocks)` of [`SIZES`] `size` calls on a written `SX`
/// array after [`WARM_UP`] of them, issued from the root task one at a
/// time with the cluster otherwise silent. Each is one collective: a
/// client round that joins one RPC per engine, each served by a handler
/// that joins its engine's eight targets.
fn collective_census() -> (u64, u64) {
    let mut sim = Sim::new(0xCE5);
    sim.block_on(move |sim| async move {
        let env = quiet_testbed(&sim).await;
        let arr = env.containers[0]
            .object(ObjectId::new(0xC, 0xCE5), ObjectClass::SX)
            .array(MIB);
        let data = Payload::pattern(7, 4 * KIB);
        arr.write(&sim, 40 * MIB, data).await.expect("write");
        let totals = |sim: &Sim| (engine_rpcs(&env), sim.join_blocks());
        let mut before = totals(&sim);
        for i in 0..WARM_UP + SIZES {
            if i == WARM_UP {
                before = totals(&sim);
            }
            let size = arr.size(&sim).await.expect("size");
            assert_eq!(size, 40 * MIB + 4 * KIB);
        }
        let after = totals(&sim);
        (after.0 - before.0, after.1 - before.1)
    })
}

/// Check a collective census: one RPC per engine per `size`, and no join
/// block allocated for any of them.
fn check_collectives((rpcs, blocks): (u64, u64)) -> Result<(), String> {
    if rpcs != SIZES * ENGINES {
        return Err(format!("{rpcs} RPCs, not {}", SIZES * ENGINES));
    }
    if blocks != 0 {
        return Err(format!("{blocks} join blocks allocated after the warm-up"));
    }
    Ok(())
}

#[test]
fn a_warm_engine_serves_a_collective_without_a_new_join_block() {
    let census = collective_census();
    check_collectives(census).unwrap_or_else(|e| panic!("{e}: {census:?}"));
}

/// Planted negative: the census this repo had while every join allocated
/// its slots — one block for each client round and one for each engine's
/// visit — must not pass the check.
#[test]
fn a_block_per_join_fails_the_check() {
    let verdict = check_collectives((SIZES * ENGINES, SIZES * (1 + ENGINES)));
    assert!(
        verdict.as_ref().is_err_and(|e| e.contains("join blocks")),
        "{verdict:?}"
    );
    check_collectives((SIZES * ENGINES, 0)).expect("reused blocks pass");
}
