//! The robustness timelines: bandwidth along an engine failure
//! (`fault_sweep`) and the end-to-end integrity story — checksum overhead
//! plus bit-rot detection and repair (`scrub_sweep`).
//!
//! Each timeline is one seeded sim whose cell records the measured row;
//! what every row must show is checked over the finished report
//! ([`FAULT_CELLS`], [`SCRUB_CELLS`]).

use std::rc::Rc;

use daos_core::{Cluster, ClusterConfig, DaosClient, RetryPolicy};
use daos_ior::{run, run_files, Api, IorParams};
use daos_placement::{ObjectClass, ObjectId};
use daos_sim::fault::FaultAction;
use daos_sim::time::SimDuration;
use daos_sim::units::{KIB, MIB};
use daos_sim::Sim;
use daos_vos::Payload;

use crate::figure::{Cell, Plan, Scale};
use crate::invariants::CellClaim;
use crate::report::{Fragment, WRITE_GIB_S};
use crate::{on_testbed, paper_cluster};

// ---------------------------------------------------------------------
// Fault timeline (engine crash / exclude / rebuild / reintegrate)
// ---------------------------------------------------------------------

/// Root seed of the `fault_sweep` figure (every timeline's sim seed).
pub const FAULT_SEED: u64 = 0xFA17;

/// Engine to kill in the fault timeline: outside the pool-service replica
/// set (engines 0..3 on the paper testbed).
pub const FAULT_VICTIM: usize = 5;

/// Run the engine-failure timeline for one object class — healthy write +
/// read, crash, degraded reads, rebuild, reintegration — and record its
/// row (series = object class).
pub fn fault_timeline(out: &mut Fragment, class: ObjectClass, nodes: u32, ppn: u32, per_rank: u64) {
    let mut sim = Sim::new(FAULT_SEED);
    let (write, read, map_version, chunks_repaired) = sim.block_on(move |sim| async move {
        let cluster = Cluster::build(&sim, paper_cluster(nodes));
        let clients: Vec<_> = (0..nodes)
            .map(|n| {
                DaosClient::new(Rc::clone(&cluster), n).with_retry(RetryPolicy {
                    // above healthy queueing delay at this load, small
                    // enough that a dead engine doesn't stall the sweep
                    rpc_timeout: SimDuration::from_ms(50),
                    base_backoff: SimDuration::from_ms(1),
                    max_backoff: SimDuration::from_ms(16),
                    max_attempts: 40,
                    ..RetryPolicy::default()
                })
            })
            .collect();
        let pool = clients[0].connect(&sim).await.expect("connect");
        pool.create_container(&sim, 1).await.expect("container");
        // a container handle per client node so traffic originates from
        // every client rail, as in the IOR runs
        let mut conts = Vec::new();
        for c in &clients {
            let p = c.connect(&sim).await.expect("connect");
            conts.push(p.open_container(&sim, 1).await.expect("open"));
        }
        let arrays: Vec<_> = (0..nodes * ppn)
            .map(|r| {
                conts[(r / ppn) as usize]
                    .object(ObjectId::new(0xFA, r as u64), class)
                    .array(MIB)
            })
            .collect();
        let mut io = IorParams::paper_default(Api::DaosArray, class, true, ppn);
        io.block_size = per_rank;

        io.do_read = false;
        let write = run_files(&sim, nodes, io, arrays.clone())
            .await
            .expect("write");
        (io.do_write, io.do_read) = (false, true);
        let read_all = async || {
            let r = run_files(&sim, nodes, io, arrays.clone()).await;
            r.expect("read").read_gib_s()
        };
        let healthy = read_all().await;

        // the engine dies; reads immediately after ride timeouts, replica
        // failover / EC reconstruction, then the heartbeat exclusion
        cluster.apply_fault(&sim, FaultAction::Crash { node: FAULT_VICTIM });
        let during = read_all().await;

        // wait for the exclusion to commit and the rebuild to drain
        while cluster.pool_map().version() == 1 {
            clients[0].refresh_pool_map(&sim).await;
            sim.sleep_ms(5).await;
        }
        cluster.quiesce_rebuild(&sim).await;
        let rebuilt = read_all().await;

        // bring the engine back and reintegrate its targets
        cluster.apply_fault(&sim, FaultAction::Restart { node: FAULT_VICTIM });
        let tpe = cluster.cfg.targets_per_engine;
        let targets: Vec<u32> =
            (FAULT_VICTIM as u32 * tpe..(FAULT_VICTIM as u32 + 1) * tpe).collect();
        clients[0]
            .control(&sim, daos_core::Request::PoolReintegrate { targets })
            .await
            .expect("reintegrate");
        clients[0].refresh_pool_map(&sim).await;
        cluster.quiesce_rebuild(&sim).await;
        let reintegrated = read_all().await;
        let map_version = cluster.pool_map().version();
        (
            write.write_gib_s(),
            [healthy, during, rebuilt, reintegrated],
            map_version,
            cluster.rebuild_stats().chunks_repaired,
        )
    });
    let [healthy, during, rebuilt, reintegrated] = read;

    // bandwidths along the timeline, GiB/s
    let s = class.to_string();
    out.record(&s, nodes, WRITE_GIB_S, write);
    out.record(&s, nodes, "read_healthy", healthy);
    out.record(&s, nodes, "read_during_failure", during);
    out.record(&s, nodes, "read_after_rebuild", rebuilt);
    out.record(&s, nodes, "read_after_reintegration", reintegrated);
    out.record(&s, nodes, "map_version", map_version as f64);
    out.record(&s, nodes, "chunks_repaired", chunks_repaired as f64);
}

/// `fault_sweep`'s checks: what every fault timeline must show, at any
/// scale.
pub const FAULT_CELLS: &[CellClaim] = &[
    (
        "failure detected, exclusion committed, data repaired in every timeline",
        |_| true,
        |c| c("map_version") >= 2.0 && c("chunks_repaired") > 0.0,
    ),
    (
        "reads survive the failure window (degraded vs healthy) in every timeline",
        |_| true,
        |c| c("read_during_failure") > 0.0 && c("read_during_failure") < c("read_healthy"),
    ),
    (
        "post-rebuild bandwidth recovers to >60% of healthy in every timeline",
        |_| true,
        |c| c("read_after_rebuild") > 0.6 * c("read_healthy"),
    ),
    (
        "reintegration restores >60% of healthy bandwidth in every timeline",
        |_| true,
        |c| c("read_after_reintegration") > 0.6 * c("read_healthy"),
    ),
];

/// `fault_sweep`: one timeline per protected class. Full scale crashes an
/// engine under a replicated and an erasure-coded class; the smoke scale
/// keeps the replicated one at a smaller volume.
pub fn fault_plan(scale: Scale) -> Plan {
    let ec = ObjectClass::ErasureCoded {
        data: 4,
        parity: 1,
        groups: None,
    };
    let (classes, nodes, ppn, per_rank): (&[ObjectClass], u32, u32, u64) = match scale {
        Scale::Full => (&[ObjectClass::RP_2GX, ec], 4, 8, 8 * MIB),
        Scale::Smoke => (&[ObjectClass::RP_2GX], 2, 2, MIB),
    };
    let cells = classes
        .iter()
        .map(|&class| {
            Cell::new(class.to_string(), move |out| {
                fault_timeline(out, class, nodes, ppn, per_rank)
            })
        })
        .collect();
    Plan {
        config_hash: 0,
        cells,
    }
}

// ---------------------------------------------------------------------
// Integrity timeline (checksum overhead + bit-rot detection)
// ---------------------------------------------------------------------

/// Root seed of the `scrub_sweep` figure: the checksum-overhead cells'
/// sim seed, and (xor the detection mode) the rot timelines'.
pub const SCRUB_SEED: u64 = 0x5C2B;

/// One IOR run (easy = file-per-process 1 MiB, hard = shared 64 KiB)
/// with the checksum engine on or off; scrubber disabled so the ratio
/// isolates the verify-on-write / csum-on-fetch cost. Returns
/// (write GiB/s, read GiB/s).
pub fn csum_overhead_point(csum: bool, fpp: bool, nodes: u32, ppn: u32, block: u64) -> (f64, f64) {
    let mut cfg = paper_cluster(nodes);
    cfg.engine.vos.csum_enabled = csum;
    cfg.engine.scrub_interval = None;
    on_testbed(SCRUB_SEED, cfg, move |sim, env| async move {
        let mut p = IorParams::paper_default(Api::Dfs, ObjectClass::S2, fpp, ppn);
        p.block_size = block;
        if !fpp {
            p.transfer_size = 64 * KIB;
        }
        let r = run(&sim, &env, p).await.expect("ior");
        (r.write_gib_s(), r.read_gib_s())
    })
}

/// Series label of a checksum-overhead pattern.
fn csum_series(fpp: bool) -> &'static str {
    if fpp {
        "easy-fpp-1m"
    } else {
        "hard-shared-64k"
    }
}

/// A rot timeline's series: `<class>/client-read` or `<class>/scrubber`.
fn rot_series(s: &str) -> bool {
    s.ends_with("/client-read") || s.ends_with("/scrubber")
}

/// `scrub_sweep`'s checks: the checksum engine costs under 10% of
/// bandwidth on both IOR patterns and both phases, and every rot timeline
/// detects and repairs its damage.
pub const SCRUB_CELLS: &[CellClaim] = &[
    (
        "csum-on write bandwidth within 10% of csum-off in every overhead cell",
        |s| !rot_series(s),
        |c| c("write_csum_off") > 0.0 && c("write_csum_on") >= 0.9 * c("write_csum_off"),
    ),
    (
        "csum-on read bandwidth within 10% of csum-off in every overhead cell",
        |s| !rot_series(s),
        |c| c("read_csum_off") > 0.0 && c("read_csum_on") >= 0.9 * c("read_csum_off"),
    ),
    (
        "rot injected and detected in every rot timeline",
        rot_series,
        |c| c("rot_extents") > 0.0 && c("reported") > 0.0 && c("detect_ms").is_finite(),
    ),
    (
        "targeted repairs landed in every rot timeline",
        rot_series,
        |c| c("repairs_ok") > 0.0,
    ),
    (
        "all bytes read back identical in every rot timeline",
        rot_series,
        |c| c("bytes_equal") == 1.0,
    ),
    (
        "the rotted target scrubs clean after repair in every scrubber timeline",
        |s| s.ends_with("/scrubber"),
        |c| c("media_clean") == 1.0,
    ),
];

/// Write 2 MiB at full redundancy, rot every extent on the busiest
/// target, then detect either through a client read (`scrub = false`) or
/// by leaving the cluster idle so only the background scrubber can find
/// it (`scrub = true`). Records the row (series = `<class>/<mode>`,
/// scale-less).
pub fn rot_timeline(out: &mut Fragment, class: ObjectClass, scrub: bool, seed: u64) {
    let mut sim = Sim::new(seed);
    let (rot_extents, detect_ms, st, equal, clean) = sim.block_on(move |sim| async move {
        let mut cfg = ClusterConfig::tiny(1);
        cfg.server_nodes = 4;
        cfg.targets_per_engine = 2;
        cfg.engine.scrub_interval = scrub.then(|| SimDuration::from_ms(5));
        cfg.engine.scrub_chunks = 64;
        let tpe = cfg.targets_per_engine;
        let cluster = Cluster::build(&sim, cfg);
        let client = DaosClient::new(Rc::clone(&cluster), 0);
        let pool = client.connect(&sim).await.expect("connect");
        let cont = pool.create_container(&sim, 1).await.expect("container");
        let arr = cont.object(ObjectId::new(0x5C, 1), class).array(64 * KIB);
        let data = Payload::pattern(29, 2 * MIB);
        arr.write(&sim, 0, data.clone()).await.expect("write");

        // replica choice is deterministic per chunk, so a priming read
        // tells us exactly which copies client reads fetch; rot the target
        // serving the most of them so the client-read mode actually
        // touches the damage (scrub mode ignores the distinction)
        let before: Vec<u64> = (0..cluster.cfg.engine_count() * tpe)
            .map(|t| cluster.engine(t / tpe).target(t % tpe).counters().fetches)
            .collect();
        arr.read_bytes(&sim, 0, 2 * MIB).await.expect("prime read");
        let victim = (0..cluster.cfg.engine_count() * tpe)
            .max_by_key(|&t| {
                cluster.engine(t / tpe).target(t % tpe).counters().fetches - before[t as usize]
            })
            .unwrap();
        let t_rot = sim.now().as_ns();
        cluster.apply_fault(
            &sim,
            FaultAction::BitRot {
                target: victim as usize,
                fraction_ppm: 1_000_000,
            },
        );
        let rot_extents = cluster.corruption_stats().rot_injected;

        let mut equal = true;
        if scrub {
            // zero client traffic: only the scrubber can find the rot
            for _ in 0..100 {
                sim.sleep_ms(5).await;
                if cluster.corruption_stats().reported > 0 {
                    break;
                }
            }
        } else {
            // reads that land on the rotten copies fail over / reconstruct
            let got = arr.read_bytes(&sim, 0, 2 * MIB).await.expect("read");
            equal = got == data.materialize().to_vec();
        }
        let detect_ms = cluster
            .corruption_stats()
            .first_report_ns
            .map(|t| (t.saturating_sub(t_rot)) as f64 / 1e6)
            .unwrap_or(f64::NAN);
        cluster.quiesce_repairs(&sim).await;

        // in scrub mode the scrubber keeps finding what repairs haven't
        // reached yet: iterate until a full manual pass over the victim
        // verifies clean (client mode leaves unread copies rotten)
        let mut clean = false;
        if scrub {
            let tgt = cluster.engine(victim / tpe).target(victim % tpe);
            for _ in 0..40 {
                sim.sleep_ms(10).await;
                cluster.quiesce_repairs(&sim).await;
                let mut findings = 0u64;
                loop {
                    let r = tgt.scrub_step(&sim, 1024).await;
                    findings += r.findings.len() as u64;
                    if r.wrapped {
                        break;
                    }
                }
                if findings == 0 {
                    clean = true;
                    break;
                }
            }
            let got = arr.read_bytes(&sim, 0, 2 * MIB).await.expect("read");
            equal = got == data.materialize().to_vec();
        }

        (
            rot_extents,
            detect_ms,
            cluster.corruption_stats(),
            equal,
            clean,
        )
    });

    let mode = if scrub { "scrubber" } else { "client-read" };
    let s = format!("{class}/{mode}");
    out.record(&s, 0, "rot_extents", rot_extents as f64);
    out.record(&s, 0, "detect_ms", detect_ms);
    out.record(&s, 0, "reported", st.reported as f64);
    out.record(&s, 0, "repairs_ok", st.repairs_ok as f64);
    // every byte read back equal to what was written
    out.record(&s, 0, "bytes_equal", equal as u64 as f64);
    // the rotted target verifies clean after repairs (scrub mode only:
    // client-triggered repair only heals the copies reads chose)
    out.record(&s, 0, "media_clean", clean as u64 as f64);
}

/// `scrub_sweep`: four checksum-overhead cells (pattern × csum on/off)
/// plus a client-read and a scrubber rot timeline per protected class.
pub fn scrub_plan(scale: Scale) -> Plan {
    let ec = ObjectClass::ErasureCoded {
        data: 2,
        parity: 1,
        groups: None,
    };
    let (nodes, ppn, block, rot_classes): (u32, u32, u64, &[ObjectClass]) = match scale {
        Scale::Full => (2, 4, 8 * MIB, &[ObjectClass::RP_2GX, ec]),
        Scale::Smoke => (2, 2, MIB, &[ObjectClass::RP_2GX]),
    };
    let mut cells = Vec::new();
    for fpp in [true, false] {
        for csum in [true, false] {
            let state = if csum { "on" } else { "off" };
            cells.push(Cell::new(
                format!("csum-{}-{state}", if fpp { "easy" } else { "hard" }),
                move |out| {
                    let (w, r) = csum_overhead_point(csum, fpp, nodes, ppn, block);
                    out.record(csum_series(fpp), nodes, &format!("write_csum_{state}"), w);
                    out.record(csum_series(fpp), nodes, &format!("read_csum_{state}"), r);
                },
            ));
        }
    }
    for &class in rot_classes {
        for scrub in [false, true] {
            let mode = if scrub { "scrubber" } else { "client-read" };
            cells.push(Cell::new(format!("rot-{class}-{mode}"), move |out| {
                rot_timeline(out, class, scrub, SCRUB_SEED ^ scrub as u64)
            }));
        }
    }
    Plan {
        config_hash: 0,
        cells,
    }
}
