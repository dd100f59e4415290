//! Kernel probes — group (c) of the per-layer metrics: host ns per call of
//! the small public functions the workloads spend their time in, so a
//! workload's wall clock can be set against count × unit cost.
//!
//! Each probe makes at least 10⁴ calls in `BATCHES` batches and reports
//! the fastest batch: on a deterministic single-threaded loop interference
//! only adds time.

use std::hint::black_box;
use std::time::{Duration, Instant};

use daos_core::qos::{Drr, TokenBucket};
use daos_dfuse::split_aligned;
use daos_fabric::{Fabric, FabricConfig};
use daos_placement::{place, ObjectClass, ObjectId, PoolMap};
use daos_sim::time::SimDuration;
use daos_sim::units::{Bandwidth, KIB, MIB};
use daos_sim::{Pipe, Semaphore, Sim};
use daos_vos::{csum64, ExtentTree, Payload, CSUM_SEED};

use crate::spans::{Tracer, NO_PARENT};
use crate::Values;

const BATCHES: u64 = 5;

/// Time `BATCHES` batches of `calls` calls each; `batch(b)` runs batch `b`
/// and returns how long its calls took. Yields ns per call of the fastest.
fn probe(
    tracer: &Tracer,
    out: &mut Values,
    name: &str,
    calls: u64,
    mut batch: impl FnMut(u64) -> Duration,
) {
    let mut best = f64::INFINITY;
    for b in 0..BATCHES {
        let span = tracer.begin(name, "probe", NO_PARENT, 0);
        let took = batch(b);
        tracer.end(span, 0, vec![("calls".into(), calls.to_string())]);
        best = best.min(took.as_nanos() as f64 / calls as f64);
    }
    out.insert(name.to_string(), best);
}

/// Time a plain loop of `calls` calls of `f(i)`.
fn timed(calls: u64, mut f: impl FnMut(u64)) -> Duration {
    let t0 = Instant::now();
    for i in 0..calls {
        f(i);
    }
    t0.elapsed()
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

pub fn run_probes(tracer: &Tracer) -> Values {
    let mut out = Values::new();
    let o = &mut out;

    // payload hashing: distinct pattern seeds always miss the memo cache,
    // a repeated payload always hits it
    const MISS_LEN: u64 = 64 * KIB;
    probe(tracer, o, "vos.csum64_miss.host_ns_per_mib", 2_000, |b| {
        timed(2_000, |i| {
            let p = Payload::pattern(0xC5_0000_0000 + b * 1_000_000 + i, MISS_LEN);
            black_box(csum64(CSUM_SEED, black_box(&p)));
        })
    });
    *o.get_mut("vos.csum64_miss.host_ns_per_mib").unwrap() *= (MIB / MISS_LEN) as f64;
    let hot = Payload::pattern(0xC5, MIB);
    csum64(CSUM_SEED, &hot);
    probe(tracer, o, "vos.csum64_hit.host_ns", 20_000, |_| {
        timed(20_000, |_| {
            black_box(csum64(CSUM_SEED, black_box(&hot)));
        })
    });

    // VOS extent tree at 4 KiB records (the ior_rand4k_dfs shape)
    const EXTENTS: u64 = 4_000;
    probe(tracer, o, "vos.extent_insert_seq.host_ns", EXTENTS, |b| {
        let mut tree = ExtentTree::new();
        timed(EXTENTS, |i| {
            tree.insert(i * 4 * KIB, i + 1, Payload::pattern(b << 32 | i, 4 * KIB))
        })
    });
    probe(tracer, o, "vos.extent_insert_rand.host_ns", EXTENTS, |b| {
        let mut tree = ExtentTree::new();
        let mut rng = 0x9E37_79B9 + b;
        timed(EXTENTS, |i| {
            let slot = xorshift(&mut rng) % EXTENTS;
            tree.insert(
                slot * 4 * KIB,
                i + 1,
                Payload::pattern(b << 32 | i, 4 * KIB),
            )
        })
    });
    let mut tree = ExtentTree::new();
    for i in 0..EXTENTS {
        tree.insert(i * 4 * KIB, i + 1, Payload::pattern(i, 4 * KIB));
    }
    tree.read(0, 4 * KIB, u64::MAX); // build the lazy index once
    probe(tracer, o, "vos.extent_read.host_ns", EXTENTS, |b| {
        let mut rng = 0xA5A5_A5A5 + b;
        timed(EXTENTS, |_| {
            let slot = xorshift(&mut rng) % EXTENTS;
            black_box(tree.read(slot * 4 * KIB, 4 * KIB, u64::MAX));
        })
    });

    // placement on the paper's 16-engine × 8-target pool map
    let map = PoolMap::new(16, 8);
    for (name, class) in [
        ("placement.place_s1.host_ns", ObjectClass::S1),
        ("placement.place_sx.host_ns", ObjectClass::SX),
    ] {
        probe(tracer, o, name, 4_000, |b| {
            timed(4_000, |i| {
                black_box(place(ObjectId::new(b, i), class, &map));
            })
        });
    }

    // executor: spawn + join, timer insert + pop over mixed horizons,
    // uncontended semaphore
    probe(tracer, o, "sim.spawn_join.host_ns", 20_000, |b| {
        Sim::new(b).block_on(|sim| async move {
            let t0 = Instant::now();
            for i in 0..20_000u64 {
                black_box(sim.spawn(async move { i }).await);
            }
            t0.elapsed()
        })
    });
    probe(tracer, o, "sim.timer.host_ns", 20_000, |b| {
        Sim::new(b).block_on(|sim| async move {
            // 250 sleepers × 80 sleeps keep the wheel populated; horizons
            // from 1 µs to ~16 ms cross the wheel's span, so some take the
            // overflow heap
            let sleepers: Vec<_> = (0..250u64)
                .map(|s| {
                    let sim = sim.clone();
                    sim.clone().spawn(async move {
                        let mut rng = 0x7137 + s;
                        for _ in 0..80 {
                            let shift = xorshift(&mut rng) % 15;
                            sim.sleep_ns(1_000 << shift).await;
                        }
                    })
                })
                .collect();
            let t0 = Instant::now();
            for s in sleepers {
                s.await;
            }
            t0.elapsed()
        })
    });
    probe(tracer, o, "sim.semaphore.host_ns", 20_000, |b| {
        Sim::new(b).block_on(|_sim| async move {
            let sem = Semaphore::new(1);
            let t0 = Instant::now();
            for _ in 0..20_000 {
                black_box(sem.acquire().await);
            }
            t0.elapsed()
        })
    });

    // bandwidth reservations
    probe(tracer, o, "sim.pipe_reserve.host_ns", 20_000, |_| {
        let pipe = Pipe::new("probe", Bandwidth::gib_per_sec(10.0), SimDuration::ZERO);
        timed(20_000, |i| {
            black_box(pipe.reserve_after(i * 100, 128 * KIB));
        })
    });
    probe(tracer, o, "fabric.reserve_message.host_ns", 4_000, |b| {
        let sim = Sim::new(b);
        let fabric = Fabric::new(8, FabricConfig::default());
        timed(4_000, |i| {
            let (from, to) = ((i % 4) as usize, 4 + (i % 4) as usize);
            black_box(fabric.reserve_message(&sim, from, to, MIB));
        })
    });

    // QoS shaper pieces
    probe(tracer, o, "core.qos.drr_select.host_ns", 20_000, |_| {
        let mut drr = Drr::new(MIB);
        for (tenant, weight) in [(1u8, 8u32), (2, 1), (255, 1)] {
            drr.set_weight(tenant, weight);
        }
        timed(20_000, |i| {
            drr.enqueue(
                [1u8, 2, 2, 255][(i % 4) as usize],
                64 * KIB + (i % 16) * 64 * KIB,
            );
            black_box(drr.select());
        })
    });
    probe(tracer, o, "core.qos.bucket_take.host_ns", 20_000, |_| {
        let mut bucket = TokenBucket::new(3 << 30, 2 * MIB);
        timed(20_000, |i| {
            black_box(bucket.try_take(i * 300_000, MIB));
        })
    });

    // DFuse request splitting: an unaligned 4 MiB I/O into 1 MiB requests
    probe(tracer, o, "dfuse.split_aligned.host_ns", 20_000, |_| {
        timed(20_000, |i| {
            black_box(split_aligned(MIB, black_box(i * 4 * KIB), 4 * MIB));
        })
    });

    // RAFT: propose on the leader of a 3-replica in-memory cluster and
    // step rounds until every replica applied it
    probe(tracer, o, "raft.propose_commit.host_ns", 2_000, |b| {
        let mut c: daos_raft::testing::Cluster<u64> = daos_raft::testing::Cluster::new(3, b + 1);
        c.run_until_leader(500);
        let t0 = Instant::now();
        for i in 0..2_000u64 {
            // a lossless, unpartitioned cluster keeps its leader
            c.propose(i).expect("raft probe: leader lost");
            while c.applied.values().any(|log| log.len() as u64 <= i) {
                c.step();
            }
        }
        t0.elapsed()
    });
    out
}
