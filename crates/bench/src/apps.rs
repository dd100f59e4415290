//! The `app_workloads` figure: application-specific I/O benchmarks.
//!
//! The paper closes (§V): *"Future work will include … looking at some
//! application specific I/O benchmarks to evaluate the kind of performance
//! more varied usage patterns will experience."* This figure runs three
//! application workloads, each through the native object API, `libdfs`
//! and POSIX over DFuse, rather than IOR's steady bulk streams:
//!
//! * `nwp` — numerical weather prediction output: bursts of medium-sized
//!   field objects per forecast step, immediately consumed by product
//!   generation (the ECMWF pattern, paper refs 7, 8, 20);
//! * `checkpoint` — compute/checkpoint cadence: the application computes
//!   (idle storage), then every rank dumps its state at once, and a restart
//!   reads the last dump back;
//! * `producer_consumer` — a coupled pipeline: one group writes tiles,
//!   another polls for and reads each as it appears, mixing reads and
//!   writes the way pure-phase benchmarks never do.
//!
//! `examples/weather_fields.rs` and `examples/checkpoint_restart.rs` are
//! the library-level versions of the first two (a KV index, and a shared
//! file through MPI-IO), which the figure's cells do not run.

use std::future::Future;
use std::rc::Rc;

use daos_core::{ArrayHandle, Cluster, ClusterConfig, ContainerHandle, DaosClient, DaosError};
use daos_dfs::{Dfs, DfsConfig};
use daos_dfuse::{DfuseConfig, DfuseMount, OpenFlags};
use daos_placement::{ObjectClass, ObjectId};
use daos_sim::executor::join_all;
use daos_sim::time::SimDuration;
use daos_sim::units::gib_per_sec;
use daos_sim::Sim;
use daos_vos::Payload;

use crate::figure::{Cell, Plan, Scale};
use crate::invariants::{holds, Claim, Probe};
use crate::paper_cluster;

/// `app_workloads`' root seed (each cell's sim is `seed ^` its rung's row
/// in `RUNGS`).
pub const APP_SEED: u64 = 0xA99;

const APP_NODES: u32 = 4;
const APP_KINDS: [&str; 3] = ["nwp", "checkpoint", "producer_consumer"];

/// How a node's mounted DFS becomes its rank binding; `None` is the
/// native API, which mounts nothing.
type OverDfs = Option<fn(Rc<Dfs>) -> RankAccess>;

/// The interface rungs in series order, `(name, binding)`; a rung's row is
/// its cells' seed salt.
const RUNGS: [(&str, OverDfs); 3] = [
    ("native", None),
    ("dfs", Some(RankAccess::Dfs)),
    ("posix", Some(posix)),
];

fn posix(fs: Rc<Dfs>) -> RankAccess {
    RankAccess::Posix(DfuseMount::new(fs, DfuseConfig::default()))
}

/// Outcome of one workload run.
struct WorkloadReport {
    bytes_written: u64,
    bytes_read: u64,
    makespan: SimDuration,
    /// Time the storage system was actually being driven (excludes modelled
    /// compute phases), for utilisation-style metrics.
    io_time: SimDuration,
}

impl WorkloadReport {
    fn bytes(&self) -> u64 {
        self.bytes_written + self.bytes_read
    }
    /// Aggregate bandwidth over the I/O-active time.
    fn io_gib_s(&self) -> f64 {
        gib_per_sec(self.bytes(), self.io_time.as_secs_f64())
    }
    /// End-to-end effective bandwidth (includes compute gaps).
    fn effective_gib_s(&self) -> f64 {
        gib_per_sec(self.bytes(), self.makespan.as_secs_f64())
    }
}

/// A per-rank binding to the storage system under one rung.
#[derive(Clone)]
enum RankAccess {
    Native(ContainerHandle),
    Dfs(Rc<Dfs>),
    Posix(Rc<DfuseMount>),
}

/// The native rung's array for `tag`: the object id derives from the tag,
/// the name is not stored.
fn native(cont: &ContainerHandle, tag: u64, class: ObjectClass) -> ArrayHandle {
    let oid = ObjectId::new(0xA9D, daos_placement::splitmix64(tag));
    cont.object(oid, class).array(1 << 20)
}

impl RankAccess {
    /// Build a `cfg` cluster and bind every client node to it as
    /// `over_dfs` says (container 5, default DFS and DFuse configurations).
    async fn per_node(
        sim: &Sim,
        cfg: ClusterConfig,
        over_dfs: OverDfs,
    ) -> Result<Vec<RankAccess>, DaosError> {
        let cluster = Cluster::build(sim, cfg);
        let mut out = Vec::new();
        for i in 0..cfg.client_nodes {
            let pool = DaosClient::new(Rc::clone(&cluster), i).connect(sim).await?;
            let cont = pool.open_or_create(sim, 5).await?;
            out.push(match over_dfs {
                None => RankAccess::Native(cont),
                Some(bind) => bind(Dfs::mount(sim, cont, DfsConfig::default()).await?),
            });
        }
        Ok(out)
    }

    /// Write a whole named object/file of `p.object_bytes` bytes.
    async fn put(&self, sim: &Sim, name: &str, tag: u64, p: &Params) -> Result<(), DaosError> {
        let (data, class) = (Payload::pattern(tag, p.object_bytes), p.class);
        match self {
            RankAccess::Native(cont) => native(cont, tag, class).write(sim, 0, data).await,
            RankAccess::Dfs(fs) => {
                let f = fs.create(sim, name, class, 1 << 20).await?;
                f.write(sim, 0, data).await
            }
            RankAccess::Posix(m) => {
                let flags = OpenFlags {
                    chunk_size: Some(1 << 20),
                    ..OpenFlags::create_with(class)
                };
                let f = m.open(sim, name, flags).await?;
                f.pwrite(sim, 0, data).await
            }
        }
    }

    /// Read a whole named object/file back; returns bytes read.
    async fn get(&self, sim: &Sim, name: &str, tag: u64, p: &Params) -> Result<u64, DaosError> {
        let (len, class) = (p.object_bytes, p.class);
        let segs = match self {
            RankAccess::Native(cont) => native(cont, tag, class).read(sim, 0, len).await?,
            RankAccess::Dfs(fs) => {
                let f = fs.open(sim, name).await?;
                f.read(sim, 0, len).await?
            }
            RankAccess::Posix(m) => {
                let f = m.open(sim, name, OpenFlags::read()).await?;
                f.pread(sim, 0, len).await?
            }
        };
        Ok(segs.data_bytes())
    }

    /// Does the named object/file exist (polling primitive)?
    async fn exists(&self, sim: &Sim, name: &str, tag: u64, p: &Params) -> Result<bool, DaosError> {
        match self {
            RankAccess::Native(cont) => Ok(native(cont, tag, p.class).size(sim).await? > 0),
            RankAccess::Dfs(fs) => Ok(fs.lookup(sim, name).await?.is_some()),
            RankAccess::Posix(m) => Ok(m.stat(sim, name).await.is_ok()),
        }
    }
}

/// Parameters shared by the workloads.
#[derive(Clone, Copy)]
struct Params {
    writers: u32,
    readers: u32,
    steps: u32,
    object_bytes: u64,
    objects_per_step: u32,
    /// Modelled compute time between output steps.
    compute: SimDuration,
    class: ObjectClass,
}

/// Run ranks `0..ranks` at once, rank `r` on `access[r % len]`, and sum
/// the bytes they moved.
async fn fan_out<Fut>(
    sim: &Sim,
    access: &[RankAccess],
    ranks: u32,
    rank: impl Fn(Sim, u32, RankAccess) -> Fut,
) -> Result<u64, DaosError>
where
    Fut: Future<Output = Result<u64, DaosError>> + 'static,
{
    let futs: Vec<_> = (0..ranks)
        .map(|r| rank(sim.clone(), r, access[r as usize % access.len()].clone()))
        .collect();
    let mut bytes = 0;
    for r in join_all(sim, futs).await {
        bytes += r?;
    }
    Ok(bytes)
}

/// NWP field output and product generation: per step, compute, then the
/// writers emit the step's fields and the readers consume them.
async fn nwp(sim: &Sim, access: Vec<RankAccess>, p: Params) -> Result<WorkloadReport, DaosError> {
    let t0 = sim.now();
    let mut io_time = SimDuration::ZERO;
    let (mut written, mut read) = (0, 0);
    for step in 0..p.steps {
        sim.sleep(p.compute).await;
        let io0 = sim.now();
        let field = move |f: u32| {
            let tag = (step as u64) << 32 | f as u64;
            (tag, format!("/fields.{step}.{f}"))
        };
        written += fan_out(sim, &access, p.writers, |sim, w, acc| async move {
            let mut n = 0u64;
            for f in (w..p.objects_per_step).step_by(p.writers as usize) {
                let (tag, name) = field(f);
                acc.put(&sim, &name, tag, &p).await?;
                n += p.object_bytes;
            }
            Ok(n)
        })
        .await?;
        read += fan_out(sim, &access, p.readers, |sim, r, acc| async move {
            let mut n = 0u64;
            for f in (r..p.objects_per_step).step_by(p.readers as usize) {
                let (tag, name) = field(f);
                n += acc.get(&sim, &name, tag, &p).await?;
            }
            Ok(n)
        })
        .await?;
        io_time += sim.now() - io0;
    }
    Ok(WorkloadReport {
        bytes_written: written,
        bytes_read: read,
        makespan: sim.now() - t0,
        io_time,
    })
}

/// Compute/checkpoint cadence: `steps` rounds of compute, then every
/// writer dumps `object_bytes`; a restart reads the last round back.
async fn checkpoint(
    sim: &Sim,
    access: Vec<RankAccess>,
    p: Params,
) -> Result<WorkloadReport, DaosError> {
    let t0 = sim.now();
    let mut io_time = SimDuration::ZERO;
    let mut written = 0u64;
    let dump = |step: u32, w: u32| {
        let tag = 0xC4E0_0000u64 | (step as u64) << 16 | w as u64;
        (tag, format!("/ckpt.{step}.rank{w}"))
    };
    for step in 0..p.steps {
        sim.sleep(p.compute).await;
        let io0 = sim.now();
        written += fan_out(sim, &access, p.writers, |sim, w, acc| async move {
            let (tag, name) = dump(step, w);
            acc.put(&sim, &name, tag, &p).await?;
            Ok(p.object_bytes)
        })
        .await?;
        io_time += sim.now() - io0;
    }
    let io0 = sim.now();
    let read = fan_out(sim, &access, p.writers, |sim, w, acc| async move {
        let (tag, name) = dump(p.steps - 1, w);
        acc.get(&sim, &name, tag, &p).await
    })
    .await?;
    Ok(WorkloadReport {
        bytes_written: written,
        bytes_read: read,
        makespan: sim.now() - t0,
        io_time: io_time + (sim.now() - io0),
    })
}

/// Coupled producer/consumer pipeline: producers emit tiles while
/// consumers poll for and read each tile as soon as it appears,
/// overlapping reads with ongoing writes.
async fn producer_consumer(
    sim: &Sim,
    access: Vec<RankAccess>,
    p: Params,
) -> Result<WorkloadReport, DaosError> {
    let t0 = sim.now();
    let tiles = p.objects_per_step * p.steps;
    // rank `r` of its group takes every `every`-th tile from tile `r`
    let rank = |r: u32, consumer: bool| {
        let acc = access[r as usize % access.len()].clone();
        let sim = sim.clone();
        let every = if consumer { p.readers } else { p.writers };
        async move {
            let mut n = 0u64;
            for t in (r..tiles).step_by(every as usize) {
                let tag = 0x90D0_0000u64 | t as u64;
                let name = format!("/tile.{t}");
                if !consumer {
                    acc.put(&sim, &name, tag, &p).await?;
                    n += p.object_bytes;
                    continue;
                }
                // poll until the producer publishes the tile (coarse
                // interval: polling storms are exactly what coupled
                // applications must avoid)
                while !acc.exists(&sim, &name, tag, &p).await? {
                    sim.sleep_ms(2).await;
                }
                n += acc.get(&sim, &name, tag, &p).await?;
            }
            Ok::<u64, DaosError>(n)
        }
    };
    // every producer, then every consumer, is running before any is awaited
    let ranks = (0..p.writers).map(|w| rank(w, false));
    let ranks = ranks.chain((0..p.readers).map(|r| rank(r, true))).collect();
    let bytes: Vec<u64> = join_all(sim, ranks)
        .await
        .into_iter()
        .collect::<Result<_, _>>()?;
    let (produced, consumed) = bytes.split_at(p.writers as usize);
    let makespan = sim.now() - t0;
    Ok(WorkloadReport {
        bytes_written: produced.iter().sum(),
        bytes_read: consumed.iter().sum(),
        makespan,
        io_time: makespan, // fully overlapped: I/O active throughout
    })
}

/// NWP field output, checkpoint/restart and a producer-consumer pipeline,
/// each through the native API, `libdfs` and POSIX/DFuse, on 4 nodes.
/// Every scale runs the whole plan: it takes milliseconds.
pub fn app_workloads_plan(_: Scale) -> Plan {
    let mut cells = Vec::new();
    for kind in APP_KINDS {
        for (salt, (rung, over_dfs)) in RUNGS.into_iter().enumerate() {
            let series = format!("{kind}/{rung}");
            cells.push(Cell::new(series.clone(), move |out| {
                let mut sim = Sim::new(APP_SEED ^ salt as u64);
                let r = sim.block_on(move |sim| async move {
                    let acc = RankAccess::per_node(&sim, paper_cluster(APP_NODES), over_dfs)
                        .await
                        .expect("mount");
                    let mut p = Params {
                        writers: 32,
                        readers: 16,
                        steps: 3,
                        object_bytes: 2 << 20,
                        objects_per_step: 128,
                        compute: SimDuration::from_ms(25),
                        class: ObjectClass::S2,
                    };
                    let r = match kind {
                        "nwp" => nwp(&sim, acc, p).await,
                        "checkpoint" => checkpoint(&sim, acc, p).await,
                        _ => {
                            // the coupled pipeline polls; keep its tile count moderate
                            p.objects_per_step = 48;
                            p.steps = 2;
                            producer_consumer(&sim, acc, p).await
                        }
                    };
                    r.expect("workload")
                });
                out.record(&series, APP_NODES, "io_gib_s", r.io_gib_s());
                out.record(&series, APP_NODES, "effective_gib_s", r.effective_gib_s());
                let makespan_ms = r.makespan.as_us_f64() / 1000.0;
                out.record(&series, APP_NODES, "makespan_ms", makespan_ms);
            }));
        }
    }
    Plan {
        config_hash: 0,
        cells,
    }
}

/// The I/O bandwidth of one workload through one rung.
fn io_gib_s(r: &Probe, kind: &str, rung: &str) -> Result<f64, String> {
    r.get(&format!("{kind}/{rung}"), APP_NODES, "io_gib_s")
}

/// What an `app_workloads` report must show.
pub const APP_CLAIMS: &[Claim] = &[
    // the paper's conclusion, restated for varied patterns: file APIs stay
    // close to the native object API even off the bulk-I/O happy path
    Claim {
        prose: "file interfaces within 35% of native across all three app workloads",
        test: |r| {
            let mut pass = true;
            for w in APP_KINDS {
                let native = io_gib_s(r, w, "native")?;
                pass &= io_gib_s(r, w, "dfs")? > 0.65 * native;
                pass &= io_gib_s(r, w, "posix")? > 0.65 * native;
            }
            holds(pass)
        },
    },
    Claim {
        prose: "pipeline overlap beats phase separation (producer_consumer vs nwp)",
        test: |r| {
            let mut pass = true;
            for (rung, _) in RUNGS {
                pass &= io_gib_s(r, "producer_consumer", rung)? > io_gib_s(r, "nwp", rung)?;
            }
            holds(pass)
        },
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    async fn accesses(sim: &Sim, over_dfs: OverDfs) -> Vec<RankAccess> {
        let cfg = ClusterConfig::tiny(2);
        RankAccess::per_node(sim, cfg, over_dfs).await.unwrap()
    }

    fn small() -> Params {
        Params {
            writers: 4,
            readers: 2,
            steps: 2,
            object_bytes: 256 << 10,
            objects_per_step: 8,
            compute: SimDuration::from_ms(1),
            class: ObjectClass::S2,
        }
    }

    const DFS: OverDfs = RUNGS[1].1;
    const POSIX: OverDfs = RUNGS[2].1;

    #[test]
    fn nwp_moves_every_field_on_all_access_modes() {
        for (salt, (rung, over_dfs)) in RUNGS.into_iter().enumerate() {
            let mut sim = Sim::new(0x1200 ^ salt as u64);
            let rep = sim.block_on(move |sim| async move {
                let acc = accesses(&sim, over_dfs).await;
                nwp(&sim, acc, small()).await.unwrap()
            });
            let expect = 2 * 8 * (256u64 << 10);
            assert_eq!(rep.bytes_written, expect, "{rung}");
            assert_eq!(rep.bytes_read, expect, "{rung}");
            assert!(rep.io_gib_s() > 0.0);
            assert!(rep.makespan > rep.io_time, "compute must add makespan");
        }
    }

    #[test]
    fn checkpoint_restart_reads_what_it_wrote() {
        let mut sim = Sim::new(0x1201);
        let rep = sim.block_on(|sim| async move {
            let acc = accesses(&sim, POSIX).await;
            checkpoint(&sim, acc, small()).await.unwrap()
        });
        assert_eq!(rep.bytes_written, 2 * 4 * (256u64 << 10));
        assert_eq!(rep.bytes_read, 4 * (256u64 << 10));
    }

    #[test]
    fn producer_consumer_overlaps_and_completes() {
        let mut sim = Sim::new(0x1202);
        let rep = sim.block_on(|sim| async move {
            let acc = accesses(&sim, DFS).await;
            producer_consumer(&sim, acc, small()).await.unwrap()
        });
        let expect = 2 * 8 * (256u64 << 10);
        assert_eq!(rep.bytes_written, expect);
        assert_eq!(rep.bytes_read, expect);
        // pipeline overlap: makespan well under write-then-read serial time
        assert!(rep.effective_gib_s() > 0.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let go = || {
            let mut sim = Sim::new(0x1203);
            sim.block_on(|sim| async move {
                let acc = accesses(&sim, DFS).await;
                nwp(&sim, acc, small()).await.unwrap().makespan
            })
        };
        assert_eq!(go(), go());
    }
}
