//! # daos-workloads — application-specific I/O benchmarks
//!
//! The paper closes (§V): *"Future work will include … looking at some
//! application specific I/O benchmarks to evaluate the kind of performance
//! more varied usage patterns will experience."* This crate implements that
//! future work: three application workload generators that exercise the
//! stack the way real HPC applications do, rather than IOR's steady bulk
//! streams:
//!
//! * [`nwp`] — numerical weather prediction output: bursts of medium-sized
//!   semantically-indexed field objects per forecast step, immediately
//!   consumed by product generation (the ECMWF pattern, paper refs 7, 8, 20);
//! * [`checkpoint`] — compute/checkpoint cadence: the application computes
//!   (idle storage), then every rank dumps state through POSIX at once —
//!   bursty, latency-sensitive, shared- or private-file;
//! * [`producer_consumer`] — a coupled pipeline: one group writes tiles,
//!   another polls-and-reads them with a bounded lag, stressing mixed
//!   read/write behaviour that pure-phase benchmarks never show.
//!
//! Each workload returns a [`WorkloadReport`] with phase timings and
//! bandwidths; `daos-bench`'s `app_workloads` binary tabulates them across
//! interfaces.

// No `unsafe` may enter the workspace outside the audited kernel
// crate (`daos-sim`, which denies `clippy::undocumented_unsafe_blocks`).
#![forbid(unsafe_code)]

use std::rc::Rc;

use daos_core::{ArrayHandle, Cluster, ClusterConfig, ContainerHandle, DaosClient, DaosError};
use daos_dfs::{Dfs, DfsConfig};
use daos_dfuse::{DfuseConfig, DfuseMount, OpenFlags};
use daos_placement::{ObjectClass, ObjectId};
use daos_sim::executor::join_all;
use daos_sim::time::{SimDuration, SimTime};
use daos_sim::units::gib_per_sec;
use daos_sim::Sim;
use daos_vos::Payload;

/// How a workload reaches DAOS.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Access {
    /// Native object/array APIs.
    Native,
    /// `libdfs` file calls.
    Dfs,
    /// POSIX through DFuse.
    Posix,
}

impl Access {
    pub fn name(&self) -> &'static str {
        match self {
            Access::Native => "native",
            Access::Dfs => "dfs",
            Access::Posix => "posix",
        }
    }
}

/// Outcome of one workload run.
#[derive(Clone, Debug)]
pub struct WorkloadReport {
    pub bytes_written: u64,
    pub bytes_read: u64,
    pub makespan: SimDuration,
    /// Time the storage system was actually being driven (excludes modelled
    /// compute phases), for utilisation-style metrics.
    pub io_time: SimDuration,
}

impl WorkloadReport {
    /// Aggregate bandwidth over the I/O-active time.
    pub fn io_gib_s(&self) -> f64 {
        gib_per_sec(
            self.bytes_written + self.bytes_read,
            self.io_time.as_secs_f64(),
        )
    }
    /// End-to-end effective bandwidth (includes compute gaps).
    pub fn effective_gib_s(&self) -> f64 {
        gib_per_sec(
            self.bytes_written + self.bytes_read,
            self.makespan.as_secs_f64(),
        )
    }
}

/// A per-rank binding to the storage system under one access mode.
#[derive(Clone)]
pub enum RankAccess {
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
    /// Build a `cfg` cluster and bind every client node to it through
    /// `which` (container 5, default DFS and DFuse configurations).
    pub async fn per_node(
        sim: &Sim,
        cfg: ClusterConfig,
        which: Access,
    ) -> Result<Vec<RankAccess>, DaosError> {
        let cluster = Cluster::build(sim, cfg);
        let mut out = Vec::new();
        for i in 0..cfg.client_nodes {
            let pool = DaosClient::new(Rc::clone(&cluster), i).connect(sim).await?;
            if which == Access::Native {
                out.push(RankAccess::Native(pool.open_or_create(sim, 5).await?));
                continue;
            }
            let fs = Dfs::mount(sim, &pool, 5, DfsConfig::default(), i as u64).await?;
            out.push(match which {
                Access::Dfs => RankAccess::Dfs(fs),
                _ => RankAccess::Posix(DfuseMount::new(fs, DfuseConfig::default())),
            });
        }
        Ok(out)
    }

    /// Write a whole named object/file of `len` bytes.
    pub async fn put(
        &self,
        sim: &Sim,
        name: &str,
        tag: u64,
        len: u64,
        class: ObjectClass,
    ) -> Result<(), DaosError> {
        let data = Payload::pattern(tag, len);
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
    pub async fn get(
        &self,
        sim: &Sim,
        name: &str,
        tag: u64,
        len: u64,
        class: ObjectClass,
    ) -> Result<u64, DaosError> {
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
        Ok(segs
            .iter()
            .filter(|s| s.data.is_some())
            .map(|s| s.len)
            .sum())
    }

    /// Does the named object/file exist (polling primitive)?
    pub async fn exists(
        &self,
        sim: &Sim,
        name: &str,
        tag: u64,
        class: ObjectClass,
    ) -> Result<bool, DaosError> {
        match self {
            RankAccess::Native(cont) => Ok(native(cont, tag, class).size(sim).await? > 0),
            RankAccess::Dfs(fs) => Ok(fs.lookup(sim, name).await?.is_some()),
            RankAccess::Posix(m) => Ok(m.stat(sim, name).await.is_ok()),
        }
    }
}

/// Parameters shared by the workloads.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadParams {
    pub writers: u32,
    pub readers: u32,
    pub steps: u32,
    pub object_bytes: u64,
    pub objects_per_step: u32,
    /// Modelled compute time between output steps.
    pub compute: SimDuration,
    pub class: ObjectClass,
}

impl Default for WorkloadParams {
    fn default() -> Self {
        WorkloadParams {
            writers: 16,
            readers: 8,
            steps: 3,
            object_bytes: 2 << 20,
            objects_per_step: 64,
            compute: SimDuration::from_ms(20),
            class: ObjectClass::S2,
        }
    }
}

fn since(sim: &Sim, t0: SimTime) -> SimDuration {
    sim.now() - t0
}

/// NWP field output + product generation (see module docs).
pub mod nwp {
    use super::*;

    /// Run the forecast-output/product-generation cycle.
    pub async fn run(
        sim: &Sim,
        access: Vec<RankAccess>,
        p: WorkloadParams,
    ) -> Result<WorkloadReport, DaosError> {
        let t0 = sim.now();
        let mut io_time = SimDuration::ZERO;
        let mut written = 0u64;
        let mut read = 0u64;
        for step in 0..p.steps {
            // compute phase
            sim.sleep(p.compute).await;
            // output burst: writers emit this step's fields
            let io0 = sim.now();
            let futs: Vec<_> = (0..p.writers)
                .map(|w| {
                    let acc = access[w as usize % access.len()].clone();
                    let sim = sim.clone();
                    async move {
                        let mut n = 0u64;
                        let mut f = w;
                        while f < p.objects_per_step {
                            let tag = (step as u64) << 32 | f as u64;
                            acc.put(
                                &sim,
                                &format!("/fields.{step}.{f}"),
                                tag,
                                p.object_bytes,
                                p.class,
                            )
                            .await?;
                            n += p.object_bytes;
                            f += p.writers;
                        }
                        Ok::<u64, DaosError>(n)
                    }
                })
                .collect();
            for r in join_all(sim, futs).await {
                written += r?;
            }
            // product generation: readers consume the fresh step
            let futs: Vec<_> = (0..p.readers)
                .map(|r| {
                    let acc = access[r as usize % access.len()].clone();
                    let sim = sim.clone();
                    async move {
                        let mut n = 0u64;
                        let mut f = r;
                        while f < p.objects_per_step {
                            let tag = (step as u64) << 32 | f as u64;
                            n += acc
                                .get(
                                    &sim,
                                    &format!("/fields.{step}.{f}"),
                                    tag,
                                    p.object_bytes,
                                    p.class,
                                )
                                .await?;
                            f += p.readers;
                        }
                        Ok::<u64, DaosError>(n)
                    }
                })
                .collect();
            for r in join_all(sim, futs).await {
                read += r?;
            }
            io_time += since(sim, io0);
        }
        Ok(WorkloadReport {
            bytes_written: written,
            bytes_read: read,
            makespan: since(sim, t0),
            io_time,
        })
    }
}

/// Compute/checkpoint cadence (see module docs).
pub mod checkpoint {
    use super::*;

    /// Run `steps` compute+checkpoint rounds; every writer dumps
    /// `object_bytes` per round.
    pub async fn run(
        sim: &Sim,
        access: Vec<RankAccess>,
        p: WorkloadParams,
    ) -> Result<WorkloadReport, DaosError> {
        let t0 = sim.now();
        let mut io_time = SimDuration::ZERO;
        let mut written = 0u64;
        for step in 0..p.steps {
            sim.sleep(p.compute).await;
            let io0 = sim.now();
            let futs: Vec<_> = (0..p.writers)
                .map(|w| {
                    let acc = access[w as usize % access.len()].clone();
                    let sim = sim.clone();
                    async move {
                        let tag = 0xC4E0_0000u64 | (step as u64) << 16 | w as u64;
                        acc.put(
                            &sim,
                            &format!("/ckpt.{step}.rank{w}"),
                            tag,
                            p.object_bytes,
                            p.class,
                        )
                        .await?;
                        Ok::<u64, DaosError>(p.object_bytes)
                    }
                })
                .collect();
            for r in join_all(sim, futs).await {
                written += r?;
            }
            io_time += since(sim, io0);
        }
        // restart: read the final checkpoint back
        let io0 = sim.now();
        let step = p.steps - 1;
        let mut read = 0u64;
        let futs: Vec<_> = (0..p.writers)
            .map(|w| {
                let acc = access[w as usize % access.len()].clone();
                let sim = sim.clone();
                async move {
                    let tag = 0xC4E0_0000u64 | (step as u64) << 16 | w as u64;
                    acc.get(
                        &sim,
                        &format!("/ckpt.{step}.rank{w}"),
                        tag,
                        p.object_bytes,
                        p.class,
                    )
                    .await
                }
            })
            .collect();
        for r in join_all(sim, futs).await {
            read += r?;
        }
        let io_total = io_time + since(sim, io0);
        Ok(WorkloadReport {
            bytes_written: written,
            bytes_read: read,
            makespan: since(sim, t0),
            io_time: io_total,
        })
    }
}

/// Coupled producer/consumer pipeline (see module docs).
pub mod producer_consumer {
    use super::*;

    /// Producers emit tiles; consumers poll for and read each tile as soon
    /// as it appears, overlapping reads with ongoing writes.
    pub async fn run(
        sim: &Sim,
        access: Vec<RankAccess>,
        p: WorkloadParams,
    ) -> Result<WorkloadReport, DaosError> {
        let t0 = sim.now();
        let total_tiles = p.objects_per_step * p.steps;
        let producers: Vec<_> = (0..p.writers)
            .map(|w| {
                let acc = access[w as usize % access.len()].clone();
                let sim = sim.clone();
                sim.clone().spawn(async move {
                    let mut n = 0u64;
                    let mut t = w;
                    while t < total_tiles {
                        let tag = 0x90D0_0000u64 | t as u64;
                        acc.put(&sim, &format!("/tile.{t}"), tag, p.object_bytes, p.class)
                            .await?;
                        n += p.object_bytes;
                        t += p.writers;
                    }
                    Ok::<u64, DaosError>(n)
                })
            })
            .collect();
        let consumers: Vec<_> = (0..p.readers)
            .map(|r| {
                let acc = access[r as usize % access.len()].clone();
                let sim = sim.clone();
                sim.clone().spawn(async move {
                    let mut n = 0u64;
                    let mut t = r;
                    while t < total_tiles {
                        let tag = 0x90D0_0000u64 | t as u64;
                        let name = format!("/tile.{t}");
                        // poll until the producer publishes the tile
                        // (coarse interval: polling storms are exactly what
                        // coupled applications must avoid)
                        while !acc.exists(&sim, &name, tag, p.class).await? {
                            sim.sleep_ms(2).await;
                        }
                        n += acc.get(&sim, &name, tag, p.object_bytes, p.class).await?;
                        t += p.readers;
                    }
                    Ok::<u64, DaosError>(n)
                })
            })
            .collect();
        let mut written = 0u64;
        for h in producers {
            written += h.await?;
        }
        let mut read = 0u64;
        for h in consumers {
            read += h.await?;
        }
        let makespan = since(sim, t0);
        Ok(WorkloadReport {
            bytes_written: written,
            bytes_read: read,
            makespan,
            io_time: makespan, // fully overlapped: I/O active throughout
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    async fn accesses(sim: &Sim, which: Access) -> Vec<RankAccess> {
        let cfg = ClusterConfig::tiny(2);
        RankAccess::per_node(sim, cfg, which).await.unwrap()
    }

    fn small() -> WorkloadParams {
        WorkloadParams {
            writers: 4,
            readers: 2,
            steps: 2,
            object_bytes: 256 << 10,
            objects_per_step: 8,
            compute: SimDuration::from_ms(1),
            class: ObjectClass::S2,
        }
    }

    #[test]
    fn nwp_moves_every_field_on_all_access_modes() {
        for which in [Access::Native, Access::Dfs, Access::Posix] {
            let mut sim = Sim::new(0x1200 ^ which as u64);
            let rep = sim.block_on(move |sim| async move {
                let acc = accesses(&sim, which).await;
                nwp::run(&sim, acc, small()).await.unwrap()
            });
            let expect = 2 * 8 * (256u64 << 10);
            assert_eq!(rep.bytes_written, expect, "{which:?}");
            assert_eq!(rep.bytes_read, expect, "{which:?}");
            assert!(rep.io_gib_s() > 0.0);
            assert!(rep.makespan > rep.io_time, "compute must add makespan");
        }
    }

    #[test]
    fn checkpoint_restart_reads_what_it_wrote() {
        let mut sim = Sim::new(0x1201);
        let rep = sim.block_on(|sim| async move {
            let acc = accesses(&sim, Access::Posix).await;
            checkpoint::run(&sim, acc, small()).await.unwrap()
        });
        assert_eq!(rep.bytes_written, 2 * 4 * (256u64 << 10));
        assert_eq!(rep.bytes_read, 4 * (256u64 << 10));
    }

    #[test]
    fn producer_consumer_overlaps_and_completes() {
        let mut sim = Sim::new(0x1202);
        let rep = sim.block_on(|sim| async move {
            let acc = accesses(&sim, Access::Dfs).await;
            producer_consumer::run(&sim, acc, small()).await.unwrap()
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
                let acc = accesses(&sim, Access::Dfs).await;
                nwp::run(&sim, acc, small()).await.unwrap().makespan
            })
        };
        assert_eq!(go(), go());
    }
}
