//! # daos-pfs — a Lustre-like parallel filesystem baseline
//!
//! The paper's §IV closes on the observation that on DAOS, shared-file and
//! file-per-process I/O perform alike, "in stark contrast to the
//! performance standard parallel filesystems provide". This crate is that
//! standard parallel filesystem, modelled with the three mechanisms that
//! produce the contrast:
//!
//! * a **single metadata server** (MDS): every open/create/stat is one
//!   FIFO-served RPC — file-per-process create storms serialise here;
//! * **striped OSTs**: file data striped `stripe_size` round-robin over
//!   `stripe_count` object storage targets, each a bandwidth-limited
//!   device behind the shared fabric;
//! * an **LDLM-style extent lock manager** per (file, OST) pair: writers
//!   take PW locks that Lustre optimistically expands to the largest free
//!   extent; a conflicting writer forces a **revoke round trip** (callback
//!   latency + dirty flush) before it can proceed. Interleaved shared-file
//!   writes ping-pong these locks on every transfer, serialising OST
//!   service — the classic shared-file collapse. Readers take PR locks,
//!   which are mutually compatible.

// No `unsafe` may enter the workspace outside the audited kernel
// crate (`daos-sim`, which denies `clippy::undocumented_unsafe_blocks`).
#![forbid(unsafe_code)]

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use daos_fabric::{Fabric, FabricConfig, NodeId};
use daos_sim::time::SimDuration;
use daos_sim::units::Bandwidth;
use daos_sim::{Pipe, Semaphore, SharedPipe, Sim};
use daos_vos::Payload;

/// Lock mode on a file extent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockMode {
    /// Protected read — compatible with other PR locks.
    Pr,
    /// Protected write — exclusive.
    Pw,
}

/// Testbed parameters.
#[derive(Clone, Copy, Debug)]
pub struct PfsConfig {
    /// Number of object storage targets.
    pub ost_count: u32,
    /// Per-OST write bandwidth.
    pub ost_write_bw: Bandwidth,
    /// Per-OST read bandwidth.
    pub ost_read_bw: Bandwidth,
    /// Stripe unit.
    pub stripe_size: u64,
    /// Default stripe count for new files.
    pub stripe_count: u32,
    /// MDS service time per metadata op.
    pub mds_op: SimDuration,
    /// LDLM enqueue service time (uncontended).
    pub lock_op: SimDuration,
    /// Cost of revoking a conflicting lock (callback + client flush).
    pub revoke_cost: SimDuration,
    /// Client nodes on the fabric.
    pub client_nodes: u32,
    /// Fabric parameters (shared with the DAOS testbed for fairness).
    pub fabric: FabricConfig,
}

impl Default for PfsConfig {
    /// A flash-era Lustre comparable in raw capacity to the DAOS testbed.
    fn default() -> Self {
        PfsConfig {
            ost_count: 16,
            ost_write_bw: Bandwidth::gib_per_sec(2.2),
            ost_read_bw: Bandwidth::gib_per_sec(3.0),
            stripe_size: 1 << 20,
            stripe_count: 1,
            mds_op: SimDuration::from_us(120),
            lock_op: SimDuration::from_us(30),
            revoke_cost: SimDuration::from_us(600),
            client_nodes: 1,
            fabric: FabricConfig::default(),
        }
    }
}

/// File identifier.
pub type Fid = u64;

struct GrantedLock {
    owner: u64,
    lo: u64,
    hi: u64,
    mode: LockMode,
}

struct OstState {
    write_pipe: SharedPipe,
    read_pipe: SharedPipe,
    /// (fid) -> extent locks on this OST's object of that file.
    locks: RefCell<BTreeMap<Fid, Vec<GrantedLock>>>,
    /// LDLM service serialisation.
    ldlm: Semaphore,
}

struct FileMeta {
    fid: Fid,
    stripe_count: u32,
    size: Cell<u64>,
}

/// The filesystem: one MDS, many OSTs, a lock manager per OST.
pub struct Pfs {
    cfg: PfsConfig,
    fabric: Rc<Fabric>,
    mds: Semaphore,
    mds_pipe: SharedPipe,
    osts: Vec<OstState>,
    namespace: RefCell<BTreeMap<String, Rc<FileMeta>>>,
    next_fid: Cell<Fid>,
    revokes: Cell<u64>,
    lock_rpcs: Cell<u64>,
}

/// Statistics counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct PfsStats {
    pub lock_rpcs: u64,
    pub revokes: u64,
}

/// An open file descriptor (per client process).
#[derive(Clone)]
pub struct PfsFile {
    fs: Rc<Pfs>,
    meta: Rc<FileMeta>,
    /// Lock-owner identity (client process id).
    owner: u64,
    /// Client fabric node.
    node: NodeId,
}

impl Pfs {
    /// Build the filesystem. Fabric layout: OSTs on nodes `0..ost_count`,
    /// the MDS on node `ost_count`, client node `i` on `ost_count + 1 + i`.
    pub fn build(cfg: PfsConfig) -> Rc<Pfs> {
        let fabric = Fabric::new((cfg.ost_count + 1 + cfg.client_nodes) as usize, cfg.fabric);
        let osts = (0..cfg.ost_count)
            .map(|i| OstState {
                write_pipe: Pipe::new(
                    format!("ost{i}.wr"),
                    cfg.ost_write_bw,
                    SimDuration::from_us(40),
                ),
                read_pipe: Pipe::new(
                    format!("ost{i}.rd"),
                    cfg.ost_read_bw,
                    SimDuration::from_us(60),
                ),
                locks: RefCell::new(BTreeMap::new()),
                ldlm: Semaphore::new(1),
            })
            .collect();
        Rc::new(Pfs {
            fabric,
            mds: Semaphore::new(1),
            mds_pipe: Pipe::new("mds", Bandwidth::gib_per_sec(8.0), SimDuration::from_us(20)),
            osts,
            namespace: RefCell::new(BTreeMap::new()),
            next_fid: Cell::new(1),
            revokes: Cell::new(0),
            lock_rpcs: Cell::new(0),
            cfg,
        })
    }

    /// The filesystem's configuration.
    pub fn config(&self) -> &PfsConfig {
        &self.cfg
    }
    /// Lock-traffic counters.
    pub fn stats(&self) -> PfsStats {
        PfsStats {
            lock_rpcs: self.lock_rpcs.get(),
            revokes: self.revokes.get(),
        }
    }
    /// Fabric node of client node `i`.
    pub fn client_node(&self, i: u32) -> NodeId {
        (self.cfg.ost_count + 1 + i) as NodeId
    }
    fn mds_node(&self) -> NodeId {
        self.cfg.ost_count as NodeId
    }

    async fn mds_op(&self, sim: &Sim, client: NodeId) {
        // request to MDS, FIFO service, reply
        self.fabric.message(sim, client, self.mds_node(), 256).await;
        let _t = self.mds.acquire().await;
        self.mds_pipe.occupy(sim, self.cfg.mds_op).await;
        drop(_t);
        self.fabric.message(sim, self.mds_node(), client, 256).await;
    }

    /// Create (or open existing) a file; every call is an MDS round trip.
    pub async fn open(
        self: &Rc<Self>,
        sim: &Sim,
        client_node_idx: u32,
        owner: u64,
        path: &str,
        create: bool,
    ) -> Result<PfsFile, String> {
        let node = self.client_node(client_node_idx);
        self.mds_op(sim, node).await;
        let meta = {
            let mut ns = self.namespace.borrow_mut();
            match ns.get(path) {
                Some(m) => Rc::clone(m),
                None if create => {
                    let fid = self.next_fid.get();
                    self.next_fid.set(fid + 1);
                    let m = Rc::new(FileMeta {
                        fid,
                        stripe_count: self.cfg.stripe_count.min(self.cfg.ost_count),
                        size: Cell::new(0),
                    });
                    ns.insert(path.to_string(), Rc::clone(&m));
                    m
                }
                None => return Err(format!("no such file: {path}")),
            }
        };
        Ok(PfsFile {
            fs: Rc::clone(self),
            meta,
            owner,
            node,
        })
    }

    /// `stat(2)`: one MDS round trip (+ OST glimpse, folded into mds_op).
    pub async fn stat(&self, sim: &Sim, client_node_idx: u32, path: &str) -> Result<u64, String> {
        let node = self.client_node(client_node_idx);
        self.mds_op(sim, node).await;
        self.namespace
            .borrow()
            .get(path)
            .map(|m| m.size.get())
            .ok_or_else(|| format!("no such file: {path}"))
    }

    /// `unlink(2)`.
    pub async fn unlink(&self, sim: &Sim, client_node_idx: u32, path: &str) -> Result<(), String> {
        let node = self.client_node(client_node_idx);
        self.mds_op(sim, node).await;
        self.namespace
            .borrow_mut()
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| format!("no such file: {path}"))
    }

    /// Acquire an extent lock on `(fid, ost)`; returns after any revokes.
    #[allow(
        clippy::too_many_arguments,
        reason = "an LDLM enqueue request's fields, as the protocol names them"
    )]
    async fn ldlm_enqueue(
        &self,
        sim: &Sim,
        client: NodeId,
        ost: usize,
        fid: Fid,
        lo: u64,
        hi: u64,
        mode: LockMode,
        owner: u64,
    ) {
        // fast path: the owner already holds a covering, compatible lock
        {
            let locks = self.osts[ost].locks.borrow();
            if let Some(ls) = locks.get(&fid) {
                if ls.iter().any(|l| {
                    l.owner == owner
                        && l.lo <= lo
                        && l.hi >= hi
                        && (l.mode == LockMode::Pw || l.mode == mode)
                }) {
                    return; // cached grant, no RPC
                }
            }
        }
        self.lock_rpcs.set(self.lock_rpcs.get() + 1);
        self.fabric.message(sim, client, ost as NodeId, 256).await;
        let _svc = self.osts[ost].ldlm.acquire().await;
        sim.sleep(self.cfg.lock_op).await;

        // revoke every incompatible grant
        let conflicts: Vec<(u64, u64, u64)> = {
            let locks = self.osts[ost].locks.borrow();
            locks
                .get(&fid)
                .map(|ls| {
                    ls.iter()
                        .filter(|l| {
                            l.lo < hi
                                && l.hi > lo
                                && l.owner != owner
                                && (l.mode == LockMode::Pw || mode == LockMode::Pw)
                        })
                        .map(|l| (l.owner, l.lo, l.hi))
                        .collect()
                })
                .unwrap_or_default()
        };
        for _ in &conflicts {
            self.revokes.set(self.revokes.get() + 1);
            sim.sleep(self.cfg.revoke_cost).await;
        }
        {
            let mut locks = self.osts[ost].locks.borrow_mut();
            let ls = locks.entry(fid).or_default();
            ls.retain(|l| {
                !conflicts
                    .iter()
                    .any(|&(o, clo, chi)| l.owner == o && l.lo == clo && l.hi == chi)
            });
            // optimistic expansion: grow the grant to the largest gap free
            // of other owners' locks (Lustre grants up to OBD_OBJECT_EOF)
            let mut glo = 0u64;
            let mut ghi = u64::MAX;
            for l in ls.iter() {
                if l.owner == owner {
                    continue;
                }
                if l.hi <= lo {
                    glo = glo.max(l.hi);
                } else if l.lo >= hi {
                    ghi = ghi.min(l.lo);
                }
            }
            ls.push(GrantedLock {
                owner,
                lo: glo,
                hi: ghi,
                mode,
            });
        }
        self.fabric.message(sim, ost as NodeId, client, 256).await;
    }
}

impl PfsFile {
    /// The file's current size.
    pub fn size(&self) -> u64 {
        self.meta.size.get()
    }

    /// Stripe pieces of `[off, off+len)`: `(ost, piece_off, piece_len)`.
    fn stripes(&self, off: u64, len: u64) -> Vec<(usize, u64, u64)> {
        let ss = self.fs.cfg.stripe_size;
        let sc = self.meta.stripe_count as u64;
        let mut out = Vec::new();
        let mut cur = off;
        let end = off + len;
        while cur < end {
            let stripe = cur / ss;
            let in_stripe = cur % ss;
            let take = (ss - in_stripe).min(end - cur);
            let ost = ((stripe % sc) + (self.meta.fid % self.fs.cfg.ost_count as u64))
                % self.fs.cfg.ost_count as u64;
            out.push((ost as usize, cur, take));
            cur += take;
        }
        out
    }

    /// `pwrite(2)`: per-stripe PW lock + fabric transfer + OST service.
    pub async fn write(&self, sim: &Sim, off: u64, data: Payload) -> Result<(), String> {
        for (ost, poff, plen) in self.stripes(off, data.len()) {
            self.fs
                .ldlm_enqueue(
                    sim,
                    self.node,
                    ost,
                    self.meta.fid,
                    poff,
                    poff + plen,
                    LockMode::Pw,
                    self.owner,
                )
                .await;
            self.fs
                .fabric
                .message(sim, self.node, ost as NodeId, plen + 256)
                .await;
            self.fs.osts[ost].write_pipe.transfer(sim, plen).await;
            self.fs
                .fabric
                .message(sim, ost as NodeId, self.node, 128)
                .await;
        }
        let end = off + data.len();
        if end > self.meta.size.get() {
            self.meta.size.set(end);
        }
        Ok(())
    }

    /// `pread(2)`: per-stripe PR lock + OST service + transfer back.
    pub async fn read(&self, sim: &Sim, off: u64, len: u64) -> Result<u64, String> {
        let mut got = 0;
        for (ost, poff, plen) in self.stripes(off, len) {
            self.fs
                .ldlm_enqueue(
                    sim,
                    self.node,
                    ost,
                    self.meta.fid,
                    poff,
                    poff + plen,
                    LockMode::Pr,
                    self.owner,
                )
                .await;
            self.fs
                .fabric
                .message(sim, self.node, ost as NodeId, 256)
                .await;
            self.fs.osts[ost].read_pipe.transfer(sim, plen).await;
            self.fs
                .fabric
                .message(sim, ost as NodeId, self.node, plen + 128)
                .await;
            got += plen;
        }
        Ok(got)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daos_sim::executor::join_all;
    use daos_sim::units::MIB;

    fn build(clients: u32, stripes: u32) -> (Sim, Rc<Pfs>) {
        let sim = Sim::new(3);
        let fs = Pfs::build(PfsConfig {
            client_nodes: clients,
            stripe_count: stripes,
            ..Default::default()
        });
        (sim, fs)
    }

    #[test]
    fn create_write_read_round_trip() {
        let (mut sim, fs) = build(1, 2);
        sim.block_on(|sim| {
            let fs = Rc::clone(&fs);
            async move {
                let f = fs.open(&sim, 0, 1, "/a", true).await.unwrap();
                f.write(&sim, 0, Payload::pattern(1, 4 * MIB))
                    .await
                    .unwrap();
                assert_eq!(f.size(), 4 * MIB);
                let got = f.read(&sim, 0, 4 * MIB).await.unwrap();
                assert_eq!(got, 4 * MIB);
                assert_eq!(fs.stat(&sim, 0, "/a").await.unwrap(), 4 * MIB);
                fs.unlink(&sim, 0, "/a").await.unwrap();
                assert!(fs.stat(&sim, 0, "/a").await.is_err());
            }
        });
    }

    #[test]
    fn fpp_writers_do_not_conflict() {
        let (mut sim, fs) = build(4, 1);
        sim.block_on(|sim| {
            let fs = Rc::clone(&fs);
            async move {
                let futs: Vec<_> = (0..8u64)
                    .map(|r| {
                        let fs = Rc::clone(&fs);
                        let sim = sim.clone();
                        async move {
                            let f = fs
                                .open(&sim, (r % 4) as u32, r, &format!("/f{r}"), true)
                                .await
                                .unwrap();
                            for k in 0..8u64 {
                                f.write(&sim, k * MIB, Payload::pattern(r, MIB))
                                    .await
                                    .unwrap();
                            }
                        }
                    })
                    .collect();
                join_all(&sim, futs).await;
            }
        });
        assert_eq!(fs.stats().revokes, 0, "file-per-process must not revoke");
    }

    #[test]
    fn shared_file_writers_ping_pong_locks() {
        let (mut sim, fs) = build(4, 4);
        let elapsed_shared = sim.block_on(|sim| {
            let fs = Rc::clone(&fs);
            async move {
                let t0 = sim.now();
                let futs: Vec<_> = (0..8u64)
                    .map(|r| {
                        let fs = Rc::clone(&fs);
                        let sim = sim.clone();
                        async move {
                            let f = fs
                                .open(&sim, (r % 4) as u32, r, "/shared", true)
                                .await
                                .unwrap();
                            for k in 0..8u64 {
                                f.write(&sim, (r * 8 + k) * MIB, Payload::pattern(r, MIB))
                                    .await
                                    .unwrap();
                            }
                        }
                    })
                    .collect();
                join_all(&sim, futs).await;
                (sim.now() - t0).as_ns()
            }
        });
        let st = fs.stats();
        assert!(st.revokes > 8, "interleaved writers must revoke: {st:?}");

        // same volume, file per process: must be significantly faster
        let (mut sim2, fs2) = build(4, 4);
        let elapsed_fpp = sim2.block_on(|sim| {
            let fs = Rc::clone(&fs2);
            async move {
                let t0 = sim.now();
                let futs: Vec<_> = (0..8u64)
                    .map(|r| {
                        let fs = Rc::clone(&fs);
                        let sim = sim.clone();
                        async move {
                            let f = fs
                                .open(&sim, (r % 4) as u32, r, &format!("/f{r}"), true)
                                .await
                                .unwrap();
                            for k in 0..8u64 {
                                f.write(&sim, k * MIB, Payload::pattern(r, MIB))
                                    .await
                                    .unwrap();
                            }
                        }
                    })
                    .collect();
                join_all(&sim, futs).await;
                (sim.now() - t0).as_ns()
            }
        });
        assert!(
            elapsed_shared > elapsed_fpp * 12 / 10,
            "shared {elapsed_shared} must be slower than fpp {elapsed_fpp}"
        );
    }

    #[test]
    fn readers_share_locks() {
        let (mut sim, fs) = build(2, 2);
        sim.block_on(|sim| {
            let fs = Rc::clone(&fs);
            async move {
                let w = fs.open(&sim, 0, 99, "/r", true).await.unwrap();
                w.write(&sim, 0, Payload::pattern(0, 8 * MIB))
                    .await
                    .unwrap();
                let before = fs.stats().revokes;
                let futs: Vec<_> = (0..4u64)
                    .map(|r| {
                        let fs = Rc::clone(&fs);
                        let sim = sim.clone();
                        async move {
                            let f = fs.open(&sim, (r % 2) as u32, r, "/r", false).await.unwrap();
                            f.read(&sim, 0, 8 * MIB).await.unwrap();
                        }
                    })
                    .collect();
                join_all(&sim, futs).await;
                let after = fs.stats().revokes;
                // first reader revokes the writer's PW once per OST at most;
                // readers must not revoke each other
                assert!(
                    after - before <= 2,
                    "reader-vs-reader revokes detected: {}",
                    after - before
                );
            }
        });
    }

    #[test]
    fn stripes_cover_range_exactly() {
        let (mut sim, fs) = build(1, 4);
        sim.block_on(|sim| {
            let fs = Rc::clone(&fs);
            async move {
                let f = fs.open(&sim, 0, 1, "/s", true).await.unwrap();
                let pieces = f.stripes(MIB / 2, 3 * MIB);
                let total: u64 = pieces.iter().map(|p| p.2).sum();
                assert_eq!(total, 3 * MIB);
                // pieces are contiguous
                let mut cur = MIB / 2;
                for (_, off, len) in &pieces {
                    assert_eq!(*off, cur);
                    cur += len;
                }
                // spread across more than one OST
                let osts: std::collections::BTreeSet<_> = pieces.iter().map(|p| p.0).collect();
                assert!(osts.len() > 1);
            }
        });
    }
}
