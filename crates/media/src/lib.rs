//! # daos-media — storage device models
//!
//! Flow-level models of the storage hardware DAOS runs on:
//!
//! * [`Dcpmm`] — an Intel Optane DCPMM *interleave set* (AppDirect mode):
//!   byte-addressable, strongly asymmetric read/write bandwidth, 256 B
//!   access granularity, and a per-extent metadata-update cost that models
//!   VOS index maintenance in persistent memory.
//! * [`Nvme`] — a block SSD: 4 KiB granularity, bounded queue depth,
//!   microsecond-scale latency.
//!
//! All devices expose the same [`Device`] surface: `read`, `write` and
//! `meta_op`, each charging time on internal [`Pipe`]s. The numbers are
//! calibrated from public gen-1 Optane / datacentre-NVMe measurements (see
//! `DESIGN.md` §4); what matters for the reproduced figures is the *ratio*
//! structure (write ≪ read on SCM, per-extent costs, queue depths).

// No `unsafe` may enter the workspace outside the audited kernel
// crate (`daos-sim`, which denies `clippy::undocumented_unsafe_blocks`).
#![forbid(unsafe_code)]
// P01: nothing on a simulated path panics. A site that cannot fail says
// why in `#[expect(clippy::…, reason = "INVARIANT: …")]`; tests may panic.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use std::rc::Rc;

use daos_sim::time::{SimDuration, SimTime};
use daos_sim::units::{Bandwidth, KIB};
use daos_sim::{Pipe, Semaphore, SharedPipe, Sim};

/// Which class of hardware a device models (used in reports).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MediaKind {
    /// Storage-class memory (Optane DCPMM interleave set).
    Scm,
    /// NVMe SSD.
    Nvme,
}

/// Cumulative traffic counters for one device.
#[derive(Clone, Copy, Debug, Default)]
pub struct DeviceStats {
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub read_ops: u64,
    pub write_ops: u64,
    pub meta_ops: u64,
}

/// Common device interface used by VOS and the PFS baseline.
pub trait Device {
    /// Read `bytes`, waiting for queueing + transfer + latency.
    #[allow(
        async_fn_in_trait,
        reason = "`!Send` futures: the simulator is single-threaded"
    )]
    async fn read(&self, sim: &Sim, bytes: u64);
    /// Write `bytes` durably.
    #[allow(
        async_fn_in_trait,
        reason = "`!Send` futures: the simulator is single-threaded"
    )]
    async fn write(&self, sim: &Sim, bytes: u64);
    /// Perform `n` small metadata/index updates (tree nodes, headers).
    #[allow(
        async_fn_in_trait,
        reason = "`!Send` futures: the simulator is single-threaded"
    )]
    async fn meta_op(&self, sim: &Sim, n: u64);
    /// Traffic counters so far.
    fn stats(&self) -> DeviceStats;
    /// What the device models.
    fn kind(&self) -> MediaKind;
}

// ------------------------------------------------------------------ DCPMM

/// Configuration for an Optane DCPMM interleave set.
#[derive(Clone, Copy, Debug)]
pub struct DcpmmConfig {
    /// Sequential read bandwidth of the set.
    pub read_bw: Bandwidth,
    /// Sequential write bandwidth of the set (gen-1: ~3-4x lower).
    pub write_bw: Bandwidth,
    /// Load-to-use latency for reads.
    pub read_latency: SimDuration,
    /// Store + ADR flush latency for writes.
    pub write_latency: SimDuration,
    /// Access granularity (XPLine = 256 B): I/O is rounded up to this.
    pub granularity: u64,
    /// CPU+media cost of one persistent index update (VOS tree node).
    pub meta_op_cost: SimDuration,
}

impl Default for DcpmmConfig {
    /// A gen-1, 6-DIMM interleave set as on NEXTGenIO (per socket).
    fn default() -> Self {
        DcpmmConfig {
            read_bw: Bandwidth::gib_per_sec(30.0),
            write_bw: Bandwidth::gib_per_sec(9.0),
            read_latency: SimDuration::from_ns(350),
            write_latency: SimDuration::from_ns(150),
            granularity: 256,
            meta_op_cost: SimDuration::from_us(1),
        }
    }
}

/// An Optane DCPMM interleave set.
///
/// Reads and writes ride separate pipes (the media services them from
/// different internal queues and the asymmetry is the defining feature);
/// metadata updates contend with writes, as VOS index updates are stores.
pub struct Dcpmm {
    cfg: DcpmmConfig,
    read_pipe: SharedPipe,
    write_pipe: SharedPipe,
}

impl Dcpmm {
    /// Build an interleave set from `cfg`.
    pub fn new(name: &str, cfg: DcpmmConfig) -> Rc<Self> {
        Rc::new(Dcpmm {
            read_pipe: Pipe::new(format!("{name}.rd"), cfg.read_bw, cfg.read_latency),
            write_pipe: Pipe::new(format!("{name}.wr"), cfg.write_bw, cfg.write_latency),
            cfg,
        })
    }

    fn round(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.cfg.granularity) * self.cfg.granularity
    }

    /// Utilisation of the write path over `[0, now]`.
    pub fn write_utilization(&self, now: SimTime) -> f64 {
        self.write_pipe.utilization(now)
    }
}

impl Device for Dcpmm {
    async fn read(&self, sim: &Sim, bytes: u64) {
        self.read_pipe.transfer(sim, self.round(bytes)).await;
    }
    async fn write(&self, sim: &Sim, bytes: u64) {
        self.write_pipe.transfer(sim, self.round(bytes)).await;
    }
    async fn meta_op(&self, sim: &Sim, n: u64) {
        if n > 0 {
            self.write_pipe.occupy(sim, self.cfg.meta_op_cost * n).await;
        }
    }
    fn stats(&self) -> DeviceStats {
        DeviceStats {
            bytes_read: self.read_pipe.bytes_total(),
            bytes_written: self.write_pipe.bytes_total(),
            read_ops: self.read_pipe.ops_total(),
            write_ops: self.write_pipe.ops_total(),
            meta_ops: 0,
        }
    }
    fn kind(&self) -> MediaKind {
        MediaKind::Scm
    }
}

// ------------------------------------------------------------------- NVMe

/// Configuration for an NVMe SSD.
#[derive(Clone, Copy, Debug)]
pub struct NvmeConfig {
    pub read_bw: Bandwidth,
    pub write_bw: Bandwidth,
    pub read_latency: SimDuration,
    pub write_latency: SimDuration,
    /// Block granularity; I/O rounds up to this.
    pub block: u64,
    /// Hardware queue depth (concurrent commands).
    pub queue_depth: usize,
}

impl Default for NvmeConfig {
    /// A datacentre TLC NVMe drive.
    fn default() -> Self {
        NvmeConfig {
            read_bw: Bandwidth::gib_per_sec(3.2),
            write_bw: Bandwidth::gib_per_sec(2.0),
            read_latency: SimDuration::from_us(85),
            write_latency: SimDuration::from_us(25),
            block: 4 * KIB,
            queue_depth: 128,
        }
    }
}

/// An NVMe SSD with bounded queue depth.
pub struct Nvme {
    cfg: NvmeConfig,
    read_pipe: SharedPipe,
    write_pipe: SharedPipe,
    queue: Semaphore,
}

impl Nvme {
    /// Build an SSD from `cfg`.
    pub fn new(name: &str, cfg: NvmeConfig) -> Rc<Self> {
        Rc::new(Nvme {
            read_pipe: Pipe::new(format!("{name}.rd"), cfg.read_bw, cfg.read_latency),
            write_pipe: Pipe::new(format!("{name}.wr"), cfg.write_bw, cfg.write_latency),
            queue: Semaphore::new(cfg.queue_depth),
            cfg,
        })
    }

    fn round(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.cfg.block) * self.cfg.block
    }
}

impl Device for Nvme {
    async fn read(&self, sim: &Sim, bytes: u64) {
        let _slot = self.queue.acquire().await;
        self.read_pipe.transfer(sim, self.round(bytes)).await;
    }
    async fn write(&self, sim: &Sim, bytes: u64) {
        let _slot = self.queue.acquire().await;
        self.write_pipe.transfer(sim, self.round(bytes)).await;
    }
    async fn meta_op(&self, sim: &Sim, n: u64) {
        // block-device metadata (e.g. WAL records) are 4K writes
        for _ in 0..n {
            self.write(sim, self.cfg.block).await;
        }
    }
    fn stats(&self) -> DeviceStats {
        DeviceStats {
            bytes_read: self.read_pipe.bytes_total(),
            bytes_written: self.write_pipe.bytes_total(),
            read_ops: self.read_pipe.ops_total(),
            write_ops: self.write_pipe.ops_total(),
            meta_ops: 0,
        }
    }
    fn kind(&self) -> MediaKind {
        MediaKind::Nvme
    }
}

// -------------------------------------------------------------- MediaSet

/// The media behind one VOS target: SCM for metadata and small values,
/// optionally NVMe for bulk data beyond a size threshold (DAOS's
/// `vos_media_select` policy).
pub struct MediaSet {
    scm: Rc<Dcpmm>,
    nvme: Option<Rc<Nvme>>,
    /// Values >= this many bytes go to NVMe when present.
    pub nvme_threshold: u64,
}

impl MediaSet {
    /// SCM-only target (NEXTGenIO configuration, used by the paper).
    pub fn scm_only(scm: Rc<Dcpmm>) -> Rc<Self> {
        Rc::new(MediaSet {
            scm,
            nvme: None,
            nvme_threshold: u64::MAX,
        })
    }

    /// SCM + NVMe target with the standard 4 KiB spill threshold.
    pub fn with_nvme(scm: Rc<Dcpmm>, nvme: Rc<Nvme>) -> Rc<Self> {
        Rc::new(MediaSet {
            scm,
            nvme: Some(nvme),
            nvme_threshold: 4 * KIB,
        })
    }

    /// The SCM device (always present; holds all indices).
    pub fn scm(&self) -> &Rc<Dcpmm> {
        &self.scm
    }

    /// True if `bytes` of payload goes to NVMe rather than SCM.
    pub fn spills(&self, bytes: u64) -> bool {
        self.nvme.is_some() && bytes >= self.nvme_threshold
    }

    /// Write a value payload to the right medium.
    pub async fn write_payload(&self, sim: &Sim, bytes: u64) {
        match &self.nvme {
            Some(nvme) if bytes >= self.nvme_threshold => nvme.write(sim, bytes).await,
            _ => self.scm.write(sim, bytes).await,
        }
    }

    /// Read a value payload from the right medium.
    pub async fn read_payload(&self, sim: &Sim, bytes: u64) {
        match &self.nvme {
            Some(nvme) if bytes >= self.nvme_threshold => nvme.read(sim, bytes).await,
            _ => self.scm.read(sim, bytes).await,
        }
    }

    /// Persist `n` index updates (always SCM).
    pub async fn index_update(&self, sim: &Sim, n: u64) {
        self.scm.meta_op(sim, n).await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daos_sim::executor::join_all;
    use daos_sim::units::MIB;

    #[test]
    fn dcpmm_write_slower_than_read() {
        let mut sim = Sim::new(1);
        let (tr, tw) = sim.block_on(|sim| async move {
            let dev = Dcpmm::new("pm0", DcpmmConfig::default());
            let t0 = sim.now();
            dev.read(&sim, 64 * MIB).await;
            let t1 = sim.now();
            dev.write(&sim, 64 * MIB).await;
            let t2 = sim.now();
            ((t1 - t0).as_ns(), (t2 - t1).as_ns())
        });
        assert!(tw > 2 * tr, "write {tw} should be >2x read {tr}");
    }

    #[test]
    fn dcpmm_granularity_rounds_up() {
        let mut sim = Sim::new(1);
        sim.block_on(|sim| async move {
            let dev = Dcpmm::new("pm0", DcpmmConfig::default());
            dev.write(&sim, 1).await; // 1 byte costs one 256B line
            assert_eq!(dev.stats().bytes_written, 256);
        });
    }

    #[test]
    fn nvme_queue_depth_bounds_concurrency() {
        let mut sim = Sim::new(1);
        let t = sim.block_on(|sim| async move {
            let cfg = NvmeConfig {
                queue_depth: 2,
                read_latency: SimDuration::from_us(100),
                ..Default::default()
            };
            let dev = Nvme::new("nv0", cfg);
            // 4 tiny reads: transfer time ~0, latency 100us each; but the
            // guard is held across latency, so queue depth 2 gives 2 waves.
            let futs: Vec<_> = (0..4)
                .map(|_| {
                    let d = Rc::clone(&dev);
                    let s = sim.clone();
                    async move { d.read(&s, 1).await }
                })
                .collect();
            join_all(&sim, futs).await;
            sim.now()
        });
        // two waves of ~100us
        assert!(
            t >= SimTime::from_us(200) && t < SimTime::from_us(220),
            "{t}"
        );
    }

    #[test]
    fn media_set_routes_by_threshold() {
        let mut sim = Sim::new(1);
        sim.block_on(|sim| async move {
            let scm = Dcpmm::new("pm", DcpmmConfig::default());
            let nvme = Nvme::new("nv", NvmeConfig::default());
            let set = MediaSet::with_nvme(Rc::clone(&scm), Rc::clone(&nvme));
            assert!(!set.spills(KIB));
            assert!(set.spills(4 * KIB));
            set.write_payload(&sim, KIB).await;
            set.write_payload(&sim, MIB).await;
            assert_eq!(scm.stats().bytes_written, KIB);
            assert_eq!(nvme.stats().bytes_written, MIB);
        });
    }

    #[test]
    fn scm_only_never_spills() {
        let scm = Dcpmm::new("pm", DcpmmConfig::default());
        let set = MediaSet::scm_only(scm);
        assert!(!set.spills(u64::MAX / 2));
    }

    #[test]
    fn meta_ops_charge_write_path() {
        let mut sim = Sim::new(1);
        let t = sim.block_on(|sim| async move {
            let dev = Dcpmm::new("pm0", DcpmmConfig::default());
            dev.meta_op(&sim, 10).await;
            sim.now()
        });
        // 10 x 1us occupancy + 150ns write latency
        assert_eq!(t.as_ns(), 10_000 + 150);
    }
}
