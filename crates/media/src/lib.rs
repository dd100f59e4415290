//! # daos-media — storage device models
//!
//! Flow-level models of the storage hardware DAOS runs on:
//!
//! * [`Dcpmm`] — an Intel Optane DCPMM *interleave set* (AppDirect mode):
//!   byte-addressable, strongly asymmetric read/write bandwidth, 256 B
//!   access granularity, and a per-extent metadata-update cost that models
//!   VOS index maintenance in persistent memory.
//!
//! A device exposes the [`Device`] surface: `read`, `write` and
//! `meta_op`, each charging time on internal [`Pipe`]s. The numbers are
//! calibrated from public gen-1 Optane measurements (see `DESIGN.md` §4);
//! what matters for the reproduced figures is the *ratio* structure
//! (write ≪ read, per-extent costs).

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

use std::cell::Cell;
use std::rc::Rc;

use daos_sim::time::{SimDuration, SimTime};
use daos_sim::units::Bandwidth;
use daos_sim::{Pipe, SharedPipe, Sim};

/// Cumulative traffic counters for one device.
#[derive(Clone, Copy, Debug, Default)]
pub struct DeviceStats {
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub read_ops: u64,
    /// Data writes; index updates count in `meta_ops` alone.
    pub write_ops: u64,
    /// Index updates (the `n` of every `meta_op`).
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
    /// Data writes and index updates share the write pipe; each has its
    /// own counter.
    writes: Cell<u64>,
    meta_ops: Cell<u64>,
}

impl Dcpmm {
    /// Build an interleave set from `cfg`.
    pub fn new(name: &str, cfg: DcpmmConfig) -> Rc<Self> {
        Rc::new(Dcpmm {
            read_pipe: Pipe::new(format!("{name}.rd"), cfg.read_bw, cfg.read_latency),
            write_pipe: Pipe::new(format!("{name}.wr"), cfg.write_bw, cfg.write_latency),
            cfg,
            writes: Cell::new(0),
            meta_ops: Cell::new(0),
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
        self.writes.set(self.writes.get() + 1);
        self.write_pipe.transfer(sim, self.round(bytes)).await;
    }
    async fn meta_op(&self, sim: &Sim, n: u64) {
        if n > 0 {
            self.meta_ops.set(self.meta_ops.get() + n);
            self.write_pipe.occupy(sim, self.cfg.meta_op_cost * n).await;
        }
    }
    fn stats(&self) -> DeviceStats {
        DeviceStats {
            bytes_read: self.read_pipe.bytes_total(),
            bytes_written: self.write_pipe.bytes_total(),
            read_ops: self.read_pipe.ops_total(),
            write_ops: self.writes.get(),
            meta_ops: self.meta_ops.get(),
        }
    }
}

// -------------------------------------------------------------- MediaSet

/// The media behind one VOS target: one SCM device holding indices and
/// payloads alike (the NEXTGenIO configuration the paper ran on).
pub struct MediaSet {
    scm: Rc<Dcpmm>,
}

impl MediaSet {
    /// SCM-only target (NEXTGenIO configuration, used by the paper).
    pub fn scm_only(scm: Rc<Dcpmm>) -> Rc<Self> {
        Rc::new(MediaSet { scm })
    }

    /// The SCM device (holds all indices).
    pub fn scm(&self) -> &Rc<Dcpmm> {
        &self.scm
    }

    /// Write a value payload.
    pub async fn write_payload(&self, sim: &Sim, bytes: u64) {
        self.scm.write(sim, bytes).await;
    }

    /// Read a value payload.
    pub async fn read_payload(&self, sim: &Sim, bytes: u64) {
        self.scm.read(sim, bytes).await;
    }

    /// Persist `n` index updates (always SCM).
    pub async fn index_update(&self, sim: &Sim, n: u64) {
        self.scm.meta_op(sim, n).await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn index_updates_count_as_meta_ops_not_writes() {
        let mut sim = Sim::new(1);
        let s = sim.block_on(|sim| async move {
            let dev = Dcpmm::new("pm0", DcpmmConfig::default());
            dev.write(&sim, MIB).await;
            dev.meta_op(&sim, 3).await;
            dev.write(&sim, 4096).await;
            dev.meta_op(&sim, 0).await;
            dev.meta_op(&sim, 2).await;
            dev.read(&sim, 4096).await;
            dev.stats()
        });
        assert_eq!(s.write_ops, 2, "data writes only");
        assert_eq!(s.meta_ops, 5, "one per index update");
        assert_eq!(s.read_ops, 1);
        assert_eq!(s.bytes_written, MIB + 4096);
    }
}
