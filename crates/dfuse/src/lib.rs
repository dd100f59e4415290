//! # daos-dfuse — the DFuse user-space filesystem layer
//!
//! DFuse exposes a DFS container as a POSIX mount point. The costs this
//! layer adds over calling `libdfs` directly — the heart of the paper's
//! interface comparison — are modelled explicitly:
//!
//! * **kernel crossings**: every FUSE request pays a syscall + FUSE queue
//!   round trip (`kernel_crossing`, ~4 µs);
//! * **request splitting**: the kernel caps FUSE I/O at `max_req` bytes
//!   (1 MiB) and cuts requests at `max_req`-*aligned* file offsets (page
//!   cache write-back granularity). A perfectly aligned 1 MiB write is one
//!   request; the same write at offset 2048 (an HDF5 file with a header)
//!   becomes **two sequential requests** — this is the main mechanism behind
//!   HDF5's poor showing through DFuse in the paper's Figure 1;
//! * **daemon concurrency**: one DFuse daemon with a bounded service pool
//!   per mount (per client node);
//! * the **interception library** (`libioil`): a file opened through the
//!   mount whose reads and writes go through [`PosixFile::il_pwrite`] /
//!   [`PosixFile::il_pread`] bypasses the kernel and goes straight to DFS.
//!
//! No data is cached (`dfuse --disable-caching`, as in the paper's runs):
//! every POSIX I/O reaches DAOS.

// No `unsafe` may enter the workspace outside the audited kernel
// crate (`daos-sim`, which denies `clippy::undocumented_unsafe_blocks`).
#![forbid(unsafe_code)]

use std::cell::Cell;
use std::rc::Rc;

use daos_core::DaosError;
use daos_dfs::{Dfs, DfsFile, Stat};
use daos_placement::ObjectClass;
use daos_sim::time::SimDuration;
use daos_sim::{Semaphore, Sim};
use daos_vos::tree::{flatten, Segs};
use daos_vos::Payload;

/// Cut `[offset, offset+len)` at `max_req`-aligned file offsets, the way
/// the kernel FUSE layer fragments I/O (page-cache write-back windows).
pub fn split_aligned(max_req: u64, offset: u64, len: u64) -> Vec<(u64, u64)> {
    pieces(max_req, offset, len).collect()
}

/// The `(offset, len)` pieces of [`split_aligned`], one at a time.
fn pieces(max_req: u64, offset: u64, len: u64) -> impl Iterator<Item = (u64, u64)> {
    let (mut cur, end) = (offset, offset + len);
    std::iter::from_fn(move || {
        (cur < end).then(|| {
            let take = ((cur / max_req + 1) * max_req).min(end) - cur;
            cur += take;
            (cur - take, take)
        })
    })
}

/// Object class of a file created without [`OpenFlags::class`].
const FILE_CLASS: ObjectClass = ObjectClass::SX;

/// DFuse tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct DfuseConfig {
    /// Kernel FUSE request size cap (and split alignment).
    pub max_req: u64,
    /// Cost of one user→kernel→daemon→kernel→user round trip.
    pub kernel_crossing: SimDuration,
    /// DFuse daemon service threads per mount.
    pub daemon_threads: usize,
}

impl Default for DfuseConfig {
    fn default() -> Self {
        DfuseConfig {
            max_req: 1 << 20,
            kernel_crossing: SimDuration::from_us(4),
            daemon_threads: 16,
        }
    }
}

/// Counters for one mount.
#[derive(Clone, Copy, Debug, Default)]
pub struct DfuseStats {
    pub fuse_requests: u64,
    pub intercepted_ops: u64,
    pub bytes_written: u64,
    pub bytes_read: u64,
}

/// A DFuse mount point on one client node.
pub struct DfuseMount {
    dfs: Rc<Dfs>,
    cfg: DfuseConfig,
    daemon: Semaphore,
    reqs: Cell<u64>,
    il_ops: Cell<u64>,
    wr_bytes: Cell<u64>,
    rd_bytes: Cell<u64>,
}

/// Open flags for [`DfuseMount::open`].
#[derive(Clone, Copy, Debug)]
pub struct OpenFlags {
    pub create: bool,
    /// Class for newly created files (`None` = `SX`).
    pub class: Option<ObjectClass>,
    /// Chunk size for newly created files (`None` = mount default).
    pub chunk_size: Option<u64>,
}

impl OpenFlags {
    /// Read-only open of an existing file.
    pub fn read() -> Self {
        OpenFlags {
            create: false,
            class: None,
            chunk_size: None,
        }
    }
    /// Create-if-missing with defaults.
    pub fn create() -> Self {
        OpenFlags {
            create: true,
            class: None,
            chunk_size: None,
        }
    }
    /// Create with an explicit object class.
    pub fn create_with(class: ObjectClass) -> Self {
        OpenFlags {
            create: true,
            class: Some(class),
            chunk_size: None,
        }
    }
}

/// An open POSIX file descriptor on the mount.
#[derive(Clone)]
pub struct PosixFile {
    mount: Rc<DfuseMount>,
    file: DfsFile,
}

impl DfuseMount {
    /// Mount `dfs` with `cfg`.
    pub fn new(dfs: Rc<Dfs>, cfg: DfuseConfig) -> Rc<DfuseMount> {
        Rc::new(DfuseMount {
            dfs,
            daemon: Semaphore::new(cfg.daemon_threads),
            cfg,
            reqs: Cell::new(0),
            il_ops: Cell::new(0),
            wr_bytes: Cell::new(0),
            rd_bytes: Cell::new(0),
        })
    }

    /// This mount's configuration.
    pub fn config(&self) -> &DfuseConfig {
        &self.cfg
    }
    /// The DFS namespace behind the mount.
    pub fn dfs(&self) -> &Rc<Dfs> {
        &self.dfs
    }
    /// Counters.
    pub fn stats(&self) -> DfuseStats {
        DfuseStats {
            fuse_requests: self.reqs.get(),
            intercepted_ops: self.il_ops.get(),
            bytes_written: self.wr_bytes.get(),
            bytes_read: self.rd_bytes.get(),
        }
    }

    /// One FUSE request, the one rule every call through the kernel
    /// follows: the kernel crossing, counted, then a daemon thread, held
    /// while the caller serves the request.
    async fn request(&self, sim: &Sim) -> daos_sim::SemaphorePermit {
        sim.sleep(self.cfg.kernel_crossing).await;
        self.reqs.set(self.reqs.get() + 1);
        self.daemon.acquire().await
    }

    /// POSIX `open(2)`.
    pub async fn open(
        self: &Rc<Self>,
        sim: &Sim,
        path: &str,
        flags: OpenFlags,
    ) -> Result<PosixFile, DaosError> {
        let _t = self.request(sim).await;
        let file = if flags.create {
            let class = flags.class.unwrap_or(FILE_CLASS);
            let chunk = flags.chunk_size.unwrap_or(self.dfs.config().chunk_size);
            self.dfs.create(sim, path, class, chunk).await?
        } else {
            self.dfs.open(sim, path).await?
        };
        Ok(PosixFile {
            mount: Rc::clone(self),
            file,
        })
    }

    /// POSIX `mkdir(2)`.
    pub async fn mkdir(self: &Rc<Self>, sim: &Sim, path: &str) -> Result<(), DaosError> {
        let _t = self.request(sim).await;
        self.dfs.mkdir(sim, path).await
    }

    /// POSIX `stat(2)`.
    pub async fn stat(self: &Rc<Self>, sim: &Sim, path: &str) -> Result<Stat, DaosError> {
        let _t = self.request(sim).await;
        self.dfs.stat(sim, path).await
    }

    /// POSIX `readdir(3)`.
    pub async fn readdir(self: &Rc<Self>, sim: &Sim, path: &str) -> Result<Vec<String>, DaosError> {
        let _t = self.request(sim).await;
        self.dfs.readdir(sim, path).await
    }

    /// POSIX `unlink(2)`.
    pub async fn unlink(self: &Rc<Self>, sim: &Sim, path: &str) -> Result<(), DaosError> {
        let _t = self.request(sim).await;
        self.dfs.unlink(sim, path).await
    }

    /// POSIX `rename(2)`.
    pub async fn rename(self: &Rc<Self>, sim: &Sim, from: &str, to: &str) -> Result<(), DaosError> {
        let _t = self.request(sim).await;
        self.dfs.rename(sim, from, to).await
    }

    /// POSIX `symlink(2)`.
    pub async fn symlink(
        self: &Rc<Self>,
        sim: &Sim,
        path: &str,
        target: &str,
    ) -> Result<(), DaosError> {
        let _t = self.request(sim).await;
        self.dfs.symlink(sim, path, target).await
    }

    /// POSIX `truncate(2)`.
    pub async fn truncate(
        self: &Rc<Self>,
        sim: &Sim,
        path: &str,
        size: u64,
    ) -> Result<(), DaosError> {
        let _t = self.request(sim).await;
        self.dfs.truncate(sim, path, size).await
    }
}

impl PosixFile {
    /// POSIX `pwrite(2)`.
    ///
    /// The kernel cuts the write at `max_req`-aligned boundaries and issues
    /// the pieces **sequentially** (FUSE direct-io write-back behaviour) —
    /// an unaligned 1 MiB write costs two full round trips.
    pub async fn pwrite(&self, sim: &Sim, offset: u64, data: Payload) -> Result<(), DaosError> {
        let m = &self.mount;
        m.wr_bytes.set(m.wr_bytes.get() + data.len());
        for (piece_off, piece_len) in pieces(m.cfg.max_req, offset, data.len()) {
            let _t = m.request(sim).await;
            let piece = data.slice(piece_off - offset, piece_len);
            self.file.write(sim, piece_off, piece).await?;
        }
        Ok(())
    }

    /// POSIX `pread(2)`; same splitting rules as writes.
    pub async fn pread(&self, sim: &Sim, offset: u64, len: u64) -> Result<Segs, DaosError> {
        let m = &self.mount;
        m.rd_bytes.set(m.rd_bytes.get() + len);
        let mut segs = Segs::default();
        for (piece_off, piece_len) in pieces(m.cfg.max_req, offset, len) {
            let _t = m.request(sim).await;
            // the first piece's segments, as they came, start the result
            segs.append(self.file.read(sim, piece_off, piece_len).await?);
        }
        Ok(segs)
    }

    /// `pwrite(2)` under the interception library: one DFS write, no
    /// kernel crossing, counted in [`DfuseStats::intercepted_ops`].
    pub async fn il_pwrite(&self, sim: &Sim, offset: u64, data: Payload) -> Result<(), DaosError> {
        let m = &self.mount;
        m.wr_bytes.set(m.wr_bytes.get() + data.len());
        m.il_ops.set(m.il_ops.get() + 1);
        self.file.write(sim, offset, data).await
    }

    /// `pread(2)` under the interception library; see [`Self::il_pwrite`].
    pub async fn il_pread(&self, sim: &Sim, offset: u64, len: u64) -> Result<Segs, DaosError> {
        let m = &self.mount;
        m.rd_bytes.set(m.rd_bytes.get() + len);
        m.il_ops.set(m.il_ops.get() + 1);
        self.file.read(sim, offset, len).await
    }

    /// Materialising read (test helper).
    pub async fn pread_bytes(
        &self,
        sim: &Sim,
        offset: u64,
        len: u64,
    ) -> Result<Vec<u8>, DaosError> {
        let segs = self.pread(sim, offset, len).await?;
        Ok(flatten(&segs, offset, len))
    }

    /// POSIX `fstat(2)` size query: one FUSE getattr request.
    pub async fn size(&self, sim: &Sim) -> Result<u64, DaosError> {
        let _t = self.mount.request(sim).await;
        self.file.size(sim).await
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_alignment_rules() {
        let mib = 1u64 << 20;
        // aligned 1 MiB: one piece
        assert_eq!(split_aligned(mib, 0, mib), vec![(0, mib)]);
        assert_eq!(split_aligned(mib, 5 * mib, mib), vec![(5 * mib, mib)]);
        // unaligned 1 MiB: two pieces cut at the boundary
        assert_eq!(
            split_aligned(mib, 2048, mib),
            vec![(2048, mib - 2048), (mib, 2048)]
        );
        // large aligned write: N pieces
        assert_eq!(split_aligned(mib, 0, 3 * mib).len(), 3);
        // small write inside one window: one piece
        assert_eq!(split_aligned(mib, 100, 200), vec![(100, 200)]);
    }
}
