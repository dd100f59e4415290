//! # daos-ior — a reimplementation of the IOR benchmark
//!
//! The paper's instrument (§III): every client process writes, then reads,
//! `block_size` bytes in `transfer_size` blocking operations, either to its
//! own file (*easy* / file-per-process, `-F`) or to a single shared file
//! (*hard*), through one of the access APIs under study:
//!
//! | IOR `-a` | here | rank's file ([`ByteFile`]) | path to DAOS |
//! |----------|------|------|--------------|
//! | `DAOS`   | [`Api::DaosArray`] | `ArrayHandle` | native `daos_array` (the paper's future work) |
//! | `DFS`    | [`Api::Dfs`]    | `DfsFile` | `libdfs` |
//! | `POSIX`  | [`Api::Posix`]  | `PosixFile` / [`Intercepted`] | DFuse mount, through the kernel or the interception library |
//! | `MPIIO`  | [`Api::Mpiio`]  | `MpiFile` / [`Collective`] | ROMIO UFS driver over DFuse, independent or collective transfers |
//! | `HDF5`   | [`Api::Hdf5`]   | `(Rc<H5File>, Dataset)` | mini-HDF5 over `sec2` (file per process) or `mpio` with independent transfers (shared), both over DFuse |
//! | `POSIX` on the PFS | [`pfs_files`] | `PfsFile` | none: the Lustre-like baseline of the closing contrast |
//!
//! [`run`] matches the API once, opens every rank's file on that rung and
//! hands them to [`run_files`], the one rank driver; the PFS has no DAOS
//! testbed, so its caller opens the files ([`pfs_files`]) and calls the
//! same driver. [`mdtest()`] / [`mdtest_ranks`] do the same over [`MetaOps`].
//!
//! Offsets follow IOR's *segmented* layout: in shared mode rank `r`,
//! segment `s` covers `(s*ranks + r) * block_size`. Phase times are the
//! barrier-to-barrier makespan over all ranks, like IOR's reported
//! bandwidth.
//!
//! [`mod@mdtest`] adds an mdtest-style metadata benchmark (create/stat/unlink
//! rates), covering the paper's metadata-performance motivation (§I).

// No `unsafe` may enter the workspace outside the audited kernel
// crate (`daos-sim`, which denies `clippy::undocumented_unsafe_blocks`).
#![forbid(unsafe_code)]

pub mod daos_env;
pub mod ladder;
pub mod mdtest;
pub mod runner;

pub use daos_env::DaosTestbed;
pub use ladder::{ByteFile, Collective, Intercepted, MetaOps, PfsClient};
pub use mdtest::{mdtest, mdtest_ranks, MdBackend, MdtestReport};
pub use runner::{pfs_files, run, run_files};

use daos_core::DaosError;
use daos_placement::ObjectClass;
use daos_sim::time::SimDuration;
use daos_sim::units::{fmt_bytes, gib_per_sec};

/// Access API under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Api {
    /// POSIX through the DFuse mount; `il` enables the interception library.
    Posix { il: bool },
    /// Native `libdfs`.
    Dfs,
    /// MPI-IO over the DFuse mount; `collective` uses `write_at_all`.
    Mpiio { collective: bool },
    /// HDF5 over DFuse: `sec2` VFD in file-per-process mode, `mpio` VFD
    /// with independent transfers (IOR's default) for the shared file.
    Hdf5,
    /// The native DAOS array API.
    DaosArray,
}

impl Api {
    /// IOR's `-a` name.
    pub fn name(&self) -> &'static str {
        match self {
            Api::Posix { il: false } => "POSIX",
            Api::Posix { il: true } => "POSIX+IL",
            Api::Dfs => "DFS",
            Api::Mpiio { .. } => "MPIIO",
            Api::Hdf5 => "HDF5",
            Api::DaosArray => "DAOS",
        }
    }
}

/// One IOR invocation's parameters.
#[derive(Clone, Copy, Debug)]
pub struct IorParams {
    pub api: Api,
    /// `-t`: bytes per I/O call.
    pub transfer_size: u64,
    /// `-b`: bytes per rank per segment.
    pub block_size: u64,
    /// `-s`: segments.
    pub segments: u32,
    /// `-F`: file per process (the paper's *easy* mode) vs shared (*hard*).
    pub file_per_process: bool,
    /// Processes per client node.
    pub ppn: u32,
    /// DAOS object class for created files.
    pub oclass: ObjectClass,
    /// DFS chunk size for created files.
    pub chunk_size: u64,
    /// Verify contents on read-back (tests; costs host time).
    pub verify: bool,
    pub do_write: bool,
    pub do_read: bool,
    /// `-z`: issue transfers in a random (deterministic, seeded) order
    /// instead of sequentially.
    pub random_offsets: bool,
    /// `-C`: in the read phase rank r reads (and verifies) the block rank
    /// (r+1) mod N wrote to the shared file — IOR's cache-defeating
    /// reorder. An error with `-F`: a rank's handle is its own file.
    pub reorder_read: bool,
    /// `-D`-style stonewall: a rank starts no transfer once this much
    /// simulated time of the phase has elapsed; bandwidth reflects the
    /// bytes actually moved. Each rank reads the clock on its own, so, as
    /// in IOR, collective transfers hang if the deadline splits the ranks.
    pub stonewall: Option<SimDuration>,
}

impl IorParams {
    /// The paper's bulk-I/O configuration: 1 MiB transfers, 16 MiB blocks.
    pub fn paper_default(api: Api, oclass: ObjectClass, fpp: bool, ppn: u32) -> Self {
        IorParams {
            api,
            transfer_size: 1 << 20,
            block_size: 16 << 20,
            segments: 1,
            file_per_process: fpp,
            ppn,
            oclass,
            chunk_size: 1 << 20,
            verify: false,
            do_write: true,
            do_read: true,
            random_offsets: false,
            reorder_read: false,
            stonewall: None,
        }
    }

    /// Total bytes moved per phase across all ranks.
    pub fn total_bytes(&self, client_nodes: u32) -> u64 {
        self.block_size * self.segments as u64 * self.ppn as u64 * client_nodes as u64
    }

    /// Transfers per rank per segment; refused unless each block is a
    /// whole number of transfers, as IOR refuses it.
    pub fn transfers_per_block(&self) -> Result<u64, DaosError> {
        let (block, xfer) = (self.block_size, self.transfer_size);
        let whole = block.checked_rem(xfer) == Some(0);
        whole.then(|| block / xfer).ok_or_else(|| {
            let (b, x) = (fmt_bytes(block), fmt_bytes(xfer));
            DaosError::Other(format!("blocksize {b} is not a multiple of xfersize {x}"))
        })
    }

    /// Byte offset of `(rank, segment, transfer)` in the target file.
    pub fn offset(&self, ranks: u64, rank: u64, segment: u64, transfer: u64) -> u64 {
        let base = if self.file_per_process {
            segment * self.block_size
        } else {
            (segment * ranks + rank) * self.block_size
        };
        base + transfer * self.transfer_size
    }
}

/// Results of one IOR run.
#[derive(Clone, Copy, Debug)]
pub struct IorReport {
    pub ranks: u32,
    pub client_nodes: u32,
    pub total_bytes: u64,
    /// Bytes actually written (may be less than `total_bytes` under a
    /// stonewall deadline).
    pub bytes_written: u64,
    /// Bytes actually read.
    pub bytes_read: u64,
    pub write_time: SimDuration,
    pub read_time: SimDuration,
}

impl IorReport {
    /// Write bandwidth in GiB/s (stonewall-aware).
    pub fn write_gib_s(&self) -> f64 {
        gib_per_sec(self.bytes_written, self.write_time.as_secs_f64())
    }
    /// Read bandwidth in GiB/s (stonewall-aware).
    pub fn read_gib_s(&self) -> f64 {
        gib_per_sec(self.bytes_read, self.read_time.as_secs_f64())
    }
}

/// Deterministic data seed for `(rank, segment, transfer)`.
pub fn data_seed(rank: u64, segment: u64, transfer: u64) -> u64 {
    daos_placement::splitmix64(rank ^ (segment << 24) ^ (transfer << 44) ^ 0x10D0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(fpp: bool) -> IorParams {
        IorParams {
            api: Api::Dfs,
            transfer_size: 4,
            block_size: 16,
            segments: 2,
            file_per_process: fpp,
            ppn: 2,
            oclass: ObjectClass::S1,
            chunk_size: 1 << 20,
            verify: false,
            do_write: true,
            do_read: true,
            random_offsets: false,
            reorder_read: false,
            stonewall: None,
        }
    }

    #[test]
    fn segmented_offsets_shared() {
        let p = params(false);
        // ranks=4: rank 1, segment 0, transfer 2 -> 1*16 + 2*4
        assert_eq!(p.offset(4, 1, 0, 2), 24);
        // segment 1 starts after all ranks' blocks
        assert_eq!(p.offset(4, 0, 1, 0), 64);
        assert_eq!(p.offset(4, 3, 1, 3), 64 + 48 + 12);
    }

    #[test]
    fn fpp_offsets_ignore_rank() {
        let p = params(true);
        assert_eq!(p.offset(4, 3, 0, 1), 4);
        assert_eq!(p.offset(4, 3, 1, 0), 16);
    }

    #[test]
    fn offsets_tile_the_file_exactly_once() {
        let p = params(false);
        let ranks = 4u64;
        let mut seen = std::collections::BTreeSet::new();
        for r in 0..ranks {
            for s in 0..p.segments as u64 {
                for k in 0..p.transfers_per_block().unwrap() {
                    let off = p.offset(ranks, r, s, k);
                    assert!(seen.insert(off), "offset {off} written twice");
                }
            }
        }
        let total: u64 = ranks * p.segments as u64 * p.block_size;
        assert_eq!(seen.len() as u64, total / p.transfer_size);
        assert_eq!(*seen.iter().max().unwrap(), total - p.transfer_size);
    }

    #[test]
    fn total_bytes_accounting() {
        let p = params(false);
        assert_eq!(p.total_bytes(3), 16 * 2 * 2 * 3);
    }

    #[test]
    fn misaligned_transfer_rejected() {
        let mut p = params(false);
        for (xfer, said) in [
            (5, "16B is not a multiple of xfersize 5B"),
            (0, "xfersize 0B"),
        ] {
            p.transfer_size = xfer;
            let refused = p.transfers_per_block().unwrap_err().to_string();
            assert!(refused.contains(said), "{refused}");
        }
    }
}
