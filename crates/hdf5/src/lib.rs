//! # daos-hdf5 — a miniature HDF5 library
//!
//! Implements the parts of HDF5 that shape IOR's I/O on a filesystem, with
//! a real (simplified) file layout:
//!
//! * a 96-byte **superblock** at offset 0, rewritten on flush;
//! * 512-byte **object headers** (the root group's, then one per dataset),
//!   allocated sequentially from the end-of-allocation pointer (so the
//!   *data* of the first dataset starts at an odd, page-unaligned offset —
//!   the property that makes HDF5-over-DFuse split every FUSE request in
//!   two; IOR does not set `H5Pset_alignment`);
//! * **contiguous** datasets only: one extent directly after the header,
//!   allocated at create (IOR's pattern);
//! * a **metadata cache**: metadata is written at create; a data write
//!   only dirties its dataset's header, and `flush` writes the dirty
//!   headers and the superblock as small synchronous writes;
//! * per-call library CPU (`h5_op_cpu`): dataspace/hyperslab checks, the
//!   global API lock, datatype dispatch.
//!
//! Two virtual file drivers: `sec2` (POSIX via DFuse) and `mpio` (MPI-IO
//! with independent transfers, IOR's default for a shared file). Data and
//! metadata take the same path; rank 0 alone writes metadata, as in
//! HDF5's collective-metadata-off default.

// No `unsafe` may enter the workspace outside the audited kernel
// crate (`daos-sim`, which denies `clippy::undocumented_unsafe_blocks`).
#![forbid(unsafe_code)]

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use daos_core::DaosError;
use daos_dfuse::PosixFile;
use daos_mpiio::MpiFile;
use daos_sim::time::SimDuration;
use daos_sim::Sim;
use daos_vos::tree::{flatten, Segs};
use daos_vos::Payload;

/// Superblock size (format v0).
pub const SUPERBLOCK: u64 = 96;
/// Object header allocation size.
pub const OBJ_HEADER: u64 = 512;

/// Library tuning.
#[derive(Clone, Copy, Debug)]
pub struct H5Config {
    /// Per-API-call CPU (lock, dataspace/datatype checks).
    pub h5_op_cpu: SimDuration,
}

impl Default for H5Config {
    fn default() -> Self {
        H5Config {
            h5_op_cpu: SimDuration::from_us(80),
        }
    }
}

/// Virtual file driver.
#[derive(Clone)]
pub enum H5Vfd {
    /// POSIX (`sec2`) through a DFuse file.
    Sec2(Box<PosixFile>),
    /// MPI-IO, independent transfers (`H5FD_MPIO_INDEPENDENT`).
    Mpio(Rc<MpiFile>),
}

impl H5Vfd {
    async fn write(&self, sim: &Sim, off: u64, data: Payload) -> Result<(), DaosError> {
        match self {
            H5Vfd::Sec2(f) => f.pwrite(sim, off, data).await,
            H5Vfd::Mpio(file) => file.write_at(sim, off, data).await,
        }
    }
    async fn read(&self, sim: &Sim, off: u64, len: u64) -> Result<Segs, DaosError> {
        match self {
            H5Vfd::Sec2(f) => f.pread(sim, off, len).await,
            H5Vfd::Mpio(file) => file.read_at(sim, off, len).await,
        }
    }
    fn is_mpio_rank0(&self) -> bool {
        match self {
            H5Vfd::Sec2(_) => true,
            H5Vfd::Mpio(file) => file.rank().rank() == 0,
        }
    }
}

/// Dataset storage layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// One extent directly after the object header.
    Contiguous,
}

struct DatasetInfo {
    header_off: u64,
    data_off: u64,
    header_dirty: Cell<bool>,
}

/// An HDF5 file.
pub struct H5File {
    vfd: H5Vfd,
    cfg: H5Config,
    eoa: Cell<u64>,
    datasets: RefCell<BTreeMap<String, Rc<DatasetInfo>>>,
    sb_dirty: Cell<bool>,
    /// Count of small metadata writes issued (observability for benches).
    meta_writes: Cell<u64>,
}

/// A handle to one dataset.
pub struct Dataset {
    file: Rc<H5File>,
    info: Rc<DatasetInfo>,
}

impl H5File {
    /// `H5Fcreate`: writes the superblock and root-group header.
    pub async fn create(sim: &Sim, vfd: H5Vfd, cfg: H5Config) -> Result<Rc<H5File>, DaosError> {
        let f = Rc::new(H5File {
            vfd,
            cfg,
            eoa: Cell::new(0),
            datasets: RefCell::new(BTreeMap::new()),
            sb_dirty: Cell::new(true),
            meta_writes: Cell::new(0),
        });
        sim.sleep(cfg.h5_op_cpu).await;
        f.meta_write(sim, 0, 0x5B, SUPERBLOCK).await?;
        f.meta_write(sim, SUPERBLOCK, 0x60, OBJ_HEADER).await?;
        f.eoa.set(SUPERBLOCK + OBJ_HEADER);
        Ok(f)
    }

    fn alloc(&self, bytes: u64) -> u64 {
        let off = self.eoa.get();
        self.eoa.set(off + bytes);
        off
    }

    /// One small metadata write of `len` bytes (pattern `seed`) at `off`,
    /// counted; rank 0 alone writes metadata.
    async fn meta_write(&self, sim: &Sim, off: u64, seed: u64, len: u64) -> Result<(), DaosError> {
        if self.vfd.is_mpio_rank0() {
            self.vfd
                .write(sim, off, Payload::pattern(seed, len))
                .await?;
            self.meta_writes.set(self.meta_writes.get() + 1);
        }
        Ok(())
    }

    /// Number of small metadata writes so far.
    pub fn meta_write_count(&self) -> u64 {
        self.meta_writes.get()
    }

    /// `H5Dcreate`: allocate and write the object header; the data space
    /// is reserved immediately (early allocation, IOR's pattern).
    pub async fn create_dataset(
        self: &Rc<Self>,
        sim: &Sim,
        name: &str,
        size: u64,
        _layout: Layout,
    ) -> Result<Dataset, DaosError> {
        sim.sleep(self.cfg.h5_op_cpu).await;
        let header_off = self.alloc(OBJ_HEADER);
        let data_off = self.alloc(size);
        self.meta_write(sim, header_off, 0x0D, OBJ_HEADER).await?;
        let info = Rc::new(DatasetInfo {
            header_off,
            data_off,
            header_dirty: Cell::new(false),
        });
        self.datasets
            .borrow_mut()
            .insert(name.to_string(), Rc::clone(&info));
        self.sb_dirty.set(true);
        Ok(Dataset {
            file: Rc::clone(self),
            info,
        })
    }

    /// `H5Fflush`: write out dirty metadata (dataset headers, then the
    /// superblock); collective on `mpio`.
    pub async fn flush(&self, sim: &Sim) -> Result<(), DaosError> {
        sim.sleep(self.cfg.h5_op_cpu).await;
        // the scan is rank 0's alone: no other rank has metadata to write
        if self.vfd.is_mpio_rank0() {
            let infos: Vec<_> = self.datasets.borrow().values().cloned().collect();
            for info in infos {
                if info.header_dirty.get() {
                    self.meta_write(sim, info.header_off, 0x0E, OBJ_HEADER)
                        .await?;
                    info.header_dirty.set(false);
                }
            }
            if self.sb_dirty.get() {
                self.meta_write(sim, 0, 0x5B, SUPERBLOCK).await?;
                self.sb_dirty.set(false);
            }
        }
        if let H5Vfd::Mpio(file) = &self.vfd {
            file.rank().barrier(sim).await;
        }
        Ok(())
    }
}

impl Dataset {
    /// Absolute file offset where this dataset's bytes live.
    pub fn data_offset(&self) -> u64 {
        self.info.data_off
    }

    /// `H5Dwrite` of a contiguous hyperslab at byte offset `off`.
    pub async fn write(&self, sim: &Sim, off: u64, data: Payload) -> Result<(), DaosError> {
        sim.sleep(self.file.cfg.h5_op_cpu).await;
        self.file
            .vfd
            .write(sim, self.info.data_off + off, data)
            .await?;
        self.info.header_dirty.set(true); // mtime
        Ok(())
    }

    /// `H5Dread` of a contiguous hyperslab; returns segments rebased to
    /// dataset offsets.
    pub async fn read(&self, sim: &Sim, off: u64, len: u64) -> Result<Segs, DaosError> {
        sim.sleep(self.file.cfg.h5_op_cpu).await;
        let base = self.info.data_off;
        let mut segs = self.file.vfd.read(sim, base + off, len).await?;
        segs.rebase(base, 0);
        Ok(segs)
    }

    /// Materialising read (test helper).
    pub async fn read_bytes(&self, sim: &Sim, off: u64, len: u64) -> Result<Vec<u8>, DaosError> {
        let segs = self.read(sim, off, len).await?;
        Ok(flatten(&segs, off, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_dataset_data_is_unaligned() {
        // the property that drives the paper's HDF5 result: 96 + 512 + 512
        // is nowhere near a 1 MiB boundary
        let data_start = SUPERBLOCK + OBJ_HEADER + OBJ_HEADER;
        assert_eq!(data_start, 1120);
        assert_ne!(data_start % (1 << 20), 0);
    }
}
