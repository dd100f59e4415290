//! # daos-hdf5 — a miniature HDF5 library
//!
//! Implements the parts of HDF5 that shape its I/O behaviour on a
//! filesystem, with a real (simplified) file layout:
//!
//! * a 96-byte **superblock** at offset 0, updated on close;
//! * 512-byte **object headers** per group/dataset, allocated sequentially
//!   from the end-of-allocation pointer (so the *data* of the first dataset
//!   starts at an odd, page-unaligned offset — the property that makes
//!   HDF5-over-DFuse split every FUSE request in two; IOR does not set
//!   `H5Pset_alignment`);
//! * **contiguous** datasets (one extent after the header) and **chunked**
//!   datasets with a B-tree-v1-style chunk index (each first-touch of a
//!   chunk allocates space and dirties an index node);
//! * a **metadata cache**: object-header and index updates are buffered and
//!   flushed as small synchronous writes on `close`/`flush`;
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
use daos_vos::tree::{flatten, ReadSeg};
use daos_vos::Payload;

/// Superblock size (format v0).
pub const SUPERBLOCK: u64 = 96;
/// Object header allocation size.
pub const OBJ_HEADER: u64 = 512;
/// B-tree node allocation size (chunk index).
pub const BTREE_NODE: u64 = 544;

/// Library tuning.
#[derive(Clone, Copy, Debug)]
pub struct H5Config {
    /// Per-API-call CPU (lock, dataspace/datatype checks).
    pub h5_op_cpu: SimDuration,
    /// Chunk-index fanout (chunks per B-tree leaf).
    pub btree_fanout: u64,
}

impl Default for H5Config {
    fn default() -> Self {
        H5Config {
            h5_op_cpu: SimDuration::from_us(80),
            btree_fanout: 32,
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
    async fn read(&self, sim: &Sim, off: u64, len: u64) -> Result<Vec<ReadSeg>, DaosError> {
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
    /// Fixed-size chunks indexed by a B-tree.
    Chunked { chunk: u64 },
}

struct DatasetInfo {
    header_off: u64,
    data_off: u64, // contiguous layout only
    size: u64,
    layout: Layout,
    /// chunk index -> file offset of that chunk (chunked layout)
    chunks: BTreeMap<u64, u64>,
    header_dirty: bool,
    dirty_index_nodes: u64,
}

/// An HDF5 file.
pub struct H5File {
    vfd: H5Vfd,
    cfg: H5Config,
    eoa: Cell<u64>,
    datasets: RefCell<BTreeMap<String, Rc<RefCell<DatasetInfo>>>>,
    sb_dirty: Cell<bool>,
    /// Count of small metadata writes issued (observability for benches).
    meta_writes: Cell<u64>,
}

/// A handle to one dataset.
pub struct Dataset {
    file: Rc<H5File>,
    info: Rc<RefCell<DatasetInfo>>,
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
        if f.vfd.is_mpio_rank0() {
            // superblock + root group object header
            f.vfd
                .write(sim, 0, Payload::pattern(0x5B, SUPERBLOCK))
                .await?;
            f.vfd
                .write(sim, SUPERBLOCK, Payload::pattern(0x60, OBJ_HEADER))
                .await?;
            f.meta_writes.set(f.meta_writes.get() + 2);
        }
        f.eoa.set(SUPERBLOCK + OBJ_HEADER);
        Ok(f)
    }

    /// `H5Fopen`: superblock probe + root header read.
    pub async fn open(sim: &Sim, vfd: H5Vfd, cfg: H5Config) -> Result<Rc<H5File>, DaosError> {
        sim.sleep(cfg.h5_op_cpu).await;
        vfd.read(sim, 0, SUPERBLOCK).await?;
        vfd.read(sim, SUPERBLOCK, OBJ_HEADER).await?;
        Ok(Rc::new(H5File {
            vfd,
            cfg,
            eoa: Cell::new(SUPERBLOCK + OBJ_HEADER),
            datasets: RefCell::new(BTreeMap::new()),
            sb_dirty: Cell::new(false),
            meta_writes: Cell::new(0),
        }))
    }

    fn alloc(&self, bytes: u64) -> u64 {
        let off = self.eoa.get();
        self.eoa.set(off + bytes);
        off
    }

    /// Number of small metadata writes so far.
    pub fn meta_write_count(&self) -> u64 {
        self.meta_writes.get()
    }

    /// `H5Gcreate`: a group is just an object header (plus a heap entry,
    /// folded into the header write).
    pub async fn create_group(self: &Rc<Self>, sim: &Sim, _name: &str) -> Result<(), DaosError> {
        sim.sleep(self.cfg.h5_op_cpu).await;
        let off = self.alloc(OBJ_HEADER);
        if self.vfd.is_mpio_rank0() {
            self.vfd
                .write(sim, off, Payload::pattern(0x6F, OBJ_HEADER))
                .await?;
            self.meta_writes.set(self.meta_writes.get() + 1);
        }
        self.sb_dirty.set(true);
        Ok(())
    }

    /// `H5Dcreate`: allocate and write the object header; contiguous data
    /// space is reserved immediately (early allocation, IOR's pattern).
    pub async fn create_dataset(
        self: &Rc<Self>,
        sim: &Sim,
        name: &str,
        size: u64,
        layout: Layout,
    ) -> Result<Dataset, DaosError> {
        sim.sleep(self.cfg.h5_op_cpu).await;
        let header_off = self.alloc(OBJ_HEADER);
        let data_off = match layout {
            Layout::Contiguous => self.alloc(size),
            Layout::Chunked { .. } => 0,
        };
        if self.vfd.is_mpio_rank0() {
            self.vfd
                .write(sim, header_off, Payload::pattern(0x0D, OBJ_HEADER))
                .await?;
            self.meta_writes.set(self.meta_writes.get() + 1);
        }
        let info = Rc::new(RefCell::new(DatasetInfo {
            header_off,
            data_off,
            size,
            layout,
            chunks: BTreeMap::new(),
            header_dirty: false,
            dirty_index_nodes: 0,
        }));
        self.datasets
            .borrow_mut()
            .insert(name.to_string(), Rc::clone(&info));
        self.sb_dirty.set(true);
        Ok(Dataset {
            file: Rc::clone(self),
            info,
        })
    }

    /// `H5Dopen`: read the object header.
    pub async fn open_dataset(
        self: &Rc<Self>,
        sim: &Sim,
        name: &str,
    ) -> Result<Dataset, DaosError> {
        sim.sleep(self.cfg.h5_op_cpu).await;
        let info = self
            .datasets
            .borrow()
            .get(name)
            .cloned()
            .ok_or_else(|| DaosError::Other(format!("no dataset {name}")))?;
        let header_off = info.borrow().header_off;
        self.vfd.read(sim, header_off, OBJ_HEADER).await?;
        Ok(Dataset {
            file: Rc::clone(self),
            info,
        })
    }

    /// `H5Fclose`: flush dirty metadata then release (collective on mpio).
    pub async fn close(self: Rc<Self>, sim: &Sim) -> Result<(), DaosError> {
        self.flush(sim).await
    }

    /// `H5Fflush`: write out dirty metadata (headers, index nodes,
    /// superblock); the handle stays usable.
    pub async fn flush(&self, sim: &Sim) -> Result<(), DaosError> {
        sim.sleep(self.cfg.h5_op_cpu).await;
        if self.vfd.is_mpio_rank0() {
            let infos: Vec<_> = self.datasets.borrow().values().cloned().collect();
            for info in infos {
                let (header_off, header_dirty) = {
                    let i = info.borrow();
                    (i.header_off, i.header_dirty)
                };
                if header_dirty {
                    self.vfd
                        .write(sim, header_off, Payload::pattern(0x0E, OBJ_HEADER))
                        .await?;
                    self.meta_writes.set(self.meta_writes.get() + 1);
                    info.borrow_mut().header_dirty = false;
                }
                while info.borrow().dirty_index_nodes > 0 {
                    let off = self.eoa.get(); // index nodes live at eoa-ish
                    self.vfd
                        .write(sim, off, Payload::pattern(0xB7, BTREE_NODE))
                        .await?;
                    self.meta_writes.set(self.meta_writes.get() + 1);
                    info.borrow_mut().dirty_index_nodes -= 1;
                }
            }
            if self.sb_dirty.get() {
                self.vfd
                    .write(sim, 0, Payload::pattern(0x5B, SUPERBLOCK))
                    .await?;
                self.meta_writes.set(self.meta_writes.get() + 1);
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
    /// Absolute file offset where this dataset's bytes live (contiguous).
    pub fn data_offset(&self) -> u64 {
        self.info.borrow().data_off
    }
    /// Dataset size in bytes.
    pub fn size(&self) -> u64 {
        self.info.borrow().size
    }

    /// `H5Dwrite` of a contiguous hyperslab at byte offset `off`.
    pub async fn write(&self, sim: &Sim, off: u64, data: Payload) -> Result<(), DaosError> {
        sim.sleep(self.file.cfg.h5_op_cpu).await;
        let data_len = data.len();
        let layout = self.info.borrow().layout;
        match layout {
            Layout::Contiguous => {
                let base = self.info.borrow().data_off;
                self.file.vfd.write(sim, base + off, data).await?;
                self.info.borrow_mut().header_dirty = true; // mtime
            }
            Layout::Chunked { chunk } => {
                let mut cur = off;
                let end = off + data.len();
                while cur < end {
                    let ci = cur / chunk;
                    let in_chunk = cur % chunk;
                    let take = (chunk - in_chunk).min(end - cur);
                    let file_off = {
                        let mut info = self.info.borrow_mut();
                        match info.chunks.get(&ci) {
                            Some(&o) => o,
                            None => {
                                let o = self.file.alloc(chunk);
                                info.chunks.insert(ci, o);
                                // every btree_fanout new chunks dirty a node
                                if info.chunks.len() as u64 % self.file.cfg.btree_fanout == 1 {
                                    info.dirty_index_nodes += 1;
                                }
                                o
                            }
                        }
                    };
                    self.file
                        .vfd
                        .write(sim, file_off + in_chunk, data.slice(cur - off, take))
                        .await?;
                    cur += take;
                }
                self.info.borrow_mut().header_dirty = true;
            }
        }
        let mut info = self.info.borrow_mut();
        info.size = info.size.max(off + data_len);
        Ok(())
    }

    /// `H5Dread` of a contiguous hyperslab; returns segments rebased to
    /// dataset offsets.
    pub async fn read(&self, sim: &Sim, off: u64, len: u64) -> Result<Vec<ReadSeg>, DaosError> {
        sim.sleep(self.file.cfg.h5_op_cpu).await;
        let layout = self.info.borrow().layout;
        match layout {
            Layout::Contiguous => {
                let base = self.info.borrow().data_off;
                let segs = self.file.vfd.read(sim, base + off, len).await?;
                Ok(segs.into_iter().map(|s| s.rebased(base, 0)).collect())
            }
            Layout::Chunked { chunk } => {
                let mut out = Vec::new();
                let mut cur = off;
                let end = off + len;
                while cur < end {
                    let ci = cur / chunk;
                    let in_chunk = cur % chunk;
                    let take = (chunk - in_chunk).min(end - cur);
                    let file_off = self.info.borrow().chunks.get(&ci).copied();
                    match file_off {
                        Some(fo) => {
                            // chunk-index lookup costs a small meta read per
                            // btree_fanout chunks (node caching)
                            if ci.is_multiple_of(self.file.cfg.btree_fanout) {
                                self.file.vfd.read(sim, fo, BTREE_NODE).await?;
                            }
                            let segs = self.file.vfd.read(sim, fo + in_chunk, take).await?;
                            out.extend(segs.into_iter().map(|s| s.rebased(fo + in_chunk, cur)));
                        }
                        None => out.push(ReadSeg {
                            offset: cur,
                            len: take,
                            data: None,
                        }),
                    }
                    cur += take;
                }
                Ok(out)
            }
        }
    }

    /// `H5Acreate`/`H5Awrite`: attributes live in the object header; small
    /// ones just dirty it (flushed at the next flush/close).
    pub async fn write_attr(&self, sim: &Sim, _name: &str, _value: &[u8]) -> Result<(), DaosError> {
        sim.sleep(self.file.cfg.h5_op_cpu).await;
        self.info.borrow_mut().header_dirty = true;
        Ok(())
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
