//! The interface ladder as two traits: what one rank's open file
//! ([`ByteFile`]) and one rank's namespace client ([`MetaOps`]) must do for
//! the benchmark drivers, implemented by every rung's own handle type.
//!
//! Dispatch is static: [`crate::run_files`] and [`crate::mdtest_ranks`] are
//! generic over the rung, so the API is chosen once per run and the per-op
//! path is the handle's inherent method with nothing boxed in between.

use std::rc::Rc;

use daos_core::{ArrayHandle, DaosError};
use daos_dfs::{Dfs, DfsFile};
use daos_dfuse::{DfuseMount, OpenFlags, PosixFile};
use daos_hdf5::{Dataset, H5File};
use daos_mpiio::MpiFile;
use daos_pfs::{Pfs, PfsFile};
use daos_placement::ObjectClass;
use daos_sim::Sim;
use daos_vos::{Payload, Segs};

/// One rank's open file on some rung of the ladder.
#[allow(
    async_fn_in_trait,
    reason = "`!Send` futures: the simulator is single-threaded"
)]
pub trait ByteFile {
    /// Whether reads hand back the bytes written (`verify` needs them).
    const STORES_BYTES: bool = true;

    async fn write(&self, sim: &Sim, off: u64, data: Payload) -> Result<(), DaosError>;

    async fn read(&self, sim: &Sim, off: u64, len: u64) -> Result<Segs, DaosError>;

    /// End-of-write-phase work; only HDF5 has any (its metadata cache).
    async fn flush(&self, _sim: &Sim) -> Result<(), DaosError> {
        Ok(())
    }
}

/// `libdaos` array: the bottom rung, straight to the object layer.
impl ByteFile for ArrayHandle {
    async fn write(&self, sim: &Sim, off: u64, data: Payload) -> Result<(), DaosError> {
        ArrayHandle::write(self, sim, off, data).await
    }
    async fn read(&self, sim: &Sim, off: u64, len: u64) -> Result<Segs, DaosError> {
        ArrayHandle::read(self, sim, off, len).await
    }
}

/// `libdfs` file: one array object behind a directory entry.
impl ByteFile for DfsFile {
    async fn write(&self, sim: &Sim, off: u64, data: Payload) -> Result<(), DaosError> {
        DfsFile::write(self, sim, off, data).await
    }
    async fn read(&self, sim: &Sim, off: u64, len: u64) -> Result<Segs, DaosError> {
        DfsFile::read(self, sim, off, len).await
    }
}

/// POSIX through a DFuse mount.
impl ByteFile for PosixFile {
    async fn write(&self, sim: &Sim, off: u64, data: Payload) -> Result<(), DaosError> {
        self.pwrite(sim, off, data).await
    }
    async fn read(&self, sim: &Sim, off: u64, len: u64) -> Result<Segs, DaosError> {
        self.pread(sim, off, len).await
    }
}

/// POSIX under the interception library (`libioil`): a file opened through
/// the DFuse mount whose reads and writes bypass the kernel.
pub struct Intercepted(pub PosixFile);

impl ByteFile for Intercepted {
    async fn write(&self, sim: &Sim, off: u64, data: Payload) -> Result<(), DaosError> {
        self.0.il_pwrite(sim, off, data).await
    }
    async fn read(&self, sim: &Sim, off: u64, len: u64) -> Result<Segs, DaosError> {
        self.0.il_pread(sim, off, len).await
    }
}

/// MPI-IO with independent transfers (`MPI_File_write_at`).
impl ByteFile for MpiFile {
    async fn write(&self, sim: &Sim, off: u64, data: Payload) -> Result<(), DaosError> {
        self.write_at(sim, off, data).await
    }
    async fn read(&self, sim: &Sim, off: u64, len: u64) -> Result<Segs, DaosError> {
        self.read_at(sim, off, len).await
    }
}

/// MPI-IO with collective transfers (`MPI_File_write_at_all`): every rank
/// of the file's communicator must issue the same number of calls.
pub struct Collective(pub MpiFile);

impl ByteFile for Collective {
    async fn write(&self, sim: &Sim, off: u64, data: Payload) -> Result<(), DaosError> {
        self.0.write_at_all(sim, off, data).await
    }
    async fn read(&self, sim: &Sim, off: u64, len: u64) -> Result<Segs, DaosError> {
        self.0.read_at_all(sim, off, len).await
    }
}

/// HDF5: one dataset of a file, over whichever VFD the file was created on.
impl ByteFile for (Rc<H5File>, Dataset) {
    async fn write(&self, sim: &Sim, off: u64, data: Payload) -> Result<(), DaosError> {
        self.1.write(sim, off, data).await
    }
    async fn read(&self, sim: &Sim, off: u64, len: u64) -> Result<Segs, DaosError> {
        self.1.read(sim, off, len).await
    }
    async fn flush(&self, sim: &Sim) -> Result<(), DaosError> {
        self.0.flush(sim).await
    }
}

/// POSIX on the Lustre-like PFS: timing and locks only, no stored bytes.
impl ByteFile for PfsFile {
    const STORES_BYTES: bool = false;

    async fn write(&self, sim: &Sim, off: u64, data: Payload) -> Result<(), DaosError> {
        PfsFile::write(self, sim, off, data)
            .await
            .map_err(DaosError::Other)
    }
    async fn read(&self, sim: &Sim, off: u64, len: u64) -> Result<Segs, DaosError> {
        PfsFile::read(self, sim, off, len)
            .await
            .map_err(DaosError::Other)?;
        Ok(Segs::default())
    }
}

/// One rank's namespace client: mdtest's four calls.
#[allow(
    async_fn_in_trait,
    reason = "`!Send` futures: the simulator is single-threaded"
)]
pub trait MetaOps {
    async fn mkdir(&self, sim: &Sim, path: &str) -> Result<(), DaosError>;
    /// Create a zero-byte file.
    async fn create(&self, sim: &Sim, path: &str) -> Result<(), DaosError>;
    async fn stat(&self, sim: &Sim, path: &str) -> Result<(), DaosError>;
    async fn unlink(&self, sim: &Sim, path: &str) -> Result<(), DaosError>;
}

/// Native `libdfs` calls on a client node's mount.
impl MetaOps for Rc<Dfs> {
    async fn mkdir(&self, sim: &Sim, path: &str) -> Result<(), DaosError> {
        Dfs::mkdir(self, sim, path).await
    }
    async fn create(&self, sim: &Sim, path: &str) -> Result<(), DaosError> {
        Dfs::create(self, sim, path, ObjectClass::S1, 1 << 20).await?;
        Ok(())
    }
    async fn stat(&self, sim: &Sim, path: &str) -> Result<(), DaosError> {
        Dfs::stat(self, sim, path).await?;
        Ok(())
    }
    async fn unlink(&self, sim: &Sim, path: &str) -> Result<(), DaosError> {
        Dfs::unlink(self, sim, path).await
    }
}

/// POSIX calls through a client node's DFuse daemon.
impl MetaOps for Rc<DfuseMount> {
    async fn mkdir(&self, sim: &Sim, path: &str) -> Result<(), DaosError> {
        DfuseMount::mkdir(self, sim, path).await
    }
    async fn create(&self, sim: &Sim, path: &str) -> Result<(), DaosError> {
        self.open(sim, path, OpenFlags::create()).await?;
        Ok(())
    }
    async fn stat(&self, sim: &Sim, path: &str) -> Result<(), DaosError> {
        DfuseMount::stat(self, sim, path).await?;
        Ok(())
    }
    async fn unlink(&self, sim: &Sim, path: &str) -> Result<(), DaosError> {
        DfuseMount::unlink(self, sim, path).await
    }
}

/// One rank's client of the PFS: the identity every PFS call carries.
#[derive(Clone)]
pub struct PfsClient {
    fs: Rc<Pfs>,
    /// Client node index.
    node: u32,
    /// Lock-owner identity (the rank).
    owner: u64,
}

impl PfsClient {
    /// One client per rank, `ppn` ranks to a client node.
    pub fn per_rank(fs: &Rc<Pfs>, ppn: u32) -> Vec<PfsClient> {
        (0..fs.config().client_nodes * ppn)
            .map(|r| PfsClient {
                fs: Rc::clone(fs),
                node: r / ppn,
                owner: r as u64,
            })
            .collect()
    }

    /// Open `path`, creating it if absent: one MDS round trip.
    pub async fn open(&self, sim: &Sim, path: &str) -> Result<PfsFile, DaosError> {
        let f = self.fs.open(sim, self.node, self.owner, path, true).await;
        f.map_err(DaosError::Other)
    }
}

/// POSIX metadata on the PFS: every call is an MDS round trip.
impl MetaOps for PfsClient {
    /// The PFS model's namespace is flat: directories are implicit.
    async fn mkdir(&self, _sim: &Sim, _path: &str) -> Result<(), DaosError> {
        Ok(())
    }
    async fn create(&self, sim: &Sim, path: &str) -> Result<(), DaosError> {
        self.open(sim, path).await?;
        Ok(())
    }
    async fn stat(&self, sim: &Sim, path: &str) -> Result<(), DaosError> {
        let size = self.fs.stat(sim, self.node, path).await;
        size.map(|_| ()).map_err(DaosError::Other)
    }
    async fn unlink(&self, sim: &Sim, path: &str) -> Result<(), DaosError> {
        let done = self.fs.unlink(sim, self.node, path).await;
        done.map_err(DaosError::Other)
    }
}
