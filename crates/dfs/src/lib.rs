//! # daos-dfs — the DAOS File System (`libdfs`)
//!
//! DFS encapsulates a POSIX namespace inside a DAOS container:
//!
//! * a *superblock* object records filesystem attributes (magic, default
//!   chunk size, default object classes);
//! * every directory is a KV object whose dkeys are entry names and whose
//!   values are serialised [`DirEntry`] records pointing at child objects;
//! * every file is a byte-array object chunked at the file's chunk size.
//!
//! The API mirrors `libdfs`: `mount`, `lookup`, `mkdir`, `open`
//! (create/read/write), `read`/`write` at offsets, `get_size`, `readdir`,
//! `unlink`, `rename`. Each path component costs one KV lookup RPC, exactly
//! like the real client. This is the backend the IOR `DFS` driver and the
//! DFuse daemon sit on.

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

use std::io::Write;
use std::rc::Rc;

use daos_core::{ContainerHandle, DaosError, KvHandle};
use daos_placement::{ObjectClass, ObjectId};
use daos_sim::Sim;
use daos_vos::tree::Segs;
use daos_vos::Payload;

/// Default chunk size (DFS default: 1 MiB).
pub const DEFAULT_CHUNK: u64 = 1 << 20;

/// Reserved object ids.
const OID_SUPERBLOCK: ObjectId = ObjectId { hi: 0, lo: 1 };
const OID_ROOT: ObjectId = ObjectId { hi: 0, lo: 2 };

/// Kind of a namespace entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EntryKind {
    Dir,
    File,
    Symlink,
}

/// A directory entry: what a name maps to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DirEntry {
    pub kind: EntryKind,
    pub oid: ObjectId,
    pub chunk_size: u64,
    pub class: ObjectClass,
    /// Link target path (symlinks only).
    pub link_target: Option<String>,
}

impl DirEntry {
    /// Serialise (directory value format) into one allocation: the header
    /// is written on the stack, then copied out with the link target.
    pub fn to_bytes(&self) -> Rc<[u8]> {
        // the fixed fields, the class name after its length byte, and a
        // link's target length
        const NAME: usize = u8::MAX as usize;
        let mut head = [0u8; 26 + NAME + 2];
        head[0] = match self.kind {
            EntryKind::Dir => 1,
            EntryKind::File => 2,
            EntryKind::Symlink => 3,
        };
        head[1..9].copy_from_slice(&self.oid.hi.to_le_bytes());
        head[9..17].copy_from_slice(&self.oid.lo.to_le_bytes());
        head[17..25].copy_from_slice(&self.chunk_size.to_le_bytes());
        let mut name = &mut head[26..26 + NAME];
        #[expect(
            clippy::expect_used,
            reason = "INVARIANT: a class name is a few dozen bytes at most"
        )]
        write!(name, "{}", self.class).expect("class name fits its length byte");
        let n = NAME - name.len();
        head[25] = n as u8;
        let mut len = 26 + n;
        let target = self.link_target.as_deref().unwrap_or_default();
        if self.link_target.is_some() {
            head[len..len + 2].copy_from_slice(&(target.len() as u16).to_le_bytes());
            len += 2;
        }
        // a chain of slices has an exact length: `Rc` allocates it once
        head[..len]
            .iter()
            .chain(target.as_bytes())
            .copied()
            .collect()
    }

    /// Deserialise; `None` on corruption.
    pub fn from_bytes(b: &[u8]) -> Option<DirEntry> {
        if b.len() < 26 {
            return None;
        }
        let kind = match b[0] {
            1 => EntryKind::Dir,
            2 => EntryKind::File,
            3 => EntryKind::Symlink,
            _ => return None,
        };
        #[expect(
            clippy::unwrap_used,
            reason = "INVARIANT: the 8-byte slice always converts to [u8; 8]; the length \
                      guard above ensures the fixed header region is present"
        )]
        let rd = |i: usize| u64::from_le_bytes(b[i..i + 8].try_into().ok().unwrap());
        let oid = ObjectId {
            hi: rd(1),
            lo: rd(9),
        };
        let chunk_size = rd(17);
        let n = b[25] as usize;
        if b.len() < 26 + n {
            return None;
        }
        let class = ObjectClass::parse(std::str::from_utf8(&b[26..26 + n]).ok()?)?;
        let link_target = if kind == EntryKind::Symlink {
            let at = 26 + n;
            if b.len() < at + 2 {
                return None;
            }
            let tl = u16::from_le_bytes(b[at..at + 2].try_into().ok()?) as usize;
            if b.len() < at + 2 + tl {
                return None;
            }
            Some(String::from_utf8(b[at + 2..at + 2 + tl].to_vec()).ok()?)
        } else {
            None
        };
        Some(DirEntry {
            kind,
            oid,
            chunk_size,
            class,
            link_target,
        })
    }
}

/// A stored dirent; one that does not decode is damage.
fn decode(v: &Payload) -> Result<DirEntry, DaosError> {
    DirEntry::from_bytes(&v.materialize())
        .ok_or_else(|| DaosError::CorruptMetadata("corrupt dirent".into()))
}

/// Mount-time configuration.
#[derive(Clone, Copy, Debug)]
pub struct DfsConfig {
    /// Default chunk size for new files.
    pub chunk_size: u64,
}

impl Default for DfsConfig {
    fn default() -> Self {
        DfsConfig {
            chunk_size: DEFAULT_CHUNK,
        }
    }
}

/// Object class of every directory.
const DIR_CLASS: ObjectClass = ObjectClass::S1;

/// A mounted DFS namespace.
pub struct Dfs {
    cont: ContainerHandle,
    cfg: DfsConfig,
    /// The empty value every tombstone of this mount shares.
    tombstone: Payload,
}

/// An open file.
#[derive(Clone)]
pub struct DfsFile {
    array: daos_core::ArrayHandle,
    entry: DirEntry,
}

impl DfsFile {
    /// The file's chunk size.
    pub fn chunk_size(&self) -> u64 {
        self.entry.chunk_size
    }
    /// The file's object class.
    pub fn class(&self) -> ObjectClass {
        self.entry.class
    }
    /// The file's object id.
    pub fn oid(&self) -> ObjectId {
        self.entry.oid
    }

    /// Write `data` at `offset`.
    pub async fn write(&self, sim: &Sim, offset: u64, data: Payload) -> Result<(), DaosError> {
        self.array.write(sim, offset, data).await
    }

    /// Read up to `len` bytes at `offset` (holes = zeroes, as segments).
    pub async fn read(&self, sim: &Sim, offset: u64, len: u64) -> Result<Segs, DaosError> {
        self.array.read(sim, offset, len).await
    }

    /// Read and materialise (test helper).
    pub async fn read_bytes(&self, sim: &Sim, offset: u64, len: u64) -> Result<Vec<u8>, DaosError> {
        self.array.read_bytes(sim, offset, len).await
    }

    /// Current file size.
    pub async fn size(&self, sim: &Sim) -> Result<u64, DaosError> {
        self.array.size(sim).await
    }
}

/// File stat record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stat {
    pub kind: EntryKind,
    pub size: u64,
}

impl Dfs {
    /// Mount the filesystem in the container `cont` is open on, formatting
    /// the superblock if the container holds none (`dfs_mount` on a handle
    /// from `daos_cont_open`, `dfs_format` on first use). DFS never opens
    /// or creates a container itself. New entries take their object IDs
    /// from the handle's client ([`ContainerHandle::allocate_oid`]).
    pub async fn mount(
        sim: &Sim,
        cont: ContainerHandle,
        cfg: DfsConfig,
    ) -> Result<Rc<Dfs>, DaosError> {
        let dfs = Rc::new(Dfs {
            cont,
            cfg,
            tombstone: Payload::bytes(Vec::new()),
        });
        // read-or-write the superblock (magic + defaults)
        let sb = dfs.cont.object(OID_SUPERBLOCK, ObjectClass::S1).kv();
        if sb.get(sim, "magic").await?.is_none() {
            sb.put(sim, "magic", Payload::bytes(&b"DFS1"[..])).await?;
            sb.put(
                sim,
                "chunk_size",
                Payload::bytes(cfg.chunk_size.to_le_bytes().to_vec()),
            )
            .await?;
        }
        Ok(dfs)
    }

    /// The mount's defaults.
    pub fn config(&self) -> &DfsConfig {
        &self.cfg
    }
    /// The container backing the mount.
    pub fn container(&self) -> &ContainerHandle {
        &self.cont
    }

    fn dir_kv(&self, oid: ObjectId) -> KvHandle {
        self.cont.object(oid, DIR_CLASS).kv()
    }

    /// Split `path` into its directory components and its last one,
    /// skipping empty components (`None`: the path names the root).
    fn split_path(path: &str) -> Option<(impl Iterator<Item = &str>, &str)> {
        let path = path.trim_end_matches('/');
        let (dirs, name) = path.rsplit_once('/').unwrap_or(("", path));
        let dirs = dirs.split('/').filter(|c| !c.is_empty());
        (!name.is_empty()).then_some((dirs, name))
    }

    /// Resolve the parent directory of `path`; returns `(parent_oid, name)`.
    async fn resolve_parent<'p>(
        &self,
        sim: &Sim,
        path: &'p str,
    ) -> Result<(ObjectId, &'p str), DaosError> {
        let Some((dirs, name)) = Self::split_path(path) else {
            return Err(DaosError::Other("empty path".into()));
        };
        let mut cur = OID_ROOT;
        for comp in dirs {
            let Some(v) = dirent(&self.dir_kv(cur), sim, comp).await? else {
                return Err(DaosError::Other(format!("no such directory: {comp}")));
            };
            let ent = decode(&v)?;
            if ent.kind != EntryKind::Dir {
                return Err(DaosError::Other(format!("not a directory: {comp}")));
            }
            cur = ent.oid;
        }
        Ok((cur, name))
    }

    /// Look up a full path to its entry (root yields a synthetic dir entry).
    pub async fn lookup(&self, sim: &Sim, path: &str) -> Result<Option<DirEntry>, DaosError> {
        if Self::split_path(path).is_none() {
            return Ok(Some(DirEntry {
                kind: EntryKind::Dir,
                oid: OID_ROOT,
                chunk_size: self.cfg.chunk_size,
                class: DIR_CLASS,
                link_target: None,
            }));
        }
        let (parent, name) = self.resolve_parent(sim, path).await?;
        // a present-but-undecodable entry is damage, not absence
        let v = dirent(&self.dir_kv(parent), sim, name).await?;
        v.map(|v| decode(&v)).transpose()
    }

    /// Create a directory.
    pub async fn mkdir(&self, sim: &Sim, path: &str) -> Result<(), DaosError> {
        let (parent, name) = self.resolve_parent(sim, path).await?;
        let kv = self.dir_kv(parent);
        if dirent(&kv, sim, name).await?.is_some() {
            return Err(DaosError::Other(format!("exists: {path}")));
        }
        let ent = DirEntry {
            kind: EntryKind::Dir,
            oid: self.cont.allocate_oid(),
            chunk_size: self.cfg.chunk_size,
            class: DIR_CLASS,
            link_target: None,
        };
        kv.put(sim, name, Payload::bytes(ent.to_bytes())).await
    }

    /// Create a symbolic link at `path` pointing to `target`.
    pub async fn symlink(&self, sim: &Sim, path: &str, target: &str) -> Result<(), DaosError> {
        let (parent, name) = self.resolve_parent(sim, path).await?;
        let kv = self.dir_kv(parent);
        if dirent(&kv, sim, name).await?.is_some() {
            return Err(DaosError::Other(format!("exists: {path}")));
        }
        let ent = DirEntry {
            kind: EntryKind::Symlink,
            oid: self.cont.allocate_oid(),
            chunk_size: 0,
            class: ObjectClass::S1,
            link_target: Some(target.to_string()),
        };
        kv.put(sim, name, Payload::bytes(ent.to_bytes())).await
    }

    /// Resolve a path following symlinks (depth-capped like the kernel).
    pub async fn lookup_follow(
        &self,
        sim: &Sim,
        path: &str,
    ) -> Result<Option<DirEntry>, DaosError> {
        // the path followed so far, once it is a link's target
        let mut link: Option<String> = None;
        for _ in 0..8 {
            let cur = link.as_deref().unwrap_or(path);
            match self.lookup(sim, cur).await? {
                Some(ent) if ent.kind == EntryKind::Symlink => {
                    let target = ent.link_target;
                    link = Some(target.ok_or_else(|| DaosError::Other("dangling symlink".into()))?);
                }
                other => return Ok(other),
            }
        }
        Err(DaosError::Other(format!("too many symlink levels: {path}")))
    }

    /// Truncate a file to `size` (only shrinking punches data; growing is a
    /// no-op on a sparse object store).
    pub async fn truncate(&self, sim: &Sim, path: &str, size: u64) -> Result<(), DaosError> {
        let f = self.open(sim, path).await?;
        let cur = f.size(sim).await?;
        if size < cur {
            f.array.punch(sim, size, cur - size).await?;
        }
        Ok(())
    }

    /// Create (or re-open) a file with an explicit class/chunk size.
    pub async fn create(
        &self,
        sim: &Sim,
        path: &str,
        class: ObjectClass,
        chunk_size: u64,
    ) -> Result<DfsFile, DaosError> {
        let (parent, name) = self.resolve_parent(sim, path).await?;
        let kv = self.dir_kv(parent);
        // open-or-create semantics: IOR reuses files across phases, and
        // shared-file mode has every rank "creating" the same file
        if let Some(v) = dirent(&kv, sim, name).await? {
            let ent = decode(&v)?;
            if ent.kind == EntryKind::File {
                return Ok(self.file_from(ent));
            }
            return Err(DaosError::Other(format!("is a directory: {path}")));
        }
        let ent = DirEntry {
            kind: EntryKind::File,
            oid: self.cont.allocate_oid(),
            chunk_size,
            class,
            link_target: None,
        };
        kv.put(sim, name, Payload::bytes(ent.to_bytes())).await?;
        Ok(self.file_from(ent))
    }

    /// Open an existing file (follows symlinks).
    pub async fn open(&self, sim: &Sim, path: &str) -> Result<DfsFile, DaosError> {
        match self.lookup_follow(sim, path).await? {
            Some(ent) if ent.kind == EntryKind::File => Ok(self.file_from(ent)),
            Some(_) => Err(DaosError::Other(format!("is a directory: {path}"))),
            None => Err(DaosError::Other(format!("no such file: {path}"))),
        }
    }

    fn file_from(&self, ent: DirEntry) -> DfsFile {
        DfsFile {
            array: self.cont.object(ent.oid, ent.class).array(ent.chunk_size),
            entry: ent,
        }
    }

    /// Stat a path.
    pub async fn stat(&self, sim: &Sim, path: &str) -> Result<Stat, DaosError> {
        match self.lookup(sim, path).await? {
            Some(ent) if ent.kind == EntryKind::File => {
                let size = self.file_from(ent).size(sim).await?;
                Ok(Stat {
                    kind: EntryKind::File,
                    size,
                })
            }
            Some(_) => Ok(Stat {
                kind: EntryKind::Dir,
                size: 0,
            }),
            None => Err(DaosError::Other(format!("no such path: {path}"))),
        }
    }

    /// List entry names in a directory.
    pub async fn readdir(&self, sim: &Sim, path: &str) -> Result<Vec<String>, DaosError> {
        let ent = self
            .lookup(sim, path)
            .await?
            .ok_or_else(|| DaosError::Other(format!("no such dir: {path}")))?;
        if ent.kind != EntryKind::Dir {
            return Err(DaosError::Other(format!("not a directory: {path}")));
        }
        self.entries(sim, ent.oid).await
    }

    /// Names of the live entries of directory object `dir`.
    async fn entries(&self, sim: &Sim, dir: ObjectId) -> Result<Vec<String>, DaosError> {
        let kv = self.dir_kv(dir);
        let keys = kv.list(sim).await?;
        let mut names = Vec::with_capacity(keys.len());
        for k in keys {
            let name = String::from_utf8_lossy(&k);
            if dirent(&kv, sim, &name).await?.is_some() {
                names.push(name.into_owned());
            }
        }
        Ok(names)
    }

    /// Remove a file or an empty directory (dirent tombstone + object
    /// punch). A directory with live entries is refused: each child owns
    /// an object that only its own unlink punches.
    pub async fn unlink(&self, sim: &Sim, path: &str) -> Result<(), DaosError> {
        let (parent, name) = self.resolve_parent(sim, path).await?;
        let kv = self.dir_kv(parent);
        let Some(v) = dirent(&kv, sim, name).await? else {
            return Err(DaosError::Other(format!("no such file: {path}")));
        };
        let ent = decode(&v)?;
        if ent.kind == EntryKind::Dir && !self.entries(sim, ent.oid).await?.is_empty() {
            return Err(DaosError::Other(format!("directory not empty: {path}")));
        }
        self.bury(&kv, sim, name).await?;
        self.cont.object(ent.oid, ent.class).punch(sim).await?;
        Ok(())
    }

    /// Rename a file or directory within the namespace, as `rename(2)`
    /// does: an entry renamed onto itself stays; an existing target is
    /// replaced only by an entry of its own kind, and a directory only
    /// while it is empty (a refusal changes nothing); the replaced entry's
    /// object is punched once the move is done.
    pub async fn rename(&self, sim: &Sim, from: &str, to: &str) -> Result<(), DaosError> {
        let (fp, fname) = self.resolve_parent(sim, from).await?;
        let fkv = self.dir_kv(fp);
        let Some(v) = dirent(&fkv, sim, fname).await? else {
            return Err(DaosError::Other(format!("no such path: {from}")));
        };
        let (tp, tname) = self.resolve_parent(sim, to).await?;
        if (fp, fname) == (tp, tname) {
            return Ok(());
        }
        let tkv = self.dir_kv(tp);
        let old = dirent(&tkv, sim, tname).await?;
        let replaced = old.map(|old| decode(&old)).transpose()?;
        if let Some(old) = &replaced {
            let moving = decode(&v)?;
            let refusal = match (moving.kind == EntryKind::Dir, old.kind == EntryKind::Dir) {
                (true, false) => Some("not a directory"),
                (false, true) => Some("is a directory"),
                (true, true) if !self.entries(sim, old.oid).await?.is_empty() => {
                    Some("directory not empty")
                }
                _ => None,
            };
            if let Some(why) = refusal {
                return Err(DaosError::Other(format!("{why}: {to}")));
            }
        }
        tkv.put(sim, tname, v).await?;
        self.bury(&fkv, sim, fname).await?;
        if let Some(old) = replaced {
            self.cont.object(old.oid, old.class).punch(sim).await?;
        }
        Ok(())
    }

    /// Remove dirent `name` of directory `kv`, leaving the tombstone
    /// [`dirent`] skips.
    async fn bury(&self, kv: &KvHandle, sim: &Sim, name: &str) -> Result<(), DaosError> {
        kv.put(sim, name, self.tombstone.clone()).await
    }
}

/// The live dirent `name` of directory `kv`. An empty value is a
/// tombstone: [`Dfs::bury`] leaves one where an entry was, and it reads as
/// no entry.
async fn dirent(kv: &KvHandle, sim: &Sim, name: &str) -> Result<Option<Payload>, DaosError> {
    Ok(kv.get(sim, name).await?.filter(|v| !v.is_empty()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The class name inside a dirent decodes however it is spelt: the
    /// canonical name, lower case, mixed case, or padded with blanks.
    #[test]
    fn dirent_class_names_decode_in_any_case_and_padding() {
        let classes = [
            ObjectClass::S1,
            ObjectClass::Sharded(512),
            ObjectClass::SX,
            ObjectClass::RP_3G1,
            ObjectClass::RP_2GX,
            ObjectClass::EC_2P1GX,
            ObjectClass::ErasureCoded {
                data: 16,
                parity: 2,
                groups: Some(7),
            },
        ];
        for class in classes {
            let e = DirEntry {
                kind: EntryKind::File,
                oid: ObjectId::new(7, 9),
                chunk_size: 4096,
                class,
                link_target: None,
            };
            let bytes = e.to_bytes();
            assert_eq!(DirEntry::from_bytes(&bytes).as_ref(), Some(&e));
            let name = class.to_string();
            assert_eq!(&bytes[26..], name.as_bytes());
            let (head, tail) = name.split_at(name.len() / 2);
            let mixed = format!("{}{tail}", head.to_ascii_lowercase());
            for spelt in [name.to_ascii_lowercase(), format!("  {name}\t"), mixed] {
                let mut respelt = bytes[..25].to_vec();
                respelt.push(spelt.len() as u8);
                respelt.extend_from_slice(spelt.as_bytes());
                assert_eq!(
                    DirEntry::from_bytes(&respelt).as_ref(),
                    Some(&e),
                    "{spelt:?}"
                );
            }
        }
    }

    #[test]
    fn dirent_round_trip() {
        for class in [ObjectClass::S1, ObjectClass::SX, ObjectClass::RP_2GX] {
            let e = DirEntry {
                kind: EntryKind::File,
                oid: ObjectId::new(0xDEAD, 0xBEEF),
                chunk_size: 1 << 20,
                class,
                link_target: None,
            };
            assert_eq!(DirEntry::from_bytes(&e.to_bytes()), Some(e));
        }
        let d = DirEntry {
            kind: EntryKind::Dir,
            oid: ObjectId::new(1, 2),
            chunk_size: 4096,
            class: ObjectClass::S1,
            link_target: None,
        };
        let l = DirEntry {
            kind: EntryKind::Symlink,
            oid: ObjectId::new(3, 4),
            chunk_size: 0,
            class: ObjectClass::S1,
            link_target: Some("/a/b".to_string()),
        };
        assert_eq!(DirEntry::from_bytes(&l.to_bytes()), Some(l));
        assert_eq!(DirEntry::from_bytes(&d.to_bytes()), Some(d));
        assert_eq!(DirEntry::from_bytes(&[]), None);
        assert_eq!(DirEntry::from_bytes(&[7u8; 40]), None);
    }

    #[test]
    fn split_path_handles_slashes() {
        let parts = |p| Dfs::split_path(p).map(|(dirs, name)| (dirs.collect::<Vec<_>>(), name));
        assert_eq!(parts("/a/b/c"), Some((vec!["a", "b"], "c")));
        assert_eq!(parts("a//b/"), Some((vec!["a"], "b")));
        assert_eq!(parts("b"), Some((vec![], "b")));
        assert_eq!(parts("/"), None);
        assert_eq!(parts("//"), None);
        assert_eq!(parts(""), None);
    }
}
