//! One VOS target: container/object/dkey/akey trees plus media-cost
//! accounting.
//!
//! The data structures are mutated for real; the *time* each operation
//! takes is charged against the target's [`MediaSet`] — payload bytes on
//! the data path, index updates on the SCM write path. The index-cost model
//! distinguishes hot (append-adjacent) from cold inserts: this is where
//! wide object classes (`SX`) lose the write-combining that single-target
//! classes enjoy, one of the mechanisms behind the paper's Figure 1(b).
//!
//! Each storage decision is made in one place in this file: what a reader
//! at an epoch sees (`ObjStore::visible_at`, `akey_at`), what creating a
//! key costs (`VosTarget::upsert`), and the order every whole-target pass
//! visits keys in (`walk`). The operations sit beside them by concern:
//! `array` (extent update, fetch, punch, size), `single` (single values)
//! and `background` (aggregation, scrub, bit-rot injection).

#![allow(
    clippy::too_many_arguments,
    reason = "the VOS call shape: container, object, dkey, akey, extent or epoch, payload"
)]

mod array;
mod background;
mod single;

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::ops::Bound;
use std::rc::Rc;

use daos_media::{Device, MediaSet};
use daos_sim::Sim;

use crate::tree::{CsumViolation, ExtentTree, Scratch, SingleValue};
use crate::{Epoch, Key, OneOrMany};

/// Container id (DAOS uses UUIDs; dense u64 here).
pub type ContId = u64;
/// Object id as seen by VOS (opaque 128-bit).
pub type ObjKey = u128;

/// Index-maintenance cost model (counts of SCM index updates).
#[derive(Clone, Copy, Debug)]
pub struct VosConfig {
    /// First write to an object shard on this target: allocate + format the
    /// per-object tree root durably.
    pub obj_create_ops: u64,
    /// Insert of a dkey that is not adjacent to the previous insert
    /// (full tree descent + possible node split).
    pub dkey_cold_ops: u64,
    /// Insert of the dkey immediately following the last one (append path,
    /// cached rightmost leaf).
    pub dkey_hot_ops: u64,
    /// New akey under a dkey.
    pub akey_ops: u64,
    /// Extent-tree record insert, appending at the array tail.
    pub extent_append_ops: u64,
    /// Extent-tree record insert anywhere else.
    pub extent_cold_ops: u64,
    /// Bytes of index read charged per fetch descent.
    pub fetch_index_bytes: u64,
    /// Verify stored extent checksums on every array fetch (and let the
    /// engine verify frames on the wire). Mirrors the DAOS per-container
    /// checksum property; on by default.
    pub csum_enabled: bool,
}

impl Default for VosConfig {
    fn default() -> Self {
        VosConfig {
            obj_create_ops: 6,
            dkey_cold_ops: 3,
            dkey_hot_ops: 1,
            akey_ops: 1,
            extent_append_ops: 1,
            extent_cold_ops: 3,
            fetch_index_bytes: 512,
            csum_enabled: true,
        }
    }
}

/// Operation counters for one target.
#[derive(Clone, Copy, Debug, Default)]
pub struct VosCounters {
    pub updates: u64,
    pub fetches: u64,
    pub bytes_written: u64,
    pub bytes_read: u64,
    pub obj_creates: u64,
    pub hot_dkey_inserts: u64,
    pub cold_dkey_inserts: u64,
    pub index_ops: u64,
    /// Array chunks walked by the background scrubber.
    pub scrub_chunks: u64,
    /// Payload bytes hashed by the background scrubber.
    pub scrub_bytes: u64,
    /// Checksum violations detected (fetch-path and scrub-path combined).
    pub csum_mismatches: u64,
    /// Extents corrupted by fault injection (ground truth for tests).
    pub extents_rotted: u64,
}

/// One corrupt chunk found by [`VosTarget::scrub_step`].
#[derive(Clone, Debug)]
pub struct ScrubFinding {
    pub cid: ContId,
    pub oid: ObjKey,
    pub dkey: Key,
    pub akey: Key,
    /// Offset/len of the bad extent within the akey.
    pub offset: u64,
    pub len: u64,
}

/// Result of one scrub step: how much was verified and what was found.
#[derive(Clone, Debug, Default)]
pub struct ScrubReport {
    /// Array akeys (chunks) verified this step.
    pub chunks: u64,
    /// Payload bytes hashed this step.
    pub bytes: u64,
    /// True when the cursor reached the end of the namespace and reset —
    /// one full scrub pass completed.
    pub wrapped: bool,
    pub findings: Vec<ScrubFinding>,
}

/// Typed VOS-level failure, surfaced to the RPC layer as an error reply
/// instead of aborting the engine on a malformed data-plane op.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VosError {
    /// The addressed akey exists but stores the other value shape than the
    /// op expects (`expected` is `"array"` or `"single"`). A client-side
    /// protocol violation; not retryable — the key's shape won't change.
    AkeyKind {
        /// Shape the op required.
        expected: &'static str,
    },
    /// Stored extent bytes disagree with their stored checksum: silent
    /// media corruption detected on the fetch path.
    Csum(CsumViolation),
}

impl std::fmt::Display for VosError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VosError::AkeyKind { expected } => {
                write!(f, "akey type mismatch: op requires a {expected} akey")
            }
            VosError::Csum(v) => write!(
                f,
                "checksum violation at [{}, {})",
                v.offset,
                v.offset + v.len
            ),
        }
    }
}
impl std::error::Error for VosError {}

/// The value shape an op needs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Shape {
    Array,
    Single,
}

impl Shape {
    /// The refusal of an akey that holds the other shape.
    fn refused(self) -> VosError {
        let expected = match self {
            Shape::Array => "array",
            Shape::Single => "single",
        };
        VosError::AkeyKind { expected }
    }
}

enum AkeyStore {
    Array { tree: ExtentTree, last_end: u64 },
    Single(SingleValue),
}

impl AkeyStore {
    fn new(shape: Shape) -> Self {
        match shape {
            Shape::Array => AkeyStore::Array {
                tree: ExtentTree::new(),
                last_end: 0,
            },
            Shape::Single => AkeyStore::Single(SingleValue::new()),
        }
    }

    /// The extents of an array akey; a single value is refused.
    fn array(&self) -> Result<&ExtentTree, VosError> {
        match self {
            AkeyStore::Array { tree, .. } => Ok(tree),
            AkeyStore::Single(_) => Err(Shape::Array.refused()),
        }
    }

    /// The versions of a single-value akey; an array is refused.
    fn single(&self) -> Result<&SingleValue, VosError> {
        match self {
            AkeyStore::Single(sv) => Ok(sv),
            AkeyStore::Array { .. } => Err(Shape::Single.refused()),
        }
    }
}

/// The akeys of one dkey, sorted by key. Every dkey the stack writes
/// holds one (an array chunk's `"0"`, a KV entry's `"v"`), which sits
/// inline and is found with one compare; a second spills the list to a
/// `Vec` searched by bisection.
#[derive(Default)]
struct DkeyStore {
    akeys: OneOrMany<(Key, AkeyStore)>,
}

impl DkeyStore {
    /// Where `akey` sits: `Ok` at its index, or `Err` where it would go.
    fn find(&self, akey: &[u8]) -> Result<usize, usize> {
        self.akeys.binary_search_by(|(k, _)| (**k).cmp(akey))
    }

    fn akey(&self, akey: &[u8]) -> Option<&AkeyStore> {
        let i = self.find(akey).ok()?;
        Some(&self.akeys[i].1)
    }

    fn akey_mut(&mut self, akey: &[u8]) -> Option<&mut AkeyStore> {
        let i = self.find(akey).ok()?;
        Some(&mut self.akeys[i].1)
    }
}

#[derive(Default)]
struct ObjStore {
    dkeys: BTreeMap<Key, DkeyStore>,
    last_dkey: Option<Key>,
    punched_at: Option<Epoch>,
}

impl ObjStore {
    /// The one visibility rule: a punched object is gone for every reader
    /// at or after its punch epoch, and still there for readers before it.
    fn visible_at(&self, epoch: Epoch) -> bool {
        self.punched_at.is_none_or(|p| epoch < p)
    }
}

#[derive(Default)]
struct ContStore {
    objects: BTreeMap<ObjKey, ObjStore>,
}

/// Every container of a target, by id.
type Namespace = BTreeMap<ContId, ContStore>;

/// Where an akey lives: container, object, dkey, akey.
type AkeyAt<'k> = (ContId, ObjKey, &'k [u8], &'k [u8]);

/// Object `oid` of container `cid` as a reader at `epoch` sees it.
fn object_at(conts: &Namespace, cid: ContId, oid: ObjKey, epoch: Epoch) -> Option<&ObjStore> {
    let obj = conts.get(&cid)?.objects.get(&oid)?;
    obj.visible_at(epoch).then_some(obj)
}

/// The akey at `at` as a reader at `epoch` sees it.
fn akey_at<'a>(conts: &'a Namespace, at: AkeyAt<'_>, epoch: Epoch) -> Option<&'a AkeyStore> {
    let (cid, oid, dkey, akey) = at;
    object_at(conts, cid, oid, epoch)?
        .dkeys
        .get(dkey)?
        .akey(akey)
}

/// Every akey of `conts` in key order — container, object, dkey, akey —
/// with its coordinates and whether its object is visible at
/// `Epoch::MAX`. Aggregation, scrub and rot injection all walk this way.
/// With `after`, the walk starts past that akey: each level descends from
/// its key in `after` while the walk is still inside `after`'s prefix.
/// With `visible_only` (the scrubber's walk), an object invisible at
/// `Epoch::MAX` is passed over without visiting its dkeys.
fn walk<'a>(
    conts: impl Iterator<Item = (&'a ContId, &'a mut ContStore)>,
    after: Option<AkeyAt<'a>>,
    visible_only: bool,
) -> impl Iterator<Item = ((ContId, ObjKey, &'a Key, &'a Key), bool, &'a mut AkeyStore)> {
    conts.flat_map(move |(&cid, cont)| {
        let after = after.filter(|a| a.0 == cid);
        let objects = cont.objects.range_mut(after.map_or(0, |a| a.1)..);
        let objects = objects.filter(move |(_, obj)| !visible_only || obj.visible_at(Epoch::MAX));
        objects.flat_map(move |(&oid, obj)| {
            let after = after.filter(|a| a.1 == oid);
            let visible = obj.visible_at(Epoch::MAX);
            let from = Bound::Included(after.map_or(&[][..], |a| a.2));
            obj.dkeys
                .range_mut::<[u8], _>((from, Bound::Unbounded))
                .flat_map(move |(dkey, dk)| {
                    let after = after.filter(|a| a.2 == &dkey[..]);
                    let first = after.map_or(0, |a| dk.find(a.3).map_or_else(|i| i, |i| i + 1));
                    dk.akeys[first..].iter_mut().map(move |(akey, ak)| {
                        let akey: &Key = akey;
                        ((cid, oid, dkey, akey), visible, ak)
                    })
                })
        })
    })
}

/// One VOS target (a media slice served by one engine xstream).
pub struct VosTarget {
    media: Rc<MediaSet>,
    cfg: VosConfig,
    containers: RefCell<Namespace>,
    epoch: Cell<Epoch>,
    counters: RefCell<VosCounters>,
    /// Scrubber position: the last `(cont, obj, dkey, akey)` verified.
    /// `None` = start of namespace.
    scrub_cursor: RefCell<Option<(ContId, ObjKey, Key, Key)>>,
    /// The chunks of the scrubber's last step, kept for its next one.
    scrub_batch: RefCell<Vec<(ContId, ObjKey, Key, Key)>>,
    /// Lent to every overlay the target paints — a fetch's, an array-size
    /// query's, aggregation's and the scrubber's — so a warm target paints
    /// without allocating.
    scratch: RefCell<Scratch>,
}

impl VosTarget {
    /// Create a target over `media`.
    pub fn new(media: Rc<MediaSet>, cfg: VosConfig) -> Rc<Self> {
        Rc::new(VosTarget {
            media,
            cfg,
            containers: RefCell::new(BTreeMap::new()),
            epoch: Cell::new(0),
            counters: RefCell::new(VosCounters::default()),
            scrub_cursor: RefCell::new(None),
            scrub_batch: RefCell::new(Vec::new()),
            scratch: RefCell::new(Scratch::default()),
        })
    }

    /// The media set behind this target.
    pub fn media(&self) -> &Rc<MediaSet> {
        &self.media
    }

    /// Snapshot of the counters.
    pub fn counters(&self) -> VosCounters {
        *self.counters.borrow()
    }

    /// Allocate the next local epoch (monotonic per target).
    pub fn next_epoch(&self) -> Epoch {
        let e = self.epoch.get() + 1;
        self.epoch.set(e);
        e
    }

    /// Allocate an HLC-style epoch: max(physical time, last + 1). DAOS
    /// epochs are hybrid logical clocks, which makes them comparable
    /// *across* targets — required for container snapshots.
    pub fn next_epoch_at(&self, now_ns: u64) -> Epoch {
        let e = now_ns.max(self.epoch.get() + 1);
        self.epoch.set(e);
        e
    }

    /// Highest epoch issued so far.
    pub fn current_epoch(&self) -> Epoch {
        self.epoch.get()
    }

    /// Ensure a container exists (idempotent).
    pub fn open_container(&self, cid: ContId) {
        self.containers.borrow_mut().entry(cid).or_default();
    }

    /// Containers present on this target.
    pub fn container_ids(&self) -> Vec<ContId> {
        self.containers.borrow().keys().copied().collect()
    }

    /// Punch a whole object at `epoch` (unlink).
    pub async fn punch_object(&self, sim: &Sim, cid: ContId, oid: ObjKey, epoch: Epoch) {
        {
            let mut conts = self.containers.borrow_mut();
            if let Some(obj) = conts.get_mut(&cid).and_then(|c| c.objects.get_mut(&oid)) {
                obj.punched_at = Some(epoch);
            }
        }
        self.media.index_update(sim, 2).await;
    }

    /// List dkeys of an object (readdir). Charges one index read per key
    /// batch of 64.
    pub async fn list_dkeys(&self, sim: &Sim, cid: ContId, oid: ObjKey, epoch: Epoch) -> Vec<Key> {
        let keys = {
            let conts = self.containers.borrow();
            object_at(&conts, cid, oid, epoch)
                .map(|o| o.dkeys.keys().cloned().collect::<Vec<_>>())
                .unwrap_or_default()
        };
        let batches = (keys.len() as u64).div_ceil(64).max(1);
        let index_bytes = batches * self.cfg.fetch_index_bytes;
        self.media.scm().read(sim, index_bytes).await;
        keys
    }

    /// Find or create the akey at `at` for an update of `shape`, with the
    /// index ops that cost: the object root on its first write, the dkey
    /// and the akey on theirs. An array update's new dkey is hot when it
    /// sorts after the object's last array dkey, and every array update
    /// moves that cursor; a new single-value dkey is always cold and
    /// leaves the cursor alone. An akey of the other shape is refused
    /// before anything moves.
    fn upsert<'a>(
        &self,
        conts: &'a mut Namespace,
        at: AkeyAt<'_>,
        shape: Shape,
    ) -> Result<(&'a mut AkeyStore, u64), VosError> {
        let (cid, oid, dkey, akey) = at;
        let mut c = self.counters.borrow_mut();
        let mut ops = 0;
        let cont = conts.entry(cid).or_default();
        let obj = cont.objects.entry(oid).or_insert_with(|| {
            ops += self.cfg.obj_create_ops;
            c.obj_creates += 1;
            ObjStore::default()
        });
        let new_dkey = !obj.dkeys.contains_key(dkey);
        #[expect(
            clippy::expect_used,
            reason = "INVARIANT: the dkey is fetched only after contains_key found it in the same map"
        )]
        let ak = {
            let dk = if new_dkey {
                obj.dkeys.entry(Key::new(dkey)).or_default()
            } else {
                obj.dkeys.get_mut(dkey).expect("existing dkey")
            };
            let i = dk.find(akey).unwrap_or_else(|i| {
                ops += self.cfg.akey_ops;
                dk.akeys.insert(i, (Key::new(akey), AkeyStore::new(shape)));
                i
            });
            &mut dk.akeys[i].1
        };
        let array = shape == Shape::Array;
        if matches!(ak, AkeyStore::Array { .. }) != array {
            return Err(shape.refused());
        }
        if new_dkey {
            let hot = array && obj.last_dkey.as_deref().is_none_or(|last| last < dkey);
            let (dkey_ops, inserts) = match hot {
                true => (self.cfg.dkey_hot_ops, &mut c.hot_dkey_inserts),
                false => (self.cfg.dkey_cold_ops, &mut c.cold_dkey_inserts),
            };
            ops += dkey_ops;
            // only array dkey inserts are counted
            *inserts += u64::from(array);
        }
        // a key is copied only on first touch, and a short one (every
        // chunk dkey) is copied without an allocation
        if array && obj.last_dkey.as_deref() != Some(dkey) {
            obj.last_dkey = Some(Key::new(dkey));
        }
        Ok((ak, ops))
    }

    /// Count one applied update of `len` payload bytes and `ops` index
    /// updates, and charge the media for both.
    async fn charge_update(&self, sim: &Sim, len: u64, ops: u64) {
        {
            let mut c = self.counters.borrow_mut();
            c.updates += 1;
            c.bytes_written += len;
            c.index_ops += ops;
        }
        self.media.write_payload(sim, len).await;
        self.media.index_update(sim, ops).await;
    }

    /// Count one fetch of `bytes` payload bytes and charge its index
    /// descent (the payload read is the caller's).
    async fn charge_fetch(&self, sim: &Sim, bytes: u64) {
        {
            let mut c = self.counters.borrow_mut();
            c.fetches += 1;
            c.bytes_read += bytes;
        }
        self.media.scm().read(sim, self.cfg.fetch_index_bytes).await;
    }
}

#[cfg(test)]
mod tests;
