//! One VOS target: container/object/dkey/akey trees plus media-cost
//! accounting.
//!
//! The data structures are mutated for real; the *time* each operation
//! takes is charged against the target's [`MediaSet`] — payload bytes on
//! the data path, index updates on the SCM write path. The index-cost model
//! distinguishes hot (append-adjacent) from cold inserts: this is where
//! wide object classes (`SX`) lose the write-combining that single-target
//! classes enjoy, one of the mechanisms behind the paper's Figure 1(b).

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use daos_media::{Device, MediaSet};
use daos_sim::Sim;

use crate::tree::{CsumViolation, ExtentTree, ReadSeg, SingleValue};
use crate::{Epoch, Key, Payload};

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

enum AkeyStore {
    Array { tree: ExtentTree, last_end: u64 },
    Single(SingleValue),
}

#[derive(Default)]
struct DkeyStore {
    akeys: BTreeMap<Key, AkeyStore>,
}

#[derive(Default)]
struct ObjStore {
    dkeys: BTreeMap<Key, DkeyStore>,
    last_dkey: Option<Key>,
    punched_at: Option<Epoch>,
}

#[derive(Default)]
struct ContStore {
    objects: BTreeMap<ObjKey, ObjStore>,
}

/// One VOS target (a media slice served by one engine xstream).
pub struct VosTarget {
    media: Rc<MediaSet>,
    cfg: VosConfig,
    containers: RefCell<BTreeMap<ContId, ContStore>>,
    epoch: Cell<Epoch>,
    counters: RefCell<VosCounters>,
    /// Scrubber position: the last `(cont, obj, dkey, akey)` verified.
    /// `None` = start of namespace.
    scrub_cursor: RefCell<Option<(ContId, ObjKey, Key, Key)>>,
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

    /// Write `data` into an array akey at `offset` with epoch `epoch`.
    ///
    /// Returns the number of index ops charged (for tests/ablation), or
    /// [`VosError::AkeyKind`] if the akey holds a single value.
    #[allow(
        clippy::too_many_arguments,
        reason = "the VOS call shape: container, object, dkey, akey, extent or epoch, payload"
    )]
    pub async fn update_array(
        &self,
        sim: &Sim,
        cid: ContId,
        oid: ObjKey,
        dkey: &[u8],
        akey: &[u8],
        offset: u64,
        epoch: Epoch,
        data: Payload,
    ) -> Result<u64, VosError> {
        let len = data.len();
        let ops = {
            let mut conts = self.containers.borrow_mut();
            let cont = conts.entry(cid).or_default();
            let mut ops = 0u64;
            let mut created = 0u64;
            let obj = cont.objects.entry(oid).or_insert_with(|| {
                ops += self.cfg.obj_create_ops;
                created = 1;
                ObjStore::default()
            });
            let hot_dkey = match (&obj.last_dkey, obj.dkeys.contains_key(dkey)) {
                (_, true) => None, // existing dkey: no insert
                (Some(last), false) => Some(&**last < dkey),
                (None, false) => Some(true), // first dkey: append path
            };
            match hot_dkey {
                Some(true) => ops += self.cfg.dkey_hot_ops,
                Some(false) => ops += self.cfg.dkey_cold_ops,
                None => {}
            }
            let mut c = self.counters.borrow_mut();
            match hot_dkey {
                Some(true) => c.hot_dkey_inserts += 1,
                Some(false) => c.cold_dkey_inserts += 1,
                None => {}
            }
            // a key is copied only on first touch, and a short one (every
            // chunk dkey) is copied without an allocation
            if obj.last_dkey.as_deref() != Some(dkey) {
                obj.last_dkey = Some(Key::new(dkey));
            }
            let dk = match hot_dkey {
                #[expect(
                    clippy::expect_used,
                    reason = "INVARIANT: hot_dkey is None exactly when contains_key was true"
                )]
                None => obj.dkeys.get_mut(dkey).expect("existing dkey"),
                Some(_) => obj.dkeys.entry(Key::new(dkey)).or_default(),
            };
            #[expect(
                clippy::expect_used,
                reason = "INVARIANT: guarded by contains_key on the same map"
            )]
            let ak = if dk.akeys.contains_key(akey) {
                dk.akeys.get_mut(akey).expect("existing akey")
            } else {
                ops += self.cfg.akey_ops;
                dk.akeys
                    .entry(Key::new(akey))
                    .or_insert_with(|| AkeyStore::Array {
                        tree: ExtentTree::new(),
                        last_end: 0,
                    })
            };
            match ak {
                AkeyStore::Array { tree, last_end } => {
                    ops += if offset == *last_end {
                        self.cfg.extent_append_ops
                    } else {
                        self.cfg.extent_cold_ops
                    };
                    tree.insert(offset, epoch, data);
                    *last_end = offset + len;
                }
                AkeyStore::Single(_) => return Err(VosError::AkeyKind { expected: "array" }),
            }
            c.obj_creates += created;
            c.updates += 1;
            c.bytes_written += len;
            c.index_ops += ops;
            ops
        };
        self.media.write_payload(sim, len).await;
        self.media.index_update(sim, ops).await;
        Ok(ops)
    }

    /// Read `[offset, offset+len)` from an array akey as of `epoch`,
    /// verifying the checksum of every stored extent the read touches
    /// (when `csum_enabled`). A violation still charges the media time the
    /// failed read consumed — the bytes were read before the hash disagreed.
    #[allow(
        clippy::too_many_arguments,
        reason = "the VOS call shape: container, object, dkey, akey, extent or epoch, payload"
    )]
    pub async fn fetch_array(
        &self,
        sim: &Sim,
        cid: ContId,
        oid: ObjKey,
        dkey: &[u8],
        akey: &[u8],
        offset: u64,
        len: u64,
        epoch: Epoch,
    ) -> Result<Vec<ReadSeg>, VosError> {
        let (segs, violation) = {
            let conts = self.containers.borrow();
            let tree = match conts
                .get(&cid)
                .and_then(|c| c.objects.get(&oid))
                .filter(|o| o.punched_at.map(|p| epoch < p).unwrap_or(true))
                .and_then(|o| o.dkeys.get(dkey))
                .and_then(|d| d.akeys.get(akey))
            {
                Some(AkeyStore::Array { tree, .. }) => Some(tree),
                Some(AkeyStore::Single(_)) => return Err(VosError::AkeyKind { expected: "array" }),
                None => None,
            };
            match tree {
                Some(tree) => {
                    // one pass: the bytes and the verdict on them
                    let overlay = tree.overlay(offset, len, epoch);
                    let verdict = self.cfg.csum_enabled.then(|| overlay.verify());
                    (overlay.segs(), verdict.and_then(Result::err))
                }
                None => (
                    vec![ReadSeg {
                        offset,
                        len,
                        data: None,
                    }],
                    None,
                ),
            }
        };
        let data_bytes: u64 = segs
            .iter()
            .filter(|s| s.data.is_some())
            .map(|s| s.len)
            .sum();
        {
            let mut c = self.counters.borrow_mut();
            c.fetches += 1;
            c.bytes_read += data_bytes;
            if violation.is_some() {
                c.csum_mismatches += 1;
            }
        }
        self.media.scm().read(sim, self.cfg.fetch_index_bytes).await;
        self.media.read_payload(sim, data_bytes).await;
        match violation {
            Some(v) => Err(VosError::Csum(v)),
            None => Ok(segs),
        }
    }

    /// Upsert a single-value akey.
    #[allow(
        clippy::too_many_arguments,
        reason = "the VOS call shape: container, object, dkey, akey, extent or epoch, payload"
    )]
    pub async fn update_single(
        &self,
        sim: &Sim,
        cid: ContId,
        oid: ObjKey,
        dkey: &[u8],
        akey: &[u8],
        epoch: Epoch,
        value: Payload,
    ) -> Result<(), VosError> {
        let len = value.len();
        let ops = {
            let mut conts = self.containers.borrow_mut();
            let cont = conts.entry(cid).or_default();
            let mut ops = 0u64;
            let mut created = 0u64;
            let obj = cont.objects.entry(oid).or_insert_with(|| {
                ops += self.cfg.obj_create_ops;
                created = 1;
                ObjStore::default()
            });
            let new_dkey = !obj.dkeys.contains_key(dkey);
            if new_dkey {
                ops += self.cfg.dkey_cold_ops;
            }
            #[expect(
                clippy::expect_used,
                reason = "INVARIANT: !new_dkey means contains_key was true just above"
            )]
            let dk = if new_dkey {
                obj.dkeys.entry(Key::new(dkey)).or_default()
            } else {
                obj.dkeys.get_mut(dkey).expect("existing dkey")
            };
            #[expect(
                clippy::expect_used,
                reason = "INVARIANT: guarded by contains_key on the same map"
            )]
            let ak = if dk.akeys.contains_key(akey) {
                dk.akeys.get_mut(akey).expect("existing akey")
            } else {
                ops += self.cfg.akey_ops;
                dk.akeys
                    .entry(Key::new(akey))
                    .or_insert_with(|| AkeyStore::Single(SingleValue::new()))
            };
            match ak {
                AkeyStore::Single(sv) => sv.update(epoch, value),
                AkeyStore::Array { .. } => return Err(VosError::AkeyKind { expected: "single" }),
            }
            let mut c = self.counters.borrow_mut();
            c.obj_creates += created;
            c.updates += 1;
            c.bytes_written += len;
            c.index_ops += ops + 1;
            ops + 1
        };
        self.media.write_payload(sim, len).await;
        self.media.index_update(sim, ops).await;
        Ok(())
    }

    /// Read a single-value akey as of `epoch`.
    pub async fn fetch_single(
        &self,
        sim: &Sim,
        cid: ContId,
        oid: ObjKey,
        dkey: &[u8],
        akey: &[u8],
        epoch: Epoch,
    ) -> Result<Option<Payload>, VosError> {
        let val = {
            let conts = self.containers.borrow();
            match conts
                .get(&cid)
                .and_then(|c| c.objects.get(&oid))
                .filter(|o| o.punched_at.map(|p| epoch < p).unwrap_or(true))
                .and_then(|o| o.dkeys.get(dkey))
                .and_then(|d| d.akeys.get(akey))
            {
                Some(AkeyStore::Single(sv)) => sv.fetch(epoch).cloned(),
                Some(AkeyStore::Array { .. }) => {
                    return Err(VosError::AkeyKind { expected: "single" })
                }
                None => None,
            }
        };
        let bytes = val.as_ref().map(|v| v.len()).unwrap_or(0);
        {
            let mut c = self.counters.borrow_mut();
            c.fetches += 1;
            c.bytes_read += bytes;
        }
        self.media.scm().read(sim, self.cfg.fetch_index_bytes).await;
        if bytes > 0 {
            self.media.read_payload(sim, bytes).await;
        }
        Ok(val)
    }

    /// Punch (logically zero) a byte range of an array akey at `epoch`.
    #[allow(
        clippy::too_many_arguments,
        reason = "the VOS call shape: container, object, dkey, akey, extent or epoch, payload"
    )]
    pub async fn punch_array(
        &self,
        sim: &Sim,
        cid: ContId,
        oid: ObjKey,
        dkey: &[u8],
        akey: &[u8],
        offset: u64,
        len: u64,
        epoch: Epoch,
    ) -> Result<(), VosError> {
        {
            let mut conts = self.containers.borrow_mut();
            if let Some(ak) = conts
                .get_mut(&cid)
                .and_then(|c| c.objects.get_mut(&oid))
                .and_then(|o| o.dkeys.get_mut(dkey))
                .and_then(|d| d.akeys.get_mut(akey))
            {
                match ak {
                    AkeyStore::Array { tree, .. } => tree.punch(offset, len, epoch),
                    AkeyStore::Single(_) => return Err(VosError::AkeyKind { expected: "array" }),
                }
            }
        }
        self.media.index_update(sim, self.cfg.extent_cold_ops).await;
        Ok(())
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
            conts
                .get(&cid)
                .and_then(|c| c.objects.get(&oid))
                .filter(|o| o.punched_at.map(|p| epoch < p).unwrap_or(true))
                .map(|o| o.dkeys.keys().cloned().collect::<Vec<_>>())
                .unwrap_or_default()
        };
        let batches = (keys.len() as u64).div_ceil(64).max(1);
        self.media
            .scm()
            .read(sim, batches * self.cfg.fetch_index_bytes)
            .await;
        keys
    }

    /// For array objects: the highest dkey on this target and the visible
    /// byte size within it (array-size queries; the client combines across
    /// shards knowing the chunk size). Charges one index read.
    pub async fn array_max_chunk(
        &self,
        sim: &Sim,
        cid: ContId,
        oid: ObjKey,
        akey: &[u8],
        epoch: Epoch,
    ) -> Option<(Key, u64)> {
        let out = {
            let conts = self.containers.borrow();
            conts
                .get(&cid)
                .and_then(|c| c.objects.get(&oid))
                .filter(|o| o.punched_at.map(|p| epoch < p).unwrap_or(true))
                .and_then(|o| {
                    o.dkeys.iter().rev().find_map(|(dk, d)| {
                        d.akeys.get(akey).and_then(|a| match a {
                            AkeyStore::Array { tree, .. } => {
                                let sz = tree.size_at(epoch);
                                (sz > 0).then(|| (dk.clone(), sz))
                            }
                            AkeyStore::Single(_) => None,
                        })
                    })
                })
        };
        self.media.scm().read(sim, self.cfg.fetch_index_bytes).await;
        out
    }

    /// Containers present on this target.
    pub fn container_ids(&self) -> Vec<ContId> {
        self.containers.borrow().keys().copied().collect()
    }

    /// Run aggregation over every array akey in `cid` up to `epoch`;
    /// returns reclaimed extent count. (Background service; instantaneous
    /// in sim time — the paper's runs do not overlap aggregation windows.)
    pub fn aggregate(&self, cid: ContId, epoch: Epoch) -> usize {
        let mut reclaimed = 0;
        if let Some(cont) = self.containers.borrow_mut().get_mut(&cid) {
            for obj in cont.objects.values_mut() {
                for dk in obj.dkeys.values_mut() {
                    for ak in dk.akeys.values_mut() {
                        match ak {
                            AkeyStore::Array { tree, .. } => reclaimed += tree.aggregate(epoch),
                            AkeyStore::Single(sv) => sv.aggregate(epoch),
                        }
                    }
                }
            }
        }
        reclaimed
    }

    /// One incremental scrub step: resume from the persistent cursor, walk
    /// up to `budget` array akeys (chunks) verifying every visible extent's
    /// checksum, and charge media read time for the bytes hashed — the
    /// scrubber competes with foreground I/O for media bandwidth, which is
    /// the cost the scrub-rate knob trades against detection latency.
    ///
    /// Punched objects are skipped (their data is no longer visible);
    /// single-value akeys are covered by wire checksums at the engine
    /// boundary, not stored ones, so the scrubber skips them too.
    pub async fn scrub_step(&self, sim: &Sim, budget: usize) -> ScrubReport {
        // Snapshot the akey coordinates after the cursor (borrow must not
        // be held across awaits).
        let cursor = self.scrub_cursor.borrow().clone();
        let mut items: Vec<(ContId, ObjKey, Key, Key)> = Vec::with_capacity(budget);
        let mut wrapped = true;
        {
            let conts = self.containers.borrow();
            'walk: for (cid, cont) in conts.iter() {
                for (oid, obj) in cont.objects.iter() {
                    if obj.punched_at.is_some() {
                        continue;
                    }
                    for (dkey, dk) in obj.dkeys.iter() {
                        for (akey, ak) in dk.akeys.iter() {
                            if !matches!(ak, AkeyStore::Array { .. }) {
                                continue;
                            }
                            let coord = (*cid, *oid, dkey.clone(), akey.clone());
                            if let Some(c) = &cursor {
                                if coord <= *c {
                                    continue;
                                }
                            }
                            if items.len() == budget {
                                // more work remains past this batch
                                wrapped = false;
                                break 'walk;
                            }
                            items.push(coord);
                        }
                    }
                }
            }
        }
        let mut report = ScrubReport::default();
        for (cid, oid, dkey, akey) in &items {
            // Re-resolve each chunk: it may have been punched or dropped
            // while an earlier iteration awaited media time.
            let outcome = {
                let conts = self.containers.borrow();
                conts
                    .get(cid)
                    .and_then(|c| c.objects.get(oid))
                    .filter(|o| o.punched_at.is_none())
                    .and_then(|o| o.dkeys.get(dkey))
                    .and_then(|d| d.akeys.get(akey))
                    .and_then(|a| match a {
                        AkeyStore::Array { tree, .. } => {
                            let span = tree.span(Epoch::MAX);
                            Some((tree.verify_range(0, span, Epoch::MAX), span))
                        }
                        AkeyStore::Single(_) => None,
                    })
            };
            let Some((result, span)) = outcome else {
                continue;
            };
            self.media.scm().read(sim, self.cfg.fetch_index_bytes).await;
            report.chunks += 1;
            match result {
                Ok(bytes) => {
                    self.media.read_payload(sim, bytes).await;
                    report.bytes += bytes;
                }
                Err(v) => {
                    // a failed pass still read the chunk before disagreeing
                    self.media.read_payload(sim, span).await;
                    report.bytes += span;
                    report.findings.push(ScrubFinding {
                        cid: *cid,
                        oid: *oid,
                        dkey: dkey.clone(),
                        akey: akey.clone(),
                        offset: v.offset,
                        len: v.len,
                    });
                }
            }
        }
        {
            let mut c = self.counters.borrow_mut();
            c.scrub_chunks += report.chunks;
            c.scrub_bytes += report.bytes;
            c.csum_mismatches += report.findings.len() as u64;
        }
        *self.scrub_cursor.borrow_mut() = if wrapped { None } else { items.last().cloned() };
        report.wrapped = wrapped;
        report
    }

    /// Fault injection: silently corrupt stored array extents across the
    /// whole target. Each data extent rots independently with probability
    /// `fraction_ppm` parts-per-million (deterministic in `seed`). Stored
    /// checksums are left stale — that is the definition of silent
    /// corruption. Returns the number of extents corrupted.
    pub fn inject_bit_rot(&self, fraction_ppm: u32, seed: u64) -> u64 {
        fn mix(mut h: u64, bytes: &[u8]) -> u64 {
            for &b in bytes {
                h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
            h
        }
        let mut rotted = 0u64;
        let mut conts = self.containers.borrow_mut();
        for (cid, cont) in conts.iter_mut() {
            for (oid, obj) in cont.objects.iter_mut() {
                for (dkey, dk) in obj.dkeys.iter_mut() {
                    for (akey, ak) in dk.akeys.iter_mut() {
                        if let AkeyStore::Array { tree, .. } = ak {
                            let mut s = seed ^ cid ^ (*oid as u64) ^ ((*oid >> 64) as u64);
                            s = mix(s, dkey);
                            s = mix(s, akey);
                            rotted += tree.inject_rot(s, fraction_ppm);
                        }
                    }
                }
            }
        }
        self.counters.borrow_mut().extents_rotted += rotted;
        rotted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daos_media::{Dcpmm, DcpmmConfig};

    fn mk_target() -> (Sim, Rc<VosTarget>) {
        let sim = Sim::new(5);
        let scm = Dcpmm::new("pm", DcpmmConfig::default());
        let t = VosTarget::new(MediaSet::scm_only(scm), VosConfig::default());
        (sim, t)
    }

    #[test]
    fn array_round_trip_with_costs() {
        let (mut sim, t) = mk_target();
        sim.block_on(|sim| {
            let t = Rc::clone(&t);
            async move {
                let e = t.next_epoch();
                let p = Payload::pattern(1, 4096);
                t.update_array(
                    &sim,
                    1,
                    42,
                    &crate::key("d0"),
                    &crate::key("a"),
                    0,
                    e,
                    p.clone(),
                )
                .await
                .unwrap();
                let segs = t
                    .fetch_array(&sim, 1, 42, &crate::key("d0"), &crate::key("a"), 0, 4096, e)
                    .await
                    .expect("clean data verifies");
                assert_eq!(segs.len(), 1);
                assert_eq!(
                    segs[0].data.as_ref().unwrap().materialize(),
                    p.materialize()
                );
                assert!(sim.now().as_ns() > 0, "ops must cost simulated time");
            }
        });
        let c = t.counters();
        assert_eq!(c.updates, 1);
        assert_eq!(c.fetches, 1);
        assert_eq!(c.bytes_written, 4096);
        assert_eq!(c.bytes_read, 4096);
        assert_eq!(c.obj_creates, 1);
    }

    #[test]
    fn append_path_is_cheaper_than_scatter() {
        let (mut sim, t) = mk_target();
        let (seq_ops, scat_ops) = sim.block_on(|sim| {
            let t = Rc::clone(&t);
            async move {
                let a = crate::key("a");
                // sequential dkeys, contiguous offsets
                let mut seq_ops = 0;
                for i in 0..16u64 {
                    let e = t.next_epoch();
                    let dk = format!("{:08}", i).into_bytes();
                    seq_ops += t
                        .update_array(&sim, 1, 1, &dk, &a, 0, e, Payload::pattern(i, 1024))
                        .await
                        .unwrap();
                }
                // scattered dkeys on a second object (reverse order)
                let mut scat_ops = 0;
                for i in (0..16u64).rev() {
                    let e = t.next_epoch();
                    let dk = format!("{:08}", i).into_bytes();
                    scat_ops += t
                        .update_array(&sim, 1, 2, &dk, &a, 512, e, Payload::pattern(i, 1024))
                        .await
                        .unwrap();
                }
                (seq_ops, scat_ops)
            }
        });
        assert!(
            seq_ops < scat_ops,
            "append path {seq_ops} must beat scatter {scat_ops}"
        );
    }

    #[test]
    fn single_value_round_trip() {
        let (mut sim, t) = mk_target();
        sim.block_on(|sim| {
            let t = Rc::clone(&t);
            async move {
                let e1 = t.next_epoch();
                t.update_single(
                    &sim,
                    1,
                    9,
                    &crate::key("d"),
                    &crate::key("attr"),
                    e1,
                    Payload::bytes(vec![1, 2, 3]),
                )
                .await
                .unwrap();
                let e2 = t.next_epoch();
                t.update_single(
                    &sim,
                    1,
                    9,
                    &crate::key("d"),
                    &crate::key("attr"),
                    e2,
                    Payload::bytes(vec![9]),
                )
                .await
                .unwrap();
                let v1 = t
                    .fetch_single(&sim, 1, 9, &crate::key("d"), &crate::key("attr"), e1)
                    .await
                    .unwrap()
                    .unwrap();
                assert_eq!(&v1.materialize()[..], &[1, 2, 3]);
                let v2 = t
                    .fetch_single(&sim, 1, 9, &crate::key("d"), &crate::key("attr"), e2)
                    .await
                    .unwrap()
                    .unwrap();
                assert_eq!(&v2.materialize()[..], &[9]);
            }
        });
        // two upserts of one object: created once
        assert_eq!(t.counters().obj_creates, 1);
    }

    #[test]
    fn fetch_missing_yields_hole() {
        let (mut sim, t) = mk_target();
        sim.block_on(|sim| {
            let t = Rc::clone(&t);
            async move {
                let segs = t
                    .fetch_array(
                        &sim,
                        1,
                        7,
                        &crate::key("nope"),
                        &crate::key("a"),
                        0,
                        128,
                        10,
                    )
                    .await
                    .expect("missing akey is a clean hole");
                assert_eq!(segs.len(), 1);
                assert!(segs[0].data.is_none());
            }
        });
    }

    #[test]
    fn punched_object_is_invisible_after_epoch() {
        let (mut sim, t) = mk_target();
        sim.block_on(|sim| {
            let t = Rc::clone(&t);
            async move {
                let e1 = t.next_epoch();
                t.update_array(
                    &sim,
                    1,
                    5,
                    &crate::key("d"),
                    &crate::key("a"),
                    0,
                    e1,
                    Payload::pattern(1, 64),
                )
                .await
                .unwrap();
                let e2 = t.next_epoch();
                t.punch_object(&sim, 1, 5, e2).await;
                let e3 = t.next_epoch();
                let segs = t
                    .fetch_array(&sim, 1, 5, &crate::key("d"), &crate::key("a"), 0, 64, e3)
                    .await
                    .unwrap();
                assert!(segs[0].data.is_none(), "punched object must read as hole");
                // reads as-of e1 still see it
                let old = t
                    .fetch_array(&sim, 1, 5, &crate::key("d"), &crate::key("a"), 0, 64, e1)
                    .await
                    .unwrap();
                assert!(old[0].data.is_some());
            }
        });
    }

    /// A wide object's punch visits every target, and most of them never
    /// held a shard of it: the visit must leave no empty container behind
    /// for aggregation and the scrubber to walk, and still pay for the
    /// index lookup it made.
    #[test]
    fn punching_an_absent_object_creates_nothing_and_still_costs_two_index_writes() {
        let (mut sim, t) = mk_target();
        sim.block_on(|sim| {
            let t = Rc::clone(&t);
            async move {
                let t0 = sim.now();
                t.punch_object(&sim, 9, 5, t.next_epoch()).await;
                let absent = sim.now() - t0;
                assert!(t.container_ids().is_empty(), "{:?}", t.container_ids());

                let (d, a) = (crate::key("d"), crate::key("a"));
                t.update_single(&sim, 9, 5, &d, &a, t.next_epoch(), Payload::bytes(vec![0]))
                    .await
                    .unwrap();
                let t1 = sim.now();
                t.punch_object(&sim, 9, 5, t.next_epoch()).await;
                assert_eq!(absent, sim.now() - t1, "absent or present, same cost");
                let t2 = sim.now();
                t.media().index_update(&sim, 2).await;
                assert_eq!(absent, sim.now() - t2, "which is two index writes");
                assert_eq!(t.container_ids(), vec![9]);
            }
        });
    }

    #[test]
    fn list_dkeys_returns_sorted() {
        let (mut sim, t) = mk_target();
        let keys = sim.block_on(|sim| {
            let t = Rc::clone(&t);
            async move {
                for name in ["zeta", "alpha", "mid"] {
                    let e = t.next_epoch();
                    t.update_single(
                        &sim,
                        1,
                        3,
                        &crate::key(name),
                        &crate::key("v"),
                        e,
                        Payload::bytes(vec![0]),
                    )
                    .await
                    .unwrap();
                }
                t.list_dkeys(&sim, 1, 3, t.current_epoch()).await
            }
        });
        assert_eq!(
            keys,
            vec![crate::key("alpha"), crate::key("mid"), crate::key("zeta")]
        );
    }

    #[test]
    fn bit_rot_fails_fetch_and_scrubber_finds_it() {
        let (mut sim, t) = mk_target();
        sim.block_on(|sim| {
            let t = Rc::clone(&t);
            async move {
                // two chunks on one object, one on another
                for (oid, dk) in [(1u128, "c0"), (1, "c1"), (2, "c0")] {
                    let e = t.next_epoch();
                    t.update_array(
                        &sim,
                        1,
                        oid,
                        &crate::key(dk),
                        &crate::key("0"),
                        0,
                        e,
                        Payload::pattern(e, 2048),
                    )
                    .await
                    .unwrap();
                }
                // clean scrub pass first: everything verifies, time charged
                let before = sim.now();
                let rep = t.scrub_step(&sim, 16).await;
                assert!(rep.wrapped);
                assert_eq!(rep.chunks, 3);
                assert_eq!(rep.bytes, 3 * 2048);
                assert!(rep.findings.is_empty());
                assert!(sim.now() > before, "scrub must charge media time");

                // rot everything; fetch fails, scrub locates all three
                let n = t.inject_bit_rot(1_000_000, 0x1207);
                assert_eq!(n, 3);
                let err = t
                    .fetch_array(
                        &sim,
                        1,
                        1,
                        &crate::key("c0"),
                        &crate::key("0"),
                        0,
                        2048,
                        t.current_epoch(),
                    )
                    .await;
                assert!(err.is_err(), "fetch of rotten chunk must fail verify");
                let rep = t.scrub_step(&sim, 16).await;
                assert_eq!(rep.findings.len(), 3);
                assert!(t.counters().csum_mismatches >= 4);
            }
        });
    }

    #[test]
    fn scrub_cursor_walks_incrementally() {
        let (mut sim, t) = mk_target();
        sim.block_on(|sim| {
            let t = Rc::clone(&t);
            async move {
                for i in 0..5u64 {
                    let e = t.next_epoch();
                    t.update_array(
                        &sim,
                        1,
                        7,
                        &format!("{i:08}").into_bytes(),
                        &crate::key("0"),
                        0,
                        e,
                        Payload::pattern(i, 256),
                    )
                    .await
                    .unwrap();
                }
                let r1 = t.scrub_step(&sim, 2).await;
                assert_eq!(r1.chunks, 2);
                assert!(!r1.wrapped);
                let r2 = t.scrub_step(&sim, 2).await;
                assert_eq!(r2.chunks, 2);
                assert!(!r2.wrapped);
                let r3 = t.scrub_step(&sim, 2).await;
                assert_eq!(r3.chunks, 1);
                assert!(r3.wrapped, "cursor must wrap at end of namespace");
                // next pass starts over
                let r4 = t.scrub_step(&sim, 16).await;
                assert_eq!(r4.chunks, 5);
                assert!(r4.wrapped);
            }
        });
    }

    #[test]
    fn csum_disabled_serves_rotten_bytes_silently() {
        let sim = Sim::new(5);
        let scm = Dcpmm::new("pm", DcpmmConfig::default());
        let cfg = VosConfig {
            csum_enabled: false,
            ..VosConfig::default()
        };
        let t = VosTarget::new(MediaSet::scm_only(scm), cfg);
        let mut sim = sim;
        sim.block_on(|sim| {
            let t = Rc::clone(&t);
            async move {
                let e = t.next_epoch();
                t.update_array(
                    &sim,
                    1,
                    1,
                    &crate::key("d"),
                    &crate::key("0"),
                    0,
                    e,
                    Payload::pattern(1, 512),
                )
                .await
                .unwrap();
                t.inject_bit_rot(1_000_000, 99);
                let segs = t
                    .fetch_array(&sim, 1, 1, &crate::key("d"), &crate::key("0"), 0, 512, e)
                    .await
                    .expect("verification disabled: rot goes unnoticed");
                assert_ne!(
                    segs[0].data.as_ref().unwrap().materialize(),
                    Payload::pattern(1, 512).materialize()
                );
            }
        });
    }

    #[test]
    fn aggregate_reclaims_overwrite_history() {
        let (mut sim, t) = mk_target();
        sim.block_on(|sim| {
            let t = Rc::clone(&t);
            async move {
                for _ in 0..10 {
                    let e = t.next_epoch();
                    t.update_array(
                        &sim,
                        1,
                        8,
                        &crate::key("d"),
                        &crate::key("a"),
                        0,
                        e,
                        Payload::pattern(e, 1024),
                    )
                    .await
                    .unwrap();
                }
                let reclaimed = t.aggregate(1, t.current_epoch());
                assert!(
                    reclaimed >= 8,
                    "should reclaim shadowed extents: {reclaimed}"
                );
                let segs = t
                    .fetch_array(
                        &sim,
                        1,
                        8,
                        &crate::key("d"),
                        &crate::key("a"),
                        0,
                        1024,
                        t.current_epoch(),
                    )
                    .await
                    .expect("aggregated data verifies clean");
                assert_eq!(
                    segs.iter()
                        .filter(|s| s.data.is_some())
                        .map(|s| s.len)
                        .sum::<u64>(),
                    1024
                );
            }
        });
    }
}
