//! Wire protocol between clients and engines.

use std::ops::{Deref, Range};
use std::rc::Rc;

use daos_placement::ObjectId;
use daos_vos::tree::{ReadSeg, Segs};
use daos_vos::{key, Epoch, Key, Payload};

use crate::ContId;

/// The local targets an object-wide op visits on one engine, in shard
/// order: one engine's run of a list the whole collective round shares,
/// so a round builds one list however many engines it reaches.
#[derive(Clone, Debug)]
pub struct TargetRun {
    list: Rc<[u32]>,
    run: Range<u32>,
}

impl TargetRun {
    /// Entries `run` of the shared `list`.
    pub fn new(list: &Rc<[u32]>, run: Range<usize>) -> Self {
        debug_assert!(run.start <= run.end && run.end <= list.len());
        TargetRun {
            list: Rc::clone(list),
            run: run.start as u32..run.end as u32,
        }
    }
}

/// A run that is the whole of a list of its own.
impl From<Vec<u32>> for TargetRun {
    fn from(targets: Vec<u32>) -> Self {
        let list: Rc<[u32]> = targets.into();
        TargetRun::new(&list, 0..list.len())
    }
}

impl Deref for TargetRun {
    type Target = [u32];
    fn deref(&self) -> &[u32] {
        &self.list[self.run.start as usize..self.run.end as usize]
    }
}

/// Errors surfaced by engines / the pool service.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DaosError {
    /// Control op sent to a non-leader replica; retry at `hint` if known.
    NotLeader { hint: Option<u64> },
    /// Container does not exist.
    NoContainer(ContId),
    /// Container already exists.
    ContainerExists(ContId),
    /// RPC transport failure (endpoint closed).
    Transport,
    /// No response within the RPC deadline (node dark, partition, loss, or
    /// an overloaded server). Retryable.
    Timeout,
    /// The server rejected the op because the client routed it with an
    /// out-of-date pool map; `version` is the server's current map version.
    /// Retryable after a pool-map refresh.
    StaleMap { version: u32 },
    /// A degraded read ran out of replicas / reconstruction sources: every
    /// shard that could serve the data is excluded or unreachable.
    NoSurvivingReplicas,
    /// The server answered with a response kind the caller cannot use —
    /// a protocol mismatch, not retryable.
    UnexpectedResponse(String),
    /// Stored data failed checksum verification on the server: silent media
    /// corruption. NOT retryable against the same shard — the bytes on
    /// media are wrong and will stay wrong; the client must fail over to
    /// another replica (or EC-reconstruct) and report the shard for repair.
    CsumMismatch,
    /// A data frame was corrupted in flight (torn bulk transfer): the
    /// received bytes disagree with the frame's checksum. Retryable — a
    /// resend rereads the good source bytes.
    CorruptFrame,
    /// The engine shed the request at admission: the target xstream's
    /// bounded queue (or the engine-wide in-flight-bytes budget) is full.
    /// A fast-fail — the reply is header-only and no bulk is queued, so it
    /// costs the server almost nothing. Retryable, but clients must treat
    /// it differently from [`DaosError::Timeout`]: the server is *alive and
    /// explicitly refusing work*, so piling on retries is exactly wrong —
    /// back off against the shedding engine instead of resending harder.
    /// `queued` is the shedding xstream's queue depth at rejection time
    /// (observability; lets clients and benches see how deep overload ran).
    Busy { queued: u32 },
    /// Filesystem-level metadata (e.g. a DFS dirent) failed to deserialise:
    /// the stored record is structurally corrupt. Not retryable.
    CorruptMetadata(String),
    /// A data-plane op addressed an akey whose stored value shape (array
    /// vs single-value) disagrees with the op — a client protocol
    /// violation. Not retryable: the key's shape won't change on resend.
    KeyTypeMismatch {
        /// Shape the op required (`"array"` or `"single"`).
        expected: &'static str,
    },
    /// Anything else.
    Other(String),
}

impl DaosError {
    /// Whether a client may retry the failed op (after backoff and, for
    /// [`DaosError::StaleMap`], a pool-map refresh).
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            DaosError::Timeout
                | DaosError::Transport
                | DaosError::StaleMap { .. }
                | DaosError::NotLeader { .. }
                | DaosError::CorruptFrame
                | DaosError::Busy { .. }
        )
    }
}

impl std::fmt::Display for DaosError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DaosError::NotLeader { hint } => {
                write!(f, "not the pool-service leader (hint {hint:?})")
            }
            DaosError::NoContainer(c) => write!(f, "no such container {c}"),
            DaosError::ContainerExists(c) => write!(f, "container {c} exists"),
            DaosError::Transport => write!(f, "rpc transport failure"),
            DaosError::Timeout => write!(f, "rpc deadline exceeded"),
            DaosError::StaleMap { version } => {
                write!(f, "stale pool map (server at version {version})")
            }
            DaosError::NoSurvivingReplicas => write!(f, "no surviving replica for shard"),
            DaosError::UnexpectedResponse(s) => write!(f, "unexpected response {s}"),
            DaosError::CsumMismatch => write!(f, "stored data failed checksum verification"),
            DaosError::CorruptFrame => write!(f, "data frame corrupted in flight"),
            DaosError::Busy { queued } => {
                write!(f, "engine shed request at admission (queue depth {queued})")
            }
            DaosError::CorruptMetadata(s) => write!(f, "corrupt metadata: {s}"),
            DaosError::KeyTypeMismatch { expected } => {
                write!(f, "akey type mismatch: op requires a {expected} akey")
            }
            DaosError::Other(s) => write!(f, "{s}"),
        }
    }
}
impl std::error::Error for DaosError {}

impl From<daos_vos::VosError> for DaosError {
    fn from(e: daos_vos::VosError) -> Self {
        match e {
            daos_vos::VosError::AkeyKind { expected } => DaosError::KeyTypeMismatch { expected },
            daos_vos::VosError::Csum(_) => DaosError::CsumMismatch,
        }
    }
}

impl From<daos_fabric::CallError> for DaosError {
    fn from(e: daos_fabric::CallError) -> Self {
        match e {
            daos_fabric::CallError::Timeout => DaosError::Timeout,
            daos_fabric::CallError::Closed => DaosError::Transport,
        }
    }
}

/// The akey every array chunk's extents live under.
pub fn array_akey() -> Key {
    key("0")
}

/// Array chunk `chunk`'s dkey: the index big-endian, so dkeys sort in
/// chunk order.
pub fn chunk_dkey(chunk: u64) -> Key {
    key(chunk.to_be_bytes())
}

/// The chunk index an array dkey encodes (`None`: not an array dkey).
pub fn chunk_of_dkey(dkey: &[u8]) -> Option<u64> {
    dkey.try_into().ok().map(u64::from_be_bytes)
}

/// A request addressed to one engine. A single-shard data op carries the
/// local target its shard lives on; an object-wide op carries every local
/// target the engine is to visit for it (`targets`, in shard order), so an
/// object costs one RPC per engine however many of its shards live there.
#[derive(Clone, Debug)]
pub enum Request {
    // ------------------------------------------------------- data plane
    UpdateArray {
        target: u32,
        cont: ContId,
        oid: ObjectId,
        dkey: Key,
        akey: Key,
        offset: u64,
        data: Payload,
        /// End-to-end checksum over `data`, computed client-side before the
        /// bulk transfer; the server re-hashes the received bytes and
        /// rejects torn frames with [`DaosError::CorruptFrame`].
        csum: u64,
    },
    FetchArray {
        target: u32,
        cont: ContId,
        oid: ObjectId,
        dkey: Key,
        akey: Key,
        offset: u64,
        len: u64,
        epoch: Epoch,
    },
    UpdateSingle {
        target: u32,
        cont: ContId,
        oid: ObjectId,
        dkey: Key,
        akey: Key,
        value: Payload,
        /// End-to-end checksum over `value` (see `UpdateArray::csum`).
        csum: u64,
    },
    FetchSingle {
        target: u32,
        cont: ContId,
        oid: ObjectId,
        dkey: Key,
        akey: Key,
        epoch: Epoch,
    },
    PunchObject {
        targets: TargetRun,
        cont: ContId,
        oid: ObjectId,
    },
    /// Punch a byte range inside one chunk (truncate support).
    PunchArray {
        targets: TargetRun,
        cont: ContId,
        oid: ObjectId,
        dkey: Key,
        akey: Key,
        offset: u64,
        len: u64,
    },
    ListDkeys {
        targets: TargetRun,
        cont: ContId,
        oid: ObjectId,
    },
    /// Highest chunk dkey + size within it, for array-size queries.
    ArrayMaxChunk {
        targets: TargetRun,
        cont: ContId,
        oid: ObjectId,
        akey: Key,
    },
    /// Highest epoch issued by these targets (container snapshots).
    QueryEpoch {
        targets: TargetRun,
    },
    /// Pool-service heartbeat probing engine liveness; gossips the current
    /// pool-map version and the engine's locally-excluded targets.
    Ping {
        version: u32,
        excluded: Vec<u32>,
    },
    // ---------------------------------------------------- control plane
    PoolConnect,
    /// Read the current pool map (version + excluded targets) from the
    /// pool-service leader's applied state.
    PoolQuery,
    /// Administratively exclude targets (also proposed by the failure
    /// detector when an engine stops answering heartbeats).
    PoolExclude {
        targets: Vec<daos_placement::TargetId>,
    },
    /// Re-admit previously excluded targets (after restart + rebuild).
    PoolReintegrate {
        targets: Vec<daos_placement::TargetId>,
    },
    ContCreate {
        cont: ContId,
    },
    ContOpen {
        cont: ContId,
    },
    ContDestroy {
        cont: ContId,
    },
    /// Create (or re-declare) a tenant pool: a named pool id bound to a
    /// QoS tenant, optionally reserving shards on specific targets. The
    /// reservation feeds the engine shapers — a tenant holding a
    /// reservation on a target gets a boosted DRR weight there.
    PoolCreate {
        pool: u64,
        tenant: u8,
        reserved: Vec<daos_placement::TargetId>,
    },
    /// Tell the pool service a shard's stored data failed verification
    /// (sent by clients on `CsumMismatch` and by engine scrubbers). The
    /// service triggers a targeted repair of that one chunk — not a
    /// whole-target rebuild.
    ReportCorrupt {
        cont: ContId,
        oid: ObjectId,
        /// Chunk index within the object (the array dkey).
        chunk: u64,
        /// The target whose copy is bad.
        target: daos_placement::TargetId,
    },
}

impl Request {
    /// Fetch `[offset, offset + len)` of array chunk `chunk` as of `epoch`.
    pub fn fetch_chunk(
        target: u32,
        cont: ContId,
        oid: ObjectId,
        chunk: u64,
        offset: u64,
        len: u64,
        epoch: Epoch,
    ) -> Request {
        Request::FetchArray {
            target,
            cont,
            oid,
            dkey: chunk_dkey(chunk),
            akey: array_akey(),
            offset,
            len,
            epoch,
        }
    }

    /// Write `data` at `offset` of array chunk `chunk`; `csum` is the
    /// sender's [`wire_csum`] of `data`, taken before any transfer.
    pub fn update_chunk(
        target: u32,
        cont: ContId,
        oid: ObjectId,
        chunk: u64,
        offset: u64,
        data: Payload,
        csum: u64,
    ) -> Request {
        Request::UpdateArray {
            target,
            cont,
            oid,
            dkey: chunk_dkey(chunk),
            akey: array_akey(),
            offset,
            data,
            csum,
        }
    }

    /// Punch `range` of array chunk `chunk` on `targets`.
    pub fn punch_chunk(
        targets: TargetRun,
        cont: ContId,
        oid: ObjectId,
        chunk: u64,
        range: Range<u64>,
    ) -> Request {
        Request::PunchArray {
            targets,
            cont,
            oid,
            dkey: chunk_dkey(chunk),
            akey: array_akey(),
            offset: range.start,
            len: range.end - range.start,
        }
    }

    /// Bytes of bulk payload this request carries on the wire (write data).
    pub fn bulk_in(&self) -> u64 {
        match self {
            Request::UpdateArray { data, .. } => data.len(),
            Request::UpdateSingle { value, .. } => value.len(),
            _ => 0,
        }
    }

    /// The local target a single-shard data op addresses (`None`:
    /// anything else).
    pub fn target(&self) -> Option<u32> {
        match self {
            Request::UpdateArray { target, .. }
            | Request::FetchArray { target, .. }
            | Request::UpdateSingle { target, .. }
            | Request::FetchSingle { target, .. } => Some(*target),
            _ => None,
        }
    }

    /// The local targets an object-wide op visits, and the object it
    /// names if it names one (`None`: anything else).
    pub fn targets(&self) -> Option<(&[u32], Option<ObjectId>)> {
        match self {
            Request::PunchObject { targets, oid, .. }
            | Request::PunchArray { targets, oid, .. }
            | Request::ListDkeys { targets, oid, .. }
            | Request::ArrayMaxChunk { targets, oid, .. } => Some((targets, Some(*oid))),
            Request::QueryEpoch { targets } => Some((targets, None)),
            _ => None,
        }
    }

    /// Payload bytes the serving xstream copies and the QoS shaper
    /// charges: write bulk, or the requested length of an array fetch.
    pub fn payload_bytes(&self) -> u64 {
        match self {
            Request::FetchArray { len, .. } => *len,
            other => other.bulk_in(),
        }
    }
}

/// What an engine's endpoint carries: a request under its RPC header. The
/// header is a fixed size on the wire, so the tenant costs no bytes.
#[derive(Clone, Debug)]
pub struct Rpc {
    /// QoS tenant the engine bills the request to (0 = the default class).
    pub tenant: u8,
    pub req: Request,
}

/// Engine responses.
#[derive(Clone, Debug)]
pub enum Response {
    Ok,
    /// Epoch assigned to an update.
    Written {
        epoch: Epoch,
    },
    Fetched {
        segs: Segs,
        /// End-to-end checksum over the returned data segments (when the
        /// serving engine has checksums enabled). The client re-hashes the
        /// received bytes; a disagreement is a torn response frame.
        csum: Option<u64>,
    },
    Single(Option<Payload>),
    Dkeys(Vec<Key>),
    /// Reply to `ArrayMaxChunk`.
    MaxChunk(Option<(Key, u64)>),
    /// Reply to `QueryEpoch`.
    Epoch(Epoch),
    /// Pool-map summary returned by PoolConnect / ContOpen.
    Connected {
        engines: u32,
        targets_per_engine: u32,
    },
    /// Reply to `Ping`.
    Pong,
    /// Reply to `PoolQuery`: the authoritative map version and excluded
    /// target set.
    PoolMapInfo {
        version: u32,
        excluded: Vec<daos_placement::TargetId>,
    },
    Err(DaosError),
}

impl Response {
    /// Bytes of bulk payload this response carries (read data).
    pub fn bulk_out(&self) -> u64 {
        match self {
            Response::Fetched { segs, .. } => segs.data_bytes(),
            Response::Single(Some(p)) => p.len(),
            Response::Dkeys(keys) => keys.iter().map(|k| k.len() as u64 + 8).sum(),
            _ => 0,
        }
    }

    /// Fold the next target's reply into an object-wide op's reply: the
    /// first error wins, listings concatenate, and a query keeps its
    /// maximum (the highest `(dkey, size)`, the highest epoch).
    pub fn merge(self, next: Response) -> Response {
        match (self, next) {
            (Response::Err(e), _) | (_, Response::Err(e)) => Response::Err(e),
            (Response::Dkeys(mut keys), Response::Dkeys(mut more)) => {
                keys.append(&mut more);
                Response::Dkeys(keys)
            }
            (Response::MaxChunk(a), Response::MaxChunk(b)) => Response::MaxChunk(a.max(b)),
            (Response::Epoch(a), Response::Epoch(b)) => Response::Epoch(a.max(b)),
            (first, _) => first,
        }
    }

    /// Unwrap into a unit result.
    pub fn ok(self) -> Result<(), DaosError> {
        match self {
            Response::Ok
            | Response::Written { .. }
            | Response::Connected { .. }
            | Response::Pong
            | Response::PoolMapInfo { .. } => Ok(()),
            other => Err(other.into_err()),
        }
    }

    /// The error a reply of the wrong kind stands for: the one it carries,
    /// else a protocol mismatch.
    pub fn into_err(self) -> DaosError {
        match self {
            Response::Err(e) => e,
            other => DaosError::UnexpectedResponse(format!("{other:?}")),
        }
    }

    /// Decode a fetch reply, re-hashing the received segments against the
    /// reply checksum: a disagreement is a frame torn in flight.
    pub fn fetched(self) -> Result<Segs, DaosError> {
        match self {
            Response::Fetched { segs, csum } => match csum {
                Some(c) if wire_csum_segs(&segs) != c => Err(DaosError::CorruptFrame),
                _ => Ok(segs),
            },
            other => Err(other.into_err()),
        }
    }
}

/// End-to-end checksum of one payload as carried on the wire.
pub fn wire_csum(p: &Payload) -> u64 {
    daos_vos::csum64(daos_vos::CSUM_SEED, p)
}

/// End-to-end checksum over a fetch response's data segments: each data
/// segment's payload hash folded with its offset, so reordered or shifted
/// segments also fail verification.
pub fn wire_csum_segs(segs: &[ReadSeg]) -> u64 {
    let mut h = daos_vos::CSUM_SEED;
    for s in segs {
        if let Some(d) = &s.data {
            h = (h ^ s.offset ^ daos_vos::csum64(daos_vos::CSUM_SEED, d))
                .wrapping_mul(0x100_0000_01b3)
                .rotate_left(17);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bulk_accounting() {
        // a 4 KiB write of chunk 0 to target 0
        let data = Payload::pattern(1, 4096);
        let csum = wire_csum(&data);
        let w = Request::update_chunk(0, 1, ObjectId::new(0, 1), 0, 0, data, csum);
        assert_eq!(w.bulk_in(), 4096);
        assert_eq!((w.target(), w.payload_bytes()), (Some(0), 4096));
        let f = Request::fetch_chunk(3, 1, ObjectId::new(0, 1), 9, 0, 512, Epoch::MAX);
        assert_eq!(
            (f.target(), f.bulk_in(), f.payload_bytes()),
            (Some(3), 0, 512)
        );
        assert_eq!(Request::PoolQuery.target(), None);
        assert_eq!(chunk_of_dkey(&chunk_dkey(9)), Some(9));
        assert_eq!(chunk_of_dkey(b"dirent"), None);
        let r = Response::Fetched {
            segs: Segs::Many(vec![
                ReadSeg {
                    offset: 0,
                    len: 100,
                    data: Some(Payload::pattern(1, 100)),
                },
                ReadSeg {
                    offset: 100,
                    len: 50,
                    data: None,
                },
            ]),
            csum: None,
        };
        assert_eq!(r.bulk_out(), 100);
    }

    /// Keys are values the size of a `Vec<u8>`, so the request every
    /// future of a call chain carries does not grow past two cache lines.
    #[test]
    fn a_request_stays_two_cache_lines() {
        assert_eq!(size_of::<Key>(), size_of::<Vec<u8>>());
        assert!(size_of::<Request>() <= 128, "{}", size_of::<Request>());
    }

    #[test]
    fn wire_csum_detects_corruption_and_reorder() {
        let p = Payload::pattern(9, 1024);
        assert_eq!(wire_csum(&p), wire_csum(&Payload::bytes(p.materialize())));
        assert_ne!(wire_csum(&p), wire_csum(&p.corrupted()));

        let seg = |off, seed| ReadSeg {
            offset: off,
            len: 64,
            data: Some(Payload::pattern(seed, 64)),
        };
        let a = vec![seg(0, 1), seg(64, 2)];
        let mut shifted = a.clone();
        shifted[1].offset = 128;
        assert_ne!(wire_csum_segs(&a), wire_csum_segs(&shifted));
        let mut torn = a.clone();
        torn[0].data = torn[0].data.as_ref().map(|d| d.corrupted());
        assert_ne!(wire_csum_segs(&a), wire_csum_segs(&torn));
    }

    #[test]
    fn csum_error_taxonomy() {
        assert!(!DaosError::CsumMismatch.is_retryable());
        assert!(DaosError::CorruptFrame.is_retryable());
        assert!(!DaosError::CorruptMetadata("x".into()).is_retryable());
    }

    #[test]
    fn busy_taxonomy_and_wire_shape() {
        // shed replies are retryable (the data is fine, the queue is full)
        // but must be distinguishable from Timeout by the retry machinery
        let busy = DaosError::Busy { queued: 7 };
        assert!(busy.is_retryable());
        assert_ne!(busy, DaosError::Timeout);
        // a shed reply is header-only: no bulk may be queued behind it,
        // mirroring the eager control lane heartbeats ride on
        assert_eq!(Response::Err(busy.clone()).bulk_out(), 0);
        assert!(format!("{busy}").contains("queue depth 7"));
    }

    #[test]
    fn response_ok_unwrapping() {
        assert!(Response::Ok.ok().is_ok());
        assert!(Response::Written { epoch: 3 }.ok().is_ok());
        assert_eq!(
            Response::Err(DaosError::NoContainer(7)).ok(),
            Err(DaosError::NoContainer(7))
        );
        assert!(Response::Single(None).ok().is_err());
    }
}
