//! # daos-placement — pool map and algorithmic object placement
//!
//! DAOS places object shards on pool *targets* (one per engine service
//! thread/media slice) without central metadata: the layout is a pure
//! function of the object id, the object class and the pool map version.
//! This crate implements:
//!
//! * the [`PoolMap`] — ranks → engines → targets, with target exclusion
//!   (for rebuild) and map versioning;
//! * [`ObjectClass`] — the paper's `S1`/`S2`/…/`SX` sharding classes plus
//!   replicated (`RP_n`) and erasure-coded (`EC_k+p`) protection classes;
//! * deterministic pseudo-random layout generation (a Fisher–Yates draw
//!   seeded from the object id, the moral equivalent of DAOS's jump-map) and
//!   the classic jump-consistent-hash for single-shard placement.
//!
//! The *statistics* of these layouts are what the paper's Figures 1–2 hinge
//! on: `S1` hashes whole files onto single targets (binomial imbalance →
//! stragglers), `S2` halves the variance, `SX` stripes every object over all
//! targets (perfect balance, maximal fan-out).

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

use std::collections::BTreeSet;
use std::ops::Range;
use std::rc::Rc;

/// A flat target identifier within a pool (dense, `0..target_count`).
pub type TargetId = u32;

/// 128-bit DAOS object identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId {
    pub hi: u64,
    pub lo: u64,
}

impl ObjectId {
    /// Construct from parts.
    pub fn new(hi: u64, lo: u64) -> Self {
        ObjectId { hi, lo }
    }
    /// Mix both words into one well-distributed 64-bit value.
    pub fn mix(&self) -> u64 {
        splitmix64(splitmix64(self.hi) ^ self.lo.rotate_left(17))
    }
}

/// SplitMix64 — cheap, well-distributed 64-bit mixer.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Lamping–Veach jump consistent hash: maps `key` to a bucket in
/// `[0, n_buckets)` such that growing `n_buckets` relocates only the
/// minimal fraction of keys.
pub fn jump_consistent_hash(mut key: u64, n_buckets: u32) -> u32 {
    assert!(n_buckets > 0);
    let mut b: i64 = -1;
    let mut j: i64 = 0;
    while j < n_buckets as i64 {
        b = j;
        key = key.wrapping_mul(2862933555777941757).wrapping_add(1);
        let r = ((key >> 33) + 1) as f64;
        j = ((b.wrapping_add(1)) as f64 * ((1u64 << 31) as f64 / r)) as i64;
    }
    b as u32
}

// ------------------------------------------------------------ ObjectClass

/// Data distribution + protection class of an object (a subset of DAOS's
/// `OC_*` catalogue, covering everything the paper exercises plus the
/// protection classes DAOS advertises as "advanced data protection").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ObjectClass {
    /// `S{n}`: n-way sharded, no redundancy. `S1` is one shard.
    Sharded(u16),
    /// `SX`: sharded over every active target in the pool.
    ShardedMax,
    /// `RP_{r}`: each shard group has `r` replicas; `groups` stripe groups
    /// (`None` = max, i.e. `RP_rGX`).
    Replicated { replicas: u16, groups: Option<u16> },
    /// `EC_{k}P{p}`: k data + p parity cells per stripe; `groups` stripe
    /// groups (`None` = max).
    ErasureCoded {
        data: u16,
        parity: u16,
        groups: Option<u16>,
    },
}

impl ObjectClass {
    /// `S1` — a single shard (the paper's baseline class).
    pub const S1: ObjectClass = ObjectClass::Sharded(1);
    /// `S2` — two shards.
    pub const S2: ObjectClass = ObjectClass::Sharded(2);
    /// `S4` — four shards.
    pub const S4: ObjectClass = ObjectClass::Sharded(4);
    /// `S8` — eight shards.
    pub const S8: ObjectClass = ObjectClass::Sharded(8);
    /// `SX` — one shard on every target.
    pub const SX: ObjectClass = ObjectClass::ShardedMax;
    /// `RP_2GX` — 2-way replication, max groups.
    pub const RP_2GX: ObjectClass = ObjectClass::Replicated {
        replicas: 2,
        groups: None,
    };
    /// `RP_3G1` — 3-way replication, one group.
    pub const RP_3G1: ObjectClass = ObjectClass::Replicated {
        replicas: 3,
        groups: Some(1),
    };
    /// `EC_2P1GX` — 2+1 erasure coding, max groups.
    pub const EC_2P1GX: ObjectClass = ObjectClass::ErasureCoded {
        data: 2,
        parity: 1,
        groups: None,
    };
    /// `EC_4P2GX` — 4+2 erasure coding, max groups.
    pub const EC_4P2GX: ObjectClass = ObjectClass::ErasureCoded {
        data: 4,
        parity: 2,
        groups: None,
    };

    /// Parse the DAOS-style class name (`"S2"`, `"SX"`, `"RP_2GX"`,
    /// `"EC_2P1GX"`), ignoring ASCII case and surrounding whitespace.
    /// Allocates nothing: every dirent a DFS lookup decodes parses one.
    pub fn parse(s: &str) -> Option<ObjectClass> {
        /// `s` without the prefix `p`, in any case.
        fn strip<'s>(s: &'s str, p: &str) -> Option<&'s str> {
            let head = s.get(..p.len())?;
            head.eq_ignore_ascii_case(p).then(|| &s[p.len()..])
        }
        let s = s.trim();
        let groups = |g: &str| match g.eq_ignore_ascii_case("X") {
            true => Some(None),
            false => g.parse().ok().map(Some),
        };
        if s.eq_ignore_ascii_case("SX") {
            return Some(ObjectClass::ShardedMax);
        }
        if let Some(n) = strip(s, "S").and_then(|r| r.parse::<u16>().ok()) {
            return Some(ObjectClass::Sharded(n.max(1)));
        }
        if let Some(rest) = strip(s, "RP_") {
            let (r, g) = rest.split_once(['G', 'g'])?;
            return Some(ObjectClass::Replicated {
                replicas: r.parse().ok()?,
                groups: groups(g)?,
            });
        }
        if let Some(rest) = strip(s, "EC_") {
            let (kp, g) = rest.split_once(['G', 'g'])?;
            let (k, p) = kp.split_once(['P', 'p'])?;
            return Some(ObjectClass::ErasureCoded {
                data: k.parse().ok()?,
                parity: p.parse().ok()?,
                groups: groups(g)?,
            });
        }
        None
    }

    /// Canonical class name.
    pub fn name(&self) -> String {
        self.to_string()
    }

    /// Does the class keep redundancy (`RP_n`, `EC_k+p`)? Only these are
    /// placed fault-domain-aware, keep their width across exclusions, and
    /// are rebuilt and repaired.
    pub fn is_protected(&self) -> bool {
        matches!(
            self,
            ObjectClass::Replicated { .. } | ObjectClass::ErasureCoded { .. }
        )
    }

    /// Number of cells (targets touched) per stripe group.
    pub fn group_width(&self) -> u32 {
        match self {
            ObjectClass::Sharded(_) | ObjectClass::ShardedMax => 1,
            ObjectClass::Replicated { replicas, .. } => *replicas as u32,
            ObjectClass::ErasureCoded { data, parity, .. } => (*data + *parity) as u32,
        }
    }

    /// Total shard count in a pool with `targets` active targets.
    pub fn shard_count(&self, targets: u32) -> u32 {
        let groups = match self {
            ObjectClass::Sharded(n) => (*n as u32).min(targets),
            ObjectClass::ShardedMax => targets,
            ObjectClass::Replicated { groups, .. } | ObjectClass::ErasureCoded { groups, .. } => {
                let w = self.group_width();
                match groups {
                    Some(g) => (*g as u32).min((targets / w.max(1)).max(1)),
                    None => (targets / w.max(1)).max(1),
                }
            }
        };
        groups * self.group_width()
    }

    /// Write amplification factor of the protection scheme (bytes written to
    /// media per byte of application data).
    pub fn write_amplification(&self) -> f64 {
        match self {
            ObjectClass::Sharded(_) | ObjectClass::ShardedMax => 1.0,
            ObjectClass::Replicated { replicas, .. } => *replicas as f64,
            ObjectClass::ErasureCoded { data, parity, .. } => {
                (*data as f64 + *parity as f64) / *data as f64
            }
        }
    }
}

/// The canonical class name, written straight to the formatter.
impl std::fmt::Display for ObjectClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ObjectClass::Sharded(n) => write!(f, "S{n}"),
            ObjectClass::ShardedMax => write!(f, "SX"),
            ObjectClass::Replicated { replicas, groups } => match groups {
                Some(g) => write!(f, "RP_{replicas}G{g}"),
                None => write!(f, "RP_{replicas}GX"),
            },
            ObjectClass::ErasureCoded {
                data,
                parity,
                groups,
            } => match groups {
                Some(g) => write!(f, "EC_{data}P{parity}G{g}"),
                None => write!(f, "EC_{data}P{parity}GX"),
            },
        }
    }
}

// --------------------------------------------------------------- PoolMap

/// The pool's component tree, flattened: `engines × targets_per_engine`
/// targets, with an exclusion set for failed/rebuilding targets.
#[derive(Clone, Debug)]
pub struct PoolMap {
    engines: u32,
    targets_per_engine: u32,
    excluded: BTreeSet<TargetId>,
    /// The active targets in order: a snapshot rebuilt only when the
    /// exclusion set changes, shared with every layout that rotates over
    /// it.
    active: Rc<[TargetId]>,
    version: u32,
}

impl PoolMap {
    /// A healthy map with `engines × targets_per_engine` targets.
    pub fn new(engines: u32, targets_per_engine: u32) -> Self {
        assert!(engines > 0 && targets_per_engine > 0);
        let mut map = PoolMap {
            engines,
            targets_per_engine,
            excluded: BTreeSet::new(),
            active: Rc::new([]),
            version: 1,
        };
        map.snapshot_active();
        map
    }

    /// Rebuild the active-target snapshot from the exclusion set.
    fn snapshot_active(&mut self) {
        let n = self.target_count();
        self.active = (0..n).filter(|t| !self.excluded.contains(t)).collect();
    }

    /// Total target slots (including excluded).
    pub fn target_count(&self) -> u32 {
        self.engines * self.targets_per_engine
    }
    /// Targets currently active.
    pub fn active_target_count(&self) -> u32 {
        self.active.len() as u32
    }
    /// Number of engines.
    pub fn engine_count(&self) -> u32 {
        self.engines
    }
    /// Targets per engine.
    pub fn targets_per_engine(&self) -> u32 {
        self.targets_per_engine
    }
    /// Map version (bumped on every exclusion).
    pub fn version(&self) -> u32 {
        self.version
    }
    /// The engine hosting `target`.
    pub fn engine_of(&self, target: TargetId) -> u32 {
        target / self.targets_per_engine
    }
    /// Whether `target` is excluded.
    pub fn is_excluded(&self, target: TargetId) -> bool {
        self.excluded.contains(&target)
    }

    /// Exclude a target (failure / administrative drain); bumps the version.
    pub fn exclude(&mut self, target: TargetId) {
        assert!(target < self.target_count());
        if self.excluded.insert(target) {
            self.version += 1;
            self.snapshot_active();
        }
    }

    /// Re-activate a target (rebuild complete / reintegration).
    pub fn reintegrate(&mut self, target: TargetId) {
        if self.excluded.remove(&target) {
            self.version += 1;
            self.snapshot_active();
        }
    }

    /// Active target ids in order.
    pub fn active_targets(&self) -> Vec<TargetId> {
        self.active.to_vec()
    }

    /// Currently excluded target ids in order.
    pub fn excluded_targets(&self) -> Vec<TargetId> {
        self.excluded.iter().copied().collect()
    }

    /// Number of active targets on `engine`.
    pub fn active_targets_on_engine(&self, engine: u32) -> u32 {
        let base = engine * self.targets_per_engine;
        (base..base + self.targets_per_engine)
            .filter(|t| !self.excluded.contains(t))
            .count() as u32
    }

    /// Adopt an authoritative `(version, excluded)` snapshot from the pool
    /// service. Applied only if `version` is newer than the local one (so a
    /// refresh never rolls back local administrative exclusions); returns
    /// whether the map changed.
    pub fn sync(&mut self, version: u32, excluded: &[TargetId]) -> bool {
        if version <= self.version {
            return false;
        }
        self.excluded = excluded.iter().copied().collect();
        self.version = version;
        self.snapshot_active();
        true
    }
}

// ---------------------------------------------------------------- Layout

/// A computed object layout: shard `i` lives on [`Layout::target_of`]`(i)`.
///
/// A layout is a function of the shard index, stored as cheaply as its
/// class allows: a wide sharded class (`SX`) is a rotation over the pool
/// map's shared active-target snapshot, `S1` / `S2` keep their targets
/// inline, and only the other sharded classes and the protected ones keep
/// a table. Two layouts are equal when their classes are and they put
/// every shard on the same target.
#[derive(Clone, Debug)]
pub struct Layout {
    pub class: ObjectClass,
    shards: Shards,
}

#[derive(Clone, Debug)]
enum Shards {
    /// Shard `i` on `active[(rot + i) % active.len()]`.
    Rotated {
        active: Rc<[TargetId]>,
        rot: u32,
    },
    /// One or two targets.
    Inline {
        len: u8,
        targets: [TargetId; 2],
    },
    Table(Box<[TargetId]>),
}

impl Layout {
    /// Target of shard `i` (wrapping past the width).
    pub fn target_of(&self, shard: u32) -> TargetId {
        let shard = shard as usize;
        match &self.shards {
            Shards::Rotated { active, rot } => {
                let n = active.len();
                active[(*rot as usize + shard % n) % n]
            }
            Shards::Inline { len, targets } => targets[shard % *len as usize],
            Shards::Table(t) => t[shard % t.len()],
        }
    }
    /// Number of shards.
    pub fn width(&self) -> u32 {
        match &self.shards {
            Shards::Rotated { active, .. } => active.len() as u32,
            Shards::Inline { len, .. } => u32::from(*len),
            Shards::Table(t) => t.len() as u32,
        }
    }
    /// Every shard's target, in shard order.
    pub fn targets(&self) -> impl ExactSizeIterator<Item = TargetId> + '_ {
        (0..self.width()).map(|i| self.target_of(i))
    }
    /// Distinct engines covered (fan-out a client sees), given the map.
    pub fn engine_fanout(&self, map: &PoolMap) -> usize {
        let mut seen = vec![0u64; map.engine_count().div_ceil(64) as usize];
        let mut fanout = 0;
        for e in self.targets().map(|t| map.engine_of(t) as usize) {
            let (word, bit) = (e / 64, 1u64 << (e % 64));
            if seen[word] & bit == 0 {
                seen[word] |= bit;
                fanout += 1;
            }
        }
        fanout
    }
}

impl PartialEq for Layout {
    fn eq(&self, other: &Layout) -> bool {
        self.class == other.class && self.targets().eq(other.targets())
    }
}

impl Eq for Layout {}

// ---------------------------------------------------------------- Stripe

/// The stripe geometry of an array: how chunks of `chunk_size` bytes of
/// object `oid` lie on the shards of its class. Every array path asks it
/// — the client's write, read, punch, size and EC reconstruct, the
/// rebuild pass and the targeted repair — so they agree on what a
/// protected array holds.
///
/// A chunk lives on one redundancy group of `group_width` shards, whose
/// members are its cells (group-relative shard indices). A sharded chunk
/// is one cell; a replicated one is the same cell on every replica; an
/// `EC_k+p` chunk is `k` data cells of `chunk_size / k` bytes, cell `c`
/// holding chunk bytes `[c · cell, (c + 1) · cell)` at cell-relative
/// offsets, then `p` XOR parity cells.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stripe {
    pub oid: ObjectId,
    pub class: ObjectClass,
    pub chunk_size: u64,
}

impl Stripe {
    /// The geometry of `oid`'s chunks of `chunk_size` bytes under `class`.
    pub fn new(oid: ObjectId, class: ObjectClass, chunk_size: u64) -> Stripe {
        Stripe {
            oid,
            class,
            chunk_size,
        }
    }

    /// The shards of the redundancy group `chunk` belongs to, on a layout
    /// `width` shards wide. DAOS routes array chunks by dkey hash, not
    /// round-robin: the spread is statistical, which is what makes wide
    /// classes blow the engines' stream windows in file-per-process
    /// workloads.
    pub fn group(&self, width: u32, chunk: u64) -> Range<u32> {
        let w = self.class.group_width();
        let h = splitmix64(chunk ^ self.oid.mix().rotate_left(23));
        let g = jump_consistent_hash(h, (width / w).max(1));
        g * w..(g + 1) * w
    }

    /// The redundancy group `shard` is a member of.
    pub fn group_of_shard(&self, shard: u32) -> Range<u32> {
        let w = self.class.group_width();
        shard / w * w..(shard / w + 1) * w
    }

    /// Bytes of a chunk one cell holds: the whole chunk, or one of an EC
    /// stripe's `k` data cells.
    pub fn cell_size(&self) -> u64 {
        match self.class {
            ObjectClass::ErasureCoded { data: k, .. } => self.chunk_size / u64::from(k),
            _ => self.chunk_size,
        }
    }

    /// The cells the chunk-relative `range` covers, in order, each with
    /// the cell-relative range it covers there.
    pub fn cells(&self, range: Range<u64>) -> impl ExactSizeIterator<Item = (u32, Range<u64>)> {
        let cell = self.cell_size();
        let (first, end) = (range.start / cell, range.end.div_ceil(cell));
        (first as u32..end as u32).map(move |c| {
            let base = u64::from(c) * cell;
            let inner = range.start.max(base) - base..range.end.min(base + cell) - base;
            (c, inner)
        })
    }

    /// The chunk offset of byte `offset` of cell `cell`.
    pub fn chunk_offset(&self, cell: u32, offset: u64) -> u64 {
        u64::from(cell) * self.cell_size() + offset
    }

    /// How a group re-derives its cell `lost` from the other cells: the
    /// XOR of every cell of the first list and, when the second names any,
    /// of one of those, tried in order. A replica is a copy of any other
    /// replica; an EC data cell is the XOR of the other data cells and one
    /// parity; an EC parity cell is the XOR of the data cells. An
    /// unprotected class re-derives nothing. Which cells are fit to ask is
    /// each caller's call.
    pub fn rederive(
        &self,
        lost: u32,
    ) -> (
        impl Iterator<Item = u32> + Clone,
        impl Iterator<Item = u32> + Clone,
    ) {
        let (all, any) = match self.class {
            ObjectClass::Replicated { replicas, .. } => (0..0, 0..u32::from(replicas)),
            ObjectClass::ErasureCoded { data, parity, .. } => {
                let (k, p) = (u32::from(data), u32::from(parity));
                (0..k, if lost < k { k..k + p } else { 0..0 })
            }
            _ => (0..0, 0..0),
        };
        let other = move |c: &u32| *c != lost;
        (all.filter(other), any.filter(other))
    }
}

/// The shard count [`place`] will produce for `class` on `map`.
///
/// Sharded classes scale with the *active* target count; protected classes
/// (`RP_n`, `EC_k+p`) compute their group count from the *total* target
/// count, so their width — and the data addressed by each `(group, replica)`
/// slot — stays stable across exclusions and reintegrations. Without that
/// stability an exclusion would silently regroup every stripe.
pub fn place_width(class: ObjectClass, map: &PoolMap) -> u32 {
    match class.is_protected() {
        true => class.shard_count(map.target_count()),
        false => class.shard_count(map.active_target_count()),
    }
}

/// Compute the deterministic layout of `oid` with `class` on `map`.
///
/// Sharded classes draw without replacement from the active targets using a
/// rejection-sampled prefix seeded by the object id — deterministic,
/// uniformly balanced *in expectation*, with per-object variance exactly
/// like a real hash-placed store. When the class needs more shards than
/// there are targets, placement wraps (shards co-reside).
///
/// Protected classes (`RP_n`, `EC_k+p`) are placed *fault-domain-aware*:
/// each group's cells land on distinct engines whenever enough engines have
/// active targets, so a single engine crash never takes out a whole
/// replica group — the invariant degraded reads and rebuild depend on.
pub fn place(oid: ObjectId, class: ObjectClass, map: &PoolMap) -> Layout {
    let n_active = map.active_target_count();
    assert!(n_active > 0, "no active targets");
    if class.is_protected() {
        let shards = Shards::Table(protected_table(oid, class, map).into_boxed_slice());
        return Layout { class, shards };
    }
    let want = class.shard_count(n_active);
    let total = map.target_count() as u64;

    // xorshift-style PRNG seeded from the object id; cheap and deterministic
    let mut state = oid.mix() | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };

    if want >= n_active {
        // wide classes (SX and friends): every active target, rotated by the
        // object id so shard 0 still varies per object (`want` is at most
        // the active count, so it is exactly that)
        let rot = (next() % n_active as u64) as u32;
        let active = Rc::clone(&map.active);
        let shards = Shards::Rotated { active, rot };
        return Layout { class, shards };
    }

    // Rejection sampling over *stable slot ids*: excluding one target only
    // relocates layouts that actually used it (consistent-hashing churn).
    let mut sample = |shards: &mut [TargetId]| {
        let mut len = 0;
        let mut attempts = 0u32;
        while len < shards.len() {
            let cand = (next() % total) as TargetId;
            attempts += 1;
            if attempts > 64 * want.max(8) {
                // pathological exclusion pattern: fill from remaining actives
                for &t in map.active.iter() {
                    if len == shards.len() {
                        break;
                    }
                    if !shards[..len].contains(&t) {
                        shards[len] = t;
                        len += 1;
                    }
                }
                break;
            }
            if map.is_excluded(cand) || shards[..len].contains(&cand) {
                continue;
            }
            shards[len] = cand;
            len += 1;
        }
    };
    let shards = match want {
        ..=2 => {
            let mut targets = [0; 2];
            sample(&mut targets[..want as usize]);
            Shards::Inline {
                len: want as u8,
                targets,
            }
        }
        _ => {
            let mut table = vec![0; want as usize].into_boxed_slice();
            sample(&mut table);
            Shards::Table(table)
        }
    };
    Layout { class, shards }
}

/// Fault-domain-aware placement for `RP_n` / `EC_k+p`: per group, cells on
/// distinct engines (reusing engines only when fewer live engines than
/// cells exist) and distinct targets within the group.
///
/// Two passes, CRUSH-style. Pass 1 places every cell against the *healthy*
/// geometry — exclusions ignored — from its own `(oid, group, cell)`-seeded
/// stream, so the healthy layout never depends on the current map. Pass 2
/// re-draws only the cells whose pass-1 target is excluded. A cell on a
/// live target therefore never moves — the minimal-churn property that
/// bounds rebuild volume and guarantees every degraded group keeps its
/// surviving cells as rebuild donors.
fn protected_table(oid: ObjectId, class: ObjectClass, map: &PoolMap) -> Vec<TargetId> {
    let width = class.group_width();
    let groups = place_width(class, map) / width;
    let tpe = map.targets_per_engine();
    let engine_total = map.engine_count();
    // engines that can still host a cell
    let live: Vec<u32> = (0..engine_total)
        .filter(|&e| map.active_targets_on_engine(e) > 0)
        .collect();
    assert!(!live.is_empty(), "no active targets");

    let stream = |g: u32, c: u32, salt: u64| {
        let mut state = splitmix64(
            oid.mix()
                ^ salt
                ^ (g as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (c as u64 + 1).wrapping_mul(0xC2B2_AE3D_27D4_EB4F),
        ) | 1;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    };

    let mut shards: Vec<TargetId> = Vec::with_capacity((groups * width) as usize);
    for g in 0..groups {
        // ---- pass 1: healthy placement, blind to exclusions
        let mut group_engines: Vec<u32> = Vec::with_capacity(width as usize);
        let mut group_targets: Vec<TargetId> = Vec::with_capacity(width as usize);
        for c in 0..width {
            let mut next = stream(g, c, 0);
            // Rejection-sample an engine over stable engine ids, skipping
            // engines already holding a cell of this group (repeats allowed
            // only once every engine is in the group).
            let fresh_left = (0..engine_total).any(|e| !group_engines.contains(&e));
            let mut attempts = 0u32;
            let engine = loop {
                attempts += 1;
                if attempts > 64 * width.max(4) {
                    // pathological pattern: first acceptable engine in order
                    break (0..engine_total)
                        .find(|e| !fresh_left || !group_engines.contains(e))
                        .unwrap_or((next() % engine_total as u64) as u32);
                }
                let cand = (next() % engine_total as u64) as u32;
                if fresh_left && group_engines.contains(&cand) {
                    continue;
                }
                break cand;
            };
            group_engines.push(engine);

            // One draw for the in-engine slot, then a deterministic scan:
            // first target from the drawn offset not already in the group,
            // falling back to reuse when all are taken.
            let base = next() % tpe as u64;
            let slot = |off: u64| engine * tpe + ((base + off) % tpe as u64) as u32;
            let pick = (0..tpe as u64)
                .map(slot)
                .find(|t| !group_targets.contains(t))
                .unwrap_or_else(|| slot(0));
            group_targets.push(pick);
        }

        // ---- pass 2: re-draw only the cells that landed on excluded
        // targets, around the cells that stay put
        for c in 0..width {
            if !map.is_excluded(group_targets[c as usize]) {
                continue;
            }
            let mut next = stream(g, c, 0x7EBA_11D5_0C0F_FEE5);
            let used = |e: u32, gt: &[TargetId]| {
                gt.iter()
                    .enumerate()
                    .any(|(i, &t)| i != c as usize && !map.is_excluded(t) && t / tpe == e)
            };
            let fresh_left = live.iter().any(|&e| !used(e, &group_targets));
            let mut attempts = 0u32;
            let engine = loop {
                attempts += 1;
                if attempts > 64 * width.max(4) {
                    break live
                        .iter()
                        .copied()
                        .find(|&e| !fresh_left || !used(e, &group_targets))
                        .unwrap_or(live[(next() % live.len() as u64) as usize]);
                }
                let cand = (next() % engine_total as u64) as u32;
                if map.active_targets_on_engine(cand) == 0
                    || (fresh_left && used(cand, &group_targets))
                {
                    continue;
                }
                break cand;
            };
            let base = next() % tpe as u64;
            let slot = |off: u64| engine * tpe + ((base + off) % tpe as u64) as u32;
            #[expect(
                clippy::expect_used,
                reason = "INVARIANT: the candidate loop above skipped engines with \
                          zero active targets, so at least one slot is not excluded"
            )]
            let pick = (0..tpe as u64)
                .map(slot)
                .find(|t| !map.is_excluded(*t) && !group_targets.contains(t))
                .or_else(|| (0..tpe as u64).map(slot).find(|t| !map.is_excluded(*t)))
                .expect("live engine must have an active target");
            group_targets[c as usize] = pick;
        }
        shards.extend_from_slice(&group_targets);
    }
    shards
}

/// Per-target shard-count statistics over a set of layouts: returns
/// `(mean, stddev, max)` of the per-target load (for balance assertions and
/// the oclass ablation bench).
pub fn load_spread(layouts: &[Layout], map: &PoolMap) -> (f64, f64, u64) {
    let mut counts = vec![0u64; map.target_count() as usize];
    for l in layouts {
        for t in l.targets() {
            counts[t as usize] += 1;
        }
    }
    let n = map.active_target_count() as f64;
    let total: u64 = counts.iter().sum();
    let mean = total as f64 / n;
    let var = counts
        .iter()
        .enumerate()
        .filter(|(t, _)| !map.is_excluded(*t as TargetId))
        .map(|(_, &c)| (c as f64 - mean).powi(2))
        .sum::<f64>()
        / n;
    let max = counts.iter().copied().max().unwrap_or(0);
    (mean, var.sqrt(), max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map16x8() -> PoolMap {
        PoolMap::new(16, 8)
    }

    /// Every class this crate can name, a few of each shape.
    fn every_class() -> Vec<ObjectClass> {
        let groups = [None, Some(1), Some(4), Some(12)];
        let sharded = [1, 2, 4, 8, 300].map(ObjectClass::Sharded);
        let replicated = [2, 3, 4]
            .into_iter()
            .flat_map(|replicas| groups.map(|groups| ObjectClass::Replicated { replicas, groups }));
        let coded = [(2, 1), (4, 2), (8, 2), (16, 3)]
            .into_iter()
            .flat_map(|(data, parity)| {
                groups.map(|groups| ObjectClass::ErasureCoded {
                    data,
                    parity,
                    groups,
                })
            });
        let mut all = vec![ObjectClass::SX];
        all.extend(sharded.into_iter().chain(replicated).chain(coded));
        all
    }

    /// Every class survives its name, in any ASCII case and with blanks
    /// around it; what is not a class name parses to nothing.
    #[test]
    fn class_parsing_round_trips() {
        for c in every_class() {
            let name = c.name();
            assert_eq!(c.to_string(), name);
            let lower = name.to_ascii_lowercase();
            let (head, tail) = name.split_at(name.len() / 2);
            let mixed = format!("{}{tail}", head.to_ascii_lowercase());
            for spelling in [name.clone(), lower, mixed, format!(" \t{name}  ")] {
                assert_eq!(ObjectClass::parse(&spelling), Some(c), "{spelling:?}");
            }
        }
        for name in [
            "S1", "S2", "S4", "S8", "SX", "RP_2GX", "RP_3G1", "EC_2P1GX", "EC_4P2G4",
        ] {
            assert_eq!(ObjectClass::parse(name).unwrap().name(), name);
        }
        for junk in [
            "garbage", "", "S", "SY", "RP_2", "RP_GX", "rp_2gy", "EC_2P1", "EC_2GX", "é",
        ] {
            assert_eq!(ObjectClass::parse(junk), None, "{junk:?}");
        }
    }

    #[test]
    fn shard_counts() {
        let t = 128;
        assert_eq!(ObjectClass::S1.shard_count(t), 1);
        assert_eq!(ObjectClass::S2.shard_count(t), 2);
        assert_eq!(ObjectClass::SX.shard_count(t), 128);
        assert_eq!(ObjectClass::RP_3G1.shard_count(t), 3);
        assert_eq!(ObjectClass::RP_2GX.shard_count(t), 128);
        assert_eq!(ObjectClass::EC_2P1GX.shard_count(t), 126); // 42 groups * 3
                                                               // small pool clamps
        assert_eq!(ObjectClass::Sharded(8).shard_count(4), 4);
    }

    #[test]
    fn write_amplification() {
        assert_eq!(ObjectClass::S2.write_amplification(), 1.0);
        assert_eq!(ObjectClass::RP_2GX.write_amplification(), 2.0);
        assert!((ObjectClass::EC_4P2GX.write_amplification() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn placement_is_deterministic() {
        let map = map16x8();
        let oid = ObjectId::new(7, 42);
        let a = place(oid, ObjectClass::S4, &map);
        let b = place(oid, ObjectClass::S4, &map);
        assert_eq!(a, b);
    }

    #[test]
    fn placement_distinct_targets_when_possible() {
        let map = map16x8();
        for i in 0..100u64 {
            let l = place(ObjectId::new(i, i * 31), ObjectClass::S8, &map);
            let set: BTreeSet<_> = l.targets().collect();
            assert_eq!(set.len(), 8, "S8 shards must land on distinct targets");
        }
    }

    #[test]
    fn sx_covers_every_active_target() {
        let map = map16x8();
        let l = place(ObjectId::new(1, 2), ObjectClass::SX, &map);
        assert_eq!(l.width(), 128);
        let set: BTreeSet<_> = l.targets().collect();
        assert_eq!(set.len(), 128);
        assert_eq!(l.engine_fanout(&map), 16);
    }

    #[test]
    fn balance_improves_with_sharding() {
        // the statistical heart of the paper's S1/S2/SX result
        let map = map16x8();
        let layouts = |c: ObjectClass| -> Vec<Layout> {
            (0..512u64)
                .map(|i| place(ObjectId::new(i, splitmix64(i)), c, &map))
                .collect()
        };
        // compare *relative* imbalance (per unit of data): with w-way
        // sharding each shard carries 1/w of a file, so normalise by mean
        let (m1, sd1, max1) = load_spread(&layouts(ObjectClass::S1), &map);
        let (m2, sd2, max2) = load_spread(&layouts(ObjectClass::S2), &map);
        let (mx, sdx, maxx) = load_spread(&layouts(ObjectClass::SX), &map);
        let (cv1, cv2, cvx) = (sd1 / m1, sd2 / m2, sdx / mx);
        assert!(cv2 < cv1, "S2 relative spread {cv2} should beat S1 {cv1}");
        assert!(cvx < 1e-9, "SX must be perfectly balanced, got {cvx}");
        let (r1, r2, rx) = (max1 as f64 / m1, max2 as f64 / m2, maxx as f64 / mx);
        assert!(rx <= r2 && r2 <= r1, "max/mean must shrink: {r1} {r2} {rx}");
    }

    #[test]
    fn exclusion_remaps_only_affected_shards_mostly() {
        let mut map = map16x8();
        let oids: Vec<ObjectId> = (0..200).map(|i| ObjectId::new(i, i + 1)).collect();
        let before: Vec<Layout> = oids
            .iter()
            .map(|&o| place(o, ObjectClass::S1, &map))
            .collect();
        map.exclude(5);
        let after: Vec<Layout> = oids
            .iter()
            .map(|&o| place(o, ObjectClass::S1, &map))
            .collect();
        let mut moved = 0;
        for (b, a) in before.iter().zip(&after) {
            assert_ne!(a.target_of(0), 5, "excluded target must not be used");
            if b.target_of(0) != a.target_of(0) {
                moved += 1;
            }
        }
        // only objects that touched target 5 (≈ 200/128) plus modest churn
        // from index shifts should move
        assert!(moved < 40, "too much churn after one exclusion: {moved}");
    }

    #[test]
    fn jump_hash_ranges_and_monotonicity() {
        for key in 0..500u64 {
            let b = jump_consistent_hash(key, 10);
            assert!(b < 10);
            // growing bucket count only moves keys to NEW buckets
            let b11 = jump_consistent_hash(key, 11);
            assert!(b11 == b || b11 == 10, "key {key}: {b} -> {b11}");
        }
    }

    #[test]
    fn jump_hash_is_balanced() {
        let n = 16u32;
        let mut counts = vec![0u32; n as usize];
        for key in 0..16_000u64 {
            counts[jump_consistent_hash(splitmix64(key), n) as usize] += 1;
        }
        let (min, max) = (*counts.iter().min().unwrap(), *counts.iter().max().unwrap());
        assert!(min > 800 && max < 1200, "min {min} max {max}");
    }

    #[test]
    fn pool_map_versioning() {
        let mut m = PoolMap::new(2, 4);
        assert_eq!(m.version(), 1);
        m.exclude(3);
        assert_eq!(m.version(), 2);
        assert_eq!(m.active_target_count(), 7);
        m.exclude(3); // idempotent
        assert_eq!(m.version(), 2);
        m.reintegrate(3);
        assert_eq!(m.version(), 3);
        assert_eq!(m.active_target_count(), 8);
    }

    #[test]
    fn protected_groups_span_engines() {
        // the fault-domain invariant: no replica group confined to one engine
        let map = PoolMap::new(4, 4);
        for i in 0..200u64 {
            let oid = ObjectId::new(i, splitmix64(i));
            for class in [
                ObjectClass::RP_2GX,
                ObjectClass::RP_3G1,
                ObjectClass::EC_2P1GX,
            ] {
                let l = place(oid, class, &map);
                let w = class.group_width() as usize;
                let shards: Vec<_> = l.targets().collect();
                for (g, group) in shards.chunks(w).enumerate() {
                    let engines: BTreeSet<_> = group.iter().map(|&t| map.engine_of(t)).collect();
                    assert_eq!(
                        engines.len(),
                        w.min(4),
                        "{class} group {g} of oid {i} not engine-disjoint: {group:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn protected_width_stable_under_exclusion() {
        let mut map = PoolMap::new(4, 4);
        let oids: Vec<ObjectId> = (0..100).map(|i| ObjectId::new(i, i * 7 + 1)).collect();
        let before: Vec<Layout> = oids
            .iter()
            .map(|&o| place(o, ObjectClass::RP_2GX, &map))
            .collect();
        // crash engine 1: exclude all its targets
        for t in 4..8 {
            map.exclude(t);
        }
        let mut moved = 0usize;
        let mut cells = 0usize;
        for (o, b) in oids.iter().zip(&before) {
            let a = place(*o, ObjectClass::RP_2GX, &map);
            assert_eq!(a.width(), b.width(), "group structure must not change");
            for (i, (tb, ta)) in b.targets().zip(a.targets()).enumerate() {
                cells += 1;
                assert!(!map.is_excluded(ta), "shard {i} on excluded target {ta}");
                if tb != ta {
                    moved += 1;
                    // relocations land off the dead engine; survivors stay
                    assert_ne!(map.engine_of(ta), 1);
                }
            }
        }
        // 1 of 4 engines died: ~1/4 of cells relocate, the rest must not
        assert!(
            moved * 2 < cells,
            "exclusion churned {moved}/{cells} protected cells"
        );
        assert!(moved > 0, "dead engine's cells must relocate");
    }

    #[test]
    fn rp2_always_leaves_a_survivor_per_group() {
        let map = PoolMap::new(4, 4);
        for i in 0..200u64 {
            let l = place(ObjectId::new(i, i + 3), ObjectClass::RP_2GX, &map);
            for crashed in 0..4u32 {
                for group in l.targets().collect::<Vec<_>>().chunks(2) {
                    assert!(
                        group.iter().any(|&t| map.engine_of(t) != crashed),
                        "group {group:?} wiped out by engine {crashed}"
                    );
                }
            }
        }
    }

    #[test]
    fn place_width_matches_place() {
        let mut map = PoolMap::new(3, 5);
        let classes = [
            ObjectClass::S1,
            ObjectClass::S8,
            ObjectClass::SX,
            ObjectClass::RP_2GX,
            ObjectClass::RP_3G1,
            ObjectClass::EC_2P1GX,
            ObjectClass::EC_4P2GX,
        ];
        for step in 0..3 {
            for class in classes {
                let l = place(ObjectId::new(7, step as u64 * 31 + 1), class, &map);
                assert_eq!(l.width(), place_width(class, &map), "{class} step {step}");
            }
            map.exclude(step * 4);
        }
    }

    #[test]
    fn pool_map_sync_is_version_guarded() {
        let mut m = PoolMap::new(2, 4);
        m.exclude(1); // local admin exclusion: version 2
        assert!(!m.sync(2, &[]), "same version must not roll back");
        assert!(m.is_excluded(1));
        assert!(m.sync(5, &[3, 4]));
        assert_eq!(m.version(), 5);
        assert!(!m.is_excluded(1));
        assert!(m.is_excluded(3) && m.is_excluded(4));
    }

    #[test]
    fn wrapped_placement_when_class_exceeds_targets() {
        let map = PoolMap::new(1, 2);
        let l = place(
            ObjectId::new(9, 9),
            ObjectClass::Replicated {
                replicas: 3,
                groups: Some(2),
            },
            &map,
        );
        // groups clamp to 1 on a 2-target pool; 3 replicas wrap 2 targets
        assert_eq!(l.width(), 3);
        let distinct: BTreeSet<_> = l.targets().collect();
        assert_eq!(distinct.len(), 2, "both targets used, one reused");
    }

    /// The stripe geometry of a 64 KiB chunk: a sharded or replicated
    /// chunk is one cell, an `EC_2P1` chunk two 32 KiB data cells; a range
    /// maps to cell ranges and back; groups are the dkey-hashed runs of
    /// `group_width` shards; and each class names the cells that
    /// re-derive a lost one.
    #[test]
    fn stripe_geometry_per_class() {
        let oid = ObjectId::new(9, 9);
        let (kib, ec) = (1024, ObjectClass::EC_2P1GX);
        let stripe = |class| Stripe::new(oid, class, 64 * kib);
        let cells = |class, r: std::ops::Range<u64>| stripe(class).cells(r).collect::<Vec<_>>();
        assert_eq!(
            cells(ObjectClass::S1, 16 * kib..48 * kib),
            [(0, 16 * kib..48 * kib)]
        );
        assert_eq!(cells(ObjectClass::RP_2GX, 0..64 * kib), [(0, 0..64 * kib)]);
        assert_eq!(
            cells(ec, 16 * kib..40 * kib),
            [(0, 16 * kib..32 * kib), (1, 0..8 * kib)]
        );
        assert_eq!(cells(ec, 32 * kib..64 * kib), [(1, 0..32 * kib)]);
        assert_eq!(stripe(ec).cell_size(), 32 * kib);
        assert_eq!(stripe(ec).chunk_offset(1, 8 * kib), 40 * kib);

        for class in [ObjectClass::S1, ObjectClass::RP_2GX, ec] {
            let (s, w) = (stripe(class), class.group_width());
            for chunk in 0..64 {
                let g = s.group(6 * w, chunk);
                assert_eq!(g.len() as u32, w);
                assert!(g.start % w == 0 && g.end <= 6 * w, "{class} chunk {chunk}");
                assert_eq!(s.group_of_shard(g.end - 1), g);
            }
        }

        let lists = |class, lost| {
            let (all, any) = stripe(class).rederive(lost);
            (all.collect::<Vec<_>>(), any.collect::<Vec<_>>())
        };
        let rp3 = ObjectClass::RP_3G1;
        assert_eq!(lists(rp3, 1), (vec![], vec![0, 2]));
        assert_eq!(lists(ObjectClass::EC_4P2GX, 1), (vec![0, 2, 3], vec![4, 5]));
        assert_eq!(lists(ObjectClass::EC_4P2GX, 4), (vec![0, 1, 2, 3], vec![]));
        assert_eq!(lists(ObjectClass::SX, 0), (vec![], vec![]));
    }

    /// Today's layouts as tables: the sharded builder as it stood when
    /// layouts were tables, and the protected one, which still builds one.
    fn table_of(oid: ObjectId, class: ObjectClass, map: &PoolMap) -> Vec<TargetId> {
        if class.is_protected() {
            return protected_table(oid, class, map);
        }
        let n_active = map.active_target_count();
        let want = class.shard_count(n_active);
        let total = map.target_count() as u64;
        let mut state = oid.mix() | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        if want >= n_active {
            let active = map.active_targets();
            let rot = (next() % n_active as u64) as usize;
            return (0..want as usize)
                .map(|i| active[(rot + i) % active.len()])
                .collect();
        }
        let mut shards: Vec<TargetId> = Vec::with_capacity(want as usize);
        let mut attempts = 0u32;
        while (shards.len() as u32) < want {
            let cand = (next() % total) as TargetId;
            attempts += 1;
            if attempts > 64 * want.max(8) {
                for t in map.active_targets() {
                    if (shards.len() as u32) == want {
                        break;
                    }
                    if !shards.contains(&t) {
                        shards.push(t);
                    }
                }
                break;
            }
            if map.is_excluded(cand) || shards.contains(&cand) {
                continue;
            }
            shards.push(cand);
        }
        shards
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        /// A layout is its table: every shard's target (and the wrap past
        /// the width), the width, and equality between layouts all match
        /// the table today's builder makes, on small to 10^3-engine maps
        /// with no, one, random and all-but-one targets excluded.
        #[test]
        fn layouts_are_the_table(
            class_pick in 0usize..7,
            map_pick in 0usize..3,
            excl_pick in 0usize..4,
            seed in any::<u64>(),
            oids in (any::<u64>(), any::<u64>(), 0u64..4),
        ) {
            let class = [
                ObjectClass::S1,
                ObjectClass::S2,
                ObjectClass::S4,
                ObjectClass::Sharded(32),
                ObjectClass::SX,
                ObjectClass::RP_2GX,
                ObjectClass::EC_2P1GX,
            ][class_pick];
            let (engines, tpe) = [(2, 2), (16, 8), (512, 8)][map_pick];
            // a protected class re-draws every cell against the one live
            // engine when 4095 of 4096 targets are down: seconds per
            // placement unoptimised, so that one corner runs on 16 x 8
            let protected = class.group_width() > 1;
            let (engines, tpe) = match (protected, excl_pick) {
                (true, 3) => (engines.min(16), tpe),
                _ => (engines, tpe),
            };
            let mut map = PoolMap::new(engines, tpe);
            let n = map.target_count();
            let pick = (seed % u64::from(n)) as u32;
            let excluded: Vec<TargetId> = match excl_pick {
                0 => vec![],
                1 => vec![pick],
                2 => (0..n)
                    .filter(|&t| t != pick && splitmix64(seed ^ u64::from(t)).is_multiple_of(4))
                    .collect(),
                _ => (0..n).filter(|&t| t != pick).collect(),
            };
            map.sync(2, &excluded);
            // a second map with the same exclusions: layouts over it share
            // no snapshot with those over `map`
            let mut twin = PoolMap::new(engines, tpe);
            twin.sync(2, &excluded);

            let (hi, lo, near) = oids;
            let a = ObjectId::new(hi, lo);
            let b = ObjectId::new(hi, lo.wrapping_add(near));
            let (layout, table) = (place(a, class, &map), table_of(a, class, &map));
            prop_assert_eq!(layout.width() as usize, table.len());
            prop_assert_eq!(layout.width(), place_width(class, &map));
            for (i, &t) in table.iter().enumerate() {
                prop_assert_eq!(layout.target_of(i as u32), t, "{} shard {}", class, i);
                let wrapped = layout.target_of((i + table.len()) as u32);
                prop_assert_eq!(wrapped, t, "{} shard {} wrapped", class, i);
            }
            prop_assert!(layout.targets().eq(table.iter().copied()));
            prop_assert_eq!(&layout, &place(a, class, &twin));
            let table_b = table_of(b, class, &map);
            prop_assert_eq!(layout == place(b, class, &map), table == table_b);
            prop_assert_eq!(layout == place(b, class, &twin), table == table_b);
            let fanout = table.iter().map(|&t| map.engine_of(t)).collect::<BTreeSet<_>>();
            prop_assert_eq!(layout.engine_fanout(&map), fanout.len());
        }
    }
}
