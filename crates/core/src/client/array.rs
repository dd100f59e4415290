//! `daos_array`: a byte array chunked over an object's shards, written and
//! read through the object's protection class.

use std::ops::Range;

use daos_placement::{ObjectClass, Stripe};
use daos_sim::{join_inline, Sim};
use daos_vos::tree::{flatten, ReadSeg, Segs};
use daos_vos::{Epoch, Payload};

use super::damp::Attempt;
use super::{ObjectHandle, EPOCH_LATEST};
use crate::proto::{array_akey, chunk_of_dkey, wire_csum, DaosError, Request, Response};

/// The shards that may serve cell `cell` of `chunk`, in the order a read
/// tries them, for a redundancy group starting at shard `group`: a sharded
/// chunk has its one shard; replicas all qualify, rotated by chunk (to
/// spread reads) and by retry round (to start each retry somewhere else);
/// an EC cell has only its data shard — the rest of the stripe can
/// reconstruct it but not serve it.
fn read_candidates(
    class: ObjectClass,
    group: u32,
    chunk: u64,
    round: u32,
    cell: u32,
) -> impl Iterator<Item = u32> {
    let (first, count, ring) = match class {
        ObjectClass::Sharded(_) | ObjectClass::ShardedMax => (0, 1, 1),
        ObjectClass::Replicated { replicas: r, .. } => (chunk + round as u64, r as u64, r as u64),
        ObjectClass::ErasureCoded { .. } => (u64::from(cell), 1, u64::MAX),
    };
    (0..count).map(move |i| group + ((first + i) % ring) as u32)
}

/// `acc ^= src`, bytewise: the one parity operation of `EC_kP1` stripes.
pub(crate) fn xor_into(acc: &mut [u8], src: &[u8]) {
    for (o, b) in acc.iter_mut().zip(src) {
        *o ^= b;
    }
}

/// `daos_array`-style byte-array API: the array is chunked at `chunk_size`;
/// chunk `i` is dkey `i` (big-endian), placed on a shard chosen by dkey
/// hash (jump consistent hash), as `libdaos` does. Where each chunk's
/// bytes lie is the object's [`Stripe`].
#[derive(Clone)]
pub struct ArrayHandle {
    pub(super) obj: ObjectHandle,
    pub(super) stripe: Stripe,
}

impl ArrayHandle {
    /// The underlying object handle.
    pub fn object(&self) -> &ObjectHandle {
        &self.obj
    }
    /// The array's chunk size.
    pub fn chunk_size(&self) -> u64 {
        self.stripe.chunk_size
    }

    /// Shard indices of the redundancy group `chunk` belongs to.
    fn group_of(&self, chunk: u64) -> Range<u32> {
        self.stripe.group(self.obj.width(), chunk)
    }

    /// Is the target behind `shard` excluded from the current pool map?
    fn shard_excluded(&self, shard: u32) -> bool {
        let t = self.obj.target_of(shard);
        self.obj.cont.client.cluster.pool_map().is_excluded(t)
    }

    /// Should a *read* avoid `shard`? True for excluded targets, and for
    /// re-placed shards whose new home hasn't been refilled yet by the
    /// rebuild pass still running.
    fn shard_unreadable(&self, shard: u32) -> bool {
        if self.shard_excluded(shard) {
            return true;
        }
        self.obj.cont.client.cluster.rebuilds_running() > 0 && self.obj.moved(shard)
    }

    /// Single-shard update of chunk data at a chunk-relative offset.
    /// Retryable faults (timeout, stale map, transport) refresh the pool
    /// map and re-route, so after an exclusion the retry lands on the
    /// shard's new home.
    async fn update_shard(
        &self,
        sim: &Sim,
        shard: u32,
        chunk: u64,
        offset: u64,
        data: Payload,
    ) -> Result<(), DaosError> {
        let (obj, csum) = (&self.obj, wire_csum(&data));
        let update = |target| {
            let (cont, data) = (obj.cont.cont, data.clone());
            Request::update_chunk(target, cont, obj.oid, chunk, offset, data, csum)
        };
        obj.shard_op(sim, shard, update, Response::ok).await
    }

    /// Write each `(shard, offset, data)` piece of `chunk` concurrently,
    /// every one to completion; the first error in submission order wins.
    async fn update_shards(
        &self,
        sim: &Sim,
        chunk: u64,
        writes: impl ExactSizeIterator<Item = (u32, u64, Payload)>,
    ) -> Result<(), DaosError> {
        let futs =
            writes.map(|(shard, offset, data)| self.update_shard(sim, shard, chunk, offset, data));
        join_inline(futs).await.collect()
    }

    /// One fetch attempt against one shard as of `epoch`, no retry — the
    /// failover building block for degraded reads. `want` and the returned
    /// segments are shard-relative.
    async fn fetch_shard_once(
        &self,
        sim: &Sim,
        shard: u32,
        chunk: u64,
        want: Range<u64>,
        epoch: Epoch,
    ) -> Result<Segs, DaosError> {
        let obj = &self.obj;
        let (engine, target) = obj.route(shard);
        let (offset, len) = (want.start, want.end - want.start);
        let req = Request::fetch_chunk(target, obj.cont.cont, obj.oid, chunk, offset, len, epoch);
        let rsp = obj.cont.client.call_gated(sim, engine, req).await?;
        rsp.fetched()
    }

    /// Fire-and-forget corruption report for `chunk`'s copy on `shard`'s
    /// current target; the pool service schedules a targeted repair. The
    /// read that hit the mismatch does not wait on it.
    fn report_rot(&self, sim: &Sim, chunk: u64, shard: u32) {
        let target = self.obj.target_of(shard);
        let client = self.obj.cont.client.clone();
        let req = Request::ReportCorrupt {
            cont: self.obj.cont.cont,
            oid: self.obj.oid,
            chunk,
            target,
        };
        let s = sim.clone();
        sim.spawn_detached(async move {
            let _ = client.control(&s, req).await;
        });
    }

    /// One round of reading `want` (shard-relative) of cell `cell` of
    /// `chunk` as of `epoch`, whose redundancy group starts at shard
    /// `group` — fixed by the caller before the first round, so retries
    /// after a re-place keep asking the same shards. The first of the class's
    /// [`read_candidates`] to answer clean serves it. A `protected` read
    /// skips shards the pool map or a running rebuild rules out, fails
    /// over past rotten and unresponsive ones, and when nobody answers
    /// does what the class can: a replicated read backs off for another
    /// round unless no replica is left at all, an EC read reconstructs the
    /// cell from its stripe. An unprotected read (a sharded object, or the
    /// parity read-modify-write of an EC write) asks its one shard whatever
    /// the map says, and a rotten copy there is final. Rot is reported
    /// either way.
    #[allow(
        clippy::too_many_arguments,
        reason = "one cell's coordinates; a struct would exist for this call alone"
    )]
    async fn read_cell(
        &self,
        sim: &Sim,
        group: u32,
        chunk: u64,
        cell: u32,
        round: u32,
        want: Range<u64>,
        protected: bool,
        epoch: Epoch,
    ) -> Attempt<Segs> {
        let class = self.obj.class;
        // why no candidate served the cell; `None`: none was fit to ask
        let mut miss = None;
        for shard in read_candidates(class, group, chunk, round, cell) {
            if protected && self.shard_unreadable(shard) {
                continue;
            }
            match self
                .fetch_shard_once(sim, shard, chunk, want.clone(), epoch)
                .await
            {
                Ok(segs) => return Attempt::Done(segs),
                Err(DaosError::CsumMismatch) => {
                    self.report_rot(sim, chunk, shard);
                    miss = Some(DaosError::CsumMismatch);
                }
                Err(e) if e.is_retryable() => miss = Some(e),
                Err(e) => return Attempt::Fail(e),
            }
        }
        match (miss, class) {
            (Some(DaosError::CsumMismatch), _) if !protected => {
                Attempt::Fail(DaosError::CsumMismatch)
            }
            (_, ObjectClass::ErasureCoded { .. }) if protected => {
                let rebuilt = self.reconstruct(sim, group, chunk, cell, want, epoch);
                rebuilt.await.into()
            }
            (Some(e), _) => Attempt::Retry(e),
            (None, _) => Attempt::Fail(DaosError::NoSurvivingReplicas),
        }
    }

    /// Rebuild `want` of data cell `c` of an EC stripe whose own shard
    /// cannot serve it, as of `epoch`, the way the stripe re-derives it
    /// ([`Stripe::rederive`]): XOR of the other data cells plus one live
    /// parity. A reconstruction *source* failing is returned as the
    /// retryable error it produced (the caller refreshes and retries); a
    /// stripe with no live parity left is [`DaosError::NoSurvivingReplicas`].
    async fn reconstruct(
        &self,
        sim: &Sim,
        group: u32,
        chunk: u64,
        c: u32,
        want: Range<u64>,
        epoch: Epoch,
    ) -> Result<Segs, DaosError> {
        let (cell, (others, parities)) = (self.stripe.cell_size(), self.stripe.rederive(c));
        let whole_cell = |shard| self.fetch_shard_once(sim, shard, chunk, 0..cell, epoch);
        let mut acc = vec![0u8; cell as usize];
        for oshard in others.map(|o| group + o) {
            if self.shard_excluded(oshard) {
                // two losses in one group: beyond what XOR parity covers
                return Err(DaosError::NoSurvivingReplicas);
            }
            if self.shard_unreadable(oshard) {
                // the source is itself mid-refill; retry once it lands
                return Err(DaosError::Timeout);
            }
            let segs = match whole_cell(oshard).await {
                Ok(s) => s,
                Err(DaosError::CsumMismatch) => {
                    // a reconstruction source is itself rotten: report
                    // it and retry the pass once repair catches up
                    self.report_rot(sim, chunk, oshard);
                    return Err(DaosError::Timeout);
                }
                Err(e) => return Err(e),
            };
            xor_into(&mut acc, &flatten(&segs, 0, cell));
        }
        // live parities that merely timed out are worth a retry; a stripe
        // with every parity excluded is truly lost
        let mut parity_err = DaosError::NoSurvivingReplicas;
        for pshard in parities.map(|j| group + j) {
            if self.shard_unreadable(pshard) {
                continue;
            }
            match whole_cell(pshard).await {
                Ok(segs) => {
                    xor_into(&mut acc, &flatten(&segs, 0, cell));
                    let bytes = acc[want.start as usize..want.end as usize].to_vec();
                    return Ok(Segs::One(ReadSeg {
                        offset: want.start,
                        len: want.end - want.start,
                        data: Some(Payload::bytes(bytes)),
                    }));
                }
                Err(DaosError::CsumMismatch) => {
                    // rotten parity: report it and try the next one
                    self.report_rot(sim, chunk, pshard);
                    parity_err = DaosError::Timeout;
                }
                Err(e) if e.is_retryable() => parity_err = e,
                Err(e) => return Err(e),
            }
        }
        Err(parity_err)
    }

    /// Write one piece of one chunk through the object's protection class.
    async fn write_piece(
        &self,
        sim: &Sim,
        chunk: u64,
        in_chunk: u64,
        piece: Payload,
    ) -> Result<(), DaosError> {
        let group = self.group_of(chunk);
        match self.obj.class {
            ObjectClass::Sharded(_) | ObjectClass::ShardedMax => {
                self.update_shard(sim, group.start, chunk, in_chunk, piece)
                    .await
            }
            ObjectClass::Replicated { .. } => {
                // fan the identical piece out to every replica of the group
                let writes = group.map(|shard| (shard, in_chunk, piece.clone()));
                self.update_shards(sim, chunk, writes).await
            }
            ObjectClass::ErasureCoded { data: k, .. } => {
                let cell = self.stripe.cell_size();
                let aligned = in_chunk.is_multiple_of(cell) && piece.len().is_multiple_of(cell);
                if cell * u64::from(k) != self.stripe.chunk_size || !aligned {
                    return Err(DaosError::Other(format!(
                        "EC arrays need chunk_size divisible by k and cell-aligned I/O \
                         (cell = {cell} bytes)"
                    )));
                }
                let covered = in_chunk..in_chunk + piece.len();
                let data = |c| piece.slice(self.stripe.chunk_offset(c, 0) - in_chunk, cell);
                let cells = self.stripe.cells(covered.clone());
                let cells = cells.map(|(c, _)| (group.start + c, 0, data(c)));
                self.update_shards(sim, chunk, cells).await?;
                let written = |c| {
                    let start = self.stripe.chunk_offset(c, 0);
                    covered.contains(&start).then(|| Some(data(c)))
                };
                // boxed: every write's future would otherwise carry the
                // parity read-modify-write's state
                Box::pin(self.rewrite_parity(sim, group.start, chunk, written)).await
            }
        }
    }

    /// Rewrite the parity cells of `chunk`'s EC stripe, whose group starts
    /// at shard `group`, as the XOR of its data cells: `known(c)` is data
    /// cell `c` when the op at hand set all of it (`Some(None)`: punched
    /// whole), and every other data cell is read back, holes as zeroes. A
    /// stripe left without data has its parity punched instead.
    async fn rewrite_parity(
        &self,
        sim: &Sim,
        group: u32,
        chunk: u64,
        known: impl Fn(u32) -> Option<Option<Payload>>,
    ) -> Result<(), DaosError> {
        let ObjectClass::ErasureCoded { data, parity, .. } = self.obj.class else {
            return Ok(());
        };
        let (k, p, cell) = (u32::from(data), u32::from(parity), self.stripe.cell_size());
        let (mut parity, mut any) = (vec![0u8; cell as usize], false);
        for c in 0..k {
            let segs = match known(c) {
                Some(data) => Segs::One(ReadSeg {
                    offset: 0,
                    len: cell,
                    data,
                }),
                None => {
                    let latest = EPOCH_LATEST;
                    let read =
                        |round| self.read_cell(sim, group, chunk, c, round, 0..cell, false, latest);
                    self.obj.retry(sim, DaosError::Timeout, read).await?
                }
            };
            any |= segs.iter().any(|s| s.data.is_some());
            xor_into(&mut parity, &flatten(&segs, 0, cell));
        }
        let parities = group + k..group + k + p;
        if !any {
            return self.punch_shards(sim, chunk, parities, 0..cell).await;
        }
        let writes = parities.map(|shard| (shard, 0, Payload::bytes(parity.clone())));
        self.update_shards(sim, chunk, writes).await
    }

    /// Punch the shard-relative `range` of `chunk` on every shard of
    /// `shards`: one RPC per engine holding any of them.
    async fn punch_shards(
        &self,
        sim: &Sim,
        chunk: u64,
        shards: Range<u32>,
        range: Range<u64>,
    ) -> Result<(), DaosError> {
        let (cont, oid) = (self.obj.cont.cont, self.obj.oid);
        let punch = |targets| Request::punch_chunk(targets, cont, oid, chunk, range.clone());
        let punched = self.obj.per_engine(sim, shards, punch, Response::Ok);
        punched.await?.ok()
    }

    /// Read one piece of one chunk as of `epoch` through the protection
    /// class; returns chunk-relative segments. Each round reads every cell
    /// the piece touches (the whole chunk is one cell unless the class is
    /// EC) through [`ArrayHandle::read_cell`]. Survives excluded *and
    /// silently dead* targets where the class has redundancy: replicated
    /// reads fail over to surviving replicas, EC reads reconstruct lost
    /// cells from the stripe, and a full pass over the group that finds
    /// nobody alive surfaces as [`DaosError::NoSurvivingReplicas`].
    /// Transient faults (every live shard timing out) back off, refresh the
    /// pool map and retry under the client's attempt budget.
    async fn read_piece(
        &self,
        sim: &Sim,
        chunk: u64,
        in_chunk: u64,
        len: u64,
        epoch: Epoch,
    ) -> Result<Segs, DaosError> {
        let (protected, exhausted) = match self.obj.class {
            ObjectClass::Sharded(_) | ObjectClass::ShardedMax => (false, DaosError::Timeout),
            // replicas that never answered in any round are as good as gone
            ObjectClass::Replicated { .. } => (true, DaosError::NoSurvivingReplicas),
            ObjectClass::ErasureCoded { .. } => (true, DaosError::Timeout),
        };
        let (group, stripe) = (self.group_of(chunk).start, &self.stripe);
        let round = move |round| async move {
            let mut out = Segs::default();
            for (c, want) in stripe.cells(in_chunk..in_chunk + len) {
                let mut segs = match self
                    .read_cell(sim, group, chunk, c, round, want, protected, epoch)
                    .await
                {
                    Attempt::Done(segs) => segs,
                    other => return other,
                };
                segs.rebase(0, stripe.chunk_offset(c, 0));
                // the usual one-cell piece is the reply as it came
                out.append(segs);
            }
            Attempt::Done(out)
        };
        self.obj.retry(sim, exhausted, round).await
    }

    /// Split `[offset, offset+len)` into per-chunk pieces:
    /// `(chunk, offset_in_chunk, piece_offset_in_request, piece_len)`.
    fn pieces(&self, offset: u64, len: u64) -> Vec<(u64, u64, u64, u64)> {
        let mut out = Vec::new();
        let mut cur = offset;
        let end = offset + len;
        while cur < end {
            let chunk = cur / self.stripe.chunk_size;
            let in_chunk = cur % self.stripe.chunk_size;
            let take = (self.stripe.chunk_size - in_chunk).min(end - cur);
            out.push((chunk, in_chunk, cur - offset, take));
            cur += take;
        }
        out
    }

    /// The chunk `[offset, offset+len)` lies inside, as `(chunk,
    /// offset_in_chunk)` — `None` when the range is empty or crosses a
    /// chunk boundary.
    fn single_chunk(&self, offset: u64, len: u64) -> Option<(u64, u64)> {
        let in_chunk = offset % self.stripe.chunk_size;
        (len > 0 && in_chunk + len <= self.stripe.chunk_size)
            .then_some((offset / self.stripe.chunk_size, in_chunk))
    }

    /// Write `data` at byte `offset`; chunks are written concurrently
    /// (libdaos event-queue style) inside the caller's task, every one to
    /// completion, and the first error in chunk order wins.
    pub async fn write(&self, sim: &Sim, offset: u64, data: Payload) -> Result<(), DaosError> {
        if let Some((chunk, in_chunk)) = self.single_chunk(offset, data.len()) {
            return self.write_piece(sim, chunk, in_chunk, data).await;
        }
        let pieces = self.pieces(offset, data.len());
        let futs = pieces.into_iter().map(|(chunk, in_chunk, src_off, len)| {
            self.write_piece(sim, chunk, in_chunk, data.slice(src_off, len))
        });
        join_inline(futs).await.collect()
    }

    /// Read `len` bytes at `offset` as of container snapshot `epoch`
    /// ([`ContainerHandle::snapshot`]): writes after the snapshot are
    /// invisible, unwritten ranges come back as holes, and segments are
    /// returned in array-offset order. Chunks are read concurrently inside
    /// the caller's task, each through its class's failover.
    ///
    /// [`ContainerHandle::snapshot`]: super::ContainerHandle::snapshot
    pub async fn read_at_epoch(
        &self,
        sim: &Sim,
        offset: u64,
        len: u64,
        epoch: Epoch,
    ) -> Result<Segs, DaosError> {
        // one piece, rebased from chunk-relative to array offsets
        let piece = |chunk, in_chunk, plen| async move {
            let mut segs = self.read_piece(sim, chunk, in_chunk, plen, epoch).await?;
            segs.rebase(0, chunk * self.stripe.chunk_size);
            Ok::<_, DaosError>(segs)
        };
        if let Some((chunk, in_chunk)) = self.single_chunk(offset, len) {
            return piece(chunk, in_chunk, len).await;
        }
        let pieces = self.pieces(offset, len);
        let futs = pieces
            .into_iter()
            .map(|(chunk, in_chunk, _src_off, plen)| piece(chunk, in_chunk, plen));
        let mut segs = Segs::default();
        for r in join_inline(futs).await {
            segs.append(r?);
        }
        segs.sort_by_key(|s| s.offset);
        Ok(segs)
    }

    /// Read `len` bytes at `offset`, latest.
    pub async fn read(&self, sim: &Sim, offset: u64, len: u64) -> Result<Segs, DaosError> {
        self.read_at_epoch(sim, offset, len, EPOCH_LATEST).await
    }

    /// Punch (logically zero) `[offset, offset+len)`, any range. A
    /// sharded or replicated chunk punches the range on every shard of its
    /// group at once, so every replica stays consistent. An EC chunk
    /// punches the covered part of each data cell on that cell's shard,
    /// then rewrites the parity as a write's read-modify-write would,
    /// punched bytes counting as zeroes.
    pub async fn punch(&self, sim: &Sim, offset: u64, len: u64) -> Result<(), DaosError> {
        for (chunk, in_chunk, _src, plen) in self.pieces(offset, len) {
            let (group, range) = (self.group_of(chunk), in_chunk..in_chunk + plen);
            let ObjectClass::ErasureCoded { .. } = self.obj.class else {
                self.punch_shards(sim, chunk, group, range).await?;
                continue;
            };
            let cells = self.stripe.cells(range.clone()).map(|(c, inner)| {
                let shard = group.start + c;
                self.punch_shards(sim, chunk, shard..shard + 1, inner)
            });
            join_inline(cells).await.collect::<Result<(), _>>()?;
            let whole = |c| {
                let cell = self.stripe.chunk_offset(c, 0)..self.stripe.chunk_offset(c + 1, 0);
                (range.start <= cell.start && cell.end <= range.end).then_some(None)
            };
            Box::pin(self.rewrite_parity(sim, group.start, chunk, whole)).await?;
        }
        Ok(())
    }

    /// The array's size in bytes (highest written offset + 1), queried
    /// from every shard like `daos_array_get_size`: one RPC per engine
    /// holding any of them, answered with that engine's highest chunk,
    /// the highest of which wins. An EC shard answers in cell offsets and
    /// a parity holds no array bytes, so an EC array then asks each data
    /// cell of that chunk where its data ends, through the geometry.
    pub async fn size(&self, sim: &Sim) -> Result<u64, DaosError> {
        let Some((chunk, inner)) = self.max_chunk(sim, 0..self.obj.width()).await? else {
            return Ok(0);
        };
        let base = chunk * self.stripe.chunk_size;
        let ObjectClass::ErasureCoded { data: k, .. } = self.obj.class else {
            return Ok(base + inner);
        };
        let group = self.group_of(chunk).start;
        let cells =
            (group..group + u32::from(k)).map(|shard| self.max_chunk(sim, shard..shard + 1));
        let mut end = 0;
        for (c, highest) in (0..).zip(join_inline(cells).await) {
            if let Some((_, inner)) = highest?.filter(|&(at, _)| at == chunk) {
                end = end.max(self.stripe.chunk_offset(c, inner));
            }
        }
        Ok(base + end)
    }

    /// The highest chunk any of `shards` holds data in and where that data
    /// ends in it (shard-relative): one RPC per engine holding any of them.
    async fn max_chunk(
        &self,
        sim: &Sim,
        shards: Range<u32>,
    ) -> Result<Option<(u64, u64)>, DaosError> {
        let (cont, oid) = (self.obj.cont.cont, self.obj.oid);
        let max_chunk = |targets| Request::ArrayMaxChunk {
            targets,
            cont,
            oid,
            akey: array_akey(),
        };
        let highest = self
            .obj
            .per_engine(sim, shards, max_chunk, Response::MaxChunk(None));
        match highest.await? {
            Response::MaxChunk(Some((dk, inner))) => match chunk_of_dkey(&dk) {
                Some(chunk) => Ok(Some((chunk, inner))),
                None => Err(DaosError::Other("malformed chunk dkey".into())),
            },
            Response::MaxChunk(None) => Ok(None),
            other => Err(other.into_err()),
        }
    }

    /// Read exactly `len` bytes into one buffer, holes as zeroes — for
    /// callers that compare the bytes themselves (`Dfs` file reads, the
    /// scrub timeline, tests); [`ArrayHandle::read`] hands back the
    /// segments without materialising them.
    pub async fn read_bytes(&self, sim: &Sim, offset: u64, len: u64) -> Result<Vec<u8>, DaosError> {
        let segs = self.read(sim, offset, len).await?;
        Ok(flatten(&segs, offset, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_candidate_order_per_class() {
        let rp3 = ObjectClass::Replicated {
            replicas: 3,
            groups: None,
        };
        let ec_2p1 = ObjectClass::ErasureCoded {
            data: 2,
            parity: 1,
            groups: None,
        };
        // chunk 4 of a group starting at shard 6: (class, round, cell) → order
        for (class, round, cell, want) in [
            (ObjectClass::S1, 0, 0, vec![6]),
            (ObjectClass::SX, 2, 0, vec![6]),
            (rp3, 0, 0, vec![7, 8, 6]),
            (rp3, 1, 0, vec![8, 6, 7]),
            (rp3, 2, 0, vec![6, 7, 8]),
            (ec_2p1, 0, 0, vec![6]),
            (ec_2p1, 2, 1, vec![7]),
        ] {
            let got: Vec<u32> = read_candidates(class, 6, 4, round, cell).collect();
            assert_eq!(got, want, "{class:?} round {round} cell {cell}");
        }
    }
}
