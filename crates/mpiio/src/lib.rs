//! # daos-mpiio — a ROMIO-style MPI-IO implementation
//!
//! MPI-IO file handles over ROMIO's UFS driver: POSIX through a
//! [`daos_dfuse::DfuseMount`], which is how the paper's "MPI-IO" series
//! reaches DAOS.
//!
//! Independent `read_at`/`write_at` go straight to the driver. Collective
//! `read_at_all`/`write_at_all` implement ROMIO's *generalised two-phase*
//! protocol: offsets are exchanged with an allgather, and — when collective
//! buffering is active — data is shuffled to one aggregator per node, which
//! issues large, `cb_buffer`-aligned I/O over its file domain. With the
//! default `automatic` setting, collective buffering only engages when the
//! ranks' accesses actually interleave, matching `romio_cb_write=automatic`.

// No `unsafe` may enter the workspace outside the audited kernel
// crate (`daos-sim`, which denies `clippy::undocumented_unsafe_blocks`).
#![forbid(unsafe_code)]

use daos_core::DaosError;
use daos_dfuse::PosixFile;
use daos_mpi::MpiRank;
use daos_sim::Sim;
use daos_vos::tree::{flatten, ReadSeg};
use daos_vos::Payload;

/// Collective-buffering mode (`romio_cb_write` / `romio_cb_read`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CbMode {
    /// Engage only when accesses interleave (ROMIO default).
    Auto,
    /// Always aggregate.
    Enable,
    /// Never aggregate.
    Disable,
}

/// MPI-IO hints.
#[derive(Clone, Copy, Debug)]
pub struct Hints {
    pub cb_write: CbMode,
    pub cb_read: CbMode,
    /// Aggregator staging-buffer size (I/O granularity in the CB phase).
    pub cb_buffer: u64,
}

impl Default for Hints {
    fn default() -> Self {
        Hints {
            cb_write: CbMode::Auto,
            cb_read: CbMode::Auto,
            cb_buffer: 16 << 20,
        }
    }
}

/// Per-rank file handle of the underlying driver.
#[derive(Clone)]
pub enum RankFile {
    /// POSIX via DFuse.
    Posix(PosixFile),
}

impl RankFile {
    async fn write(&self, sim: &Sim, off: u64, data: Payload) -> Result<(), DaosError> {
        match self {
            RankFile::Posix(f) => f.pwrite(sim, off, data).await,
        }
    }
    async fn read(&self, sim: &Sim, off: u64, len: u64) -> Result<Vec<ReadSeg>, DaosError> {
        match self {
            RankFile::Posix(f) => f.pread(sim, off, len).await,
        }
    }
}

/// An open MPI-IO file (one per rank, SPMD).
pub struct MpiFile {
    rank: MpiRank,
    file: RankFile,
    hints: Hints,
}

/// Do the (sorted-by-rank) ranges interleave? ROMIO's test: collective
/// buffering pays off only if some rank starts before a lower rank ends.
pub fn is_interleaved(ranges: &[(u64, u64)]) -> bool {
    let mut prev_end = 0u64;
    for &(off, len) in ranges {
        if off < prev_end {
            return true;
        }
        prev_end = prev_end.max(off + len);
    }
    false
}

/// Assemble read segments into one payload covering `[off, off+len)`
/// (holes become zeroes; pattern payloads stay unmaterialised when the
/// range is a single segment).
pub fn assemble(segs: &[ReadSeg], off: u64, len: u64) -> Payload {
    if segs.len() == 1 && segs[0].offset == off && segs[0].len == len {
        if let Some(d) = &segs[0].data {
            return d.clone();
        }
    }
    Payload::bytes(flatten(segs, off, len))
}

/// Slice `[off, off+len)` out of a set of segments (absolute offsets kept).
pub fn slice_segs(segs: &[ReadSeg], off: u64, len: u64) -> Vec<ReadSeg> {
    let end = off + len;
    let mut out = Vec::new();
    for s in segs {
        let s_start = s.offset.max(off);
        let s_end = (s.offset + s.len).min(end);
        if s_start >= s_end {
            continue;
        }
        out.push(ReadSeg {
            offset: s_start,
            len: s_end - s_start,
            data: s
                .data
                .as_ref()
                .map(|d| d.slice(s_start - s.offset, s_end - s_start)),
        });
    }
    out
}

impl MpiFile {
    /// Collective open: every rank passes its own driver handle.
    pub async fn open(sim: &Sim, rank: MpiRank, file: RankFile, hints: Hints) -> MpiFile {
        rank.barrier(sim).await;
        MpiFile { rank, file, hints }
    }

    /// Non-collective construction (`MPI_COMM_SELF`-style handles, e.g.
    /// IOR file-per-process). Collective I/O must not be used on it.
    pub fn new_independent(rank: MpiRank, file: RankFile, hints: Hints) -> MpiFile {
        MpiFile { rank, file, hints }
    }

    /// The MPI rank this handle belongs to.
    pub fn rank(&self) -> &MpiRank {
        &self.rank
    }

    /// Independent write.
    pub async fn write_at(&self, sim: &Sim, off: u64, data: Payload) -> Result<(), DaosError> {
        self.file.write(sim, off, data).await
    }

    /// Independent read.
    pub async fn read_at(&self, sim: &Sim, off: u64, len: u64) -> Result<Vec<ReadSeg>, DaosError> {
        self.file.read(sim, off, len).await
    }

    /// Collective close.
    pub async fn close(self, sim: &Sim) {
        self.rank.barrier(sim).await;
    }

    /// One aggregator per node: the lowest rank on each node, in rank order.
    fn aggregators(&self) -> Vec<usize> {
        let w = self.rank.world();
        let mut aggs = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        for r in 0..w.size() {
            if seen.insert(w.node_of(r)) {
                aggs.push(r);
            }
        }
        aggs
    }

    /// File-domain split of `[lo, hi)` across aggregators, aligned to the
    /// CB buffer so aggregator I/O is large and aligned.
    fn domains(&self, lo: u64, hi: u64, n_aggs: usize) -> Vec<(u64, u64)> {
        let total = hi - lo;
        let per = (total / n_aggs as u64).div_ceil(self.hints.cb_buffer) * self.hints.cb_buffer;
        let per = per.max(self.hints.cb_buffer);
        (0..n_aggs)
            .map(|i| {
                let s = (lo + i as u64 * per).min(hi);
                let e = (s + per).min(hi);
                (s, e)
            })
            .collect()
    }

    fn cb_active(&self, mode: CbMode, ranges: &[(u64, u64)]) -> bool {
        match mode {
            CbMode::Enable => true,
            CbMode::Disable => false,
            CbMode::Auto => is_interleaved(ranges),
        }
    }

    /// Collective write of one contiguous region per rank.
    pub async fn write_at_all(&self, sim: &Sim, off: u64, data: Payload) -> Result<(), DaosError> {
        let len = data.len();
        // phase 0: exchange access ranges
        let mut mine = Vec::with_capacity(16);
        mine.extend_from_slice(&off.to_le_bytes());
        mine.extend_from_slice(&len.to_le_bytes());
        let all = self.rank.allgather(sim, mine).await;
        let ranges: Vec<(u64, u64)> = all
            .iter()
            .map(|b| {
                (
                    u64::from_le_bytes(b[0..8].try_into().unwrap()),
                    u64::from_le_bytes(b[8..16].try_into().unwrap()),
                )
            })
            .collect();

        if !self.cb_active(self.hints.cb_write, &ranges) {
            self.file.write(sim, off, data).await?;
            self.rank.barrier(sim).await;
            return Ok(());
        }

        // phase 1: shuffle data to aggregators
        let lo = ranges.iter().map(|r| r.0).min().unwrap();
        let hi = ranges.iter().map(|r| r.0 + r.1).max().unwrap();
        let aggs = self.aggregators();
        let doms = self.domains(lo, hi, aggs.len());
        let tag = 0x77AA;
        let me = self.rank.rank();

        // send my pieces to owning aggregators
        for (ai, &(ds, de)) in doms.iter().enumerate() {
            let s = off.max(ds);
            let e = (off + len).min(de);
            if s >= e {
                continue;
            }
            let piece = data.slice(s - off, e - s);
            self.rank
                .send_meta(sim, aggs[ai], tag, (s, e - s), piece)
                .await;
        }

        // if I am an aggregator: collect pieces and write my domain
        if let Some(ai) = aggs.iter().position(|&a| a == me) {
            let (ds, de) = doms[ai];
            let mut pieces: Vec<(u64, Payload)> = Vec::new();
            for (r, &(roff, rlen)) in ranges.iter().enumerate() {
                let s = roff.max(ds);
                let e = (roff + rlen).min(de);
                if s >= e {
                    continue;
                }
                let msg = self.rank.recv_msg(sim, r, tag).await;
                pieces.push((msg.meta.0, msg.data));
            }
            pieces.sort_by_key(|(o, _)| *o);
            // phase 2: issue cb_buffer-sized contiguous writes
            let mut run_start: Option<u64> = None;
            let mut run: Vec<(u64, Payload)> = Vec::new();
            let mut flush = Vec::new();
            for (o, p) in pieces {
                match run_start {
                    Some(_)
                        if run
                            .last()
                            .map(|(lo2, lp)| lo2 + lp.len() == o)
                            .unwrap_or(false) =>
                    {
                        run.push((o, p));
                    }
                    _ => {
                        if !run.is_empty() {
                            flush.push(std::mem::take(&mut run));
                        }
                        run_start = Some(o);
                        run.push((o, p));
                    }
                }
            }
            if !run.is_empty() {
                flush.push(run);
            }
            for run in flush {
                let start = run[0].0;
                let total: u64 = run.iter().map(|(_, p)| p.len()).sum();
                // write in cb_buffer chunks; each chunk may span pieces, so
                // write piece-wise but batched at cb granularity
                let mut cur = start;
                let mut idx = 0usize;
                let mut inner = 0u64;
                while cur < start + total {
                    let chunk = self.hints.cb_buffer.min(start + total - cur);
                    let mut remaining = chunk;
                    while remaining > 0 {
                        let (po, p) = &run[idx];
                        let avail = p.len() - inner;
                        let take = avail.min(remaining);
                        self.file
                            .write(sim, po + inner, p.slice(inner, take))
                            .await?;
                        inner += take;
                        remaining -= take;
                        if inner == p.len() {
                            idx += 1;
                            inner = 0;
                        }
                    }
                    cur += chunk;
                }
            }
            let _ = de;
        }
        self.rank.barrier(sim).await;
        Ok(())
    }

    /// Collective read of one contiguous region per rank.
    pub async fn read_at_all(
        &self,
        sim: &Sim,
        off: u64,
        len: u64,
    ) -> Result<Vec<ReadSeg>, DaosError> {
        let mut mine = Vec::with_capacity(16);
        mine.extend_from_slice(&off.to_le_bytes());
        mine.extend_from_slice(&len.to_le_bytes());
        let all = self.rank.allgather(sim, mine).await;
        let ranges: Vec<(u64, u64)> = all
            .iter()
            .map(|b| {
                (
                    u64::from_le_bytes(b[0..8].try_into().unwrap()),
                    u64::from_le_bytes(b[8..16].try_into().unwrap()),
                )
            })
            .collect();

        if !self.cb_active(self.hints.cb_read, &ranges) {
            let segs = self.file.read(sim, off, len).await?;
            self.rank.barrier(sim).await;
            return Ok(segs);
        }

        let lo = ranges.iter().map(|r| r.0).min().unwrap();
        let hi = ranges.iter().map(|r| r.0 + r.1).max().unwrap();
        let aggs = self.aggregators();
        let doms = self.domains(lo, hi, aggs.len());
        let tag = 0x77BB;
        let me = self.rank.rank();

        // aggregators read their domain and scatter
        if let Some(ai) = aggs.iter().position(|&a| a == me) {
            let (ds, de) = doms[ai];
            if ds < de {
                // union of the requested ranges clipped to my domain,
                // merged where contiguous
                let mut wanted: Vec<(u64, u64)> = ranges
                    .iter()
                    .filter_map(|&(roff, rlen)| {
                        let s = roff.max(ds);
                        let e = (roff + rlen).min(de);
                        (s < e).then_some((s, e))
                    })
                    .collect();
                wanted.sort_unstable();
                let mut merged: Vec<(u64, u64)> = Vec::new();
                for (s, e) in wanted {
                    match merged.last_mut() {
                        Some(last) if last.1 >= s => last.1 = last.1.max(e),
                        _ => merged.push((s, e)),
                    }
                }
                // read each merged run in cb_buffer chunks
                let mut segs: Vec<ReadSeg> = Vec::new();
                for (s, e) in merged {
                    let mut cur = s;
                    while cur < e {
                        let chunk = self.hints.cb_buffer.min(e - cur);
                        segs.extend(self.file.read(sim, cur, chunk).await?);
                        cur += chunk;
                    }
                }
                for (r, &(roff, rlen)) in ranges.iter().enumerate() {
                    let s = roff.max(ds);
                    let e = (roff + rlen).min(de);
                    if s >= e {
                        continue;
                    }
                    let piece = assemble(&slice_segs(&segs, s, e - s), s, e - s);
                    self.rank.send_meta(sim, r, tag, (s, e - s), piece).await;
                }
            }
        }

        // every rank collects its pieces from the owning aggregators
        let mut segs: Vec<ReadSeg> = Vec::new();
        for (ai, &(ds, de)) in doms.iter().enumerate() {
            let s = off.max(ds);
            let e = (off + len).min(de);
            if s >= e {
                continue;
            }
            let msg = self.rank.recv_msg(sim, aggs[ai], tag).await;
            segs.push(ReadSeg {
                offset: msg.meta.0,
                len: msg.meta.1,
                data: Some(msg.data),
            });
        }
        segs.sort_by_key(|s| s.offset);
        self.rank.barrier(sim).await;
        Ok(segs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleave_detection() {
        // disjoint ordered (IOR segmented): not interleaved
        assert!(!is_interleaved(&[(0, 10), (10, 10), (20, 10)]));
        // gaps still fine
        assert!(!is_interleaved(&[(0, 10), (100, 10)]));
        // strided per-rank pattern: interleaved
        assert!(is_interleaved(&[(0, 10), (5, 10)]));
        assert!(is_interleaved(&[(20, 10), (0, 10)]));
        assert!(!is_interleaved(&[]));
    }

    #[test]
    fn assemble_fills_holes_with_zeroes() {
        let segs = vec![
            ReadSeg {
                offset: 10,
                len: 5,
                data: Some(Payload::bytes(vec![1, 2, 3, 4, 5])),
            },
            ReadSeg {
                offset: 15,
                len: 5,
                data: None,
            },
        ];
        let p = assemble(&segs, 10, 10);
        assert_eq!(&p.materialize()[..], &[1, 2, 3, 4, 5, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn assemble_single_full_segment_is_zero_copy() {
        let pat = Payload::pattern(5, 1000);
        let segs = vec![ReadSeg {
            offset: 0,
            len: 1000,
            data: Some(pat.clone()),
        }];
        let p = assemble(&segs, 0, 1000);
        assert_eq!(p, pat, "must not materialise a full pattern segment");
    }

    #[test]
    fn slice_segs_clips_properly() {
        let segs = vec![ReadSeg {
            offset: 0,
            len: 100,
            data: Some(Payload::pattern(1, 100)),
        }];
        let out = slice_segs(&segs, 30, 40);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].offset, 30);
        assert_eq!(out[0].len, 40);
        assert_eq!(
            out[0].data.as_ref().unwrap().materialize(),
            Payload::pattern(1, 100).slice(30, 40).materialize()
        );
    }
}
