//! # daos-mpiio — a ROMIO-style MPI-IO implementation
//!
//! MPI-IO file handles over ROMIO's UFS driver: POSIX through a
//! [`daos_dfuse::DfuseMount`], which is how the paper's "MPI-IO" series
//! reaches DAOS.
//!
//! Independent `read_at`/`write_at` go straight to the driver. Collective
//! `read_at_all`/`write_at_all` implement ROMIO's *generalised two-phase*
//! protocol with its one automatic rule (`romio_cb_write=automatic`):
//! offsets are exchanged with an allgather, and only when the ranks'
//! ranges interleave is data shuffled to one aggregator per node, which
//! does the I/O of its file domain in `cb_buffer` cuts.

// No `unsafe` may enter the workspace outside the audited kernel
// crate (`daos-sim`, which denies `clippy::undocumented_unsafe_blocks`).
#![forbid(unsafe_code)]

use daos_core::DaosError;
use daos_dfuse::{split_aligned, PosixFile};
use daos_mpi::MpiRank;
use daos_sim::Sim;
use daos_vos::tree::{flatten, ReadSeg, Segs};
use daos_vos::Payload;

/// MPI-IO hints.
#[derive(Clone, Copy, Debug)]
pub struct Hints {
    /// Aggregator staging-buffer size (I/O granularity in the CB phase).
    pub cb_buffer: u64,
}

impl Default for Hints {
    fn default() -> Self {
        Hints {
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
    async fn read(&self, sim: &Sim, off: u64, len: u64) -> Result<Segs, DaosError> {
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
fn slice_segs(segs: &[ReadSeg], off: u64, len: u64) -> Vec<ReadSeg> {
    segs.iter()
        .filter_map(|s| {
            let (start, end) = overlap((s.offset, s.len), (off, off + len))?;
            Some(ReadSeg {
                offset: start,
                len: end - start,
                data: s
                    .data
                    .as_ref()
                    .map(|d| d.slice(start - s.offset, end - start)),
            })
        })
        .collect()
}

/// The part of `(off, len)` inside `[start, end)`, as `(start, end)`.
fn overlap((off, len): (u64, u64), (start, end): (u64, u64)) -> Option<(u64, u64)> {
    let (s, e) = (off.max(start), (off + len).min(end));
    (s < e).then_some((s, e))
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
    pub async fn read_at(&self, sim: &Sim, off: u64, len: u64) -> Result<Segs, DaosError> {
        self.file.read(sim, off, len).await
    }

    /// Collective close.
    pub async fn close(self, sim: &Sim) {
        self.rank.barrier(sim).await;
    }

    /// Phase 0 of a collective: allgather every rank's `(off, len)` and,
    /// when the ranges interleave, plan the aggregation. `None` means every
    /// rank does its own I/O.
    async fn plan(&self, sim: &Sim, off: u64, len: u64) -> Option<Plan> {
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
        if !is_interleaved(&ranges) {
            return None;
        }
        // one aggregator per node, the lowest rank on it, in rank order
        let w = self.rank.world();
        let mut nodes = std::collections::BTreeSet::new();
        let aggs: Vec<usize> = (0..w.size())
            .filter(|&r| nodes.insert(w.node_of(r)))
            .collect();
        // split [lo, hi) into one file domain per aggregator, aligned to
        // the CB buffer so aggregator I/O is large and aligned
        let lo = ranges.iter().map(|r| r.0).min().unwrap();
        let hi = ranges.iter().map(|r| r.0 + r.1).max().unwrap();
        let cb = self.hints.cb_buffer;
        let per = ((hi - lo) / aggs.len() as u64).div_ceil(cb) * cb;
        let per = per.max(cb);
        let domains = aggs
            .into_iter()
            .enumerate()
            .map(|(i, agg)| {
                let s = (lo + i as u64 * per).min(hi);
                (agg, (s, (s + per).min(hi)))
            })
            .collect();
        Some(Plan { ranges, domains })
    }

    /// Collective write of one contiguous region per rank.
    pub async fn write_at_all(&self, sim: &Sim, off: u64, data: Payload) -> Result<(), DaosError> {
        let len = data.len();
        let Some(plan) = self.plan(sim, off, len).await else {
            self.file.write(sim, off, data).await?;
            self.rank.barrier(sim).await;
            return Ok(());
        };
        // phase 1: each aggregator gets my part of its domain
        for &(agg, dom) in &plan.domains {
            if let Some((s, e)) = overlap((off, len), dom) {
                let piece = data.slice(s - off, e - s);
                self.rank
                    .send_meta(sim, agg, WRITE_TAG, (s, e - s), piece)
                    .await;
            }
        }
        // phase 2: an aggregator writes the pieces of its domain in offset
        // order, each cut at its run's `cb_buffer` boundaries (a run is a
        // chain of pieces that each start where the last ended); pieces are
        // forwarded, never coalesced
        if let Some(dom) = plan.domain_of(self.rank.rank()) {
            let mut pieces: Vec<(u64, Payload)> = Vec::new();
            for (r, &range) in plan.ranges.iter().enumerate() {
                if overlap(range, dom).is_some() {
                    let msg = self.rank.recv_msg(sim, r, WRITE_TAG).await;
                    pieces.push((msg.meta.0, msg.data));
                }
            }
            pieces.sort_by_key(|(o, _)| *o);
            let (mut run_start, mut prev_end) = (0, None);
            for (o, p) in pieces {
                if prev_end != Some(o) {
                    run_start = o;
                }
                prev_end = Some(o + p.len());
                for (s, l) in split_aligned(self.hints.cb_buffer, o - run_start, p.len()) {
                    let at = run_start + s;
                    self.file.write(sim, at, p.slice(at - o, l)).await?;
                }
            }
        }
        self.rank.barrier(sim).await;
        Ok(())
    }

    /// Collective read of one contiguous region per rank.
    pub async fn read_at_all(&self, sim: &Sim, off: u64, len: u64) -> Result<Segs, DaosError> {
        let Some(plan) = self.plan(sim, off, len).await else {
            let segs = self.file.read(sim, off, len).await?;
            self.rank.barrier(sim).await;
            return Ok(segs);
        };
        // phase 1: an aggregator reads the union of the ranges in its
        // domain, each merged run in `cb_buffer` cuts, and sends every
        // rank its part
        if let Some(dom) = plan.domain_of(self.rank.rank()) {
            let mut wanted: Vec<(u64, u64)> = plan
                .ranges
                .iter()
                .filter_map(|&range| overlap(range, dom))
                .collect();
            wanted.sort_unstable();
            let mut merged: Vec<(u64, u64)> = Vec::new();
            for (s, e) in wanted {
                match merged.last_mut() {
                    Some(last) if last.1 >= s => last.1 = last.1.max(e),
                    _ => merged.push((s, e)),
                }
            }
            let mut segs: Vec<ReadSeg> = Vec::new();
            for (s, e) in merged {
                for (cut, l) in split_aligned(self.hints.cb_buffer, 0, e - s) {
                    segs.extend(self.file.read(sim, s + cut, l).await?);
                }
            }
            for (r, &range) in plan.ranges.iter().enumerate() {
                if let Some((s, e)) = overlap(range, dom) {
                    let piece = assemble(&slice_segs(&segs, s, e - s), s, e - s);
                    self.rank
                        .send_meta(sim, r, READ_TAG, (s, e - s), piece)
                        .await;
                }
            }
        }
        // phase 2: every rank collects its parts from the aggregators
        let mut segs: Vec<ReadSeg> = Vec::new();
        for &(agg, dom) in &plan.domains {
            if overlap((off, len), dom).is_some() {
                let msg = self.rank.recv_msg(sim, agg, READ_TAG).await;
                segs.push(ReadSeg {
                    offset: msg.meta.0,
                    len: msg.meta.1,
                    data: Some(msg.data),
                });
            }
        }
        segs.sort_by_key(|s| s.offset);
        self.rank.barrier(sim).await;
        Ok(Segs::Many(segs))
    }
}

/// Message tags of the two collectives' data shuffles.
const WRITE_TAG: u64 = 0x77AA;
const READ_TAG: u64 = 0x77BB;

/// The two-phase plan of one collective call whose ranges interleave.
struct Plan {
    /// Every rank's `(off, len)`, in rank order.
    ranges: Vec<(u64, u64)>,
    /// `(aggregator rank, [start, end))`: one file domain per node.
    domains: Vec<(usize, (u64, u64))>,
}

impl Plan {
    /// The file domain `rank` aggregates, if it is an aggregator.
    fn domain_of(&self, rank: usize) -> Option<(u64, u64)> {
        self.domains.iter().find(|d| d.0 == rank).map(|d| d.1)
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
