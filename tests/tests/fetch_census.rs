//! The allocation census of a fetch, exact to the count: a read allocates
//! only what its answer needs. An answer of one segment — a 4 KiB read of
//! data written once — travels inline from the VOS tree through the engine
//! reply and the client to the caller of `DfsFile::read`, so a warm read
//! loop allocates nothing at all. An answer painted from two overlapping
//! extents allocates its one `Vec` of segments: the candidates and the
//! paint loop's segments live in scratch the VOS target lends the fetch.
//! The scrubber paints in the same scratch and walks its chunks from a
//! batch buffer it keeps, so a warm scrub pass — the fragmented chunk
//! included — allocates nothing either. An array-size query reads only
//! where the last chunk's data ends, so its painted window costs it no
//! more than the same chunk written once.
//!
//! Counted by the per-thread census allocator (`counting_alloc`).

#![deny(clippy::undocumented_unsafe_blocks)]

mod counting_alloc;

use daos_core::ClusterConfig;
use daos_dfs::{DfsConfig, DfsFile};
use daos_dfuse::DfuseConfig;
use daos_ior::DaosTestbed;
use daos_placement::ObjectClass;
use daos_sim::time::SimDuration;
use daos_sim::units::{KIB, MIB};
use daos_sim::Sim;
use daos_vos::Payload;

use counting_alloc::allocs;

const XFER: u64 = 4 * KIB;
/// Transfers written, then read back one by one.
const COUNT: u64 = 64;
/// Reads of the painted window measured.
const WINDOW_READS: u64 = 32;
/// Where the two overlapping extents sit: a chunk of their own, so their
/// tree holds nothing else.
const WINDOW: u64 = 4 * MIB;

/// What each warm loop allocated, in total.
#[derive(Clone, Copy, Debug)]
struct Census {
    /// `COUNT` reads of 4 KiB written once.
    one_segment: u64,
    /// `WINDOW_READS` reads of a window two overlapping extents answer.
    painted: u64,
    /// One scrub pass over every target, the window's chunk included.
    scrub: u64,
    /// `WINDOW_READS` size queries while the window's chunk held one extent.
    size_plain: u64,
    /// The same queries once the second extent overlapped it.
    size_painted: u64,
}

/// What `WINDOW_READS` warm size queries of `file` allocated, each
/// answering `size`.
async fn size_census(sim: &Sim, file: &DfsFile, size: u64) -> u64 {
    let mut allocated = 0;
    for measured in [false, true] {
        let before = allocs();
        for _ in 0..WINDOW_READS {
            assert_eq!(file.size(sim).await.expect("size"), size);
        }
        if measured {
            allocated = allocs() - before;
        }
    }
    allocated
}

/// Take the census. Each loop runs once unmeasured first: it builds the
/// trees' indexes and fills the engines' task boxes, reply slabs, lent
/// scratch and scrub batches, the fixed warm-up.
fn census() -> Census {
    let mut sim = Sim::new(0xF37C);
    sim.block_on(move |sim| async move {
        // the two-server-node tiny cluster with the failure detector and
        // the engines' own scrubber parked: every allocation counted is a
        // read's or the measured scrub pass's own
        let mut cfg = ClusterConfig::tiny(1);
        cfg.heartbeat.interval = SimDuration::from_secs(3600);
        cfg.engine.scrub_interval = None;
        let (dfs, dfuse) = (DfsConfig::default(), DfuseConfig::default());
        let env = DaosTestbed::setup(&sim, cfg, dfs, dfuse)
            .await
            .expect("testbed");
        let file = env.dfs[0]
            .create(&sim, "/census", ObjectClass::S2, MIB)
            .await
            .expect("create");
        for k in 0..COUNT {
            let data = Payload::pattern(k, XFER);
            file.write(&sim, k * XFER, data).await.expect("write");
        }
        // the second extent overlaps the first's back half
        let (older, newer) = (
            Payload::pattern(1 << 20, XFER),
            Payload::pattern(2 << 20, XFER),
        );
        file.write(&sim, WINDOW, older).await.expect("write");
        let size_plain = size_census(&sim, &file, WINDOW + XFER).await;
        file.write(&sim, WINDOW + XFER / 2, newer)
            .await
            .expect("write");
        let size_painted = size_census(&sim, &file, WINDOW + XFER / 2 + XFER).await;

        let mut one_segment = 0;
        for measured in [false, true] {
            let before = allocs();
            for k in 0..COUNT {
                let segs = file.read(&sim, k * XFER, XFER).await.expect("read");
                assert_eq!((segs.len(), segs.data_bytes()), (1, XFER));
            }
            if measured {
                one_segment = allocs() - before;
            }
        }
        let mut painted = 0;
        for measured in [false, true] {
            let before = allocs();
            for _ in 0..WINDOW_READS {
                let segs = file.read(&sim, WINDOW, 2 * XFER).await.expect("read");
                assert_eq!(segs.len(), 3, "older, newer, then a hole: {segs:?}");
                assert_eq!(segs.data_bytes(), XFER / 2 + XFER);
            }
            if measured {
                painted = allocs() - before;
            }
        }
        let targets = || {
            let engines = env.cluster.engines().iter();
            engines.flat_map(|e| (0..e.target_count()).map(move |t| e.target(t)))
        };
        let mut scrub = 0;
        for measured in [false, true] {
            let before = allocs();
            let mut bytes = 0;
            for target in targets() {
                loop {
                    let step = target.scrub_step(&sim, 16).await;
                    assert!(step.findings.is_empty(), "{:?}", step.findings);
                    bytes += step.bytes;
                    if step.wrapped {
                        break;
                    }
                }
            }
            if measured {
                scrub = allocs() - before;
            }
            // every transfer once, and both extents of the window
            assert_eq!(bytes, (COUNT + 2) * XFER);
        }
        Census {
            one_segment,
            painted,
            scrub,
            size_plain,
            size_painted,
        }
    })
}

/// Check a census: a warm one-segment read allocates nothing, a warm
/// painted one at most its answer's `Vec`, a warm scrub pass nothing, and
/// a size query over the painted window no more than over one extent.
fn check(census: Census) -> Result<(), String> {
    let Census {
        one_segment,
        painted,
        scrub,
        size_plain,
        size_painted,
    } = census;
    if one_segment != 0 {
        return Err(format!(
            "{one_segment} allocations in {COUNT} one-segment reads, not 0"
        ));
    }
    if painted > WINDOW_READS {
        return Err(format!(
            "{painted} allocations in {WINDOW_READS} painted reads, more than one each"
        ));
    }
    if scrub != 0 {
        return Err(format!("{scrub} allocations in a warm scrub pass, not 0"));
    }
    if size_painted > size_plain {
        return Err(format!(
            "{size_painted} allocations in {WINDOW_READS} size queries over the painted window, \
             {size_plain} over one extent"
        ));
    }
    Ok(())
}

#[test]
fn a_warm_fetch_allocates_only_its_answer() {
    let census = census();
    check(census).unwrap_or_else(|e| panic!("{e}: {census:?}"));
}

/// Planted negatives: a reply that built a `Vec` for its one segment, a
/// painted read that kept scratch of its own (the candidates, the paint
/// loop's buffers), a scrub pass that painted in fresh scratch or took a
/// new batch per step, or a size query that built the painted chunk's
/// read answer must fail the check, each naming its loop.
#[test]
fn a_vec_per_reply_or_scratch_per_paint_fails_the_check() {
    let warm = Census {
        one_segment: 0,
        painted: WINDOW_READS,
        scrub: 0,
        size_plain: 0,
        size_painted: 0,
    };
    check(warm).expect("the warm census passes");
    let vec_per_reply = Census {
        one_segment: COUNT,
        ..warm
    };
    let vec_per_reply = check(vec_per_reply).expect_err("a Vec per reply");
    assert!(vec_per_reply.contains("one-segment"), "{vec_per_reply}");
    let scratch_per_paint = Census {
        painted: 5 * WINDOW_READS,
        ..warm
    };
    let scratch_per_paint = check(scratch_per_paint).expect_err("scratch per paint");
    assert!(scratch_per_paint.contains("painted"), "{scratch_per_paint}");
    let scratch_per_scrub = check(Census { scrub: 4, ..warm }).expect_err("scratch per scrub");
    assert!(scratch_per_scrub.contains("scrub"), "{scratch_per_scrub}");
    let answer_per_size = Census {
        size_painted: WINDOW_READS,
        ..warm
    };
    let answer_per_size = check(answer_per_size).expect_err("an answer per size query");
    assert!(
        answer_per_size.contains("size queries"),
        "{answer_per_size}"
    );
}
