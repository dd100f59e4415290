//! The allocation census of a fetch, exact to the count: a read allocates
//! only what its answer needs. An answer of one segment — a 4 KiB read of
//! data written once — travels inline from the VOS tree through the engine
//! reply and the client to the caller of `DfsFile::read`, so a warm read
//! loop allocates nothing at all. An answer painted from two overlapping
//! extents allocates its one `Vec` of segments: the candidates and the
//! paint loop's segments live in scratch the VOS target lends the fetch.
//!
//! Counted by this binary's own global allocator, per thread, so the tests
//! the harness runs beside this one do not show up in its counts.

#![deny(clippy::undocumented_unsafe_blocks)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use daos_core::ClusterConfig;
use daos_dfs::DfsConfig;
use daos_dfuse::DfuseConfig;
use daos_ior::DaosTestbed;
use daos_placement::ObjectClass;
use daos_sim::time::SimDuration;
use daos_sim::units::{KIB, MIB};
use daos_sim::Sim;
use daos_vos::Payload;

thread_local! {
    /// Heap allocation events of this thread so far.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to `System`, counting `alloc`, `alloc_zeroed` and `realloc`
/// against the calling thread.
struct CountingAlloc;

/// Count one allocation event on this thread. A `const`-initialised
/// `Cell` with no destructor is a plain thread-local slot: reaching it
/// neither allocates nor fails, even while the thread is torn down.
fn bump() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a thread-local
// counter bump that neither allocates nor touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's `layout` obligations pass through to `System`.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; the caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation events of this thread so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

const XFER: u64 = 4 * KIB;
/// Transfers written, then read back one by one.
const COUNT: u64 = 64;
/// Reads of the painted window measured.
const WINDOW_READS: u64 = 32;
/// Where the two overlapping extents sit: a chunk of their own, so their
/// tree holds nothing else.
const WINDOW: u64 = 4 * MIB;

/// What a warm read loop allocated, in total: `(one_segment, painted)` —
/// `COUNT` reads of 4 KiB written once, then `WINDOW_READS` reads of a
/// window two overlapping extents answer. Each loop runs once unmeasured
/// first: it builds the trees' indexes and fills the engines' task boxes
/// and reply slabs, the fixed warm-up.
fn census() -> (u64, u64) {
    let mut sim = Sim::new(0xF37C);
    sim.block_on(move |sim| async move {
        // the two-server-node tiny cluster with the failure detector
        // parked: every allocation counted is a read's own
        let mut cfg = ClusterConfig::tiny(1);
        cfg.heartbeat.interval = SimDuration::from_secs(3600);
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
        file.write(&sim, WINDOW + XFER / 2, newer)
            .await
            .expect("write");

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
        (one_segment, painted)
    })
}

/// Check a census: a warm one-segment read allocates nothing, and a warm
/// painted one at most its answer's `Vec`.
fn check((one_segment, painted): (u64, u64)) -> Result<(), String> {
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
    Ok(())
}

#[test]
fn a_warm_fetch_allocates_only_its_answer() {
    let census = census();
    check(census).unwrap_or_else(|e| panic!("{e}: {census:?}"));
}

/// Planted negatives: a reply that built a `Vec` for its one segment, or
/// a painted read that kept scratch of its own (the candidates, the paint
/// loop's buffers), must fail the check, each naming its loop.
#[test]
fn a_vec_per_reply_or_scratch_per_paint_fails_the_check() {
    let vec_per_reply = check((COUNT, WINDOW_READS)).expect_err("a Vec per reply");
    assert!(vec_per_reply.contains("one-segment"), "{vec_per_reply}");
    let scratch_per_paint = check((0, 5 * WINDOW_READS)).expect_err("scratch per paint");
    assert!(scratch_per_paint.contains("painted"), "{scratch_per_paint}");
}
