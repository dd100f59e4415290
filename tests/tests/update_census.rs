//! The allocation census of an update, exact to the count: a chunk
//! written in one piece costs VOS no allocation of its own. The stack
//! writes every array chunk under a dkey of its own with the one akey
//! `"0"`, so a full-chunk update into a fresh dkey stores one akey holding
//! one extent, and both sit inline — in the dkey's slot and in the akey's
//! tree. The only allocations N such updates make are the nodes the
//! object's dkey map grows by, the same count as N ascending inserts into
//! any `BTreeMap`. A second akey under one dkey, or a second extent in one
//! tree, spills its list to a `Vec` of four slots once; the third and
//! fourth fit, and the fifth grows it as a `Vec` would.
//!
//! Counted by the per-thread census allocator (`counting_alloc`).

#![deny(clippy::undocumented_unsafe_blocks)]

mod counting_alloc;

use std::collections::BTreeMap;
use std::rc::Rc;

use daos_media::{Dcpmm, DcpmmConfig, MediaSet};
use daos_sim::units::MIB;
use daos_sim::Sim;
use daos_vos::{Payload, VosConfig, VosTarget};

use counting_alloc::allocs;

/// Full-chunk updates measured, each into a fresh dkey.
const CHUNKS: u64 = 64;
const CONT: u64 = 1;
const OBJ: u128 = 7;

/// The dkey of chunk `k`: big-endian, so chunks sort in index order and
/// each update appends to the dkey map, as an array's do.
fn dkey(k: u64) -> [u8; 8] {
    k.to_be_bytes()
}

/// What each measured step allocated.
#[derive(Debug, PartialEq, Eq)]
struct Census {
    /// `CHUNKS` full-chunk updates into fresh dkeys of an existing object.
    updates: u64,
    /// Akeys `"1"`, `"3"`, `"2"`, `"4"` added, one at a time, beside
    /// `"0"` under one dkey.
    akeys: [u64; 4],
    /// A second to fifth extent written into one chunk's tree, one at a
    /// time.
    extents: [u64; 4],
}

/// Take the census on an SCM-only target. Chunk 0 of the object and a
/// burst of updates to another object come first, unmeasured: they create
/// the container and the object and warm the media's queues.
fn census() -> Census {
    let scm = Dcpmm::new("pm", DcpmmConfig::default());
    let target = VosTarget::new(MediaSet::scm_only(scm), VosConfig::default());
    let mut sim = Sim::new(0x0CE5);
    sim.block_on(move |sim| async move {
        let t = &target;
        let update = |oid: u128, dkey: [u8; 8], akey: &'static [u8], offset: u64| {
            let (sim, t) = (sim.clone(), Rc::clone(t));
            async move {
                let epoch = t.next_epoch();
                let data = Payload::pattern(epoch, MIB);
                let before = allocs();
                t.update_array(&sim, CONT, oid, &dkey, akey, offset, epoch, data)
                    .await
                    .expect("an array akey takes an array update");
                allocs() - before
            }
        };
        for k in 0..CHUNKS {
            update(OBJ + 1, dkey(k), b"0", 0).await;
        }
        update(OBJ, dkey(0), b"0", 0).await;

        let mut updates = 0;
        for k in 1..=CHUNKS {
            updates += update(OBJ, dkey(k), b"0", 0).await;
        }
        let mut akeys = [0; 4];
        for (n, akey) in akeys.iter_mut().zip([b"1", b"3", b"2", b"4"]) {
            *n = update(OBJ, dkey(0), akey, 0).await;
        }
        let mut extents = [0; 4];
        for (n, i) in extents.iter_mut().zip(1..) {
            *n = update(OBJ, dkey(1), b"0", i * MIB).await;
        }
        Census {
            updates,
            akeys,
            extents,
        }
    })
}

/// Allocations of `n` ascending inserts into a `BTreeMap` that holds one
/// key already: the growth of the object's dkey map, whatever its values.
fn map_growth(n: u64) -> u64 {
    let mut map = BTreeMap::from([(0, ())]);
    let before = allocs();
    for k in 1..=n {
        map.insert(k, ());
    }
    allocs() - before
}

#[test]
fn a_chunk_written_in_one_piece_allocates_nothing_of_its_own() {
    let growth = map_growth(CHUNKS);
    assert!(growth > 0, "{CHUNKS} inserts grow a map");
    let want = Census {
        updates: growth,
        akeys: [1, 0, 0, 1],
        extents: [1, 0, 0, 1],
    };
    assert_eq!(census(), want);
}
