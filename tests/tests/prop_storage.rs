//! Property-based tests over the storage data path: the VOS extent tree
//! against a naive byte-map model, payload slicing laws, placement
//! invariants, and the request-splitting rules of the FUSE and array
//! layers.

use proptest::prelude::*;

use daos_placement::{place, place_width, ObjectClass, ObjectId, PoolMap};
use daos_vos::tree::{ExtentTree, Scratch};
use daos_vos::{csum64, csum64_bytes, Payload, CSUM_SEED};

// ------------------------------------------------------------ extent tree

#[derive(Clone, Debug)]
enum Op {
    Write { off: u64, len: u64, tag: u64 },
    Punch { off: u64, len: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..400, 1u64..120, 0u64..u64::MAX).prop_map(|(off, len, tag)| Op::Write {
            off,
            len,
            tag
        }),
        (0u64..400, 1u64..120).prop_map(|(off, len)| Op::Punch { off, len }),
    ]
}

/// Replay ops into both the real tree and a byte-level model; compare the
/// visible image at several epochs.
fn check_against_model(ops: &[Op], aggregate_at: Option<u64>) {
    let mut tree = ExtentTree::new();
    // model[epoch] not needed: rebuild per query epoch from the op log
    for (i, op) in ops.iter().enumerate() {
        let epoch = i as u64 + 1;
        match op {
            Op::Write { off, len, tag } => tree.insert(*off, epoch, Payload::pattern(*tag, *len)),
            Op::Punch { off, len } => tree.punch(*off, *len, epoch),
        }
    }
    if let Some(upto) = aggregate_at {
        tree.aggregate(upto, &mut Scratch::default());
    }
    let span = 600u64;
    for &query_epoch in &[0u64, ops.len() as u64 / 2, ops.len() as u64] {
        // model
        let mut model: Vec<Option<u8>> = vec![None; span as usize];
        for (i, op) in ops.iter().enumerate() {
            let epoch = i as u64 + 1;
            if epoch > query_epoch {
                break;
            }
            match op {
                Op::Write { off, len, tag } => {
                    let p = Payload::pattern(*tag, *len).materialize();
                    for k in 0..*len {
                        if off + k < span {
                            model[(off + k) as usize] = Some(p[k as usize]);
                        }
                    }
                }
                Op::Punch { off, len } => {
                    for k in 0..*len {
                        if off + k < span {
                            model[(off + k) as usize] = None;
                        }
                    }
                }
            }
        }
        // aggregation below the query epoch must not change visibility
        if aggregate_at.map(|a| a > query_epoch).unwrap_or(false) {
            continue; // image at lower epochs may legally be flattened away
        }
        let mut got: Vec<Option<u8>> = vec![None; span as usize];
        for seg in tree.read(0, span, query_epoch) {
            if let Some(d) = seg.data {
                let m = d.materialize();
                for k in 0..seg.len {
                    got[(seg.offset + k) as usize] = Some(m[k as usize]);
                }
            }
        }
        assert_eq!(got, model, "divergence at epoch {query_epoch}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn extent_tree_matches_byte_model(ops in prop::collection::vec(op_strategy(), 1..40)) {
        check_against_model(&ops, None);
    }

    #[test]
    fn extent_tree_aggregation_preserves_latest_image(
        ops in prop::collection::vec(op_strategy(), 1..40)
    ) {
        // aggregate everything: the image at the final epoch must survive
        check_against_model(&ops, Some(ops.len() as u64));
    }

    #[test]
    fn read_segments_are_sorted_disjoint_and_cover(
        ops in prop::collection::vec(op_strategy(), 1..30),
        qoff in 0u64..300,
        qlen in 1u64..300,
    ) {
        let mut tree = ExtentTree::new();
        for (i, op) in ops.iter().enumerate() {
            match op {
                Op::Write { off, len, tag } =>
                    tree.insert(*off, i as u64 + 1, Payload::pattern(*tag, *len)),
                Op::Punch { off, len } => tree.punch(*off, *len, i as u64 + 1),
            }
        }
        let segs = tree.read(qoff, qlen, u64::MAX);
        let mut cur = qoff;
        for s in &segs {
            prop_assert_eq!(s.offset, cur, "segments must tile in order");
            prop_assert!(s.len > 0);
            if let Some(d) = &s.data {
                prop_assert_eq!(d.len(), s.len);
            }
            cur += s.len;
        }
        prop_assert_eq!(cur, qoff + qlen, "segments must cover the query");
    }
}

// --------------------------------------------------------------- payload

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn payload_slice_composes(seed in any::<u64>(), a in 0u64..200, b in 0u64..200, c in 0u64..100) {
        let p = Payload::pattern(seed, 1000);
        let a_end = (a + 300).min(1000);
        let s1 = p.slice(a, a_end - a);
        let b2 = b.min(s1.len().saturating_sub(1));
        let l2 = (s1.len() - b2).min(c + 1);
        let s2 = s1.slice(b2, l2);
        prop_assert_eq!(
            &s2.materialize()[..],
            &p.materialize()[(a + b2) as usize..(a + b2 + l2) as usize]
        );
    }

    #[test]
    fn pattern_byte_at_agrees_with_materialize(seed in any::<u64>(), len in 1u64..500) {
        let p = Payload::pattern(seed, len);
        let m = p.materialize();
        for i in (0..len).step_by(17) {
            prop_assert_eq!(p.byte_at(i), m[i as usize]);
        }
    }

    /// The checksum is a pure function of a payload's bytes: that of a
    /// slice is that of its own bytes whether or not the parent, an
    /// identical earlier slice, or a corrupted sibling was hashed first.
    #[test]
    fn slice_csum_ignores_what_was_hashed_before(
        seed in any::<u64>(),
        skew in 0u64..64,
        len in 0u64..600,
        off in 0u64..600,
        sublen in 0u64..600,
        warm_parent in any::<bool>(),
        warm_twin in any::<bool>(),
    ) {
        let off = off.min(len);
        let sublen = sublen.min(len - off);
        let parent = Payload::pattern(seed, skew + len).slice(skew, len);
        if warm_parent {
            csum64(CSUM_SEED, &parent);
            csum64(CSUM_SEED, &parent.corrupted());
        }
        if warm_twin {
            csum64(CSUM_SEED, &parent.slice(off, sublen));
        }
        let s = parent.slice(off, sublen);
        let want = csum64_bytes(CSUM_SEED, &s.materialize());
        prop_assert_eq!(csum64(CSUM_SEED, &s), want);
        // and again, and from a clone
        prop_assert_eq!(csum64(CSUM_SEED, &s), want);
        prop_assert_eq!(csum64(CSUM_SEED, &s.clone()), want);
        if sublen > 0 {
            prop_assert_ne!(csum64(CSUM_SEED, &s.corrupted()), want);
        }
    }
}

// -------------------------------------------------------------- placement

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn placement_deterministic_and_valid(
        hi in any::<u64>(), lo in any::<u64>(),
        engines in 1u32..20, tpe in 1u32..10,
        class_pick in 0usize..5,
        excluded in prop::collection::btree_set(0u32..200, 0..4),
    ) {
        let classes = [ObjectClass::S1, ObjectClass::S2, ObjectClass::S8,
                       ObjectClass::SX, ObjectClass::RP_2GX];
        let mut map = PoolMap::new(engines, tpe);
        let total = map.target_count();
        for &t in excluded.iter().filter(|&&t| t < total) {
            if map.active_target_count() > 1 {
                map.exclude(t);
            }
        }
        let class = classes[class_pick];
        let oid = ObjectId::new(hi, lo);
        let a = place(oid, class, &map);
        let b = place(oid, class, &map);
        prop_assert_eq!(&a, &b, "placement must be deterministic");
        prop_assert_eq!(a.width(), place_width(class, &map));
        for t in a.targets() {
            prop_assert!(t < map.target_count());
            prop_assert!(!map.is_excluded(t), "shard on excluded target");
        }
        match class {
            ObjectClass::Replicated { .. } | ObjectClass::ErasureCoded { .. } => {
                // the protected-class invariant is fault-domain spread: each
                // group's cells sit on distinct engines while enough engines
                // have active targets
                let live = (0..map.engine_count())
                    .filter(|&e| map.active_targets_on_engine(e) > 0)
                    .count();
                let w = class.group_width() as usize;
                let shards: Vec<_> = a.targets().collect();
                for group in shards.chunks(w) {
                    let engines: std::collections::BTreeSet<_> =
                        group.iter().map(|&t| map.engine_of(t)).collect();
                    prop_assert_eq!(engines.len(), w.min(live), "group {:?}", group);
                }
            }
            _ => {
                // sharded classes: distinct targets when there is room
                if a.width() <= map.active_target_count() {
                    let set: std::collections::BTreeSet<_> = a.targets().collect();
                    prop_assert_eq!(set.len(), a.width() as usize);
                }
            }
        }
    }
}

// ---------------------------------------------------- splitting invariants

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fuse_split_tiles_exactly(max_req in 1u64..(4<<20), off in 0u64..(8<<20), len in 1u64..(8<<20)) {
        let pieces = daos_dfuse::split_aligned(max_req, off, len);
        let mut cur = off;
        for (poff, plen) in &pieces {
            prop_assert_eq!(*poff, cur);
            prop_assert!(*plen > 0 && *plen <= max_req);
            // a piece may only end early at an aligned boundary
            if poff + plen != off + len {
                prop_assert_eq!((poff + plen) % max_req, 0);
            }
            cur += plen;
        }
        prop_assert_eq!(cur, off + len);
    }

    #[test]
    fn interleave_check_matches_naive(ranges in prop::collection::vec((0u64..1000, 1u64..200), 0..8)) {
        let naive = {
            let mut bad = false;
            let mut prev_end = 0u64;
            for (off, len) in &ranges {
                if *off < prev_end { bad = true; }
                prev_end = prev_end.max(off + len);
            }
            bad
        };
        prop_assert_eq!(daos_mpiio::is_interleaved(&ranges), naive);
    }

    #[test]
    fn assemble_covers_exactly(off in 0u64..1000, len in 1u64..500, tag in any::<u64>()) {
        let segs = vec![daos_vos::tree::ReadSeg {
            offset: off,
            len,
            data: Some(Payload::pattern(tag, len)),
        }];
        let p = daos_mpiio::assemble(&segs, off, len);
        prop_assert_eq!(p.len(), len);
        prop_assert_eq!(p.materialize(), Payload::pattern(tag, len).materialize());
    }
}
