//! Property test for the integrity layer: no interleaving of writes,
//! punches and aggregation may ever make checksum verification fail, and
//! the visible bytes always match a flat byte-array model. Mismatches must
//! come only from injected rot — never from the bookkeeping itself.

use daos_vos::tree::{ExtentTree, Scratch};
use daos_vos::{Epoch, Payload};
use proptest::prelude::*;

const ARENA: usize = 2048; // > max offset (1500) + max len (400)

#[derive(Clone, Debug)]
enum Op {
    Write {
        offset: u64,
        len: u64,
        seed: u64,
        raw: bool,
    },
    Punch {
        offset: u64,
        len: u64,
    },
    Aggregate,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn interleaved_ops_never_fail_verification(
        ops in prop::collection::vec(
            prop_oneof![
                (0u64..1500, 1u64..300, any::<u64>(), any::<bool>())
                    .prop_map(|(offset, len, seed, raw)| Op::Write { offset, len, seed, raw }),
                (0u64..1500, 1u64..400).prop_map(|(offset, len)| Op::Punch { offset, len }),
                Just(Op::Aggregate),
            ],
            1..40,
        ),
    ) {
        let mut t = ExtentTree::new();
        let mut model = vec![0u8; ARENA];
        let mut written = vec![false; ARENA];
        let mut epoch: Epoch = 0;
        for op in &ops {
            epoch += 1;
            match *op {
                Op::Write { offset, len, seed, raw } => {
                    // `raw` picks the heap-backed payload so both hashing
                    // paths (one-shot bytes, chunked pattern) are exercised
                    let p = if raw {
                        Payload::bytes(Payload::pattern(seed, len).materialize().to_vec())
                    } else {
                        Payload::pattern(seed, len)
                    };
                    let bytes = p.materialize().to_vec();
                    t.insert(offset, epoch, p);
                    for i in 0..len as usize {
                        model[offset as usize + i] = bytes[i];
                        written[offset as usize + i] = true;
                    }
                }
                Op::Punch { offset, len } => {
                    t.punch(offset, len, epoch);
                    for w in &mut written[offset as usize..(offset + len) as usize] {
                        *w = false;
                    }
                }
                Op::Aggregate => {
                    // reclaim everything shadowed as of the current epoch;
                    // visibility at the latest epoch must not change
                    t.aggregate(epoch, &mut Scratch::default());
                }
            }
            // every intermediate state verifies clean over its whole span
            let span = t.span(Epoch::MAX).max(1);
            prop_assert!(t.verify_range(0, span, Epoch::MAX, &mut Scratch::default()).is_ok());
        }
        // the surviving bytes still match the flat model exactly
        let span = t.span(Epoch::MAX).max(1);
        let mut got = vec![0u8; ARENA];
        let mut got_mask = vec![false; ARENA];
        for s in t.read(0, span, Epoch::MAX) {
            if let Some(d) = &s.data {
                let m = d.materialize();
                for i in 0..s.len as usize {
                    got[s.offset as usize + i] = m[i];
                    got_mask[s.offset as usize + i] = true;
                }
            }
        }
        for i in 0..ARENA {
            prop_assert!(got_mask[i] == written[i],
                "visibility diverged from model at byte {}", i);
            if written[i] {
                prop_assert!(got[i] == model[i],
                    "content diverged from model at byte {}", i);
            }
        }
    }
}
