//! Property test for dkeys of several akeys. The stack writes one akey
//! under every dkey, so only this test reaches the sorted list a dkey's
//! akeys spill to: random array updates, punches and fetches over up to
//! four akeys under each of two dkeys, created in any order and
//! overwritten, each fetch checked against a `BTreeMap` of byte images.
//! After the ops, one scrub pass verifies every akey once, in key order.

use std::collections::BTreeMap;
use std::rc::Rc;

use daos_media::{Dcpmm, DcpmmConfig, MediaSet};
use daos_sim::Sim;
use daos_vos::{Payload, ReadSeg, VosConfig, VosTarget};
use proptest::prelude::*;

/// Bytes of each akey's address space the ops reach.
const ARENA: u64 = 96;
const CONT: u64 = 1;
const OBJ: u128 = 3;

#[derive(Clone, Debug)]
enum Op {
    Update {
        at: (u8, u8),
        offset: u64,
        len: u64,
        seed: u64,
    },
    Punch {
        at: (u8, u8),
        offset: u64,
        len: u64,
    },
    Fetch {
        at: (u8, u8),
        offset: u64,
        len: u64,
    },
}

/// A dkey (two) and an akey (four) by number: the akeys' bytes sort in
/// the reverse of their numbers, so a list built in number order is built
/// out of key order.
fn keys((d, a): (u8, u8)) -> ([u8; 1], [u8; 1]) {
    ([b'd' + d], [b'z' - a])
}

/// The window `[offset, offset + len)` of a fetch, byte by byte (`None`:
/// a hole).
fn bytes_of(segs: &[ReadSeg], offset: u64, len: u64) -> Vec<Option<u8>> {
    let mut out = vec![None; len as usize];
    for seg in segs {
        if let Some(data) = &seg.data {
            let at = (seg.offset - offset) as usize;
            for (b, &byte) in out[at..].iter_mut().zip(&data.materialize()[..]) {
                *b = Some(byte);
            }
        }
    }
    out
}

fn op() -> impl Strategy<Value = Op> {
    let at = (0u8..2, 0u8..4);
    let range =
        (0..ARENA, 1..ARENA + 1).prop_map(|(offset, len)| (offset, len.min(ARENA - offset)));
    prop_oneof![
        (at.clone(), range.clone(), any::<u64>()).prop_map(|(at, (offset, len), seed)| {
            Op::Update {
                at,
                offset,
                len,
                seed,
            }
        }),
        (at.clone(), range.clone()).prop_map(|(at, (offset, len))| Op::Punch { at, offset, len }),
        (at, range).prop_map(|(at, (offset, len))| Op::Fetch { at, offset, len }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn akeys_of_one_dkey_read_back_as_the_model(ops in prop::collection::vec(op(), 1..48)) {
        let scm = Dcpmm::new("pm", DcpmmConfig::default());
        let t = VosTarget::new(MediaSet::scm_only(scm), VosConfig::default());
        let mut sim = Sim::new(11);
        let ops = Rc::new(ops);
        let (mismatch, model) = sim.block_on(|sim| {
            let (t, ops) = (Rc::clone(&t), Rc::clone(&ops));
            async move {
                // each akey's bytes, `None` where never written or punched
                let mut model: BTreeMap<(u8, u8), Vec<Option<u8>>> = BTreeMap::new();
                for (i, op) in ops.iter().enumerate() {
                    let epoch = t.next_epoch();
                    match *op {
                        Op::Update { at, offset, len, seed } => {
                            let (dkey, akey) = keys(at);
                            let data = Payload::pattern(seed, len);
                            let bytes = data.materialize();
                            t.update_array(&sim, CONT, OBJ, &dkey, &akey, offset, epoch, data)
                                .await
                                .expect("array update");
                            let image = model.entry(at).or_insert_with(|| vec![None; ARENA as usize]);
                            for (b, &byte) in image[offset as usize..].iter_mut().zip(&bytes[..]) {
                                *b = Some(byte);
                            }
                        }
                        Op::Punch { at, offset, len } => {
                            let (dkey, akey) = keys(at);
                            t.punch_array(&sim, CONT, OBJ, &dkey, &akey, offset, len, epoch)
                                .await
                                .expect("array punch");
                            if let Some(image) = model.get_mut(&at) {
                                image[offset as usize..(offset + len) as usize].fill(None);
                            }
                        }
                        Op::Fetch { at, offset, len } => {
                            let (dkey, akey) = keys(at);
                            let segs = t
                                .fetch_array(&sim, CONT, OBJ, &dkey, &akey, offset, len, epoch)
                                .await
                                .expect("a clean fetch");
                            let got = bytes_of(&segs, offset, len);
                            let want = match model.get(&at) {
                                Some(image) => image[offset as usize..(offset + len) as usize].to_vec(),
                                None => vec![None; len as usize],
                            };
                            if got != want {
                                return (Some(format!("op {i} {op:?}: {got:?} != {want:?}")), model);
                            }
                        }
                    }
                }
                (None, model)
            }
        });
        prop_assert!(mismatch.is_none(), "{}", mismatch.unwrap_or_default());

        // every akey written, once each and in key order: rot them all so
        // each chunk the pass verifies is a finding that names it, unless
        // punches left none of its data visible
        let shows_data = |image: &Vec<Option<u8>>| image.iter().any(Option::is_some);
        let mut want: Vec<_> = model
            .iter()
            .filter(|(_, image)| shows_data(image))
            .map(|(&at, _)| keys(at))
            .collect();
        want.sort();
        t.inject_bit_rot(1_000_000, 5);
        let found = sim.block_on(|sim| {
            let t = Rc::clone(&t);
            async move { t.scrub_step(&sim, 8).await }
        });
        prop_assert!(found.wrapped);
        prop_assert_eq!(found.chunks, model.len() as u64);
        let named: Vec<(&[u8], &[u8])> =
            found.findings.iter().map(|f| (&f.dkey[..], &f.akey[..])).collect();
        let written: Vec<(&[u8], &[u8])> = want.iter().map(|(d, a)| (&d[..], &a[..])).collect();
        prop_assert_eq!(named, written);
    }
}
