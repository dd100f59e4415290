use super::*;
use crate::Payload;
use daos_media::{Dcpmm, DcpmmConfig};

fn mk_target() -> (Sim, Rc<VosTarget>) {
    let sim = Sim::new(5);
    let scm = Dcpmm::new("pm", DcpmmConfig::default());
    let t = VosTarget::new(MediaSet::scm_only(scm), VosConfig::default());
    (sim, t)
}

#[test]
fn array_round_trip_with_costs() {
    let (mut sim, t) = mk_target();
    sim.block_on(|sim| {
        let t = Rc::clone(&t);
        async move {
            let e = t.next_epoch();
            let p = Payload::pattern(1, 4096);
            t.update_array(
                &sim,
                1,
                42,
                &crate::key("d0"),
                &crate::key("a"),
                0,
                e,
                p.clone(),
            )
            .await
            .unwrap();
            let segs = t
                .fetch_array(&sim, 1, 42, &crate::key("d0"), &crate::key("a"), 0, 4096, e)
                .await
                .expect("clean data verifies");
            assert_eq!(segs.len(), 1);
            assert_eq!(
                segs[0].data.as_ref().unwrap().materialize(),
                p.materialize()
            );
            assert!(sim.now().as_ns() > 0, "ops must cost simulated time");
        }
    });
    let c = t.counters();
    assert_eq!(c.updates, 1);
    assert_eq!(c.fetches, 1);
    assert_eq!(c.bytes_written, 4096);
    assert_eq!(c.bytes_read, 4096);
    assert_eq!(c.obj_creates, 1);
}

#[test]
fn append_path_is_cheaper_than_scatter() {
    let (mut sim, t) = mk_target();
    let (seq_ops, scat_ops) = sim.block_on(|sim| {
        let t = Rc::clone(&t);
        async move {
            let a = crate::key("a");
            // sequential dkeys, contiguous offsets
            let mut seq_ops = 0;
            for i in 0..16u64 {
                let e = t.next_epoch();
                let dk = format!("{:08}", i).into_bytes();
                seq_ops += t
                    .update_array(&sim, 1, 1, &dk, &a, 0, e, Payload::pattern(i, 1024))
                    .await
                    .unwrap();
            }
            // scattered dkeys on a second object (reverse order)
            let mut scat_ops = 0;
            for i in (0..16u64).rev() {
                let e = t.next_epoch();
                let dk = format!("{:08}", i).into_bytes();
                scat_ops += t
                    .update_array(&sim, 1, 2, &dk, &a, 512, e, Payload::pattern(i, 1024))
                    .await
                    .unwrap();
            }
            (seq_ops, scat_ops)
        }
    });
    assert!(
        seq_ops < scat_ops,
        "append path {seq_ops} must beat scatter {scat_ops}"
    );
}

#[test]
fn single_value_round_trip() {
    let (mut sim, t) = mk_target();
    sim.block_on(|sim| {
        let t = Rc::clone(&t);
        async move {
            let e1 = t.next_epoch();
            t.update_single(
                &sim,
                1,
                9,
                &crate::key("d"),
                &crate::key("attr"),
                e1,
                Payload::bytes(vec![1, 2, 3]),
            )
            .await
            .unwrap();
            let e2 = t.next_epoch();
            t.update_single(
                &sim,
                1,
                9,
                &crate::key("d"),
                &crate::key("attr"),
                e2,
                Payload::bytes(vec![9]),
            )
            .await
            .unwrap();
            let v1 = t
                .fetch_single(&sim, 1, 9, &crate::key("d"), &crate::key("attr"), e1)
                .await
                .unwrap()
                .unwrap();
            assert_eq!(&v1.materialize()[..], &[1, 2, 3]);
            let v2 = t
                .fetch_single(&sim, 1, 9, &crate::key("d"), &crate::key("attr"), e2)
                .await
                .unwrap()
                .unwrap();
            assert_eq!(&v2.materialize()[..], &[9]);
        }
    });
    // two upserts of one object: created once
    assert_eq!(t.counters().obj_creates, 1);
}

#[test]
fn fetch_missing_yields_hole() {
    let (mut sim, t) = mk_target();
    sim.block_on(|sim| {
        let t = Rc::clone(&t);
        async move {
            let segs = t
                .fetch_array(
                    &sim,
                    1,
                    7,
                    &crate::key("nope"),
                    &crate::key("a"),
                    0,
                    128,
                    10,
                )
                .await
                .expect("missing akey is a clean hole");
            assert_eq!(segs.len(), 1);
            assert!(segs[0].data.is_none());
        }
    });
}

#[test]
fn punched_object_is_invisible_after_epoch() {
    let (mut sim, t) = mk_target();
    sim.block_on(|sim| {
        let t = Rc::clone(&t);
        async move {
            let e1 = t.next_epoch();
            t.update_array(
                &sim,
                1,
                5,
                &crate::key("d"),
                &crate::key("a"),
                0,
                e1,
                Payload::pattern(1, 64),
            )
            .await
            .unwrap();
            let e2 = t.next_epoch();
            t.punch_object(&sim, 1, 5, e2).await;
            let e3 = t.next_epoch();
            let segs = t
                .fetch_array(&sim, 1, 5, &crate::key("d"), &crate::key("a"), 0, 64, e3)
                .await
                .unwrap();
            assert!(segs[0].data.is_none(), "punched object must read as hole");
            // reads as-of e1 still see it
            let old = t
                .fetch_array(&sim, 1, 5, &crate::key("d"), &crate::key("a"), 0, 64, e1)
                .await
                .unwrap();
            assert!(old[0].data.is_some());
        }
    });
}

/// A wide object's punch visits every target, and most of them never
/// held a shard of it: the visit must leave no empty container behind
/// for aggregation and the scrubber to walk, and still pay for the
/// index lookup it made.
#[test]
fn punching_an_absent_object_creates_nothing_and_still_costs_two_index_writes() {
    let (mut sim, t) = mk_target();
    sim.block_on(|sim| {
        let t = Rc::clone(&t);
        async move {
            let t0 = sim.now();
            t.punch_object(&sim, 9, 5, t.next_epoch()).await;
            let absent = sim.now() - t0;
            assert!(t.container_ids().is_empty(), "{:?}", t.container_ids());

            let (d, a) = (crate::key("d"), crate::key("a"));
            t.update_single(&sim, 9, 5, &d, &a, t.next_epoch(), Payload::bytes(vec![0]))
                .await
                .unwrap();
            let t1 = sim.now();
            t.punch_object(&sim, 9, 5, t.next_epoch()).await;
            assert_eq!(absent, sim.now() - t1, "absent or present, same cost");
            let t2 = sim.now();
            t.media().index_update(&sim, 2).await;
            assert_eq!(absent, sim.now() - t2, "which is two index writes");
            assert_eq!(t.container_ids(), vec![9]);
        }
    });
}

#[test]
fn list_dkeys_returns_sorted() {
    let (mut sim, t) = mk_target();
    let keys = sim.block_on(|sim| {
        let t = Rc::clone(&t);
        async move {
            for name in ["zeta", "alpha", "mid"] {
                let e = t.next_epoch();
                t.update_single(
                    &sim,
                    1,
                    3,
                    &crate::key(name),
                    &crate::key("v"),
                    e,
                    Payload::bytes(vec![0]),
                )
                .await
                .unwrap();
            }
            t.list_dkeys(&sim, 1, 3, t.current_epoch()).await
        }
    });
    assert_eq!(
        keys,
        vec![crate::key("alpha"), crate::key("mid"), crate::key("zeta")]
    );
}

#[test]
fn bit_rot_fails_fetch_and_scrubber_finds_it() {
    let (mut sim, t) = mk_target();
    sim.block_on(|sim| {
        let t = Rc::clone(&t);
        async move {
            // two chunks on one object, one on another
            for (oid, dk) in [(1u128, "c0"), (1, "c1"), (2, "c0")] {
                let e = t.next_epoch();
                t.update_array(
                    &sim,
                    1,
                    oid,
                    &crate::key(dk),
                    &crate::key("0"),
                    0,
                    e,
                    Payload::pattern(e, 2048),
                )
                .await
                .unwrap();
            }
            // clean scrub pass first: everything verifies, time charged
            let before = sim.now();
            let rep = t.scrub_step(&sim, 16).await;
            assert!(rep.wrapped);
            assert_eq!(rep.chunks, 3);
            assert_eq!(rep.bytes, 3 * 2048);
            assert!(rep.findings.is_empty());
            assert!(sim.now() > before, "scrub must charge media time");

            // rot everything; fetch fails, scrub locates all three
            let n = t.inject_bit_rot(1_000_000, 0x1207);
            assert_eq!(n, 3);
            let err = t
                .fetch_array(
                    &sim,
                    1,
                    1,
                    &crate::key("c0"),
                    &crate::key("0"),
                    0,
                    2048,
                    t.current_epoch(),
                )
                .await;
            assert!(err.is_err(), "fetch of rotten chunk must fail verify");
            let rep = t.scrub_step(&sim, 16).await;
            assert_eq!(rep.findings.len(), 3);
            assert!(t.counters().csum_mismatches >= 4);
        }
    });
}

#[test]
fn scrub_cursor_walks_incrementally() {
    let (mut sim, t) = mk_target();
    sim.block_on(|sim| {
        let t = Rc::clone(&t);
        async move {
            for i in 0..5u64 {
                let e = t.next_epoch();
                t.update_array(
                    &sim,
                    1,
                    7,
                    &format!("{i:08}").into_bytes(),
                    &crate::key("0"),
                    0,
                    e,
                    Payload::pattern(i, 256),
                )
                .await
                .unwrap();
            }
            let r1 = t.scrub_step(&sim, 2).await;
            assert_eq!(r1.chunks, 2);
            assert!(!r1.wrapped);
            let r2 = t.scrub_step(&sim, 2).await;
            assert_eq!(r2.chunks, 2);
            assert!(!r2.wrapped);
            let r3 = t.scrub_step(&sim, 2).await;
            assert_eq!(r3.chunks, 1);
            assert!(r3.wrapped, "cursor must wrap at end of namespace");
            // next pass starts over
            let r4 = t.scrub_step(&sim, 16).await;
            assert_eq!(r4.chunks, 5);
            assert!(r4.wrapped);
        }
    });
}

/// A dkey of three akeys, written out of key order, after a dkey of one:
/// a scrub step that stops inside the three resumes there and verifies
/// each remaining akey once, in key order. Every extent is rotten, so each
/// chunk verified is a finding that names it.
#[test]
fn scrub_cursor_resumes_inside_a_dkey_of_three_akeys() {
    let (mut sim, t) = mk_target();
    sim.block_on(|sim| {
        let t = Rc::clone(&t);
        async move {
            for (dkey, akey) in [("a", "0"), ("b", "z"), ("b", "x"), ("b", "y")] {
                let e = t.next_epoch();
                let (dkey, akey) = (crate::key(dkey), crate::key(akey));
                t.update_array(&sim, 1, 7, &dkey, &akey, 0, e, Payload::pattern(e, 64))
                    .await
                    .unwrap();
            }
            assert_eq!(t.inject_bit_rot(1_000_000, 3), 4);
            let named = |rep: &ScrubReport| -> Vec<(Key, Key)> {
                let found = rep.findings.iter();
                found.map(|f| (f.dkey.clone(), f.akey.clone())).collect()
            };
            let first = t.scrub_step(&sim, 2).await;
            assert!(!first.wrapped);
            let rest = t.scrub_step(&sim, 16).await;
            assert!(rest.wrapped);
            let order = [("a", "0"), ("b", "x"), ("b", "y"), ("b", "z")];
            let want: Vec<(Key, Key)> = order
                .iter()
                .map(|&(d, a)| (crate::key(d), crate::key(a)))
                .collect();
            assert_eq!(named(&first), want[..2]);
            assert_eq!(named(&rest), want[2..]);
            assert_eq!((first.chunks, rest.chunks), (2, 2));
            assert_eq!(named(&t.scrub_step(&sim, 16).await), want, "a new pass");
        }
    });
}

#[test]
fn csum_disabled_serves_rotten_bytes_silently() {
    let sim = Sim::new(5);
    let scm = Dcpmm::new("pm", DcpmmConfig::default());
    let cfg = VosConfig {
        csum_enabled: false,
        ..VosConfig::default()
    };
    let t = VosTarget::new(MediaSet::scm_only(scm), cfg);
    let mut sim = sim;
    sim.block_on(|sim| {
        let t = Rc::clone(&t);
        async move {
            let e = t.next_epoch();
            t.update_array(
                &sim,
                1,
                1,
                &crate::key("d"),
                &crate::key("0"),
                0,
                e,
                Payload::pattern(1, 512),
            )
            .await
            .unwrap();
            t.inject_bit_rot(1_000_000, 99);
            let segs = t
                .fetch_array(&sim, 1, 1, &crate::key("d"), &crate::key("0"), 0, 512, e)
                .await
                .expect("verification disabled: rot goes unnoticed");
            assert_ne!(
                segs[0].data.as_ref().unwrap().materialize(),
                Payload::pattern(1, 512).materialize()
            );
        }
    });
}

#[test]
fn aggregate_reclaims_overwrite_history() {
    let (mut sim, t) = mk_target();
    sim.block_on(|sim| {
        let t = Rc::clone(&t);
        async move {
            for _ in 0..10 {
                let e = t.next_epoch();
                t.update_array(
                    &sim,
                    1,
                    8,
                    &crate::key("d"),
                    &crate::key("a"),
                    0,
                    e,
                    Payload::pattern(e, 1024),
                )
                .await
                .unwrap();
            }
            let reclaimed = t.aggregate(1, t.current_epoch());
            assert!(
                reclaimed >= 8,
                "should reclaim shadowed extents: {reclaimed}"
            );
            let segs = t
                .fetch_array(
                    &sim,
                    1,
                    8,
                    &crate::key("d"),
                    &crate::key("a"),
                    0,
                    1024,
                    t.current_epoch(),
                )
                .await
                .expect("aggregated data verifies clean");
            assert_eq!(
                segs.iter()
                    .filter(|s| s.data.is_some())
                    .map(|s| s.len)
                    .sum::<u64>(),
                1024
            );
        }
    });
}

/// An update the akey's shape refuses changes nothing: the next array
/// dkey is classed against the last write that happened.
#[test]
fn a_refused_update_leaves_the_append_cursor() {
    let (mut sim, t) = mk_target();
    sim.block_on(|sim| {
        let t = Rc::clone(&t);
        async move {
            let (a, data) = (crate::key("a"), || Payload::pattern(1, 64));
            let (m, n, z) = (crate::key("m"), crate::key("n"), crate::key("z"));
            t.update_array(&sim, 1, 1, &m, &a, 0, t.next_epoch(), data())
                .await
                .unwrap();
            t.update_single(&sim, 1, 1, &z, &a, t.next_epoch(), data())
                .await
                .unwrap();
            let refused = t
                .update_array(&sim, 1, 1, &z, &a, 0, t.next_epoch(), data())
                .await;
            assert_eq!(refused, Err(VosError::AkeyKind { expected: "array" }));
            t.update_array(&sim, 1, 1, &n, &a, 0, t.next_epoch(), data())
                .await
                .unwrap();
        }
    });
    let c = t.counters();
    assert_eq!((c.hot_dkey_inserts, c.cold_dkey_inserts), (2, 0));
    // m: root 6 + dkey 1 + akey 1 + extent 1; z: dkey 3 + akey 1 + value 1;
    // n, after m: dkey 1 + akey 1 + extent 1
    assert_eq!((c.index_ops, c.updates), (17, 3));
}

/// Every reader applies the one visibility rule: after a punch at `e2`, a
/// reader at `e1` still sees the object, readers at `e2` and later do not,
/// and the scrubber, which reads at the newest epoch, skips it.
#[test]
fn every_reader_agrees_on_punch_visibility() {
    let (mut sim, t) = mk_target();
    sim.block_on(|sim| {
        let t = Rc::clone(&t);
        async move {
            let (d, arr, one) = (crate::key("d"), crate::key("arr"), crate::key("one"));
            let e1 = t.next_epoch();
            t.update_array(&sim, 1, 5, &d, &arr, 0, e1, Payload::pattern(1, 64))
                .await
                .unwrap();
            t.update_single(&sim, 1, 5, &d, &one, e1, Payload::bytes(vec![7]))
                .await
                .unwrap();
            assert_eq!(t.scrub_step(&sim, 16).await.chunks, 1);
            let e2 = t.next_epoch();
            t.punch_object(&sim, 1, 5, e2).await;
            for (epoch, seen) in [(e1, true), (e2, false), (e2 + 1, false)] {
                let segs = t.fetch_array(&sim, 1, 5, &d, &arr, 0, 64, epoch).await;
                let value = t.fetch_single(&sim, 1, 5, &d, &one, epoch).await;
                let dkeys = t.list_dkeys(&sim, 1, 5, epoch).await;
                let max = t.array_max_chunk(&sim, 1, 5, &arr, epoch).await;
                let seen_by = [
                    segs.unwrap()[0].data.is_some(),
                    value.unwrap().is_some(),
                    !dkeys.is_empty(),
                    max.is_some(),
                ];
                assert_eq!(
                    seen_by, [seen; 4],
                    "fetch_array, fetch_single, list_dkeys, array_max_chunk at {epoch}"
                );
            }
            let after = t.scrub_step(&sim, 16).await;
            assert_eq!((after.chunks, after.wrapped), (0, true));
        }
    });
}

/// The scrubber's walk passes over a punched object whole: of a
/// namespace holding a punched object of 32 array akeys beside a visible
/// one of three array akeys and a single value, it yields only the
/// visible object's four akeys, three of them arrays.
#[test]
fn the_scrubbers_walk_skips_a_punched_object() {
    let (mut sim, t) = mk_target();
    sim.block_on(|sim| {
        let t = Rc::clone(&t);
        async move {
            let e = t.next_epoch();
            for d in 0..4u8 {
                for a in 0..8u8 {
                    let (d, a) = (crate::key([d]), crate::key([a]));
                    t.update_array(&sim, 1, 5, &d, &a, 0, e, Payload::pattern(1, 64))
                        .await
                        .unwrap();
                }
            }
            let d = crate::key("d");
            for a in ["x", "y", "z"] {
                t.update_array(
                    &sim,
                    1,
                    6,
                    &d,
                    &crate::key(a),
                    0,
                    e,
                    Payload::pattern(2, 64),
                )
                .await
                .unwrap();
            }
            t.update_single(
                &sim,
                1,
                6,
                &d,
                &crate::key("one"),
                e,
                Payload::bytes(vec![7]),
            )
            .await
            .unwrap();
            t.punch_object(&sim, 1, 5, t.next_epoch()).await;
        }
    });
    let mut conts = t.containers.borrow_mut();
    assert_eq!(walk(conts.iter_mut(), None, false).count(), 36);
    let (mut akeys, mut arrays) = (0, 0);
    for ((_, oid, ..), visible, ak) in walk(conts.iter_mut(), None, true) {
        assert!(visible && oid == 6, "the walk reached object {oid}");
        akeys += 1;
        arrays += usize::from(ak.array().is_ok());
    }
    assert_eq!((akeys, arrays), (4, 3));
}

/// A scrub step's chunks found by the rule steps used before `walk` took
/// a start: walk the whole namespace and drop every chunk at or before
/// the cursor. Returns the chunks a step of `budget` verifies and whether
/// it ends the pass.
fn scrub_reference(t: &VosTarget, budget: usize) -> (Vec<(ContId, ObjKey, Key, Key)>, bool) {
    let cursor = t.scrub_cursor.borrow().clone();
    let mut conts = t.containers.borrow_mut();
    let mut todo = walk(conts.iter_mut(), None, false)
        .filter(|(_, visible, ak)| *visible && ak.array().is_ok())
        .map(|((cid, oid, dkey, akey), ..)| (cid, oid, dkey.clone(), akey.clone()))
        .filter(|coord| cursor.as_ref().is_none_or(|c| coord > c));
    let batch = todo.by_ref().take(budget).collect();
    (batch, todo.next().is_none())
}

/// Property: over random namespaces — several containers and objects,
/// dkeys of several akeys, single values, punched objects — with updates
/// and punches between steps of random budgets, every scrub step verifies
/// exactly the chunks of [`scrub_reference`] and ends the pass on the same
/// step.
#[test]
fn scrub_steps_match_the_filter_after_walk_reference() {
    let mut rng = proptest::test_runner::TestRng::new(0x5C2B);
    let (mut resumed, mut ended) = (0, 0);
    for _ in 0..64 {
        let (mut sim, t) = mk_target();
        // kind (0-3 a step, 4 a punch, 5 a single value, else an array
        // extent), container, object, dkey, akey, budget - 1
        let ops: Vec<[u64; 6]> = (0..rng.below(80) + 1)
            .map(|_| [10, 3, 4, 5, 3, 5].map(|n| rng.below(n)))
            .collect();
        let (r, e) = sim.block_on(|sim| async move {
            let (mut resumed, mut ended) = (0, 0);
            for [kind, cid, oid, dkey, akey, budget] in ops {
                let oid = ObjKey::from(oid);
                let (dkey, akey) = (crate::key([dkey as u8]), crate::key([b'a' + akey as u8]));
                let e = t.next_epoch();
                match kind {
                    0..=3 => {
                        let budget = budget as usize + 1;
                        let (want, ends) = scrub_reference(&t, budget);
                        let rep = t.scrub_step(&sim, budget).await;
                        assert_eq!(*t.scrub_batch.borrow(), want);
                        assert_eq!((rep.chunks, rep.wrapped), (want.len() as u64, ends));
                        *if ends { &mut ended } else { &mut resumed } += 1;
                    }
                    4 => t.punch_object(&sim, cid, oid, e).await,
                    5 => {
                        let value = Payload::bytes(vec![1]);
                        let _ = t
                            .update_single(&sim, cid, oid, &dkey, &akey, e, value)
                            .await;
                    }
                    _ => {
                        let extent = Payload::pattern(e, 64);
                        let _ = t
                            .update_array(&sim, cid, oid, &dkey, &akey, 0, e, extent)
                            .await;
                    }
                }
            }
            (resumed, ended)
        });
        (resumed, ended) = (resumed + r, ended + e);
    }
    assert!(
        resumed > 100 && ended > 100,
        "{resumed} resumed, {ended} ended"
    );
}
