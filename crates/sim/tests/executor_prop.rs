//! Property test for the executor's schedule: for *any* random workload of
//! sleeping tasks, events must fire in global `(deadline, registration
//! sequence)` order. The reference below is that schedule reduced to its
//! scheduling decision, in plain code: one global min-heap popped one
//! timer at a time, with each woken task re-arming its next timer (taking
//! the next sequence number) before the following pop. It stays the
//! reference whatever the executor's own timer store is.
//!
//! Some sleeps are raced by a `timeout` that is shorter, longer or exactly
//! as long: such a step registers two timers and the one that loses is
//! dropped — cancelled. The reference removes the loser's `(at, seq)` from
//! its heap; the executor must produce the same events as if the cancelled
//! timer had never been queued.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

use proptest::prelude::*;

use daos_sim::{timeout, Sim, SimDuration};

/// `(fire time, task index, step index)` — the observable event record.
type Event = (u64, usize, usize);

/// One step of a task: sleep `.0` ns, under a `timeout` of `.1` ns if
/// there is one. The step ends at whichever comes first.
type Step = (u64, Option<u64>);

/// The reference schedule, replayed in plain code: timers are
/// ordered by `(deadline, seq)`, seq is assigned at registration, and a
/// popped task re-registers its next step immediately (before the next
/// pop), exactly as `drain_ready` ran between timer pops. A raced step
/// registers the sleep, then the deadline; the first of the two to pop
/// ends the step and takes the other out of the heap.
fn reference_order(workload: &[Vec<Step>]) -> Vec<Event> {
    let mut heap: BinaryHeap<Reverse<(u64, u64, usize, usize)>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut arm = |heap: &mut BinaryHeap<_>, now: u64, t: usize, step: usize| {
        let Some(&(d, limit)) = workload[t].get(step) else {
            return;
        };
        for after in [Some(d), limit].into_iter().flatten() {
            heap.push(Reverse((now + after, seq, t, step)));
            seq += 1;
        }
    };
    for t in 0..workload.len() {
        arm(&mut heap, 0, t, 0);
    }
    let mut events = Vec::new();
    while let Some(Reverse((at, _, t, step))) = heap.pop() {
        events.push((at, t, step));
        heap.retain(|&Reverse((_, _, t2, step2))| (t2, step2) != (t, step));
        arm(&mut heap, at, t, step + 1);
    }
    events
}

/// Run the same workload on the real executor, recording events as each
/// step completes.
fn executor_order(workload: &[Vec<Step>]) -> Vec<Event> {
    let mut sim = Sim::new(0xE0ED);
    let log: Rc<RefCell<Vec<Event>>> = Rc::new(RefCell::new(Vec::new()));
    let l2 = Rc::clone(&log);
    let workload = workload.to_vec();
    sim.block_on(move |sim| async move {
        let mut handles = Vec::new();
        for (t, steps) in workload.into_iter().enumerate() {
            let s = sim.clone();
            let l = Rc::clone(&l2);
            handles.push(sim.spawn(async move {
                for (step, (d, limit)) in steps.into_iter().enumerate() {
                    match limit {
                        Some(limit) => {
                            let won = timeout(&s, SimDuration::from_ns(limit), s.sleep_ns(d)).await;
                            assert_eq!(won.is_some(), d <= limit);
                        }
                        None => s.sleep_ns(d).await,
                    }
                    l.borrow_mut().push((s.now().as_ns(), t, step));
                }
            }));
        }
        for h in handles {
            h.await;
        }
    });
    Rc::try_unwrap(log).expect("all tasks done").into_inner()
}

/// Per-step delay: mostly a few microseconds, sometimes about one
/// microsecond exactly, sometimes milliseconds out, and sometimes minutes
/// to years out, far enough to reach the timer store's high buckets. Ties
/// are likely: short delays repeat.
fn delay() -> impl Strategy<Value = u64> {
    prop_oneof![
        1u64..5_000,
        1u64..5_000,
        1u64..5_000,
        prop_oneof![Just(1024u64), Just(1023), Just(1025), Just(4096)],
        4_000_000u64..20_000_000,
        (1u64 << 40)..(1u64 << 58),
    ]
}

/// A step: two in five are raced by a `timeout` drawn from the same
/// distribution, so either side may win and ties happen.
fn step() -> impl Strategy<Value = Step> {
    let limit = prop_oneof![
        Just(None),
        Just(None),
        Just(None),
        delay().prop_map(Some),
        delay().prop_map(Some),
    ];
    (delay(), limit)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any mix of sleepers fires in exactly the reference heap's
    /// `(deadline, seq)` order, ties, far deadlines and cancelled timers
    /// included.
    #[test]
    fn wheel_schedule_matches_heap_reference(
        workload in prop::collection::vec(
            prop::collection::vec(step(), 0..12),
            1..16,
        ),
    ) {
        let want = reference_order(&workload);
        let got = executor_order(&workload);
        prop_assert_eq!(got, want);
    }
}
