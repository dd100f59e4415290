//! Cuts a timed section into slices at fixed simulated-time ticks.
//!
//! The simulator is deterministic, so slice *i* does the same work in
//! every repetition of one (workload, seed), and on a shared host
//! interference only adds time, in bursts of seconds. The parent therefore
//! counts each slice at its fastest over the repetitions: the sum is the
//! timed section's cost with bursts that hit any one repetition filtered
//! out, which the minimum over whole repetitions cannot do when no
//! repetition is quiet from end to end.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use daos_sim::time::SimDuration;
use daos_sim::Sim;

/// Simulated time between cuts: 100–1000 slices per workload.
const TICK: SimDuration = SimDuration::from_ms(1);

pub struct Slicer {
    t0: Instant,
    marks: Rc<RefCell<Vec<u64>>>,
    stop: Rc<Cell<bool>>,
}

impl Slicer {
    /// Start the clock and a ticker task that marks host time at every
    /// tick. The ticker touches no simulated state, so results are
    /// bit-identical with and without it; start it before the counter
    /// snapshot so its one spawn is not billed to the workload.
    pub fn start(sim: &Sim) -> Slicer {
        let marks = Rc::new(RefCell::new(Vec::with_capacity(4096)));
        let stop = Rc::new(Cell::new(false));
        let (sim2, marks2, stop2) = (sim.clone(), Rc::clone(&marks), Rc::clone(&stop));
        let t0 = Instant::now();
        sim.spawn(async move {
            loop {
                sim2.sleep(TICK).await;
                if stop2.get() {
                    break;
                }
                marks2.borrow_mut().push(t0.elapsed().as_nanos() as u64);
            }
        });
        Slicer { t0, marks, stop }
    }

    /// Stop the clock: host ns of every slice, in order; their sum is the
    /// whole timed section.
    pub fn finish(self) -> Vec<u64> {
        let end = self.t0.elapsed().as_nanos() as u64;
        self.stop.set(true);
        let marks = self.marks.borrow();
        let mut prev = 0;
        let mut slices: Vec<u64> = marks
            .iter()
            .map(|&m| {
                let d = m - prev;
                prev = m;
                d
            })
            .collect();
        slices.push(end - prev);
        slices
    }
}

/// Each slice at its fastest over the repetitions, summed; `None` when the
/// repetitions disagree on the number of slices (they must not: the cuts
/// are made in simulated time).
pub fn fastest_sum(reps: &[&[u64]]) -> Option<u64> {
    let first = reps.first()?;
    if reps.iter().any(|r| r.len() != first.len()) {
        return None;
    }
    Some(
        (0..first.len())
            .map(|i| reps.iter().map(|r| r[i]).min().unwrap_or(0))
            .sum(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_cover_the_section_and_follow_simulated_time() {
        let mut sim = Sim::new(1);
        let slices = sim.block_on(|sim| async move {
            let slicer = Slicer::start(&sim);
            sim.sleep_us(3_500).await;
            slicer.finish()
        });
        // cuts at 1, 2 and 3 ms of simulated time, then the tail
        assert_eq!(slices.len(), 4);
    }

    #[test]
    fn fastest_sum_takes_each_slice_from_its_quietest_repetition() {
        // min-of-totals (70, 53, 64) would keep part of each burst
        let reps: [&[u64]; 3] = [&[10, 50, 10], &[30, 12, 11], &[11, 13, 40]];
        assert_eq!(fastest_sum(&reps), Some(10 + 12 + 10));
        assert_eq!(fastest_sum(&[&[5, 5], &[5]]), None);
        assert_eq!(fastest_sum(&[]), None);
    }
}
