//! Deterministic parallel job runner for the bench suite.
//!
//! A [`Slate`] is an ordered list of independent jobs — each a label plus
//! a closure that runs one seeded, single-threaded simulation (or any
//! other self-contained computation) and returns a result fragment.
//! [`Slate::run`] fans the jobs across host threads and reduces the
//! results **in submission order**, so every downstream artifact
//! (`BENCH_<name>.json`, CSV tables, drift tables) is byte-identical
//! regardless of thread count or schedule:
//!
//! * each job's seed is fixed at submission time, never derived from the
//!   executing thread or from completion order;
//! * a job runs on exactly one thread from start to finish — a seeded
//!   `Sim` never migrates (the D04 boundary in `DESIGN.md` §8);
//! * the only schedule-dependent output is per-job *wall time*, which is
//!   reported out-of-band ([`JobResult::wall_secs`]) under the documented
//!   D02 waiver and never lands in comparison-bearing report fields.
//!
//! [`Slate::run`] takes the thread count as an argument (`daos-bench
//! --threads`, default `std::thread::available_parallelism`).
//! `threads = 1` executes the slate serially on the calling thread.
//!
//! Panic policy: a panicking job does not poison the slate's scope or
//! deadlock its siblings — the worker catches the unwind, the remaining
//! jobs still run, and [`Slate::run`] reports the first panicking job *in
//! submission order* (deterministic even when several jobs panic) as a
//! [`PanickedJob`] carrying the job's label.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Boxed job body: runs once, on one thread, returns the job's fragment.
type JobFn<'a, T> = Box<dyn FnOnce() -> T + Send + 'a>;

/// One finished job, in submission order.
#[derive(Clone, Debug)]
pub struct JobResult<T> {
    /// Label the job was submitted under.
    pub label: String,
    /// Host wall-clock seconds the job body took on its thread.
    /// Schedule-dependent by nature: provenance only, never merged into
    /// any baseline-compared report field.
    pub wall_secs: f64,
    /// The job's return value.
    pub value: T,
}

/// A job panicked; the slate fails deterministically with its label.
#[derive(Clone, Debug)]
pub struct PanickedJob {
    /// Label of the first panicking job in submission order.
    pub label: String,
    /// Panic payload rendered to text (when it was a string).
    pub message: String,
}

impl std::fmt::Display for PanickedJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job {:?} panicked: {}", self.label, self.message)
    }
}

impl std::error::Error for PanickedJob {}

/// An ordered slate of independent jobs with a deterministic reduction.
pub struct Slate<'a, T> {
    jobs: Vec<(String, JobFn<'a, T>)>,
}

impl<'a, T> Default for Slate<'a, T> {
    fn default() -> Self {
        Slate { jobs: Vec::new() }
    }
}

enum CellState<'a, T> {
    Pending(JobFn<'a, T>),
    /// A worker moved the job out and is running it.
    Running,
    Done(f64, T),
    Panicked(String),
}

impl<'a, T: Send> Slate<'a, T> {
    /// Empty slate.
    pub fn new() -> Self {
        Slate { jobs: Vec::new() }
    }

    /// Append one job. Submission order *is* reduction order.
    pub fn push(&mut self, label: impl Into<String>, job: impl FnOnce() -> T + Send + 'a) {
        self.jobs.push((label.into(), Box::new(job)));
    }

    /// Number of submitted jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the slate is empty.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Run every job across `threads` host threads and return the results
    /// in submission order. `threads <= 1` runs serially on the calling
    /// thread; either way each job body executes on exactly one thread.
    pub fn run(self, threads: usize) -> Result<Vec<JobResult<T>>, PanickedJob> {
        let n_jobs = self.jobs.len();
        let threads = threads.max(1).min(n_jobs.max(1));
        let mut labels = Vec::with_capacity(n_jobs);
        let cells: Vec<Mutex<CellState<'a, T>>> = self
            .jobs
            .into_iter()
            .map(|(label, job)| {
                labels.push(label);
                Mutex::new(CellState::Pending(job))
            })
            .collect();

        // One shared cursor hands out job indices first-come-first-served
        // (cheap work stealing: a long job occupies one thread while the
        // others drain the tail). Claim order affects only wall time —
        // results are read back by index below.
        let next = AtomicUsize::new(0);
        let worker = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n_jobs {
                break;
            }
            let job = match std::mem::replace(&mut *cells[i].lock().unwrap(), CellState::Running) {
                CellState::Pending(job) => job,
                _ => unreachable!("cursor hands each index to exactly one worker"),
            };
            #[expect(
                clippy::disallowed_methods,
                reason = "D02: per-job wall-time provenance; reported out-of-band, never \
                          merged into compared report fields"
            )]
            let t0 = std::time::Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(job));
            let wall = t0.elapsed().as_secs_f64();
            *cells[i].lock().unwrap() = match outcome {
                Ok(value) => CellState::Done(wall, value),
                Err(payload) => CellState::Panicked(panic_text(payload.as_ref())),
            };
        };

        if threads <= 1 {
            // serial fast path: same per-job harness, calling thread only
            worker();
        } else {
            // a worker catches its job's unwind, so the scope never panics
            #[expect(
                clippy::disallowed_methods,
                reason = "D04: the bench harness is the one host-parallelism zone; each \
                          job runs its own single-threaded Sim"
            )]
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(worker);
                }
            });
        }

        // ---- ordered reduction ---------------------------------------
        let mut out = Vec::with_capacity(n_jobs);
        for (cell, label) in cells.into_iter().zip(labels) {
            match cell.into_inner().unwrap() {
                CellState::Done(wall_secs, value) => out.push(JobResult {
                    label,
                    wall_secs,
                    value,
                }),
                CellState::Panicked(message) => return Err(PanickedJob { label, message }),
                CellState::Pending(_) | CellState::Running => {
                    unreachable!("every claimed job stores an outcome before the scope joins")
                }
            }
        }
        Ok(out)
    }
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Ordered reduction under adversarial durations: the job submitted
    /// first is by far the slowest, so with several workers it *finishes*
    /// last — results must still come back in submission order.
    #[test]
    fn long_first_job_still_reduces_in_submission_order() {
        let mut slate = Slate::new();
        slate.push("slow", || {
            std::thread::sleep(Duration::from_millis(80));
            0u64
        });
        for i in 1..8u64 {
            slate.push(format!("fast{i}"), move || {
                std::thread::sleep(Duration::from_millis(1));
                i
            });
        }
        let results = slate.run(4).expect("no panics");
        let values: Vec<u64> = results.iter().map(|r| r.value).collect();
        assert_eq!(values, (0..8).collect::<Vec<u64>>());
        assert_eq!(results[0].label, "slow");
        assert!(results.iter().all(|r| r.wall_secs >= 0.0));
    }

    /// A panicking job fails the slate with its label — and does not
    /// deadlock the scope or stop its siblings from completing.
    #[test]
    fn panicking_job_fails_slate_with_label_without_deadlock() {
        use std::sync::atomic::AtomicU64;
        let completed = AtomicU64::new(0);
        let mut slate = Slate::new();
        slate.push("ok-before", || {
            completed.fetch_add(1, Ordering::SeqCst);
        });
        slate.push("boom", || panic!("injected failure"));
        for i in 0..6 {
            slate.push(format!("ok-after{i}"), || {
                completed.fetch_add(1, Ordering::SeqCst);
            });
        }
        let err = slate.run(3).expect_err("slate must fail");
        assert_eq!(err.label, "boom");
        assert!(err.message.contains("injected failure"));
        // the panic did not take the rest of the slate down with it
        assert_eq!(completed.load(Ordering::SeqCst), 7);
    }

    /// Several panics report the first in *submission* order, not in
    /// completion order.
    #[test]
    fn first_panic_by_submission_order_wins() {
        let mut slate = Slate::new();
        slate.push("late-panic-submitted-first", || {
            std::thread::sleep(Duration::from_millis(40));
            panic!("first submitted");
        });
        slate.push("early-panic-submitted-second", || -> () {
            panic!("finishes first")
        });
        let err = slate.run(2).expect_err("slate must fail");
        assert_eq!(err.label, "late-panic-submitted-first");
    }

    #[test]
    fn empty_slate_returns_empty() {
        let slate: Slate<u32> = Slate::new();
        assert!(slate.is_empty());
        let results = slate.run(8).expect("empty slate cannot fail");
        assert!(results.is_empty());
    }

    #[test]
    fn single_job_runs_on_any_thread_count() {
        for threads in [1, 2, 8] {
            let mut slate = Slate::new();
            slate.push("only", || 42u32);
            let results = slate.run(threads).expect("no panics");
            assert_eq!(results.len(), 1);
            assert_eq!(results[0].value, 42);
            assert_eq!(results[0].label, "only");
        }
    }

    /// Serial (threads = 1) and parallel runs produce the same ordered
    /// (label, value) sequence.
    #[test]
    fn serial_and_parallel_reduce_identically() {
        let build = || {
            let mut slate = Slate::new();
            for i in 0..16u64 {
                // reverse-staggered durations: late submissions finish early
                slate.push(format!("j{i}"), move || {
                    std::thread::sleep(Duration::from_millis(16 - i));
                    i * i
                });
            }
            slate
        };
        let serial: Vec<(String, u64)> = build()
            .run(1)
            .expect("no panics")
            .into_iter()
            .map(|r| (r.label, r.value))
            .collect();
        for threads in [2, 3, 8] {
            let parallel: Vec<(String, u64)> = build()
                .run(threads)
                .expect("no panics")
                .into_iter()
                .map(|r| (r.label, r.value))
                .collect();
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }
}
