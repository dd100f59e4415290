//! The admission stage of the request pipeline: the gates in front of
//! the xstream FIFOs, and the FIFOs themselves.
//!
//! [`Admission`] owns one semaphore per xstream (the FIFO a request
//! queues on once admitted), the two default-off caps from
//! [`super::EngineConfig`], and every counter they move.

use std::cell::Cell;

use daos_sim::Semaphore;

use crate::proto::DaosError;

/// Admission-control observability counters (see
/// [`super::Engine::admission_stats`]). `shed_queue` and `shed_bytes`
/// stay zero while their gate is disabled; `admitted` and
/// `inflight_bytes` count every data-plane request regardless.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Requests shed at the per-xstream queue-depth gate.
    pub shed_queue: u64,
    /// Requests shed at the engine-wide in-flight-bytes gate.
    pub shed_bytes: u64,
    /// Data-plane requests admitted to an xstream.
    pub admitted: u64,
    /// Bulk payload bytes currently admitted but not yet served.
    pub inflight_bytes: u64,
}

pub(super) struct Admission {
    /// One xstream (FIFO service, one request at a time) per target.
    xstreams: Vec<Semaphore>,
    queue_cap: Option<u32>,
    inflight_cap: Option<u64>,
    stats: Cell<AdmissionStats>,
}

impl Admission {
    pub(super) fn new(xstreams: u32, queue_cap: Option<u32>, inflight_cap: Option<u64>) -> Self {
        Admission {
            xstreams: (0..xstreams).map(|_| Semaphore::new(1)).collect(),
            queue_cap,
            inflight_cap,
            stats: Cell::default(),
        }
    }

    fn note(&self, f: impl FnOnce(&mut AdmissionStats)) {
        let mut stats = self.stats.get();
        f(&mut stats);
        self.stats.set(stats);
    }

    /// The FIFO an admitted request for local target `t` queues on.
    pub(super) fn xstream(&self, t: usize) -> &Semaphore {
        &self.xstreams[t]
    }

    /// The two gates, queue depth before bytes. Every shed is a
    /// header-only `Busy` (`Response::Err` has `bulk_out() == 0`), so it
    /// costs the engine a queue-depth probe and one header on the fabric's
    /// control lane, the cheap lane heartbeats ride on
    /// (`Fabric::message_control`). Note the fabric charges write
    /// bulk on the client's TX path, so a shed saves the engine's queue
    /// slots, service time, and buffer memory — not the sender's wire
    /// time.
    pub(super) fn refuse(&self, t: usize, bulk_in: u64) -> Option<DaosError> {
        let xstream = &self.xstreams[t];
        // waiters plus the request currently in service
        let queued = (xstream.queue_len() + (1 - xstream.available())) as u32;
        if self.queue_cap.is_some_and(|cap| queued >= cap) {
            self.note(|s| s.shed_queue += 1);
            return Some(DaosError::Busy { queued });
        }
        let inflight = self.stats.get().inflight_bytes.saturating_add(bulk_in);
        if bulk_in > 0 && self.inflight_cap.is_some_and(|cap| inflight > cap) {
            self.note(|s| s.shed_bytes += 1);
            return Some(DaosError::Busy { queued });
        }
        None
    }

    /// Count a request past the gates and reserve its write buffer.
    pub(super) fn admit(&self, bulk_in: u64) {
        self.note(|s| {
            s.admitted += 1;
            s.inflight_bytes += bulk_in;
        });
    }

    /// Return an admitted request's write buffer to the budget.
    pub(super) fn release(&self, bulk_in: u64) {
        self.note(|s| s.inflight_bytes = s.inflight_bytes.saturating_sub(bulk_in));
    }

    pub(super) fn stats(&self) -> AdmissionStats {
        self.stats.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daos_sim::Sim;
    use std::rc::Rc;

    fn busy(e: Option<DaosError>) -> bool {
        matches!(e, Some(DaosError::Busy { .. }))
    }

    #[test]
    fn queue_cap_zero_refuses_everything() {
        let a = Admission::new(2, Some(0), None);
        assert!(busy(a.refuse(0, 0)), "header-only request");
        assert!(busy(a.refuse(1, 4096)), "bulk request");
        let s = a.stats();
        assert_eq!((s.shed_queue, s.shed_bytes, s.admitted), (2, 0, 0));
    }

    #[test]
    fn bytes_gate_is_exact_and_ignores_header_only_requests() {
        let a = Admission::new(1, None, Some(100));
        assert!(a.refuse(0, 100).is_none(), "exactly the cap passes");
        assert!(busy(a.refuse(0, 101)), "one byte over is shed");
        a.admit(100);
        assert!(busy(a.refuse(0, 1)), "the budget is spent");
        assert!(a.refuse(0, 0).is_none(), "header-only ops hold no buffer");
        a.admit(0);
        let s = a.stats();
        assert_eq!((s.shed_bytes, s.shed_queue, s.inflight_bytes), (2, 0, 100));

        a.release(0);
        a.release(100);
        assert_eq!(a.stats().inflight_bytes, 0, "release drains to zero");
        assert!(a.refuse(0, 100).is_none(), "and the budget is back");
    }

    /// The depth probe counts the request in service plus the waiters
    /// behind it, and every arrival is exactly one of admitted / shed.
    #[test]
    fn queue_gate_probes_in_service_plus_waiters_and_counters_conserve() {
        let mut sim = Sim::new(1);
        sim.block_on(|sim| async move {
            let a = Rc::new(Admission::new(1, Some(2), None));
            const ARRIVALS: u64 = 5;
            let mut held = Vec::new();
            for i in 0..ARRIVALS {
                match a.refuse(0, 8) {
                    Some(e) => assert_eq!(e, DaosError::Busy { queued: 2 }, "arrival {i}"),
                    None => {
                        a.admit(8);
                        let a2 = Rc::clone(&a);
                        let s = sim.clone();
                        held.push(sim.spawn(async move {
                            let _xs = a2.xstream(0).acquire().await;
                            s.sleep_us(10).await;
                            a2.release(8);
                        }));
                        // let the task reach the FIFO before the next probe
                        sim.yield_now().await;
                    }
                }
            }
            let s = a.stats();
            assert_eq!(
                (s.admitted, s.shed_queue),
                (2, 3),
                "one serving + one waiting"
            );
            assert_eq!(s.admitted + s.shed_queue + s.shed_bytes, ARRIVALS);
            assert_eq!(s.inflight_bytes, 16);
            for h in held {
                h.await;
            }
            assert_eq!(a.stats().inflight_bytes, 0);
            assert!(a.refuse(0, 8).is_none(), "an idle xstream admits again");
        });
    }
}
