//! The engine's background services — VOS epoch aggregation and the
//! checksum scrubber — and the state only they mutate. Both reach the
//! rest of the engine through the accessors the request path uses.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use daos_sim::time::SimDuration;
use daos_sim::Sim;

use super::exec::key_oid;
use super::Engine;
use crate::proto::chunk_of_dkey;
use crate::rebuild::{CorruptionHook, CorruptionReport};

#[derive(Default)]
pub(super) struct Background {
    /// Extent-tree records reclaimed by aggregation.
    pub(super) extents_reclaimed: Cell<u64>,
    /// Corrupt chunks the scrubber has found.
    pub(super) scrub_found: Cell<u64>,
    /// Fired for every corrupt chunk the scrubber finds; the cluster
    /// wires this to the targeted-repair path.
    pub(super) on_corruption: RefCell<Option<CorruptionHook>>,
}

/// How often the aggregation service runs on each engine.
const AGGREGATION_INTERVAL: SimDuration = SimDuration::from_secs(5);
/// Overwrite history younger than this is kept for snapshot readers.
const AGGREGATION_RETENTION: SimDuration = SimDuration::from_secs(2);

/// Background VOS aggregation service — DAOS's epoch aggregation: every
/// [`AGGREGATION_INTERVAL`], flatten overwrite history older than
/// [`AGGREGATION_RETENTION`] on each target, reclaiming extent-tree
/// records.
pub(super) async fn aggregation(e: Rc<Engine>, s: Sim) {
    loop {
        s.sleep(AGGREGATION_INTERVAL).await;
        let horizon = s
            .now()
            .as_ns()
            .saturating_sub(AGGREGATION_RETENTION.as_ns());
        for t in 0..e.target_count() {
            let target = Rc::clone(e.target(t));
            for cid in target.container_ids() {
                let got = target.aggregate(cid, horizon) as u64;
                let reclaimed = &e.background.extents_reclaimed;
                reclaimed.set(reclaimed.get() + got);
            }
            // yield so aggregation interleaves with service
            s.yield_now().await;
        }
    }
}

/// Background checksum scrubber: walks every live, non-excluded target's
/// namespace a budgeted batch at a time, finding latent rot before
/// clients do.
pub(super) async fn scrubber(e: Rc<Engine>, s: Sim, interval: SimDuration) {
    loop {
        s.sleep(interval).await;
        if !e.is_alive() {
            continue;
        }
        for t in 0..e.target_count() {
            if e.excludes(t) {
                continue;
            }
            let target = Rc::clone(e.target(t));
            let rep = target.scrub_step(&s, e.cfg.scrub_chunks).await;
            // scrub scans are background-tenant work: charge the scanned
            // bytes against the BG budget so the scrubber paces itself
            // under an active shaper
            if let Some(sh) = e.shaper() {
                sh.throttle_background(&s, rep.bytes).await;
            }
            for f in rep.findings {
                let found = &e.background.scrub_found;
                found.set(found.get() + 1);
                // only array dkeys map to a chunk index the repair path
                // understands
                let Some(chunk) = chunk_of_dkey(&f.dkey) else {
                    continue;
                };
                let report = CorruptionReport {
                    cont: f.cid,
                    oid: key_oid(f.oid),
                    chunk,
                    target: e.index() * e.target_count() + t,
                };
                if let Some(hook) = e.background.on_corruption.borrow().as_ref() {
                    hook(&s, report);
                }
            }
        }
    }
}
