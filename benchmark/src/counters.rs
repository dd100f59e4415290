//! Per-layer counts read from public counters, snapshotted at phase
//! boundaries and diffed over the timed section — group (a) of the
//! per-layer metrics, all exact for a seed — and [`TimedSection`], which
//! brackets a repetition's timed section with every measurement taken
//! around it.

use std::collections::BTreeMap;
use std::rc::Rc;

use daos_bench::qos::{NOISY_TENANT, VICTIM_TENANT};
use daos_core::{Cluster, DaosClient, BG_TENANT};
use daos_dfuse::DfuseMount;
use daos_media::Device;
use daos_sim::units::MIB;
use daos_sim::Sim;

use crate::slices::Slicer;
use crate::{alloc, Rep, Values};

/// Everything a snapshot reads from.
pub struct Sources<'a> {
    pub sim: &'a Sim,
    pub cluster: &'a Cluster,
    pub clients: &'a [DaosClient],
    pub dfuse: &'a [Rc<DfuseMount>],
}

/// Cumulative raw counters at one instant.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counters(pub BTreeMap<&'static str, u64>);

impl Counters {
    pub fn snapshot(src: &Sources) -> Counters {
        let mut c = BTreeMap::new();
        let mut add = |k: &'static str, v: u64| *c.entry(k).or_insert(0) += v;
        add("tasks_spawned", src.sim.spawned_total());
        add("sim_ns", src.sim.now().as_ns());
        for e in src.cluster.engines() {
            add("rpcs", e.endpoint().call_count());
            add("server_rx_bytes", src.cluster.fabric.rx_bytes(e.node()));
            add("server_tx_bytes", src.cluster.fabric.tx_bytes(e.node()));
            let adm = e.admission_stats();
            add("admitted", adm.admitted);
            add("shed", adm.shed_queue + adm.shed_bytes);
            let (miss, hit) = e.stream_stats();
            add("stream_miss", miss);
            add("stream_hit", hit);
            for t in 0..e.target_count() {
                let v = e.target(t).counters();
                add("vos_updates", v.updates);
                add("vos_fetches", v.fetches);
                add("vos_index_ops", v.index_ops);
                add("vos_cold_dkey_inserts", v.cold_dkey_inserts);
                add("vos_bytes_written", v.bytes_written);
                add("vos_bytes_read", v.bytes_read);
            }
            // one interleave set per engine, shared by its targets
            let m = e.target(0).media().scm().stats();
            add("media_write_ops", m.write_ops);
            add("media_read_ops", m.read_ops);
            add("media_meta_ops", m.meta_ops);
            add("media_bytes_written", m.bytes_written);
        }
        for cl in src.clients {
            let d = cl.damp_stats();
            add("retries_spent", d.retries_spent);
            add("retries_denied", d.retries_denied);
            add("breaker_fastfail", d.breaker_fastfail);
            add("sheds_seen", d.sheds_seen);
        }
        add(
            "victim_throttle_ns",
            src.cluster.tenant_stats(VICTIM_TENANT).throttle_ns,
        );
        add(
            "noisy_throttle_ns",
            src.cluster.tenant_stats(NOISY_TENANT).throttle_ns,
        );
        add("bg_bytes", src.cluster.tenant_stats(BG_TENANT).bytes);
        for m in src.dfuse {
            add("fuse_requests", m.stats().fuse_requests);
        }
        Counters(c)
    }

    /// Growth of every counter since `earlier`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters(
            self.0
                .iter()
                .map(|(k, v)| (*k, v - earlier.0.get(k).copied().unwrap_or(0)))
                .collect(),
        )
    }

    fn get(&self, k: &str) -> u64 {
        self.0.get(k).copied().unwrap_or(0)
    }

    /// `key=value` pairs for a span annotation.
    pub fn as_args(&self) -> Vec<(String, String)> {
        self.0
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }
}

/// Busy nanoseconds so far of every engine's media write path
/// (`Dcpmm::write_utilization` is busy time ÷ elapsed time since 0).
fn media_write_busy_ns(src: &Sources) -> Vec<f64> {
    let now = src.sim.now();
    src.cluster
        .engines()
        .iter()
        .map(|e| e.target(0).media().scm().write_utilization(now) * now.as_ns() as f64)
        .collect()
}

/// Utilisation of the busiest engine's media write path between two
/// [`media_write_busy_ns`] snapshots `sim_ns` apart.
fn media_write_util_max(before: &[f64], after: &[f64], sim_ns: u64) -> f64 {
    let busiest = after
        .iter()
        .zip(before)
        .map(|(a, b)| a - b)
        .fold(0.0, f64::max);
    busiest / (sim_ns as f64).max(1.0)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// An open timed section: the clock is running.
pub struct TimedSection {
    setup_s: f64,
    slicer: Slicer,
    /// Counters at the start, for phase spans to diff against.
    pub c0: Counters,
    busy0: Vec<f64>,
    allocs0: u64,
}

/// A closed timed section, waiting for the workload's own outcome.
pub struct Measured {
    setup_s: f64,
    slices: Vec<u64>,
    allocs: u64,
    /// Counters at the end, and their growth over the section.
    pub end: Counters,
    pub grown: Counters,
    write_util_max: f64,
}

/// What the workload itself knows about its timed section.
pub struct Outcome {
    pub ops_attempted: u64,
    pub ops_completed: u64,
    /// Simulated seconds the ops took (phase times, or the arrival window).
    pub sim_secs: f64,
    /// Bytes the workload asked to store and that were stored: the base of
    /// the two write-amplification ratios.
    pub user_bytes_written: u64,
}

impl TimedSection {
    /// Everything before this instant is set-up. The slicer's ticker is
    /// spawned before the counter snapshot so it is not billed to the
    /// workload; the allocation count is read last.
    pub fn start(src: &Sources) -> TimedSection {
        let setup_s = crate::since_process_start();
        let slicer = Slicer::start(src.sim);
        TimedSection {
            setup_s,
            slicer,
            c0: Counters::snapshot(src),
            busy0: media_write_busy_ns(src),
            allocs0: alloc::count(),
        }
    }

    pub fn stop(self, src: &Sources) -> Measured {
        let slices = self.slicer.finish();
        let allocs = alloc::count() - self.allocs0;
        let end = Counters::snapshot(src);
        let grown = end.since(&self.c0);
        let write_util_max =
            media_write_util_max(&self.busy0, &media_write_busy_ns(src), grown.get("sim_ns"));
        Measured {
            setup_s: self.setup_s,
            slices,
            allocs,
            end,
            grown,
            write_util_max,
        }
    }
}

impl Measured {
    /// Record the values every workload reports: the dense end-to-end
    /// metrics (bar `ops_ok_frac` and peak RSS, which the parent and the
    /// child shell add) and group (a).
    pub fn report(self, o: Outcome, rep: &mut Rep) {
        rep.put("setup_s", self.setup_s);
        rep.put("host_wall_s", self.slices.iter().sum::<u64>() as f64 / 1e9);
        rep.slices = self.slices;
        rep.put(
            "host_allocs_per_op",
            self.allocs as f64 / o.ops_attempted.max(1) as f64,
        );
        rep.put("ops_attempted", o.ops_attempted as f64);
        rep.put("ops_completed", o.ops_completed as f64);
        rep.put("sim_ops_kps", o.ops_completed as f64 / o.sim_secs / 1e3);
        layer_metrics(
            &self.grown,
            o.ops_attempted,
            o.user_bytes_written,
            self.write_util_max,
            &mut rep.values,
        );
    }
}

/// Group (a) metrics from the counter growth over the timed section.
fn layer_metrics(
    d: &Counters,
    ops: u64,
    user_bytes_written: u64,
    write_util_max: f64,
    out: &mut Values,
) {
    let mib = MIB as f64;
    let mut put = |k: &str, v: f64| {
        out.insert(k.to_string(), v);
    };
    put("sim.tasks_spawned", d.get("tasks_spawned") as f64);
    put("sim.tasks_per_op", ratio(d.get("tasks_spawned"), ops));
    put("sim.simulated_ms", d.get("sim_ns") as f64 / 1e6);
    put("fabric.rpcs", d.get("rpcs") as f64);
    put("fabric.rpcs_per_op", ratio(d.get("rpcs"), ops));
    put(
        "fabric.server_rx_mib",
        d.get("server_rx_bytes") as f64 / mib,
    );
    put(
        "fabric.server_tx_mib",
        d.get("server_tx_bytes") as f64 / mib,
    );
    put("core.engine.admitted", d.get("admitted") as f64);
    put("core.engine.shed", d.get("shed") as f64);
    put(
        "core.engine.stream_hit_ratio",
        ratio(
            d.get("stream_hit"),
            d.get("stream_hit") + d.get("stream_miss"),
        ),
    );
    put("core.client.retries_spent", d.get("retries_spent") as f64);
    put("core.client.retries_denied", d.get("retries_denied") as f64);
    put(
        "core.client.breaker_fastfail",
        d.get("breaker_fastfail") as f64,
    );
    put("core.client.sheds_seen", d.get("sheds_seen") as f64);
    put(
        "core.qos.victim_throttle_ms",
        d.get("victim_throttle_ns") as f64 / 1e6,
    );
    put(
        "core.qos.noisy_throttle_ms",
        d.get("noisy_throttle_ns") as f64 / 1e6,
    );
    put("core.qos.bg_mib", d.get("bg_bytes") as f64 / mib);
    put("vos.updates", d.get("vos_updates") as f64);
    put("vos.fetches", d.get("vos_fetches") as f64);
    put("vos.index_ops", d.get("vos_index_ops") as f64);
    put(
        "vos.cold_dkey_inserts",
        d.get("vos_cold_dkey_inserts") as f64,
    );
    put(
        "vos.write_amp",
        ratio(d.get("vos_bytes_written"), user_bytes_written),
    );
    put("media.write_ops", d.get("media_write_ops") as f64);
    put("media.read_ops", d.get("media_read_ops") as f64);
    put("media.meta_ops", d.get("media_meta_ops") as f64);
    put(
        "media.write_amp",
        ratio(d.get("media_bytes_written"), user_bytes_written),
    );
    put("media.write_util_max", write_util_max);
    put("dfuse.fuse_requests", d.get("fuse_requests") as f64);
    put("dfuse.requests_per_op", ratio(d.get("fuse_requests"), ops));
    // bytes hashed on the data path, for the host-cost attribution
    put(
        "vos.payload_mib",
        (d.get("vos_bytes_written") + d.get("vos_bytes_read")) as f64 / mib,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters(pairs: &[(&'static str, u64)]) -> Counters {
        Counters(pairs.iter().copied().collect())
    }

    #[test]
    fn diff_subtracts_per_key_and_keeps_new_keys() {
        let before = counters(&[("rpcs", 10), ("shed", 2)]);
        let after = counters(&[("rpcs", 25), ("shed", 2), ("vos_updates", 7)]);
        let d = after.since(&before);
        assert_eq!(
            d,
            counters(&[("rpcs", 15), ("shed", 0), ("vos_updates", 7)])
        );
    }

    #[test]
    fn derived_ratios_survive_zero_denominators() {
        let d = counters(&[
            ("tasks_spawned", 40),
            ("rpcs", 20),
            ("vos_bytes_written", 0),
        ]);
        let mut v = Values::new();
        layer_metrics(&d, 10, 0, 0.5, &mut v);
        assert_eq!(v["sim.tasks_per_op"], 4.0);
        assert_eq!(v["fabric.rpcs_per_op"], 2.0);
        assert_eq!(v["vos.write_amp"], 0.0);
        assert_eq!(v["core.engine.stream_hit_ratio"], 0.0);
        assert_eq!(v["media.write_util_max"], 0.5);
        // engine 1 was busy 300 of the 1000 ns between the snapshots
        let util = media_write_util_max(&[100.0, 50.0], &[150.0, 350.0], 1000);
        assert_eq!(util, 0.3);
    }
}
