//! Noisy-neighbor isolation sweep: the multi-tenant counterpart of the
//! open-loop [`crate::traffic`] harness.
//!
//! Two tenants share the same 4-engine testbed: a latency-sensitive
//! victim issuing small S1 reads at a fixed, modest rate, and a noisy
//! tenant blasting MiB SX writes at an offered load swept past
//! saturation. A third, *background* tenant class ([`daos_core::BG_TENANT`])
//! rides along: the engines' checksum scrubbers scan continuously and —
//! when the shaper is installed — charge their scanned bytes against a
//! small budgeted rate instead of competing unaccounted.
//!
//! Every `(series, load)` point runs twice over the same seed-derived
//! workload: `unshaped` (admission control only — the PR 2 overload
//! protections, which bound queueing but are tenant-blind) and `shaped`
//! (the same gates plus the per-xstream deficit-round-robin + token
//! bucket shaper from `daos_core::qos`, driven by per-tenant QoS
//! classes and pool shard reservations). The contrast isolates *QoS
//! shaping*: cluster, seeds, arrival processes, retry policy and
//! admission caps are identical across the two series.
//!
//! Per cell the harness reports victim p50/p99 completion latency,
//! per-tenant goodput and demand-satisfaction, the Jain fairness index
//! over tenant satisfactions, and the background tenant's charged bytes
//! against its budget. The qualitative claims ride as machine-checked
//! invariants (R9–R11 in [`crate::invariants`]): shaping cuts victim
//! p99 at least in half at every overload point, never degrades Jain
//! fairness, and keeps background work inside its budget.

use std::rc::Rc;

use daos_core::{Cluster, ClusterConfig, DaosClient, QosClass, QosParams, RetryPolicy, BG_TENANT};
use daos_placement::{ObjectClass, ObjectId, TargetId};
use daos_sim::time::SimDuration;
use daos_sim::units::{KIB, MIB};
use daos_sim::Sim;
use daos_vos::Payload;

use crate::figure::{Cell, Plan, Scale};
use crate::report::{config_hash, fnv1a, Fragment};
use crate::traffic::{
    admission_totals, drain, nominal_bytes_per_sec, open_loop_testbed, traffic_policy, Arrivals,
    Counters, OpenLoop,
};

/// Root seed for the QoS sweep; each point salts it with its series name
/// and load so points are independent but reproducible.
pub const QOS_SEED: u64 = 0x0905;

/// The latency-sensitive tenant (small S1 reads).
pub const VICTIM_TENANT: u8 = 1;

/// The saturating tenant (MiB SX writes).
pub const NOISY_TENANT: u8 = 2;

/// Noisy tenant's bandwidth ceiling under shaping, as a fraction of one
/// engine's nominal bulk-write path: caps the aggressor at 60% so the
/// victim's share can never be queued out entirely.
pub const NOISY_BW_FRACTION: f64 = 0.60;

/// Background (scrub/rebuild) tenant budget, bytes/s per engine.
pub const BG_BUDGET_PER_ENGINE: u64 = 48 * MIB;

/// Scale knobs for one QoS sweep.
#[derive(Clone, Copy, Debug)]
pub struct QosSweepParams {
    /// Client nodes running the victim's arrival process.
    pub victim_nodes: u32,
    /// Client nodes running the noisy tenant's arrival process.
    pub noisy_nodes: u32,
    /// Open-loop measurement window (virtual time).
    pub duration: SimDuration,
    /// Victim request size (small, latency-sensitive reads).
    pub victim_req: u64,
    /// Noisy request size (bulk writes, one shard RPC each).
    pub noisy_req: u64,
    /// Victim offered load, percent of nominal aggregate write bandwidth
    /// (fixed and modest — the victim never saturates anything itself).
    pub victim_load_pct: u32,
    /// Arrays per client node (victim arrays are S1: one target each).
    pub arrays_per_node: u32,
    /// Chunks per array; requests land on a random chunk.
    pub chunks_per_array: u64,
    /// Noisy offered-load axis, percent of nominal aggregate engine
    /// write bandwidth (past 100 = overload).
    pub loads: &'static [u32],
}

impl QosSweepParams {
    /// Full scale: a 150 ms window over the whole 4-point load axis.
    pub fn full() -> Self {
        QosSweepParams {
            victim_nodes: 1,
            noisy_nodes: 2,
            duration: SimDuration::from_ms(150),
            victim_req: 64 * KIB,
            noisy_req: MIB,
            victim_load_pct: 5,
            arrays_per_node: 2,
            chunks_per_array: 64,
            loads: &[100, 125, 150, 300],
        }
    }

    /// Miniature for the schedule-independence smoke tests.
    pub fn smoke() -> Self {
        QosSweepParams {
            victim_nodes: 1,
            noisy_nodes: 1,
            duration: SimDuration::from_ms(30),
            victim_req: 64 * KIB,
            noisy_req: MIB,
            victim_load_pct: 5,
            arrays_per_node: 2,
            chunks_per_array: 32,
            loads: &[300],
        }
    }

    /// Total client nodes on the fabric.
    pub fn client_nodes(&self) -> u32 {
        self.victim_nodes + self.noisy_nodes
    }
}

/// The QoS testbed: the traffic sweep's 4 single-engine servers with its
/// admission caps on in both series (the sweep contrasts *shaping*, not
/// admission), checksums + scrubbers on so the background tenant has real
/// work, and a single pool-service replica so tenant-pool metadata is
/// immediately readable.
pub fn qos_cluster(params: &QosSweepParams) -> ClusterConfig {
    let mut cfg = open_loop_testbed(params.client_nodes(), true);
    cfg.svc_replicas = 1;
    cfg.engine.vos.csum_enabled = true;
    cfg.engine.scrub_interval = Some(SimDuration::from_ms(5));
    cfg.engine.scrub_chunks = 16;
    cfg
}

/// Client retry policy: the traffic sweep's admission-ON client, identical
/// across series so the shaped/unshaped contrast isolates the shaper, not
/// client patience.
pub fn qos_policy() -> RetryPolicy {
    traffic_policy(true)
}

/// The shaped series' tenant classes: victim weighted 8× over the noisy
/// tenant, the noisy tenant additionally capped at
/// [`NOISY_BW_FRACTION`] of one engine's write path, and the background
/// class on a small budgeted rate.
pub fn qos_policy_classes(per_engine_write_bps: f64) -> QosParams {
    let noisy_cap = per_engine_write_bps * NOISY_BW_FRACTION;
    QosParams::default()
        .with_class(
            VICTIM_TENANT,
            QosClass {
                weight: 8,
                bw_cap: None,
                burst: 8 * MIB,
            },
        )
        .with_class(
            NOISY_TENANT,
            QosClass {
                weight: 1,
                bw_cap: Some(noisy_cap as u64),
                burst: 2 * MIB,
            },
        )
        .with_class(
            BG_TENANT,
            QosClass {
                weight: 1,
                bw_cap: Some(BG_BUDGET_PER_ENGINE),
                burst: MIB,
            },
        )
}

/// Jain's fairness index over per-tenant shares: `(Σx)² / (n·Σx²)`,
/// 1.0 when all shares are equal, → 1/n as one share dominates.
pub fn jain_index(shares: &[f64]) -> f64 {
    let n = shares.len() as f64;
    let sum: f64 = shares.iter().sum();
    let sq: f64 = shares.iter().map(|x| x * x).sum();
    if sq <= 0.0 {
        return 1.0; // all-zero shares: degenerate but not unfair
    }
    (sum * sum) / (n * sq)
}

/// Run one `(shaped?, load)` point in a fresh deterministic simulation.
///
/// Both series run the *same* seed, cluster, pools and arrival
/// processes; the shaped series additionally installs the per-tenant
/// QoS classes (and pool-reservation weight boosts) on every engine
/// before the measurement window opens. Records the cell (the load axis
/// is the scale); R9–R11 and the accounting every cell must close are
/// checked over the whole report by [`crate::invariants::QOS_CLAIMS`] and
/// [`crate::invariants::QOS_CELLS`].
pub fn qos_point(out: &mut Fragment, shaped: bool, load_pct: u32, params: QosSweepParams) {
    let series = if shaped { "shaped" } else { "unshaped" };
    let seed = QOS_SEED ^ fnv1a(series.as_bytes()).rotate_left(17) ^ ((load_pct as u64) << 1);
    let cfg = qos_cluster(&params);
    let mut sim = Sim::new(seed);
    let (victim, noisy, engine_sheds, bg_bytes, bg_budget_bytes, v_stat, n_stat) =
        sim.block_on(move |sim| async move {
            let nominal_bps = nominal_bytes_per_sec(&cfg);
            let noisy_bps = nominal_bps * load_pct as f64 / 100.0;
            let victim_bps = nominal_bps * params.victim_load_pct as f64 / 100.0;

            let cluster = Cluster::build(&sim, cfg);
            let boot = DaosClient::new(Rc::clone(&cluster), 0);
            let pool = boot.connect(&sim).await.expect("qos: connect");
            pool.create_container(&sim, 1)
                .await
                .expect("qos: create container");

            // Tenant pools through the replicated control plane: the
            // victim's pool reserves every target on engine 0 (its DRR
            // weight is boosted there once the shaper installs), the
            // noisy tenant's pool reserves nothing.
            let victim_reserved: Vec<TargetId> = (0..cluster.cfg.targets_per_engine).collect();
            boot.create_tenant_pool(&sim, 0x11, VICTIM_TENANT, victim_reserved)
                .await
                .expect("qos: victim pool");
            boot.create_tenant_pool(&sim, 0x22, NOISY_TENANT, Vec::new())
                .await
                .expect("qos: noisy pool");

            let policy = qos_policy();
            let mut victim_arrays = Vec::new();
            let mut noisy_arrays = Vec::new();
            for n in 0..params.client_nodes() {
                let is_victim = n < params.victim_nodes;
                let tenant = if is_victim {
                    VICTIM_TENANT
                } else {
                    NOISY_TENANT
                };
                let client = DaosClient::new(Rc::clone(&cluster), n)
                    .with_retry(policy)
                    .with_tenant(tenant);
                let pool = client.connect(&sim).await.expect("qos: connect");
                let cont = pool
                    .open_container(&sim, 1)
                    .await
                    .expect("qos: open container");
                let (class, req) = if is_victim {
                    (ObjectClass::S1, params.victim_req)
                } else {
                    (ObjectClass::SX, params.noisy_req)
                };
                let arrays: Vec<_> = (0..params.arrays_per_node)
                    .map(|a| {
                        let oid = ObjectId::new(0x905, (n * params.arrays_per_node + a) as u64);
                        cont.object(oid, class).array(req)
                    })
                    .collect();
                if is_victim {
                    victim_arrays.push(arrays);
                } else {
                    noisy_arrays.push(arrays);
                }
            }

            // Pre-populate the victim's arrays so its reads have data to
            // find — before the shaper installs and the window opens, so
            // the fill phase is identical across series.
            for arrays in &victim_arrays {
                for arr in arrays {
                    for chunk in 0..params.chunks_per_array {
                        let data = Payload::pattern(chunk, params.victim_req);
                        arr.write(&sim, chunk * params.victim_req, data)
                            .await
                            .expect("qos: prefill");
                    }
                }
            }

            if shaped {
                let per_engine_bps = cluster.cfg.engine.bulk_write_bw.0;
                cluster.apply_qos(qos_policy_classes(per_engine_bps));
            }

            let victim = Rc::new(Counters::default());
            let noisy = Rc::new(Counters::default());
            let t_start = sim.now();
            let t_end = t_start + params.duration;
            let victim_gap_ns =
                params.victim_req as f64 * 1e9 / (victim_bps / params.victim_nodes as f64);
            let noisy_gap_ns =
                params.noisy_req as f64 * 1e9 / (noisy_bps / params.noisy_nodes as f64);
            // one Poisson process per client node: victims read, the
            // noisy tenant writes
            let process = |arrays, node: u64, req, mean_gap_ns, reads| OpenLoop {
                arrays,
                rng_seed: QOS_SEED ^ (node << 8) ^ ((load_pct as u64) << 32),
                chunks_per_array: params.chunks_per_array,
                req,
                mean_gap_ns,
                arrivals: Arrivals::Poisson,
                reads,
                t_end,
            };
            let mut gens = Vec::new();
            for (n, arrays) in victim_arrays.into_iter().enumerate() {
                let p = process(arrays, n as u64, params.victim_req, victim_gap_ns, true);
                gens.push(p.spawn(&sim, &victim));
            }
            for (n, arrays) in noisy_arrays.into_iter().enumerate() {
                let p = process(arrays, n as u64 + 64, params.noisy_req, noisy_gap_ns, false);
                gens.push(p.spawn(&sim, &noisy));
            }
            drain(&sim, gens, &[&victim, &noisy]).await;

            let (sheds, _) = admission_totals(&cluster);
            let bg = cluster.tenant_stats(BG_TENANT);
            // Budget over the *whole* virtual runtime (window + drain):
            // the scrubber keeps charging while stragglers drain, and
            // R11 must bound everything it charged.
            let budget = if shaped {
                let elapsed = (sim.now() - t_start).as_secs_f64();
                let engines = u64::from(cluster.cfg.engine_count());
                let sustained = (BG_BUDGET_PER_ENGINE as f64 * elapsed) as u64;
                engines * (sustained + 2 * MIB)
            } else {
                0
            };
            let v_stat = cluster.tenant_stats(VICTIM_TENANT);
            let n_stat = cluster.tenant_stats(NOISY_TENANT);
            (victim, noisy, sheds, bg.bytes, budget, v_stat, n_stat)
        });

    let window_secs = params.duration.as_secs_f64();
    let mib = MIB as f64;
    let v_lat = victim.latency.borrow();
    let n_lat = noisy.latency.borrow();
    let v_offered = victim.arrivals.get().max(1) * params.victim_req;
    let n_offered = noisy.arrivals.get().max(1) * params.noisy_req;
    let victim_sat = victim.good_bytes.get() as f64 / v_offered as f64;
    let noisy_sat = noisy.good_bytes.get() as f64 / n_offered as f64;
    // Entitlement: the shaped noisy tenant is *due* only its capped
    // rate; the unshaped one (and the victim, never capped) is due its
    // whole demand.
    let n_entitled = if shaped {
        let aggregate_cap =
            cfg.engine.bulk_write_bw.0 * NOISY_BW_FRACTION * cfg.engine_count() as f64;
        n_offered.min((aggregate_cap * window_secs) as u64)
    } else {
        n_offered
    };
    let noisy_ent_share = noisy.good_bytes.get() as f64 / n_entitled.max(1) as f64;

    let mut rec = |metric: &str, v: f64| out.record(series, load_pct, metric, v);
    rec("victim_p50_us", v_lat.quantile(0.50) as f64 / 1e3);
    rec("victim_p99_us", v_lat.quantile(0.99) as f64 / 1e3);
    rec("noisy_p99_us", n_lat.quantile(0.99) as f64 / 1e3);
    rec(
        "victim_goodput_mib_s",
        victim.good_bytes.get() as f64 / mib / window_secs,
    );
    rec(
        "noisy_goodput_mib_s",
        noisy.good_bytes.get() as f64 / mib / window_secs,
    );
    // completed bytes / offered bytes, per tenant
    rec("victim_sat", victim_sat);
    rec("noisy_sat", noisy_sat);
    // Noisy tenant's completed bytes / *entitled* bytes, where the
    // entitlement is its demand clipped by its QoS bandwidth ceiling
    // (= raw demand when unshaped). Raw demand-satisfaction rewards
    // "equal misery": a tenant-blind FIFO starves everyone evenly and
    // scores as fair. Entitlement shares ask the right question — did
    // each tenant get what the policy says it is due?
    rec("noisy_ent_share", noisy_ent_share);
    // Jain fairness index over the two tenants' entitlement shares (the
    // victim is never capped, so its share is `victim_sat`)
    rec("jain", jain_index(&[victim_sat, noisy_ent_share]));
    rec("victim_arrivals", victim.arrivals.get() as f64);
    rec("victim_completed", victim.completed.get() as f64);
    rec("victim_failed", victim.failed.get() as f64);
    rec("noisy_arrivals", noisy.arrivals.get() as f64);
    rec("noisy_completed", noisy.completed.get() as f64);
    rec("noisy_failed", noisy.failed.get() as f64);
    rec("engine_sheds", engine_sheds as f64);
    // background tenant's charged bytes across all engines, against its
    // budget over the cell's whole virtual runtime (both 0 when the
    // shaper is off — nothing accounts them)
    rec("bg_bytes", bg_bytes as f64);
    rec("bg_budget_bytes", bg_budget_bytes as f64);
    // each tenant's cumulative shaper wait across all engines, ms
    rec("victim_throttle_ms", v_stat.throttle_ns as f64 / 1e6);
    rec("noisy_throttle_ms", n_stat.throttle_ns as f64 / 1e6);
}

/// `qos_sweep`: shaped and unshaped series × every noisy load, one seeded
/// sim per point (heaviest loads first).
pub fn qos_plan(scale: Scale) -> Plan {
    let params = match scale {
        Scale::Full => QosSweepParams::full(),
        Scale::Smoke => QosSweepParams::smoke(),
    };
    let mut cells = Vec::new();
    for shaped in [true, false] {
        for &load in params.loads.iter().rev() {
            let series = if shaped { "shaped" } else { "unshaped" };
            cells.push(Cell::new(format!("{series}/{load}"), move |out| {
                qos_point(out, shaped, load, params)
            }));
        }
    }
    Plan {
        config_hash: config_hash(&qos_cluster(&params)),
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jain_index_bounds() {
        assert!((jain_index(&[1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((jain_index(&[1.0, 0.0]) - 0.5).abs() < 1e-12);
        let j = jain_index(&[0.9, 0.3]);
        assert!(j > 0.5 && j < 1.0, "partial imbalance in (0.5, 1): {j}");
        assert!((jain_index(&[0.0, 0.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn series_axes_match_across_scales() {
        // R10 compares shaped vs unshaped cell-by-cell: every scale must
        // run both series over the same load axis.
        for p in [QosSweepParams::full(), QosSweepParams::smoke()] {
            assert!(!p.loads.is_empty());
            assert!(p.victim_nodes >= 1 && p.noisy_nodes >= 1);
            assert!(p.victim_load_pct < 50, "victim must stay modest");
        }
    }
}
