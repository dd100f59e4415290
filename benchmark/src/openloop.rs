//! The open-loop generator behind `openloop_nominal`, `openloop_overload`
//! and `openloop_qos`.
//!
//! Open loop: each client node runs a Poisson arrival process whose rate is
//! a fixed share of nominal engine write bandwidth, and sends on schedule
//! whether or not earlier requests have completed, so queues can grow and
//! request *latency* (timed from the arrival instant, in simulated time) is
//! a result. The virtual clock means the generator is never late.
//!
//! `daos_bench::traffic_point` / `qos_point` run the same kind of traffic
//! but hard-code their seeds, fuse set-up into the measured call and keep no
//! per-request record; this generator reuses their public cluster and policy
//! helpers so the testbeds cannot drift apart.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use daos_bench::qos::{
    qos_cluster, qos_policy, qos_policy_classes, QosSweepParams, NOISY_TENANT, VICTIM_TENANT,
};
use daos_bench::report::fnv1a;
use daos_bench::traffic::{traffic_cluster, traffic_policy, TrafficParams};
use daos_core::{ArrayHandle, Cluster, ClusterConfig, DaosClient, RetryPolicy};
use daos_placement::{ObjectClass, ObjectId, TargetId};
use daos_sim::time::{SimDuration, SimTime};
use daos_sim::units::{gib_per_sec, KIB, MIB};
use daos_sim::Sim;
use daos_vos::Payload;
use rand::Rng;

use crate::counters::{Counters, Outcome, Sources, TimedSection};
use crate::spans::{SpanId, Tracer, NO_PARENT};
use crate::{Rep, Scale};

/// One tenant's traffic.
#[derive(Clone, Copy, Debug)]
pub struct TenantSpec {
    pub name: &'static str,
    /// QoS tenant id (0 = untagged default class).
    pub tenant: u8,
    pub nodes: u32,
    pub class: ObjectClass,
    pub req: u64,
    /// Offered load, percent of nominal aggregate engine write bandwidth.
    pub load_pct: u32,
    /// Reads of pre-filled arrays instead of writes.
    pub reads: bool,
}

/// One open-loop workload.
#[derive(Clone, Debug)]
pub struct OpenLoopSpec {
    pub name: &'static str,
    pub cluster: ClusterConfig,
    pub policy: RetryPolicy,
    pub window: SimDuration,
    pub arrays_per_node: u32,
    pub chunks_per_array: u64,
    pub tenants: Vec<TenantSpec>,
    /// Declare tenant pools and install the QoS shaper before the window.
    pub shaped: bool,
    /// Tenant whose completion latency is reported (`sim_p50_us`, `sim_p99_us`).
    pub latency_tenant: usize,
    /// Tenant whose goodput is reported (`sim_goodput_gibps`).
    pub goodput_tenant: usize,
}

/// The spec of a named open-loop workload.
pub fn openloop_spec(name: &str, scale: Scale) -> Option<OpenLoopSpec> {
    let smoke = scale == Scale::Smoke;
    match name {
        "openloop_nominal" | "openloop_overload" => {
            let params = if smoke {
                TrafficParams::smoke()
            } else {
                TrafficParams::full()
            };
            let (name, load_pct, window_ms) = if name == "openloop_nominal" {
                ("openloop_nominal", 75, if smoke { 40 } else { 1000 })
            } else {
                ("openloop_overload", 200, if smoke { 40 } else { 400 })
            };
            Some(OpenLoopSpec {
                name,
                cluster: traffic_cluster(&params, true),
                policy: traffic_policy(true),
                window: SimDuration::from_ms(window_ms),
                arrays_per_node: params.arrays_per_node,
                chunks_per_array: params.chunks_per_array,
                tenants: vec![TenantSpec {
                    name: "clients",
                    tenant: 0,
                    nodes: params.client_nodes,
                    class: ObjectClass::SX,
                    req: params.req_size,
                    load_pct,
                    reads: false,
                }],
                shaped: false,
                latency_tenant: 0,
                goodput_tenant: 0,
            })
        }
        "openloop_qos" => {
            let params = if smoke {
                QosSweepParams::smoke()
            } else {
                QosSweepParams::full()
            };
            Some(OpenLoopSpec {
                name: "openloop_qos",
                cluster: qos_cluster(&params),
                policy: qos_policy(),
                window: SimDuration::from_ms(if smoke { 30 } else { 300 }),
                arrays_per_node: params.arrays_per_node,
                chunks_per_array: params.chunks_per_array,
                tenants: vec![
                    TenantSpec {
                        name: "victim",
                        tenant: VICTIM_TENANT,
                        nodes: params.victim_nodes,
                        class: ObjectClass::S1,
                        req: 64 * KIB,
                        load_pct: params.victim_load_pct,
                        reads: true,
                    },
                    TenantSpec {
                        name: "noisy",
                        tenant: NOISY_TENANT,
                        nodes: params.noisy_nodes,
                        class: ObjectClass::SX,
                        req: MIB,
                        load_pct: 300,
                        reads: false,
                    },
                ],
                shaped: true,
                latency_tenant: 0,
                goodput_tenant: 1,
            })
        }
        _ => None,
    }
}

/// Per-tenant accounting, written by request tasks.
#[derive(Default)]
struct Tally {
    arrivals: Cell<u64>,
    completed: Cell<u64>,
    failed: Cell<u64>,
    good_bytes: Cell<u64>,
    /// Completion latency of every successful request, ns.
    latencies: RefCell<Vec<u64>>,
}

fn bump(c: &Cell<u64>, by: u64) {
    c.set(c.get() + by);
}

/// The q-quantile of `sorted` (rank ⌈q·n⌉, 1-based); 0 when empty.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Everything the arrival processes share.
struct Window {
    tracer: Rc<Tracer>,
    span: SpanId,
    t_end: SimTime,
    chunks_per_array: u64,
    inflight: Cell<u64>,
}

/// One node's Poisson arrival process for one tenant.
fn spawn_arrivals(
    sim: &Sim,
    win: &Rc<Window>,
    tally: &Rc<Tally>,
    spec: TenantSpec,
    arrays: Vec<ArrayHandle>,
    rng_tag: u64,
    mean_gap_ns: f64,
) -> daos_sim::JoinHandle<()> {
    let sim = sim.clone();
    let win = Rc::clone(win);
    let tally = Rc::clone(tally);
    sim.clone().spawn(async move {
        // Arrival randomness comes from a stream derived per node, not the
        // sim's global RNG: client backoff jitter draws from the global
        // stream, and the offered workload must not change shape with the
        // number of jitter draws.
        let mut rng = sim.derive_rng(rng_tag);
        loop {
            let arr = arrays[rng.gen_range(0..arrays.len() as u64) as usize].clone();
            let chunk = rng.gen_range(0..win.chunks_per_array);
            let seq = tally.arrivals.get();
            bump(&tally.arrivals, 1);
            bump(&win.inflight, 1);
            let (sim2, win2, tally2) = (sim.clone(), Rc::clone(&win), Rc::clone(&tally));
            sim.spawn(async move {
                let start = sim2.now();
                let span = win2
                    .tracer
                    .begin("request", "core", win2.span, start.as_ns());
                let outcome = if spec.reads {
                    arr.read(&sim2, chunk * spec.req, spec.req)
                        .await
                        .map(|_| ())
                } else {
                    let data = Payload::pattern(seq, spec.req);
                    arr.write(&sim2, chunk * spec.req, data).await
                };
                match outcome {
                    Ok(()) => {
                        bump(&tally2.completed, 1);
                        bump(&tally2.good_bytes, spec.req);
                        tally2
                            .latencies
                            .borrow_mut()
                            .push((sim2.now() - start).as_ns());
                    }
                    Err(_) => bump(&tally2.failed, 1),
                }
                win2.inflight.set(win2.inflight.get() - 1);
                if win2.tracer.enabled() {
                    let outcome = if outcome.is_ok() { "ok" } else { "refused" };
                    win2.tracer.end(
                        span,
                        sim2.now().as_ns(),
                        vec![
                            ("tenant".into(), spec.name.into()),
                            ("outcome".into(), outcome.into()),
                        ],
                    );
                }
            });
            // exponential gap: u ∈ [0,1) so 1-u ∈ (0,1] and the log is finite
            let u: f64 = rng.gen();
            sim.sleep_ns((-mean_gap_ns * (1.0 - u).ln()) as u64).await;
            if sim.now() >= win.t_end {
                break;
            }
        }
    })
}

/// Run one open-loop workload.
pub fn run_openloop(spec: OpenLoopSpec, seed: u64, tracer: &Rc<Tracer>) -> Rep {
    let mut sim = Sim::new(seed ^ fnv1a(spec.name.as_bytes()));
    let tracer = Rc::clone(tracer);
    sim.block_on(move |sim| async move {
        let mut rep = Rep::default();
        let s_setup = tracer.begin("setup", "bench", NO_PARENT, 0);
        let cfg = spec.cluster;
        let nominal_bps = cfg.engine.bulk_write_bw.0 * cfg.engine_count() as f64;
        let cluster = Cluster::build(&sim, cfg);
        let setup = async {
            let boot = DaosClient::new(Rc::clone(&cluster), 0);
            let pool = boot.connect(&sim).await?;
            pool.create_container(&sim, 1).await?;
            if spec.shaped {
                // Tenant pools through the replicated control plane: the
                // latency-sensitive tenant reserves every target of engine 0.
                let reserved: Vec<TargetId> = (0..cfg.targets_per_engine).collect();
                boot.create_tenant_pool(&sim, 0x11, VICTIM_TENANT, reserved)
                    .await?;
                boot.create_tenant_pool(&sim, 0x22, NOISY_TENANT, Vec::new())
                    .await?;
            }
            let mut clients = Vec::new();
            let mut node_arrays: Vec<Vec<Vec<ArrayHandle>>> = Vec::new();
            let mut node = 0u32;
            for t in &spec.tenants {
                let mut per_node = Vec::new();
                for _ in 0..t.nodes {
                    let client = DaosClient::new(Rc::clone(&cluster), node)
                        .with_retry(spec.policy)
                        .with_tenant(t.tenant);
                    let cont = client.connect(&sim).await?.open_container(&sim, 1).await?;
                    let arrays: Vec<ArrayHandle> = (0..spec.arrays_per_node)
                        .map(|a| {
                            let oid =
                                ObjectId::new(0x0BE, u64::from(node * spec.arrays_per_node + a));
                            cont.object(oid, t.class).array(t.req)
                        })
                        .collect();
                    if t.reads {
                        for arr in &arrays {
                            for chunk in 0..spec.chunks_per_array {
                                arr.write(&sim, chunk * t.req, Payload::pattern(chunk, t.req))
                                    .await?;
                            }
                        }
                    }
                    clients.push(client);
                    per_node.push(arrays);
                    node += 1;
                }
                node_arrays.push(per_node);
            }
            if spec.shaped {
                cluster.apply_qos(qos_policy_classes(cfg.engine.bulk_write_bw.0));
            }
            Ok::<_, daos_core::DaosError>((clients, node_arrays))
        };
        let (clients, node_arrays) = match setup.await {
            Ok(v) => v,
            Err(e) => return rep.fail(format!("open-loop set-up: {e:?}")),
        };
        tracer.end(s_setup, sim.now().as_ns(), Vec::new());

        let src = Sources {
            sim: &sim,
            cluster: &cluster,
            clients: &clients,
            dfuse: &[],
        };
        let section = TimedSection::start(&src);
        let t_start = sim.now();
        let win = Rc::new(Window {
            span: tracer.begin("window", "bench", NO_PARENT, t_start.as_ns()),
            tracer: Rc::clone(&tracer),
            t_end: t_start + spec.window,
            chunks_per_array: spec.chunks_per_array,
            inflight: Cell::new(0),
        });
        let tallies: Vec<Rc<Tally>> = spec.tenants.iter().map(|_| Rc::default()).collect();
        let mut gens = Vec::new();
        for (ti, (t, per_node)) in spec.tenants.iter().zip(node_arrays).enumerate() {
            let per_node_bps = nominal_bps * f64::from(t.load_pct) / 100.0 / f64::from(t.nodes);
            let mean_gap_ns = t.req as f64 * 1e9 / per_node_bps;
            for (n, arrays) in per_node.into_iter().enumerate() {
                let tag = ((ti as u64) << 16) | n as u64;
                gens.push(spawn_arrivals(
                    &sim,
                    &win,
                    &tallies[ti],
                    *t,
                    arrays,
                    tag,
                    mean_gap_ns,
                ));
            }
        }
        for g in gens {
            g.await;
        }
        let c1 = Counters::snapshot(&src);
        // Requests complete during the drain too, so `window` spans the
        // whole timed section and `drain` is its child.
        let s_drain = tracer.begin("drain", "bench", win.span, sim.now().as_ns());
        // arrivals have stopped; in-flight requests finish within
        // max_attempts × deadline + backoff
        while win.inflight.get() > 0 {
            sim.sleep_us(200).await;
        }
        let measured = section.stop(&src);
        let now = sim.now().as_ns();
        tracer.end(s_drain, now, measured.end.since(&c1).as_args());
        tracer.end(win.span, now, measured.grown.as_args());

        let (mut arrivals, mut completed, mut written) = (0u64, 0u64, 0u64);
        for (t, tally) in spec.tenants.iter().zip(&tallies) {
            let (a, c, f) = (
                tally.arrivals.get(),
                tally.completed.get(),
                tally.failed.get(),
            );
            if c + f != a {
                rep.failures.push(format!(
                    "{}: accounting open: completed {c} + refused {f} != arrivals {a}",
                    t.name
                ));
            }
            if tally.good_bytes.get() != c * t.req {
                rep.failures.push(format!(
                    "{}: good bytes {} != completed {c} × {}",
                    t.name,
                    tally.good_bytes.get(),
                    t.req
                ));
            }
            arrivals += a;
            completed += c;
            if !t.reads {
                written += tally.good_bytes.get();
            }
            rep.put(&format!("{}.arrivals", t.name), a as f64);
            rep.put(&format!("{}.completed", t.name), c as f64);
        }
        let window_secs = spec.window.as_secs_f64();
        let lat_tally = &tallies[spec.latency_tenant];
        let mut lat = lat_tally.latencies.borrow().clone();
        lat.sort_unstable();
        measured.report(
            Outcome {
                ops_attempted: arrivals,
                ops_completed: completed,
                sim_secs: window_secs,
                user_bytes_written: written,
            },
            &mut rep,
        );
        rep.put(
            "sim_goodput_gibps",
            gib_per_sec(tallies[spec.goodput_tenant].good_bytes.get(), window_secs),
        );
        rep.put("sim_p50_us", quantile(&lat, 0.50) as f64 / 1e3);
        rep.put("sim_p99_us", quantile(&lat, 0.99) as f64 / 1e3);
        rep.put("latency_samples", lat.len() as f64);
        if spec.shaped {
            rep.put(
                "sim_victim_ok_frac",
                lat_tally.completed.get() as f64 / lat_tally.arrivals.get().max(1) as f64,
            );
        }
        // arrivals are scheduled on the virtual clock, which never runs late
        rep.put("generator_late_ns", 0.0);
        rep
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_uses_the_ceiling_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.50), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&v, 1.0), 100);
        assert_eq!(quantile(&v, 0.0), 1);
        assert_eq!(quantile(&[], 0.5), 0);
        assert_eq!(quantile(&[7], 0.99), 7);
    }
}
