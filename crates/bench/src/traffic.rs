//! Open-loop latency/SLO traffic harness: the overload counterpart of the
//! closed-loop IOR figures.
//!
//! Every IOR-style sweep in this crate is *closed-loop*: a fixed rank
//! count issues its next I/O only after the previous one completes, so
//! offered load self-limits at the system's capacity and the knee of the
//! latency/throughput curve is unreachable by construction. This module
//! drives the same simulated cluster *open-loop*: client populations are
//! modeled as deterministic arrival processes (Poisson or bursty, drawn
//! from [`Sim::derive_rng`] streams) whose rate is set as a fraction of
//! nominal engine capacity — including fractions past 100%. Arrivals are
//! aggregated per client node, so a node-level process stands in for the
//! superposition of thousands of logical clients (the Poisson limit of
//! many thin, independent sources) without simulating 10^6 actors.
//!
//! Each `(object class, admission/damping mode, arrival shape, offered
//! load)` point is one independent seeded [`Sim`], so the sweep fans out
//! on the [`crate::exec::Slate`] runner and reduces byte-identically at
//! any thread count. Per point the harness reports offered load, goodput
//! (bytes of *successfully completed* requests over the open-loop
//! window), p50/p99/p999 completion latency from a mergeable
//! [`PercentileSketch`], the engine shed rate, and the client damping
//! counters ([`daos_core::DampStats`]).
//!
//! The qualitative claims ride as machine-checked invariants (R6–R8 in
//! [`crate::invariants`]): p99 grows monotonically with offered load up
//! to the knee; with admission control + damping ON goodput stays within
//! 15% of its peak past the knee; with them OFF the same sweep collapses
//! below half of peak — the retry-storm / buffer-bloat congestion
//! failure the overload work exists to prevent.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use daos_core::{ArrayHandle, Cluster, ClusterConfig, DaosClient, RetryPolicy};
use daos_placement::{ObjectClass, ObjectId};
use daos_sim::time::SimDuration;
use daos_sim::units::{gib_per_sec, GIB, MIB};
use daos_sim::{JoinHandle, PercentileSketch, Sim, SimTime};
use daos_vos::Payload;
use rand::Rng;

use crate::figure::{self, Plan, Scale};
use crate::report::{config_hash, fnv1a, Fragment};

/// Root seed for the traffic sweep; each point salts it with its series
/// name and load so points are independent but reproducible.
pub const TRAFFIC_SEED: u64 = 0x7AF1C;

/// Per-xstream admission queue depth in the admission-ON configuration.
pub const TRAFFIC_QUEUE_CAP: u32 = 12;

/// Engine-wide in-flight payload budget in the admission-ON
/// configuration. 32 MiB drains in ~10.7 ms at the 3 GiB/s engine write
/// path — comfortably inside the 25 ms client deadline, which is the
/// whole point: an admitted request is a request the engine can finish
/// before its client hangs up.
pub const TRAFFIC_INFLIGHT_CAP: u64 = 32 * MIB;

/// Arrival-process shape for one series.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arrivals {
    /// Exponential inter-arrival gaps: the superposition limit of many
    /// thin independent clients.
    Poisson,
    /// Clumps of `burst` back-to-back arrivals separated by exponential
    /// gaps with `burst`× the mean (same average rate, bursty shape) —
    /// the synchronized-checkpoint signature.
    Bursty { burst: u32 },
}

/// One traffic series: object class × overload-protection mode ×
/// arrival shape.
#[derive(Clone, Copy, Debug)]
pub struct TrafficMode {
    pub class: ObjectClass,
    /// `true` = engine admission control + client damping ON.
    pub admission: bool,
    pub arrivals: Arrivals,
}

impl TrafficMode {
    /// Series label, e.g. `S1/ac`, `SX/noac`, `SX/burst`.
    pub fn series(&self) -> String {
        let suffix = match (self.admission, self.arrivals) {
            (true, Arrivals::Bursty { .. }) => "burst",
            (true, Arrivals::Poisson) => "ac",
            (false, _) => "noac",
        };
        format!("{}/{}", self.class, suffix)
    }
}

/// The sweep's series: the hotspot-prone single-shard class and the
/// fully-striped class, each with protection ON and OFF, plus a bursty
/// variant of the striped class (protection ON) to show damping under
/// clumped arrivals.
pub fn traffic_modes() -> Vec<TrafficMode> {
    vec![
        TrafficMode {
            class: ObjectClass::S1,
            admission: true,
            arrivals: Arrivals::Poisson,
        },
        TrafficMode {
            class: ObjectClass::S1,
            admission: false,
            arrivals: Arrivals::Poisson,
        },
        TrafficMode {
            class: ObjectClass::SX,
            admission: true,
            arrivals: Arrivals::Poisson,
        },
        TrafficMode {
            class: ObjectClass::SX,
            admission: false,
            arrivals: Arrivals::Poisson,
        },
        TrafficMode {
            class: ObjectClass::SX,
            admission: true,
            arrivals: Arrivals::Bursty { burst: 8 },
        },
    ]
}

/// Scale knobs for one traffic sweep.
#[derive(Clone, Copy, Debug)]
pub struct TrafficParams {
    /// Client nodes, each running one aggregated arrival process.
    pub client_nodes: u32,
    /// Logical clients each node-level process stands in for (reported
    /// as provenance; the Poisson aggregation makes the actor count a
    /// free parameter).
    pub logical_clients: u64,
    /// Open-loop measurement window (virtual time). Arrivals stop at the
    /// window's end; in-flight requests drain before stats are read.
    pub duration: SimDuration,
    /// Request payload, aligned to the array chunk so one request is one
    /// shard RPC.
    pub req_size: u64,
    /// Arrays per client node (distinct objects → distinct placements).
    pub arrays_per_node: u32,
    /// Chunks per array; requests land on a random chunk.
    pub chunks_per_array: u64,
    /// Offered-load axis, percent of nominal aggregate engine write
    /// bandwidth (past 100 = overload).
    pub loads: &'static [u32],
}

impl TrafficParams {
    /// Full scale: the whole 8-point load axis over a 400 ms window.
    pub fn full() -> Self {
        TrafficParams {
            client_nodes: 4,
            logical_clients: 1 << 20,
            duration: SimDuration::from_ms(400),
            req_size: MIB,
            arrays_per_node: 4,
            chunks_per_array: 1024,
            loads: &[25, 50, 75, 100, 125, 150, 175, 200],
        }
    }

    /// Miniature for the schedule-independence smoke tests.
    pub fn smoke() -> Self {
        TrafficParams {
            client_nodes: 2,
            logical_clients: 1 << 10,
            duration: SimDuration::from_ms(40),
            req_size: MIB,
            arrays_per_node: 2,
            chunks_per_array: 64,
            loads: &[50, 200],
        }
    }
}

/// The traffic testbed: 4 single-engine servers (12 GiB/s nominal write
/// path) and `client_nodes` clients. One engine per server keeps the
/// server NIC (≈11.6 GiB/s per direction) above the engine's share of a
/// 200% offered load — the fabric must not become a second, accidental
/// admission controller upstream of the one under test.
pub fn traffic_cluster(params: &TrafficParams, admission: bool) -> ClusterConfig {
    open_loop_testbed(params.client_nodes, admission)
}

/// [`traffic_cluster`] for `client_nodes` clients: the QoS sweep's testbed
/// starts from it too.
pub(crate) fn open_loop_testbed(client_nodes: u32, admission: bool) -> ClusterConfig {
    let mut cfg = ClusterConfig::nextgenio(client_nodes);
    cfg.server_nodes = 4;
    cfg.engines_per_node = 1;
    if admission {
        cfg.engine.queue_cap = Some(TRAFFIC_QUEUE_CAP);
        cfg.engine.inflight_cap = Some(TRAFFIC_INFLIGHT_CAP);
    }
    cfg
}

/// Client retry policy for one mode. Deadline and attempt count are
/// *identical* across modes so the ON/OFF contrast isolates admission +
/// damping, not patience: both clients wait 25 ms and try 4 times; only
/// the ON client meters its retries and trips breakers.
pub fn traffic_policy(admission: bool) -> RetryPolicy {
    RetryPolicy {
        rpc_timeout: SimDuration::from_ms(25),
        base_backoff: SimDuration::from_us(500),
        max_backoff: SimDuration::from_ms(8),
        max_attempts: 4,
        shed_backoff: SimDuration::from_ms(2),
        retry_budget: if admission { 64 } else { 0 },
        breaker_failures: if admission { 20 } else { 0 },
        breaker_open: SimDuration::from_ms(5),
    }
}

/// Shared accounting for one arrival stream (a traffic point, or one
/// tenant of a QoS point), written by request tasks.
#[derive(Default)]
pub(crate) struct Counters {
    pub(crate) arrivals: Cell<u64>,
    pub(crate) completed: Cell<u64>,
    pub(crate) failed: Cell<u64>,
    pub(crate) good_bytes: Cell<u64>,
    pub(crate) inflight: Cell<u64>,
    pub(crate) latency: RefCell<PercentileSketch>,
}

/// Nominal aggregate engine write bandwidth, bytes/s — the 100% mark of
/// the offered-load axis.
pub(crate) fn nominal_bytes_per_sec(cfg: &ClusterConfig) -> f64 {
    cfg.engine.bulk_write_bw.0 * cfg.engine_count() as f64
}

/// One open-loop arrival process: requests of `req` bytes on a random
/// chunk of a random array, spaced by `arrivals` around `mean_gap_ns`,
/// until `t_end`.
pub(crate) struct OpenLoop {
    pub(crate) arrays: Vec<ArrayHandle>,
    /// Seed of the process's own derived RNG stream. Arrival randomness
    /// must *not* come from the sim's global RNG: backoff jitter in the
    /// client stack draws from the global stream, and the offered
    /// workload must not change shape when the protection mode or the
    /// shaper (and hence the number of jitter draws) changes.
    pub(crate) rng_seed: u64,
    pub(crate) chunks_per_array: u64,
    pub(crate) req: u64,
    pub(crate) mean_gap_ns: f64,
    pub(crate) arrivals: Arrivals,
    /// Issue reads instead of writes.
    pub(crate) reads: bool,
    pub(crate) t_end: SimTime,
}

impl OpenLoop {
    /// Start the process; every request is its own task, accounted into
    /// `counters`. The handle resolves once arrivals stop (requests may
    /// still be in flight: poll `counters.inflight`).
    pub(crate) fn spawn(self, sim: &Sim, counters: &Rc<Counters>) -> JoinHandle<()> {
        let sim = sim.clone();
        let counters = Rc::clone(counters);
        let (clump, stretch) = match self.arrivals {
            Arrivals::Poisson => (1u32, 1.0),
            Arrivals::Bursty { burst } => (burst, burst as f64),
        };
        let (req, reads) = (self.req, self.reads);
        sim.clone().spawn(async move {
            let mut rng = sim.derive_rng(self.rng_seed);
            loop {
                for _ in 0..clump {
                    let ai = rng.gen_range(0..self.arrays.len() as u64) as usize;
                    let chunk = rng.gen_range(0..self.chunks_per_array);
                    let seq = counters.arrivals.get();
                    counters.arrivals.set(seq + 1);
                    counters.inflight.set(counters.inflight.get() + 1);
                    let arr = self.arrays[ai].clone();
                    let sim2 = sim.clone();
                    let c = Rc::clone(&counters);
                    sim.spawn_detached(async move {
                        let start = sim2.now();
                        let outcome = if reads {
                            arr.read(&sim2, chunk * req, req).await.map(|_| ())
                        } else {
                            let data = Payload::pattern(seq, req);
                            arr.write(&sim2, chunk * req, data).await
                        };
                        match outcome {
                            Ok(()) => {
                                let lat = (sim2.now() - start).as_ns();
                                c.completed.set(c.completed.get() + 1);
                                c.good_bytes.set(c.good_bytes.get() + req);
                                c.latency.borrow_mut().add(lat);
                            }
                            Err(_) => c.failed.set(c.failed.get() + 1),
                        }
                        c.inflight.set(c.inflight.get() - 1);
                    });
                }
                // exponential gap: u ∈ [0,1) so 1-u ∈ (0,1] and the
                // log is finite
                let u: f64 = rng.gen();
                let gap = (-(self.mean_gap_ns * stretch) * (1.0 - u).ln()) as u64;
                sim.sleep_ns(gap).await;
                if sim.now() >= self.t_end {
                    break;
                }
            }
        })
    }
}

/// Arrivals stop when every generator has returned; then let the streams'
/// in-flight requests finish (bounded by max_attempts × deadline +
/// backoff) before any counter is read.
pub(crate) async fn drain(sim: &Sim, gens: Vec<JoinHandle<()>>, streams: &[&Counters]) {
    for g in gens {
        g.await;
    }
    while streams.iter().any(|c| c.inflight.get() > 0) {
        sim.sleep_us(200).await;
    }
}

/// Server-side admission over all engines' data planes: `(sheds,
/// admitted)`, a shed being a queue-cap or a byte-cap refusal.
pub(crate) fn admission_totals(cluster: &Cluster) -> (u64, u64) {
    cluster
        .engines()
        .iter()
        .fold((0, 0), |(sheds, admitted), e| {
            let s = e.admission_stats();
            (sheds + s.shed_queue + s.shed_bytes, admitted + s.admitted)
        })
}

/// Run one `(mode, load)` point in a fresh deterministic simulation and
/// record it (the load axis is the scale); R6–R8 and the accounting every
/// cell must close are checked over the whole report by
/// [`crate::invariants::TRAFFIC_CLAIMS`] and
/// [`crate::invariants::TRAFFIC_CELLS`].
pub fn traffic_point(out: &mut Fragment, mode: TrafficMode, load_pct: u32, params: TrafficParams) {
    let series = mode.series();
    let seed = TRAFFIC_SEED ^ fnv1a(series.as_bytes()).rotate_left(17) ^ ((load_pct as u64) << 1);
    let cfg = traffic_cluster(&params, mode.admission);
    let offered_bps = nominal_bytes_per_sec(&cfg) * load_pct as f64 / 100.0;
    let mut sim = Sim::new(seed);
    let (counters, (engine_sheds, admitted), damp) = sim.block_on(move |sim| async move {
        let per_node_bps = offered_bps / params.client_nodes as f64;
        let mean_gap_ns = params.req_size as f64 * 1e9 / per_node_bps;

        let cluster = Cluster::build(&sim, cfg);
        let boot = DaosClient::new(Rc::clone(&cluster), 0);
        let pool = boot.connect(&sim).await.expect("traffic: connect");
        pool.create_container(&sim, 1)
            .await
            .expect("traffic: create container");

        let policy = traffic_policy(mode.admission);
        let mut clients = Vec::new();
        let mut node_arrays = Vec::new();
        for n in 0..params.client_nodes {
            let client = DaosClient::new(Rc::clone(&cluster), n).with_retry(policy);
            let pool = client.connect(&sim).await.expect("traffic: connect");
            let cont = pool
                .open_container(&sim, 1)
                .await
                .expect("traffic: open container");
            let arrays: Vec<_> = (0..params.arrays_per_node)
                .map(|a| {
                    let oid = ObjectId::new(0x7A, (n * params.arrays_per_node + a) as u64);
                    cont.object(oid, mode.class).array(params.req_size)
                })
                .collect();
            clients.push(client);
            node_arrays.push(arrays);
        }

        let counters = Rc::new(Counters::default());
        let t_end = sim.now() + params.duration;
        let mut gens = Vec::new();
        for (n, arrays) in node_arrays.into_iter().enumerate() {
            let process = OpenLoop {
                arrays,
                rng_seed: TRAFFIC_SEED ^ ((n as u64) << 8) ^ ((load_pct as u64) << 32),
                chunks_per_array: params.chunks_per_array,
                req: params.req_size,
                mean_gap_ns,
                arrivals: mode.arrivals,
                reads: false,
                t_end,
            };
            gens.push(process.spawn(&sim, &counters));
        }
        drain(&sim, gens, &[&counters]).await;

        let mut damp = daos_core::DampStats::default();
        for cl in &clients {
            let d = cl.damp_stats();
            damp.retries_spent += d.retries_spent;
            damp.retries_denied += d.retries_denied;
            damp.breaker_fastfail += d.breaker_fastfail;
            damp.sheds_seen += d.sheds_seen;
        }
        (counters, admission_totals(&cluster), damp)
    });

    let lat = counters.latency.borrow();
    let mut rec = |metric: &str, v: f64| out.record(&series, load_pct, metric, v);
    // offered load (arrival rate × request size), GiB/s
    rec("offered_gib_s", offered_bps / GIB as f64);
    // successfully completed bytes over the open-loop window, GiB/s
    let window_secs = params.duration.as_secs_f64();
    rec(
        "goodput_gib_s",
        gib_per_sec(counters.good_bytes.get(), window_secs),
    );
    rec("p50_us", lat.quantile(0.50) as f64 / 1e3);
    rec("p99_us", lat.quantile(0.99) as f64 / 1e3);
    rec("p999_us", lat.quantile(0.999) as f64 / 1e3);
    // engine-side sheds / (sheds + admitted) over the data plane
    rec(
        "shed_rate",
        engine_sheds as f64 / (engine_sheds + admitted).max(1) as f64,
    );
    rec("arrivals", counters.arrivals.get() as f64);
    rec("completed", counters.completed.get() as f64);
    rec("failed", counters.failed.get() as f64);
    rec("engine_sheds", engine_sheds as f64);
    // client-side breaker fast-fails (no wire traffic), all nodes
    rec("breaker_fastfail", damp.breaker_fastfail as f64);
    rec("retries_spent", damp.retries_spent as f64);
    rec("retries_denied", damp.retries_denied as f64);
    rec("logical_clients", params.logical_clients as f64);
}

/// `traffic_sweep`: every series × every offered load, one seeded sim
/// per point (heaviest loads first).
pub fn traffic_plan(scale: Scale) -> Plan {
    let params = match scale {
        Scale::Full => TrafficParams::full(),
        Scale::Smoke => TrafficParams::smoke(),
    };
    let mut cells = Vec::new();
    for mode in traffic_modes() {
        for &load in params.loads.iter().rev() {
            cells.push(figure::Cell::new(
                format!("{}/{load}", mode.series()),
                move |out| traffic_point(out, mode, load, params),
            ));
        }
    }
    Plan {
        config_hash: config_hash(&traffic_cluster(&params, true)),
        cells,
    }
}
