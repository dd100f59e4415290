//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` at the repo
//! root is this file rendered by `--print-benchmark-json`; a test keeps
//! the two identical.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Default `--seed`: `daos_bench::figures::FIG1_SEED`, which makes the
/// closed-loop placement salt 0 and so reproduces the committed figure
/// cells.
pub const DEFAULT_SEED: u64 = daos_bench::figures::FIG1_SEED;

/// Seconds one driver run measures for (`run_seconds`).
pub const RUN_SECONDS: u32 = 10;

/// (name, why it is in the set).
pub const WORKLOADS: [(&str, &str); 7] = [
    (
        "ior_easy_dfs",
        "paper headline cell DFS-S2 file-per-process 16x16 ranks 1 MiB: bulk path only (payload hashing, fabric bulk, media); DFuse, HDF5, admission and shaper idle",
    ),
    (
        "ior_hard_hdf5",
        "same bytes through the whole stack (hdf5-mpiio-mpi-dfuse-dfs-core) into one shared SX file: shows gains that cost the upper interfaces or the shared-file path",
    ),
    (
        "ior_rand4k_dfs",
        "393216 random 4 KiB transfers: per-RPC cost with almost no payload (executor, timers, fabric reservations, placement, VOS extent inserts); the IOPS-bound counterpart",
    ),
    (
        "mdtest_dfuse",
        "create/stat/unlink storm through DFuse, no payload at all: DFuse+DFS+KV+VOS single-value path; host time is executor, timers and allocator",
    ),
    (
        "openloop_nominal",
        "open-loop Poisson 1 MiB SX writes at 75 % of nominal bandwidth, below the knee: the one workload whose result is request latency, with nothing refused",
    ),
    (
        "openloop_overload",
        "same generator at 200 %: admission gates, Busy sheds, retry budget and breaker do the work; about half the requests are refused by design",
    ),
    (
        "openloop_qos",
        "two tenants, 64 KiB victim reads at 5 % beside 1 MiB noisy writes at 300 % under the DRR/token-bucket shaper with scrub running: bulk-writer gains that cost readers show here",
    ),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// How a value behaves across repetitions of one (workload, seed).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Simulated result or count: bit-identical across repetitions.
    Exact,
    /// Wall clock, memory: the minimum over repetitions is reported,
    /// because interference only adds.
    Host,
}

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
    /// Allowed worsening as a share of the parent's median; `None` for
    /// per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
}

fn metric(name: &str, unit: &'static str, better: Better, kind: Kind) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        better,
        kind,
        bound: None,
    }
}

/// End-to-end metrics every workload reports (the driver requires every
/// run to print all of them, non-zero). A bound has to exceed the spread
/// the metric shows between seeds on its noisiest workload, which is why
/// these are wider than a same-seed comparison would need: README.md,
/// "Measured spread", has the numbers each was set from.
pub fn end_to_end() -> Vec<Metric> {
    use Better::*;
    use Kind::*;
    let gated = |name, unit, better, kind, bound| Metric {
        bound: Some(bound),
        ..metric(name, unit, better, kind)
    };
    vec![
        gated("setup_s", "s", Lower, Host, 0.25),
        gated("host_wall_s", "s", Lower, Host, 0.25),
        gated("host_peak_rss_mib", "MiB", Lower, Host, 0.15),
        gated("host_allocs_per_op", "count/op", Lower, Exact, 0.08),
        gated("sim_ops_kps", "kops/s", Higher, Exact, 0.15),
        gated("ops_ok_frac", "fraction", Higher, Exact, 0.15),
    ]
}

/// End-to-end results that only one workload family has. The driver's
/// contract wants every bounded metric from every workload, so these ride
/// in the per-layer list (no bound) and are printed by every run of the
/// workloads they apply to; elsewhere they read 0.
pub fn family_results() -> Vec<Metric> {
    use Better::*;
    use Kind::Exact;
    vec![
        metric("sim_write_gibps", "GiB/s", Higher, Exact),
        metric("sim_read_gibps", "GiB/s", Higher, Exact),
        metric("sim_create_kops", "kops/s", Higher, Exact),
        metric("sim_stat_kops", "kops/s", Higher, Exact),
        metric("sim_unlink_kops", "kops/s", Higher, Exact),
        metric("sim_goodput_gibps", "GiB/s", Higher, Exact),
        metric("sim_p50_us", "us", Lower, Exact),
        metric("sim_p99_us", "us", Lower, Exact),
        metric("sim_victim_ok_frac", "fraction", Higher, Exact),
        metric("ops_failed_frac", "fraction", Lower, Exact),
    ]
}

/// Group (a): counts and simulated occupancy over the timed section.
pub fn layer_counts() -> Vec<Metric> {
    use Better::*;
    use Kind::*;
    vec![
        metric("sim.tasks_spawned", "count", Lower, Exact),
        metric("sim.tasks_per_op", "count/op", Lower, Exact),
        metric("sim.simulated_ms", "ms", Lower, Exact),
        metric("fabric.rpcs", "count", Lower, Exact),
        metric("fabric.rpcs_per_op", "count/op", Lower, Exact),
        metric("fabric.server_rx_mib", "MiB", Lower, Exact),
        metric("fabric.server_tx_mib", "MiB", Lower, Exact),
        metric("core.engine.admitted", "count", Higher, Exact),
        metric("core.engine.shed", "count", Lower, Exact),
        metric("core.engine.stream_hit_ratio", "ratio", Higher, Exact),
        metric("core.client.retries_spent", "count", Lower, Exact),
        metric("core.client.retries_denied", "count", Lower, Exact),
        metric("core.client.breaker_fastfail", "count", Lower, Exact),
        metric("core.client.sheds_seen", "count", Lower, Exact),
        metric("core.qos.victim_throttle_ms", "ms", Lower, Exact),
        metric("core.qos.noisy_throttle_ms", "ms", Lower, Exact),
        metric("core.qos.bg_mib", "MiB", Lower, Exact),
        metric("vos.updates", "count", Lower, Exact),
        metric("vos.fetches", "count", Lower, Exact),
        metric("vos.index_ops", "count", Lower, Exact),
        metric("vos.cold_dkey_inserts", "count", Lower, Exact),
        metric("vos.write_amp", "ratio", Lower, Exact),
        metric("media.write_ops", "count", Lower, Exact),
        metric("media.read_ops", "count", Lower, Exact),
        metric("media.meta_ops", "count", Lower, Exact),
        metric("media.write_amp", "ratio", Lower, Exact),
        metric("media.write_util_max", "ratio", Higher, Exact),
        metric("dfuse.fuse_requests", "count", Lower, Exact),
        metric("dfuse.requests_per_op", "count/op", Lower, Exact),
        metric("ior.write_phase.host_s", "s", Lower, Host),
        metric("ior.read_phase.host_s", "s", Lower, Host),
    ]
}

/// Ladder rungs with a 1 MiB write and read each, child before parent.
pub const DATA_RUNGS: [&str; 8] = [
    "media", "vos", "fabric", "core", "dfs", "dfuse", "mpiio", "hdf5",
];

/// Metadata rungs of the ladder.
pub const META_RUNGS: [&str; 10] = [
    "core.kv_put",
    "core.kv_get",
    "core.pool.connect",
    "core.pool.create_container",
    "dfs.create",
    "dfs.stat",
    "dfs.unlink",
    "dfuse.create",
    "dfuse.stat",
    "dfuse.unlink",
];

/// Group (b): the interface ladder (traced run only).
pub fn ladder_metrics() -> Vec<Metric> {
    let mut out = Vec::new();
    let mut pair = |stem: String| {
        out.push(metric(
            &format!("{stem}.sim_ns"),
            "ns",
            Better::Lower,
            Kind::Exact,
        ));
        out.push(metric(
            &format!("{stem}.host_ns"),
            "ns",
            Better::Lower,
            Kind::Host,
        ));
    };
    for rung in DATA_RUNGS {
        pair(format!("{rung}.w1m"));
        pair(format!("{rung}.r1m"));
    }
    for rung in META_RUNGS {
        pair(rung.to_string());
    }
    out
}

/// Group (c): kernel probes (traced run only), host ns per call.
pub fn probe_metrics() -> Vec<Metric> {
    let mut out = vec![metric(
        "vos.csum64_miss.host_ns_per_mib",
        "ns/MiB",
        Better::Lower,
        Kind::Host,
    )];
    for name in [
        "vos.csum64_hit",
        "vos.extent_insert_seq",
        "vos.extent_insert_rand",
        "vos.extent_read",
        "placement.place_s1",
        "placement.place_sx",
        "sim.spawn_join",
        "sim.timer",
        "sim.semaphore",
        "sim.pipe_reserve",
        "fabric.reserve_message",
        "core.qos.drr_select",
        "core.qos.bucket_take",
        "dfuse.split_aligned",
        "raft.propose_commit",
    ] {
        out.push(metric(
            &format!("{name}.host_ns"),
            "ns",
            Better::Lower,
            Kind::Host,
        ));
    }
    out
}

/// Every per-layer metric, in `BENCHMARK.json` order.
pub fn per_layer() -> Vec<Metric> {
    let mut out = layer_counts();
    out.extend(ladder_metrics());
    out.extend(probe_metrics());
    out.push(metric(
        "trace.overhead_frac",
        "fraction",
        Better::Lower,
        Kind::Host,
    ));
    out.extend(family_results());
    out
}

/// Every catalogued metric by name.
pub fn index() -> BTreeMap<String, Metric> {
    end_to_end()
        .into_iter()
        .chain(per_layer())
        .map(|m| (m.name.clone(), m))
        .collect()
}

/// Whether `name` is a host measurement (varies between repetitions)
/// rather than a simulated result or count (must not).
pub fn is_host(index: &BTreeMap<String, Metric>, name: &str) -> bool {
    index.get(name).map(|m| m.kind) == Some(Kind::Host)
}

/// A name the driver accepts: starts alphanumeric, then `[A-Za-z0-9_.-]`,
/// at most 64 characters.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit the driver accepts.
#[cfg(test)]
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> String {
    let better = |b: Better| match b {
        Better::Higher => "higher",
        Better::Lower => "lower",
    };
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(s, "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}");
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    let e2e = end_to_end();
    for (i, m) in e2e.iter().enumerate() {
        let comma = if i + 1 < e2e.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            better(m.better),
            m.bound.unwrap_or(0.0),
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer();
    for (i, m) in layers.iter().enumerate() {
        let comma = if i + 1 < layers.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name,
            m.unit,
            better(m.better),
        );
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn every_name_and_unit_is_one_the_driver_accepts() {
        let mut seen = BTreeSet::new();
        for m in end_to_end().iter().chain(per_layer().iter()) {
            assert!(valid_name(&m.name), "bad name {:?}", m.name);
            assert!(valid_unit(m.unit), "bad unit {:?} on {}", m.unit, m.name);
            assert!(seen.insert(m.name.clone()), "{} used twice", m.name);
        }
        for (name, why) in WORKLOADS {
            assert!(valid_name(name));
            assert!(seen.insert(name.to_string()), "{name} used twice");
            assert!(why.len() <= 200 && !why.contains('\n') && !why.contains('"'));
        }
        assert!(!valid_name(".hidden") && !valid_name("a b") && !valid_name(""));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(!valid_unit("µs") && !valid_unit("") && valid_unit("count/op"));
    }

    #[test]
    fn catalogue_has_the_sizes_the_issue_fixed() {
        assert_eq!(layer_counts().len(), 31);
        assert_eq!(ladder_metrics().len(), 52);
        assert_eq!(probe_metrics().len(), 16);
        assert_eq!(per_layer().len(), 100 + family_results().len());
        assert!(per_layer().len() <= 128 && end_to_end().len() <= 16);
        assert!(end_to_end()
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = &end_to_end()[0];
        assert_eq!((setup.name.as_str(), setup.unit), ("setup_s", "s"));
        assert_eq!(setup.better, Better::Lower);
    }

    #[test]
    fn benchmark_json_at_the_repo_root_matches_the_catalogue() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with: run.sh --print-benchmark-json > BENCHMARK.json"
        );
        assert!(committed.len() <= 64 * 1024);
    }
}
