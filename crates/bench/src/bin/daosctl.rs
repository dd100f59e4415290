//! `daosctl` — drive the simulated DAOS system from the command line.
//!
//! ```text
//! daosctl ior   [--api dfs|posix|posix-il|mpiio|mpiio-coll|hdf5|daos]
//!               [--nodes N] [--ppn N] [--xfer BYTES] [--block BYTES]
//!               [--segments N] [--chunk BYTES]
//!               [--oclass S1|S2|...|SX|RP_2GX|EC_2P1GX]
//!               [--shared] [--random] [--reorder] [--stonewall-ms N]
//!               [--verify] [--seed N]
//! daosctl pool  [--nodes N]            # build a cluster, print its layout
//! daosctl place --oclass CLASS [--count N]   # show placement statistics
//! ```
//!
//! Sizes accept `k`/`m`/`g` suffixes (KiB/MiB/GiB); `--reorder` (IOR's
//! `-C`) and `--api mpiio-coll` need `--shared`, and IOR's driver refuses
//! a `--block` that is not a multiple of `--xfer`. Exit 2 on a zero count
//! or size (`--nodes`, `--ppn`, `--segments`, `--xfer`, `--block`,
//! `--chunk`, `--stonewall-ms`, `--count`), naming the flag, and on a flag
//! its command does not list, a switch given a value, a flag without its
//! value or given twice, or a stray word ([`daos_bench::cli::Args`]).
//! Everything runs in simulation; output includes both bandwidth and the
//! simulated duration.

use std::rc::Rc;

use daos_bench::cli::Args;
use daos_bench::paper_cluster;
use daos_dfs::DfsConfig;
use daos_dfuse::DfuseConfig;
use daos_ior::{run, Api, DaosTestbed, IorParams};
use daos_placement::{load_spread, place, ObjectClass, ObjectId, PoolMap};
use daos_sim::time::SimDuration;
use daos_sim::units::fmt_bytes;
use daos_sim::Sim;

fn die(msg: &str) -> ! {
    eprintln!("daosctl: {msg}");
    std::process::exit(2)
}

const IOR_SWITCHES: &[&str] = &["shared", "random", "reorder", "verify"];
const IOR_VALUES: &[&str] = &[
    "api",
    "nodes",
    "ppn",
    "xfer",
    "block",
    "segments",
    "chunk",
    "oclass",
    "stonewall-ms",
    "seed",
];

/// Flag `name`'s value as a count (`default` if not given); exit 2,
/// naming the flag, if it does not parse or is zero: a run of zero nodes,
/// ranks, segments or objects has nothing to report.
fn count<T: std::str::FromStr + PartialEq + From<u8>>(args: &Args, name: &str, default: T) -> T {
    match args.parsed(name, default) {
        Ok(n) if n == T::from(0) => die(&format!("--{name} must be at least 1")),
        n => n.unwrap_or_else(|e| die(&e)),
    }
}

/// Flag `name`'s size in bytes, with a `k`/`m`/`g` suffix for KiB/MiB/GiB
/// (`default` if not given); exit 2 as [`count`] does.
fn size(args: &Args, name: &str, default: &str) -> u64 {
    let s = args.get(name).unwrap_or(default).to_ascii_lowercase();
    let unit = |&(u, shift): &(&str, u32)| Some((s.strip_suffix(u)?, shift));
    let units = [("k", 10), ("m", 20), ("g", 30)];
    let (digits, shift) = units.iter().find_map(unit).unwrap_or((&s, 0));
    let n: Option<u64> = digits.parse().ok();
    match n.and_then(|n| n.checked_mul(1 << shift)) {
        Some(0) => die(&format!("--{name} must be at least 1")),
        Some(bytes) => bytes,
        None => die(&format!("bad --{name}: {s}")),
    }
}

fn cmd_ior(args: &Args) {
    let api = match args.get("api").unwrap_or("dfs") {
        "dfs" => Api::Dfs,
        "posix" => Api::Posix { il: false },
        "posix-il" => Api::Posix { il: true },
        "mpiio" => Api::Mpiio { collective: false },
        "mpiio-coll" => Api::Mpiio { collective: true },
        "hdf5" => Api::Hdf5,
        "daos" => Api::DaosArray,
        other => die(&format!("unknown api: {other}")),
    };
    let oclass = ObjectClass::parse(args.get("oclass").unwrap_or("SX"))
        .unwrap_or_else(|| die("bad --oclass"));
    let (nodes, ppn): (u32, u32) = (count(args, "nodes", 4), count(args, "ppn", 16));
    let params = IorParams {
        api,
        transfer_size: size(args, "xfer", "1m"),
        block_size: size(args, "block", "32m"),
        segments: count(args, "segments", 1),
        file_per_process: !args.has("shared"),
        ppn,
        oclass,
        chunk_size: size(args, "chunk", "1m"),
        verify: args.has("verify"),
        do_write: true,
        do_read: true,
        random_offsets: args.has("random"),
        reorder_read: args.has("reorder"),
        stonewall: args
            .has("stonewall-ms")
            .then(|| SimDuration::from_ms(count(args, "stonewall-ms", 1))),
    };
    let seed: u64 = args.parsed("seed", 1).unwrap_or_else(|e| die(&e));

    let mut sim = Sim::new(seed);
    let report = sim.block_on(move |sim| async move {
        let env = DaosTestbed::setup(
            &sim,
            paper_cluster(nodes),
            DfsConfig::default(),
            DfuseConfig::default(),
        )
        .await
        .unwrap_or_else(|e| die(&format!("testbed: {e}")));
        run(&sim, &env, params)
            .await
            .unwrap_or_else(|e| die(&format!("ior: {e}")))
    });
    let fpp = params.file_per_process;
    let layout = if fpp { "fpp" } else { "shared" };
    let (api, oclass) = (api.name(), oclass.name());
    let (ranks, nodes) = (report.ranks, report.client_nodes);
    println!("api {api:8} oclass {oclass:8} {layout} | {ranks} ranks on {nodes} nodes");
    println!(
        "write: {} in {}  ->  {:8.3} GiB/s",
        fmt_bytes(report.bytes_written),
        report.write_time,
        report.write_gib_s()
    );
    println!(
        "read:  {} in {}  ->  {:8.3} GiB/s",
        fmt_bytes(report.bytes_read),
        report.read_time,
        report.read_gib_s()
    );
}

fn cmd_pool(args: &Args) {
    let nodes: u32 = count(args, "nodes", 4);
    let mut sim = Sim::new(7);
    sim.block_on(move |sim| async move {
        let cluster = daos_core::Cluster::build(&sim, paper_cluster(nodes));
        let client = daos_core::DaosClient::new(Rc::clone(&cluster), 0);
        client
            .connect(&sim)
            .await
            .unwrap_or_else(|e| die(&format!("connect: {e}")));
        let cfg = &cluster.cfg;
        println!("pool ready at {} (leader elected)", sim.now());
        println!(
            "  servers: {} x {} engines ({} targets each) = {} targets",
            cfg.server_nodes,
            cfg.engines_per_node,
            cfg.targets_per_engine,
            cfg.engine_count() * cfg.targets_per_engine
        );
        println!("  clients: {} nodes", cfg.client_nodes);
        println!(
            "  service: {} RAFT replicas on engines {:?}",
            cluster.replicas().len(),
            cluster.svc_engines()
        );
        for (i, r) in cluster.replicas().iter().enumerate() {
            println!("    replica {}: {:?}", i + 1, r.role());
        }
    });
}

fn cmd_place(args: &Args) {
    let class = ObjectClass::parse(args.get("oclass").unwrap_or("S2"))
        .unwrap_or_else(|| die("bad --oclass"));
    let count: u64 = count(args, "count", 1000);
    let map = PoolMap::new(16, 8);
    let layouts: Vec<_> = (0..count)
        .map(|i| place(ObjectId::new(i, i * 7 + 1), class, &map))
        .collect();
    let (mean, sd, max) = load_spread(&layouts, &map);
    println!(
        "{count} objects, class {class}: width {} shards, fan-out {} engines",
        layouts[0].width(),
        layouts[0].engine_fanout(&map)
    );
    println!(
        "per-target load: mean {mean:.1} sd {sd:.2} max {max} (max/mean {:.2})",
        max as f64 / mean
    );
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        die("usage: daosctl <ior|pool|place> [flags]; see source header for flags")
    };
    let (run, switches, values): (fn(&Args), &[&str], &[&str]) = match cmd.as_str() {
        "ior" => (cmd_ior, IOR_SWITCHES, IOR_VALUES),
        "pool" => (cmd_pool, &[], &["nodes"]),
        "place" => (cmd_place, &[], &["oclass", "count"]),
        other => die(&format!("unknown command: {other}")),
    };
    run(&Args::parse(rest, switches, values).unwrap_or_else(|e| die(&e)))
}
