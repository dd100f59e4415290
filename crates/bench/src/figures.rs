//! The IOR-shaped figures' cells and checks: the paper's Figures 1–2, the
//! PFS contrast, the beyond-paper scale sweep, the IO500 composite,
//! mdtest rates and the ablations.
//!
//! Each `*_plan` function enumerates one figure's cells at a scale — a
//! cell is one seeded, single-threaded sim that records its metrics into
//! a [`Fragment`] — and each `*_CLAIMS` table states what must hold of
//! the finished report. [`crate::FIGURES`] binds the two to the figure's
//! name and seed. Seeds are fixed per figure (an IOR sweep's per
//! protocol), so a smoke run's cells are seeded exactly like the full
//! figure's.

use daos_core::ClusterConfig;
use daos_dfuse::DfuseConfig;
use daos_ior::{
    mdtest, mdtest_ranks, pfs_files, run, run_files, Api, IorReport, MdBackend, MdtestReport,
    PfsClient,
};
use daos_pfs::{Pfs, PfsConfig};
use daos_placement::{ObjectClass, ObjectId};
use daos_sim::time::SimDuration;
use daos_sim::units::MIB;
use daos_sim::Sim;

use crate::figure::{Cell, Plan, Scale};
use crate::invariants::{holds, Claim, Probe, R5_SHARED_OVER_FPP};
use crate::report::{config_hash, Fragment, READ_GIB_S, WRITE_GIB_S};
use crate::{on_testbed, on_testbed_with, paper_cluster, paper_params, run_point_in};

/// The paper figures' full scale axis.
pub const FULL_NODES: [u32; 5] = [1, 2, 4, 8, 16];
/// Averaged placements per point at full scale (IOR `-i`).
pub const FULL_REPEATS: u64 = 5;

/// Processes per client node in every figure sweep (the paper's layout).
pub const PPN: u32 = 16;

/// The per-rank block of the paper's IOR runs ([`paper_params`]).
const PAPER_BLOCK: u64 = 32 * MIB;

/// The three interfaces of Figures 1 and 2.
pub fn figure_apis() -> [Api; 3] {
    [Api::Dfs, Api::Mpiio { collective: false }, Api::Hdf5]
}

/// The three object classes of Figures 1 and 2.
pub fn figure_classes() -> [ObjectClass; 3] {
    [ObjectClass::S1, ObjectClass::S2, ObjectClass::SX]
}

/// Record both phases of one IOR run.
fn record_bw(out: &mut Fragment, series: &str, scale: u32, r: &IorReport) {
    out.record(series, scale, WRITE_GIB_S, r.write_gib_s());
    out.record(series, scale, READ_GIB_S, r.read_gib_s());
}

fn top(nodes: &[u32]) -> u32 {
    *nodes.iter().max().expect("non-empty node axis")
}

/// One IOR sweep on the paper testbed: interface × class × node count,
/// every cell a [`run_point_in`] run on [`paper_cluster`]. At full scale
/// the node axis is `full_nodes` at the paper's volume, [`FULL_REPEATS`]
/// placements per cell; the smoke scale is the figures' miniature. Cells
/// are seeded by the protocol — [`FIG1_SEED`] file-per-process,
/// [`FIG2_SEED`] for a shared file — and keyed by every input they read,
/// so a figure that lists another's cell shares its one run. Heaviest
/// (largest node count) cells first — a scheduling hint only; reduction
/// is keyed by (series, scale). The report is stamped with the largest
/// testbed's config hash if `stamp`, else 0.
fn ior_sweep_plan(
    apis: &[Api],
    classes: &[ObjectClass],
    fpp: bool,
    full_nodes: &[u32],
    stamp: bool,
    scale: Scale,
) -> Plan {
    let (nodes, repeats, ppn, block): (&[u32], u64, u32, u64) = match scale {
        Scale::Full => (full_nodes, FULL_REPEATS, PPN, PAPER_BLOCK),
        Scale::Smoke => (&[1, 2], 1, 4, MIB),
    };
    let seed = if fpp { FIG1_SEED } else { FIG2_SEED };
    let mut cells = Vec::new();
    for &client_nodes in nodes.iter().rev() {
        for &api in apis {
            for &oclass in classes {
                let label = format!("{}-{oclass}/{client_nodes}n", api.name());
                let key = (api, oclass, client_nodes, fpp, ppn, block, repeats);
                let cell = Cell::new(label, move |out| {
                    let mut params = paper_params(api, oclass, fpp, ppn);
                    params.block_size = block;
                    let m = run_point_in(paper_cluster(client_nodes), params, seed, repeats);
                    record_bw(out, &m.series, client_nodes, &m.report);
                });
                cells.push(cell.keyed(format!("{key:?}")));
            }
        }
    }
    Plan {
        config_hash: if stamp {
            config_hash(&paper_cluster(top(nodes)))
        } else {
            0
        },
        cells,
    }
}

// ---------------------------------------------------------------------
// Figures 1 and 2
// ---------------------------------------------------------------------

/// Figure 1's root seed, and every file-per-process IOR cell's (each
/// cell salts it with scale and repeat).
pub const FIG1_SEED: u64 = 0xF161;
/// Figure 2's root seed, and every shared-file IOR cell's.
pub const FIG2_SEED: u64 = 0xF162;

/// Figure 1 (`fpp`) or Figure 2 (shared file): the interface × class
/// grid over the node axis.
pub fn paper_figure_plan(fpp: bool, scale: Scale) -> Plan {
    ior_sweep_plan(
        &figure_apis(),
        &figure_classes(),
        fpp,
        &FULL_NODES,
        true,
        scale,
    )
}

// ---------------------------------------------------------------------
// Wider grids on the paper testbed: object classes, native API
// ---------------------------------------------------------------------

/// A file-per-process grid at 1, 4 and 16 nodes; its cells that Figure 1
/// lists too are Figure 1's.
fn wide_grid_plan(apis: &[Api], classes: &[ObjectClass], scale: Scale) -> Plan {
    ior_sweep_plan(apis, classes, true, &[1, 4, 16], false, scale)
}

/// `oclass_sweep`: DFS over a wider class set than the figures.
pub fn oclass_plan(scale: Scale) -> Plan {
    let classes = [
        ObjectClass::S1,
        ObjectClass::S2,
        ObjectClass::S4,
        ObjectClass::S8,
        ObjectClass::SX,
    ];
    wide_grid_plan(&[Api::Dfs], &classes, scale)
}

/// What an `oclass_sweep` report must show.
pub const OCLASS_CLAIMS: &[Claim] = &[
    Claim {
        prose: "sharding degree interpolates: S1 <= S4 <= SX write at the largest scale (±10%)",
        test: |r| {
            let [s1, s4, sx] = r.row(["DFS-S1", "DFS-S4", "DFS-SX"], r.top()?, WRITE_GIB_S)?;
            holds(s1 <= s4 * 1.1 && s4 <= sx * 1.1)
        },
    },
    Claim {
        prose: "every class lands in a sane envelope (1-60 GiB/s write)",
        test: |r| holds(r.every(WRITE_GIB_S).iter().all(|&b| b > 1.0 && b < 60.0)),
    },
];

/// `daos_api`: the native array API against DFS and POSIX (± the
/// interception library), SX, file-per-process.
pub fn daos_api_plan(scale: Scale) -> Plan {
    let apis = [
        Api::DaosArray,
        Api::Dfs,
        Api::Posix { il: false },
        Api::Posix { il: true },
    ];
    wide_grid_plan(&apis, &[ObjectClass::SX], scale)
}

/// One metric of the `daos_api` series at every scale, each row in the
/// order the claims index: native, DFS, POSIX, POSIX with the
/// interception library.
fn api_rows(r: &Probe, metric: &str) -> Result<Vec<[f64; 4]>, String> {
    let series = ["DAOS-SX", "DFS-SX", "POSIX-SX", "POSIX+IL-SX"];
    let scales = r.scales()?.into_iter();
    scales.map(|n| r.row(series, n, metric)).collect()
}

/// What a `daos_api` report must show.
pub const DAOS_API_CLAIMS: &[Claim] = &[
    // no tolerance: a native rank's array takes the object ID its DFS
    // file would, so both see the same placements and only the file
    // layer's own work can separate them
    Claim {
        prose: "native array API >= DFS write (skips namespace metadata)",
        test: |r| holds(api_rows(r, WRITE_GIB_S)?.iter().all(|w| w[0] >= w[1])),
    },
    Claim {
        prose: "interception library recovers DFS-level performance over POSIX (within 2%)",
        test: |r| {
            let rows = [api_rows(r, WRITE_GIB_S)?, api_rows(r, READ_GIB_S)?].concat();
            holds(rows.iter().all(|v| (v[3] - v[1]).abs() <= 0.02 * v[1]))
        },
    },
    Claim {
        prose: "every file interface stays within 15% of the native API (bulk I/O)",
        test: |r| holds(api_rows(r, WRITE_GIB_S)?.iter().all(|w| w[2] > 0.85 * w[0])),
    },
];

// ---------------------------------------------------------------------
// Beyond the paper's scale: 64-512 client nodes
// ---------------------------------------------------------------------

/// Scale axis past the paper's testbed (its figures stop at 16 client
/// nodes / 8 servers).
pub const SCALE_NODES: [u32; 4] = [64, 128, 256, 512];
/// Root seed for the beyond-paper scale sweep.
pub const SCALE_SEED: u64 = 0x5CA1E;
/// Per-rank block at scale. The figure reads per-node bandwidth *trends*
/// (crossover, asymptote), which converge well below the paper's
/// 32 MiB per rank; weak-scaling the aggregate with a 4 MiB per-rank
/// block keeps 512 nodes x 16 ppn tractable.
pub const SCALE_BLOCK: u64 = 4 << 20;

/// Weak-scaled testbed past the paper: hold the paper's 2:1
/// client:server node ratio (16 clients on 8 servers) as the client axis
/// grows, so every engine stays in the per-engine load regime the model
/// was calibrated in. A fixed 8-server testbed under 512 client nodes
/// measures nothing but unbounded queueing — every RPC deadline is
/// reachable — which is a traffic_sweep result, not a scaling one.
pub fn scale_cluster(client_nodes: u32) -> ClusterConfig {
    let mut c = paper_cluster(client_nodes);
    c.server_nodes = (client_nodes / 2).max(8);
    c
}

/// The DFS scale grid past the paper's reach: S2 (the small-scale write
/// leader) vs SX (the contended-write leader) locates the R2 crossover;
/// fpp vs shared locates the R5 shared-file asymptote. One placement per
/// cell, heaviest first. The smoke scale runs the same three series at 1
/// and 2 client nodes, 4 ranks per node and 1 MiB per rank.
///
/// The shared-file column runs SX only: S2 stripes one object over two
/// targets, so a shared S2 file at thousands of ranks is a fixed-size
/// funnel whose queueing delay grows with the client count until any
/// finite RPC deadline trips — the same reason the paper's own
/// shared-file runs use SX.
pub fn scale_plan(scale: Scale) -> Plan {
    let (nodes, ppn, block): (&[u32], u32, u64) = match scale {
        Scale::Full => (&SCALE_NODES, PPN, SCALE_BLOCK),
        Scale::Smoke => (&[1, 2], 4, MIB),
    };
    let mut cells = Vec::new();
    for &n in nodes.iter().rev() {
        for (fpp, oclass) in [
            (true, ObjectClass::S2),
            (true, ObjectClass::SX),
            (false, ObjectClass::SX),
        ] {
            let suffix = if fpp { "fpp" } else { "shared" };
            cells.push(Cell::new(
                format!("DFS-{oclass}-{suffix}/{n}n"),
                move |out| {
                    let mut p = paper_params(Api::Dfs, oclass, fpp, ppn);
                    p.block_size = block;
                    let m = run_point_in(scale_cluster(n), p, SCALE_SEED, 1);
                    record_bw(out, &format!("{}-{suffix}", m.series), n, &m.report);
                },
            ));
        }
    }
    Plan {
        config_hash: config_hash(&scale_cluster(top(nodes))),
        cells,
    }
}

// ---------------------------------------------------------------------
// PFS contrast
// ---------------------------------------------------------------------

/// `pfs_contrast`'s root seed: the PFS cells' sims are seeded
/// `PFS_SEED ^ nodes`, the DAOS cells' `(PFS_SEED + 1) ^ nodes`.
pub const PFS_SEED: u64 = 0x1F5;

/// One PFS cell: IOR on the Lustre-like filesystem, returning the run
/// report and the LDLM extent-lock revoke count.
fn pfs_point(nodes: u32, fpp: bool, block: u64, ppn: u32) -> (IorReport, u64) {
    let mut sim = Sim::new(PFS_SEED ^ nodes as u64);
    sim.block_on(move |sim| async move {
        let fs = Pfs::build(PfsConfig {
            client_nodes: nodes,
            stripe_count: 4,
            ..Default::default()
        });
        // `api` and `oclass` are not read on this rung
        let mut p = paper_params(Api::Posix { il: false }, ObjectClass::S1, fpp, ppn);
        p.block_size = block;
        let files = pfs_files(&sim, &fs, &p).await.expect("pfs open");
        let r = run_files(&sim, nodes, p, files).await.expect("pfs run");
        (r, fs.stats().revokes)
    })
}

/// One DAOS cell of the contrast experiment.
fn daos_point(nodes: u32, fpp: bool, block: u64, ppn: u32) -> IorReport {
    let seed = (PFS_SEED + 1) ^ nodes as u64;
    on_testbed(seed, paper_cluster(nodes), move |sim, env| async move {
        let mut p = paper_params(Api::Dfs, ObjectClass::SX, fpp, ppn);
        p.block_size = block;
        run(&sim, &env, p).await.expect("daos run")
    })
}

/// The same IOR workloads on DAOS and on the Lustre-like PFS, FPP and
/// shared, at each scale: four seeded sims per node count. Lock
/// ping-pong makes big runs slow, hence the 16 MiB per-rank block.
pub fn pfs_contrast_plan(scale: Scale) -> Plan {
    let (nodes, block, ppn): (&[u32], u64, u32) = match scale {
        Scale::Full => (&[1, 4, 8, 16], 16 * MIB, PPN),
        Scale::Smoke => (&[1, 2], MIB, 4),
    };
    let mut cells = Vec::new();
    for &n in nodes.iter().rev() {
        for fpp in [true, false] {
            let mode = if fpp { "fpp" } else { "shared" };
            cells.push(Cell::new(format!("pfs-{mode}/{n}n"), move |out| {
                let (r, revokes) = pfs_point(n, fpp, block, ppn);
                record_bw(out, &format!("pfs-{mode}"), n, &r);
                if !fpp {
                    out.record("pfs-shared", n, "lock_revokes", revokes as f64);
                }
            }));
            cells.push(Cell::new(format!("daos-{mode}/{n}n"), move |out| {
                let r = daos_point(n, fpp, block, ppn);
                record_bw(out, &format!("daos-{mode}"), n, &r);
            }));
        }
    }
    Plan {
        config_hash: config_hash(&paper_cluster(top(nodes))),
        cells,
    }
}

// ---------------------------------------------------------------------
// IO500-style composite
// ---------------------------------------------------------------------

/// `io500`'s root (and only) sim seed.
pub const IO500_SEED: u64 = 0x10500;

/// ior-easy + ior-hard + mdtest-easy in one sim, combined with the IO500
/// geometric mean, at one scale.
fn io500_cell(out: &mut Fragment, nodes: u32, ppn: u32, block: u64) {
    let cell = move |sim: Sim, env| async move {
        // ior-easy: file-per-process, free choice of class -> S2
        let easy = run(&sim, &env, {
            let mut p = paper_params(Api::Dfs, ObjectClass::S2, true, ppn);
            p.block_size = block;
            p
        })
        .await
        .expect("ior easy");
        // ior-hard: single shared file -> SX
        let hard = run(&sim, &env, {
            let mut p = paper_params(Api::Dfs, ObjectClass::SX, false, ppn);
            p.block_size = block;
            p
        })
        .await
        .expect("ior hard");
        // mdtest-easy through the native DFS API
        let md = mdtest(&sim, &env, MdBackend::Dfs, ppn, 48)
            .await
            .expect("mdtest");
        (easy, hard, md)
    };
    let (easy, hard, md) = on_testbed(IO500_SEED, paper_cluster(nodes), cell);

    let geo = |vals: &[f64]| (vals.iter().map(|v| v.ln()).sum::<f64>() / vals.len() as f64).exp();
    let bw_score = geo(&[
        easy.write_gib_s(),
        easy.read_gib_s(),
        hard.write_gib_s(),
        hard.read_gib_s(),
    ]);
    let md_kiops = [
        md.creates_per_s() / 1000.0,
        md.stats_per_s() / 1000.0,
        md.unlinks_per_s() / 1000.0,
    ];
    let md_score = geo(&md_kiops);

    record_bw(out, "ior-easy", nodes, &easy);
    record_bw(out, "ior-hard", nodes, &hard);
    out.record("mdtest", nodes, "create_kiops", md_kiops[0]);
    out.record("mdtest", nodes, "stat_kiops", md_kiops[1]);
    out.record("mdtest", nodes, "unlink_kiops", md_kiops[2]);
    out.record("score", nodes, "bw_gib_s", bw_score);
    out.record("score", nodes, "md_kiops", md_score);
    out.record("score", nodes, "io500", (bw_score * md_score).sqrt());
}

pub fn io500_plan(scale: Scale) -> Plan {
    let (nodes, ppn, block) = match scale {
        Scale::Full => (8, PPN, 16 * MIB),
        Scale::Smoke => (2, 2, MIB),
    };
    Plan {
        config_hash: config_hash(&paper_cluster(nodes)),
        cells: vec![Cell::new(format!("{nodes}n"), move |out| {
            io500_cell(out, nodes, ppn, block)
        })],
    }
}

/// What an `io500` report must show.
pub const IO500_CLAIMS: &[Claim] = &[
    Claim {
        prose: "composite score is finite and positive",
        test: |r| {
            let total = r.get("score", r.axis("score")?[0], "io500")?;
            holds(total.is_finite() && total > 0.0)
        },
    },
    // R5 in IO500 form: ior-hard writes one shared file, ior-easy one
    // file per process
    Claim {
        prose: "R5 (IO500 form): DAOS ior-hard/ior-easy write >= 0.8",
        test: |r| {
            let n = r.axis("score")?[0];
            let [hard, easy] = r.row(["ior-hard", "ior-easy"], n, WRITE_GIB_S)?;
            let ratio = hard / easy;
            let detail = format!("{n} nodes ior-hard/ior-easy write ratio {ratio:.2}");
            Ok((ratio > R5_SHARED_OVER_FPP, detail))
        },
    },
];

// ---------------------------------------------------------------------
// Metadata rates
// ---------------------------------------------------------------------

/// `mdtest_bench`'s root seed: the DAOS cells' sims are seeded
/// `MDTEST_SEED ^ backend`, the PFS cell's `MDTEST_SEED + 1`.
pub const MDTEST_SEED: u64 = 0x3D7;

fn record_md(out: &mut Fragment, series: &str, nodes: u32, r: &MdtestReport) {
    out.record(series, nodes, "create_per_s", r.creates_per_s());
    out.record(series, nodes, "stat_per_s", r.stats_per_s());
    out.record(series, nodes, "unlink_per_s", r.unlinks_per_s());
}

/// mdtest-style create / stat / unlink storms through DFS, DFuse and the
/// Lustre-like PFS, one sim per backend.
pub fn mdtest_plan(scale: Scale) -> Plan {
    let (nodes, ppn, files) = match scale {
        Scale::Full => (8, 8, 64),
        Scale::Smoke => (1, 2, 4),
    };
    let mut cells = Vec::new();
    for (series, backend) in [("dfs", MdBackend::Dfs), ("dfuse", MdBackend::Dfuse)] {
        cells.push(Cell::new(series, move |out| {
            let seed = MDTEST_SEED ^ backend as u64;
            let r = on_testbed(seed, paper_cluster(nodes), move |sim, env| async move {
                mdtest(&sim, &env, backend, ppn, files)
                    .await
                    .expect("mdtest")
            });
            record_md(out, series, nodes, &r);
        }));
    }
    cells.push(Cell::new("pfs", move |out| {
        let mut sim = Sim::new(MDTEST_SEED + 1);
        let r = sim.block_on(move |sim| async move {
            let fs = Pfs::build(PfsConfig {
                client_nodes: nodes,
                ..Default::default()
            });
            mdtest_ranks(&sim, files, PfsClient::per_rank(&fs, ppn))
                .await
                .expect("mdtest pfs")
        });
        record_md(out, "pfs", nodes, &r);
    }));
    Plan {
        config_hash: 0,
        cells,
    }
}

/// The `mdtest_bench` backends, in the order the claims index.
const MD_SERIES: [&str; 3] = ["dfs", "dfuse", "pfs"];

/// What an `mdtest_bench` report must show.
pub const MDTEST_CLAIMS: &[Claim] = &[
    Claim {
        prose: "DAOS metadata rates scale past the single-MDS PFS",
        test: |r| {
            let c = r.row(MD_SERIES, r.top()?, "create_per_s")?;
            let s = r.row(MD_SERIES, r.top()?, "stat_per_s")?;
            holds(c[0] > 2.0 * c[2] && s[0] > 2.0 * s[2])
        },
    },
    Claim {
        prose: "DFuse adds overhead over native DFS but stays well above the PFS",
        test: |r| {
            let c = r.row(MD_SERIES, r.top()?, "create_per_s")?;
            holds(c[1] <= c[0] && c[1] > c[2])
        },
    },
];

// ---------------------------------------------------------------------
// Data-protection ablation
// ---------------------------------------------------------------------

/// `protection_sweep`'s root seed (healthy cells; degraded cells use
/// `PROTECTION_SEED + 1`).
pub const PROTECTION_SEED: u64 = 0x930;

const RP_3GX: ObjectClass = ObjectClass::Replicated {
    replicas: 3,
    groups: None,
};

/// Degraded read: write through stable handles, exclude target 0, read
/// the *same* handles (layout cached pre-failure, like an application
/// holding open files through a failure). Records the healthy and the
/// degraded read bandwidth under `series`, `nodes` clients writing `block`
/// bytes per rank.
fn degraded_point(out: &mut Fragment, series: &str, class: ObjectClass, nodes: u32, block: u64) {
    let cluster = paper_cluster(nodes);
    let (h, d) = on_testbed(PROTECTION_SEED + 1, cluster, move |sim, env| async move {
        let arrays: Vec<_> = (0..nodes * PPN)
            .map(|r| {
                env.containers[(r / PPN) as usize]
                    .object(ObjectId::new(0xDE6, r as u64), class)
                    .array(MIB)
            })
            .collect();
        let mut p = paper_params(Api::DaosArray, class, true, PPN);
        p.block_size = block;
        let healthy = run_files(&sim, nodes, p, arrays.clone())
            .await
            .expect("healthy write + read");
        env.cluster.exclude_target(0);
        p.do_write = false;
        let degraded = run_files(&sim, nodes, p, arrays)
            .await
            .expect("degraded read");
        (healthy.read_gib_s(), degraded.read_gib_s())
    });
    out.record(series, nodes, "healthy_read_gib_s", h);
    out.record(series, nodes, "degraded_read_gib_s", d);
}

/// What replication and erasure coding cost relative to the unprotected
/// classes (DFS, fpp; 8 nodes and 16 MiB per rank at full scale), plus
/// degraded reads with one target excluded mid-run.
pub fn protection_plan(scale: Scale) -> Plan {
    let (nodes, block) = match scale {
        Scale::Full => (8, 16 * MIB),
        Scale::Smoke => (1, MIB),
    };
    let mut cells = Vec::new();
    for class in [
        ObjectClass::S2,
        ObjectClass::SX,
        ObjectClass::RP_2GX,
        RP_3GX,
        ObjectClass::EC_2P1GX,
        ObjectClass::EC_4P2GX,
    ] {
        cells.push(Cell::new(class.to_string(), move |out| {
            let cluster = paper_cluster(nodes);
            let r = on_testbed(PROTECTION_SEED, cluster, move |sim, env| async move {
                let mut p = paper_params(Api::Dfs, class, true, PPN);
                p.block_size = block;
                run(&sim, &env, p).await.expect("run")
            });
            record_bw(out, &class.to_string(), nodes, &r);
        }));
    }
    for class in [ObjectClass::RP_2GX, ObjectClass::EC_2P1GX] {
        let series = format!("{class}/degraded");
        cells.push(Cell::new(series.clone(), move |out| {
            degraded_point(out, &series, class, nodes, block);
        }));
    }
    Plan {
        config_hash: 0,
        cells,
    }
}

/// What a `protection_sweep` report must show.
pub const PROTECTION_CLAIMS: &[Claim] = &[
    Claim {
        prose: "replication costs ~its amplification factor in write bandwidth",
        test: |r| {
            let [rp2, sx] = r.row(["RP_2GX", "SX"], r.axis("SX")?[0], WRITE_GIB_S)?;
            holds(rp2 < 0.75 * sx && rp2 > 0.3 * sx)
        },
    },
    // real DAOS guidance: EC suits large transfers; per-stripe parity
    // rounds make it slower than replication below saturation even at
    // lower amplification
    Claim {
        prose: "protection ordering: S2 > EC_2P1 and RP_3 is the most expensive",
        test: |r| {
            let series = ["S2", "EC_2P1GX", "RP_3GX", "RP_2GX"];
            let [s2, ec, rp3, rp2] = r.row(series, r.axis("SX")?[0], WRITE_GIB_S)?;
            holds(s2 > ec && rp3 < rp2)
        },
    },
    Claim {
        prose: "degraded reads stay within 2.5x of healthy (redundancy works)",
        test: |r| {
            let n = r.axis("SX")?[0];
            let mut pass = true;
            for s in ["RP_2GX/degraded", "EC_2P1GX/degraded"] {
                let h = r.get(s, n, "healthy_read_gib_s")?;
                let d = r.get(s, n, "degraded_read_gib_s")?;
                pass &= d > 0.0 && h / d < 2.5;
            }
            holds(pass)
        },
    },
];

// ---------------------------------------------------------------------
// DFuse-knob ablation
// ---------------------------------------------------------------------

/// `dfuse_ablation`'s root (and every cell's) sim seed.
pub const DFUSE_ABLATION_SEED: u64 = 0xAB1A;

/// How much of the POSIX path's cost comes from each modelled mechanism:
/// one node × 4 ppn (the latency-bound regime, where knob effects are
/// visible), S2, fpp, one cell per DFuse variant plus native DFS. Every
/// scale runs the whole plan: it takes milliseconds.
pub fn dfuse_ablation_plan(_: Scale) -> Plan {
    // default: 4us crossing, 1MiB reqs, 16 threads
    let base = DfuseConfig::default();
    let posix = Api::Posix { il: false };
    let points = [
        ("default", base, posix),
        (
            "slow crossings",
            DfuseConfig {
                kernel_crossing: SimDuration::from_us(20),
                ..base
            },
            posix,
        ),
        (
            "small requests",
            DfuseConfig {
                max_req: 128 << 10,
                ..base
            },
            posix,
        ),
        (
            "single daemon thread",
            DfuseConfig {
                daemon_threads: 1,
                ..base
            },
            posix,
        ),
        ("interception library", base, Api::Posix { il: true }),
        ("native-dfs", base, Api::Dfs),
    ];
    let cells = points
        .into_iter()
        .map(|(series, dfuse, api)| {
            Cell::new(series, move |out| {
                let cell = move |sim, env| async move {
                    let mut p = paper_params(api, ObjectClass::S2, true, 4);
                    p.block_size = 16 * MIB;
                    run(&sim, &env, p).await.expect("run")
                };
                let r = on_testbed_with(DFUSE_ABLATION_SEED, paper_cluster(1), dfuse, 0, cell);
                record_bw(out, series, 1, &r);
            })
        })
        .collect();
    Plan {
        config_hash: 0,
        cells,
    }
}

/// What a `dfuse_ablation` report must show.
pub const DFUSE_ABLATION_CLAIMS: &[Claim] = &[
    Claim {
        prose: "128KiB request splitting costs real write bandwidth",
        test: |r| {
            let [small, default] = r.row(["small requests", "default"], 1, WRITE_GIB_S)?;
            holds(small < 0.9 * default)
        },
    },
    Claim {
        prose: "a single daemon thread bottlenecks the node",
        test: |r| {
            let [one, default] = r.row(["single daemon thread", "default"], 1, WRITE_GIB_S)?;
            holds(one < 0.8 * default)
        },
    },
    Claim {
        prose: "the interception library matches native DFS",
        test: |r| {
            let [il, dfs] = r.row(["interception library", "native-dfs"], 1, WRITE_GIB_S)?;
            holds((il - dfs).abs() / dfs < 0.05)
        },
    },
];
