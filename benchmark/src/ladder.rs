//! Interface ladder — group (b) of the per-layer metrics.
//!
//! On idle testbeds, issue `K` *unloaded* ops one at a time at each rung of
//! the stack and record simulated and host ns per op (the median of the K
//! ops). Each rung's cost is cumulative over the rungs below it; the report
//! prints self = rung − child rungs, which is exact in simulated time. This
//! is `dfuse_ablation` done for every interface, and the outside-in
//! stand-in for request spans until a later change stamps them inside the
//! program.

use std::rc::Rc;
use std::time::Instant;

use daos_bench::paper_cluster;
use daos_core::DaosClient;
use daos_dfs::DfsConfig;
use daos_dfuse::{DfuseConfig, OpenFlags};
use daos_fabric::{Endpoint, Fabric, FabricConfig};
use daos_hdf5::{H5Config, H5File, H5Vfd, Layout};
use daos_ior::DaosTestbed;
use daos_media::{Dcpmm, DcpmmConfig, MediaSet};
use daos_mpiio::{Hints, MpiFile, RankFile};
use daos_placement::{ObjectClass, ObjectId};
use daos_sim::units::MIB;
use daos_sim::Sim;
use daos_vos::{key, Payload, VosConfig, VosTarget};

use crate::spans::{Tracer, NO_PARENT};
use crate::Values;

/// Ops per rung.
pub const K: u64 = 64;

/// The rungs directly below each data rung (its "child" rungs).
pub fn children(rung: &str) -> &'static [&'static str] {
    match rung {
        "vos" => &["media"],
        "core" => &["fabric", "vos"],
        "dfs" => &["core"],
        "dfuse" => &["dfs"],
        "mpiio" | "hdf5" => &["dfuse"],
        _ => &[],
    }
}

fn median(mut v: Vec<u64>) -> f64 {
    v.sort_unstable();
    v[v.len() / 2] as f64
}

struct Ctx {
    sim: Sim,
    tracer: Rc<Tracer>,
    out: Values,
}

/// Run `$body` (an expression that awaits one op and yields a `Result`)
/// `K` times under a rung span, one child span per op, and record the
/// median simulated and host cost as `<stem>.sim_ns` / `<stem>.host_ns`.
macro_rules! rung {
    ($ctx:expr, $stem:expr, $layer:expr, |$k:ident| $body:expr) => {{
        let stem: &str = $stem;
        let span = $ctx
            .tracer
            .begin(stem, $layer, NO_PARENT, $ctx.sim.now().as_ns());
        let (mut sim_ns, mut host_ns) = (Vec::new(), Vec::new());
        for $k in 0..K {
            let s0 = $ctx.sim.now();
            let op = $ctx.tracer.begin("op", $layer, span, s0.as_ns());
            let h0 = Instant::now();
            let result = $body;
            host_ns.push(h0.elapsed().as_nanos() as u64);
            sim_ns.push(($ctx.sim.now() - s0).as_ns());
            $ctx.tracer.end(op, $ctx.sim.now().as_ns(), Vec::new());
            if let Err(e) = result {
                return Err(format!("ladder {stem} op {}: {e:?}", $k));
            }
        }
        $ctx.tracer.end(span, $ctx.sim.now().as_ns(), Vec::new());
        $ctx.out.insert(format!("{stem}.sim_ns"), median(sim_ns));
        $ctx.out.insert(format!("{stem}.host_ns"), median(host_ns));
    }};
}

/// Payload `k` of rung `rung`: distinct per rung, because `csum64` memoises
/// per thread and a payload an earlier rung hashed would cost this rung's
/// write nothing on the host.
fn payload(rung: u64, k: u64) -> Payload {
    Payload::pattern(0x1ADD_0000 + (rung << 8) + k, MIB)
}

async fn climb(ctx: &mut Ctx) -> Result<(), String> {
    let sim = ctx.sim.clone();

    // media: a stand-alone interleave set
    let media = MediaSet::scm_only(Dcpmm::new("ladder.media", DcpmmConfig::default()));
    rung!(ctx, "media.w1m", "media", |_k| {
        media.write_payload(&sim, MIB).await;
        Ok::<(), ()>(())
    });
    rung!(ctx, "media.r1m", "media", |_k| {
        media.read_payload(&sim, MIB).await;
        Ok::<(), ()>(())
    });

    // vos: a stand-alone target over its own media, chunk k = dkey k
    let target = VosTarget::new(
        MediaSet::scm_only(Dcpmm::new("ladder.vos", DcpmmConfig::default())),
        VosConfig::default(),
    );
    let akey = key("a");
    rung!(ctx, "vos.w1m", "vos", |k| {
        let epoch = target.next_epoch();
        target
            .update_array(
                &sim,
                1,
                1,
                &k.to_be_bytes().to_vec(),
                &akey,
                0,
                epoch,
                payload(1, k),
            )
            .await
    });
    rung!(ctx, "vos.r1m", "vos", |k| {
        target
            .fetch_array(
                &sim,
                1,
                1,
                &k.to_be_bytes().to_vec(),
                &akey,
                0,
                MIB,
                u64::MAX,
            )
            .await
    });

    // fabric: echo RPC between two nodes; the request names the reply's bulk size
    let fabric = Fabric::new(2, FabricConfig::default());
    let ep: Rc<Endpoint<u64, u64>> = Endpoint::bind(Rc::clone(&fabric), 1);
    let server = {
        let ep = Rc::clone(&ep);
        sim.spawn(async move {
            while let Some(inc) = ep.serve().await {
                let bulk_out = inc.req;
                inc.respond(bulk_out, bulk_out);
            }
        })
    };
    rung!(ctx, "fabric.w1m", "fabric", |_k| ep
        .call(&sim, 0, 0, MIB)
        .await);
    rung!(ctx, "fabric.r1m", "fabric", |_k| ep
        .call(&sim, 0, MIB, 0)
        .await);
    ep.close();
    server.await;

    // everything above rides one idle paper testbed with a single client
    let env = DaosTestbed::setup(
        &sim,
        paper_cluster(1),
        DfsConfig::default(),
        DfuseConfig::default(),
    )
    .await
    .map_err(|e| format!("ladder testbed: {e:?}"))?;
    let (s1, dfs, mount) = (ObjectClass::S1, &env.dfs[0], &env.dfuse[0]);
    let flags = OpenFlags {
        create: true,
        class: Some(s1),
        chunk_size: Some(MIB),
    };
    let err = |what: &str, e: daos_core::DaosError| format!("ladder {what}: {e:?}");

    let array = env.containers[0]
        .object(ObjectId::new(0x1ADD, 1), s1)
        .array(MIB);
    rung!(ctx, "core.w1m", "core", |k| array
        .write(&sim, k * MIB, payload(2, k))
        .await);
    rung!(ctx, "core.r1m", "core", |k| array
        .read(&sim, k * MIB, MIB)
        .await);

    let file = dfs
        .create(&sim, "/ladder.dfs", s1, MIB)
        .await
        .map_err(|e| err("dfs create", e))?;
    rung!(ctx, "dfs.w1m", "dfs", |k| file
        .write(&sim, k * MIB, payload(3, k))
        .await);
    rung!(ctx, "dfs.r1m", "dfs", |k| file
        .read(&sim, k * MIB, MIB)
        .await);

    let posix = mount
        .open(&sim, "/ladder.dfuse", flags)
        .await
        .map_err(|e| err("dfuse open", e))?;
    rung!(ctx, "dfuse.w1m", "dfuse", |k| posix
        .pwrite(&sim, k * MIB, payload(4, k))
        .await);
    rung!(ctx, "dfuse.r1m", "dfuse", |k| posix
        .pread(&sim, k * MIB, MIB)
        .await);

    // mpiio: independent I/O on a one-rank world over a DFuse file
    let f = mount
        .open(&sim, "/ladder.mpiio", flags)
        .await
        .map_err(|e| err("mpiio open", e))?;
    let mpi_file = MpiFile::new_independent(
        env.mpi_world(1).rank(0),
        RankFile::Posix(f),
        Hints::default(),
    );
    rung!(ctx, "mpiio.w1m", "mpiio", |k| mpi_file
        .write_at(&sim, k * MIB, payload(5, k))
        .await);
    rung!(ctx, "mpiio.r1m", "mpiio", |k| mpi_file
        .read_at(&sim, k * MIB, MIB)
        .await);

    // hdf5: sec2 VFD over a DFuse file, one contiguous dataset
    let f = mount
        .open(&sim, "/ladder.h5", flags)
        .await
        .map_err(|e| err("hdf5 open", e))?;
    let h5 = H5File::create(&sim, H5Vfd::Sec2(Box::new(f)), H5Config::default())
        .await
        .map_err(|e| err("hdf5 create", e))?;
    let ds = h5
        .create_dataset(&sim, "data", K * MIB, Layout::Contiguous)
        .await
        .map_err(|e| err("hdf5 dataset", e))?;
    rung!(ctx, "hdf5.w1m", "hdf5", |k| ds
        .write(&sim, k * MIB, payload(6, k))
        .await);
    rung!(ctx, "hdf5.r1m", "hdf5", |k| ds
        .read(&sim, k * MIB, MIB)
        .await);

    // metadata rungs
    let kv = env.containers[0].object(ObjectId::new(0x1ADD, 2), s1).kv();
    rung!(ctx, "core.kv_put", "core", |k| kv
        .put(&sim, format!("k{k}"), Payload::bytes(vec![0u8; 64]))
        .await);
    rung!(ctx, "core.kv_get", "core", |k| kv
        .get(&sim, format!("k{k}"))
        .await);
    let client = DaosClient::new(Rc::clone(&env.cluster), 0);
    rung!(ctx, "core.pool.connect", "core", |_k| client
        .connect(&sim)
        .await);
    rung!(ctx, "core.pool.create_container", "core", |k| env.pools[0]
        .create_container(&sim, 1000 + k)
        .await);
    rung!(ctx, "dfs.create", "dfs", |k| dfs
        .create(&sim, &format!("/l.dfs.{k}"), s1, MIB)
        .await);
    rung!(ctx, "dfs.stat", "dfs", |k| dfs
        .stat(&sim, &format!("/l.dfs.{k}"))
        .await);
    rung!(ctx, "dfs.unlink", "dfs", |k| dfs
        .unlink(&sim, &format!("/l.dfs.{k}"))
        .await);
    rung!(ctx, "dfuse.create", "dfuse", |k| mount
        .open(&sim, &format!("/l.fuse.{k}"), flags)
        .await);
    rung!(ctx, "dfuse.stat", "dfuse", |k| mount
        .stat(&sim, &format!("/l.fuse.{k}"))
        .await);
    rung!(ctx, "dfuse.unlink", "dfuse", |k| mount
        .unlink(&sim, &format!("/l.fuse.{k}"))
        .await);
    Ok(())
}

/// Climb the ladder in a fresh `Sim`; values keyed `<rung>.<op>.sim_ns|host_ns`.
pub fn run_ladder(seed: u64, tracer: &Rc<Tracer>) -> Result<Values, String> {
    let mut sim = Sim::new(seed ^ 0x1ADD);
    let tracer = Rc::clone(tracer);
    sim.block_on(move |sim| async move {
        let mut ctx = Ctx {
            sim,
            tracer,
            out: Values::new(),
        };
        climb(&mut ctx).await?;
        Ok(ctx.out)
    })
}
