//! DFS namespace integration tests over a live simulated cluster: nested
//! directories, rename, unlink, truncate, symlinks, readdir and size
//! tracking, plus cross-client visibility (two mounts of one container).

use std::rc::Rc;

use daos_core::{Cluster, ClusterConfig, DaosClient};
use daos_dfs::{Dfs, DfsConfig, EntryKind};
use daos_placement::ObjectClass;
use daos_sim::units::{KIB, MIB};
use daos_sim::Sim;
use daos_vos::Payload;

async fn fs(sim: &Sim) -> Rc<Dfs> {
    let cluster = Cluster::build(sim, ClusterConfig::tiny(1));
    let client = DaosClient::new(cluster, 0);
    let pool = client.connect(sim).await.unwrap();
    let cont = pool.open_or_create(sim, 1).await.unwrap();
    Dfs::mount(sim, cont, DfsConfig::default()).await.unwrap()
}

#[test]
fn nested_directories_and_readdir() {
    let mut sim = Sim::new(0xD51);
    sim.block_on(|sim| async move {
        let fs = fs(&sim).await;
        fs.mkdir(&sim, "/a").await.unwrap();
        fs.mkdir(&sim, "/a/b").await.unwrap();
        fs.mkdir(&sim, "/a/b/c").await.unwrap();
        fs.create(&sim, "/a/b/c/deep.dat", ObjectClass::S1, MIB)
            .await
            .unwrap();
        fs.create(&sim, "/a/top.dat", ObjectClass::S1, MIB)
            .await
            .unwrap();
        assert_eq!(fs.readdir(&sim, "/").await.unwrap(), vec!["a"]);
        assert_eq!(fs.readdir(&sim, "/a").await.unwrap(), vec!["b", "top.dat"]);
        assert_eq!(fs.readdir(&sim, "/a/b/c").await.unwrap(), vec!["deep.dat"]);
        // mkdir over an existing name fails
        assert!(fs.mkdir(&sim, "/a/b").await.is_err());
        // lookup classifies correctly
        assert_eq!(
            fs.lookup(&sim, "/a/b").await.unwrap().unwrap().kind,
            EntryKind::Dir
        );
        assert_eq!(
            fs.lookup(&sim, "/a/top.dat").await.unwrap().unwrap().kind,
            EntryKind::File
        );
        assert!(fs.lookup(&sim, "/a/nope").await.unwrap().is_none());
    });
}

#[test]
fn write_grows_size_truncate_shrinks_it() {
    let mut sim = Sim::new(0xD52);
    sim.block_on(|sim| async move {
        let fs = fs(&sim).await;
        let f = fs
            .create(&sim, "/t.dat", ObjectClass::S2, 256 * KIB)
            .await
            .unwrap();
        f.write(&sim, 0, Payload::pattern(1, MIB)).await.unwrap();
        assert_eq!(fs.stat(&sim, "/t.dat").await.unwrap().size, MIB);
        // sparse write extends
        f.write(&sim, 3 * MIB, Payload::pattern(2, KIB))
            .await
            .unwrap();
        assert_eq!(f.size(&sim).await.unwrap(), 3 * MIB + KIB);
        // truncate down
        fs.truncate(&sim, "/t.dat", MIB / 2).await.unwrap();
        assert_eq!(f.size(&sim).await.unwrap(), MIB / 2);
        // punched region reads as holes, surviving prefix intact
        let got = f.read_bytes(&sim, 0, MIB).await.unwrap();
        let want = Payload::pattern(1, MIB).materialize();
        assert_eq!(&got[..(MIB / 2) as usize], &want[..(MIB / 2) as usize]);
        assert!(got[(MIB / 2) as usize..].iter().all(|&b| b == 0));
    });
}

/// Truncating an `EC_2P1GX` file mid-cell leaves exactly the new length:
/// the bytes below it intact and none above it.
#[test]
fn truncate_of_an_ec_file_ends_mid_cell() {
    let mut sim = Sim::new(0xD5E);
    sim.block_on(|sim| async move {
        let cfg = ClusterConfig {
            server_nodes: 4,
            targets_per_engine: 2,
            ..ClusterConfig::tiny(1)
        };
        let client = DaosClient::new(Cluster::build(&sim, cfg), 0);
        let pool = client.connect(&sim).await.unwrap();
        let cont = pool.open_or_create(&sim, 1).await.unwrap();
        let fs = Dfs::mount(&sim, cont, DfsConfig::default()).await.unwrap();
        let (chunk, len, cut) = (64 * KIB, 256 * KIB, 100 * KIB);
        let f = fs
            .create(&sim, "/ec.dat", ObjectClass::EC_2P1GX, chunk)
            .await
            .unwrap();
        f.write(&sim, 0, Payload::pattern(5, len)).await.unwrap();
        assert_eq!(fs.stat(&sim, "/ec.dat").await.unwrap().size, len);
        // 100 KiB is 4 KiB into chunk 1's first 32 KiB cell
        fs.truncate(&sim, "/ec.dat", cut).await.unwrap();
        assert_eq!(f.size(&sim).await.unwrap(), cut);
        let got = f.read_bytes(&sim, 0, len).await.unwrap();
        let want = Payload::pattern(5, len).materialize();
        assert_eq!(&got[..cut as usize], &want[..cut as usize]);
        assert!(got[cut as usize..].iter().all(|&b| b == 0));
    });
}

#[test]
fn rename_moves_entries_across_directories() {
    let mut sim = Sim::new(0xD53);
    sim.block_on(|sim| async move {
        let fs = fs(&sim).await;
        fs.mkdir(&sim, "/src").await.unwrap();
        fs.mkdir(&sim, "/dst").await.unwrap();
        let f = fs
            .create(&sim, "/src/x.dat", ObjectClass::S1, MIB)
            .await
            .unwrap();
        f.write(&sim, 0, Payload::pattern(7, 64 * KIB))
            .await
            .unwrap();
        fs.rename(&sim, "/src/x.dat", "/dst/y.dat").await.unwrap();
        assert!(fs.lookup(&sim, "/src/x.dat").await.unwrap().is_none());
        let g = fs.open(&sim, "/dst/y.dat").await.unwrap();
        // same object: data survives the rename
        assert_eq!(g.oid(), f.oid());
        assert_eq!(
            g.read_bytes(&sim, 0, 64 * KIB).await.unwrap(),
            Payload::pattern(7, 64 * KIB).materialize().to_vec()
        );
        assert_eq!(
            fs.readdir(&sim, "/src").await.unwrap(),
            Vec::<String>::new()
        );
    });
}

/// Renaming an entry onto itself is a no-op: the entry, its object and
/// its data all stay.
#[test]
fn rename_onto_itself_keeps_the_entry() {
    let mut sim = Sim::new(0xD5A);
    sim.block_on(|sim| async move {
        let fs = fs(&sim).await;
        fs.mkdir(&sim, "/d").await.unwrap();
        let f = fs.create(&sim, "/d/f", ObjectClass::S1, MIB).await.unwrap();
        f.write(&sim, 0, Payload::pattern(5, KIB)).await.unwrap();
        fs.rename(&sim, "/d/f", "/d/f").await.unwrap();
        fs.rename(&sim, "/d", "/d/").await.unwrap();
        assert_eq!(fs.readdir(&sim, "/d").await.unwrap(), ["f"]);
        let g = fs.open(&sim, "/d/f").await.unwrap();
        assert_eq!(g.oid(), f.oid());
        assert_eq!(
            g.read_bytes(&sim, 0, KIB).await.unwrap(),
            Payload::pattern(5, KIB).materialize().to_vec()
        );
    });
}

/// Renaming a file onto another replaces it, as `rename(2)` does: the
/// replaced file's object is punched, not orphaned.
#[test]
fn rename_onto_a_file_punches_the_file_it_replaces() {
    let mut sim = Sim::new(0xD5B);
    sim.block_on(|sim| async move {
        let fs = fs(&sim).await;
        let moved = fs.create(&sim, "/a", ObjectClass::S1, MIB).await.unwrap();
        moved
            .write(&sim, 0, Payload::pattern(1, KIB))
            .await
            .unwrap();
        let replaced = fs.create(&sim, "/b", ObjectClass::S2, MIB).await.unwrap();
        replaced
            .write(&sim, 0, Payload::pattern(2, KIB))
            .await
            .unwrap();
        fs.rename(&sim, "/a", "/b").await.unwrap();
        assert_eq!(fs.readdir(&sim, "/").await.unwrap(), ["b"]);
        assert_eq!(fs.open(&sim, "/b").await.unwrap().oid(), moved.oid());
        assert_eq!(
            replaced.size(&sim).await.unwrap(),
            0,
            "the old /b is punched"
        );
        let gone = replaced.read_bytes(&sim, 0, KIB).await.unwrap();
        assert!(gone.iter().all(|&b| b == 0));
    });
}

/// A directory may replace only an empty directory, and a file only a
/// file: a refused rename changes nothing. Replacing an empty directory
/// punches it.
#[test]
fn rename_onto_a_directory_needs_it_empty_and_of_the_same_kind() {
    let mut sim = Sim::new(0xD5C);
    sim.block_on(|sim| async move {
        let fs = fs(&sim).await;
        fs.mkdir(&sim, "/src").await.unwrap();
        fs.create(&sim, "/src/inner", ObjectClass::S1, MIB)
            .await
            .unwrap();
        fs.mkdir(&sim, "/full").await.unwrap();
        let child = fs
            .create(&sim, "/full/kept", ObjectClass::S1, MIB)
            .await
            .unwrap();
        child
            .write(&sim, 0, Payload::pattern(3, KIB))
            .await
            .unwrap();
        // empty, with the tombstone of an unlinked child to show its punch
        fs.mkdir(&sim, "/empty").await.unwrap();
        fs.create(&sim, "/empty/gone", ObjectClass::S1, MIB)
            .await
            .unwrap();
        fs.unlink(&sim, "/empty/gone").await.unwrap();
        fs.create(&sim, "/file", ObjectClass::S1, MIB)
            .await
            .unwrap();

        for (from, to, why) in [
            ("/src", "/full", "not empty"),
            ("/src", "/file", "not a directory"),
            ("/file", "/empty", "is a directory"),
        ] {
            let refused = fs.rename(&sim, from, to).await;
            assert!(
                matches!(&refused, Err(daos_core::DaosError::Other(m)) if m.contains(why)),
                "{from} -> {to}: {refused:?}"
            );
        }
        assert_eq!(
            fs.readdir(&sim, "/").await.unwrap(),
            ["empty", "file", "full", "src"]
        );
        assert_eq!(fs.readdir(&sim, "/full").await.unwrap(), ["kept"]);
        assert_eq!(fs.stat(&sim, "/full/kept").await.unwrap().size, KIB);

        let empty = fs.lookup(&sim, "/empty").await.unwrap().unwrap();
        let old = fs.container().object(empty.oid, empty.class);
        assert_eq!(old.list_dkeys(&sim).await.unwrap().len(), 1, "a tombstone");
        fs.rename(&sim, "/src", "/empty").await.unwrap();
        assert_eq!(fs.readdir(&sim, "/empty").await.unwrap(), ["inner"]);
        assert_eq!(
            fs.readdir(&sim, "/").await.unwrap(),
            ["empty", "file", "full"]
        );
        assert!(
            old.list_dkeys(&sim).await.unwrap().is_empty(),
            "the old /empty is punched"
        );
    });
}

#[test]
fn unlink_removes_and_frees() {
    let mut sim = Sim::new(0xD54);
    sim.block_on(|sim| async move {
        let fs = fs(&sim).await;
        let f = fs
            .create(&sim, "/gone.dat", ObjectClass::SX, MIB)
            .await
            .unwrap();
        f.write(&sim, 0, Payload::pattern(1, MIB)).await.unwrap();
        fs.unlink(&sim, "/gone.dat").await.unwrap();
        assert!(fs.open(&sim, "/gone.dat").await.is_err());
        assert!(fs.unlink(&sim, "/gone.dat").await.is_err());
        // the object data is punched, not just unlinked
        let got = f.read_bytes(&sim, 0, MIB).await.unwrap();
        assert!(got.iter().all(|&b| b == 0));
        // name is reusable
        fs.create(&sim, "/gone.dat", ObjectClass::S1, MIB)
            .await
            .unwrap();
    });
}

/// Unlinking a directory out from under its children would orphan every
/// child's object: refused until the directory is empty, and the refusal
/// touches nothing.
#[test]
fn unlink_refuses_a_directory_until_it_is_empty() {
    let mut sim = Sim::new(0xD58);
    sim.block_on(|sim| async move {
        let fs = fs(&sim).await;
        fs.mkdir(&sim, "/d").await.unwrap();
        fs.mkdir(&sim, "/d/sub").await.unwrap();
        let f = fs
            .create(&sim, "/d/kept.dat", ObjectClass::SX, MIB)
            .await
            .unwrap();
        f.write(&sim, 0, Payload::pattern(7, KIB)).await.unwrap();

        let refused = fs.unlink(&sim, "/d").await;
        assert!(
            matches!(&refused, Err(daos_core::DaosError::Other(m)) if m.contains("not empty")),
            "{refused:?}"
        );
        assert_eq!(fs.readdir(&sim, "/").await.unwrap(), vec!["d"]);
        assert_eq!(fs.readdir(&sim, "/d").await.unwrap(), ["kept.dat", "sub"]);
        assert_eq!(fs.stat(&sim, "/d/kept.dat").await.unwrap().size, KIB);

        // children first, then the directory goes
        fs.unlink(&sim, "/d/kept.dat").await.unwrap();
        assert!(fs.unlink(&sim, "/d").await.is_err(), "/d/sub is still live");
        fs.unlink(&sim, "/d/sub").await.unwrap();
        fs.unlink(&sim, "/d").await.unwrap();
        assert!(fs.readdir(&sim, "/").await.unwrap().is_empty());
        assert!(fs.lookup(&sim, "/d").await.unwrap().is_none());
    });
}

/// The emptiness check is for directories only: a file unlink is the
/// parent lookup, the dirent fetch, the tombstone, and one punch RPC per
/// engine holding a shard — however many shards that is.
#[test]
fn file_unlink_costs_three_rpcs_plus_one_per_engine() {
    let mut sim = Sim::new(0xD59);
    sim.block_on(|sim| async move {
        // park the failure detector: every RPC counted is the unlink's own
        let mut cfg = ClusterConfig::tiny(1);
        cfg.heartbeat.interval = daos_sim::time::SimDuration::from_secs(3600);
        let cluster = Cluster::build(&sim, cfg);
        let pool = DaosClient::new(Rc::clone(&cluster), 0)
            .connect(&sim)
            .await
            .unwrap();
        let cont = pool.open_or_create(&sim, 1).await.unwrap();
        let fs = Dfs::mount(&sim, cont, DfsConfig::default()).await.unwrap();
        let rpcs = || -> u64 {
            let engines = cluster.engines().iter();
            engines.map(|e| e.endpoint().call_count()).sum()
        };
        fs.mkdir(&sim, "/d").await.unwrap();
        // tiny: 2 engines x 4 targets, so SX is 8 shards on 2 engines
        for (class, engines) in [(ObjectClass::SX, 2), (ObjectClass::S1, 1)] {
            fs.create(&sim, "/d/f", class, MIB).await.unwrap();
            let before = rpcs();
            fs.unlink(&sim, "/d/f").await.unwrap();
            assert_eq!(rpcs() - before, 3 + engines, "{class:?}");
        }
    });
}

#[test]
fn symlinks_resolve_and_cap_loops() {
    let mut sim = Sim::new(0xD55);
    sim.block_on(|sim| async move {
        let fs = fs(&sim).await;
        let f = fs
            .create(&sim, "/real.dat", ObjectClass::S1, MIB)
            .await
            .unwrap();
        f.write(&sim, 0, Payload::pattern(3, KIB)).await.unwrap();
        fs.symlink(&sim, "/link", "/real.dat").await.unwrap();
        fs.symlink(&sim, "/link2", "/link").await.unwrap();
        // open follows chains
        let via = fs.open(&sim, "/link2").await.unwrap();
        assert_eq!(via.oid(), f.oid());
        // lstat-style lookup does not follow
        assert_eq!(
            fs.lookup(&sim, "/link").await.unwrap().unwrap().kind,
            EntryKind::Symlink
        );
        // loops are detected
        fs.symlink(&sim, "/loop_a", "/loop_b").await.unwrap();
        fs.symlink(&sim, "/loop_b", "/loop_a").await.unwrap();
        assert!(fs.open(&sim, "/loop_a").await.is_err());
    });
}

#[test]
fn two_mounts_see_each_others_changes() {
    let mut sim = Sim::new(0xD56);
    sim.block_on(|sim| async move {
        let cluster = Cluster::build(&sim, ClusterConfig::tiny(2));
        let c0 = DaosClient::new(Rc::clone(&cluster), 0);
        let c1 = DaosClient::new(Rc::clone(&cluster), 1);
        let p0 = c0.connect(&sim).await.unwrap();
        let p1 = c1.connect(&sim).await.unwrap();
        let cont = p0.open_or_create(&sim, 1).await.unwrap();
        let fs0 = Dfs::mount(&sim, cont, DfsConfig::default()).await.unwrap();
        let cont = p1.open_or_create(&sim, 1).await.unwrap();
        let fs1 = Dfs::mount(&sim, cont, DfsConfig::default()).await.unwrap();
        // node 0 writes, node 1 reads — no caches in between
        let f0 = fs0
            .create(&sim, "/shared.dat", ObjectClass::S2, MIB)
            .await
            .unwrap();
        f0.write(&sim, 0, Payload::pattern(42, MIB)).await.unwrap();
        let f1 = fs1.open(&sim, "/shared.dat").await.unwrap();
        assert_eq!(
            f1.read_bytes(&sim, 0, MIB).await.unwrap(),
            Payload::pattern(42, MIB).materialize().to_vec()
        );
        // and the reverse direction for namespace ops
        fs1.mkdir(&sim, "/from1").await.unwrap();
        assert!(fs0.lookup(&sim, "/from1").await.unwrap().is_some());
    });
}

#[test]
fn mangled_dirent_surfaces_as_corrupt_metadata() {
    let mut sim = Sim::new(0xD57);
    sim.block_on(|sim| async move {
        let fs = fs(&sim).await;
        fs.create(&sim, "/victim.dat", ObjectClass::S1, MIB)
            .await
            .unwrap();
        // scribble over the dirent value through the raw KV interface
        // (root directory object is oid {0, 2}, dir class S1): kind byte 9
        // is no valid entry kind, so deserialisation must refuse it
        let root = daos_placement::ObjectId::new(0, 2);
        let kv = fs.container().object(root, ObjectClass::S1).kv();
        kv.put(&sim, "victim.dat", Payload::bytes(vec![9u8; 32]))
            .await
            .unwrap();
        match fs.open(&sim, "/victim.dat").await {
            Err(daos_core::DaosError::CorruptMetadata(_)) => {}
            Err(e) => panic!("expected CorruptMetadata, got {e:?}"),
            Ok(_) => panic!("expected CorruptMetadata, got Ok"),
        }
        // unlink trips over the same tombstone-decoding path
        match fs.unlink(&sim, "/victim.dat").await {
            Err(daos_core::DaosError::CorruptMetadata(_)) => {}
            other => panic!("expected CorruptMetadata, got {other:?}"),
        }
        // intact siblings stay reachable
        fs.create(&sim, "/ok.dat", ObjectClass::S1, KIB)
            .await
            .unwrap();
        assert!(fs.open(&sim, "/ok.dat").await.is_ok());
    });
}

/// A removed directory's tombstone reads as no entry wherever a path
/// meets it, a middle component included: absent, not a corrupt dirent.
#[test]
fn a_path_through_a_removed_directory_is_absent_not_corrupt() {
    let mut sim = Sim::new(0xD59);
    sim.block_on(|sim| async move {
        let fs = fs(&sim).await;
        fs.mkdir(&sim, "/d").await.unwrap();
        fs.unlink(&sim, "/d").await.unwrap();
        let through = fs.lookup(&sim, "/d/f").await;
        assert!(
            matches!(&through, Err(daos_core::DaosError::Other(m)) if m.contains("no such directory")),
            "{through:?}"
        );
        assert!(fs.lookup(&sim, "/d").await.unwrap().is_none());
    });
}
