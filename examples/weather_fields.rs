//! Numerical-weather-prediction field I/O — the workload that motivated
//! the paper (ECMWF's object store for forecast output; refs [7][8][20]).
//!
//! A forecast model writes thousands of ~2 MiB *fields* per output step,
//! indexed by semantic keys (step, level, parameter); downstream product
//! generation immediately reads them back in a different order. This maps
//! naturally onto DAOS: each field is one array object, the index is a KV
//! object — no POSIX in sight.
//!
//! ```text
//! cargo run -p daos-tests --example weather_fields --release
//! ```

use std::rc::Rc;

use daos_core::{Cluster, ClusterConfig, DaosClient};
use daos_placement::{ObjectClass, ObjectId};
use daos_sim::executor::join_all;
use daos_sim::units::{gib_per_sec, MIB};
use daos_sim::Sim;
use daos_vos::Payload;

const WRITERS: u64 = 32; // model I/O server ranks
const READERS: u64 = 16; // product-generation workers
const STEPS: u64 = 4; // output steps
const FIELDS_PER_STEP: u64 = 128; // 2 MiB each
const FIELD_BYTES: u64 = 2 * MIB;

fn field_oid(step: u64, field: u64) -> ObjectId {
    ObjectId::new(0xF1E1D, step << 32 | field)
}

fn field_key(step: u64, field: u64) -> String {
    // param/level encoded the way a real semantic index would
    format!("step={step},param={},level={}", field % 16, field / 16)
}

pub fn main() {
    let mut sim = Sim::new(0xECF);
    sim.block_on(|sim| async move {
        let cluster = Cluster::build(&sim, ClusterConfig::nextgenio(4));
        let client = DaosClient::new(Rc::clone(&cluster), 0);
        let pool = client.connect(&sim).await.expect("connect");
        let cont = pool.create_container(&sim, 99).await.expect("container");
        let index = cont.object(ObjectId::new(0xF1E1D, 0), ObjectClass::S1).kv();

        // ---- forecast output: WRITERS ranks write all fields of a step,
        //      then publish them in the index --------------------------------
        let t0 = sim.now();
        for step in 0..STEPS {
            let futs: Vec<_> = (0..WRITERS)
                .map(|w| {
                    let cont = cont.clone();
                    let index = index.clone();
                    let sim = sim.clone();
                    async move {
                        let mut f = w;
                        while f < FIELDS_PER_STEP {
                            let arr = cont.object(field_oid(step, f), ObjectClass::S2).array(MIB);
                            arr.write(&sim, 0, Payload::pattern(step << 8 | f, FIELD_BYTES))
                                .await
                                .unwrap();
                            // publish: semantic key -> object id
                            let oid = field_oid(step, f);
                            let mut loc = oid.hi.to_le_bytes().to_vec();
                            loc.extend_from_slice(&oid.lo.to_le_bytes());
                            index
                                .put(&sim, field_key(step, f), Payload::bytes(loc))
                                .await
                                .unwrap();
                            f += WRITERS;
                        }
                    }
                })
                .collect();
            join_all(&sim, futs).await;
        }
        let write_t = sim.now() - t0;
        let total = STEPS * FIELDS_PER_STEP * FIELD_BYTES;
        println!(
            "forecast output: {} fields, {:.2} GiB/s aggregate",
            STEPS * FIELDS_PER_STEP,
            gib_per_sec(total, write_t.as_secs_f64())
        );

        // ---- product generation: READERS look fields up by key and read
        //      them back in level-major order --------------------------------
        let t0 = sim.now();
        let futs: Vec<_> = (0..READERS)
            .map(|r| {
                let cont = cont.clone();
                let index = index.clone();
                let sim = sim.clone();
                async move {
                    let mut checked = 0u64;
                    let mut f = r;
                    while f < FIELDS_PER_STEP {
                        for step in 0..STEPS {
                            let loc = index
                                .get(&sim, field_key(step, f))
                                .await
                                .unwrap()
                                .expect("published field");
                            let bytes = loc.materialize();
                            let oid = ObjectId::new(
                                u64::from_le_bytes(bytes[0..8].try_into().unwrap()),
                                u64::from_le_bytes(bytes[8..16].try_into().unwrap()),
                            );
                            let arr = cont.object(oid, ObjectClass::S2).array(MIB);
                            let data = arr.read(&sim, 0, FIELD_BYTES).await.unwrap();
                            let got: u64 = data
                                .iter()
                                .filter(|s| s.data.is_some())
                                .map(|s| s.len)
                                .sum();
                            assert_eq!(got, FIELD_BYTES, "field {step}/{f} incomplete");
                            checked += 1;
                        }
                        f += READERS;
                    }
                    checked
                }
            })
            .collect();
        let counts = join_all(&sim, futs).await;
        let read_t = sim.now() - t0;
        println!(
            "product generation: {} field reads, {:.2} GiB/s aggregate",
            counts.iter().sum::<u64>(),
            gib_per_sec(total, read_t.as_secs_f64())
        );
        println!("simulated wall time {}", sim.now());
    });
}
