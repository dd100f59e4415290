//! Pool-map exclusion and placement churn — the administrative side of an
//! object store: what moves when a target dies?
//!
//! Uses the placement substrate directly (no I/O): places a population of
//! objects, excludes targets one by one, and reports how many shards
//! relocate at each step and how balanced the survivors stay. The
//! rejection-sampled placement gives near-minimal churn, like DAOS's
//! jump-map.
//!
//! ```text
//! cargo run -p daos-tests --example rebuild_exclusion
//! ```

use daos_placement::{load_spread, place, ObjectClass, ObjectId, PoolMap};

const OBJECTS: u64 = 2000;

fn layouts(map: &PoolMap, class: ObjectClass) -> Vec<daos_placement::Layout> {
    (0..OBJECTS)
        .map(|i| place(ObjectId::new(i, i.wrapping_mul(0x9E37)), class, map))
        .collect()
}

pub fn main() {
    for class in [ObjectClass::S1, ObjectClass::S4, ObjectClass::RP_3G1] {
        println!("== class {class} ==");
        let mut map = PoolMap::new(16, 8);
        let mut prev = layouts(&map, class);
        let shards_total: usize = prev.iter().map(|l| l.width() as usize).sum();
        for step in 1..=4u32 {
            let victim = step * 13 % map.target_count();
            map.exclude(victim);
            let cur = layouts(&map, class);
            let moved: usize = prev
                .iter()
                .zip(&cur)
                .map(|(a, b)| a.targets().zip(b.targets()).filter(|(x, y)| x != y).count())
                .sum();
            let (mean, sd, max) = load_spread(&cur, &map);
            let ideal = shards_total as f64 / map.active_target_count() as f64;
            println!(
                "  excluded target {victim:>3} (map v{}): {moved:>5}/{shards_total} shards moved \
                 ({:.1}% vs {:.1}% minimum), balance mean {mean:.1} sd {sd:.1} max {max} \
                 (ideal {ideal:.1})",
                map.version(),
                100.0 * moved as f64 / shards_total as f64,
                100.0 / map.active_target_count() as f64 + 100.0 / map.target_count() as f64,
            );
            // nothing may sit on an excluded target
            for l in &cur {
                for t in l.targets() {
                    assert!(!map.is_excluded(t), "shard left on dead target {t}");
                }
            }
            prev = cur;
        }
    }
    println!("\nall layouts verified: no shard on an excluded target");
}
