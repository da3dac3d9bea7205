//! Property tests of the loader's slot-per-bin cache. Over random small
//! datasets (packing, binning, a random two-way cut) and random request
//! sequences, some in timestep order and some not, with instances held
//! across later loads at random: every instance equals the projection
//! that was written — a held one too, after the slot it came from has
//! been refilled — and a timestep-ordered sweep reads each (bin, pack) it
//! touches exactly once.

use proptest::prelude::*;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use tempograph_core::{AttrType, Column, TemplateBuilder, TextRows, TimeSeriesCollection};
use tempograph_gofs::store::{bins_for_partition, write_dataset};
use tempograph_gofs::{GofsStore, InstanceLoader, SubgraphInstance};
use tempograph_partition::{discover_subgraphs, PartitionedGraph, Partitioning};

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        // xorshift64*
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn tmp() -> PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("gofs-proptest-cache-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A path over `cut.len()` vertices with a few chords, cut by `cut` (the
/// first two vertices pinned apart, so both partitions hold a subgraph).
/// Columns: a `Long` and a `TextList` per vertex — tags of random count
/// and length, so packs of one bin differ in size — and a `Double` per
/// edge.
fn collection(
    seed: u64,
    cut: &[bool],
    timesteps: usize,
) -> (PartitionedGraph, TimeSeriesCollection) {
    let n = cut.len() as u64;
    let mut rng = Rng(seed | 1);
    let mut b = TemplateBuilder::new("cache-prop", false);
    b.vertex_schema().add("v", AttrType::Long);
    b.vertex_schema().add("tags", AttrType::TextList);
    b.edge_schema().add("w", AttrType::Double);
    for i in 0..n {
        b.add_vertex(i);
    }
    for i in 0..n - 1 {
        b.add_edge(i, i, i + 1).unwrap();
    }
    for e in n - 1..n + 2 {
        let (s, d) = (rng.below(n), rng.below(n));
        b.add_edge(e, s, d).unwrap();
    }
    let t = Arc::new(b.finalize().unwrap());
    let assignment = (0..cut.len())
        .map(|i| match i {
            0 => 0,
            1 => 1,
            _ => cut[i] as u16,
        })
        .collect();
    let pg = discover_subgraphs(t.clone(), Partitioning { assignment, k: 2 });
    let mut coll = TimeSeriesCollection::new(t, 100, 5);
    for _ in 0..timesteps {
        let mut g = coll.new_instance();
        for x in g.vertex_i64_mut("v").unwrap() {
            *x = rng.next() as i64;
        }
        let tags: Vec<Vec<String>> = (0..g.vertex_text_list("tags").unwrap().len())
            .map(|_| {
                (0..rng.below(4))
                    .map(|_| "#".repeat(1 + rng.below(40) as usize))
                    .collect()
            })
            .collect();
        let tags = TextRows::from_rows(tags.iter().map(|r| r.iter().map(String::as_str)));
        g.set_vertex_col("tags", Column::TextList(tags)).unwrap();
        for x in g.edge_f64_mut("w").unwrap() {
            *x = rng.below(1 << 20) as f64 / 8.0;
        }
        coll.push(g).unwrap();
    }
    (pg, coll)
}

proptest! {
    /// Requests `(partition, subgraph pick, timestep, hold)`, sorted by
    /// timestep when `monotone`: each instance equals its projection, held
    /// ones still do at the end, and a monotone sequence loads exactly the
    /// distinct (partition, bin, pack) it touches.
    #[test]
    fn loaded_instances_equal_the_written_projections(
        seed in any::<u64>(),
        cut in proptest::collection::vec(any::<bool>(), 6..20),
        (timesteps, packing, binning) in (1usize..12, 1usize..5, 1usize..4),
        requests in proptest::collection::vec(
            (any::<bool>(), 0usize..64, 0usize..64, any::<bool>()),
            0..60,
        ),
        monotone in any::<bool>(),
    ) {
        let dir = tmp();
        let (pg, coll) = collection(seed, &cut, timesteps);
        let pg = Arc::new(pg);
        write_dataset(&dir, pg.clone(), &coll, packing, binning).unwrap();
        let mut requests: Vec<(u16, usize, usize, bool)> = requests
            .into_iter()
            .map(|(p, sg, t, hold)| (p as u16, sg, t % timesteps, hold))
            .collect();
        if monotone {
            requests.sort_by_key(|r| r.2);
        }
        let mut loaders: Vec<InstanceLoader> = (0..2u16)
            .map(|p| InstanceLoader::new(GofsStore::open(&dir).unwrap(), &pg, p))
            .collect();
        let project = |sg, t| SubgraphInstance::project(coll.get(t).unwrap(), pg.subgraph(sg), t);
        let mut held = Vec::new();
        let mut touched = BTreeSet::new();
        for (p, pick, t, hold) in requests {
            let sgs = pg.subgraphs_of_partition(p);
            let sg = sgs[pick % sgs.len()];
            let inst = loaders[p as usize].load(sg, t).unwrap();
            let bins = bins_for_partition(&pg, p, binning);
            let bin = bins.iter().position(|b| b.contains(&sg)).unwrap();
            touched.insert((p, bin, t / packing));
            if hold {
                // Compared only at the end: comparing decodes every column,
                // and a decoded column is a copy, not a view of the buffer.
                held.push((sg, t, inst));
            } else {
                prop_assert!(*inst == project(sg, t), "{sg} at {t}");
            }
        }
        for (sg, t, inst) in &held {
            prop_assert!(**inst == project(*sg, *t), "held {sg} at {t}");
        }
        if monotone {
            let loads: u64 = loaders.iter().map(|l| l.stats().slice_loads).sum();
            prop_assert_eq!(loads, touched.len() as u64);
        }
        drop(loaders);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
