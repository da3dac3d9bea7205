//! The write path is pinned: the bytes of a small store, hashed at the
//! commit before the read path went column-lazy, must never move without a
//! `FORMAT_VERSION` bump — `put_column` / `put_delta_column` /
//! `encode_slice` may get cheaper, not different. So are the bytes of a
//! small generated tweets store: the tweet generator may build its column
//! another way, but it must draw its random numbers in the same order.

/// FNV-1a of every file of a small store that exercises all six column
/// types, sparse and dense deltas, a partial last pack and two bins.
/// First taken before this file existed; re-pinned at format version 3,
/// whose files hold the version-2 payload bytes unchanged behind a framed
/// head with a chunk table and the four-lane checksum (checked file by
/// file against the version-2 store when re-pinned).
const PINNED: u64 = 0xb72a_9af3_c51d_f0a4;

fn small_store_fnv(dir: &std::path::Path) -> u64 {
    use tempograph_core::{
        AttrType, Column, GraphInstance, TemplateBuilder, TextRows, TimeSeriesCollection,
    };
    use tempograph_partition::{discover_subgraphs, Partitioning};
    let mut b = TemplateBuilder::new("pin", false);
    b.vertex_schema().add("n", AttrType::Long);
    b.vertex_schema().add("name", AttrType::Text);
    b.vertex_schema().add("tweets", AttrType::TextList);
    b.vertex_schema().add("up", AttrType::Bool);
    b.edge_schema().add("latency", AttrType::Double);
    b.edge_schema().add("plates", AttrType::LongList);
    for i in 0..12 {
        b.add_vertex(i);
    }
    for i in 0..11u64 {
        b.add_edge(i, i, i + 1).unwrap();
    }
    let t = std::sync::Arc::new(b.finalize().unwrap());
    // Three subgraphs in partition 0 (two bins of two), one in partition 1.
    let assignment = vec![0, 0, 1, 0, 0, 0, 1, 0, 0, 1, 1, 1];
    let pg = std::sync::Arc::new(discover_subgraphs(
        t.clone(),
        Partitioning { assignment, k: 2 },
    ));
    let mut coll = TimeSeriesCollection::new(t.clone(), 1000, 60);
    for ts in 0..7usize {
        // n: one row changes per timestep (sparse); name: constant.
        let n = Column::Long(
            (0..12)
                .map(|v| if v == ts { -1 } else { v as i64 })
                .collect(),
        );
        let names: Vec<String> = (0..12).map(|v| format!("v{v}é")).collect();
        let name = Column::Text(TextRows::from_rows(names.iter().map(|s| [s.as_str()])));
        // tweets: i.i.d.-looking (dense), with empty lists and strings.
        let tweets: Vec<Vec<String>> = (0..12usize)
            .map(|v| {
                (0..(v * 7 + ts * 3) % 4)
                    .map(|j| {
                        if j == 2 {
                            String::new()
                        } else {
                            format!("#t{}", (v + ts + j) % 5)
                        }
                    })
                    .collect()
            })
            .collect();
        let tweets = TextRows::from_rows(tweets.iter().map(|r| r.iter().map(String::as_str)));
        let up = Column::Bool((0..12usize).map(|v| (v + ts / 3) % 2 == 0).collect());
        let vcols = vec![n, name, Column::TextList(tweets), up];
        let latency = (0..11usize).map(|e| ts as f64 * 1.5 + e as f64 / 8.0);
        let plates = (0..11usize).map(|e| {
            if e % 4 == ts % 4 {
                vec![ts as i64, e as i64]
            } else {
                vec![]
            }
        });
        let ecols = vec![
            Column::Double(latency.collect()),
            Column::LongList(plates.collect()),
        ];
        let g = GraphInstance::from_parts(
            coll.next_timestamp(),
            t.vertex_schema().clone(),
            t.edge_schema().clone(),
            vcols,
            ecols,
        );
        coll.push(g).unwrap();
    }
    tempograph_gofs::store::write_dataset(dir, pg, &coll, 3, 2).unwrap();
    store_fnv(dir)
}

/// FNV-1a of every file of a small `generate_sir_tweets` store: seeded
/// infections, recoveries and background tags over two partitions, in
/// packs of four with a partial last pack. First taken at the commit
/// before the generator built its `tweets` column flat; re-pinned at
/// format version 3, like [`PINNED`].
const GENERATED_PINNED: u64 = 0xb222_d278_2cdd_e98b;

fn generated_store_fnv(dir: &std::path::Path) -> u64 {
    use std::sync::Arc;
    use tempograph_gen::{generate_sir_tweets, road_network, RoadNetConfig, SirConfig};
    use tempograph_partition::{discover_subgraphs, Partitioning};
    let t = Arc::new(road_network(&RoadNetConfig {
        width: 8,
        height: 6,
        ..Default::default()
    }));
    let cfg = SirConfig {
        timesteps: 9,
        hit_prob: 0.4,
        initial_infected: 3,
        infectious_steps: 2,
        background_rate: 0.3,
        seed: 7,
        ..Default::default()
    };
    let coll = generate_sir_tweets(t.clone(), &cfg);
    let n = t.num_vertices();
    let assignment = (0..n).map(|v| u16::from(v >= n / 2)).collect();
    let pg = Arc::new(discover_subgraphs(t, Partitioning { assignment, k: 2 }));
    tempograph_gofs::store::write_dataset(dir, pg, &coll, 4, 2).unwrap();
    store_fnv(dir)
}

/// FNV-1a over every file under `dir`, each prefixed by its relative path,
/// in path order.
fn store_fnv(dir: &std::path::Path) -> u64 {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path)
            } else {
                files.push(path)
            }
        }
    }
    files.sort();
    let mut all = Vec::new();
    for f in &files {
        all.extend_from_slice(f.strip_prefix(dir).unwrap().to_str().unwrap().as_bytes());
        all.extend_from_slice(&std::fs::read(f).unwrap());
    }
    tempograph_gofs::codec::fnv1a64(&all)
}

#[test]
fn written_store_bytes_are_pinned() {
    let dir = std::env::temp_dir().join(format!("gofs-pin-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let got = small_store_fnv(&dir);
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(tempograph_gofs::codec::FORMAT_VERSION, 3);
    assert_eq!(got, PINNED, "store bytes changed: {got:#018x}");
}

#[test]
fn generated_store_bytes_are_pinned() {
    let dir = std::env::temp_dir().join(format!("gofs-gen-pin-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let got = generated_store_fnv(&dir);
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(
        got, GENERATED_PINNED,
        "generated store bytes changed: {got:#018x}"
    );
}
