//! The write path is pinned: the bytes of a small store, hashed at the
//! commit before the read path went column-lazy, must never move without a
//! `FORMAT_VERSION` bump — `put_column` / `put_delta_column` /
//! `encode_slice` may get cheaper, not different.

/// FNV-1a of every file of a small store that exercises all six column
/// types, sparse and dense deltas, a partial last pack and two bins.
/// Taken at the parent commit (1b9b6f1), before this file existed.
const PINNED: u64 = 0x2757_fa32_47a0_f324;

fn small_store_fnv(dir: &std::path::Path) -> u64 {
    use tempograph_core::{
        AttrType, AttrValue, Column, GraphInstance, TemplateBuilder, TimeSeriesCollection,
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
        let mut vcols: Vec<Column> = t
            .vertex_schema()
            .iter()
            .map(|a| Column::new(a.ty, 12))
            .collect();
        let mut ecols: Vec<Column> = t
            .edge_schema()
            .iter()
            .map(|a| Column::new(a.ty, 11))
            .collect();
        for v in 0..12usize {
            // n: one row changes per timestep (sparse); name: constant.
            vcols[0]
                .set(v, AttrValue::Long(if v == ts { -1 } else { v as i64 }))
                .unwrap();
            vcols[1].set(v, AttrValue::Text(format!("v{v}é"))).unwrap();
            // tweets: i.i.d.-looking (dense), with empty lists and strings.
            let tags = (0..(v * 7 + ts * 3) % 4)
                .map(|j| {
                    if j == 2 {
                        String::new()
                    } else {
                        format!("#t{}", (v + ts + j) % 5)
                    }
                })
                .collect();
            vcols[2].set(v, AttrValue::TextList(tags)).unwrap();
            vcols[3]
                .set(v, AttrValue::Bool((v + ts / 3) % 2 == 0))
                .unwrap();
        }
        for e in 0..11usize {
            ecols[0]
                .set(e, AttrValue::Double(ts as f64 * 1.5 + e as f64 / 8.0))
                .unwrap();
            let plates = if e % 4 == ts % 4 {
                vec![ts as i64, e as i64]
            } else {
                vec![]
            };
            ecols[1].set(e, AttrValue::LongList(plates)).unwrap();
        }
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
    assert_eq!(tempograph_gofs::codec::FORMAT_VERSION, 2);
    assert_eq!(got, PINNED, "store bytes changed: {got:#018x}");
}
