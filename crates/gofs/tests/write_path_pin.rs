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
        AttrType, AttrValue, EdgeIdx, TemplateBuilder, TimeSeriesCollection, VertexIdx,
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
        let mut g = coll.new_instance();
        for v in 0..12usize {
            let vi = VertexIdx(v as u32);
            // n: one row changes per timestep (sparse); name: constant.
            g.set_vertex(0, vi, AttrValue::Long(if v == ts { -1 } else { v as i64 }))
                .unwrap();
            g.set_vertex(1, vi, AttrValue::Text(format!("v{v}é")))
                .unwrap();
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
            g.set_vertex(2, vi, AttrValue::TextList(tags)).unwrap();
            g.set_vertex(3, vi, AttrValue::Bool((v + ts / 3) % 2 == 0))
                .unwrap();
        }
        for e in 0..11usize {
            let ei = EdgeIdx(e as u32);
            g.set_edge(0, ei, AttrValue::Double(ts as f64 * 1.5 + e as f64 / 8.0))
                .unwrap();
            let plates = if e % 4 == ts % 4 {
                vec![ts as i64, e as i64]
            } else {
                vec![]
            };
            g.set_edge(1, ei, AttrValue::LongList(plates)).unwrap();
        }
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
