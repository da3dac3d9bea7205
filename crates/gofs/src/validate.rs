//! Deep dataset validation and storage statistics.
//!
//! [`validate_dataset`] walks every slice file of a store, decodes it
//! (which re-checks every frame checksum), and verifies full coverage:
//! each (subgraph, timestep) pair appears exactly once, with column shapes
//! matching the subgraph's vertex/edge counts. Used by the CLI and by
//! tests; also returns [`DatasetStats`] for capacity planning.

use crate::error::{GofsError, Result};
use crate::slice::{decode_slice, SliceKey};
use crate::store::{bins_for_partition, GofsStore};
use tempograph_partition::PartitionedGraph;

/// Aggregate storage statistics gathered during validation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DatasetStats {
    /// Slice files present.
    pub slice_files: u64,
    /// Total bytes on disk across slice files.
    pub total_bytes: u64,
    /// Bytes per partition.
    pub bytes_per_partition: Vec<u64>,
    /// (subgraph, timestep) records validated.
    pub records: u64,
}

/// Validate every slice of `store` against `pg` (which must be the store's
/// own partitioned view). Returns storage statistics on success.
pub fn validate_dataset(store: &GofsStore, pg: &PartitionedGraph) -> Result<DatasetStats> {
    let meta = store.meta();
    let n_packs = meta.num_timesteps.div_ceil(meta.packing);
    let mut stats = DatasetStats {
        bytes_per_partition: vec![0; meta.num_partitions],
        ..Default::default()
    };

    for p in 0..meta.num_partitions as u16 {
        let bins = bins_for_partition(pg, p, meta.binning);
        for (bi, bin) in bins.iter().enumerate() {
            // Coverage matrix for this bin: sg × timestep.
            let mut covered = vec![false; bin.len() * meta.num_timesteps];
            for pack in 0..n_packs as u32 {
                let key = SliceKey {
                    bin: bi as u32,
                    pack,
                };
                let path = store.slice_path(p, key);
                let data = std::fs::read(&path).map_err(|e| {
                    GofsError::Corrupt(format!("missing slice {}: {e}", path.display()))
                })?;
                stats.slice_files += 1;
                stats.total_bytes += data.len() as u64;
                stats.bytes_per_partition[p as usize] += data.len() as u64;

                let slice = decode_slice(&data)?;
                if slice.partition != p || slice.key != key {
                    return Err(GofsError::Corrupt(format!(
                        "slice {} self-identifies as partition {} {:?}",
                        path.display(),
                        slice.partition,
                        slice.key
                    )));
                }
                if slice.sg_ids != *bin {
                    return Err(GofsError::Corrupt(format!(
                        "slice {} covers subgraphs {:?}, expected {:?}",
                        path.display(),
                        slice.sg_ids,
                        bin
                    )));
                }
                // Walk the column directory before forcing any column so
                // layout problems are reported as directory faults, not as
                // whichever cell tripped first.
                let (offsets, blocks_len, nvc, nec) = slice.directory();
                let cells = slice.sg_ids.len() * slice.n_timesteps;
                if offsets.len() != cells + 1 {
                    return Err(GofsError::Corrupt(format!(
                        "slice {} directory has {} offsets for {} cells",
                        path.display(),
                        offsets.len(),
                        cells
                    )));
                }
                for (si, &sg_id) in bin.iter().enumerate() {
                    let sg = pg.subgraph(sg_id);
                    let base = si * slice.n_timesteps;
                    // A base snapshot stores every column in full; it
                    // cannot be empty unless the subgraph has no
                    // attributes at all.
                    let base_len = offsets[base + 1] - offsets[base];
                    let has_cols = (nvc > 0 && sg.num_vertices() > 0)
                        || (nec > 0 && sg.num_edges() > 0)
                        || nvc + nec > 0;
                    if has_cols && base_len == 0 {
                        return Err(GofsError::Corrupt(format!(
                            "slice {} has an empty base snapshot for {sg_id}",
                            path.display()
                        )));
                    }
                }
                if offsets.last().copied() != Some(blocks_len as u64) {
                    return Err(GofsError::Corrupt(format!(
                        "slice {} directory does not span its block region",
                        path.display()
                    )));
                }
                for (si, &sg_id) in bin.iter().enumerate() {
                    let sg = pg.subgraph(sg_id);
                    for toff in 0..slice.n_timesteps {
                        let t = slice.t_start + toff;
                        if t >= meta.num_timesteps {
                            return Err(GofsError::Corrupt(format!(
                                "slice {} covers timestep {t} beyond dataset",
                                path.display()
                            )));
                        }
                        let inst = slice.get(sg_id, t).map_err(|e| {
                            GofsError::Corrupt(format!("incomplete slice: {sg_id}@{t}: {e}"))
                        })?;
                        // Force every column: laziness must not hide a
                        // corrupt record from validation.
                        let vertex = (0..nvc).map(|c| (inst.vertex_col(c), sg.num_vertices()));
                        let edge = (0..nec).map(|c| (inst.edge_col(c), sg.num_edges()));
                        for (col, rows) in vertex.chain(edge) {
                            let got = col?.num_rows();
                            if got != rows {
                                return Err(GofsError::Corrupt(format!(
                                    "{sg_id}@{t}: column of {got} rows, expected {rows}"
                                )));
                            }
                        }
                        let cell = si * meta.num_timesteps + t;
                        if covered[cell] {
                            return Err(GofsError::Corrupt(format!("{sg_id}@{t} stored twice")));
                        }
                        covered[cell] = true;
                        stats.records += 1;
                    }
                }
            }
            if let Some(hole) = covered.iter().position(|&c| !c) {
                let sg = bin[hole / meta.num_timesteps];
                let t = hole % meta.num_timesteps;
                return Err(GofsError::Corrupt(format!("{sg}@{t} missing from store")));
            }
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::write_dataset;
    use std::sync::Arc;
    use tempograph_core::{AttrType, TemplateBuilder, TimeSeriesCollection};
    use tempograph_partition::{discover_subgraphs, MultilevelPartitioner, Partitioner};

    fn dataset(dir: &std::path::Path) -> (Arc<PartitionedGraph>, GofsStore) {
        let mut b = TemplateBuilder::new("val", false);
        b.vertex_schema().add("x", AttrType::Long);
        b.edge_schema().add("w", AttrType::Double);
        for i in 0..24 {
            b.add_vertex(i);
        }
        for i in 0..23u64 {
            b.add_edge(i, i, i + 1).unwrap();
        }
        let t = Arc::new(b.finalize().unwrap());
        let part = MultilevelPartitioner::default().partition(&t, 3);
        let pg = Arc::new(discover_subgraphs(t.clone(), part));
        let mut coll = TimeSeriesCollection::new(t, 0, 1);
        for _ in 0..13 {
            coll.push(coll.new_instance()).unwrap();
        }
        write_dataset(dir, pg.clone(), &coll, 5, 2).unwrap();
        (pg, GofsStore::open(dir).unwrap())
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("gofs-validate-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn valid_dataset_passes_with_stats() {
        let dir = tmpdir("ok");
        let (pg, store) = dataset(&dir);
        let stats = validate_dataset(&store, &pg).unwrap();
        assert!(stats.slice_files > 0);
        assert!(stats.total_bytes > 0);
        assert_eq!(stats.bytes_per_partition.len(), 3);
        // Every (subgraph, timestep) pair exactly once.
        assert_eq!(stats.records as usize, pg.subgraphs().len() * 13);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_slice_is_reported() {
        let dir = tmpdir("corrupt");
        let (pg, store) = dataset(&dir);
        // Flip one byte in some slice file.
        let victim = store.slice_path(0, SliceKey { bin: 0, pack: 0 });
        let mut data = std::fs::read(&victim).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0xFF;
        std::fs::write(&victim, data).unwrap();
        assert!(validate_dataset(&store, &pg).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_slice_is_reported() {
        let dir = tmpdir("missing");
        let (pg, store) = dataset(&dir);
        std::fs::remove_file(store.slice_path(1, SliceKey { bin: 0, pack: 1 })).unwrap();
        let err = validate_dataset(&store, &pg).unwrap_err();
        assert!(err.to_string().contains("missing slice"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
