//! Dataset directory layout, metadata, writer and reader.
//!
//! ```text
//! dataset/
//!   meta.bin            framed dataset metadata
//!   template.bin        framed GraphTemplate
//!   partitioning.bin    framed vertex→partition assignment
//!   partition-000/      one directory per partition ("host disk")
//!     slice-b0000-p0000.slice
//!     ...
//! ```

use crate::codec::{self, frame, unframe};
use crate::error::{GofsError, Result};
use crate::slice::{encode_slice, SliceKey};
use crate::view::Projection;
use bytes::{Buf, BufMut, BytesMut};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tempograph_core::{GraphInstance, GraphTemplate, TimeSeriesCollection};
use tempograph_partition::{discover_subgraphs, PartitionedGraph, Partitioning, SubgraphId};

const META_MAGIC: [u8; 4] = *b"GFMT";
const PART_MAGIC: [u8; 4] = *b"GFPT";

/// The staging sibling [`write_atomic`] writes into before renaming
/// (exposed so fault-injection tests can assert that a crash mid-write
/// leaves only this file behind, never a torn target).
pub fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Write `data` to `path` atomically: stage into a `.tmp` sibling, then
/// rename over the target. Readers can never observe a half-written file —
/// a crash mid-write leaves the old target (or nothing) plus a stale
/// `.tmp`. All GoFS dataset files and engine checkpoint files go through
/// this, so every on-disk frame is either absent or complete.
pub fn write_atomic(path: impl AsRef<Path>, data: &[u8]) -> Result<()> {
    let path = path.as_ref();
    let tmp = tmp_sibling(path);
    std::fs::write(&tmp, data)?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Dataset-level metadata persisted in `meta.bin`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DatasetMeta {
    /// Dataset name (from the template).
    pub name: String,
    /// `t0`.
    pub start_time: i64,
    /// `δ`.
    pub period: i64,
    /// Number of stored instances.
    pub num_timesteps: usize,
    /// Number of partitions.
    pub num_partitions: usize,
    /// Temporal packing factor (instances per slice; the paper uses 10).
    pub packing: usize,
    /// Subgraph binning factor (subgraphs per slice; the paper uses 5).
    pub binning: usize,
}

impl DatasetMeta {
    fn encode(&self) -> bytes::Bytes {
        let mut buf = BytesMut::new();
        codec::put_str(&mut buf, &self.name);
        buf.put_i64_le(self.start_time);
        buf.put_i64_le(self.period);
        buf.put_u64_le(self.num_timesteps as u64);
        buf.put_u32_le(self.num_partitions as u32);
        buf.put_u32_le(self.packing as u32);
        buf.put_u32_le(self.binning as u32);
        frame(META_MAGIC, &buf)
    }

    fn decode(data: &[u8]) -> Result<Self> {
        let mut buf = unframe(META_MAGIC, data)?;
        let name = codec::get_str(&mut buf)?;
        let start_time = codec::get_i64(&mut buf)?;
        let period = codec::get_i64(&mut buf)?;
        let num_timesteps = codec::get_u64(&mut buf)? as usize;
        let num_partitions = codec::get_u32(&mut buf)? as usize;
        let packing = codec::get_u32(&mut buf)? as usize;
        let binning = codec::get_u32(&mut buf)? as usize;
        if packing == 0 || binning == 0 {
            return Err(GofsError::Corrupt("packing/binning must be ≥ 1".into()));
        }
        Ok(DatasetMeta {
            name,
            start_time,
            period,
            num_timesteps,
            num_partitions,
            packing,
            binning,
        })
    }
}

fn encode_partitioning(p: &Partitioning) -> bytes::Bytes {
    let mut buf = BytesMut::new();
    buf.put_u32_le(p.k as u32);
    buf.put_u64_le(p.assignment.len() as u64);
    for &a in &p.assignment {
        buf.put_u16_le(a);
    }
    frame(PART_MAGIC, &buf)
}

fn decode_partitioning(data: &[u8]) -> Result<Partitioning> {
    let mut buf = unframe(PART_MAGIC, data)?;
    let k = codec::get_u32(&mut buf)? as usize;
    let n = codec::get_u64(&mut buf)? as usize;
    if buf.remaining() != n * 2 {
        return Err(GofsError::Corrupt("assignment length mismatch".into()));
    }
    let assignment = (0..n).map(|_| buf.get_u16_le()).collect();
    Ok(Partitioning { assignment, k })
}

/// Split a partition's subgraph list into bins of at most `binning`, in
/// [`SubgraphId`] order. Writer and loader both derive bins through this
/// single function so they always agree.
pub fn bins_for_partition(
    pg: &PartitionedGraph,
    partition: u16,
    binning: usize,
) -> Vec<Vec<SubgraphId>> {
    pg.subgraphs_of_partition(partition)
        .chunks(binning)
        .map(|c| c.to_vec())
        .collect()
}

/// Streaming dataset writer: feed instances in timestep order; slices flush
/// to disk whenever a pack fills.
pub struct GofsWriter {
    dir: PathBuf,
    pg: Arc<PartitionedGraph>,
    start_time: i64,
    period: i64,
    packing: usize,
    binning: usize,
    /// Buffered projections, `packing × subgraphs` of them alive at once:
    /// `pending[partition][bin][sg_in_bin][t_offset]`.
    pending: Vec<Vec<Vec<Vec<Projection>>>>,
    bins: Vec<Vec<Vec<SubgraphId>>>,
    next_timestep: usize,
    pack_index: u32,
}

impl GofsWriter {
    /// Create the dataset directory structure and an empty writer.
    pub fn create(
        dir: impl AsRef<Path>,
        pg: Arc<PartitionedGraph>,
        start_time: i64,
        period: i64,
        packing: usize,
        binning: usize,
    ) -> Result<Self> {
        assert!(packing >= 1 && binning >= 1, "packing/binning must be ≥ 1");
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let k = pg.num_partitions();
        for p in 0..k {
            std::fs::create_dir_all(dir.join(format!("partition-{p:03}")))?;
        }
        write_atomic(
            dir.join("template.bin"),
            &codec::encode_template(pg.template()),
        )?;
        write_atomic(
            dir.join("partitioning.bin"),
            &encode_partitioning(pg.partitioning()),
        )?;
        let bins: Vec<Vec<Vec<SubgraphId>>> = (0..k)
            .map(|p| bins_for_partition(&pg, p as u16, binning))
            .collect();
        let pending = bins
            .iter()
            .map(|pbins| pbins.iter().map(|b| vec![Vec::new(); b.len()]).collect())
            .collect();
        Ok(GofsWriter {
            dir,
            pg,
            start_time,
            period,
            packing,
            binning,
            pending,
            bins,
            next_timestep: 0,
            pack_index: 0,
        })
    }

    /// Project and buffer one instance; flushes full packs to disk.
    pub fn append_instance(&mut self, instance: &GraphInstance) -> Result<()> {
        instance.validate_against(self.pg.template())?;
        let t = self.next_timestep;
        for p in 0..self.pg.num_partitions() {
            for (bi, bin) in self.bins[p].iter().enumerate() {
                for (si, &sg_id) in bin.iter().enumerate() {
                    let sg = self.pg.subgraph(sg_id);
                    self.pending[p][bi][si].push(Projection::project(instance, sg, t));
                }
            }
        }
        self.next_timestep += 1;
        if self.next_timestep.is_multiple_of(self.packing) {
            self.flush_pack()?;
        }
        Ok(())
    }

    fn flush_pack(&mut self) -> Result<()> {
        let t_start = self.pack_index as usize * self.packing;
        for p in 0..self.pg.num_partitions() {
            for (bi, bin) in self.bins[p].iter().enumerate() {
                let rows: Vec<Vec<Projection>> =
                    self.pending[p][bi].iter_mut().map(std::mem::take).collect();
                if rows.first().is_none_or(|r| r.is_empty()) {
                    continue;
                }
                let key = SliceKey {
                    bin: bi as u32,
                    pack: self.pack_index,
                };
                let data = encode_slice(p as u16, key, bin, t_start, &rows);
                let path = self
                    .dir
                    .join(format!("partition-{p:03}"))
                    .join(key.file_name());
                write_atomic(path, &data)?;
            }
        }
        self.pack_index += 1;
        Ok(())
    }

    /// Flush any partial pack and write `meta.bin`. Returns the final meta.
    pub fn finish(mut self) -> Result<DatasetMeta> {
        if !self.next_timestep.is_multiple_of(self.packing) {
            self.flush_pack()?;
        }
        let meta = DatasetMeta {
            name: self.pg.template().name().to_string(),
            start_time: self.start_time,
            period: self.period,
            num_timesteps: self.next_timestep,
            num_partitions: self.pg.num_partitions(),
            packing: self.packing,
            binning: self.binning,
        };
        write_atomic(self.dir.join("meta.bin"), &meta.encode())?;
        Ok(meta)
    }
}

/// Write a whole in-memory collection as a GoFS dataset in one call.
pub fn write_dataset(
    dir: impl AsRef<Path>,
    pg: Arc<PartitionedGraph>,
    collection: &TimeSeriesCollection,
    packing: usize,
    binning: usize,
) -> Result<DatasetMeta> {
    let mut w = GofsWriter::create(
        dir,
        pg,
        collection.start_time(),
        collection.period(),
        packing,
        binning,
    )?;
    for g in collection.iter() {
        w.append_instance(g)?;
    }
    w.finish()
}

/// An opened GoFS dataset.
#[derive(Clone, Debug)]
pub struct GofsStore {
    dir: PathBuf,
    meta: DatasetMeta,
    template: Arc<GraphTemplate>,
    partitioning: Partitioning,
}

impl GofsStore {
    /// Open a dataset directory written by [`GofsWriter`].
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        let meta = DatasetMeta::decode(&std::fs::read(dir.join("meta.bin"))?)?;
        let template = Arc::new(codec::decode_template(&std::fs::read(
            dir.join("template.bin"),
        )?)?);
        let partitioning = decode_partitioning(&std::fs::read(dir.join("partitioning.bin"))?)?;
        partitioning
            .validate(&template)
            .map_err(GofsError::Corrupt)?;
        Ok(GofsStore {
            dir,
            meta,
            template,
            partitioning,
        })
    }

    /// Dataset metadata.
    pub fn meta(&self) -> &DatasetMeta {
        &self.meta
    }

    /// The decoded template.
    pub fn template(&self) -> &Arc<GraphTemplate> {
        &self.template
    }

    /// The stored partitioning.
    pub fn partitioning(&self) -> &Partitioning {
        &self.partitioning
    }

    /// Rebuild the partitioned view (subgraph discovery is deterministic,
    /// so ids match the writer's).
    pub fn partitioned_graph(&self) -> PartitionedGraph {
        discover_subgraphs(self.template.clone(), self.partitioning.clone())
    }

    /// Path of one slice file.
    pub fn slice_path(&self, partition: u16, key: SliceKey) -> PathBuf {
        self.dir
            .join(format!("partition-{partition:03}"))
            .join(key.file_name())
    }

    /// Dataset root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slice::decode_slice;
    use tempograph_core::AttrType;
    use tempograph_core::TemplateBuilder;
    use tempograph_partition::{MultilevelPartitioner, Partitioner};

    fn tmp() -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "gofs-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn small_dataset() -> (Arc<PartitionedGraph>, TimeSeriesCollection) {
        let mut b = TemplateBuilder::new("store-test", false);
        b.vertex_schema().add("v", AttrType::Long);
        b.edge_schema().add("w", AttrType::Double);
        for i in 0..20 {
            b.add_vertex(i);
        }
        for i in 0..19u64 {
            b.add_edge(i, i, i + 1).unwrap();
        }
        let t = Arc::new(b.finalize().unwrap());
        let part = MultilevelPartitioner::default().partition(&t, 2);
        let pg = Arc::new(discover_subgraphs(t.clone(), part));
        let mut coll = TimeSeriesCollection::new(t, 100, 5);
        for ts in 0..7 {
            let mut g = coll.new_instance();
            for (i, x) in g.vertex_i64_mut("v").unwrap().iter_mut().enumerate() {
                *x = (ts * 100 + i) as i64;
            }
            for (i, x) in g.edge_f64_mut("w").unwrap().iter_mut().enumerate() {
                *x = ts as f64 + i as f64 / 100.0;
            }
            coll.push(g).unwrap();
        }
        (pg, coll)
    }

    #[test]
    fn write_and_reopen_dataset() {
        let dir = tmp();
        let (pg, coll) = small_dataset();
        let meta = write_dataset(&dir, pg.clone(), &coll, 3, 2).unwrap();
        assert_eq!(meta.num_timesteps, 7);
        assert_eq!(meta.packing, 3);

        let store = GofsStore::open(&dir).unwrap();
        assert_eq!(store.meta(), &meta);
        assert_eq!(store.template().num_vertices(), 20);
        assert_eq!(store.partitioning(), pg.partitioning());

        // Re-discovered subgraphs match the writer's ids.
        let pg2 = store.partitioned_graph();
        assert_eq!(pg2.subgraphs().len(), pg.subgraphs().len());
        for (a, b) in pg.subgraphs().iter().zip(pg2.subgraphs().iter()) {
            assert_eq!(a.vertices(), b.vertices());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn slice_files_cover_all_packs() {
        let dir = tmp();
        let (pg, coll) = small_dataset();
        write_dataset(&dir, pg.clone(), &coll, 3, 2).unwrap();
        let store = GofsStore::open(&dir).unwrap();
        // 7 timesteps, packing 3 ⇒ packs 0,1,2 (last partial).
        for p in 0..pg.num_partitions() as u16 {
            let n_bins = bins_for_partition(&pg, p, 2).len();
            for bin in 0..n_bins as u32 {
                for pack in 0..3u32 {
                    let path = store.slice_path(p, SliceKey { bin, pack });
                    let data = std::fs::read(&path).expect("slice exists");
                    let slice = decode_slice(&data).unwrap();
                    assert_eq!(slice.partition, p);
                    let expect_n = if pack == 2 { 1 } else { 3 };
                    assert_eq!(slice.n_timesteps, expect_n, "pack {pack}");
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn projected_values_roundtrip_through_disk() {
        let dir = tmp();
        let (pg, coll) = small_dataset();
        write_dataset(&dir, pg.clone(), &coll, 10, 5).unwrap();
        let store = GofsStore::open(&dir).unwrap();
        // Pick a subgraph + timestep and compare against direct projection.
        let sg = &pg.subgraphs()[0];
        let slice = decode_slice(
            &std::fs::read(store.slice_path(sg.partition(), SliceKey { bin: 0, pack: 0 })).unwrap(),
        )
        .unwrap();
        let from_disk = slice.get(sg.id(), 4).expect("covered");
        let direct = crate::SubgraphInstance::project(coll.get(4).unwrap(), sg, 4);
        assert_eq!(*from_disk, direct);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn meta_roundtrip() {
        let m = DatasetMeta {
            name: "x".into(),
            start_time: -5,
            period: 60,
            num_timesteps: 50,
            num_partitions: 9,
            packing: 10,
            binning: 5,
        };
        assert_eq!(DatasetMeta::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn partitioning_roundtrip() {
        let p = Partitioning {
            assignment: vec![0, 2, 1, 2, 0],
            k: 3,
        };
        assert_eq!(decode_partitioning(&encode_partitioning(&p)).unwrap(), p);
    }

    #[test]
    fn open_missing_dir_fails() {
        assert!(GofsStore::open("/nonexistent/gofs-dataset").is_err());
    }

    #[test]
    fn write_atomic_replaces_and_leaves_no_staging_file() {
        let dir = tmp();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("target.bin");
        write_atomic(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        write_atomic(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        assert!(
            !tmp_sibling(&path).exists(),
            "staging file must be renamed away"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
