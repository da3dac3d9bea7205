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

use crate::codec::{self, decode_framed, frame};
use crate::error::{GofsError, Result};
use crate::slice::{encode_slice, SliceKey};
use crate::view::Projection;
use bytes::{Buf, Bytes, BytesMut};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tempograph_core::wire::{self, WireError, WireMsg};
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
    write_atomic_parts(path.as_ref(), &[data])
}

/// [`write_atomic`] of `parts`, one after the other, joined by nothing
/// but the file.
fn write_atomic_parts(path: &Path, parts: &[&[u8]]) -> Result<()> {
    let tmp = tmp_sibling(path);
    let mut file = std::fs::File::create(&tmp)?;
    parts.iter().try_for_each(|part| file.write_all(part))?;
    drop(file);
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

/// A partition count read off disk. Partition ids are `u16`, so one past
/// 65 536 is corrupt, refused before anything is sized by it.
fn get_partition_count(buf: &mut Bytes) -> std::result::Result<usize, WireError> {
    match wire::get_u32(buf, "partition count")? {
        k if k <= 1 << 16 => Ok(k as usize),
        k => Err(WireError::OutOfRange {
            context: "partition count",
            value: k.into(),
        }),
    }
}

impl DatasetMeta {
    fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        self.name.encode(&mut buf);
        self.start_time.encode(&mut buf);
        self.period.encode(&mut buf);
        (self.num_timesteps as u64).encode(&mut buf);
        (self.num_partitions as u32).encode(&mut buf);
        (self.packing as u32).encode(&mut buf);
        (self.binning as u32).encode(&mut buf);
        frame(META_MAGIC, &buf)
    }

    fn decode(data: Bytes) -> Result<Self> {
        // Fields decode in the order they are written.
        let meta = decode_framed(META_MAGIC, data, "dataset meta", |buf| {
            Ok(DatasetMeta {
                name: String::decode(buf)?,
                start_time: i64::decode(buf)?,
                period: i64::decode(buf)?,
                num_timesteps: u64::decode(buf)? as usize,
                num_partitions: get_partition_count(buf)?,
                packing: u32::decode(buf)? as usize,
                binning: u32::decode(buf)? as usize,
            })
        })?;
        if meta.packing == 0 || meta.binning == 0 {
            return Err(GofsError::Corrupt("packing/binning must be ≥ 1".into()));
        }
        Ok(meta)
    }
}

fn encode_partitioning(p: &Partitioning) -> Bytes {
    let mut buf = BytesMut::new();
    (p.k as u32).encode(&mut buf);
    (p.assignment.len() as u64).encode(&mut buf);
    for a in &p.assignment {
        a.encode(&mut buf);
    }
    frame(PART_MAGIC, &buf)
}

fn decode_partitioning(data: Bytes) -> Result<Partitioning> {
    decode_framed(PART_MAGIC, data, "partitioning", |buf| {
        let k = get_partition_count(buf)?;
        // The entries are the rest of the payload: the count is vetted
        // once, then they are read as one run of 2-byte words.
        let n = u64::decode(buf)?;
        if n.checked_mul(2) != Some(buf.remaining() as u64) {
            let context = "assignment length";
            return Err(WireError::OutOfRange { context, value: n });
        }
        let assignment = buf.as_chunks::<2>().0.iter();
        let assignment = assignment.map(|&a| u16::from_le_bytes(a)).collect();
        buf.advance(buf.remaining());
        Ok(Partitioning { assignment, k })
    })
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
                // The head, then the blocks: no buffer holds both.
                let file = encode_slice(p as u16, key, bin, t_start, &rows);
                let path = self
                    .dir
                    .join(format!("partition-{p:03}"))
                    .join(key.file_name());
                write_atomic_parts(&path, &[&file.head, &file.blocks])?;
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
///
/// Two ways in. [`GofsStore::open`] reads everything — meta, template and
/// partitioning — for a caller that has no graph yet. [`GofsStore::attach`]
/// reads only `meta.bin` and takes the graph from a [`PartitionedGraph`]
/// the caller already holds; it is how a job's workers reach their slices
/// without decoding the graph again.
#[derive(Clone, Debug)]
pub struct GofsStore {
    dir: PathBuf,
    meta: DatasetMeta,
    template: Arc<GraphTemplate>,
    partitioning: Arc<Partitioning>,
}

fn read_meta(dir: &Path) -> Result<DatasetMeta> {
    DatasetMeta::decode(std::fs::read(dir.join("meta.bin"))?.into())
}

fn check_partitions(meta: &DatasetMeta, k: usize) -> Result<()> {
    if meta.num_partitions != k {
        return Err(GofsError::Corrupt(format!(
            "meta.bin names {} partitions, the graph has {k}",
            meta.num_partitions
        )));
    }
    Ok(())
}

impl GofsStore {
    /// Open a dataset directory written by [`GofsWriter`]: decode its
    /// metadata, template and partitioning, the template parsed in the
    /// buffer it was read into.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        let meta = read_meta(&dir)?;
        let template = std::fs::read(dir.join("template.bin"))?;
        let template = Arc::new(codec::decode_template(template.into())?);
        let partitioning =
            decode_partitioning(std::fs::read(dir.join("partitioning.bin"))?.into())?;
        partitioning
            .validate(&template)
            .map_err(GofsError::Corrupt)?;
        check_partitions(&meta, partitioning.k)?;
        Ok(GofsStore {
            dir,
            meta,
            template,
            partitioning: Arc::new(partitioning),
        })
    }

    /// Attach to the dataset `pg` was built from: read and check `meta.bin`
    /// only, and share `pg`'s template and partitioning instead of decoding
    /// `template.bin` and `partitioning.bin`. The caller vouches that `pg`
    /// is this dataset's graph (as [`Self::partitioned_graph`] of an open
    /// store, or the graph the dataset was written from).
    pub fn attach(dir: impl AsRef<Path>, pg: &PartitionedGraph) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        let meta = read_meta(&dir)?;
        check_partitions(&meta, pg.num_partitions())?;
        Ok(GofsStore {
            dir,
            meta,
            template: pg.template().clone(),
            partitioning: pg.partitioning().clone(),
        })
    }

    /// Dataset metadata.
    pub fn meta(&self) -> &DatasetMeta {
        &self.meta
    }

    /// The dataset's template.
    pub fn template(&self) -> &Arc<GraphTemplate> {
        &self.template
    }

    /// The dataset's partitioning.
    pub fn partitioning(&self) -> &Arc<Partitioning> {
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

    /// Byte goldens for the three metadata files: `meta.bin`,
    /// `template.bin` (two schemas, three vertices, two edges) and
    /// `partitioning.bin`.
    #[test]
    fn golden_store_metadata() {
        use codec::{assert_hex_golden, decode_template, encode_template, FORMAT_VERSION};
        let meta = DatasetMeta {
            name: "golden".into(),
            start_time: 1_400_000_000,
            period: 3600,
            num_timesteps: 7,
            num_partitions: 2,
            packing: 3,
            binning: 5,
        };
        let mut b = TemplateBuilder::new("golden", true);
        b.vertex_schema().add("v", AttrType::Long);
        b.edge_schema().add("w", AttrType::Double);
        b.edge_schema().add("tags", AttrType::Text);
        for id in [0xA1, 0xA2, 0xA3] {
            b.add_vertex(id);
        }
        b.add_edge(0xE1, 0xA1, 0xA2).unwrap();
        b.add_edge(0xE2, 0xA3, 0xA1).unwrap();
        let template = b.finalize().unwrap();
        let partitioning = Partitioning {
            assignment: vec![0, 1, 1],
            k: 2,
        };
        let (m, t, p) = (
            meta.encode(),
            encode_template(&template),
            encode_partitioning(&partitioning),
        );
        let golden = |bytes: &[u8], file: &str| {
            assert_hex_golden(bytes, file, "FORMAT_VERSION", FORMAT_VERSION)
        };
        golden(&m, include_str!("../testdata/meta.hex"));
        golden(&t, include_str!("../testdata/template.hex"));
        golden(&p, include_str!("../testdata/partitioning.hex"));
        assert_eq!(DatasetMeta::decode(m.clone()).unwrap(), meta);
        assert_eq!(decode_template(t).unwrap().num_edges(), 2);
        assert_eq!(decode_partitioning(p.clone()).unwrap(), partitioning);
    }

    /// Partition ids are `u16`: a count past 65 536 is corrupt in either
    /// file, before anything is sized by it.
    #[test]
    fn partition_count_past_u16_ids_is_corrupt() {
        let meta = |num_partitions| DatasetMeta {
            name: "k".into(),
            start_time: 0,
            period: 1,
            num_timesteps: 1,
            num_partitions,
            packing: 1,
            binning: 1,
        };
        let partitioning = |k| {
            encode_partitioning(&Partitioning {
                assignment: vec![],
                k,
            })
        };
        assert_eq!(
            DatasetMeta::decode(meta(65_536).encode()).unwrap(),
            meta(65_536)
        );
        assert_eq!(decode_partitioning(partitioning(65_536)).unwrap().k, 65_536);
        assert!(matches!(
            DatasetMeta::decode(meta(65_537).encode()),
            Err(GofsError::Corrupt(_))
        ));
        assert!(matches!(
            decode_partitioning(partitioning(65_537)),
            Err(GofsError::Corrupt(_))
        ));
    }

    /// Every single-bit flip and every truncation of the golden `meta.bin`
    /// and `partitioning.bin` payloads, re-sealed in a valid frame, decodes
    /// to a typed error or to a value that keeps the decoder's invariants
    /// — never a panic.
    #[test]
    fn metadata_decoders_survive_every_flip_and_cut() {
        let payload = |golden: &str, magic| {
            let hex: String = golden.lines().skip(1).collect::<Vec<_>>().concat();
            let bytes: Vec<u8> = (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
                .collect();
            codec::unframe_owned(magic, bytes.into()).unwrap().to_vec()
        };
        let damaged = |payload: &[u8]| {
            let flips = (0..payload.len() * 8).map(|bit| {
                let mut p = payload.to_vec();
                p[bit / 8] ^= 1 << (bit % 8);
                p
            });
            let cuts = (0..payload.len()).map(|n| payload[..n].to_vec());
            flips.chain(cuts).collect::<Vec<_>>()
        };
        let mut decoded = [0usize; 2];
        let meta = payload(include_str!("../testdata/meta.hex"), META_MAGIC);
        for p in damaged(&meta) {
            match DatasetMeta::decode(frame(META_MAGIC, &p)) {
                Ok(m) => {
                    assert!(m.packing >= 1 && m.binning >= 1, "{m:?}");
                    assert!(m.num_partitions <= 65_536, "{m:?}");
                    decoded[0] += 1;
                }
                Err(GofsError::Corrupt(_)) => {}
                Err(e) => panic!("untyped meta failure: {e}"),
            }
        }
        let part = payload(include_str!("../testdata/partitioning.hex"), PART_MAGIC);
        for p in damaged(&part) {
            match decode_partitioning(frame(PART_MAGIC, &p)) {
                Ok(d) => {
                    assert!(d.k <= 65_536, "{d:?}");
                    let count = u64::from_le_bytes(p[4..12].try_into().unwrap());
                    assert_eq!(d.assignment.len() as u64, count);
                    decoded[1] += 1;
                }
                Err(GofsError::Corrupt(_)) => {}
                Err(e) => panic!("untyped partitioning failure: {e}"),
            }
        }
        // Flips in names, times and assignment entries still decode.
        assert!(decoded.iter().all(|&n| n > 0), "{decoded:?}");
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

    /// Opening a store and discovering its subgraphs leave the template's
    /// whole-graph CSR unbuilt: a job's path reads only the subgraphs'.
    /// (The template keeps it private; its `Debug` form shows whether the
    /// lazy cell is filled.)
    #[test]
    fn open_and_discovery_build_no_template_csr() {
        let built = |t: &GraphTemplate| !format!("{t:?}").contains("csr: OnceLock(<uninit>)");
        let dir = tmp();
        let (pg, coll) = small_dataset();
        write_dataset(&dir, pg, &coll, 3, 2).unwrap();
        let store = GofsStore::open(&dir).unwrap();
        let pg = store.partitioned_graph();
        assert!(!built(store.template()), "open or discovery built the CSR");
        let v = pg.subgraphs()[0].vertex_at(0);
        assert!(!store.template().neighbors(v).is_empty());
        assert!(built(store.template()), "the probe must see a built CSR");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn attach_reads_meta_only_and_shares_the_graph() {
        let dir = tmp();
        let (pg, coll) = small_dataset();
        let meta = write_dataset(&dir, pg.clone(), &coll, 3, 2).unwrap();
        std::fs::remove_file(dir.join("template.bin")).unwrap();
        std::fs::remove_file(dir.join("partitioning.bin")).unwrap();
        assert!(GofsStore::open(&dir).is_err(), "open needs the graph files");

        let store = GofsStore::attach(&dir, &pg).unwrap();
        assert_eq!(store.meta(), &meta);
        assert!(Arc::ptr_eq(store.template(), pg.template()));
        assert!(Arc::ptr_eq(store.partitioning(), pg.partitioning()));

        // A graph with another partition count is not this dataset's.
        let other = discover_subgraphs(
            pg.template().clone(),
            Partitioning {
                assignment: vec![0; 20],
                k: 1,
            },
        );
        assert!(matches!(
            GofsStore::attach(&dir, &other),
            Err(GofsError::Corrupt(_))
        ));
        std::fs::remove_file(dir.join("meta.bin")).unwrap();
        assert!(matches!(
            GofsStore::attach(&dir, &pg),
            Err(GofsError::Io(_))
        ));
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
                    let slice = decode_slice(data.into()).unwrap();
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
            std::fs::read(store.slice_path(sg.partition(), SliceKey { bin: 0, pack: 0 }))
                .unwrap()
                .into(),
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
        assert_eq!(DatasetMeta::decode(m.encode()).unwrap(), m);
    }

    #[test]
    fn partitioning_roundtrip() {
        let p = Partitioning {
            assignment: vec![0, 2, 1, 2, 0],
            k: 3,
        };
        assert_eq!(decode_partitioning(encode_partitioning(&p)).unwrap(), p);
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
