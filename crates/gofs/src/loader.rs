//! Lazy per-partition instance loading with slice caching.
//!
//! GoFFish "only loads an instance if it is accessed. So inactive instances
//! are not loaded from disk, and fetched only when they perform a
//! computation or receive a message" (§IV.D). [`InstanceLoader`] reproduces
//! this at three grains. The first access to any (subgraph, timestep)
//! inside a slice reads the slice's *head* (header, column directory,
//! chunk checksums) — a miss. The first access to a (subgraph, timestep)
//! reads that instance's *block* and verifies its chunks. Each column of
//! an instance then decodes on the first accessor call that touches it
//! (see [`crate::view`]), so a job pays for the attributes and timesteps
//! it reads, not for the pack.
//!
//! A file of at most [`WHOLE_FILE_LEN`] bytes is read whole at its miss,
//! every chunk verified then: one read, and no file held open (a hash cut
//! has hundreds of bins per worker). A larger one keeps its file open,
//! and its blocks are read with `read_at` as they are asked for. The cache holds one slice head per
//! bin — the pack a worker is computing on, since a worker asks for
//! timesteps in non-decreasing order — and each slice keeps its
//! subgraphs' base instances only: a delta instance lives as long as its
//! holder (the engine keeps one per subgraph for one timestep). So a
//! worker streaming a large pack holds the head, the base blocks and the
//! blocks of the timestep it computes, not the pack. A large block is
//! read into the buffer of an earlier one no instance holds any more, so
//! a sweep allocates per pack, not per timestep.

use crate::codec::FRAME_OVERHEAD;
use crate::error::{GofsError, Result};
use crate::slice::{decode_head, decode_slice, head_len, SliceData, SliceKey};
use crate::store::{bins_for_partition, GofsStore};
use crate::view::SubgraphInstance;
use bytes::Bytes;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::Read;
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::sync::Arc;
use tempograph_partition::{PartitionedGraph, SubgraphId};
use tempograph_trace::TraceSink;

/// The largest slice file read whole at its miss. Every hash-cut file and
/// every small bin lies far below it, every pack of a large lattice far
/// above it; there a head read and per-block reads hold a few blocks
/// where a whole read would hold the pack.
pub const WHOLE_FILE_LEN: u64 = 1 << 20;

/// Counters describing a loader's I/O behaviour — the raw material for the
/// Fig. 6 spike analysis and ablation A2.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LoaderStats {
    /// Slice heads read and decoded (one per miss: a small file's whole
    /// contents, a large file's head).
    pub slice_loads: u64,
    /// Bytes read from disk: heads, whole files and blocks.
    pub bytes_read: u64,
    /// Cache hits (requests served by the slice head already held, block
    /// reads included).
    pub cache_hits: u64,
    /// Cache misses (requests that had to read a slice head from disk).
    /// Kept separately from [`LoaderStats::slice_loads`] so the hit rate
    /// stays well-defined even if future load paths (prefetch, warm-up)
    /// read slices without a triggering request.
    pub cache_misses: u64,
    /// Slot replacements: misses on a bin whose slot already held another
    /// pack, which the new one replaced.
    pub evictions: u64,
    /// Nanoseconds spent reading: each miss (file or head read, frame and
    /// chunk checksums, header and column directory) and each block read
    /// (read, chunk checksums), the instance asked for included. Column
    /// decode happens later, in whoever first touches the column, and is
    /// not in here. Each read adds the duration of its `gofs.load` span,
    /// from the same two clock readings.
    pub load_ns: u64,
}

/// One bin's cached pack: its slice, and the open file its blocks are
/// read from when the file was too large to read whole.
struct Slot {
    slice: Arc<SliceData>,
    file: Option<File>,
}

/// Lazy reader for one partition of a GoFS dataset. Single-threaded by
/// design: each engine worker owns its partition's loader (as each GoFFish
/// host owns its local GoFS shard).
pub struct InstanceLoader {
    store: GofsStore,
    partition: u16,
    /// `bin_of_sg[sg] = bin index` for this partition's subgraphs.
    bin_of_sg: BTreeMap<SubgraphId, u32>,
    /// `slots[bin]`: the one pack of that bin held, if any.
    slots: Vec<Option<Slot>>,
    stats: LoaderStats,
    /// Lifetime totals (never reset): the engine takes [`Self::stats`]
    /// every timestep to window its I/O metrics, but trace counters must
    /// be monotone.
    total: LoaderStats,
    /// Trace sink, sharing the owning worker's partition track once
    /// installed; inert until then, its clock still times every read.
    trace: TraceSink,
    /// Large blocks read so far, at most two per subgraph of the
    /// partition (a base and a delta each): a later read takes over the
    /// buffer of one no instance holds any more.
    spares: Vec<Bytes>,
}

/// The length of `at`, a range of a file the caller vetted.
fn len_of(at: &Range<u64>) -> Result<usize> {
    let len = at.end - at.start;
    usize::try_from(len).map_err(|_| GofsError::Corrupt(format!("a {len}-byte read")))
}

/// Read `at` of `file` into a buffer of its own.
fn read_range(file: &File, at: Range<u64>) -> Result<Bytes> {
    let mut buf = vec![0u8; len_of(&at)?];
    file.read_exact_at(&mut buf, at.start)?;
    Ok(buf.into())
}

/// Blocks at least this long — glibc's default mmap threshold, from which
/// its malloc would map a buffer on its own had the threshold not grown —
/// are read into recycled buffers that reserve [`MAPPED_LEN`] bytes.
const LARGE_BLOCK: usize = 128 << 10;

/// Bytes of address space a large block's buffer reserves. glibc's malloc
/// serves a request this large from a mapping of its own and unmaps it
/// when it is freed, whatever its adaptive threshold has grown to; so a
/// worker's block buffers leave with its loader instead of staying
/// resident in the worker thread's heap, where the coordinator's collect
/// after the job cannot reuse them. Only the block's own bytes are ever
/// touched. Where the reservation is refused, the buffer is the block's
/// length.
const MAPPED_LEN: usize = 32 << 20;

/// Read block `at` of `file`. A large block goes into a spare buffer no
/// instance holds any more, if there is one (else a new one), and is kept
/// among the spares, up to `cap` of them, for a later read to reclaim.
fn read_block(file: &File, at: Range<u64>, spares: &mut Vec<Bytes>, cap: usize) -> Result<Bytes> {
    let len = len_of(&at)?;
    if len < LARGE_BLOCK {
        return read_range(file, at);
    }
    let mut buf = reclaim(spares).unwrap_or_default();
    buf.clear();
    if buf.capacity() < len && buf.try_reserve_exact(len.max(MAPPED_LEN)).is_err() {
        buf.reserve_exact(len);
    }
    buf.resize(len, 0);
    file.read_exact_at(&mut buf, at.start)?;
    let block = Bytes::from(buf);
    if spares.len() < cap {
        spares.push(block.clone());
    }
    Ok(block)
}

/// The buffer of a spare no instance holds any more, if any.
fn reclaim(spares: &mut Vec<Bytes>) -> Option<Vec<u8>> {
    for i in 0..spares.len() {
        // Take spare `i` out (the last one fills its place) ...
        match spares.swap_remove(i).try_reclaim() {
            Ok(buf) => return Some(buf),
            // ... and put it back where it was while it is held.
            Err(held) => {
                spares.push(held);
                let last = spares.len() - 1;
                spares.swap(i, last);
            }
        }
    }
    None
}

impl InstanceLoader {
    /// Create a loader for `partition`, with one cache slot per bin of
    /// the partition: a miss replaces the bin's pack, so at most one
    /// slice per bin is held.
    pub fn new(store: GofsStore, pg: &PartitionedGraph, partition: u16) -> Self {
        let bins = bins_for_partition(pg, partition, store.meta().binning);
        let mut bin_of_sg = BTreeMap::new();
        for (bi, bin) in bins.iter().enumerate() {
            for &sg in bin {
                bin_of_sg.insert(sg, bi as u32);
            }
        }
        InstanceLoader {
            store,
            partition,
            bin_of_sg,
            slots: std::iter::repeat_with(|| None).take(bins.len()).collect(),
            stats: LoaderStats::default(),
            total: LoaderStats::default(),
            trace: TraceSink::inert(),
            spares: Vec::new(),
        }
    }

    /// The same loader as [`Self::new`]: one slot per bin is the only
    /// capacity there is. Only the benchmark (`perfbench/src/sut.rs`) still
    /// calls it, which keeps it alive under lint rule U01; the next change
    /// to the benchmark folds it into `new` (ROADMAP item 1(f)).
    pub fn with_default_capacity(store: GofsStore, pg: &PartitionedGraph, partition: u16) -> Self {
        Self::new(store, pg, partition)
    }

    /// I/O counters since the last [`Self::take_stats`].
    pub fn stats(&self) -> &LoaderStats {
        &self.stats
    }

    /// Drain the counters since the last call (e.g. once per timestep when
    /// sampling per-step I/O), leaving them zeroed.
    pub fn take_stats(&mut self) -> LoaderStats {
        std::mem::take(&mut self.stats)
    }

    /// Install a trace sink; slice and block reads become `"gofs.load"`
    /// spans and the cache counters (`gofs.cache_hits` /
    /// `gofs.cache_misses` / `gofs.bytes_read`) are sampled on every read.
    pub fn set_trace_sink(&mut self, sink: TraceSink) {
        self.trace = sink;
    }

    /// Hand the installed trace sink back (with a final counter sample) so
    /// the session can drain it; `None` when none records.
    pub fn take_trace_sink(&mut self) -> Option<TraceSink> {
        if !self.trace.on() {
            return None;
        }
        self.sample_counters();
        Some(std::mem::replace(&mut self.trace, TraceSink::inert()))
    }

    fn sample_counters(&mut self) {
        // Sample the lifetime totals, not the per-timestep window, so the
        // counter tracks stay monotone across `take_stats` calls.
        self.trace.counter("gofs.cache_hits", self.total.cache_hits);
        self.trace
            .counter("gofs.cache_misses", self.total.cache_misses);
        self.trace.counter("gofs.bytes_read", self.total.bytes_read);
    }

    /// Fetch the projected instance for `sg` at `timestep`, reading the
    /// covering slice's head from disk if its bin's slot holds another
    /// pack (or none), and the instance's block if it is not in memory.
    /// Any order of requests is answered correctly; one out of timestep
    /// order only costs a reload.
    pub fn load(&mut self, sg: SubgraphId, timestep: usize) -> Result<Arc<SubgraphInstance>> {
        let meta = self.store.meta();
        if timestep >= meta.num_timesteps {
            return Err(GofsError::OutOfRange(format!(
                "timestep {timestep} ≥ {}",
                meta.num_timesteps
            )));
        }
        let &bin = self.bin_of_sg.get(&sg).ok_or_else(|| {
            GofsError::OutOfRange(format!(
                "{sg} does not belong to partition {}",
                self.partition
            ))
        })?;
        let pack = (timestep / meta.packing) as u32;
        let key = SliceKey { bin, pack };

        // The bin's slot is emptied while it is used, and filled again
        // before this returns (when its head was read).
        let (mut read, mut miss) = (None, false);
        let slot = match self.slots[bin as usize].take() {
            Some(slot) if slot.slice.key == key => {
                self.stats.cache_hits += 1;
                self.total.cache_hits += 1;
                slot
            }
            old => {
                // Miss. The replaced pack goes before the read: the peak
                // holds one slice per bin, not one more.
                self.stats.cache_misses += 1;
                self.total.cache_misses += 1;
                if old.is_some() {
                    self.stats.evictions += 1;
                    self.total.evictions += 1;
                    self.trace.instant("gofs.evict", None);
                }
                drop(old);
                let t0 = self.trace.now();
                let (slot, bytes) = self.read_slice(key)?;
                (read, miss) = (Some((t0, bytes)), true);
                slot
            }
        };
        let (trace, spares) = (&self.trace, &mut self.spares);
        let cap = 2 * self.bin_of_sg.len();
        let inst = slot.slice.fetch(sg, timestep, &mut |at| {
            let file = slot.file.as_ref().ok_or_else(|| {
                GofsError::Corrupt(format!("slice {key:?} has no file to read blocks from"))
            })?;
            let (_, bytes) = read.get_or_insert_with(|| (trace.now(), 0));
            *bytes += at.end - at.start;
            read_block(file, at, spares, cap)
        });
        self.slots[bin as usize] = Some(slot);
        if let Some((t0, bytes)) = read {
            self.account(t0, bytes, miss);
        }
        inst
    }

    /// Read the slice file of `key`: whole when it is small, else its head
    /// only, checked against the file's length. Returns the slot and the
    /// bytes read.
    fn read_slice(&self, key: SliceKey) -> Result<(Slot, u64)> {
        let path = self.store.slice_path(self.partition, key);
        let mut file = File::open(&path)?;
        let len = file.metadata()?.len();
        let (slice, file, bytes) = if len <= WHOLE_FILE_LEN {
            let mut data = Vec::with_capacity(len as usize);
            file.read_to_end(&mut data)?;
            let bytes = data.len() as u64;
            (decode_slice(data.into())?, None, bytes)
        } else {
            let mut header = [0u8; FRAME_OVERHEAD];
            file.read_exact_at(&mut header, 0)?;
            let head_len = head_len(&header)?;
            if head_len > len {
                return Err(GofsError::Corrupt(format!(
                    "{}: a head of {head_len} bytes overruns the {len}-byte file",
                    path.display()
                )));
            }
            let head = read_range(&file, 0..head_len)?;
            (decode_head(head, len)?, Some(file), head_len)
        };
        if (slice.partition, slice.key) != (self.partition, key) {
            return Err(GofsError::Corrupt(format!(
                "{} holds partition {} bin {} pack {}, not partition {} bin {} pack {}",
                path.display(),
                slice.partition,
                slice.key.bin,
                slice.key.pack,
                self.partition,
                key.bin,
                key.pack
            )));
        }
        let slice = Arc::new(slice);
        Ok((Slot { slice, file }, bytes))
    }

    /// Count one read that started at `t0` and read `bytes`: a miss (a
    /// slice head read) or a block read, one `gofs.load` span either way.
    fn account(&mut self, t0: u64, bytes: u64, miss: bool) {
        let t1 = self.trace.now();
        let elapsed = t1 - t0;
        for stats in [&mut self.stats, &mut self.total] {
            stats.slice_loads += u64::from(miss);
            stats.bytes_read += bytes;
            stats.load_ns += elapsed;
        }
        self.trace.span_arg_at("gofs.load", t0, t1, "bytes", bytes);
        self.sample_counters();
    }

    /// Approximate heap bytes held by cached slices right now: each
    /// slice's head (a small file's whole buffer), its base blocks and
    /// the columns decoded so far. A slice starts at its head's size and
    /// grows as base instances are read and columns are touched.
    pub fn cached_bytes(&self) -> usize {
        let slots = self.slots.iter().flatten();
        slots.map(|s| s.slice.approx_bytes()).sum()
    }

    /// The packs held, one entry per occupied slot.
    #[cfg(test)]
    fn resident(&self) -> Vec<SliceKey> {
        let slots = self.slots.iter().flatten();
        slots.map(|s| s.slice.key).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::write_dataset;
    use crate::view::F64Cells;
    use std::path::PathBuf;
    use tempograph_core::{AttrType, TemplateBuilder, TimeSeriesCollection};
    use tempograph_partition::{
        discover_subgraphs, MultilevelPartitioner, Partitioner, Partitioning,
    };

    fn tmp(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "gofs-loader-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    /// A 30-vertex path with a `Long` vertex column `v = ts·1000 + i` and
    /// a `Double` edge column `w = ts·1000 + e + 0.5`, cut in two by the
    /// multilevel partitioner (one subgraph a partition).
    fn dataset(
        dir: &PathBuf,
        timesteps: usize,
        packing: usize,
        binning: usize,
    ) -> (Arc<PartitionedGraph>, GofsStore) {
        dataset_cut(dir, timesteps, packing, binning, None)
    }

    /// [`dataset`], cut by `cut(i)` when given instead.
    fn dataset_cut(
        dir: &PathBuf,
        timesteps: usize,
        packing: usize,
        binning: usize,
        cut: Option<fn(usize) -> u16>,
    ) -> (Arc<PartitionedGraph>, GofsStore) {
        let mut b = TemplateBuilder::new("loader-test", false);
        b.vertex_schema().add("v", AttrType::Long);
        b.edge_schema().add("w", AttrType::Double);
        for i in 0..30 {
            b.add_vertex(i);
        }
        for i in 0..29u64 {
            b.add_edge(i, i, i + 1).unwrap();
        }
        let t = Arc::new(b.finalize().unwrap());
        let part = match cut {
            Some(cut) => Partitioning {
                assignment: (0..30).map(cut).collect(),
                k: 2,
            },
            None => MultilevelPartitioner::default().partition(&t, 2),
        };
        let pg = Arc::new(discover_subgraphs(t.clone(), part));
        let mut coll = TimeSeriesCollection::new(t, 0, 1);
        for ts in 0..timesteps {
            let mut g = coll.new_instance();
            for (i, x) in g.vertex_i64_mut("v").unwrap().iter_mut().enumerate() {
                *x = (ts * 1000 + i) as i64;
            }
            for (e, x) in g.edge_f64_mut("w").unwrap().iter_mut().enumerate() {
                *x = (ts * 1000 + e) as f64 + 0.5;
            }
            coll.push(g).unwrap();
        }
        write_dataset(dir, pg.clone(), &coll, packing, binning).unwrap();
        (pg, GofsStore::open(dir).unwrap())
    }

    #[test]
    fn lazy_load_and_cache_hits() {
        let dir = tmp("basic");
        let (pg, store) = dataset(&dir, 20, 10, 5);
        let partition = 0u16;
        let sg = pg.subgraphs_of_partition(partition)[0];
        let mut loader = InstanceLoader::new(store, &pg, partition);

        // First access: one slice load.
        let si = loader.load(sg, 0).unwrap();
        assert_eq!(si.timestep, 0);
        assert_eq!(loader.stats().slice_loads, 1);

        // Timesteps 1..9 in the same pack: all cache hits.
        for t in 1..10 {
            loader.load(sg, t).unwrap();
        }
        assert_eq!(loader.stats().slice_loads, 1);
        assert_eq!(loader.stats().cache_hits, 9);

        // Timestep 10 crosses into the next pack: a new load — the Fig. 6
        // "every 10th timestep" spike.
        loader.load(sg, 10).unwrap();
        assert_eq!(loader.stats().slice_loads, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn loaded_values_are_correct() {
        let dir = tmp("values");
        let (pg, store) = dataset(&dir, 12, 4, 2);
        let partition = 1u16;
        let mut loader = InstanceLoader::new(store, &pg, partition);
        for &sg_id in pg.subgraphs_of_partition(partition) {
            let sg = pg.subgraph(sg_id);
            for t in [0usize, 5, 11] {
                let si = loader.load(sg_id, t).unwrap();
                let vals = si.vertex_i64(0).unwrap();
                for (pos, &v) in sg.vertices().iter().enumerate() {
                    assert_eq!(vals[pos], (t * 1000 + v.idx()) as i64);
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn eviction_respects_capacity() {
        let dir = tmp("evict");
        let (pg, store) = dataset(&dir, 30, 5, 5); // 6 packs, one bin
        let partition = 0u16;
        let sg = pg.subgraphs_of_partition(partition)[0];
        // The capacity is one slot per bin: here, one slice.
        let mut loader = InstanceLoader::new(store, &pg, partition);
        for t in 0..30 {
            loader.load(sg, t).unwrap();
            let pack = t as u32 / 5;
            assert_eq!(loader.resident(), vec![SliceKey { bin: 0, pack }]);
        }
        // The first pack filled an empty slot; each later one replaced one.
        assert_eq!(loader.stats().slice_loads, 6);
        assert_eq!(loader.stats().evictions, 5);
        // Going back to an evicted pack re-loads it.
        loader.load(sg, 0).unwrap();
        assert_eq!(loader.stats().slice_loads, 7);
        assert_eq!(loader.resident(), vec![SliceKey { bin: 0, pack: 0 }]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_miss_evicts_before_it_reads() {
        let dir = tmp("evict-first");
        let (pg, store) = dataset(&dir, 20, 10, 5); // 2 packs, one bin
        let sg = pg.subgraphs_of_partition(0)[0];
        let mut loader = InstanceLoader::new(store, &pg, 0);
        loader.set_trace_sink(tempograph_trace::TraceConfig::new().sink(0));
        loader.load(sg, 0).unwrap();
        loader.load(sg, 10).unwrap();
        let sink = loader.take_trace_sink().unwrap();
        let events = sink.events();
        let evicted_at = events
            .iter()
            .find_map(|e| match *e {
                tempograph_trace::TraceEvent::Instant {
                    name: "gofs.evict",
                    ts_ns,
                    ..
                } => Some(ts_ns),
                _ => None,
            })
            .unwrap();
        let second_read_at = events
            .iter()
            .filter_map(|e| match *e {
                tempograph_trace::TraceEvent::Span { start_ns, .. } => Some(start_ns),
                _ => None,
            })
            .nth(1)
            .unwrap();
        // The slot is empty before the next file is read, so a load never
        // holds two slices of one bin.
        assert!(evicted_at <= second_read_at);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_held_view_keeps_its_pack_and_its_buffer() {
        let dir = tmp("held");
        let (pg, store) = dataset(&dir, 20, 10, 5);
        let sg = pg.subgraphs_of_partition(0)[0];
        let edges = pg.subgraph(sg).edges().to_vec();
        assert!(!edges.is_empty());
        let mut loader = InstanceLoader::new(store, &pg, 0);
        let held = loader.load(sg, 3).unwrap();
        let cells = held.edge_f64_cells(0).unwrap();
        assert!(matches!(cells, F64Cells::Raw(_)), "a view of the buffer");
        let next = loader.load(sg, 13).unwrap();
        // Pack 1 replaced pack 0 in the slot: the held view still reads
        // pack 0, bit for bit.
        assert_eq!(loader.resident(), vec![SliceKey { bin: 0, pack: 1 }]);
        for (q, e) in edges.iter().enumerate() {
            let want = (3000 + e.idx()) as f64 + 0.5;
            assert_eq!(cells.get(q).to_bits(), want.to_bits());
            assert_eq!(next.edge_f64_cells(0).unwrap().get(q), want + 10_000.0);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A small file is read and verified whole at its miss: a flipped
    /// byte or a cut anywhere fails the miss, and the next request for
    /// the pack fails the same way.
    #[test]
    fn a_corrupt_small_file_fails_its_miss() {
        type Damage = fn(&mut Vec<u8>);
        let truncate: Damage = |f| f.truncate(f.len() - 16);
        let flip: Damage = |f| {
            let mid = f.len() / 2;
            f[mid] ^= 0x10;
        };
        for (tag, damage) in [("truncated", truncate), ("flipped", flip)] {
            let dir = tmp(tag);
            let (pg, store) = dataset(&dir, 20, 10, 5);
            let sg = pg.subgraphs_of_partition(0)[0];
            let path = store.slice_path(0, SliceKey { bin: 0, pack: 1 });
            let mut file = std::fs::read(&path).unwrap();
            damage(&mut file);
            std::fs::write(&path, file).unwrap();
            let mut loader = InstanceLoader::new(store, &pg, 0);
            loader.load(sg, 0).unwrap().edge_f64(0).unwrap();
            for _ in 0..2 {
                let err = loader.load(sg, 10).unwrap_err();
                match (tag, &err) {
                    ("truncated", GofsError::Corrupt(_)) => {}
                    ("flipped", GofsError::ChecksumMismatch { .. }) => {}
                    _ => panic!("{tag}: {err}"),
                }
                // It never serves pack 0.
                assert_eq!(loader.resident(), vec![]);
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn a_misplaced_slice_is_corrupt() {
        let dir = tmp("misplaced");
        let (pg, store) = dataset(&dir, 20, 10, 5);
        let sg = pg.subgraphs_of_partition(0)[0];
        std::fs::copy(
            store.slice_path(0, SliceKey { bin: 0, pack: 0 }),
            store.slice_path(0, SliceKey { bin: 0, pack: 1 }),
        )
        .unwrap();
        let mut loader = InstanceLoader::new(store, &pg, 0);
        let err = loader.load(sg, 15).unwrap_err();
        assert!(matches!(err, GofsError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("slice-b0000-p0001"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_monotone_sweep_loads_each_pack_once_and_holds_one_per_bin() {
        let dir = tmp("sweep");
        // Blocks of three vertices alternate between the partitions: five
        // subgraphs a partition, three bins of up to two, four packs.
        let (pg, _) = dataset_cut(&dir, 14, 4, 2, Some(|i| (i / 3 % 2) as u16));
        for partition in 0..2u16 {
            let sgs = pg.subgraphs_of_partition(partition).to_vec();
            assert_eq!(sgs.len(), 5);
            let store = GofsStore::open(&dir).unwrap();
            let mut loader = InstanceLoader::new(store, &pg, partition);
            let mut touched = std::collections::BTreeSet::new();
            for t in 0..14 {
                for &sg in &sgs {
                    loader.load(sg, t).unwrap();
                    touched.insert(SliceKey {
                        bin: loader.bin_of_sg[&sg],
                        pack: (t / 4) as u32,
                    });
                    let resident = loader.resident();
                    let bins: std::collections::BTreeSet<u32> =
                        resident.iter().map(|k| k.bin).collect();
                    assert_eq!(bins.len(), resident.len(), "one slice per bin");
                    assert!(resident.len() <= 3);
                }
            }
            assert_eq!(touched.len(), 3 * 4);
            assert_eq!(loader.stats().slice_loads, touched.len() as u64);
            assert_eq!(loader.stats().evictions, 3 * 3);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn out_of_range_requests_fail() {
        let dir = tmp("range");
        let (pg, store) = dataset(&dir, 5, 10, 5);
        let partition = 0u16;
        let sg = pg.subgraphs_of_partition(partition)[0];
        let mut loader = InstanceLoader::new(store, &pg, partition);
        assert!(loader.load(sg, 5).is_err());
        // A subgraph of the *other* partition is rejected.
        let foreign = pg.subgraphs_of_partition(1)[0];
        assert!(loader.load(foreign, 0).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn miss_and_hit_rate_accounting() {
        let dir = tmp("hitrate");
        let (pg, store) = dataset(&dir, 20, 10, 5);
        let sg = pg.subgraphs_of_partition(0)[0];
        let mut loader = InstanceLoader::new(store, &pg, 0);
        assert_eq!(loader.stats(), &LoaderStats::default(), "no requests yet");
        for t in 0..10 {
            loader.load(sg, t).unwrap();
        }
        // 1 miss (pack 0 load) + 9 hits.
        assert_eq!(loader.stats().cache_misses, 1);
        assert_eq!(loader.stats().cache_hits, 9);
        loader.take_stats();
        assert_eq!(loader.stats().cache_misses, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trace_sink_records_loads_and_counters() {
        let dir = tmp("trace");
        let (pg, store) = dataset(&dir, 20, 10, 5);
        let sg = pg.subgraphs_of_partition(0)[0];
        let mut loader = InstanceLoader::new(store, &pg, 0);
        assert!(loader.take_trace_sink().is_none(), "none installed");
        loader.set_trace_sink(tempograph_trace::TraceConfig::new().sink(0));
        loader.load(sg, 0).unwrap(); // miss
        loader.load(sg, 1).unwrap(); // hit
        loader.load(sg, 10).unwrap(); // miss (next pack)
        let sink = loader.take_trace_sink().unwrap();
        assert!(loader.take_trace_sink().is_none(), "taken once");
        let events = sink.events();
        let spans: Vec<u64> = events
            .iter()
            .filter_map(|e| match *e {
                tempograph_trace::TraceEvent::Span { dur_ns, .. } => Some(dur_ns),
                _ => None,
            })
            .collect();
        assert_eq!(spans.len(), 2, "one gofs.load span per miss");
        assert_eq!(spans.iter().sum::<u64>(), loader.stats().load_ns);
        assert!(events.iter().all(|e| {
            !matches!(e, tempograph_trace::TraceEvent::Span { name, .. } if *name != "gofs.load")
        }));
        // Final counter samples reflect the lifetime totals.
        let last_misses = events
            .iter()
            .rev()
            .find_map(|e| match *e {
                tempograph_trace::TraceEvent::Counter {
                    name: "gofs.cache_misses",
                    value,
                    ..
                } => Some(value),
                _ => None,
            })
            .unwrap();
        assert_eq!(last_misses, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cached_bytes_tracks_lazy_materialization() {
        let dir = tmp("bytes");
        let (pg, store) = dataset(&dir, 10, 10, 5);
        let sg = pg.subgraphs_of_partition(0)[0];
        let mut loader = InstanceLoader::new(store, &pg, 0);
        assert_eq!(loader.cached_bytes(), 0, "nothing cached yet");
        let first = loader.load(sg, 0).unwrap();
        let loaded = loader.cached_bytes();
        assert!(loaded > 0, "the slice's encoded blocks are resident");
        // Another cell of the same (cached) slice: no column decoded yet,
        // so nothing grew.
        let later = loader.load(sg, 5).unwrap();
        assert_eq!(loader.stats().slice_loads, 1);
        assert_eq!(loader.cached_bytes(), loaded);
        // Growth comes with the first *touch* of a column — here the
        // pack base's, which the column at timestep 5 patches. The
        // column at timestep 5 is its holder's, not the cache's.
        later.vertex_i64(0).unwrap();
        let rows = pg.subgraph(sg).num_vertices();
        assert_eq!(later.decoded().count(), 1);
        assert_eq!(loader.cached_bytes(), loaded + rows * 8);
        first.vertex_i64(0).unwrap();
        assert_eq!(loader.cached_bytes(), loaded + rows * 8, "already decoded");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reset_stats_zeroes_counters() {
        let dir = tmp("reset");
        let (pg, store) = dataset(&dir, 5, 5, 5);
        let sg = pg.subgraphs_of_partition(0)[0];
        let mut loader = InstanceLoader::new(store, &pg, 0);
        loader.load(sg, 0).unwrap();
        let taken = loader.take_stats();
        assert_eq!(taken.slice_loads, 1);
        assert_eq!(loader.stats(), &LoaderStats::default());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A path of 40 000 vertices cut into four runs of 10 000, alternating
    /// between two partitions (two subgraphs each, one bin of two), with
    /// every `Long` vertex and `Double` edge value changing each timestep:
    /// 16 timesteps in two packs of 8. Each block is ≈ 160 kB, three
    /// chunks, above [`LARGE_BLOCK`]; each pack file ≈ 2.6 MB, above
    /// [`WHOLE_FILE_LEN`].
    fn large_dataset(dir: &PathBuf) -> (Arc<PartitionedGraph>, GofsStore) {
        let n = 40_000u64;
        let mut b = TemplateBuilder::new("loader-large", false);
        b.vertex_schema().add("v", AttrType::Long);
        b.edge_schema().add("w", AttrType::Double);
        for i in 0..n {
            b.add_vertex(i);
        }
        for i in 0..n - 1 {
            b.add_edge(i, i, i + 1).unwrap();
        }
        let t = Arc::new(b.finalize().unwrap());
        let part = Partitioning {
            assignment: (0..n as usize).map(|i| (i / 10_000 % 2) as u16).collect(),
            k: 2,
        };
        let pg = Arc::new(discover_subgraphs(t.clone(), part));
        let mut coll = TimeSeriesCollection::new(t, 0, 1);
        for ts in 0..16 {
            let mut g = coll.new_instance();
            for (i, x) in g.vertex_i64_mut("v").unwrap().iter_mut().enumerate() {
                *x = (ts * 100_000 + i) as i64;
            }
            for (e, x) in g.edge_f64_mut("w").unwrap().iter_mut().enumerate() {
                *x = (ts * 100_000 + e) as f64 + 0.5;
            }
            coll.push(g).unwrap();
        }
        write_dataset(dir, pg.clone(), &coll, 8, 2).unwrap();
        (pg, GofsStore::open(dir).unwrap())
    }

    /// A large slice's head length and block `i`'s byte range in its file.
    fn layout(path: &std::path::Path) -> (u64, Vec<std::ops::Range<u64>>) {
        let file = std::fs::read(path).unwrap();
        let head = crate::slice::head_len(&file).unwrap();
        let slice = decode_slice(file.into()).unwrap();
        let (offsets, ..) = slice.directory();
        let blocks = offsets.windows(2).map(|w| head + w[0]..head + w[1]);
        (head, blocks.collect())
    }

    /// A monotone sweep over a large pack holds its head and the base
    /// blocks, never a delta block, and never the pack: the cache stays
    /// within the head, the base blocks and the block being read, per
    /// subgraph. Every block read is counted as bytes read; only the head
    /// reads are slice loads.
    #[test]
    fn a_large_pack_is_read_a_block_at_a_time() {
        let dir = tmp("large-sweep");
        let (pg, store) = large_dataset(&dir);
        let sgs = pg.subgraphs_of_partition(0).to_vec();
        assert_eq!(sgs.len(), 2);
        let path = |pack| store.slice_path(0, SliceKey { bin: 0, pack });
        let file_len = std::fs::metadata(path(0)).unwrap().len();
        assert!(file_len > WHOLE_FILE_LEN, "{file_len}");
        let (head, blocks) = layout(&path(0));
        let len = |i: usize| blocks[i].end - blocks[i].start;
        assert!(
            len(1) > 2 * crate::slice::CHUNK_LEN as u64,
            "blocks of several chunks"
        );
        assert!(len(1) >= LARGE_BLOCK as u64);
        let bases: u64 = (0..2).map(|si| len(si * 8)).sum();
        let mut loader = InstanceLoader::new(store.clone(), &pg, 0);
        let mut read = 0;
        for t in 0..8 {
            for (si, &sg) in sgs.iter().enumerate() {
                let inst = loader.load(sg, t).unwrap();
                let w = inst.edge_f64_cells(0).unwrap().get(0);
                assert_eq!((w / 100_000.0) as usize, t, "read in place");
                let cached = loader.cached_bytes() as u64;
                assert!(cached <= head + bases, "t {t} sg {si}: {cached}");
                assert!(cached + len(si * 8 + t) < file_len);
                read += if t == 0 { len(si * 8) } else { len(si * 8 + t) };
            }
        }
        let stats = loader.stats().clone();
        assert_eq!((stats.slice_loads, stats.cache_misses), (1, 1));
        assert_eq!(stats.cache_hits, 15);
        assert_eq!(stats.bytes_read, head + read);
        assert_eq!(loader.cached_bytes() as u64, head + bases);
        // The next pack replaces the head and its bases.
        loader.load(sgs[0], 8).unwrap();
        let (head1, blocks1) = layout(&path(1));
        let base1 = blocks1[0].end - blocks1[0].start;
        assert_eq!(loader.cached_bytes() as u64, head1 + base1);
        assert_eq!(loader.stats().slice_loads, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A flipped byte in one block of a large slice fails the load that
    /// first asks for that block, with the checksum's error, and every
    /// load of it after; the slice's other blocks stay readable. A file
    /// one byte short fails at its miss.
    #[test]
    fn a_bad_chunk_fails_only_the_loads_of_its_block() {
        let dir = tmp("large-bad");
        let (pg, store) = large_dataset(&dir);
        let sgs = pg.subgraphs_of_partition(0).to_vec();
        let path = store.slice_path(0, SliceKey { bin: 0, pack: 0 });
        let (_, blocks) = layout(&path);
        let mut file = std::fs::read(&path).unwrap();
        // The last byte of subgraph 0's block at timestep 3.
        file[blocks[3].end as usize - 1] ^= 0x08;
        std::fs::write(&path, &file).unwrap();
        let mut loader = InstanceLoader::new(store.clone(), &pg, 0);
        for t in 0..3 {
            loader.load(sgs[0], t).unwrap();
        }
        for _ in 0..2 {
            let err = loader.load(sgs[0], 3).unwrap_err();
            assert!(matches!(err, GofsError::ChecksumMismatch { .. }), "{err}");
        }
        for t in 3..8 {
            loader.load(sgs[1], t).unwrap().vertex_i64(0).unwrap();
        }
        let at4 = loader.load(sgs[0], 4).unwrap();
        assert_eq!(at4.vertex_i64(0).unwrap()[0] / 100_000, 4);
        assert_eq!(loader.stats().slice_loads, 1);

        file.pop();
        std::fs::write(&path, &file).unwrap();
        let mut loader = InstanceLoader::new(store, &pg, 0);
        for _ in 0..2 {
            let err = loader.load(sgs[1], 5).unwrap_err();
            assert!(matches!(err, GofsError::Corrupt(_)), "{err}");
            assert_eq!(loader.resident(), vec![]);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A large block is read into the buffer of one no instance holds any
    /// more: a delta dropped before the next timestep's read leaves its
    /// buffer to it, one still held keeps its own.
    #[test]
    fn a_large_block_reuses_a_buffer_no_instance_holds() {
        let dir = tmp("large-reuse");
        let (pg, store) = large_dataset(&dir);
        let sg = pg.subgraphs_of_partition(0)[0];
        let mut loader = InstanceLoader::new(store, &pg, 0);
        let base = loader.load(sg, 0).unwrap();
        let at1 = loader.load(sg, 1).unwrap();
        let buf1 = at1.block.as_ptr();
        drop(at1);
        let at2 = loader.load(sg, 2).unwrap();
        assert_eq!(at2.block.as_ptr(), buf1, "the dropped delta's buffer");
        let at3 = loader.load(sg, 3).unwrap();
        assert_ne!(at3.block.as_ptr(), at2.block.as_ptr(), "a held one's");
        assert_ne!(at3.block.as_ptr(), base.block.as_ptr(), "the base's");
        for (t, inst) in [(0, &base), (2, &at2), (3, &at3)] {
            let w = inst.edge_f64_cells(0).unwrap().get(0);
            assert_eq!((w / 100_000.0) as usize, t);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
