//! Lazy per-partition instance loading with slice caching.
//!
//! GoFFish "only loads an instance if it is accessed. So inactive instances
//! are not loaded from disk, and fetched only when they perform a
//! computation or receive a message" (§IV.D). [`InstanceLoader`] reproduces
//! this at two grains: the first access to any (subgraph, timestep) inside
//! a slice reads the slice file, checks its frame and decodes its *header
//! and column directory*; each column of an instance then decodes on the
//! first accessor call that touches it (see [`crate::view`]), so a job
//! pays for the attributes and timesteps it reads, not for the pack.
//! Subsequent accesses hit the cache. The cache holds one slice per bin —
//! the pack a worker is computing on, since a worker asks for timesteps
//! in non-decreasing order — and a miss reads the next pack into the
//! buffer of the one it replaces, so long runs stream through disk just
//! like GoFS with one file per bin resident.

use crate::error::{GofsError, Result};
use crate::slice::{decode_slice, SliceData, SliceKey};
use crate::store::{bins_for_partition, GofsStore};
use crate::view::SubgraphInstance;
use std::collections::BTreeMap;
use std::io::Read;
use std::sync::Arc;
use tempograph_partition::{PartitionedGraph, SubgraphId};
use tempograph_trace::TraceSink;

/// Counters describing a loader's I/O behaviour — the raw material for the
/// Fig. 6 spike analysis and ablation A2.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LoaderStats {
    /// Slice files read and decoded.
    pub slice_loads: u64,
    /// Bytes read from disk.
    pub bytes_read: u64,
    /// Cache hits (requests served without touching disk).
    pub cache_hits: u64,
    /// Cache misses (requests that had to read a slice from disk). Kept
    /// separately from [`LoaderStats::slice_loads`] so the hit rate stays
    /// well-defined even if future load paths (prefetch, warm-up) read
    /// slices without a triggering request.
    pub cache_misses: u64,
    /// Slot replacements: misses on a bin whose slot already held another
    /// pack, which the new one replaced.
    pub evictions: u64,
    /// Nanoseconds spent on misses: file read, frame checksum, header and
    /// column directory. Column decode happens later, in whoever first
    /// touches the column, and is not in here. Each miss adds the
    /// duration of its `gofs.load` span, from the same two clock readings.
    pub load_ns: u64,
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
    slots: Vec<Option<Arc<SliceData>>>,
    stats: LoaderStats,
    /// Lifetime totals (never reset): the engine takes [`Self::stats`]
    /// every timestep to window its I/O metrics, but trace counters must
    /// be monotone.
    total: LoaderStats,
    /// Trace sink, sharing the owning worker's partition track once
    /// installed; inert until then, its clock still times every miss.
    trace: TraceSink,
    /// Misses that read into the replaced slice's buffer.
    #[cfg(test)]
    recycled: u64,
}

/// Whether a recycled buffer of `capacity` bytes should hold a `len`-byte
/// file: large enough, and not so much larger that every slot ratchets up
/// to its bin's largest pack (hash-cut bins vary several-fold).
fn fits(capacity: usize, len: usize) -> bool {
    capacity >= len && capacity - len <= len / 8
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
            slots: vec![None; bins.len()],
            stats: LoaderStats::default(),
            total: LoaderStats::default(),
            trace: TraceSink::inert(),
            #[cfg(test)]
            recycled: 0,
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

    /// Install a trace sink; slice loads become `"gofs.load"` spans and the
    /// cache counters (`gofs.cache_hits` / `gofs.cache_misses` /
    /// `gofs.bytes_read`) are sampled on every miss.
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
    /// covering slice from disk if its bin's slot holds another pack (or
    /// none). Any order of requests is answered correctly; one out of
    /// timestep order only costs a reload.
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

        let slot = &mut self.slots[bin as usize];
        if let Some(slice) = slot.as_ref().filter(|s| s.key == key) {
            self.stats.cache_hits += 1;
            self.total.cache_hits += 1;
            return slice.get(sg, timestep);
        }

        // Miss. Empty the slot before the read, so the replaced pack's
        // buffer can take the new file: the peak holds one slice per bin,
        // not one more. The buffer comes back only when no instance of the
        // old pack is still held (its columns are views of it), and is
        // used only when its size fits the new file.
        self.stats.cache_misses += 1;
        self.total.cache_misses += 1;
        let recovered = slot.take().and_then(|old| {
            self.stats.evictions += 1;
            self.total.evictions += 1;
            self.trace.instant("gofs.evict", None);
            Arc::try_unwrap(old).ok()?.into_buffer()
        });
        // Read the slice file, check its frame, decode header and
        // directory. The slice keeps the buffer read, and the instance
        // handed back has decoded no column yet.
        let t0 = self.trace.now();
        let path = self.store.slice_path(self.partition, key);
        let mut file = std::fs::File::open(&path)?;
        // A length past `usize` (32-bit hosts) fits no recycled buffer.
        let len = usize::try_from(file.metadata()?.len()).unwrap_or(usize::MAX);
        let mut data = match recovered {
            Some(mut buf) if fits(buf.capacity(), len) => {
                buf.clear();
                #[cfg(test)]
                {
                    self.recycled += 1;
                }
                buf
            }
            // Free a misfit before allocating its replacement, with room
            // for a next pack up to 1/256 larger: packs of one bin differ
            // by a few kilobytes in megabytes, and a buffer a few
            // kilobytes short is replaced by one placed in fresh pages
            // while the freed one stays resident.
            misfit => {
                drop(misfit);
                let mut fresh = Vec::new();
                // A length no allocation can hold fails in the read.
                let _ = fresh.try_reserve_exact(len.saturating_add(len / 256));
                fresh
            }
        };
        file.read_to_end(&mut data)?;
        let bytes_read = data.len() as u64;
        let slice = decode_slice(data.into())?;
        if (slice.partition, slice.key) != (self.partition, key) {
            return Err(GofsError::Corrupt(format!(
                "{} holds partition {} bin {} pack {}, not partition {} bin {bin} pack {pack}",
                path.display(),
                slice.partition,
                slice.key.bin,
                slice.key.pack,
                self.partition
            )));
        }
        let slice = Arc::new(slice);
        let inst = slice.get(sg, timestep)?;
        let t1 = self.trace.now();
        let elapsed = t1 - t0;
        self.stats.slice_loads += 1;
        self.stats.bytes_read += bytes_read;
        self.stats.load_ns += elapsed;
        self.total.slice_loads += 1;
        self.total.bytes_read += bytes_read;
        self.total.load_ns += elapsed;
        self.trace
            .span_arg_at("gofs.load", t0, t1, "bytes", bytes_read);
        self.sample_counters();
        self.slots[bin as usize] = Some(slice);
        Ok(inst)
    }

    /// Approximate heap bytes held by cached slices right now: each
    /// slice's file buffer plus the columns decoded so far. A slice starts
    /// at its buffer's size and grows only as columns are touched.
    pub fn cached_bytes(&self) -> usize {
        self.slots.iter().flatten().map(|s| s.approx_bytes()).sum()
    }

    /// The packs held, one entry per occupied slot.
    #[cfg(test)]
    fn resident(&self) -> Vec<SliceKey> {
        self.slots.iter().flatten().map(|s| s.key).collect()
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

    /// The address of the block region `bin`'s slot holds.
    fn slot_addr(loader: &InstanceLoader, bin: usize) -> usize {
        loader.slots[bin].as_ref().unwrap().blocks_addr()
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
        // holds two slices of one bin — and the read can take the old
        // slice's buffer.
        assert!(evicted_at <= second_read_at);
        assert_eq!(loader.recycled, 1);
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
        let pack0 = slot_addr(&loader, 0);
        let next = loader.load(sg, 13).unwrap();
        // Pack 1 went into a buffer of its own: the held view still reads
        // pack 0, bit for bit.
        assert_eq!(loader.recycled, 0);
        assert_ne!(slot_addr(&loader, 0), pack0);
        for (q, e) in edges.iter().enumerate() {
            let want = (3000 + e.idx()) as f64 + 0.5;
            assert_eq!(cells.get(q).to_bits(), want.to_bits());
            assert_eq!(next.edge_f64_cells(0).unwrap().get(q), want + 10_000.0);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_dropped_view_lets_the_next_pack_reuse_its_buffer() {
        let dir = tmp("reuse");
        let (pg, store) = dataset(&dir, 20, 10, 5);
        let sg = pg.subgraphs_of_partition(0)[0];
        let mut loader = InstanceLoader::new(store, &pg, 0);
        let first = loader.load(sg, 3).unwrap();
        first.edge_f64(0).unwrap();
        let pack0 = slot_addr(&loader, 0);
        drop(first);
        let next = loader.load(sg, 13).unwrap();
        // Both packs have the same header, so one buffer puts the block
        // region at one address.
        assert_eq!(loader.recycled, 1);
        assert_eq!(slot_addr(&loader, 0), pack0);
        let rows = pg.subgraph(sg).vertices().to_vec();
        let vals = next.vertex_i64(0).unwrap();
        for (pos, v) in rows.iter().enumerate() {
            assert_eq!(vals[pos], (13_000 + v.idx()) as i64);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_corrupt_file_read_into_a_recycled_buffer_is_an_error() {
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
            let err = loader.load(sg, 10).unwrap_err();
            assert_eq!(loader.recycled, 1, "{tag}: read into pack 0's buffer");
            match (tag, &err) {
                ("truncated", GofsError::Corrupt(_)) => {}
                ("flipped", GofsError::ChecksumMismatch { .. }) => {}
                _ => panic!("{tag}: {err}"),
            }
            // Asking again fails the same way; it never serves pack 0.
            assert!(loader.load(sg, 10).is_err());
            assert_eq!(loader.resident(), vec![]);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// A pack a little larger than the one it replaces is read into the
    /// replaced pack's buffer (here pack 1, 1/512 longer, which then fails
    /// its frame check), not into a new one.
    #[test]
    fn a_slightly_larger_pack_is_read_into_the_replaced_buffer() {
        let dir = tmp("larger");
        let (pg, store) = dataset(&dir, 20, 10, 5);
        let sg = pg.subgraphs_of_partition(0)[0];
        let len = |pack| std::fs::metadata(store.slice_path(0, SliceKey { bin: 0, pack }));
        let (len0, len1) = (len(0).unwrap().len(), len(1).unwrap().len());
        assert_eq!(len0, len1);
        let path = store.slice_path(0, SliceKey { bin: 0, pack: 1 });
        let mut file = std::fs::read(&path).unwrap();
        assert!(file.len() >= 512, "pack 1 grows");
        file.resize(file.len() + file.len() / 512, 0);
        std::fs::write(&path, file).unwrap();
        let mut loader = InstanceLoader::new(store, &pg, 0);
        loader.load(sg, 0).unwrap();
        let len0 = len0 as usize;
        assert_eq!(loader.cached_bytes(), len0 + len0 / 256);
        assert!(loader.load(sg, 10).is_err());
        assert_eq!(loader.recycled, 1, "read into pack 0's buffer");
        std::fs::remove_dir_all(&dir).unwrap();
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
    fn a_recycled_buffer_fits_within_an_eighth() {
        assert!(fits(800, 800));
        assert!(fits(900, 800));
        assert!(!fits(901, 800), "too roomy: slots would ratchet up");
        assert!(!fits(799, 800), "too small: the read would reallocate");
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
        // column at timestep 5 and the pack base's it patches.
        later.vertex_i64(0).unwrap();
        let rows = pg.subgraph(sg).num_vertices();
        assert_eq!(loader.cached_bytes(), loaded + 2 * rows * 8);
        first.vertex_i64(0).unwrap();
        assert_eq!(
            loader.cached_bytes(),
            loaded + 2 * rows * 8,
            "already decoded"
        );
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
}
