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
//! Subsequent accesses hit the cache. The cache holds a bounded number of
//! slices, evicting least-recently-used packs, so long runs stream through
//! disk just like GoFS.

use crate::error::{GofsError, Result};
use crate::slice::{decode_slice, SliceData, SliceKey};
use crate::store::{bins_for_partition, GofsStore};
use crate::view::SubgraphInstance;
use std::collections::BTreeMap;
use std::sync::Arc;
use tempograph_partition::{PartitionedGraph, SubgraphId};
use tempograph_trace::{Clock, TraceSink};

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
    /// Slices evicted to respect the cache budget.
    pub evictions: u64,
    /// Nanoseconds spent on misses: file read, frame checksum, header and
    /// column directory. Column decode happens later, in whoever first
    /// touches the column, and is not in here.
    pub load_ns: u64,
}

impl LoaderStats {
    /// Fraction of requests served from cache (`0.0` when no requests yet —
    /// guarded via [`tempograph_metrics::ratio_or_zero`], never NaN).
    pub fn hit_rate(&self) -> f64 {
        tempograph_metrics::ratio_or_zero(self.cache_hits, self.cache_hits + self.cache_misses)
    }
}

/// Lazy reader for one partition of a GoFS dataset. Single-threaded by
/// design: each engine worker owns its partition's loader (as each GoFFish
/// host owns its local GoFS shard).
pub struct InstanceLoader {
    store: GofsStore,
    partition: u16,
    /// `bin_of_sg[sg] = bin index` for this partition's subgraphs.
    bin_of_sg: BTreeMap<SubgraphId, u32>,
    /// Slice cache with LRU ticks. A `BTreeMap` (lint rule D01): eviction
    /// scans this map, and `HashMap` iteration order would let hasher
    /// randomness pick the victim among equally-old slices — making cache
    /// contents, and thus the I/O metrics, differ between identical runs.
    cache: BTreeMap<SliceKey, (Arc<SliceData>, u64)>,
    /// Monotonic counter for LRU ordering.
    tick: u64,
    /// Max slices kept in cache.
    capacity: usize,
    stats: LoaderStats,
    /// Lifetime totals (never reset): the engine resets [`Self::stats`]
    /// every timestep to window its I/O metrics, but trace counters must
    /// be monotone.
    total: LoaderStats,
    /// Optional trace sink (shares the owning worker's partition track).
    trace: Option<TraceSink>,
}

impl InstanceLoader {
    /// Create a loader for `partition`. `capacity` bounds the number of
    /// cached slices (at least one is kept whatever it says); the number of
    /// bins is the natural choice so one full pack per bin stays resident.
    pub fn new(store: GofsStore, pg: &PartitionedGraph, partition: u16, capacity: usize) -> Self {
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
            cache: BTreeMap::new(),
            tick: 0,
            capacity: capacity.max(1),
            stats: LoaderStats::default(),
            total: LoaderStats::default(),
            trace: None,
        }
    }

    /// A loader whose capacity holds one pack per bin (the sensible default).
    pub fn with_default_capacity(store: GofsStore, pg: &PartitionedGraph, partition: u16) -> Self {
        let bins = bins_for_partition(pg, partition, store.meta().binning).len();
        Self::new(store, pg, partition, bins.max(1) * 2)
    }

    /// I/O counters since the last [`Self::reset_stats`].
    pub fn stats(&self) -> &LoaderStats {
        &self.stats
    }

    /// Lifetime I/O counters (unaffected by [`Self::reset_stats`]).
    pub fn total_stats(&self) -> &LoaderStats {
        &self.total
    }

    /// Reset the counters (e.g. between timesteps when sampling per-step I/O).
    pub fn reset_stats(&mut self) {
        self.stats = LoaderStats::default();
    }

    /// Install a trace sink; slice loads become `"gofs.load"` spans and the
    /// cache counters (`gofs.cache_hits` / `gofs.cache_misses` /
    /// `gofs.bytes_read`) are sampled on every miss.
    pub fn set_trace_sink(&mut self, sink: TraceSink) {
        self.trace = Some(sink);
    }

    /// Hand the trace sink back (with a final counter sample) so the
    /// session can drain it.
    pub fn take_trace_sink(&mut self) -> Option<TraceSink> {
        let mut sink = self.trace.take()?;
        self.sample_counters_into(&mut sink);
        Some(sink)
    }

    fn sample_counters_into(&self, sink: &mut TraceSink) {
        // Sample the lifetime totals, not the resettable window, so the
        // counter tracks stay monotone across per-timestep stat resets.
        sink.counter("gofs.cache_hits", self.total.cache_hits);
        sink.counter("gofs.cache_misses", self.total.cache_misses);
        sink.counter("gofs.bytes_read", self.total.bytes_read);
    }

    /// Fetch the projected instance for `sg` at `timestep`, reading the
    /// covering slice from disk if it is not cached.
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

        self.tick += 1;
        let tick = self.tick;
        if let Some((slice, last_used)) = self.cache.get_mut(&key) {
            *last_used = tick;
            self.stats.cache_hits += 1;
            self.total.cache_hits += 1;
            return slice.get(sg, timestep);
        }

        // Miss: read the slice file, check its frame, decode header and
        // directory. The instance handed back has decoded no column yet.
        self.stats.cache_misses += 1;
        self.total.cache_misses += 1;
        let started = Clock::start();
        let span = self.trace.as_ref().map(|s| s.start());
        let path = self.store.slice_path(self.partition, key);
        let data = std::fs::read(&path)?;
        let slice = Arc::new(decode_slice(&data)?);
        let inst = slice.get(sg, timestep)?;
        let elapsed = started.elapsed_ns();
        self.stats.slice_loads += 1;
        self.stats.bytes_read += data.len() as u64;
        self.stats.load_ns += elapsed;
        self.total.slice_loads += 1;
        self.total.bytes_read += data.len() as u64;
        self.total.load_ns += elapsed;
        if let (Some(sink), Some(span)) = (self.trace.as_mut(), span) {
            sink.span_arg_since("gofs.load", span, "bytes", data.len() as u64);
        }

        if self.cache.len() >= self.capacity {
            // Evict the least-recently-used slice; ties (possible only if a
            // future path inserts without bumping `tick`) break on the
            // smaller key, so the victim is a pure function of the access
            // sequence.
            if let Some(&victim) = self
                .cache
                .iter()
                .min_by_key(|(k, (_, used))| (*used, **k))
                .map(|(k, _)| k)
            {
                self.cache.remove(&victim);
                self.stats.evictions += 1;
                self.total.evictions += 1;
                if let Some(sink) = self.trace.as_mut() {
                    sink.instant("gofs.evict", None);
                }
            }
        }
        if let Some(sink) = self.trace.as_mut() {
            let hits = self.total.cache_hits;
            let misses = self.total.cache_misses;
            let bytes = self.total.bytes_read;
            sink.counter("gofs.cache_hits", hits);
            sink.counter("gofs.cache_misses", misses);
            sink.counter("gofs.bytes_read", bytes);
        }
        self.cache.insert(key, (slice, tick));
        Ok(inst)
    }

    /// Approximate heap bytes held by cached slices right now: each
    /// slice's encoded block region plus the columns decoded so far. A
    /// slice starts at its on-disk size and grows only as columns are
    /// touched.
    pub fn cached_bytes(&self) -> usize {
        self.cache.values().map(|(s, _)| s.approx_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::write_dataset;
    use std::path::PathBuf;
    use tempograph_core::{AttrType, TemplateBuilder, TimeSeriesCollection};
    use tempograph_partition::{discover_subgraphs, MultilevelPartitioner, Partitioner};

    fn tmp(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "gofs-loader-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn dataset(
        dir: &PathBuf,
        timesteps: usize,
        packing: usize,
        binning: usize,
    ) -> (Arc<PartitionedGraph>, GofsStore) {
        let mut b = TemplateBuilder::new("loader-test", false);
        b.vertex_schema().add("v", AttrType::Long);
        for i in 0..30 {
            b.add_vertex(i);
        }
        for i in 0..29u64 {
            b.add_edge(i, i, i + 1).unwrap();
        }
        let t = Arc::new(b.finalize().unwrap());
        let part = MultilevelPartitioner::default().partition(&t, 2);
        let pg = Arc::new(discover_subgraphs(t.clone(), part));
        let mut coll = TimeSeriesCollection::new(t, 0, 1);
        for ts in 0..timesteps {
            let mut g = coll.new_instance();
            for (i, x) in g.vertex_i64_mut("v").unwrap().iter_mut().enumerate() {
                *x = (ts * 1000 + i) as i64;
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
        let mut loader = InstanceLoader::with_default_capacity(store, &pg, partition);

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
        let mut loader = InstanceLoader::with_default_capacity(store, &pg, partition);
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
        let (pg, store) = dataset(&dir, 30, 5, 5); // 6 packs
        let partition = 0u16;
        let sg = pg.subgraphs_of_partition(partition)[0];
        let mut loader = InstanceLoader::new(store, &pg, partition, 2);
        for t in 0..30 {
            loader.load(sg, t).unwrap();
        }
        assert_eq!(loader.stats().slice_loads, 6);
        assert_eq!(loader.stats().evictions, 4);
        // Going back to an evicted pack re-loads it.
        loader.load(sg, 0).unwrap();
        assert_eq!(loader.stats().slice_loads, 7);
        // A capacity of zero keeps one slice instead of panicking.
        let store = GofsStore::open(&dir).unwrap();
        let mut one = InstanceLoader::new(store, &pg, partition, 0);
        one.load(sg, 0).unwrap();
        one.load(sg, 1).unwrap();
        one.load(sg, 5).unwrap();
        assert_eq!((one.stats().slice_loads, one.stats().evictions), (2, 1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn out_of_range_requests_fail() {
        let dir = tmp("range");
        let (pg, store) = dataset(&dir, 5, 10, 5);
        let partition = 0u16;
        let sg = pg.subgraphs_of_partition(partition)[0];
        let mut loader = InstanceLoader::with_default_capacity(store, &pg, partition);
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
        let mut loader = InstanceLoader::with_default_capacity(store, &pg, 0);
        assert_eq!(loader.stats().hit_rate(), 0.0, "no requests yet");
        for t in 0..10 {
            loader.load(sg, t).unwrap();
        }
        // 1 miss (pack 0 load) + 9 hits.
        assert_eq!(loader.stats().cache_misses, 1);
        assert_eq!(loader.stats().cache_hits, 9);
        assert!((loader.stats().hit_rate() - 0.9).abs() < 1e-9);
        // The lifetime totals survive a window reset.
        loader.reset_stats();
        assert_eq!(loader.stats().cache_misses, 0);
        assert_eq!(loader.total_stats().cache_misses, 1);
        assert_eq!(loader.total_stats().cache_hits, 9);
        assert!(loader.total_stats().bytes_read > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trace_sink_records_loads_and_counters() {
        let dir = tmp("trace");
        let (pg, store) = dataset(&dir, 20, 10, 5);
        let sg = pg.subgraphs_of_partition(0)[0];
        let mut loader = InstanceLoader::with_default_capacity(store, &pg, 0);
        loader.set_trace_sink(tempograph_trace::TraceConfig::new().sink(0));
        loader.load(sg, 0).unwrap(); // miss
        loader.load(sg, 1).unwrap(); // hit
        loader.load(sg, 10).unwrap(); // miss (next pack)
        let sink = loader.take_trace_sink().unwrap();
        let events = sink.events();
        let spans = events
            .iter()
            .filter(|e| matches!(e, tempograph_trace::TraceEvent::Span { .. }))
            .count();
        assert_eq!(spans, 2, "one gofs.load span per miss");
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
        let mut loader = InstanceLoader::with_default_capacity(store, &pg, 0);
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
        let mut loader = InstanceLoader::with_default_capacity(store, &pg, 0);
        loader.load(sg, 0).unwrap();
        assert_ne!(loader.stats(), &LoaderStats::default());
        loader.reset_stats();
        assert_eq!(loader.stats(), &LoaderStats::default());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
