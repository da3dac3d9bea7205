//! Instance providers: where a worker gets its subgraph instance data.
//!
//! Two sources mirror the paper's setup: [`GofsProvider`] streams slices
//! lazily off disk (the real GoFS path used by the evaluation) and
//! [`MemoryProvider`] projects from an in-memory
//! [`TimeSeriesCollection`] (convenient for tests and small examples).

use crate::error::EngineError;
use std::sync::Arc;
use tempograph_core::TimeSeriesCollection;
use tempograph_gofs::{GofsStore, InstanceLoader, LoaderStats, SubgraphInstance};
use tempograph_partition::{PartitionedGraph, Subgraph};
use tempograph_trace::TraceSink;

/// A per-worker source of projected instance data.
pub trait InstanceProvider: Send {
    /// Fetch the projection of instance `timestep` onto `sg`.
    fn fetch(&mut self, sg: &Subgraph, timestep: usize) -> Arc<SubgraphInstance>;

    /// Drain cumulative I/O counters (returns stats since the last call).
    /// An in-memory provider counts each projection as one
    /// `slice_loads` and its time as `load_ns`; the cache fields stay 0.
    fn take_io_stats(&mut self) -> LoaderStats;

    /// Number of instances available.
    fn num_timesteps(&self) -> usize;

    /// `t0` of the series.
    fn start_time(&self) -> i64;

    /// `δ` of the series.
    fn period(&self) -> i64;

    /// Install a trace sink so fetches record spans/counters
    /// (`"gofs.load"`, `"memory.project"`).
    fn install_trace(&mut self, sink: TraceSink);

    /// Hand back the sink given to [`Self::install_trace`] (with any final
    /// counter samples) so the session can assemble the trace; `None` when
    /// none was installed.
    fn take_trace(&mut self) -> Option<TraceSink>;
}

/// Projects instances from a shared in-memory collection on demand.
pub struct MemoryProvider {
    collection: Arc<TimeSeriesCollection>,
    stats: LoaderStats,
    /// Inert until [`InstanceProvider::install_trace`]; its clock times
    /// every projection either way, so `load_ns` and the `memory.project`
    /// spans come from the same two readings.
    trace: TraceSink,
}

impl MemoryProvider {
    /// Wrap a collection.
    pub fn new(collection: Arc<TimeSeriesCollection>) -> Self {
        MemoryProvider {
            collection,
            stats: LoaderStats::default(),
            trace: TraceSink::inert(),
        }
    }
}

impl InstanceProvider for MemoryProvider {
    fn fetch(&mut self, sg: &Subgraph, timestep: usize) -> Arc<SubgraphInstance> {
        let t0 = self.trace.now();
        let g = self
            .collection
            .get(timestep)
            .expect("timestep within collection");
        let si = Arc::new(SubgraphInstance::project(g, sg, timestep));
        let t1 = self.trace.now();
        self.stats.slice_loads += 1;
        self.stats.load_ns += t1 - t0;
        self.trace.span_at("memory.project", t0, t1);
        si
    }

    fn take_io_stats(&mut self) -> LoaderStats {
        std::mem::take(&mut self.stats)
    }

    fn num_timesteps(&self) -> usize {
        self.collection.len()
    }

    fn start_time(&self) -> i64 {
        self.collection.start_time()
    }

    fn period(&self) -> i64 {
        self.collection.period()
    }

    fn install_trace(&mut self, sink: TraceSink) {
        self.trace = sink;
    }

    fn take_trace(&mut self) -> Option<TraceSink> {
        self.trace
            .on()
            .then(|| std::mem::replace(&mut self.trace, TraceSink::inert()))
    }
}

/// Streams slices lazily from a GoFS dataset — each worker owns a loader
/// over its partition, as each GoFFish host reads its local GoFS shard.
/// The store it is handed is attached, not opened (see [`InstanceSource`]),
/// so building one reads and decodes no graph file.
pub struct GofsProvider {
    loader: InstanceLoader,
    num_timesteps: usize,
    start_time: i64,
    period: i64,
}

impl GofsProvider {
    /// The provider for one partition of a stored dataset.
    pub fn new(store: GofsStore, pg: &PartitionedGraph, partition: u16) -> Self {
        let meta = store.meta().clone();
        GofsProvider {
            loader: InstanceLoader::new(store, pg, partition),
            num_timesteps: meta.num_timesteps,
            start_time: meta.start_time,
            period: meta.period,
        }
    }
}

impl InstanceProvider for GofsProvider {
    fn fetch(&mut self, sg: &Subgraph, timestep: usize) -> Arc<SubgraphInstance> {
        self.loader
            .load(sg.id(), timestep)
            .expect("stored dataset must cover requested timestep")
    }

    fn take_io_stats(&mut self) -> LoaderStats {
        self.loader.take_stats()
    }

    fn num_timesteps(&self) -> usize {
        self.num_timesteps
    }

    fn start_time(&self) -> i64 {
        self.start_time
    }

    fn period(&self) -> i64 {
        self.period
    }

    fn install_trace(&mut self, sink: TraceSink) {
        self.loader.set_trace_sink(sink);
    }

    fn take_trace(&mut self) -> Option<TraceSink> {
        self.loader.take_trace_sink()
    }
}

/// Where the engine should read instances from.
#[derive(Clone)]
pub enum InstanceSource {
    /// Shared in-memory collection.
    Memory(Arc<TimeSeriesCollection>),
    /// A GoFS dataset directory written by
    /// [`tempograph_gofs::GofsWriter`]. A job reads its `meta.bin` once per
    /// process and then only the slices its workers touch: the graph is
    /// the [`PartitionedGraph`] the job was handed
    /// ([`GofsStore::attach`]), never `template.bin` or `partitioning.bin`.
    Gofs(std::path::PathBuf),
}

impl InstanceSource {
    /// Resolve the source for one job over `pg`, once per process.
    pub(crate) fn open(&self, pg: &PartitionedGraph) -> Result<JobSource, EngineError> {
        match self {
            InstanceSource::Memory(c) => Ok(JobSource::Memory(c.clone())),
            InstanceSource::Gofs(dir) => {
                GofsStore::attach(dir, pg)
                    .map(JobSource::Gofs)
                    .map_err(|e| EngineError::Dataset {
                        context: format!("GoFS dataset {}", dir.display()),
                        detail: e.to_string(),
                    })
            }
        }
    }
}

/// An [`InstanceSource`] opened for one job: what every worker of this
/// process builds its provider from.
pub(crate) enum JobSource {
    Memory(Arc<TimeSeriesCollection>),
    Gofs(GofsStore),
}

impl JobSource {
    /// Number of stored timesteps.
    pub(crate) fn num_timesteps(&self) -> usize {
        match self {
            JobSource::Memory(c) => c.len(),
            JobSource::Gofs(store) => store.meta().num_timesteps,
        }
    }

    /// The provider for `partition`'s worker.
    pub(crate) fn provider(
        &self,
        pg: &PartitionedGraph,
        partition: u16,
    ) -> Box<dyn InstanceProvider> {
        match self {
            JobSource::Memory(c) => Box::new(MemoryProvider::new(c.clone())),
            JobSource::Gofs(store) => Box::new(GofsProvider::new(store.clone(), pg, partition)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempograph_core::{AttrType, TemplateBuilder};
    use tempograph_gofs::store::write_dataset;
    use tempograph_partition::{discover_subgraphs, Partitioning};

    fn setup() -> (Arc<PartitionedGraph>, Arc<TimeSeriesCollection>) {
        let mut b = TemplateBuilder::new("prov", false);
        b.vertex_schema().add("x", AttrType::Long);
        for i in 0..6 {
            b.add_vertex(i);
        }
        for i in 0..5u64 {
            b.add_edge(i, i, i + 1).unwrap();
        }
        let t = Arc::new(b.finalize().unwrap());
        let pg = Arc::new(discover_subgraphs(
            t.clone(),
            Partitioning {
                assignment: vec![0, 0, 0, 1, 1, 1],
                k: 2,
            },
        ));
        let mut coll = TimeSeriesCollection::new(t, 0, 10);
        for ts in 0..4 {
            let mut g = coll.new_instance();
            for (i, x) in g.vertex_i64_mut("x").unwrap().iter_mut().enumerate() {
                *x = (ts * 10 + i) as i64;
            }
            coll.push(g).unwrap();
        }
        (pg, Arc::new(coll))
    }

    #[test]
    fn memory_provider_projects_correctly() {
        let (pg, coll) = setup();
        let mut p = MemoryProvider::new(coll);
        let sg = pg.subgraph(pg.subgraphs_of_partition(1)[0]);
        let si = p.fetch(sg, 2);
        assert_eq!(si.vertex_i64(0).unwrap(), &[23, 24, 25]);
        assert_eq!(p.num_timesteps(), 4);
        assert_eq!(p.period(), 10);
        let io = p.take_io_stats();
        assert_eq!(io.slice_loads, 1);
        assert_eq!(p.take_io_stats().slice_loads, 0, "take drains");
    }

    #[test]
    fn gofs_provider_matches_memory_provider() {
        let (pg, coll) = setup();
        let dir = std::env::temp_dir().join(format!(
            "provider-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        write_dataset(&dir, pg.clone(), &coll, 2, 5).unwrap();

        let source = InstanceSource::Gofs(dir.clone()).open(&pg).unwrap();
        assert_eq!(source.num_timesteps(), 4);
        let mut gp = source.provider(&pg, 0);
        let mut mp = MemoryProvider::new(coll);
        let sg = pg.subgraph(pg.subgraphs_of_partition(0)[0]);
        for t in 0..4 {
            assert_eq!(*gp.fetch(sg, t), *mp.fetch(sg, t), "timestep {t}");
        }
        assert!(gp.take_io_stats().bytes_read > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
