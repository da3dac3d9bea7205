//! The benchmark's fixed shape: workloads, problem sizes, repetition
//! counts and metric names. Everything here is a constant — nothing is
//! calibrated at run time — and `BENCHMARK.json` lists the same workload
//! and metric names (checked by a unit test).

/// Partitions in every workload: the reference host has two cores, so each
/// worker has one.
pub const PARTITIONS: usize = 2;

/// Timed repetitions of an untraced run, after one set-up and one warm-up.
/// The issue asked for 7; the driver's 92 runs in 3420 s leave room for 5 of
/// the about 3 s repetitions the sizes below give (README, Noise discipline).
pub const REPS: usize = 5;
/// Pairs of an untraced and an armed repetition in a traced run.
pub const TRACED_PAIRS: usize = 2;

/// GoFS temporal packing: the CLI's default.
pub const PACKING: usize = 10;

/// The seed `golden` digests were recorded with.
pub const DEFAULT_SEED: u64 = 1;

/// Template shape.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Graph {
    /// CARN-like `side × side` road lattice with i.i.d. edge latencies.
    Road { side: usize },
    /// WIKI-like preferential-attachment graph with tweet lists.
    Wiki { vertices: usize },
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Cut {
    /// `MultilevelPartitioner`: few large subgraphs, tiny edge cut.
    Multilevel,
    /// `HashPartitioner`: half the edges cut, one subgraph per few vertices.
    Hash,
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Cluster {
    /// `run_job`: worker threads, crossbeam channels.
    InProcess,
    /// `run_job_tcp` with `Cluster::Threads`: worker threads, loopback TCP.
    TcpThreads,
    /// `run_job_tcp` with `Cluster::Processes`: one worker process per
    /// partition (this binary re-executed).
    TcpProcesses,
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Size {
    pub graph: Graph,
    pub instances: usize,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub full: Size,
    /// `--size smoke`: all four finish in well under 20 s together.
    pub smoke: Size,
    pub cut: Cut,
    /// GoFS subgraphs per bin. The CLI's default is 5; the hash cut uses 50
    /// so its store is ~2 k files, not 21 k — creating that many small
    /// files costs ext4 2 to 6 s depending on the journal's state, noise
    /// in `setup_s` that no change to tempograph could be seen through.
    pub binning: usize,
    pub cluster: Cluster,
    /// TDSP min-combiner armed (only where subgraphs are small enough for
    /// it to fold anything).
    pub combiner: bool,
    pub checkpoint_every: Option<usize>,
    /// Output digest at `DEFAULT_SEED`, full size. `tdsp_road` and
    /// `tdsp_road_ckpt_proc` share one: transport and checkpointing must not
    /// change the answer.
    pub golden: u64,
}

impl Workload {
    pub fn size(&self, smoke: bool) -> Size {
        if smoke {
            self.smoke
        } else {
            self.full
        }
    }

    pub fn is_tdsp(&self) -> bool {
        matches!(self.full.graph, Graph::Road { .. })
    }
}

/// TDSP crosses this lattice in 127 to 132 timesteps (20 seeds) depending on the
/// seed's latencies: instances past the last one run are set-up time for nothing,
/// too few leave vertices unfinalised and fail the run.
const ROAD_FULL: Size = Size {
    graph: Graph::Road { side: 540 },
    instances: 139,
};
const ROAD_SMOKE: Size = Size {
    graph: Graph::Road { side: 60 },
    instances: 20,
};

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "tdsp_road",
        why: "compute: TDSP, 540x540 lattice x 139 dense-double instances, 0.1% edges cut, in-process: 69% program compute, 19% barrier wait that is the peer's compute (skew 1.23); resolves compute and GoFS changes",
        full: ROAD_FULL,
        smoke: ROAD_SMOKE,
        cut: Cut::Multilevel,
        binning: 5,
        cluster: Cluster::InProcess,
        combiner: false,
        checkpoint_every: None,
        golden: 0xf50f_ae1a_9d4c_e540,
    },
    Workload {
        name: "tdsp_hashcut_tcp",
        why: "messages: same TDSP, 315x315 x 85, hash cut (50% edges, 33k subgraphs), loopback TCP, 2.9M remote msgs: 51% compute in tiny subgraphs, 15% batching, 14% barrier, 14% unclocked; moves with message path",
        full: Size {
            graph: Graph::Road { side: 315 },
            instances: 85,
        },
        smoke: Size {
            graph: Graph::Road { side: 40 },
            instances: 14,
        },
        cut: Cut::Hash,
        binning: 50,
        cluster: Cluster::TcpThreads,
        combiner: true,
        checkpoint_every: None,
        golden: 0x2b9e_da94_92a5_e7a9,
    },
    Workload {
        name: "hash_tweets",
        why: "storage: HashtagAggregation, 120k-vertex WIKI-like tweets x 217 instances, 1 remote message: 85% is 'compute' that is GoFS string cells materialised and counted; resolves string-column changes only",
        full: Size {
            graph: Graph::Wiki { vertices: 120_000 },
            instances: 217,
        },
        smoke: Size {
            graph: Graph::Wiki { vertices: 12_000 },
            instances: 30,
        },
        cut: Cut::Multilevel,
        binning: 5,
        cluster: Cluster::InProcess,
        combiner: false,
        checkpoint_every: None,
        golden: 0xa281_2b8a_fb7a_7692,
    },
    Workload {
        name: "tdsp_road_ckpt_proc",
        why: "tdsp_road's exact dataset and job as 2 worker processes, checkpoint every 8 timesteps (34 writes, 136 MB): spawn/connect/collect 19% (tdsp_road 6%), checkpoint 7% of core-seconds; same digest required",
        full: ROAD_FULL,
        smoke: ROAD_SMOKE,
        cut: Cut::Multilevel,
        binning: 5,
        cluster: Cluster::TcpProcesses,
        combiner: false,
        checkpoint_every: Some(8),
        golden: 0xf50f_ae1a_9d4c_e540,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `(name, unit, higher_is_better, bound)` — the end-to-end metrics, every
/// one measured with tracing, metrics and attribution off.
pub const END_TO_END: [(&str, &str, bool, f64); 5] = [
    ("setup_s", "s", false, 0.25),
    ("job_wall_s", "s", false, 0.25),
    ("edge_timesteps_per_s", "1/s", true, 0.25),
    ("job_cpu_s", "s", false, 0.25),
    ("peak_rss_mb", "MB", false, 0.05),
];

/// `(name, unit)` — the per-layer metrics of a traced run, grouped by the
/// crate or module they measure. README.md maps each to the end-to-end
/// metric and workload it should move.
pub const PER_LAYER: [(&str, &str); 57] = [
    ("gen.template_s", "s"),
    ("gen.instances_s", "s"),
    ("partition.partition_s", "s"),
    ("partition.discover_subgraphs_s", "s"),
    ("partition.cut_fraction", "ratio"),
    ("partition.balance", "ratio"),
    ("partition.subgraphs", "count"),
    ("gofs.write_s", "s"),
    ("gofs.store_mb", "MB"),
    ("gofs.bytes_per_instance", "B"),
    ("gofs.open_s", "s"),
    ("gofs.io_s", "s"),
    ("gofs.slice_loads", "count"),
    ("gofs.bytes_read_mb", "MB"),
    ("gofs.cache_hit_rate", "ratio"),
    ("gofs.cache_evictions", "count"),
    ("gofs.load_all_s", "s"),
    ("gofs.decode_ns_per_cell", "ns"),
    ("gofs.cached_mb_peak", "MB"),
    ("executor.compute_s", "s"),
    ("executor.compute_share", "ratio"),
    ("executor.compute_skew", "ratio"),
    ("executor.cpu_utilisation", "ratio"),
    ("executor.supersteps", "count"),
    ("executor.timesteps_run", "count"),
    ("executor.timestep_ms_p50", "ms"),
    ("executor.timestep_ms_p95", "ms"),
    ("executor.virtual_makespan_s", "s"),
    ("batch.msg_s", "s"),
    ("batch.msg_share", "ratio"),
    ("batch.msgs_local", "count"),
    ("batch.msgs_remote", "count"),
    ("batch.msgs_combined", "count"),
    ("batch.batches_remote", "count"),
    ("batch.bytes_remote_mb", "MB"),
    ("batch.encode_ns_per_msg", "ns"),
    ("batch.decode_ns_per_msg", "ns"),
    ("batch.merge_ns_per_msg", "ns"),
    ("transport.barrier_wait_s", "s"),
    ("transport.barrier_share", "ratio"),
    ("transport.barrier_rounds", "count"),
    ("transport.send_s", "s"),
    ("transport.spawn_connect_s", "s"),
    ("net.frame_rtt_us", "us"),
    ("net.stream_mb_per_s", "MB/s"),
    ("checkpoint.write_s", "s"),
    ("checkpoint.count", "count"),
    ("checkpoint.written_mb", "MB"),
    ("pregel.sssp_wall_s", "s"),
    ("pregel.supersteps", "count"),
    ("pregel.msgs", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.events", "count"),
    ("bench.traced_job_wall_s", "s"),
    ("bench.untraced_job_wall_s", "s"),
    ("bench.timestep_samples", "count"),
    ("bench.setup_s", "s"),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is data for the driver; this keeps it and the
    /// constants above from drifting apart without a JSON parser: every
    /// name must appear in the file as a quoted `"name": "<x>"` value, and
    /// the file must declare no more names than the tables hold.
    #[test]
    fn benchmark_json_lists_exactly_these_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        let mut expected = 0;
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.0))
            .chain(PER_LAYER.iter().map(|m| m.0))
        {
            assert!(
                json.contains(&format!("\"name\": \"{name}\"")),
                "BENCHMARK.json lacks {name}"
            );
            expected += 1;
        }
        assert_eq!(json.matches("\"name\": ").count(), expected);
        for (name, unit, higher, bound) in END_TO_END {
            let better = if higher { "higher" } else { "lower" };
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in &WORKLOADS {
            assert!(
                json.contains(w.why),
                "BENCHMARK.json lacks why of {}",
                w.name
            );
            assert!(w.why.len() <= 200);
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = PER_LAYER
            .iter()
            .map(|m| m.0)
            .chain(END_TO_END.iter().map(|m| m.0))
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
        assert_eq!(find("tdsp_road").map(|w| w.name), Some("tdsp_road"));
        assert!(find("nope").is_none());
    }
}
