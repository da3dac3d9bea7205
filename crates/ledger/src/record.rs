//! The on-disk run record: schema, canonical binary codec, and the
//! conversion from a finished [`JobResult`].
//!
//! # Format
//!
//! One record per file, in the GoFS on-disk idiom (`GFRN` magic / u16
//! version / u64 length / FNV-1a checksum frame via
//! [`tempograph_gofs::codec::frame`]). The payload is the record's
//! [`WireMsg`] encoding — the workspace's codec vocabulary
//! (`tempograph_core::wire`), with the engine's own [`AttributionRow`]
//! embedded, decoded through GoFS's [`decode_framed`] like every other
//! framed record file: fixed-width little-endian scalars plus
//! length-prefixed lists, no floats, no maps, no ambient clock or
//! randomness anywhere in the encode path, so the encoding of a given
//! [`RunRecord`] value is canonical: equal records produce byte-identical
//! files.
//!
//! # Compatibility
//!
//! The frame's version field is the GoFS-wide `FORMAT_VERSION`; unknown
//! versions are rejected at `unframe_owned` time with
//! [`GofsError::UnsupportedVersion`], corrupt payloads (and trailing
//! bytes) with typed [`GofsError`] variants. The bytes are pinned by a
//! hex golden under that constant: any layout change bumps the format
//! version.
//!
//! [`GofsError`]: tempograph_gofs::error::GofsError
//! [`GofsError::UnsupportedVersion`]: tempograph_gofs::error::GofsError::UnsupportedVersion

use bytes::{Bytes, BytesMut};
use tempograph_core::wire::{WireError, WireMsg};
use tempograph_engine::{AttributionRow, JobResult};
use tempograph_gofs::codec::{decode_framed, fnv1a64, frame};
use tempograph_gofs::error::Result;
use tempograph_metrics::json::Value;
use tempograph_partition::SubgraphId;

/// Magic bytes of a run-record file ("GoFs RuN").
pub const RECORD_MAGIC: [u8; 4] = *b"GFRN";

/// Schema tag of the JSON projection ([`RunRecord::to_value`]).
pub const RECORD_SCHEMA: &str = "tempograph-run/v1";

/// Everything that identifies *what* ran: the inputs that must match for
/// two records to be comparable. The deterministic run id is an FNV-1a
/// hash of this fingerprint's canonical encoding.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ConfigFingerprint {
    /// Algorithm name (e.g. `hash`, `meme`, `tdsp`).
    pub algorithm: String,
    /// Design pattern (`independent` / `eventually-dependent` /
    /// `sequentially-dependent`).
    pub pattern: String,
    /// Partition count the job ran with.
    pub partitions: u32,
    /// Subgraph count discovered over the template.
    pub subgraphs: u32,
    /// Configured timestep range (the mode's bound, not the count run).
    pub timesteps: u32,
    /// Dataset epoch (seconds) — the time-series range start.
    pub start_time: i64,
    /// Seconds between instances.
    pub period: i64,
    /// Generator/workload seed.
    pub seed: u64,
    /// Dataset path or name.
    pub dataset: String,
    /// Environment, as sorted `(key, value)` pairs. Deliberately excludes
    /// timestamps so identical configs on one host fingerprint identically
    /// across executions.
    pub env: Vec<(String, String)>,
}

impl ConfigFingerprint {
    /// The standard environment pairs: os / arch / cpus / debug_build
    /// (no timestamps).
    pub fn host_env() -> Vec<(String, String)> {
        vec![
            ("arch".to_string(), std::env::consts::ARCH.to_string()),
            ("cpus".to_string(), num_cpus().to_string()),
            (
                "debug_build".to_string(),
                cfg!(debug_assertions).to_string(),
            ),
            ("os".to_string(), std::env::consts::OS.to_string()),
        ]
    }

    /// Deterministic run id: `<algorithm>-<fnv1a64 of the canonical
    /// fingerprint encoding>`. Same config + same host class ⇒ same id.
    pub fn run_id(&self) -> String {
        let mut buf = BytesMut::new();
        self.encode(&mut buf);
        let slug: String = self
            .algorithm
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        format!("{}-{:016x}", slug, fnv1a64(&buf))
    }
}

impl WireMsg for ConfigFingerprint {
    fn encode(&self, buf: &mut BytesMut) {
        self.algorithm.encode(buf);
        self.pattern.encode(buf);
        self.partitions.encode(buf);
        self.subgraphs.encode(buf);
        self.timesteps.encode(buf);
        self.start_time.encode(buf);
        self.period.encode(buf);
        self.seed.encode(buf);
        self.dataset.encode(buf);
        self.env.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> std::result::Result<Self, WireError> {
        Ok(ConfigFingerprint {
            algorithm: String::decode(buf)?,
            pattern: String::decode(buf)?,
            partitions: u32::decode(buf)?,
            subgraphs: u32::decode(buf)?,
            timesteps: u32::decode(buf)?,
            start_time: i64::decode(buf)?,
            period: i64::decode(buf)?,
            seed: u64::decode(buf)?,
            dataset: String::decode(buf)?,
            env: Vec::decode(buf)?,
        })
    }
}

/// Whole-job scalar aggregates, one value per named quantity. The field
/// list is the contract [`RunAggregates::fields`] and the `inspect diff`
/// gate iterate over.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct RunAggregates {
    pub wall_ns: u64,
    pub virtual_ns: u64,
    pub compute_ns: u64,
    pub msg_ns: u64,
    pub sync_ns: u64,
    pub io_ns: u64,
    pub timesteps_run: u64,
    pub supersteps: u64,
    pub msgs_local: u64,
    pub msgs_remote: u64,
    pub bytes_remote: u64,
    pub msgs_combined: u64,
    pub batches_remote: u64,
    pub slice_loads: u64,
    pub recoveries: u64,
    pub emitted_values: u64,
}

impl RunAggregates {
    /// Every aggregate as `(name, value)`, in declaration order. Names
    /// ending in `_ns` are measured durations; the rest are deterministic
    /// counts for a seeded run.
    pub fn fields(&self) -> [(&'static str, u64); 16] {
        [
            ("wall_ns", self.wall_ns),
            ("virtual_ns", self.virtual_ns),
            ("compute_ns", self.compute_ns),
            ("msg_ns", self.msg_ns),
            ("sync_ns", self.sync_ns),
            ("io_ns", self.io_ns),
            ("timesteps_run", self.timesteps_run),
            ("supersteps", self.supersteps),
            ("msgs_local", self.msgs_local),
            ("msgs_remote", self.msgs_remote),
            ("bytes_remote", self.bytes_remote),
            ("msgs_combined", self.msgs_combined),
            ("batches_remote", self.batches_remote),
            ("slice_loads", self.slice_loads),
            ("recoveries", self.recoveries),
            ("emitted_values", self.emitted_values),
        ]
    }
}

/// Every field as a `u64`, in [`RunAggregates::fields`] order.
impl WireMsg for RunAggregates {
    fn encode(&self, buf: &mut BytesMut) {
        for (_, v) in self.fields() {
            v.encode(buf);
        }
    }
    fn decode(buf: &mut Bytes) -> std::result::Result<Self, WireError> {
        Ok(RunAggregates {
            wall_ns: u64::decode(buf)?,
            virtual_ns: u64::decode(buf)?,
            compute_ns: u64::decode(buf)?,
            msg_ns: u64::decode(buf)?,
            sync_ns: u64::decode(buf)?,
            io_ns: u64::decode(buf)?,
            timesteps_run: u64::decode(buf)?,
            supersteps: u64::decode(buf)?,
            msgs_local: u64::decode(buf)?,
            msgs_remote: u64::decode(buf)?,
            bytes_remote: u64::decode(buf)?,
            msgs_combined: u64::decode(buf)?,
            batches_remote: u64::decode(buf)?,
            slice_loads: u64::decode(buf)?,
            recoveries: u64::decode(buf)?,
            emitted_values: u64::decode(buf)?,
        })
    }
}

/// One worker's (partition's) whole-run time breakdown, derived from the
/// per-timestep metrics the worker's `TraceSink::now` readings produced.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerTiming {
    /// Partition index.
    pub partition: u32,
    /// Total nanoseconds inside program hooks.
    pub compute_ns: u64,
    /// Total nanoseconds marshalling/routing messages.
    pub msg_ns: u64,
    /// Total nanoseconds at barriers.
    pub sync_ns: u64,
    /// Total nanoseconds loading instances.
    pub io_ns: u64,
    /// Summed per-timestep wall nanoseconds.
    pub wall_ns: u64,
    /// Supersteps this worker ran (max per timestep, summed).
    pub supersteps: u64,
}

impl WireMsg for WorkerTiming {
    fn encode(&self, buf: &mut BytesMut) {
        self.partition.encode(buf);
        self.compute_ns.encode(buf);
        self.msg_ns.encode(buf);
        self.sync_ns.encode(buf);
        self.io_ns.encode(buf);
        self.wall_ns.encode(buf);
        self.supersteps.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> std::result::Result<Self, WireError> {
        Ok(WorkerTiming {
            partition: u32::decode(buf)?,
            compute_ns: u64::decode(buf)?,
            msg_ns: u64::decode(buf)?,
            sync_ns: u64::decode(buf)?,
            io_ns: u64::decode(buf)?,
            wall_ns: u64::decode(buf)?,
            supersteps: u64::decode(buf)?,
        })
    }
}

/// A durable record of one job run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunRecord {
    /// What ran (also derives the run id).
    pub config: ConfigFingerprint,
    /// Whole-job scalar aggregates.
    pub aggregates: RunAggregates,
    /// Virtual (simulated-cluster) makespan per executed timestep —
    /// `Σ_ss max_p compute[ss][p] + max_p msg + max_p io`, built from the
    /// per-superstep timings the trace clock measured.
    pub virtual_timestep_ns: Vec<u64>,
    /// Per-worker whole-run breakdowns, in partition order.
    pub workers: Vec<WorkerTiming>,
    /// The per-(subgraph, timestep) compute attribution table, sorted by
    /// `(subgraph, timestep)`; empty when the job ran without
    /// `JobConfig::with_attribution`.
    pub attribution: Vec<AttributionRow>,
    /// User counter totals (summed over timesteps, partitions, and merge),
    /// sorted by name.
    pub counters: Vec<(String, u64)>,
    /// The canonical metrics snapshot JSON (`tempograph-metrics/v1`), or
    /// empty when the job ran without metrics (or the record was made
    /// deterministic via [`RunRecord::strip_nondeterminism`]).
    pub metrics_json: String,
}

impl RunRecord {
    /// Build a record from a finished job. Captures aggregates, worker
    /// breakdowns, the virtual-makespan series, counter totals, the
    /// attribution table, and the metrics snapshot when present.
    pub fn from_result(config: ConfigFingerprint, result: &JobResult) -> RunRecord {
        let mut agg = RunAggregates {
            wall_ns: result.total_wall_ns,
            virtual_ns: result.virtual_total_ns(),
            timesteps_run: result.timesteps_run as u64,
            recoveries: result.recoveries as u64,
            emitted_values: result.emitted.len() as u64,
            ..Default::default()
        };
        let rows = result
            .metrics
            .iter()
            .flat_map(|per_t| per_t.iter())
            .chain(result.merge_metrics.iter());
        for m in rows {
            agg.compute_ns += m.compute_ns;
            agg.msg_ns += m.msg_ns;
            agg.sync_ns += m.sync_ns;
            agg.io_ns += m.io_ns;
            agg.msgs_local += m.msgs_local;
            agg.msgs_remote += m.msgs_remote;
            agg.bytes_remote += m.bytes_remote;
            agg.msgs_combined += m.msgs_combined;
            agg.batches_remote += m.batches_remote;
            agg.slice_loads += m.slice_loads;
        }
        // Supersteps are barrier-synchronised: per-timestep max, summed
        // (the same reduce `JobResult::export_into` applies).
        for per_t in &result.metrics {
            agg.supersteps += u64::from(per_t.iter().map(|m| m.supersteps).max().unwrap_or(0));
        }
        agg.supersteps += u64::from(
            result
                .merge_metrics
                .iter()
                .map(|m| m.supersteps)
                .max()
                .unwrap_or(0),
        );

        let workers = result
            .partition_breakdown()
            .iter()
            .enumerate()
            .map(|(p, m)| WorkerTiming {
                partition: p as u32,
                compute_ns: m.compute_ns,
                msg_ns: m.msg_ns,
                sync_ns: m.sync_ns,
                io_ns: m.io_ns,
                wall_ns: m.wall_ns,
                supersteps: u64::from(m.supersteps),
            })
            .collect();

        let virtual_timestep_ns = (0..result.timesteps_run)
            .map(|t| result.virtual_timestep_ns(t))
            .collect();

        let attribution = result
            .attribution
            .as_ref()
            .map(|a| a.rows.clone())
            .unwrap_or_default();

        // Counter totals: timestep rows + merge rows, name-sorted (both
        // maps are BTreeMaps, so iteration is already ordered).
        let mut counters: Vec<(String, u64)> = Vec::with_capacity(result.counters.len());
        for (name, per_t) in &result.counters {
            let total: u64 = per_t.iter().flatten().sum();
            counters.push((name.clone(), total));
        }
        for (name, per_p) in &result.merge_counters {
            let total: u64 = per_p.iter().sum();
            match counters.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
                Ok(i) => counters[i].1 += total,
                Err(i) => counters.insert(i, (name.clone(), total)),
            }
        }

        let metrics_json = result
            .registry
            .as_ref()
            .map(|reg| reg.snapshot().to_json())
            .unwrap_or_default();

        RunRecord {
            config,
            aggregates: agg,
            virtual_timestep_ns,
            workers,
            attribution,
            counters,
            metrics_json,
        }
    }

    /// The record's deterministic run id (see
    /// [`ConfigFingerprint::run_id`]).
    pub fn run_id(&self) -> String {
        self.config.run_id()
    }

    /// Measured per-subgraph cost totals from the attribution table, as
    /// the `(SubgraphId, cost)` pairs
    /// `partition::suggest_rebalance_from` consumes. `measured` picks the
    /// clock-measured nanoseconds; `false` picks the deterministic
    /// invocation counts instead.
    pub fn per_subgraph_costs(&self, measured: bool) -> Vec<(SubgraphId, u64)> {
        let mut out: Vec<(SubgraphId, u64)> = Vec::new();
        // Rows are (subgraph, timestep)-sorted, so equal ids are adjacent.
        for e in &self.attribution {
            let v = if measured {
                e.compute_ns
            } else {
                u64::from(e.invocations)
            };
            match out.last_mut() {
                Some((sg, total)) if *sg == e.subgraph => *total += v,
                _ => out.push((e.subgraph, v)),
            }
        }
        out
    }

    /// Zero every clock-measured field and drop the metrics snapshot,
    /// leaving only deterministic content (counts, invocations, config).
    /// A stripped record of a seeded run encodes byte-identically across
    /// executions — the property the CI inspect smoke asserts.
    pub fn strip_nondeterminism(&mut self) {
        let a = &mut self.aggregates;
        a.wall_ns = 0;
        a.virtual_ns = 0;
        a.compute_ns = 0;
        a.msg_ns = 0;
        a.sync_ns = 0;
        a.io_ns = 0;
        // Wire sizes are deterministic; clock-derived fields are not.
        self.virtual_timestep_ns.iter_mut().for_each(|v| *v = 0);
        for w in &mut self.workers {
            w.compute_ns = 0;
            w.msg_ns = 0;
            w.sync_ns = 0;
            w.io_ns = 0;
            w.wall_ns = 0;
        }
        for e in &mut self.attribution {
            e.compute_ns = 0;
        }
        // The snapshot embeds timing histograms; drop it wholesale rather
        // than surgically zeroing JSON.
        self.metrics_json = String::new();
    }

    /// Encode to the framed on-disk representation.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        WireMsg::encode(self, &mut buf);
        frame(RECORD_MAGIC, &buf)
    }

    /// Decode a framed record, verifying magic, version, and checksum, and
    /// that the payload holds exactly one record. The record decodes in
    /// the buffer the file was read into.
    pub fn decode(data: Bytes) -> Result<RunRecord> {
        decode_framed(
            RECORD_MAGIC,
            data,
            "run record",
            <RunRecord as WireMsg>::decode,
        )
    }

    /// Canonical JSON projection (`inspect show --json`). Deterministic
    /// for equal records: ordered object keys, lossless `u64` tokens.
    pub fn to_value(&self) -> Value {
        let c = &self.config;
        let config = Value::Obj(vec![
            ("algorithm".into(), Value::str(&c.algorithm)),
            ("pattern".into(), Value::str(&c.pattern)),
            ("partitions".into(), Value::u64(u64::from(c.partitions))),
            ("subgraphs".into(), Value::u64(u64::from(c.subgraphs))),
            ("timesteps".into(), Value::u64(u64::from(c.timesteps))),
            ("start_time".into(), Value::Num(c.start_time.to_string())),
            ("period".into(), Value::Num(c.period.to_string())),
            ("seed".into(), Value::u64(c.seed)),
            ("dataset".into(), Value::str(&c.dataset)),
            (
                "env".into(),
                Value::Obj(
                    c.env
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::str(v)))
                        .collect(),
                ),
            ),
        ]);
        let aggregates = Value::Obj(
            self.aggregates
                .fields()
                .iter()
                .map(|&(name, v)| (name.to_string(), Value::u64(v)))
                .collect(),
        );
        let workers = Value::Arr(
            self.workers
                .iter()
                .map(|w| {
                    Value::Obj(vec![
                        ("partition".into(), Value::u64(u64::from(w.partition))),
                        ("compute_ns".into(), Value::u64(w.compute_ns)),
                        ("msg_ns".into(), Value::u64(w.msg_ns)),
                        ("sync_ns".into(), Value::u64(w.sync_ns)),
                        ("io_ns".into(), Value::u64(w.io_ns)),
                        ("wall_ns".into(), Value::u64(w.wall_ns)),
                        ("supersteps".into(), Value::u64(w.supersteps)),
                    ])
                })
                .collect(),
        );
        let attribution = Value::Arr(
            self.attribution
                .iter()
                .map(|e| {
                    Value::Arr(vec![
                        Value::u64(u64::from(e.subgraph.0)),
                        Value::u64(u64::from(e.timestep)),
                        Value::u64(e.compute_ns),
                        Value::u64(u64::from(e.invocations)),
                    ])
                })
                .collect(),
        );
        let counters = Value::Obj(
            self.counters
                .iter()
                .map(|(name, v)| (name.clone(), Value::u64(*v)))
                .collect(),
        );
        Value::Obj(vec![
            ("schema".into(), Value::str(RECORD_SCHEMA)),
            ("run".into(), Value::str(&self.run_id())),
            ("config".into(), config),
            ("aggregates".into(), aggregates),
            (
                "virtual_timestep_ns".into(),
                Value::Arr(
                    self.virtual_timestep_ns
                        .iter()
                        .map(|&v| Value::u64(v))
                        .collect(),
                ),
            ),
            ("workers".into(), workers),
            ("attribution".into(), attribution),
            ("counters".into(), counters),
            (
                "metrics".into(),
                // Stored as canonical `tempograph-metrics/v1` JSON text;
                // embed it structurally (it round-trips losslessly), fall
                // back to a raw string if it somehow doesn't parse.
                if self.metrics_json.is_empty() {
                    Value::Null
                } else {
                    Value::parse(&self.metrics_json)
                        .unwrap_or_else(|_| Value::str(&self.metrics_json))
                },
            ),
        ])
    }
}

impl WireMsg for RunRecord {
    fn encode(&self, buf: &mut BytesMut) {
        self.config.encode(buf);
        self.aggregates.encode(buf);
        self.virtual_timestep_ns.encode(buf);
        self.workers.encode(buf);
        self.attribution.encode(buf);
        self.counters.encode(buf);
        self.metrics_json.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> std::result::Result<Self, WireError> {
        Ok(RunRecord {
            config: ConfigFingerprint::decode(buf)?,
            aggregates: RunAggregates::decode(buf)?,
            virtual_timestep_ns: Vec::decode(buf)?,
            workers: Vec::decode(buf)?,
            attribution: Vec::decode(buf)?,
            counters: Vec::decode(buf)?,
            metrics_json: String::decode(buf)?,
        })
    }
}

/// Parallelism of the host.
fn num_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempograph_gofs::error::GofsError;

    pub(crate) fn sample() -> RunRecord {
        RunRecord {
            config: ConfigFingerprint {
                algorithm: "hash".into(),
                pattern: "eventually-dependent".into(),
                partitions: 3,
                subgraphs: 7,
                timesteps: 8,
                start_time: 1_400_000_000,
                period: 3600,
                seed: 0xBE4C,
                dataset: "/data/tweets".into(),
                env: ConfigFingerprint::host_env(),
            },
            aggregates: RunAggregates {
                wall_ns: 123_456_789,
                virtual_ns: 98_765_432,
                compute_ns: 55_000,
                msg_ns: 4_400,
                sync_ns: 330,
                io_ns: 22,
                timesteps_run: 8,
                supersteps: 31,
                msgs_local: 1000,
                msgs_remote: 250,
                bytes_remote: 9000,
                msgs_combined: 12,
                batches_remote: 40,
                slice_loads: 21,
                recoveries: 0,
                emitted_values: 77,
            },
            virtual_timestep_ns: vec![10, 20, 30, 40, 50, 60, 70, 80],
            workers: (0..3)
                .map(|p| WorkerTiming {
                    partition: p,
                    compute_ns: 1000 + u64::from(p),
                    msg_ns: 10,
                    sync_ns: 20,
                    io_ns: 5,
                    wall_ns: 2000,
                    supersteps: 31,
                })
                .collect(),
            attribution: vec![
                AttributionRow {
                    subgraph: SubgraphId(0),
                    timestep: 0,
                    compute_ns: 500,
                    invocations: 4,
                },
                AttributionRow {
                    subgraph: SubgraphId(0),
                    timestep: 1,
                    compute_ns: 300,
                    invocations: 2,
                },
                AttributionRow {
                    subgraph: SubgraphId(2),
                    timestep: u32::MAX,
                    compute_ns: 90,
                    invocations: 1,
                },
            ],
            counters: vec![("colored".into(), 17), ("seen".into(), 40)],
            metrics_json: String::from(r#"{"schema":"tempograph-metrics/v1","metrics":[]}"#),
        }
    }

    /// A record with every field distinct and a fixed host env, so its
    /// bytes and run id are the same on every machine.
    fn golden_record() -> RunRecord {
        let attr = |subgraph, timestep, compute_ns, invocations| AttributionRow {
            subgraph: SubgraphId(subgraph),
            timestep,
            compute_ns,
            invocations,
        };
        let env = [("arch", "x86_64"), ("cpus", "2"), ("debug_build", "false")];
        RunRecord {
            config: ConfigFingerprint {
                env: env
                    .iter()
                    .chain(&[("os", "linux")])
                    .map(|&(k, v)| (k.to_string(), v.to_string()))
                    .collect(),
                ..sample().config
            },
            aggregates: RunAggregates {
                wall_ns: 1,
                virtual_ns: 2,
                compute_ns: 3,
                msg_ns: 4,
                sync_ns: 5,
                io_ns: 6,
                timesteps_run: 7,
                supersteps: 8,
                msgs_local: 9,
                msgs_remote: 10,
                bytes_remote: 11,
                msgs_combined: 12,
                batches_remote: 13,
                slice_loads: 14,
                recoveries: 15,
                emitted_values: 16,
            },
            virtual_timestep_ns: vec![0x101, 0x102],
            workers: (0..2)
                .map(|p| WorkerTiming {
                    partition: p,
                    compute_ns: 0x201 + u64::from(p),
                    msg_ns: 0x203,
                    sync_ns: 0x204,
                    io_ns: 0x205,
                    wall_ns: 0x206,
                    supersteps: 0x207,
                })
                .collect(),
            attribution: vec![
                attr(0x301, 0x302, 0x303, 0x304),
                attr(0x305, u32::MAX, 0x306, 0x307),
            ],
            counters: vec![("colored".into(), 0x401), ("seen".into(), 0x402)],
            metrics_json: "{}".into(),
        }
    }

    /// Byte golden for a run-record file (frame included).
    #[test]
    fn golden_run_record_file() {
        let rec = golden_record();
        let enc = rec.encode();
        tempograph_gofs::codec::assert_hex_golden(
            &enc,
            include_str!("../testdata/run_record.hex"),
            "FORMAT_VERSION",
            tempograph_gofs::codec::FORMAT_VERSION,
        );
        assert_eq!(RunRecord::decode(enc.clone()).unwrap(), rec);
    }

    /// Ledger file names are run ids: an id that moved would cut every
    /// recorded run off from `inspect show`/`diff`.
    #[test]
    fn golden_run_id() {
        assert_eq!(golden_record().run_id(), "hash-4ecb83b95a943dfc");
    }

    #[test]
    fn round_trips_exactly() {
        let rec = sample();
        let bytes = rec.encode();
        let back = RunRecord::decode(bytes).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn empty_record_round_trips() {
        let rec = RunRecord::default();
        assert_eq!(RunRecord::decode(rec.encode()).unwrap(), rec);
    }

    #[test]
    fn encoding_is_canonical() {
        // Equal values ⇒ byte-identical files: encode twice and compare.
        let rec = sample();
        assert_eq!(rec.encode(), rec.clone().encode());
    }

    #[test]
    fn corruption_is_detected() {
        let rec = sample();
        let good = rec.encode();

        // Bit flip in the payload → checksum mismatch.
        let mut flipped = good.to_vec();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        assert!(matches!(
            RunRecord::decode(flipped.into()),
            Err(GofsError::ChecksumMismatch { .. })
        ));

        // Truncation → error, never a partial record.
        assert!(RunRecord::decode(good.slice(..good.len() - 3)).is_err());

        // Future version → typed rejection.
        let mut stale = good.to_vec();
        stale[4] = 0xFF;
        assert!(matches!(
            RunRecord::decode(stale.into()),
            Err(GofsError::UnsupportedVersion(_))
        ));

        // Wrong magic → typed rejection.
        let mut alien = good.to_vec();
        alien[0] = b'X';
        assert!(matches!(
            RunRecord::decode(alien.into()),
            Err(GofsError::BadMagic { .. })
        ));
    }

    #[test]
    fn run_id_is_deterministic_and_config_sensitive() {
        let rec = sample();
        assert_eq!(rec.run_id(), sample().run_id());
        assert!(rec.run_id().starts_with("hash-"));
        let mut other = sample();
        other.config.seed ^= 1;
        assert_ne!(rec.run_id(), other.run_id());
        // Timings don't participate: the id fingerprints the *config*.
        let mut slow = sample();
        slow.aggregates.wall_ns *= 2;
        assert_eq!(rec.run_id(), slow.run_id());
    }

    #[test]
    fn strip_nondeterminism_zeroes_all_measured_fields() {
        let mut rec = sample();
        rec.strip_nondeterminism();
        assert_eq!(rec.aggregates.wall_ns, 0);
        assert_eq!(rec.aggregates.virtual_ns, 0);
        assert_eq!(rec.aggregates.compute_ns, 0);
        assert!(rec.virtual_timestep_ns.iter().all(|&v| v == 0));
        assert!(rec
            .workers
            .iter()
            .all(|w| w.compute_ns == 0 && w.wall_ns == 0));
        assert!(rec.attribution.iter().all(|e| e.compute_ns == 0));
        assert!(rec.metrics_json.is_empty());
        // Deterministic content survives.
        assert_eq!(rec.aggregates.msgs_local, 1000);
        assert_eq!(rec.attribution[0].invocations, 4);
        assert_eq!(rec.counters.len(), 2);

        // Two runs differing only in measured timings strip to identical
        // bytes — the CI byte-identity property in miniature.
        let mut a = sample();
        let mut b = sample();
        b.aggregates.wall_ns += 31337;
        b.workers[1].sync_ns += 7;
        b.attribution[2].compute_ns += 99;
        a.strip_nondeterminism();
        b.strip_nondeterminism();
        assert_eq!(a.encode(), b.encode());
    }

    #[test]
    fn per_subgraph_costs_fold_rows() {
        let rec = sample();
        assert_eq!(
            rec.per_subgraph_costs(true),
            vec![(SubgraphId(0), 800), (SubgraphId(2), 90)]
        );
        assert_eq!(
            rec.per_subgraph_costs(false),
            vec![(SubgraphId(0), 6), (SubgraphId(2), 1)]
        );
    }

    #[test]
    fn json_projection_is_deterministic_and_tagged() {
        let rec = sample();
        let v = rec.to_value();
        assert_eq!(
            v.get("schema").and_then(|s| s.as_str()),
            Some(RECORD_SCHEMA)
        );
        assert_eq!(
            v.get("run").and_then(|s| s.as_str()),
            Some(rec.run_id().as_str())
        );
        assert_eq!(v.write(), rec.to_value().write());
        assert_eq!(
            v.get("aggregates").and_then(|a| a.get("wall_ns")).cloned(),
            Some(Value::u64(123_456_789))
        );
        // Embedded metrics snapshot is structural, not an escaped string.
        assert_eq!(
            v.get("metrics")
                .and_then(|m| m.get("schema"))
                .and_then(|s| s.as_str()),
            Some("tempograph-metrics/v1")
        );
    }
}
