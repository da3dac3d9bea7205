//! Property tests for the run-record codec: encode/decode is a lossless
//! round trip for arbitrary records, and the encoding is canonical.

use proptest::prelude::*;
use tempograph_engine::AttributionRow;
use tempograph_ledger::{ConfigFingerprint, RunAggregates, RunRecord, WorkerTiming};
use tempograph_partition::SubgraphId;

fn arb_string() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9_./ -]{0,24}"
}

fn arb_config() -> impl Strategy<Value = ConfigFingerprint> {
    (
        (
            arb_string(),
            arb_string(),
            any::<u32>(),
            any::<u32>(),
            0u32..1024,
        ),
        (
            any::<i64>(),
            any::<i64>(),
            any::<u64>(),
            arb_string(),
            proptest::collection::vec((arb_string(), arb_string()), 0..4),
        ),
    )
        .prop_map(
            |(
                (algorithm, pattern, partitions, subgraphs, timesteps),
                (start_time, period, seed, dataset, env),
            )| {
                ConfigFingerprint {
                    algorithm,
                    pattern,
                    partitions,
                    subgraphs,
                    timesteps,
                    start_time,
                    period,
                    seed,
                    dataset,
                    env,
                }
            },
        )
}

fn arb_aggregates() -> impl Strategy<Value = RunAggregates> {
    proptest::collection::vec(any::<u64>(), 16).prop_map(|v| RunAggregates {
        wall_ns: v[0],
        virtual_ns: v[1],
        compute_ns: v[2],
        msg_ns: v[3],
        sync_ns: v[4],
        io_ns: v[5],
        timesteps_run: v[6],
        supersteps: v[7],
        msgs_local: v[8],
        msgs_remote: v[9],
        bytes_remote: v[10],
        msgs_combined: v[11],
        batches_remote: v[12],
        slice_loads: v[13],
        recoveries: v[14],
        emitted_values: v[15],
    })
}

fn arb_worker() -> impl Strategy<Value = WorkerTiming> {
    (
        (any::<u32>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |((partition, compute_ns, msg_ns, sync_ns), (io_ns, wall_ns, supersteps))| {
                WorkerTiming {
                    partition,
                    compute_ns,
                    msg_ns,
                    sync_ns,
                    io_ns,
                    wall_ns,
                    supersteps,
                }
            },
        )
}

fn arb_attr() -> impl Strategy<Value = AttributionRow> {
    (any::<u32>(), any::<u32>(), any::<u64>(), any::<u32>()).prop_map(
        |(subgraph, timestep, compute_ns, invocations)| AttributionRow {
            subgraph: SubgraphId(subgraph),
            timestep,
            compute_ns,
            invocations,
        },
    )
}

fn arb_record() -> impl Strategy<Value = RunRecord> {
    (
        (
            arb_config(),
            arb_aggregates(),
            proptest::collection::vec(any::<u64>(), 0..16),
            proptest::collection::vec(arb_worker(), 0..5),
        ),
        (
            proptest::collection::vec(arb_attr(), 0..12),
            proptest::collection::vec((arb_string(), any::<u64>()), 0..4),
            arb_string(),
        ),
    )
        .prop_map(
            |(
                (config, aggregates, virtual_timestep_ns, workers),
                (attribution, counters, metrics_json),
            )| {
                RunRecord {
                    config,
                    aggregates,
                    virtual_timestep_ns,
                    workers,
                    attribution,
                    counters,
                    metrics_json,
                }
            },
        )
}

proptest! {
    #[test]
    fn record_roundtrip(rec in arb_record()) {
        let bytes = rec.encode();
        let back = RunRecord::decode(bytes.clone()).unwrap();
        prop_assert_eq!(&back, &rec);
        // Canonical: re-encoding the decoded record reproduces the bytes.
        prop_assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn truncation_never_yields_a_record(rec in arb_record(), cut in 1usize..64) {
        let bytes = rec.encode();
        let keep = bytes.len().saturating_sub(cut);
        prop_assert!(RunRecord::decode(bytes.slice(..keep)).is_err());
    }

    #[test]
    fn single_byte_corruption_is_detected(rec in arb_record(), pos in any::<usize>(), flip in 1u8..=255) {
        let mut bytes = rec.encode().to_vec();
        let i = pos % bytes.len();
        bytes[i] ^= flip;
        // Either the frame rejects it outright, or (vanishingly unlikely
        // under FNV-1a) it decodes to something that is not the original.
        match RunRecord::decode(bytes.into()) {
            Err(_) => {}
            Ok(other) => prop_assert_ne!(other, rec),
        }
    }
}
