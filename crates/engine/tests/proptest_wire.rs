//! Property-based tests for the engine wire format and sync primitive.

use bytes::BytesMut;
use proptest::prelude::*;
use tempograph_core::wire::WireMsg;
use tempograph_core::VertexIdx;
use tempograph_engine::batch::{legacy, merge_sorted_runs, MessageBatch};
use tempograph_engine::cluster::{fold_contributions, Contribution};
use tempograph_engine::wire::{sort_envelopes, Envelope};
use tempograph_partition::SubgraphId;

fn roundtrip<M: WireMsg + PartialEq + std::fmt::Debug>(m: &M) -> M {
    let mut buf = BytesMut::new();
    m.encode(&mut buf);
    M::decode(&mut buf.freeze()).expect("well-formed frame decodes")
}

proptest! {
    #[test]
    fn scalar_roundtrips(a in any::<u32>(), b in any::<u64>(), c in any::<i64>(), d in any::<bool>()) {
        prop_assert_eq!(roundtrip(&a), a);
        prop_assert_eq!(roundtrip(&b), b);
        prop_assert_eq!(roundtrip(&c), c);
        prop_assert_eq!(roundtrip(&d), d);
    }

    #[test]
    fn float_roundtrips(x in any::<f64>()) {
        let back = roundtrip(&x);
        // NaN compares unequal; compare bit patterns instead.
        prop_assert_eq!(back.to_bits(), x.to_bits());
    }

    #[test]
    fn string_roundtrips(s in "[\\PC]{0,40}") {
        prop_assert_eq!(roundtrip(&s), s);
    }

    #[test]
    fn nested_composites_roundtrip(
        items in proptest::collection::vec(
            (any::<u32>().prop_map(VertexIdx), any::<f64>().prop_filter("no nan", |x| !x.is_nan())),
            0..30,
        ),
        tail in proptest::collection::vec(proptest::collection::vec(any::<i64>(), 0..4), 0..6),
        opt in proptest::option::of(any::<u64>()),
    ) {
        prop_assert_eq!(roundtrip(&items), items);
        prop_assert_eq!(roundtrip(&tail), tail);
        prop_assert_eq!(roundtrip(&opt), opt);
    }

    /// Envelope streams decode in order with exact consumption.
    #[test]
    fn envelope_stream_roundtrip(
        envs in proptest::collection::vec(
            (any::<u32>(), any::<u32>(), any::<u32>(), any::<i64>()),
            0..40,
        ),
    ) {
        let envelopes: Vec<Envelope<i64>> = envs
            .iter()
            .map(|&(f, t, s, p)| Envelope {
                from: SubgraphId(f),
                to: SubgraphId(t),
                seq: s,
                payload: p,
            })
            .collect();
        let mut buf = BytesMut::new();
        for e in &envelopes {
            e.encode(&mut buf);
        }
        let mut bytes = buf.freeze();
        for e in &envelopes {
            prop_assert_eq!(&Envelope::<i64>::decode(&mut bytes).unwrap(), e);
        }
        prop_assert_eq!(bytes.len(), 0);
    }

    /// Canonical ordering is total and stable under shuffling.
    #[test]
    fn canonical_order_is_shuffle_invariant(
        mut pairs in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..40),
        seed in any::<u64>(),
    ) {
        pairs.sort_unstable();
        pairs.dedup();
        let mk = |v: &[(u32, u32)]| -> Vec<Envelope<()>> {
            v.iter()
                .map(|&(f, s)| Envelope {
                    from: SubgraphId(f),
                    to: SubgraphId(0),
                    seq: s,
                    payload: (),
                })
                .collect()
        };
        let mut a = mk(&pairs);
        // Poor-man's shuffle with the seed.
        let mut b = mk(&pairs);
        if !b.is_empty() {
            let n = b.len();
            for i in 0..n {
                let j = (seed as usize).wrapping_mul(31).wrapping_add(i * 17) % n;
                b.swap(i, j);
            }
        }
        sort_envelopes(&mut a);
        sort_envelopes(&mut b);
        prop_assert_eq!(a, b);
    }

    /// `MessageBatch` frames round-trip for any envelope stream — including
    /// the empty frame and single-message batches (the 0..40 length range
    /// covers both, and shrinking drives failures toward them).
    #[test]
    fn message_batch_frame_roundtrip(
        envs in proptest::collection::vec(
            (any::<u32>(), 0u32..20, any::<u32>(), any::<i64>()),
            0..40,
        ),
    ) {
        let mut batch = MessageBatch::new();
        for &(f, t, s, p) in &envs {
            batch.push(Envelope {
                from: SubgraphId(f),
                to: SubgraphId(t),
                seq: s,
                payload: p,
            });
        }
        prop_assert_eq!(batch.len(), envs.len());
        let mut buf = BytesMut::new();
        batch.encode(&mut buf);
        let mut bytes = buf.freeze();
        let decoded = MessageBatch::<i64>::decode(&mut bytes).unwrap();
        prop_assert_eq!(bytes.len(), 0, "frame decodes with exact consumption");
        // Decoded runs must equal the sender-side grouping: one run per
        // destination in first-push order, envelopes in push order within
        // each run.
        let mut expect: Vec<(SubgraphId, Vec<Envelope<i64>>)> = Vec::new();
        for &(f, t, s, p) in &envs {
            let e = Envelope {
                from: SubgraphId(f),
                to: SubgraphId(t),
                seq: s,
                payload: p,
            };
            match expect.iter_mut().find(|(to, _)| *to == e.to) {
                Some((_, run)) => run.push(e),
                None => expect.push((e.to, vec![e])),
            }
        }
        prop_assert_eq!(decoded, expect);
    }

    /// An explicitly empty and an explicitly single-message frame
    /// round-trip (the degenerate cases the receiver must tolerate).
    #[test]
    fn message_batch_degenerate_frames(f in any::<u32>(), t in any::<u32>(), s in any::<u32>(), p in any::<i64>()) {
        let empty = MessageBatch::<i64>::new();
        prop_assert!(empty.is_empty());
        let mut buf = BytesMut::new();
        empty.encode(&mut buf);
        prop_assert!(MessageBatch::<i64>::decode(&mut buf.freeze()).unwrap().is_empty());

        let mut single = MessageBatch::new();
        let e = Envelope { from: SubgraphId(f), to: SubgraphId(t), seq: s, payload: p };
        single.push(e.clone());
        let mut buf = BytesMut::new();
        single.encode(&mut buf);
        let runs = MessageBatch::<i64>::decode(&mut buf.freeze()).unwrap();
        prop_assert_eq!(runs, vec![(SubgraphId(t), vec![e])]);
    }

    /// The receiver's k-way merge of sorted per-sender runs delivers the
    /// exact order of the reference implementation (concatenate + global
    /// `sort_envelopes`), for any distribution of unique (from, seq) keys
    /// across any number of runs.
    #[test]
    fn merge_sorted_runs_matches_reference_sort(
        mut keys in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..60),
        n_runs in 1usize..8,
    ) {
        keys.sort_unstable();
        keys.dedup(); // delivery keys are globally unique in the engine
        let mut runs: Vec<Vec<Envelope<u64>>> = vec![Vec::new(); n_runs];
        for (i, &(f, s)) in keys.iter().enumerate() {
            runs[i % n_runs].push(Envelope {
                from: SubgraphId(f),
                to: SubgraphId(0),
                seq: s,
                payload: i as u64,
            });
        }
        for run in &mut runs {
            sort_envelopes(run); // each per-sender run arrives sorted
        }
        let merged = merge_sorted_runs(runs.clone());
        // The original delivery step: concatenate, then stable-sort.
        let mut reference: Vec<_> = runs.into_iter().flatten().collect();
        sort_envelopes(&mut reference);
        prop_assert_eq!(merged, reference);
    }

    /// Legacy per-envelope encoding and the batched frame carry the same
    /// payloads (the microbench compares like for like).
    #[test]
    fn legacy_envelopes_roundtrip(
        envs in proptest::collection::vec(
            (any::<u32>(), any::<u32>(), any::<u32>(), any::<u64>()),
            0..40,
        ),
    ) {
        let envelopes: Vec<Envelope<u64>> = envs
            .iter()
            .map(|&(f, t, s, p)| Envelope {
                from: SubgraphId(f),
                to: SubgraphId(t),
                seq: s,
                payload: p,
            })
            .collect();
        let (count, mut bytes) = legacy::encode_envelopes(&envelopes);
        prop_assert_eq!(count as usize, envelopes.len());
        let decoded = legacy::decode_envelopes::<u64>(count, &mut bytes).unwrap();
        prop_assert_eq!(bytes.len(), 0);
        prop_assert_eq!(decoded, envelopes);
    }

    /// The coordinator's round reduction equals the sequential fold for
    /// any worker contributions, in any order they are folded.
    #[test]
    fn sync_reduction_matches_sequential_fold(
        contributions in proptest::collection::vec((0u64..1000, any::<bool>()), 1..6),
        shift in 0usize..6,
    ) {
        let expect_msgs: u64 = contributions.iter().map(|c| c.0).sum();
        let expect_halted = contributions.iter().all(|c| c.1);
        let mut contributions: Vec<Contribution> = contributions
            .into_iter()
            .map(|(msgs_sent, all_halted)| Contribution { msgs_sent, all_halted })
            .collect();
        for _ in 0..2 {
            let agg = fold_contributions(&contributions);
            prop_assert_eq!(agg.total_msgs, expect_msgs);
            prop_assert_eq!(agg.all_halted, expect_halted);
            prop_assert_eq!(agg.should_stop(), expect_msgs == 0 && expect_halted);
            let n = contributions.len();
            contributions.rotate_left(shift % n);
            contributions.reverse();
        }
    }
}
