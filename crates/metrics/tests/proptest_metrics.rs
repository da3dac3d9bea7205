//! Property-based tests for the metrics subsystem (ISSUE 5 satellite):
//! histogram record/merge must be order- and shard-insensitive, and JSON
//! snapshots must round-trip losslessly.

use proptest::prelude::*;
use tempograph_metrics::json::Value;
use tempograph_metrics::{Histogram, Registry};

/// Values spanning every bucket regime: zero, small, mid, and huge.
fn arb_value() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), 0u64..100, 0u64..1_000_000, any::<u64>(),]
}

fn arb_values() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(arb_value(), 0..200)
}

proptest! {
    /// Recording the same multiset of values in any order yields the same
    /// histogram, and splitting it into shards merged in either order
    /// yields the same buckets, count, sum, min, max, and quantiles.
    #[test]
    fn histogram_is_order_and_shard_insensitive(
        values in arb_values(),
        split in 0usize..200,
        qs in proptest::collection::vec((0u32..=1000).prop_map(|m| f64::from(m) / 1000.0), 1..4),
    ) {
        let split = split.min(values.len());

        let mut sequential = Histogram::new();
        for &v in &values {
            sequential.record(v);
        }

        let mut reversed = Histogram::new();
        for &v in values.iter().rev() {
            reversed.record(v);
        }
        prop_assert_eq!(&reversed, &sequential);

        let mut shard_a = Histogram::new();
        let mut shard_b = Histogram::new();
        for &v in &values[..split] {
            shard_a.record(v);
        }
        for &v in &values[split..] {
            shard_b.record(v);
        }
        let mut ab = shard_a.clone();
        ab.merge(&shard_b);
        let mut ba = shard_b.clone();
        ba.merge(&shard_a);
        prop_assert_eq!(&ab, &sequential);
        prop_assert_eq!(&ba, &sequential);
        for q in qs {
            prop_assert_eq!(ab.quantile(q), sequential.quantile(q));
            prop_assert_eq!(ba.quantile(q), sequential.quantile(q));
        }
    }

    /// Quantile estimates are monotone in q and bounded by [min, max].
    #[test]
    fn quantiles_are_monotone_and_bounded(values in arb_values()) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut prev = 0u64;
        for i in 0..=10 {
            let q = f64::from(i) / 10.0;
            let est = h.quantile(q);
            prop_assert!(est >= prev, "quantile not monotone at q={q}");
            prop_assert!(est >= h.min() || h.count() == 0);
            prop_assert!(est <= h.max());
            prev = est;
        }
    }

    /// A registry snapshot serialized to JSON and parsed back is equal to
    /// the original — counters (full u64 range), gauges, and histograms.
    #[test]
    fn json_snapshot_round_trips(
        counters in proptest::collection::vec(("[a-z_]{1,12}", any::<u64>()), 0..8),
        gauges in proptest::collection::vec(
            ("[a-z_]{1,12}", any::<f64>().prop_filter("finite", |x| x.is_finite())),
            0..4,
        ),
        hist_values in arb_values(),
        label in "[a-zA-Z0-9_./\\- ]{0,12}",
    ) {
        let mut r = Registry::new();
        for (name, v) in &counters {
            r.counter_add(&format!("c_{name}"), &[("label", label.as_str())], *v);
        }
        for (name, v) in &gauges {
            r.gauge_set(&format!("g_{name}"), &[], *v);
        }
        for &v in &hist_values {
            r.observe("h_latency", &[("shard", "0")], v);
        }
        let snap = r.snapshot();
        let back = Value::parse(&snap.to_json()).unwrap();
        prop_assert_eq!(back, snap.to_value());
    }
}
