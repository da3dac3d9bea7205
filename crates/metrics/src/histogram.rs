//! Fixed-size log2-bucketed histogram.
//!
//! Bucket `0` holds the value `0`; bucket `i` (1 ≤ i ≤ 63) holds values in
//! `[2^(i-1), 2^i)`; bucket `64` holds `[2^63, u64::MAX]`. The layout is a
//! plain inline array, so recording never allocates and merging shards is
//! element-wise addition — associative and commutative, which is what makes
//! per-worker shard folding order-insensitive.

use bytes::{Bytes, BytesMut};
use tempograph_core::wire::{get_u32, WireError, WireMsg};

/// Number of log2 buckets (`0`, one per power of two, plus the top bucket).
pub const BUCKETS: usize = 65;

/// A mergeable log2-bucketed histogram of `u64` observations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub const fn new() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index for a value: `0` for zero, else `64 - leading_zeros`.
    #[must_use]
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Inclusive `[low, high]` value range covered by bucket `idx`.
    #[must_use]
    pub fn bucket_bounds(idx: usize) -> (u64, u64) {
        match idx {
            0 => (0, 0),
            64 => (1u64 << 63, u64::MAX),
            i => (1u64 << (i - 1), (1u64 << i) - 1),
        }
    }

    /// Record one observation. Allocation-free; sums saturate rather than
    /// wrap so merge order cannot change the outcome.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Fold another shard into this one (element-wise; order-insensitive).
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b = b.saturating_add(*o);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of all observations.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation (`0` when empty).
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation (`0` when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observation, `0.0` when empty (never NaN).
    #[must_use]
    pub fn mean(&self) -> f64 {
        crate::ratio_or_zero(self.sum, self.count)
    }

    /// Raw bucket counts.
    #[must_use]
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// Estimate the `q`-quantile (`0.0 ≤ q ≤ 1.0`) by walking the
    /// cumulative bucket counts and interpolating linearly inside the
    /// target bucket. Depends only on the merged bucket contents, so it is
    /// insensitive to record and merge order. Returns `0` when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let rank = rank.min(self.count);
        let mut cum: u64 = 0;
        for (idx, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if cum + c >= rank {
                let (low, high) = Self::bucket_bounds(idx);
                let frac = (rank - cum) as f64 / c as f64;
                let est = low as f64 + (high - low) as f64 * frac;
                return (est as u64).clamp(self.min(), self.max);
            }
            cum += c;
        }
        self.max
    }
}

/// A `u32` bucket count (always [`BUCKETS`]), the buckets, then count,
/// sum, min and max.
impl WireMsg for Histogram {
    fn encode(&self, buf: &mut BytesMut) {
        (BUCKETS as u32).encode(buf);
        for bucket in self.buckets() {
            bucket.encode(buf);
        }
        self.count().encode(buf);
        self.sum().encode(buf);
        self.min().encode(buf);
        self.max().encode(buf);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let n = get_u32(buf, "histogram bucket count")?;
        if n as usize != BUCKETS {
            return Err(WireError::OutOfRange {
                context: "histogram bucket count",
                value: n.into(),
            });
        }
        let mut buckets = [0u64; BUCKETS];
        for slot in &mut buckets {
            *slot = u64::decode(buf)?;
        }
        let count = u64::decode(buf)?;
        let sum = u64::decode(buf)?;
        let min = u64::decode(buf)?;
        Ok(Histogram {
            buckets,
            count,
            sum,
            // An empty histogram writes `min()`, 0; it holds the sentinel.
            min: if count == 0 { u64::MAX } else { min },
            max: u64::decode(buf)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_edges() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        for idx in 0..BUCKETS {
            let (low, high) = Histogram::bucket_bounds(idx);
            assert_eq!(Histogram::bucket_index(low), idx);
            assert_eq!(Histogram::bucket_index(high), idx);
        }
    }

    #[test]
    fn empty_histogram_is_safe() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn quantiles_are_ordered_and_clamped() {
        let mut h = Histogram::new();
        for v in [1u64, 5, 9, 120, 4096, 70_000] {
            h.record(v);
        }
        let p50 = h.quantile(0.50);
        let p95 = h.quantile(0.95);
        let p99 = h.quantile(0.99);
        assert!(p50 <= p95 && p95 <= p99);
        assert!(p99 <= h.max());
        assert!(h.quantile(0.0) >= h.min());
    }

    #[test]
    fn merge_matches_sequential_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in [3u64, 77, 1024] {
            a.record(v);
            all.record(v);
        }
        for v in [0u64, 9, 500_000] {
            b.record(v);
            all.record(v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, all);
        let mut merged_rev = b;
        merged_rev.merge(&a);
        assert_eq!(merged_rev, all);
    }
}
