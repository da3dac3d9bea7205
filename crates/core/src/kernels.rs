//! Vectorized aggregation kernels over dense column slices.
//!
//! The algorithms reduce whole columns and vectors — count a subgraph's
//! edges above a latency threshold, sum hashtag vectors, pick the top-N
//! of a length vector. Doing this through per-row dynamic accessors
//! wastes the columnar layout. These kernels take plain slices and are
//! written so rustc's auto-vectorizer can use SIMD: independent
//! accumulator lanes for the horizontal reduction, simple element-wise
//! loops for the rest. No `unsafe`, no intrinsics — the whole workspace
//! is `#![forbid(unsafe_code)]`, so portable auto-vectorizable shapes are
//! the tool available.

/// Number of independent accumulator lanes for horizontal reductions.
/// Four 64-bit lanes fill a 256-bit vector register.
const LANES: usize = 4;

macro_rules! lanes_reduce {
    ($xs:ident, $init:expr, $step:expr, $join:expr) => {{
        let mut acc = [$init; LANES];
        let mut chunks = $xs.chunks_exact(LANES);
        for c in &mut chunks {
            for (a, &x) in acc.iter_mut().zip(c) {
                *a = $step(*a, x);
            }
        }
        let mut out = acc.into_iter().fold($init, $join);
        for &x in chunks.remainder() {
            out = $step(out, x);
        }
        out
    }};
}

/// Sum of a `u64` slice, wrapping on overflow (0 when empty).
pub fn sum_u64(xs: &[u64]) -> u64 {
    lanes_reduce!(
        xs,
        0u64,
        |a: u64, x: u64| a.wrapping_add(x),
        |a: u64, b: u64| a.wrapping_add(b)
    )
}

/// Count of `xs[i] > threshold` over the gathered positions `at`.
/// Positions beyond the slice are ignored (callers precompute `at` from
/// topology that matches the column length).
pub fn count_gt_f64_at(xs: &[f64], at: &[u32], threshold: f64) -> u64 {
    let mut n = 0u64;
    for &i in at {
        if let Some(&x) = xs.get(i as usize) {
            n += (x > threshold) as u64;
        }
    }
    n
}

/// Element-wise `acc[i] += inc[i]` over the common prefix, the inner loop
/// of vector-sum combiners. Wrapping addition.
pub fn add_assign_u64(acc: &mut [u64], inc: &[u64]) {
    for (a, &b) in acc.iter_mut().zip(inc) {
        *a = a.wrapping_add(b);
    }
}

/// The `n` largest values with their positions, ordered by
/// `(value desc, position asc)` — deterministic under ties. Runs in
/// `O(len · n)` worst case but touches the candidate list only when a
/// value beats the current cut-off, so for small `n` over long slices it
/// stays close to a single scan.
pub fn top_n_desc(values: &[u64], n: usize) -> Vec<(usize, u64)> {
    if n == 0 {
        return Vec::new();
    }
    let mut top: Vec<(usize, u64)> = Vec::with_capacity(n + 1);
    for (pos, &v) in values.iter().enumerate() {
        if top.len() == n && v <= top[n - 1].1 {
            continue;
        }
        // Insert keeping (value desc, position asc); equal values keep the
        // earlier position first because later positions insert after them.
        let at = top.partition_point(|&(_, tv)| tv >= v);
        top.insert(at, (pos, v));
        top.truncate(n);
    }
    top
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_reductions_match_naive() {
        // 13 elements: exercises both the lane loop and the remainder.
        let xs: Vec<u64> = (0..13).map(|i| i * 7 + 3).collect();
        assert_eq!(sum_u64(&xs), xs.iter().sum::<u64>());
        assert_eq!(sum_u64(&[1, 2, 3, 4, 5]), 15);
        assert_eq!(sum_u64(&[u64::MAX, 2]), 1, "wraps on overflow");
    }

    #[test]
    fn empty_identities() {
        assert_eq!(sum_u64(&[]), 0);
        assert_eq!(count_gt_f64_at(&[], &[0, 1], 0.0), 0);
    }

    #[test]
    fn count_gt_variants() {
        let xs = [0.5, 2.0, 2.0, 3.5, 0.1, 9.0, 1.0, 2.1, 0.0];
        let all: Vec<u32> = (0..xs.len() as u32).collect();
        assert_eq!(count_gt_f64_at(&xs, &all, 1.9), 5);
        // Gathered: only positions 0, 3, 5 considered; position 99 ignored.
        assert_eq!(count_gt_f64_at(&xs, &[0, 3, 5, 99], 1.9), 2);
    }

    #[test]
    fn add_assign_over_common_prefix() {
        let mut acc = vec![1u64, 2, 3];
        add_assign_u64(&mut acc, &[10, 20]);
        assert_eq!(acc, vec![11, 22, 3]);
    }

    #[test]
    fn top_n_orders_and_breaks_ties_by_position() {
        let v = [3u64, 0, 7, 3, 7, 1];
        assert_eq!(top_n_desc(&v, 3), vec![(2, 7), (4, 7), (0, 3)]);
        assert_eq!(top_n_desc(&v, 0), vec![]);
        // n larger than the input returns everything sorted.
        assert_eq!(top_n_desc(&[5, 9], 10), vec![(1, 9), (0, 5)]);
    }
}
