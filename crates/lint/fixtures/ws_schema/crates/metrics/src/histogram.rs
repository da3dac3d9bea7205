//! Fixture histogram: a struct locked by another crate's group.

pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
}
