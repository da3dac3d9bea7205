//! Fixture records that travel inside the net group's frames.

pub struct MetricsShard {
    pub compute_ns: Histogram,
    pub cache_hits: u64,
}

pub struct AttributionRow {
    pub subgraph: SubgraphId,
    pub compute_ns: u64,
}

pub struct TimestepMetrics {
    pub compute_ns: u64,
    pub supersteps: u32,
}

pub struct Emit {
    pub timestep: usize,
    pub value: f64,
}
