//! Fixtures shared by the engine's integration suites.
#![allow(dead_code)] // each suite uses its own subset

use std::sync::Arc;
use tempograph_core::{TemplateBuilder, TimeSeriesCollection};
use tempograph_engine::{InstanceSource, JobResult};
use tempograph_partition::{discover_subgraphs, PartitionedGraph, Partitioning};

/// A ring of `vertices`, round-robin partitioned over `k ≥ 2` partitions
/// (`vertices % k == 0`), so every vertex is its own subgraph and every
/// edge crosses partitions; `timesteps` empty instances.
pub fn ring(vertices: u64, k: usize, timesteps: usize) -> (Arc<PartitionedGraph>, InstanceSource) {
    let mut b = TemplateBuilder::new("ring", false);
    for v in 0..vertices {
        b.add_vertex(v);
    }
    for v in 0..vertices {
        b.add_edge(v, v, (v + 1) % vertices).unwrap();
    }
    let t = Arc::new(b.finalize().unwrap());
    let assignment = (0..vertices).map(|v| (v % k as u64) as u16).collect();
    let pg = Arc::new(discover_subgraphs(
        t.clone(),
        Partitioning { assignment, k },
    ));
    let mut coll = TimeSeriesCollection::new(t, 0, 60);
    for _ in 0..timesteps {
        coll.push(coll.new_instance()).unwrap();
    }
    (pg, InstanceSource::Memory(Arc::new(coll)))
}

/// A job's emits, bit-exact and comparable.
pub fn emitted_bits(r: &JobResult) -> Vec<(usize, u32, u64)> {
    r.emitted
        .iter()
        .map(|e| (e.timestep, e.vertex.0, e.value.to_bits()))
        .collect()
}
