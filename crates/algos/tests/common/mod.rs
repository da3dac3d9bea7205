//! Shared by the algos integration suites: the lattice fixture and the
//! sequential discrete-time TDSP that the distributed
//! [`tempograph_algos::Tdsp`] is checked against.

use std::sync::Arc;
use tempograph_core::{GraphTemplate, TimeSeriesCollection, VertexIdx};
use tempograph_gen::{road_network, RoadNetConfig, LATENCY_ATTR};

pub fn road(width: usize, height: usize, seed: u64) -> Arc<GraphTemplate> {
    Arc::new(road_network(&RoadNetConfig {
        width,
        height,
        seed,
        ..Default::default()
    }))
}

/// Symmetric adjacency (vertex, edge) pairs — handles directed templates.
pub fn sym_adj(t: &GraphTemplate) -> Vec<Vec<(u32, u32)>> {
    let mut adj = vec![Vec::new(); t.num_vertices()];
    for e in t.edges() {
        let (s, d) = t.endpoints(e);
        adj[s.idx()].push((d.0, e.0));
        adj[d.idx()].push((s.0, e.0));
    }
    adj
}

/// Reference discrete-time TDSP (paper semantics: a crossing must complete
/// within the period it departs in; waiting at vertices until the next
/// period boundary is allowed).
pub fn ref_tdsp(coll: &TimeSeriesCollection, source: VertexIdx) -> Vec<f64> {
    let t = coll.template();
    let delta = coll.period() as f64;
    let n = t.num_vertices();
    let adj = sym_adj(t);
    let mut dist = vec![f64::INFINITY; n];
    dist[source.idx()] = 0.0;

    for step in 0..coll.len() {
        let horizon = (step as f64 + 1.0) * delta;
        let departure = step as f64 * delta;
        let lat = coll.get(step).unwrap().edge_f64(LATENCY_ATTR).unwrap();
        // Working labels: finalized vertices depart at max(dist, step·δ).
        let mut label: Vec<f64> = dist
            .iter()
            .map(|&d| {
                if d.is_finite() {
                    d.max(departure)
                } else {
                    f64::INFINITY
                }
            })
            .collect();
        // Dijkstra bounded by the horizon.
        let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, u32)>> = (0..n as u32)
            .filter(|&v| label[v as usize].is_finite())
            .map(|v| std::cmp::Reverse((label[v as usize].to_bits(), v)))
            .collect();
        while let Some(std::cmp::Reverse((bits, u))) = heap.pop() {
            let d = f64::from_bits(bits);
            if d > label[u as usize] {
                continue;
            }
            for &(v, e) in &adj[u as usize] {
                let arrival = d + lat[e as usize];
                if arrival <= horizon && arrival < label[v as usize] {
                    label[v as usize] = arrival;
                    heap.push(std::cmp::Reverse((arrival.to_bits(), v)));
                }
            }
        }
        for v in 0..n {
            if label[v] < dist[v] && !dist[v].is_finite() {
                dist[v] = label[v];
            }
        }
    }
    dist
}
