//! Correctness tests for the extension algorithms: temporal reachability
//! (isExists), community evolution, and instance statistics.

use std::collections::HashMap;
use std::sync::Arc;
use tempograph_algos::{CommunityEvolution, InstanceStats, TemporalReachability};
use tempograph_core::{GraphTemplate, TimeSeriesCollection, VertexIdx};
use tempograph_engine::{run_job, InstanceSource, JobConfig, JobResult};
use tempograph_gen::{
    generate_sir_tweets, generate_topology_churn, road_network, ChurnConfig, RoadNetConfig,
    SirConfig, TWEETS_ATTR,
};
use tempograph_partition::{discover_subgraphs, MultilevelPartitioner, Partitioner};

fn road_with_exists(side: usize, seed: u64) -> Arc<GraphTemplate> {
    // road_network declares latency+tweets; rebuild with isExists too.
    let base = road_network(&RoadNetConfig {
        width: side,
        height: side,
        seed,
        ..Default::default()
    });
    let mut b = tempograph_core::TemplateBuilder::new("churny-road", false);
    b.vertex_schema()
        .add(GraphTemplate::IS_EXISTS, tempograph_core::AttrType::Bool);
    for v in base.vertices() {
        b.add_vertex(base.vertex_id(v));
    }
    for e in base.edges() {
        let (s, d) = base.endpoints(e);
        b.add_edge(base.edge_id(e), base.vertex_id(s), base.vertex_id(d))
            .unwrap();
    }
    Arc::new(b.finalize().unwrap())
}

/// Single-threaded reference for temporal reachability.
fn ref_reachability(coll: &TimeSeriesCollection, source: VertexIdx) -> HashMap<VertexIdx, usize> {
    let t = coll.template();
    let mut adj = vec![Vec::new(); t.num_vertices()];
    for e in t.edges() {
        let (s, d) = t.endpoints(e);
        adj[s.idx()].push(d);
        adj[d.idx()].push(s);
    }
    let mut reached_at: HashMap<VertexIdx, usize> = HashMap::new();
    for step in 0..coll.len() {
        let exists = coll
            .get(step)
            .unwrap()
            .vertex_bool(GraphTemplate::IS_EXISTS)
            .unwrap();
        if step == 0 && exists[source.idx()] {
            reached_at.insert(source, 0);
        }
        let mut stack: Vec<VertexIdx> = reached_at.keys().copied().collect();
        while let Some(u) = stack.pop() {
            if !exists[u.idx()] {
                continue;
            }
            for &v in &adj[u.idx()] {
                if exists[v.idx()] && !reached_at.contains_key(&v) {
                    reached_at.insert(v, step);
                    stack.push(v);
                }
            }
        }
    }
    reached_at
}

#[test]
fn temporal_reachability_matches_reference() {
    let t = road_with_exists(12, 9);
    let source = VertexIdx(0);
    let coll = Arc::new(generate_topology_churn(
        t.clone(),
        &ChurnConfig {
            timesteps: 20,
            flip_prob: 0.05,
            initial_alive: 0.7,
            pinned_alive: vec![source],
            seed: 13,
            ..Default::default()
        },
    ));
    let exists_col = t
        .vertex_schema()
        .index_of(GraphTemplate::IS_EXISTS)
        .unwrap();
    let expect = ref_reachability(&coll, source);

    for k in [1usize, 3] {
        let part = MultilevelPartitioner::default().partition(&t, k);
        let pg = Arc::new(discover_subgraphs(t.clone(), part));
        let result = run_job(
            &pg,
            &InstanceSource::Memory(coll.clone()),
            TemporalReachability::factory(source, exists_col),
            JobConfig::sequentially_dependent(20).while_active(20),
        );
        let got: HashMap<VertexIdx, usize> = result
            .emitted
            .iter()
            .map(|e| (e.vertex, e.value as usize))
            .collect();
        assert_eq!(got.len(), expect.len(), "k={k} reach set size");
        for (v, &step) in &expect {
            assert_eq!(got.get(v), Some(&step), "k={k} vertex {v:?}");
        }

        // Withheld votes, not messages, keep the loop alive: the same
        // emits and the same length as the fixed-length run, and nothing
        // crosses a timestep boundary.
        let fixed = run_job(
            &pg,
            &InstanceSource::Memory(coll.clone()),
            TemporalReachability::factory(source, exists_col),
            JobConfig::sequentially_dependent(20),
        );
        let bits = |r: &JobResult| -> Vec<(usize, u32, u64)> {
            r.emitted
                .iter()
                .map(|e| (e.timestep, e.vertex.0, e.value.to_bits()))
                .collect()
        };
        assert_eq!(bits(&result), bits(&fixed), "k={k}");
        let last = result.emitted.iter().map(|e| e.timestep).max().unwrap();
        let timesteps_run = if got.len() == t.num_vertices() {
            last + 1
        } else {
            20
        };
        assert_eq!(result.timesteps_run, timesteps_run, "k={k}");
        // A notification goes to a neighbour in another subgraph, which
        // lives in another partition: every local message would be a
        // next-timestep one.
        let msgs_local: u64 = result.metrics.iter().flatten().map(|m| m.msgs_local).sum();
        assert_eq!(msgs_local, 0, "k={k}");
    }
}

#[test]
fn temporal_reachability_respects_dead_vertices() {
    let t = road_with_exists(6, 2);
    // Nothing exists at all: nothing is ever reached.
    let coll = Arc::new(generate_topology_churn(
        t.clone(),
        &ChurnConfig {
            timesteps: 5,
            flip_prob: 0.0,
            initial_alive: 0.0,
            ..Default::default()
        },
    ));
    let exists_col = t
        .vertex_schema()
        .index_of(GraphTemplate::IS_EXISTS)
        .unwrap();
    let part = MultilevelPartitioner::default().partition(&t, 2);
    let pg = Arc::new(discover_subgraphs(t.clone(), part));
    let result = run_job(
        &pg,
        &InstanceSource::Memory(coll),
        TemporalReachability::factory(VertexIdx(0), exists_col),
        JobConfig::sequentially_dependent(5).while_active(5),
    );
    assert!(result.emitted.is_empty());
}

/// Reference community stability: connected components over active vertices
/// per timestep (labels = min active id), count vertices active in t-1 and
/// t with identical labels.
fn ref_community_stability(coll: &TimeSeriesCollection) -> Vec<u64> {
    let t = coll.template();
    let n = t.num_vertices();
    let mut adj = vec![Vec::new(); n];
    for e in t.edges() {
        let (s, d) = t.endpoints(e);
        adj[s.idx()].push(d.0);
        adj[d.idx()].push(s.0);
    }
    let labels_at = |step: usize| -> Vec<u64> {
        let tweets = coll
            .get(step)
            .unwrap()
            .vertex_text_list(TWEETS_ATTR)
            .unwrap();
        let active: Vec<bool> = tweets.iter().map(|r| !r.is_empty()).collect();
        let mut label = vec![u64::MAX; n];
        for v in 0..n {
            if !active[v] || label[v] != u64::MAX {
                continue;
            }
            // BFS this active component, find min id, assign.
            let mut comp = vec![v as u32];
            let mut stack = vec![v as u32];
            let mut seen = std::collections::HashSet::from([v as u32]);
            while let Some(u) = stack.pop() {
                for &w in &adj[u as usize] {
                    if active[w as usize] && seen.insert(w) {
                        comp.push(w);
                        stack.push(w);
                    }
                }
            }
            let min_id = comp
                .iter()
                .map(|&x| t.vertex_id(VertexIdx(x)))
                .min()
                .unwrap();
            for &x in &comp {
                label[x as usize] = min_id;
            }
        }
        label
    };
    let mut prev = labels_at(0);
    let mut out = Vec::new();
    for step in 1..coll.len() {
        let cur = labels_at(step);
        out.push(
            cur.iter()
                .zip(&prev)
                .filter(|(a, b)| **a != u64::MAX && a == b)
                .count() as u64,
        );
        prev = cur;
    }
    out
}

#[test]
fn community_evolution_matches_reference() {
    let t = Arc::new(road_network(&RoadNetConfig {
        width: 12,
        height: 12,
        seed: 31,
        ..Default::default()
    }));
    let coll = Arc::new(generate_sir_tweets(
        t.clone(),
        &SirConfig {
            timesteps: 12,
            hit_prob: 0.35,
            initial_infected: 6,
            infectious_steps: 3,
            background_rate: 0.05,
            ..Default::default()
        },
    ));
    let expect = ref_community_stability(&coll);
    let tweets_col = t.vertex_schema().index_of(TWEETS_ATTR).unwrap();

    for k in [1usize, 3] {
        let part = MultilevelPartitioner::default().partition(&t, k);
        let pg = Arc::new(discover_subgraphs(t.clone(), part));
        let result = run_job(
            &pg,
            &InstanceSource::Memory(coll.clone()),
            CommunityEvolution::factory(tweets_col),
            JobConfig::eventually_dependent(12),
        );
        let mut got = vec![0u64; 11];
        for e in &result.emitted {
            got[e.vertex.idx()] = e.value as u64;
        }
        assert_eq!(got, expect, "k = {k}");
    }
}

#[test]
fn instance_stats_counts_are_exact() {
    let t = Arc::new(road_network(&RoadNetConfig {
        width: 10,
        height: 10,
        seed: 8,
        ..Default::default()
    }));
    let coll = Arc::new(generate_sir_tweets(
        t.clone(),
        &SirConfig {
            timesteps: 8,
            hit_prob: 0.3,
            initial_infected: 4,
            background_rate: 0.1,
            ..Default::default()
        },
    ));
    let tweets_col = t.vertex_schema().index_of(TWEETS_ATTR).unwrap();
    let part = MultilevelPartitioner::default().partition(&t, 3);
    let pg = Arc::new(discover_subgraphs(t.clone(), part));
    let result = run_job(
        &pg,
        &InstanceSource::Memory(coll.clone()),
        InstanceStats::factory(Some(tweets_col), None, 0.0),
        JobConfig::independent(8),
    );
    for s in 0..8 {
        let tweets = coll.get(s).unwrap().vertex_text_list(TWEETS_ATTR).unwrap();
        let active = tweets.iter().filter(|r| !r.is_empty()).count() as u64;
        let volume: u64 = tweets.iter().map(|r| r.len() as u64).sum();
        assert_eq!(result.counter_at(InstanceStats::ACTIVE_VERTICES, s), active);
        assert_eq!(result.counter_at(InstanceStats::TWEETS, s), volume);
    }
}
