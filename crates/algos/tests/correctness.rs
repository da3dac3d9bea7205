//! Algorithm correctness: every distributed TI-BSP algorithm is validated
//! against an independent single-threaded reference implementation on
//! randomly generated datasets, across several partitionings.

mod common;

use common::{ref_tdsp, road, sym_adj};
use std::collections::HashMap;
use std::sync::Arc;
use tempograph_algos::{HashtagAggregation, MemeTracking, PageRank, Sssp, Tdsp, TopNActivity, Wcc};
use tempograph_core::{GraphTemplate, TimeSeriesCollection, VertexIdx};
use tempograph_engine::{run_job, InstanceSource, JobConfig};
use tempograph_gen::{
    generate_road_latencies, generate_sir_tweets, RoadLatencyConfig, SirConfig, LATENCY_ATTR,
    TWEETS_ATTR,
};
use tempograph_partition::{
    discover_subgraphs, MultilevelPartitioner, PartitionedGraph, Partitioner,
};

fn partitioned(t: &Arc<GraphTemplate>, k: usize) -> Arc<PartitionedGraph> {
    let p = MultilevelPartitioner::default().partition(t, k);
    Arc::new(discover_subgraphs(t.clone(), p))
}

// ---- reference implementations ------------------------------------------

/// Reference temporal meme BFS (paper §III.B semantics).
fn ref_meme(coll: &TimeSeriesCollection, meme: &str) -> HashMap<VertexIdx, usize> {
    let t = coll.template();
    let adj = sym_adj(t);
    let mut colored_at: HashMap<VertexIdx, usize> = HashMap::new();
    for step in 0..coll.len() {
        let tweets = coll
            .get(step)
            .unwrap()
            .vertex_text_list(TWEETS_ATTR)
            .unwrap();
        let has = |v: usize| tweets[v].iter().any(|x| x == meme);
        let mut stack: Vec<u32> = if step == 0 {
            let seeds: Vec<u32> = (0..t.num_vertices() as u32)
                .filter(|&v| has(v as usize))
                .collect();
            for &s in &seeds {
                colored_at.insert(VertexIdx(s), 0);
            }
            seeds
        } else {
            colored_at.keys().map(|v| v.0).collect()
        };
        while let Some(u) = stack.pop() {
            for &(v, _) in &adj[u as usize] {
                if !colored_at.contains_key(&VertexIdx(v)) && has(v as usize) {
                    colored_at.insert(VertexIdx(v), step);
                    stack.push(v);
                }
            }
        }
    }
    colored_at
}

/// Reference single-instance Dijkstra on the full template.
fn ref_sssp(t: &GraphTemplate, lat: Option<&[f64]>, source: VertexIdx) -> Vec<f64> {
    let adj = sym_adj(t);
    let mut dist = vec![f64::INFINITY; t.num_vertices()];
    dist[source.idx()] = 0.0;
    let mut heap = std::collections::BinaryHeap::new();
    heap.push(std::cmp::Reverse((0.0f64.to_bits(), source.0)));
    while let Some(std::cmp::Reverse((bits, u))) = heap.pop() {
        let d = f64::from_bits(bits);
        if d > dist[u as usize] {
            continue;
        }
        for &(v, e) in &adj[u as usize] {
            let w = lat.map_or(1.0, |l| l[e as usize]);
            if d + w < dist[v as usize] {
                dist[v as usize] = d + w;
                heap.push(std::cmp::Reverse(((d + w).to_bits(), v)));
            }
        }
    }
    dist
}

// ---- TDSP -----------------------------------------------------------------

#[test]
fn tdsp_matches_reference_across_partitionings() {
    let t = road(12, 12, 0xBEEF);
    let coll = Arc::new(generate_road_latencies(
        t.clone(),
        &RoadLatencyConfig {
            timesteps: 30,
            period: 60,
            min_latency: 5.0,
            max_latency: 80.0,
            seed: 7,
            ..Default::default()
        },
    ));
    let source = VertexIdx(0);
    let expect = ref_tdsp(&coll, source);
    let lat_col = t.edge_schema().index_of(LATENCY_ATTR).unwrap();

    for k in [1, 2, 3, 5] {
        let pg = partitioned(&t, k);
        let result = run_job(
            &pg,
            &InstanceSource::Memory(coll.clone()),
            Tdsp::factory(source, lat_col),
            JobConfig::sequentially_dependent(30).while_active(30),
        );
        let mut got = vec![f64::INFINITY; t.num_vertices()];
        for e in &result.emitted {
            got[e.vertex.idx()] = e.value;
        }
        for v in 0..t.num_vertices() {
            assert!(
                (got[v] - expect[v]).abs() < 1e-9
                    || (got[v].is_infinite() && expect[v].is_infinite()),
                "k={k} vertex {v}: engine {} vs reference {}",
                got[v],
                expect[v]
            );
        }
    }
}

#[test]
fn tdsp_with_one_huge_period_degenerates_to_sssp() {
    let t = road(10, 10, 3);
    let coll = Arc::new(generate_road_latencies(
        t.clone(),
        &RoadLatencyConfig {
            timesteps: 1,
            period: 1_000_000, // horizon covers any path
            min_latency: 1.0,
            max_latency: 9.0,
            seed: 11,
            ..Default::default()
        },
    ));
    let lat = coll
        .get(0)
        .unwrap()
        .edge_f64(LATENCY_ATTR)
        .unwrap()
        .to_vec();
    let expect = ref_sssp(&t, Some(&lat), VertexIdx(0));
    let lat_col = t.edge_schema().index_of(LATENCY_ATTR).unwrap();
    let pg = partitioned(&t, 3);
    let result = run_job(
        &pg,
        &InstanceSource::Memory(coll),
        Tdsp::factory(VertexIdx(0), lat_col),
        JobConfig::sequentially_dependent(1),
    );
    let mut got = vec![f64::INFINITY; t.num_vertices()];
    for e in &result.emitted {
        got[e.vertex.idx()] = e.value;
    }
    for v in 0..t.num_vertices() {
        assert!(
            (got[v] - expect[v]).abs() < 1e-9,
            "vertex {v}: {} vs {}",
            got[v],
            expect[v]
        );
    }
}

#[test]
fn tdsp_emits_monotone_finalization_times() {
    let t = road(8, 8, 5);
    let coll = Arc::new(generate_road_latencies(
        t.clone(),
        &RoadLatencyConfig {
            timesteps: 20,
            period: 40,
            min_latency: 2.0,
            max_latency: 39.0,
            seed: 2,
            ..Default::default()
        },
    ));
    let lat_col = t.edge_schema().index_of(LATENCY_ATTR).unwrap();
    let pg = partitioned(&t, 2);
    let result = run_job(
        &pg,
        &InstanceSource::Memory(coll),
        Tdsp::factory(VertexIdx(0), lat_col),
        JobConfig::sequentially_dependent(20).while_active(20),
    );
    // A vertex finalized at timestep t must have tdsp ≤ (t+1)·δ and > t-th
    // horizon only if finalized later… check the defining invariant:
    for e in &result.emitted {
        let horizon = (e.timestep as f64 + 1.0) * 40.0;
        assert!(
            e.value <= horizon + 1e-9,
            "tdsp {} exceeds its finalization horizon {horizon}",
            e.value
        );
    }
    // Each vertex is emitted at most once.
    let mut seen = std::collections::HashSet::new();
    for e in &result.emitted {
        assert!(seen.insert(e.vertex), "vertex emitted twice");
    }
}

// ---- MEME -------------------------------------------------------------------

#[test]
fn meme_tracking_matches_reference() {
    let t = road(15, 15, 0xC0FFEE);
    let cfg = SirConfig {
        timesteps: 25,
        hit_prob: 0.4,
        initial_infected: 4,
        infectious_steps: 3,
        background_rate: 0.05,
        ..Default::default()
    };
    let coll = Arc::new(generate_sir_tweets(t.clone(), &cfg));
    let expect = ref_meme(&coll, &cfg.meme);
    let tweets_col = t.vertex_schema().index_of(TWEETS_ATTR).unwrap();

    for k in [1, 3, 4] {
        let pg = partitioned(&t, k);
        let result = run_job(
            &pg,
            &InstanceSource::Memory(coll.clone()),
            MemeTracking::factory(cfg.meme.clone(), tweets_col),
            JobConfig::sequentially_dependent(25),
        );
        let got: HashMap<VertexIdx, usize> = result
            .emitted
            .iter()
            .map(|e| (e.vertex, e.value as usize))
            .collect();
        assert_eq!(got.len(), expect.len(), "k={k}: coloured set size");
        for (v, &step) in &expect {
            assert_eq!(got.get(v), Some(&step), "k={k}: vertex {v:?} colour time");
        }
        // Counter totals match emitted counts.
        let counted: u64 = (0..result.timesteps_run)
            .map(|s| result.counter_at(MemeTracking::COLORED, s))
            .sum();
        assert_eq!(counted as usize, expect.len());
    }
}

#[test]
fn meme_with_absent_meme_colors_nothing() {
    let t = road(8, 8, 1);
    let coll = Arc::new(generate_sir_tweets(
        t.clone(),
        &SirConfig {
            timesteps: 5,
            initial_infected: 0,
            background_rate: 0.2,
            ..Default::default()
        },
    ));
    let tweets_col = t.vertex_schema().index_of(TWEETS_ATTR).unwrap();
    let pg = partitioned(&t, 2);
    let result = run_job(
        &pg,
        &InstanceSource::Memory(coll),
        MemeTracking::factory("#nonexistent", tweets_col),
        JobConfig::sequentially_dependent(5),
    );
    assert!(result.emitted.is_empty());
}

// ---- HASH ---------------------------------------------------------------------

#[test]
fn hashtag_aggregation_matches_direct_count() {
    let t = road(12, 12, 0xAB);
    let cfg = SirConfig {
        timesteps: 15,
        hit_prob: 0.3,
        initial_infected: 5,
        background_rate: 0.1,
        ..Default::default()
    };
    let coll = Arc::new(generate_sir_tweets(t.clone(), &cfg));
    // Direct per-timestep count of the meme hashtag.
    let expect: Vec<u64> = (0..15)
        .map(|s| {
            let tweets = coll.get(s).unwrap().vertex_text_list(TWEETS_ATTR).unwrap();
            tweets
                .iter()
                .map(|row| row.iter().filter(|x| *x == &cfg.meme).count() as u64)
                .sum()
        })
        .collect();
    let tweets_col = t.vertex_schema().index_of(TWEETS_ATTR).unwrap();

    for k in [1, 2, 4] {
        let pg = partitioned(&t, k);
        let result = run_job(
            &pg,
            &InstanceSource::Memory(coll.clone()),
            HashtagAggregation::factory(cfg.meme.clone(), tweets_col),
            JobConfig::eventually_dependent(15),
        );
        // Master emits (timestep-as-vertex, count) in the merge phase.
        let mut got = vec![0u64; 15];
        for e in &result.emitted {
            assert_eq!(e.timestep, 15, "merge emits carry the timestep count");
            got[e.vertex.idx()] = e.value as u64;
        }
        assert_eq!(got, expect, "k={k}");
        let total: u64 = result
            .merge_counters
            .get(HashtagAggregation::TOTAL)
            .unwrap()
            .iter()
            .sum();
        assert_eq!(total, expect.iter().sum::<u64>());
    }
}

// ---- SSSP / BFS ------------------------------------------------------------------

#[test]
fn sssp_weighted_matches_dijkstra() {
    let t = road(14, 14, 99);
    let coll = Arc::new(generate_road_latencies(
        t.clone(),
        &RoadLatencyConfig {
            timesteps: 1,
            seed: 5,
            ..Default::default()
        },
    ));
    let lat = coll
        .get(0)
        .unwrap()
        .edge_f64(LATENCY_ATTR)
        .unwrap()
        .to_vec();
    let expect = ref_sssp(&t, Some(&lat), VertexIdx(7));
    let lat_col = t.edge_schema().index_of(LATENCY_ATTR).unwrap();
    let pg = partitioned(&t, 4);
    let result = run_job(
        &pg,
        &InstanceSource::Memory(coll),
        Sssp::factory(VertexIdx(7), Some(lat_col)),
        JobConfig::independent(1),
    );
    let mut got = vec![f64::INFINITY; t.num_vertices()];
    for e in &result.emitted {
        got[e.vertex.idx()] = e.value;
    }
    for v in 0..t.num_vertices() {
        assert!(
            (got[v] - expect[v]).abs() < 1e-9,
            "vertex {v}: {} vs {}",
            got[v],
            expect[v]
        );
    }
}

#[test]
fn sssp_unweighted_is_bfs() {
    let t = road(10, 10, 4);
    let coll = Arc::new(generate_road_latencies(
        t.clone(),
        &RoadLatencyConfig {
            timesteps: 1,
            ..Default::default()
        },
    ));
    let expect = ref_sssp(&t, None, VertexIdx(0));
    let pg = partitioned(&t, 3);
    let result = run_job(
        &pg,
        &InstanceSource::Memory(coll),
        Sssp::factory(VertexIdx(0), None),
        JobConfig::independent(1),
    );
    for e in &result.emitted {
        assert_eq!(
            e.value,
            expect[e.vertex.idx()],
            "hop count at {:?}",
            e.vertex
        );
    }
    assert_eq!(result.emitted.len(), t.num_vertices());
}

// ---- WCC -------------------------------------------------------------------------

#[test]
fn wcc_labels_components_correctly() {
    // Two disjoint road networks glued into one template.
    let mut b = tempograph_core::TemplateBuilder::new("two-comps", false);
    b.vertex_schema()
        .add(TWEETS_ATTR, tempograph_core::AttrType::TextList);
    b.edge_schema()
        .add(LATENCY_ATTR, tempograph_core::AttrType::Double);
    for i in 0..40 {
        b.add_vertex(i);
    }
    let mut eid = 0;
    for i in 0..19u64 {
        b.add_edge(eid, i, i + 1).unwrap();
        eid += 1;
    }
    for i in 20..39u64 {
        b.add_edge(eid, i, i + 1).unwrap();
        eid += 1;
    }
    let t = Arc::new(b.finalize().unwrap());
    let mut coll = tempograph_core::TimeSeriesCollection::new(t.clone(), 0, 1);
    coll.push(coll.new_instance()).unwrap();

    let pg = partitioned(&t, 3);
    let result = run_job(
        &pg,
        &InstanceSource::Memory(Arc::new(coll)),
        Wcc::factory(),
        JobConfig::independent(1),
    );
    let labels: HashMap<VertexIdx, u64> = result
        .emitted
        .iter()
        .map(|e| (e.vertex, e.value as u64))
        .collect();
    assert_eq!(labels.len(), 40);
    // Component 1: vertices 0..20 labelled 0; component 2: 20..40 labelled 20.
    for v in 0..20u32 {
        assert_eq!(labels[&VertexIdx(v)], 0);
    }
    for v in 20..40u32 {
        assert_eq!(labels[&VertexIdx(v)], 20);
    }
}

// ---- PageRank -----------------------------------------------------------------------

#[test]
fn pagerank_matches_power_iteration() {
    let t = road(8, 8, 77);
    let mut coll = tempograph_core::TimeSeriesCollection::new(t.clone(), 0, 1);
    coll.push(coll.new_instance()).unwrap();

    // Reference power iteration over the symmetric structure.
    let n = t.num_vertices();
    let adj = sym_adj(&t);
    let mut rank = vec![1.0 / n as f64; n];
    for _ in 0..10 {
        let mut next = vec![0.15 / n as f64; n];
        for u in 0..n {
            let deg = adj[u].len();
            if deg == 0 {
                continue;
            }
            let share = 0.85 * rank[u] / deg as f64;
            for &(v, _) in &adj[u] {
                next[v as usize] += share;
            }
        }
        rank = next;
    }

    for k in [1, 4] {
        let pg = partitioned(&t, k);
        let result = run_job(
            &pg,
            &InstanceSource::Memory(Arc::new(coll.clone())),
            PageRank::factory(10),
            JobConfig::independent(1),
        );
        for e in &result.emitted {
            let expect = rank[e.vertex.idx()];
            assert!(
                (e.value - expect).abs() < 1e-12,
                "k={k} vertex {:?}: {} vs {}",
                e.vertex,
                e.value,
                expect
            );
        }
        assert_eq!(result.emitted.len(), n);
    }
}

// ---- TopN -------------------------------------------------------------------------------

#[test]
fn topn_reports_most_active_vertices() {
    let t = road(10, 10, 21);
    let coll = Arc::new(generate_sir_tweets(
        t.clone(),
        &SirConfig {
            timesteps: 8,
            hit_prob: 0.5,
            initial_infected: 3,
            background_rate: 0.2,
            ..Default::default()
        },
    ));
    let tweets_col = t.vertex_schema().index_of(TWEETS_ATTR).unwrap();
    let pg = partitioned(&t, 2);
    let result = run_job(
        &pg,
        &InstanceSource::Memory(coll.clone()),
        TopNActivity::factory(3, tweets_col),
        JobConfig::independent(8),
    );
    // Counters must equal the raw tweet totals per timestep.
    for s in 0..8 {
        let tweets = coll.get(s).unwrap().vertex_text_list(TWEETS_ATTR).unwrap();
        let total: u64 = tweets.iter().map(|r| r.len() as u64).sum();
        assert_eq!(result.counter_at(TopNActivity::TWEETS, s), total);
        // Per subgraph at most 3 emits per timestep; emitted values are
        // actual tweet counts.
        for e in result.emitted_at(s) {
            assert_eq!(e.value as usize, tweets[e.vertex.idx()].len());
        }
    }
}
