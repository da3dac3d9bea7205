//! Instance-data generators (paper §IV.A).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use tempograph_core::{Column, GraphTemplate, TextRows, TimeSeriesCollection};

/// Name of the `Double` edge attribute carrying per-timestep travel time.
pub const LATENCY_ATTR: &str = "latency";

/// Name of the `TextList` vertex attribute carrying tweets per interval.
pub const TWEETS_ATTR: &str = "tweets";

/// Parameters for [`generate_road_latencies`].
#[derive(Clone, Debug)]
pub struct RoadLatencyConfig {
    /// Number of instances (the paper uses 50).
    pub timesteps: usize,
    /// Timestamp of the first instance.
    pub start_time: i64,
    /// Period δ between instances (also the TDSP idling quantum).
    pub period: i64,
    /// Minimum travel time (inclusive).
    pub min_latency: f64,
    /// Maximum travel time (exclusive).
    pub max_latency: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RoadLatencyConfig {
    fn default() -> Self {
        RoadLatencyConfig {
            timesteps: 50,
            start_time: 0,
            period: 300,
            min_latency: 1.0,
            max_latency: 100.0,
            seed: 0x70AD,
        }
    }
}

/// Generate i.i.d. uniform-random edge latencies per timestep — the paper's
/// "Road Data for TDSP" workload ("no correlation between the values in
/// space or time"). The template must declare a `Double` edge attribute
/// named [`LATENCY_ATTR`].
pub fn generate_road_latencies(
    template: Arc<GraphTemplate>,
    cfg: &RoadLatencyConfig,
) -> TimeSeriesCollection {
    assert!(
        cfg.max_latency > cfg.min_latency,
        "latency range must be non-empty"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut coll = TimeSeriesCollection::new(template, cfg.start_time, cfg.period);
    for _ in 0..cfg.timesteps {
        let mut g = coll.new_instance();
        {
            let lat = g
                .edge_f64_mut(LATENCY_ATTR)
                .expect("template must declare `latency: Double` on edges");
            for x in lat.iter_mut() {
                *x = rng.gen_range(cfg.min_latency..cfg.max_latency);
            }
        }
        coll.push(g)
            .expect("generator produces conforming instances");
    }
    coll
}

/// Parameters for [`generate_sir_tweets`].
#[derive(Clone, Debug)]
pub struct SirConfig {
    /// Number of instances (the paper uses 50).
    pub timesteps: usize,
    /// Timestamp of the first instance.
    pub start_time: i64,
    /// Period δ between instances.
    pub period: i64,
    /// The meme hashtag being propagated (e.g. `"#meme"`).
    pub meme: String,
    /// Per-neighbour, per-timestep infection probability — the paper's "hit
    /// probability": 0.30 for CARN, 0.02 for WIKI.
    pub hit_prob: f64,
    /// Number of initially infected (seed) vertices at t0.
    pub initial_infected: usize,
    /// Timesteps an infected vertex keeps tweeting before recovering (the
    /// SIR `I → R` transition).
    pub infectious_steps: usize,
    /// Background hashtags any vertex may tweet, for aggregation workloads.
    pub background_tags: Vec<String>,
    /// Per-vertex, per-timestep probability of a background tweet.
    pub background_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SirConfig {
    fn default() -> Self {
        SirConfig {
            timesteps: 50,
            start_time: 0,
            period: 300,
            meme: "#meme".to_string(),
            hit_prob: 0.30,
            initial_infected: 5,
            infectious_steps: 3,
            background_tags: vec!["#cats".into(), "#news".into(), "#sports".into()],
            background_rate: 0.01,
            seed: 0x51B_CAFE,
        }
    }
}

/// SIR epidemic state per vertex.
#[derive(Copy, Clone, PartialEq, Eq)]
enum State {
    Susceptible,
    /// Infected, with remaining infectious steps.
    Infected(u32),
    Recovered,
}

/// Generate the "Tweet Data" workload (§IV.A): memes propagate from vertex
/// to neighbouring vertex across instances under an SIR model with the given
/// hit probability. An infected vertex posts a tweet containing the meme in
/// every instance while infectious; background hashtags are sprinkled
/// independently. The template must declare a `TextList` vertex attribute
/// named [`TWEETS_ATTR`].
///
/// Propagation follows the *undirected* structure (a talk edge exposes both
/// endpoints), matching the paper's meme-BFS which traverses template edges.
pub fn generate_sir_tweets(template: Arc<GraphTemplate>, cfg: &SirConfig) -> TimeSeriesCollection {
    assert!((0.0..=1.0).contains(&cfg.hit_prob), "hit_prob ∉ [0,1]");
    let nv = template.num_vertices();
    assert!(cfg.initial_infected <= nv, "more seeds than vertices");
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Symmetric adjacency for propagation (templates may be directed).
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); nv];
    for e in template.edges() {
        let (s, d) = template.endpoints(e);
        adj[s.idx()].push(d.0);
        if template.directed() {
            adj[d.idx()].push(s.0);
        }
        // Undirected templates already expose both directions through
        // `neighbors`, but we built from endpoints, so add the reverse there
        // too:
        if !template.directed() {
            adj[d.idx()].push(s.0);
        }
    }

    let mut state = vec![State::Susceptible; nv];
    // Seed vertices: deterministic sample without replacement.
    let mut seeded = 0usize;
    while seeded < cfg.initial_infected {
        let v = rng.gen_range(0..nv);
        if state[v] == State::Susceptible {
            state[v] = State::Infected(cfg.infectious_steps as u32);
            seeded += 1;
        }
    }

    let mut coll = TimeSeriesCollection::new(template.clone(), cfg.start_time, cfg.period);
    for _step in 0..cfg.timesteps {
        // Per vertex in order: the meme while infectious, then maybe one
        // background tag.
        let tweets = TextRows::from_rows((0..nv).map(|v| {
            let meme = matches!(state[v], State::Infected(_)).then_some(cfg.meme.as_str());
            let chatter = !cfg.background_tags.is_empty() && rng.gen_bool(cfg.background_rate);
            let tag = chatter
                .then(|| cfg.background_tags[rng.gen_range(0..cfg.background_tags.len())].as_str());
            meme.into_iter().chain(tag)
        }));
        let mut g = coll.new_instance();
        g.set_vertex_col(TWEETS_ATTR, Column::TextList(tweets))
            .expect("template must declare `tweets: TextList` on vertices");
        coll.push(g)
            .expect("generator produces conforming instances");

        // Advance SIR: infections happen between this instance and the next.
        let mut next = state.clone();
        for v in 0..nv {
            if let State::Infected(remaining) = state[v] {
                for &n in &adj[v] {
                    if state[n as usize] == State::Susceptible
                        && next[n as usize] == State::Susceptible
                        && rng.gen_bool(cfg.hit_prob)
                    {
                        next[n as usize] = State::Infected(cfg.infectious_steps as u32);
                    }
                }
                next[v] = if remaining <= 1 {
                    State::Recovered
                } else {
                    State::Infected(remaining - 1)
                };
            }
        }
        state = next;
    }
    coll
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::road::{road_network, RoadNetConfig};
    use crate::smallworld::{small_world, SmallWorldConfig};
    use tempograph_core::VertexIdx;

    /// The vertices whose tweet list contains `meme` at `timestep`.
    fn vertices_with_meme(
        coll: &TimeSeriesCollection,
        timestep: usize,
        meme: &str,
    ) -> Vec<VertexIdx> {
        let g = coll.get(timestep).expect("timestep in range");
        let tweets = g.vertex_text_list(TWEETS_ATTR).expect("tweets attr");
        tweets
            .iter()
            .enumerate()
            .filter(|(_, row)| row.iter().any(|t| t == meme))
            .map(|(i, _)| VertexIdx(i as u32))
            .collect()
    }

    #[test]
    fn latencies_in_range_and_deterministic() {
        let t = Arc::new(road_network(&RoadNetConfig {
            width: 10,
            height: 10,
            ..Default::default()
        }));
        let cfg = RoadLatencyConfig {
            timesteps: 5,
            min_latency: 2.0,
            max_latency: 9.0,
            ..Default::default()
        };
        let a = generate_road_latencies(t.clone(), &cfg);
        let b = generate_road_latencies(t.clone(), &cfg);
        assert_eq!(a.len(), 5);
        for i in 0..5 {
            let la = a.get(i).unwrap().edge_f64(LATENCY_ATTR).unwrap();
            let lb = b.get(i).unwrap().edge_f64(LATENCY_ATTR).unwrap();
            assert_eq!(la, lb, "same seed ⇒ same data");
            assert!(la.iter().all(|&x| (2.0..9.0).contains(&x)));
        }
    }

    #[test]
    fn latencies_vary_across_timesteps() {
        let t = Arc::new(road_network(&RoadNetConfig {
            width: 10,
            height: 10,
            ..Default::default()
        }));
        let c = generate_road_latencies(t, &RoadLatencyConfig::default());
        let l0 = c.get(0).unwrap().edge_f64(LATENCY_ATTR).unwrap();
        let l1 = c.get(1).unwrap().edge_f64(LATENCY_ATTR).unwrap();
        assert_ne!(l0, l1);
    }

    #[test]
    fn sir_meme_monotone_cumulative_spread() {
        let t = Arc::new(road_network(&RoadNetConfig {
            width: 20,
            height: 20,
            ..Default::default()
        }));
        let cfg = SirConfig {
            timesteps: 20,
            hit_prob: 0.5,
            initial_infected: 3,
            background_rate: 0.0,
            ..Default::default()
        };
        let c = generate_sir_tweets(t, &cfg);
        // Cumulative set of ever-infected vertices only grows.
        let mut ever = std::collections::HashSet::new();
        let mut prev_size = 0;
        for i in 0..20 {
            for v in vertices_with_meme(&c, i, &cfg.meme) {
                ever.insert(v);
            }
            assert!(ever.len() >= prev_size);
            prev_size = ever.len();
        }
        assert!(
            ever.len() > cfg.initial_infected,
            "meme must actually spread"
        );
    }

    #[test]
    fn sir_zero_hit_prob_never_spreads() {
        let t = Arc::new(road_network(&RoadNetConfig {
            width: 10,
            height: 10,
            ..Default::default()
        }));
        let cfg = SirConfig {
            timesteps: 10,
            hit_prob: 0.0,
            initial_infected: 2,
            infectious_steps: 100,
            background_rate: 0.0,
            ..Default::default()
        };
        let c = generate_sir_tweets(t, &cfg);
        let initial = vertices_with_meme(&c, 0, &cfg.meme);
        assert_eq!(initial.len(), 2);
        for i in 1..10 {
            assert_eq!(vertices_with_meme(&c, i, &cfg.meme), initial);
        }
    }

    #[test]
    fn sir_recovery_silences_vertices() {
        let t = Arc::new(road_network(&RoadNetConfig {
            width: 5,
            height: 5,
            ..Default::default()
        }));
        let cfg = SirConfig {
            timesteps: 6,
            hit_prob: 0.0,
            initial_infected: 1,
            infectious_steps: 2,
            background_rate: 0.0,
            ..Default::default()
        };
        let c = generate_sir_tweets(t, &cfg);
        assert_eq!(vertices_with_meme(&c, 0, &cfg.meme).len(), 1);
        assert_eq!(vertices_with_meme(&c, 1, &cfg.meme).len(), 1);
        // Recovered after infectious_steps: no more meme tweets.
        for i in 2..6 {
            assert!(vertices_with_meme(&c, i, &cfg.meme).is_empty());
        }
    }

    #[test]
    fn sir_works_on_directed_smallworld() {
        let t = Arc::new(small_world(&SmallWorldConfig {
            vertices: 500,
            ..Default::default()
        }));
        let cfg = SirConfig {
            timesteps: 15,
            hit_prob: 0.3,
            initial_infected: 5,
            background_rate: 0.0,
            ..Default::default()
        };
        let c = generate_sir_tweets(t, &cfg);
        let mut ever = std::collections::HashSet::new();
        for i in 0..15 {
            ever.extend(vertices_with_meme(&c, i, &cfg.meme));
        }
        assert!(ever.len() > 5, "meme spreads over directed talk edges");
    }

    #[test]
    fn background_tweets_present_when_enabled() {
        let t = Arc::new(road_network(&RoadNetConfig {
            width: 15,
            height: 15,
            ..Default::default()
        }));
        let cfg = SirConfig {
            timesteps: 10,
            hit_prob: 0.0,
            initial_infected: 0,
            background_rate: 0.3,
            ..Default::default()
        };
        let c = generate_sir_tweets(t, &cfg);
        let mut any = false;
        for i in 0..10 {
            let g = c.get(i).unwrap();
            let tweets = g.vertex_text_list(TWEETS_ATTR).unwrap();
            if tweets.iter().any(|r| !r.is_empty()) {
                any = true;
            }
        }
        assert!(any, "background chatter expected");
    }

    #[test]
    #[should_panic(expected = "hit_prob")]
    fn rejects_bad_probability() {
        let t = Arc::new(road_network(&RoadNetConfig {
            width: 5,
            height: 5,
            ..Default::default()
        }));
        generate_sir_tweets(
            t,
            &SirConfig {
                hit_prob: 1.5,
                ..Default::default()
            },
        );
    }
}
