//! Property-based tests for partitioners and subgraph discovery.

use proptest::prelude::*;
use std::sync::Arc;
use tempograph_core::{GraphTemplate, TemplateBuilder};
use tempograph_partition::{
    balance, discover_subgraphs, edge_cut, HashPartitioner, LdgPartitioner, MultilevelPartitioner,
    Partitioner,
};

/// A random connected graph: a random tree plus extra random edges.
fn arb_connected_graph() -> impl Strategy<Value = (u64, Vec<(u64, u64)>)> {
    (2u64..80).prop_flat_map(|n| {
        let extra = proptest::collection::vec((0u64..n, 0u64..n), 0..(n as usize));
        let parents = proptest::collection::vec(any::<u64>(), (n - 1) as usize);
        (Just(n), parents, extra).prop_map(|(n, parents, extra)| {
            let mut edges = Vec::new();
            for v in 1..n {
                edges.push((parents[(v - 1) as usize] % v, v));
            }
            for (a, b) in extra {
                edges.push((a % n, b % n));
            }
            (n, edges)
        })
    })
}

fn build(n: u64, edges: &[(u64, u64)]) -> GraphTemplate {
    let mut b = TemplateBuilder::new("prop", false);
    for v in 0..n {
        b.add_vertex(v);
    }
    for (i, &(s, d)) in edges.iter().enumerate() {
        b.add_edge(i as u64, s, d).unwrap();
    }
    b.finalize().unwrap()
}

proptest! {
    /// Every partitioner yields a valid assignment covering all vertices.
    #[test]
    fn partitioners_produce_valid_assignments(
        (n, edges) in arb_connected_graph(),
        k in 1usize..8,
    ) {
        let t = build(n, &edges);
        for p in [
            HashPartitioner.partition(&t, k),
            LdgPartitioner.partition(&t, k),
            MultilevelPartitioner::default().partition(&t, k),
        ] {
            prop_assert!(p.validate(&t).is_ok());
            prop_assert_eq!(p.sizes().iter().sum::<usize>(), t.num_vertices());
        }
    }

    /// Multilevel balance stays within a sane band whenever k ≤ n.
    #[test]
    fn multilevel_balance_bound(
        (n, edges) in arb_connected_graph(),
        k in 1usize..6,
    ) {
        prop_assume!(n as usize >= 4 * k);
        let t = build(n, &edges);
        let p = MultilevelPartitioner::default().partition(&t, k);
        // Small graphs allow slack: ideal ± 1 vertex dominates the ratio.
        let ideal = t.num_vertices() as f64 / k as f64;
        let bound = 1.03 + 1.5 / ideal;
        prop_assert!(
            balance(&t, &p) <= bound + 1e-9,
            "balance {} > bound {bound}",
            balance(&t, &p)
        );
    }

    /// k = 1 always yields zero cut; cut never exceeds |E|.
    #[test]
    fn edge_cut_bounds((n, edges) in arb_connected_graph(), k in 1usize..6) {
        let t = build(n, &edges);
        let single = MultilevelPartitioner::default().partition(&t, 1);
        prop_assert_eq!(edge_cut(&t, &single), 0);
        let p = MultilevelPartitioner::default().partition(&t, k);
        prop_assert!(edge_cut(&t, &p) <= t.num_edges());
    }

    /// Subgraph discovery invariants, for any partitioner output:
    /// * every vertex belongs to exactly one subgraph;
    /// * local + remote adjacency per vertex equals its template degree;
    /// * each subgraph's edge list is sorted and covers exactly the edges
    ///   its adjacency mentions, and each entry's row indexes its edge
    ///   (an edge between the vertex and the entry's neighbour);
    /// * subgraphs are internally weakly connected.
    #[test]
    fn subgraph_discovery_invariants(
        (n, edges) in arb_connected_graph(),
        k in 1usize..5,
    ) {
        let t = Arc::new(build(n, &edges));
        let part = LdgPartitioner.partition(&t, k);
        let pg = discover_subgraphs(t.clone(), part);

        // Coverage.
        let total: usize = pg.subgraphs().iter().map(|s| s.num_vertices()).sum();
        prop_assert_eq!(total, t.num_vertices());

        for sg in pg.subgraphs() {
            let mut mentioned = vec![false; sg.num_edges()];
            for pos in sg.positions() {
                let v = sg.vertex_at(pos);
                prop_assert_eq!(pg.subgraph_of_vertex(v), sg.id());
                let deg = sg.local_neighbors(pos).len() + sg.remote_neighbors(pos).len();
                prop_assert_eq!(deg, t.degree(v));
                // Local neighbours really are members; remote ones are not.
                // Each row names an edge joining `v` and the neighbour.
                let joins = |row: u32, w| {
                    let (s, d) = t.endpoints(sg.edges()[row as usize]);
                    (s, d) == (v, w) || (s, d) == (w, v)
                };
                for &(lp, row) in sg.local_neighbors(pos) {
                    prop_assert!(lp < sg.num_vertices() as u32);
                    prop_assert!(joins(row, sg.vertex_at(lp)));
                    mentioned[row as usize] = true;
                }
                for rn in sg.remote_neighbors(pos) {
                    prop_assert!(sg.local_pos(rn.vertex).is_none());
                    prop_assert!(joins(rn.row, rn.vertex));
                    mentioned[rn.row as usize] = true;
                    prop_assert_eq!(pg.subgraph_of_vertex(rn.vertex), rn.subgraph);
                    prop_assert_eq!(
                        pg.subgraph(rn.subgraph).partition(),
                        rn.partition
                    );
                }
            }
            // Edge list sorted + deduplicated, every edge some entry's.
            for w in sg.edges().windows(2) {
                prop_assert!(w[0] < w[1]);
            }
            prop_assert!(mentioned.iter().all(|&m| m), "an edge no entry names");
            // Internal weak connectivity via union-find over local edges.
            let nv = sg.num_vertices();
            let mut parent: Vec<u32> = (0..nv as u32).collect();
            fn find(p: &mut [u32], mut x: u32) -> u32 {
                while p[x as usize] != x {
                    let g = p[p[x as usize] as usize];
                    p[x as usize] = g;
                    x = g;
                }
                x
            }
            for pos in sg.positions() {
                for &(lp, _) in sg.local_neighbors(pos) {
                    let (a, b) = (find(&mut parent, pos), find(&mut parent, lp));
                    if a != b {
                        parent[a as usize] = b;
                    }
                }
            }
            let root = find(&mut parent, 0);
            for pos in 0..nv as u32 {
                prop_assert_eq!(find(&mut parent, pos), root, "subgraph not connected");
            }
        }
    }

    /// Determinism: same inputs, same outputs, for all three partitioners.
    #[test]
    fn partitioners_are_deterministic((n, edges) in arb_connected_graph(), k in 1usize..5) {
        let t = build(n, &edges);
        prop_assert_eq!(
            HashPartitioner.partition(&t, k).assignment,
            HashPartitioner.partition(&t, k).assignment
        );
        prop_assert_eq!(
            LdgPartitioner.partition(&t, k).assignment,
            LdgPartitioner.partition(&t, k).assignment
        );
        prop_assert_eq!(
            MultilevelPartitioner::default().partition(&t, k).assignment,
            MultilevelPartitioner::default().partition(&t, k).assignment
        );
    }
}
