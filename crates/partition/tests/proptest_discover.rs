//! `discover_subgraphs` against its definition, with the oracle written
//! here: a subgraph is a maximal set of same-partition vertices weakly
//! connected through same-partition edges; its `edges` are the sorted,
//! deduplicated edges of its members' adjacency; local neighbours are
//! addressed by `binary_search` position in its sorted vertex list, and
//! every other neighbour is remote, tagged with its owner. Each entry
//! names its edge by row: the row is below `edges().len()` and
//! `edges()[row]` is the template edge of that entry, and each vertex's
//! entries keep the template's (neighbour, edge) order. Ids follow
//! (partition, the name an unbalanced union-find gives the component).

use proptest::prelude::*;
use std::sync::Arc;
use tempograph_core::{EdgeIdx, TemplateBuilder, VertexIdx};
use tempograph_partition::{discover_subgraphs, Partitioning, SubgraphId};

/// A random graph (self-loops and parallel edges included) and an
/// assignment of one of three kinds: random over 2–5 partitions, all in
/// one partition, or every vertex its own partition (so its own subgraph).
fn arb_case() -> impl Strategy<Value = (bool, u32, Vec<(u32, u32)>, Partitioning)> {
    (1u32..50).prop_flat_map(|n| {
        (
            any::<bool>(),
            Just(n),
            proptest::collection::vec((0..n, 0..n), 0..(3 * n as usize)),
            0u8..3,
            2usize..6,
            proptest::collection::vec(any::<u16>(), n as usize),
        )
            .prop_map(|(directed, n, edges, kind, k, raw)| {
                let partitioning = match kind {
                    0 => Partitioning {
                        assignment: raw.iter().map(|&r| r % k as u16).collect(),
                        k,
                    },
                    1 => Partitioning {
                        assignment: vec![0; n as usize],
                        k: 1,
                    },
                    _ => Partitioning {
                        assignment: (0..n as u16).collect(),
                        k: n as usize,
                    },
                };
                (directed, n, edges, partitioning)
            })
    })
}

/// Component label per vertex: union of same-partition edges, direction
/// ignored, by repeated relabelling to the smallest reachable vertex.
fn components(n: usize, edges: &[(u32, u32)], assignment: &[u16]) -> Vec<u32> {
    let mut label: Vec<u32> = (0..n as u32).collect();
    let mut changed = true;
    while changed {
        changed = false;
        for &(s, d) in edges {
            let (s, d) = (s as usize, d as usize);
            if assignment[s] == assignment[d] && label[s] != label[d] {
                let low = label[s].min(label[d]);
                label[s] = low;
                label[d] = low;
                changed = true;
            }
        }
    }
    label
}

/// The name discovery orders ids by: the root each component gets from
/// linking each source's root under its target's root, in edge order,
/// with no balancing. Slice files name subgraphs by id, so a store stays
/// readable only while ids keep this order.
fn linked_names(n: usize, edges: &[(u32, u32)], assignment: &[u16]) -> Vec<u32> {
    let mut parent: Vec<u32> = (0..n as u32).collect();
    let find = |parent: &[u32], mut x: u32| {
        while parent[x as usize] != x {
            x = parent[x as usize];
        }
        x
    };
    for &(s, d) in edges {
        if assignment[s as usize] == assignment[d as usize] {
            let (rs, rd) = (find(&parent, s), find(&parent, d));
            if rs != rd {
                parent[rs as usize] = rd;
            }
        }
    }
    (0..n as u32).map(|v| find(&parent, v)).collect()
}

proptest! {
    #[test]
    fn discovery_matches_its_definition((directed, n, edges, partitioning) in arb_case()) {
        let mut b = TemplateBuilder::new("prop", directed);
        for v in 0..n as u64 {
            b.add_vertex(v);
        }
        for (i, &(s, d)) in edges.iter().enumerate() {
            b.add_edge(i as u64, s as u64, d as u64).unwrap();
        }
        let t = Arc::new(b.finalize().unwrap());
        let assignment = partitioning.assignment.clone();
        let k = partitioning.k;
        let pg = discover_subgraphs(t.clone(), partitioning);

        // Membership: same subgraph ⇔ same component.
        let label = components(n as usize, &edges, &assignment);
        for u in 0..n {
            for v in 0..n {
                let same_sg =
                    pg.subgraph_of_vertex(VertexIdx(u)) == pg.subgraph_of_vertex(VertexIdx(v));
                prop_assert_eq!(same_sg, label[u as usize] == label[v as usize], "{} {}", u, v);
            }
        }

        // Ids are dense, grouped by partition in ascending order.
        let mut listed: Vec<SubgraphId> = Vec::new();
        for p in 0..k as u16 {
            for &id in pg.subgraphs_of_partition(p) {
                prop_assert_eq!(pg.subgraph(id).partition(), p);
                listed.push(id);
            }
        }
        let dense: Vec<SubgraphId> = (0..pg.subgraphs().len() as u32).map(SubgraphId).collect();
        prop_assert_eq!(listed, dense);
        // ... and, inside a partition, by the component's linked name.
        let names = linked_names(n as usize, &edges, &assignment);
        let keys: Vec<(u16, u32)> = pg
            .subgraphs()
            .iter()
            .map(|sg| (sg.partition(), names[sg.vertices()[0].idx()]))
            .collect();
        prop_assert!(keys.windows(2).all(|w| w[0] < w[1]), "ids out of order: {:?}", keys);

        for sg in pg.subgraphs() {
            let verts = sg.vertices();
            prop_assert!(!verts.is_empty());
            prop_assert!(verts.windows(2).all(|w| w[0] < w[1]));
            for &v in verts {
                prop_assert_eq!(pg.subgraph_of_vertex(v), sg.id());
            }

            let mut want_edges: Vec<EdgeIdx> = verts
                .iter()
                .flat_map(|&v| t.neighbors(v).iter().map(|nb| nb.edge))
                .collect();
            want_edges.sort_unstable();
            want_edges.dedup();
            prop_assert_eq!(sg.edges(), &want_edges[..]);

            for (pos, &v) in verts.iter().enumerate() {
                let mut local = Vec::new();
                let mut remote = Vec::new();
                for nb in t.neighbors(v) {
                    let owner = assignment[nb.vertex.idx()];
                    if owner == sg.partition() {
                        let at = verts.binary_search(&nb.vertex).unwrap();
                        local.push((at as u32, nb.edge));
                    } else {
                        remote.push((nb.vertex, nb.edge, pg.subgraph_of_vertex(nb.vertex), owner));
                    }
                }
                // Rows index the edge list; read through it, the entries
                // are the template's, in its order.
                let edge = |row: u32| {
                    prop_assert!((row as usize) < sg.edges().len(), "row {} of {}", row, sg.edges().len());
                    Ok(sg.edges()[row as usize])
                };
                let mut got_local = Vec::new();
                for &(at, row) in sg.local_neighbors(pos as u32) {
                    got_local.push((at, edge(row)?));
                }
                let mut got_remote = Vec::new();
                for rn in sg.remote_neighbors(pos as u32) {
                    got_remote.push((rn.vertex, edge(rn.row)?, rn.subgraph, rn.partition));
                }
                prop_assert_eq!(got_local, local);
                prop_assert_eq!(got_remote, remote);
                prop_assert_eq!(sg.local_pos(v), Some(pos as u32));
            }
        }
    }
}
