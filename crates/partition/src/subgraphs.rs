//! Subgraph discovery: the unit of computation in the subgraph-centric model.
//!
//! §II.C: *"A subgraph within a partition is a maximal set of vertices that
//! are weakly connected through only local edges."* This module finds those
//! components with a union-find over intra-partition edges and freezes them
//! into a [`PartitionedGraph`]: per-subgraph CSR adjacency split into
//! **local** neighbours (same subgraph, traversed in-memory) and **remote**
//! neighbours (other partitions' subgraphs, reached by message passing).
//!
//! Every adjacency entry names its edge by **row**: the edge's index in
//! [`Subgraph::edges`], which is also its row in every edge column of the
//! subgraph's projected instances, so a program reads an edge attribute
//! with no lookup. Discovery builds each subgraph's CSR straight from the
//! template's endpoint column, in row order; it never asks the template
//! for its own whole-graph adjacency.

use crate::Partitioning;
use bytes::{BufMut, Bytes, BytesMut};
use std::ops::Range;
use std::sync::Arc;
use tempograph_core::wire::{get_u32, WireError, WireMsg};
use tempograph_core::{EdgeIdx, GraphTemplate, VertexIdx};

/// Globally unique subgraph identifier (dense, across all partitions).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SubgraphId(pub u32);

impl SubgraphId {
    /// Index as `usize`.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for SubgraphId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sg{}", self.0)
    }
}

impl WireMsg for SubgraphId {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.0);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(SubgraphId(get_u32(buf, "SubgraphId")?))
    }
}

/// An adjacency entry crossing partitions: the far endpoint lives in another
/// partition's subgraph and is reachable only via messaging.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RemoteNeighbor {
    /// Remote endpoint (template index).
    pub vertex: VertexIdx,
    /// Row of the connecting edge in [`Subgraph::edges`] and in the
    /// subgraph's projected edge columns — lets algorithms read edge
    /// attributes such as latency for the crossing edge.
    pub row: u32,
    /// Subgraph owning the remote endpoint.
    pub subgraph: SubgraphId,
    /// Partition owning the remote endpoint.
    pub partition: u16,
}

/// One weakly-connected component over local edges, with frozen CSR
/// adjacency. Local neighbours are addressed by *local position* (index into
/// [`Subgraph::vertices`]) so algorithm state can live in dense per-subgraph
/// vectors.
#[derive(Clone, Debug)]
pub struct Subgraph {
    id: SubgraphId,
    partition: u16,
    /// Member vertices (template indices), sorted ascending.
    vertices: Vec<VertexIdx>,
    /// All distinct edges touching this subgraph (local edges + remote
    /// crossing edges), sorted ascending — the subgraph's edge universe for
    /// GoFS attribute projection.
    edges: Vec<EdgeIdx>,
    local_offsets: Vec<u32>,
    /// (local position of target, row of the connecting edge).
    local_adj: Vec<(u32, u32)>,
    remote_offsets: Vec<u32>,
    remote_adj: Vec<RemoteNeighbor>,
}

impl Subgraph {
    /// Globally unique id.
    pub fn id(&self) -> SubgraphId {
        self.id
    }

    /// Owning partition.
    pub fn partition(&self) -> u16 {
        self.partition
    }

    /// Number of member vertices.
    pub fn num_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// Member vertices (sorted by template index).
    pub fn vertices(&self) -> &[VertexIdx] {
        &self.vertices
    }

    /// Template index of the vertex at local position `pos`.
    #[inline]
    pub fn vertex_at(&self, pos: u32) -> VertexIdx {
        self.vertices[pos as usize]
    }

    /// Local position of template vertex `v`, if it belongs to this subgraph.
    pub fn local_pos(&self, v: VertexIdx) -> Option<u32> {
        self.vertices.binary_search(&v).ok().map(|i| i as u32)
    }

    /// Intra-subgraph neighbours of the vertex at local position `pos`:
    /// (neighbour's local position, edge row), sorted.
    #[inline]
    pub fn local_neighbors(&self, pos: u32) -> &[(u32, u32)] {
        let lo = self.local_offsets[pos as usize] as usize;
        let hi = self.local_offsets[pos as usize + 1] as usize;
        &self.local_adj[lo..hi]
    }

    /// Cross-partition neighbours of the vertex at local position `pos`,
    /// sorted by (neighbour, edge row).
    #[inline]
    pub fn remote_neighbors(&self, pos: u32) -> &[RemoteNeighbor] {
        &self.remote_adj[self.remote_range(pos)]
    }

    /// Where the remote entries of `pos` lie among all of this subgraph's
    /// remote entries (`0..num_remote_edges()`), the range
    /// [`Self::remote_neighbors`] slices: per-entry program state can live
    /// in one dense vector indexed by it.
    #[inline]
    pub fn remote_range(&self, pos: u32) -> Range<usize> {
        self.remote_offsets[pos as usize] as usize..self.remote_offsets[pos as usize + 1] as usize
    }

    /// Total number of remote edges leaving this subgraph.
    pub fn num_remote_edges(&self) -> usize {
        self.remote_adj.len()
    }

    /// All distinct edges touching this subgraph (local + crossing), sorted.
    /// An adjacency entry's edge row indexes this slice.
    pub fn edges(&self) -> &[EdgeIdx] {
        &self.edges
    }

    /// Number of distinct edges touching this subgraph.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Iterate all local positions.
    pub fn positions(&self) -> impl Iterator<Item = u32> + '_ {
        0..self.vertices.len() as u32
    }
}

/// The engine's world view: template + partitioning + frozen subgraphs.
#[derive(Clone, Debug)]
pub struct PartitionedGraph {
    template: Arc<GraphTemplate>,
    partitioning: Arc<Partitioning>,
    subgraphs: Vec<Subgraph>,
    partition_subgraphs: Vec<Vec<SubgraphId>>,
    vertex_to_subgraph: Vec<SubgraphId>,
}

impl PartitionedGraph {
    /// The shared template.
    pub fn template(&self) -> &Arc<GraphTemplate> {
        &self.template
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.partitioning.k
    }

    /// The vertex→partition assignment this graph was built from (shared:
    /// a GoFS store attached to this graph holds the same `Arc`).
    pub fn partitioning(&self) -> &Arc<Partitioning> {
        &self.partitioning
    }

    /// All subgraphs, ordered by [`SubgraphId`].
    pub fn subgraphs(&self) -> &[Subgraph] {
        &self.subgraphs
    }

    /// One subgraph by id.
    pub fn subgraph(&self, id: SubgraphId) -> &Subgraph {
        &self.subgraphs[id.idx()]
    }

    /// Ids of the subgraphs living in partition `p`.
    pub fn subgraphs_of_partition(&self, p: u16) -> &[SubgraphId] {
        &self.partition_subgraphs[p as usize]
    }

    /// The subgraph owning template vertex `v`.
    pub fn subgraph_of_vertex(&self, v: VertexIdx) -> SubgraphId {
        self.vertex_to_subgraph[v.idx()]
    }

    /// The largest subgraph (by vertex count) in partition `p` — the paper's
    /// Hashtag Aggregation designates "the largest subgraph present in the
    /// 1st partition" as the master aggregator.
    pub fn largest_subgraph_in_partition(&self, p: u16) -> Option<SubgraphId> {
        self.partition_subgraphs[p as usize]
            .iter()
            .copied()
            .max_by_key(|id| self.subgraphs[id.idx()].num_vertices())
    }
}

/// Discover subgraphs (weakly-connected components over local edges) and
/// freeze the partitioned view. `partitioning` must be valid for `template`;
/// pass an `Arc` to share it with others that hold it (a GoFS store).
///
/// Linear in `|V| + |E|` after the union-find, plus a sort of each
/// vertex's entries: every vertex's local position is recorded as members
/// are gathered, one pass over the edges counts each vertex's local and
/// remote entries and each subgraph's edges, and a second pass, in
/// ascending edge order, appends each edge to its subgraphs' edge lists —
/// so its index there is its row — and places each endpoint's entry at
/// that vertex's cursor.
pub fn discover_subgraphs(
    template: Arc<GraphTemplate>,
    partitioning: impl Into<Arc<Partitioning>>,
) -> PartitionedGraph {
    let partitioning = partitioning.into();
    partitioning
        .validate(&template)
        .expect("partitioning must match template");
    let n = template.num_vertices();
    let directed = template.directed();
    let ends = template.edge_endpoints();
    let assignment = &partitioning.assignment;

    // Union-find over local edges (weakly connected: ignore direction),
    // linked by size. Ids are ordered by each component's *name*: the
    // vertex that linking each source's root under its target's root,
    // unbalanced, would leave at the root. Slice files name subgraphs by
    // id, so this order is part of the store format. Each tree root keeps
    // its component's name and a merge takes the target tree's, so names
    // do not depend on how the trees are shaped.
    let mut parent: Vec<u32> = (0..n as u32).collect();
    let mut name: Vec<u32> = (0..n as u32).collect();
    let mut size = vec![1u32; n];
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            let gp = parent[parent[x as usize] as usize];
            parent[x as usize] = gp;
            x = gp;
        }
        x
    }
    for &(s, d) in ends {
        if assignment[s.idx()] == assignment[d.idx()] {
            let (rs, rd) = (find(&mut parent, s.0), find(&mut parent, d.0));
            if rs != rd {
                let (big, small) = if size[rs as usize] < size[rd as usize] {
                    (rd, rs)
                } else {
                    (rs, rd)
                };
                parent[small as usize] = big;
                size[big as usize] += size[small as usize];
                name[big as usize] = name[rd as usize];
            }
        }
    }

    // Name → subgraph id, ids assigned in (partition, name) order for
    // determinism. The size array, done with, holds each vertex's name.
    let mut roots: Vec<(u16, u32)> = Vec::new();
    let mut root_of = size;
    for v in 0..n as u32 {
        let r = name[find(&mut parent, v) as usize];
        root_of[v as usize] = r;
        if r == v {
            roots.push((assignment[v as usize], v));
        }
    }
    roots.sort_unstable();
    // Reuse the union-find array as the name → id table.
    let mut sg_of_root = parent;
    for (i, &(_, r)) in roots.iter().enumerate() {
        sg_of_root[r as usize] = i as u32;
    }
    // In place: the root table becomes the vertex → subgraph table.
    let vertex_to_subgraph: Vec<SubgraphId> = root_of
        .into_iter()
        .map(|r| SubgraphId(sg_of_root[r as usize]))
        .collect();
    let sg_of = |v: VertexIdx| vertex_to_subgraph[v.idx()];
    let num_sg = roots.len();

    // Entry counts, into the union-find's two arrays, now free. An edge
    // gives its source an entry and, undirected, its target one (an
    // undirected self-loop gives its vertex two). The entry is local when
    // both ends share a subgraph — ends in one partition joined by an edge
    // share a component — and the edge then belongs to that subgraph
    // alone; a crossing edge belongs to the source's subgraph and,
    // undirected, to the target's too.
    let (mut local_at, mut remote_at) = (name, sg_of_root);
    local_at.fill(0);
    remote_at.fill(0);
    let mut num_edges = vec![0u32; num_sg];
    for &(s, d) in ends {
        let (a, b) = (sg_of(s), sg_of(d));
        num_edges[a.idx()] += 1;
        let count = if a == b {
            &mut local_at
        } else {
            &mut remote_at
        };
        count[s.idx()] += 1;
        if !directed {
            count[d.idx()] += 1;
            if a != b {
                num_edges[b.idx()] += 1;
            }
        }
    }

    // Members per subgraph, in ascending vertex order, so a vertex's index
    // in its list is its binary-search position.
    let mut num_vertices = vec![0u32; num_sg];
    for sg in &vertex_to_subgraph {
        num_vertices[sg.idx()] += 1;
    }
    let mut members: Vec<Vec<VertexIdx>> = num_vertices
        .iter()
        .map(|&len| Vec::with_capacity(len as usize))
        .collect();
    let mut local_pos = vec![0u32; n];
    for (v, sg) in (0u32..).zip(&vertex_to_subgraph) {
        let list = &mut members[sg.idx()];
        local_pos[v as usize] = list.len() as u32;
        list.push(VertexIdx(v));
    }

    // Offsets from the counts; each count becomes its vertex's cursor, an
    // index into its subgraph's entries.
    let mut subgraphs = Vec::with_capacity(num_sg);
    let mut partition_subgraphs: Vec<Vec<SubgraphId>> = vec![Vec::new(); partitioning.k];
    for (i, (verts, &num_edges)) in (0u32..).zip(members.into_iter().zip(&num_edges)) {
        let id = SubgraphId(i);
        let part = assignment[verts[0].idx()];
        partition_subgraphs[part as usize].push(id);
        let mut local_offsets = Vec::with_capacity(verts.len() + 1);
        let mut remote_offsets = Vec::with_capacity(verts.len() + 1);
        let (mut local, mut remote) = (0u32, 0u32);
        local_offsets.push(0);
        remote_offsets.push(0);
        for v in &verts {
            let (l, r) = (local_at[v.idx()], remote_at[v.idx()]);
            (local_at[v.idx()], remote_at[v.idx()]) = (local, remote);
            local += l;
            remote += r;
            local_offsets.push(local);
            remote_offsets.push(remote);
        }
        let unset = RemoteNeighbor {
            vertex: VertexIdx(0),
            row: 0,
            subgraph: id,
            partition: part,
        };
        subgraphs.push(Subgraph {
            id,
            partition: part,
            vertices: verts,
            edges: Vec::with_capacity(num_edges as usize),
            local_offsets,
            local_adj: vec![(0, 0); local as usize],
            remote_offsets,
            remote_adj: vec![unset; remote as usize],
        });
    }

    // Rows and entries: edges in ascending order, so an edge's index in
    // its subgraph's list is its row there.
    for (e, &(s, d)) in (0u32..).zip(ends) {
        let (a, b) = (sg_of(s), sg_of(d));
        let sg = &mut subgraphs[a.idx()];
        let row = sg.edges.len() as u32;
        sg.edges.push(EdgeIdx(e));
        if a == b {
            let at = &mut local_at[s.idx()];
            sg.local_adj[*at as usize] = (local_pos[d.idx()], row);
            *at += 1;
            if !directed {
                let at = &mut local_at[d.idx()];
                sg.local_adj[*at as usize] = (local_pos[s.idx()], row);
                *at += 1;
            }
            continue;
        }
        let at = &mut remote_at[s.idx()];
        sg.remote_adj[*at as usize] = RemoteNeighbor {
            vertex: d,
            row,
            subgraph: b,
            partition: assignment[d.idx()],
        };
        *at += 1;
        if !directed {
            let sg = &mut subgraphs[b.idx()];
            let row = sg.edges.len() as u32;
            sg.edges.push(EdgeIdx(e));
            let at = &mut remote_at[d.idx()];
            sg.remote_adj[*at as usize] = RemoteNeighbor {
                vertex: s,
                row,
                subgraph: a,
                partition: assignment[s.idx()],
            };
            *at += 1;
        }
    }

    // Each vertex's entries by (neighbour, row): rows ascend with edge
    // indices inside one subgraph, so this is the template's
    // (neighbour, edge) order.
    for sg in &mut subgraphs {
        for w in sg.local_offsets.windows(2) {
            sg.local_adj[w[0] as usize..w[1] as usize].sort_unstable();
        }
        for w in sg.remote_offsets.windows(2) {
            sg.remote_adj[w[0] as usize..w[1] as usize].sort_unstable_by_key(|r| (r.vertex, r.row));
        }
    }

    PartitionedGraph {
        template,
        partitioning,
        subgraphs,
        partition_subgraphs,
        vertex_to_subgraph,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MultilevelPartitioner, Partitioner};
    use tempograph_core::TemplateBuilder;
    use tempograph_gen::{road_network, RoadNetConfig};

    /// 0-1-2   3-4-5 (two components), partitioned as {0,1,3,4} / {2,5}.
    fn two_paths() -> (Arc<GraphTemplate>, Partitioning) {
        let mut b = TemplateBuilder::new("2p", false);
        for i in 0..6 {
            b.add_vertex(i);
        }
        b.add_edge(0, 0, 1).unwrap();
        b.add_edge(1, 1, 2).unwrap();
        b.add_edge(2, 3, 4).unwrap();
        b.add_edge(3, 4, 5).unwrap();
        let t = Arc::new(b.finalize().unwrap());
        let p = Partitioning {
            assignment: vec![0, 0, 1, 0, 0, 1],
            k: 2,
        };
        (t, p)
    }

    #[test]
    fn subgraph_id_wire_roundtrip() {
        let mut buf = BytesMut::new();
        SubgraphId(3).encode(&mut buf);
        assert_eq!(&buf[..], &[3, 0, 0, 0], "laid out as its u32");
        let mut bytes = buf.freeze();
        assert_eq!(SubgraphId::decode(&mut bytes), Ok(SubgraphId(3)));
        assert!(SubgraphId::decode(&mut bytes).is_err(), "empty is an error");
    }

    #[test]
    fn discovers_expected_components() {
        let (t, p) = two_paths();
        let pg = discover_subgraphs(t, p);
        // Partition 0: {0,1} and {3,4} — two subgraphs.
        // Partition 1: {2} and {5} — two singleton subgraphs.
        assert_eq!(pg.subgraphs().len(), 4);
        assert_eq!(pg.subgraphs_of_partition(0).len(), 2);
        assert_eq!(pg.subgraphs_of_partition(1).len(), 2);
        let sg01 = pg.subgraph_of_vertex(VertexIdx(0));
        assert_eq!(pg.subgraph_of_vertex(VertexIdx(1)), sg01);
        assert_ne!(pg.subgraph_of_vertex(VertexIdx(3)), sg01);
    }

    #[test]
    fn remote_edges_point_to_right_subgraph() {
        let (t, p) = two_paths();
        let pg = discover_subgraphs(t, p);
        let sg = pg.subgraph(pg.subgraph_of_vertex(VertexIdx(1)));
        let pos = sg.local_pos(VertexIdx(1)).unwrap();
        let remotes = sg.remote_neighbors(pos);
        assert_eq!(remotes.len(), 1);
        assert_eq!(remotes[0].vertex, VertexIdx(2));
        assert_eq!(remotes[0].partition, 1);
        assert_eq!(remotes[0].subgraph, pg.subgraph_of_vertex(VertexIdx(2)));
    }

    #[test]
    fn local_adjacency_within_subgraph() {
        let (t, p) = two_paths();
        let pg = discover_subgraphs(t, p);
        let sg = pg.subgraph(pg.subgraph_of_vertex(VertexIdx(0)));
        assert_eq!(sg.num_vertices(), 2);
        let pos0 = sg.local_pos(VertexIdx(0)).unwrap();
        let locals = sg.local_neighbors(pos0);
        assert_eq!(locals.len(), 1);
        assert_eq!(sg.vertex_at(locals[0].0), VertexIdx(1));
    }

    #[test]
    fn vertices_partition_into_subgraphs_completely() {
        let t = Arc::new(road_network(&RoadNetConfig {
            width: 25,
            height: 25,
            ..Default::default()
        }));
        let p = MultilevelPartitioner::default().partition(&t, 4);
        let pg = discover_subgraphs(t.clone(), p);
        let total: usize = pg.subgraphs().iter().map(|s| s.num_vertices()).sum();
        assert_eq!(total, t.num_vertices());
        // Every vertex's recorded subgraph actually contains it.
        for v in t.vertices() {
            let sg = pg.subgraph(pg.subgraph_of_vertex(v));
            assert!(sg.local_pos(v).is_some());
        }
    }

    #[test]
    fn local_plus_remote_degrees_match_template() {
        let t = Arc::new(road_network(&RoadNetConfig {
            width: 15,
            height: 15,
            ..Default::default()
        }));
        let p = MultilevelPartitioner::default().partition(&t, 3);
        let pg = discover_subgraphs(t.clone(), p);
        for v in t.vertices() {
            let sg = pg.subgraph(pg.subgraph_of_vertex(v));
            let pos = sg.local_pos(v).unwrap();
            let total = sg.local_neighbors(pos).len() + sg.remote_neighbors(pos).len();
            assert_eq!(total, t.degree(v), "degree mismatch at {v:?}");
        }
    }

    /// A row in place of the template `EdgeIdx` keeps both entry kinds at
    /// their old sizes: a remote entry is 16 bytes (4 + 4 + 4 + 2,
    /// padded), a local one 8. A larger entry grows every subgraph's CSR:
    /// `tdsp_road`'s subgraphs hold ≈ 815 k entries, so 4 bytes more per
    /// entry is ≈ 3.3 MB more to fault in at every open (a fresh page cost
    /// 1.8–3.7 µs on the 2-vCPU host the open was measured on) and more
    /// peak memory.
    #[test]
    fn entries_keep_their_sizes() {
        assert_eq!(std::mem::size_of::<RemoteNeighbor>(), 16);
        assert_eq!(std::mem::size_of::<(u32, u32)>(), 8);
    }

    #[test]
    fn largest_subgraph_selection() {
        let (t, p) = two_paths();
        let pg = discover_subgraphs(t, p);
        let largest = pg.largest_subgraph_in_partition(0).unwrap();
        assert_eq!(pg.subgraph(largest).num_vertices(), 2);
        // Partition indices out of subgraph range handled: partition 1 has
        // singletons only.
        let l1 = pg.largest_subgraph_in_partition(1).unwrap();
        assert_eq!(pg.subgraph(l1).num_vertices(), 1);
    }

    #[test]
    fn subgraph_ids_are_dense_and_ordered_by_partition() {
        let (t, p) = two_paths();
        let pg = discover_subgraphs(t, p);
        for (i, sg) in pg.subgraphs().iter().enumerate() {
            assert_eq!(sg.id().idx(), i);
        }
        // Ids in partition 0 precede ids in partition 1.
        let max_p0 = pg.subgraphs_of_partition(0).iter().max().unwrap();
        let min_p1 = pg.subgraphs_of_partition(1).iter().min().unwrap();
        assert!(max_p0 < min_p1);
    }
}
