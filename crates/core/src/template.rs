//! The graph template `Ĝ = ⟨V̂, Ê⟩`: time-invariant topology + schemas.
//!
//! Built once via [`TemplateBuilder`], then shared immutably (typically as an
//! `Arc<GraphTemplate>`) by every instance, partition and engine worker.
//! The template keeps its edges as an endpoint column; its whole-graph
//! adjacency is CSR — a flat offsets/targets pair, so traversal is a pair
//! of slice reads with no pointer chasing — built by the first
//! [`GraphTemplate::neighbors`] call. The subgraph-centric path never makes
//! that call: subgraph discovery builds each subgraph's CSR from the
//! endpoints, so freezing or decoding a template builds no adjacency.

use crate::attr::Schema;
use crate::error::{CoreError, Result};
use crate::ids::{EdgeIdx, VertexIdx};
use std::collections::HashMap;
use std::sync::OnceLock;

/// One adjacency entry: the neighbouring vertex and the edge connecting it.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Neighbor {
    /// The vertex at the other end of the edge.
    pub vertex: VertexIdx,
    /// The connecting edge (shared with the reverse direction when the
    /// template is undirected).
    pub edge: EdgeIdx,
}

/// Time-invariant topology and attribute schemas shared by all instances.
#[derive(Clone, Debug)]
pub struct GraphTemplate {
    name: String,
    directed: bool,
    vertex_ids: Vec<u64>,
    edge_ids: Vec<u64>,
    /// (source, target) per edge, by `EdgeIdx`.
    edge_endpoints: Vec<(VertexIdx, VertexIdx)>,
    /// The whole-graph adjacency, built by the first [`Self::neighbors`]
    /// call (the vertex-centric engine, the diameter estimate): a
    /// subgraph-centric job never asks for it.
    csr: OnceLock<Csr>,
    /// `(id, index)` sorted by id, built by the first [`Self::vertex_by_id`]
    /// call: nothing on a job's path looks a vertex up by id, so freezing
    /// or decoding a template builds no lookup structure.
    vertex_index: OnceLock<Vec<(u64, u32)>>,
    /// The same for [`Self::edge_by_id`].
    edge_index: OnceLock<Vec<(u64, u32)>>,
    vertex_schema: Schema,
    edge_schema: Schema,
}

/// Whole-graph CSR adjacency: each vertex's entries sorted by
/// (neighbour, edge).
#[derive(Clone, Debug)]
struct Csr {
    /// Offsets into `adjacency`, length |V|+1.
    offsets: Vec<u32>,
    adjacency: Vec<Neighbor>,
}

impl Csr {
    /// Build from endpoints already checked by [`GraphTemplate::from_parts`].
    fn build(nv: usize, directed: bool, edge_endpoints: &[(VertexIdx, VertexIdx)]) -> Csr {
        let mut degree = vec![0u32; nv];
        for &(s, d) in edge_endpoints {
            degree[s.idx()] += 1;
            if !directed {
                degree[d.idx()] += 1;
            }
        }
        let mut offsets = Vec::with_capacity(nv + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for d in &degree {
            acc += d;
            offsets.push(acc);
        }
        // Reuse the degree array as each vertex's fill cursor.
        let mut cursor = degree;
        cursor.copy_from_slice(&offsets[..nv]);
        let mut adjacency = vec![
            Neighbor {
                vertex: VertexIdx(0),
                edge: EdgeIdx(0)
            };
            acc as usize
        ];
        for (e, &(s, d)) in (0u32..).zip(edge_endpoints) {
            let e = EdgeIdx(e);
            adjacency[cursor[s.idx()] as usize] = Neighbor { vertex: d, edge: e };
            cursor[s.idx()] += 1;
            if !directed {
                adjacency[cursor[d.idx()] as usize] = Neighbor { vertex: s, edge: e };
                cursor[d.idx()] += 1;
            }
        }
        // Sort each vertex's adjacency by (neighbor, edge) for deterministic
        // traversal order regardless of insertion order.
        for w in offsets.windows(2) {
            adjacency[w[0] as usize..w[1] as usize].sort_unstable_by_key(|n| (n.vertex, n.edge));
        }
        Csr { offsets, adjacency }
    }
}

/// `(id, position)` pairs of `ids`, sorted by id.
fn sorted_index(ids: &[u64]) -> Vec<(u64, u32)> {
    let mut index: Vec<(u64, u32)> = ids.iter().zip(0u32..).map(|(&id, i)| (id, i)).collect();
    index.sort_unstable();
    index
}

/// Position of `id` in the column `index` was built from.
fn look_up(index: &OnceLock<Vec<(u64, u32)>>, ids: &[u64], id: u64) -> Option<u32> {
    let index = index.get_or_init(|| sorted_index(ids));
    let at = index.binary_search_by_key(&id, |&(k, _)| k).ok()?;
    Some(index[at].1)
}

/// Some id that occurs twice in `ids`, if any. Generators and the GoFS
/// writer emit strictly increasing ids, which one scan proves unique; any
/// other order pays a sort of a copy.
fn repeated_id(ids: &[u64]) -> Option<u64> {
    if ids.windows(2).all(|w| w[0] < w[1]) {
        return None;
    }
    let mut sorted = ids.to_vec();
    sorted.sort_unstable();
    sorted.windows(2).find(|w| w[0] == w[1]).map(|w| w[0])
}

impl GraphTemplate {
    /// Conventional name of the boolean attribute that simulates slow
    /// topology churn (paper §II.A): a vertex/edge with `isExists = false`
    /// in an instance is treated as absent at that timestep.
    pub const IS_EXISTS: &'static str = "isExists";

    /// Human-readable dataset name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether edges are directed. Undirected templates store each physical
    /// edge once but list it in both endpoints' adjacency.
    pub fn directed(&self) -> bool {
        self.directed
    }

    /// Number of vertices `|V̂|`.
    pub fn num_vertices(&self) -> usize {
        self.vertex_ids.len()
    }

    /// Number of (physical) edges `|Ê|`.
    pub fn num_edges(&self) -> usize {
        self.edge_ids.len()
    }

    /// External id of a vertex.
    pub fn vertex_id(&self, v: VertexIdx) -> u64 {
        self.vertex_ids[v.idx()]
    }

    /// External id of an edge.
    pub fn edge_id(&self, e: EdgeIdx) -> u64 {
        self.edge_ids[e.idx()]
    }

    /// Dense index for an external vertex id. The first call builds the
    /// lookup index (a sort of `|V|` pairs).
    pub fn vertex_by_id(&self, id: u64) -> Result<VertexIdx> {
        look_up(&self.vertex_index, &self.vertex_ids, id)
            .map(VertexIdx)
            .ok_or(CoreError::UnknownVertexId(id))
    }

    /// Dense index for an external edge id. The first call builds the
    /// lookup index (a sort of `|E|` pairs).
    pub fn edge_by_id(&self, id: u64) -> Result<EdgeIdx> {
        look_up(&self.edge_index, &self.edge_ids, id)
            .map(EdgeIdx)
            .ok_or(CoreError::UnknownEdgeId(id))
    }

    /// `(source, target)` endpoints of an edge as added to the builder.
    pub fn endpoints(&self, e: EdgeIdx) -> (VertexIdx, VertexIdx) {
        self.edge_endpoints[e.idx()]
    }

    /// Every edge's `(source, target)` endpoints, by [`EdgeIdx`].
    pub fn edge_endpoints(&self) -> &[(VertexIdx, VertexIdx)] {
        &self.edge_endpoints
    }

    /// Out-neighbours of `v` (both directions' neighbours when undirected),
    /// sorted by (neighbour, edge). The first call builds the whole-graph
    /// CSR (a pass over the endpoints and a sort per vertex).
    #[inline]
    pub fn neighbors(&self, v: VertexIdx) -> &[Neighbor] {
        let csr = self
            .csr
            .get_or_init(|| Csr::build(self.num_vertices(), self.directed, &self.edge_endpoints));
        let lo = csr.offsets[v.idx()] as usize;
        let hi = csr.offsets[v.idx() + 1] as usize;
        &csr.adjacency[lo..hi]
    }

    /// Out-degree of `v` (total adjacency degree when undirected).
    pub fn degree(&self, v: VertexIdx) -> usize {
        self.neighbors(v).len()
    }

    /// Iterate all vertex indices.
    pub fn vertices(&self) -> impl Iterator<Item = VertexIdx> + '_ {
        (0..self.vertex_ids.len() as u32).map(VertexIdx)
    }

    /// Iterate all edge indices.
    pub fn edges(&self) -> impl Iterator<Item = EdgeIdx> + '_ {
        (0..self.edge_ids.len() as u32).map(EdgeIdx)
    }

    /// Schema of the time-variant vertex attributes.
    pub fn vertex_schema(&self) -> &Schema {
        &self.vertex_schema
    }

    /// Schema of the time-variant edge attributes.
    pub fn edge_schema(&self) -> &Schema {
        &self.edge_schema
    }

    /// Estimate the diameter with a double-sweep BFS lower bound (exact BFS
    /// eccentricity from the vertex found by the first sweep). Standard,
    /// cheap and accurate on both road networks and small-world graphs;
    /// used to reproduce the paper's dataset table.
    pub fn approx_diameter(&self) -> usize {
        if self.num_vertices() == 0 {
            return 0;
        }
        let (far, _) = self.bfs_farthest(VertexIdx(0));
        let (_, dist) = self.bfs_farthest(far);
        dist
    }

    fn bfs_farthest(&self, src: VertexIdx) -> (VertexIdx, usize) {
        let mut dist = vec![u32::MAX; self.num_vertices()];
        let mut queue = std::collections::VecDeque::new();
        dist[src.idx()] = 0;
        queue.push_back(src);
        let mut far = src;
        let mut far_d = 0usize;
        while let Some(u) = queue.pop_front() {
            let du = dist[u.idx()];
            for n in self.neighbors(u) {
                let d = &mut dist[n.vertex.idx()];
                if *d == u32::MAX {
                    *d = du + 1;
                    if (du + 1) as usize > far_d {
                        far_d = (du + 1) as usize;
                        far = n.vertex;
                    }
                    queue.push_back(n.vertex);
                }
            }
        }
        (far, far_d)
    }
}

/// Incrementally constructs a [`GraphTemplate`]; call
/// [`TemplateBuilder::finalize`] to validate and freeze it.
#[derive(Debug)]
pub struct TemplateBuilder {
    name: String,
    directed: bool,
    vertex_ids: Vec<u64>,
    id_to_idx: HashMap<u64, VertexIdx>,
    edge_ids: Vec<u64>,
    edge_id_to_idx: HashMap<u64, EdgeIdx>,
    edge_endpoints: Vec<(VertexIdx, VertexIdx)>,
    vertex_schema: Schema,
    edge_schema: Schema,
}

impl TemplateBuilder {
    /// Start a template named `name`; `directed` fixes edge semantics.
    pub fn new(name: impl Into<String>, directed: bool) -> Self {
        Self {
            name: name.into(),
            directed,
            vertex_ids: Vec::new(),
            id_to_idx: HashMap::new(),
            edge_ids: Vec::new(),
            edge_id_to_idx: HashMap::new(),
            edge_endpoints: Vec::new(),
            vertex_schema: Schema::new(),
            edge_schema: Schema::new(),
        }
    }

    /// Mutable access to the vertex attribute schema.
    pub fn vertex_schema(&mut self) -> &mut Schema {
        &mut self.vertex_schema
    }

    /// Mutable access to the edge attribute schema.
    pub fn edge_schema(&mut self) -> &mut Schema {
        &mut self.edge_schema
    }

    /// Add a vertex with external id `id`; returns its dense index.
    /// Re-adding an existing id returns the existing index.
    pub fn add_vertex(&mut self, id: u64) -> VertexIdx {
        if let Some(&idx) = self.id_to_idx.get(&id) {
            return idx;
        }
        let idx = VertexIdx(self.vertex_ids.len() as u32);
        self.vertex_ids.push(id);
        self.id_to_idx.insert(id, idx);
        idx
    }

    /// Add an edge with external id `edge_id` between external vertex ids.
    /// Both endpoints must already exist.
    pub fn add_edge(&mut self, edge_id: u64, src_id: u64, dst_id: u64) -> Result<EdgeIdx> {
        let src = *self
            .id_to_idx
            .get(&src_id)
            .ok_or(CoreError::UnknownVertexId(src_id))?;
        let dst = *self
            .id_to_idx
            .get(&dst_id)
            .ok_or(CoreError::UnknownVertexId(dst_id))?;
        self.add_edge_by_idx(edge_id, src, dst)
    }

    /// Add an edge between dense indices (faster bulk path for generators).
    pub fn add_edge_by_idx(
        &mut self,
        edge_id: u64,
        src: VertexIdx,
        dst: VertexIdx,
    ) -> Result<EdgeIdx> {
        if self.edge_id_to_idx.contains_key(&edge_id) {
            return Err(CoreError::DuplicateEdgeId(edge_id));
        }
        let idx = EdgeIdx(self.edge_ids.len() as u32);
        self.edge_ids.push(edge_id);
        self.edge_id_to_idx.insert(edge_id, idx);
        self.edge_endpoints.push((src, dst));
        Ok(idx)
    }

    /// Number of vertices added so far.
    pub fn num_vertices(&self) -> usize {
        self.vertex_ids.len()
    }

    /// Number of edges added so far.
    pub fn num_edges(&self) -> usize {
        self.edge_ids.len()
    }

    /// Validate schemas, ids and endpoints and freeze the template.
    pub fn finalize(self) -> Result<GraphTemplate> {
        GraphTemplate::from_parts(
            self.name,
            self.directed,
            self.vertex_schema,
            self.edge_schema,
            self.vertex_ids,
            self.edge_ids,
            self.edge_endpoints,
        )
    }
}

impl GraphTemplate {
    /// Freeze a template from its columns: external vertex ids by
    /// [`VertexIdx`], external edge ids and `(source, target)` endpoints by
    /// [`EdgeIdx`]. Validates the schemas, the `u32` capacities, id
    /// uniqueness and endpoint range — for both
    /// [`TemplateBuilder::finalize`] and the GoFS template decoder — and
    /// builds no adjacency: [`Self::neighbors`] builds it on first use.
    pub fn from_parts(
        name: String,
        directed: bool,
        vertex_schema: Schema,
        edge_schema: Schema,
        vertex_ids: Vec<u64>,
        edge_ids: Vec<u64>,
        edge_endpoints: Vec<(VertexIdx, VertexIdx)>,
    ) -> Result<GraphTemplate> {
        vertex_schema.validate()?;
        edge_schema.validate()?;
        if vertex_ids.len() > u32::MAX as usize {
            return Err(CoreError::CapacityExceeded("vertices"));
        }
        if edge_ids.len() > u32::MAX as usize {
            return Err(CoreError::CapacityExceeded("edges"));
        }
        // CSR offsets are u32: an undirected edge takes two entries.
        if edge_ids.len() * if directed { 1 } else { 2 } > u32::MAX as usize {
            return Err(CoreError::CapacityExceeded("adjacency entries"));
        }
        if edge_ids.len() != edge_endpoints.len() {
            return Err(CoreError::TemplateMismatch(format!(
                "{} edge ids but {} endpoint pairs",
                edge_ids.len(),
                edge_endpoints.len()
            )));
        }
        if let Some(id) = repeated_id(&vertex_ids) {
            return Err(CoreError::DuplicateVertexId(id));
        }
        if let Some(id) = repeated_id(&edge_ids) {
            return Err(CoreError::DuplicateEdgeId(id));
        }

        let nv = vertex_ids.len();
        for (&(s, d), &edge) in edge_endpoints.iter().zip(&edge_ids) {
            if let Some(bad) = [s, d].into_iter().find(|v| v.idx() >= nv) {
                return Err(CoreError::EndpointOutOfRange {
                    edge,
                    vertex: bad.0,
                });
            }
        }

        Ok(GraphTemplate {
            name,
            directed,
            vertex_ids,
            edge_ids,
            edge_endpoints,
            csr: OnceLock::new(),
            vertex_index: OnceLock::new(),
            edge_index: OnceLock::new(),
            vertex_schema,
            edge_schema,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::AttrType;

    fn path_graph(n: u64, directed: bool) -> GraphTemplate {
        let mut b = TemplateBuilder::new("path", directed);
        for i in 0..n {
            b.add_vertex(i * 10);
        }
        for i in 0..n - 1 {
            b.add_edge(i, i * 10, (i + 1) * 10).unwrap();
        }
        b.finalize().unwrap()
    }

    #[test]
    fn build_undirected_path() {
        let g = path_graph(4, false);
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 3);
        // middle vertex has two neighbours
        let v1 = g.vertex_by_id(10).unwrap();
        assert_eq!(g.degree(v1), 2);
        // endpoints have one
        assert_eq!(g.degree(g.vertex_by_id(0).unwrap()), 1);
        assert_eq!(g.degree(g.vertex_by_id(30).unwrap()), 1);
    }

    #[test]
    fn build_directed_path() {
        let g = path_graph(4, true);
        assert_eq!(g.degree(g.vertex_by_id(0).unwrap()), 1);
        assert_eq!(g.degree(g.vertex_by_id(30).unwrap()), 0); // sink
    }

    #[test]
    fn undirected_edge_shares_edge_idx() {
        let g = path_graph(3, false);
        let v0 = g.vertex_by_id(0).unwrap();
        let v1 = g.vertex_by_id(10).unwrap();
        let fwd = g.neighbors(v0).iter().find(|n| n.vertex == v1).unwrap();
        let rev = g.neighbors(v1).iter().find(|n| n.vertex == v0).unwrap();
        assert_eq!(fwd.edge, rev.edge);
    }

    #[test]
    fn duplicate_vertex_id_is_idempotent() {
        let mut b = TemplateBuilder::new("t", false);
        let a = b.add_vertex(5);
        let c = b.add_vertex(5);
        assert_eq!(a, c);
        assert_eq!(b.num_vertices(), 1);
    }

    #[test]
    fn duplicate_edge_id_rejected() {
        let mut b = TemplateBuilder::new("t", false);
        b.add_vertex(1);
        b.add_vertex(2);
        b.add_edge(9, 1, 2).unwrap();
        assert_eq!(b.add_edge(9, 2, 1), Err(CoreError::DuplicateEdgeId(9)));
    }

    #[test]
    fn edge_to_unknown_vertex_rejected() {
        let mut b = TemplateBuilder::new("t", false);
        b.add_vertex(1);
        assert_eq!(b.add_edge(0, 1, 99), Err(CoreError::UnknownVertexId(99)));
    }

    #[test]
    fn lookup_roundtrips() {
        let g = path_graph(3, false);
        for v in g.vertices() {
            assert_eq!(g.vertex_by_id(g.vertex_id(v)).unwrap(), v);
        }
        for e in g.edges() {
            assert_eq!(g.edge_by_id(g.edge_id(e)).unwrap(), e);
        }
        assert!(g.vertex_by_id(12345).is_err());
        assert!(g.edge_by_id(12345).is_err());
    }

    #[test]
    fn lookup_works_for_unordered_ids() {
        let mut b = TemplateBuilder::new("t", false);
        for id in [30, 10, 20] {
            b.add_vertex(id);
        }
        b.add_edge(7, 30, 10).unwrap();
        b.add_edge(2, 10, 20).unwrap();
        let g = b.finalize().unwrap();
        assert_eq!(g.vertex_by_id(20), Ok(VertexIdx(2)));
        assert_eq!(g.vertex_by_id(30), Ok(VertexIdx(0)));
        assert_eq!(g.edge_by_id(2), Ok(EdgeIdx(1)));
        assert_eq!(g.edge_by_id(3), Err(CoreError::UnknownEdgeId(3)));
    }

    #[test]
    fn from_parts_rejects_bad_columns() {
        let parts = |vids: Vec<u64>, eids: Vec<u64>, ends: Vec<(u32, u32)>| {
            GraphTemplate::from_parts(
                "t".into(),
                false,
                Schema::new(),
                Schema::new(),
                vids,
                eids,
                ends.into_iter()
                    .map(|(s, d)| (VertexIdx(s), VertexIdx(d)))
                    .collect(),
            )
        };
        assert!(parts(vec![5, 1, 9], vec![0], vec![(2, 0)]).is_ok());
        assert_eq!(
            parts(vec![5, 1, 5], vec![], vec![]).err(),
            Some(CoreError::DuplicateVertexId(5))
        );
        assert_eq!(
            parts(vec![1, 2], vec![4, 4], vec![(0, 1), (1, 0)]).err(),
            Some(CoreError::DuplicateEdgeId(4))
        );
        assert_eq!(
            parts(vec![1, 2], vec![4], vec![(0, 2)]).err(),
            Some(CoreError::EndpointOutOfRange { edge: 4, vertex: 2 })
        );
        assert!(parts(vec![1, 2], vec![4], vec![]).is_err());
    }

    #[test]
    fn out_of_range_index_edge_is_an_error_at_finalize() {
        let mut b = TemplateBuilder::new("t", true);
        b.add_vertex(1);
        b.add_edge_by_idx(0, VertexIdx(0), VertexIdx(3)).unwrap();
        assert_eq!(
            b.finalize().err(),
            Some(CoreError::EndpointOutOfRange { edge: 0, vertex: 3 })
        );
    }

    #[test]
    fn endpoints_preserved() {
        let g = path_graph(3, false);
        let e0 = g.edge_by_id(0).unwrap();
        let (s, d) = g.endpoints(e0);
        assert_eq!(g.vertex_id(s), 0);
        assert_eq!(g.vertex_id(d), 10);
    }

    #[test]
    fn adjacency_is_sorted() {
        let mut b = TemplateBuilder::new("star", false);
        for i in 0..5 {
            b.add_vertex(i);
        }
        // insert spokes in reverse order
        for (eid, i) in (1..5).rev().enumerate() {
            b.add_edge(eid as u64, 0, i).unwrap();
        }
        let g = b.finalize().unwrap();
        let hub = g.vertex_by_id(0).unwrap();
        let ns: Vec<_> = g.neighbors(hub).iter().map(|n| n.vertex.0).collect();
        let mut sorted = ns.clone();
        sorted.sort_unstable();
        assert_eq!(ns, sorted);
    }

    #[test]
    fn the_csr_is_built_by_the_first_neighbors_call_only() {
        // Out of insertion order, with a self-loop and a parallel pair.
        let ends = [(3, 1), (0, 2), (2, 2), (1, 3), (2, 0), (3, 0), (1, 2)];
        for directed in [false, true] {
            let g = GraphTemplate::from_parts(
                "csr".into(),
                directed,
                Schema::new(),
                Schema::new(),
                vec![40, 10, 30, 20],
                (0..ends.len() as u64).map(|e| 100 - e).collect(),
                ends.iter()
                    .map(|&(s, d)| (VertexIdx(s), VertexIdx(d)))
                    .collect(),
            )
            .unwrap();
            assert!(g.csr.get().is_none(), "from_parts built the CSR");
            // Reference: every entry from the endpoints, sorted per vertex.
            let mut want: Vec<Vec<(u32, u32)>> = vec![Vec::new(); 4];
            for (e, &(s, d)) in (0u32..).zip(&ends) {
                want[s as usize].push((d, e));
                if !directed {
                    want[d as usize].push((s, e));
                }
            }
            for (v, list) in (0u32..).zip(&mut want) {
                list.sort_unstable();
                let got: Vec<(u32, u32)> = g
                    .neighbors(VertexIdx(v))
                    .iter()
                    .map(|n| (n.vertex.0, n.edge.0))
                    .collect();
                assert_eq!(&got, list, "vertex {v}, directed {directed}");
            }
            // Built once: later calls read the same allocation.
            let built = g.csr.get().expect("neighbors built the CSR");
            assert!(std::ptr::eq(
                g.neighbors(VertexIdx(2)).as_ptr(),
                built.adjacency[built.offsets[2] as usize..].as_ptr()
            ));
            assert_eq!(g.degree(VertexIdx(2)), want[2].len());
        }
    }

    #[test]
    fn diameter_of_path() {
        let g = path_graph(10, false);
        assert_eq!(g.approx_diameter(), 9);
    }

    #[test]
    fn diameter_of_empty_and_single() {
        let b = TemplateBuilder::new("empty", false);
        assert_eq!(b.finalize().unwrap().approx_diameter(), 0);
        let mut b = TemplateBuilder::new("one", false);
        b.add_vertex(1);
        assert_eq!(b.finalize().unwrap().approx_diameter(), 0);
    }

    #[test]
    fn schema_validation_at_finalize() {
        let mut b = TemplateBuilder::new("t", false);
        b.vertex_schema().add("x", AttrType::Long);
        b.vertex_schema().add("x", AttrType::Double);
        assert!(b.finalize().is_err());
    }
}
