//! Instance data projected onto one subgraph, one type per direction:
//! [`Projection`], the *writable* plain [`Column`]s the writer buffers
//! `packing × subgraphs` of (so it stays nothing but its columns), and
//! [`SubgraphInstance`], the reader's **column-lazy** form — it keeps its
//! block of the slice file as zero-copy [`Bytes`] and decodes a column the
//! first time an accessor asks for it, so a program that reads `latency`
//! never pays for `tweets`.

use crate::codec;
use crate::error::{GofsError, Result};
use bytes::{Buf, Bytes};
use std::sync::{Arc, OnceLock};
use tempograph_core::{AttrType, Column, CoreError, GraphInstance, TextRows};
use tempograph_partition::{Subgraph, SubgraphId};

/// The slice of one [`GraphInstance`] visible to one subgraph, as plain
/// columns:
///
/// * vertex attribute rows in **local-position order** (row `p` belongs to
///   `subgraph.vertex_at(p)`);
/// * edge attribute rows in **edge-position order** (row `q` belongs to
///   `subgraph.edges()[q]`; translate with
///   [`Subgraph::edge_pos`](tempograph_partition::Subgraph::edge_pos)).
///
/// This is what GoFS stores in slice files.
#[derive(Clone, Debug, PartialEq)]
pub struct Projection {
    /// Timestep index within the dataset (0-based).
    pub timestep: usize,
    /// Wall-clock timestamp `t0 + timestep·δ`.
    pub timestamp: i64,
    /// Vertex columns, schema order; rows by local position.
    pub vertex_cols: Vec<Column>,
    /// Edge columns, schema order; rows by subgraph edge position.
    pub edge_cols: Vec<Column>,
}

impl Projection {
    /// Project a full instance onto `subgraph`.
    pub fn project(instance: &GraphInstance, subgraph: &Subgraph, timestep: usize) -> Self {
        let vrows: Vec<u32> = subgraph.vertices().iter().map(|v| v.0).collect();
        let erows: Vec<u32> = subgraph.edges().iter().map(|e| e.0).collect();
        let gather = |cols: &[Column], rows| cols.iter().map(|c| c.gather_rows(rows)).collect();
        Projection {
            timestep,
            timestamp: instance.timestamp(),
            vertex_cols: gather(instance.vertex_columns(), &vrows),
            edge_cols: gather(instance.edge_columns(), &erows),
        }
    }
}

/// One column as a reader holds it — the single decoded form: text flat
/// (see [`TextRows`]), everything else the plain [`Column`].
#[derive(Clone, Debug, PartialEq)]
pub enum DecodedColumn {
    /// A `Long`, `Double`, `Bool` or `LongList` column (never a text one).
    Plain(Column),
    /// A `Text` column: one string per row.
    Text(Box<TextRows>),
    /// A `TextList` column.
    TextList(Box<TextRows>),
}

impl DecodedColumn {
    /// The column's element type.
    pub fn ty(&self) -> AttrType {
        match self {
            DecodedColumn::Plain(c) => c.ty(),
            DecodedColumn::Text(_) => AttrType::Text,
            DecodedColumn::TextList(_) => AttrType::TextList,
        }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        match self {
            DecodedColumn::Plain(c) => c.len(),
            DecodedColumn::Text(t) | DecodedColumn::TextList(t) => t.len(),
        }
    }

    /// Approximate heap bytes held.
    pub fn approx_bytes(&self) -> usize {
        match self {
            DecodedColumn::Plain(c) => c.approx_bytes(),
            DecodedColumn::Text(t) | DecodedColumn::TextList(t) => t.heap_bytes(),
        }
    }
}

impl From<Column> for DecodedColumn {
    fn from(col: Column) -> Self {
        match col {
            Column::Text(v) => DecodedColumn::Text(Box::new(TextRows::from_rows(
                v.iter().map(|s| std::iter::once(s.as_str())),
            ))),
            Column::TextList(v) => DecodedColumn::TextList(Box::new(TextRows::from_rows(
                v.iter().map(|l| l.iter().map(String::as_str)),
            ))),
            plain => DecodedColumn::Plain(plain),
        }
    }
}

/// A [`Projection`] as a reader sees it — what the engine hands to the
/// user's `Compute` for each timestep: the same rows in the same order,
/// each column decoded on first touch and cached (`OnceLock`, so programs
/// running in parallel over one shared instance decode it once).
/// Equality is semantic: it forces and compares every column.
#[derive(Debug)]
pub struct SubgraphInstance {
    /// Timestep index within the dataset (0-based).
    pub timestep: usize,
    /// Wall-clock timestamp `t0 + timestep·δ`.
    pub timestamp: i64,
    pub(crate) n_vertex_cols: usize,
    /// Vertex then edge columns, schema order.
    pub(crate) cols: Box<[OnceLock<DecodedColumn>]>,
    /// Named in decode errors.
    pub(crate) sg: SubgraphId,
    /// The stored block the columns decode from: one record per column,
    /// found by walking ([`codec::skip_column`]) — the slice directory has
    /// no per-column offsets. Empty for an in-memory projection, whose
    /// columns are all set already.
    pub(crate) block: Bytes,
    /// The pack's first instance, whose same column a delta record patches
    /// (`None`: the records are full ones).
    pub(crate) base: Option<Arc<SubgraphInstance>>,
}

impl SubgraphInstance {
    /// Project a full instance onto `subgraph`, converting the columns to
    /// the reader's form once (the in-memory source).
    pub fn project(instance: &GraphInstance, subgraph: &Subgraph, timestep: usize) -> Self {
        Projection::project(instance, subgraph, timestep).into()
    }

    /// Vertex column `col` (schema position), decoded on first touch.
    /// Corruption found then is [`GofsError::Corrupt`] naming subgraph,
    /// timestep and column, and fails this column only.
    pub fn vertex_col(&self, col: usize) -> Result<&DecodedColumn> {
        self.column(col, self.n_vertex_cols)
    }

    /// Edge column `col` (schema position); see [`Self::vertex_col`].
    pub fn edge_col(&self, col: usize) -> Result<&DecodedColumn> {
        self.column(self.n_vertex_cols + col, self.cols.len())
    }

    /// Column `i`, which must be among the first `end`.
    fn column(&self, i: usize, end: usize) -> Result<&DecodedColumn> {
        let cell = (self.cols.get(..end).and_then(|cols| cols.get(i)))
            .ok_or_else(|| GofsError::OutOfRange(format!("column {i} of {end}")))?;
        if let Some(col) = cell.get() {
            return Ok(col);
        }
        let col = self.decode(i).map_err(|e| {
            let at = format!("{} timestep {} column {i}", self.sg, self.timestep);
            GofsError::Corrupt(format!("{at}: {e}"))
        })?;
        Ok(cell.get_or_init(|| col))
    }

    /// Walk the block to record `i` and decode it; whoever decodes the
    /// last record also vets that the block ends there.
    fn decode(&self, i: usize) -> Result<DecodedColumn> {
        let mut buf = self.block.clone();
        let base = self.base.as_deref();
        for _ in 0..i {
            match base {
                None => codec::skip_column(&mut buf)?,
                Some(_) => codec::skip_delta_column(&mut buf)?,
            }
        }
        let col = match base {
            None => codec::get_column(&mut buf)?,
            Some(base) => codec::get_delta_column(&mut buf, base.column(i, base.cols.len())?)?,
        };
        let left = buf.remaining();
        if left > 0 && i + 1 == self.cols.len() {
            return Err(GofsError::Corrupt(format!(
                "{left} trailing bytes in block"
            )));
        }
        Ok(col)
    }

    /// Borrow a `Double` vertex column by schema position.
    pub fn vertex_f64(&self, col: usize) -> Result<&[f64]> {
        match self.vertex_col(col)? {
            DecodedColumn::Plain(Column::Double(v)) => Ok(v),
            c => Err(mismatch(c.ty(), AttrType::Double)),
        }
    }

    /// Borrow a `Long` vertex column by schema position.
    pub fn vertex_i64(&self, col: usize) -> Result<&[i64]> {
        match self.vertex_col(col)? {
            DecodedColumn::Plain(Column::Long(v)) => Ok(v),
            c => Err(mismatch(c.ty(), AttrType::Long)),
        }
    }

    /// Borrow a `TextList` vertex column by schema position.
    pub fn vertex_text_list(&self, col: usize) -> Result<&TextRows> {
        match self.vertex_col(col)? {
            DecodedColumn::TextList(t) => Ok(t),
            c => Err(mismatch(c.ty(), AttrType::TextList)),
        }
    }

    /// Borrow a `Bool` vertex column by schema position.
    pub fn vertex_bool(&self, col: usize) -> Result<&[bool]> {
        match self.vertex_col(col)? {
            DecodedColumn::Plain(Column::Bool(v)) => Ok(v),
            c => Err(mismatch(c.ty(), AttrType::Bool)),
        }
    }

    /// Borrow a `Double` edge column by schema position.
    pub fn edge_f64(&self, col: usize) -> Result<&[f64]> {
        match self.edge_col(col)? {
            DecodedColumn::Plain(Column::Double(v)) => Ok(v),
            c => Err(mismatch(c.ty(), AttrType::Double)),
        }
    }

    /// Borrow a `Long` edge column by schema position.
    pub fn edge_i64(&self, col: usize) -> Result<&[i64]> {
        match self.edge_col(col)? {
            DecodedColumn::Plain(Column::Long(v)) => Ok(v),
            c => Err(mismatch(c.ty(), AttrType::Long)),
        }
    }

    /// The columns decoded so far.
    pub fn decoded(&self) -> impl Iterator<Item = &DecodedColumn> {
        self.cols.iter().filter_map(|c| c.get())
    }
}

impl From<Projection> for SubgraphInstance {
    fn from(p: Projection) -> Self {
        SubgraphInstance {
            timestep: p.timestep,
            timestamp: p.timestamp,
            n_vertex_cols: p.vertex_cols.len(),
            cols: (p.vertex_cols.into_iter().chain(p.edge_cols))
                .map(|c| OnceLock::from(DecodedColumn::from(c)))
                .collect(),
            sg: SubgraphId(0),
            block: Bytes::new(),
            base: None,
        }
    }
}

impl PartialEq for SubgraphInstance {
    fn eq(&self, other: &Self) -> bool {
        let shape = |s: &Self| (s.timestep, s.timestamp, s.n_vertex_cols, s.cols.len());
        let n = self.cols.len();
        let same = |i| matches!((self.column(i, n), other.column(i, n)), (Ok(a), Ok(b)) if a == b);
        shape(self) == shape(other) && (0..n).all(same)
    }
}

fn mismatch(expected: AttrType, got: AttrType) -> GofsError {
    GofsError::Core(CoreError::AttributeTypeMismatch {
        name: "<projected column>".into(),
        expected,
        got,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tempograph_core::{AttrType, TemplateBuilder, VertexIdx};
    use tempograph_partition::{discover_subgraphs, Partitioning};

    /// Path 0-1-2-3 split into partitions {0,1} and {2,3}.
    fn setup() -> (
        Arc<tempograph_core::GraphTemplate>,
        tempograph_partition::PartitionedGraph,
        GraphInstance,
    ) {
        let mut b = TemplateBuilder::new("t", false);
        b.vertex_schema().add("load", AttrType::Double);
        b.edge_schema().add("lat", AttrType::Double);
        for i in 0..4 {
            b.add_vertex(i);
        }
        for i in 0..3u64 {
            b.add_edge(i, i, i + 1).unwrap();
        }
        let t = Arc::new(b.finalize().unwrap());
        let pg = discover_subgraphs(
            t.clone(),
            Partitioning {
                assignment: vec![0, 0, 1, 1],
                k: 2,
            },
        );
        let mut g = GraphInstance::new(&t, 0);
        g.vertex_f64_mut("load")
            .unwrap()
            .copy_from_slice(&[10.0, 11.0, 12.0, 13.0]);
        g.edge_f64_mut("lat")
            .unwrap()
            .copy_from_slice(&[0.5, 1.5, 2.5]);
        (t, pg, g)
    }

    #[test]
    fn projection_selects_member_rows() {
        let (_, pg, g) = setup();
        let sg = pg.subgraph(pg.subgraph_of_vertex(VertexIdx(2)));
        let si = SubgraphInstance::project(&g, sg, 0);
        // Subgraph {2,3}: loads 12, 13.
        assert_eq!(si.vertex_f64(0).unwrap(), &[12.0, 13.0]);
        // Edges touching {2,3}: edge 1 (1-2, crossing) and edge 2 (2-3).
        assert_eq!(sg.edges().len(), 2);
        assert_eq!(si.edge_f64(0).unwrap(), &[1.5, 2.5]);
    }

    #[test]
    fn edge_pos_maps_into_projected_rows() {
        let (t, pg, g) = setup();
        let sg = pg.subgraph(pg.subgraph_of_vertex(VertexIdx(2)));
        let si = SubgraphInstance::project(&g, sg, 0);
        let crossing = t.edge_by_id(1).unwrap();
        let q = sg.edge_pos(crossing).unwrap();
        assert_eq!(si.edge_f64(0).unwrap()[q as usize], 1.5);
    }

    #[test]
    fn type_mismatch_on_wrong_accessor() {
        let (_, pg, g) = setup();
        let sg = pg.subgraph(pg.subgraph_of_vertex(VertexIdx(0)));
        let si = SubgraphInstance::project(&g, sg, 3);
        assert_eq!(si.timestep, 3);
        assert!(si.vertex_i64(0).is_err());
        assert!(si.vertex_text_list(0).is_err());
    }

    #[test]
    fn approx_bytes_counts_rows() {
        let (_, pg, g) = setup();
        let sg = pg.subgraph(pg.subgraph_of_vertex(VertexIdx(0)));
        let si = SubgraphInstance::project(&g, sg, 0);
        // 2 vertices × 8 bytes + 2 edges × 8 bytes
        assert_eq!(si.decoded().map(|c| c.approx_bytes()).sum::<usize>(), 32);
    }
}
