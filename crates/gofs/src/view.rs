//! Instance data projected onto one subgraph, one type per direction, both
//! over the one column type, [`Column`]: [`Projection`], the columns the
//! writer buffers `packing × subgraphs` of (so it stays nothing but its
//! columns), and [`SubgraphInstance`], the reader's **column-lazy** form —
//! it keeps its block of the slice file as zero-copy [`Bytes`] and decodes
//! a column the first time an accessor asks for it, so a program that
//! reads `latency` never pays for `tweets`. A dense `Double` column need
//! not be decoded at all: [`SubgraphInstance::edge_f64_cells`] reads its
//! cells where they lie.

use crate::codec::{self, TextMatches};
use crate::error::{GofsError, Result};
use bytes::{Buf, Bytes};
use std::borrow::Cow;
use std::ops::Range;
use std::sync::{Arc, OnceLock};
use tempograph_core::{AttrType, Column, CoreError, GraphInstance, TextRows};
use tempograph_partition::{Subgraph, SubgraphId};

/// The slice of one [`GraphInstance`] visible to one subgraph, as plain
/// columns:
///
/// * vertex attribute rows in **local-position order** (row `p` belongs to
///   `subgraph.vertex_at(p)`);
/// * edge attribute rows in **edge-row order** (row `q` belongs to
///   `subgraph.edges()[q]`; every adjacency entry of the subgraph names its
///   edge by this row).
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

/// The cells of a `Double` column as [`SubgraphInstance::edge_f64_cells`]
/// hands them out: row `q` is [`F64Cells::get`]`(q)` either way.
#[derive(Clone, Copy, Debug)]
pub enum F64Cells<'a> {
    /// Little-endian words read in place from the slice file's bytes: a
    /// plain record, or a dense delta record.
    Raw(&'a [[u8; 8]]),
    /// The decoded column: a sparse delta record, or an in-memory
    /// projection.
    Decoded(&'a [f64]),
}

impl F64Cells<'_> {
    /// Row `q`; panics when `q` is out of range, like slice indexing.
    #[inline]
    pub fn get(&self, q: usize) -> f64 {
        match self {
            F64Cells::Raw(words) => f64::from_le_bytes(words[q]),
            F64Cells::Decoded(v) => v[q],
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            F64Cells::Raw(words) => words.len(),
            F64Cells::Decoded(v) => v.len(),
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One column of a [`SubgraphInstance`]: where its record ends in the
/// block, found once (it starts where the previous one ends), and its
/// decoded form, made once and boxed, so the slot is 32 bytes.
#[derive(Debug, Default)]
pub(crate) struct Col {
    end: OnceLock<usize>,
    /// What [`codec::get_column`] / [`codec::get_delta_column`] made of it.
    decoded: OnceLock<Box<Column>>,
}

/// A pack base's [`TextMatches`] of one needle in one column, kept for
/// its deltas' counts.
#[derive(Debug)]
pub(crate) struct Kept {
    col: usize,
    matches: TextMatches,
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
    /// A `u32`, as the slice header stores it, so it packs beside `sg`.
    pub(crate) n_vertex_cols: u32,
    /// Named in decode errors.
    pub(crate) sg: SubgraphId,
    /// Vertex then edge columns, schema order.
    pub(crate) cols: Box<[Col]>,
    /// The stored block the columns decode from: one record per column,
    /// found by walking ([`codec::skip_column`]) — the slice directory has
    /// no per-column offsets. Empty for an in-memory projection, whose
    /// columns are all decoded already.
    pub(crate) block: Bytes,
    /// The pack's first instance, whose same column a delta record patches
    /// (`None`: the records are full ones).
    pub(crate) base: Option<Arc<SubgraphInstance>>,
    /// A pack base's needle matches, for one `(column, needle)`: what
    /// [`Self::vertex_text_count_eq`] reads at the base and at each of
    /// its deltas. One slot is enough for a program that counts one tag;
    /// another `(column, needle)` is walked afresh each time.
    pub(crate) kept: OnceLock<Box<Kept>>,
}

impl SubgraphInstance {
    /// Project a full instance onto `subgraph` (the in-memory source).
    pub fn project(instance: &GraphInstance, subgraph: &Subgraph, timestep: usize) -> Self {
        Projection::project(instance, subgraph, timestep).into()
    }

    /// Vertex column `col` (schema position), decoded on first touch.
    /// Corruption found then is [`GofsError::Corrupt`] naming subgraph,
    /// timestep and column, and fails this column only.
    pub fn vertex_col(&self, col: usize) -> Result<&Column> {
        self.column(col, self.n_vertex_cols as usize)
    }

    /// Edge column `col` (schema position); see [`Self::vertex_col`].
    pub fn edge_col(&self, col: usize) -> Result<&Column> {
        self.column(self.n_vertex_cols as usize + col, self.cols.len())
    }

    /// Column `i`, which must be among the first `end`.
    fn column(&self, i: usize, end: usize) -> Result<&Column> {
        let cell = (self.cols.get(..end).and_then(|cols| cols.get(i)))
            .ok_or_else(|| GofsError::OutOfRange(format!("column {i} of {end}")))?;
        if let Some(col) = cell.decoded.get() {
            return Ok(col);
        }
        let col = self.decode(i).map_err(|e| self.corrupt(i, e))?;
        Ok(cell.decoded.get_or_init(|| Box::new(col)))
    }

    /// `e`, met reading column `i`, as the error that names where.
    fn corrupt(&self, i: usize, e: GofsError) -> GofsError {
        let at = format!("{} timestep {} column {i}", self.sg, self.timestep);
        GofsError::Corrupt(format!("{at}: {e}"))
    }

    /// Decode record `i`, noting where it ends.
    fn decode(&self, i: usize) -> Result<Column> {
        let mut buf = self.block.slice(self.start_of(i)?..);
        let col = match self.base.as_deref() {
            None => codec::get_column(&mut buf)?,
            Some(base) => codec::get_delta_column(&mut buf, base.column(i, base.cols.len())?)?,
        };
        self.ended(i, self.block.len() - buf.remaining())?;
        Ok(col)
    }

    /// Where record `i` lies in the block.
    fn record(&self, i: usize) -> Result<Range<usize>> {
        let start = self.start_of(i)?;
        Ok(start..self.end_of(i, start)?)
    }

    /// Where record `i` starts: where the one before it ends.
    fn start_of(&self, i: usize) -> Result<usize> {
        (0..i).try_fold(0, |start, j| self.end_of(j, start))
    }

    /// Where record `j` (in range), which starts at `start`, ends:
    /// stepped over once ([`codec::skip_column`]) and kept.
    fn end_of(&self, j: usize, start: usize) -> Result<usize> {
        if let Some(&end) = self.cols[j].end.get() {
            return Ok(end);
        }
        let mut rest = self.block.slice(start..);
        match self.base {
            None => codec::skip_column(&mut rest)?,
            Some(_) => codec::skip_delta_column(&mut rest)?,
        }
        self.ended(j, self.block.len() - rest.remaining())
    }

    /// Keep `end` as where record `j` (in range) ends, once the last
    /// record is vetted to end the block.
    fn ended(&self, j: usize, end: usize) -> Result<usize> {
        let left = self.block.len() - end;
        if left > 0 && j + 1 == self.cols.len() {
            return Err(GofsError::Corrupt(format!(
                "{left} trailing bytes in block"
            )));
        }
        Ok(*self.cols[j].end.get_or_init(|| end))
    }

    /// Borrow a `Double` vertex column by schema position.
    pub fn vertex_f64(&self, col: usize) -> Result<&[f64]> {
        match self.vertex_col(col)? {
            Column::Double(v) => Ok(v),
            c => Err(mismatch(c.ty(), AttrType::Double)),
        }
    }

    /// Borrow a `Long` vertex column by schema position.
    pub fn vertex_i64(&self, col: usize) -> Result<&[i64]> {
        match self.vertex_col(col)? {
            Column::Long(v) => Ok(v),
            c => Err(mismatch(c.ty(), AttrType::Long)),
        }
    }

    /// Borrow a `TextList` vertex column by schema position.
    pub fn vertex_text_list(&self, col: usize) -> Result<&TextRows> {
        match self.vertex_col(col)? {
            Column::TextList(t) => Ok(t),
            c => Err(mismatch(c.ty(), AttrType::TextList)),
        }
    }

    /// How many strings of `TextList` vertex column `col` equal `needle`:
    /// `vertex_text_list(col)?.count_eq(needle)`, with its verdict on every
    /// input, and nothing decoded. A stored instance counts on its record,
    /// decoded or not. A pack base walks its plain record once
    /// ([`codec::text_list_matches`]) and keeps `M`, the rows holding
    /// `needle`, for its deltas; its count is the sum over `M`. A delta
    /// counts its record against its base's `M`
    /// ([`codec::delta_text_count_eq`]) and keeps nothing but where the
    /// record ends. An in-memory projection, a record of another type and
    /// one that cannot be found are answered by the decoder.
    pub fn vertex_text_count_eq(&self, col: usize, needle: &str) -> Result<u64> {
        let base = self.base.as_deref().unwrap_or(self);
        let Some(start) = base.text_list_start(col) else {
            return Ok(self.vertex_text_list(col)?.count_eq(needle));
        };
        let matches = (base.text_matches(col, start, needle)).map_err(|e| base.corrupt(col, e));
        if self.base.is_none() {
            return matches.map(|m| m.count());
        }
        let counted = matches.and_then(|base| {
            let start = self.start_of(col)?;
            let (count, len) = codec::delta_text_count_eq(&self.block[start..], &base)?;
            self.ended(col, start + len)?;
            Ok(count)
        });
        counted.map_err(|e| self.corrupt(col, e))
    }

    /// Where vertex column `col`'s record starts, when it is a stored
    /// plain `TextList` record.
    fn text_list_start(&self, col: usize) -> Option<usize> {
        if col >= self.n_vertex_cols as usize || self.block.is_empty() {
            return None;
        }
        let start = self.start_of(col).ok()?;
        let tag = self.block.get(start)?;
        (*tag == AttrType::TextList.tag()).then_some(start)
    }

    /// The [`TextMatches`] of `needle` in plain `TextList` record `col`,
    /// which starts at `start`: the kept ones, or one walk of the record,
    /// kept when the slot is free.
    fn text_matches(&self, col: usize, start: usize, needle: &str) -> Result<Cow<'_, TextMatches>> {
        let walk = || {
            let (matches, len) = codec::text_list_matches(&self.block[start..], needle)?;
            self.ended(col, start + len)?;
            Ok(matches)
        };
        let kept = match self.kept.get() {
            Some(kept) => kept,
            None => {
                let matches = walk()?;
                (self.kept).get_or_init(|| Box::new(Kept { col, matches }))
            }
        };
        if kept.col == col && *kept.matches.needle == *needle {
            return Ok(Cow::Borrowed(&kept.matches));
        }
        walk().map(Cow::Owned)
    }

    /// Heap bytes of the kept needle matches.
    pub(crate) fn kept_bytes(&self) -> usize {
        let kept = self.kept.get();
        kept.map_or(0, |k| std::mem::size_of::<Kept>() + k.matches.heap_bytes())
    }

    /// Borrow a `Bool` vertex column by schema position.
    pub fn vertex_bool(&self, col: usize) -> Result<&[bool]> {
        match self.vertex_col(col)? {
            Column::Bool(v) => Ok(v),
            c => Err(mismatch(c.ty(), AttrType::Bool)),
        }
    }

    /// Borrow a `Double` edge column by schema position.
    pub fn edge_f64(&self, col: usize) -> Result<&[f64]> {
        match self.edge_col(col)? {
            Column::Double(v) => Ok(v),
            c => Err(mismatch(c.ty(), AttrType::Double)),
        }
    }

    /// A `Double` edge column's cells, read where they lie in the slice
    /// file when its record is a plain or a dense delta one: nothing is
    /// decoded or kept but the record's place in the block, so a program
    /// pays per cell it reads, not per row. Any other record — a sparse
    /// delta, another type, a corrupt one — and an in-memory projection
    /// hand out [`Self::edge_f64`] instead, with its errors.
    pub fn edge_f64_cells(&self, col: usize) -> Result<F64Cells<'_>> {
        match self.raw_f64(self.n_vertex_cols as usize + col) {
            Some(words) => Ok(F64Cells::Raw(words)),
            None => self.edge_f64(col).map(F64Cells::Decoded),
        }
    }

    /// Column `i`'s cells in place, unless it is decoded already or
    /// [`codec::f64_cells`] does not vouch for its record (and, for a
    /// delta, the base's record).
    fn raw_f64(&self, i: usize) -> Option<&[[u8; 8]]> {
        if self.cols.get(i)?.decoded.get().is_some() {
            return None;
        }
        let base = match self.base.as_deref() {
            None => None,
            Some(base) => Some(&base.block[base.record(i).ok()?]),
        };
        codec::f64_cells(&self.block[self.record(i).ok()?], base)
    }

    /// The columns decoded so far.
    pub fn decoded(&self) -> impl Iterator<Item = &Column> {
        self.cols
            .iter()
            .filter_map(|c| c.decoded.get().map(|c| &**c))
    }
}

impl From<Projection> for SubgraphInstance {
    fn from(p: Projection) -> Self {
        SubgraphInstance {
            timestep: p.timestep,
            timestamp: p.timestamp,
            // A schema holds far fewer than 2³² columns.
            n_vertex_cols: p.vertex_cols.len() as u32,
            cols: (p.vertex_cols.into_iter().chain(p.edge_cols))
                .map(|c| Col {
                    end: OnceLock::new(),
                    decoded: OnceLock::from(Box::new(c)),
                })
                .collect(),
            sg: SubgraphId(0),
            block: Bytes::new(),
            base: None,
            kept: OnceLock::new(),
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
    use tempograph_core::{AttrType, Column, TemplateBuilder, VertexIdx};
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
        let g = GraphInstance::from_parts(
            0,
            t.vertex_schema().clone(),
            t.edge_schema().clone(),
            vec![Column::Double(vec![10.0, 11.0, 12.0, 13.0])],
            vec![Column::Double(vec![0.5, 1.5, 2.5])],
        );
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
    fn edge_rows_map_into_projected_rows() {
        let (t, pg, g) = setup();
        let sg = pg.subgraph(pg.subgraph_of_vertex(VertexIdx(2)));
        let si = SubgraphInstance::project(&g, sg, 0);
        let pos = sg.local_pos(VertexIdx(2)).unwrap();
        // The crossing edge 1-2, reached through vertex 2's remote entry.
        let [rn] = sg.remote_neighbors(pos) else {
            panic!("vertex 2 has one remote neighbour")
        };
        assert_eq!(rn.vertex, VertexIdx(1));
        assert_eq!(sg.edges()[rn.row as usize], t.edge_by_id(1).unwrap());
        assert_eq!(si.edge_f64(0).unwrap()[rn.row as usize], 1.5);
        // The local edge 2-3.
        let [(_, row)] = sg.local_neighbors(pos) else {
            panic!("vertex 2 has one local neighbour")
        };
        assert_eq!(sg.edges()[*row as usize], t.edge_by_id(2).unwrap());
        assert_eq!(si.edge_f64(0).unwrap()[*row as usize], 2.5);
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

    /// A boxed decoded column keeps a column slot, record end included,
    /// at 32 bytes: a larger per-instance `Box<[Col]>` falls in another
    /// allocator size class, and at 48 or 56 bytes moved `hash_tweets`'
    /// peak memory by +12 or +6 MB.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_column_slot_is_32_bytes() {
        assert_eq!(std::mem::size_of::<Col>(), 32);
    }

    /// An instance is 88 bytes: the kept-matches slot (16 bytes) came with
    /// the vertex-column count narrowed to a `u32` beside `sg` (−8), so
    /// an `Arc`'d instance (104 bytes) stays in the glibc size class it
    /// held at 80. The hash cut holds tens of thousands of them: its
    /// `peak_rss_mb` read 94.26 → 94.25 MB over 4 pairs at 88 bytes, where
    /// a 96-byte instance had read +0.25 MB.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn an_instance_is_88_bytes() {
        assert_eq!(std::mem::size_of::<SubgraphInstance>(), 88);
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
