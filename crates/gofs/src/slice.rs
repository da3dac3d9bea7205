//! The slice-file format.
//!
//! One slice file holds the projected instance data for one **bin** of up to
//! `binning` subgraphs across one **pack** of up to `packing` consecutive
//! timesteps — the paper's "temporal packing of 10 and subgraph binning of
//! 5" (§IV.A). Reading a slice file is cheap (frame check, header, column
//! directory) and [`SliceData::get`] decodes nothing: each *column* of an
//! instance decodes on first touch (see [`crate::view`]), so a job pays
//! for the attributes and timesteps it reads. What remains of the paper's
//! Fig. 6 every-`packing`-timesteps spike is the file read itself.
//!
//! # Payload layout (columnar, delta-encoded)
//!
//! ```text
//! u16  partition          u32 bin, pack, t_start, n_timesteps, n_sg
//! u32  sg_id × n_sg       i64 timestamp × n_timesteps
//! u32  n_vertex_cols      u32 n_edge_cols
//! u64  offset × (n_sg · n_timesteps + 1)      -- the column directory
//! blocks …                                    -- offsets index into this
//! ```
//!
//! Block `(sg, 0)` is the subgraph's **base snapshot**: every vertex
//! column then every edge column, full `put_column` encoding. Block
//! `(sg, toff > 0)` stores one *delta record per column* against the base
//! (not chained!), so a column at any timestep needs only its own record
//! and the same column of the base. Each delta is sparse (varint change count, delta-coded row
//! indices, gathered values) unless re-encoding the whole column is
//! smaller, in which case it falls back to dense — see
//! [`codec::put_delta_column`].

use crate::codec::{self, frame, unframe_owned};
use crate::error::{GofsError, Result};
use crate::view::{Projection, SubgraphInstance};
use bytes::{BufMut, Bytes, BytesMut};
use std::sync::{Arc, OnceLock};
use tempograph_core::wire;
use tempograph_core::Column;
use tempograph_partition::SubgraphId;

const SLICE_MAGIC: [u8; 4] = *b"GFSL";

/// Identifies one slice within a partition's directory.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SliceKey {
    /// Bin index (subgraph group) within the partition.
    pub bin: u32,
    /// Pack index (timestep group).
    pub pack: u32,
}

impl SliceKey {
    /// Conventional file name for this slice.
    pub fn file_name(&self) -> String {
        format!("slice-b{:04}-p{:04}.slice", self.bin, self.pack)
    }
}

/// A decoded slice: the raw payload as a zero-copy [`Bytes`] view plus a
/// column directory; [`SliceData::get`] hands out column-lazy instances,
/// cached in per-cell `OnceLock`s.
#[derive(Clone, Debug)]
pub struct SliceData {
    /// Owning partition.
    pub partition: u16,
    /// Which slice this is.
    pub key: SliceKey,
    /// Subgraphs in this bin, in stored order.
    pub sg_ids: Vec<SubgraphId>,
    /// First timestep covered.
    pub t_start: usize,
    /// Number of timesteps covered.
    pub n_timesteps: usize,
    /// `(sg_id, stored index)`, sorted by id — binary-search lookup.
    lookup: Vec<(SubgraphId, u32)>,
    /// Per-timestep-offset wall-clock timestamps.
    timestamps: Vec<i64>,
    n_vertex_cols: usize,
    n_edge_cols: usize,
    /// `n_sg · n_timesteps + 1` monotone offsets into `blocks`.
    offsets: Vec<u64>,
    /// Zero-copy view of the payload's block region.
    blocks: Bytes,
    /// Materialized instances, row-major `[sg_index · n_timesteps + toff]`.
    cells: Vec<OnceLock<Arc<SubgraphInstance>>>,
}

impl SliceData {
    /// Stored index of `sg`, by binary search over the sorted lookup.
    fn sg_index(&self, sg: SubgraphId) -> Option<usize> {
        self.lookup
            .binary_search_by_key(&sg, |&(id, _)| id)
            .ok()
            .map(|i| self.lookup[i].1 as usize)
    }

    /// The projected instance for `sg` at absolute timestep `t`.
    ///
    /// Out-of-coverage requests are [`GofsError::OutOfRange`]; a corrupt
    /// record surfaces later, from the accessor of the column it belongs
    /// to (and only that column — the rest remain readable).
    pub fn get(&self, sg: SubgraphId, t: usize) -> Result<Arc<SubgraphInstance>> {
        let sg_index = self.sg_index(sg).ok_or_else(|| {
            GofsError::OutOfRange(format!("slice {:?} does not cover {sg}", self.key))
        })?;
        if t < self.t_start || t >= self.t_start + self.n_timesteps {
            return Err(GofsError::OutOfRange(format!(
                "slice {:?} covers timesteps {}..{}, not {t}",
                self.key,
                self.t_start,
                self.t_start + self.n_timesteps
            )));
        }
        self.cell(sg_index, t - self.t_start)
    }

    /// The (cached) instance for one cell. Decodes no column: the instance
    /// gets its block of the file and, past the pack's first timestep, the
    /// base instance its delta records patch (never chained).
    fn cell(&self, sg_index: usize, toff: usize) -> Result<Arc<SubgraphInstance>> {
        let idx = sg_index * self.n_timesteps + toff;
        if let Some(inst) = self.cells[idx].get() {
            return Ok(inst.clone());
        }
        // Offsets were bounds-checked monotone at decode time.
        let block = (self.blocks).slice(self.offsets[idx] as usize..self.offsets[idx + 1] as usize);
        // A record is a tag and a row count at least: the block bounds the
        // column count before it sizes anything, and is empty for none.
        let n_cols = codec::check_count(&block, self.n_vertex_cols + self.n_edge_cols, 5)?;
        if n_cols == 0 && !block.is_empty() {
            let sg = self.sg_ids[sg_index];
            return Err(GofsError::Corrupt(format!(
                "block ({sg}, toff {toff}) has no columns but bytes"
            )));
        }
        let base = (toff > 0).then(|| self.cell(sg_index, 0)).transpose()?;
        let inst = Arc::new(SubgraphInstance {
            timestep: self.t_start + toff,
            timestamp: self.timestamps[toff],
            // Read from the header as a `u32`.
            n_vertex_cols: self.n_vertex_cols as u32,
            cols: std::iter::repeat_with(Default::default)
                .take(n_cols)
                .collect(),
            sg: self.sg_ids[sg_index],
            block,
            base,
            kept: OnceLock::new(),
        });
        Ok(self.cells[idx].get_or_init(|| inst).clone())
    }

    /// Wall-clock timestamps per covered timestep offset.
    pub fn timestamps(&self) -> &[i64] {
        &self.timestamps
    }

    /// The column directory: `(offsets, blocks_len, n_vertex_cols,
    /// n_edge_cols)`. [`crate::validate::validate_dataset`] walks this to
    /// vet layout invariants before it forces any column.
    pub fn directory(&self) -> (&[u64], usize, usize, usize) {
        (
            &self.offsets,
            self.blocks.len(),
            self.n_vertex_cols,
            self.n_edge_cols,
        )
    }

    /// Approximate heap bytes held: the whole buffer the file was read
    /// into (its capacity, which a recycled buffer may hold beyond the
    /// file's length) plus every column decoded and every needle's
    /// matches kept so far. Grows as columns are touched — the loader's
    /// cache accounting reflects what is actually resident, not the
    /// fully-decoded worst case.
    pub fn approx_bytes(&self) -> usize {
        let cells = self.cells.iter().filter_map(|c| c.get());
        let held =
            cells.map(|i| i.kept_bytes() + i.decoded().map(Column::approx_bytes).sum::<usize>());
        self.blocks.buffer_capacity() + held.sum::<usize>()
    }

    /// The buffer the file was read into, for the next read to reuse.
    /// Drops the cached instances first; `None` while any instance handed
    /// out still lives (its columns are views of the buffer).
    pub(crate) fn into_buffer(self) -> Option<Vec<u8>> {
        let SliceData { blocks, cells, .. } = self;
        drop(cells);
        blocks.try_reclaim().ok()
    }

    /// Where the block region lies in memory: two slices with the same
    /// header size and the same address share one buffer.
    #[cfg(test)]
    pub(crate) fn blocks_addr(&self) -> usize {
        self.blocks.as_ptr() as usize
    }

    /// Columns decoded so far, over all cells.
    pub fn decoded_columns(&self) -> usize {
        self.decoded().count()
    }

    fn decoded(&self) -> impl Iterator<Item = &Column> {
        let cells = self.cells.iter().filter_map(|c| c.get());
        cells.flat_map(|i| i.decoded())
    }
}

/// Check `rows` is rectangular with one row per subgraph; returns
/// `(n_timesteps, timestamps)` and asserts every subgraph's instance at a
/// given offset carries the same timestamp (they are projections of the
/// same [`tempograph_core::GraphInstance`]).
fn writer_shape(sg_ids: &[SubgraphId], rows: &[Vec<Projection>]) -> (usize, Vec<i64>) {
    assert_eq!(rows.len(), sg_ids.len(), "one row per subgraph");
    let n_timesteps = rows.first().map_or(0, |r| r.len());
    assert!(
        rows.iter().all(|r| r.len() == n_timesteps),
        "rows must be rectangular"
    );
    let timestamps: Vec<i64> = (0..n_timesteps)
        .map(|toff| rows[0][toff].timestamp)
        .collect();
    for row in rows {
        for (toff, si) in row.iter().enumerate() {
            assert_eq!(
                si.timestamp, timestamps[toff],
                "instances at one timestep offset must share a timestamp"
            );
        }
    }
    (n_timesteps, timestamps)
}

/// Encode a slice file (current version: columnar, delta-encoded).
///
/// `rows` is indexed `[sg_index][timestep_offset]` and must be rectangular.
pub fn encode_slice(
    partition: u16,
    key: SliceKey,
    sg_ids: &[SubgraphId],
    t_start: usize,
    rows: &[Vec<Projection>],
) -> Bytes {
    let (n_timesteps, timestamps) = writer_shape(sg_ids, rows);
    let n_vertex_cols = rows
        .first()
        .and_then(|r| r.first())
        .map_or(0, |si| si.vertex_cols.len());
    let n_edge_cols = rows
        .first()
        .and_then(|r| r.first())
        .map_or(0, |si| si.edge_cols.len());

    // Blocks first, collecting the directory as we go.
    let mut blocks = BytesMut::new();
    let mut offsets: Vec<u64> = Vec::with_capacity(sg_ids.len() * n_timesteps + 1);
    for row in rows {
        for (toff, si) in row.iter().enumerate() {
            assert_eq!(
                (si.vertex_cols.len(), si.edge_cols.len()),
                (n_vertex_cols, n_edge_cols),
                "instances must share the slice's column shape"
            );
            offsets.push(blocks.len() as u64);
            if toff == 0 {
                for c in &si.vertex_cols {
                    codec::put_column(&mut blocks, c);
                }
                for c in &si.edge_cols {
                    codec::put_column(&mut blocks, c);
                }
            } else {
                let base = &row[0];
                for (c, cur) in si.vertex_cols.iter().enumerate() {
                    codec::put_delta_column(&mut blocks, &base.vertex_cols[c], cur);
                }
                for (c, cur) in si.edge_cols.iter().enumerate() {
                    codec::put_delta_column(&mut blocks, &base.edge_cols[c], cur);
                }
            }
        }
    }
    offsets.push(blocks.len() as u64);

    let mut buf = BytesMut::with_capacity(blocks.len() + offsets.len() * 8 + 64);
    buf.put_u16_le(partition);
    buf.put_u32_le(key.bin);
    buf.put_u32_le(key.pack);
    buf.put_u32_le(t_start as u32);
    buf.put_u32_le(n_timesteps as u32);
    buf.put_u32_le(sg_ids.len() as u32);
    for sg in sg_ids {
        buf.put_u32_le(sg.0);
    }
    for &ts in &timestamps {
        buf.put_i64_le(ts);
    }
    buf.put_u32_le(n_vertex_cols as u32);
    buf.put_u32_le(n_edge_cols as u32);
    for &o in &offsets {
        buf.put_u64_le(o);
    }
    buf.put_slice(&blocks);
    frame(SLICE_MAGIC, &buf)
}

/// Decode a slice file: header and column directory only — no column.
/// The slice keeps `data` (its blocks are views of it, not a copy), so a
/// load allocates the file once.
pub fn decode_slice(data: Bytes) -> Result<SliceData> {
    let mut buf = unframe_owned(SLICE_MAGIC, data)?;
    let partition = wire::get_u16(&mut buf, "slice partition")?;
    let bin = wire::get_u32(&mut buf, "slice bin")?;
    let pack = wire::get_u32(&mut buf, "slice pack")?;
    let t_start = wire::get_u32(&mut buf, "slice first timestep")? as usize;
    let n_timesteps = wire::get_u32(&mut buf, "slice timesteps")? as usize;
    let n_sg = wire::get_u32(&mut buf, "slice subgraphs")? as usize;
    if n_sg.saturating_mul(n_timesteps) > u32::MAX as usize {
        return Err(GofsError::Corrupt(format!(
            "implausible slice grid {n_sg}×{n_timesteps}"
        )));
    }
    let sg_ids: Vec<SubgraphId> = wire::get_vec(&mut buf, n_sg)?;
    let timestamps: Vec<i64> = wire::get_vec(&mut buf, n_timesteps)?;
    let n_vertex_cols = wire::get_u32(&mut buf, "slice vertex columns")? as usize;
    let n_edge_cols = wire::get_u32(&mut buf, "slice edge columns")? as usize;
    let n_cells = n_sg * n_timesteps;
    let offsets: Vec<u64> = wire::get_vec(&mut buf, n_cells + 1)?;
    // Everything left is the block region — keep it as a zero-copy view.
    let blocks = buf.slice(..);
    // Vet the directory once here so block() can slice unchecked.
    if offsets.first() != Some(&0) {
        return Err(GofsError::Corrupt(
            "column directory must start at 0".into(),
        ));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(GofsError::Corrupt(
            "column directory offsets must be monotone".into(),
        ));
    }
    if offsets.last().copied() != Some(blocks.len() as u64) {
        return Err(GofsError::Corrupt(format!(
            "column directory ends at {:?}, block region is {} bytes",
            offsets.last(),
            blocks.len()
        )));
    }
    let mut lookup: Vec<(SubgraphId, u32)> = sg_ids
        .iter()
        .enumerate()
        .map(|(i, &sg)| (sg, i as u32))
        .collect();
    lookup.sort_unstable();
    Ok(SliceData {
        partition,
        key: SliceKey { bin, pack },
        sg_ids,
        t_start,
        n_timesteps,
        lookup,
        timestamps,
        n_vertex_cols,
        n_edge_cols,
        offsets,
        blocks,
        cells: std::iter::repeat_with(OnceLock::new)
            .take(n_cells)
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::F64Cells;
    use tempograph_core::{CoreError, TextRows};

    fn si(timestep: usize, val: f64) -> Projection {
        Projection {
            timestep,
            timestamp: timestep as i64 * 10,
            vertex_cols: vec![Column::Double(vec![val, val + 1.0])],
            edge_cols: vec![Column::Double(vec![val * 2.0])],
        }
    }

    fn sample() -> (Vec<SubgraphId>, Vec<Vec<Projection>>, SliceKey) {
        let sg_ids = vec![SubgraphId(4), SubgraphId(9)];
        let rows = vec![
            vec![si(20, 1.0), si(21, 2.0)],
            vec![si(20, 5.0), si(21, 6.0)],
        ];
        (sg_ids, rows, SliceKey { bin: 1, pack: 2 })
    }

    #[test]
    fn slice_roundtrip() {
        let (sg_ids, rows, key) = sample();
        let data = encode_slice(3, key, &sg_ids, 20, &rows);
        let back = decode_slice(data).unwrap();
        assert_eq!(back.partition, 3);
        assert_eq!(back.key, key);
        assert_eq!(back.sg_ids, sg_ids);
        assert_eq!(back.t_start, 20);
        assert_eq!(back.n_timesteps, 2);
        assert_eq!(back.timestamps(), &[200, 210]);

        let got = back.get(SubgraphId(9), 21).unwrap();
        assert_eq!(got.vertex_f64(0).unwrap(), &[6.0, 7.0]);
        assert_eq!(got.timestep, 21);
        assert_eq!(got.timestamp, 210);
    }

    #[test]
    fn version_1_slice_is_unsupported() {
        let (sg_ids, rows, key) = sample();
        let mut data = encode_slice(3, key, &sg_ids, 20, &rows).to_vec();
        data[4..6].copy_from_slice(&1u16.to_le_bytes());
        assert!(matches!(
            decode_slice(data.into()),
            Err(GofsError::UnsupportedVersion(1))
        ));
    }

    /// A vertex `tweets` TextList and an edge `latency` Double, every
    /// latency row changing each timestep (dense deltas) and one tweets row
    /// (sparse deltas).
    fn two_column_pack(n_timesteps: usize) -> Vec<Projection> {
        (0..n_timesteps)
            .map(|t| {
                let mut tweets = [vec!["#a".to_string()], vec![], vec!["#b".into(), "".into()]];
                tweets[t % 3].push(format!("#t{t}"));
                let tweets =
                    TextRows::from_rows(tweets.iter().map(|r| r.iter().map(String::as_str)));
                Projection {
                    timestep: t,
                    timestamp: t as i64,
                    vertex_cols: vec![Column::TextList(tweets)],
                    edge_cols: vec![Column::Double(vec![t as f64, t as f64 + 0.5])],
                }
            })
            .collect()
    }

    #[test]
    fn decode_cost_is_the_columns_touched() {
        let rows = vec![two_column_pack(4)];
        let key = SliceKey { bin: 0, pack: 0 };
        let back = decode_slice(encode_slice(0, key, &[SubgraphId(7)], 0, &rows)).unwrap();
        let before = back.approx_bytes();
        // Loading every cell decodes nothing.
        let cells: Vec<_> = (0..4)
            .map(|t| back.get(SubgraphId(7), t).unwrap())
            .collect();
        assert_eq!(back.decoded_columns(), 0);
        assert_eq!(back.approx_bytes(), before);
        // One column at timestep 2: that column there and at the pack base.
        assert_eq!(cells[2].edge_f64(0).unwrap(), &[2.0, 2.5]);
        assert_eq!(back.decoded_columns(), 2);
        assert!(
            back.approx_bytes() > before,
            "accounting grows with columns"
        );
        // One more per further timestep; a second read is free.
        cells[3].edge_f64(0).unwrap();
        cells[3].edge_f64(0).unwrap();
        assert_eq!(back.decoded_columns(), 3);
        assert!(cells.iter().all(|c| c
            .decoded()
            .all(|d| d.ty() == tempograph_core::AttrType::Double)));
        // The other column is as cheap, and equals what was written.
        let tweets = cells[1].vertex_text_list(0).unwrap();
        assert_eq!(back.decoded_columns(), 5);
        let got: Vec<Vec<&str>> = tweets.iter().map(|r| r.iter().collect()).collect();
        assert_eq!(got, vec![vec!["#a"], vec!["#t1"], vec!["#b", ""]]);
        // `get` hands back the same cached instance.
        assert!(Arc::ptr_eq(&cells[2], &back.get(SubgraphId(7), 2).unwrap()));
        for (t, row) in rows[0].iter().enumerate() {
            assert_eq!(*cells[t], SubgraphInstance::from(row.clone()));
        }
    }

    #[test]
    fn kept_needle_matches_are_counted() {
        let rows = vec![two_column_pack(4)];
        let key = SliceKey { bin: 0, pack: 0 };
        let back = decode_slice(encode_slice(0, key, &[SubgraphId(7)], 0, &rows)).unwrap();
        let cells: Vec<_> = (0..4)
            .map(|t| back.get(SubgraphId(7), t).unwrap())
            .collect();
        let before = back.approx_bytes();
        // A delta's count keeps its base's matches of "#a" (row 0 only),
        // and decodes nothing.
        assert_eq!(cells[2].vertex_text_count_eq(0, "#a").unwrap(), 1);
        assert_eq!(back.decoded_columns(), 0);
        let kept = std::mem::size_of::<crate::view::Kept>() + "#a".len() + 8;
        assert_eq!(back.approx_bytes(), before + kept);
        // Another needle is walked afresh: nothing more is kept.
        assert_eq!(cells[3].vertex_text_count_eq(0, "#t3").unwrap(), 1);
        assert_eq!(cells[0].vertex_text_count_eq(0, "#b").unwrap(), 1);
        assert_eq!(back.approx_bytes(), before + kept);
    }

    #[test]
    fn approx_bytes_counts_the_buffer_and_into_buffer_waits_for_views() {
        let (sg_ids, rows, key) = sample();
        let file = encode_slice(3, key, &sg_ids, 20, &rows);
        let roomy = |spare: usize| {
            let mut buf = Vec::with_capacity(file.len() + spare);
            buf.extend_from_slice(&file);
            decode_slice(buf.into()).unwrap()
        };
        // A buffer with room past the file counts whole.
        let back = roomy(100);
        assert_eq!(back.approx_bytes(), file.len() + 100);
        // A held instance keeps the buffer, and still reads its values.
        let inst = back.get(sg_ids[1], 21).unwrap();
        assert!(back.into_buffer().is_none());
        assert_eq!(inst.vertex_f64(0).unwrap(), &[6.0, 7.0]);
        // Once every view is gone, the whole file comes back, room too.
        let back = roomy(100);
        back.get(sg_ids[0], 21).unwrap().edge_f64(0).unwrap();
        let buf = back.into_buffer().expect("no view outlives the slice");
        assert_eq!((&buf[..], buf.capacity()), (&file[..], file.len() + 100));
    }

    #[test]
    fn dense_double_cells_are_read_in_place() {
        let rows = vec![two_column_pack(4)];
        let key = SliceKey { bin: 0, pack: 0 };
        let back = decode_slice(encode_slice(0, key, &[SubgraphId(7)], 0, &rows)).unwrap();
        let before = back.approx_bytes();
        let cells: Vec<_> = (0..4)
            .map(|t| back.get(SubgraphId(7), t).unwrap())
            .collect();
        // The base's plain record and every dense delta: in place, twice.
        for (t, cell) in cells.iter().enumerate() {
            for _ in 0..2 {
                let got = cell.edge_f64_cells(0).unwrap();
                assert!(matches!(got, F64Cells::Raw(_)));
                assert_eq!(
                    (got.len(), got.get(0), got.get(1)),
                    (2, t as f64, t as f64 + 0.5)
                );
            }
        }
        assert_eq!((back.decoded_columns(), back.approx_bytes()), (0, before));
        // A column decoded already is handed out decoded.
        cells[1].edge_f64(0).unwrap();
        let got = cells[1].edge_f64_cells(0).unwrap();
        assert!(matches!(got, F64Cells::Decoded(&[1.0, 1.5])));
        // Past the schema, and the wrong type: the decoder's errors.
        let err = cells[2].edge_f64_cells(1).unwrap_err();
        assert!(matches!(err, GofsError::OutOfRange(_)), "{err}");
        let long = Projection {
            timestep: 0,
            timestamp: 0,
            vertex_cols: vec![],
            edge_cols: vec![Column::Long(vec![1])],
        };
        let back = decode_slice(encode_slice(0, key, &[SubgraphId(1)], 0, &[vec![long]])).unwrap();
        let inst = back.get(SubgraphId(1), 0).unwrap();
        let err = inst.edge_f64_cells(0).unwrap_err();
        assert!(
            matches!(
                err,
                GofsError::Core(CoreError::AttributeTypeMismatch { .. })
            ),
            "{err}"
        );
    }

    #[test]
    fn get_out_of_range_is_typed_error() {
        let sg_ids = vec![SubgraphId(0)];
        let rows = vec![vec![si(5, 1.0)]];
        let data = encode_slice(0, SliceKey { bin: 0, pack: 0 }, &sg_ids, 5, &rows);
        let back = decode_slice(data).unwrap();
        assert!(matches!(
            back.get(SubgraphId(0), 4),
            Err(GofsError::OutOfRange(_))
        ));
        assert!(matches!(
            back.get(SubgraphId(0), 6),
            Err(GofsError::OutOfRange(_))
        ));
        assert!(matches!(
            back.get(SubgraphId(1), 5),
            Err(GofsError::OutOfRange(_))
        ));
        assert!(back.get(SubgraphId(0), 5).is_ok());
    }

    #[test]
    fn binary_search_lookup_handles_unsorted_bins() {
        // sg ids stored out of order still resolve to the right rows.
        let sg_ids = vec![SubgraphId(9), SubgraphId(2), SubgraphId(5)];
        let rows = vec![vec![si(0, 100.0)], vec![si(0, 200.0)], vec![si(0, 300.0)]];
        let back = decode_slice(encode_slice(
            0,
            SliceKey { bin: 0, pack: 0 },
            &sg_ids,
            0,
            &rows,
        ))
        .unwrap();
        for (i, &sg) in sg_ids.iter().enumerate() {
            let got = back.get(sg, 0).unwrap();
            assert_eq!(
                got.vertex_f64(0).unwrap(),
                &[(i as f64 + 1.0) * 100.0, (i as f64 + 1.0) * 100.0 + 1.0]
            );
        }
        assert!(back.get(SubgraphId(3), 0).is_err());
    }

    #[test]
    fn corrupt_slice_rejected() {
        let sg_ids = vec![SubgraphId(0)];
        let rows = vec![vec![si(0, 1.0)]];
        let data = encode_slice(0, SliceKey { bin: 0, pack: 0 }, &sg_ids, 0, &rows);
        let mut evil = data.to_vec();
        let mid = evil.len() / 2;
        evil[mid] ^= 0xFF;
        assert!(decode_slice(Bytes::from(evil)).is_err());
    }

    #[test]
    fn corrupt_directory_rejected_at_decode() {
        let (sg_ids, rows, key) = sample();
        let framed = encode_slice(3, key, &sg_ids, 20, &rows);
        let payload = unframe_owned(SLICE_MAGIC, framed.clone()).unwrap();
        // Directory starts after: 2 + 5*4 + 2*4 (ids) + 2*8 (timestamps) + 8.
        let dir_at = 2 + 20 + 8 + 16 + 8;
        // Truncate the block region so the last offset overruns.
        let truncated = &payload[..payload.len() - 3];
        let reframed = crate::codec::frame(SLICE_MAGIC, truncated);
        let err = decode_slice(reframed).unwrap_err();
        assert!(matches!(err, GofsError::Corrupt(_)), "{err}");

        // Make one directory offset non-monotone (checksum kept valid by
        // re-framing) — rejected before any block decode.
        let mut warped = payload.to_vec();
        warped[dir_at..dir_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let reframed = crate::codec::frame(SLICE_MAGIC, &warped);
        let err = decode_slice(reframed).unwrap_err();
        assert!(matches!(err, GofsError::Corrupt(_)), "{err}");
    }

    #[test]
    fn corrupt_delta_record_fails_only_that_column() {
        let sg_ids = vec![SubgraphId(3)];
        let rows = vec![two_column_pack(3)];
        let framed = encode_slice(0, SliceKey { bin: 0, pack: 0 }, &sg_ids, 0, &rows);
        let payload = unframe_owned(SLICE_MAGIC, framed.clone()).unwrap();
        // The last block ends in the dense latency record: tag, column
        // tag, u32 row count, 2 × f64. Claim a third row that is not there.
        let mut warped = payload.to_vec();
        let count_at = warped.len() - 16 - 4;
        warped[count_at] = 3;
        let back = decode_slice(crate::codec::frame(SLICE_MAGIC, &warped)).unwrap();
        // Every cell still loads; the error is the accessor's, it names the
        // place, and it is raised again on the next touch.
        let last = back.get(SubgraphId(3), 2).unwrap();
        for _ in 0..2 {
            let err = last.edge_f64_cells(0).unwrap_err();
            assert!(matches!(err, GofsError::Corrupt(_)), "{err}");
            let msg = err.to_string();
            assert!(
                msg.contains("sg3") && msg.contains("timestep 2") && msg.contains("column 1"),
                "{msg}"
            );
            assert_eq!(last.edge_f64(0).unwrap_err().to_string(), msg);
        }
        // The other column of that cell, and every other cell, are intact.
        assert_eq!(last.vertex_text_list(0).unwrap().row(2).len(), 3);
        for (t, row) in rows[0].iter().enumerate().take(2) {
            let cell = back.get(SubgraphId(3), t).unwrap();
            assert_eq!(*cell, SubgraphInstance::from(row.clone()));
        }
        assert_ne!(*last, SubgraphInstance::from(rows[0][2].clone()));
    }

    #[test]
    fn trailing_bytes_are_found_by_whoever_reads_the_last_column() {
        // Hand-build a one-cell slice whose block has a byte too many.
        let sg_ids = vec![SubgraphId(0)];
        let rows = vec![vec![si(0, 1.0)]];
        let framed = encode_slice(0, SliceKey { bin: 0, pack: 0 }, &sg_ids, 0, &rows);
        let mut payload = unframe_owned(SLICE_MAGIC, framed.clone()).unwrap().to_vec();
        let blocks_len = (payload.len() - (2 + 20 + 4 + 8 + 8 + 16)) as u64;
        payload.push(0xAB);
        let dir_end = 2 + 20 + 4 + 8 + 8 + 8;
        payload[dir_end..dir_end + 8].copy_from_slice(&(blocks_len + 1).to_le_bytes());
        let back = decode_slice(crate::codec::frame(SLICE_MAGIC, &payload)).unwrap();
        let cell = back.get(SubgraphId(0), 0).unwrap();
        assert_eq!(
            cell.vertex_f64(0).unwrap(),
            &[1.0, 2.0],
            "not the last column"
        );
        let err = cell.edge_f64_cells(0).unwrap_err().to_string();
        assert!(err.contains("trailing"), "{err}");
        assert_eq!(cell.edge_f64(0).unwrap_err().to_string(), err);
    }

    #[test]
    fn delta_encoding_shrinks_redundant_packs() {
        // 10 timesteps, large column, one row changing per step — the
        // time-series-graph shape the delta layout exists for.
        let n = 500;
        let mut rows_v: Vec<Projection> = Vec::new();
        let base: Vec<f64> = (0..n).map(|i| i as f64).collect();
        for t in 0..10 {
            let mut v = base.clone();
            v[t * 7 % n] = -1.0;
            rows_v.push(Projection {
                timestep: t,
                timestamp: t as i64,
                vertex_cols: vec![Column::Double(v)],
                edge_cols: vec![],
            });
        }
        let sg_ids = vec![SubgraphId(0)];
        let rows = vec![rows_v];
        let data = encode_slice(0, SliceKey { bin: 0, pack: 0 }, &sg_ids, 0, &rows);
        // What storing every timestep's column in full would take.
        let mut full = BytesMut::new();
        for si in &rows[0] {
            codec::put_column(&mut full, &si.vertex_cols[0]);
        }
        assert!(
            (data.len() as f64) < (full.len() as f64) * 0.2,
            "delta slice ({}) should be ≪ full columns ({}) on slowly-changing data",
            data.len(),
            full.len()
        );
        // And it still decodes to the same instances.
        let back = decode_slice(data).unwrap();
        for (t, row) in rows[0].iter().enumerate() {
            assert_eq!(*back.get(SubgraphId(0), t).unwrap(), row.clone().into());
        }
    }

    #[test]
    fn file_name_is_stable() {
        assert_eq!(
            SliceKey { bin: 3, pack: 12 }.file_name(),
            "slice-b0003-p0012.slice"
        );
    }

    #[test]
    #[should_panic(expected = "rectangular")]
    fn ragged_rows_rejected() {
        let sg_ids = vec![SubgraphId(0), SubgraphId(1)];
        let rows = vec![vec![si(0, 1.0)], vec![]];
        encode_slice(0, SliceKey { bin: 0, pack: 0 }, &sg_ids, 0, &rows);
    }
}
