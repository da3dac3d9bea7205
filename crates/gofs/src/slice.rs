//! The slice-file format.
//!
//! One slice file holds the projected instance data for one **bin** of up to
//! `binning` subgraphs across one **pack** of up to `packing` consecutive
//! timesteps — the paper's "temporal packing of 10 and subgraph binning of
//! 5" (§IV.A). It is laid out to be read one **block** — one (subgraph,
//! timestep offset) — at a time: a framed **head** (header, column
//! directory, chunk checksums), then the block region, unframed. A reader
//! holds the head; [`SliceData::get`] decodes no column (each *column* of
//! an instance decodes on first touch, see [`crate::view`]), and a slice
//! whose blocks are on disk reads and verifies a block when an instance of
//! it is first asked for. A slice keeps each subgraph's base instance; a
//! delta instance is its holder's. What remains of the paper's Fig. 6
//! every-`packing`-timesteps spike is the head read.
//!
//! # File layout (format version 3)
//!
//! ```text
//! b"GFSL"  u16 version  u64 head_len        -- the head frame
//! head:
//!   u16  partition          u32 bin, pack, t_start, n_timesteps, n_sg
//!   u32  sg_id × n_sg       i64 timestamp × n_timesteps
//!   u32  n_vertex_cols      u32 n_edge_cols
//!   u64  offset × (n_sg · n_timesteps + 1)  -- the column directory
//!   u64  chunk checksum × Σ ⌈block len / CHUNK_LEN⌉
//! u64  fnv1a64_lanes(head)
//! blocks …                                  -- offsets index into this
//! ```
//!
//! Each block is checksummed in [`CHUNK_LEN`]-byte chunks of its own
//! (a shorter block is one chunk, an empty one none), in directory order,
//! so any block is verified from its own bytes.
//!
//! Block `(sg, 0)` is the subgraph's **base snapshot**: every vertex
//! column then every edge column, full `put_column` encoding. Block
//! `(sg, toff > 0)` stores one *delta record per column* against the base
//! (not chained!), so a column at any timestep needs only its own record
//! and the same column of the base. Each delta is sparse (varint change count, delta-coded row
//! indices, gathered values) unless re-encoding the whole column is
//! smaller, in which case it falls back to dense — see
//! [`codec::put_delta_column`].

use crate::codec::{self, fnv1a64_lanes, frame, leading_frame, unframe_owned};
use crate::error::{GofsError, Result};
use crate::view::{Projection, SubgraphInstance};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::ops::Range;
use std::sync::{Arc, OnceLock};
use tempograph_core::wire;
use tempograph_core::Column;
use tempograph_partition::SubgraphId;

const SLICE_MAGIC: [u8; 4] = *b"GFSL";

/// Bytes per checksummed chunk of a block. A chunk of this size hashes at
/// the checksum's full speed, and a later reader of single chunks (not
/// this one: it reads whole blocks) would read at most this much to
/// reach one cell.
pub const CHUNK_LEN: usize = 64 << 10;

/// Chunks of a `len`-byte block.
fn chunks_of(len: u64) -> u64 {
    len.div_ceil(CHUNK_LEN as u64)
}

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

/// A decoded slice head: the column directory and chunk checksums, the
/// block region when the file was read whole, and each subgraph's base
/// instance once asked for. [`SliceData::get`] hands out column-lazy
/// instances.
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
    /// `n_sg · n_timesteps + 1` monotone offsets into the block region.
    offsets: Vec<u64>,
    /// Every block's chunk checksums, in directory order.
    sums: Vec<u64>,
    /// Bytes of the head frame: where the block region starts in the file.
    head_len: u64,
    /// The block region, when the file was read whole (every chunk
    /// verified then); `None` when blocks are read as they are asked for.
    resident: Option<Bytes>,
    /// Each subgraph's base instance (timestep offset 0), kept once made:
    /// every delta instance of the subgraph patches it.
    bases: Vec<OnceLock<Arc<SubgraphInstance>>>,
}

impl SliceData {
    /// Stored index of `sg`, by binary search over the sorted lookup.
    fn sg_index(&self, sg: SubgraphId) -> Option<usize> {
        self.lookup
            .binary_search_by_key(&sg, |&(id, _)| id)
            .ok()
            .map(|i| self.lookup[i].1 as usize)
    }

    /// The projected instance for `sg` at absolute timestep `t`, from a
    /// slice read whole ([`decode_slice`]).
    ///
    /// Out-of-coverage requests are [`GofsError::OutOfRange`]; a corrupt
    /// record surfaces later, from the accessor of the column it belongs
    /// to (and only that column — the rest remain readable).
    pub fn get(&self, sg: SubgraphId, t: usize) -> Result<Arc<SubgraphInstance>> {
        self.fetch(sg, t, &mut |at| {
            Err(GofsError::OutOfRange(format!(
                "slice {:?} holds no block region to read {at:?} from",
                self.key
            )))
        })
    }

    /// [`Self::get`], reading a block that is not in memory with `read`
    /// (its byte range in the file) and verifying its chunks. A bad chunk
    /// fails this request, and every request for that block after it,
    /// and no other block.
    pub(crate) fn fetch(
        &self,
        sg: SubgraphId,
        t: usize,
        read: &mut dyn FnMut(Range<u64>) -> Result<Bytes>,
    ) -> Result<Arc<SubgraphInstance>> {
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
        let base = match self.bases[sg_index].get() {
            Some(base) => base.clone(),
            None => {
                let base = self.instance(sg_index, 0, None, read)?;
                self.bases[sg_index].get_or_init(|| base).clone()
            }
        };
        match t - self.t_start {
            0 => Ok(base),
            toff => self.instance(sg_index, toff, Some(base), read),
        }
    }

    /// A new instance for one block. Decodes no column: the instance gets
    /// its block and, past the pack's first timestep, the base instance
    /// its delta records patch (never chained).
    fn instance(
        &self,
        sg_index: usize,
        toff: usize,
        base: Option<Arc<SubgraphInstance>>,
        read: &mut dyn FnMut(Range<u64>) -> Result<Bytes>,
    ) -> Result<Arc<SubgraphInstance>> {
        let idx = sg_index * self.n_timesteps + toff;
        // Offsets were vetted monotone, ending at the block region's end.
        let at = self.offsets[idx]..self.offsets[idx + 1];
        let block = match &self.resident {
            Some(blocks) => blocks.slice(at.start as usize..at.end as usize),
            None => {
                let block = read(self.head_len + at.start..self.head_len + at.end)?;
                if block.len() as u64 != at.end - at.start {
                    return Err(GofsError::Corrupt(format!(
                        "block {idx} of slice {:?} read {} of {} bytes",
                        self.key,
                        block.len(),
                        at.end - at.start
                    )));
                }
                let first = self.offsets[..=idx].windows(2);
                let first = first.map(|w| chunks_of(w[1] - w[0])).sum::<u64>();
                self.verify(first as usize, &block)?;
                block
            }
        };
        // A record is a tag and a row count at least: the block bounds the
        // column count before it sizes anything, and is empty for none.
        let n_cols = codec::check_count(&block, self.n_vertex_cols + self.n_edge_cols, 5)?;
        let sg = self.sg_ids[sg_index];
        if n_cols == 0 && !block.is_empty() {
            return Err(GofsError::Corrupt(format!(
                "block ({sg}, toff {toff}) has no columns but bytes"
            )));
        }
        Ok(Arc::new(SubgraphInstance {
            timestep: self.t_start + toff,
            timestamp: self.timestamps[toff],
            // Read from the header as a `u32`.
            n_vertex_cols: self.n_vertex_cols as u32,
            cols: std::iter::repeat_with(Default::default)
                .take(n_cols)
                .collect(),
            sg,
            block,
            base,
            kept: OnceLock::new(),
        }))
    }

    /// Check `block`'s chunks against the checksums from `first` on;
    /// returns the index of the next block's first chunk.
    fn verify(&self, first: usize, block: &[u8]) -> Result<usize> {
        let mut next = first;
        for chunk in block.chunks(CHUNK_LEN) {
            let actual = fnv1a64_lanes(chunk);
            // The head holds one checksum per chunk of every block.
            let expected = self.sums[next];
            if expected != actual {
                return Err(GofsError::ChecksumMismatch { expected, actual });
            }
            next += 1;
        }
        Ok(next)
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
            self.offsets.last().map_or(0, |&end| end as usize),
            self.n_vertex_cols,
            self.n_edge_cols,
        )
    }

    /// Approximate heap bytes held: the whole buffer a file read whole was
    /// read into (its capacity), or else the head and each base block
    /// read; plus every column the base instances decoded and every
    /// needle's matches they kept. Grows as columns are touched. A delta
    /// instance is not counted: it is its holder's, and goes with it.
    pub fn approx_bytes(&self) -> usize {
        let resident = self.resident.as_ref();
        let held = self.base_instances().map(|i| {
            let block = if resident.is_some() { 0 } else { i.block.len() };
            block + i.kept_bytes() + i.decoded().map(Column::approx_bytes).sum::<usize>()
        });
        let file = resident.map_or(self.head_len as usize, Bytes::buffer_capacity);
        file + held.sum::<usize>()
    }

    /// Columns the base instances decoded so far.
    pub fn decoded_columns(&self) -> usize {
        self.base_instances().flat_map(|i| i.decoded()).count()
    }

    fn base_instances(&self) -> impl Iterator<Item = &Arc<SubgraphInstance>> {
        self.bases.iter().filter_map(|b| b.get())
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

/// A slice file as [`encode_slice`] makes it: the head frame, then the
/// block region, written one after the other. `Bytes::from` joins them
/// (one copy), for a reader that takes the file in memory.
#[derive(Clone, Debug)]
pub struct SliceFile {
    /// The head frame.
    pub head: Bytes,
    /// The block region.
    pub blocks: Bytes,
}

impl From<SliceFile> for Bytes {
    fn from(file: SliceFile) -> Bytes {
        let mut out = BytesMut::with_capacity(file.head.len() + file.blocks.len());
        out.put_slice(&file.head);
        out.put_slice(&file.blocks);
        out.freeze()
    }
}

/// Encode a slice file (current version: columnar, delta-encoded, a head
/// with per-chunk checksums).
///
/// `rows` is indexed `[sg_index][timestep_offset]` and must be rectangular.
pub fn encode_slice(
    partition: u16,
    key: SliceKey,
    sg_ids: &[SubgraphId],
    t_start: usize,
    rows: &[Vec<Projection>],
) -> SliceFile {
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

    let mut head = BytesMut::new();
    head.put_u16_le(partition);
    head.put_u32_le(key.bin);
    head.put_u32_le(key.pack);
    head.put_u32_le(t_start as u32);
    head.put_u32_le(n_timesteps as u32);
    head.put_u32_le(sg_ids.len() as u32);
    for sg in sg_ids {
        head.put_u32_le(sg.0);
    }
    for &ts in &timestamps {
        head.put_i64_le(ts);
    }
    head.put_u32_le(n_vertex_cols as u32);
    head.put_u32_le(n_edge_cols as u32);
    for &o in &offsets {
        head.put_u64_le(o);
    }
    for w in offsets.windows(2) {
        for chunk in blocks[w[0] as usize..w[1] as usize].chunks(CHUNK_LEN) {
            head.put_u64_le(fnv1a64_lanes(chunk));
        }
    }
    SliceFile {
        head: frame(SLICE_MAGIC, &head),
        blocks: blocks.freeze(),
    }
}

/// Decode a slice file read whole: its head, and every chunk of its block
/// region verified — no column. The slice keeps `data` (its blocks are
/// views of it, not a copy), so a load allocates the file once.
pub fn decode_slice(data: Bytes) -> Result<SliceData> {
    let head = leading_frame(SLICE_MAGIC, &data)?;
    let head_len = head.end + 8;
    let blocks = data.slice(head_len..);
    let mut slice = decode_head_payload(data.slice(head), head_len as u64, blocks.len() as u64)?;
    let mut next = 0;
    for w in slice.offsets.windows(2) {
        next = slice.verify(next, &blocks[w[0] as usize..w[1] as usize])?;
    }
    slice.resident = Some(blocks);
    Ok(slice)
}

/// The length of the head frame whose first [`codec::FRAME_OVERHEAD`]
/// bytes are `header`, once its magic and version are checked.
pub(crate) fn head_len(header: &[u8]) -> Result<u64> {
    let payload = codec::frame_payload_len(SLICE_MAGIC, header)? as u64;
    Ok(payload.saturating_add(codec::FRAME_OVERHEAD as u64))
}

/// Decode the head frame of a `file_len`-byte slice file, read on its
/// own: a file whose length disagrees with its head is corrupt. The
/// blocks are read as they are asked for ([`SliceData::fetch`]).
pub(crate) fn decode_head(head: Bytes, file_len: u64) -> Result<SliceData> {
    let head_len = head.len() as u64;
    let payload = unframe_owned(SLICE_MAGIC, head)?;
    decode_head_payload(payload, head_len, file_len.saturating_sub(head_len))
}

/// Decode a head payload, the block region after it being `blocks_len`
/// bytes long.
fn decode_head_payload(mut buf: Bytes, head_len: u64, blocks_len: u64) -> Result<SliceData> {
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
    // Vet the directory once here so blocks can be sliced unchecked.
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
    if offsets.last().copied() != Some(blocks_len) {
        return Err(GofsError::Corrupt(format!(
            "column directory ends at {:?}, block region is {blocks_len} bytes",
            offsets.last()
        )));
    }
    let n_chunks = offsets
        .windows(2)
        .map(|w| chunks_of(w[1] - w[0]))
        .sum::<u64>();
    // A count past `usize` overruns the head.
    let sums: Vec<u64> = wire::get_vec(&mut buf, usize::try_from(n_chunks).unwrap_or(usize::MAX))?;
    if buf.remaining() > 0 {
        return Err(GofsError::Corrupt(format!(
            "{} trailing bytes in slice head",
            buf.remaining()
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
        t_start,
        n_timesteps,
        lookup,
        timestamps,
        n_vertex_cols,
        n_edge_cols,
        offsets,
        sums,
        head_len,
        resident: None,
        bases: std::iter::repeat_with(OnceLock::new).take(n_sg).collect(),
        sg_ids,
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

    /// Encode and decode a slice read whole.
    fn roundtrip(sg_ids: &[SubgraphId], t_start: usize, rows: &[Vec<Projection>]) -> SliceData {
        let key = SliceKey { bin: 0, pack: 0 };
        decode_slice(encode_slice(0, key, sg_ids, t_start, rows).into()).unwrap()
    }

    /// Where the column directory starts in a head payload.
    fn dir_at(head: &[u8]) -> usize {
        let word = |at: usize| u32::from_le_bytes(head[at..at + 4].try_into().unwrap()) as usize;
        22 + 4 * word(18) + 8 * word(14) + 8
    }

    /// Where the chunk table starts in a head payload.
    fn table_at(head: &[u8]) -> usize {
        let word = |at: usize| u32::from_le_bytes(head[at..at + 4].try_into().unwrap()) as usize;
        dir_at(head) + 8 * (word(18) * word(14) + 1)
    }

    /// A slice file as its head payload without the chunk table, then its
    /// blocks: the single run the directory tests warp.
    fn unseal(file: SliceFile) -> Vec<u8> {
        let head = unframe_owned(SLICE_MAGIC, file.head).unwrap();
        [&head[..table_at(&head)], &file.blocks[..]].concat()
    }

    /// [`unseal`]'s run as a file again, the chunk table computed afresh
    /// from its directory: damage behind valid checksums.
    fn seal(run: &[u8]) -> Bytes {
        let (head, blocks) = run.split_at(table_at(run));
        let offsets = head[dir_at(run)..].as_chunks::<8>().0.iter();
        let offsets: Vec<usize> = offsets.map(|w| u64::from_le_bytes(*w) as usize).collect();
        let mut head = head.to_vec();
        for w in offsets.windows(2) {
            let start = w[0].min(blocks.len());
            let block = &blocks[start..w[1].clamp(start, blocks.len())];
            for chunk in block.chunks(CHUNK_LEN) {
                head.extend_from_slice(&fnv1a64_lanes(chunk).to_le_bytes());
            }
        }
        [&frame(SLICE_MAGIC, &head)[..], blocks].concat().into()
    }

    #[test]
    fn slice_roundtrip() {
        let (sg_ids, rows, key) = sample();
        let data = encode_slice(3, key, &sg_ids, 20, &rows);
        let back = decode_slice(data.into()).unwrap();
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

    /// Versions 1 and 2 are refused by their number: no store of theirs
    /// outlives the build that wrote it.
    #[test]
    fn version_1_slice_is_unsupported() {
        let (sg_ids, rows, key) = sample();
        for version in [1u16, 2] {
            let mut data = Bytes::from(encode_slice(3, key, &sg_ids, 20, &rows)).to_vec();
            data[4..6].copy_from_slice(&version.to_le_bytes());
            assert!(matches!(
                decode_slice(data.clone().into()),
                Err(GofsError::UnsupportedVersion(v)) if v == version
            ));
            assert!(matches!(
                head_len(&data),
                Err(GofsError::UnsupportedVersion(v)) if v == version
            ));
        }
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
        let back = roundtrip(&[SubgraphId(7)], 0, &rows);
        let before = back.approx_bytes();
        let decoded = |cells: &[Arc<SubgraphInstance>]| {
            cells.iter().map(|c| c.decoded().count()).sum::<usize>()
        };
        // Loading every cell decodes nothing.
        let cells: Vec<_> = (0..4)
            .map(|t| back.get(SubgraphId(7), t).unwrap())
            .collect();
        assert_eq!(decoded(&cells), 0);
        assert_eq!(back.approx_bytes(), before);
        // One column at timestep 2: that column there and at the pack
        // base, which the slice keeps.
        assert_eq!(cells[2].edge_f64(0).unwrap(), &[2.0, 2.5]);
        assert_eq!((decoded(&cells), back.decoded_columns()), (2, 1));
        assert!(
            back.approx_bytes() > before,
            "accounting grows with the base's columns"
        );
        // One more per further timestep; a second read is free.
        cells[3].edge_f64(0).unwrap();
        cells[3].edge_f64(0).unwrap();
        assert_eq!(decoded(&cells), 3);
        assert!(cells.iter().all(|c| c
            .decoded()
            .all(|d| d.ty() == tempograph_core::AttrType::Double)));
        // The other column is as cheap, and equals what was written.
        let tweets = cells[1].vertex_text_list(0).unwrap();
        assert_eq!(decoded(&cells), 5);
        let got: Vec<Vec<&str>> = tweets.iter().map(|r| r.iter().collect()).collect();
        assert_eq!(got, vec![vec!["#a"], vec!["#t1"], vec!["#b", ""]]);
        // `get` hands back the kept base, and a delta instance of the
        // caller's own that patches it.
        assert!(Arc::ptr_eq(&cells[0], &back.get(SubgraphId(7), 0).unwrap()));
        let again = back.get(SubgraphId(7), 2).unwrap();
        assert!(!Arc::ptr_eq(&cells[2], &again));
        assert!(Arc::ptr_eq(again.base.as_ref().unwrap(), &cells[0]));
        for (t, row) in rows[0].iter().enumerate() {
            assert_eq!(*cells[t], SubgraphInstance::from(row.clone()));
        }
    }

    #[test]
    fn kept_needle_matches_are_counted() {
        let rows = vec![two_column_pack(4)];
        let back = roundtrip(&[SubgraphId(7)], 0, &rows);
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

    /// A slice read whole counts its buffer, room and all; a slice whose
    /// blocks are on disk counts its head and the base blocks it read,
    /// never a delta block.
    #[test]
    fn approx_bytes_counts_the_buffer_or_the_head_and_bases() {
        let (sg_ids, rows, key) = sample();
        let file = encode_slice(3, key, &sg_ids, 20, &rows);
        let whole = Bytes::from(file.clone());
        let mut buf = Vec::with_capacity(whole.len() + 100);
        buf.extend_from_slice(&whole);
        let back = decode_slice(buf.into()).unwrap();
        assert_eq!(back.approx_bytes(), whole.len() + 100);
        back.get(sg_ids[1], 21).unwrap();
        assert_eq!(back.approx_bytes(), whole.len() + 100);

        let on_disk = decode_head(file.head.clone(), whole.len() as u64).unwrap();
        let head = file.head.len();
        assert_eq!(on_disk.approx_bytes(), head);
        let mut read = |at: Range<u64>| Ok(whole.slice(at.start as usize..at.end as usize));
        let inst = on_disk.fetch(sg_ids[1], 21, &mut read).unwrap();
        let base = inst.base.as_ref().unwrap().block.len();
        assert_eq!(on_disk.approx_bytes(), head + base);
        drop(inst);
        assert_eq!(on_disk.approx_bytes(), head + base);
    }

    /// Blocks on disk are read when first asked for, a base once, a delta
    /// on each request, and each is verified as it is read: a bad chunk
    /// fails the requests for its block, every time, and nothing else.
    #[test]
    fn blocks_on_disk_are_read_and_verified_when_asked_for() {
        let rows = vec![two_column_pack(4)];
        let key = SliceKey { bin: 0, pack: 0 };
        let file = encode_slice(0, key, &[SubgraphId(7)], 0, &rows);
        let (head, len) = (
            file.head.len() as u64,
            (file.head.len() + file.blocks.len()) as u64,
        );
        let mut whole = Bytes::from(file.clone()).to_vec();
        let slice = decode_head(file.head.clone(), len).unwrap();
        let (offsets, ..) = slice.directory();
        let block = |i: usize| head + offsets[i]..head + offsets[i + 1];
        let blocks: Vec<_> = (0..4).map(block).collect();
        // Block 3's last byte, flipped.
        whole[blocks[3].end as usize - 1] ^= 1;
        let mut reads = Vec::new();
        let mut read = |at: Range<u64>| {
            reads.push(at.clone());
            Ok(Bytes::copy_from_slice(
                &whole[at.start as usize..at.end as usize],
            ))
        };
        let at2 = slice.fetch(SubgraphId(7), 2, &mut read).unwrap();
        assert_eq!(*at2, SubgraphInstance::from(rows[0][2].clone()));
        slice.fetch(SubgraphId(7), 0, &mut read).unwrap();
        slice.fetch(SubgraphId(7), 2, &mut read).unwrap();
        for _ in 0..2 {
            let err = slice.fetch(SubgraphId(7), 3, &mut read).unwrap_err();
            assert!(matches!(err, GofsError::ChecksumMismatch { .. }), "{err}");
        }
        let at1 = slice.fetch(SubgraphId(7), 1, &mut read).unwrap();
        assert_eq!(*at1, SubgraphInstance::from(rows[0][1].clone()));
        let want = [0, 2, 2, 3, 3, 1].map(|i| blocks[i].clone());
        assert_eq!(reads, want);
        // A read that comes back short is corrupt; a slice without its
        // blocks in memory cannot `get`.
        let err = slice
            .fetch(SubgraphId(7), 1, &mut |_| Ok(Bytes::new()))
            .unwrap_err();
        assert!(matches!(err, GofsError::Corrupt(_)), "{err}");
        let err = slice.get(SubgraphId(7), 1).unwrap_err();
        assert!(matches!(err, GofsError::OutOfRange(_)), "{err}");
        // A file of another length than its head states is corrupt.
        for wrong in [len - 1, len + 1] {
            let err = decode_head(file.head.clone(), wrong).unwrap_err();
            assert!(matches!(err, GofsError::Corrupt(_)), "{err}");
        }
    }

    /// Blocks are checksummed in chunks of their own: a block longer than
    /// a chunk has several, and the one damaged is found.
    #[test]
    fn a_long_block_is_checksummed_chunk_by_chunk() {
        let n = CHUNK_LEN / 8 * 2 + 3;
        let row = Projection {
            timestep: 0,
            timestamp: 0,
            vertex_cols: vec![Column::Double((0..n).map(|i| i as f64).collect())],
            edge_cols: vec![],
        };
        let key = SliceKey { bin: 0, pack: 0 };
        let file = encode_slice(0, key, &[SubgraphId(1)], 0, &[vec![row.clone()]]);
        let head = unframe_owned(SLICE_MAGIC, file.head.clone()).unwrap();
        assert_eq!(head.len() - table_at(&head), 3 * 8, "three chunks");
        let whole = Bytes::from(file.clone());
        let back = decode_slice(whole.clone()).unwrap();
        assert_eq!(*back.get(SubgraphId(1), 0).unwrap(), row.into());
        for at in [
            file.head.len(),
            file.head.len() + CHUNK_LEN,
            whole.len() - 1,
        ] {
            let mut bad = whole.to_vec();
            bad[at] ^= 0x40;
            let err = decode_slice(bad.into()).unwrap_err();
            assert!(
                matches!(err, GofsError::ChecksumMismatch { .. }),
                "{at}: {err}"
            );
        }
    }

    #[test]
    fn dense_double_cells_are_read_in_place() {
        let rows = vec![two_column_pack(4)];
        let back = roundtrip(&[SubgraphId(7)], 0, &rows);
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
        let back = roundtrip(&[SubgraphId(1)], 0, &[vec![long]]);
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
        let back = roundtrip(&sg_ids, 5, &rows);
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
        let back = roundtrip(&sg_ids, 0, &rows);
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
        let mut evil = Bytes::from(data).to_vec();
        // A byte of the head, and one of the block region.
        for at in [evil.len() / 4, evil.len() - 2] {
            evil[at] ^= 0xFF;
            assert!(decode_slice(Bytes::from(evil.clone())).is_err());
            evil[at] ^= 0xFF;
        }
        assert!(decode_slice(Bytes::from(evil)).is_ok());
    }

    #[test]
    fn corrupt_directory_rejected_at_decode() {
        let (sg_ids, rows, key) = sample();
        let run = unseal(encode_slice(3, key, &sg_ids, 20, &rows));
        // Directory starts after: 2 + 5*4 + 2*4 (ids) + 2*8 (timestamps) + 8.
        let dir = 2 + 20 + 8 + 16 + 8;
        assert_eq!(dir, dir_at(&run));
        // Truncate the block region so the last offset overruns.
        let err = decode_slice(seal(&run[..run.len() - 3])).unwrap_err();
        assert!(matches!(err, GofsError::Corrupt(_)), "{err}");

        // Make one directory offset non-monotone (checksums kept valid by
        // re-sealing) — rejected before any block decode.
        let mut warped = run.clone();
        warped[dir..dir + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = decode_slice(seal(&warped)).unwrap_err();
        assert!(matches!(err, GofsError::Corrupt(_)), "{err}");
        // A chunk table one entry short or long is corrupt too.
        let file = Bytes::from(encode_slice(3, key, &sg_ids, 20, &rows));
        let at = leading_frame(SLICE_MAGIC, &file).unwrap();
        let (head, blocks) = (&file[at.clone()], &file[at.end + 8..]);
        for head in [&head[..head.len() - 8], &[head, &[0; 8][..]].concat()[..]] {
            let file = [&frame(SLICE_MAGIC, head)[..], blocks].concat();
            let err = decode_slice(file.into()).unwrap_err();
            assert!(matches!(err, GofsError::Corrupt(_)), "{err}");
        }
    }

    #[test]
    fn corrupt_delta_record_fails_only_that_column() {
        let sg_ids = vec![SubgraphId(3)];
        let rows = vec![two_column_pack(3)];
        let run = unseal(encode_slice(
            0,
            SliceKey { bin: 0, pack: 0 },
            &sg_ids,
            0,
            &rows,
        ));
        // The last block ends in the dense latency record: tag, column
        // tag, u32 row count, 2 × f64. Claim a third row that is not there.
        let mut warped = run.clone();
        let count_at = warped.len() - 16 - 4;
        warped[count_at] = 3;
        let back = decode_slice(seal(&warped)).unwrap();
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
        let mut run = unseal(encode_slice(
            0,
            SliceKey { bin: 0, pack: 0 },
            &sg_ids,
            0,
            &rows,
        ));
        let blocks_len = (run.len() - (2 + 20 + 4 + 8 + 8 + 16)) as u64;
        run.push(0xAB);
        let dir_end = 2 + 20 + 4 + 8 + 8 + 8;
        run[dir_end..dir_end + 8].copy_from_slice(&(blocks_len + 1).to_le_bytes());
        let back = decode_slice(seal(&run)).unwrap();
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
        let data = Bytes::from(encode_slice(
            0,
            SliceKey { bin: 0, pack: 0 },
            &sg_ids,
            0,
            &rows,
        ));
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
