//! Differential property tests of the column-lazy read path: whatever
//! order columns and timesteps are touched in, every accessor hands back
//! exactly the projection that was written; a `Double` column read in
//! place is its decoded form bit for bit; a `TextList` count taken on a
//! record — a pack base's plain one, or a delta's against its base's
//! needle matches — is the decoded column's count; and corrupt bytes — behind
//! a valid checksum — end in a typed error or a value (the same one from
//! the record kernels as from the decoder), never in a panic or in an
//! allocation sized by a corrupt count.

use bytes::{Bytes, BytesMut};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tempograph_core::{AttrType, Column, TextRows};
use tempograph_gofs::codec::{
    delta_text_count_eq, get_column, get_delta_column, put_column, put_delta_column, skip_column,
    skip_delta_column, text_list_matches, TextMatches,
};
use tempograph_gofs::slice::{decode_slice, encode_slice, SliceData, SliceKey};
use tempograph_gofs::{F64Cells, GofsError, Projection};
use tempograph_partition::SubgraphId;

mod common;
use common::{seal, unseal};

const KEY: SliceKey = SliceKey { bin: 0, pack: 0 };
const TYPES: [AttrType; 6] = [
    AttrType::Long,
    AttrType::Double,
    AttrType::Bool,
    AttrType::Text,
    AttrType::LongList,
    AttrType::TextList,
];

/// Every string the generator writes.
const WORDS: [&str; 8] = [
    "",
    "a",
    "#tag",
    "é",
    "日本",
    "𝄞x",
    "naïve #é",
    "0123456789abcdef",
];

/// What a text count looks for: each written string — present (when
/// drawn), empty and multi-byte among them — and an absent one.
const NEEDLES: [&str; 9] = [
    WORDS[0], WORDS[1], WORDS[2], WORDS[3], WORDS[4], WORDS[5], WORDS[6], WORDS[7], "#absent",
];

/// The delta record tags (`codec.rs`).
const DELTA_DENSE: u8 = 0;
const DELTA_SPARSE: u8 = 1;

/// A `TextList` column of these rows.
fn text_list<S: AsRef<str>>(rows: &[Vec<S>]) -> Column {
    Column::TextList(TextRows::from_rows(
        rows.iter().map(|r| r.iter().map(AsRef::as_ref)),
    ))
}

// ---- the largest single allocation a thread asks for ---------------------

struct MaxAlloc;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|m| m.set(m.get().max(size)));
}

// SAFETY: defers every call to `System` unchanged; `note` only writes a
// const-initialised thread-local `Cell` and allocates nothing.
unsafe impl GlobalAlloc for MaxAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: MaxAlloc = MaxAlloc;

/// Run `f`; its largest single allocation must be explained by `bytes`
/// of input (a decoded row costs at most 24 bytes per encoded 4), not by
/// a count read from it.
fn bounded_by(bytes: usize, f: impl FnOnce()) {
    LARGEST.with(|m| m.set(0));
    f();
    let largest = LARGEST.with(|m| m.get());
    assert!(
        largest <= 8 * bytes + 1024,
        "a {largest}-byte allocation while decoding {bytes} bytes"
    );
}

// ---- data ----------------------------------------------------------------

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
    /// Empty, ASCII, and two-, three- and four-byte characters.
    fn text(&mut self) -> String {
        WORDS[self.below(WORDS.len())].to_string()
    }
    fn column(&mut self, ty: AttrType, rows: usize) -> Column {
        match ty {
            AttrType::Long => Column::Long((0..rows).map(|_| self.next() as i64).collect()),
            AttrType::Double => {
                Column::Double((0..rows).map(|_| self.below(1000) as f64 / 8.0).collect())
            }
            AttrType::Bool => Column::Bool((0..rows).map(|_| self.below(2) == 1).collect()),
            AttrType::Text => {
                let strings: Vec<String> = (0..rows).map(|_| self.text()).collect();
                Column::Text(TextRows::from_rows(strings.iter().map(|s| [s.as_str()])))
            }
            AttrType::LongList => Column::LongList(
                (0..rows)
                    .map(|_| (0..self.below(4)).map(|_| self.next() as i64).collect())
                    .collect(),
            ),
            AttrType::TextList => text_list(
                &(0..rows)
                    .map(|_| (0..self.below(4)).map(|_| self.text()).collect())
                    .collect::<Vec<Vec<String>>>(),
            ),
        }
    }
    /// `base` with none, a few, or all of its rows redrawn — so a pack
    /// mixes empty, sparse and dense-fallback delta records.
    fn perturbed(&mut self, base: &Column) -> Column {
        let fresh = self.column(base.ty(), base.len());
        let rows: Vec<u32> = match self.below(3) {
            0 => vec![],
            1 => (0..base.len() as u32)
                .filter(|_| self.below(4) == 0)
                .collect(),
            _ => return fresh,
        };
        base.patched(&rows, &fresh.gather_rows(&rows)).unwrap()
    }
}

/// One subgraph's pack: `n_ts` projections over the given schemas.
fn pack(
    rng: &mut Rng,
    vertex: &[u8],
    edge: &[u8],
    rows: (usize, usize),
    n_ts: usize,
) -> Vec<Projection> {
    let columns = |rng: &mut Rng, tags: &[u8], rows| -> Vec<Column> {
        tags.iter()
            .map(|&t| rng.column(TYPES[t as usize], rows))
            .collect()
    };
    let base = (columns(rng, vertex, rows.0), columns(rng, edge, rows.1));
    (0..n_ts)
        .map(|t| {
            let redraw = |rng: &mut Rng, cols: &[Column]| -> Vec<Column> {
                cols.iter()
                    .map(|c| if t == 0 { c.clone() } else { rng.perturbed(c) })
                    .collect()
            };
            Projection {
                timestep: 5 + t,
                timestamp: t as i64 * 60,
                vertex_cols: redraw(rng, &base.0),
                edge_cols: redraw(rng, &base.1),
            }
        })
        .collect()
}

/// The column as a fresh instance hands it back: `Err` as text.
fn read(
    slice: &SliceData,
    sg: SubgraphId,
    t: usize,
    vertex_side: bool,
    col: usize,
) -> Result<Column, String> {
    let inst = slice.get(sg, t).map_err(|e| e.to_string())?;
    let got = if vertex_side {
        inst.vertex_col(col)
    } else {
        inst.edge_col(col)
    };
    got.cloned().map_err(|e| e.to_string())
}

/// Every `(subgraph index, timestep offset, vertex side?, column)` of a
/// `n_sg × n_ts` slice over the given schemas, shuffled.
fn touches(
    rng: &mut Rng,
    n_sg: usize,
    n_ts: usize,
    vertex: usize,
    edge: usize,
) -> Vec<(usize, usize, bool, usize)> {
    let mut all = Vec::new();
    for sg in 0..n_sg {
        for t in 0..n_ts {
            all.extend((0..vertex).map(|c| (sg, t, true, c)));
            all.extend((0..edge).map(|c| (sg, t, false, c)));
        }
    }
    for i in (1..all.len()).rev() {
        all.swap(i, rng.below(i + 1));
    }
    all
}

/// A `Double` edge column read in place: `(read in place?, bits)`, or the
/// error as text.
fn cells(
    slice: &SliceData,
    sg: SubgraphId,
    t: usize,
    col: usize,
) -> Result<(bool, Vec<u64>), String> {
    let inst = slice.get(sg, t).map_err(|e| e.to_string())?;
    let cells = inst.edge_f64_cells(col).map_err(|e| e.to_string())?;
    let bits = (0..cells.len()).map(|q| cells.get(q).to_bits()).collect();
    Ok((matches!(cells, F64Cells::Raw(_)), bits))
}

/// The same column decoded: its bits, or the error as text.
fn decoded(slice: &SliceData, sg: SubgraphId, t: usize, col: usize) -> Result<Vec<u64>, String> {
    let inst = slice.get(sg, t).map_err(|e| e.to_string())?;
    let col = inst.edge_f64(col).map_err(|e| e.to_string())?;
    Ok(col.iter().map(|x| x.to_bits()).collect())
}

/// `TextList` vertex column `col` counted on the record, or the error as
/// text; and how many columns the instance has decoded since.
fn counted(
    slice: &SliceData,
    sg: SubgraphId,
    t: usize,
    col: usize,
    needle: &str,
) -> Result<(u64, usize), String> {
    let inst = slice.get(sg, t).map_err(|e| e.to_string())?;
    let count = inst.vertex_text_count_eq(col, needle);
    count
        .map(|n| (n, inst.decoded().count()))
        .map_err(|e| e.to_string())
}

/// The same column decoded and counted, or whether that failed.
fn decoded_count(
    slice: &SliceData,
    sg: SubgraphId,
    t: usize,
    col: usize,
    needle: &str,
) -> Option<u64> {
    let inst = slice.get(sg, t).ok()?;
    let rows = inst.vertex_text_list(col).ok()?;
    Some(rows.count_eq(needle))
}

/// `TextList` column `base`'s needle matches, as a pack base's walk of
/// its plain record finds them.
fn summary(base: &Column, needle: &str) -> TextMatches {
    assert_eq!(base.ty(), AttrType::TextList);
    let mut plain = BytesMut::new();
    put_column(&mut plain, base);
    text_list_matches(&plain, needle).unwrap().0
}

/// What the record kernel and the decoder say of one record.
type Verdicts = (Option<(u64, usize)>, Option<(u64, usize)>);

/// `TextList` record `record` over `base`, counted by the record kernel
/// and by decoding it: both `(count, record length)`, or `None` where
/// each fails.
fn both_counts(record: &[u8], base: &Column, needle: &str) -> Verdicts {
    let kernel = delta_text_count_eq(record, &summary(base, needle)).ok();
    let mut buf = Bytes::copy_from_slice(record);
    let decoder = match get_delta_column(&mut buf, base) {
        Ok(Column::TextList(t)) => Some((t.count_eq(needle), record.len() - buf.len())),
        _ => None,
    };
    (kernel, decoder)
}

/// What the plain-record kernel and the decoder say of one record: the
/// count, rows, text bytes, `M` and record length, or `None` where each
/// fails.
type Matches = Option<(u64, usize, usize, Vec<(u32, u32)>, usize)>;

/// Plain `TextList` record `record`, walked by the kernel and decoded.
fn both_matches(record: &[u8], needle: &str) -> (Matches, Matches) {
    let kernel = text_list_matches(record, needle).ok().map(|(m, len)| {
        assert_eq!(&*m.needle, needle);
        (m.count(), m.rows, m.text_len, m.matched, len)
    });
    let mut buf = Bytes::copy_from_slice(record);
    let decoder = match get_column(&mut buf) {
        Ok(Column::TextList(t)) => {
            let holding = t.iter().enumerate().filter_map(|(r, row)| {
                let n = row.iter().filter(|s| *s == needle).count() as u32;
                (n > 0).then_some((r as u32, n))
            });
            let len = record.len() - buf.len();
            Some((
                t.count_eq(needle),
                t.len(),
                t.text_len(),
                holding.collect(),
                len,
            ))
        }
        _ => None,
    };
    (kernel, decoder)
}

/// `payload` with its last block `cut` bytes shorter: the blocks end the
/// payload, and the directory's final offset sits just before them.
fn cut_last_block(payload: &[u8], blocks_len: usize, cut: usize) -> Vec<u8> {
    let end_at = payload.len() - blocks_len - 8;
    let mut out = payload[..payload.len() - cut].to_vec();
    out[end_at..end_at + 8].copy_from_slice(&((blocks_len - cut) as u64).to_le_bytes());
    out
}

proptest! {
    /// `Double` edge columns behind a `TextList` vertex column and other
    /// columns, in packs of 1 to 5 with dense and sparse deltas: a read in
    /// place equals the decoded column bit for bit, decodes nothing, and is
    /// taken for every plain and dense record. Flipped or truncated, it
    /// answers exactly as the decoder does, and never panics.
    #[test]
    fn double_cells_in_place_equal_the_decoded_column(
        vertex in proptest::collection::vec(0u8..6, 0..=2),
        edge in proptest::collection::vec(0u8..6, 0..=2),
        rows in 0usize..9,
        n_ts in 1usize..=5,
        seed in any::<u64>(),
        (pos_frac, flip, cut) in (0.0f64..1.0, 1u8..=255, 1usize..24),
    ) {
        let mut rng = Rng(seed | 1);
        let vertex = [&[5u8][..], &vertex].concat();
        let edge = [&edge[..], &[1, 1]].concat();
        let doubles: Vec<usize> = (0..edge.len()).filter(|&c| edge[c] == 1).collect();
        let sg_ids = [SubgraphId(4), SubgraphId(2)];
        let packs: Vec<Vec<Projection>> =
            (0..2).map(|_| pack(&mut rng, &vertex, &edge, (3, rows), n_ts)).collect();
        let framed = encode_slice(1, KEY, &sg_ids, 5, &packs);
        let (slice, other) = (decode_slice(framed.clone().into()).unwrap(), decode_slice(framed.clone().into()).unwrap());
        for (sg, pack) in sg_ids.iter().zip(&packs) {
            for (t, written) in pack.iter().enumerate() {
                for &c in &doubles {
                    let before = slice.decoded_columns();
                    let (raw, bits) = cells(&slice, *sg, 5 + t, c).unwrap();
                    prop_assert_eq!(&bits, &decoded(&other, *sg, 5 + t, c).unwrap());
                    let Column::Double(want) = &written.edge_cols[c] else { unreachable!() };
                    prop_assert_eq!(bits, want.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
                    // Plain and dense records: every row changed, or none.
                    let base = &pack[0].edge_cols[c];
                    let changed = written.edge_cols[c].changed_rows(base).unwrap().len();
                    prop_assert!(raw || (t > 0 && changed < rows), "decoded a dense record");
                    if raw {
                        prop_assert_eq!(slice.decoded_columns(), before);
                    }
                }
            }
        }

        let payload = unseal(framed.clone());
        let blocks_len = slice.directory().1;
        let mut flipped = payload.to_vec();
        let pos = ((flipped.len() - 1) as f64 * pos_frac) as usize;
        flipped[pos] ^= flip;
        let truncated = cut_last_block(&payload, blocks_len, cut.min(blocks_len));
        for warped in [flipped, truncated] {
            let reframed = seal(&warped);
            let (Ok(slice), Ok(other)) = (decode_slice(reframed.clone()), decode_slice(reframed)) else {
                continue;
            };
            for (&sg, t) in slice.sg_ids.iter().flat_map(|sg| (0..n_ts).map(move |t| (sg, t))) {
                for &c in &doubles {
                    let t = slice.t_start + t;
                    let view = cells(&slice, sg, t, c).map(|(_, bits)| bits);
                    prop_assert_eq!(view, decoded(&other, sg, t, c));
                }
            }
        }
        // The last block short of its last bytes: its last column fails.
        let truncated = seal(&cut_last_block(&payload, blocks_len, 1));
        let slice = decode_slice(truncated).unwrap();
        let last = doubles[doubles.len() - 1];
        prop_assert!(cells(&slice, sg_ids[1], 5 + n_ts - 1, last).is_err());
    }

    /// Written projections come back through the lazy accessors, column
    /// by column in any order.
    #[test]
    fn lazy_reads_equal_what_was_written(
        vertex in proptest::collection::vec(0u8..6, 0..=3),
        edge in proptest::collection::vec(0u8..6, 0..=3),
        v_rows in 0usize..7,
        e_rows in 0usize..7,
        n_ts in 1usize..5,
        seed in any::<u64>(),
    ) {
        let mut rng = Rng(seed | 1);
        let sg_ids = [SubgraphId(4), SubgraphId(2)];
        let rows: Vec<Vec<Projection>> =
            (0..2).map(|_| pack(&mut rng, &vertex, &edge, (v_rows, e_rows), n_ts)).collect();
        let slice = decode_slice(encode_slice(1, KEY, &sg_ids, 5, &rows).into()).unwrap();
        prop_assert_eq!(slice.decoded_columns(), 0);

        // A delta instance is its holder's: hold each one for the sweep.
        let held: Vec<Vec<_>> = (sg_ids.iter())
            .map(|&sg| (0..n_ts).map(|t| slice.get(sg, 5 + t).unwrap()).collect())
            .collect();
        let order = touches(&mut rng, 2, n_ts, vertex.len(), edge.len());
        for &(sg, t, vertex_side, c) in &order {
            let written = &rows[sg][t];
            let written = if vertex_side { &written.vertex_cols[c] } else { &written.edge_cols[c] };
            let inst = &held[sg][t];
            let got = if vertex_side { inst.vertex_col(c) } else { inst.edge_col(c) };
            prop_assert_eq!(got.unwrap(), written);
        }
        // Everything was touched once; nothing was decoded twice. The
        // slice keeps the bases' columns, every one of them touched.
        let decoded: usize = held.iter().flatten().map(|i| i.decoded().count()).sum();
        prop_assert_eq!(decoded, order.len());
        prop_assert_eq!(slice.decoded_columns(), 2 * (vertex.len() + edge.len()));
        // An accessor of the wrong side or past the schema is a typed error.
        let inst = slice.get(sg_ids[0], 5).unwrap();
        prop_assert!(inst.vertex_col(vertex.len()).is_err());
        prop_assert!(inst.edge_col(edge.len()).is_err());
    }

    /// The walkers stop exactly where the decoders stop, record by record.
    #[test]
    fn walkers_and_decoders_agree_on_record_ends(
        tags in proptest::collection::vec(0u8..6, 1..5),
        rows in 0usize..9,
        seed in any::<u64>(),
    ) {
        let mut rng = Rng(seed | 1);
        let base: Vec<Column> = tags.iter().map(|&t| rng.column(TYPES[t as usize], rows)).collect();
        let cur: Vec<Column> = base.iter().map(|c| rng.perturbed(c)).collect();
        let (mut full, mut delta) = (BytesMut::new(), BytesMut::new());
        for (b, c) in base.iter().zip(&cur) {
            put_column(&mut full, b);
            put_delta_column(&mut delta, b, c);
        }
        let (mut full_get, mut delta_get) = (full.freeze(), delta.freeze());
        let (mut full_skip, mut delta_skip) = (full_get.clone(), delta_get.clone());
        for (b, c) in base.iter().zip(&cur) {
            let decoded = get_column(&mut full_get).unwrap();
            skip_column(&mut full_skip).unwrap();
            prop_assert_eq!(full_skip.len(), full_get.len());
            let patched = get_delta_column(&mut delta_get, &decoded).unwrap();
            prop_assert_eq!(&patched, c);
            skip_delta_column(&mut delta_skip).unwrap();
            prop_assert_eq!(delta_skip.len(), delta_get.len());
            prop_assert_eq!(&decoded, b);
        }
        prop_assert_eq!((full_get.len(), delta_get.len()), (0, 0));
    }

    /// One column record, bit-flipped or truncated: both walkers, both
    /// decoders (the text decoder among them) return, and size nothing by
    /// a corrupt count.
    #[test]
    fn corrupt_records_never_panic_or_overallocate(
        tag in 0u8..6,
        rows in 0usize..9,
        seed in any::<u64>(),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
        truncate in any::<bool>(),
    ) {
        let mut rng = Rng(seed | 1);
        let base = rng.column(TYPES[tag as usize], rows);
        let cur = rng.perturbed(&base);
        let (mut full, mut delta) = (BytesMut::new(), BytesMut::new());
        put_column(&mut full, &cur);
        put_delta_column(&mut delta, &base, &cur);
        for record in [full.to_vec(), delta.to_vec()] {
            let pos = ((record.len() - 1) as f64 * pos_frac) as usize;
            let mut bad = record.clone();
            if truncate { bad.truncate(pos) } else { bad[pos] ^= flip }
            let bad = Bytes::from(bad);
            bounded_by(record.len(), || {
                let _ = skip_column(&mut bad.clone());
                let _ = get_column(&mut bad.clone());
                let _ = skip_delta_column(&mut bad.clone());
                let _ = get_delta_column(&mut bad.clone(), &base);
            });
        }
    }

    /// A whole slice, bit-flipped behind re-sealed checksums: every
    /// column of every cell, in any order, is the written value, another
    /// value, or a typed error — and an error never poisons its neighbours'
    /// ability to answer. Truncation is rejected outright.
    #[test]
    fn corrupt_slices_never_panic_or_overallocate(
        vertex in proptest::collection::vec(0u8..6, 0..=3),
        edge in proptest::collection::vec(0u8..6, 0..=3),
        n_ts in 1usize..4,
        seed in any::<u64>(),
        (pos_frac, flip, cut) in (0.0f64..1.0, 1u8..=255, 1usize..40),
    ) {
        let mut rng = Rng(seed | 1);
        let sg_ids = [SubgraphId(0), SubgraphId(1)];
        let rows: Vec<Vec<Projection>> =
            (0..2).map(|_| pack(&mut rng, &vertex, &edge, (5, 4), n_ts)).collect();
        let payload = unseal(encode_slice(0, KEY, &sg_ids, 5, &rows));
        let mut warped = payload.to_vec();
        let pos = ((warped.len() - 1) as f64 * pos_frac) as usize;
        warped[pos] ^= flip;
        // The chunk table re-sealed over the damage: the structural checks
        // behind the checksums meet it.
        let sealed = seal(&warped);
        let order = touches(&mut rng, 2, n_ts, vertex.len(), edge.len());
        bounded_by(warped.len(), || {
            let Ok(slice) = decode_slice(sealed) else { return };
            for &(sg, t, vertex_side, c) in &order {
                // The flip may have renamed a subgraph or moved the pack.
                let (Some(&sg), t) = (slice.sg_ids.get(sg), slice.t_start + t) else { continue };
                let first = read(&slice, sg, t, vertex_side, c);
                assert_eq!(first, read(&slice, sg, t, vertex_side, c), "an answer must repeat");
            }
        });
        let keep = payload.len().saturating_sub(cut).max(1);
        prop_assert!(decode_slice(seal(&payload[..keep])).is_err());
    }

    /// `TextList` vertex columns among other columns, in packs of 1 to 5
    /// whose records come out plain, sparse (low churn) and dense (high
    /// churn): a count taken on the record equals the decoded column's
    /// and the written one's, for every needle, touched in any order, and
    /// a delta instance decodes nothing for it.
    #[test]
    fn text_counts_on_the_record_equal_the_decoded_count(
        before in proptest::collection::vec(0u8..6, 0..=2),
        after in proptest::collection::vec(0u8..6, 0..=1),
        rows in 0usize..9,
        n_ts in 1usize..=5,
        seed in any::<u64>(),
    ) {
        let mut rng = Rng(seed | 1);
        let vertex = [&before[..], &[5], &after].concat();
        let sg_ids = [SubgraphId(4), SubgraphId(2)];
        let packs: Vec<Vec<Projection>> =
            (0..2).map(|_| pack(&mut rng, &vertex, &[1], (rows, 2), n_ts)).collect();
        let framed = encode_slice(1, KEY, &sg_ids, 5, &packs);
        let (slice, other) = (decode_slice(framed.clone().into()).unwrap(), decode_slice(framed.into()).unwrap());
        for (sg, t, _, c) in touches(&mut rng, 2, n_ts, vertex.len(), 0) {
            if vertex[c] != 5 {
                continue;
            }
            let Column::TextList(written) = &packs[sg][t].vertex_cols[c] else { unreachable!() };
            for needle in NEEDLES {
                let (count, decoded) = counted(&slice, sg_ids[sg], 5 + t, c, needle).unwrap();
                prop_assert_eq!(Some(count), decoded_count(&other, sg_ids[sg], 5 + t, c, needle));
                let strings = written.iter().flat_map(|row| row.iter());
                let want = strings.filter(|s| *s == needle).count();
                prop_assert_eq!(count, want as u64);
                // Nothing is decoded, pack bases included.
                prop_assert_eq!(decoded, 0);
            }
        }
    }

    /// A slice bit-flipped behind a re-framed checksum: the count on the
    /// record and the decoded count fail together or agree, whatever the
    /// flip hit — a base record, a delta record, the record before the
    /// text column, the directory.
    #[test]
    fn text_counts_on_corrupt_slices_answer_as_the_decoder(
        before in proptest::collection::vec(0u8..6, 0..=1),
        rows in 0usize..9,
        n_ts in 1usize..=4,
        seed in any::<u64>(),
        (pos_frac, flip, needle) in (0.0f64..1.0, 1u8..=255, 0usize..NEEDLES.len()),
    ) {
        let mut rng = Rng(seed | 1);
        let vertex = [&before[..], &[5]].concat();
        let c = vertex.len() - 1;
        let sg_ids = [SubgraphId(0), SubgraphId(1)];
        let packs: Vec<Vec<Projection>> =
            (0..2).map(|_| pack(&mut rng, &vertex, &[], (rows, 0), n_ts)).collect();
        let payload = unseal(encode_slice(0, KEY, &sg_ids, 5, &packs));
        let mut warped = payload.to_vec();
        let pos = ((warped.len() - 1) as f64 * pos_frac) as usize;
        warped[pos] ^= flip;
        let reframed = seal(&warped);
        bounded_by(warped.len(), || {
            let (Ok(slice), Ok(other)) = (decode_slice(reframed.clone()), decode_slice(reframed)) else {
                return;
            };
            for (&sg, t) in slice.sg_ids.iter().flat_map(|sg| (0..n_ts).map(move |t| (sg, t))) {
                let t = slice.t_start + t;
                let kernel = counted(&slice, sg, t, c, NEEDLES[needle]).ok().map(|(n, _)| n);
                assert_eq!(kernel, decoded_count(&other, sg, t, c, NEEDLES[needle]));
            }
        });
    }

    /// A plain `TextList` record — a pack base's — whole, bit-flipped or
    /// truncated as in `corrupt_records_never_panic_or_overallocate`: one
    /// walk of it fails where decoding it does, and otherwise finds the
    /// decoded column's count, rows and text bytes, `M` (the decoded rows
    /// holding the needle, with how many each) and where the record ends,
    /// sizing nothing by a corrupt count.
    #[test]
    fn needle_matches_on_a_plain_record_equal_the_decoded_rows(
        rows in 0usize..9,
        seed in any::<u64>(),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
        truncate in any::<bool>(),
        needle in 0usize..NEEDLES.len(),
    ) {
        let mut rng = Rng(seed | 1);
        let mut plain = BytesMut::new();
        put_column(&mut plain, &rng.column(AttrType::TextList, rows));
        let record = plain.to_vec();
        let whole = both_matches(&record, NEEDLES[needle]);
        prop_assert_eq!(&whole.0, &whole.1);
        prop_assert_eq!(whole.0.map(|m| m.4), Some(record.len()));
        let pos = ((record.len() - 1) as f64 * pos_frac) as usize;
        let mut bad = record.clone();
        if truncate { bad.truncate(pos) } else { bad[pos] ^= flip }
        bounded_by(record.len(), || {
            let (kernel, decoder) = both_matches(&bad, NEEDLES[needle]);
            assert_eq!(kernel, decoder);
        });
    }

    /// One `TextList` record, bit-flipped or truncated as in
    /// `corrupt_records_never_panic_or_overallocate` — a full record read
    /// as a dense delta, and the delta record itself: the record kernel
    /// and the decoder fail together or agree on the count and where the
    /// record ends, and size nothing by a corrupt count.
    #[test]
    fn text_counts_on_corrupt_records_answer_as_the_decoder(
        rows in 0usize..9,
        seed in any::<u64>(),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
        truncate in any::<bool>(),
        needle in 0usize..NEEDLES.len(),
    ) {
        let mut rng = Rng(seed | 1);
        let base = rng.column(AttrType::TextList, rows);
        let cur = rng.perturbed(&base);
        let (mut full, mut delta) = (BytesMut::new(), BytesMut::new());
        put_column(&mut full, &cur);
        put_delta_column(&mut delta, &base, &cur);
        let dense = [&[DELTA_DENSE][..], &full].concat();
        for record in [dense, delta.to_vec()] {
            let whole = both_counts(&record, &base, NEEDLES[needle]);
            prop_assert_eq!(whole.0, whole.1);
            prop_assert_eq!(whole.0.map(|(_, len)| len), Some(record.len()));
            let pos = ((record.len() - 1) as f64 * pos_frac) as usize;
            let mut bad = record.clone();
            if truncate { bad.truncate(pos) } else { bad[pos] ^= flip }
            bounded_by(record.len(), || {
                let (kernel, decoder) = both_counts(&bad, &base, NEEDLES[needle]);
                assert_eq!(kernel, decoder);
            });
        }
    }
}

/// Hazard: validating only the concatenated buffer would accept a
/// two-byte character split across two adjacent strings.
#[test]
fn a_character_split_across_two_strings_is_corrupt() {
    let whole = text_list(&[vec!["é", ""]]);
    let mut record = BytesMut::new();
    put_column(&mut record, &whole);
    // tag, u32 rows, u32 strings, then [len 2]["é"][len 0] — re-cut the
    // same ten bytes as [len 1][0xC3][len 1][0xA9].
    let at = 1 + 4 + 4;
    assert_eq!(&record[at..], [2, 0, 0, 0, 0xC3, 0xA9, 0, 0, 0, 0]);
    let split = [1, 0, 0, 0, 0xC3, 1, 0, 0, 0, 0xA9];
    let mut bad = record.to_vec();
    bad[at..].copy_from_slice(&split);
    let err = get_column(&mut Bytes::from(bad)).unwrap_err();
    assert!(matches!(err, GofsError::Corrupt(_)), "{err}");
    skip_column(&mut record.clone().freeze()).unwrap();

    // The same bytes inside a slice: every cell loads, the accessor says so.
    let row = Projection {
        timestep: 0,
        timestamp: 0,
        vertex_cols: vec![whole],
        edge_cols: vec![],
    };
    let framed = encode_slice(0, KEY, &[SubgraphId(9)], 0, &[vec![row]]);
    let mut payload = unseal(framed.clone());
    let at = payload.len() - split.len();
    payload[at..].copy_from_slice(&split);
    let slice = decode_slice(seal(&payload)).unwrap();
    let err = slice
        .get(SubgraphId(9), 0)
        .unwrap()
        .vertex_text_list(0)
        .unwrap_err();
    assert!(matches!(err, GofsError::Corrupt(_)), "{err}");
    assert!(err.to_string().contains("sg9 timestep 0 column 0"), "{err}");

    // The count on the record: the split in a pack base, which both of
    // its timesteps read, and in a dense and a sparse patch.
    let long = "0123456789abcdef0123456789";
    let col = |rows: &[&[&str]]| text_list(&rows.iter().map(|r| r.to_vec()).collect::<Vec<_>>());
    let cases = [
        ("base", [col(&[&["é", ""]]), col(&[&["é", ""]])], 0),
        ("dense patch", [col(&[&["a"]]), col(&[&["é", ""]])], 1),
        (
            "sparse patch",
            [col(&[&["a"], &[long]]), col(&[&["é", ""], &[long]])],
            1,
        ),
    ];
    for (what, pack, first_bad) in cases {
        let rows: Vec<Projection> = (pack.into_iter().enumerate())
            .map(|(t, c)| Projection {
                timestep: t,
                timestamp: t as i64,
                vertex_cols: vec![c],
                edge_cols: vec![],
            })
            .collect();
        let kinds = record_tags(&rows);
        let framed = encode_slice(0, KEY, &[SubgraphId(9)], 0, &[rows]);
        let mut payload = unseal(framed.clone());
        let at = (payload.windows(10))
            .position(|w| w == [2, 0, 0, 0, 0xC3, 0xA9, 0, 0, 0, 0])
            .unwrap();
        payload[at..at + 10].copy_from_slice(&split);
        let bad = seal(&payload);
        let (slice, other) = (
            decode_slice(bad.clone()).unwrap(),
            decode_slice(bad).unwrap(),
        );
        for t in 0..2 {
            let kernel = slice
                .get(SubgraphId(9), t)
                .unwrap()
                .vertex_text_count_eq(0, "é");
            let decoder = decoded_count(&other, SubgraphId(9), t, 0, "é");
            assert_eq!(
                kernel.is_err(),
                t >= first_bad,
                "{what} ({kinds:?}), t {t}: {kernel:?}"
            );
            assert_eq!(kernel.ok(), decoder, "{what}, t {t}");
        }
        let want = match what {
            "dense patch" => DELTA_DENSE,
            _ => DELTA_SPARSE,
        };
        assert_eq!(kinds, want, "{what}");
    }
}

/// A byte past a block's last record — a delta's, or a lone pack base's:
/// the count on the record, as the decoder, calls the block corrupt.
#[test]
fn a_trailing_byte_after_a_delta_record_is_corrupt() {
    let col = |tags: &[&str]| Column::TextList(TextRows::from_rows(tags.iter().map(|t| [*t])));
    let written = [col(&["#a", "#b", "#a"]), col(&["#a", "#a", "#a"])];
    for n_ts in [2, 1] {
        let rows: Vec<Projection> = (written[..n_ts].iter().enumerate())
            .map(|(t, c)| Projection {
                timestep: t,
                timestamp: t as i64,
                vertex_cols: vec![c.clone()],
                edge_cols: vec![],
            })
            .collect();
        let framed = encode_slice(0, KEY, &[SubgraphId(9)], 0, &[rows]);
        let blocks_len = decode_slice(framed.clone().into()).unwrap().directory().1;
        let mut payload = unseal(framed.clone());
        let end_at = payload.len() - blocks_len - 8;
        payload[end_at..end_at + 8].copy_from_slice(&(blocks_len as u64 + 1).to_le_bytes());
        payload.push(0);
        let bad = seal(&payload);
        let (slice, other) = (
            decode_slice(bad.clone()).unwrap(),
            decode_slice(bad).unwrap(),
        );
        let last = n_ts - 1;
        if last > 0 {
            assert_eq!(counted(&slice, SubgraphId(9), 0, 0, "#a"), Ok((2, 0)));
        }
        let err = counted(&slice, SubgraphId(9), last, 0, "#a").unwrap_err();
        assert!(err.contains("1 trailing bytes in block"), "{n_ts}: {err}");
        assert_eq!(decoded_count(&other, SubgraphId(9), last, 0, "#a"), None);
    }
}

/// The delta tag of each pack's one delta record.
fn record_tags(rows: &[Projection]) -> u8 {
    let mut record = BytesMut::new();
    put_delta_column(
        &mut record,
        &rows[0].vertex_cols[0],
        &rows[1].vertex_cols[0],
    );
    record[0]
}

/// A string that is not UTF-8 is corrupt however it compares with the
/// needle, in a dense delta and in a sparse one, and in the record's
/// last string as in its first.
#[test]
fn a_string_that_is_not_utf8_is_corrupt_whatever_the_needle() {
    let long = "0123456789abcdef0123456789";
    let base = text_list(&[vec!["a"], vec![long]]);
    for cur in [
        text_list(&[vec!["~", "#a"], vec![long]]),
        text_list(&[vec!["#a", "~"], vec!["b"]]),
    ] {
        let mut record = BytesMut::new();
        put_delta_column(&mut record, &base, &cur);
        let at = record.iter().position(|&b| b == b'~').unwrap();
        for needle in ["#a", "~", "", "b"] {
            let matches = summary(&base, needle);
            assert!(delta_text_count_eq(&record, &matches).is_ok());
            let mut bad = record.to_vec();
            bad[at] = 0xFF;
            let err = delta_text_count_eq(&bad, &matches).unwrap_err();
            assert!(matches!(err, GofsError::Corrupt(_)), "{err}");
            assert_eq!(both_counts(&bad, &base, needle), (None, None));
        }
    }
}

/// A pack of two `TextList` vertex columns and one timestep's projection
/// per entry of `cols`.
fn text_pack(cols: &[[Column; 2]]) -> Vec<Projection> {
    (cols.iter().enumerate())
        .map(|(t, c)| Projection {
            timestep: t,
            timestamp: t as i64,
            vertex_cols: c.to_vec(),
            edge_cols: vec![],
        })
        .collect()
}

/// One pack base asked for two needles in each of two `TextList` columns,
/// before its deltas and after them, in turn and again: every count is the
/// written one, whichever `(column, needle)` the base keeps, and nothing
/// is decoded.
#[test]
fn a_base_counts_every_needle_and_column_for_its_deltas() {
    let col = |rows: &[&[&str]]| text_list(&rows.iter().map(|r| r.to_vec()).collect::<Vec<_>>());
    let written = text_pack(&[
        [
            col(&[&["#a", "#b"], &["#a"], &[]]),
            col(&[&["#b"], &[], &["#b", "#b"]]),
        ],
        [
            col(&[&["#a", "#b"], &["#b"], &[]]),
            col(&[&["#b"], &["#a"], &["#b", "#b"]]),
        ],
        [
            col(&[&["#a", "#b"], &["#a"], &["#a"]]),
            col(&[&[], &[], &[]]),
        ],
    ]);
    assert_eq!(record_tags(&written), DELTA_SPARSE);
    let want = |t: usize, c: usize, needle: &str| {
        let Column::TextList(rows) = &written[t].vertex_cols[c] else {
            unreachable!()
        };
        rows.count_eq(needle)
    };
    let asks: Vec<(usize, usize, &str)> = (0..3)
        .flat_map(|t| (0..2).flat_map(move |c| ["#a", "#b"].map(|n| (t, c, n))))
        .collect();
    let framed = encode_slice(0, KEY, &[SubgraphId(9)], 0, std::slice::from_ref(&written));
    // Base first, deltas first, and every ask twice.
    for order in [asks.clone(), asks.iter().rev().copied().collect()] {
        let slice = decode_slice(framed.clone().into()).unwrap();
        for &(t, c, needle) in order.iter().chain(&order) {
            let got = counted(&slice, SubgraphId(9), t, c, needle);
            assert_eq!(
                got,
                Ok((want(t, c, needle), 0)),
                "t {t} column {c} {needle}"
            );
        }
        assert_eq!(slice.decoded_columns(), 0);
    }
}

/// A corrupt pack base record — a string that is not UTF-8 — fails the
/// base's count of that column and every delta's with a typed `Corrupt`,
/// as the decoder does; the other column of the same instances still
/// reads.
#[test]
fn a_corrupt_base_record_fails_every_count_of_its_column_only() {
    let col = |rows: &[&str]| text_list(&rows.iter().map(|r| vec![*r]).collect::<Vec<_>>());
    let written = text_pack(&[
        [col(&["~x", "#a", "#b"]), col(&["#a"; 3])],
        [col(&["~x", "#a", "#c"]), col(&["#a", "#b", "#a"])],
        [col(&["~x", "#c", "#c"]), col(&["#b"; 3])],
    ]);
    let framed = encode_slice(0, KEY, &[SubgraphId(9)], 0, std::slice::from_ref(&written));
    let mut payload = unseal(framed.clone());
    // "~x" is written once: in the base's record of column 0.
    let at = payload.iter().position(|&b| b == b'~').unwrap();
    assert_eq!(payload.iter().filter(|&&b| b == b'~').count(), 1);
    payload[at] = 0xFF;
    let bad = seal(&payload);
    let (slice, other) = (
        decode_slice(bad.clone()).unwrap(),
        decode_slice(bad).unwrap(),
    );
    for (t, row) in written.iter().enumerate() {
        let inst = slice.get(SubgraphId(9), t).unwrap();
        for needle in ["#a", "~x", ""] {
            let err = inst.vertex_text_count_eq(0, needle).unwrap_err();
            assert!(matches!(err, GofsError::Corrupt(_)), "t {t}: {err}");
            assert!(err.to_string().contains("sg9 timestep 0 column 0"), "{err}");
            assert_eq!(decoded_count(&other, SubgraphId(9), t, 0, needle), None);
        }
        let Column::TextList(fine) = &row.vertex_cols[1] else {
            unreachable!()
        };
        assert_eq!(
            inst.vertex_text_count_eq(1, "#a").unwrap(),
            fine.count_eq("#a")
        );
        assert_eq!(inst.vertex_text_list(1).unwrap(), fine);
    }
}

/// A `LongList` record whose row count is raised from 8 to 264: each row
/// is a 24-byte `Vec` in memory but 4 bytes on the wire at least, so the
/// decoder may reserve rows only by the bytes left, not by their number.
#[test]
fn a_raised_long_list_row_count_sizes_nothing_past_the_record() {
    let rows: Vec<Vec<i64>> = (0..8).map(|r| vec![r, -r]).collect();
    let mut record = BytesMut::new();
    put_column(&mut record, &Column::LongList(rows));
    let mut bad = record.to_vec();
    assert_eq!(bad[1..5], 8u32.to_le_bytes());
    bad[2] ^= 1;
    let bad = Bytes::from(bad);
    bounded_by(record.len(), || {
        assert!(get_column(&mut bad.clone()).is_err());
        assert!(skip_column(&mut bad.clone()).is_err());
    });
}
