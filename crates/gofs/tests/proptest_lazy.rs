//! Differential property tests of the column-lazy read path: whatever
//! order columns and timesteps are touched in, every accessor hands back
//! exactly the projection that was written; and corrupt bytes — behind a
//! valid checksum — end in a typed error or a value, never in a panic or
//! in an allocation sized by a corrupt count.

use bytes::{Bytes, BytesMut};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tempograph_core::{AttrType, Column};
use tempograph_gofs::codec::{
    frame, get_column, get_delta_column, put_column, put_delta_column, skip_column,
    skip_delta_column, unframe,
};
use tempograph_gofs::slice::{decode_slice, encode_slice, SliceData, SliceKey};
use tempograph_gofs::{DecodedColumn, GofsError, Projection};
use tempograph_partition::SubgraphId;

const MAGIC: [u8; 4] = *b"GFSL";
const KEY: SliceKey = SliceKey { bin: 0, pack: 0 };
const TYPES: [AttrType; 6] = [
    AttrType::Long,
    AttrType::Double,
    AttrType::Bool,
    AttrType::Text,
    AttrType::LongList,
    AttrType::TextList,
];

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
        WORDS[self.below(WORDS.len())].to_string()
    }
    fn column(&mut self, ty: AttrType, rows: usize) -> Column {
        match ty {
            AttrType::Long => Column::Long((0..rows).map(|_| self.next() as i64).collect()),
            AttrType::Double => {
                Column::Double((0..rows).map(|_| self.below(1000) as f64 / 8.0).collect())
            }
            AttrType::Bool => Column::Bool((0..rows).map(|_| self.below(2) == 1).collect()),
            AttrType::Text => Column::Text((0..rows).map(|_| self.text()).collect()),
            AttrType::LongList => Column::LongList(
                (0..rows)
                    .map(|_| (0..self.below(4)).map(|_| self.next() as i64).collect())
                    .collect(),
            ),
            AttrType::TextList => Column::TextList(
                (0..rows)
                    .map(|_| (0..self.below(4)).map(|_| self.text()).collect())
                    .collect(),
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
        let mut cur = base.clone();
        cur.scatter_rows(&rows, &fresh.gather_rows(&rows)).unwrap();
        cur
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
) -> Result<DecodedColumn, String> {
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

proptest! {
    /// Written projections come back through the lazy accessors, column
    /// by column in any order, text row by row.
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
        let slice = decode_slice(&encode_slice(1, KEY, &sg_ids, 5, &rows)).unwrap();
        prop_assert_eq!(slice.decoded_columns(), 0);

        let order = touches(&mut rng, 2, n_ts, vertex.len(), edge.len());
        for &(sg, t, vertex_side, c) in &order {
            let written = &rows[sg][t];
            let written = if vertex_side { &written.vertex_cols[c] } else { &written.edge_cols[c] };
            let got = read(&slice, sg_ids[sg], 5 + t, vertex_side, c).unwrap();
            prop_assert_eq!(&got, &DecodedColumn::from(written.clone()));
            match (&got, written) {
                (DecodedColumn::TextList(got), Column::TextList(rows)) => {
                    prop_assert_eq!(got.len(), rows.len());
                    for (i, row) in rows.iter().enumerate() {
                        prop_assert_eq!(&got.row(i).collect::<Vec<_>>(), row);
                    }
                }
                (DecodedColumn::Text(got), Column::Text(rows)) => {
                    let flat: Vec<&str> = got.iter().flatten().collect();
                    prop_assert_eq!(&flat, rows);
                }
                (DecodedColumn::Plain(got), written) => prop_assert_eq!(got, written),
                (got, written) => panic!("{:?} read back as {:?}", written.ty(), got.ty()),
            }
        }
        // Everything was touched once; nothing was decoded twice.
        prop_assert_eq!(slice.decoded_columns(), order.len());
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
            prop_assert_eq!(patched, DecodedColumn::from(c.clone()));
            skip_delta_column(&mut delta_skip).unwrap();
            prop_assert_eq!(delta_skip.len(), delta_get.len());
            prop_assert_eq!(decoded, DecodedColumn::from(b.clone()));
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
        let base = DecodedColumn::from(base);
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

    /// A whole slice, bit-flipped behind a re-framed checksum: every
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
        let payload = unframe(MAGIC, &encode_slice(0, KEY, &sg_ids, 5, &rows)).unwrap();
        let mut warped = payload.to_vec();
        let pos = ((warped.len() - 1) as f64 * pos_frac) as usize;
        warped[pos] ^= flip;
        let order = touches(&mut rng, 2, n_ts, vertex.len(), edge.len());
        bounded_by(warped.len(), || {
            let Ok(slice) = decode_slice(&frame(MAGIC, &warped)) else { return };
            for &(sg, t, vertex_side, c) in &order {
                // The flip may have renamed a subgraph or moved the pack.
                let (Some(&sg), t) = (slice.sg_ids.get(sg), slice.t_start + t) else { continue };
                let first = read(&slice, sg, t, vertex_side, c);
                assert_eq!(first, read(&slice, sg, t, vertex_side, c), "an answer must repeat");
            }
        });
        let keep = payload.len().saturating_sub(cut).max(1);
        prop_assert!(decode_slice(&frame(MAGIC, &payload[..keep])).is_err());
    }
}

/// Hazard: validating only the concatenated buffer would accept a
/// two-byte character split across two adjacent strings.
#[test]
fn a_character_split_across_two_strings_is_corrupt() {
    let whole = Column::TextList(vec![vec!["é".into(), "".into()]]);
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
    let mut payload = unframe(MAGIC, &framed).unwrap().to_vec();
    let at = payload.len() - split.len();
    payload[at..].copy_from_slice(&split);
    let slice = decode_slice(&frame(MAGIC, &payload)).unwrap();
    let err = slice
        .get(SubgraphId(9), 0)
        .unwrap()
        .vertex_text_list(0)
        .unwrap_err();
    assert!(matches!(err, GofsError::Corrupt(_)), "{err}");
    assert!(err.to_string().contains("sg9 timestep 0 column 0"), "{err}");
}
