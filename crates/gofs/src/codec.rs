//! GoFS's binary formats on `bytes`: the frame envelope and the column
//! codec. Every framed file (GoFS metadata and slices, engine checkpoints,
//! run records) carries a 4-byte magic, a `u16` version, a `u64` payload
//! length and a checksum footer ([`fnv1a64_lanes`]); see [`frame`] /
//! [`unframe_owned`]. A slice file's head is such a frame with the block
//! region after it (`leading_frame`).
//! Payloads decode through `tempograph_core::wire` ([`WireMsg`], checked
//! `get_*` reads): [`decode_framed`] for whole records, `wire::get_*` and
//! `wire::get_vec` for the slice and template headers; a [`WireError`] is
//! [`GofsError::Corrupt`].
//!
//! The column codec ([`put_column`], delta records) is a layout, not a
//! message: one-byte type tags (reusing [`AttrType::tag`]), then the rows
//! packed. It reads the rows itself, because its in-place walkers
//! (`read_u32`, `read_varu64`, `walk_text`, [`text_list_matches`],
//! [`delta_text_count_eq`], `f64_cells`) index a `&[u8]` where it lies and
//! `get_words` parses a run of 8-byte words with one bounds check: no
//! cursor advances per value, no string is copied to count it. Only its
//! tag bytes and `LongList` rows (each laid out as a `Vec<i64>`) go
//! through the vocabulary.

use crate::error::{GofsError, Result};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use tempograph_core::wire::{self, put_str, WireError, WireMsg};
use tempograph_core::{AttrType, Column, GraphTemplate, Schema, TextRows, VertexIdx};

/// Format version stamped into every framed file this build writes, and
/// the only one it reads: columnar delta slice payloads behind a framed
/// head with per-chunk checksums (see [`crate::slice`]), [`fnv1a64_lanes`]
/// checksums. Any other version is [`GofsError::UnsupportedVersion`].
pub const FORMAT_VERSION: u16 = 3;

/// Bytes in front of a frame's payload: magic, version, payload length.
const FRAME_HEADER_LEN: usize = 14;

/// Bytes a frame adds to its payload: the header and the checksum footer.
pub(crate) const FRAME_OVERHEAD: usize = FRAME_HEADER_LEN + 8;

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash — tiny, dependency-free, not cryptographic. Used
/// for run-ledger ids.
///
/// This is inherently byte-serial: every step multiplies the running hash
/// before the next byte is folded in (`h = (h ^ b) · p`), so the chain
/// cannot be widened or reordered without changing the output — there is
/// no output-compatible 8-byte-at-a-time form. Checksums therefore use
/// [`fnv1a64_lanes`].
pub fn fnv1a64(data: &[u8]) -> u64 {
    let mut h = FNV_BASIS;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The checksum of every frame, slice chunk and wire frame: FNV-1a over
/// 8-byte little-endian words, dealt round-robin to four independent
/// lanes (word `i` to lane `i % 4`), the lanes then folded into one hash
/// in order, as four more words. The lanes' multiplies do not wait on
/// each other, so a hash runs at about four words per multiply latency
/// rather than one; a single changed word changes its lane, and so the
/// hash, always. A short tail is zero-padded; that is unambiguous because
/// every checksummed run has its length fixed beside it (a frame's length
/// field, a slice's column directory).
pub fn fnv1a64_lanes(data: &[u8]) -> u64 {
    let fold = |h: u64, w: [u8; 8]| (h ^ u64::from_le_bytes(w)).wrapping_mul(FNV_PRIME);
    let mut lanes = [FNV_BASIS; 4];
    let (stripes, tail) = data.as_chunks::<32>();
    for stripe in stripes {
        let (words, _) = stripe.as_chunks::<8>();
        for (lane, &w) in lanes.iter_mut().zip(words) {
            *lane = fold(*lane, w);
        }
    }
    for (lane, part) in lanes.iter_mut().zip(tail.chunks(8)) {
        let mut w = [0u8; 8];
        w[..part.len()].copy_from_slice(part);
        *lane = fold(*lane, w);
    }
    lanes
        .iter()
        .fold(FNV_BASIS, |h, lane| fold(h, lane.to_le_bytes()))
}

/// Wrap `payload` with `magic`, the current version and checksum footer.
pub fn frame(magic: [u8; 4], payload: &[u8]) -> Bytes {
    let mut out = BytesMut::with_capacity(payload.len() + FRAME_OVERHEAD);
    out.put_slice(&magic);
    out.put_u16_le(FORMAT_VERSION);
    out.put_u64_le(payload.len() as u64);
    out.put_slice(payload);
    out.put_u64_le(fnv1a64_lanes(payload));
    out.freeze()
}

/// Validate magic/version/checksum of a buffer the caller hands over and
/// return the payload: a view of `data`, not a copy of it.
pub fn unframe_owned(magic: [u8; 4], data: Bytes) -> Result<Bytes> {
    let len = frame_payload_len(magic, &data)?;
    if data.len() - FRAME_OVERHEAD != len {
        return Err(GofsError::Corrupt(format!(
            "payload length {len} disagrees with file size"
        )));
    }
    let payload = checked_payload(&data, len)?;
    Ok(data.slice(payload))
}

/// Check the frame `data` starts with — magic, version, length, checksum
/// — and return where its payload lies. The bytes after the frame are the
/// caller's: a slice file's block region follows its head frame.
pub(crate) fn leading_frame(magic: [u8; 4], data: &[u8]) -> Result<std::ops::Range<usize>> {
    let len = frame_payload_len(magic, data)?;
    if data.len() - FRAME_OVERHEAD < len {
        return Err(GofsError::Corrupt(format!(
            "frame of {len} payload bytes overruns the {} bytes there are",
            data.len()
        )));
    }
    checked_payload(data, len)
}

/// Check the magic and version of the frame `data` starts with, and
/// return the payload length its header states. `data` holds at least the
/// header and the footer's worth of bytes ([`FRAME_OVERHEAD`]), else it
/// is no frame.
pub(crate) fn frame_payload_len(magic: [u8; 4], data: &[u8]) -> Result<usize> {
    let header = data.first_chunk::<FRAME_HEADER_LEN>();
    let Some(header) = header.filter(|_| data.len() >= FRAME_OVERHEAD) else {
        return Err(GofsError::Corrupt("file shorter than frame header".into()));
    };
    let buf = &mut &header[..];
    let found = wire::get_u32(buf, "frame magic")?.to_le_bytes();
    if found != magic {
        return Err(GofsError::BadMagic { found });
    }
    let version = wire::get_u16(buf, "frame version")?;
    if version != FORMAT_VERSION {
        return Err(GofsError::UnsupportedVersion(version));
    }
    // A length past `usize` overruns any buffer.
    Ok(usize::try_from(wire::get_u64(buf, "frame length")?).unwrap_or(usize::MAX))
}

/// The payload range of a frame whose `len`-byte payload `data` holds
/// with its footer, once the footer's checksum matches.
fn checked_payload(data: &[u8], len: usize) -> Result<std::ops::Range<usize>> {
    let payload = FRAME_HEADER_LEN..FRAME_HEADER_LEN + len;
    let footer = data.get(payload.end..).and_then(|f| f.first_chunk::<8>());
    let expected = u64::from_le_bytes(*footer.ok_or_else(|| {
        GofsError::Corrupt(format!("frame of {len} payload bytes has no checksum"))
    })?);
    let actual = fnv1a64_lanes(&data[payload.clone()]);
    if expected != actual {
        return Err(GofsError::ChecksumMismatch { expected, actual });
    }
    Ok(payload)
}

/// Unframe `data` and decode its payload with `decode`, which must consume
/// it exactly ([`wire::decode_exact`]). The one place a codec failure in a
/// framed record file (dataset metadata, partitioning, checkpoint,
/// manifest, ledger run record) becomes [`GofsError::Corrupt`], prefixed
/// with `what`. The payload is a view of `data` (see [`unframe_owned`]),
/// not a copy.
pub fn decode_framed<T>(
    magic: [u8; 4],
    data: Bytes,
    what: &str,
    decode: impl FnOnce(&mut Bytes) -> std::result::Result<T, WireError>,
) -> Result<T> {
    let payload = unframe_owned(magic, data)?;
    wire::decode_exact(payload, "payload", decode)
        .map_err(|e| GofsError::Corrupt(format!("{what}: {e}")))
}

/// Test helper: assert that `bytes` equal a committed hex golden.
///
/// The golden's first line names the version constant that governs the
/// bytes and the value they were taken at (`# FRAME_VERSION 4`); the rest
/// is hex, whitespace ignored. Panics when the header disagrees with
/// `constant` = `version`, or when the bytes changed while the version
/// did not — a layout change must come with a version bump, and a bump
/// with regenerated goldens. Either message prints the whole replacement
/// file, 32 bytes per line.
pub fn assert_hex_golden(bytes: &[u8], golden: &str, constant: &str, version: u16) {
    let (pinned, hex) = golden.split_once('\n').unwrap_or((golden, ""));
    let want: String = hex.split_whitespace().collect();
    let got: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
    let file = |version: u16| {
        let lines: Vec<&str> = got
            .as_bytes()
            .chunks(64)
            .map(|c| std::str::from_utf8(c).unwrap_or_default())
            .collect();
        format!("# {constant} {version}\n{}\n", lines.join("\n"))
    };
    let header = format!("# {constant} {version}");
    if pinned.trim() != header {
        panic!(
            "golden is pinned at `{}` but the code is at `{header}`; if the new layout is \
             deliberate, replace the golden with:\n{}",
            pinned.trim(),
            file(version)
        );
    }
    if got != want {
        panic!(
            "payload bytes changed ({} bytes now, {} in the golden) while {constant} stayed \
             {version}: bump {constant}, then replace the golden with:\n{}",
            bytes.len(),
            want.len() / 2,
            file(version + 1)
        );
    }
}

// ---- varints -------------------------------------------------------------

/// Append an LEB128 varint (7 value bits per byte, low bits first).
pub fn put_varu64(buf: &mut BytesMut, mut x: u64) {
    loop {
        let b = (x & 0x7f) as u8;
        x >>= 7;
        if x == 0 {
            buf.put_u8(b);
            return;
        }
        buf.put_u8(b | 0x80);
    }
}

/// Read an LEB128 varint (at most 10 bytes for a `u64`).
pub fn get_varu64(buf: &mut Bytes) -> Result<u64> {
    let mut at = 0;
    let x = read_varu64(buf, &mut at)?;
    buf.advance(at);
    Ok(x)
}

/// [`get_varu64`] at `*at` in `data`, stepping over it. A one-byte varint
/// — every row step of a patch that touches most rows — takes one branch.
fn read_varu64(data: &[u8], at: &mut usize) -> Result<u64> {
    if let Some(&b) = data.get(*at).filter(|&&b| b < 0x80) {
        *at += 1;
        return Ok(u64::from(b));
    }
    let mut x = 0u64;
    for shift in (0..64).step_by(7) {
        let b = *data.get(*at).ok_or_else(overrun)?;
        *at += 1;
        let low = (b & 0x7f) as u64;
        if shift == 63 && low > 1 {
            return Err(GofsError::Corrupt("varint overflows u64".into()));
        }
        x |= low << shift;
        if b & 0x80 == 0 {
            return Ok(x);
        }
    }
    Err(GofsError::Corrupt("varint longer than 10 bytes".into()))
}

/// Reject an element count the rest of `buf` cannot back (each element
/// encodes to at least `min_size` bytes), before a walker or a bulk parse
/// relies on the whole run being there. (A `Vec` decoded element by
/// element needs no such check: `wire::get_vec` caps its reservation.)
pub(crate) fn check_count(buf: &[u8], n: usize, min_size: usize) -> Result<usize> {
    if n.saturating_mul(min_size) > buf.len() {
        return Err(GofsError::Corrupt(format!(
            "count {n} overruns the {} bytes left",
            buf.len()
        )));
    }
    Ok(n)
}

// ---- schema -------------------------------------------------------------

/// Append a [`Schema`].
pub fn put_schema(buf: &mut BytesMut, schema: &Schema) {
    buf.put_u32_le(schema.len() as u32);
    for def in schema.iter() {
        def.name.encode(buf);
        buf.put_u8(def.ty.tag());
    }
}

/// Read a [`Schema`], then validate it.
pub fn get_schema(buf: &mut Bytes) -> Result<Schema> {
    let n = wire::get_u32(buf, "schema length")?;
    let mut schema = Schema::new();
    for _ in 0..n {
        let name = String::decode(buf)?;
        let tag = wire::get_u8(buf, "attr type tag")?;
        let ty = AttrType::from_tag(tag)
            .ok_or_else(|| GofsError::Corrupt(format!("unknown attr type tag {tag}")))?;
        schema.add(name, ty);
    }
    schema.validate().map_err(GofsError::Core)?;
    Ok(schema)
}

// ---- columns ------------------------------------------------------------

/// Append a typed [`Column`] (tag + length + packed values).
pub fn put_column(buf: &mut BytesMut, col: &Column) {
    buf.put_u8(col.ty().tag());
    buf.put_u32_le(col.len() as u32);
    match col {
        Column::Long(v) => {
            for &x in v {
                buf.put_i64_le(x);
            }
        }
        Column::Double(v) => {
            for &x in v {
                buf.put_f64_le(x);
            }
        }
        Column::Bool(v) => {
            // Bit-packed, 8 per byte.
            let mut byte = 0u8;
            for (i, &b) in v.iter().enumerate() {
                if b {
                    byte |= 1 << (i % 8);
                }
                if i % 8 == 7 {
                    buf.put_u8(byte);
                    byte = 0;
                }
            }
            if v.len() % 8 != 0 {
                buf.put_u8(byte);
            }
        }
        // A row is laid out as its `Vec<i64>`.
        Column::LongList(v) => v.iter().for_each(|list| list.encode(buf)),
        // A `Text` row is its one string, a `TextList` row a count first.
        Column::Text(rows) | Column::TextList(rows) => {
            let lists = matches!(col, Column::TextList(_));
            for row in rows.iter() {
                if lists {
                    buf.put_u32_le(row.len() as u32);
                }
                for s in row.iter() {
                    put_str(buf, s);
                }
            }
        }
    }
}

/// Read a column record's tag and row count.
fn column_header(buf: &mut Bytes) -> Result<(AttrType, usize)> {
    let mut at = 0;
    let header = read_column_header(buf, &mut at)?;
    buf.advance(at);
    Ok(header)
}

/// [`column_header`] at `*at` in `data`, stepping over it.
fn read_column_header(data: &[u8], at: &mut usize) -> Result<(AttrType, usize)> {
    let tag = *data.get(*at).ok_or_else(overrun)?;
    let ty = AttrType::from_tag(tag)
        .ok_or_else(|| GofsError::Corrupt(format!("unknown column tag {tag}")))?;
    *at += 1;
    let rows = data.get(*at..).and_then(|d| d.first_chunk::<4>());
    let rows = rows.ok_or_else(overrun)?;
    *at += 4;
    Ok((ty, u32::from_le_bytes(*rows) as usize))
}

/// Checked `advance`.
fn skip(buf: &mut Bytes, n: usize) -> Result<()> {
    buf.advance(check_count(buf, n, 1)?);
    Ok(())
}

/// Read a typed column; text comes out flat (see [`TextRows`]).
pub fn get_column(buf: &mut Bytes) -> Result<Column> {
    let (ty, len) = column_header(buf)?;
    Ok(match ty {
        AttrType::Long => Column::Long(get_words(buf, len, i64::from_le_bytes)?),
        AttrType::Double => Column::Double(get_words(buf, len, f64::from_le_bytes)?),
        AttrType::Bool => {
            let raw = buf.split_to(check_count(buf, len.div_ceil(8), 1)?);
            let v = (0..len).map(|i| raw[i / 8] & (1 << (i % 8)) != 0).collect();
            Column::Bool(v)
        }
        AttrType::LongList => Column::LongList(wire::get_vec(buf, len)?),
        AttrType::Text => Column::Text(get_text_rows(buf, len, false)?),
        AttrType::TextList => Column::TextList(get_text_rows(buf, len, true)?),
    })
}

/// `len` 8-byte little-endian values off the front of `buf`: one bounds
/// check for the whole run, not one per value.
fn get_words<T>(buf: &mut Bytes, len: usize, from_le: fn([u8; 8]) -> T) -> Result<Vec<T>> {
    let n = check_count(buf, len, 8)? * 8;
    let v = buf[..n]
        .as_chunks::<8>()
        .0
        .iter()
        .map(|&w| from_le(w))
        .collect();
    buf.advance(n);
    Ok(v)
}

/// Step over one [`put_column`] record without allocating: fixed-width
/// columns are O(1), list and text columns walk their length prefixes.
pub fn skip_column(buf: &mut Bytes) -> Result<()> {
    let (ty, len) = column_header(buf)?;
    match ty {
        AttrType::Long | AttrType::Double => skip(buf, len.saturating_mul(8)),
        AttrType::Bool => skip(buf, len.div_ceil(8)),
        AttrType::LongList => (0..len).try_for_each(|_| {
            let m = wire::get_u32(buf, "LongList row length")? as usize;
            skip(buf, m.saturating_mul(8))
        }),
        AttrType::Text | AttrType::TextList => {
            let (_, _, used) = walk_text(buf, len, ty == AttrType::TextList, |_, _| Ok(()))?;
            skip(buf, used)
        }
    }
}

fn overrun() -> GofsError {
    GofsError::Corrupt("column record overruns buffer".into())
}

/// Little-endian `u32` at `*at`, stepping over it.
fn read_u32(data: &[u8], at: &mut usize) -> Result<usize> {
    let b = data.get(*at..).and_then(|d| d.first_chunk::<4>());
    *at += 4;
    b.map(|b| u32::from_le_bytes(*b) as usize)
        .ok_or_else(overrun)
}

/// Measure the body of a `Text` (`lists == false`) or `TextList` column of
/// `rows` rows at the head of `data`, handing `each` every string's row
/// and bytes in order: `(strings, string bytes, encoded bytes)`. Every
/// length is vetted against `data`, which bounds all three.
fn walk_text(
    data: &[u8],
    rows: usize,
    lists: bool,
    mut each: impl FnMut(usize, &[u8]) -> Result<()>,
) -> Result<(usize, usize, usize)> {
    let (mut at, mut strings, mut bytes) = (0, 0, 0);
    for row in 0..rows {
        let m = if lists { read_u32(data, &mut at)? } else { 1 };
        for _ in 0..m {
            let len = read_u32(data, &mut at)?;
            let s = (at.checked_add(len))
                .and_then(|end| data.get(at..end))
                .ok_or_else(overrun)?;
            each(row, s)?;
            (at, bytes) = (at + len, bytes + len);
        }
        strings += m;
    }
    Ok((strings, bytes, at))
}

/// Decode a text column body into one flat [`TextRows`]: a sizing walk,
/// then exactly three allocations however many rows and strings it has.
fn get_text_rows(buf: &mut Bytes, rows: usize, lists: bool) -> Result<TextRows> {
    let (strings, nbytes, used) = walk_text(buf, rows, lists, |_, _| Ok(()))?;
    let mut bytes = Vec::with_capacity(nbytes);
    let mut str_ends = Vec::with_capacity(strings);
    let mut row_ends = Vec::with_capacity(rows);
    let mut at = 0;
    for _ in 0..rows {
        let m = if lists { read_u32(buf, &mut at)? } else { 1 };
        for _ in 0..m {
            let len = read_u32(buf, &mut at)?;
            bytes.extend_from_slice(buf.get(at..at + len).ok_or_else(overrun)?);
            at += len;
            str_ends.push(bytes.len() as u32);
        }
        row_ends.push(str_ends.len() as u32);
    }
    skip(buf, used)?;
    // Validated once as a whole, then at each string boundary: a
    // multi-byte character split across two strings is corrupt.
    TextRows::from_parts(bytes, str_ends, row_ends).ok_or_else(not_utf8)
}

fn not_utf8() -> GofsError {
    GofsError::Corrupt("text column is not UTF-8, string by string".into())
}

// ---- delta columns (v2 slices) ------------------------------------------

/// Delta record tag: a full [`put_column`] follows (dense fallback).
const DELTA_DENSE: u8 = 0;
/// Delta record tag: varint change count, delta-coded ascending row
/// indices, then a gathered [`put_column`] of just the changed values.
const DELTA_SPARSE: u8 = 1;

/// Exact [`put_column`] output size in bytes, without encoding.
pub fn encoded_column_size(col: &Column) -> usize {
    let body = match col {
        Column::Long(v) => v.len() * 8,
        Column::Double(v) => v.len() * 8,
        Column::Bool(v) => v.len().div_ceil(8),
        Column::LongList(v) => v.iter().map(|l| 4 + l.len() * 8).sum(),
        Column::Text(t) => 4 * t.num_strings() + t.text_len(),
        Column::TextList(t) => 4 * (t.len() + t.num_strings()) + t.text_len(),
    };
    1 + 4 + body // tag + length prefix + packed values
}

/// Append `cur` encoded as a delta against `base`: sparse
/// (changed-rows-only) when that is strictly smaller than re-encoding the
/// whole column, dense otherwise. `base` and `cur` must be same-typed,
/// same-length projections of one column — the writer guarantees this, so
/// a mismatch panics (encode side only; the decode side never panics).
pub fn put_delta_column(buf: &mut BytesMut, base: &Column, cur: &Column) {
    let rows = cur
        .changed_rows(base)
        .expect("delta-encoded columns must be same-typed and same-length");
    // With every row changed (i.i.d. data) a sparse record is the dense
    // one plus its indices. Otherwise encode it in place — varint count,
    // delta-coded indices, gathered values — and keep it if smaller.
    if rows.len() < cur.len() {
        let at = buf.len();
        buf.put_u8(DELTA_SPARSE);
        put_varu64(buf, rows.len() as u64);
        let mut prev = 0u64;
        for &r in &rows {
            put_varu64(buf, r as u64 - prev);
            prev = r as u64;
        }
        put_column(buf, &cur.gather_rows(&rows));
        if buf.len() - at - 1 < encoded_column_size(cur) {
            return;
        }
        buf.truncate(at);
    }
    buf.put_u8(DELTA_DENSE);
    put_column(buf, cur);
}

/// Read a delta record written by [`put_delta_column`] and rebuild the
/// full column from `base`, the same column of the pack's base snapshot,
/// through [`Column::patched`]. All structural failures (unknown tag,
/// out-of-range rows, type/length disagreements) surface as typed
/// [`GofsError`]s.
pub fn get_delta_column(buf: &mut Bytes, base: &Column) -> Result<Column> {
    match wire::get_u8(buf, "delta tag")? {
        DELTA_DENSE => {
            let col = get_column(buf)?;
            let shape = |c: &Column| (c.ty(), c.len());
            if shape(&col) != shape(base) {
                let (col, base) = (shape(&col), shape(base));
                return Err(GofsError::Corrupt(format!(
                    "dense delta {col:?} over a {base:?} base"
                )));
            }
            Ok(col)
        }
        DELTA_SPARSE => {
            // Row indices, each a byte at least; that they are in range
            // and strictly ascend is vetted where they are applied.
            let n = get_varu64(buf)? as usize;
            let mut rows = Vec::with_capacity(check_count(buf, n, 1)?);
            let mut at = 0u32;
            for _ in 0..n {
                at = (u32::try_from(get_varu64(buf)?).ok())
                    .and_then(|step| at.checked_add(step))
                    .ok_or_else(|| GofsError::Corrupt("sparse delta row out of range".into()))?;
                rows.push(at);
            }
            let patch = get_column(buf)?;
            base.patched(&rows, &patch).map_err(|e| {
                let base = base.ty();
                GofsError::Corrupt(format!("sparse delta does not apply to {base:?}: {e}"))
            })
        }
        other => Err(GofsError::Corrupt(format!("unknown delta tag {other}"))),
    }
}

/// Step over one [`put_delta_column`] record without allocating.
pub fn skip_delta_column(buf: &mut Bytes) -> Result<()> {
    match wire::get_u8(buf, "delta tag")? {
        DELTA_DENSE => skip_column(buf),
        DELTA_SPARSE => {
            for _ in 0..get_varu64(buf)? {
                get_varu64(buf)?;
            }
            skip_column(buf)
        }
        other => Err(GofsError::Corrupt(format!("unknown delta tag {other}"))),
    }
}

/// What a delta record's count needs of its pack base's `TextList`
/// column, found in one walk of the base's plain record
/// ([`text_list_matches`]): the column's shape, and `M`, the rows holding
/// one needle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TextMatches {
    /// The string looked for.
    pub needle: Box<str>,
    /// Rows of the column.
    pub rows: usize,
    /// Bytes of text over all its strings.
    pub text_len: usize,
    /// `M`: the rows holding `needle`, ascending, each with how many
    /// strings of it equal `needle`.
    pub matched: Vec<(u32, u32)>,
}

impl TextMatches {
    /// How many strings of the column equal the needle: the sum over `M`.
    pub fn count(&self) -> u64 {
        self.matched.iter().map(|&(_, n)| u64::from(n)).sum()
    }

    /// Heap bytes held: what is reserved, not just what is used.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.needle.len() + self.matched.capacity() * std::mem::size_of::<(u32, u32)>()
    }
}

/// The [`TextMatches`] of `needle` in the `TextList` [`put_column`] record
/// at the head of `record`, and the record's length, found in one walk of
/// the record where it lies: what [`get_column`] then
/// [`TextRows::count_eq`] give, or an error wherever the decoder errs.
/// Nothing is built but `M`.
pub fn text_list_matches(record: &[u8], needle: &str) -> Result<(TextMatches, usize)> {
    let mut matched: Vec<(u32, u32)> = Vec::new();
    // A row number fits a `u32`: the header counts rows in one.
    let (rows, text_len, len) =
        text_list_walk(record, needle.as_bytes(), |row| match matched.last_mut() {
            Some((r, n)) if *r as usize == row => *n += 1,
            _ => matched.push((row as u32, 1)),
        })?;
    // A base keeps its matches as long as it lives.
    matched.shrink_to_fit();
    let needle = needle.into();
    let matches = TextMatches {
        needle,
        rows,
        text_len,
        matched,
    };
    Ok((matches, len))
}

/// How many strings equal the needle in the `TextList` column a
/// [`put_delta_column`] record over its base stands for — what
/// [`get_delta_column`] and [`TextRows::count_eq`] give, or an error
/// wherever the decoder errs — and how long the record is. `base` is the
/// base column's [`TextMatches`] of the needle. Nothing is built. A dense
/// record is walked in place. A sparse one counts
/// `count(base) − Σ_{r ∈ P ∩ M} c_base(r) + count(patch)`: `P` are the
/// patched rows, read off their varints one at a time, and `M` the base's
/// matches. The two sorted lists merge, so no base row is read at all.
///
/// Every check the decoder makes is made here: the tag, each length
/// against the record, each string's UTF-8, rows in range and strictly
/// ascending, the patch a `TextList` of one row per index (a dense record
/// one of the base's rows), and the `u32` bound of base and patch text
/// together.
pub fn delta_text_count_eq(record: &[u8], base: &TextMatches) -> Result<(u64, usize)> {
    let needle = base.needle.as_bytes();
    let count_eq = |plain: &[u8]| {
        let mut count = 0;
        let (rows, bytes, len) = text_list_walk(plain, needle, |_| count += 1)?;
        Ok::<_, GofsError>((count, rows, bytes, len))
    };
    let mut at = 1;
    match record.first() {
        Some(&DELTA_DENSE) => {
            let (count, rows, _, len) = count_eq(&record[at..])?;
            if rows != base.rows {
                let base = base.rows;
                return Err(GofsError::Corrupt(format!(
                    "dense delta of {rows} rows over a {base}-row base"
                )));
            }
            Ok((count, at + len))
        }
        Some(&DELTA_SPARSE) => {
            // Row indices, each a byte at least.
            let n = read_varu64(record, &mut at)? as usize;
            let n = check_count(&record[at..], n, 1)?;
            let mut count = base.count();
            let mut matched = base.matched.iter().peekable();
            let mut row = 0u64;
            for k in 0..n {
                let step = read_varu64(record, &mut at)?;
                row = (row.checked_add(step))
                    .filter(|&row| row < base.rows as u64 && (k == 0 || step > 0))
                    .ok_or_else(|| {
                        GofsError::Corrupt("sparse delta row out of range or repeated".into())
                    })?;
                while let Some(&(r, c)) = matched.next_if(|&&(r, _)| u64::from(r) <= row) {
                    if u64::from(r) == row {
                        count -= u64::from(c);
                    }
                }
            }
            let (patched, rows, bytes, len) = count_eq(&record[at..])?;
            if rows != n || u32::try_from(base.text_len + bytes).is_err() {
                return Err(GofsError::Corrupt(
                    "sparse delta does not apply to TextList".into(),
                ));
            }
            Ok((count + patched, at + len))
        }
        Some(&other) => Err(GofsError::Corrupt(format!("unknown delta tag {other}"))),
        None => Err(overrun()),
    }
}

/// Walk a `TextList` [`put_column`] record at the head of `record` where
/// it lies, handing `hit` the row of each string equal to `needle`, with
/// every check [`get_text_rows`] makes: each length vetted against the
/// record, each string UTF-8 — string by string is the decoder's rule, a
/// valid buffer that every string end cuts at a character boundary — and
/// their bytes within the `u32` bound. `(rows, string bytes, record
/// length)`.
fn text_list_walk(
    record: &[u8],
    needle: &[u8],
    mut hit: impl FnMut(usize),
) -> Result<(usize, usize, usize)> {
    let mut at = 0;
    let (ty, rows) = read_column_header(record, &mut at)?;
    if ty != AttrType::TextList {
        return Err(GofsError::Corrupt(format!("{ty:?} record, not TextList")));
    }
    let body = &record[at..];
    let (_, bytes, used) = walk_text(body, rows, true, |row, s| {
        if s == needle {
            hit(row);
        }
        Ok(())
    })?;
    // A body that is ASCII throughout, length prefixes included, holds
    // ASCII strings only: one vectorised pass vets them all. Any other
    // body is vetted string by string.
    if !body[..used].is_ascii() {
        walk_text(body, rows, true, |_, s| {
            std::str::from_utf8(s).map(drop).map_err(|_| not_utf8())
        })?;
    }
    u32::try_from(bytes).map_err(|_| not_utf8())?;
    Ok((rows, bytes, at + used))
}

/// The cells of a `Double` record, as little-endian words where they lie
/// in `record`: a [`put_column`] record (`base` is `None`), or a dense
/// [`put_delta_column`] record over a `Double` `base` record of as many
/// rows, whose count is read from its header alone. `None` for any other
/// record — a sparse delta, another type, a count its bytes do not back —
/// which the caller decodes instead, so the errors stay the decoder's.
pub(crate) fn f64_cells<'a>(record: &'a [u8], base: Option<&[u8]>) -> Option<&'a [[u8; 8]]> {
    let Some(base) = base else {
        return plain_f64_cells(record);
    };
    let (&DELTA_DENSE, plain) = record.split_first()? else {
        return None;
    };
    let cells = plain_f64_cells(plain)?;
    (cells.len() == plain_f64_cells(base)?.len()).then_some(cells)
}

/// [`f64_cells`] of a [`put_column`] record.
fn plain_f64_cells(record: &[u8]) -> Option<&[[u8; 8]]> {
    let (&tag, rest) = record.split_first()?;
    let (count, body) = rest.split_first_chunk::<4>()?;
    let (cells, tail) = body.as_chunks::<8>();
    let whole = tag == AttrType::Double.tag() && tail.is_empty();
    (whole && cells.len() == u32::from_le_bytes(*count) as usize).then_some(cells)
}

// ---- template -----------------------------------------------------------

const TEMPLATE_MAGIC: [u8; 4] = *b"GFTP";

/// Serialise a full [`GraphTemplate`] (framed).
pub fn encode_template(t: &GraphTemplate) -> Bytes {
    let mut buf = BytesMut::new();
    put_str(&mut buf, t.name());
    t.directed().encode(&mut buf);
    put_schema(&mut buf, t.vertex_schema());
    put_schema(&mut buf, t.edge_schema());
    buf.put_u32_le(t.num_vertices() as u32);
    for v in t.vertices() {
        buf.put_u64_le(t.vertex_id(v));
    }
    buf.put_u32_le(t.num_edges() as u32);
    for e in t.edges() {
        let (s, d) = t.endpoints(e);
        buf.put_u64_le(t.edge_id(e));
        buf.put_u32_le(s.0);
        buf.put_u32_le(d.0);
    }
    frame(TEMPLATE_MAGIC, &buf)
}

/// Decode a framed [`GraphTemplate`], parsing the buffer in place (the
/// payload is a view of `data`, not a copy): the id and endpoint columns
/// are read straight into vectors and frozen by
/// [`GraphTemplate::from_parts`], so decoding builds no id map and no
/// adjacency. A repeated vertex or edge id, an endpoint outside the vertex
/// range or a short column is [`GofsError::Corrupt`].
pub fn decode_template(data: Bytes) -> Result<GraphTemplate> {
    let mut buf = unframe_owned(TEMPLATE_MAGIC, data)?;
    let name = String::decode(&mut buf)?;
    let directed = bool::decode(&mut buf)?;
    let vertex_schema = get_schema(&mut buf)?;
    let edge_schema = get_schema(&mut buf)?;
    let nv = wire::get_u32(&mut buf, "template vertex count")? as usize;
    let vertex_ids = get_words(&mut buf, nv, u64::from_le_bytes)?;
    let ne = wire::get_u32(&mut buf, "template edge count")? as usize;
    let n = check_count(&buf, ne, 16)? * 16;
    let mut edge_ids = Vec::with_capacity(ne);
    let mut endpoints = Vec::with_capacity(ne);
    // One 16-byte record per edge, read as four words: the id's low and
    // high halves, then source and target.
    for r in buf[..n].as_chunks::<4>().0.chunks_exact(4) {
        let word = |i: usize| u32::from_le_bytes(r[i]);
        edge_ids.push(u64::from(word(0)) | u64::from(word(1)) << 32);
        endpoints.push((VertexIdx(word(2)), VertexIdx(word(3))));
    }
    buf.advance(n);
    if buf.remaining() != 0 {
        return Err(GofsError::Corrupt(format!(
            "{} trailing bytes after the template",
            buf.remaining()
        )));
    }
    GraphTemplate::from_parts(
        name,
        directed,
        vertex_schema,
        edge_schema,
        vertex_ids,
        edge_ids,
        endpoints,
    )
    .map_err(|e| GofsError::Corrupt(format!("template: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempograph_core::TemplateBuilder;

    /// A `Text` column of these strings.
    fn text(rows: &[&str]) -> Column {
        Column::Text(TextRows::from_rows(rows.iter().map(|s| [*s])))
    }

    /// A `TextList` column of these rows.
    fn lists(rows: &[&[&str]]) -> Column {
        Column::TextList(TextRows::from_rows(rows.iter().map(|r| r.iter().copied())))
    }

    #[test]
    fn fnv_known_values() {
        // FNV-1a("") and FNV-1a("a") reference values.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn frame_roundtrip_and_tamper_detection() {
        let framed = frame(*b"TEST", b"hello world");
        let payload = unframe_owned(*b"TEST", framed.clone()).unwrap();
        assert_eq!(&payload[..], b"hello world");

        // Wrong magic.
        assert!(matches!(
            unframe_owned(*b"XXXX", framed.clone()),
            Err(GofsError::BadMagic { .. })
        ));
        // Flip a payload bit.
        let mut evil = framed.to_vec();
        evil[16] ^= 0x01;
        assert!(matches!(
            unframe_owned(*b"TEST", evil.into()),
            Err(GofsError::ChecksumMismatch { .. })
        ));
        // Truncate.
        assert!(unframe_owned(*b"TEST", framed.slice(..framed.len() - 3)).is_err());
    }

    #[test]
    fn unframe_owned_is_a_view_with_the_same_checks() {
        let framed = frame(*b"TEST", b"hello world");
        let payload = unframe_owned(*b"TEST", framed.clone()).unwrap();
        assert_eq!(&payload[..], b"hello world");
        // No copy: the payload points into the buffer handed over.
        assert_eq!(payload.as_ptr(), framed[14..].as_ptr());
        // The view still checks the checksum.
        let mut evil = framed.to_vec();
        evil[16] ^= 0x01;
        assert!(matches!(
            unframe_owned(*b"TEST", evil.into()),
            Err(GofsError::ChecksumMismatch { .. })
        ));
        assert!(matches!(
            unframe_owned(*b"XXXX", framed),
            Err(GofsError::BadMagic { .. })
        ));
    }

    #[test]
    fn fnv_words_known_values() {
        let fold = |h: u64, w: u64| (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
        let basis = 0xcbf2_9ce4_8422_2325u64;
        // Empty input: four untouched lanes, folded.
        let empty = [basis; 4].iter().fold(basis, |h, &l| fold(h, l));
        assert_eq!(fnv1a64_lanes(b""), empty);
        // One full word folds once, into lane 0 only.
        let w = u64::from_le_bytes(*b"abcdefgh");
        let lanes = [fold(basis, w), basis, basis, basis];
        let one = lanes.iter().fold(basis, |h, &l| fold(h, l));
        assert_eq!(fnv1a64_lanes(b"abcdefgh"), one);
        // Words 0 and 4 share lane 0, in order.
        let data: Vec<u8> = (0..40).collect();
        let word = |i: usize| u64::from_le_bytes(data[i * 8..i * 8 + 8].try_into().unwrap());
        let lanes = [
            fold(fold(basis, word(0)), word(4)),
            fold(basis, word(1)),
            fold(basis, word(2)),
            fold(basis, word(3)),
        ];
        let five = lanes.iter().fold(basis, |h, &l| fold(h, l));
        assert_eq!(fnv1a64_lanes(&data), five);
        // Swapping two words in different lanes moves the hash.
        let mut swapped = data.clone();
        swapped[..16].rotate_left(8);
        assert_ne!(fnv1a64_lanes(&swapped), five);
        // A short tail is zero-padded — unambiguous only together with a
        // length kept beside the run, so "a" and "a\0" colliding here is
        // by design, not a defect.
        assert_eq!(fnv1a64_lanes(b"a"), fnv1a64_lanes(b"a\0"));
        // Lane and byte forms are different functions.
        assert_ne!(fnv1a64_lanes(b"abcdefgh"), fnv1a64(b"abcdefgh"));
    }

    /// A frame at the front of a longer buffer is found with its checks;
    /// what follows it is not the frame's business.
    #[test]
    fn a_leading_frame_leaves_what_follows() {
        let mut file = frame(*b"TEST", b"head").to_vec();
        file.extend_from_slice(b"blocks");
        assert_eq!(leading_frame(*b"TEST", &file).unwrap(), 14..18);
        assert!(matches!(
            unframe_owned(*b"TEST", file.clone().into()),
            Err(GofsError::Corrupt(_))
        ));
        file[15] ^= 1;
        assert!(matches!(
            leading_frame(*b"TEST", &file),
            Err(GofsError::ChecksumMismatch { .. })
        ));
        let short = frame(*b"TEST", b"head");
        let err = leading_frame(*b"TEST", &short[..short.len() - 1]).unwrap_err();
        assert!(matches!(err, GofsError::Corrupt(_)), "{err}");
    }

    #[test]
    fn other_frame_versions_are_rejected() {
        // Any version but the current one — the retired versions 1 and 2
        // included — is rejected before any checksum guesswork.
        for other in [1u16, 2, 9] {
            let mut framed = frame(*b"TEST", b"payload").to_vec();
            framed[4..6].copy_from_slice(&other.to_le_bytes());
            assert!(matches!(
                unframe_owned(*b"TEST", framed.into()),
                Err(GofsError::UnsupportedVersion(v)) if v == other
            ));
        }
    }

    #[test]
    fn corrupt_column_count_is_an_error_not_an_allocation() {
        // A Text column claiming u32::MAX rows with nothing behind it: the
        // count must be rejected before it sizes a ~100 GB Vec.
        for ty in [AttrType::Long, AttrType::Text, AttrType::TextList] {
            let mut buf = BytesMut::new();
            buf.put_u8(ty.tag());
            buf.put_u32_le(u32::MAX);
            assert!(matches!(
                get_column(&mut buf.freeze()),
                Err(GofsError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn truncated_fixed_width_records_are_corrupt() {
        for col in [
            Column::Long(vec![1, -2, 3]),
            Column::Double(vec![0.5, 1.5, 2.5]),
        ] {
            let mut buf = BytesMut::new();
            put_column(&mut buf, &col);
            for cut in 0..buf.len() {
                let err = get_column(&mut Bytes::copy_from_slice(&buf[..cut])).unwrap_err();
                assert!(matches!(err, GofsError::Corrupt(_)), "{err}");
            }
            assert_eq!(get_column(&mut buf.freeze()).unwrap(), col);
        }
    }

    #[test]
    fn f64_cells_read_plain_and_dense_records_only() {
        let values = |cells: &[[u8; 8]]| -> Vec<f64> {
            cells.iter().map(|&w| f64::from_le_bytes(w)).collect()
        };
        let base = Column::Double(vec![0.5, 1.5, 2.5]);
        let (mut plain, mut dense, mut sparse) =
            (BytesMut::new(), BytesMut::new(), BytesMut::new());
        put_column(&mut plain, &base);
        put_delta_column(&mut dense, &base, &Column::Double(vec![3.0, 4.0, 5.0]));
        put_delta_column(&mut sparse, &base, &Column::Double(vec![0.5, 9.0, 2.5]));
        assert_eq!((dense[0], sparse[0]), (DELTA_DENSE, DELTA_SPARSE));
        assert_eq!(values(f64_cells(&plain, None).unwrap()), [0.5, 1.5, 2.5]);
        assert_eq!(
            values(f64_cells(&dense, Some(&plain)).unwrap()),
            [3.0, 4.0, 5.0]
        );
        // A delta read as a plain record and the other way round, a
        // sparse delta, and another type: the decoder's business.
        assert!(f64_cells(&dense, None).is_none());
        assert!(f64_cells(&plain, Some(&plain)).is_none());
        assert!(f64_cells(&sparse, Some(&plain)).is_none());
        let mut long = BytesMut::new();
        put_column(&mut long, &Column::Long(vec![1, 2, 3]));
        assert!(f64_cells(&long, None).is_none());
        assert!(f64_cells(&dense, Some(&long)).is_none());
        // Row counts that disagree with the bytes or with the base.
        for cut in 0..plain.len() {
            assert!(f64_cells(&plain[..cut], None).is_none());
        }
        let mut short = BytesMut::new();
        put_column(&mut short, &Column::Double(vec![0.5]));
        assert!(f64_cells(&dense, Some(&short)).is_none());
    }

    #[test]
    fn varint_roundtrip() {
        let cases = [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut buf = BytesMut::new();
        for &x in &cases {
            put_varu64(&mut buf, x);
        }
        let mut bytes = buf.freeze();
        for &x in &cases {
            assert_eq!(get_varu64(&mut bytes).unwrap(), x);
        }
        assert_eq!(bytes.remaining(), 0);
        // Unterminated varint → typed error, not a panic.
        let mut bad = Bytes::copy_from_slice(&[0x80, 0x80]);
        assert!(get_varu64(&mut bad).is_err());
        // 10 continuation bytes with high bits set → overflow error.
        let mut over = Bytes::copy_from_slice(&[0xff; 11]);
        assert!(get_varu64(&mut over).is_err());
    }

    #[test]
    fn delta_column_sparse_roundtrip_and_size() {
        let base = Column::Double((0..100).map(|i| i as f64).collect());
        let mut cur = base.clone();
        if let Column::Double(v) = &mut cur {
            v[3] = -1.0;
            v[97] = 42.0;
        }
        let mut buf = BytesMut::new();
        put_delta_column(&mut buf, &base, &cur);
        assert!(
            buf.len() < encoded_column_size(&cur) / 4,
            "2-row delta of a 100-row column must be far smaller than dense ({} vs {})",
            buf.len(),
            encoded_column_size(&cur)
        );
        let mut bytes = buf.freeze();
        let back = get_delta_column(&mut bytes, &base).unwrap();
        assert_eq!(back, cur);
        assert_eq!(bytes.remaining(), 0, "delta must consume exactly");
    }

    #[test]
    fn delta_column_dense_fallback_when_everything_changes() {
        let base = Column::Long((0..50).collect());
        let cur = Column::Long((1000..1050).collect());
        let mut buf = BytesMut::new();
        put_delta_column(&mut buf, &base, &cur);
        // Tag byte + dense encoding: never larger than dense + 1.
        assert_eq!(buf.len(), 1 + encoded_column_size(&cur));
        assert_eq!(buf[0], DELTA_DENSE);
        let back = get_delta_column(&mut buf.freeze(), &base).unwrap();
        assert_eq!(back, cur);
    }

    #[test]
    fn delta_column_all_types_roundtrip() {
        let pairs = [
            (Column::Long(vec![1, 2, 3]), Column::Long(vec![1, 9, 3])),
            (
                Column::Double(vec![f64::NAN, 0.0]),
                Column::Double(vec![f64::NAN, -0.0]),
            ),
            (
                Column::Bool(vec![true, false, true]),
                Column::Bool(vec![true, true, true]),
            ),
            (text(&["a", "b"]), text(&["a", "changed"])),
            (
                Column::LongList(vec![vec![], vec![1]]),
                Column::LongList(vec![vec![5], vec![1]]),
            ),
            (lists(&[&["#x"], &[]]), lists(&[&["#x", "#y"], &[]])),
        ];
        for (base, cur) in pairs {
            let mut buf = BytesMut::new();
            put_delta_column(&mut buf, &base, &cur);
            let mut bytes = buf.freeze();
            let mut skipped = bytes.clone();
            let back = get_delta_column(&mut bytes, &base).unwrap();
            // Compare Doubles by bit pattern (NaN != NaN under PartialEq,
            // but the codec's contract is exact bit preservation).
            match (&back, &cur) {
                (Column::Double(a), Column::Double(b)) => {
                    assert_eq!(a.len(), b.len());
                    for (x, y) in a.iter().zip(b) {
                        assert_eq!(x.to_bits(), y.to_bits());
                    }
                }
                _ => assert_eq!(back, cur),
            }
            assert_eq!(bytes.remaining(), 0);
            skip_delta_column(&mut skipped).unwrap();
            assert_eq!(
                skipped.remaining(),
                0,
                "the walker stops where the decoder does"
            );
        }
    }

    /// Hand-made `TextList` delta records, each breaking one rule the
    /// decoder keeps: the count on the record fails exactly where decoding
    /// does, and otherwise agrees with it on the count and the length.
    #[test]
    fn text_counts_on_the_record_fail_where_the_decoder_does() {
        let list = lists;
        let sparse = |steps: &[u64], patch: &Column| {
            let mut buf = BytesMut::new();
            buf.put_u8(DELTA_SPARSE);
            put_varu64(&mut buf, steps.len() as u64);
            steps.iter().for_each(|&s| put_varu64(&mut buf, s));
            put_column(&mut buf, patch);
            buf.to_vec()
        };
        let dense = |cur: &Column| {
            let mut buf = BytesMut::new();
            buf.put_u8(DELTA_DENSE);
            put_column(&mut buf, cur);
            buf.to_vec()
        };
        let base = list(&[&["#a"], &["#a", "#a"], &[], &["#b"]]);
        let mut plain = BytesMut::new();
        put_column(&mut plain, &base);
        let (matches, len) = text_list_matches(&plain, "#a").unwrap();
        assert_eq!((matches.count(), len), (3, plain.len()));
        assert_eq!(matches.matched, [(0, 1), (1, 2)]);
        let two = list(&[&["#a"], &[]]);
        let cases = [
            ("rows 0 and 2", sparse(&[0, 2], &two), Some(3)),
            ("row 1 replaced", sparse(&[1], &list(&[&["#b"]])), Some(1)),
            ("row 1 twice", sparse(&[1, 0], &two), None),
            ("row 4 of 4", sparse(&[4], &list(&[&[]])), None),
            (
                "two rows, one patched",
                sparse(&[0, 1], &list(&[&[]])),
                None,
            ),
            ("one row, two patched", sparse(&[3], &two), None),
            ("a Text patch", sparse(&[0], &text(&["#a"])), None),
            ("a patch of no rows", sparse(&[], &list(&[])), Some(3)),
            (
                "every row",
                dense(&list(&[&["#a"], &[], &["#a"], &[]])),
                Some(2),
            ),
            ("dense, one row short", dense(&two), None),
            ("dense Text", dense(&text(&["#a"; 4])), None),
        ];
        for (what, record, want) in cases {
            let counted = delta_text_count_eq(&record, &matches);
            let mut buf = Bytes::from(record.clone());
            let decoded = get_delta_column(&mut buf, &base)
                .ok()
                .and_then(|c| match c {
                    Column::TextList(t) => Some((t.count_eq("#a"), record.len() - buf.len())),
                    _ => None,
                });
            assert_eq!(counted.as_ref().ok().copied(), decoded, "{what}");
            assert_eq!(counted.ok(), want.map(|n| (n, record.len())), "{what}");
        }
    }

    #[test]
    fn corrupt_delta_records_are_typed_errors() {
        let base = Column::Long(vec![1, 2, 3]);
        // Unknown tag.
        let mut bad = Bytes::copy_from_slice(&[7]);
        assert!(matches!(
            get_delta_column(&mut bad, &base),
            Err(GofsError::Corrupt(_))
        ));
        // Sparse record whose row index runs past the column.
        let mut buf = BytesMut::new();
        buf.put_u8(DELTA_SPARSE);
        put_varu64(&mut buf, 1); // one change
        put_varu64(&mut buf, 9); // at row 9 of a 3-row column
        put_column(&mut buf, &Column::Long(vec![0]));
        assert!(get_delta_column(&mut buf.freeze(), &base).is_err());
        // More claimed changes than rows.
        let mut buf = BytesMut::new();
        buf.put_u8(DELTA_SPARSE);
        put_varu64(&mut buf, 99);
        assert!(get_delta_column(&mut buf.freeze(), &base).is_err());
        // Dense record of the wrong shape.
        let mut buf = BytesMut::new();
        buf.put_u8(DELTA_DENSE);
        put_column(&mut buf, &Column::Long(vec![1]));
        assert!(get_delta_column(&mut buf.freeze(), &base).is_err());
        // Truncated mid-record.
        let mut buf = BytesMut::new();
        buf.put_u8(DELTA_SPARSE);
        put_varu64(&mut buf, 1);
        assert!(get_delta_column(&mut buf.freeze(), &base).is_err());
    }

    #[test]
    fn encoded_column_size_is_exact() {
        let cols = [
            Column::Long(vec![1, 2, 3]),
            Column::Double(vec![0.5]),
            Column::Bool(vec![true; 9]),
            text(&["héllo", ""]),
            Column::LongList(vec![vec![1, 2], vec![]]),
            lists(&[&["a"], &[]]),
        ];
        for col in cols {
            let mut buf = BytesMut::new();
            put_column(&mut buf, &col);
            assert_eq!(buf.len(), encoded_column_size(&col), "{:?}", col.ty());
        }
    }

    #[test]
    fn column_roundtrip_all_types() {
        let cols = vec![
            Column::Long(vec![1, -2, i64::MAX]),
            Column::Double(vec![0.5, -1e300, f64::INFINITY]),
            Column::Bool(vec![
                true, false, true, true, false, true, false, true, true,
            ]),
            text(&["", "héllo", &"x".repeat(300)]),
            Column::LongList(vec![vec![], vec![1, 2, 3]]),
            lists(&[&["#a"], &[]]),
        ];
        for col in cols {
            let mut buf = BytesMut::new();
            put_column(&mut buf, &col);
            let mut bytes = buf.freeze();
            let mut skipped = bytes.clone();
            let back = get_column(&mut bytes).unwrap();
            assert_eq!(back, col);
            assert_eq!(bytes.remaining(), 0, "column must consume exactly");
            skip_column(&mut skipped).unwrap();
            assert_eq!(
                skipped.remaining(),
                0,
                "the walker stops where the decoder does"
            );
        }
    }

    #[test]
    fn bool_column_bitpacking_is_compact() {
        let col = Column::Bool(vec![true; 64]);
        let mut buf = BytesMut::new();
        put_column(&mut buf, &col);
        // 1 tag + 4 len + 8 packed bytes
        assert_eq!(buf.len(), 13);
    }

    #[test]
    fn nan_survives_roundtrip() {
        let col = Column::Double(vec![f64::NAN]);
        let mut buf = BytesMut::new();
        put_column(&mut buf, &col);
        let back = get_column(&mut buf.freeze()).unwrap();
        assert!(matches!(back, Column::Double(ref v) if v[0].is_nan()));
    }

    #[test]
    fn schema_roundtrip() {
        let mut s = Schema::new();
        s.add("latency", AttrType::Double);
        s.add("tweets", AttrType::TextList);
        let mut buf = BytesMut::new();
        put_schema(&mut buf, &s);
        let back = get_schema(&mut buf.freeze()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn template_roundtrip() {
        let mut b = TemplateBuilder::new("codec-test", true);
        b.vertex_schema().add("x", AttrType::Long);
        b.edge_schema().add("w", AttrType::Double);
        for i in 0..5u64 {
            b.add_vertex(i * 100);
        }
        b.add_edge(7, 0, 100).unwrap();
        b.add_edge(8, 100, 400).unwrap();
        let t = b.finalize().unwrap();

        let back = decode_template(encode_template(&t)).unwrap();
        assert_eq!(back.name(), "codec-test");
        assert!(back.directed());
        assert_eq!(back.num_vertices(), 5);
        assert_eq!(back.num_edges(), 2);
        assert_eq!(back.vertex_schema(), t.vertex_schema());
        for e in t.edges() {
            assert_eq!(back.endpoints(e), t.endpoints(e));
            assert_eq!(back.edge_id(e), t.edge_id(e));
        }
        // Instances built against the decoded template work identically.
        let g = tempograph_core::GraphInstance::new(&back, 0);
        assert_eq!(g.vertex_col(0), &Column::Long(vec![0; 5]));
    }

    #[test]
    fn corrupt_template_rejected() {
        let mut b = TemplateBuilder::new("x", false);
        b.add_vertex(1);
        let t = b.finalize().unwrap();
        let enc = encode_template(&t);
        assert!(decode_template(enc.slice(..10)).is_err());
    }

    /// A correctly framed template whose vertex ids repeat used to be
    /// merged by the builder and then panic in CSR construction.
    #[test]
    fn repeated_vertex_ids_are_corrupt_not_a_panic() {
        let mut b = TemplateBuilder::new("dup", false);
        for id in [0xAAAA_0001u64, 0xAAAA_0002, 0xAAAA_0003] {
            b.add_vertex(id);
        }
        b.add_edge(0, 0xAAAA_0001, 0xAAAA_0003).unwrap();
        let payload =
            unframe_owned(TEMPLATE_MAGIC, encode_template(&b.finalize().unwrap())).unwrap();
        let mut evil = payload.to_vec();
        let third = 0xAAAA_0003u64.to_le_bytes();
        let at = evil.windows(8).position(|w| w == third).unwrap();
        evil[at..at + 8].copy_from_slice(&0xAAAA_0001u64.to_le_bytes());
        assert!(matches!(
            decode_template(frame(TEMPLATE_MAGIC, &evil)),
            Err(GofsError::Corrupt(_))
        ));
    }

    const GOLDEN: &str = "# FORMAT_VERSION 2\n0102 ff\n";

    #[test]
    fn golden_helper_passes_matching_bytes() {
        assert_hex_golden(&[1, 2, 0xff], GOLDEN, "FORMAT_VERSION", 2);
    }

    #[test]
    #[should_panic(expected = "bump FORMAT_VERSION, then replace the golden with:\n\
                               # FORMAT_VERSION 3\n0103ff\n")]
    fn golden_helper_demands_a_bump_for_changed_bytes() {
        assert_hex_golden(&[1, 3, 0xff], GOLDEN, "FORMAT_VERSION", 2);
    }

    #[test]
    #[should_panic(expected = "pinned at `# FORMAT_VERSION 2` but the code is at \
                               `# FORMAT_VERSION 3`")]
    fn golden_helper_rejects_a_header_behind_the_constant() {
        assert_hex_golden(&[1, 2, 0xff], GOLDEN, "FORMAT_VERSION", 3);
    }

    #[test]
    #[should_panic(expected = "but the code is at `# FRAME_VERSION 2`")]
    fn golden_helper_rejects_a_header_naming_another_constant() {
        assert_hex_golden(&[1, 2, 0xff], GOLDEN, "FRAME_VERSION", 2);
    }

    #[test]
    fn string_overrun_detected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(1); // one attribute, whose name
        buf.put_u32_le(1000); // claims 1000 bytes
        buf.put_slice(b"short");
        assert!(matches!(
            get_schema(&mut buf.freeze()),
            Err(GofsError::Corrupt(_))
        ));
    }
}
