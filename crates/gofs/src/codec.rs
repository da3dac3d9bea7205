//! From-scratch binary codec on `bytes`.
//!
//! Wire conventions: little-endian fixed-width integers, length-prefixed
//! strings and sequences (`u32` lengths), one-byte type tags for columns
//! (reusing [`AttrType::tag`]). Framed payloads (template files, slice
//! files) carry a 4-byte magic, a `u16` version and a trailing FNV-1a-64
//! checksum over the payload; see [`frame`] / [`unframe`].

use crate::error::{GofsError, Result};
use crate::view::DecodedColumn;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use tempograph_core::{
    AttrType, Column, GraphTemplate, Schema, TemplateBuilder, TextRows, VertexIdx,
};

/// Format version stamped into every framed file this build writes, and
/// the only one it reads: columnar delta slice payloads, [`fnv1a64_words`]
/// frame checksums. Any other version is
/// [`GofsError::UnsupportedVersion`].
pub const FORMAT_VERSION: u16 = 2;

/// FNV-1a 64-bit hash — tiny, dependency-free, not cryptographic. Used
/// for run-ledger ids.
///
/// This is inherently byte-serial: every step multiplies the running hash
/// before the next byte is folded in (`h = (h ^ b) · p`), so the chain
/// cannot be widened or reordered without changing the output — there is
/// no output-compatible 8-byte-at-a-time form. Frames therefore use
/// [`fnv1a64_words`], the same mixing applied per 8-byte word, which does
/// ~1/8th of the serial multiplies.
pub fn fnv1a64(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a-style checksum folding 8-byte little-endian words instead of
/// single bytes — the frame checksum, adequate for detecting torn writes
/// and bit rot. A short tail is
/// zero-padded; that is unambiguous because the frame header fixes the
/// payload length before the checksum is compared. Distinct from
/// [`fnv1a64`] output-wise (see there for why the byte form cannot be
/// widened in place).
pub fn fnv1a64_words(data: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let mut w = [0u8; 8];
        w.copy_from_slice(c);
        h ^= u64::from_le_bytes(w);
        h = h.wrapping_mul(PRIME);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut w = [0u8; 8];
        w[..rem.len()].copy_from_slice(rem);
        h ^= u64::from_le_bytes(w);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Wrap `payload` with `magic`, the current version and checksum footer.
pub fn frame(magic: [u8; 4], payload: &[u8]) -> Bytes {
    let mut out = BytesMut::with_capacity(payload.len() + 22);
    out.put_slice(&magic);
    out.put_u16_le(FORMAT_VERSION);
    out.put_u64_le(payload.len() as u64);
    out.put_slice(payload);
    out.put_u64_le(fnv1a64_words(payload));
    out.freeze()
}

/// Validate magic/version/checksum and return the payload.
pub fn unframe(magic: [u8; 4], data: &[u8]) -> Result<Bytes> {
    if data.len() < 22 {
        return Err(GofsError::Corrupt("file shorter than frame header".into()));
    }
    let mut buf = data;
    let mut found = [0u8; 4];
    buf.copy_to_slice(&mut found);
    if found != magic {
        return Err(GofsError::BadMagic { found });
    }
    let version = buf.get_u16_le();
    if version != FORMAT_VERSION {
        return Err(GofsError::UnsupportedVersion(version));
    }
    let len = buf.get_u64_le() as usize;
    if buf.remaining() != len + 8 {
        return Err(GofsError::Corrupt(format!(
            "payload length {len} disagrees with file size"
        )));
    }
    let payload = Bytes::copy_from_slice(&buf[..len]);
    buf.advance(len);
    let expected = buf.get_u64_le();
    let actual = fnv1a64_words(&payload);
    if expected != actual {
        return Err(GofsError::ChecksumMismatch { expected, actual });
    }
    Ok(payload)
}

// ---- primitives ---------------------------------------------------------

/// Append a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// Read a length-prefixed UTF-8 string. Validates UTF-8 against the
/// buffer view and copies once into the returned `String` (`split_to` +
/// `to_vec` would copy twice).
pub fn get_str(buf: &mut Bytes) -> Result<String> {
    let len = get_u32(buf)? as usize;
    if buf.remaining() < len {
        return Err(GofsError::Corrupt("string overruns buffer".into()));
    }
    let s = std::str::from_utf8(&buf[..len])
        .map_err(|_| GofsError::Corrupt("invalid UTF-8 in string".into()))?
        .to_owned();
    buf.advance(len);
    Ok(s)
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
    let mut x = 0u64;
    for shift in (0..64).step_by(7) {
        let b = get_u8(buf)?;
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

/// Checked `u32` read.
pub fn get_u32(buf: &mut Bytes) -> Result<u32> {
    if buf.remaining() < 4 {
        return Err(GofsError::Corrupt("unexpected EOF reading u32".into()));
    }
    Ok(buf.get_u32_le())
}

/// Checked `u64` read.
pub fn get_u64(buf: &mut Bytes) -> Result<u64> {
    if buf.remaining() < 8 {
        return Err(GofsError::Corrupt("unexpected EOF reading u64".into()));
    }
    Ok(buf.get_u64_le())
}

/// Checked `i64` read.
pub fn get_i64(buf: &mut Bytes) -> Result<i64> {
    if buf.remaining() < 8 {
        return Err(GofsError::Corrupt("unexpected EOF reading i64".into()));
    }
    Ok(buf.get_i64_le())
}

/// Checked `f64` read.
pub fn get_f64(buf: &mut Bytes) -> Result<f64> {
    if buf.remaining() < 8 {
        return Err(GofsError::Corrupt("unexpected EOF reading f64".into()));
    }
    Ok(buf.get_f64_le())
}

/// Checked `u8` read.
pub fn get_u8(buf: &mut Bytes) -> Result<u8> {
    if buf.remaining() < 1 {
        return Err(GofsError::Corrupt("unexpected EOF reading u8".into()));
    }
    Ok(buf.get_u8())
}

/// Reject an element count the rest of `buf` cannot back (each element
/// encodes to at least `min_size` bytes), so a corrupt count can never
/// size an allocation.
pub(crate) fn check_count(buf: &Bytes, n: usize, min_size: usize) -> Result<usize> {
    if n.saturating_mul(min_size) > buf.remaining() {
        return Err(GofsError::Corrupt(format!(
            "count {n} overruns the {} bytes left",
            buf.remaining()
        )));
    }
    Ok(n)
}

// ---- schema -------------------------------------------------------------

/// Append a [`Schema`].
pub fn put_schema(buf: &mut BytesMut, schema: &Schema) {
    buf.put_u32_le(schema.len() as u32);
    for def in schema.iter() {
        put_str(buf, &def.name);
        buf.put_u8(def.ty.tag());
    }
}

/// Read a [`Schema`].
pub fn get_schema(buf: &mut Bytes) -> Result<Schema> {
    let n = get_u32(buf)? as usize;
    let mut schema = Schema::new();
    for _ in 0..n {
        let name = get_str(buf)?;
        let tag = get_u8(buf)?;
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
        Column::Text(v) => {
            for s in v {
                put_str_mut(buf, s);
            }
        }
        Column::LongList(v) => {
            for list in v {
                buf.put_u32_le(list.len() as u32);
                for &x in list {
                    buf.put_i64_le(x);
                }
            }
        }
        Column::TextList(v) => {
            for list in v {
                buf.put_u32_le(list.len() as u32);
                for s in list {
                    put_str_mut(buf, s);
                }
            }
        }
    }
}

fn put_str_mut(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// Read a column record's tag and row count.
fn column_header(buf: &mut Bytes) -> Result<(AttrType, usize)> {
    let tag = get_u8(buf)?;
    let ty = AttrType::from_tag(tag)
        .ok_or_else(|| GofsError::Corrupt(format!("unknown column tag {tag}")))?;
    Ok((ty, get_u32(buf)? as usize))
}

/// Checked `advance`.
fn skip(buf: &mut Bytes, n: usize) -> Result<()> {
    buf.advance(check_count(buf, n, 1)?);
    Ok(())
}

/// Read a typed column into the reader's form (see [`DecodedColumn`]).
pub fn get_column(buf: &mut Bytes) -> Result<DecodedColumn> {
    let (ty, len) = column_header(buf)?;
    Ok(DecodedColumn::Plain(match ty {
        AttrType::Long => {
            let mut v = Vec::with_capacity(check_count(buf, len, 8)?);
            for _ in 0..len {
                v.push(get_i64(buf)?);
            }
            Column::Long(v)
        }
        AttrType::Double => {
            let mut v = Vec::with_capacity(check_count(buf, len, 8)?);
            for _ in 0..len {
                v.push(get_f64(buf)?);
            }
            Column::Double(v)
        }
        AttrType::Bool => {
            let raw = buf.split_to(check_count(buf, len.div_ceil(8), 1)?);
            let v = (0..len).map(|i| raw[i / 8] & (1 << (i % 8)) != 0).collect();
            Column::Bool(v)
        }
        AttrType::LongList => {
            let mut v = Vec::with_capacity(check_count(buf, len, 4)?);
            for _ in 0..len {
                let m = get_u32(buf)? as usize;
                let mut list = Vec::with_capacity(check_count(buf, m, 8)?);
                for _ in 0..m {
                    list.push(get_i64(buf)?);
                }
                v.push(list);
            }
            Column::LongList(v)
        }
        AttrType::Text => return Ok(DecodedColumn::Text(get_text_rows(buf, len, false)?)),
        AttrType::TextList => return Ok(DecodedColumn::TextList(get_text_rows(buf, len, true)?)),
    }))
}

/// Step over one [`put_column`] record without allocating: fixed-width
/// columns are O(1), list and text columns walk their length prefixes.
pub fn skip_column(buf: &mut Bytes) -> Result<()> {
    let (ty, len) = column_header(buf)?;
    match ty {
        AttrType::Long | AttrType::Double => skip(buf, len.saturating_mul(8)),
        AttrType::Bool => skip(buf, len.div_ceil(8)),
        AttrType::LongList => (0..len).try_for_each(|_| {
            let m = get_u32(buf)? as usize;
            skip(buf, m.saturating_mul(8))
        }),
        AttrType::Text | AttrType::TextList => {
            let (_, _, used) = walk_text(buf, len, ty == AttrType::TextList)?;
            skip(buf, used)
        }
    }
}

fn overrun() -> GofsError {
    GofsError::Corrupt("text column overruns buffer".into())
}

/// Little-endian `u32` at `*at`, stepping over it.
fn read_u32(data: &[u8], at: &mut usize) -> Result<usize> {
    let b = data.get(*at..).and_then(|d| d.first_chunk::<4>());
    *at += 4;
    b.map(|b| u32::from_le_bytes(*b) as usize)
        .ok_or_else(overrun)
}

/// Measure the body of a `Text` (`lists == false`) or `TextList` column of
/// `rows` rows at the head of `data`: `(strings, string bytes, encoded
/// bytes)`. Every length is vetted against `data`, which bounds all three.
fn walk_text(data: &[u8], rows: usize, lists: bool) -> Result<(usize, usize, usize)> {
    let (mut at, mut strings, mut bytes) = (0, 0, 0);
    for _ in 0..rows {
        let m = if lists { read_u32(data, &mut at)? } else { 1 };
        for _ in 0..m {
            let len = read_u32(data, &mut at)?;
            let end = at.checked_add(len).filter(|&end| end <= data.len());
            at = end.ok_or_else(overrun)?;
            bytes += len;
        }
        strings += m;
    }
    Ok((strings, bytes, at))
}

/// Decode a text column body into one flat [`TextRows`]: a sizing walk,
/// then exactly three allocations however many rows and strings it has.
fn get_text_rows(buf: &mut Bytes, rows: usize, lists: bool) -> Result<Box<TextRows>> {
    let (strings, nbytes, used) = walk_text(buf, rows, lists)?;
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
    TextRows::from_parts(bytes, str_ends, row_ends)
        .map(Box::new)
        .ok_or_else(|| GofsError::Corrupt("text column is not UTF-8, string by string".into()))
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
        Column::Text(v) => v.iter().map(|s| 4 + s.len()).sum(),
        Column::LongList(v) => v.iter().map(|l| 4 + l.len() * 8).sum(),
        Column::TextList(v) => v
            .iter()
            .map(|l| 4 + l.iter().map(|s| 4 + s.len()).sum::<usize>())
            .sum(),
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
/// full column from `base`, the same column of the pack's base snapshot:
/// a fixed-width column patches a clone of it (a `memcpy`), a text column
/// is spliced from base and patch. All structural failures (unknown tag,
/// out-of-range rows, type/length disagreements) surface as typed
/// [`GofsError`]s.
pub fn get_delta_column(buf: &mut Bytes, base: &DecodedColumn) -> Result<DecodedColumn> {
    match get_u8(buf)? {
        DELTA_DENSE => {
            let col = get_column(buf)?;
            let shape = |c: &DecodedColumn| (c.ty(), c.num_rows());
            if shape(&col) != shape(base) {
                let (col, base) = (shape(&col), shape(base));
                return Err(GofsError::Corrupt(format!(
                    "dense delta {col:?} over a {base:?} base"
                )));
            }
            Ok(col)
        }
        DELTA_SPARSE => {
            // Row indices, each a byte at least and in range; that they
            // strictly ascend is vetted where they are applied.
            let n = get_varu64(buf)? as usize;
            let mut rows = Vec::with_capacity(check_count(buf, n, 1)?);
            let mut at = 0u64;
            for _ in 0..n {
                at = at
                    .checked_add(get_varu64(buf)?)
                    .filter(|&row| row < base.num_rows() as u64)
                    .ok_or_else(|| GofsError::Corrupt("sparse delta row out of range".into()))?;
                rows.push(at as u32);
            }
            let patched = match (base, get_column(buf)?) {
                (DecodedColumn::Plain(b), DecodedColumn::Plain(v)) => {
                    let mut col = b.clone();
                    col.scatter_rows(&rows, &v)
                        .ok()
                        .map(|()| DecodedColumn::Plain(col))
                }
                (DecodedColumn::Text(b), DecodedColumn::Text(v)) => b
                    .splice(&rows, &v)
                    .map(|t| DecodedColumn::Text(Box::new(t))),
                (DecodedColumn::TextList(b), DecodedColumn::TextList(v)) => b
                    .splice(&rows, &v)
                    .map(|t| DecodedColumn::TextList(Box::new(t))),
                (_, _) => None,
            };
            let base = base.ty();
            patched.ok_or_else(|| {
                GofsError::Corrupt(format!("sparse delta does not apply to {base:?}"))
            })
        }
        other => Err(GofsError::Corrupt(format!("unknown delta tag {other}"))),
    }
}

/// Step over one [`put_delta_column`] record without allocating.
pub fn skip_delta_column(buf: &mut Bytes) -> Result<()> {
    match get_u8(buf)? {
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

// ---- template -----------------------------------------------------------

const TEMPLATE_MAGIC: [u8; 4] = *b"GFTP";

/// Serialise a full [`GraphTemplate`] (framed).
pub fn encode_template(t: &GraphTemplate) -> Bytes {
    let mut buf = BytesMut::new();
    put_str(&mut buf, t.name());
    buf.put_u8(t.directed() as u8);
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

/// Decode a framed [`GraphTemplate`].
pub fn decode_template(data: &[u8]) -> Result<GraphTemplate> {
    let mut buf = unframe(TEMPLATE_MAGIC, data)?;
    let name = get_str(&mut buf)?;
    let directed = get_u8(&mut buf)? != 0;
    let vertex_schema = get_schema(&mut buf)?;
    let edge_schema = get_schema(&mut buf)?;
    let mut b = TemplateBuilder::new(name, directed);
    *b.vertex_schema() = vertex_schema;
    *b.edge_schema() = edge_schema;
    let nv = get_u32(&mut buf)? as usize;
    for _ in 0..nv {
        b.add_vertex(get_u64(&mut buf)?);
    }
    let ne = get_u32(&mut buf)? as usize;
    for _ in 0..ne {
        let id = get_u64(&mut buf)?;
        let s = get_u32(&mut buf)?;
        let d = get_u32(&mut buf)?;
        if s as usize >= nv || d as usize >= nv {
            return Err(GofsError::Corrupt("edge endpoint out of range".into()));
        }
        b.add_edge_by_idx(id, VertexIdx(s), VertexIdx(d))
            .map_err(GofsError::Core)?;
    }
    b.finalize().map_err(GofsError::Core)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempograph_core::AttrValue;

    /// What a reader must get back for a written column.
    fn read(col: &Column) -> DecodedColumn {
        DecodedColumn::from(col.clone())
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
        let payload = unframe(*b"TEST", &framed).unwrap();
        assert_eq!(&payload[..], b"hello world");

        // Wrong magic.
        assert!(matches!(
            unframe(*b"XXXX", &framed),
            Err(GofsError::BadMagic { .. })
        ));
        // Flip a payload bit.
        let mut evil = framed.to_vec();
        evil[16] ^= 0x01;
        assert!(matches!(
            unframe(*b"TEST", &evil),
            Err(GofsError::ChecksumMismatch { .. })
        ));
        // Truncate.
        assert!(unframe(*b"TEST", &framed[..framed.len() - 3]).is_err());
    }

    #[test]
    fn fnv_words_known_values() {
        // Empty input: offset basis, same as the byte form.
        assert_eq!(fnv1a64_words(b""), 0xcbf2_9ce4_8422_2325);
        // One full word folds exactly once.
        let w = u64::from_le_bytes(*b"abcdefgh");
        let expect = (0xcbf2_9ce4_8422_2325u64 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
        assert_eq!(fnv1a64_words(b"abcdefgh"), expect);
        // A short tail is zero-padded — but zero-padding is unambiguous
        // only together with the frame's length field, so "a" and "a\0"
        // colliding here is by design, not a defect.
        assert_eq!(fnv1a64_words(b"a"), fnv1a64_words(b"a\0"));
        // Word and byte forms are different functions.
        assert_ne!(fnv1a64_words(b"abcdefgh"), fnv1a64(b"abcdefgh"));
    }

    #[test]
    fn other_frame_versions_are_rejected() {
        // Any version but the current one — the retired version 1
        // included — is rejected before any checksum guesswork.
        for other in [1u16, 9] {
            let mut framed = frame(*b"TEST", b"payload").to_vec();
            framed[4..6].copy_from_slice(&other.to_le_bytes());
            assert!(matches!(
                unframe(*b"TEST", &framed),
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
        let back = get_delta_column(&mut bytes, &read(&base)).unwrap();
        assert_eq!(back, read(&cur));
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
        let back = get_delta_column(&mut buf.freeze(), &read(&base)).unwrap();
        assert_eq!(back, read(&cur));
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
            (
                Column::Text(vec!["a".into(), "b".into()]),
                Column::Text(vec!["a".into(), "changed".into()]),
            ),
            (
                Column::LongList(vec![vec![], vec![1]]),
                Column::LongList(vec![vec![5], vec![1]]),
            ),
            (
                Column::TextList(vec![vec!["#x".into()], vec![]]),
                Column::TextList(vec![vec!["#x".into(), "#y".into()], vec![]]),
            ),
        ];
        for (base, cur) in pairs {
            let mut buf = BytesMut::new();
            put_delta_column(&mut buf, &base, &cur);
            let mut bytes = buf.freeze();
            let mut skipped = bytes.clone();
            let back = get_delta_column(&mut bytes, &read(&base)).unwrap();
            // Compare Doubles by bit pattern (NaN != NaN under PartialEq,
            // but the codec's contract is exact bit preservation).
            match (&back, &cur) {
                (DecodedColumn::Plain(Column::Double(a)), Column::Double(b)) => {
                    assert_eq!(a.len(), b.len());
                    for (x, y) in a.iter().zip(b) {
                        assert_eq!(x.to_bits(), y.to_bits());
                    }
                }
                _ => assert_eq!(back, read(&cur)),
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

    #[test]
    fn corrupt_delta_records_are_typed_errors() {
        let base = read(&Column::Long(vec![1, 2, 3]));
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
            Column::Text(vec!["héllo".into(), "".into()]),
            Column::LongList(vec![vec![1, 2], vec![]]),
            Column::TextList(vec![vec!["a".into()], vec![]]),
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
            Column::Text(vec!["".into(), "héllo".into(), "x".repeat(300)]),
            Column::LongList(vec![vec![], vec![1, 2, 3]]),
            Column::TextList(vec![vec!["#a".into()], vec![]]),
        ];
        for col in cols {
            let mut buf = BytesMut::new();
            put_column(&mut buf, &col);
            let mut bytes = buf.freeze();
            let mut skipped = bytes.clone();
            let back = get_column(&mut bytes).unwrap();
            assert_eq!(back, read(&col));
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
        match back {
            DecodedColumn::Plain(Column::Double(v)) => assert!(v[0].is_nan()),
            _ => panic!("wrong type"),
        }
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

        let encoded = encode_template(&t);
        let back = decode_template(&encoded).unwrap();
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
        assert_eq!(g.get_vertex(0, VertexIdx(3)), AttrValue::Long(0));
    }

    #[test]
    fn corrupt_template_rejected() {
        let mut b = TemplateBuilder::new("x", false);
        b.add_vertex(1);
        let t = b.finalize().unwrap();
        let enc = encode_template(&t);
        assert!(decode_template(&enc[..10]).is_err());
    }

    #[test]
    fn string_overrun_detected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(1000); // claims 1000 bytes
        buf.put_slice(b"short");
        assert!(get_str(&mut buf.freeze()).is_err());
    }
}
