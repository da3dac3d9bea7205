//! The workspace's one codec vocabulary: [`WireMsg`], [`WireError`] and
//! the checked reads every decoder is built from. It sits at the bottom of
//! the crate graph so that engine frames and checkpoints, GoFS metadata,
//! the run ledger and the trace and metrics records all encode the same
//! way; a type's impl lives beside the type.
//!
//! Layout: little-endian fixed-width integers; strings, blobs, sequences
//! and maps carry a `u32` length prefix; `Option` and enums a tag byte.

use crate::VertexIdx;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Mutex;

/// A malformed wire buffer, detected during decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before a fixed-width read.
    Eof {
        /// What was being decoded.
        context: &'static str,
        /// Bytes the read required.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// A tag byte matched no known variant.
    BadTag {
        /// The enum or frame whose tag was read.
        context: &'static str,
        /// The offending tag value.
        tag: u8,
    },
    /// A decoded count or id lies outside what the record allows (a
    /// histogram whose bucket count is not `BUCKETS`, a partition id past
    /// `u16::MAX`, a [`get_sized_vec`] count other than the one expected).
    OutOfRange {
        /// The field that was read.
        context: &'static str,
        /// The value found on the wire.
        value: u64,
    },
    /// A length-prefixed string was not valid UTF-8.
    Utf8 {
        /// What was being decoded.
        context: &'static str,
    },
    /// A framed payload's checksum did not match its contents.
    Checksum {
        /// The frame whose checksum failed.
        context: &'static str,
    },
    /// A record decoded whole but left bytes behind it (see
    /// [`decode_exact`]).
    Trailing {
        /// The record that was decoded.
        context: &'static str,
        /// Bytes left over.
        bytes: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Eof {
                context,
                needed,
                remaining,
            } => write!(
                f,
                "unexpected end of wire buffer decoding {context}: \
                 need {needed} bytes, {remaining} remain"
            ),
            WireError::BadTag { context, tag } => {
                write!(f, "unknown {context} tag {tag:#04x}")
            }
            WireError::OutOfRange { context, value } => {
                write!(f, "{context} {value} out of range")
            }
            WireError::Utf8 { context } => write!(f, "invalid UTF-8 decoding {context}"),
            WireError::Checksum { context } => {
                write!(f, "checksum mismatch decoding {context}")
            }
            WireError::Trailing { context, bytes } => {
                write!(f, "{bytes} trailing bytes after {context}")
            }
        }
    }
}

impl std::error::Error for WireError {}

// ---- checked primitive reads -------------------------------------------
//
// The `bytes` cursor panics on underflow; every read below checks
// `remaining()` first so a truncated or corrupt buffer becomes a typed
// [`WireError`] instead of a panic (lint rule P01 flags the unchecked
// getters everywhere but here). They read any cursor: a `Bytes` record or
// a fixed header in a `&[u8]`.

#[inline]
fn need(buf: &impl Buf, n: usize, context: &'static str) -> Result<(), WireError> {
    if buf.remaining() < n {
        return Err(WireError::Eof {
            context,
            needed: n,
            remaining: buf.remaining(),
        });
    }
    Ok(())
}

/// Checked little-endian `u8` read.
#[inline]
pub fn get_u8(buf: &mut impl Buf, context: &'static str) -> Result<u8, WireError> {
    need(buf, 1, context)?;
    Ok(buf.get_u8())
}

/// Checked little-endian `u16` read.
#[inline]
pub fn get_u16(buf: &mut impl Buf, context: &'static str) -> Result<u16, WireError> {
    need(buf, 2, context)?;
    Ok(buf.get_u16_le())
}

/// Checked little-endian `u32` read.
#[inline]
pub fn get_u32(buf: &mut impl Buf, context: &'static str) -> Result<u32, WireError> {
    need(buf, 4, context)?;
    Ok(buf.get_u32_le())
}

/// Checked little-endian `u64` read.
#[inline]
pub fn get_u64(buf: &mut impl Buf, context: &'static str) -> Result<u64, WireError> {
    need(buf, 8, context)?;
    Ok(buf.get_u64_le())
}

/// Checked little-endian `i64` read.
#[inline]
pub fn get_i64(buf: &mut impl Buf, context: &'static str) -> Result<i64, WireError> {
    need(buf, 8, context)?;
    Ok(buf.get_i64_le())
}

/// Checked little-endian `f64` read.
#[inline]
pub fn get_f64(buf: &mut impl Buf, context: &'static str) -> Result<f64, WireError> {
    need(buf, 8, context)?;
    Ok(buf.get_f64_le())
}

/// Split off a `u32`-length-prefixed byte run, bounds-checked.
fn get_prefixed(buf: &mut Bytes, context: &'static str) -> Result<Bytes, WireError> {
    let len = get_u32(buf, context)? as usize;
    need(buf, len, context)?;
    Ok(buf.split_to(len))
}

/// Split off a run of `n` fixed-width records of `width` bytes each. The
/// whole run is checked against what is left before anything is read, so
/// a count the buffer cannot hold is [`WireError::Eof`] and sizes nothing.
pub fn get_records(
    buf: &mut Bytes,
    n: usize,
    width: usize,
    context: &'static str,
) -> Result<Bytes, WireError> {
    let len = n.checked_mul(width).ok_or(WireError::OutOfRange {
        context,
        value: n as u64,
    })?;
    need(buf, len, context)?;
    Ok(buf.split_to(len))
}

/// A [`put_str`] string, validated where it lies and handed to `own`:
/// one copy, where `String::from_utf8(to_vec())` would copy first.
fn get_utf8<T>(buf: &mut Bytes, context: &'static str, own: fn(&str) -> T) -> Result<T, WireError> {
    let raw = get_prefixed(buf, context)?;
    std::str::from_utf8(&raw)
        .map(own)
        .map_err(|_| WireError::Utf8 { context })
}

/// Append `s` as a `String` is laid out: a `u32` byte length, then its
/// UTF-8 bytes. For a borrowed `&str` that is not worth an owned copy.
pub fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// Decode all of `buf` with `decode`: a byte it leaves is
/// [`WireError::Trailing`]. Every whole-record decoder (frame payloads,
/// worker results, framed files) refuses trailing bytes through this.
pub fn decode_exact<T>(
    mut buf: Bytes,
    context: &'static str,
    decode: impl FnOnce(&mut Bytes) -> Result<T, WireError>,
) -> Result<T, WireError> {
    let value = decode(&mut buf)?;
    match buf.remaining() {
        0 => Ok(value),
        bytes => Err(WireError::Trailing { context, bytes }),
    }
}

/// A record that can be written to a byte buffer and read back.
///
/// Implementations must be exact round-trips: `decode(encode(m)) == Ok(m)`.
/// Buffers are produced by `encode`, so a decode failure means corruption
/// — but it surfaces as a typed [`WireError`], never as a panic: the
/// engine wraps it into its worker error, GoFS into `GofsError::Corrupt`.
pub trait WireMsg: Send + Clone + 'static {
    /// Append this message to `buf`.
    fn encode(&self, buf: &mut BytesMut);
    /// Read one message back from `buf`.
    fn decode(buf: &mut Bytes) -> Result<Self, WireError>;

    /// Read `n` records off the front of `buf`: the body of a `Vec<Self>`
    /// once its length is known. The default is [`get_vec`]; a type of
    /// fixed-width records may check the whole run once and read it in
    /// one pass instead, accepting exactly the bytes of `n` encodes and
    /// reserving no more than `buf` can hold.
    fn decode_run(buf: &mut Bytes, n: usize) -> Result<Vec<Self>, WireError> {
        get_vec(buf, n)
    }
}

impl WireMsg for () {
    fn encode(&self, _buf: &mut BytesMut) {}
    fn decode(_buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(())
    }
}

impl WireMsg for u16 {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u16_le(*self);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        get_u16(buf, "u16")
    }
}

impl WireMsg for u32 {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32_le(*self);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        get_u32(buf, "u32")
    }
}

impl WireMsg for u64 {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64_le(*self);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        get_u64(buf, "u64")
    }
}

impl WireMsg for i64 {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_i64_le(*self);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        get_i64(buf, "i64")
    }
}

impl WireMsg for f64 {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_f64_le(*self);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        get_f64(buf, "f64")
    }
}

impl WireMsg for bool {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(*self as u8);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(get_u8(buf, "bool")? != 0)
    }
}

impl WireMsg for VertexIdx {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.0);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(VertexIdx(get_u32(buf, "VertexIdx")?))
    }
}

impl WireMsg for String {
    fn encode(&self, buf: &mut BytesMut) {
        put_str(buf, self);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        get_utf8(buf, "String", str::to_owned)
    }
}

/// A name from a small fixed vocabulary (trace event and counter names):
/// the bytes of `String`, decoded by interning into the process's
/// `&'static str` name pool ([`intern`]). Interning leaks once per
/// distinct name, so this is for small closed sets of names, not for
/// payload data.
impl WireMsg for &'static str {
    fn encode(&self, buf: &mut BytesMut) {
        put_str(buf, self);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        get_utf8(buf, "name", intern)
    }
}

/// Intern a name read off a buffer so it can re-enter `&'static str`-keyed
/// maps (trace event names, the engine's counter maps). Leaks once per
/// distinct name — the universe of such names is tiny and fixed per
/// program.
pub fn intern(name: &str) -> &'static str {
    static POOL: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    let mut pool = POOL.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(&s) = pool.get(name) {
        return s;
    }
    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
    pool.insert(leaked);
    leaked
}

/// Opaque byte blobs (program state): one length prefix and one bulk copy
/// each way, never an element-wise walk.
impl WireMsg for Vec<u8> {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.len() as u32);
        buf.put_slice(self);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(get_prefixed(buf, "byte blob")?.to_vec())
    }
}

impl<K: WireMsg + Ord, V: WireMsg> WireMsg for BTreeMap<K, V> {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.len() as u32);
        for (k, v) in self {
            k.encode(buf);
            v.encode(buf);
        }
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let len = get_u32(buf, "map length")?;
        let mut map = BTreeMap::new();
        for _ in 0..len {
            let k = K::decode(buf)?;
            map.insert(k, V::decode(buf)?);
        }
        Ok(map)
    }
}

impl<T: WireMsg> WireMsg for Vec<T> {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.len() as u32);
        for x in self {
            x.encode(buf);
        }
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let len = get_u32(buf, "Vec length")? as usize;
        T::decode_run(buf, len)
    }
}

/// A `Vec<T>` whose length the reader already knows (a program's
/// per-vertex state, sized by its subgraph): the count prefix must equal
/// `len`, else [`WireError::OutOfRange`] before anything is reserved.
pub fn get_sized_vec<T: WireMsg>(
    buf: &mut Bytes,
    len: usize,
    context: &'static str,
) -> Result<Vec<T>, WireError> {
    match get_u32(buf, context)? {
        n if n as usize == len => T::decode_run(buf, len),
        n => Err(WireError::OutOfRange {
            context,
            value: n.into(),
        }),
    }
}

/// `n` records off the front of `buf`: a `Vec`'s body once its length is
/// known. The reservation is capped in bytes by what is left of `buf`
/// (an element may be larger in memory than on the wire), so a corrupt
/// `n` cannot size an allocation past the buffer before the reads fail.
pub fn get_vec<T: WireMsg>(buf: &mut Bytes, n: usize) -> Result<Vec<T>, WireError> {
    let fits = buf.remaining() / std::mem::size_of::<T>().max(1);
    let mut v = Vec::with_capacity(n.min(fits));
    for _ in 0..n {
        v.push(T::decode(buf)?);
    }
    Ok(v)
}

impl<T: WireMsg> WireMsg for Option<T> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            None => buf.put_u8(0),
            Some(x) => {
                buf.put_u8(1);
                x.encode(buf);
            }
        }
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        // Explicit tags (lint rule W01): an unknown tag is corruption, not
        // an implicit `Some`.
        match get_u8(buf, "Option tag")? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(buf)?)),
            tag => Err(WireError::BadTag {
                context: "Option",
                tag,
            }),
        }
    }
}

impl<A: WireMsg, B: WireMsg> WireMsg for (A, B) {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok((A::decode(buf)?, B::decode(buf)?))
    }
}

impl<A: WireMsg, B: WireMsg, C: WireMsg> WireMsg for (A, B, C) {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
        self.1.encode(buf);
        self.2.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok((A::decode(buf)?, B::decode(buf)?, C::decode(buf)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<M: WireMsg + PartialEq + std::fmt::Debug>(m: M) {
        let mut buf = BytesMut::new();
        m.encode(&mut buf);
        let mut bytes = buf.freeze();
        assert_eq!(M::decode(&mut bytes).unwrap(), m);
        assert_eq!(bytes.remaining(), 0, "must consume exactly");
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(());
        roundtrip(42u32);
        roundtrip(u64::MAX);
        roundtrip(-17i64);
        roundtrip(2.5f64);
        roundtrip(true);
        roundtrip(VertexIdx(9));
        roundtrip(String::from("héllo"));
    }

    #[test]
    fn composite_roundtrips() {
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Vec::<String>::new());
        roundtrip(Some((VertexIdx(1), 2.5f64)));
        roundtrip(None::<u32>);
        roundtrip((VertexIdx(5), 1.25f64, 99u64));
        roundtrip(vec![vec![VertexIdx(0)], vec![]]);
    }

    #[test]
    fn names_blobs_and_maps_reuse_the_string_and_vec_layouts() {
        let bytes_of = |m: &dyn Fn(&mut BytesMut)| {
            let mut buf = BytesMut::new();
            m(&mut buf);
            buf.freeze()
        };
        // A name is laid out like a String and decodes interned.
        let name: &'static str = "wire-test-name";
        assert_eq!(
            bytes_of(&|b| name.encode(b)),
            bytes_of(&|b| name.to_string().encode(b))
        );
        let back = <&'static str>::decode(&mut bytes_of(&|b| name.encode(b))).unwrap();
        assert_eq!(back, name);
        assert!(std::ptr::eq(back, intern(name)));
        // A blob is a length and its bytes, like a Vec of one-byte items.
        let blob = vec![1u8, 2, 255];
        assert_eq!(&bytes_of(&|b| blob.encode(b))[..], &[3, 0, 0, 0, 1, 2, 255]);
        roundtrip(blob);
        roundtrip(Vec::<u8>::new());
        // A map is laid out like the Vec of its sorted pairs.
        let map = BTreeMap::from([("b", 2u64), ("a", 1)]);
        let pairs = vec![("a".to_string(), 1u64), ("b".to_string(), 2)];
        assert_eq!(bytes_of(&|b| map.encode(b)), bytes_of(&|b| pairs.encode(b)));
        roundtrip(map);
    }

    #[test]
    fn intern_is_stable() {
        let a = intern("ckpt-test-counter");
        let b = intern("ckpt-test-counter");
        assert!(std::ptr::eq(a, b), "same name must intern to one &'static");
        assert_eq!(intern("ckpt-other"), "ckpt-other");
    }

    #[test]
    fn truncated_buffers_are_typed_errors_not_panics() {
        // Empty buffer for every fixed-width primitive.
        assert!(matches!(
            u32::decode(&mut Bytes::new()),
            Err(WireError::Eof { .. })
        ));
        assert!(matches!(
            f64::decode(&mut Bytes::new()),
            Err(WireError::Eof { .. })
        ));
        // A string whose length prefix overruns the buffer.
        let mut buf = BytesMut::new();
        buf.put_u32_le(1000);
        buf.put_slice(b"short");
        assert!(matches!(
            String::decode(&mut buf.freeze()),
            Err(WireError::Eof { .. })
        ));
        // A vec truncated mid-element.
        let mut buf = BytesMut::new();
        vec![1u64, 2, 3].encode(&mut buf);
        let full = buf.freeze();
        let mut cut = Bytes::copy_from_slice(&full[..full.len() - 4]);
        assert!(matches!(
            Vec::<u64>::decode(&mut cut),
            Err(WireError::Eof { .. })
        ));
    }

    #[test]
    fn a_sized_vec_refuses_any_other_count() {
        let mut buf = BytesMut::new();
        vec![1.5f64, -2.0].encode(&mut buf);
        let two = buf.freeze();
        assert_eq!(
            get_sized_vec::<f64>(&mut two.clone(), 2, "labels"),
            Ok(vec![1.5, -2.0])
        );
        for len in [0, 1, 3] {
            assert_eq!(
                get_sized_vec::<f64>(&mut two.clone(), len, "labels"),
                Err(WireError::OutOfRange {
                    context: "labels",
                    value: 2
                })
            );
        }
        let mut cut = two.slice(..two.len() - 1);
        assert!(matches!(
            get_sized_vec::<f64>(&mut cut, 2, "labels"),
            Err(WireError::Eof { .. })
        ));
    }

    #[test]
    fn checked_reads_take_a_byte_slice_too() {
        let mut h: &[u8] = &[7, 1, 0];
        assert_eq!(get_u8(&mut h, "tag"), Ok(7));
        assert_eq!(get_u16(&mut h, "len"), Ok(1));
        assert_eq!(
            get_u32(&mut h, "seq"),
            Err(WireError::Eof {
                context: "seq",
                needed: 4,
                remaining: 0
            })
        );
    }

    #[test]
    fn decode_exact_refuses_what_is_left() {
        let mut buf = BytesMut::new();
        7u32.encode(&mut buf);
        let one = buf.clone().freeze();
        assert_eq!(decode_exact(one, "u32", u32::decode), Ok(7));
        buf.put_u8(0);
        assert_eq!(
            decode_exact(buf.freeze(), "u32", u32::decode),
            Err(WireError::Trailing {
                context: "u32",
                bytes: 1
            })
        );
    }

    #[test]
    fn invalid_utf8_is_a_typed_error() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(2);
        buf.put_slice(&[0xff, 0xfe]);
        assert_eq!(
            String::decode(&mut buf.freeze()),
            Err(WireError::Utf8 { context: "String" })
        );
    }

    #[test]
    fn unknown_option_tag_is_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(2);
        assert_eq!(
            Option::<u32>::decode(&mut buf.freeze()),
            Err(WireError::BadTag {
                context: "Option",
                tag: 2
            })
        );
    }
}
