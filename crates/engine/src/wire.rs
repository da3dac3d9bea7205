//! Message wire format.
//!
//! Messages between subgraphs in the *same* partition are moved as values
//! (same address space — GoFFish's intra-host messages stay inside one JVM).
//! Messages crossing partitions are **really serialised** through this
//! module and deserialised on the receiving worker, so the engine's
//! "partition overhead" metric measures genuine marshalling work and the
//! byte counters reflect actual on-the-wire sizes.

use crate::error::WireError;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::collections::BTreeMap;
use tempograph_core::VertexIdx;
use tempograph_partition::SubgraphId;

// ---- checked primitive reads -------------------------------------------
//
// The `bytes` cursor panics on underflow; every read below checks
// `remaining()` first so a truncated or corrupt frame becomes a typed
// [`WireError`] instead of a worker panic (lint rule P01).

#[inline]
fn need(buf: &Bytes, n: usize, context: &'static str) -> Result<(), WireError> {
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
pub fn get_u8(buf: &mut Bytes, context: &'static str) -> Result<u8, WireError> {
    need(buf, 1, context)?;
    Ok(buf.get_u8())
}

/// Checked little-endian `u16` read.
#[inline]
pub fn get_u16(buf: &mut Bytes, context: &'static str) -> Result<u16, WireError> {
    need(buf, 2, context)?;
    Ok(buf.get_u16_le())
}

/// Checked little-endian `u32` read.
#[inline]
pub fn get_u32(buf: &mut Bytes, context: &'static str) -> Result<u32, WireError> {
    need(buf, 4, context)?;
    Ok(buf.get_u32_le())
}

/// Checked little-endian `u64` read.
#[inline]
pub fn get_u64(buf: &mut Bytes, context: &'static str) -> Result<u64, WireError> {
    need(buf, 8, context)?;
    Ok(buf.get_u64_le())
}

/// Checked little-endian `i64` read.
#[inline]
pub fn get_i64(buf: &mut Bytes, context: &'static str) -> Result<i64, WireError> {
    need(buf, 8, context)?;
    Ok(buf.get_i64_le())
}

/// Checked little-endian `f64` read.
#[inline]
pub fn get_f64(buf: &mut Bytes, context: &'static str) -> Result<f64, WireError> {
    need(buf, 8, context)?;
    Ok(buf.get_f64_le())
}

/// Split off a `u32`-length-prefixed byte run, bounds-checked.
fn get_prefixed(buf: &mut Bytes, context: &'static str) -> Result<Bytes, WireError> {
    let len = get_u32(buf, context)? as usize;
    need(buf, len, context)?;
    Ok(buf.split_to(len))
}

/// A message payload that can cross partition boundaries.
///
/// Implementations must be exact round-trips: `decode(encode(m)) == Ok(m)`.
/// Wire buffers are engine-internal and always produced by `encode`, so a
/// decode failure means corruption — but it surfaces as a typed
/// [`WireError`] (which the worker propagates as an
/// [`crate::EngineError`]), never as a panic in the hot path.
pub trait WireMsg: Send + Clone + 'static {
    /// Append this message to `buf`.
    fn encode(&self, buf: &mut BytesMut);
    /// Read one message back from `buf`.
    fn decode(buf: &mut Bytes) -> Result<Self, WireError>;
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

impl WireMsg for SubgraphId {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.0);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(SubgraphId(get_u32(buf, "SubgraphId")?))
    }
}

impl WireMsg for String {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.len() as u32);
        buf.put_slice(self.as_bytes());
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let raw = get_prefixed(buf, "String")?;
        // Validate in place, then copy once — `String::from_utf8(to_vec())`
        // would copy before validating.
        match std::str::from_utf8(&raw) {
            Ok(s) => Ok(s.to_owned()),
            Err(_) => Err(WireError::Utf8 { context: "String" }),
        }
    }
}

/// A name from the engine's fixed vocabulary (trace event and counter
/// names): the bytes of `String`, decoded by interning into the process's
/// `&'static str` name pool. Interning leaks once per distinct name, so
/// this is for small closed sets of names, not for payload data.
impl WireMsg for &'static str {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.len() as u32);
        buf.put_slice(self.as_bytes());
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let raw = get_prefixed(buf, "name")?;
        match std::str::from_utf8(&raw) {
            Ok(s) => Ok(crate::checkpoint::intern(s)),
            Err(_) => Err(WireError::Utf8 { context: "name" }),
        }
    }
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
        // Cap the speculative reservation by what the buffer could possibly
        // hold, so a corrupt length cannot trigger a huge allocation before
        // the element reads fail.
        let mut v = Vec::with_capacity(len.min(buf.remaining().max(1)));
        for _ in 0..len {
            v.push(T::decode(buf)?);
        }
        Ok(v)
    }
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

/// A routed message: payload plus source/destination subgraphs and a
/// per-sender sequence number used for deterministic delivery ordering.
#[derive(Clone, Debug, PartialEq)]
pub struct Envelope<M> {
    /// Sending subgraph.
    pub from: SubgraphId,
    /// Destination subgraph.
    pub to: SubgraphId,
    /// Sender-assigned sequence number (unique per sender per phase).
    pub seq: u32,
    /// The payload.
    pub payload: M,
}

impl<M: WireMsg> WireMsg for Envelope<M> {
    fn encode(&self, buf: &mut BytesMut) {
        self.from.encode(buf);
        self.to.encode(buf);
        self.seq.encode(buf);
        self.payload.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(Envelope {
            from: SubgraphId::decode(buf)?,
            to: SubgraphId::decode(buf)?,
            seq: u32::decode(buf)?,
            payload: M::decode(buf)?,
        })
    }
}

/// Sort envelopes into the engine's canonical deterministic delivery order.
///
/// `(from, seq)` keys are unique within any delivery scope (per-subgraph
/// send counters are never reset — see `Outbox::seq`), so the unstable sort
/// is fully deterministic. This is the *reference* delivery order: the hot
/// path reproduces it run-merge-wise via
/// [`crate::batch::merge_sorted_runs`], and property tests hold the two
/// equal.
pub fn sort_envelopes<M>(envelopes: &mut [Envelope<M>]) {
    envelopes.sort_unstable_by_key(|e| (e.from, e.seq));
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
        roundtrip(SubgraphId(3));
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
        assert!(std::ptr::eq(back, crate::checkpoint::intern(name)));
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

    #[test]
    fn envelope_roundtrip() {
        let e = Envelope {
            from: SubgraphId(1),
            to: SubgraphId(2),
            seq: 7,
            payload: (VertexIdx(3), 1.5f64),
        };
        let mut buf = BytesMut::new();
        e.encode(&mut buf);
        let back = Envelope::<(VertexIdx, f64)>::decode(&mut buf.freeze()).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn canonical_order_is_by_sender_then_seq() {
        let mk = |from: u32, seq: u32| Envelope {
            from: SubgraphId(from),
            to: SubgraphId(0),
            seq,
            payload: (),
        };
        let mut v = vec![mk(2, 0), mk(1, 1), mk(1, 0), mk(0, 5)];
        sort_envelopes(&mut v);
        let order: Vec<(u32, u32)> = v.iter().map(|e| (e.from.0, e.seq)).collect();
        assert_eq!(order, vec![(0, 5), (1, 0), (1, 1), (2, 0)]);
    }
}
