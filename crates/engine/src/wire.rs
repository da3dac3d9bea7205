//! Routed messages: the [`Envelope`] every cross-subgraph message travels
//! in, and the canonical delivery order.
//!
//! Messages between subgraphs in the *same* partition are moved as values
//! (same address space — GoFFish's intra-host messages stay inside one JVM).
//! Messages crossing partitions are **really serialised** through the
//! workspace codec ([`WireMsg`], in `tempograph_core::wire`) and
//! deserialised on the receiving worker, so the engine's "partition
//! overhead" metric measures genuine marshalling work and the byte
//! counters reflect actual on-the-wire sizes.

use bytes::{Bytes, BytesMut};
use tempograph_core::wire::{WireError, WireMsg};
use tempograph_partition::SubgraphId;

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
    use tempograph_core::VertexIdx;

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
