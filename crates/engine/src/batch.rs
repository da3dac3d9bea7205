//! The batched, pooled, combiner-aware inter-partition message path.
//!
//! The first engine revision shipped every [`Envelope`] as its own
//! 12-byte-headed record appended to a fresh per-peer buffer, and the
//! receiver restored determinism with one global stable sort per inbox.
//! This module replaces that path with three cooperating pieces:
//!
//! 1. **Framed batches** ([`MessageBatch`]): all envelopes a partition sends
//!    to one peer in one phase are packed into a single length-prefixed
//!    frame, grouped into per-destination *runs*. The destination id is
//!    written once per run instead of once per message (8 bytes of header
//!    per message instead of 12), and the whole frame costs one channel
//!    send and one allocation — or zero allocations once the pool is warm.
//! 2. **Buffer pooling** ([`BufferPool`]): encode buffers are recycled
//!    across supersteps via [`Bytes::try_into_mut`], so steady-state
//!    supersteps do not touch the allocator for messaging at all.
//! 3. **Combining** ([`Combiner`]): an optional Pregel-style sender-side
//!    reduction that folds same-destination, same-key messages before they
//!    are serialised (min for shortest-path relaxations, element-wise sum
//!    for counting aggregations).
//!
//! # Ordering invariants
//!
//! The engine delivers each subgraph's inbox sorted by `(from, seq)`, and
//! per-subgraph send counters are never reset, so `(from, seq)` is unique
//! for the life of a job. Every run produced by a single routing pass is
//! already `(from, seq)`-sorted: senders are drained in ascending subgraph
//! order and each sender's `seq` increases monotonically. Runs are kept
//! separate end-to-end (one decoded run is never concatenated with
//! another), which lets the receiver replace the global sort with an O(n)
//! [`merge_sorted_runs`] k-way merge that yields *exactly* the order the
//! stable sort produced.
//!
//! Combining preserves this invariant: [`combine_envelopes`] folds later
//! messages into the **first** envelope of each `(destination, key)` group,
//! so surviving envelopes are a subsequence of the sorted input and keep
//! their original `(from, seq)` identity. A combined run therefore sorts
//! and merges like an uncombined one.
//!
//! The pre-batching path is preserved in [`legacy`] as an executable
//! reference: property tests assert the new path is byte-equivalent in
//! content and order, and the `micro_messaging` benchmark measures both in
//! the same run.

use crate::wire::Envelope;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use tempograph_core::wire::{get_u32, WireError, WireMsg};
use tempograph_partition::SubgraphId;
use tempograph_trace::TraceSink;

/// A multiply-rotate hasher (the rustc/Firefox "Fx" construction) for the
/// per-message hot paths. The default SipHash is DoS-resistant but costs
/// more than the serialisation it sits next to; keys here are small
/// engine-internal integers, so the cheap hash is safe.
#[derive(Default)]
pub struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A sender-side message reduction (Pregel's combiners, adapted to the
/// subgraph-centric model).
///
/// Two messages bound for the same destination subgraph whose payloads map
/// to the same `Some` key are folded into one before serialisation.
/// `combine` must implement an **associative and commutative** reduction:
/// the engine folds messages in deterministic routing order, but that order
/// differs from delivery order (the fold replaces several deliveries with
/// one), so only order-insensitive reductions — min, max, sum — are sound.
pub trait Combiner<M>: Send + Sync {
    /// Combining key of a payload, or `None` for messages that must be
    /// delivered individually (e.g. control tokens).
    fn key(&self, msg: &M) -> Option<u64>;

    /// Fold `incoming` into the accumulator `acc`.
    fn combine(&self, acc: &mut M, incoming: M);
}

/// Fold same-destination, same-key messages with `combiner`.
///
/// Later messages are folded into the *first* envelope of their
/// `(destination, key)` group, which keeps the output a subsequence of the
/// input — in particular, `(from, seq)`-sorted input stays sorted.
pub fn combine_envelopes<M>(
    combiner: &dyn Combiner<M>,
    msgs: Vec<Envelope<M>>,
) -> Vec<Envelope<M>> {
    let mut out: Vec<Envelope<M>> = Vec::with_capacity(msgs.len());
    let mut acc_at: FxHashMap<(SubgraphId, u64), usize> = FxHashMap::default();
    for e in msgs {
        match combiner.key(&e.payload) {
            None => out.push(e),
            Some(key) => match acc_at.entry((e.to, key)) {
                Entry::Occupied(o) => {
                    combiner.combine(&mut out[*o.get()].payload, e.payload);
                }
                Entry::Vacant(v) => {
                    v.insert(out.len());
                    out.push(e);
                }
            },
        }
    }
    out
}

/// All messages one partition sends to one peer in one phase, grouped into
/// per-destination runs. Push order is preserved within each run, so
/// pushing `(from, seq)`-sorted input yields `(from, seq)`-sorted runs.
///
/// Wire frame:
///
/// ```text
/// [n_runs: u32]
/// n_runs × [to: u32][run_len: u32] run_len × ([from: u32][seq: u32][payload])
/// ```
pub struct MessageBatch<M> {
    runs: DecodedRuns<M>,
    run_of: FxHashMap<SubgraphId, usize>,
    len: usize,
}

/// A decoded frame: per-destination runs in sender push order.
pub type DecodedRuns<M> = Vec<(SubgraphId, Vec<Envelope<M>>)>;

impl<M> Default for MessageBatch<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> MessageBatch<M> {
    /// An empty batch.
    pub fn new() -> Self {
        MessageBatch {
            runs: Vec::new(),
            run_of: FxHashMap::default(),
            len: 0,
        }
    }

    /// Append an envelope to its destination's run.
    pub fn push(&mut self, e: Envelope<M>) {
        self.len += 1;
        // Senders emit destination-clustered streams (Dijkstra sweeps sort
        // by target vertex), so the previous push usually answers the
        // lookup without touching the map.
        if let Some(last) = self.runs.last_mut() {
            if last.0 == e.to {
                last.1.push(e);
                return;
            }
        }
        let slot = match self.run_of.entry(e.to) {
            Entry::Occupied(o) => *o.get(),
            Entry::Vacant(v) => {
                let slot = self.runs.len();
                v.insert(slot);
                self.runs.push((e.to, Vec::new()));
                slot
            }
        };
        self.runs[slot].1.push(e);
    }

    /// Total messages across all runs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no message has been pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The per-destination runs, in first-push order.
    pub fn into_runs(self) -> Vec<(SubgraphId, Vec<Envelope<M>>)> {
        self.runs
    }
}

impl<M: WireMsg> MessageBatch<M> {
    /// Append the whole batch as one frame.
    pub fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.runs.len() as u32);
        for (to, run) in &self.runs {
            buf.put_u32_le(to.0);
            buf.put_u32_le(run.len() as u32);
            for e in run {
                debug_assert_eq!(e.to, *to, "run holds exactly one destination");
                buf.put_u32_le(e.from.0);
                buf.put_u32_le(e.seq);
                e.payload.encode(buf);
            }
        }
    }

    /// Read one frame back as per-destination runs. Run-internal order is
    /// exactly the sender's push order.
    pub fn decode(buf: &mut Bytes) -> Result<DecodedRuns<M>, WireError> {
        let n_runs = get_u32(buf, "batch run count")? as usize;
        let mut runs = Vec::with_capacity(n_runs.min(buf.remaining().max(1)));
        for _ in 0..n_runs {
            let to = SubgraphId(get_u32(buf, "run destination")?);
            let n = get_u32(buf, "run length")? as usize;
            let mut run = Vec::with_capacity(n.min(buf.remaining().max(1)));
            for _ in 0..n {
                let from = SubgraphId(get_u32(buf, "run entry from")?);
                let seq = get_u32(buf, "run entry seq")?;
                run.push(Envelope {
                    from,
                    to,
                    seq,
                    payload: M::decode(buf)?,
                });
            }
            runs.push((to, run));
        }
        Ok(runs)
    }

    /// [`Self::encode`] wrapped in a `"batch.encode"` trace span carrying
    /// the message count. Zero extra cost when the sink is off (the span
    /// start is a sentinel, no clock read).
    pub fn encode_traced(&self, buf: &mut BytesMut, sink: &mut TraceSink) {
        let span = sink.start();
        self.encode(buf);
        sink.span_arg_since("batch.encode", span, "msgs", self.len as u64);
    }
}

/// Recycles frame buffers across supersteps.
///
/// A sender draws encode buffers from its pool; the receiver, after fully
/// decoding a frame, reclaims the allocation via [`Bytes::try_into_mut`]
/// into *its* pool. Capacity thus migrates between workers with the
/// traffic, which is exactly where it is needed next; a worker whose pool
/// runs dry simply allocates a fresh buffer.
pub struct BufferPool {
    free: Vec<BytesMut>,
}

/// Buffers retained per pool. Keeps worst-case idle memory bounded at a few
/// dozen frames; excess buffers are dropped.
const MAX_POOLED: usize = 32;

impl Default for BufferPool {
    fn default() -> Self {
        Self::new()
    }
}

impl BufferPool {
    /// An empty pool.
    pub fn new() -> Self {
        BufferPool { free: Vec::new() }
    }

    /// A cleared buffer, recycled when available.
    pub fn get(&mut self) -> BytesMut {
        self.free.pop().unwrap_or_default()
    }

    /// Return a buffer to the pool.
    pub fn put(&mut self, mut buf: BytesMut) {
        if self.free.len() < MAX_POOLED {
            buf.clear();
            self.free.push(buf);
        }
    }

    /// Reclaim a (typically fully consumed) frame's allocation. No-ops when
    /// the allocation is still shared.
    pub fn reclaim(&mut self, bytes: Bytes) {
        if let Ok(buf) = bytes.try_into_mut() {
            self.put(buf);
        }
    }

    /// Buffers currently held.
    #[cfg(test)]
    fn pooled(&self) -> usize {
        self.free.len()
    }
}

/// Merge `(from, seq)`-sorted runs into one sorted inbox.
///
/// With `(from, seq)` unique across all runs (guaranteed by the persistent
/// per-subgraph send counters), the output order equals what a stable sort
/// of the concatenation produces — the engine's canonical delivery order.
///
/// The merge *gallops*: each round finds the run with the smallest head and
/// the runner-up head (`fence`), then copies from the winning run until its
/// head passes the fence — one comparison per element plus one O(k) scan
/// per run switch. Runs come from distinct senders whose `from` ranges
/// rarely interleave, so whole runs are usually copied in a single round:
/// O(n + k²) typical, O(n·k) worst case, O(n) moves always.
pub fn merge_sorted_runs<M>(mut runs: Vec<Vec<Envelope<M>>>) -> Vec<Envelope<M>> {
    runs.retain(|r| !r.is_empty());
    if runs.len() <= 1 {
        return runs.pop().unwrap_or_default();
    }
    let total = runs.iter().map(Vec::len).sum();
    let mut out: Vec<Envelope<M>> = Vec::with_capacity(total);
    let mut iters: Vec<std::iter::Peekable<std::vec::IntoIter<Envelope<M>>>> =
        runs.into_iter().map(|r| r.into_iter().peekable()).collect();
    loop {
        // One scan finds both the smallest head and the runner-up key.
        let mut best = usize::MAX;
        let mut best_key: Option<(SubgraphId, u32)> = None;
        let mut fence: Option<(SubgraphId, u32)> = None;
        for (i, it) in iters.iter_mut().enumerate() {
            let Some(e) = it.peek() else { continue };
            let k = (e.from, e.seq);
            match best_key {
                None => {
                    best = i;
                    best_key = Some(k);
                }
                // The dethroned best is necessarily the new runner-up:
                // every earlier non-best key was ≥ the old best.
                Some(bk) if k < bk => {
                    fence = Some(bk);
                    best = i;
                    best_key = Some(k);
                }
                Some(_) => {
                    if fence.is_none_or(|f| k < f) {
                        fence = Some(k);
                    }
                }
            }
        }
        if best == usize::MAX {
            break;
        }
        let it = &mut iters[best];
        match fence {
            // Only one non-empty run left: drain it and finish.
            None => out.extend(it),
            Some(f) => {
                while let Some(e) = it.next_if(|e| (e.from, e.seq) < f) {
                    out.push(e);
                }
            }
        }
    }
    out
}

/// [`merge_sorted_runs`] wrapped in a `"batch.merge"` trace span carrying
/// the merged message count. Trivial merges (≤ 1 non-empty run after
/// retain would short-circuit anyway) still record when non-empty, so the
/// trace accounts for every delivered message; empty merges record
/// nothing.
pub fn merge_sorted_runs_traced<M>(
    runs: Vec<Vec<Envelope<M>>>,
    sink: &mut TraceSink,
) -> Vec<Envelope<M>> {
    let total: u64 = runs.iter().map(|r| r.len() as u64).sum();
    let span = sink.start();
    let out = merge_sorted_runs(runs);
    if total > 0 {
        sink.span_arg_since("batch.merge", span, "msgs", total);
    }
    out
}

/// The pre-batching message encoding, kept as an executable reference.
///
/// Property tests assert the batched path carries exactly what this one
/// does, and the `micro_messaging` benchmark compares both in the same run.
pub mod legacy {
    use super::*;

    /// Encode envelopes the original way: each with its full 12-byte
    /// header, into a fresh buffer. Returns `(count, frame)`.
    pub fn encode_envelopes<M: WireMsg>(msgs: &[Envelope<M>]) -> (u32, Bytes) {
        let mut buf = BytesMut::new();
        for e in msgs {
            e.encode(&mut buf);
        }
        (msgs.len() as u32, buf.freeze())
    }

    /// Decode a legacy frame of `count` envelopes.
    pub fn decode_envelopes<M: WireMsg>(
        count: u32,
        bytes: &mut Bytes,
    ) -> Result<Vec<Envelope<M>>, WireError> {
        (0..count).map(|_| Envelope::decode(bytes)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::sort_envelopes;

    /// The original delivery step, the merge's oracle: concatenate
    /// everything a destination received, then stable-sort by
    /// `(from, seq)`.
    fn stable_sorted(received: Vec<Vec<Envelope<u64>>>) -> Vec<Envelope<u64>> {
        let mut all: Vec<Envelope<u64>> = received.into_iter().flatten().collect();
        sort_envelopes(&mut all);
        all
    }

    fn env(from: u32, to: u32, seq: u32, payload: u64) -> Envelope<u64> {
        Envelope {
            from: SubgraphId(from),
            to: SubgraphId(to),
            seq,
            payload,
        }
    }

    #[test]
    fn batch_groups_by_destination_preserving_push_order() {
        let mut b = MessageBatch::new();
        b.push(env(0, 5, 0, 10));
        b.push(env(0, 7, 1, 11));
        b.push(env(1, 5, 0, 12));
        assert_eq!(b.len(), 3);
        let runs = b.into_runs();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].0, SubgraphId(5));
        assert_eq!(runs[0].1.len(), 2);
        assert_eq!(runs[1].0, SubgraphId(7));
    }

    #[test]
    fn frame_roundtrip() {
        let mut b = MessageBatch::new();
        for e in [env(0, 5, 0, 1), env(0, 7, 1, 2), env(1, 5, 3, 4)] {
            b.push(e);
        }
        let mut buf = BytesMut::new();
        b.encode(&mut buf);
        let expect = b.into_runs();
        let mut bytes = buf.freeze();
        let got = MessageBatch::<u64>::decode(&mut bytes).unwrap();
        assert_eq!(bytes.remaining(), 0, "frame must consume exactly");
        assert_eq!(got, expect);
    }

    /// Byte golden for a batch frame: two destination runs, the first
    /// holding two envelopes.
    #[test]
    fn golden_message_batch() {
        let mut b = MessageBatch::new();
        for e in [
            env(1, 5, 2, 0x1111),
            env(3, 7, 4, 0x2222),
            env(6, 5, 8, u64::MAX),
        ] {
            b.push(e);
        }
        let mut buf = BytesMut::new();
        b.encode(&mut buf);
        tempograph_gofs::codec::assert_hex_golden(
            &buf,
            include_str!("../testdata/message_batch.hex"),
            "FRAME_VERSION",
            crate::net::FRAME_VERSION,
        );
        assert_eq!(
            MessageBatch::<u64>::decode(&mut buf.freeze()).unwrap(),
            b.into_runs()
        );
    }

    #[test]
    fn empty_and_single_message_frames() {
        let b = MessageBatch::<u64>::new();
        assert!(b.is_empty());
        let mut buf = BytesMut::new();
        b.encode(&mut buf);
        let mut bytes = buf.freeze();
        assert!(MessageBatch::<u64>::decode(&mut bytes).unwrap().is_empty());
        assert_eq!(bytes.remaining(), 0);

        let mut b = MessageBatch::new();
        b.push(env(3, 4, 9, 99));
        let mut buf = BytesMut::new();
        b.encode(&mut buf);
        let runs = MessageBatch::<u64>::decode(&mut buf.freeze()).unwrap();
        assert_eq!(runs, vec![(SubgraphId(4), vec![env(3, 4, 9, 99)])]);
    }

    struct MinCombiner;
    impl Combiner<u64> for MinCombiner {
        fn key(&self, _m: &u64) -> Option<u64> {
            Some(0)
        }
        fn combine(&self, acc: &mut u64, incoming: u64) {
            *acc = (*acc).min(incoming);
        }
    }

    #[test]
    fn combiner_folds_into_first_occurrence() {
        let msgs = vec![env(0, 5, 0, 30), env(1, 5, 0, 10), env(1, 6, 1, 20)];
        let out = combine_envelopes(&MinCombiner, msgs);
        assert_eq!(out.len(), 2);
        // Keeps the first contributor's (from, seq) identity and stays
        // sorted.
        assert_eq!(
            (out[0].from, out[0].seq, out[0].payload),
            (SubgraphId(0), 0, 10)
        );
        assert_eq!(out[1].payload, 20);
    }

    struct NeverCombine;
    impl Combiner<u64> for NeverCombine {
        fn key(&self, _m: &u64) -> Option<u64> {
            None
        }
        fn combine(&self, _acc: &mut u64, _incoming: u64) {
            unreachable!("key() is always None")
        }
    }

    #[test]
    fn none_key_disables_combining() {
        let msgs = vec![env(0, 5, 0, 1), env(1, 5, 0, 2)];
        assert_eq!(combine_envelopes(&NeverCombine, msgs.clone()), msgs);
    }

    #[test]
    fn merge_equals_legacy_stable_sort() {
        // Three sorted runs with globally unique (from, seq).
        let runs = vec![
            vec![env(0, 9, 0, 1), env(0, 9, 2, 2), env(3, 9, 0, 3)],
            vec![env(1, 9, 0, 4), env(2, 9, 5, 5)],
            vec![env(0, 9, 1, 6), env(4, 9, 0, 7)],
        ];
        let merged = merge_sorted_runs(runs.clone());
        let reference = stable_sorted(runs);
        assert_eq!(merged, reference);
    }

    #[test]
    fn merge_is_invariant_under_run_arrival_order() {
        // The TCP transport hands runs to the merge in whatever order
        // frames arrived off the sockets; delivery order must not depend
        // on it. Check every permutation of a 4-run inbox against the
        // canonical stable sort.
        let runs = vec![
            vec![env(0, 9, 0, 1), env(0, 9, 2, 2), env(3, 9, 0, 3)],
            vec![env(1, 9, 0, 4), env(2, 9, 5, 5)],
            vec![env(0, 9, 1, 6), env(4, 9, 0, 7)],
            vec![env(2, 9, 6, 8)],
        ];
        let reference = stable_sorted(runs.clone());
        // Heap's algorithm over the run indices.
        let mut idx = [0usize, 1, 2, 3];
        let mut c = [0usize; 4];
        let check = |order: &[usize; 4]| {
            let permuted: Vec<_> = order.iter().map(|&i| runs[i].clone()).collect();
            assert_eq!(merge_sorted_runs(permuted), reference, "order {order:?}");
        };
        check(&idx);
        let mut i = 0;
        while i < 4 {
            if c[i] < i {
                idx.swap(if i % 2 == 0 { 0 } else { c[i] }, i);
                check(&idx);
                c[i] += 1;
                i = 0;
            } else {
                c[i] = 0;
                i += 1;
            }
        }
    }

    #[test]
    fn merge_handles_empty_and_single_runs() {
        assert!(merge_sorted_runs::<u64>(vec![]).is_empty());
        assert!(merge_sorted_runs::<u64>(vec![vec![], vec![]]).is_empty());
        let one = vec![env(0, 1, 0, 5)];
        assert_eq!(merge_sorted_runs(vec![vec![], one.clone()]), one);
    }

    #[test]
    fn pool_recycles_consumed_frames() {
        let mut pool = BufferPool::new();
        let mut buf = pool.get();
        buf.reserve(256);
        buf.put_u64_le(42);
        let cap = buf.capacity();
        let mut bytes = buf.freeze();
        assert_eq!(bytes.get_u64_le(), 42);
        pool.reclaim(bytes);
        assert_eq!(pool.pooled(), 1);
        let recycled = pool.get();
        assert!(recycled.is_empty());
        assert_eq!(recycled.capacity(), cap, "allocation survives the trip");
    }

    #[test]
    fn pool_refuses_shared_frames_and_bounds_growth() {
        let mut pool = BufferPool::new();
        let mut buf = BytesMut::new();
        buf.put_u8(1);
        let bytes = buf.freeze();
        let _held = bytes.clone();
        pool.reclaim(bytes);
        assert_eq!(pool.pooled(), 0, "shared allocation must not recycle");

        for _ in 0..100 {
            pool.put(BytesMut::new());
        }
        assert!(pool.pooled() <= MAX_POOLED);
    }

    #[test]
    fn legacy_roundtrip() {
        let msgs = vec![env(0, 5, 0, 1), env(1, 6, 0, 2)];
        let (count, mut bytes) = legacy::encode_envelopes(&msgs);
        let back = legacy::decode_envelopes::<u64>(count, &mut bytes).unwrap();
        assert_eq!(bytes.remaining(), 0);
        assert_eq!(back, msgs);
    }

    #[test]
    fn truncated_frame_is_a_typed_error() {
        let mut b = MessageBatch::new();
        b.push(env(0, 5, 0, 1));
        b.push(env(0, 5, 1, 2));
        let mut buf = BytesMut::new();
        b.encode(&mut buf);
        let full = buf.freeze();
        for cut in [0, 4, full.len() - 1] {
            let mut short = Bytes::copy_from_slice(&full[..cut]);
            assert!(
                MessageBatch::<u64>::decode(&mut short).is_err(),
                "cut at {cut} must error, not panic"
            );
        }
    }
}
