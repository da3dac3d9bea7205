//! Property tests attacking the TCP frame codec ([`tempograph::engine::net`]).
//!
//! Frames round-trip bit-exactly through an in-memory duplex pipe, and a
//! hostile byte stream — arbitrary bit-flips, truncations, deliberately
//! corrupted writes — always surfaces as a *typed* error ([`WireError`] /
//! [`EngineError`]), never a panic, never unbounded work: the pipe is
//! finite, so every property terminates or fails, and a checksum mismatch
//! must leave the stream frame-aligned (the very next frame still decodes).

use bytes::{Bytes, BytesMut};
use proptest::prelude::*;
use std::io::Cursor;
use tempograph::engine::metrics::MetricsShard;
use tempograph::engine::net::{
    decode_payload, encode_payload, read_frame, write_frame, Frame, FrameKind, TelemetryMsg,
    HEADER_LEN,
};
use tempograph::engine::{AttributionRow, EngineError, WireError, WireMsg};
use tempograph::metrics::{Histogram, BUCKETS};
use tempograph::partition::SubgraphId;
use tempograph::trace::TraceEvent;

/// `frame`'s encoding with its last byte flipped — a payload byte when
/// there is a payload, a checksum byte otherwise: the header parses, the
/// checksum does not match.
fn damaged(frame: &Frame) -> Vec<u8> {
    let mut enc = frame.encode().to_vec();
    if let Some(last) = enc.last_mut() {
        *last ^= 0xff;
    }
    enc
}

fn kind_strategy() -> impl Strategy<Value = FrameKind> {
    prop_oneof![
        Just(FrameKind::Hello),
        Just(FrameKind::Start),
        Just(FrameKind::Contribution),
        Just(FrameKind::Aggregate),
        Just(FrameKind::Abort),
        Just(FrameKind::DataSuperstep),
        Just(FrameKind::DataNextTimestep),
        Just(FrameKind::Sentinel),
        Just(FrameKind::PeerHello),
        Just(FrameKind::Output),
        Just(FrameKind::Telemetry),
        Just(FrameKind::StatusRequest),
        Just(FrameKind::StatusReply),
    ]
}

fn frame_strategy() -> impl Strategy<Value = Frame> {
    (
        kind_strategy(),
        any::<u16>(),
        any::<u32>(),
        any::<u64>(),
        proptest::collection::vec(any::<u8>(), 0..200),
    )
        .prop_map(|(kind, sender, epoch, seq, payload)| Frame {
            kind,
            sender,
            epoch,
            seq,
            payload: Bytes::from(payload),
        })
}

proptest! {
    /// Pure buffer decode inverts encode, consuming exactly the frame.
    #[test]
    fn frame_decodes_what_it_encodes(f in frame_strategy()) {
        let mut buf = f.encode();
        let back = Frame::decode(&mut buf).expect("well-formed frame decodes");
        prop_assert_eq!(&back, &f);
        prop_assert_eq!(buf.len(), 0, "decode must consume the frame exactly");
    }

    /// Stream round-trip through an in-memory duplex pipe: several frames
    /// written back-to-back read back identical, with exact byte counts.
    #[test]
    fn frames_roundtrip_through_a_pipe(
        frames in proptest::collection::vec(frame_strategy(), 1..8),
    ) {
        let mut pipe = Vec::new();
        let mut written = 0usize;
        for f in &frames {
            written += write_frame(&mut pipe, f, "pipe").unwrap();
        }
        prop_assert_eq!(written, pipe.len());

        let mut r = Cursor::new(pipe);
        let mut read = 0usize;
        for f in &frames {
            let (back, n) = read_frame(&mut r, "pipe").expect("clean frame reads back");
            prop_assert_eq!(&back, f);
            prop_assert_eq!(n, HEADER_LEN + f.payload.len());
            read += n;
        }
        prop_assert_eq!(read, written);
        // The pipe is drained: a further read is a clean-close error, not
        // a hang or a panic.
        prop_assert!(read_frame(&mut r, "pipe").is_err());
    }

    /// Any single bit-flip anywhere in an encoded frame either still
    /// decodes (the flip hit a value field — sender, epoch, seq) or fails
    /// with a typed `WireError`. Never a panic, never trailing confusion.
    #[test]
    fn bit_flips_yield_typed_errors_or_valid_frames(
        f in frame_strategy(),
        bit in any::<u16>(),
    ) {
        let enc = f.encode();
        let mut bytes = enc.to_vec();
        let pos = (bit as usize / 8) % bytes.len();
        bytes[pos] ^= 1 << (bit % 8);

        match Frame::decode(&mut Bytes::from(bytes.clone())) {
            // Flips in sender/epoch/seq (or a kind-tag flip that lands on
            // another valid tag) still parse — but never silently as the
            // original frame *with a damaged payload*.
            Ok(back) => prop_assert_eq!(&back.payload, &f.payload),
            Err(
                WireError::Eof { .. } | WireError::BadTag { .. } | WireError::Checksum { .. },
            ) => {}
            Err(e) => panic!("unexpected error class: {e}"),
        }

        // The stream reader over the same damaged bytes is equally tame.
        let mut r = Cursor::new(bytes);
        match read_frame(&mut r, "pipe") {
            Ok((back, _)) => prop_assert_eq!(&back.payload, &f.payload),
            Err(
                EngineError::Wire(_) | EngineError::Net { .. } | EngineError::Protocol { .. },
            ) => {}
            Err(e) => panic!("unexpected error class: {e}"),
        }
    }

    /// Truncating an encoded frame at any interior point is a typed error
    /// from both the buffer decoder and the stream reader.
    #[test]
    fn truncations_yield_typed_errors(f in frame_strategy(), cut in any::<u16>()) {
        let enc = f.encode();
        let cut = cut as usize % enc.len();
        let short = enc.slice(0..cut);

        match Frame::decode(&mut short.clone()) {
            Err(WireError::Eof { .. }) => {}
            Err(e) => panic!("truncation must be Eof, got: {e}"),
            Ok(_) => panic!("a truncated frame must not decode"),
        }

        let mut r = Cursor::new(short.to_vec());
        match read_frame(&mut r, "pipe") {
            // Cut at 0 reads as a clean close; anywhere else is a
            // mid-frame EOF. Both are EngineError::Net.
            Err(EngineError::Net { .. }) => {}
            Err(e) => panic!("stream truncation must be Net, got: {e}"),
            Ok(_) => panic!("a truncated stream must not yield a frame"),
        }
    }

    /// A frame with a damaged last byte is rejected with a checksum error
    /// *after* being fully consumed: the frame right behind it still
    /// decodes. The codec never desynchronises a stream, whatever a link
    /// then does with the error.
    #[test]
    fn corruption_is_detected_and_leaves_the_stream_aligned(
        f in frame_strategy(),
        g in frame_strategy(),
    ) {
        let mut pipe = damaged(&f);
        write_frame(&mut pipe, &g, "pipe").unwrap();

        let mut r = Cursor::new(pipe);
        match read_frame(&mut r, "pipe") {
            Err(EngineError::Wire(WireError::Checksum { .. })) => {}
            Err(e) => panic!("corrupted frame must fail its checksum, got: {e}"),
            Ok(_) => panic!("corrupted frame must not decode"),
        }
        let (back, _) = read_frame(&mut r, "pipe")
            .expect("stream must stay aligned after a checksum failure");
        prop_assert_eq!(&back, &g);
    }
}

// ---- Telemetry payloads --------------------------------------------------

/// Event and argument names come from a fixed set: on the wire they are
/// `&'static str`s, interned back on decode.
const NAMES: [&str; 7] = [
    "compute",
    "barrier.arrive",
    "straggler.detected",
    "net.bytes_sent",
    "superstep",
    "wait_ns",
    "",
];

fn name_strategy() -> impl Strategy<Value = &'static str> {
    (0..NAMES.len()).prop_map(|i| NAMES[i])
}

fn event_strategy() -> impl Strategy<Value = TraceEvent> {
    (
        0u8..3,
        name_strategy(),
        any::<u64>(),
        any::<u64>(),
        proptest::option::of((name_strategy(), any::<u64>())),
    )
        .prop_map(|(kind, name, a, b, arg)| match kind {
            0 => TraceEvent::Span {
                name,
                start_ns: a,
                dur_ns: b,
                arg,
            },
            1 => TraceEvent::Instant {
                name,
                ts_ns: a,
                arg,
            },
            _ => TraceEvent::Counter {
                name,
                ts_ns: a,
                value: b,
            },
        })
}

fn histogram_strategy() -> impl Strategy<Value = Histogram> {
    (
        proptest::collection::vec(any::<u64>(), BUCKETS..=BUCKETS),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(buckets, count, sum, min, max)| {
            // Arbitrary parts, laid out as the codec writes them.
            let mut buf = BytesMut::new();
            (BUCKETS as u32).encode(&mut buf);
            for part in buckets.iter().chain(&[count, sum, min, max]) {
                part.encode(&mut buf);
            }
            Histogram::decode(&mut buf.freeze()).unwrap()
        })
}

fn shard_strategy() -> impl Strategy<Value = MetricsShard> {
    (
        (
            histogram_strategy(),
            histogram_strategy(),
            histogram_strategy(),
            histogram_strategy(),
            histogram_strategy(),
        ),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |(
                (compute_ns, barrier_wait_ns, send_ns, checkpoint_write_ns, recovery_restore_ns),
                (cache_hits, cache_misses, cache_evictions, bytes_read),
            )| MetricsShard {
                compute_ns,
                barrier_wait_ns,
                send_ns,
                checkpoint_write_ns,
                recovery_restore_ns,
                cache_hits,
                cache_misses,
                cache_evictions,
                bytes_read,
            },
        )
}

fn attr_row_strategy() -> impl Strategy<Value = AttributionRow> {
    (any::<u32>(), any::<u32>(), any::<u64>(), any::<u32>()).prop_map(
        |(subgraph, timestep, compute_ns, invocations)| AttributionRow {
            subgraph: SubgraphId(subgraph),
            timestep,
            compute_ns,
            invocations,
        },
    )
}

fn telemetry_strategy() -> impl Strategy<Value = TelemetryMsg> {
    (
        (any::<u32>(), any::<u32>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |((timestep, supersteps, barrier_wait_ns), (clock_ns, bytes_sent, bytes_received))| {
                TelemetryMsg {
                    timestep,
                    supersteps,
                    barrier_wait_ns,
                    clock_ns,
                    bytes_sent,
                    bytes_received,
                }
            },
        )
}

/// The observability records a worker's Output frame carries home.
type Observability = (Vec<TraceEvent>, Option<MetricsShard>, Vec<AttributionRow>);

fn observability_strategy() -> impl Strategy<Value = Observability> {
    (
        proptest::collection::vec(event_strategy(), 0..5),
        proptest::option::of(shard_strategy()),
        proptest::collection::vec(attr_row_strategy(), 0..5),
    )
}

proptest! {
    /// Trace events, a metrics shard and attribution rows round-trip
    /// bit-exactly through their codecs.
    #[test]
    fn observability_records_roundtrip(obs in observability_strategy()) {
        let decoded: Observability =
            decode_payload(encode_payload(&obs)).expect("records decode");
        prop_assert_eq!(decoded, obs);
    }

    /// A bit-flip anywhere in encoded observability records either still
    /// decodes (the flip hit a value field) or fails with a typed error — never a panic, never unbounded preallocation (vector length
    /// prefixes are capped by the remaining bytes).
    #[test]
    fn bit_flipped_observability_records_yield_typed_errors(
        obs in observability_strategy(),
        bit in any::<u32>(),
    ) {
        let enc = encode_payload(&obs);
        let mut bytes = enc.to_vec();
        let pos = (bit as usize / 8) % bytes.len();
        bytes[pos] ^= 1 << (bit % 8);
        match decode_payload::<Observability>(Bytes::from(bytes)) {
            Ok(_) => {}
            // A flip that shrinks the last vector's length prefix leaves
            // its tail unread: a typed trailing-bytes error among them.
            Err(EngineError::Wire(_)) => {}
            Err(e) => panic!("unexpected error class: {e}"),
        }
    }

    /// Truncating encoded observability records at any interior point is a
    /// typed wire error, never a panic or a silent partial decode.
    #[test]
    fn truncated_observability_records_yield_typed_errors(
        obs in observability_strategy(),
        cut in any::<u32>(),
    ) {
        let enc = encode_payload(&obs);
        let cut = cut as usize % enc.len();
        match decode_payload::<Observability>(enc.slice(0..cut)) {
            Err(EngineError::Wire(WireError::Eof { .. })) => {}
            Err(e) => panic!("truncation must be Eof, got: {e}"),
            Ok(_) => panic!("truncated observability records must not decode"),
        }
    }
}

proptest! {
    /// A Telemetry frame carrying an arbitrary observability payload
    /// round-trips bit-exactly through the stream codec.
    #[test]
    fn telemetry_frames_roundtrip_through_a_pipe(
        msg in telemetry_strategy(),
        sender in any::<u16>(),
        epoch in any::<u32>(),
    ) {
        let f = Frame::control(FrameKind::Telemetry, sender, epoch, encode_payload(&msg));
        let mut pipe = Vec::new();
        write_frame(&mut pipe, &f, "pipe").unwrap();
        let mut r = Cursor::new(pipe);
        let (back, _) = read_frame(&mut r, "pipe").expect("clean telemetry frame reads back");
        prop_assert_eq!(back.kind, FrameKind::Telemetry);
        let decoded: TelemetryMsg = decode_payload(back.payload).expect("payload decodes");
        prop_assert_eq!(decoded, msg);
    }

    /// A bit-flip anywhere in an encoded telemetry payload either still
    /// decodes (the flip hit a value field) or fails with a typed wire
    /// error — never a panic, never unbounded preallocation (vector
    /// length prefixes are capped by the remaining bytes).
    #[test]
    fn bit_flipped_telemetry_payloads_yield_typed_errors(
        msg in telemetry_strategy(),
        bit in any::<u32>(),
    ) {
        let enc = encode_payload(&msg);
        prop_assume!(!enc.is_empty());
        let mut bytes = enc.to_vec();
        let pos = (bit as usize / 8) % bytes.len();
        bytes[pos] ^= 1 << (bit % 8);
        match decode_payload::<TelemetryMsg>(Bytes::from(bytes)) {
            Ok(_) => {}
            Err(EngineError::Wire(_)) => {}
            Err(e) => panic!("unexpected error class: {e}"),
        }
    }

    /// Truncating an encoded telemetry payload at any interior point is a
    /// typed wire error, never a panic or a silent partial decode.
    #[test]
    fn truncated_telemetry_payloads_yield_typed_errors(
        msg in telemetry_strategy(),
        cut in any::<u32>(),
    ) {
        let enc = encode_payload(&msg);
        prop_assume!(!enc.is_empty());
        let cut = cut as usize % enc.len();
        match decode_payload::<TelemetryMsg>(enc.slice(0..cut)) {
            Err(EngineError::Wire(WireError::Eof { .. })) => {}
            Err(e) => panic!("truncation must be Eof, got: {e}"),
            Ok(_) => panic!("a truncated telemetry payload must not decode"),
        }
    }

    /// A corrupted Telemetry frame fails its checksum and leaves the
    /// stream aligned: the frame right behind it still decodes, so
    /// `serve_epoch` surfaces a typed error instead of desynchronising on
    /// damaged telemetry.
    #[test]
    fn corrupted_telemetry_frames_leave_the_stream_aligned(
        msg in telemetry_strategy(),
        g in frame_strategy(),
    ) {
        let f = Frame::control(FrameKind::Telemetry, 3, 7, encode_payload(&msg));
        let mut pipe = damaged(&f);
        write_frame(&mut pipe, &g, "pipe").unwrap();

        let mut r = Cursor::new(pipe);
        match read_frame(&mut r, "pipe") {
            Err(EngineError::Wire(WireError::Checksum { .. })) => {}
            Err(e) => panic!("corrupted telemetry frame must fail its checksum, got: {e}"),
            Ok(_) => panic!("corrupted telemetry frame must not decode"),
        }
        let (back, _) = read_frame(&mut r, "pipe")
            .expect("stream must stay aligned after a damaged telemetry frame");
        prop_assert_eq!(&back, &g);
    }
}
