//! Typed errors for the engine's worker hot path.
//!
//! The message decode path (superstep drain, checkpoint inbox decode) used
//! to panic on malformed bytes — acceptable while buffers were provably
//! engine-internal, but a panic in a worker poisons the whole cluster and
//! loses the structured cause. Lint rule **P01** now forbids
//! `unwrap`/`expect`/`panic!` in that path; corruption instead surfaces as
//! a [`WireError`] (the workspace codec's, `tempograph_core::wire`)
//! wrapped into an [`EngineError`] (worker layer), which the driver
//! re-raises with the failing partition attached.

use std::fmt;
use tempograph_core::wire::WireError;

/// A worker-level failure surfaced to the driver as a value, not a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// A received frame failed to decode.
    Wire(WireError),
    /// A transport-level I/O failure on this worker's own connections
    /// (dial failure, write failure, connection reset, mid-frame EOF).
    /// `detail` carries the stringified `io::Error` — `io::Error` itself is
    /// neither `Clone` nor `Eq`, which this type must be so the driver can
    /// re-surface a worker error by value.
    Net {
        /// What the transport was doing (e.g. "reading frame from peer 2").
        context: String,
        /// The underlying I/O failure, stringified.
        detail: String,
    },
    /// A worker died — on any transport: its thread panicked or returned a
    /// typed error, its process exited, its connection reset, its channel
    /// closed. Peers and the driver all name the partition that died
    /// *first*, never a cascade; `detail` carries the evidence (panic
    /// message, worker error, exit status or socket error).
    RemoteWorkerDied {
        /// The partition whose worker died.
        partition: u16,
        /// Exit status / connection error that proved the death.
        detail: String,
    },
    /// A peer's end-of-phase sentinel declared a different data-frame
    /// count than its link delivered. Links never drop a frame, so this is
    /// a broken link or a broken sender; nothing is retransmitted, and the
    /// error is fatal.
    FrameLoss {
        /// The peer partition whose frames went missing.
        peer: u16,
        /// Data frames the sentinel declared sent (cumulative).
        expected: u64,
        /// Data frames actually accounted for (cumulative).
        got: u64,
    },
    /// A worker received a frame it cannot accept in its current state:
    /// wrong epoch, wrong recipient, or a kind that is invalid mid-phase.
    Protocol {
        /// Human description of the violation.
        detail: String,
    },
    /// A frame was refused before any byte of it was written: its payload
    /// exceeds [`crate::net::MAX_PAYLOAD_LEN`], so every receiver would
    /// reject it (and the header's `u32` length would wrap past 4 GiB).
    FrameTooLarge {
        /// The connection the frame was meant for (e.g. "coordinator").
        peer: String,
        /// What the frame carried.
        kind: crate::net::FrameKind,
        /// The payload length, bytes.
        len: usize,
        /// The cap it exceeds, bytes.
        cap: u32,
    },
    /// The job's instance source could not be opened (a GoFS dataset
    /// directory that is missing, unreadable, corrupt or not the graph the
    /// job was handed). `detail` carries the stringified `GofsError`.
    Dataset {
        /// What was being opened (e.g. "GoFS dataset /data/carn").
        context: String,
        /// The underlying storage failure, stringified.
        detail: String,
    },
    /// Writing, committing or restoring a checkpoint failed. A restore
    /// names the file and the partition, and the subgraph when a program
    /// refused its state blob. `detail` carries the stringified storage or
    /// wire error (the underlying `GofsError` is not `Eq`).
    Checkpoint {
        /// What the checkpoint machinery was doing (e.g. "restoring
        /// partition 1 from ckpt-t000003-p001.bin").
        context: String,
        /// The underlying storage failure, stringified.
        detail: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Wire(e) => write!(f, "wire decode failed: {e}"),
            EngineError::Net { context, detail } => {
                write!(f, "transport failure {context}: {detail}")
            }
            EngineError::RemoteWorkerDied { partition, detail } => {
                write!(f, "remote worker for partition {partition} died: {detail}")
            }
            EngineError::FrameLoss {
                peer,
                expected,
                got,
            } => write!(
                f,
                "frames from peer {peer} lost in flight: sentinel declared {expected} \
                 data frames, only {got} accounted for"
            ),
            EngineError::Protocol { detail } => write!(f, "transport protocol violation: {detail}"),
            EngineError::FrameTooLarge {
                peer,
                kind,
                len,
                cap,
            } => write!(
                f,
                "refused to send a {kind:?} frame to {peer}: its {len}-byte payload \
                 exceeds the {cap}-byte cap"
            ),
            EngineError::Checkpoint { context, detail } => {
                write!(f, "checkpoint failure {context}: {detail}")
            }
            EngineError::Dataset { context, detail } => {
                write!(f, "cannot open {context}: {detail}")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Wire(e) => Some(e),
            EngineError::Net { .. }
            | EngineError::RemoteWorkerDied { .. }
            | EngineError::FrameLoss { .. }
            | EngineError::Protocol { .. }
            | EngineError::FrameTooLarge { .. }
            | EngineError::Checkpoint { .. }
            | EngineError::Dataset { .. } => None,
        }
    }
}

impl From<WireError> for EngineError {
    fn from(e: WireError) -> Self {
        EngineError::Wire(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_context() {
        let e = WireError::Eof {
            context: "u32",
            needed: 4,
            remaining: 1,
        };
        assert!(e.to_string().contains("u32"));
        assert!(e.to_string().contains("4 bytes"));
        let e = WireError::BadTag {
            context: "Option",
            tag: 7,
        };
        assert!(e.to_string().contains("0x07"));
        let e: EngineError = WireError::Utf8 { context: "String" }.into();
        assert!(e.to_string().contains("UTF-8"));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn transport_errors_name_their_subject() {
        let e = EngineError::RemoteWorkerDied {
            partition: 3,
            detail: "exit status: 1".into(),
        };
        assert!(e.to_string().contains("partition 3"), "{e}");
        assert!(e.to_string().contains("exit status"), "{e}");

        let e = EngineError::FrameLoss {
            peer: 2,
            expected: 7,
            got: 5,
        };
        assert!(e.to_string().contains("peer 2"), "{e}");

        let e = EngineError::Net {
            context: "reading frame from peer 1".into(),
            detail: "connection reset".into(),
        };
        assert!(e.to_string().contains("peer 1"), "{e}");

        let e: EngineError = WireError::Checksum { context: "frame" }.into();
        assert!(e.to_string().contains("checksum mismatch"), "{e}");
    }
}
