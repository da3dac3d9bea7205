//! Superstep checkpointing: per-partition snapshot files + a commit
//! manifest, in the GoFS on-disk idiom (magic / version / FNV-1a checksum
//! frames, staged `.tmp` + rename writes).
//!
//! # Protocol
//!
//! At the end of every `every`-th timestep each worker serialises its full
//! recovery state — program state per subgraph (via
//! `SubgraphProgram::save_state`), pending next-timestep and merge-phase
//! messages, send/merge sequence counters, plus the metrics/counters/emits
//! accumulated so far — into `ckpt-t{t}-p{p}.bin` inside the configured
//! checkpoint directory. Writes are staged through
//! [`tempograph_gofs::store::write_atomic`], so a worker dying mid-write
//! can never leave a torn file where a reader might find it.
//!
//! After *all* workers have renamed their files into place (a barrier
//! separates write from commit), partition 0 appends the timestep to
//! `manifest.bin` — the single commit point. A timestep is recoverable iff
//! it appears in the manifest *and* all `k` partition files for it decode
//! cleanly; [`latest_valid`] walks the manifest newest-first and falls back
//! past corrupt or missing entries, so damage degrades recovery by one
//! interval instead of killing it.
//!
//! # Determinism
//!
//! The engine delivers messages in canonical `(from, seq)` order and each
//! checkpoint captures the complete inter-timestep state (program state +
//! staged messages + sequence counters). Re-running timesteps `t+1..` from
//! a checkpoint of `t` therefore reproduces the clean run bit-for-bit —
//! the property `tests/recovery_equivalence.rs` asserts.

use crate::metrics::{Emit, TimestepMetrics};
use crate::wire::Envelope;
use bytes::{Bytes, BytesMut};
use std::path::{Path, PathBuf};
use tempograph_core::wire::{WireError, WireMsg};
use tempograph_gofs::codec::{decode_framed, frame};
use tempograph_gofs::error::Result;
use tempograph_gofs::store::write_atomic;
use tempograph_partition::SubgraphId;

const CHECKPOINT_MAGIC: [u8; 4] = *b"GFCK";
const MANIFEST_MAGIC: [u8; 4] = *b"GFCM";

/// Where and how often to checkpoint; see [`crate::JobConfig::with_checkpoint`].
#[derive(Clone, Debug)]
pub struct CheckpointConfig {
    /// Checkpoint after every `every` timesteps (`usize::MAX` ⇒ never
    /// write one; recovery then restarts from scratch).
    pub every: usize,
    /// Directory holding the per-partition files and the manifest.
    pub dir: PathBuf,
}

impl CheckpointConfig {
    /// True when timestep `t` (0-based) ends a checkpoint interval.
    pub fn due_at(&self, t: usize) -> bool {
        self.every != usize::MAX && (t + 1).is_multiple_of(self.every)
    }
}

/// Path of partition `p`'s checkpoint file for timestep `t`.
pub fn checkpoint_path(dir: &Path, t: u64, p: u16) -> PathBuf {
    dir.join(format!("ckpt-t{t:06}-p{p:03}.bin"))
}

/// Path of the commit manifest.
pub fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("manifest.bin")
}

/// Everything one subgraph needs to resume after its checkpointed timestep.
#[derive(Clone, Debug, PartialEq)]
pub struct SubgraphCheckpoint<M> {
    /// Opaque program state from `SubgraphProgram::save_state`.
    pub state: Vec<u8>,
    /// Next value of the per-subgraph send sequence counter.
    pub next_seq: u32,
    /// Next value of the merge-phase send sequence counter.
    pub merge_seq: u32,
    /// Messages staged for delivery at the next timestep, already in
    /// canonical `(from, seq)` order.
    pub next_inbox: Vec<Envelope<M>>,
    /// Messages accumulated for the merge phase (eventually-dependent runs).
    pub merge_inbox: Vec<Envelope<M>>,
}

/// One partition's complete recovery state at the end of a timestep.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkerCheckpoint<M> {
    /// Owning partition (consistency-checked on restore).
    pub partition: u16,
    /// The 0-based timestep this snapshot was taken *after*.
    pub timestep: u64,
    /// True when the timestep loop ended at `timestep` (last configured
    /// timestep, or a `WhileActive` stop vote). A restore from such a
    /// snapshot skips straight to the merge phase — without this flag a
    /// vote-terminated job that crashed during merge would wrongly resume
    /// at `timestep + 1`.
    pub loop_done: bool,
    /// Per-subgraph state, in the worker's subgraph order.
    pub subgraphs: Vec<(SubgraphId, SubgraphCheckpoint<M>)>,
    /// Timestep metrics accumulated so far (`timestep + 1` entries).
    pub metrics: Vec<TimestepMetrics>,
    /// User counters accumulated so far, one sorted name→value row per
    /// timestep.
    pub counters: Vec<Vec<(String, u64)>>,
    /// Values emitted so far.
    pub emits: Vec<Emit>,
}

/// `next_seq`, `merge_seq`, then the state blob and both inboxes — the
/// byte order predates the field order; `golden_checkpoint_file` pins it.
impl<M: WireMsg> WireMsg for SubgraphCheckpoint<M> {
    fn encode(&self, buf: &mut BytesMut) {
        self.next_seq.encode(buf);
        self.merge_seq.encode(buf);
        self.state.encode(buf);
        self.next_inbox.encode(buf);
        self.merge_inbox.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> std::result::Result<Self, WireError> {
        Ok(SubgraphCheckpoint {
            next_seq: u32::decode(buf)?,
            merge_seq: u32::decode(buf)?,
            state: Vec::decode(buf)?,
            next_inbox: Vec::decode(buf)?,
            merge_inbox: Vec::decode(buf)?,
        })
    }
}

impl<M: WireMsg> WorkerCheckpoint<M> {
    /// Serialise into a framed (magic/version/checksum) byte buffer.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        u32::from(self.partition).encode(&mut buf);
        self.timestep.encode(&mut buf);
        self.loop_done.encode(&mut buf);
        self.subgraphs.encode(&mut buf);
        self.metrics.encode(&mut buf);
        self.counters.encode(&mut buf);
        self.emits.encode(&mut buf);
        frame(CHECKPOINT_MAGIC, &buf)
    }

    /// Decode a framed checkpoint file, validating magic, version and
    /// checksum first (typed [`GofsError`](tempograph_gofs::GofsError) on any
    /// corruption). The record decodes in the buffer the file was read
    /// into.
    pub fn decode(data: Bytes) -> Result<Self> {
        decode_framed(CHECKPOINT_MAGIC, data, "checkpoint record", |buf| {
            let partition = u32::decode(buf)?;
            Ok(WorkerCheckpoint {
                partition: u16::try_from(partition).map_err(|_| WireError::OutOfRange {
                    context: "checkpoint partition",
                    value: partition.into(),
                })?,
                timestep: u64::decode(buf)?,
                loop_done: bool::decode(buf)?,
                subgraphs: Vec::decode(buf)?,
                metrics: Vec::decode(buf)?,
                counters: Vec::decode(buf)?,
                emits: Vec::decode(buf)?,
            })
        })
    }

    /// Atomically write this checkpoint to its canonical path under `dir`.
    pub fn write(&self, dir: &Path) -> Result<()> {
        write_atomic(
            checkpoint_path(dir, self.timestep, self.partition),
            &self.encode(),
        )
    }
}

/// The commit record: timesteps whose checkpoints were fully written by
/// every partition, ascending.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Manifest {
    /// Committed timesteps (0-based, ascending, deduplicated).
    pub timesteps: Vec<u64>,
}

impl Manifest {
    fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        self.timesteps.encode(&mut buf);
        frame(MANIFEST_MAGIC, &buf)
    }

    fn decode(data: Bytes) -> Result<Self> {
        decode_framed(MANIFEST_MAGIC, data, "checkpoint manifest", |buf| {
            Ok(Manifest {
                timesteps: Vec::decode(buf)?,
            })
        })
    }
}

/// Read the manifest (typed error on corruption, `Ok(empty)` when absent).
pub fn read_manifest(dir: &Path) -> Result<Manifest> {
    let path = manifest_path(dir);
    if !path.exists() {
        return Ok(Manifest::default());
    }
    Manifest::decode(std::fs::read(path)?.into())
}

/// Append `t` to the manifest (read–modify–write, atomic rename). Called by
/// partition 0 only, after a barrier guarantees all partition files for `t`
/// are in place — this is the single commit point of the protocol.
pub fn commit_manifest(dir: &Path, t: u64) -> Result<()> {
    let mut manifest = read_manifest(dir)?;
    manifest.timesteps.push(t);
    manifest.timesteps.sort_unstable();
    manifest.timesteps.dedup();
    write_atomic(manifest_path(dir), &manifest.encode())
}

/// Newest committed timestep whose checkpoint files all `partitions`
/// workers can actually decode. Walks the manifest newest-first, skipping
/// entries with missing/corrupt/mismatched files; `None` means recovery
/// must restart from scratch.
pub fn latest_valid<M: WireMsg>(dir: &Path, partitions: u16) -> Option<u64> {
    let manifest = read_manifest(dir).ok()?;
    'candidates: for &t in manifest.timesteps.iter().rev() {
        for p in 0..partitions {
            let Ok(data) = std::fs::read(checkpoint_path(dir, t, p)) else {
                continue 'candidates;
            };
            let Ok(ck) = WorkerCheckpoint::<M>::decode(data.into()) else {
                continue 'candidates;
            };
            if ck.partition != p || ck.timestep != t {
                continue 'candidates;
            }
        }
        return Some(t);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BufMut;
    use tempograph_core::VertexIdx;
    use tempograph_gofs::codec::{assert_hex_golden, unframe_owned, FORMAT_VERSION};
    use tempograph_gofs::error::GofsError;

    fn tmp() -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "ckpt-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample(partition: u16, timestep: u64) -> WorkerCheckpoint<(VertexIdx, f64)> {
        let env = |from: u32, seq: u32, v: u32, x: f64| Envelope {
            from: SubgraphId(from),
            to: SubgraphId(from + 1),
            seq,
            payload: (VertexIdx(v), x),
        };
        WorkerCheckpoint {
            partition,
            timestep,
            loop_done: false,
            subgraphs: vec![
                (
                    SubgraphId(3),
                    SubgraphCheckpoint {
                        state: vec![1, 2, 3, 255],
                        next_seq: 17,
                        merge_seq: 2,
                        next_inbox: vec![env(1, 0, 9, 0.5), env(2, 4, 0, -1.0)],
                        merge_inbox: vec![env(3, 1, 7, 42.0)],
                    },
                ),
                (
                    SubgraphId(8),
                    SubgraphCheckpoint {
                        state: Vec::new(),
                        next_seq: 0,
                        merge_seq: 0,
                        next_inbox: Vec::new(),
                        merge_inbox: Vec::new(),
                    },
                ),
            ],
            metrics: vec![TimestepMetrics {
                compute_ns: 5,
                supersteps: 3,
                msgs_remote: 9,
                superstep_compute_ns: vec![2, 2, 1],
                ..Default::default()
            }],
            counters: vec![vec![("settled".into(), 4), ("visited".into(), 11)]],
            emits: vec![Emit {
                timestep: 0,
                vertex: VertexIdx(5),
                value: 2.5,
            }],
        }
    }

    /// Byte golden for a checkpoint file (frame included): two subgraphs,
    /// one with state and both inboxes, two metrics rows, counter rows
    /// and emits.
    #[test]
    fn golden_checkpoint_file() {
        use crate::metrics::sample_metrics;
        let env = |from: u32, seq: u32, payload: u64| Envelope {
            from: SubgraphId(from),
            to: SubgraphId(from + 1),
            seq,
            payload,
        };
        let ck: WorkerCheckpoint<u64> = WorkerCheckpoint {
            partition: 2,
            timestep: 7,
            loop_done: true,
            subgraphs: vec![
                (
                    SubgraphId(4),
                    SubgraphCheckpoint {
                        state: vec![0xde, 0xad, 0xbe, 0xef, 0x01],
                        next_seq: 17,
                        merge_seq: 3,
                        next_inbox: vec![env(1, 0, 0xaabb), env(2, 5, u64::MAX)],
                        merge_inbox: vec![env(6, 1, 42)],
                    },
                ),
                (
                    SubgraphId(11),
                    SubgraphCheckpoint {
                        state: Vec::new(),
                        next_seq: 0,
                        merge_seq: 0,
                        next_inbox: Vec::new(),
                        merge_inbox: Vec::new(),
                    },
                ),
            ],
            metrics: vec![sample_metrics(0), sample_metrics(100)],
            counters: vec![
                vec![("settled".into(), 4), ("visited".into(), 11)],
                Vec::new(),
            ],
            emits: vec![
                Emit {
                    timestep: 1,
                    vertex: VertexIdx(5),
                    value: 2.5,
                },
                Emit {
                    timestep: 8,
                    vertex: VertexIdx(0),
                    value: -1.0,
                },
            ],
        };
        let enc = ck.encode();
        assert_hex_golden(
            &enc,
            include_str!("../testdata/worker_checkpoint.hex"),
            "FORMAT_VERSION",
            FORMAT_VERSION,
        );
        assert_eq!(WorkerCheckpoint::<u64>::decode(enc.clone()).unwrap(), ck);
    }

    #[test]
    fn golden_manifest_file() {
        let m = Manifest {
            timesteps: vec![7, 15, 23],
        };
        let enc = m.encode();
        assert_hex_golden(
            &enc,
            include_str!("../testdata/manifest.hex"),
            "FORMAT_VERSION",
            FORMAT_VERSION,
        );
        assert_eq!(Manifest::decode(enc.clone()).unwrap(), m);
    }

    #[test]
    fn checkpoint_roundtrip() {
        let ck = sample(1, 4);
        let back = WorkerCheckpoint::decode(ck.encode()).unwrap();
        assert_eq!(back, ck);
    }

    /// The trailing emit run decodes into a vector of exactly its count:
    /// a restore neither regrows it nor keeps room it will not use.
    #[test]
    fn a_restored_emit_run_is_sized_to_its_count() {
        let mut ck = sample(1, 4);
        ck.emits = (0..600)
            .map(|i| Emit {
                timestep: i / 100,
                vertex: VertexIdx(i as u32 % 100),
                value: i as f64 * 0.5,
            })
            .collect();
        let back = WorkerCheckpoint::decode(ck.encode()).unwrap();
        assert_eq!(back, ck);
        assert_eq!(back.emits.capacity(), 600);
    }

    #[test]
    fn corruption_yields_typed_errors() {
        type Ck = WorkerCheckpoint<(VertexIdx, f64)>;
        let data = sample(0, 0).encode();
        // Bit-flip in the payload → checksum mismatch.
        let mut evil = data.to_vec();
        evil[20] ^= 0x40;
        assert!(matches!(
            Ck::decode(evil.into()),
            Err(GofsError::ChecksumMismatch { .. })
        ));
        // Truncation → corrupt frame.
        assert!(Ck::decode(data.slice(..data.len() - 5)).is_err());
        // Version bump (bytes 4..6 of the frame) → typed version error.
        let mut stale = data.to_vec();
        stale[4] = 0xFF;
        assert!(matches!(
            Ck::decode(stale.into()),
            Err(GofsError::UnsupportedVersion(_))
        ));
        // Wrong magic.
        let mut alien = data.to_vec();
        alien[0] = b'X';
        assert!(matches!(
            Ck::decode(alien.into()),
            Err(GofsError::BadMagic { .. })
        ));
    }

    /// `sample`'s payload with `edit` applied, re-framed so magic, version
    /// and checksum are all valid again.
    fn reframed(
        ck: &WorkerCheckpoint<(VertexIdx, f64)>,
        edit: impl FnOnce(&mut BytesMut),
    ) -> Bytes {
        let mut payload = BytesMut::from(
            unframe_owned(CHECKPOINT_MAGIC, ck.encode())
                .unwrap()
                .to_vec(),
        );
        edit(&mut payload);
        frame(CHECKPOINT_MAGIC, &payload)
    }

    #[test]
    fn checkpoint_decode_rejects_trailing_bytes() {
        type Ck = WorkerCheckpoint<(VertexIdx, f64)>;
        let ck = sample(0, 3);
        assert_eq!(Ck::decode(reframed(&ck, |_| {})).unwrap(), ck);
        let longer = reframed(&ck, |p| p.put_u8(0));
        assert!(
            matches!(Ck::decode(longer.clone()), Err(GofsError::Corrupt(ref d)) if d.contains("trailing")),
            "{:?}",
            Ck::decode(longer.clone())
        );
    }

    #[test]
    fn checkpoint_decode_rejects_a_partition_past_u16() {
        type M = (VertexIdx, f64);
        let ck = sample(0, 0);
        // Partition 65 536 would read back as 0 if narrowed unchecked.
        let alias = reframed(&ck, |p| p[..4].copy_from_slice(&65_536u32.to_le_bytes()));
        assert!(matches!(
            WorkerCheckpoint::<M>::decode(alias.clone()),
            Err(GofsError::Corrupt(_))
        ));
        // So `latest_valid` cannot take it for partition 0's file.
        let dir = tmp();
        write_atomic(checkpoint_path(&dir, 0, 0), &alias).unwrap();
        commit_manifest(&dir, 0).unwrap();
        assert_eq!(latest_valid::<M>(&dir, 1), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_commit_is_sorted_and_deduplicated() {
        let dir = tmp();
        assert_eq!(read_manifest(&dir).unwrap(), Manifest::default());
        commit_manifest(&dir, 5).unwrap();
        commit_manifest(&dir, 1).unwrap();
        commit_manifest(&dir, 5).unwrap();
        assert_eq!(read_manifest(&dir).unwrap().timesteps, vec![1, 5]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn latest_valid_falls_back_past_corrupt_entries() {
        type M = (VertexIdx, f64);
        let dir = tmp();
        let k = 2u16;
        for t in [1u64, 3] {
            for p in 0..k {
                sample(p, t).write(&dir).unwrap();
            }
            commit_manifest(&dir, t).unwrap();
        }
        assert_eq!(latest_valid::<M>(&dir, k), Some(3));

        // Corrupt one partition's newest file → fall back to t=1.
        let victim = checkpoint_path(&dir, 3, 1);
        let mut data = std::fs::read(&victim).unwrap();
        let n = data.len();
        data[n / 2] ^= 0x01;
        std::fs::write(&victim, &data).unwrap();
        assert_eq!(latest_valid::<M>(&dir, k), Some(1));

        // Delete a t=1 file too → nothing valid remains.
        std::fs::remove_file(checkpoint_path(&dir, 1, 0)).unwrap();
        assert_eq!(latest_valid::<M>(&dir, k), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn latest_valid_rejects_header_mismatch() {
        type M = (VertexIdx, f64);
        let dir = tmp();
        // A file whose embedded partition id disagrees with its path.
        let ck = sample(1, 0);
        write_atomic(checkpoint_path(&dir, 0, 0), &ck.encode()).unwrap();
        write_atomic(checkpoint_path(&dir, 0, 1), &ck.encode()).unwrap();
        commit_manifest(&dir, 0).unwrap();
        assert_eq!(latest_valid::<M>(&dir, 2), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
