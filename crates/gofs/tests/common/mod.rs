//! Slice files taken apart and put back together with valid checksums,
//! for the suites that damage what lies behind them.
//!
//! A slice file is a head frame (header, column directory, chunk
//! checksums) and its block region. [`unseal`] lays one out as a single
//! run — the head without its chunk table, then the blocks — which a test
//! warps like any buffer; [`seal`] frames the run's head again with a
//! chunk table computed from whatever its directory now says, so the
//! decoder's structural checks, not its checksums, meet the damage.

use bytes::Bytes;
use tempograph_gofs::codec::{fnv1a64_lanes, frame, unframe_owned};
use tempograph_gofs::slice::{SliceFile, CHUNK_LEN};

/// The slice magic.
pub const MAGIC: [u8; 4] = *b"GFSL";

/// The header's `u32` at `at` (0 where the run is too short for it).
fn word(run: &[u8], at: usize) -> usize {
    let bytes = run.get(at..at + 4).and_then(|b| b.first_chunk::<4>());
    bytes.map_or(0, |b| u32::from_le_bytes(*b) as usize)
}

/// Where the column directory starts: past the header's fixed fields,
/// the subgraph ids, the timestamps and the two column counts.
pub fn dir_at(run: &[u8]) -> usize {
    22 + 4 * word(run, 18) + 8 * word(run, 14) + 8
}

/// Where the directory ends: the chunk table in a head, the blocks in a
/// run.
pub fn table_at(run: &[u8]) -> usize {
    dir_at(run) + 8 * (word(run, 18) * word(run, 14) + 1)
}

/// `file` as one run: its head payload without the chunk table, then its
/// blocks.
pub fn unseal(file: SliceFile) -> Vec<u8> {
    let head = unframe_owned(MAGIC, file.head).unwrap();
    [&head[..table_at(&head)], &file.blocks[..]].concat()
}

/// A run as a slice file again, its chunk table computed afresh from its
/// directory (a block the directory places outside the run is cut to it).
pub fn seal(run: &[u8]) -> Bytes {
    let (head, blocks) = run.split_at(table_at(run).min(run.len()));
    let dir = head
        .get(dir_at(run)..)
        .unwrap_or_default()
        .as_chunks::<8>()
        .0;
    let offsets: Vec<usize> = dir
        .iter()
        .map(|w| u64::from_le_bytes(*w) as usize)
        .collect();
    let mut head = head.to_vec();
    for w in offsets.windows(2) {
        let start = w[0].min(blocks.len());
        let block = &blocks[start..w[1].clamp(start, blocks.len())];
        for chunk in block.chunks(CHUNK_LEN) {
            head.extend_from_slice(&fnv1a64_lanes(chunk).to_le_bytes());
        }
    }
    [&frame(MAGIC, &head)[..], blocks].concat().into()
}
