//! Program state on a checkpoint's path: for every stateful program,
//! save → restore → save is byte-identical, and a blob with a raised count
//! or cut short is a typed `WireError` whose handling sizes no allocation
//! past the blob's own bytes.
//!
//! The blobs are built here from the layouts each program documents (the
//! in-module tests pin the bytes `save_state` writes), so this file is a
//! second statement of those layouts.

use bytes::{BufMut, Bytes, BytesMut};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use tempograph_algos::{CommunityEvolution, MemeTracking, Sssp, Tdsp, TemporalReachability, Wcc};
use tempograph_core::wire::{decode_exact, WireError, WireMsg};
use tempograph_core::VertexIdx;
use tempograph_engine::SubgraphProgram;
use tempograph_gen::{road_network, RoadNetConfig};
use tempograph_partition::{discover_subgraphs, PartitionedGraph, Partitioning, Subgraph};

// ---- the largest single allocation a thread asks for ---------------------

struct MaxAlloc;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|m| m.set(m.get().max(size)));
}

// SAFETY: defers every call to `System` unchanged; `note` only writes a
// const-initialised thread-local `Cell` and allocates nothing.
unsafe impl GlobalAlloc for MaxAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: MaxAlloc = MaxAlloc;

/// The largest single allocation `f` makes on this thread.
fn largest_alloc<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|m| m.set(0));
    let out = f();
    (out, LARGEST.with(|m| m.get()))
}

// ---- fixture and layouts -------------------------------------------------

/// A 6×6 road mesh cut three ways by vertex id, so subgraphs are small
/// and many have remote edges (TDSP's closed flags).
fn fixture() -> PartitionedGraph {
    let t = Arc::new(road_network(&RoadNetConfig {
        width: 6,
        height: 6,
        seed: 5,
        ..Default::default()
    }));
    let assignment = (0..t.num_vertices()).map(|v| (v % 3) as u16).collect();
    discover_subgraphs(t, Partitioning { assignment, k: 3 })
}

fn encoded(parts: &[&dyn Fn(&mut BytesMut)]) -> Bytes {
    let mut buf = BytesMut::new();
    for part in parts {
        part(&mut buf);
    }
    buf.freeze()
}

/// A value TDSP or SSSP may hold: a label or ∞.
fn label(rng: &mut StdRng) -> f64 {
    if rng.gen_bool(0.3) {
        f64::INFINITY
    } else {
        rng.gen_range(0.0..1e6)
    }
}

fn positions(sg: &Subgraph, rng: &mut StdRng) -> Vec<u32> {
    let n = sg.num_vertices() as u32;
    (0..rng.gen_range(0..4usize))
        .map(|_| rng.gen_range(0..n))
        .collect()
}

/// A random valid state blob for a subgraph.
type Blob = fn(&Subgraph, &mut StdRng) -> Bytes;

fn meme_blob(sg: &Subgraph, rng: &mut StdRng) -> Bytes {
    let colored: Vec<bool> = (0..sg.num_vertices()).map(|_| rng.gen()).collect();
    let newly = positions(sg, rng);
    encoded(&[&|b| colored.encode(b), &|b| newly.encode(b)])
}

fn sssp_blob(sg: &Subgraph, rng: &mut StdRng) -> Bytes {
    let labels: Vec<f64> = (0..sg.num_vertices()).map(|_| label(rng)).collect();
    let roots = positions(sg, rng);
    encoded(&[&|b| labels.encode(b), &|b| roots.encode(b)])
}

fn wcc_blob(_: &Subgraph, rng: &mut StdRng) -> Bytes {
    let state: (u64, bool) = (rng.gen(), rng.gen());
    encoded(&[&|b| state.encode(b)])
}

/// The TDSP values, then one bit per remote adjacency entry, eight to a
/// byte, low bit first.
fn tdsp_blob(sg: &Subgraph, rng: &mut StdRng) -> Bytes {
    let values: Vec<f64> = (0..sg.num_vertices()).map(|_| label(rng)).collect();
    let closed: Vec<bool> = (0..sg.num_remote_edges()).map(|_| rng.gen()).collect();
    let packed: Vec<u8> = closed
        .chunks(8)
        .map(|bits| (0..bits.len()).fold(0, |b, i| b | (bits[i] as u8) << i))
        .collect();
    encoded(&[&|b| values.encode(b), &|b| b.put_slice(&packed)])
}

fn reach_blob(sg: &Subgraph, rng: &mut StdRng) -> Bytes {
    let reached: Vec<bool> = (0..sg.num_vertices()).map(|_| rng.gen()).collect();
    encoded(&[&|b| reached.encode(b)])
}

fn community_blob(sg: &Subgraph, rng: &mut StdRng) -> Bytes {
    let prev: Vec<u64> = (0..sg.num_vertices())
        .map(|_| {
            if rng.gen() {
                u64::MAX
            } else {
                rng.gen_range(0..40u64)
            }
        })
        .collect();
    let series: Vec<u64> = (0..rng.gen_range(0..5usize)).map(|_| rng.gen()).collect();
    encoded(&[&|b| prev.encode(b), &|b| series.encode(b)])
}

fn saved(p: &impl SubgraphProgram) -> Bytes {
    let mut buf = BytesMut::new();
    p.save_state(&mut buf);
    buf.freeze()
}

/// Restore as the engine does: the whole blob, no byte left over.
fn restore(p: &mut impl SubgraphProgram, blob: Bytes) -> Result<(), WireError> {
    decode_exact(blob, "program state", |b| p.restore_state(b))
}

/// Run `check` over every subgraph for each of the six stateful
/// programs, handing it a fresh-program maker and a valid blob.
fn for_each_program(
    pg: &PartitionedGraph,
    rng: &mut StdRng,
    mut check: impl FnMut(&str, &dyn Fn() -> Box<dyn Restorable>, Bytes),
) {
    macro_rules! each {
        ($name:expr, $factory:expr, $blob:expr) => {{
            let factory = $factory;
            let blob: Blob = $blob;
            for sg in pg.subgraphs() {
                let fresh = || Box::new(factory(sg, pg)) as Box<dyn Restorable>;
                check($name, &fresh, blob(sg, rng));
            }
        }};
    }
    each!("meme", MemeTracking::factory("#m", 0), meme_blob);
    each!("sssp", Sssp::factory(VertexIdx(0), Some(0)), sssp_blob);
    each!("wcc", Wcc::factory(), wcc_blob);
    each!("tdsp", Tdsp::factory(VertexIdx(0), 0), tdsp_blob);
    each!(
        "reach",
        TemporalReachability::factory(VertexIdx(0), 0),
        reach_blob
    );
    each!("community", CommunityEvolution::factory(0), community_blob);
}

/// The two state hooks, object-safe, so one loop covers every program.
trait Restorable {
    fn save(&self) -> Bytes;
    fn restore(&mut self, blob: Bytes) -> Result<(), WireError>;
}

impl<P: SubgraphProgram> Restorable for P {
    fn save(&self) -> Bytes {
        saved(self)
    }
    fn restore(&mut self, blob: Bytes) -> Result<(), WireError> {
        restore(self, blob)
    }
}

// ---- tests ---------------------------------------------------------------

proptest! {
    /// Any valid state survives a save → restore → save byte for byte,
    /// and the layout is the one this file builds.
    #[test]
    fn save_restore_save_is_byte_identical(seed in any::<u64>()) {
        let pg = fixture();
        let mut rng = StdRng::seed_from_u64(seed);
        for_each_program(&pg, &mut rng, |name, fresh, blob| {
            let mut p = fresh();
            p.restore(blob.clone()).unwrap_or_else(|e| panic!("{name}: {e}"));
            let first = p.save();
            assert_eq!(first, blob, "{name}: the saved state is the restored one");
            let mut q = fresh();
            q.restore(first.clone()).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(q.save(), first, "{name}: save → restore → save");
        });
    }
}

/// A first count other than the subgraph's size is refused, however
/// large; every cut of a blob is refused; neither costs an allocation
/// larger than the blob.
#[test]
fn a_raised_count_or_a_cut_blob_is_a_typed_error_sized_by_the_blob() {
    let pg = fixture();
    let mut rng = StdRng::seed_from_u64(7);
    let mut raised = 0;
    for_each_program(&pg, &mut rng, |name, fresh, blob| {
        let mut damaged = Vec::new();
        if name != "wcc" {
            let n = u32::from_le_bytes(blob[..4].try_into().unwrap());
            for count in [n + 1, n.wrapping_sub(1), u32::MAX] {
                let mut b = blob.to_vec();
                b[..4].copy_from_slice(&count.to_le_bytes());
                damaged.push(Bytes::from(b));
                raised += 1;
            }
        }
        damaged.extend((0..blob.len()).map(|cut| blob.slice(..cut)));
        for bad in damaged {
            let mut p = fresh();
            let (refused, largest) = largest_alloc(|| p.restore(bad.clone()));
            assert!(
                refused.is_err(),
                "{name}: a damaged {}-byte blob was accepted",
                bad.len()
            );
            assert!(
                largest <= blob.len(),
                "{name}: a {largest}-byte allocation restoring {} of {} bytes",
                bad.len(),
                blob.len()
            );
        }
    });
    assert!(raised > 0);
}
