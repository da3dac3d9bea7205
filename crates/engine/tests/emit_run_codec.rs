//! The emit-run codec: a `Vec<Emit>` on the wire (a worker's Output frame,
//! a checkpoint) is a `u32` count and one block of 20-byte records. It
//! round-trips bit for bit, every damaged run is a typed `WireError`, and a
//! count the bytes cannot back sizes no allocation past those bytes.

use bytes::{BufMut, Bytes, BytesMut};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tempograph_core::VertexIdx;
use tempograph_engine::{Emit, WireError, WireMsg};

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

// ---- data ----------------------------------------------------------------

/// A sorted run over every awkward value: both zeros, NaNs of either sign,
/// infinities, subnormals, duplicates, and timesteps and vertices past 32
/// bits' worth of room in memory.
fn sample_run() -> Vec<Emit> {
    let values = [
        -f64::NAN,
        f64::NEG_INFINITY,
        -2.5,
        -0.0,
        0.0,
        f64::MIN_POSITIVE / 2.0,
        1.5,
        1.5,
        f64::INFINITY,
        f64::NAN,
    ];
    let mut run = Vec::new();
    for (t, vertex) in [(0usize, 0u32), (0, 7), (3, u32::MAX), (1 << 40, 2)] {
        for &value in &values {
            run.push(Emit {
                timestep: t,
                vertex: VertexIdx(vertex),
                value,
            });
        }
    }
    run
}

fn bits(run: &[Emit]) -> Vec<(usize, u32, u64)> {
    run.iter()
        .map(|e| (e.timestep, e.vertex.0, e.value.to_bits()))
        .collect()
}

fn encoded(run: &Vec<Emit>) -> Bytes {
    let mut buf = BytesMut::new();
    run.encode(&mut buf);
    buf.freeze()
}

// ---- tests ---------------------------------------------------------------

/// A run round-trips bit for bit, and its bytes are the count followed by
/// each emit's own encoding in turn.
#[test]
fn an_encoded_run_roundtrips() {
    let run = sample_run();
    let enc = encoded(&run);
    assert_eq!(enc.len(), 4 + 20 * run.len());
    let mut one_by_one = BytesMut::new();
    one_by_one.put_u32_le(run.len() as u32);
    for e in &run {
        e.encode(&mut one_by_one);
    }
    assert_eq!(&enc[..], &one_by_one[..]);
    let mut rest = enc.clone();
    let back = Vec::<Emit>::decode(&mut rest).unwrap();
    assert!(rest.is_empty(), "the run must consume exactly its bytes");
    assert_eq!(bits(&back), bits(&run));
    assert_eq!(back.capacity(), run.len());

    let empty = encoded(&Vec::new());
    assert_eq!(&empty[..], &[0, 0, 0, 0]);
    assert!(Vec::<Emit>::decode(&mut empty.clone()).unwrap().is_empty());
}

/// Every cut of an encoded run, through the count or any record, is a
/// typed wire error and never a panic.
#[test]
fn every_truncation_is_a_typed_error() {
    let enc = encoded(&sample_run());
    for cut in 0..enc.len() {
        assert!(
            matches!(
                Vec::<Emit>::decode(&mut enc.slice(..cut)),
                Err(WireError::Eof { .. })
            ),
            "truncation at {cut} of {} must be a wire error",
            enc.len()
        );
    }
}

/// A count larger than the records present is refused as a whole before
/// anything is reserved, however large the count.
#[test]
fn a_count_past_the_bytes_reserves_nothing_for_it() {
    let records = &encoded(&sample_run())[4..];
    for count in [41u32, 1000, 1 << 20, u32::MAX] {
        let mut lying = BytesMut::new();
        lying.put_u32_le(count);
        lying.put_slice(records);
        let lying = lying.freeze();
        let (decoded, largest) = largest_alloc(|| Vec::<Emit>::decode(&mut lying.clone()));
        assert!(
            matches!(
                decoded,
                Err(WireError::Eof { remaining, .. }) if remaining == records.len()
            ),
            "count {count} over {} bytes must be an Eof",
            records.len()
        );
        assert!(
            largest <= records.len(),
            "a {largest}-byte allocation for a count of {count} over {} bytes",
            records.len()
        );
    }
}
