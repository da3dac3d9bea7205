//! The benchmark is read for uses only.

fn main() {
    fixture_core::perf_only();
}
