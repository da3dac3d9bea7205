//! Examples are read for uses only.

fn main() {
    fixture_core::example_only();
    fixture_core::friendly();
}
