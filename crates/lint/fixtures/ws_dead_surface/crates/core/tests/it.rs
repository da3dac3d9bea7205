//! Integration tests are not non-test code.

#[test]
fn calls_it() {
    fixture_core::test_only_call();
}
