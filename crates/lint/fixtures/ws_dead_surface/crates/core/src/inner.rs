//! Items `lib.rs` re-exports; a `pub use` is not a use.

/// Re-exported and called by nobody.
pub fn reexported() {}

/// Re-exported as `friendly`, which an example calls.
pub fn renamed_on_export() {}
