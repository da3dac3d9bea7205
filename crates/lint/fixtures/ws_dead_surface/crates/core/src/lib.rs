#![forbid(unsafe_code)]
//! Fixture library for rule U01: one public fn per case, named for it.
//! Only `never_called`, `test_only_call` and `reexported` are dead.

mod inner;
mod user;

pub use inner::reexported;
/// Renamed on re-export; the example calls it by the new name.
pub use inner::renamed_on_export as friendly;

/// Nothing names it.
pub fn never_called() {}

/// Only a `#[cfg(test)]` module and `tests/` call it.
pub fn test_only_call() {}

/// Only the benchmark (`perfbench/src`) calls it.
pub fn perf_only() {}

/// Only an example calls it.
pub fn example_only() {}

/// Reached only through the trait: its methods are exempt.
pub trait Job {
    fn run(&self);
    fn describe(&self) -> u32 {
        0
    }
}

pub struct Task;

impl Job for Task {
    fn run(&self) {}
}

/// Only a `macro_rules!` body calls it.
pub fn macro_only() -> u32 {
    7
}

macro_rules! seven {
    () => {
        $crate::macro_only()
    };
}

/// Only a `use … as` alias calls it (see `user.rs`).
pub fn aliased() {}

/// Called only below a `#[cfg(test)]` struct field.
pub fn below_field() -> u32 {
    9
}

fn build() -> Loader {
    Loader {
        #[cfg(test)]
        probe: 0,
        live: 1,
    }
}

fn tail() -> u32 {
    build().live + below_field()
}

pub struct Loader {
    #[cfg(test)]
    probe: u32,
    live: u32,
}

#[cfg(test)]
mod tests {
    #[test]
    fn calls_it() {
        super::test_only_call();
    }
}
