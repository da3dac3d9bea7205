//! Fixture executor: superstep-loop roots whose violations all live one
//! or more call hops away — the cases the per-file pass cannot see.

use tempograph_util::step as advance;

pub struct Worker<P: Provider> {
    provider: P,
    sink: TraceSink,
}

/// Trait the worker fetches instances through; the concrete impl lives in
/// the util crate and is never named here (dispatch-expansion case).
pub trait Provider {
    fn fetch(&mut self, t: usize) -> u64;
}

impl<P: Provider> Worker<P> {
    fn run_timestep_loop(&mut self) {
        // Use-alias case: `advance` is really `tempograph_util::step`,
        // which panics two hops down.
        advance(1);
        // Trait-dispatch case: resolves through the bodyless `Provider`
        // declaration to `DiskProvider::fetch` and its `.expect(…)`.
        let _v = self.provider.fetch(0);
        // H01 case: unguarded allocation in the trace crate.
        self.sink.record(7);
        self.sink.record_guarded(8);
        // cfg(test)-masked callee: must resolve to nothing.
        debug_probe();
        // Two-hop D02 case via a same-file helper.
        stamp();
    }
}

fn stamp() {
    tempograph_util::wall_clock();
}

#[cfg(test)]
fn debug_probe() {
    panic!("test-only helper");
}
