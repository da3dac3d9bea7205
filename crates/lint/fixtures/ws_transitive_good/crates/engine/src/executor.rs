//! Fixture executor: the same shape as `ws_transitive_bad` with every
//! hot-path callee clean — typed errors and guarded instrumentation.

pub struct Worker {
    sink: TraceSink,
}

impl Worker {
    fn run_timestep_loop(&mut self) -> Result<(), String> {
        let v = tempograph_util::step(1)?;
        self.sink.record(v);
        Ok(())
    }
}
