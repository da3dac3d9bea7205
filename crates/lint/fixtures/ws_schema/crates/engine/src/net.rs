//! Fixture wire structs for the W02 schema-lock tests. Mirrors the real
//! frame family's shape: a versioned enum with explicit discriminants and
//! the structs the golden under `schemas/` locks, some of them declared in
//! other crates' files.

pub const FRAME_VERSION: u32 = 1;

pub enum FrameKind {
    Hello = 1,
    Data = 2,
}

pub struct Frame {
    pub kind: FrameKind,
    pub seq: u64,
    pub payload: Vec<u8>,
}

pub struct HelloMsg {
    pub partition: u16,
}

pub struct StartMsg {
    pub epoch: u32,
}

pub struct AbortMsg {
    pub detail: String,
}

pub struct TelemetryMsg {
    pub timestep: u32,
    pub clock_ns: u64,
}

pub struct WorkerStatusWire {
    pub partition: u16,
    pub epoch: u32,
}

pub struct StatusReplyMsg {
    pub workers: Vec<WorkerStatusWire>,
}
