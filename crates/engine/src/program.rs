//! The TI-BSP user programming surface (paper §II.D "User Logic").
//!
//! A [`SubgraphProgram`] is instantiated once per subgraph and lives for the
//! whole TI-BSP application — its fields are the subgraph's persistent state
//! across supersteps *and* timesteps (e.g. TDSP's frontier set `F`, MEME's
//! coloured set `C*`). The engine invokes:
//!
//! * [`SubgraphProgram::compute`] — every superstep of every timestep the
//!   subgraph is active, mirroring `Compute(Subgraph, timestep, superstep,
//!   Message[])`;
//! * [`SubgraphProgram::end_of_timestep`] — once per timestep after the BSP
//!   converges, mirroring `EndOfTimestep(Subgraph, timestep)`, unless the
//!   subgraph sleeps (see [`Context::vote_to_halt`]);
//! * [`SubgraphProgram::merge`] — the eventually-dependent pattern's
//!   post-timesteps Merge BSP, mirroring `Merge(SubgraphTemplate, superstep,
//!   Message[])`.
//!
//! All messaging and voting goes through the [`Context`], which exposes the
//! paper's primitives: `SendToSubgraph`, `SendToNextTimestep`,
//! `SendToSubgraphInNextTimestep`, `SendMessageToMerge`, `VoteToHalt`,
//! `VoteToHaltTimestep`.

use crate::wire::Envelope;
use std::sync::Arc;
use tempograph_core::wire::{WireError, WireMsg};
use tempograph_core::VertexIdx;
use tempograph_gofs::SubgraphInstance;
use tempograph_partition::{PartitionedGraph, Subgraph, SubgraphId};

/// Which engine phase a [`Context`] belongs to.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Inside `Compute` during a timestep's BSP.
    Compute,
    /// Inside `EndOfTimestep`.
    EndOfTimestep,
    /// Inside the Merge BSP (no instance data available).
    Merge,
}

/// Message buffers and votes collected from one program invocation.
#[derive(Debug)]
pub(crate) struct Outbox<M> {
    pub superstep_msgs: Vec<Envelope<M>>,
    pub next_timestep_msgs: Vec<Envelope<M>>,
    pub merge_msgs: Vec<Envelope<M>>,
    pub voted_halt: bool,
    pub voted_halt_timestep: bool,
    pub counters: Vec<(&'static str, u64)>,
    pub emits: Vec<(VertexIdx, f64)>,
    /// Next sequence number for superstep/next-timestep sends. Seeded from
    /// the worker's persistent per-subgraph counter and written back after
    /// every invocation, so `(from, seq)` is unique for the whole job — a
    /// prerequisite for the unstable sort / k-way merge on the receive path.
    pub seq: u32,
    pub merge_seq: u32,
    /// False only inside `EndOfTimestep`, which runs after the timestep's
    /// BSP has converged: there is no next superstep to deliver to.
    pub allow_superstep_msgs: bool,
    /// False for independent/eventually-dependent patterns, which must not
    /// couple timesteps.
    pub allow_next_timestep_msgs: bool,
}

impl<M> Outbox<M> {
    pub(crate) fn new(allow_superstep: bool, allow_next: bool, merge_seq: u32, seq: u32) -> Self {
        Outbox {
            superstep_msgs: Vec::new(),
            next_timestep_msgs: Vec::new(),
            merge_msgs: Vec::new(),
            voted_halt: false,
            voted_halt_timestep: false,
            counters: Vec::new(),
            emits: Vec::new(),
            seq,
            merge_seq,
            allow_superstep_msgs: allow_superstep,
            allow_next_timestep_msgs: allow_next,
        }
    }
}

/// Execution context handed to every program invocation. Provides the
/// paper's messaging/termination primitives plus read access to the
/// subgraph topology and (lazily loaded) instance data.
pub struct Context<'a, M: WireMsg> {
    pub(crate) sg: &'a Subgraph,
    pub(crate) pg: &'a PartitionedGraph,
    pub(crate) phase: Phase,
    pub(crate) timestep: usize,
    pub(crate) superstep: usize,
    pub(crate) num_timesteps: usize,
    pub(crate) start_time: i64,
    pub(crate) period: i64,
    pub(crate) instance: Option<Arc<SubgraphInstance>>,
    pub(crate) fetch: &'a mut dyn FnMut(&Subgraph, usize) -> Arc<SubgraphInstance>,
    pub(crate) out: &'a mut Outbox<M>,
}

impl<'a, M: WireMsg> Context<'a, M> {
    /// The subgraph this invocation operates on.
    pub fn subgraph(&self) -> &Subgraph {
        self.sg
    }

    /// The whole partitioned view (topology of all subgraphs).
    pub fn partitioned_graph(&self) -> &PartitionedGraph {
        self.pg
    }

    /// Current phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Timestep index (graph instance index relative to the first).
    pub fn timestep(&self) -> usize {
        self.timestep
    }

    /// Superstep number inside the current BSP (0-based; 0 means "start of
    /// a timestep" — messages at superstep 0 of a sequentially dependent
    /// timestep arrived from the previous instance).
    pub fn superstep(&self) -> usize {
        self.superstep
    }

    /// Number of timesteps the job will run (the configured range).
    pub fn num_timesteps(&self) -> usize {
        self.num_timesteps
    }

    /// `t0` of the series.
    pub fn start_time(&self) -> i64 {
        self.start_time
    }

    /// `δ`: the period between instances (TDSP's idling quantum).
    pub fn period(&self) -> i64 {
        self.period
    }

    /// This timestep's instance data, loaded lazily on first access —
    /// subgraphs that never touch their instance (e.g. an inactive TDSP
    /// region) cause no disk I/O, reproducing GoFS's delayed loading.
    ///
    /// # Panics
    /// Panics when called during [`Phase::Merge`] (merge operates on the
    /// subgraph *template*; there is no instance).
    pub fn instance(&mut self) -> Arc<SubgraphInstance> {
        assert!(
            self.phase != Phase::Merge,
            "Merge has no instance data (it operates on the subgraph template)"
        );
        if self.instance.is_none() {
            self.instance = Some((self.fetch)(self.sg, self.timestep));
        }
        self.instance.as_ref().expect("just set").clone()
    }

    /// Send a message to another subgraph, delivered next superstep
    /// (`SendToSubgraph`). During Merge this messages the subgraph's next
    /// merge superstep.
    pub fn send_to_subgraph(&mut self, to: SubgraphId, msg: M) {
        assert!(
            self.out.allow_superstep_msgs,
            "superstep messaging is unavailable in EndOfTimestep: it may only send \
             cross-timestep/merge messages"
        );
        let seq = self.out.seq;
        self.out.seq += 1;
        self.out.superstep_msgs.push(Envelope {
            from: self.sg.id(),
            to,
            seq,
            payload: msg,
        });
    }

    /// Pass a message to the *same* subgraph at the start of the next
    /// timestep (`SendToNextTimestep`) — the temporal edge of §II.B.
    pub fn send_to_next_timestep(&mut self, msg: M) {
        self.send_to_subgraph_in_next_timestep(self.sg.id(), msg);
    }

    /// Message an arbitrary subgraph in the next timestep
    /// (`SendToSubgraphInNextTimestep`): across space *and* time.
    pub fn send_to_subgraph_in_next_timestep(&mut self, to: SubgraphId, msg: M) {
        assert!(
            self.out.allow_next_timestep_msgs,
            "cross-timestep messages require the sequentially-dependent pattern"
        );
        assert!(
            self.phase != Phase::Merge,
            "no next timestep exists during Merge"
        );
        let seq = self.out.seq;
        self.out.seq += 1;
        self.out.next_timestep_msgs.push(Envelope {
            from: self.sg.id(),
            to,
            seq,
            payload: msg,
        });
    }

    /// Queue a message for this subgraph's `Merge` invocation
    /// (`SendMessageToMerge`), available after all timesteps complete.
    pub fn send_to_merge(&mut self, msg: M) {
        assert!(
            self.phase != Phase::Merge,
            "already in Merge; use send_to_subgraph"
        );
        let seq = self.out.merge_seq;
        self.out.merge_seq += 1;
        self.out.merge_msgs.push(Envelope {
            from: self.sg.id(),
            to: self.sg.id(),
            seq,
            payload: msg,
        });
    }

    /// Vote to end this BSP (`VoteToHalt`). Inside `compute`, the subgraph
    /// is reactivated by an incoming message or by the start of the next
    /// timestep.
    ///
    /// Inside `end_of_timestep` the vote means "nothing to do until mail
    /// arrives": the subgraph sleeps, and the engine skips it at superstep
    /// 0 and in `end_of_timestep` of the following timesteps until a
    /// superstep or next-timestep message reaches it; running it wakes it.
    /// The program promises that, while no message reaches it, those
    /// skipped calls would change no state, send, emit and count nothing,
    /// and vote as its last `end_of_timestep` did. A sleeper's last
    /// [`Context::vote_to_halt_timestep`] therefore stands for it: a
    /// withheld vote keeps a `WhileActive` loop running, a cast one lets it
    /// stop. The merge phase still runs every subgraph, and recovery wakes
    /// everyone, which the promise makes equivalent.
    pub fn vote_to_halt(&mut self) {
        self.out.voted_halt = true;
    }

    /// Vote to end the whole TI-BSP timestep loop
    /// (`VoteToHaltTimestep`) — honoured in `WhileActive` mode once every
    /// subgraph votes and no cross-timestep messages remain.
    pub fn vote_to_halt_timestep(&mut self) {
        self.out.voted_halt_timestep = true;
    }

    /// Add to a named per-(timestep, partition) counter — e.g. the number
    /// of vertices finalized/coloured this timestep (Fig. 7a/7c).
    pub fn add_counter(&mut self, name: &'static str, delta: u64) {
        self.out.counters.push((name, delta));
    }

    /// Emit a per-vertex result value (e.g. a TDSP arrival time). Collected
    /// into [`crate::JobResult::emitted`].
    pub fn emit(&mut self, vertex: VertexIdx, value: f64) {
        self.out.emits.push((vertex, value));
    }
}

/// The user-implemented TI-BSP program. See module docs.
pub trait SubgraphProgram: Send + 'static {
    /// Message type exchanged between subgraphs and across timesteps.
    type Msg: WireMsg;

    /// Per-superstep computation on one subgraph.
    fn compute(&mut self, ctx: &mut Context<'_, Self::Msg>, msgs: &[Envelope<Self::Msg>]);

    /// Invoked once per timestep after the BSP converges.
    fn end_of_timestep(&mut self, _ctx: &mut Context<'_, Self::Msg>) {}

    /// Merge-phase computation (eventually-dependent pattern only).
    fn merge(&mut self, _ctx: &mut Context<'_, Self::Msg>, _msgs: &[Envelope<Self::Msg>]) {}

    /// Serialise this program's persistent state into `buf` for a
    /// checkpoint, in the workspace codec ([`WireMsg`] encodes). Must
    /// round-trip exactly with [`SubgraphProgram::restore_state`]: after
    /// `restore_state(save_state(p))` the program must behave identically
    /// to `p`. Programs whose fields are pure configuration (rebuilt by the
    /// factory) can keep the empty default; any field *mutated* during the
    /// run must be saved, or recovery will silently diverge — the
    /// recovery-equivalence harness catches this.
    fn save_state(&self, _buf: &mut bytes::BytesMut) {}

    /// Restore persistent state written by [`SubgraphProgram::save_state`]
    /// into a freshly factory-built program, before any compute
    /// invocation. `buf` holds exactly this subgraph's blob. Read it with
    /// the checked reads of `tempograph_core::wire` ([`WireMsg::decode`],
    /// `wire::get_sized_vec` for a vector the factory already sized) and
    /// refuse what does not fit with a [`WireError`]: a length other than
    /// the subgraph's, a blob cut short. The engine refuses bytes left
    /// unread ([`WireError::Trailing`]), which also catches a program that
    /// saves state but keeps this default. A refusal ends the job with a
    /// typed [`crate::EngineError::Checkpoint`] naming the partition and
    /// the subgraph.
    fn restore_state(&mut self, _buf: &mut bytes::Bytes) -> Result<(), WireError> {
        Ok(())
    }
}
