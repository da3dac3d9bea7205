//! Time-Dependent single-source Shortest Path (paper §III.C, Algorithm 2).
//!
//! Discrete-time TDSP: edge latencies change every period δ and a traveller
//! may idle at a vertex until the next period. The algorithm stacks the
//! instances into a 3-D graph with unidirectional *idling edges* between a
//! vertex's copies at `tᵢ` and `tᵢ₊₁` and runs a horizon-bounded SSSP per
//! timestep:
//!
//! * within timestep `i`, a modified Dijkstra explores only arrivals
//!   `≤ (i+1)·δ` (later arrivals are discarded — edge values beyond the
//!   current instance are not yet known);
//! * vertices whose arrival lands within the horizon are **finalized**: the
//!   idling edge makes any later path at least as slow, so the first horizon
//!   a vertex is reached in gives its true TDSP (emitted via
//!   [`Context::emit`]);
//! * at the start of timestep `i+1`, the **frontier** restarts with label
//!   `(i+1)·δ` (it idled through the boundary) and the sweep repeats. The
//!   frontier is the finalized vertices that still have an *open* incident
//!   entry: a local neighbour that is not finalized, or a remote adjacency
//!   entry over which no in-horizon `Relax` has been sent yet.
//!
//! Algorithm 2 restarts from every finalized vertex; restarting from the
//! frontier computes the same labels, bit for bit:
//!
//! 1. a finalized vertex departs at `i·δ`, the smallest label of timestep
//!    `i`, so no path lowers it, and any path that leaves the finalized set
//!    is matched or beaten by the one starting at its last finalized vertex;
//! 2. that vertex has a non-finalized neighbour, so unless it is in the
//!    frontier the neighbour is remote and was sent an in-horizon `Relax` —
//!    which finalized it at the end of that timestep, a contradiction;
//! 3. so only frontier vertices can lower a label, and what the others would
//!    send is dropped by receivers that are finalized already.
//!
//! A subgraph with an empty frontier and an empty inbox never asks for its
//! instance, so a finished region costs no GoFS read (§IV.D). It costs no
//! call either: once `end_of_timestep` leaves the frontier empty, the
//! subgraph votes to halt there and sleeps. Its next superstep-0 `compute`
//! would seed nothing (no frontier vertex, and the source only seeds
//! timestep 0) and its next `end_of_timestep` would finalize nothing, so
//! both are no-ops: no label can drop without a frontier vertex or an
//! incoming `Relax`. A `Relax` wakes it at a superstep > 0, and it then
//! stays awake while its frontier is open.
//!
//! **Termination.** Under `WhileActive`, a subgraph casts
//! `VoteToHaltTimestep` only once all its vertices are finalized; while one
//! is not, its withheld vote keeps the loop running, and a sleeper's last
//! vote stands for it. The loop thus stops after the timestep of the last
//! finalization, or runs to the cap when some vertex is never reached.
//!
//! Labels are measured as elapsed time since departure at `t0`. A
//! relaxation reads the edge's latency in place, at the row its adjacency
//! entry names (the edge's row in [`Subgraph::edges`] and in the projected
//! latency column), so no relaxation looks an edge up.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use tempograph_core::wire::{self, WireError, WireMsg};
use tempograph_core::VertexIdx;
use tempograph_engine::{Combiner, Context, Envelope, SubgraphProgram};
use tempograph_partition::{Subgraph, SubgraphId};

/// TDSP message: a remote relaxation.
#[derive(Clone, Debug, PartialEq)]
pub enum TdspMsg {
    /// "Vertex `v` (in your subgraph) is reachable with arrival `label`."
    Relax(VertexIdx, f64),
}

impl WireMsg for TdspMsg {
    fn encode(&self, buf: &mut bytes::BytesMut) {
        let TdspMsg::Relax(v, label) = self;
        bytes::BufMut::put_u8(buf, 0);
        v.encode(buf);
        label.encode(buf);
    }

    fn decode(buf: &mut bytes::Bytes) -> Result<Self, WireError> {
        // Explicit tags (lint rule W01): adding a variant must extend this
        // match, and an unknown tag is corruption.
        match wire::get_u8(buf, "TdspMsg tag")? {
            0 => Ok(TdspMsg::Relax(VertexIdx::decode(buf)?, f64::decode(buf)?)),
            tag => Err(WireError::BadTag {
                context: "TdspMsg",
                tag,
            }),
        }
    }
}

/// Sender-side min-combiner for TDSP traffic: relaxations of the same
/// vertex collapse to the smallest arrival before serialisation. Min is
/// associative and commutative and the receiver keeps the minimum anyway,
/// so results are byte-identical with or without it.
pub struct TdspCombiner;

impl Combiner<TdspMsg> for TdspCombiner {
    fn key(&self, msg: &TdspMsg) -> Option<u64> {
        let TdspMsg::Relax(v, _) = msg;
        Some(v.0 as u64)
    }

    fn combine(&self, acc: &mut TdspMsg, incoming: TdspMsg) {
        let (TdspMsg::Relax(_, a), TdspMsg::Relax(_, b)) = (acc, incoming);
        if b < *a {
            *a = b;
        }
    }
}

/// The TDSP program; instantiate one per subgraph via [`Tdsp::factory`].
pub struct Tdsp {
    source: VertexIdx,
    latency_col: usize,
    /// Working labels by local position: ∞ until reached; a finalized
    /// vertex outside the frontier keeps a stale one, which is at most the
    /// current departure time and so never wins a comparison.
    label: Vec<f64>,
    /// Final TDSP values by local position; finite ⇔ finalized (the
    /// cumulative set `F` of Algorithm 2).
    tdsp: Vec<f64>,
    /// Finalized positions that may still have an open incident entry
    /// (pruned at superstep 0); the only vertices a timestep restarts from.
    frontier: Vec<u32>,
    /// Positions whose label left ∞ this timestep: what `end_of_timestep`
    /// finalizes.
    reached: Vec<u32>,
    /// Per remote adjacency entry, indexed by
    /// [`Subgraph::remote_range`]: an in-horizon `Relax` went over it, so
    /// its far end is finalized.
    closed: Vec<bool>,
    /// Vertices not yet finalized.
    remaining: usize,
    /// Dijkstra queue; seeded by `compute`, drained by `modified_sssp`.
    heap: BinaryHeap<Reverse<(ordered_f64::F64, u32)>>,
    /// Remote relaxations of the current `modified_sssp` call.
    relaxations: Vec<(SubgraphId, VertexIdx, f64)>,
}

impl Tdsp {
    /// Build a per-subgraph factory for a TDSP from `source`, reading edge
    /// latencies from the `Double` edge attribute at `latency_col` (resolve
    /// with `template.edge_schema().index_of(...)`).
    pub fn factory(
        source: VertexIdx,
        latency_col: usize,
    ) -> impl Fn(&Subgraph, &tempograph_partition::PartitionedGraph) -> Tdsp {
        move |sg, _| {
            let n = sg.num_vertices();
            Tdsp {
                source,
                latency_col,
                label: vec![f64::INFINITY; n],
                tdsp: vec![f64::INFINITY; n],
                frontier: Vec::new(),
                reached: Vec::new(),
                closed: vec![false; sg.num_remote_edges()],
                remaining: n,
                heap: BinaryHeap::new(),
                relaxations: Vec::new(),
            }
        }
    }

    /// Name of the counter tracking vertices finalized per timestep
    /// (the paper's Fig. 7a series).
    pub const FINALIZED: &'static str = "tdsp_finalized";

    /// Whether finalized `pos` can still change anything: see the module
    /// header for why a vertex with no open entry is inert.
    fn has_open_entry(&self, sg: &Subgraph, pos: u32) -> bool {
        sg.local_neighbors(pos)
            .iter()
            .any(|&(v, _)| self.tdsp[v as usize].is_infinite())
            || self.closed[sg.remote_range(pos)].iter().any(|&c| !c)
    }

    /// Lower the working label of a not-yet-finalized `pos` to `arrival` and
    /// queue it, if that is an improvement.
    fn relax(&mut self, pos: u32, arrival: f64) {
        let label = &mut self.label[pos as usize];
        if arrival < *label {
            if label.is_infinite() {
                self.reached.push(pos);
            }
            *label = arrival;
            self.heap.push(Reverse((ordered_f64::F64(arrival), pos)));
        }
    }

    /// Horizon-bounded Dijkstra from the queued vertices; sends the remote
    /// relaxations that land within the horizon, one per target vertex.
    fn modified_sssp(&mut self, ctx: &mut Context<'_, TdspMsg>, horizon: f64) {
        let instance = ctx.instance();
        let sg = ctx.subgraph();
        // Read in place: a timestep pays for the latencies it relaxes, each
        // at the row its adjacency entry names.
        let latencies = instance
            .edge_f64_cells(self.latency_col)
            .expect("latency attribute must be a Double edge column");

        while let Some(Reverse((ordered_f64::F64(d), u))) = self.heap.pop() {
            if d > self.label[u as usize] {
                continue; // stale heap entry
            }
            for &(v, row) in sg.local_neighbors(u) {
                if self.tdsp[v as usize].is_finite() {
                    continue; // finalized: its label is ≤ departure ≤ d
                }
                let arrival = d + latencies.get(row as usize);
                if arrival <= horizon {
                    self.relax(v, arrival);
                }
            }
            // A vertex finalized in an earlier timestep departs at a fixed
            // label and has nothing new for an entry it already used. One
            // reached this timestep may have been lowered since it last
            // sent, and must offer the better arrival again.
            let settled = self.tdsp[u as usize].is_finite();
            for (rn, i) in sg.remote_neighbors(u).iter().zip(sg.remote_range(u)) {
                if settled && self.closed[i] {
                    continue;
                }
                let arrival = d + latencies.get(rn.row as usize);
                if arrival <= horizon {
                    self.closed[i] = true;
                    self.relaxations.push((rn.subgraph, rn.vertex, arrival));
                }
            }
        }

        // Smallest arrival per target vertex, in vertex order.
        self.relaxations
            .sort_unstable_by_key(|r| (r.1, ordered_f64::F64(r.2)));
        self.relaxations.dedup_by_key(|r| r.1);
        for (sgid, v, label) in self.relaxations.drain(..) {
            ctx.send_to_subgraph(sgid, TdspMsg::Relax(v, label));
        }
    }
}

impl SubgraphProgram for Tdsp {
    type Msg = TdspMsg;

    fn compute(&mut self, ctx: &mut Context<'_, TdspMsg>, msgs: &[Envelope<TdspMsg>]) {
        let delta = ctx.period() as f64;
        let t = ctx.timestep();
        let horizon = (t as f64 + 1.0) * delta;

        if ctx.superstep() == 0 {
            // The frontier idles through the boundary and departs at t·δ
            // (Algorithm 2 lines 8–11, restricted to vertices that can
            // still reach something).
            let departure = t as f64 * delta;
            let mut frontier = std::mem::take(&mut self.frontier);
            frontier.retain(|&u| self.has_open_entry(ctx.subgraph(), u));
            for &u in &frontier {
                let label = departure.max(self.tdsp[u as usize]);
                self.label[u as usize] = label;
                self.heap.push(Reverse((ordered_f64::F64(label), u)));
            }
            self.frontier = frontier;
            if t == 0 {
                if let Some(pos) = ctx.subgraph().local_pos(self.source) {
                    self.relax(pos, 0.0);
                }
            }
        } else {
            // Remote relaxations (Algorithm 2 lines 13–18).
            for e in msgs {
                let TdspMsg::Relax(v, label) = e.payload;
                let pos = ctx
                    .subgraph()
                    .local_pos(v)
                    .expect("relaxation targets a member vertex");
                if self.tdsp[pos as usize].is_infinite() {
                    self.relax(pos, label);
                }
            }
        }

        if !self.heap.is_empty() {
            self.modified_sssp(ctx, horizon);
        }
        ctx.vote_to_halt();
    }

    fn end_of_timestep(&mut self, ctx: &mut Context<'_, TdspMsg>) {
        // Finalize vertices reached within this horizon (F_t), emit their
        // TDSP in position order, keep the loop alive while any vertex is
        // unreached, and sleep while nothing can change (module header).
        self.reached.sort_unstable();
        for &pos in &self.reached {
            let label = self.label[pos as usize];
            self.tdsp[pos as usize] = label;
            ctx.emit(ctx.subgraph().vertex_at(pos), label);
        }
        if !self.reached.is_empty() {
            ctx.add_counter(Self::FINALIZED, self.reached.len() as u64);
        }
        self.remaining -= self.reached.len();
        self.frontier.append(&mut self.reached);
        if self.remaining == 0 {
            ctx.vote_to_halt_timestep();
        }
        if self.frontier.is_empty() {
            ctx.vote_to_halt();
        }
    }

    // Checkpoints are cut between timesteps, where every reached vertex is
    // finalized and the queue is empty: `tdsp` and the closed flags are the
    // whole state, and both evolve identically in a clean and a recovered
    // run (the frontier's order does not reach the output).
    fn save_state(&self, buf: &mut bytes::BytesMut) {
        use bytes::BufMut;
        // One allocation, not a doubling chain: the chain's leftovers
        // raised a checkpointing worker's peak memory by 15 %.
        buf.reserve(4 + 8 * self.tdsp.len() + self.closed.len().div_ceil(8));
        self.tdsp.encode(buf);
        for bits in self.closed.chunks(8) {
            buf.put_u8(bits.iter().rev().fold(0, |b, &c| b << 1 | c as u8));
        }
    }

    fn restore_state(&mut self, buf: &mut bytes::Bytes) -> Result<(), WireError> {
        self.tdsp = wire::get_sized_vec(buf, self.tdsp.len(), "tdsp values")?;
        let flags = self.closed.len().div_ceil(8);
        let packed = wire::get_records(buf, flags, 1, "tdsp closed flags")?;
        for (bits, byte) in self.closed.chunks_mut(8).zip(packed.iter()) {
            for (i, c) in bits.iter_mut().enumerate() {
                *c = byte >> i & 1 != 0;
            }
        }
        // A finalized vertex's own TDSP is a valid stale label.
        self.label = self.tdsp.clone();
        self.remaining = self.tdsp.iter().filter(|l| l.is_infinite()).count();
        self.frontier = (0..self.tdsp.len() as u32)
            .filter(|&pos| self.tdsp[pos as usize].is_finite())
            .collect();
        Ok(())
    }
}

/// Total-ordered f64 wrapper for the Dijkstra heaps (shared with SSSP).
pub mod ordered_f64 {
    /// An `f64` with `Ord` via IEEE total ordering (labels are never NaN).
    #[derive(Copy, Clone, PartialEq)]
    pub struct F64(pub f64);

    impl Eq for F64 {}

    impl PartialOrd for F64 {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for F64 {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.0.total_cmp(&other.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    /// The TDSP values behind a `u32` count, then the closed flags eight
    /// to a byte, low bit first.
    #[test]
    fn state_bytes_are_pinned() {
        let mut closed = vec![false; 9];
        (closed[0], closed[3], closed[8]) = (true, true, true);
        let p = Tdsp {
            source: VertexIdx(0),
            latency_col: 0,
            label: Vec::new(),
            tdsp: vec![1.5, f64::INFINITY],
            frontier: Vec::new(),
            reached: Vec::new(),
            closed,
            remaining: 1,
            heap: BinaryHeap::new(),
            relaxations: Vec::new(),
        };
        let want = [
            2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xF8, 0x3F, 0, 0, 0, 0, 0, 0, 0xF0, 0x7F, 0x09, 0x01,
        ];
        assert_eq!(crate::saved_state(&p), want);
    }

    #[test]
    fn msg_roundtrip() {
        let msg = TdspMsg::Relax(VertexIdx(7), 3.5);
        let mut buf = BytesMut::new();
        msg.encode(&mut buf);
        assert_eq!(TdspMsg::decode(&mut buf.freeze()).unwrap(), msg);
    }

    #[test]
    fn ordered_f64_total_order() {
        use super::ordered_f64::F64;
        assert!(F64(1.0) < F64(2.0));
        assert!(F64(f64::INFINITY) > F64(1e300));
        assert_eq!(F64(0.5).cmp(&F64(0.5)), std::cmp::Ordering::Equal);
    }
}
