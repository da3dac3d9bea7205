//! The vertex-centric programming model, hosted on the TI-BSP engine.
//!
//! A [`VertexProgram`] runs as one `PregelHost` per subgraph on
//! `tempograph_engine::run_job`: the same worker loop, barrier, batching and
//! telemetry as every subgraph program. What stays vertex-centric is the
//! delivery rule: a message between two vertices of the same subgraph is
//! held until the *next* superstep, exactly like a message crossing
//! partitions, so the run still pays one barriered superstep per hop.

use bytes::{Bytes, BytesMut};
use std::sync::Arc;
use tempograph_core::{GraphTemplate, Neighbor, TimeSeriesCollection, VertexIdx};
use tempograph_engine::{
    run_job, Combiner, Context, Envelope, InstanceSource, JobConfig, SubgraphProgram, WireMsg,
};
use tempograph_partition::{discover_subgraphs, PartitionedGraph, Partitioning, Subgraph};
use tempograph_trace::Clock;

/// Per-vertex user logic (Pregel's `Compute`). One program *value* is shared
/// (immutably) by all vertices; per-vertex state lives in `Self::State`.
pub trait VertexProgram: Send + Sync + 'static {
    /// Message type exchanged between vertices.
    type Msg: WireMsg;
    /// Per-vertex mutable state (e.g. the distance label). Serialised once,
    /// when the job hands its final states back.
    type State: WireMsg;

    /// Initial state of vertex `v`.
    fn init(&self, v: VertexIdx, template: &GraphTemplate) -> Self::State;

    /// Per-superstep vertex computation. A vertex is invoked at superstep 0
    /// and whenever it has incoming messages; calling
    /// [`VertexContext::vote_to_halt`] deactivates it until a message
    /// arrives (Pregel semantics).
    fn compute(&self, ctx: &mut VertexContext<'_, Self::State, Self::Msg>, msgs: &[Self::Msg]);

    /// Whether [`VertexProgram::combine`] should fold outgoing messages at
    /// the sender (Pregel's combiners). Default: no combining.
    fn has_combiner(&self) -> bool {
        false
    }

    /// Fold `incoming` into `acc` — two messages bound for the same vertex.
    /// Must be an associative, commutative reduction (min, max, sum); only
    /// called when [`VertexProgram::has_combiner`] returns true.
    fn combine(&self, _acc: &mut Self::Msg, _incoming: Self::Msg) {
        unreachable!("combine() called without has_combiner()");
    }
}

/// Context handed to one vertex invocation.
pub struct VertexContext<'a, S, M> {
    /// The vertex being computed.
    pub vertex: VertexIdx,
    /// Superstep number (0-based).
    pub superstep: usize,
    /// The shared template (adjacency lives here).
    pub template: &'a GraphTemplate,
    state: &'a mut S,
    out: &'a mut Vec<(VertexIdx, M)>,
    halted: &'a mut bool,
}

impl<'a, S, M: Clone> VertexContext<'a, S, M> {
    /// A context for one invocation of `vertex`: sends are appended to
    /// `out`, and `halted` is set when the vertex votes to halt. For hosts
    /// of a [`VertexProgram`] — the engine's, or a test's reference loop.
    pub fn new(
        vertex: VertexIdx,
        superstep: usize,
        template: &'a GraphTemplate,
        state: &'a mut S,
        out: &'a mut Vec<(VertexIdx, M)>,
        halted: &'a mut bool,
    ) -> Self {
        VertexContext {
            vertex,
            superstep,
            template,
            state,
            out,
            halted,
        }
    }

    /// This vertex's mutable state.
    pub fn state(&mut self) -> &mut S {
        self.state
    }

    /// Out-neighbours (both directions for undirected templates).
    pub fn neighbors(&self) -> &'a [Neighbor] {
        self.template.neighbors(self.vertex)
    }

    /// Send a message to an arbitrary vertex, delivered next superstep.
    pub fn send(&mut self, to: VertexIdx, msg: M) {
        self.out.push((to, msg));
    }

    /// Send the same message to every neighbour.
    pub fn send_to_neighbors(&mut self, msg: M) {
        for n in self.template.neighbors(self.vertex) {
            self.out.push((n.vertex, msg.clone()));
        }
    }

    /// Halt until a message arrives.
    pub fn vote_to_halt(&mut self) {
        *self.halted = true;
    }
}

/// Aggregate run statistics.
#[derive(Clone, Debug, Default)]
pub struct PregelMetrics {
    /// Supersteps executed.
    pub supersteps: usize,
    /// Total messages sent by vertices (before combining; local + remote).
    pub messages: u64,
    /// Messages that crossed partitions (serialised).
    pub remote_messages: u64,
    /// Serialised bytes shipped across partitions.
    pub remote_bytes: u64,
    /// Messages eliminated by the sender-side combiner. Only messages
    /// between subgraphs are combined: a send within a subgraph goes
    /// straight to its target's next-superstep inbox.
    pub combined_messages: u64,
    /// Vertex compute nanoseconds (the BSP's `compute` spans) summed over
    /// workers.
    pub compute_ns: u64,
    /// Barrier-wait nanoseconds (the `barrier.arrive` spans) summed over
    /// workers.
    pub sync_ns: u64,
    /// End-to-end wall nanoseconds.
    pub wall_ns: u64,
}

impl PregelMetrics {
    /// Fold this baseline run's aggregates into a metrics registry under
    /// the `pregel_` prefix, so vertex-centric baseline numbers sit next to
    /// the TI-BSP job metrics in one exposition dump.
    pub fn export_into(&self, reg: &mut tempograph_metrics::Registry) {
        reg.counter_add("pregel_supersteps_total", &[], self.supersteps as u64);
        reg.counter_add("pregel_msgs_total", &[], self.messages);
        reg.counter_add("pregel_msgs_remote_total", &[], self.remote_messages);
        reg.counter_add("pregel_bytes_remote_total", &[], self.remote_bytes);
        reg.counter_add("pregel_msgs_combined_total", &[], self.combined_messages);
        reg.counter_add("pregel_compute_ns_total", &[], self.compute_ns);
        reg.counter_add("pregel_sync_ns_total", &[], self.sync_ns);
        reg.counter_add("pregel_wall_ns_total", &[], self.wall_ns);
        reg.gauge_set(
            "pregel_msgs_remote_fraction",
            &[],
            tempograph_metrics::ratio_or_zero(self.remote_messages, self.messages),
        );
    }
}

/// Final states plus metrics.
pub struct PregelResult<S> {
    /// Final state per vertex, by dense vertex index.
    pub states: Vec<S>,
    /// Run statistics.
    pub metrics: PregelMetrics,
}

/// The counter every host adds its vertices' sends to.
const MSGS_COUNTER: &str = "pregel.msgs";

/// Run a vertex-centric BSP to quiescence (all vertices halted, no messages
/// in flight). `max_supersteps` bounds runaway programs.
pub fn run_pregel<P: VertexProgram + Clone>(
    template: &Arc<GraphTemplate>,
    partitioning: &Partitioning,
    program: &P,
    max_supersteps: usize,
) -> PregelResult<P::State> {
    let pg = Arc::new(discover_subgraphs(template.clone(), partitioning.clone()));
    // One default instance: the job needs a timestep, the hosts never read it.
    let mut series = TimeSeriesCollection::new(template.clone(), 0, 1);
    series
        .push(series.new_instance())
        .expect("a default instance conforms to its template");
    let source = InstanceSource::Memory(Arc::new(series));

    let program = Arc::new(program.clone());
    let mut config = JobConfig::independent(1);
    config.max_supersteps = max_supersteps;
    if program.has_combiner() {
        config = config.with_combiner(Arc::new(VertexCombiner(program.clone())));
    }

    let wall = Clock::start();
    let factory =
        |sg: &Subgraph, _: &PartitionedGraph| PregelHost::new(program.clone(), sg, template);
    let result = run_job(&pg, &source, factory, config);
    let wall_ns = wall.elapsed_ns();

    let mut states: Vec<Option<P::State>> = vec![None; template.num_vertices()];
    for (sg, bytes) in &result.final_states {
        let decoded = Vec::<P::State>::decode(&mut Bytes::copy_from_slice(bytes))
            .expect("host states round-trip in process");
        for (&v, s) in pg.subgraph(*sg).vertices().iter().zip(decoded) {
            states[v.idx()] = Some(s);
        }
    }

    let mut m = PregelMetrics {
        messages: result.counter_at(MSGS_COUNTER, 0),
        wall_ns,
        ..Default::default()
    };
    // The job's one timestep.
    for p in result.metrics.first().into_iter().flatten() {
        m.supersteps = m.supersteps.max(p.supersteps as usize);
        m.remote_messages += p.msgs_remote;
        m.remote_bytes += p.bytes_remote;
        m.combined_messages += p.msgs_combined;
        // The BSP's supersteps only: the trailing entry is the host's
        // (empty) EndOfTimestep.
        m.compute_ns += p
            .superstep_compute_ns
            .iter()
            .take(p.supersteps as usize)
            .sum::<u64>();
        m.sync_ns += p.sync_ns;
    }
    PregelResult {
        states: states
            .into_iter()
            .map(|s| s.expect("every vertex belongs to one subgraph"))
            .collect(),
        metrics: m,
    }
}

/// Pregel's sender-side combiner as an engine [`Combiner`]: messages to the
/// same target vertex share a key.
struct VertexCombiner<P>(Arc<P>);

impl<P: VertexProgram> Combiner<(VertexIdx, P::Msg)> for VertexCombiner<P> {
    fn key(&self, msg: &(VertexIdx, P::Msg)) -> Option<u64> {
        Some(u64::from(msg.0 .0))
    }

    fn combine(&self, acc: &mut (VertexIdx, P::Msg), incoming: (VertexIdx, P::Msg)) {
        self.0.combine(&mut acc.1, incoming.1);
    }
}

/// One subgraph's vertices under a [`VertexProgram`]. Per-vertex vectors
/// are indexed by local position in the subgraph.
struct PregelHost<P: VertexProgram> {
    program: Arc<P>,
    states: Vec<P::State>,
    halted: Vec<bool>,
    /// This superstep's mail.
    inbox: Vec<Vec<P::Msg>>,
    /// Next superstep's mail: sends within the subgraph land here at once,
    /// engine mail when the next superstep starts.
    pending: Vec<Vec<P::Msg>>,
    /// Sends of the superstep's vertex invocations (reused buffer).
    sent: Vec<(VertexIdx, P::Msg)>,
}

impl<P: VertexProgram> PregelHost<P> {
    fn new(program: Arc<P>, sg: &Subgraph, template: &GraphTemplate) -> Self {
        let n = sg.num_vertices();
        PregelHost {
            states: sg
                .vertices()
                .iter()
                .map(|&v| program.init(v, template))
                .collect(),
            program,
            halted: vec![false; n],
            inbox: vec![Vec::new(); n],
            pending: vec![Vec::new(); n],
            sent: Vec::new(),
        }
    }
}

impl<P: VertexProgram> SubgraphProgram for PregelHost<P> {
    type Msg = (VertexIdx, P::Msg);

    fn compute(&mut self, ctx: &mut Context<'_, Self::Msg>, msgs: &[Envelope<Self::Msg>]) {
        let ss = ctx.superstep();
        let sg = ctx.subgraph();
        for e in msgs {
            let (to, msg) = e.payload.clone();
            let pos = sg
                .local_pos(to)
                .expect("mail goes to the subgraph owning its vertex");
            self.pending[pos as usize].push(msg);
        }
        std::mem::swap(&mut self.inbox, &mut self.pending);

        // Every vertex at superstep 0, then the awake ones and those with
        // mail.
        let template = ctx.partitioned_graph().template();
        for (i, &v) in sg.vertices().iter().enumerate() {
            if ss > 0 && self.halted[i] && self.inbox[i].is_empty() {
                continue;
            }
            let mut halted = false;
            let mut vctx = VertexContext::new(
                v,
                ss,
                template,
                &mut self.states[i],
                &mut self.sent,
                &mut halted,
            );
            self.program.compute(&mut vctx, &self.inbox[i]);
            self.halted[i] = halted;
            self.inbox[i].clear();
        }

        if !self.sent.is_empty() {
            ctx.add_counter(MSGS_COUNTER, self.sent.len() as u64);
        }
        let me = ctx.subgraph().id();
        for (to, msg) in self.sent.drain(..) {
            let target = ctx.partitioned_graph().subgraph_of_vertex(to);
            if target == me {
                // Next superstep, not this one: one superstep per hop.
                let pos = ctx
                    .subgraph()
                    .local_pos(to)
                    .expect("target is in this subgraph");
                self.pending[pos as usize].push(msg);
            } else {
                ctx.send_to_subgraph(target, (to, msg));
            }
        }

        // Mail still held here keeps the subgraph running.
        if self
            .halted
            .iter()
            .zip(&self.pending)
            .all(|(&h, mail)| h && mail.is_empty())
        {
            ctx.vote_to_halt();
        }
    }

    fn save_state(&self, buf: &mut BytesMut) {
        self.states.encode(buf);
    }

    // `run_pregel` arms no checkpoint, so `restore_state` keeps its
    // default: a restore would refuse the unread state as `Trailing`
    // rather than diverge.
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempograph_core::TemplateBuilder;

    /// Max-propagation: every vertex converges to the max vertex id in its
    /// component.
    #[derive(Clone)]
    struct MaxProp;

    impl VertexProgram for MaxProp {
        type Msg = u64;
        type State = u64;

        fn init(&self, v: VertexIdx, t: &GraphTemplate) -> u64 {
            t.vertex_id(v)
        }

        fn compute(&self, ctx: &mut VertexContext<'_, u64, u64>, msgs: &[u64]) {
            let mut best = *ctx.state();
            if ctx.superstep == 0 {
                best = *ctx.state();
            }
            for &m in msgs {
                best = best.max(m);
            }
            if best > *ctx.state() || ctx.superstep == 0 {
                *ctx.state() = best;
                ctx.send_to_neighbors(best);
            }
            ctx.vote_to_halt();
        }
    }

    fn path(n: u64) -> Arc<GraphTemplate> {
        let mut b = TemplateBuilder::new("path", false);
        for i in 0..n {
            b.add_vertex(i);
        }
        for i in 0..n - 1 {
            b.add_edge(i, i, i + 1).unwrap();
        }
        Arc::new(b.finalize().unwrap())
    }

    #[test]
    fn max_propagation_converges() {
        let t = path(20);
        for k in [1, 2, 4] {
            let part = Partitioning {
                assignment: (0..20).map(|v| (v % k) as u16).collect(),
                k,
            };
            let r = run_pregel(&t, &part, &MaxProp, 1000);
            assert!(r.states.iter().all(|&s| s == 19), "k={k}");
            // A path of 20 vertices needs ~19 supersteps: vertex-centric
            // pays diameter in supersteps.
            assert!(
                r.metrics.supersteps >= 19,
                "k={k}: {}",
                r.metrics.supersteps
            );
        }
    }

    #[test]
    fn metrics_export_into_registry() {
        let t = path(10);
        let part = Partitioning {
            assignment: (0..10).map(|v| (v % 2) as u16).collect(),
            k: 2,
        };
        let r = run_pregel(&t, &part, &MaxProp, 1000);
        let mut reg = tempograph_metrics::Registry::new();
        r.metrics.export_into(&mut reg);
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter_total("pregel_supersteps_total"),
            r.metrics.supersteps as u64
        );
        assert_eq!(snap.counter_total("pregel_msgs_total"), r.metrics.messages);
        match snap.get("pregel_msgs_remote_fraction", &[]) {
            Some(tempograph_metrics::Metric::Gauge(g)) => {
                assert!(g.is_finite() && (0.0..=1.0).contains(g));
            }
            other => panic!("expected gauge, got {other:?}"),
        }
        assert!(snap
            .to_prometheus()
            .contains("# TYPE pregel_msgs_total counter"));

        // An idle baseline (no messages) keeps the ratio finite.
        let mut reg = tempograph_metrics::Registry::new();
        PregelMetrics::default().export_into(&mut reg);
        match reg.get("pregel_msgs_remote_fraction", &[]) {
            Some(tempograph_metrics::Metric::Gauge(g)) => assert_eq!(*g, 0.0),
            other => panic!("expected gauge, got {other:?}"),
        }
    }

    #[test]
    fn remote_traffic_only_with_multiple_partitions() {
        let t = path(10);
        let single = run_pregel(
            &t,
            &Partitioning {
                assignment: vec![0; 10],
                k: 1,
            },
            &MaxProp,
            100,
        );
        assert_eq!(single.metrics.remote_messages, 0);
        let multi = run_pregel(
            &t,
            &Partitioning {
                assignment: (0..10).map(|v| (v % 2) as u16).collect(),
                k: 2,
            },
            &MaxProp,
            100,
        );
        assert!(multi.metrics.remote_messages > 0);
        assert!(multi.metrics.remote_bytes > 0);
    }
}
