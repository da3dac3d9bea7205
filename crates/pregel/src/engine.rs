//! The vertex-centric BSP engine.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;
use tempograph_core::{GraphTemplate, Neighbor, VertexIdx};
use tempograph_engine::batch::BufferPool;
use tempograph_engine::sync::{join_partition, Contribution, SyncPoint};
use tempograph_engine::wire::WireMsg;
use tempograph_partition::Partitioning;
use tempograph_trace::{Clock, Trace, TraceConfig, TraceSink};

/// Per-vertex user logic (Pregel's `Compute`). One program *value* is shared
/// (immutably) by all vertices; per-vertex state lives in `Self::State`.
pub trait VertexProgram: Send + Sync + 'static {
    /// Message type exchanged between vertices.
    type Msg: WireMsg;
    /// Per-vertex mutable state (e.g. the distance label).
    type State: Send + Clone + 'static;

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
    /// Total messages (local + remote).
    pub messages: u64,
    /// Messages that crossed partitions (serialised).
    pub remote_messages: u64,
    /// Serialised bytes shipped across partitions.
    pub remote_bytes: u64,
    /// Messages eliminated by the sender-side combiner.
    pub combined_messages: u64,
    /// Total compute nanoseconds summed over workers.
    pub compute_ns: u64,
    /// Total barrier-wait nanoseconds summed over workers.
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
    /// Assembled trace (only from [`run_pregel_traced`]).
    pub trace: Option<Trace>,
}

struct WorkerOut<S> {
    states: Vec<(u32, S)>,
    messages: u64,
    remote_messages: u64,
    remote_bytes: u64,
    combined_messages: u64,
    compute_ns: u64,
    sync_ns: u64,
    supersteps: usize,
    sink: TraceSink,
}

/// Run a vertex-centric BSP to quiescence (all vertices halted, no messages
/// in flight). `max_supersteps` bounds runaway programs.
pub fn run_pregel<P: VertexProgram>(
    template: &Arc<GraphTemplate>,
    partitioning: &Partitioning,
    program: &P,
    max_supersteps: usize,
) -> PregelResult<P::State> {
    run_pregel_impl(template, partitioning, program, max_supersteps, None)
}

/// [`run_pregel`] with structured tracing: each partition records
/// `"superstep"` / `"compute"` / `"send"` / `"barrier.arrive"` /
/// `"barrier.post"` spans onto its track, and the result carries the
/// assembled [`Trace`].
pub fn run_pregel_traced<P: VertexProgram>(
    template: &Arc<GraphTemplate>,
    partitioning: &Partitioning,
    program: &P,
    max_supersteps: usize,
    trace: TraceConfig,
) -> PregelResult<P::State> {
    run_pregel_impl(template, partitioning, program, max_supersteps, Some(trace))
}

fn run_pregel_impl<P: VertexProgram>(
    template: &Arc<GraphTemplate>,
    partitioning: &Partitioning,
    program: &P,
    max_supersteps: usize,
    trace: Option<TraceConfig>,
) -> PregelResult<P::State> {
    partitioning
        .validate(template)
        .expect("partitioning must match template");
    let k = partitioning.k;
    let n = template.num_vertices();

    // Local vertex lists per partition (ascending order).
    let mut part_vertices: Vec<Vec<u32>> = vec![Vec::new(); k];
    for v in 0..n as u32 {
        part_vertices[partitioning.assignment[v as usize] as usize].push(v);
    }
    // Global → local position map (u32::MAX = foreign).
    let mut local_pos = vec![u32::MAX; n];
    for verts in &part_vertices {
        for (i, &v) in verts.iter().enumerate() {
            local_pos[v as usize] = i as u32;
        }
    }
    let local_pos = Arc::new(local_pos);

    let sync = SyncPoint::new(k);
    let mut txs: Vec<Sender<Bytes>> = Vec::with_capacity(k);
    let mut rxs: Vec<Option<Receiver<Bytes>>> = Vec::with_capacity(k);
    for _ in 0..k {
        let (tx, rx) = unbounded();
        txs.push(tx);
        rxs.push(Some(rx));
    }

    let wall = Clock::start();
    let outs: Vec<WorkerOut<P::State>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(k);
        for p in 0..k {
            let rx = rxs[p].take().expect("unclaimed");
            let txs = txs.clone();
            let sync = &sync;
            let template = template.clone();
            let verts = std::mem::take(&mut part_vertices[p]);
            let local_pos = local_pos.clone();
            let assignment = &partitioning.assignment;
            let sink = trace
                .map(|tc| tc.sink(p as u32))
                .unwrap_or_else(TraceSink::inert);
            handles.push(scope.spawn(move || {
                worker::<P>(
                    p as u16,
                    template,
                    verts,
                    local_pos,
                    assignment,
                    program,
                    rx,
                    txs,
                    sync,
                    max_supersteps,
                    sink,
                )
            }));
        }
        handles
            .into_iter()
            .enumerate()
            .map(|(p, h)| join_partition(p, h.join()))
            .collect()
    });

    let mut states: Vec<Option<P::State>> = vec![None; n];
    let mut metrics = PregelMetrics {
        wall_ns: wall.elapsed_ns(),
        ..Default::default()
    };
    let mut sinks = Vec::with_capacity(outs.len());
    for o in outs {
        for (v, s) in o.states {
            states[v as usize] = Some(s);
        }
        metrics.messages += o.messages;
        metrics.remote_messages += o.remote_messages;
        metrics.remote_bytes += o.remote_bytes;
        metrics.combined_messages += o.combined_messages;
        metrics.compute_ns += o.compute_ns;
        metrics.sync_ns += o.sync_ns;
        metrics.supersteps = metrics.supersteps.max(o.supersteps);
        sinks.push((format!("partition {}", o.sink.track()), o.sink));
    }
    let assembled = trace.map(|_| Trace::from_sinks(sinks));
    PregelResult {
        states: states.into_iter().map(|s| s.expect("all init")).collect(),
        metrics,
        trace: assembled,
    }
}

#[allow(clippy::too_many_arguments)]
fn worker<P: VertexProgram>(
    partition: u16,
    template: Arc<GraphTemplate>,
    verts: Vec<u32>,
    local_pos: Arc<Vec<u32>>,
    assignment: &[u16],
    program: &P,
    rx: Receiver<Bytes>,
    txs: Vec<Sender<Bytes>>,
    sync: &SyncPoint,
    max_supersteps: usize,
    mut sink: TraceSink,
) -> WorkerOut<P::State> {
    let nl = verts.len();
    let mut states: Vec<P::State> = verts
        .iter()
        .map(|&v| program.init(VertexIdx(v), &template))
        .collect();
    let mut halted = vec![false; nl];
    let mut inbox: Vec<Vec<P::Msg>> = vec![Vec::new(); nl];
    let mut out = WorkerOut {
        states: Vec::new(),
        messages: 0,
        remote_messages: 0,
        remote_bytes: 0,
        combined_messages: 0,
        compute_ns: 0,
        sync_ns: 0,
        supersteps: 0,
        sink: TraceSink::inert(),
    };
    let mut pool = BufferPool::new();

    let mut ss = 0usize;
    loop {
        let compute0 = sink.now();
        let mut sent: Vec<(VertexIdx, P::Msg)> = Vec::new();
        for i in 0..nl {
            let msgs = std::mem::take(&mut inbox[i]);
            if ss > 0 && halted[i] && msgs.is_empty() {
                continue;
            }
            halted[i] = false;
            let mut is_halted = false;
            let mut ctx = VertexContext {
                vertex: VertexIdx(verts[i]),
                superstep: ss,
                template: &template,
                state: &mut states[i],
                out: &mut sent,
                halted: &mut is_halted,
            };
            program.compute(&mut ctx, &msgs);
            halted[i] = is_halted;
        }
        let compute1 = sink.now();
        out.compute_ns += compute1 - compute0;
        sink.span_arg_at("compute", compute0, compute1, "superstep", ss as u64);

        // Sender-side combining (Pregel's combiners): fold messages bound
        // for the same vertex before any of them is serialised.
        let n_sent = sent.len() as u64;
        out.messages += n_sent;
        if program.has_combiner() && sent.len() > 1 {
            let mut acc_at: HashMap<u32, usize> = HashMap::new();
            let mut combined: Vec<(VertexIdx, P::Msg)> = Vec::with_capacity(sent.len());
            for (to, msg) in sent {
                match acc_at.entry(to.0) {
                    Entry::Occupied(o) => program.combine(&mut combined[*o.get()].1, msg),
                    Entry::Vacant(v) => {
                        v.insert(combined.len());
                        combined.push((to, msg));
                    }
                }
            }
            out.combined_messages += n_sent - combined.len() as u64;
            sent = combined;
        }

        // Route: local direct; remote written straight into one pooled
        // frame per peer (the count prefix is patched in place afterwards —
        // no second copy).
        let send_span = sink.start();
        let mut remote: Vec<Option<(BytesMut, u32)>> = vec![None; txs.len()];
        for (to, msg) in sent {
            let tp = assignment[to.idx()] as usize;
            if tp == partition as usize {
                inbox[local_pos[to.idx()] as usize].push(msg);
            } else {
                out.remote_messages += 1;
                let slot = remote[tp].get_or_insert_with(|| {
                    let mut buf = pool.get();
                    buf.put_u32_le(0); // message count, patched below
                    (buf, 0)
                });
                to.encode(&mut slot.0);
                msg.encode(&mut slot.0);
                slot.1 += 1;
            }
        }
        for (tp, slot) in remote.into_iter().enumerate() {
            if let Some((mut buf, count)) = slot {
                buf[..4].copy_from_slice(&count.to_le_bytes());
                let bytes = buf.freeze();
                out.remote_bytes += bytes.len() as u64;
                txs[tp].send(bytes).expect("receiver alive");
            }
        }
        sink.span_since("send", send_span);

        let wait0 = sink.now();
        // Nothing poisons this sync point, so the rendezvous cannot fail.
        let agg = sync
            .arrive(Contribution {
                msgs_sent: n_sent,
                all_halted: halted.iter().all(|&h| h),
            })
            .expect("pregel sync point is never poisoned");
        let wait1 = sink.now();
        out.sync_ns += wait1 - wait0;
        sink.span_at("barrier.arrive", wait0, wait1);
        sink.straggler_check(wait1 - wait0);

        // Drain remote batches, recycling frame allocations.
        let drain_span = sink.start();
        while let Ok(mut bytes) = rx.try_recv() {
            let count = bytes.get_u32_le();
            for _ in 0..count {
                // Frames are produced by this same process; decode failure
                // here is a bug, not recoverable input.
                let to = VertexIdx::decode(&mut bytes).expect("pregel-internal frame");
                let msg = P::Msg::decode(&mut bytes).expect("pregel-internal frame");
                inbox[local_pos[to.idx()] as usize].push(msg);
            }
            pool.reclaim(bytes);
        }
        sink.span_since("drain", drain_span);
        // Post-drain rendezvous: see tempograph-engine — a fast worker must
        // not send superstep s+1 batches into a slow worker's s drain.
        let wait2 = sink.now();
        sync.barrier().expect("pregel sync point is never poisoned");
        let wait3 = sink.now();
        out.sync_ns += wait3 - wait2;
        sink.span_at("barrier.post", wait2, wait3);
        sink.span_arg_at("superstep", compute0, wait3, "superstep", ss as u64);

        ss += 1;
        if agg.should_stop() || ss >= max_supersteps {
            break;
        }
    }

    out.supersteps = ss;
    out.states = verts.iter().zip(states).map(|(&v, s)| (v, s)).collect();
    out.sink = sink;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempograph_core::TemplateBuilder;

    /// Max-propagation: every vertex converges to the max vertex id in its
    /// component.
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
    fn traced_run_derives_metrics_from_spans() {
        let t = path(12);
        let part = Partitioning {
            assignment: (0..12).map(|v| (v % 2) as u16).collect(),
            k: 2,
        };
        let r = run_pregel_traced(&t, &part, &MaxProp, 100, TraceConfig::new());
        assert!(r.states.iter().all(|&s| s == 11));
        let trace = r.trace.expect("traced run returns a trace");
        trace.validate().expect("trace invariants hold");
        assert_eq!(trace.tracks.len(), 2);
        // Aggregates are exactly derivable: the worker fed the same clock
        // readings to the metrics and the spans.
        let compute: u64 = trace.sum_spans("compute");
        assert_eq!(compute, r.metrics.compute_ns);
        let sync: u64 = trace.sum_spans("barrier.arrive") + trace.sum_spans("barrier.post");
        assert_eq!(sync, r.metrics.sync_ns);
        assert_eq!(
            trace.span_count("superstep"),
            r.metrics.supersteps * 2,
            "one superstep span per partition per superstep"
        );
        // Untraced runs carry no trace.
        assert!(run_pregel(&t, &part, &MaxProp, 100).trace.is_none());
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
