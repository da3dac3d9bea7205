//! Community evolution — per-instance clustering with a merged stability
//! series.
//!
//! §II.B motivates the eventually dependent pattern with "perform clustering
//! on each instance and find their intersection to show how communities
//! evolve". This algorithm realises that sketch:
//!
//! * per timestep, **active** vertices (those that tweeted in the interval)
//!   are clustered into *activity components* — connected components over
//!   edges whose endpoints are both active — via distributed hash-min label
//!   propagation across subgraphs (labels are canonical: the minimum active
//!   external vertex id of the component);
//! * each subgraph remembers its members' labels per timestep and, at the
//!   end, counts **stable** vertices — active in consecutive timesteps with
//!   the same community label — sending the per-transition counts to Merge;
//! * the Merge master sums the series and emits
//!   `(transition t→t+1 encoded as VertexIdx(t), stable_count)`.

use tempograph_core::wire::{self, WireError, WireMsg};
use tempograph_core::VertexIdx;
use tempograph_engine::{Context, Envelope, SubgraphProgram};
use tempograph_partition::Subgraph;

/// Messages: superstep label relaxations or merged stability series.
#[derive(Clone, Debug, PartialEq)]
pub enum CommunityMsg {
    /// "Your member vertex `v` borders my active component labelled
    /// `label`."
    Relax(VertexIdx, u64),
    /// Per-transition stable-vertex counts, shipped to the merge master.
    Series(Vec<u64>),
}

impl WireMsg for CommunityMsg {
    fn encode(&self, buf: &mut bytes::BytesMut) {
        match self {
            CommunityMsg::Relax(v, l) => {
                bytes::BufMut::put_u8(buf, 0);
                v.encode(buf);
                l.encode(buf);
            }
            CommunityMsg::Series(s) => {
                bytes::BufMut::put_u8(buf, 1);
                s.encode(buf);
            }
        }
    }

    fn decode(buf: &mut bytes::Bytes) -> Result<Self, WireError> {
        // Explicit tags (lint rule W01): adding a variant must extend this
        // match, and an unknown tag is corruption, not a silent `Series`.
        match wire::get_u8(buf, "CommunityMsg tag")? {
            0 => Ok(CommunityMsg::Relax(
                VertexIdx::decode(buf)?,
                u64::decode(buf)?,
            )),
            1 => Ok(CommunityMsg::Series(Vec::decode(buf)?)),
            tag => Err(WireError::BadTag {
                context: "CommunityMsg",
                tag,
            }),
        }
    }
}

/// The community-evolution program; instantiate via
/// [`CommunityEvolution::factory`].
pub struct CommunityEvolution {
    tweets_col: usize,
    /// This timestep's label per local position (`u64::MAX` = inactive).
    label: Vec<u64>,
    /// Previous timestep's labels.
    prev_label: Vec<u64>,
    /// Stable-vertex count per transition (index t = transition t-1 → t).
    stable_per_transition: Vec<u64>,
}

impl CommunityEvolution {
    /// Merge-phase counter: total stable vertex-transitions.
    pub const STABLE_TOTAL: &'static str = "community_stable_total";

    /// Build a per-subgraph factory; tweets are read from the `TextList`
    /// vertex attribute at `tweets_col`.
    pub fn factory(
        tweets_col: usize,
    ) -> impl Fn(&Subgraph, &tempograph_partition::PartitionedGraph) -> CommunityEvolution {
        move |sg, _| CommunityEvolution {
            tweets_col,
            label: vec![u64::MAX; sg.num_vertices()],
            prev_label: vec![u64::MAX; sg.num_vertices()],
            stable_per_transition: Vec::new(),
        }
    }

    /// Recompute local activity components and return, per component
    /// member, its canonical label. Uses union-find over local edges whose
    /// endpoints are both active.
    fn local_components(&mut self, ctx: &mut Context<'_, CommunityMsg>) {
        let instance = ctx.instance();
        let sg = ctx.subgraph();
        let tweets = instance
            .vertex_text_list(self.tweets_col)
            .expect("tweets must be a TextList vertex column");
        let active: Vec<bool> = tweets.iter().map(|r| !r.is_empty()).collect();

        let n = sg.num_vertices();
        let mut parent: Vec<u32> = (0..n as u32).collect();
        fn find(p: &mut [u32], mut x: u32) -> u32 {
            while p[x as usize] != x {
                let g = p[p[x as usize] as usize];
                p[x as usize] = g;
                x = g;
            }
            x
        }
        for pos in sg.positions() {
            if !active[pos as usize] {
                continue;
            }
            for &(q, _) in sg.local_neighbors(pos) {
                if active[q as usize] {
                    let (a, b) = (find(&mut parent, pos), find(&mut parent, q));
                    if a != b {
                        parent[a as usize] = b;
                    }
                }
            }
        }
        // Canonical label per root: min external vertex id among members.
        let pg = ctx.partitioned_graph();
        let mut root_label: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
        for pos in 0..n as u32 {
            if active[pos as usize] {
                let r = find(&mut parent, pos);
                let id = pg.template().vertex_id(sg.vertex_at(pos));
                let e = root_label.entry(r).or_insert(u64::MAX);
                *e = (*e).min(id);
            }
        }
        for pos in 0..n as u32 {
            self.label[pos as usize] = if active[pos as usize] {
                root_label[&find(&mut parent, pos)]
            } else {
                u64::MAX
            };
        }
    }

    /// Broadcast boundary labels to neighbouring subgraphs (only across
    /// edges whose local endpoint is active).
    fn broadcast_boundary(&self, ctx: &mut Context<'_, CommunityMsg>) {
        let sg = ctx.subgraph();
        let mut out: Vec<(tempograph_partition::SubgraphId, VertexIdx, u64)> = Vec::new();
        for pos in sg.positions() {
            let l = self.label[pos as usize];
            if l == u64::MAX {
                continue;
            }
            for rn in sg.remote_neighbors(pos) {
                out.push((rn.subgraph, rn.vertex, l));
            }
        }
        out.sort_unstable();
        out.dedup();
        for (sgid, v, l) in out {
            ctx.send_to_subgraph(sgid, CommunityMsg::Relax(v, l));
        }
    }

    /// Apply incoming relaxations: lower a component's label when an active
    /// remote neighbour carries a smaller one. Returns whether anything
    /// changed.
    fn relax(
        &mut self,
        ctx: &mut Context<'_, CommunityMsg>,
        msgs: &[Envelope<CommunityMsg>],
    ) -> bool {
        let sg = ctx.subgraph();
        let mut changed = false;
        // Collect candidate improvements per component label.
        let mut improvements: std::collections::HashMap<u64, u64> =
            std::collections::HashMap::new();
        for e in msgs {
            if let CommunityMsg::Relax(v, incoming) = &e.payload {
                let pos = sg.local_pos(*v).expect("member") as usize;
                let own = self.label[pos];
                if own != u64::MAX && *incoming < own {
                    let best = improvements.entry(own).or_insert(*incoming);
                    *best = (*best).min(*incoming);
                }
            }
        }
        if !improvements.is_empty() {
            for l in self.label.iter_mut() {
                if let Some(&better) = improvements.get(l) {
                    *l = better;
                    changed = true;
                }
            }
        }
        changed
    }
}

impl SubgraphProgram for CommunityEvolution {
    type Msg = CommunityMsg;

    fn compute(&mut self, ctx: &mut Context<'_, CommunityMsg>, msgs: &[Envelope<CommunityMsg>]) {
        if ctx.superstep() == 0 {
            self.local_components(ctx);
            self.broadcast_boundary(ctx);
        } else if self.relax(ctx, msgs) {
            self.broadcast_boundary(ctx);
        }
        ctx.vote_to_halt();
    }

    fn end_of_timestep(&mut self, ctx: &mut Context<'_, CommunityMsg>) {
        if ctx.timestep() > 0 {
            let stable = self
                .label
                .iter()
                .zip(&self.prev_label)
                .filter(|(a, b)| **a != u64::MAX && a == b)
                .count() as u64;
            self.stable_per_transition.push(stable);
        }
        self.prev_label.copy_from_slice(&self.label);

        if ctx.timestep() + 1 == ctx.num_timesteps() {
            ctx.send_to_merge(CommunityMsg::Series(std::mem::take(
                &mut self.stable_per_transition,
            )));
        }
    }

    fn merge(&mut self, ctx: &mut Context<'_, CommunityMsg>, msgs: &[Envelope<CommunityMsg>]) {
        let master = ctx
            .partitioned_graph()
            .largest_subgraph_in_partition(0)
            .expect("partition 0 non-empty");
        if ctx.superstep() == 0 {
            for e in msgs {
                if let CommunityMsg::Series(s) = &e.payload {
                    ctx.send_to_subgraph(master, CommunityMsg::Series(s.clone()));
                }
            }
        } else if ctx.subgraph().id() == master && !msgs.is_empty() {
            let len = msgs
                .iter()
                .filter_map(|e| match &e.payload {
                    CommunityMsg::Series(s) => Some(s.len()),
                    _ => None,
                })
                .max()
                .unwrap_or(0);
            let mut totals = vec![0u64; len];
            for e in msgs {
                if let CommunityMsg::Series(s) = &e.payload {
                    for (i, &v) in s.iter().enumerate() {
                        totals[i] += v;
                    }
                }
            }
            for (t, &v) in totals.iter().enumerate() {
                ctx.emit(VertexIdx(t as u32), v as f64);
            }
            ctx.add_counter(Self::STABLE_TOTAL, totals.iter().sum());
        }
        ctx.vote_to_halt();
    }

    // `tweets_col` is configuration, and `label` is rebuilt at superstep
    // 0 of every timestep: the previous labels and the series so far are
    // the state.
    fn save_state(&self, buf: &mut bytes::BytesMut) {
        self.prev_label.encode(buf);
        self.stable_per_transition.encode(buf);
    }

    fn restore_state(&mut self, buf: &mut bytes::Bytes) -> Result<(), WireError> {
        self.prev_label = wire::get_sized_vec(buf, self.prev_label.len(), "community labels")?;
        self.stable_per_transition = Vec::decode(buf)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    /// The previous labels, then the stability series, each behind a `u32`
    /// count.
    #[test]
    fn state_bytes_are_pinned() {
        let p = CommunityEvolution {
            tweets_col: 0,
            label: vec![7, 7],
            prev_label: vec![5, u64::MAX],
            stable_per_transition: vec![3],
        };
        let mut want = vec![2, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0];
        want.extend([0xFF; 8]);
        want.extend([1, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(crate::saved_state(&p), want);
    }

    #[test]
    fn msg_roundtrip() {
        for m in [
            CommunityMsg::Relax(VertexIdx(3), 99),
            CommunityMsg::Series(vec![1, 2, 3]),
            CommunityMsg::Series(vec![]),
        ] {
            let mut buf = BytesMut::new();
            m.encode(&mut buf);
            assert_eq!(CommunityMsg::decode(&mut buf.freeze()).unwrap(), m);
        }
    }
}
