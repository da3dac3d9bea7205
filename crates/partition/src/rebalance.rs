//! Subgraph rebalancing — the paper's §IV.D research direction.
//!
//! *"Partitions which are active at a given timestep can pass some of their
//! subgraphs to an idle partition if the potential improvements in average
//! CPU utilization outweighs the cost of rebalancing. … partitioning
//! produces a long tail of small subgraphs in each partition and one large
//! subgraph dominates. So these small subgraphs could be candidates for
//! moving."*
//!
//! This module implements that proposal as an offline analyzer: given the
//! measured per-partition compute cost of a finished run, it greedily moves
//! *small* subgraphs (never each partition's dominant one) from overloaded
//! to underloaded partitions, attributing cost to a subgraph proportionally
//! to its vertex count, and predicts the makespan improvement. The ablation
//! bench applies the plan and re-runs to check the prediction.

use crate::{PartitionedGraph, Partitioning, SubgraphId};
use std::fmt;

/// A rebalance plan referenced something the graph doesn't have. Returned
/// by [`RebalancePlan::apply`] instead of silently producing a corrupt
/// assignment (plans may come from stale ledger records whose partition
/// count no longer matches the dataset).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RebalanceError {
    /// A move targets a partition index ≥ the partitioning's `k`.
    PartitionOutOfRange {
        /// The subgraph the offending move relocates.
        subgraph: SubgraphId,
        /// The out-of-range target partition.
        to: u16,
        /// The partition count the graph actually has.
        k: usize,
    },
    /// A move names a subgraph index the graph doesn't contain.
    UnknownSubgraph {
        /// The unknown subgraph id.
        subgraph: SubgraphId,
        /// How many subgraphs the graph actually has.
        count: usize,
    },
}

impl fmt::Display for RebalanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RebalanceError::PartitionOutOfRange { subgraph, to, k } => write!(
                f,
                "move of subgraph {} targets partition {to} but only {k} partitions exist",
                subgraph.0
            ),
            RebalanceError::UnknownSubgraph { subgraph, count } => write!(
                f,
                "move names subgraph {} but only {count} subgraphs exist",
                subgraph.0
            ),
        }
    }
}

impl std::error::Error for RebalanceError {}

/// One proposed move.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Move {
    /// Subgraph to relocate.
    pub subgraph: SubgraphId,
    /// Current partition.
    pub from: u16,
    /// Proposed partition.
    pub to: u16,
    /// Estimated cost (ns) this move shifts.
    pub est_cost: u64,
}

/// A rebalancing proposal.
#[derive(Clone, Debug, Default)]
pub struct RebalancePlan {
    /// Moves, in application order.
    pub moves: Vec<Move>,
    /// Makespan (max per-partition cost) before, in the cost model's unit.
    pub makespan_before: u64,
    /// Predicted makespan after applying all moves.
    pub makespan_after: u64,
}

impl RebalancePlan {
    /// Predicted speedup factor.
    pub fn predicted_speedup(&self) -> f64 {
        if self.makespan_after == 0 {
            return 1.0;
        }
        self.makespan_before as f64 / self.makespan_after as f64
    }

    /// Apply the plan to a partitioning, producing the new vertex→partition
    /// assignment (subgraph members move wholesale).
    ///
    /// Every move is validated against the graph before any is applied, so
    /// an `Err` leaves no partial state behind.
    pub fn apply(&self, pg: &PartitionedGraph) -> Result<Partitioning, RebalanceError> {
        let k = pg.partitioning().k;
        let count = pg.subgraphs().len();
        for mv in &self.moves {
            if mv.subgraph.idx() >= count {
                return Err(RebalanceError::UnknownSubgraph {
                    subgraph: mv.subgraph,
                    count,
                });
            }
            if usize::from(mv.to) >= k {
                return Err(RebalanceError::PartitionOutOfRange {
                    subgraph: mv.subgraph,
                    to: mv.to,
                    k,
                });
            }
        }
        let mut assignment = pg.partitioning().assignment.clone();
        for mv in &self.moves {
            for &v in pg.subgraph(mv.subgraph).vertices() {
                assignment[v.idx()] = mv.to;
            }
        }
        Ok(Partitioning { assignment, k })
    }
}

/// Where [`suggest_rebalance_from`] gets its per-subgraph cost estimates.
#[derive(Clone, Copy, Debug)]
pub enum CostSource<'a> {
    /// Measured per-partition totals (e.g. compute nanoseconds from a
    /// run's metrics), split across each partition's subgraphs
    /// proportionally to vertex count — the best estimate available
    /// without per-subgraph instrumentation.
    PartitionProportional(&'a [u64]),
    /// Measured per-subgraph totals as `(subgraph, cost)` pairs — e.g. the
    /// run ledger's compute attribution table
    /// (`RunRecord::per_subgraph_costs` in `tempograph-ledger`).
    /// Subgraphs absent from the list cost 0; duplicate ids are summed.
    MeasuredPerSubgraph(&'a [(SubgraphId, u64)]),
}

/// Propose up to `max_moves` subgraph relocations given measured
/// per-partition costs (e.g. compute nanoseconds from a run's metrics).
///
/// Cost attribution: a partition's measured cost is split across its
/// subgraphs proportionally to vertex count — the best estimate available
/// without per-subgraph instrumentation, and conservative because the
/// dominant subgraph (which the paper says should *not* move) absorbs most
/// of the cost and is excluded from candidacy.
pub fn suggest_rebalance(
    pg: &PartitionedGraph,
    per_partition_cost: &[u64],
    max_moves: usize,
) -> RebalancePlan {
    suggest_rebalance_from(
        pg,
        CostSource::PartitionProportional(per_partition_cost),
        max_moves,
    )
}

/// Propose up to `max_moves` subgraph relocations from an explicit cost
/// source (see [`CostSource`]).
///
/// With [`CostSource::MeasuredPerSubgraph`] the greedy analysis operates
/// on *measured* costs: a partition's load is the sum of its subgraphs'
/// measured costs, and the excluded dominant subgraph is the costliest one
/// rather than the largest — closing the loop the paper's §IV.D sketches
/// (move decisions driven by observed activity, not topology proxies).
pub fn suggest_rebalance_from(
    pg: &PartitionedGraph,
    costs: CostSource<'_>,
    max_moves: usize,
) -> RebalancePlan {
    let k = pg.num_partitions();
    let n_sg = pg.subgraphs().len();
    let mut sg_cost: Vec<u64> = vec![0; n_sg];
    let mut dominant: Vec<Option<SubgraphId>> = vec![None; k];
    let mut load: Vec<u64> = vec![0; k];
    match costs {
        CostSource::PartitionProportional(per_partition_cost) => {
            assert_eq!(per_partition_cost.len(), k, "one cost per partition");
            load.copy_from_slice(per_partition_cost);
            for p in 0..k as u16 {
                let ids = pg.subgraphs_of_partition(p);
                let total_vertices: usize =
                    ids.iter().map(|&id| pg.subgraph(id).num_vertices()).sum();
                if total_vertices == 0 {
                    continue;
                }
                for &id in ids {
                    let share = pg.subgraph(id).num_vertices() as u128;
                    sg_cost[id.idx()] = ((per_partition_cost[p as usize] as u128 * share)
                        / total_vertices as u128) as u64;
                }
                dominant[p as usize] = ids
                    .iter()
                    .copied()
                    .max_by_key(|&id| pg.subgraph(id).num_vertices());
            }
        }
        CostSource::MeasuredPerSubgraph(pairs) => {
            for &(id, cost) in pairs {
                assert!(
                    id.idx() < n_sg,
                    "measured cost names subgraph {} but only {n_sg} exist",
                    id.0
                );
                sg_cost[id.idx()] += cost;
            }
            for p in 0..k as u16 {
                let ids = pg.subgraphs_of_partition(p);
                load[p as usize] = ids.iter().map(|&id| sg_cost[id.idx()]).sum();
                // Costliest subgraph stays put; vertex count breaks ties so
                // the choice is deterministic under equal measurements.
                dominant[p as usize] = ids
                    .iter()
                    .copied()
                    .max_by_key(|&id| (sg_cost[id.idx()], pg.subgraph(id).num_vertices()));
            }
        }
    }
    let makespan_before = load.iter().copied().max().unwrap_or(0);

    let mut moved: Vec<bool> = vec![false; n_sg];
    let mut moves = Vec::new();
    for _ in 0..max_moves {
        let busiest = (0..k).max_by_key(|&p| load[p]).expect("k ≥ 1") as u16;
        let idlest = (0..k).min_by_key(|&p| load[p]).expect("k ≥ 1") as u16;
        if busiest == idlest {
            break;
        }
        let gap = load[busiest as usize] - load[idlest as usize];
        // Best candidate: the movable subgraph whose cost is closest to
        // half the gap (moving more than the gap inverts the imbalance).
        let candidate = pg
            .subgraphs_of_partition(busiest)
            .iter()
            .copied()
            .filter(|&id| Some(id) != dominant[busiest as usize] && !moved[id.idx()])
            .filter(|&id| sg_cost[id.idx()] > 0 && sg_cost[id.idx()] < gap)
            .min_by_key(|&id| (gap / 2).abs_diff(sg_cost[id.idx()]));
        let Some(id) = candidate else { break };
        let cost = sg_cost[id.idx()];
        load[busiest as usize] -= cost;
        load[idlest as usize] += cost;
        moved[id.idx()] = true;
        moves.push(Move {
            subgraph: id,
            from: busiest,
            to: idlest,
            est_cost: cost,
        });
    }

    RebalancePlan {
        moves,
        makespan_before,
        makespan_after: load.into_iter().max().unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discover_subgraphs;
    use std::sync::Arc;
    use tempograph_core::TemplateBuilder;

    /// Partition 0: one big subgraph (8 vertices) + two small (2 each);
    /// partition 1: one small subgraph (2 vertices).
    fn fixture() -> PartitionedGraph {
        let mut b = TemplateBuilder::new("rb", false);
        for i in 0..14 {
            b.add_vertex(i);
        }
        let mut eid = 0;
        // big component 0..8 in partition 0
        for i in 0..7u64 {
            b.add_edge(eid, i, i + 1).unwrap();
            eid += 1;
        }
        // small components {8,9} and {10,11} in partition 0
        b.add_edge(eid, 8, 9).unwrap();
        eid += 1;
        b.add_edge(eid, 10, 11).unwrap();
        eid += 1;
        // small component {12,13} in partition 1
        b.add_edge(eid, 12, 13).unwrap();
        let t = Arc::new(b.finalize().unwrap());
        let mut assignment = vec![0u16; 14];
        assignment[12] = 1;
        assignment[13] = 1;
        discover_subgraphs(t, Partitioning { assignment, k: 2 })
    }

    #[test]
    fn moves_small_subgraphs_not_the_dominant_one() {
        let pg = fixture();
        // Partition 0 is 6× busier.
        let plan = suggest_rebalance(&pg, &[600, 100], 4);
        assert!(!plan.moves.is_empty());
        for mv in &plan.moves {
            assert_eq!(mv.from, 0);
            assert_eq!(mv.to, 1);
            // Never the 8-vertex dominant subgraph.
            assert!(pg.subgraph(mv.subgraph).num_vertices() <= 2);
        }
        assert!(plan.makespan_after < plan.makespan_before);
        assert!(plan.predicted_speedup() > 1.0);
    }

    #[test]
    fn apply_produces_valid_partitioning() {
        let pg = fixture();
        let plan = suggest_rebalance(&pg, &[600, 100], 4);
        let newp = plan.apply(&pg).unwrap();
        newp.validate(pg.template()).unwrap();
        // Moved subgraphs' vertices now live in the target partition.
        for mv in &plan.moves {
            for &v in pg.subgraph(mv.subgraph).vertices() {
                assert_eq!(newp.assignment[v.idx()], mv.to);
            }
        }
    }

    #[test]
    fn balanced_load_yields_empty_plan() {
        let pg = fixture();
        let plan = suggest_rebalance(&pg, &[100, 100], 4);
        assert!(plan.moves.is_empty());
        assert_eq!(plan.predicted_speedup(), 1.0);
    }

    #[test]
    fn respects_max_moves() {
        let pg = fixture();
        let plan = suggest_rebalance(&pg, &[1000, 10], 1);
        assert!(plan.moves.len() <= 1);
    }

    #[test]
    fn apply_rejects_out_of_range_partition() {
        let pg = fixture();
        let plan = RebalancePlan {
            moves: vec![Move {
                subgraph: SubgraphId(0),
                from: 0,
                to: 7,
                est_cost: 1,
            }],
            ..Default::default()
        };
        match plan.apply(&pg) {
            Err(RebalanceError::PartitionOutOfRange { subgraph, to, k }) => {
                assert_eq!(subgraph, SubgraphId(0));
                assert_eq!(to, 7);
                assert_eq!(k, 2);
            }
            other => panic!("expected PartitionOutOfRange, got {other:?}"),
        }
    }

    #[test]
    fn apply_rejects_unknown_subgraph() {
        let pg = fixture();
        let n = pg.subgraphs().len();
        let plan = RebalancePlan {
            moves: vec![Move {
                subgraph: SubgraphId(n as u32),
                from: 0,
                to: 1,
                est_cost: 1,
            }],
            ..Default::default()
        };
        match plan.apply(&pg) {
            Err(RebalanceError::UnknownSubgraph { subgraph, count }) => {
                assert_eq!(subgraph, SubgraphId(n as u32));
                assert_eq!(count, n);
            }
            other => panic!("expected UnknownSubgraph, got {other:?}"),
        }
    }

    #[test]
    fn measured_costs_override_the_vertex_count_proxy() {
        let pg = fixture();
        // Under the proxy, the 8-vertex component dominates partition 0 and
        // may not move. Measured costs say otherwise: one *small* component
        // is the hot one, so the big component becomes movable and the hot
        // small one must stay.
        let hot_small = pg
            .subgraphs_of_partition(0)
            .iter()
            .copied()
            .find(|&id| pg.subgraph(id).num_vertices() == 2)
            .unwrap();
        let measured: Vec<(SubgraphId, u64)> = pg
            .subgraphs()
            .iter()
            .map(|sg| {
                let id = sg.id();
                let cost = if id == hot_small { 900 } else { 50 };
                (id, cost)
            })
            .collect();
        let plan = suggest_rebalance_from(&pg, CostSource::MeasuredPerSubgraph(&measured), 4);
        assert!(!plan.moves.is_empty());
        for mv in &plan.moves {
            assert_ne!(
                mv.subgraph, hot_small,
                "the measured-dominant subgraph stays"
            );
            assert_eq!(mv.est_cost, 50, "moves carry measured, not proxy, costs");
        }
        assert!(plan.makespan_after < plan.makespan_before);
        plan.apply(&pg).unwrap().validate(pg.template()).unwrap();
    }

    #[test]
    fn proportional_source_matches_legacy_entry_point() {
        let pg = fixture();
        let a = suggest_rebalance(&pg, &[600, 100], 4);
        let b = suggest_rebalance_from(&pg, CostSource::PartitionProportional(&[600, 100]), 4);
        assert_eq!(a.moves, b.moves);
        assert_eq!(a.makespan_before, b.makespan_before);
        assert_eq!(a.makespan_after, b.makespan_after);
    }
}
