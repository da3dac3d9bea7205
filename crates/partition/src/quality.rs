//! Partitioning quality metrics: edge cut and load balance.

use crate::Partitioning;
use tempograph_core::GraphTemplate;

/// Number of edges whose endpoints land in different partitions.
pub fn edge_cut(template: &GraphTemplate, p: &Partitioning) -> usize {
    template
        .edges()
        .filter(|&e| {
            let (s, d) = template.endpoints(e);
            p.assignment[s.idx()] != p.assignment[d.idx()]
        })
        .count()
}

/// Fraction of edges cut, in `[0, 1]`. This is the paper's
/// "percentage of edges that are cut across graph partitions" table.
pub fn cut_fraction(template: &GraphTemplate, p: &Partitioning) -> f64 {
    if template.num_edges() == 0 {
        return 0.0;
    }
    edge_cut(template, p) as f64 / template.num_edges() as f64
}

/// Load balance: `max partition size / ideal size`. METIS's default load
/// factor constraint is 1.03; a perfectly balanced partitioning returns 1.0.
pub fn balance(template: &GraphTemplate, p: &Partitioning) -> f64 {
    let sizes = p.sizes();
    let max = *sizes.iter().max().unwrap_or(&0) as f64;
    let ideal = template.num_vertices() as f64 / p.k as f64;
    if ideal == 0.0 {
        return 1.0;
    }
    max / ideal
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempograph_core::TemplateBuilder;

    fn square() -> GraphTemplate {
        // 0-1, 1-2, 2-3, 3-0 cycle
        let mut b = TemplateBuilder::new("sq", false);
        for i in 0..4 {
            b.add_vertex(i);
        }
        for i in 0..4u64 {
            b.add_edge(i, i, (i + 1) % 4).unwrap();
        }
        b.finalize().unwrap()
    }

    #[test]
    fn cut_of_opposite_halves() {
        let t = square();
        // {0,1} vs {2,3}: edges 1-2 and 3-0 are cut.
        let p = Partitioning {
            assignment: vec![0, 0, 1, 1],
            k: 2,
        };
        assert_eq!(edge_cut(&t, &p), 2);
        assert!((cut_fraction(&t, &p) - 0.5).abs() < 1e-12);
        assert!((balance(&t, &p) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cut_of_single_partition_is_zero() {
        let t = square();
        let p = Partitioning {
            assignment: vec![0; 4],
            k: 1,
        };
        assert_eq!(edge_cut(&t, &p), 0);
        assert_eq!(cut_fraction(&t, &p), 0.0);
    }

    #[test]
    fn imbalance_detected() {
        let t = square();
        let p = Partitioning {
            assignment: vec![0, 0, 0, 1],
            k: 2,
        };
        assert!((balance(&t, &p) - 1.5).abs() < 1e-12); // 3 / 2
    }

    #[test]
    fn empty_graph_edge_cases() {
        let t = TemplateBuilder::new("e", false).finalize().unwrap();
        let p = Partitioning {
            assignment: vec![],
            k: 2,
        };
        assert_eq!(cut_fraction(&t, &p), 0.0);
        assert_eq!(balance(&t, &p), 1.0);
    }
}
