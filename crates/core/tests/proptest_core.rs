//! Property-based tests for the core data model.

use proptest::prelude::*;
use std::sync::Arc;
use tempograph_core::{
    AttrType, Column, CoreError, GraphInstance, TemplateBuilder, TextRows, TimeSeriesCollection,
    VertexIdx,
};

fn arb_attr_type() -> impl Strategy<Value = AttrType> {
    prop_oneof![
        Just(AttrType::Long),
        Just(AttrType::Double),
        Just(AttrType::Bool),
        Just(AttrType::Text),
        Just(AttrType::LongList),
        Just(AttrType::TextList),
    ]
}

/// One value of type `ty`, as a column of one row.
fn arb_value_of(ty: AttrType) -> BoxedStrategy<Column> {
    match ty {
        AttrType::Long => any::<i64>().prop_map(|x| Column::Long(vec![x])).boxed(),
        AttrType::Double => any::<f64>()
            .prop_filter("finite", |x| x.is_finite())
            .prop_map(|x| Column::Double(vec![x]))
            .boxed(),
        AttrType::Bool => any::<bool>().prop_map(|x| Column::Bool(vec![x])).boxed(),
        AttrType::Text => "[a-z#]{0,12}"
            .prop_map(|s| Column::Text(TextRows::from_rows([[s.as_str()]])))
            .boxed(),
        AttrType::LongList => proptest::collection::vec(any::<i64>(), 0..6)
            .prop_map(|l| Column::LongList(vec![l]))
            .boxed(),
        AttrType::TextList => proptest::collection::vec("[a-z#]{0,8}".prop_map(String::from), 0..4)
            .prop_map(|l| Column::TextList(TextRows::from_rows([l.iter().map(String::as_str)])))
            .boxed(),
    }
}

/// Empty strings, ASCII, and two-, three- and four-byte characters.
const WORDS: [&str; 7] = ["", "a", "#tag", "é", "日本", "𝄞x", "naïve #é"];

fn text_rows(rows: &[Vec<usize>]) -> Vec<Vec<&'static str>> {
    rows.iter()
        .map(|r| r.iter().map(|&w| WORDS[w]).collect())
        .collect()
}

fn flat(rows: &[Vec<&str>]) -> TextRows {
    TextRows::from_rows(rows.iter().map(|r| r.iter().copied()))
}

proptest! {
    /// Splicing patch rows into a flat column equals flattening the rows
    /// patched one by one — with none, some or all rows patched, empty
    /// rows and empty strings — and a malformed patch is refused before
    /// any splice, as a `DeltaMismatch`.
    #[test]
    fn splice_equals_flattening_the_patched_rows(
        base in proptest::collection::vec(proptest::collection::vec(0usize..7, 0..4), 0..12),
        fresh in proptest::collection::vec(proptest::collection::vec(0usize..7, 0..4), 0..12),
        chosen in proptest::collection::vec(any::<bool>(), 12),
        mode in 0u8..3,
    ) {
        let (base, fresh) = (text_rows(&base), text_rows(&fresh));
        let rows: Vec<u32> = (0..base.len())
            .filter(|&r| mode == 1 || (mode == 2 && chosen[r]))
            .map(|r| r as u32)
            .collect();
        let patch: Vec<Vec<&str>> = (0..rows.len())
            .map(|k| fresh.get(k).cloned().unwrap_or_default())
            .collect();
        let mut want = base.clone();
        for (&r, row) in rows.iter().zip(&patch) {
            want[r as usize] = row.clone();
        }
        let (n, base) = (base.len() as u32, Column::TextList(flat(&base)));
        let patch = Column::TextList(flat(&patch));
        prop_assert_eq!(base.patched(&rows, &patch).unwrap(), Column::TextList(flat(&want)));

        let refused = |rows: &[u32]| matches!(base.patched(rows, &patch), Err(CoreError::DeltaMismatch(_)));
        if let Some((&last, init)) = rows.split_last() {
            prop_assert!(refused(init), "length mismatch");
            let past = [init, &[n]].concat();
            prop_assert!(refused(&past), "row out of range");
            if let Some(&first) = init.first() {
                let swapped = [&[last], &init[1..], &[first]].concat();
                prop_assert!(refused(&swapped), "not ascending");
            }
        }
    }

    /// Patching one row then gathering it back returns exactly what was
    /// stored, for every attribute type, and leaves the other rows be.
    #[test]
    fn column_set_get_roundtrip(
        ty in arb_attr_type(),
        len in 1usize..40,
        idx_frac in 0.0f64..1.0,
    ) {
        let empty = Column::new(ty, len);
        let idx = ((len - 1) as f64 * idx_frac) as usize;
        let runner = &mut proptest::test_runner::TestRunner::deterministic();
        let value = arb_value_of(ty).new_tree(runner).unwrap().current();
        let col = empty.patched(&[idx as u32], &value).unwrap();
        prop_assert_eq!(col.gather_rows(&[idx as u32]), value);
        prop_assert_eq!(col.len(), len);
        let others: Vec<u32> = (0..len as u32).filter(|&r| r != idx as u32).collect();
        prop_assert_eq!(col.gather_rows(&others), empty.gather_rows(&others));
    }

    /// Collections only accept the exact periodic timestamp sequence.
    #[test]
    fn collection_timestamps_are_periodic(
        t0 in -1_000_000i64..1_000_000,
        period in 1i64..10_000,
        n in 1usize..20,
    ) {
        let mut b = TemplateBuilder::new("p", false);
        b.add_vertex(0);
        let t = Arc::new(b.finalize().unwrap());
        let mut c = TimeSeriesCollection::new(t, t0, period);
        for i in 0..n {
            prop_assert_eq!(c.next_timestamp(), t0 + period * i as i64);
            c.push(c.new_instance()).unwrap();
        }
        prop_assert_eq!(c.len(), n);
    }

    /// CSR adjacency is consistent: undirected degree sums to 2|E|, every
    /// adjacency entry's edge connects back, and neighbor lists are sorted.
    #[test]
    fn template_csr_invariants(
        n in 2u64..60,
        edges in proptest::collection::vec((0u64..60, 0u64..60), 0..120),
    ) {
        let mut b = TemplateBuilder::new("g", false);
        for v in 0..n {
            b.add_vertex(v);
        }
        for (eid, (s, d)) in edges.into_iter().enumerate() {
            let (s, d) = (s % n, d % n);
            b.add_edge(eid as u64, s, d).unwrap();
        }
        let g = b.finalize().unwrap();
        let total_deg: usize = g.vertices().map(|v| g.degree(v)).sum();
        // Self-loops appear twice in undirected adjacency too.
        prop_assert_eq!(total_deg, 2 * g.num_edges());
        for v in g.vertices() {
            let ns = g.neighbors(v);
            for w in ns.windows(2) {
                prop_assert!((w[0].vertex, w[0].edge) <= (w[1].vertex, w[1].edge));
            }
            for nb in ns {
                let (a, bnd) = g.endpoints(nb.edge);
                prop_assert!(a == v || bnd == v, "edge must touch its source");
            }
        }
    }

    /// Instances always validate against the template that built them, and
    /// all columns match the vertex/edge counts.
    #[test]
    fn fresh_instances_validate(
        nv in 1u64..40,
        ne_frac in 0usize..40,
        n_attrs in 0usize..4,
    ) {
        let mut b = TemplateBuilder::new("g", true);
        for (i, ty) in [AttrType::Long, AttrType::Double, AttrType::TextList, AttrType::Bool]
            .into_iter()
            .take(n_attrs)
            .enumerate()
        {
            b.vertex_schema().add(format!("a{i}"), ty);
            b.edge_schema().add(format!("b{i}"), ty);
        }
        for v in 0..nv {
            b.add_vertex(v);
        }
        for e in 0..ne_frac.min((nv * nv) as usize) as u64 {
            b.add_edge(e, e % nv, (e * 7 + 1) % nv).unwrap();
        }
        let t = b.finalize().unwrap();
        let g = GraphInstance::new(&t, 123);
        prop_assert!(g.validate_against(&t).is_ok());
        for c in g.vertex_columns() {
            prop_assert_eq!(c.len(), t.num_vertices());
        }
        for c in g.edge_columns() {
            prop_assert_eq!(c.len(), t.num_edges());
        }
    }

    /// approx_diameter is a lower bound on the true diameter and at least
    /// the distance found by any BFS (sanity on paths where it is exact).
    #[test]
    fn path_diameter_exact(n in 2u64..80) {
        let mut b = TemplateBuilder::new("p", false);
        for v in 0..n {
            b.add_vertex(v);
        }
        for e in 0..n - 1 {
            b.add_edge(e, e, e + 1).unwrap();
        }
        let g = b.finalize().unwrap();
        prop_assert_eq!(g.approx_diameter(), (n - 1) as usize);
        let _ = VertexIdx(0);
    }
}
