//! Property-based tests for the GoFS binary codec and slice format.

use bytes::BytesMut;
use proptest::prelude::*;
use tempograph_core::{AttrType, Column, Schema, TemplateBuilder};
use tempograph_gofs::codec::{
    decode_template, encode_template, frame, get_column, get_delta_column, get_schema, put_column,
    put_delta_column, put_schema, unframe,
};
use tempograph_gofs::slice::{decode_slice, encode_slice, SliceKey};
use tempograph_gofs::{DecodedColumn, Projection, SubgraphInstance};
use tempograph_partition::SubgraphId;

fn arb_column() -> impl Strategy<Value = Column> {
    prop_oneof![
        proptest::collection::vec(any::<i64>(), 0..50).prop_map(Column::Long),
        proptest::collection::vec(
            any::<f64>().prop_filter("no NaN eq issues", |x| !x.is_nan()),
            0..50
        )
        .prop_map(Column::Double),
        proptest::collection::vec(any::<bool>(), 0..70).prop_map(Column::Bool),
        proptest::collection::vec("[\\PC]{0,16}".prop_map(String::from), 0..20)
            .prop_map(Column::Text),
        proptest::collection::vec(proptest::collection::vec(any::<i64>(), 0..5), 0..15)
            .prop_map(Column::LongList),
        proptest::collection::vec(
            proptest::collection::vec("[a-z#0-9]{0,10}".prop_map(String::from), 0..4),
            0..12
        )
        .prop_map(Column::TextList),
    ]
}

proptest! {
    /// Every column round-trips exactly and consumes exactly its bytes.
    #[test]
    fn column_roundtrip(col in arb_column()) {
        let mut buf = BytesMut::new();
        put_column(&mut buf, &col);
        let mut bytes = buf.freeze();
        let back = get_column(&mut bytes).unwrap();
        prop_assert_eq!(back, DecodedColumn::from(col));
        prop_assert_eq!(bytes.len(), 0);
    }

    /// Sequences of columns decode in order (no framing bleed).
    #[test]
    fn column_sequences_roundtrip(cols in proptest::collection::vec(arb_column(), 0..6)) {
        let mut buf = BytesMut::new();
        for c in &cols {
            put_column(&mut buf, c);
        }
        let mut bytes = buf.freeze();
        for c in &cols {
            prop_assert_eq!(get_column(&mut bytes).unwrap(), DecodedColumn::from(c.clone()));
        }
        prop_assert_eq!(bytes.len(), 0);
    }

    /// Schemas with unique names round-trip.
    #[test]
    fn schema_roundtrip(names in proptest::collection::hash_set("[a-z]{1,10}", 0..8)) {
        let mut s = Schema::new();
        let types = [
            AttrType::Long, AttrType::Double, AttrType::Bool,
            AttrType::Text, AttrType::LongList, AttrType::TextList,
        ];
        for (i, name) in names.iter().enumerate() {
            s.add(name.clone(), types[i % types.len()]);
        }
        let mut buf = BytesMut::new();
        put_schema(&mut buf, &s);
        prop_assert_eq!(get_schema(&mut buf.freeze()).unwrap(), s);
    }

    /// Any single-byte corruption of a framed payload is detected (either
    /// by the checksum, magic, version or length checks).
    #[test]
    fn frame_detects_any_single_byte_flip(
        payload in proptest::collection::vec(any::<u8>(), 1..200),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let framed = frame(*b"TEST", &payload);
        let mut evil = framed.to_vec();
        let pos = ((evil.len() - 1) as f64 * pos_frac) as usize;
        evil[pos] ^= flip;
        prop_assert!(unframe(*b"TEST", &evil).is_err());
    }

    /// Any truncation of a framed payload is detected.
    #[test]
    fn frame_detects_truncation(
        payload in proptest::collection::vec(any::<u8>(), 1..200),
        keep_frac in 0.0f64..1.0,
    ) {
        let framed = frame(*b"TEST", &payload);
        let keep = ((framed.len() - 1) as f64 * keep_frac) as usize;
        prop_assert!(unframe(*b"TEST", &framed[..keep]).is_err());
    }

    /// Random templates survive the codec byte-for-byte semantically.
    #[test]
    fn template_roundtrip(
        n in 1u64..40,
        edges in proptest::collection::vec((0u64..40, 0u64..40), 0..80),
        directed in any::<bool>(),
    ) {
        let mut b = TemplateBuilder::new("prop", directed);
        b.vertex_schema().add("x", AttrType::Double);
        b.edge_schema().add("y", AttrType::TextList);
        for v in 0..n {
            b.add_vertex(v * 3 + 1); // non-dense external ids
        }
        for (i, (s, d)) in edges.iter().enumerate() {
            b.add_edge(i as u64, (s % n) * 3 + 1, (d % n) * 3 + 1).unwrap();
        }
        let t = b.finalize().unwrap();
        let back = decode_template(&encode_template(&t)).unwrap();
        prop_assert_eq!(back.num_vertices(), t.num_vertices());
        prop_assert_eq!(back.num_edges(), t.num_edges());
        prop_assert_eq!(back.directed(), t.directed());
        prop_assert_eq!(back.vertex_schema(), t.vertex_schema());
        prop_assert_eq!(back.edge_schema(), t.edge_schema());
        for v in t.vertices() {
            prop_assert_eq!(back.vertex_id(v), t.vertex_id(v));
            prop_assert_eq!(back.neighbors(v), t.neighbors(v));
        }
    }

    /// Slice files round-trip arbitrary projected instances — the input
    /// rows are the oracle.
    #[test]
    fn slice_roundtrip(
        n_sg in 1usize..4,
        n_ts in 1usize..6,
        t_start in 0usize..40,
        cols in proptest::collection::vec(arb_column(), 1..3),
        churn in proptest::collection::vec((0usize..50, any::<i64>()), 0..8),
    ) {
        let sg_ids: Vec<SubgraphId> = (0..n_sg as u32).map(SubgraphId).collect();
        let rows: Vec<Vec<Projection>> = (0..n_sg)
            .map(|sgi| {
                (0..n_ts)
                    .map(|toff| {
                        // Perturb a few rows per timestep so deltas are
                        // non-trivial (and differ per subgraph).
                        let mut my = cols.clone();
                        for &(at, val) in &churn {
                            if let Column::Long(v) = &mut my[0] {
                                if !v.is_empty() {
                                    let i = (at + toff + sgi) % v.len();
                                    v[i] = val;
                                }
                            }
                        }
                        Projection {
                            timestep: t_start + toff,
                            timestamp: (t_start + toff) as i64 * 10,
                            vertex_cols: my,
                            edge_cols: vec![],
                        }
                    })
                    .collect()
            })
            .collect();
        let data = encode_slice(2, SliceKey { bin: 1, pack: 3 }, &sg_ids, t_start, &rows);
        let back = decode_slice(&data).unwrap();
        prop_assert_eq!(back.partition, 2);
        prop_assert_eq!(back.n_timesteps, n_ts);
        for (i, sg) in sg_ids.iter().enumerate() {
            for (toff, row) in rows[i].iter().enumerate() {
                let got = back.get(*sg, t_start + toff).unwrap();
                prop_assert_eq!(&*got, &SubgraphInstance::from(row.clone()));
            }
        }
    }

    /// A delta record between any two same-shaped columns round-trips and
    /// consumes exactly its bytes (sparse or dense-fallback alike).
    #[test]
    fn delta_column_roundtrip(base in arb_column(), perm in any::<u64>()) {
        // Derive `cur` from `base` by perturbing a pseudo-random subset.
        let mut cur = base.clone();
        let n = cur.len();
        if n > 0 {
            match &mut cur {
                Column::Long(v) => {
                    for (i, x) in v.iter_mut().enumerate() {
                        if (perm >> (i % 64)) & 1 == 1 { *x = x.wrapping_add(7); }
                    }
                }
                Column::Double(v) => {
                    for (i, x) in v.iter_mut().enumerate() {
                        if (perm >> (i % 64)) & 1 == 1 { *x += 1.0; }
                    }
                }
                Column::Bool(v) => {
                    for (i, x) in v.iter_mut().enumerate() {
                        if (perm >> (i % 64)) & 1 == 1 { *x = !*x; }
                    }
                }
                Column::Text(v) => {
                    for (i, x) in v.iter_mut().enumerate() {
                        if (perm >> (i % 64)) & 1 == 1 { x.push('!'); }
                    }
                }
                Column::LongList(v) => {
                    for (i, x) in v.iter_mut().enumerate() {
                        if (perm >> (i % 64)) & 1 == 1 { x.push(9); }
                    }
                }
                Column::TextList(v) => {
                    for (i, x) in v.iter_mut().enumerate() {
                        if (perm >> (i % 64)) & 1 == 1 { x.push("z".into()); }
                    }
                }
            }
        }
        let mut buf = BytesMut::new();
        put_delta_column(&mut buf, &base, &cur);
        let mut bytes = buf.freeze();
        let back = get_delta_column(&mut bytes, &base.into()).unwrap();
        prop_assert_eq!(back, DecodedColumn::from(cur));
        prop_assert_eq!(bytes.len(), 0);
    }

    /// Corrupting a slice *behind the checksum* (flip a payload byte,
    /// re-frame so the checksum matches) never panics: decoding the slice
    /// and forcing every column of every cell either succeeds or yields a
    /// typed error.
    /// Truncating the payload always fails outright at decode.
    #[test]
    fn corrupted_payload_never_panics(
        n_ts in 2usize..5,
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
        cut in 1usize..40,
    ) {
        let sg_ids = vec![SubgraphId(0), SubgraphId(1)];
        let rows: Vec<Vec<Projection>> = (0..2)
            .map(|sgi| {
                (0..n_ts)
                    .map(|toff| Projection {
                        timestep: toff,
                        timestamp: toff as i64,
                        vertex_cols: vec![Column::Long(
                            (0..16).map(|i| (i + toff + sgi) as i64).collect(),
                        )],
                        edge_cols: vec![Column::Text(vec![format!("e{toff}")])],
                    })
                    .collect()
            })
            .collect();
        const MAGIC: [u8; 4] = *b"GFSL";
        let framed = encode_slice(0, SliceKey { bin: 0, pack: 0 }, &sg_ids, 0, &rows);
        let payload = unframe(MAGIC, &framed).unwrap();

        // Bit flip anywhere in the payload, checksum made valid again.
        let mut warped = payload.to_vec();
        let pos = ((warped.len() - 1) as f64 * pos_frac) as usize;
        warped[pos] ^= flip;
        if let Ok(slice) = decode_slice(&frame(MAGIC, &warped)) {
            for &sg in &slice.sg_ids.clone() {
                for t in slice.t_start..slice.t_start + slice.n_timesteps {
                    if let Ok(cell) = slice.get(sg, t) {
                        let _ = (cell.vertex_col(0), cell.edge_col(0)); // must not panic
                    }
                }
            }
        }

        // Truncation of the payload (any amount) is always rejected.
        let keep = payload.len().saturating_sub(cut).max(1);
        prop_assert!(decode_slice(&frame(MAGIC, &payload[..keep])).is_err());
    }
}
