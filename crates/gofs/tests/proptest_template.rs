//! Property tests for the template codec, each against an oracle written
//! here: a raw encoder of the `template.bin` payload and the adjacency the
//! template's definition implies. Decoding must reproduce the columns and
//! the adjacency, re-encode to the same bytes, and turn every corruption —
//! a repeated id, an out-of-range endpoint, a short column — into
//! `GofsError::Corrupt`, never a panic.

use bytes::{BufMut, Bytes, BytesMut};
use proptest::prelude::*;
use tempograph_core::wire::put_str;
use tempograph_core::{AttrType, EdgeIdx, Schema, VertexIdx};
use tempograph_gofs::codec::{decode_template, encode_template, frame, put_schema};
use tempograph_gofs::GofsError;

const MAGIC: [u8; 4] = *b"GFTP";

/// The payload layout: name, directed flag, vertex and edge schemas, the
/// vertex id column, then `(id, source, target)` per edge.
fn payload(directed: bool, vertex_ids: &[u64], edges: &[(u64, u32, u32)]) -> Vec<u8> {
    let mut buf = BytesMut::new();
    put_str(&mut buf, "prop");
    buf.put_u8(directed as u8);
    let mut vs = Schema::new();
    vs.add("x", AttrType::Double);
    let mut es = Schema::new();
    es.add("w", AttrType::TextList);
    put_schema(&mut buf, &vs);
    put_schema(&mut buf, &es);
    buf.put_u32_le(vertex_ids.len() as u32);
    for &id in vertex_ids {
        buf.put_u64_le(id);
    }
    buf.put_u32_le(edges.len() as u32);
    for &(id, s, d) in edges {
        buf.put_u64_le(id);
        buf.put_u32_le(s);
        buf.put_u32_le(d);
    }
    buf.to_vec()
}

/// Every vertex's `(neighbour, edge)` list, sorted: out-edges, plus
/// in-edges when undirected.
fn adjacency(n: usize, directed: bool, edges: &[(u64, u32, u32)]) -> Vec<Vec<(u32, u32)>> {
    let mut adj = vec![Vec::new(); n];
    for (e, &(_, s, d)) in edges.iter().enumerate() {
        adj[s as usize].push((d, e as u32));
        if !directed {
            adj[d as usize].push((s, e as u32));
        }
    }
    for list in &mut adj {
        list.sort_unstable();
    }
    adj
}

/// `raw` with repeats dropped, first occurrence kept: distinct ids in a
/// random order (or ascending, the writer's fast path, when `ascending`).
fn distinct(raw: &[u64], ascending: bool) -> Vec<u64> {
    let mut seen = std::collections::BTreeSet::new();
    let mut ids: Vec<u64> = raw.iter().copied().filter(|&id| seen.insert(id)).collect();
    if ascending {
        ids.sort_unstable();
    }
    ids
}

/// A random template's columns: distinct vertex and edge ids, endpoints in
/// range (self-loops and parallel edges included).
fn arb_columns() -> impl Strategy<Value = (bool, Vec<u64>, Vec<(u64, u32, u32)>)> {
    (
        any::<bool>(),
        any::<bool>(),
        proptest::collection::vec(0u64..200, 1..40),
        proptest::collection::vec((any::<u64>(), any::<u32>(), any::<u32>()), 0..80),
    )
        .prop_map(|(directed, ascending, raw_vids, raw_edges)| {
            let vids = distinct(&raw_vids, ascending);
            let n = vids.len() as u32;
            let eids = distinct(
                &raw_edges.iter().map(|e| e.0).collect::<Vec<_>>(),
                ascending,
            );
            let edges = eids
                .iter()
                .zip(&raw_edges)
                .map(|(&id, &(_, s, d))| (id, s % n, d % n))
                .collect();
            (directed, vids, edges)
        })
}

fn is_corrupt(data: Bytes) -> bool {
    matches!(decode_template(data), Err(GofsError::Corrupt(_)))
}

proptest! {
    /// Columns and adjacency come back exactly, the template re-encodes to
    /// the same bytes, and id lookups invert the id columns.
    #[test]
    fn decode_matches_the_columns_and_the_adjacency((directed, vids, edges) in arb_columns()) {
        let data = frame(MAGIC, &payload(directed, &vids, &edges));
        let t = decode_template(data.clone()).unwrap();
        prop_assert_eq!(t.directed(), directed);
        prop_assert_eq!(t.num_vertices(), vids.len());
        prop_assert_eq!(t.num_edges(), edges.len());
        let adj = adjacency(vids.len(), directed, &edges);
        for (i, &id) in vids.iter().enumerate() {
            let v = VertexIdx(i as u32);
            prop_assert_eq!(t.vertex_id(v), id);
            prop_assert_eq!(t.vertex_by_id(id).unwrap(), v);
            let got: Vec<(u32, u32)> = t.neighbors(v).iter().map(|n| (n.vertex.0, n.edge.0)).collect();
            prop_assert_eq!(&got, &adj[i]);
        }
        for (i, &(id, s, d)) in edges.iter().enumerate() {
            let e = EdgeIdx(i as u32);
            prop_assert_eq!(t.edge_id(e), id);
            prop_assert_eq!(t.edge_by_id(id).unwrap(), e);
            prop_assert_eq!(t.endpoints(e), (VertexIdx(s), VertexIdx(d)));
        }
        prop_assert_eq!(&encode_template(&t)[..], &data[..]);
    }

    /// A repeated vertex or edge id and an out-of-range endpoint are each
    /// `Corrupt`.
    #[test]
    fn repeated_ids_and_stray_endpoints_are_corrupt(
        (directed, vids, edges) in arb_columns(),
        pick in any::<u64>(),
        over in 0u32..5,
    ) {
        if vids.len() >= 2 {
            let mut dup = vids.clone();
            let i = (pick % dup.len() as u64) as usize;
            dup[(i + 1) % vids.len()] = dup[i];
            prop_assert!(is_corrupt(frame(MAGIC, &payload(directed, &dup, &edges))));
        }
        if edges.len() >= 2 {
            let mut dup = edges.clone();
            let i = (pick % dup.len() as u64) as usize;
            dup[(i + 1) % edges.len()].0 = dup[i].0;
            prop_assert!(is_corrupt(frame(MAGIC, &payload(directed, &vids, &dup))));
        }
        if !edges.is_empty() {
            let mut stray = edges.clone();
            let i = (pick % stray.len() as u64) as usize;
            let far = vids.len() as u32 + over;
            if pick & 1 == 0 { stray[i].1 = far } else { stray[i].2 = far }
            prop_assert!(is_corrupt(frame(MAGIC, &payload(directed, &vids, &stray))));
        }
    }

    /// Any truncation of the payload (re-framed, so the checksum passes)
    /// is `Corrupt`; so are trailing bytes. Any byte flip decodes or errs.
    #[test]
    fn short_columns_are_corrupt_and_flips_never_panic(
        (directed, vids, edges) in arb_columns(),
        cut_frac in 0.0f64..1.0,
        flip_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let good = payload(directed, &vids, &edges);
        let keep = (good.len() as f64 * cut_frac) as usize;
        prop_assert!(is_corrupt(frame(MAGIC, &good[..keep])));
        let mut longer = good.clone();
        longer.push(0);
        prop_assert!(is_corrupt(frame(MAGIC, &longer)));
        let mut warped = good;
        let at = ((warped.len() - 1) as f64 * flip_frac) as usize;
        warped[at] ^= flip;
        let _ = decode_template(frame(MAGIC, &warped));
    }
}
