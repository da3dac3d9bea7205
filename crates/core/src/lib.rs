//! # tempograph-core — time-series graph data model
//!
//! This crate implements the data model from *"Distributed Programming over
//! Time-series Graphs"* (IPDPS 2015), §II.A:
//!
//! A collection of time-series graphs is `Γ = ⟨Ĝ, G, t0, δ⟩` where
//!
//! * `Ĝ` — the [`GraphTemplate`]: the time-invariant topology plus the
//!   *schema* (typed attribute names) for vertices and edges;
//! * `G` — an ordered set of [`GraphInstance`]s capturing the time-variant
//!   attribute *values* for every vertex and edge of the template;
//! * `t0` — the timestamp of the first instance; and
//! * `δ` — the constant period between successive instances.
//!
//! Every instance `gᵗ` has exactly `|V̂|` vertex value rows and `|Ê|` edge
//! value rows: topology never changes across instances. Slow topology churn
//! is modelled with an `isExists` boolean attribute (see
//! [`GraphTemplate::IS_EXISTS`]).
//!
//! Instances store attribute values **columnar** — one dense, typed column
//! per attribute, indexed by the template's dense vertex/edge index — which
//! keeps scans cache-friendly and serialisation trivial.
//!
//! ```
//! use tempograph_core::{TemplateBuilder, AttrType, TimeSeriesCollection};
//!
//! let mut b = TemplateBuilder::new("toy", false);
//! b.vertex_schema().add("load", AttrType::Double);
//! b.edge_schema().add("latency", AttrType::Double);
//! b.add_vertex(10); b.add_vertex(20);
//! b.add_edge(1, 10, 20).unwrap();
//! let template = b.finalize().unwrap();
//!
//! let mut coll = TimeSeriesCollection::new(template.into(), 0, 300);
//! let mut g0 = coll.new_instance();
//! g0.edge_f64_mut("latency").unwrap()[0] = 12.5;
//! coll.push(g0).unwrap();
//! assert_eq!(coll.len(), 1);
//! ```

#![forbid(unsafe_code)]

pub mod attr;
pub mod collection;
pub mod delta;
pub mod error;
pub mod ids;
pub mod instance;
pub mod kernels;
pub mod template;
pub mod text;

pub use attr::{AttrDef, AttrType, AttrValue, Schema};
pub use collection::TimeSeriesCollection;
pub use error::{CoreError, Result};
pub use ids::{EdgeIdx, VertexIdx};
pub use instance::{Column, GraphInstance};
pub use template::{GraphTemplate, Neighbor, TemplateBuilder};
pub use text::TextRows;
