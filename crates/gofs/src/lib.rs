//! # tempograph-gofs — GoFS-style slice storage for time-series graphs
//!
//! GoFFish stores time-series graphs in **GoFS**, a distributed graph file
//! system (paper §IV.A, [18]): each host holds its partition's data as
//! *slice files* on local disk, grouped by a **temporal packing** factor
//! (10 instances per slice in the paper) and a **subgraph binning** factor
//! (up to 5 subgraphs per slice), "to leverage data locality when
//! incrementally loading time-series graphs from disk at runtime".
//!
//! This crate reproduces that storage layer on a local filesystem — one
//! directory per partition stands in for one host's disk:
//!
//! * [`codec`] — a from-scratch binary format on `bytes` (magic, version,
//!   FNV-1a checksums); no serialisation framework is used;
//! * [`view::SubgraphInstance`] — an instance *projected* onto one subgraph:
//!   vertex attribute rows in local-position order, edge rows in
//!   [`Subgraph::edge_pos`](tempograph_partition::Subgraph::edge_pos) order;
//! * [`slice`] — the slice-file format: `(partition, bin, pack)` →
//!   projected instances for ≤ `binning` subgraphs × ≤ `packing` timesteps;
//! * [`store`] — dataset directory layout, template/partitioning
//!   persistence, [`store::GofsWriter`] / [`store::GofsStore`];
//! * [`loader`] — [`loader::InstanceLoader`], the lazy per-partition reader
//!   whose on-demand slice loads produce the every-`packing`-timesteps
//!   latency spikes visible in the paper's Fig. 6.

#![forbid(unsafe_code)]

pub mod codec;
pub mod error;
pub mod loader;
pub mod slice;
pub mod store;
pub mod validate;
pub mod view;

pub use error::{GofsError, Result};
pub use loader::{InstanceLoader, LoaderStats};
pub use slice::{SliceData, SliceKey};
pub use store::{DatasetMeta, GofsStore, GofsWriter};
pub use validate::{validate_dataset, DatasetStats};
pub use view::{DecodedColumn, Projection, SubgraphInstance};
