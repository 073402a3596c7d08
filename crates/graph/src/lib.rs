//! # acir-graph
//!
//! Graph substrate for the ACIR reproduction of Mahoney, *"Approximate
//! Computation and Implicit Regularization for Very Large-scale Data
//! Analysis"* (PODS 2012).
//!
//! The paper's data model of interest (§2.1) is the *graph*: undirected,
//! weighted, typically sparse and poorly structured. This crate supplies:
//!
//! * an immutable CSR [`Graph`] with `u32` node ids and `f64` edge
//!   weights ([`csr`]), plus a mutable [`GraphBuilder`] ([`builder`]);
//! * traversal primitives — BFS, connected components, shortest paths —
//!   the "natural operations" of the geodesic view ([`traversal`]);
//! * a generator suite ([`gen`]) producing both the deterministic worst
//!   cases the paper cites (cockroach/stringy graphs for spectral,
//!   expanders for flow) and random families with the statistical
//!   properties of the social/information networks in Figure 1
//!   (heavy-tailed degrees, whiskers, planted communities);
//! * structural statistics ([`stats`]) and simple edge-list IO ([`io`]);
//! * locality-improving vertex reorderings ([`permute`]): reverse
//!   Cuthill–McKee and degree orderings with full inverse-mapping
//!   support, so results computed on a reordered graph map back to the
//!   original ids;
//! * an epoch-versioned snapshot layer ([`snapshot`]): immutable
//!   `Arc`-published [`GraphSnapshot`]s with delta records and
//!   permutation lineage, so readers pin a consistent graph while a
//!   writer applies deltas or relabeling compactions off to the side.
//!
//! All randomness flows through caller-supplied seeded RNGs; every
//! generator is deterministic given its seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod csr;
pub mod delta;
pub mod gen;
pub mod io;
pub mod permute;
pub mod result;
pub mod snapshot;
pub mod stats;
pub mod traversal;

pub use builder::GraphBuilder;
pub use csr::{Graph, NodeId, RowIter};
pub use delta::{compose_net_deltas, DeltaGraph, EdgeDelta, EdgeOp};
pub use permute::{bandwidth_stats, BandwidthStats, Permutation};
pub use result::NodeValued;
pub use snapshot::{compact_ordered, CompactionOrder, GraphSnapshot, SnapshotStore};

/// Errors produced by the graph substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// A node id is out of range for the graph.
    NodeOutOfRange {
        /// The offending node id.
        node: NodeId,
        /// Number of nodes in the graph.
        n: usize,
    },
    /// An edge weight was non-positive or non-finite.
    BadWeight(f64),
    /// Parse failure in graph IO.
    Parse {
        /// 1-based line number of the failure.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// Underlying IO failure (message only, to keep the error `Clone`).
    Io(String),
    /// Invalid argument to a generator or algorithm.
    InvalidArgument(String),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, n } => {
                write!(f, "node {node} out of range for graph with {n} nodes")
            }
            GraphError::BadWeight(w) => write!(f, "edge weight {w} must be positive and finite"),
            GraphError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
            GraphError::Io(msg) => write!(f, "io error: {msg}"),
            GraphError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl std::error::Error for GraphError {}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e.to_string())
    }
}

/// Result alias for graph operations.
pub type Result<T> = std::result::Result<T, GraphError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = GraphError::NodeOutOfRange { node: 9, n: 4 };
        assert!(e.to_string().contains("node 9"));
        assert!(GraphError::BadWeight(-1.0).to_string().contains("-1"));
        let e = GraphError::Parse {
            line: 3,
            message: "bad".into(),
        };
        assert!(e.to_string().contains("line 3"));
        assert!(GraphError::Io("x".into()).to_string().contains("io"));
        assert!(GraphError::InvalidArgument("y".into())
            .to_string()
            .contains("y"));
    }

    #[test]
    fn io_error_converts() {
        let ioe = std::io::Error::new(std::io::ErrorKind::NotFound, "missing");
        let ge: GraphError = ioe.into();
        assert!(matches!(ge, GraphError::Io(_)));
    }
}
