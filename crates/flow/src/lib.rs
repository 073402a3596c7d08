//! # acir-flow
//!
//! Flow-based partitioning substrate for the ACIR reproduction of
//! Mahoney, *"Approximate Computation and Implicit Regularization for
//! Very Large-scale Data Analysis"* (PODS 2012), case study §3.2.
//!
//! The paper's Figure 1 compares a spectral method against
//! **Metis+MQI**, a flow-based method. This crate supplies the flow
//! half:
//!
//! * [`maxflow`] — Dinic's max-flow/min-cut on weighted directed
//!   networks, the primitive everything else reduces to;
//! * [`push_relabel`] — Goldberg–Tarjan push–relabel with gap and
//!   global-relabel heuristics: an independent second implementation,
//!   cross-checked against Dinic on random networks;
//! * [`mod@mqi`] — MQI (Lang–Rao), which improves a given cut to the
//!   best-quotient subset on its small side by repeated max-flows;
//! * [`improve`] — Andersen–Lang FlowImprove (paper ref \[3\]), the
//!   locally-biased flow method that §3.3's footnote predicts should
//!   out-"nice" local spectral methods on expander-like data.
//!
//! Flow-based methods "effectively embed the data into an ℓ₁ metric
//! space" (§3.2) — the implicit geometry responsible for their sharp,
//! quota-hitting cuts in Figure 1(a) and their poorer "niceness" in
//! Figures 1(b–c).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod improve;
pub mod maxflow;
pub mod mqi;
pub mod push_relabel;

pub use improve::{flow_improve, FlowImproveResult};
pub use maxflow::{FlowNetwork, MaxFlowResult};
pub use mqi::{mqi, mqi_ctx, MqiResult};
pub use push_relabel::PushRelabelNetwork;

/// Errors from the flow layer.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowError {
    /// Invalid argument (bad node ids, empty sets, etc.).
    InvalidArgument(String),
    /// Underlying graph error.
    Graph(acir_graph::GraphError),
}

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowError::InvalidArgument(m) => write!(f, "invalid argument: {m}"),
            FlowError::Graph(e) => write!(f, "graph: {e}"),
        }
    }
}

impl std::error::Error for FlowError {}

impl From<acir_graph::GraphError> for FlowError {
    fn from(e: acir_graph::GraphError) -> Self {
        FlowError::Graph(e)
    }
}

/// Result alias for flow operations.
pub type Result<T> = std::result::Result<T, FlowError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(FlowError::InvalidArgument("x".into())
            .to_string()
            .contains("x"));
        let ge: FlowError = acir_graph::GraphError::BadWeight(1.0).into();
        assert!(ge.to_string().contains("graph"));
    }
}
