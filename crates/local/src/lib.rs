//! # acir-local
//!
//! Strongly local diffusion algorithms — the ACIR reproduction of
//! Mahoney (PODS 2012) case study §3.3, "Computing locally-biased graph
//! partitions".
//!
//! Two philosophies, per the paper:
//!
//! * **Optimization approach** ([`mov`]) — the MOV locally-biased
//!   spectral program (Problem (8)): modify the global objective with a
//!   seed-correlation constraint and solve it exactly via a
//!   Personalized-PageRank-style linear system. Clean semantics, but
//!   the computation "touches all the nodes in the graph".
//! * **Operational approach** ([`mod@push`], [`mod@nibble`], [`hkrelax`]) — run
//!   truncated diffusions whose truncate-small-values-to-zero steps
//!   make the cost depend on the *output* size, not the graph size.
//!   These are the Andersen–Chung–Lang push algorithm for approximate
//!   PPR \[1\], Spielman–Teng truncated lazy random walks \[39\], and a
//!   truncated heat-kernel method in the spirit of Chung \[15\]. The
//!   truncation implicitly regularizes — the paper's central point —
//!   and every routine here reports its touched-node and work counters
//!   so experiments can measure the strong-locality claim directly.
//!
//! Fresh push ([`mod@push`]), residual repair ([`repair`]) and the
//! hub-sketch splice ([`sketch`]) share one push loop: each seeds or
//! loads a state, resumes the same recurrence from it, and harvests.
//!
//! All methods produce an embedding vector over (a subset of) nodes;
//! [`sweep`] turns any such vector into a cluster with a conductance
//! guarantee of Cheeger type.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hkrelax;
pub mod mov;
pub mod nibble;
pub mod push;
pub mod repair;
pub mod sketch;
pub mod sweep;

pub use acir_graph::NodeValued;
pub use hkrelax::{hk_relax, hk_relax_ctx, HkRelaxResult, HkWorkspace};
pub use mov::{mov_vector, MovResult};
pub use nibble::{nibble, nibble_ctx, NibbleResult};
pub use push::{ppr_push, ppr_push_ctx, ppr_push_ws, PushResult, PushWorkspace};
pub use repair::{
    delta_endpoints, delta_leaves_undisturbed, ppr_repair, ppr_repair_ctx, ppr_repair_relabeled,
    RepairRequest, RepairResult, DEFAULT_REPAIR_MASS_THRESHOLD,
};
pub use sketch::{
    build_hub_sketches, build_hub_sketches_ctx, build_sketches_for_hubs, ppr_push_spliced,
    ppr_push_spliced_ctx, relabel_sketch_set, repair_hub_sketches, HubSketch, SketchRepair,
    SketchSet, SpliceResult,
};
pub use sweep::{sweep_cut, sweep_cut_ctx, sweep_cut_sparse, sweep_cut_support, SweepResult};

/// Errors from the local-methods layer.
#[derive(Debug, Clone, PartialEq)]
pub enum LocalError {
    /// Invalid argument.
    InvalidArgument(String),
    /// Underlying spectral-layer error.
    Spectral(acir_spectral::SpectralError),
    /// Underlying linear algebra error.
    Linalg(acir_linalg::LinalgError),
}

impl std::fmt::Display for LocalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LocalError::InvalidArgument(m) => write!(f, "invalid argument: {m}"),
            LocalError::Spectral(e) => write!(f, "spectral: {e}"),
            LocalError::Linalg(e) => write!(f, "linalg: {e}"),
        }
    }
}

impl std::error::Error for LocalError {}

impl From<acir_spectral::SpectralError> for LocalError {
    fn from(e: acir_spectral::SpectralError) -> Self {
        LocalError::Spectral(e)
    }
}

impl From<acir_linalg::LinalgError> for LocalError {
    fn from(e: acir_linalg::LinalgError) -> Self {
        LocalError::Linalg(e)
    }
}

/// Result alias for local-method operations.
pub type Result<T> = std::result::Result<T, LocalError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_conversion() {
        assert!(LocalError::InvalidArgument("q".into())
            .to_string()
            .contains("q"));
        let se: LocalError = acir_spectral::SpectralError::InvalidArgument("x".into()).into();
        assert!(se.to_string().contains("spectral"));
        let le: LocalError = acir_linalg::LinalgError::Singular.into();
        assert!(le.to_string().contains("linalg"));
    }
}
