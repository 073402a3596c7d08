//! # acir-spectral
//!
//! Spectral graph machinery for the ACIR reproduction of Mahoney,
//! *"Approximate Computation and Implicit Regularization for Very
//! Large-scale Data Analysis"* (PODS 2012), case study §3.1.
//!
//! * [`laplacian`] — the matrices of §3.1: combinatorial `L = D − A`,
//!   normalized `𝓛 = I − D^{−1/2} A D^{−1/2}`, the random-walk
//!   transition matrix `M = A D^{−1}`, and the lazy walk
//!   `W_α = αI + (1−α)M`; all sparse, none densified.
//! * [`fiedler`] — the exact leading nontrivial eigenvector `v₂`
//!   (Problem (3)): dense Jacobi for small graphs, Lanczos with
//!   deflation of the trivial eigenvector for large ones.
//! * [`diffusion`] — the three approximation dynamics of §3.1 (Heat
//!   Kernel, PageRank, Lazy Random Walk), each with its
//!   "aggressiveness" parameter (`t`, `γ`, step count) exposed, plus
//!   seed-vector utilities.
//! * [`ranking`] — spectral ranking (PageRank scores, eigenvector
//!   centrality) and rank-comparison utilities (Kendall tau, top-k
//!   overlap) for the "approximations rank almost as well" claims.
//! * [`embedding`] — k-dimensional spectral embeddings, k-means, and
//!   k-way spectral clustering (the "classification and clustering"
//!   uses of the leading eigenvectors).
//! * [`streaming`] — PageRank estimation over an edge stream with
//!   one-step-per-pass random walks and `O(walkers)` memory (the §3.3
//!   database-environment primitive of ref \[37\]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diffusion;
pub mod embedding;
pub mod fiedler;
pub mod laplacian;
pub mod ranking;
pub mod streaming;

pub use diffusion::{
    heat_kernel_chebyshev, heat_kernel_chebyshev_budgeted, lazy_walk, pagerank, pagerank_budgeted,
    pagerank_power, pagerank_power_ctx, Seed,
};
pub use embedding::{adjusted_rand_index, kmeans, spectral_clustering, spectral_embedding};
pub use fiedler::{fiedler_vector, FiedlerResult};
pub use laplacian::{
    adjacency_matrix, combinatorial_laplacian, lazy_walk_matrix, normalized_adjacency,
    normalized_laplacian, random_walk_matrix, trivial_eigenvector,
};
pub use streaming::{streaming_pagerank, streaming_pagerank_of_graph, StreamingPageRank};

/// Errors from the spectral layer.
#[derive(Debug, Clone, PartialEq)]
pub enum SpectralError {
    /// Underlying linear algebra failure.
    Linalg(acir_linalg::LinalgError),
    /// Underlying graph failure.
    Graph(acir_graph::GraphError),
    /// Invalid argument (e.g. parameter out of range).
    InvalidArgument(String),
}

impl std::fmt::Display for SpectralError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpectralError::Linalg(e) => write!(f, "linalg: {e}"),
            SpectralError::Graph(e) => write!(f, "graph: {e}"),
            SpectralError::InvalidArgument(m) => write!(f, "invalid argument: {m}"),
        }
    }
}

impl std::error::Error for SpectralError {}

impl From<acir_linalg::LinalgError> for SpectralError {
    fn from(e: acir_linalg::LinalgError) -> Self {
        SpectralError::Linalg(e)
    }
}

impl From<acir_graph::GraphError> for SpectralError {
    fn from(e: acir_graph::GraphError) -> Self {
        SpectralError::Graph(e)
    }
}

/// Result alias for spectral operations.
pub type Result<T> = std::result::Result<T, SpectralError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_conversion_and_display() {
        let le: SpectralError = acir_linalg::LinalgError::Singular.into();
        assert!(le.to_string().contains("linalg"));
        let ge: SpectralError = acir_graph::GraphError::BadWeight(0.0).into();
        assert!(ge.to_string().contains("graph"));
        assert!(SpectralError::InvalidArgument("z".into())
            .to_string()
            .contains("z"));
    }
}
