//! # acir
//!
//! Umbrella crate of the ACIR project — a from-scratch Rust
//! reproduction of Michael W. Mahoney, *"Approximate Computation and
//! Implicit Regularization for Very Large-scale Data Analysis"*
//! (PODS 2012, arXiv:1203.0786).
//!
//! The paper's thesis: **approximate computation, in and of itself,
//! implicitly performs statistical regularization.** This workspace
//! builds every system the paper's three case studies rest on —
//! sparse linear algebra, graph generators, global and strongly local
//! diffusions, spectral and flow-based (Metis+MQI) partitioning, and
//! the regularized-SDP machinery — and regenerates the paper's
//! evaluation (Figure 1 and the in-text quantitative claims).
//!
//! ## Layout
//!
//! | crate | contents |
//! |-------|----------|
//! | `acir-linalg` | dense/sparse kernels, Jacobi & Lanczos eigensolvers, CG, matrix exponentials |
//! | `acir-graph` | CSR graphs, traversal, generators (incl. worst cases and the Figure 1 surrogate) |
//! | `acir-spectral` | Laplacians, Fiedler vectors, Heat-Kernel / PageRank / Lazy-Walk diffusions |
//! | `acir-local` | ACL push, Spielman–Teng Nibble, heat-kernel push, MOV, sweep cuts |
//! | `acir-flow` | Dinic max-flow, MQI, FlowImprove |
//! | `acir-partition` | conductance, multilevel partitioning, NCPs, niceness, Cheeger checks |
//! | `acir-regularize` | explicit regularization, the Problem (5) SDP, implicit↔explicit equivalence |
//! | `acir` (this) | curated [`prelude`], experiment framework, figure drivers |
//!
//! ## Quickstart
//!
//! ```
//! use acir::prelude::*;
//!
//! // A graph with two communities and a bottleneck.
//! let g = acir_graph::gen::deterministic::barbell(8, 0).unwrap();
//!
//! // Exact spectral partitioning finds the bottleneck (one of the two
//! // cliques; the eigenvector sign decides which).
//! let cut = spectral_bisect(&g).unwrap();
//! assert_eq!(cut.sweep.set.len(), 8);
//!
//! // ...and the strongly local push method finds the seed's own
//! // clique, touching only the neighborhood of its seed.
//! let ppr = ppr_push(&g, &[1], 0.05, 1e-6).unwrap();
//! let local = sweep_cut_support(&g, &ppr.to_dense(g.n()));
//! assert_eq!(local.set, (0..8).collect::<Vec<_>>());
//! assert!((local.conductance - cut.sweep.conductance).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiment;
pub mod figures;

/// Solver resilience vocabulary, re-exported from `acir-runtime`.
///
/// Budgets ([`Budget`](runtime::Budget)), structured outcomes
/// ([`SolverOutcome`](runtime::SolverOutcome)) with quality
/// [`Certificate`](runtime::Certificate)s, divergence guards, retry
/// policies, and the fault-injection harness. Every metered iterative
/// kernel in the workspace has a `*_ctx` entry point that takes a
/// [`KernelCtx`](runtime::KernelCtx) carrying this vocabulary;
/// truncation under a budget returns a *certified partial answer* — the
/// paper's implicitly regularized iterate — never a bare error.
pub mod runtime {
    pub use acir_runtime::fault::corrupt;
    pub use acir_runtime::{
        Backoff, Budget, BudgetMeter, Certificate, ConvergenceGuard, Diagnostics, DivergenceCause,
        Exhaustion, FaultConfig, FaultStream, GuardConfig, GuardVerdict, KernelCtx, RetryPolicy,
        SolverOutcome,
    };
}

/// Deterministic parallel execution, re-exported from `acir-exec`.
///
/// The scoped-thread [`ExecPool`](exec::ExecPool) every parallel kernel
/// in the workspace runs on. Work decomposition is always a pure
/// function of the input (never the thread count), so any result
/// computed on the pool is bit-identical from 1 to N threads; the
/// `ACIR_THREADS` environment variable steers the width globally.
pub mod exec {
    pub use acir_exec::{chunk_ranges, ExecPool, MAX_CHUNKS, THREADS_ENV};
}

/// The fault-tolerant PPR query engine, re-exported from `acir-serve`.
///
/// A long-running [`Engine`](serve::Engine) that answers seed→cluster
/// queries with admission control (bounded queue + work-token bucket)
/// and a degradation ladder: under overload, deadline pressure, or
/// injected faults it serves a coarser, *more* regularized answer —
/// never a timeout. Every response is certified. The deterministic
/// [`ChaosConfig`](serve::ChaosConfig) fault scheduler drives the
/// chaos test suite.
pub mod serve {
    pub use acir_serve::{
        Admission, ChaosConfig, CompactionSummary, DeltaSummary, Engine, EngineConfig, EngineStats,
        Overloaded, PublishPoint, Query, QueryOptions, RejectReason, Response, ResponseKind,
        SweepCut, WriteOp,
    };
}

/// Curated re-exports: the API surface the examples and experiment
/// binaries are written against.
pub mod prelude {
    pub use acir_exec::{ExecPool, THREADS_ENV};
    pub use acir_flow::{flow_improve, mqi, mqi_ctx};
    pub use acir_graph::gen;
    pub use acir_graph::{bandwidth_stats, Graph, GraphBuilder, NodeId, NodeValued, Permutation};
    pub use acir_local::push::{ppr_push, ppr_push_ctx, ppr_push_ws, PushResult, PushWorkspace};
    pub use acir_local::sweep::{set_conductance, sweep_cut, sweep_cut_sparse, sweep_cut_support};
    pub use acir_local::{hk_relax, hk_relax_ctx, mov_vector, nibble, nibble_ctx, HkWorkspace};
    pub use acir_partition::{
        cheeger_check, cluster_niceness, conductance, multilevel_bisect, ncp_local_spectral,
        ncp_local_spectral_budgeted, ncp_metis_mqi, refine_bisection, spectral_bisect,
        spectral_bisect_budgeted, spectral_bisect_ratio, spectral_bisect_truncated,
        whisker_union_envelope, whiskers, MultilevelOptions, NcpOptions,
    };
    pub use acir_regularize::{
        check_heat_kernel, check_lazy_walk, check_pagerank, solve_regularized_sdp, Regularizer,
        SpectralProblem,
    };
    pub use acir_runtime::{
        Budget, Certificate, GuardConfig, KernelCtx, RetryPolicy, SolverOutcome,
    };
    pub use acir_runtime::{StampedSet, StampedVec, Workspace, WorkspacePool};
    pub use acir_spectral::{
        fiedler_vector, heat_kernel_chebyshev, heat_kernel_chebyshev_budgeted, lazy_walk,
        normalized_laplacian, pagerank, pagerank_budgeted, pagerank_power, pagerank_power_ctx,
        spectral_clustering, spectral_embedding, streaming_pagerank_of_graph, Seed,
    };

    pub use crate::experiment::{ExperimentContext, TextTable};
}

/// Errors from the umbrella layer.
#[derive(Debug)]
pub enum AcirError {
    /// Any lower-layer error, boxed for uniformity at this level.
    Inner(Box<dyn std::error::Error + Send + Sync>),
    /// IO failure while writing experiment artifacts.
    Io(std::io::Error),
    /// A [`TextTable`](experiment::TextTable) row whose cell count
    /// disagrees with its header.
    TableArity {
        /// Number of columns the header declares.
        expected: usize,
        /// Number of cells the offending row carried.
        got: usize,
    },
}

impl std::fmt::Display for AcirError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AcirError::Inner(e) => write!(f, "{e}"),
            AcirError::Io(e) => write!(f, "io: {e}"),
            AcirError::TableArity { expected, got } => {
                write!(
                    f,
                    "table row arity mismatch: expected {expected} cells, got {got}"
                )
            }
        }
    }
}

impl std::error::Error for AcirError {}

impl From<std::io::Error> for AcirError {
    fn from(e: std::io::Error) -> Self {
        AcirError::Io(e)
    }
}

macro_rules! from_inner {
    ($($ty:ty),+) => {$(
        impl From<$ty> for AcirError {
            fn from(e: $ty) -> Self {
                AcirError::Inner(Box::new(e))
            }
        }
    )+};
}

from_inner!(
    acir_graph::GraphError,
    acir_linalg::LinalgError,
    acir_spectral::SpectralError,
    acir_local::LocalError,
    acir_flow::FlowError,
    acir_partition::PartitionError,
    acir_regularize::RegularizeError
);

/// Result alias for umbrella operations.
pub type Result<T> = std::result::Result<T, AcirError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_conversions() {
        let e: AcirError = acir_graph::GraphError::BadWeight(0.0).into();
        assert!(e.to_string().contains("weight"));
        let e: AcirError = std::io::Error::other("x").into();
        assert!(e.to_string().contains("io"));
        let e: AcirError = acir_partition::PartitionError::InvalidArgument("y".into()).into();
        assert!(e.to_string().contains("y"));
    }

    #[test]
    fn prelude_is_usable() {
        use crate::prelude::*;
        let g = gen::deterministic::barbell(4, 0).unwrap();
        let phi = conductance(&g, &[0, 1, 2, 3]).unwrap();
        assert!(phi < 0.1);
    }
}
