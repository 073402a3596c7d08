//! # acir-linalg
//!
//! Dense and sparse linear-algebra substrate for the ACIR reproduction of
//! Mahoney, *"Approximate Computation and Implicit Regularization for Very
//! Large-scale Data Analysis"* (PODS 2012).
//!
//! The paper's case studies need a specific, modest slice of numerical
//! linear algebra, all of which is implemented here from scratch:
//!
//! * dense vectors and matrices with BLAS-1/2/3 style kernels
//!   ([`vector`], [`dense`]);
//! * sparse CSR matrices and matrix–vector products that never densify
//!   ([`sparse`]);
//! * an "exact" symmetric eigensolver (cyclic Jacobi, [`jacobi`]) — the
//!   black-box solver of the paper's footnote 14;
//! * the Power Method of footnote 15 with explicit iteration-count control
//!   ([`power`]) — early stopping is one of the paper's regularization
//!   knobs, so the iteration budget is a first-class parameter;
//! * thick-restart Lanczos with full reorthogonalization and a
//!   symmetric tridiagonal QL eigensolver ([`lanczos`], [`tridiag`]) for
//!   a few extreme eigenpairs of large sparse operators;
//! * direct and iterative linear solvers (Cholesky, LU, conjugate
//!   gradient, Jacobi/Gauss–Seidel) ([`solve`]);
//! * dense matrix exponentials ([`expm`]) — the exact heat kernel
//!   `exp(-tL)` of §3.1, the reference the approximate routes are
//!   checked against;
//! * Chebyshev approximation of matrix functions ([`chebyshev`]) — the
//!   sparse heat kernel: one matvec per degree, and the degree is yet
//!   another truncation knob (a degree-d expansion of a delta seed
//!   reaches only d hops).
//!
//! Everything is `f64`; matrices are row-major; no external linear-algebra
//! dependencies are used.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chebyshev;
pub mod dense;
pub mod expm;
pub mod fault;
pub mod jacobi;
pub mod lanczos;
pub mod layout;
pub mod power;
pub mod solve;
pub mod sparse;
pub mod tridiag;
pub mod vector;

pub use dense::DenseMatrix;
pub use fault::FaultyOp;
pub use jacobi::SymEig;
pub use layout::{MergePlan, SellCSigma, SparseLayout, UnrolledCsr};
pub use power::{power_method, power_method_budgeted, power_method_ctx, PowerOptions, PowerResult};
pub use solve::{cg, cg_budgeted, cg_ctx, CgOptions, CgResult};
pub use sparse::CsrMatrix;

// Resilience-runtime vocabulary, re-exported so downstream crates can
// budget and match on outcomes without an explicit acir-runtime dep.
pub use acir_runtime::{
    Budget, Certificate, DivergenceCause, RetryPolicy, SolverOutcome, Workspace,
};

// SpMV layout policy vocabulary (lives in acir-exec so the runtime's
// KernelCtx can carry it), re-exported for the same reason.
pub use acir_exec::{current_spmv_layout, spmv_layout_scope, SpmvLayout, SpmvLayoutScope};

/// Shared scratch pool behind the plain public entry points of the dense
/// iterative kernels ([`power_method`], [`cg`],
/// [`chebyshev::ChebyshevExpansion::apply`]): their `O(n)` recurrence
/// buffers survive across calls, so steady-state invocations stop
/// hitting the allocator. A `_ctx` call can draw from another pool
/// instead ([`acir_runtime::KernelCtx::with_scratch_pool`]).
pub(crate) static SCRATCH: acir_runtime::WorkspacePool<Workspace> =
    acir_runtime::WorkspacePool::new();

/// Errors produced by the linear-algebra substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Operand dimensions do not match the operation.
    DimensionMismatch {
        /// Expected dimension.
        expected: usize,
        /// Dimension actually supplied.
        found: usize,
    },
    /// The matrix is not (numerically) positive definite.
    NotPositiveDefinite,
    /// The matrix is singular to working precision.
    Singular,
    /// An iterative method failed to converge within its budget.
    NotConverged {
        /// Iterations performed before giving up.
        iterations: usize,
        /// Residual norm at the last iteration.
        residual: f64,
    },
    /// Invalid argument (e.g. non-square matrix where square is required).
    InvalidArgument(&'static str),
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::DimensionMismatch { expected, found } => {
                write!(f, "dimension mismatch: expected {expected}, found {found}")
            }
            LinalgError::NotPositiveDefinite => write!(f, "matrix is not positive definite"),
            LinalgError::Singular => write!(f, "matrix is singular to working precision"),
            LinalgError::NotConverged {
                iterations,
                residual,
            } => write!(
                f,
                "iterative method did not converge after {iterations} iterations (residual {residual:.3e})"
            ),
            LinalgError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Result alias for fallible linear-algebra operations.
pub type Result<T> = std::result::Result<T, LinalgError>;

/// A real linear operator `y = A x` on `R^n`.
///
/// The iterative algorithms in this crate ([`power_method`],
/// [`lanczos::smallest_eigenpairs_restarted`], [`cg`]) are written
/// against this trait so that graph Laplacians and other matrix-free
/// operators from the higher-level crates can be plugged in without ever
/// materializing a dense matrix — the property that makes the Power
/// Method viable at web scale (paper §3.1: "it can be implemented with
/// simple matrix-vector multiplications, thus not damaging the sparsity
/// of the matrix").
pub trait LinOp {
    /// Dimension `n` of the (square) operator.
    fn dim(&self) -> usize;

    /// Compute `y = A x`. `x` and `y` have length [`LinOp::dim`];
    /// implementations must overwrite `y` completely.
    fn apply(&self, x: &[f64], y: &mut [f64]);

    /// Convenience: allocate and return `A x`.
    fn apply_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.dim()];
        self.apply(x, &mut y);
        y
    }
}

impl LinOp for DenseMatrix {
    fn dim(&self) -> usize {
        debug_assert_eq!(self.nrows(), self.ncols());
        self.nrows()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.gemv(1.0, x, 0.0, y);
    }
}

impl LinOp for CsrMatrix {
    fn dim(&self) -> usize {
        debug_assert_eq!(self.nrows(), self.ncols());
        self.nrows()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.matvec(x, y);
    }
}

/// A scaled-and-shifted wrapper `alpha * A + beta * I` around any operator.
///
/// Used for spectral shifts (e.g. turning "smallest eigenvalue of `L`" into
/// "largest eigenvalue of `cI - L`" for the power method) without copies.
pub struct ShiftedOp<'a, A: LinOp + ?Sized> {
    inner: &'a A,
    /// Multiplier on the wrapped operator.
    pub alpha: f64,
    /// Multiplier on the identity.
    pub beta: f64,
}

impl<'a, A: LinOp + ?Sized> ShiftedOp<'a, A> {
    /// Wrap `inner` as `alpha * inner + beta * I`.
    pub fn new(inner: &'a A, alpha: f64, beta: f64) -> Self {
        Self { inner, alpha, beta }
    }
}

impl<A: LinOp + ?Sized> LinOp for ShiftedOp<'_, A> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.inner.apply(x, y);
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi = self.alpha * *yi + self.beta * *xi;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = LinalgError::DimensionMismatch {
            expected: 3,
            found: 5,
        };
        assert!(e.to_string().contains("expected 3"));
        let e = LinalgError::NotConverged {
            iterations: 10,
            residual: 0.5,
        };
        assert!(e.to_string().contains("10 iterations"));
        assert!(LinalgError::Singular.to_string().contains("singular"));
        assert!(LinalgError::NotPositiveDefinite
            .to_string()
            .contains("positive definite"));
        assert!(LinalgError::InvalidArgument("x").to_string().contains("x"));
    }

    #[test]
    fn shifted_op_applies_alpha_a_plus_beta_i() {
        // A = diag(1, 2); shifted = 2A + 3I = diag(5, 7).
        let a = DenseMatrix::from_rows(&[&[1.0, 0.0], &[0.0, 2.0]]);
        let s = ShiftedOp::new(&a, 2.0, 3.0);
        let y = s.apply_vec(&[1.0, 1.0]);
        assert_eq!(y, vec![5.0, 7.0]);
    }
}
