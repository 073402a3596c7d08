//! Matrix exponentials: the analytic core of the Heat Kernel diffusion
//! (paper §3.1, `H_t = exp(−tL)`).
//!
//! These are the exact side of the heat-kernel checks, for small dense
//! matrices:
//!
//! * [`expm_dense`] — scaling-and-squaring with a Taylor core;
//! * [`expm_sym`] — spectral route `V·diag(e^λ)·Vᵀ` for symmetric
//!   matrices via the Jacobi eigensolver (used by the regularized-SDP
//!   machinery, which needs matrix functions anyway).
//!
//! The sparse approximation `exp(−tA)·v`, whose truncation degree is
//! an implicit regularization parameter, is the Chebyshev recurrence
//! of [`crate::chebyshev`].

use crate::dense::DenseMatrix;
use crate::jacobi::SymEig;
use crate::{LinalgError, Result};

/// Dense matrix exponential by scaling and squaring with a Taylor core.
///
/// Accurate to ~1e-13 for the modest norms seen with graph Laplacians
/// scaled by diffusion times. Errors if the matrix is not square.
pub fn expm_dense(a: &DenseMatrix) -> Result<DenseMatrix> {
    if !a.is_square() {
        return Err(LinalgError::InvalidArgument("matrix must be square"));
    }
    let n = a.nrows();
    // Scale so the scaled norm is ≤ 0.5, then square back.
    let norm = a.max_abs() * n as f64; // cheap upper bound on ‖A‖₁
    let s = if norm > 0.5 {
        (norm / 0.5).log2().ceil() as u32
    } else {
        0
    };
    let mut b = a.clone();
    b.scale(1.0 / (1u64 << s) as f64);

    // Taylor series to machine precision for ‖B‖ ≤ 0.5 (20 terms ample).
    let mut result = DenseMatrix::identity(n);
    let mut term = DenseMatrix::identity(n);
    for k in 1..=20 {
        term = term.matmul(&b)?;
        term.scale(1.0 / k as f64);
        result.axpy(1.0, &term)?;
        if term.max_abs() < 1e-17 {
            break;
        }
    }
    // Square back s times.
    for _ in 0..s {
        result = result.matmul(&result)?;
    }
    Ok(result)
}

/// `exp(A)` for symmetric `A` via full eigendecomposition.
pub fn expm_sym(a: &DenseMatrix) -> Result<DenseMatrix> {
    Ok(SymEig::new(a)?.matrix_function(f64::exp))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expm_of_zero_is_identity() {
        let z = DenseMatrix::zeros(3, 3);
        let e = expm_dense(&z).unwrap();
        let mut d = e;
        d.axpy(-1.0, &DenseMatrix::identity(3)).unwrap();
        assert!(d.max_abs() < 1e-14);
    }

    #[test]
    fn expm_of_diagonal() {
        let a = DenseMatrix::from_diag(&[1.0, -2.0, 0.5]);
        let e = expm_dense(&a).unwrap();
        assert!((e[(0, 0)] - 1.0f64.exp()).abs() < 1e-12);
        assert!((e[(1, 1)] - (-2.0f64).exp()).abs() < 1e-12);
        assert!((e[(2, 2)] - 0.5f64.exp()).abs() < 1e-12);
        assert!(e[(0, 1)].abs() < 1e-13);
    }

    #[test]
    fn expm_nilpotent_closed_form() {
        // exp([[0,1],[0,0]]) = [[1,1],[0,1]].
        let a = DenseMatrix::from_rows(&[&[0.0, 1.0], &[0.0, 0.0]]);
        let e = expm_dense(&a).unwrap();
        assert!((e[(0, 0)] - 1.0).abs() < 1e-14);
        assert!((e[(0, 1)] - 1.0).abs() < 1e-14);
        assert!(e[(1, 0)].abs() < 1e-14);
    }

    #[test]
    fn expm_dense_matches_expm_sym() {
        let mut a =
            DenseMatrix::from_rows(&[&[0.3, -1.2, 0.4], &[-1.2, 0.9, 0.2], &[0.4, 0.2, -0.5]]);
        a.symmetrize();
        let e1 = expm_dense(&a).unwrap();
        let e2 = expm_sym(&a).unwrap();
        let mut d = e1;
        d.axpy(-1.0, &e2).unwrap();
        assert!(d.max_abs() < 1e-10);
    }

    #[test]
    fn expm_additivity_in_time() {
        // exp(2A) = exp(A)·exp(A).
        let mut a = DenseMatrix::from_rows(&[&[0.1, 0.7], &[0.7, -0.4]]);
        a.symmetrize();
        let e1 = expm_dense(&a).unwrap();
        let mut a2 = a.clone();
        a2.scale(2.0);
        let e2 = expm_dense(&a2).unwrap();
        let sq = e1.matmul(&e1).unwrap();
        let mut d = sq;
        d.axpy(-1.0, &e2).unwrap();
        assert!(d.max_abs() < 1e-11);
    }

    #[test]
    fn validation_errors() {
        let rect = DenseMatrix::zeros(2, 3);
        assert!(expm_dense(&rect).is_err());
    }
}
