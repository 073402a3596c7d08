//! Exact solution of the paper's Problem (3): the leading nontrivial
//! eigenvector of the normalized Laplacian.
//!
//! ```text
//! minimize  xᵀ𝓛x   subject to  xᵀx = 1,  xᵀD^{1/2}1 = 0.
//! ```
//!
//! Two routes, switched on size (paper footnote 14: in small and medium
//! scale one calls a black-box "exact" solver):
//!
//! * `n ≤ DENSE_CUTOFF`: densify and run the Jacobi eigensolver;
//! * larger: thick-restart Lanczos on the sparse `𝓛` with the trivial
//!   eigenvector `D^{1/2}1` deflated out, run until the pair's true
//!   residual is below `1e-8`. Its basis has a fixed size, so the cost
//!   grows with the matvecs convergence needs, not with the square of a
//!   Krylov dimension.
//!
//! Both return the eigenvalue `λ₂` and unit eigenvector `v₂`, plus the
//! achieved Rayleigh quotient so callers can reason in
//! quality-of-approximation terms. [`fiedler_vector`] checks
//! `‖𝓛v₂ − λ₂v₂‖₂ ≤ 1e-8` on the pair it returns, on either route.

use crate::laplacian::{normalized_laplacian, trivial_eigenvector};
use crate::{Result, SpectralError};
use acir_graph::Graph;
use acir_linalg::lanczos::smallest_eigenpairs_restarted;
use acir_linalg::{vector, CsrMatrix, LinalgError, SymEig};

/// Cutoff below which the dense Jacobi route is used.
pub const DENSE_CUTOFF: usize = 384;

/// Residual `‖𝓛v₂ − λ₂v₂‖₂` every pair [`fiedler_vector`] returns meets.
const RESIDUAL_TOL: f64 = 1e-8;

/// The exact leading nontrivial eigenpair of the normalized Laplacian.
#[derive(Debug, Clone)]
pub struct FiedlerResult {
    /// `λ₂`, the smallest nontrivial eigenvalue.
    pub lambda2: f64,
    /// Unit-norm eigenvector `v₂` (defined up to sign).
    pub vector: Vec<f64>,
    /// The Rayleigh quotient `v₂ᵀ𝓛v₂` actually achieved (≈ `λ₂`).
    pub rayleigh: f64,
}

/// Compute the Fiedler pair of the normalized Laplacian.
///
/// Requires a connected graph (the deflation assumes a single trivial
/// eigenvector; on disconnected graphs `λ₂ = 0` and "the problem of
/// computing v₂ is not even well-posed", as the paper notes — callers
/// should extract the largest component first).
///
/// The returned pair satisfies `‖𝓛v₂ − λ₂v₂‖₂ ≤ 1e-8`, checked after
/// the final cleanup; otherwise (or if the Lanczos route reaches its
/// matvec cap) the call fails with [`LinalgError::NotConverged`].
pub fn fiedler_vector(g: &Graph) -> Result<FiedlerResult> {
    validate_fiedler(g)?;
    let nl = normalized_laplacian(g);
    let v1 = trivial_eigenvector(g);

    let (lambda2, mut v2) = if g.n() <= DENSE_CUTOFF {
        let eig = SymEig::new(&nl.to_dense())?;
        // Eigenvalues ascend; index 0 is the trivial 0 eigenvalue.
        (eig.eigenvalues[1], eig.eigenvector(1))
    } else {
        // CORE LOOP (delegated: the thick-restart recurrence lives in acir-linalg)
        let (vals, mut vecs) =
            smallest_eigenpairs_restarted(&nl, 1, std::slice::from_ref(&v1), RESIDUAL_TOL)?;
        (vals[0], vecs.swap_remove(0))
    };

    // Clean up: remove any residual trivial component and renormalize,
    // then certify the pair actually returned.
    vector::deflate(&mut v2, &v1);
    vector::normalize2(&mut v2);
    let residual = eigen_residual(&nl, lambda2, &v2);
    if residual.is_nan() || residual > RESIDUAL_TOL {
        return Err(LinalgError::NotConverged {
            iterations: 0,
            residual,
        }
        .into());
    }
    let rayleigh = nl.quad_form(&v2);
    Ok(FiedlerResult {
        lambda2,
        vector: v2,
        rayleigh,
    })
}

/// `‖𝓛v − θv‖₂`.
fn eigen_residual(nl: &CsrMatrix, theta: f64, v: &[f64]) -> f64 {
    let mut r = vec![0.0; v.len()];
    nl.matvec(v, &mut r);
    vector::axpy(-theta, v, &mut r);
    vector::norm2(&r)
}

/// Inputs [`fiedler_vector`] accepts: connected, at least two nodes.
fn validate_fiedler(g: &Graph) -> Result<()> {
    if g.n() < 2 {
        return Err(SpectralError::InvalidArgument(
            "fiedler_vector needs at least 2 nodes".into(),
        ));
    }
    if !acir_graph::traversal::is_connected(g) {
        return Err(SpectralError::InvalidArgument(
            "fiedler_vector requires a connected graph (extract the largest component first)"
                .into(),
        ));
    }
    Ok(())
}

/// Rayleigh quotient `xᵀ𝓛x / xᵀx` of an arbitrary vector against the
/// normalized Laplacian — the forward-error currency of §3.1 ("any
/// vector can be used with a quality-of-approximation loss that depends
/// on how far its Rayleigh quotient is from the Rayleigh quotient of
/// v₂").
///
/// Delegates to the operator-level
/// [`acir_linalg::power::rayleigh_quotient`] on the normalized
/// Laplacian; the zero vector is defined to have quotient 0 (rather
/// than the operator version's NaN) because callers probe truncated
/// diffusion vectors that may be identically zero.
pub fn rayleigh_quotient(g: &Graph, x: &[f64]) -> f64 {
    if vector::dot(x, x) == 0.0 {
        return 0.0;
    }
    let nl = normalized_laplacian(g);
    acir_linalg::power::rayleigh_quotient(&nl, x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use acir_graph::gen::deterministic::{barbell, complete, cycle, path};
    use acir_graph::Graph;

    #[test]
    fn complete_graph_lambda2() {
        // K_n: λ₂ = n/(n−1).
        let n = 6;
        let g = complete(n).unwrap();
        let f = fiedler_vector(&g).unwrap();
        assert!((f.lambda2 - n as f64 / (n as f64 - 1.0)).abs() < 1e-9);
        assert!((f.rayleigh - f.lambda2).abs() < 1e-9);
    }

    #[test]
    fn cycle_lambda2() {
        // C_n (2-regular): 𝓛 eigenvalues 1 − cos(2πk/n); λ₂ = 1 − cos(2π/n).
        let n = 10;
        let g = cycle(n).unwrap();
        let f = fiedler_vector(&g).unwrap();
        let expected = 1.0 - (2.0 * std::f64::consts::PI / n as f64).cos();
        assert!(
            (f.lambda2 - expected).abs() < 1e-9,
            "{} vs {expected}",
            f.lambda2
        );
    }

    #[test]
    fn vector_is_unit_and_orthogonal_to_trivial() {
        let g = path(12).unwrap();
        let f = fiedler_vector(&g).unwrap();
        assert!((vector::norm2(&f.vector) - 1.0).abs() < 1e-10);
        let v1 = trivial_eigenvector(&g);
        assert!(vector::dot(&f.vector, &v1).abs() < 1e-10);
    }

    #[test]
    fn barbell_fiedler_separates_cliques() {
        let g = barbell(8, 0).unwrap();
        let f = fiedler_vector(&g).unwrap();
        // All of clique A on one sign, all of clique B on the other.
        let sign_a = f.vector[0].signum();
        assert!((0..8).all(|i| f.vector[i].signum() == sign_a));
        assert!((8..16).all(|i| f.vector[i].signum() == -sign_a));
        // Small λ₂: there is a deep cut.
        assert!(f.lambda2 < 0.1, "λ₂ = {}", f.lambda2);
    }

    #[test]
    fn lanczos_route_matches_dense_route() {
        // A path has a simple (non-degenerate) λ₂, so the eigenvector is
        // unique up to sign and the two routes must align. (A cycle's λ₂
        // has multiplicity 2 — comparing eigenvectors there would test
        // basis choice, not correctness.)
        let n = 100;
        let g = path(n).unwrap();
        let nl = normalized_laplacian(&g);
        let v1 = trivial_eigenvector(&g);
        let dense = SymEig::new(&nl.to_dense()).unwrap();
        let (vals, vecs) =
            smallest_eigenpairs_restarted(&nl, 1, std::slice::from_ref(&v1), 1e-8).unwrap();
        assert!((vals[0] - dense.eigenvalues[1]).abs() < 1e-8);
        assert!(vector::alignment(&vecs[0], &dense.eigenvector(1)) > 1.0 - 1e-6);
    }

    #[test]
    fn large_graph_uses_lanczos_route() {
        let g = cycle(DENSE_CUTOFF + 50).unwrap();
        let f = fiedler_vector(&g).unwrap();
        let expected = 1.0 - (2.0 * std::f64::consts::PI / g.n() as f64).cos();
        assert!(
            (f.lambda2 - expected).abs() < 1e-7,
            "{} vs {expected}",
            f.lambda2
        );
    }

    #[test]
    fn rejects_degenerate_inputs() {
        let single = Graph::from_pairs(1, []).unwrap();
        assert!(fiedler_vector(&single).is_err());
        let disconnected = Graph::from_pairs(4, [(0, 1), (2, 3)]).unwrap();
        assert!(fiedler_vector(&disconnected).is_err());
    }

    #[test]
    fn rayleigh_quotient_bounds_lambda2() {
        let g = path(10).unwrap();
        let f = fiedler_vector(&g).unwrap();
        // Any vector orthogonal to v₁ has RQ ≥ λ₂; v₂ achieves it.
        let mut x: Vec<f64> = (0..10).map(|i| (i as f64).sin()).collect();
        let v1 = trivial_eigenvector(&g);
        vector::deflate(&mut x, &v1);
        assert!(rayleigh_quotient(&g, &x) >= f.lambda2 - 1e-10);
        assert_eq!(rayleigh_quotient(&g, &[0.0; 10]), 0.0);
    }
}
