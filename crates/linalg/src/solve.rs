//! Direct and iterative linear solvers.
//!
//! * Dense Cholesky and LU with partial pivoting for the small reference
//!   systems (exact PageRank resolvents, MOV reference solutions).
//! * Conjugate gradient for large sparse SPD systems — the workhorse
//!   behind the MOV locally-biased spectral method (§3.3) and exact
//!   PageRank on big graphs. CG's iteration budget is, once again, an
//!   early-stopping regularization knob, so it is exposed.
//! * Weighted Jacobi iteration, the simplest "diffusion-like" solver,
//!   used in tests and as a pedagogical baseline.

use crate::dense::DenseMatrix;
use crate::vector;
use crate::{LinOp, LinalgError, Result};
use acir_runtime::{
    Budget, Certificate, DivergenceCause, Exhaustion, GuardConfig, GuardVerdict, KernelCtx,
    SolverOutcome, Workspace,
};

/// Cholesky factorization `A = G Gᵀ` (lower triangular `G`) of an SPD
/// matrix. Errors with [`LinalgError::NotPositiveDefinite`] if a pivot is
/// non-positive.
#[derive(Debug, Clone)]
pub struct Cholesky {
    g: DenseMatrix,
}

impl Cholesky {
    /// Factor a symmetric positive-definite matrix.
    pub fn new(a: &DenseMatrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::InvalidArgument("matrix must be square"));
        }
        let n = a.nrows();
        let mut g = DenseMatrix::zeros(n, n);
        for j in 0..n {
            let mut d = a[(j, j)];
            for k in 0..j {
                d -= g[(j, k)] * g[(j, k)];
            }
            if d <= 0.0 {
                return Err(LinalgError::NotPositiveDefinite);
            }
            let dj = d.sqrt();
            g[(j, j)] = dj;
            for i in (j + 1)..n {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= g[(i, k)] * g[(j, k)];
                }
                g[(i, j)] = s / dj;
            }
        }
        Ok(Self { g })
    }

    /// Solve `A x = b`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.g.nrows();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                expected: n,
                found: b.len(),
            });
        }
        // Forward: G y = b.
        let mut y = b.to_vec();
        for i in 0..n {
            for k in 0..i {
                y[i] -= self.g[(i, k)] * y[k];
            }
            y[i] /= self.g[(i, i)];
        }
        // Backward: Gᵀ x = y.
        for i in (0..n).rev() {
            for k in (i + 1)..n {
                y[i] -= self.g[(k, i)] * y[k];
            }
            y[i] /= self.g[(i, i)];
        }
        Ok(y)
    }

    /// `log det A = 2 Σ log Gᵢᵢ` — needed by the log-det regularizer of
    /// the paper's Problem (5).
    pub fn log_det(&self) -> f64 {
        (0..self.g.nrows())
            .map(|i| self.g[(i, i)].ln())
            .sum::<f64>()
            * 2.0
    }
}

/// LU factorization with partial pivoting; solves general square systems.
#[derive(Debug, Clone)]
pub struct Lu {
    lu: DenseMatrix,
    perm: Vec<usize>,
    sign: f64,
}

impl Lu {
    /// Factor a general square matrix. Errors if singular to working
    /// precision.
    pub fn new(a: &DenseMatrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::InvalidArgument("matrix must be square"));
        }
        let n = a.nrows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut sign = 1.0;
        for k in 0..n {
            // Partial pivot.
            let (mut p, mut maxv) = (k, lu[(k, k)].abs());
            for i in (k + 1)..n {
                if lu[(i, k)].abs() > maxv {
                    p = i;
                    maxv = lu[(i, k)].abs();
                }
            }
            if maxv < 1e-300 {
                return Err(LinalgError::Singular);
            }
            if p != k {
                for j in 0..n {
                    let t = lu[(k, j)];
                    lu[(k, j)] = lu[(p, j)];
                    lu[(p, j)] = t;
                }
                perm.swap(k, p);
                sign = -sign;
            }
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let m = lu[(i, k)] / pivot;
                lu[(i, k)] = m;
                for j in (k + 1)..n {
                    let adj = m * lu[(k, j)];
                    lu[(i, j)] -= adj;
                }
            }
        }
        Ok(Self { lu, perm, sign })
    }

    /// Solve `A x = b`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.lu.nrows();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                expected: n,
                found: b.len(),
            });
        }
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        // Forward substitute through L (unit diagonal).
        for i in 0..n {
            for k in 0..i {
                x[i] -= self.lu[(i, k)] * x[k];
            }
        }
        // Back substitute through U.
        for i in (0..n).rev() {
            for k in (i + 1)..n {
                x[i] -= self.lu[(i, k)] * x[k];
            }
            x[i] /= self.lu[(i, i)];
        }
        Ok(x)
    }

    /// Determinant (product of pivots times permutation sign).
    pub fn det(&self) -> f64 {
        self.sign
            * (0..self.lu.nrows())
                .map(|i| self.lu[(i, i)])
                .product::<f64>()
    }

    /// Dense inverse (solves against the identity columns).
    pub fn inverse(&self) -> Result<DenseMatrix> {
        let n = self.lu.nrows();
        let mut inv = DenseMatrix::zeros(n, n);
        let mut e = vec![0.0; n];
        for j in 0..n {
            e[j] = 1.0;
            let col = self.solve(&e)?;
            for i in 0..n {
                inv[(i, j)] = col[i];
            }
            e[j] = 0.0;
        }
        Ok(inv)
    }
}

/// Options for [`cg`].
#[derive(Debug, Clone)]
pub struct CgOptions {
    /// Iteration budget (also an early-stopping regularization knob).
    pub max_iters: usize,
    /// Relative residual tolerance `‖r‖/‖b‖`.
    pub tol: f64,
}

impl Default for CgOptions {
    fn default() -> Self {
        Self {
            max_iters: 1000,
            tol: 1e-10,
        }
    }
}

/// Outcome of a CG solve.
#[derive(Debug, Clone)]
pub struct CgResult {
    /// Approximate solution.
    pub x: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Final relative residual.
    pub relative_residual: f64,
    /// Whether the tolerance was reached.
    pub converged: bool,
}

/// Conjugate gradient for `A x = b` with symmetric positive
/// (semi-)definite `A`.
///
/// `x0` seeds the iteration (pass zeros if unknown). Like
/// [`crate::power_method`], this never errors on hitting the budget —
/// truncated CG is a regularized solve and is reported as such.
///
/// The three `O(n)` recurrence buffers (residual, search direction,
/// `A p`) come from the crate's shared pool, so steady-state calls
/// allocate only the returned solution.
pub fn cg(op: &dyn LinOp, b: &[f64], x0: &[f64], opts: &CgOptions) -> Result<CgResult> {
    crate::SCRATCH.with(|ws| {
        let mut ctx = KernelCtx::new();
        match cg_core(op, b, x0, opts, ws, &mut ctx)? {
            SolverOutcome::Converged { value, .. } => Ok(value),
            _ => unreachable!("an inert context can neither exhaust nor diverge"),
        }
    })
}

/// Conjugate gradient against an explicit [`KernelCtx`]. Scratch comes
/// from the context's pool override or the crate pool.
///
/// A metered context drives termination entirely through its budget —
/// clamp the meter to `opts.max_iters` (as [`cg_budgeted`] does) if the
/// options ceiling should still bind.
pub fn cg_ctx(
    op: &dyn LinOp,
    b: &[f64],
    x0: &[f64],
    opts: &CgOptions,
    ctx: &mut KernelCtx,
) -> Result<SolverOutcome<CgResult>> {
    let _spmv = ctx.spmv_scope();
    ctx.scratch_pool_or(&crate::SCRATCH)
        .with(|ws| cg_core(op, b, x0, opts, ws, ctx))
}

/// The single CG recurrence loop. Every public entry point funnels
/// here; the context decides which concerns are live.
fn cg_core(
    op: &dyn LinOp,
    b: &[f64],
    x0: &[f64],
    opts: &CgOptions,
    ws: &mut Workspace,
    ctx: &mut KernelCtx,
) -> Result<SolverOutcome<CgResult>> {
    let n = op.dim();
    if b.len() != n || x0.len() != n {
        return Err(LinalgError::DimensionMismatch {
            expected: n,
            found: if b.len() != n { b.len() } else { x0.len() },
        });
    }
    let bnorm = vector::norm2(b).max(f64::MIN_POSITIVE);
    let mut x = x0.to_vec();
    let mut r = ws.take_f64(n);
    let mut p = ws.take_f64(n);
    let mut ap = ws.take_f64(n);
    r.copy_from_slice(b);
    op.apply(&x, &mut ap);
    vector::axpy(-1.0, &ap, &mut r);
    p.copy_from_slice(&r);
    let mut rs = vector::dot(&r, &r);
    // Initial matvec for the starting residual.
    ctx.add_work(1);

    enum Exit {
        // Loop left normally: converged iff the final relative residual
        // meets the tolerance.
        Finished,
        // The search direction died while numerically converged — a
        // success even though the residual may sit just above `tol`.
        ForcedConverged,
        Diverged(DivergenceCause),
        Exhausted(Exhaustion),
    }

    // Best iterate seen (smallest relative residual), kept only under a
    // budget: it is what an exhausted outcome returns, and the upfront
    // clone would break the plain path's allocation contract.
    let mut best: Option<(Vec<f64>, f64)> = if ctx.is_metered() {
        Some((x.clone(), rs.sqrt() / bnorm))
    } else {
        None
    };
    let mut iterations = 0;
    let mut exit = Exit::Finished;
    // CORE LOOP
    loop {
        let rel = rs.sqrt() / bnorm;
        ctx.push_residual(rel);
        if let GuardVerdict::Halt(cause) = ctx.observe(rel) {
            exit = Exit::Diverged(cause);
            break;
        }
        if let Some((best_x, best_rel)) = best.as_mut() {
            if rel < *best_rel {
                *best_rel = rel;
                best_x.copy_from_slice(&x);
            }
        }
        if rel <= opts.tol {
            break;
        }
        if ctx.is_metered() {
            ctx.tick_iter();
            if let Some(exhausted) = ctx.add_work(1) {
                exit = Exit::Exhausted(exhausted);
                break;
            }
        } else if iterations >= opts.max_iters {
            break;
        }

        op.apply(&p, &mut ap);
        let pap = vector::dot(&p, &ap);
        if ctx.is_guarded() {
            if !pap.is_finite() || pap <= 0.0 {
                if pap.abs() < 1e-300 && rel <= opts.tol.max(1e-12) {
                    // Numerically converged; the direction just died first.
                    exit = Exit::ForcedConverged;
                } else {
                    exit = Exit::Diverged(DivergenceCause::Breakdown {
                        at_iter: iterations,
                        what: "nonpositive-curvature direction (CG stall)",
                    });
                }
                break;
            }
        } else if pap.abs() < 1e-300 {
            break; // Direction in (numerical) null space; cannot proceed.
        }
        let alpha = rs / pap;
        vector::axpy(alpha, &p, &mut x);
        vector::axpy(-alpha, &ap, &mut r);
        let rs_new = vector::dot(&r, &r);
        let beta = rs_new / rs;
        vector::axpby(1.0, &r, beta, &mut p);
        rs = rs_new;
        iterations += 1;
    }
    ws.put_f64(r);
    ws.put_f64(p);
    ws.put_f64(ap);

    let mut diags = ctx.finish();
    match exit {
        Exit::Diverged(cause) => Ok(SolverOutcome::diverged(cause, diags)),
        Exit::Exhausted(exhausted) => {
            let (best_x, best_rel) = best.unwrap_or_else(|| (x, rs.sqrt() / bnorm));
            Ok(SolverOutcome::exhausted(
                CgResult {
                    x: best_x,
                    iterations,
                    relative_residual: best_rel,
                    converged: false,
                },
                exhausted,
                Certificate::ResidualNorm { value: best_rel },
                diags,
            ))
        }
        Exit::Finished | Exit::ForcedConverged => {
            diags.iterations = iterations;
            let relative_residual = rs.sqrt() / bnorm;
            let converged = matches!(exit, Exit::ForcedConverged) || relative_residual <= opts.tol;
            Ok(SolverOutcome::converged(
                CgResult {
                    x,
                    iterations,
                    relative_residual,
                    converged,
                },
                diags,
            ))
        }
    }
}

/// Conjugate gradient under an explicit resource [`Budget`], with
/// divergence guards and a structured [`SolverOutcome`].
///
/// The effective iteration ceiling is the smaller of `opts.max_iters`
/// and `budget.max_iters`; each matvec costs one work unit. On budget
/// exhaustion the *best* iterate seen (smallest relative residual) is
/// returned with a [`Certificate::ResidualNorm`] quality bound — per
/// the paper, the truncated CG solve is the regularized answer, not a
/// failure. NaN/Inf contamination or a nonpositive-curvature direction
/// (a CG stall, e.g. from an indefinite or corrupted operator) yields
/// [`SolverOutcome::Diverged`].
pub fn cg_budgeted(
    op: &dyn LinOp,
    b: &[f64],
    x0: &[f64],
    opts: &CgOptions,
    budget: &Budget,
) -> Result<SolverOutcome<CgResult>> {
    let mut ctx = KernelCtx::budgeted(
        "linalg.cg",
        &budget.with_max_iters(budget.max_iters.min(opts.max_iters)),
    )
    .with_guard(GuardConfig::default());
    cg_ctx(op, b, x0, opts, &mut ctx)
}

/// Weighted Jacobi iteration `x ← x + ω D⁻¹ (b − A x)` for
/// diagonally-dominant systems; returns `(x, iterations, converged)`.
///
/// Needs the matrix (not just an operator) to extract the diagonal.
pub fn jacobi_iteration(
    a: &crate::sparse::CsrMatrix,
    b: &[f64],
    omega: f64,
    max_iters: usize,
    tol: f64,
) -> Result<(Vec<f64>, usize, bool)> {
    let n = a.nrows();
    if a.ncols() != n {
        return Err(LinalgError::InvalidArgument("matrix must be square"));
    }
    if b.len() != n {
        return Err(LinalgError::DimensionMismatch {
            expected: n,
            found: b.len(),
        });
    }
    let d = a.diag();
    if d.iter().any(|&v| v.abs() < 1e-300) {
        return Err(LinalgError::Singular);
    }
    let bnorm = vector::norm2(b).max(f64::MIN_POSITIVE);
    let mut x = vec![0.0; n];
    let mut ax = vec![0.0; n];
    for it in 0..max_iters {
        a.matvec(&x, &mut ax);
        let mut rnorm2 = 0.0;
        for i in 0..n {
            let r = b[i] - ax[i];
            rnorm2 += r * r;
            x[i] += omega * r / d[i];
        }
        if rnorm2.sqrt() / bnorm <= tol {
            return Ok((x, it + 1, true));
        }
    }
    Ok((x, max_iters, false))
}

/// Jacobi(diagonal)-preconditioned conjugate gradient for SPD systems.
///
/// Identical contract to [`cg`], but iterates on the preconditioned
/// residual `z = D⁻¹r`. On degree-heterogeneous graph Laplacian systems
/// (the MOV solves of §3.3) this cuts the iteration count roughly by
/// the square root of the degree spread.
pub fn pcg_jacobi(
    op: &dyn LinOp,
    diag: &[f64],
    b: &[f64],
    x0: &[f64],
    opts: &CgOptions,
) -> Result<CgResult> {
    let n = op.dim();
    if b.len() != n || x0.len() != n || diag.len() != n {
        return Err(LinalgError::DimensionMismatch {
            expected: n,
            found: b.len().min(x0.len()).min(diag.len()),
        });
    }
    if diag.iter().any(|&d| d <= 0.0 || !d.is_finite()) {
        return Err(LinalgError::NotPositiveDefinite);
    }
    let bnorm = vector::norm2(b).max(f64::MIN_POSITIVE);
    let mut x = x0.to_vec();
    let mut r = b.to_vec();
    let ax = op.apply_vec(&x);
    vector::axpy(-1.0, &ax, &mut r);
    let mut z: Vec<f64> = r.iter().zip(diag).map(|(ri, di)| ri / di).collect();
    let mut p = z.clone();
    let mut rz = vector::dot(&r, &z);
    let mut iterations = 0;
    let mut ap = vec![0.0; n];
    while iterations < opts.max_iters && vector::norm2(&r) / bnorm > opts.tol {
        op.apply(&p, &mut ap);
        let pap = vector::dot(&p, &ap);
        if pap.abs() < 1e-300 {
            break;
        }
        let alpha = rz / pap;
        vector::axpy(alpha, &p, &mut x);
        vector::axpy(-alpha, &ap, &mut r);
        for (zi, (ri, di)) in z.iter_mut().zip(r.iter().zip(diag)) {
            *zi = ri / di;
        }
        let rz_new = vector::dot(&r, &z);
        let beta = rz_new / rz;
        vector::axpby(1.0, &z, beta, &mut p);
        rz = rz_new;
        iterations += 1;
    }
    let relative_residual = vector::norm2(&r) / bnorm;
    Ok(CgResult {
        x,
        iterations,
        relative_residual,
        converged: relative_residual <= opts.tol,
    })
}

/// Gauss–Seidel iteration for diagonally-dominant systems: in-place
/// forward sweeps `x_i ← (b_i − Σ_{j≠i} a_ij x_j) / a_ii`; returns
/// `(x, iterations, converged)`. Converges roughly twice as fast as
/// [`jacobi_iteration`] on the same systems (each update sees the
/// current values of earlier coordinates).
pub fn gauss_seidel(
    a: &crate::sparse::CsrMatrix,
    b: &[f64],
    max_iters: usize,
    tol: f64,
) -> Result<(Vec<f64>, usize, bool)> {
    let n = a.nrows();
    if a.ncols() != n {
        return Err(LinalgError::InvalidArgument("matrix must be square"));
    }
    if b.len() != n {
        return Err(LinalgError::DimensionMismatch {
            expected: n,
            found: b.len(),
        });
    }
    let d = a.diag();
    if d.iter().any(|&v| v.abs() < 1e-300) {
        return Err(LinalgError::Singular);
    }
    let bnorm = vector::norm2(b).max(f64::MIN_POSITIVE);
    let mut x = vec![0.0; n];
    let mut ax = vec![0.0; n];
    for it in 0..max_iters {
        for i in 0..n {
            let mut s = 0.0;
            for (j, v) in a.row(i) {
                if j as usize != i {
                    s += v * x[j as usize];
                }
            }
            x[i] = (b[i] - s) / d[i];
        }
        a.matvec(&x, &mut ax);
        let rnorm: f64 = b
            .iter()
            .zip(&ax)
            .map(|(bi, ai)| (bi - ai) * (bi - ai))
            .sum::<f64>()
            .sqrt();
        if rnorm / bnorm <= tol {
            return Ok((x, it + 1, true));
        }
    }
    Ok((x, max_iters, false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::CsrMatrix;
    use acir_runtime::WorkspacePool;
    use proptest::prelude::*;

    fn spd3() -> DenseMatrix {
        DenseMatrix::from_rows(&[&[4.0, 1.0, 0.0], &[1.0, 3.0, 1.0], &[0.0, 1.0, 2.0]])
    }

    #[test]
    fn cholesky_solves() {
        let a = spd3();
        let ch = Cholesky::new(&a).unwrap();
        let b = [1.0, 2.0, 3.0];
        let x = ch.solve(&b).unwrap();
        let mut ax = vec![0.0; 3];
        a.gemv(1.0, &x, 0.0, &mut ax);
        assert!(vector::dist2(&ax, &b) < 1e-10);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = DenseMatrix::from_diag(&[1.0, -1.0]);
        assert!(matches!(
            Cholesky::new(&a),
            Err(LinalgError::NotPositiveDefinite)
        ));
    }

    #[test]
    fn cholesky_log_det() {
        let a = DenseMatrix::from_diag(&[2.0, 3.0]);
        let ch = Cholesky::new(&a).unwrap();
        assert!((ch.log_det() - 6.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn lu_solves_and_det() {
        let a = DenseMatrix::from_rows(&[&[0.0, 2.0], &[1.0, 1.0]]); // needs pivoting
        let lu = Lu::new(&a).unwrap();
        assert!((lu.det() - (-2.0)).abs() < 1e-12);
        let x = lu.solve(&[2.0, 2.0]).unwrap();
        // x solves [0 2; 1 1] x = [2, 2] → x = [1, 1].
        assert!(vector::dist2(&x, &[1.0, 1.0]) < 1e-12);
    }

    #[test]
    fn lu_inverse() {
        let a = spd3();
        let inv = Lu::new(&a).unwrap().inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        let mut defect = prod;
        defect.axpy(-1.0, &DenseMatrix::identity(3)).unwrap();
        assert!(defect.max_abs() < 1e-10);
    }

    #[test]
    fn lu_detects_singular() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(Lu::new(&a), Err(LinalgError::Singular)));
    }

    #[test]
    fn cg_solves_spd_sparse() {
        // 1D Poisson with Dirichlet boundary (SPD tridiagonal).
        let n = 50;
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 2.0));
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
                t.push((i + 1, i, -1.0));
            }
        }
        let a = CsrMatrix::from_triplets(n, n, t);
        let b = vec![1.0; n];
        let r = cg(&a, &b, &vec![0.0; n], &CgOptions::default()).unwrap();
        assert!(r.converged);
        let mut ax = vec![0.0; n];
        a.matvec(&r.x, &mut ax);
        assert!(vector::dist2(&ax, &b) < 1e-6);
    }

    #[test]
    fn cg_early_stopping_is_reported() {
        let n = 50;
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 2.0));
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
                t.push((i + 1, i, -1.0));
            }
        }
        let a = CsrMatrix::from_triplets(n, n, t);
        let opts = CgOptions {
            max_iters: 3,
            tol: 1e-14,
        };
        let r = cg(&a, &vec![1.0; n], &vec![0.0; n], &opts).unwrap();
        assert_eq!(r.iterations, 3);
        assert!(!r.converged);
    }

    #[test]
    fn cg_exact_in_n_iterations() {
        // CG converges in at most n steps in exact arithmetic.
        let a = spd3();
        let opts = CgOptions {
            max_iters: 3,
            tol: 1e-12,
        };
        let r = cg(&a, &[1.0, 0.0, 0.0], &[0.0; 3], &opts).unwrap();
        let mut ax = vec![0.0; 3];
        a.gemv(1.0, &r.x, 0.0, &mut ax);
        assert!(vector::dist2(&ax, &[1.0, 0.0, 0.0]) < 1e-8);
    }

    #[test]
    fn cg_pooled_scratch_reuse_is_bit_identical() {
        let a = spd3();
        let b = [1.0, 2.0, 3.0];
        let opts = CgOptions::default();
        let first = cg(&a, &b, &[0.0; 3], &opts).unwrap();
        static POOL: WorkspacePool<Workspace> = WorkspacePool::new();
        for _ in 0..3 {
            let mut ctx = KernelCtx::new().with_scratch_pool(&POOL);
            let out = cg_ctx(&a, &b, &[0.0; 3], &opts, &mut ctx).unwrap();
            let again = out.value().unwrap();
            assert_eq!(again.x, first.x);
            assert_eq!(
                again.relative_residual.to_bits(),
                first.relative_residual.to_bits()
            );
            assert_eq!(again.iterations, first.iterations);
        }
        assert_eq!(POOL.parked(), 1);
        assert_eq!(
            POOL.with(|ws| ws.parked_f64()),
            3,
            "all scratch buffers returned"
        );
    }

    #[test]
    fn cg_validates_dimensions() {
        let a = DenseMatrix::identity(3);
        assert!(cg(&a, &[1.0], &[0.0; 3], &CgOptions::default()).is_err());
        assert!(cg(&a, &[1.0; 3], &[0.0], &CgOptions::default()).is_err());
    }

    #[test]
    fn jacobi_iteration_converges_on_dominant() {
        let a =
            CsrMatrix::from_triplets(2, 2, [(0, 0, 4.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 4.0)]);
        let (x, _, conv) = jacobi_iteration(&a, &[5.0, 5.0], 1.0, 200, 1e-12).unwrap();
        assert!(conv);
        assert!(vector::dist2(&x, &[1.0, 1.0]) < 1e-8);
    }

    #[test]
    fn pcg_matches_cg_and_converges_faster_on_skewed_diagonal() {
        // Badly scaled SPD diagonal + coupling.
        let n = 40;
        let mut t = Vec::new();
        for i in 0..n {
            let d = if i % 5 == 0 { 100.0 } else { 2.0 };
            t.push((i, i, d));
            if i + 1 < n {
                t.push((i, i + 1, -0.5));
                t.push((i + 1, i, -0.5));
            }
        }
        let a = CsrMatrix::from_triplets(n, n, t);
        let b = vec![1.0; n];
        let opts = CgOptions {
            max_iters: 500,
            tol: 1e-10,
        };
        let plain = cg(&a, &b, &vec![0.0; n], &opts).unwrap();
        let pre = pcg_jacobi(&a, &a.diag(), &b, &vec![0.0; n], &opts).unwrap();
        assert!(plain.converged && pre.converged);
        assert!(vector::dist2(&plain.x, &pre.x) < 1e-7);
        assert!(
            pre.iterations <= plain.iterations,
            "pcg {} vs cg {}",
            pre.iterations,
            plain.iterations
        );
    }

    #[test]
    fn pcg_validates() {
        let a = DenseMatrix::identity(3);
        let opts = CgOptions::default();
        assert!(pcg_jacobi(&a, &[1.0; 3], &[1.0; 2], &[0.0; 3], &opts).is_err());
        assert!(pcg_jacobi(&a, &[0.0, 1.0, 1.0], &[1.0; 3], &[0.0; 3], &opts).is_err());
        assert!(pcg_jacobi(&a, &[-1.0, 1.0, 1.0], &[1.0; 3], &[0.0; 3], &opts).is_err());
    }

    #[test]
    fn gauss_seidel_converges_faster_than_jacobi() {
        let n = 30;
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 4.0));
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
                t.push((i + 1, i, -1.0));
            }
        }
        let a = CsrMatrix::from_triplets(n, n, t);
        let b = vec![1.0; n];
        let (xg, it_gs, conv_gs) = gauss_seidel(&a, &b, 500, 1e-10).unwrap();
        let (xj, it_j, conv_j) = jacobi_iteration(&a, &b, 1.0, 500, 1e-10).unwrap();
        assert!(conv_gs && conv_j);
        assert!(it_gs < it_j, "GS {it_gs} vs Jacobi {it_j}");
        assert!(vector::dist2(&xg, &xj) < 1e-8);
        let mut ax = vec![0.0; n];
        a.matvec(&xg, &mut ax);
        assert!(vector::dist2(&ax, &b) < 1e-8);
    }

    #[test]
    fn gauss_seidel_validates() {
        let a = CsrMatrix::from_triplets(2, 2, [(0, 1, 1.0), (1, 0, 1.0)]);
        assert!(gauss_seidel(&a, &[1.0, 1.0], 10, 1e-6).is_err()); // zero diag
        let ok = CsrMatrix::from_diag(&[2.0, 2.0]);
        assert!(gauss_seidel(&ok, &[1.0], 10, 1e-6).is_err()); // bad b
    }

    #[test]
    fn jacobi_iteration_rejects_zero_diagonal() {
        let a = CsrMatrix::from_triplets(2, 2, [(0, 1, 1.0), (1, 0, 1.0)]);
        assert!(jacobi_iteration(&a, &[1.0, 1.0], 1.0, 10, 1e-6).is_err());
    }

    #[test]
    fn cg_budgeted_converges_and_matches_plain() {
        let a = spd3();
        let b = [1.0, 2.0, 3.0];
        let opts = CgOptions::default();
        let out = cg_budgeted(&a, &b, &[0.0; 3], &opts, &Budget::unlimited()).unwrap();
        assert!(out.is_converged());
        let plain = cg(&a, &b, &[0.0; 3], &opts).unwrap();
        assert!(vector::dist2(&out.value().unwrap().x, &plain.x) < 1e-10);
    }

    #[test]
    fn cg_budgeted_exhaustion_certifies_best_iterate() {
        // 1D Poisson: needs ~n iterations; give it only 3.
        let n = 50;
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 2.0));
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
                t.push((i + 1, i, -1.0));
            }
        }
        let a = CsrMatrix::from_triplets(n, n, t);
        let b = vec![1.0; n];
        let out = cg_budgeted(
            &a,
            &b,
            &vec![0.0; n],
            &CgOptions {
                tol: 1e-12,
                ..Default::default()
            },
            &Budget::iterations(3),
        )
        .unwrap();
        assert!(!out.is_converged() && out.is_usable());
        let cert = out.certificate().unwrap();
        // Verify the certificate against the actual residual of the
        // returned iterate.
        let x = &out.value().unwrap().x;
        let mut ax = vec![0.0; n];
        a.matvec(x, &mut ax);
        let mut r = b.clone();
        vector::axpy(-1.0, &ax, &mut r);
        let actual = vector::norm2(&r) / vector::norm2(&b);
        assert!(
            actual <= cert.slack() * (1.0 + 1e-9),
            "certificate {} vs actual {}",
            cert.slack(),
            actual
        );
    }

    #[test]
    fn cg_budgeted_diverges_on_indefinite_stall() {
        // Indefinite matrix: CG hits a nonpositive-curvature direction.
        let a = DenseMatrix::from_diag(&[1.0, -1.0]);
        let out = cg_budgeted(
            &a,
            &[0.0, 1.0],
            &[0.0, 0.0],
            &CgOptions::default(),
            &Budget::unlimited(),
        )
        .unwrap();
        assert!(!out.is_usable());
    }

    #[test]
    fn cg_budgeted_diverges_on_nan_injection() {
        let a = spd3();
        let faulty = crate::fault::FaultyOp::new(
            &a,
            acir_runtime::FaultConfig::nans(1.0).after_clean_applies(2),
        );
        let out = cg_budgeted(
            &faulty,
            &[1.0, 2.0, 3.0],
            &[0.0; 3],
            &CgOptions::default(),
            &Budget::unlimited(),
        )
        .unwrap();
        assert!(
            !out.is_usable(),
            "NaN-poisoned CG must diverge, not converge"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_cholesky_lu_cg_agree(
            data in proptest::collection::vec(-2.0..2.0f64, 16),
            b in proptest::collection::vec(-5.0..5.0f64, 4),
        ) {
            // Build SPD A = BᵀB + I.
            let bmat = DenseMatrix::from_vec(4, 4, data);
            let mut a = bmat.transpose().matmul(&bmat).unwrap();
            a.shift_diag(1.0);

            let x_ch = Cholesky::new(&a).unwrap().solve(&b).unwrap();
            let x_lu = Lu::new(&a).unwrap().solve(&b).unwrap();
            let x_cg = cg(&a, &b, &[0.0; 4], &CgOptions { max_iters: 200, tol: 1e-12 }).unwrap().x;
            prop_assert!(vector::dist2(&x_ch, &x_lu) < 1e-7);
            prop_assert!(vector::dist2(&x_ch, &x_cg) < 1e-6);
        }
    }
}
