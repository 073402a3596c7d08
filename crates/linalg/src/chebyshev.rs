//! Chebyshev polynomial approximation of matrix functions `f(A)·v`.
//!
//! The sparse route to the heat kernel and friends (the dense
//! exponentials of [`crate::expm`] are the exact reference it is
//! checked against): expand `f` in Chebyshev polynomials on the operator's spectral
//! interval `[a, b]` and evaluate by the three-term recurrence — one
//! matvec per degree, no inner products, no orthogonalization. For
//! normalized Laplacians (`spectrum ⊂ [0, 2]`) this is the method of
//! choice at very large scale, and the truncation degree is — once
//! more — an approximation knob with a smoothing interpretation: a
//! degree-`d` expansion can only mix information within `d` hops of the
//! seed, so low degrees are *forced* to be local and smooth.
//!
//! Coefficients are computed by the standard discrete cosine quadrature
//! on Chebyshev nodes, which converges geometrically for analytic `f`
//! (heat kernels, resolvents).

use crate::vector;
use crate::{LinOp, LinalgError, Result};
use acir_runtime::{
    Budget, Certificate, DivergenceCause, Exhaustion, GuardConfig, GuardVerdict, KernelCtx,
    SolverOutcome, Workspace,
};

/// A Chebyshev expansion of a scalar function on `[a, b]`.
#[derive(Debug, Clone)]
pub struct ChebyshevExpansion {
    /// Expansion coefficients `c_0 … c_d` (the `c_0` term enters with
    /// weight ½ in evaluation, per the usual convention).
    pub coeffs: Vec<f64>,
    /// Lower end of the approximation interval.
    pub a: f64,
    /// Upper end of the approximation interval.
    pub b: f64,
}

impl ChebyshevExpansion {
    /// Fit `f` on `[a, b]` with a degree-`degree` expansion via cosine
    /// quadrature at `degree + 1` Chebyshev nodes.
    pub fn fit(f: impl Fn(f64) -> f64, a: f64, b: f64, degree: usize) -> Result<Self> {
        if !(a < b && a.is_finite() && b.is_finite()) {
            return Err(LinalgError::InvalidArgument("need finite a < b"));
        }
        let m = degree + 1;
        // f at the Chebyshev nodes of the interval.
        let fx: Vec<f64> = (0..m)
            .map(|j| {
                let theta = std::f64::consts::PI * (j as f64 + 0.5) / m as f64;
                let x = 0.5 * (a + b) + 0.5 * (b - a) * theta.cos();
                f(x)
            })
            .collect();
        let mut coeffs = Vec::with_capacity(m);
        for k in 0..m {
            let mut s = 0.0;
            for (j, &fj) in fx.iter().enumerate() {
                s += fj * (std::f64::consts::PI * k as f64 * (j as f64 + 0.5) / m as f64).cos();
            }
            coeffs.push(2.0 * s / m as f64);
        }
        Ok(Self { coeffs, a, b })
    }

    /// Degree of the expansion.
    pub fn degree(&self) -> usize {
        self.coeffs.len().saturating_sub(1)
    }

    /// Evaluate the scalar expansion at `x` (Clenshaw recurrence).
    pub fn eval(&self, x: f64) -> f64 {
        let t = (2.0 * x - self.a - self.b) / (self.b - self.a);
        let mut b1 = 0.0;
        let mut b2 = 0.0;
        for &c in self.coeffs.iter().skip(1).rev() {
            let tmp = 2.0 * t * b1 - b2 + c;
            b2 = b1;
            b1 = tmp;
        }
        t * b1 - b2 + 0.5 * self.coeffs[0]
    }

    /// Apply `f(A)·v` by the matrix three-term recurrence: `degree`
    /// matvecs, `O(n)` extra memory.
    ///
    /// The operator's spectrum must lie inside `[a, b]` (values outside
    /// make the Chebyshev polynomials blow up exponentially).
    ///
    /// The three recurrence buffers (`T_{k−1} v`, `T_k v`, `T_{k+1} v`)
    /// come from the crate's shared pool, so steady-state calls
    /// allocate only the returned vector.
    pub fn apply(&self, op: &dyn LinOp, v: &[f64]) -> Result<Vec<f64>> {
        crate::SCRATCH.with(|ws| {
            let mut ctx = KernelCtx::new();
            match self.apply_core(op, v, ws, &mut ctx)? {
                SolverOutcome::Converged { value, .. } => Ok(value),
                _ => unreachable!("an inert context can neither exhaust nor diverge"),
            }
        })
    }

    /// Apply `f(A)·v` against an explicit [`KernelCtx`]. Scratch comes
    /// from the context's pool override or the crate pool.
    ///
    /// Each recurrence step costs one iteration and one work unit (its
    /// matvec). On budget exhaustion the partial sum through degree `d`
    /// is returned with a [`Certificate::ResidualNorm`] equal to
    /// `Σ_{k>d} |c_k| · ‖v‖` — a rigorous bound on the dropped tail
    /// whenever the spectrum lies in `[a, b]`, since `|T_k| ≤ 1` there.
    ///
    /// A spectrum escaping `[a, b]` makes the Chebyshev vectors grow
    /// exponentially; a guarded context detects this (or any NaN/Inf
    /// contamination) and returns [`SolverOutcome::Diverged`].
    pub fn apply_ctx(
        &self,
        op: &dyn LinOp,
        v: &[f64],
        ctx: &mut KernelCtx,
    ) -> Result<SolverOutcome<Vec<f64>>> {
        let _spmv = ctx.spmv_scope();
        ctx.scratch_pool_or(&crate::SCRATCH)
            .with(|ws| self.apply_core(op, v, ws, ctx))
    }

    /// The single three-term-recurrence loop. Every single-vector entry
    /// point funnels here; the context decides which concerns are live.
    fn apply_core(
        &self,
        op: &dyn LinOp,
        v: &[f64],
        ws: &mut Workspace,
        ctx: &mut KernelCtx,
    ) -> Result<SolverOutcome<Vec<f64>>> {
        let n = op.dim();
        if v.len() != n {
            return Err(LinalgError::DimensionMismatch {
                expected: n,
                found: v.len(),
            });
        }
        let vnorm = vector::norm2(v);
        // Affine map to [-1, 1]: T = alpha·A + beta·I with
        // alpha = 2/(b−a), beta = −(a+b)/(b−a); then T_0 v = v,
        // T_1 v = T v, T_{k+1} v = 2·T·(T_k v) − T_{k−1} v.
        let alpha = 2.0 / (self.b - self.a);
        let beta = -(self.a + self.b) / (self.b - self.a);
        let apply_t = |input: &[f64], out: &mut [f64]| {
            op.apply(input, out);
            vector::axpby(beta, input, alpha, out);
        };

        enum Exit {
            Done,
            Diverged(DivergenceCause),
            // Exhaustion remembers the degree it struck at, for the
            // truncation note and the dropped-tail certificate.
            Exhausted(Exhaustion, usize),
        }

        let mut t_prev = ws.take_f64(n); // T_0 v
        t_prev.copy_from_slice(v);
        let mut t_curr = ws.take_f64(n);
        apply_t(v, &mut t_curr); // T_1 v
        ctx.add_work(1);
        let mut acc: Vec<f64> = v.iter().map(|&x| 0.5 * self.coeffs[0] * x).collect();
        if self.coeffs.len() > 1 {
            vector::axpy(self.coeffs[1], &t_curr, &mut acc);
        }
        let mut t_next = ws.take_f64(n);
        let mut exit = Exit::Done;
        // CORE LOOP
        for (deg, &c) in self.coeffs.iter().enumerate().skip(2) {
            ctx.tick_iter();
            if let Some(exhausted) = ctx.add_work(1) {
                exit = Exit::Exhausted(exhausted, deg);
                break;
            }
            apply_t(&t_curr, &mut t_next);
            vector::axpby(-1.0, &t_prev, 2.0, &mut t_next);
            if ctx.is_guarded() {
                // On [a, b] every Chebyshev vector satisfies
                // ‖T_k v‖ ≤ ‖v‖ (spectral calculus); exponential growth
                // means the spectrum escaped the interval.
                let tnorm = vector::norm2(&t_next);
                ctx.push_residual(tnorm);
                if let GuardVerdict::Halt(cause) = ctx.check_iterate(&t_next, deg) {
                    exit = Exit::Diverged(cause);
                    break;
                }
                if tnorm > 1e8 * vnorm.max(f64::MIN_POSITIVE) {
                    exit = Exit::Diverged(DivergenceCause::ResidualBlowup {
                        at_iter: deg,
                        residual: tnorm,
                        best: vnorm,
                    });
                    break;
                }
            }
            vector::axpy(c, &t_next, &mut acc);
            std::mem::swap(&mut t_prev, &mut t_curr);
            std::mem::swap(&mut t_curr, &mut t_next);
        }
        ws.put_f64(t_prev);
        ws.put_f64(t_curr);
        ws.put_f64(t_next);

        let mut diags = ctx.finish();
        match exit {
            Exit::Diverged(cause) => Ok(SolverOutcome::diverged(cause, diags)),
            Exit::Exhausted(exhausted, deg) => {
                diags.note(format!("truncated at degree {}", deg - 1));
                // Dropped-tail weight Σ_{k≥deg} |c_k|, accumulated from
                // the high end exactly as the eager tail table did.
                let tail = self.coeffs[deg..]
                    .iter()
                    .rev()
                    .fold(0.0, |acc, c| acc + c.abs());
                Ok(SolverOutcome::exhausted(
                    acc,
                    exhausted,
                    Certificate::ResidualNorm {
                        value: tail * vnorm,
                    },
                    diags,
                ))
            }
            Exit::Done => Ok(SolverOutcome::converged(acc, diags)),
        }
    }
}

/// Budgeted variant of [`cheb_heat_kernel`]: `exp(−t·A)·v` under an
/// explicit [`Budget`], returning a structured [`SolverOutcome`].
pub fn cheb_heat_kernel_budgeted(
    op: &dyn LinOp,
    t: f64,
    v: &[f64],
    lambda_max: f64,
    degree: usize,
    budget: &Budget,
) -> Result<SolverOutcome<Vec<f64>>> {
    if !(t >= 0.0 && t.is_finite()) {
        return Err(LinalgError::InvalidArgument("t must be nonnegative"));
    }
    if !(lambda_max > 0.0 && lambda_max.is_finite()) {
        return Err(LinalgError::InvalidArgument("lambda_max must be positive"));
    }
    let exp = ChebyshevExpansion::fit(|x| (-t * x).exp(), 0.0, lambda_max, degree)?;
    // The guard is consulted only for NaN/Inf scans and the
    // interval-escape blow-up check on each Chebyshev vector.
    let mut ctx = KernelCtx::budgeted("linalg.chebyshev", budget)
        .with_guard(GuardConfig::contamination_only());
    exp.apply_ctx(op, v, &mut ctx)
}

/// Convenience: `exp(−t·A)·v` for an operator with spectrum in
/// `[0, lambda_max]`, expanded to `degree`.
pub fn cheb_heat_kernel(
    op: &dyn LinOp,
    t: f64,
    v: &[f64],
    lambda_max: f64,
    degree: usize,
) -> Result<Vec<f64>> {
    if !(t >= 0.0 && t.is_finite()) {
        return Err(LinalgError::InvalidArgument("t must be nonnegative"));
    }
    if !(lambda_max > 0.0 && lambda_max.is_finite()) {
        return Err(LinalgError::InvalidArgument("lambda_max must be positive"));
    }
    let exp = ChebyshevExpansion::fit(|x| (-t * x).exp(), 0.0, lambda_max, degree)?;
    exp.apply(op, v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expm::expm_dense;
    use crate::sparse::CsrMatrix;

    fn path_laplacian(n: usize) -> CsrMatrix {
        let mut t = Vec::new();
        for i in 0..n - 1 {
            t.push((i, i, 1.0));
            t.push((i + 1, i + 1, 1.0));
            t.push((i, i + 1, -1.0));
            t.push((i + 1, i, -1.0));
        }
        CsrMatrix::from_triplets(n, n, t)
    }

    #[test]
    fn scalar_fit_matches_function() {
        let e = ChebyshevExpansion::fit(f64::exp, -1.0, 1.0, 16).unwrap();
        for x in [-1.0, -0.3, 0.0, 0.7, 1.0] {
            assert!((e.eval(x) - x.exp()).abs() < 1e-12, "x = {x}");
        }
        assert_eq!(e.degree(), 16);
    }

    #[test]
    fn scalar_fit_on_shifted_interval() {
        let e = ChebyshevExpansion::fit(|x| 1.0 / (1.0 + x), 0.0, 4.0, 24).unwrap();
        for x in [0.0, 0.5, 2.0, 4.0] {
            assert!((e.eval(x) - 1.0 / (1.0 + x)).abs() < 1e-10, "x = {x}");
        }
    }

    #[test]
    fn matrix_apply_matches_scalar_on_diagonal() {
        let d = crate::dense::DenseMatrix::from_diag(&[0.1, 0.9, 1.7]);
        let e = ChebyshevExpansion::fit(|x| x * x + 1.0, 0.0, 2.0, 8).unwrap();
        let out = e.apply(&d, &[1.0, 1.0, 1.0]).unwrap();
        for (o, lam) in out.iter().zip([0.1, 0.9, 1.7]) {
            assert!((o - (lam * lam + 1.0)).abs() < 1e-10);
        }
    }

    #[test]
    fn heat_kernel_matches_dense_route() {
        let n = 24;
        let l = path_laplacian(n);
        let mut neg = l.to_dense();
        neg.scale(-1.3);
        let mut seed = vec![0.0; n];
        seed[5] = 1.0;
        let mut dense = vec![0.0; n];
        expm_dense(&neg).unwrap().gemv(1.0, &seed, 0.0, &mut dense);
        // Chebyshev on [0, 4] (path Laplacian spectrum ⊂ [0, 4]).
        let cheb = cheb_heat_kernel(&l, 1.3, &seed, 4.0, 40).unwrap();
        assert!(vector::dist2(&cheb, &dense) < 1e-9);
    }

    #[test]
    fn degree_is_a_truncation_knob() {
        let n = 30;
        let l = path_laplacian(n);
        let mut seed = vec![0.0; n];
        seed[0] = 1.0;
        let exact = cheb_heat_kernel(&l, 2.0, &seed, 4.0, 60).unwrap();
        let rough = cheb_heat_kernel(&l, 2.0, &seed, 4.0, 6).unwrap();
        let mid = cheb_heat_kernel(&l, 2.0, &seed, 4.0, 16).unwrap();
        assert!(vector::dist2(&mid, &exact) < vector::dist2(&rough, &exact));
        // A degree-d expansion from a delta seed has support within d hops.
        let support = rough.iter().filter(|x| x.abs() > 1e-12).count();
        assert!(support <= 7, "degree-6 support {support} exceeds 7 nodes");
    }

    #[test]
    fn budgeted_full_run_matches_plain() {
        let n = 24;
        let l = path_laplacian(n);
        let mut seed = vec![0.0; n];
        seed[5] = 1.0;
        let plain = cheb_heat_kernel(&l, 1.3, &seed, 4.0, 40).unwrap();
        let out = cheb_heat_kernel_budgeted(&l, 1.3, &seed, 4.0, 40, &Budget::unlimited()).unwrap();
        assert!(out.is_converged());
        assert!(vector::dist2(out.value().unwrap(), &plain) < 1e-12);
    }

    #[test]
    fn budgeted_truncation_certificate_bounds_error() {
        let n = 30;
        let l = path_laplacian(n);
        let mut seed = vec![0.0; n];
        seed[0] = 1.0;
        let exact = cheb_heat_kernel(&l, 2.0, &seed, 4.0, 60).unwrap();
        let out = cheb_heat_kernel_budgeted(&l, 2.0, &seed, 4.0, 60, &Budget::work(10)).unwrap();
        assert!(!out.is_converged() && out.is_usable());
        let cert = out.certificate().unwrap().slack();
        let err = vector::dist2(out.value().unwrap(), &exact);
        assert!(
            err <= cert + 1e-9,
            "truncation error {err} exceeds certificate {cert}"
        );
        assert!(cert > 0.0);
    }

    #[test]
    fn budgeted_detects_spectrum_outside_interval() {
        // An interval that is definitely too small: [0, 1] for a
        // Laplacian with eigenvalues near 4 → the recurrence blows up.
        // The delta seed has energy on the whole spectrum.
        let n = 20;
        let l = path_laplacian(n);
        let mut seed = vec![0.0; n];
        seed[n / 2] = 1.0;
        let out = cheb_heat_kernel_budgeted(&l, 1.0, &seed, 1.0, 60, &Budget::unlimited()).unwrap();
        assert!(!out.is_usable(), "escaped spectrum must be flagged");
    }

    #[test]
    fn apply_ws_reuse_is_bit_identical() {
        use acir_runtime::WorkspacePool;
        static POOL: WorkspacePool<Workspace> = WorkspacePool::new();
        let n = 24;
        let l = path_laplacian(n);
        let exp = ChebyshevExpansion::fit(|x| (-1.3 * x).exp(), 0.0, 4.0, 30).unwrap();
        let mut seed = vec![0.0; n];
        seed[5] = 1.0;
        let first = exp.apply(&l, &seed).unwrap();
        for _ in 0..3 {
            let mut ctx = KernelCtx::new().with_scratch_pool(&POOL);
            let again = exp.apply_ctx(&l, &seed, &mut ctx).unwrap();
            assert_eq!(again.value(), Some(&first));
        }
        assert_eq!(POOL.parked(), 1);
        assert_eq!(
            POOL.with(|ws| ws.parked_f64()),
            3,
            "all scratch buffers returned"
        );
    }

    #[test]
    fn validates_inputs() {
        assert!(ChebyshevExpansion::fit(f64::exp, 1.0, 1.0, 4).is_err());
        assert!(ChebyshevExpansion::fit(f64::exp, 2.0, 1.0, 4).is_err());
        let l = path_laplacian(4);
        let e = ChebyshevExpansion::fit(f64::exp, 0.0, 4.0, 4).unwrap();
        assert!(e.apply(&l, &[1.0]).is_err());
        assert!(cheb_heat_kernel(&l, -1.0, &[0.0; 4], 4.0, 4).is_err());
        assert!(cheb_heat_kernel(&l, 1.0, &[0.0; 4], 0.0, 4).is_err());
    }
}
