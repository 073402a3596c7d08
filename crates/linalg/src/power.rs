//! The Power Method (paper §3.1, footnote 15), with the iteration budget
//! exposed as a first-class parameter.
//!
//! The paper's point is that *truncating* the power iteration early is not
//! merely a cheaper approximation of the dominant eigenvector — it is an
//! implicit regularizer whose output depends on the seed vector. This
//! module therefore reports the full convergence history and accepts an
//! explicit `max_iters` (the "aggressiveness" knob) and an optional list
//! of directions to deflate (e.g. the trivial eigenvector `D^{1/2}·1` of a
//! normalized Laplacian).

use crate::vector;
use crate::{LinOp, LinalgError, Result};
use acir_runtime::{
    Budget, Certificate, DivergenceCause, Exhaustion, GuardConfig, GuardVerdict, KernelCtx,
    SolverOutcome, Workspace,
};

/// Options for [`power_method`].
#[derive(Debug, Clone)]
pub struct PowerOptions {
    /// Maximum number of iterations. This doubles as the early-stopping
    /// regularization parameter: small budgets yield seed-dependent,
    /// smoothed iterates.
    pub max_iters: usize,
    /// Convergence tolerance on `‖A v − λ v‖₂`. Set to `0.0` to force the
    /// method to run exactly `max_iters` iterations (pure early stopping).
    pub tol: f64,
    /// Unit-norm directions to project out of every iterate (deflation).
    pub deflate: Vec<Vec<f64>>,
}

impl Default for PowerOptions {
    fn default() -> Self {
        Self {
            max_iters: 1000,
            tol: 1e-10,
            deflate: Vec::new(),
        }
    }
}

/// Outcome of a power iteration.
#[derive(Debug, Clone)]
pub struct PowerResult {
    /// Rayleigh-quotient estimate of the dominant eigenvalue.
    pub eigenvalue: f64,
    /// Unit-norm eigenvector estimate.
    pub eigenvector: Vec<f64>,
    /// Iterations actually performed.
    pub iterations: usize,
    /// Residual `‖A v − λ v‖₂` at exit.
    pub residual: f64,
    /// Whether the tolerance was met (false means the budget was the
    /// binding constraint — i.e. the output was early-stopped).
    pub converged: bool,
}

/// Run the power method on `op` from seed `v0`.
///
/// Errors if the seed (after deflation) is numerically zero. Never errors
/// on non-convergence: per the paper, a truncated run is a legitimate
/// output, flagged by `converged == false`.
///
/// The two `O(n)` recurrence buffers (`A v` and the residual) come from
/// the crate's shared pool, so steady-state calls do not allocate beyond
/// the returned eigenvector.
pub fn power_method(op: &dyn LinOp, v0: &[f64], opts: &PowerOptions) -> Result<PowerResult> {
    crate::SCRATCH.with(|ws| {
        let mut ctx = KernelCtx::new();
        match power_core(op, v0, opts, ws, &mut ctx)? {
            SolverOutcome::Converged { value, .. } => Ok(value),
            _ => unreachable!("an inert context can neither exhaust nor diverge"),
        }
    })
}

/// Power method against an explicit [`KernelCtx`]. Scratch comes from
/// the context's pool override or the crate pool.
///
/// A metered context drives termination entirely through its budget —
/// clamp the meter to `opts.max_iters` (as [`power_method_budgeted`]
/// does) if the options ceiling should still bind.
pub fn power_method_ctx(
    op: &dyn LinOp,
    v0: &[f64],
    opts: &PowerOptions,
    ctx: &mut KernelCtx,
) -> Result<SolverOutcome<PowerResult>> {
    let _spmv = ctx.spmv_scope();
    ctx.scratch_pool_or(&crate::SCRATCH)
        .with(|ws| power_core(op, v0, opts, ws, ctx))
}

/// The single power-iteration loop. Every public entry point funnels
/// here; the context decides which concerns are live.
fn power_core(
    op: &dyn LinOp,
    v0: &[f64],
    opts: &PowerOptions,
    ws: &mut Workspace,
    ctx: &mut KernelCtx,
) -> Result<SolverOutcome<PowerResult>> {
    let n = op.dim();
    if v0.len() != n {
        return Err(LinalgError::DimensionMismatch {
            expected: n,
            found: v0.len(),
        });
    }
    let mut v = v0.to_vec();
    for u in &opts.deflate {
        vector::deflate(&mut v, u);
    }
    if vector::normalize2(&mut v) < 1e-300 {
        return Err(LinalgError::InvalidArgument(
            "seed vector is zero after deflation",
        ));
    }

    enum Exit {
        Done,
        Diverged(DivergenceCause),
        Exhausted(Exhaustion),
    }

    let mut av = ws.take_f64(n);
    let mut r = ws.take_f64(n);
    let mut eigenvalue = 0.0;
    let mut residual = f64::INFINITY;
    // Best iterate seen (smallest residual), kept only under a budget:
    // it is what an exhausted outcome returns, and the clone per
    // improvement would break the plain path's allocation contract.
    let mut best: Option<PowerResult> = None;
    let mut iterations = 0;
    let mut exit = Exit::Done;
    // CORE LOOP
    while ctx.is_metered() || iterations < opts.max_iters {
        op.apply(&v, &mut av);
        for u in &opts.deflate {
            vector::deflate(&mut av, u);
        }
        eigenvalue = vector::dot(&v, &av);
        // residual = ‖Av − λv‖
        r.copy_from_slice(&av);
        vector::axpy(-eigenvalue, &v, &mut r);
        residual = vector::norm2(&r);
        iterations += 1;

        ctx.push_residual(residual);
        if let GuardVerdict::Halt(cause) = ctx.observe(residual) {
            exit = Exit::Diverged(cause);
            break;
        }
        if ctx.is_metered() && residual < best.as_ref().map_or(f64::INFINITY, |b| b.residual) {
            best = Some(PowerResult {
                eigenvalue,
                eigenvector: v.clone(),
                iterations,
                residual,
                converged: false,
            });
        }

        let norm = vector::norm2(&av);
        if norm < 1e-300 {
            // Seed lay in the null space of the (deflated) operator.
            ctx.note_with(|| "seed fell into the null space of the deflated operator".into());
            break;
        }
        vector::copy_div(norm, &av, &mut v);
        if let GuardVerdict::Halt(cause) = ctx.check_iterate(&v, iterations - 1) {
            exit = Exit::Diverged(cause);
            break;
        }
        if opts.tol > 0.0 && residual <= opts.tol {
            break;
        }
        ctx.tick_iter();
        if let Some(exhausted) = ctx.add_work(1) {
            exit = Exit::Exhausted(exhausted);
            break;
        }
    }
    ws.put_f64(av);
    ws.put_f64(r);

    let mut diags = ctx.finish();
    match exit {
        Exit::Diverged(cause) => Ok(SolverOutcome::diverged(cause, diags)),
        Exit::Exhausted(exhausted) => {
            let best_so_far = best.unwrap_or(PowerResult {
                eigenvalue,
                eigenvector: v,
                iterations,
                residual,
                converged: false,
            });
            let certificate = Certificate::RayleighInterval {
                center: best_so_far.eigenvalue,
                radius: best_so_far.residual,
            };
            Ok(SolverOutcome::exhausted(
                best_so_far,
                exhausted,
                certificate,
                diags,
            ))
        }
        Exit::Done => {
            diags.iterations = iterations;
            let converged = opts.tol > 0.0 && residual <= opts.tol;
            Ok(SolverOutcome::converged(
                PowerResult {
                    eigenvalue,
                    eigenvector: v,
                    iterations,
                    residual,
                    converged,
                },
                diags,
            ))
        }
    }
}

/// Power method under an explicit resource [`Budget`], with divergence
/// guards and a structured [`SolverOutcome`].
///
/// The effective iteration ceiling is the smaller of `opts.max_iters`
/// and `budget.max_iters`; each matvec costs one work unit. Hitting any
/// budget axis returns [`SolverOutcome::BudgetExhausted`] carrying the
/// *best* iterate seen (smallest eigen-residual) and a
/// [`Certificate::RayleighInterval`]: for a symmetric operator and unit
/// vector `v`, some true eigenvalue lies within `‖Av − θv‖₂` of the
/// Rayleigh quotient `θ`. NaN/Inf contamination — e.g. from a faulted
/// operator ([`crate::fault::FaultyOp`]) — yields
/// [`SolverOutcome::Diverged`] and never a poisoned value.
///
/// Errors only on malformed input (dimension mismatch, zero seed).
pub fn power_method_budgeted(
    op: &dyn LinOp,
    v0: &[f64],
    opts: &PowerOptions,
    budget: &Budget,
) -> Result<SolverOutcome<PowerResult>> {
    // Power residuals plateau legitimately under pure early stopping,
    // so only contamination and blow-up are treated as divergence.
    let mut ctx = KernelCtx::budgeted(
        "linalg.power",
        &budget.with_max_iters(budget.max_iters.min(opts.max_iters)),
    )
    .with_guard(GuardConfig::contamination_only());
    power_method_ctx(op, v0, opts, &mut ctx)
}

/// Rayleigh quotient `xᵀAx / xᵀx`.
pub fn rayleigh_quotient(op: &dyn LinOp, x: &[f64]) -> f64 {
    let ax = op.apply_vec(x);
    vector::dot(x, &ax) / vector::dot(x, x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseMatrix;

    #[test]
    fn dominant_eigenpair_of_diagonal() {
        let a = DenseMatrix::from_diag(&[1.0, 5.0, 2.0]);
        let r = power_method(&a, &[1.0, 1.0, 1.0], &PowerOptions::default()).unwrap();
        assert!(r.converged);
        assert!((r.eigenvalue - 5.0).abs() < 1e-8);
        assert!(r.eigenvector[1].abs() > 0.999);
    }

    #[test]
    fn deflation_finds_second_eigenpair() {
        let a = DenseMatrix::from_diag(&[1.0, 5.0, 3.0]);
        let first = vec![0.0, 1.0, 0.0];
        let opts = PowerOptions {
            deflate: vec![first],
            ..Default::default()
        };
        let r = power_method(&a, &[1.0, 1.0, 1.0], &opts).unwrap();
        assert!((r.eigenvalue - 3.0).abs() < 1e-8);
    }

    #[test]
    fn early_stopping_reports_unconverged() {
        let a = DenseMatrix::from_diag(&[1.0, 1.001]);
        let opts = PowerOptions {
            max_iters: 3,
            tol: 1e-14,
            ..Default::default()
        };
        let r = power_method(&a, &[1.0, 1.0], &opts).unwrap();
        assert_eq!(r.iterations, 3);
        assert!(!r.converged);
    }

    #[test]
    fn tol_zero_forces_exact_budget() {
        let a = DenseMatrix::from_diag(&[1.0, 10.0]);
        let opts = PowerOptions {
            max_iters: 7,
            tol: 0.0,
            ..Default::default()
        };
        let r = power_method(&a, &[1.0, 1.0], &opts).unwrap();
        assert_eq!(r.iterations, 7);
        assert!(!r.converged);
    }

    #[test]
    fn early_stopped_iterate_retains_seed_dependence() {
        // With a tiny spectral gap and few iterations, different seeds
        // give visibly different outputs — the paper's early-stopping-as-
        // regularization observation in its simplest form.
        let a = DenseMatrix::from_diag(&[1.0, 1.01, 1.02]);
        let opts = PowerOptions {
            max_iters: 2,
            tol: 0.0,
            ..Default::default()
        };
        let r1 = power_method(&a, &[1.0, 0.1, 0.1], &opts).unwrap();
        let r2 = power_method(&a, &[0.1, 0.1, 1.0], &opts).unwrap();
        assert!(vector::alignment(&r1.eigenvector, &r2.eigenvector) < 0.9);
    }

    #[test]
    fn zero_seed_is_error() {
        let a = DenseMatrix::identity(2);
        assert!(power_method(&a, &[0.0, 0.0], &PowerOptions::default()).is_err());
        // Seed equal to a deflated direction is also effectively zero.
        let opts = PowerOptions {
            deflate: vec![vec![1.0, 0.0]],
            ..Default::default()
        };
        assert!(power_method(&a, &[1.0, 0.0], &opts).is_err());
    }

    #[test]
    fn dimension_mismatch_is_error() {
        let a = DenseMatrix::identity(3);
        assert!(matches!(
            power_method(&a, &[1.0], &PowerOptions::default()),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn rayleigh_quotient_bounds() {
        let a = DenseMatrix::from_diag(&[1.0, 4.0]);
        let rq = rayleigh_quotient(&a, &[1.0, 1.0]);
        assert!((rq - 2.5).abs() < 1e-12);
        assert!((1.0..=4.0).contains(&rq));
    }

    #[test]
    fn budgeted_converges_like_plain() {
        let a = DenseMatrix::from_diag(&[1.0, 5.0, 2.0]);
        let out = power_method_budgeted(
            &a,
            &[1.0, 1.0, 1.0],
            &PowerOptions::default(),
            &Budget::unlimited(),
        )
        .unwrap();
        assert!(out.is_converged());
        let r = out.value().unwrap();
        assert!((r.eigenvalue - 5.0).abs() < 1e-8);
        assert!(!out.diagnostics().residuals.is_empty());
    }

    #[test]
    fn budgeted_exhaustion_returns_certified_partial() {
        // Tiny spectral gap: cannot converge in 3 iterations.
        let a = DenseMatrix::from_diag(&[1.0, 1.001]);
        let out = power_method_budgeted(
            &a,
            &[1.0, 1.0],
            &PowerOptions {
                tol: 1e-14,
                ..Default::default()
            },
            &Budget::iterations(3),
        )
        .unwrap();
        assert!(!out.is_converged() && out.is_usable());
        match out.certificate() {
            Some(Certificate::RayleighInterval { center, radius }) => {
                // The enclosure must contain a true eigenvalue.
                assert!(
                    (center - radius..=center + radius).contains(&1.0)
                        || (center - radius..=center + radius).contains(&1.001),
                    "interval [{}, {}] misses both eigenvalues",
                    center - radius,
                    center + radius
                );
            }
            c => panic!("wrong certificate {c:?}"),
        }
    }

    #[test]
    fn budgeted_detects_nan_injection() {
        let a = DenseMatrix::from_diag(&[1.0, 5.0, 2.0]);
        let faulty = crate::fault::FaultyOp::new(
            &a,
            acir_runtime::FaultConfig::nans(0.8).after_clean_applies(2),
        );
        let out = power_method_budgeted(
            &faulty,
            &[1.0, 1.0, 1.0],
            &PowerOptions {
                tol: 1e-14,
                ..Default::default()
            },
            &Budget::unlimited(),
        )
        .unwrap();
        assert!(!out.is_usable(), "poisoned run must not yield a value");
        assert!(!out.diagnostics().residuals.is_empty());
    }

    #[test]
    fn pooled_scratch_reuse_is_bit_identical() {
        let a = DenseMatrix::from_diag(&[1.0, 1.01, 1.02]);
        let opts = PowerOptions {
            max_iters: 5,
            tol: 0.0,
            ..Default::default()
        };
        let first = power_method(&a, &[1.0, 0.2, 0.3], &opts).unwrap();
        for _ in 0..3 {
            let again = power_method(&a, &[1.0, 0.2, 0.3], &opts).unwrap();
            assert_eq!(again.eigenvalue.to_bits(), first.eigenvalue.to_bits());
            assert_eq!(again.residual.to_bits(), first.residual.to_bits());
            assert_eq!(again.eigenvector, first.eigenvector);
        }
    }

    #[test]
    fn negative_dominant_eigenvalue() {
        // |−6| > |2|: power method tracks the largest-magnitude eigenvalue.
        let a = DenseMatrix::from_diag(&[-6.0, 2.0]);
        let r = power_method(&a, &[1.0, 1.0], &PowerOptions::default()).unwrap();
        assert!((r.eigenvalue - (-6.0)).abs() < 1e-6);
    }
}
