//! The three diffusion dynamics of §3.1.
//!
//! Each assigns "charge" to nodes via a seed distribution and evolves it:
//!
//! * **Heat Kernel** — `H_t s = exp(−t𝓛)·s` with time parameter `t`;
//! * **PageRank** — `R_γ s = γ(I − (1−γ)M)^{−1}·s` with teleportation
//!   `γ` (paper Eq. (2));
//! * **Lazy Random Walk** — `W_α^k s` with holding probability `α` and
//!   step count `k`.
//!
//! Each has an *aggressiveness* parameter (`t`, `γ`, `k`) controlling
//! how far the dynamics run toward equilibrium. Run to the limit they
//! forget the seed and recover the trivial stationary distribution;
//! truncated early they compute a seed-dependent *regularized*
//! approximation to the leading nontrivial eigenvector — the central
//! phenomenon of the paper. Exact and truncated variants are both
//! provided so the experiments can measure the gap.

use crate::laplacian::{normalized_laplacian, random_walk_matrix};
use crate::{Result, SpectralError};
use acir_graph::{Graph, NodeId};
use acir_linalg::solve::{cg, cg_budgeted, CgOptions};
use acir_linalg::{vector, CsrMatrix, LinOp};
use acir_runtime::{
    Budget, Certificate, Diagnostics, DivergenceCause, Exhaustion, GuardVerdict, KernelCtx,
    SolverOutcome,
};

/// Seed ("charge") distributions for diffusions.
#[derive(Debug, Clone)]
pub enum Seed {
    /// All mass on one node.
    Node(NodeId),
    /// Uniform over a node set.
    Set(Vec<NodeId>),
    /// Uniform over all nodes.
    Uniform,
    /// Degree-proportional (the stationary distribution of `M`).
    Degree,
    /// Explicit distribution (will be 1-normalized).
    Custom(Vec<f64>),
}

impl Seed {
    /// Materialize as a 1-normalized nonnegative vector of length `n`.
    pub fn to_vector(&self, g: &Graph) -> Result<Vec<f64>> {
        let n = g.n();
        let mut s = vec![0.0; n];
        match self {
            Seed::Node(u) => {
                if *u as usize >= n {
                    return Err(SpectralError::InvalidArgument(format!(
                        "seed node {u} out of range"
                    )));
                }
                s[*u as usize] = 1.0;
            }
            Seed::Set(nodes) => {
                if nodes.is_empty() {
                    return Err(SpectralError::InvalidArgument("empty seed set".into()));
                }
                for &u in nodes {
                    if u as usize >= n {
                        return Err(SpectralError::InvalidArgument(format!(
                            "seed node {u} out of range"
                        )));
                    }
                    s[u as usize] = 1.0;
                }
            }
            Seed::Uniform => s.fill(1.0),
            Seed::Degree => s.copy_from_slice(g.degrees()),
            Seed::Custom(v) => {
                if v.len() != n {
                    return Err(SpectralError::InvalidArgument(format!(
                        "custom seed length {} != n {}",
                        v.len(),
                        n
                    )));
                }
                if v.iter().any(|&x| x < 0.0 || !x.is_finite()) {
                    return Err(SpectralError::InvalidArgument(
                        "custom seed must be nonnegative and finite".into(),
                    ));
                }
                s.copy_from_slice(v);
            }
        }
        let mass = vector::norm1(&s);
        if !(mass.is_finite() && (1.0 / mass).is_finite()) {
            // The ℓ₁ mass or its reciprocal overflows: bring the largest
            // entry to 1 first (a zero vector stays zero).
            let top = s.iter().fold(0.0, |m: f64, &x| m.max(x));
            if top > 0.0 {
                s.iter_mut().for_each(|x| *x /= top);
            }
        }
        if vector::normalize1(&mut s) == 0.0 {
            return Err(SpectralError::InvalidArgument("seed has zero mass".into()));
        }
        Ok(s)
    }
}

/// Heat-kernel diffusion `exp(−t·𝓛)·s` on the *normalized* Laplacian
/// via the Chebyshev route ([`acir_linalg::chebyshev`]): `degree`
/// matvecs, no orthogonalization, and — because a degree-`d`
/// polynomial of the Laplacian reaches only `d` hops — a *structurally
/// local* approximation at low degrees. Agrees with the exact
/// `exp(−t𝓛)` as the degree grows.
///
/// Aggressiveness: larger `t` diffuses further (and regularizes less in
/// the η ↔ t correspondence of the regularized SDP; see
/// `acir-regularize`).
pub fn heat_kernel_chebyshev(g: &Graph, t: f64, seed: &Seed, degree: usize) -> Result<Vec<f64>> {
    if !(t >= 0.0 && t.is_finite()) {
        return Err(SpectralError::InvalidArgument(format!(
            "heat kernel time must be nonnegative, got {t}"
        )));
    }
    let s = seed.to_vector(g)?;
    if t == 0.0 {
        return Ok(s);
    }
    let nl = normalized_laplacian(g);
    // spec(𝓛) ⊆ [0, 2] always.
    Ok(acir_linalg::chebyshev::cheb_heat_kernel(
        &nl,
        t,
        &s,
        2.0,
        degree.max(1),
    )?)
}

/// The symmetrized PageRank system operator `I − (1−γ)·𝒜`.
struct SysOp<'a> {
    a: &'a CsrMatrix,
    c: f64,
}
impl LinOp for SysOp<'_> {
    fn dim(&self) -> usize {
        self.a.nrows()
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.a.matvec(x, y);
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi = *xi - self.c * *yi;
        }
    }
}

fn validate_gamma(gamma: f64) -> Result<()> {
    if !(0.0 < gamma && gamma <= 1.0) {
        return Err(SpectralError::InvalidArgument(format!(
            "pagerank needs gamma in (0, 1], got {gamma}"
        )));
    }
    Ok(())
}

fn validate_degrees(g: &Graph) -> Result<()> {
    if g.degrees().iter().any(|&d| d <= 0.0) {
        return Err(SpectralError::InvalidArgument(
            "pagerank requires positive degrees (no isolated nodes)".into(),
        ));
    }
    Ok(())
}

/// Assemble the symmetrized SPD system `(I − (1−γ)𝒜) y = γ D^{−1/2} s`
/// shared by the exact and budgeted PageRank solvers: degree square
/// roots, normalized adjacency, right-hand side, and CG options.
fn pagerank_system(g: &Graph, gamma: f64, s: &[f64]) -> (Vec<f64>, CsrMatrix, Vec<f64>, CgOptions) {
    let n = g.n();
    let sqrt_d: Vec<f64> = g.degrees().iter().map(|&d| d.sqrt()).collect();
    let a_norm = crate::laplacian::normalized_adjacency(g);
    let b: Vec<f64> = (0..n).map(|i| gamma * s[i] / sqrt_d[i]).collect();
    let opts = CgOptions {
        max_iters: 10_000,
        tol: 1e-12,
    };
    (sqrt_d, a_norm, b, opts)
}

/// Exact PageRank vector `R_γ s = γ(I − (1−γ)M)^{−1} s` (paper Eq. (2)),
/// via the symmetrized SPD system solved with conjugate gradient:
///
/// with `x = D^{1/2} y`, `(I − (1−γ)𝒜) y = γ D^{−1/2} s` where
/// `𝒜 = D^{−1/2}AD^{−1/2}` is symmetric with spectrum in `[−1, 1]`, so
/// the system matrix is SPD for `γ ∈ (0, 1]`.
///
/// Requires all degrees positive (run on a connected component).
pub fn pagerank(g: &Graph, gamma: f64, seed: &Seed) -> Result<Vec<f64>> {
    validate_gamma(gamma)?;
    validate_degrees(g)?;
    let s = seed.to_vector(g)?;
    if gamma == 1.0 {
        return Ok(s);
    }
    let n = g.n();
    let (sqrt_d, a_norm, b, opts) = pagerank_system(g, gamma, &s);
    let op = SysOp {
        a: &a_norm,
        c: 1.0 - gamma,
    };
    let res = cg(&op, &b, &vec![0.0; n], &opts)?;
    if !res.converged {
        return Err(SpectralError::Linalg(
            acir_linalg::LinalgError::NotConverged {
                iterations: res.iterations,
                residual: res.relative_residual,
            },
        ));
    }
    Ok(res.x.iter().zip(&sqrt_d).map(|(y, d)| y * d).collect())
}

/// Budgeted variant of [`pagerank`]: the same symmetrized CG solve
/// under a resource [`Budget`], returning a structured
/// [`SolverOutcome`].
///
/// On exhaustion the best CG iterate is mapped back through
/// `x = D^{1/2} y` and returned with its
/// [`acir_runtime::Certificate::ResidualNorm`] — the relative residual
/// of the *symmetrized* system, which bounds the PageRank error up to
/// the conditioning of `D^{1/2}`. Early-truncated PageRank is exactly
/// the paper's regularized approximation, so a budget here is an
/// aggressiveness knob, not a failure mode.
pub fn pagerank_budgeted(
    g: &Graph,
    gamma: f64,
    seed: &Seed,
    budget: &Budget,
) -> Result<SolverOutcome<Vec<f64>>> {
    validate_gamma(gamma)?;
    validate_degrees(g)?;
    let s = seed.to_vector(g)?;
    if gamma == 1.0 {
        let mut diags = Diagnostics::for_kernel("spectral.pagerank");
        diags.note("gamma = 1: PageRank is the seed itself");
        return Ok(SolverOutcome::converged(s, diags));
    }
    let n = g.n();
    let (sqrt_d, a_norm, b, opts) = pagerank_system(g, gamma, &s);
    let op = SysOp {
        a: &a_norm,
        c: 1.0 - gamma,
    };
    let out = cg_budgeted(&op, &b, &vec![0.0; n], &opts, budget)?;
    let mut out = out.map(|res| res.x.iter().zip(&sqrt_d).map(|(y, d)| y * d).collect());
    out.diagnostics_mut().wrap_span("spectral.pagerank");
    Ok(out)
}

/// Budgeted variant of [`heat_kernel_chebyshev`]: the same Chebyshev
/// evaluation under a resource [`Budget`].
///
/// Exhaustion returns the series truncated at the last affordable
/// degree with an [`acir_runtime::Certificate::ResidualNorm`] bounding
/// the dropped Chebyshev tail (`Σ_{k>d} |c_k| · ‖s‖`); NaN injection in
/// the operator surfaces as a structured `Diverged`, never a poisoned
/// vector.
pub fn heat_kernel_chebyshev_budgeted(
    g: &Graph,
    t: f64,
    seed: &Seed,
    degree: usize,
    budget: &Budget,
) -> Result<SolverOutcome<Vec<f64>>> {
    if !(t >= 0.0 && t.is_finite()) {
        return Err(SpectralError::InvalidArgument(format!(
            "heat kernel time must be nonnegative, got {t}"
        )));
    }
    let s = seed.to_vector(g)?;
    if t == 0.0 {
        let mut diags = Diagnostics::for_kernel("spectral.heat_kernel");
        diags.note("t = 0: heat kernel is the identity");
        return Ok(SolverOutcome::converged(s, diags));
    }
    let nl = normalized_laplacian(g);
    let mut out =
        acir_linalg::chebyshev::cheb_heat_kernel_budgeted(&nl, t, &s, 2.0, degree.max(1), budget)?;
    out.diagnostics_mut().wrap_span("spectral.heat_kernel");
    Ok(out)
}

/// Truncated iterative PageRank: `x ← γs + (1−γ)Mx` for `iters`
/// iterations from `x = s`.
///
/// This is the practitioner's Power-Method variant of Eq. (2); with
/// `iters → ∞` it converges to [`pagerank`], truncated early it is the
/// §3.1 regularized approximation. Returns the iterate and the final
/// update norm (a convergence certificate the caller may ignore —
/// deliberately, truncation is the point).
pub fn pagerank_power(g: &Graph, gamma: f64, seed: &Seed, iters: usize) -> Result<(Vec<f64>, f64)> {
    let mut ctx = KernelCtx::new();
    match pagerank_power_ctx(g, gamma, seed, iters, &mut ctx)? {
        SolverOutcome::Converged { value, .. } => Ok(value),
        _ => unreachable!("an inert context can neither exhaust nor diverge"),
    }
}

enum PowerExit {
    Done,
    Exhausted(Exhaustion),
    Diverged(DivergenceCause),
}

/// [`pagerank_power`] under an explicit [`KernelCtx`]: the same
/// recurrence with metering, guarding, and tracing routed through the
/// context. An inert context reproduces [`pagerank_power`] bit for bit;
/// a metered one may stop after fewer sweeps and certifies the iterate
/// with its last update norm (`ℓ₁` distance between consecutive
/// iterates — truncation is the paper's regularization, not a failure).
/// Each sweep costs `nnz(M)` work units.
pub fn pagerank_power_ctx(
    g: &Graph,
    gamma: f64,
    seed: &Seed,
    iters: usize,
    ctx: &mut KernelCtx,
) -> Result<SolverOutcome<(Vec<f64>, f64)>> {
    validate_gamma(gamma)?;
    let _spmv = ctx.spmv_scope();
    let s = seed.to_vector(g)?;
    let m = random_walk_matrix(g);
    let n = g.n();
    let sweep_work = m.nnz() as u64;
    let mut x = s.clone();
    let mut mx = vec![0.0; n];
    let mut delta = 0.0;
    let mut exit = PowerExit::Done;
    // CORE LOOP
    for k in 0..iters {
        m.matvec(&x, &mut mx);
        delta = 0.0;
        for i in 0..n {
            let next = gamma * s[i] + (1.0 - gamma) * mx[i];
            delta += (next - x[i]).abs();
            x[i] = next;
        }
        ctx.push_residual(delta);
        if let GuardVerdict::Halt(cause) = ctx.observe(delta) {
            exit = PowerExit::Diverged(cause);
            break;
        }
        ctx.tick_iter();
        if let Some(exhausted) = ctx.add_work(sweep_work) {
            ctx.note_with(|| format!("stopped after sweep {} of {iters}", k + 1));
            exit = PowerExit::Exhausted(exhausted);
            break;
        }
    }
    let diags = ctx.finish();
    Ok(match exit {
        PowerExit::Done => SolverOutcome::converged((x, delta), diags),
        PowerExit::Exhausted(exhausted) => SolverOutcome::exhausted(
            (x, delta),
            exhausted,
            Certificate::ResidualNorm { value: delta },
            diags,
        ),
        PowerExit::Diverged(cause) => SolverOutcome::diverged(cause, diags),
    })
}

/// `k` steps of the lazy random walk `W_α = αI + (1−α)M` from the seed.
///
/// Aggressiveness: more steps equilibrate further; fewer steps keep the
/// output seed-local.
pub fn lazy_walk(g: &Graph, alpha: f64, steps: usize, seed: &Seed) -> Result<Vec<f64>> {
    if !(0.0 < alpha && alpha < 1.0) {
        return Err(SpectralError::InvalidArgument(format!(
            "lazy walk needs alpha in (0, 1), got {alpha}"
        )));
    }
    let s = seed.to_vector(g)?;
    let m = random_walk_matrix(g);
    let n = g.n();
    let mut x = s;
    let mut mx = vec![0.0; n];
    for _ in 0..steps {
        m.matvec(&x, &mut mx);
        for i in 0..n {
            x[i] = alpha * x[i] + (1.0 - alpha) * mx[i];
        }
    }
    Ok(x)
}

/// The stationary distribution of the natural random walk:
/// `π_u = d_u / vol(V)` — the limit every aggressive diffusion forgets
/// its seed toward (on connected non-bipartite graphs).
pub fn stationary_distribution(g: &Graph) -> Vec<f64> {
    let vol = g.total_volume();
    if vol == 0.0 {
        return vec![0.0; g.n()];
    }
    g.degrees().iter().map(|&d| d / vol).collect()
}

/// Total-variation distance between two distributions: `½‖p − q‖₁`.
pub fn tv_distance(p: &[f64], q: &[f64]) -> f64 {
    debug_assert_eq!(p.len(), q.len());
    0.5 * p.iter().zip(q).map(|(a, b)| (a - b).abs()).sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use acir_graph::gen::deterministic::{barbell, complete, cycle, path, star};

    #[test]
    fn seed_vectors() {
        let g = path(4).unwrap();
        assert_eq!(
            Seed::Node(2).to_vector(&g).unwrap(),
            vec![0.0, 0.0, 1.0, 0.0]
        );
        let set = Seed::Set(vec![0, 1]).to_vector(&g).unwrap();
        assert_eq!(set, vec![0.5, 0.5, 0.0, 0.0]);
        let uni = Seed::Uniform.to_vector(&g).unwrap();
        assert!((vector::sum(&uni) - 1.0).abs() < 1e-12);
        let deg = Seed::Degree.to_vector(&g).unwrap();
        assert!((deg[1] - 2.0 / 6.0).abs() < 1e-12);
        let custom = Seed::Custom(vec![2.0, 0.0, 0.0, 2.0])
            .to_vector(&g)
            .unwrap();
        assert_eq!(custom, vec![0.5, 0.0, 0.0, 0.5]);
    }

    #[test]
    fn seed_validation() {
        let g = path(3).unwrap();
        assert!(Seed::Node(9).to_vector(&g).is_err());
        assert!(Seed::Set(vec![]).to_vector(&g).is_err());
        assert!(Seed::Set(vec![7]).to_vector(&g).is_err());
        assert!(Seed::Custom(vec![1.0]).to_vector(&g).is_err());
        assert!(Seed::Custom(vec![-1.0, 0.0, 0.0]).to_vector(&g).is_err());
        assert!(Seed::Custom(vec![0.0; 3]).to_vector(&g).is_err());
    }

    #[test]
    fn seed_mass_survives_overflow_and_underflow() {
        let g = path(2).unwrap();
        // ℓ₁ mass overflows to ∞.
        let big = Seed::Custom(vec![f64::MAX, f64::MAX])
            .to_vector(&g)
            .unwrap();
        assert_eq!(big, vec![0.5, 0.5]);
        // 1/mass overflows to ∞.
        let tiny = Seed::Custom(vec![5e-324, 0.0]).to_vector(&g).unwrap();
        assert_eq!(tiny, vec![1.0, 0.0]);
    }

    #[test]
    fn heat_kernel_zero_time_is_identity() {
        let g = cycle(6).unwrap();
        let s = heat_kernel_chebyshev(&g, 0.0, &Seed::Node(0), 20).unwrap();
        assert_eq!(s[0], 1.0);
        assert!(heat_kernel_chebyshev(&g, -1.0, &Seed::Node(0), 20).is_err());
    }

    #[test]
    fn heat_kernel_matches_dense_reference() {
        for (g, seed, t) in [(star(7).unwrap(), 3, 1.3), (barbell(5, 2).unwrap(), 2, 1.9)] {
            let out = heat_kernel_chebyshev(&g, t, &Seed::Node(seed), 50).unwrap();
            // Dense reference via the symmetric eigensolver.
            let nl = normalized_laplacian(&g).to_dense();
            let eig = acir_linalg::SymEig::new(&nl).unwrap();
            let h = eig.matrix_function(|lam| (-t * lam).exp());
            let mut expected = vec![0.0; g.n()];
            let mut s = vec![0.0; g.n()];
            s[seed as usize] = 1.0;
            h.gemv(1.0, &s, 0.0, &mut expected);
            assert!(vector::dist2(&out, &expected) < 1e-9);
        }
    }

    #[test]
    fn chebyshev_heat_kernel_matches_krylov_route() {
        let g = barbell(5, 2).unwrap();
        let t = 1.9;
        // Krylov reference: full Lanczos on 𝓛 from the seed, then
        // exp(−t𝓛)s ≈ ‖s‖·V·exp(−tT)·e₁.
        let nl = normalized_laplacian(&g);
        let s = Seed::Node(2).to_vector(&g).unwrap();
        let mut v = s.clone();
        let s_norm = vector::normalize2(&mut v);
        let (mut basis, mut alpha, mut beta) = (vec![v], Vec::new(), Vec::new());
        while basis.len() <= g.n() {
            let mut w = vec![0.0; g.n()];
            nl.matvec(basis.last().unwrap(), &mut w);
            alpha.push(vector::dot(&w, basis.last().unwrap()));
            for _ in 0..2 {
                for q in &basis {
                    let c = vector::dot(&w, q);
                    vector::axpy(-c, q, &mut w);
                }
            }
            let b = vector::normalize2(&mut w);
            if b < 1e-10 || basis.len() == g.n() {
                break;
            }
            beta.push(b);
            basis.push(w);
        }
        let tri = acir_linalg::tridiag::tridiag_eig(&alpha, &beta).unwrap();
        let z = &tri.eigenvectors;
        let mut krylov = vec![0.0; g.n()];
        for (j, q) in basis.iter().enumerate() {
            let c: f64 = (0..alpha.len())
                .map(|i| z.row(j)[i] * (-t * tri.eigenvalues[i]).exp() * z.row(0)[i])
                .sum();
            vector::axpy(s_norm * c, q, &mut krylov);
        }
        let cheb = heat_kernel_chebyshev(&g, t, &Seed::Node(2), 50).unwrap();
        assert!(vector::dist2(&krylov, &cheb) < 1e-9);
        // t = 0 short-circuits; bad t rejected.
        let id = heat_kernel_chebyshev(&g, 0.0, &Seed::Node(2), 10).unwrap();
        assert_eq!(id[2], 1.0);
        assert!(heat_kernel_chebyshev(&g, -1.0, &Seed::Node(2), 10).is_err());
    }

    #[test]
    fn pagerank_solves_the_resolvent_exactly() {
        // Verify (I − (1−γ)M) x = γ s.
        let g = barbell(4, 1).unwrap();
        let gamma = 0.2;
        let seed = Seed::Node(0);
        let x = pagerank(&g, gamma, &seed).unwrap();
        let m = random_walk_matrix(&g);
        let mut mx = vec![0.0; g.n()];
        m.matvec(&x, &mut mx);
        let s = seed.to_vector(&g).unwrap();
        for i in 0..g.n() {
            let lhs = x[i] - (1.0 - gamma) * mx[i];
            assert!((lhs - gamma * s[i]).abs() < 1e-9, "row {i}");
        }
        // PageRank of a probability seed is a probability vector.
        assert!((vector::sum(&x) - 1.0).abs() < 1e-9);
        assert!(x.iter().all(|&v| v >= -1e-12));
    }

    #[test]
    fn pagerank_gamma_one_returns_seed() {
        let g = cycle(5).unwrap();
        let x = pagerank(&g, 1.0, &Seed::Node(2)).unwrap();
        assert_eq!(x[2], 1.0);
    }

    #[test]
    fn pagerank_power_converges_to_exact() {
        let g = complete(6).unwrap();
        let gamma = 0.15;
        let exact = pagerank(&g, gamma, &Seed::Node(1)).unwrap();
        let (approx, delta) = pagerank_power(&g, gamma, &Seed::Node(1), 200).unwrap();
        assert!(vector::dist2(&exact, &approx) < 1e-9);
        assert!(delta < 1e-10);
    }

    #[test]
    fn pagerank_power_truncation_stays_seed_biased() {
        // Few iterations: the output still concentrates near the seed
        // (the paper's point about truncated dynamics).
        let g = path(30).unwrap();
        let (x, _) = pagerank_power(&g, 0.05, &Seed::Node(0), 3).unwrap();
        assert!(x[0] > x[15], "seed end should hold more mass");
        // More iterations move the iterate closer to the exact PPR
        // fixed point (pointwise comparisons would be brittle on a
        // bipartite path, where mass parity oscillates).
        let exact = pagerank(&g, 0.05, &Seed::Node(0)).unwrap();
        let (x_long, _) = pagerank_power(&g, 0.05, &Seed::Node(0), 500).unwrap();
        assert!(tv_distance(&x_long, &exact) < tv_distance(&x, &exact));
        assert!(tv_distance(&x_long, &exact) < 1e-9);
    }

    #[test]
    fn pagerank_budgeted_unlimited_matches_plain() {
        let g = barbell(4, 1).unwrap();
        let out = pagerank_budgeted(&g, 0.2, &Seed::Node(0), &Budget::unlimited()).unwrap();
        assert!(out.is_converged());
        let exact = pagerank(&g, 0.2, &Seed::Node(0)).unwrap();
        assert!(vector::dist2(out.value().unwrap(), &exact) < 1e-9);
        // gamma = 1 short-circuits.
        let one = pagerank_budgeted(&g, 1.0, &Seed::Node(2), &Budget::iterations(1)).unwrap();
        assert!(one.is_converged());
        assert_eq!(one.value().unwrap()[2], 1.0);
    }

    #[test]
    fn pagerank_budgeted_exhaustion_is_certified_partial() {
        let g = path(50).unwrap();
        let out = pagerank_budgeted(&g, 0.01, &Seed::Node(0), &Budget::iterations(3)).unwrap();
        assert!(!out.is_converged() && out.is_usable());
        let slack = out.certificate().unwrap().slack();
        assert!(slack > 0.0 && slack.is_finite());
        // The partial iterate is still seed-biased — a usable
        // regularized answer, per the paper.
        let x = out.value().unwrap();
        assert!(x[0] > x[25]);
    }

    #[test]
    fn heat_kernel_chebyshev_budgeted_matches_and_degrades() {
        let g = barbell(5, 2).unwrap();
        let t = 1.9;
        let out = heat_kernel_chebyshev_budgeted(&g, t, &Seed::Node(2), 50, &Budget::unlimited())
            .unwrap();
        assert!(out.is_converged());
        let plain = heat_kernel_chebyshev(&g, t, &Seed::Node(2), 50).unwrap();
        assert!(vector::dist2(out.value().unwrap(), &plain) < 1e-12);
        // Starve it: partial series with a finite tail bound.
        let starved =
            heat_kernel_chebyshev_budgeted(&g, t, &Seed::Node(2), 50, &Budget::work(4)).unwrap();
        assert!(!starved.is_converged() && starved.is_usable());
        let slack = starved.certificate().unwrap().slack();
        let err = vector::dist2(starved.value().unwrap(), &plain);
        assert!(
            err <= slack + 1e-9,
            "error {err} exceeds tail bound {slack}"
        );
    }

    #[test]
    fn pagerank_power_budgeted_matches_and_truncates() {
        let g = path(20).unwrap();
        // Unlimited budget: bit-identical to the plain recurrence.
        let (want_x, want_delta) = pagerank_power(&g, 0.1, &Seed::Node(0), 40).unwrap();
        let budgeted = |budget: &Budget| {
            let mut ctx = KernelCtx::budgeted("spectral.pagerank_power", budget);
            pagerank_power_ctx(&g, 0.1, &Seed::Node(0), 40, &mut ctx).unwrap()
        };
        let out = budgeted(&Budget::unlimited());
        assert!(out.is_converged());
        let (x, delta) = out.value().unwrap();
        assert_eq!(&want_x, x);
        assert_eq!(want_delta.to_bits(), delta.to_bits());
        // Starved: exhausts with the update norm as certificate, and the
        // partial iterate matches the same number of plain sweeps.
        let starved = budgeted(&Budget::iterations(3));
        assert!(!starved.is_converged() && starved.is_usable());
        let (x3, _) = starved.value().unwrap();
        let (want3, _) = pagerank_power(&g, 0.1, &Seed::Node(0), 3).unwrap();
        assert_eq!(&want3, x3);
        assert!(starved.certificate().unwrap().slack() > 0.0);
    }

    #[test]
    fn pagerank_validates() {
        let g = cycle(4).unwrap();
        assert!(pagerank(&g, 0.0, &Seed::Node(0)).is_err());
        assert!(pagerank(&g, 1.5, &Seed::Node(0)).is_err());
        let iso = acir_graph::Graph::from_pairs(3, [(0, 1)]).unwrap();
        assert!(pagerank(&iso, 0.2, &Seed::Node(0)).is_err());
        assert!(pagerank_power(&g, 0.0, &Seed::Node(0), 5).is_err());
    }

    #[test]
    fn lazy_walk_preserves_mass_and_equilibrates() {
        let g = barbell(4, 0).unwrap();
        let x1 = lazy_walk(&g, 0.5, 1, &Seed::Node(0)).unwrap();
        assert!((vector::sum(&x1) - 1.0).abs() < 1e-12);
        let x_inf = lazy_walk(&g, 0.5, 4000, &Seed::Node(0)).unwrap();
        let pi = stationary_distribution(&g);
        assert!(
            tv_distance(&x_inf, &pi) < 1e-6,
            "tv = {}",
            tv_distance(&x_inf, &pi)
        );
        assert!(lazy_walk(&g, 0.0, 1, &Seed::Node(0)).is_err());
        assert!(lazy_walk(&g, 1.0, 1, &Seed::Node(0)).is_err());
    }

    #[test]
    fn truncated_lazy_walk_depends_on_seed_equilibrated_does_not() {
        // The paper: "if one runs any of these diffusive dynamics to a
        // limiting value ... an exact answer is computed, independent of
        // the initial seed vector; but if one truncates this process
        // early, then some sort of approximation, which in general
        // depends strongly on the initial seed set, is computed."
        let g = barbell(5, 0).unwrap();
        let short_a = lazy_walk(&g, 0.5, 2, &Seed::Node(0)).unwrap();
        let short_b = lazy_walk(&g, 0.5, 2, &Seed::Node(9)).unwrap();
        assert!(tv_distance(&short_a, &short_b) > 0.5);
        let long_a = lazy_walk(&g, 0.5, 5000, &Seed::Node(0)).unwrap();
        let long_b = lazy_walk(&g, 0.5, 5000, &Seed::Node(9)).unwrap();
        assert!(tv_distance(&long_a, &long_b) < 1e-6);
    }

    #[test]
    fn stationary_distribution_is_fixed_point() {
        let g = star(5).unwrap();
        let pi = stationary_distribution(&g);
        let m = random_walk_matrix(&g);
        let mut mpi = vec![0.0; 5];
        m.matvec(&pi, &mut mpi);
        assert!(vector::dist2(&pi, &mpi) < 1e-12);
        let empty = acir_graph::Graph::from_pairs(2, []).unwrap();
        assert_eq!(stationary_distribution(&empty), vec![0.0, 0.0]);
    }

    #[test]
    fn tv_distance_properties() {
        assert_eq!(tv_distance(&[1.0, 0.0], &[0.0, 1.0]), 1.0);
        assert_eq!(tv_distance(&[0.5, 0.5], &[0.5, 0.5]), 0.0);
    }
}
