//! Truncated heat-kernel diffusion (paper ref \[15\], Chung's "heat
//! kernel as the PageRank of a graph", operationalized in the style of
//! later push methods).
//!
//! The heat-kernel PageRank is `h = e^{−t} Σ_{k≥0} (t^k/k!) P^k s`
//! with `P = A D^{−1}`. The operational method truncates twice:
//!
//! * the Taylor series is cut at `N` terms, with `N` chosen so the tail
//!   is below `tail_tol`;
//! * each propagated term is ε-truncated per degree, exactly like
//!   Nibble, keeping the work output-sized.
//!
//! Both truncations are "heuristic design decisions (such as ...
//! truncating ... and early stopping)" — §1's catalogue of implicit
//! regularizers — and both are exposed as parameters.

use crate::{LocalError, Result};
use acir_graph::{Graph, NodeId, NodeValued};
use acir_runtime::{
    Certificate, DivergenceCause, Exhaustion, KernelCtx, SolverOutcome, StampedSet, StampedVec,
    WorkspacePool,
};

/// Output of [`hk_relax`].
#[derive(Debug, Clone, Default)]
pub struct HkRelaxResult {
    /// Approximate heat-kernel vector as sorted `(node, value)` pairs.
    pub vector: Vec<(NodeId, f64)>,
    /// Taylor terms actually used.
    pub terms: usize,
    /// Probability mass lost to the two truncations.
    pub mass_lost: f64,
    /// Edge traversals performed.
    pub work: usize,
    /// Number of distinct nodes ever holding mass.
    pub touched: usize,
}

/// `to_dense` / `scale` / `map_back` come from the shared
/// [`NodeValued`] trait.
impl NodeValued for HkRelaxResult {
    fn node_values(&self) -> &[(NodeId, f64)] {
        &self.vector
    }

    fn node_values_mut(&mut self) -> &mut Vec<(NodeId, f64)> {
        &mut self.vector
    }
}

/// Reusable scratch for [`hk_relax`]: the accumulated heat vector, the
/// current and next Taylor terms, the ever-touched set, and the
/// support lists. All resets are `O(1)`, so a relax run touching `k`
/// nodes does `O(k·terms)` bookkeeping regardless of `n`.
#[derive(Debug, Default)]
pub struct HkWorkspace {
    h: StampedVec,
    q: StampedVec,
    next: StampedVec,
    ever: StampedSet,
    support: Vec<NodeId>,
    next_support: Vec<NodeId>,
    kept: Vec<NodeId>,
    /// First-touch order of `h`'s support (sorted during harvest).
    h_touched: Vec<NodeId>,
}

impl HkWorkspace {
    /// Fresh, empty workspace.
    pub fn new() -> Self {
        Self::default()
    }
}

static HK_POOL: WorkspacePool<HkWorkspace> = WorkspacePool::new();

/// Number of Taylor terms needed so that `e^{−t} Σ_{k>N} t^k/k! <
/// tail_tol` (simple forward scan; `t` is small in practice).
fn taylor_terms(t: f64, tail_tol: f64) -> usize {
    let mut term = (-t).exp(); // e^{−t} t^0/0!
    let mut sum = term;
    let mut k = 0usize;
    while 1.0 - sum > tail_tol && k < 10_000 {
        k += 1;
        term *= t / k as f64;
        sum += term;
    }
    k
}

/// Truncated heat-kernel diffusion from `seed` at time `t`, with
/// per-term degree-normalized threshold `epsilon` and Taylor tail
/// tolerance `tail_tol`.
pub fn hk_relax(
    g: &Graph,
    seed: NodeId,
    t: f64,
    epsilon: f64,
    tail_tol: f64,
) -> Result<HkRelaxResult> {
    validate_hk_args(g, seed, t, epsilon, tail_tol)?;
    let mut ctx = KernelCtx::new();
    let (result, _exit) = HK_POOL.with(|ws| hk_core(g, seed, t, epsilon, tail_tol, ws, &mut ctx));
    Ok(result)
}

/// Parameter validation shared by the pooled and budgeted entry points.
fn validate_hk_args(g: &Graph, seed: NodeId, t: f64, epsilon: f64, tail_tol: f64) -> Result<()> {
    if seed as usize >= g.n() {
        return Err(LocalError::InvalidArgument(format!(
            "seed {seed} out of range"
        )));
    }
    if g.degree(seed) <= 0.0 {
        return Err(LocalError::InvalidArgument(format!(
            "seed {seed} has zero degree"
        )));
    }
    if !(t > 0.0 && t.is_finite()) {
        return Err(LocalError::InvalidArgument(format!(
            "t must be positive, got {t}"
        )));
    }
    if !(epsilon > 0.0 && epsilon.is_finite() && tail_tol > 0.0 && tail_tol < 1.0) {
        return Err(LocalError::InvalidArgument(
            "need epsilon > 0 and tail_tol in (0, 1)".into(),
        ));
    }
    Ok(())
}

/// How the single truncated-Taylor core loop exited.
enum HkExit {
    /// All Taylor terms delivered (or the support emptied early).
    Done,
    /// Budget ran out; the accumulated partial diffusion was harvested.
    Exhausted(Exhaustion),
    /// NaN/Inf contamination of the propagated term (guarded contexts).
    Diverged(DivergenceCause),
}

/// The truncated-Taylor loop on stamped scratch. Inputs pre-validated.
///
/// Arithmetic, truncation decisions, and accumulation order match the
/// historical dense implementation exactly (a freshly-reset stamped
/// array reads like `vec![0.0; n]`, first-touch coincides with the old
/// `next[v] == 0.0` test because every contribution is positive, and
/// the final harvest walks the sorted touched list in the same
/// ascending order the dense `0..n` filter did), so results are
/// bit-identical to it while per-call work and allocations stay
/// proportional to the touched set.
///
/// The [`KernelCtx`] supplies the cross-cutting concerns: metering (one
/// iteration per Taylor term, one work unit per edge traversal),
/// residual recording of the undelivered mass, and — when a guard is
/// attached — finiteness scans of every contribution and propagated
/// entry. An inert context runs the historical plain loop exactly.
fn hk_core(
    g: &Graph,
    seed: NodeId,
    t: f64,
    epsilon: f64,
    tail_tol: f64,
    ws: &mut HkWorkspace,
    ctx: &mut KernelCtx,
) -> (HkRelaxResult, HkExit) {
    let n = g.n();
    let terms = taylor_terms(t, tail_tol);
    // h accumulates e^{−t} Σ coeff_k q_k with q_0 = s, q_{k+1} = P q_k.
    ws.h.reset(n);
    ws.q.reset(n);
    ws.next.reset(n);
    ws.ever.reset(n);
    ws.support.clear();
    ws.h_touched.clear();
    ws.support.push(seed);
    ws.ever.insert(seed as usize);
    let mut ever_count = 1usize;
    ws.q.set(seed as usize, 1.0);

    let e_neg_t = (-t).exp();
    let mut coeff = e_neg_t; // e^{−t} t^k / k! at k = 0
    let mut accounted = 0.0; // mass placed into h
    let mut work = 0usize;
    let mut used_terms = terms;
    let mut exit = HkExit::Done;

    // CORE LOOP
    'terms: for k in 0..=terms {
        for &u in &ws.support {
            let qu = ws.q.get(u as usize);
            let contribution = coeff * qu;
            if ctx.is_guarded() && !contribution.is_finite() {
                exit = HkExit::Diverged(DivergenceCause::NonFiniteIterate { at_iter: k });
                break 'terms;
            }
            if ws.h.add(u as usize, contribution) {
                ws.h_touched.push(u);
            }
            accounted += contribution;
        }
        ctx.push_residual((1.0 - accounted).max(0.0));
        if k == terms {
            break;
        }
        ctx.tick_iter();
        if let Some(exhausted) = ctx.check_budget() {
            ctx.note_with(|| format!("stopped after Taylor term {k} of {terms}"));
            used_terms = k + 1;
            exit = HkExit::Exhausted(exhausted);
            break;
        }
        // Propagate one walk step with ε-truncation.
        ws.next_support.clear();
        let mut traversals = 0u64;
        for &u in &ws.support {
            let qu = ws.q.get(u as usize);
            if qu == 0.0 {
                continue;
            }
            let du = g.degree(u);
            for (v, w) in g.neighbors(u) {
                work += 1;
                traversals += 1;
                if ws.next.add(v as usize, qu * w / du) {
                    ws.next_support.push(v);
                }
            }
        }
        if let Some(exhausted) = ctx.add_work(traversals) {
            // The work axis ran out mid-term: the already-accumulated h
            // (through term k) is still a valid truncation.
            ctx.note_with(|| format!("work exhausted propagating term {k}"));
            used_terms = k + 1;
            exit = HkExit::Exhausted(exhausted);
            break;
        }
        ws.kept.clear();
        for &v in &ws.next_support {
            if ctx.is_guarded() && !ws.next.get(v as usize).is_finite() {
                exit = HkExit::Diverged(DivergenceCause::NonFiniteIterate { at_iter: k });
                break 'terms;
            }
            if ws.next.get(v as usize) >= epsilon * g.degree(v) {
                ws.kept.push(v);
                if ws.ever.insert(v as usize) {
                    ever_count += 1;
                }
            }
        }
        ws.q.reset(n);
        for &v in &ws.kept {
            let x = ws.next.get(v as usize);
            ws.q.set(v as usize, x);
        }
        ws.next.reset(n);
        std::mem::swap(&mut ws.support, &mut ws.kept);
        coeff *= t / (k + 1) as f64;
        if ws.support.is_empty() {
            break;
        }
    }

    if let HkExit::Diverged(_) = exit {
        let empty = HkRelaxResult {
            vector: Vec::new(),
            terms: 0,
            mass_lost: 0.0,
            work: 0,
            touched: 0,
        };
        return (empty, exit);
    }

    ws.h_touched.sort_unstable();
    let mut vector: Vec<(NodeId, f64)> = Vec::with_capacity(ws.h_touched.len());
    for &u in &ws.h_touched {
        let x = ws.h.get(u as usize);
        if x > 0.0 {
            vector.push((u, x));
        }
    }

    let result = HkRelaxResult {
        vector,
        terms: used_terms,
        mass_lost: (1.0 - accounted).max(0.0),
        work,
        touched: ever_count,
    };
    (result, exit)
}

/// Context-driven truncated heat-kernel diffusion: the [`KernelCtx`]
/// decides whether the run is metered, guarded, or traced. Scratch is
/// drawn from the module pool.
///
/// A metered context charges one iteration per Taylor term and one work
/// unit per edge traversal. On budget exhaustion the partial diffusion
/// accumulated so far is returned with a [`Certificate::ResidualMass`]:
/// the heat-kernel mass not yet delivered (un-accumulated Taylor tail
/// plus ε-truncated mass), which bounds the ℓ₁ error of the partial
/// vector — a harder truncation of an already-truncated diffusion, in
/// the paper's spirit. Under a guard, NaN/Inf contamination of the
/// propagated term diverges.
pub fn hk_relax_ctx(
    g: &Graph,
    seed: NodeId,
    t: f64,
    epsilon: f64,
    tail_tol: f64,
    ctx: &mut KernelCtx,
) -> Result<SolverOutcome<HkRelaxResult>> {
    validate_hk_args(g, seed, t, epsilon, tail_tol)?;
    let (result, exit) = HK_POOL.with(|ws| hk_core(g, seed, t, epsilon, tail_tol, ws, ctx));
    let diags = ctx.finish();
    Ok(match exit {
        HkExit::Done => SolverOutcome::converged(result, diags),
        HkExit::Exhausted(exhausted) => {
            let remaining = result.mass_lost;
            SolverOutcome::exhausted(
                result,
                exhausted,
                Certificate::ResidualMass {
                    remaining,
                    per_degree_bound: epsilon,
                },
                diags,
            )
        }
        HkExit::Diverged(cause) => SolverOutcome::diverged(cause, diags),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::sweep_cut_support;
    use acir_graph::gen::deterministic::{barbell, cycle};
    use acir_graph::gen::random::barabasi_albert;
    use acir_linalg::vector;
    use acir_runtime::{Budget, GuardConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn taylor_terms_grow_with_t() {
        assert!(taylor_terms(1.0, 1e-6) < taylor_terms(10.0, 1e-6));
        assert!(taylor_terms(1.0, 1e-3) <= taylor_terms(1.0, 1e-9));
        assert!(taylor_terms(0.1, 1e-4) >= 1);
    }

    #[test]
    fn matches_dense_heat_kernel_on_walk_laplacian() {
        // With tiny epsilon the method computes e^{−t(I−P)} s, which in
        // the D^{1/2} similarity transform equals the symmetric heat
        // kernel: check total mass and seed bias instead of the full
        // operator identity.
        let g = cycle(16).unwrap();
        let r = hk_relax(&g, 0, 2.0, 1e-12, 1e-12).unwrap();
        let dense = r.to_dense(16);
        assert!((vector::sum(&dense) - 1.0).abs() < 1e-9, "mass preserved");
        assert!(dense[0] > dense[8], "seed holds the most mass");
        // Symmetry of the cycle about the seed.
        assert!((dense[1] - dense[15]).abs() < 1e-9);
        assert!(r.mass_lost < 1e-9);
    }

    #[test]
    fn equals_exact_taylor_reference() {
        // Against a dense reference: h = e^{-t} Σ t^k/k! P^k s.
        let g = barbell(5, 1).unwrap();
        let n = g.n();
        let t = 1.5;
        let r = hk_relax(&g, 2, t, 1e-14, 1e-13).unwrap();
        let p = acir_spectral::random_walk_matrix(&g);
        let mut s = vec![0.0; n];
        s[2] = 1.0;
        let mut h = vec![0.0; n];
        let mut q = s.clone();
        let mut coeff = (-t).exp();
        let mut buf = vec![0.0; n];
        for k in 0..200 {
            for i in 0..n {
                h[i] += coeff * q[i];
            }
            p.matvec(&q, &mut buf);
            std::mem::swap(&mut q, &mut buf);
            coeff *= t / (k + 1) as f64;
        }
        let dense = r.to_dense(n);
        assert!(vector::dist2(&dense, &h) < 1e-8);
    }

    #[test]
    fn truncation_keeps_it_local() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = barabasi_albert(&mut rng, 3000, 3).unwrap();
        let r = hk_relax(&g, 1000, 3.0, 1e-3, 1e-4).unwrap();
        assert!(r.touched < 1500, "touched {} of 3000", r.touched);
        let fine = hk_relax(&g, 1000, 3.0, 1e-6, 1e-4).unwrap();
        assert!(fine.touched >= r.touched);
    }

    #[test]
    fn sweep_recovers_barbell_cluster() {
        let g = barbell(8, 0).unwrap();
        let r = hk_relax(&g, 1, 5.0, 1e-8, 1e-8).unwrap();
        let cut = sweep_cut_support(&g, &r.to_dense(g.n()));
        assert_eq!(cut.set, (0..8).collect::<Vec<u32>>());
    }

    #[test]
    fn validates_inputs() {
        let g = cycle(5).unwrap();
        assert!(hk_relax(&g, 9, 1.0, 1e-3, 1e-3).is_err());
        assert!(hk_relax(&g, 0, 0.0, 1e-3, 1e-3).is_err());
        assert!(hk_relax(&g, 0, -2.0, 1e-3, 1e-3).is_err());
        assert!(hk_relax(&g, 0, 1.0, 0.0, 1e-3).is_err());
        assert!(hk_relax(&g, 0, 1.0, 1e-3, 0.0).is_err());
        assert!(hk_relax(&g, 0, 1.0, 1e-3, 1.0).is_err());
        let iso = acir_graph::Graph::from_pairs(2, []).unwrap();
        assert!(hk_relax(&iso, 0, 1.0, 1e-3, 1e-3).is_err());
    }

    #[test]
    fn budgeted_unlimited_matches_plain() {
        let g = cycle(16).unwrap();
        let mut ctx = KernelCtx::budgeted("local.hk_relax", &Budget::unlimited())
            .with_guard(GuardConfig::contamination_only());
        let out = hk_relax_ctx(&g, 0, 2.0, 1e-12, 1e-12, &mut ctx).unwrap();
        assert!(out.is_converged());
        let plain = hk_relax(&g, 0, 2.0, 1e-12, 1e-12).unwrap();
        assert_eq!(out.value().unwrap().vector, plain.vector);
    }

    #[test]
    fn budgeted_exhaustion_certificate_bounds_l1_error() {
        let g = cycle(40).unwrap();
        // Only 2 Taylor terms allowed out of many.
        let mut ctx = KernelCtx::budgeted("local.hk_relax", &Budget::iterations(2))
            .with_guard(GuardConfig::contamination_only());
        let out = hk_relax_ctx(&g, 0, 6.0, 1e-12, 1e-10, &mut ctx).unwrap();
        assert!(!out.is_converged() && out.is_usable());
        let remaining = match out.certificate() {
            Some(&acir_runtime::Certificate::ResidualMass { remaining, .. }) => remaining,
            c => panic!("wrong certificate {c:?}"),
        };
        // ℓ₁ distance to the (essentially exact) full diffusion is
        // bounded by the certified undelivered mass.
        let exact = hk_relax(&g, 0, 6.0, 1e-14, 1e-12).unwrap().to_dense(g.n());
        let partial = out.value().unwrap().to_dense(g.n());
        let l1: f64 = exact.iter().zip(&partial).map(|(a, b)| (a - b).abs()).sum();
        assert!(
            l1 <= remaining + 1e-9,
            "l1 error {l1} exceeds certificate {remaining}"
        );
        assert!(!out.diagnostics().events.is_empty());
    }

    #[test]
    fn mass_lost_grows_with_epsilon() {
        let g = cycle(40).unwrap();
        let tight = hk_relax(&g, 0, 4.0, 1e-10, 1e-6).unwrap();
        let loose = hk_relax(&g, 0, 4.0, 1e-2, 1e-6).unwrap();
        assert!(loose.mass_lost > tight.mass_lost);
    }
}
