//! The ACL push algorithm for approximate Personalized PageRank
//! (Andersen–Chung–Lang, paper ref \[1\]; see also refs \[24, 10\]).
//!
//! Maintains an approximation `p` and residual `r` with the invariant
//!
//! ```text
//! p + pr_α(r) = pr_α(s)        (pr_α = exact PPR of the lazy walk)
//! ```
//!
//! and repeatedly *pushes* nodes whose residual is large relative to
//! their degree (`r[u] ≥ ε·d_u`), moving `α·r[u]` into `p[u]` and
//! spreading half the rest over `u`'s neighbors (lazy step). The
//! ε-truncation — never processing nodes with small residuals — is
//! exactly the "truncating small quantities to zero based on
//! computational considerations" the paper identifies as an implicit
//! regularizer (§3.3), and it makes the running time `O(1/(εα))`
//! *independent of the graph size* (the queue only ever holds nodes
//! near the seed). The update step "is a form of stochastic gradient
//! descent" (§3.3, via \[20\]).
//!
//! Guarantee on exit: `r[u] < ε·d_u` for every `u`, hence
//! `‖D⁻¹(pr_α(s) − p)‖_∞ ≤ ε`.

use crate::{LocalError, Result};
use acir_graph::{Graph, NodeId, NodeValued};
use acir_runtime::{
    Certificate, Diagnostics, DivergenceCause, Exhaustion, KernelCtx, SolverOutcome, StampedSet,
    StampedVec, WorkspacePool,
};
use std::collections::VecDeque;

/// Output of [`ppr_push`].
#[derive(Debug, Clone, Default)]
pub struct PushResult {
    /// The approximate PPR vector, stored sparsely as sorted
    /// `(node, value)` pairs (its support is the touched set).
    pub vector: Vec<(NodeId, f64)>,
    /// Residual mass left undistributed (`Σ_u r[u]`, ≤ 1).
    pub residual_mass: f64,
    /// Number of push operations performed.
    pub pushes: usize,
    /// Number of edge traversals (the true work measure).
    pub work: usize,
    /// Number of distinct nodes with nonzero `p` or `r` at exit.
    pub touched: usize,
    /// The residual vector at exit, stored sparsely as sorted
    /// `(node, value)` pairs — every entry satisfies `r < ε·d`. Hub
    /// sketches ([`crate::sketch`]) store it alongside the estimate so
    /// splices can account for the mass a sketch leaves undistributed.
    pub residuals: Vec<(NodeId, f64)>,
    /// Total residual mass processed by the push loop (`Σ r[u]` over
    /// push operations). Each push recirculates `(1−α)·r[u]`, so this
    /// exceeds 1 for long diffusions — it is the natural "how much
    /// diffusion happened" measure the sketch benchmarks compare.
    pub mass_pushed: f64,
}

impl PushResult {
    /// Empty result, for use as the reusable output slot of
    /// [`ppr_push_ws`] (steady-state calls then reuse its capacity and
    /// perform no heap allocation at all).
    pub fn empty() -> Self {
        Self::default()
    }
}

/// `to_dense` / `scale` / `map_back` come from the shared
/// [`NodeValued`] trait; for sweeps over large graphs prefer
/// [`crate::sweep::sweep_cut_support`] on the dense form.
impl NodeValued for PushResult {
    fn node_values(&self) -> &[(NodeId, f64)] {
        &self.vector
    }

    fn node_values_mut(&mut self) -> &mut Vec<(NodeId, f64)> {
        &mut self.vector
    }
}

/// Reusable scratch for [`ppr_push`]: epoch-stamped `p`/`r` arrays, the
/// queue-membership set, the work queue, the touched-node list, and the
/// splice's harvest accumulator.
///
/// Resetting costs `O(1)`; a push run touching `k` nodes then does
/// `O(k)` bookkeeping regardless of `n`. A warm workspace makes
/// [`ppr_push_ws`] allocation-free in steady state; the plain
/// [`ppr_push`] entry point borrows one from a module-level
/// [`WorkspacePool`] automatically.
#[derive(Debug, Default)]
pub struct PushWorkspace {
    pub(crate) p: StampedVec,
    pub(crate) r: StampedVec,
    pub(crate) in_queue: StampedSet,
    pub(crate) queue: VecDeque<NodeId>,
    /// Nodes whose `p` or `r` was ever touched, in first-touch order
    /// (sorted during harvest; every node with nonzero `p` or `r` is
    /// here, since the loop only adds `p` where `r` is nonzero).
    pub(crate) touched: Vec<NodeId>,
    /// The splice's combined estimate `p + Σ_harvested r[h]·p_h` and
    /// the nodes it holds, in first-touch order. Only the splice
    /// harvest clears and fills them, so a plain push never pays for
    /// their reset.
    pub(crate) combined: StampedVec,
    pub(crate) combined_nodes: Vec<NodeId>,
}

impl PushWorkspace {
    /// Fresh, empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clear every array for a graph of `n` nodes, in `O(1)`.
    pub(crate) fn reset(&mut self, n: usize) {
        self.p.reset(n);
        self.r.reset(n);
        self.in_queue.reset(n);
        self.queue.clear();
        self.touched.clear();
    }

    /// Queue `u` (degree `du`) unless it is queued already or
    /// `|r_u| < threshold·du`.
    #[inline]
    pub(crate) fn arm(&mut self, u: NodeId, du: f64, threshold: f64) {
        if !self.in_queue.contains(u as usize)
            && self.r.get(u as usize).abs() >= threshold * du
            && du > 0.0
        {
            self.in_queue.insert(u as usize);
            self.queue.push_back(u);
        }
    }

    /// Spread one unit of mass uniformly over `seeds` and queue every
    /// seed at or above `threshold` that `parked` does not claim.
    pub(crate) fn seed(
        &mut self,
        g: &Graph,
        seeds: &[NodeId],
        threshold: f64,
        parked: impl Fn(NodeId) -> bool,
    ) {
        let seed_mass = 1.0 / seeds.len() as f64;
        for &u in seeds {
            if self.r.add(u as usize, seed_mass) {
                self.touched.push(u);
            }
        }
        for &u in seeds {
            if !parked(u) {
                self.arm(u, g.degree(u), threshold);
            }
        }
    }
}

/// Pool backing every pooled entry point of the push family — the plain
/// [`ppr_push`] / [`ppr_push_ctx`] APIs, the repair
/// kernel in [`crate::repair`] and the splice in [`crate::sketch`], all of
/// which run [`resume_push`] on this one scratch shape — so repeated
/// calls reuse scratch without the caller holding a workspace.
pub(crate) static PUSH_POOL: WorkspacePool<PushWorkspace> = WorkspacePool::new();

/// Run the ACL push algorithm from `seeds` (uniform mass over them).
///
/// * `alpha` ∈ (0, 1): teleportation probability of the lazy PPR.
/// * `epsilon` > 0: truncation threshold; output support has volume at
///   most `O(1/(εα))`.
///
/// Errors on bad parameters, empty/out-of-range seeds, or degree-0
/// seeds.
pub fn ppr_push(g: &Graph, seeds: &[NodeId], alpha: f64, epsilon: f64) -> Result<PushResult> {
    validate_push_args(g, seeds, alpha, epsilon)?;
    let mut out = PushResult::empty();
    let mut ctx = KernelCtx::new();
    PUSH_POOL.with(|ws| push_core(g, seeds, alpha, epsilon, ws, &mut out, &mut ctx))?;
    Ok(out)
}

/// [`ppr_push`] with caller-held scratch and output: the steady-state
/// allocation-free entry point.
///
/// After one warm-up call on a graph of the same (or larger) size, a
/// call performs **zero** heap allocations — the workspace arrays and
/// `out.vector` reuse their capacity (the CI allocation gate asserts
/// this). The result written to `out` is bit-identical to what
/// [`ppr_push`] returns; on error `out` is left untouched.
pub fn ppr_push_ws(
    g: &Graph,
    seeds: &[NodeId],
    alpha: f64,
    epsilon: f64,
    ws: &mut PushWorkspace,
    out: &mut PushResult,
) -> Result<()> {
    validate_push_args(g, seeds, alpha, epsilon)?;
    let mut ctx = KernelCtx::new();
    push_core(g, seeds, alpha, epsilon, ws, out, &mut ctx)?;
    Ok(())
}

/// Parameter and seed validation shared by every push entry point
/// (including the splice path in [`crate::sketch`]).
pub(crate) fn validate_push_args(
    g: &Graph,
    seeds: &[NodeId],
    alpha: f64,
    epsilon: f64,
) -> Result<()> {
    if !(0.0 < alpha && alpha < 1.0) {
        return Err(LocalError::InvalidArgument(format!(
            "ppr_push needs alpha in (0, 1), got {alpha}"
        )));
    }
    if !(epsilon > 0.0 && epsilon.is_finite()) {
        return Err(LocalError::InvalidArgument(format!(
            "ppr_push needs epsilon > 0, got {epsilon}"
        )));
    }
    if seeds.is_empty() {
        return Err(LocalError::InvalidArgument("ppr_push needs seeds".into()));
    }
    let n = g.n();
    for &u in seeds {
        if u as usize >= n {
            return Err(LocalError::InvalidArgument(format!(
                "seed {u} out of range"
            )));
        }
        if g.degree(u) <= 0.0 {
            return Err(LocalError::InvalidArgument(format!(
                "seed {u} has zero degree"
            )));
        }
    }
    Ok(())
}

/// How the push loop exited (inert contexts only ever `Done`).
pub(crate) enum PushExit {
    /// Every residual fell below the threshold: the ACL guarantee holds.
    Done,
    /// Budget ran out mid-diffusion; the certificate ingredients were
    /// captured at the exit point.
    Exhausted {
        exhausted: Exhaustion,
        remaining: f64,
        per_degree_bound: f64,
    },
    /// Contamination or a violated push bound (guarded contexts only).
    Diverged(DivergenceCause),
}

impl PushExit {
    /// `value` structured as the outcome this exit describes, with a
    /// [`Certificate::ResidualMass`] when the budget ran out.
    pub(crate) fn outcome<T>(self, value: T, diags: Diagnostics) -> SolverOutcome<T> {
        match self {
            PushExit::Done => SolverOutcome::converged(value, diags),
            PushExit::Exhausted {
                exhausted,
                remaining,
                per_degree_bound,
            } => SolverOutcome::exhausted(
                value,
                exhausted,
                Certificate::ResidualMass {
                    remaining,
                    per_degree_bound,
                },
                diags,
            ),
            PushExit::Diverged(cause) => SolverOutcome::diverged(cause, diags),
        }
    }
}

/// What one [`resume_push`] did, beside how it exited.
pub(crate) struct PushRun {
    pub(crate) exit: PushExit,
    pub(crate) pushes: usize,
    pub(crate) work: usize,
    pub(crate) mass_pushed: f64,
}

/// The worst per-degree residual `max_u |r_u|/d_u` over positive-degree
/// nodes (0.0 if there are none): the pointwise error bound of the
/// estimate, by the ACL invariant. `max` is order-independent, so any
/// listing of the nonzero residuals gives the dense `0..n` scan's bits.
pub(crate) fn worst_per_degree(g: &Graph, residuals: impl Iterator<Item = (NodeId, f64)>) -> f64 {
    residuals
        .filter(|&(u, _)| g.degree(u) > 0.0)
        .map(|(u, r)| r.abs() / g.degree(u))
        .fold(0.0f64, f64::max)
}

/// The push family's one ACL loop, resumed from the state `ws` holds:
/// push queued nodes with `|r_u| ≥ threshold·d_u` until the queue drains
/// or the [`KernelCtx`] stops it. Residuals may be signed (repair's); on
/// nonnegative ones `|r|` reads `r` bit for bit. `parked` nodes are
/// never queued, so residual arriving there stays for the caller's
/// harvest (the splice's hubs). Each push retires `α·|r_u|` of absolute
/// mass, of which at most `cap_factor = 1 + Δ` exists after a
/// perturbation `Δ`, so more than `4(1+Δ)/(threshold·α) + 16` pushes is
/// a bug: an error on inert contexts, a divergence on guarded ones.
/// `residual_mass` (`Σ r` at entry) feeds the residual trail and the
/// exhaustion certificate. An inert context allocates nothing (the
/// zero-allocation guarantee of [`ppr_push_ws`]); a guarded one checks
/// every residual it touches for NaN/Inf.
#[allow(clippy::too_many_arguments)]
pub(crate) fn resume_push(
    g: &Graph,
    ws: &mut PushWorkspace,
    alpha: f64,
    threshold: f64,
    parked: impl Fn(NodeId) -> bool,
    cap_factor: f64,
    mut residual_mass: f64,
    ctx: &mut KernelCtx,
) -> Result<PushRun> {
    let push_cap = ((4.0 * cap_factor / (threshold * alpha)).ceil() as usize).saturating_add(16);
    let (mut pushes, mut work, mut mass_pushed) = (0usize, 0usize, 0.0f64);
    let mut exit = PushExit::Done;

    // CORE LOOP
    while let Some(u) = ws.queue.pop_front() {
        ws.in_queue.remove(u as usize);
        let du = g.degree(u);
        let ru = ws.r.get(u as usize);
        if ctx.is_guarded() && !ru.is_finite() {
            exit = PushExit::Diverged(DivergenceCause::NonFiniteIterate { at_iter: pushes });
            break;
        }
        if ru.abs() < threshold * du {
            continue;
        }
        pushes += 1;
        mass_pushed += ru.abs();
        if pushes > push_cap {
            if ctx.is_guarded() {
                exit = PushExit::Diverged(DivergenceCause::Breakdown {
                    at_iter: pushes,
                    what: "exceeded the O((1+Δ)/(εα)) push bound",
                });
                break;
            }
            return Err(LocalError::InvalidArgument(
                "ACL push exceeded its O((1+Δ)/(εα)) bound (bug guard)".into(),
            ));
        }
        // Lazy push: α·ru into p; half of the rest stays at u; half
        // spreads over neighbors proportionally to weight. u is already
        // on the touched list: it was queued, so its residual is nonzero.
        ws.p.add(u as usize, alpha * ru);
        residual_mass -= alpha * ru;
        let half = (1.0 - alpha) * ru / 2.0;
        ws.r.set(u as usize, half);
        let mut traversals = 0u64;
        for (v, w) in g.neighbors(u) {
            work += 1;
            traversals += 1;
            if ws.r.add(v as usize, half * w / du) {
                ws.touched.push(v);
            }
            // A NaN residual never re-enters the queue (comparisons with
            // NaN are false), so contamination must be caught here.
            if ctx.is_guarded() && !ws.r.get(v as usize).is_finite() {
                exit = PushExit::Diverged(DivergenceCause::NonFiniteIterate { at_iter: pushes });
                break;
            }
            if !parked(v) {
                ws.arm(v, g.degree(v), threshold);
            }
        }
        if matches!(exit, PushExit::Diverged(_)) {
            break;
        }
        // u itself may still be above threshold (the lazy half); it was
        // queued, so it is not parked.
        ws.arm(u, du, threshold);

        ctx.tick_iter();
        ctx.push_residual(residual_mass);
        if let Some(exhausted) = ctx.add_work(traversals) {
            // Folded over the touched list, not `0..n`: untouched
            // residuals read 0.0, so the bound is the dense scan's bit
            // for bit at O(touched).
            let residuals = ws.touched.iter().map(|&u| (u, ws.r.get(u as usize)));
            exit = PushExit::Exhausted {
                exhausted,
                remaining: residual_mass,
                per_degree_bound: worst_per_degree(g, residuals).max(threshold),
            };
            break;
        }
    }
    Ok(PushRun {
        exit,
        pushes,
        work,
        mass_pushed,
    })
}

/// Write the nonzero `p` and `r` entries of `ws` into `out` in ascending
/// node order (the dense `0..n` scans' order), with their sum, count
/// and `run`'s counters, and return the exit; a diverged run leaves
/// `out` untouched. A loaded prior can list a node twice, hence `dedup`.
pub(crate) fn harvest(ws: &mut PushWorkspace, run: PushRun, out: &mut PushResult) -> PushExit {
    if matches!(run.exit, PushExit::Diverged(_)) {
        return run.exit;
    }
    ws.touched.sort_unstable();
    ws.touched.dedup();
    out.vector.clear();
    out.residuals.clear();
    let (mut touched, mut residual_sum) = (0usize, 0.0f64);
    for &u in &ws.touched {
        let p = ws.p.get(u as usize);
        let r = ws.r.get(u as usize);
        if p != 0.0 {
            out.vector.push((u, p));
        }
        if r != 0.0 {
            out.residuals.push((u, r));
        }
        if p != 0.0 || r != 0.0 {
            touched += 1;
        }
        residual_sum += r;
    }
    out.residual_mass = residual_sum;
    out.pushes = run.pushes;
    out.work = run.work;
    out.touched = touched;
    out.mass_pushed = run.mass_pushed;
    run.exit
}

/// Fresh ACL push on stamped scratch: seed `r`, [`resume_push`],
/// [`harvest`]. Inputs are pre-validated. Work is `O(|touched| + Σ
/// pushed degrees)` regardless of `n`, and every operation and
/// summation order matches the historical dense implementation, so
/// results are bit-identical to it.
pub(crate) fn push_core(
    g: &Graph,
    seeds: &[NodeId],
    alpha: f64,
    epsilon: f64,
    ws: &mut PushWorkspace,
    out: &mut PushResult,
    ctx: &mut KernelCtx,
) -> Result<PushExit> {
    ws.reset(g.n());
    ws.seed(g, seeds, epsilon, |_| false);
    let run = resume_push(g, ws, alpha, epsilon, |_| false, 1.0, 1.0, ctx)?;
    Ok(harvest(ws, run, out))
}

/// Context-driven ACL push: the [`KernelCtx`] decides whether the run is
/// metered, guarded against contamination, or traced. Scratch is drawn
/// from the module pool; the result is structured as a
/// [`SolverOutcome`] even for inert contexts (which always converge).
///
/// A metered context charges one iteration per push and one work unit
/// per edge traversal. On budget exhaustion the partial diffusion is
/// returned with a [`Certificate::ResidualMass`]: the un-pushed residual
/// mass and the worst per-degree residual, which by the ACL invariant
/// `p + pr_α(r) = pr_α(s)` bound the pointwise error of the truncated
/// vector — the partial push *is* a more aggressively regularized PPR,
/// not a failure. Under a guard (`GuardConfig::contamination_only()`),
/// NaN/Inf contamination (e.g. corrupted edge weights) yields
/// [`SolverOutcome::Diverged`].
pub fn ppr_push_ctx(
    g: &Graph,
    seeds: &[NodeId],
    alpha: f64,
    epsilon: f64,
    ctx: &mut KernelCtx,
) -> Result<SolverOutcome<PushResult>> {
    validate_push_args(g, seeds, alpha, epsilon)?;
    let mut out = PushResult::empty();
    let exit = PUSH_POOL.with(|ws| push_core(g, seeds, alpha, epsilon, ws, &mut out, ctx))?;
    Ok(exit.outcome(out, ctx.finish()))
}

/// Exact lazy-walk PPR by dense fixed-point iteration — the reference
/// implementation the push algorithm approximates; `O(n·m)` and only
/// for validation on small graphs.
///
/// Fixed point of `pr = α·s + (1−α)·W·pr` with `W = (I + AD⁻¹)/2`.
pub fn ppr_exact_reference(
    g: &Graph,
    seeds: &[NodeId],
    alpha: f64,
    iters: usize,
) -> Result<Vec<f64>> {
    if seeds.is_empty() {
        return Err(LocalError::InvalidArgument("needs seeds".into()));
    }
    let n = g.n();
    let mut s = vec![0.0; n];
    let mass = 1.0 / seeds.len() as f64;
    for &u in seeds {
        if u as usize >= n {
            return Err(LocalError::InvalidArgument(format!(
                "seed {u} out of range"
            )));
        }
        s[u as usize] += mass;
    }
    let m = acir_spectral::random_walk_matrix(g);
    let mut pr = s.clone();
    let mut mp = vec![0.0; n];
    for _ in 0..iters {
        m.matvec(&pr, &mut mp);
        for i in 0..n {
            let lazy = 0.5 * (pr[i] + mp[i]);
            pr[i] = alpha * s[i] + (1.0 - alpha) * lazy;
        }
    }
    Ok(pr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{set_conductance, sweep_cut_support};
    use acir_graph::gen::deterministic::{barbell, cycle, lollipop};
    use acir_graph::gen::random::barabasi_albert;
    use acir_runtime::{Budget, GuardConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn push_residuals_below_threshold() {
        let g = barbell(6, 2).unwrap();
        let eps = 1e-4;
        let r = ppr_push(&g, &[0], 0.1, eps).unwrap();
        // Invariant: approximation error per degree below eps.
        let exact = ppr_exact_reference(&g, &[0], 0.1, 5000).unwrap();
        let dense = r.to_dense(g.n());
        for u in 0..g.n() {
            let err = (exact[u] - dense[u]) / g.degree(u as u32);
            assert!(err >= -1e-9, "p never overshoots");
            assert!(err <= eps + 1e-9, "node {u}: err {err}");
        }
        assert!(r.residual_mass <= 1.0);
        assert!(r.pushes > 0);
    }

    #[test]
    fn push_mass_accounting() {
        // p-mass + residual mass = 1 (nothing created or destroyed).
        let g = cycle(20).unwrap();
        let r = ppr_push(&g, &[0], 0.2, 1e-5).unwrap();
        let p_mass: f64 = r.vector.iter().map(|&(_, x)| x).sum();
        assert!((p_mass + r.residual_mass - 1.0).abs() < 1e-12);
    }

    #[test]
    fn push_is_strongly_local() {
        // Same seed, same parameters, graphs of very different size:
        // the touched set stays put.
        let mut rng = StdRng::seed_from_u64(3);
        let small = barabasi_albert(&mut rng, 500, 3).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let large = barabasi_albert(&mut rng, 5000, 3).unwrap();
        let a = ppr_push(&small, &[400], 0.3, 1e-3).unwrap();
        let b = ppr_push(&large, &[400], 0.3, 1e-3).unwrap();
        // Work bounded by theory, not by n.
        let bound = (2.0 / (1e-3 * 0.3)) as usize;
        assert!(a.pushes <= bound && b.pushes <= bound);
        assert!(b.touched < 1000, "touched {} of 5000 nodes", b.touched);
    }

    #[test]
    fn push_plus_sweep_recovers_planted_community() {
        let g = barbell(10, 0).unwrap();
        let r = ppr_push(&g, &[2], 0.05, 1e-6).unwrap();
        let dense = r.to_dense(g.n());
        let cut = sweep_cut_support(&g, &dense);
        assert_eq!(cut.set, (0..10).collect::<Vec<u32>>());
        assert!(cut.conductance < 0.02);
    }

    #[test]
    fn seed_can_fail_to_join_its_own_cluster() {
        // The paper: "counterintuitive things like a seed node not
        // being part of 'its own cluster' can easily happen." Seed on a
        // whisker tip hanging off a clique: the swept cluster is the
        // clique region, and the best cut can exclude the tip.
        let g = lollipop(8, 1).unwrap(); // clique 0..7, tip 8 attached to 0
        let r = ppr_push(&g, &[8], 0.01, 1e-6).unwrap();
        let dense = r.to_dense(g.n());
        let cut = sweep_cut_support(&g, &dense);
        // Whatever the details, the cluster must be low-conductance.
        assert!(cut.conductance <= set_conductance(&g, &[8]) + 1e-12);
        // And the interesting observation: is the seed inside?
        // On this construction, excluding the tip gives conductance
        // 1/... while {8} alone has conductance 1. Document whichever
        // happens; assert only that the mechanism can exclude seeds by
        // checking the tip is not essential to the best sweep set.
        let without_tip: Vec<u32> = cut.set.iter().copied().filter(|&u| u != 8).collect();
        if !without_tip.is_empty() {
            assert!(set_conductance(&g, &without_tip) <= 1.0);
        }
    }

    #[test]
    fn epsilon_controls_support_size() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = barabasi_albert(&mut rng, 2000, 3).unwrap();
        let coarse = ppr_push(&g, &[100], 0.1, 1e-2).unwrap();
        let fine = ppr_push(&g, &[100], 0.1, 1e-5).unwrap();
        assert!(coarse.touched < fine.touched);
        assert!(coarse.work < fine.work);
    }

    #[test]
    fn validates_inputs() {
        let g = cycle(5).unwrap();
        assert!(ppr_push(&g, &[], 0.1, 1e-3).is_err());
        assert!(ppr_push(&g, &[0], 0.0, 1e-3).is_err());
        assert!(ppr_push(&g, &[0], 1.0, 1e-3).is_err());
        assert!(ppr_push(&g, &[0], 0.1, 0.0).is_err());
        assert!(ppr_push(&g, &[9], 0.1, 1e-3).is_err());
        let iso = acir_graph::Graph::from_pairs(2, []).unwrap();
        assert!(ppr_push(&iso, &[0], 0.1, 1e-3).is_err());
    }

    #[test]
    fn budgeted_unlimited_matches_plain() {
        let g = barbell(6, 2).unwrap();
        let mut ctx = KernelCtx::budgeted("local.ppr_push", &Budget::unlimited())
            .with_guard(GuardConfig::contamination_only());
        let out = ppr_push_ctx(&g, &[0], 0.1, 1e-4, &mut ctx).unwrap();
        assert!(out.is_converged());
        let plain = ppr_push(&g, &[0], 0.1, 1e-4).unwrap();
        assert_eq!(out.value().unwrap().vector, plain.vector);
        assert_eq!(out.value().unwrap().pushes, plain.pushes);
    }

    #[test]
    fn budgeted_exhaustion_certificate_bounds_error() {
        let g = barbell(10, 2).unwrap();
        let mut ctx = KernelCtx::budgeted("local.ppr_push", &Budget::iterations(5))
            .with_guard(GuardConfig::contamination_only());
        let out = ppr_push_ctx(&g, &[0], 0.05, 1e-6, &mut ctx).unwrap();
        assert!(!out.is_converged() && out.is_usable());
        let (remaining, per_degree) = match out.certificate() {
            Some(&acir_runtime::Certificate::ResidualMass {
                remaining,
                per_degree_bound,
            }) => (remaining, per_degree_bound),
            c => panic!("wrong certificate {c:?}"),
        };
        // Verify against the exact answer: per-node error of the partial
        // vector is bounded by the certified per-degree residual bound
        // (the ACL invariant, with the remaining PPR mass ≤ remaining).
        let exact = ppr_exact_reference(&g, &[0], 0.05, 5000).unwrap();
        let dense = out.value().unwrap().to_dense(g.n());
        for u in 0..g.n() {
            let err = (exact[u] - dense[u]) / g.degree(u as u32);
            assert!(err >= -1e-9);
            assert!(
                err <= per_degree + 1e-9,
                "node {u}: err {err} vs bound {per_degree}"
            );
        }
        assert!(remaining > 0.0 && remaining <= 1.0 + 1e-12);
        assert!(!out.diagnostics().events.is_empty() || !out.diagnostics().residuals.is_empty());

        // The certificate is folded over the touched list (the far
        // clique is never reached); pin it to the dense `0..n` scan.
        let mut r = vec![0.0; g.n()];
        for &(u, x) in &out.value().unwrap().residuals {
            r[u as usize] = x;
        }
        let dense_scan = (0..g.n())
            .map(|u| r[u] / g.degree(u as NodeId))
            .fold(0.0f64, f64::max)
            .max(1e-6);
        assert!(per_degree > 1e-6, "the ε floor must not decide the bound");
        assert_eq!(per_degree.to_bits(), dense_scan.to_bits());
    }

    #[test]
    fn corrupted_edge_lists_rejected_before_push() {
        // Graph-level fault injection: the CSR constructor is the first
        // line of defense — corrupted triplets must never reach a
        // diffusion. (In-loop NaN guards in a guarded ppr_push_ctx remain as
        // defense-in-depth for operators built outside `Graph`.)
        use acir_runtime::fault::corrupt;
        let base: Vec<(u32, u32, f64)> = (0..9).map(|i| (i, i + 1, 1.0)).collect();

        let mut dangling = base.clone();
        assert!(corrupt::dangling_arcs(&mut dangling, 10, 0.5, 11) > 0);
        assert!(acir_graph::Graph::from_edges(10, dangling).is_err());

        let mut zeroed = base.clone();
        assert!(corrupt::zero_weights(&mut zeroed, 0.5, 11) > 0);
        assert!(acir_graph::Graph::from_edges(10, zeroed).is_err());

        let mut negated = base;
        assert!(corrupt::negative_weights(&mut negated, 0.5, 11) > 0);
        assert!(acir_graph::Graph::from_edges(10, negated).is_err());
    }

    #[test]
    fn ws_variant_bit_identical_across_reuse() {
        // One workspace and one output slot reused across calls of
        // different sizes and seeds must reproduce fresh results bit
        // for bit — reuse may never leak state between calls.
        let mut rng = StdRng::seed_from_u64(11);
        let big = barabasi_albert(&mut rng, 800, 3).unwrap();
        let small = barbell(6, 2).unwrap();
        let mut ws = PushWorkspace::new();
        let mut out = PushResult::empty();
        let cases: Vec<(&acir_graph::Graph, Vec<NodeId>)> = vec![
            (&big, vec![0]),
            (&small, vec![0]),
            (&big, vec![17, 399]),
            (&big, vec![0]), // repeat: shrunk-then-regrown scratch
        ];
        for (g, seeds) in cases {
            let fresh = ppr_push(g, &seeds, 0.1, 1e-4).unwrap();
            ppr_push_ws(g, &seeds, 0.1, 1e-4, &mut ws, &mut out).unwrap();
            assert_eq!(out.vector, fresh.vector);
            assert_eq!(out.residual_mass.to_bits(), fresh.residual_mass.to_bits());
            assert_eq!(
                (out.pushes, out.work, out.touched),
                (fresh.pushes, fresh.work, fresh.touched)
            );
        }
        // Errors still validate through the ws path.
        assert!(ppr_push_ws(&small, &[], 0.1, 1e-4, &mut ws, &mut out).is_err());
    }

    #[test]
    fn map_back_restores_original_ids() {
        use acir_graph::Permutation;
        let g = barbell(6, 2).unwrap();
        let direct = ppr_push(&g, &[0], 0.1, 1e-4).unwrap();
        assert_eq!(
            direct.map_back(&Permutation::identity(g.n())).vector,
            direct.vector
        );
        let perm = Permutation::rcm(&g);
        let pg = g.permute(&perm).unwrap();
        let mapped_seed = perm.to_new(0);
        let on_permuted = ppr_push(&pg, &[mapped_seed], 0.1, 1e-4).unwrap();
        let back = on_permuted.map_back(&perm);
        // Same support and bookkeeping; values agree to rounding (the
        // permuted run accumulates in a different neighbor order).
        let ids: Vec<NodeId> = back.vector.iter().map(|&(u, _)| u).collect();
        let want: Vec<NodeId> = direct.vector.iter().map(|&(u, _)| u).collect();
        assert_eq!(ids, want);
        // Push order differs on the relabelled graph, so the two runs
        // are different ε-truncations of the same exact PPR: each is
        // within ε per degree of it, hence within 2ε·d_u of each other.
        for (a, b) in back.vector.iter().zip(&direct.vector) {
            assert!((a.1 - b.1).abs() <= 2.0 * 1e-4 * g.degree(a.0));
        }
    }

    #[test]
    fn multiple_seeds_split_mass() {
        let g = cycle(12).unwrap();
        let r = ppr_push(&g, &[0, 6], 0.5, 1e-6).unwrap();
        let dense = r.to_dense(12);
        // Symmetric seeds on a cycle: symmetric output.
        assert!((dense[0] - dense[6]).abs() < 1e-9);
        assert!((dense[1] - dense[7]).abs() < 1e-9);
    }
}
