//! Spielman–Teng truncated random walks ("Nibble", paper ref \[39\]).
//!
//! The original strongly local method: run the lazy random walk from a
//! seed for `T` steps, but after every step set to zero every entry
//! with `q[u] < ε·d_u` ("\[39\] sets to zero very small probabilities",
//! §3.3). Sweep the distribution at each step and keep the best
//! cluster seen. The truncation keeps the support — and therefore the
//! work — bounded independently of the graph size, at the cost of
//! leaking probability mass; that leak *is* the implicit regularizer.

use crate::sweep::sweep_cut_sparse;
use crate::{LocalError, Result};
use acir_graph::{Graph, NodeId, NodeValued, Permutation};
use acir_runtime::{
    Certificate, DivergenceCause, Exhaustion, KernelCtx, SolverOutcome, StampedVec, WorkspacePool,
};

/// Output of [`nibble`].
#[derive(Debug, Clone)]
pub struct NibbleResult {
    /// Best cluster found across all steps (sorted).
    pub set: Vec<NodeId>,
    /// Its conductance.
    pub conductance: f64,
    /// Step at which the best cluster appeared (1-based).
    pub best_step: usize,
    /// Final truncated distribution as sorted `(node, value)` pairs.
    pub vector: Vec<(NodeId, f64)>,
    /// Total probability mass discarded by truncation.
    pub mass_lost: f64,
    /// Edge traversals performed (work measure).
    pub work: usize,
    /// Maximum support size over all steps (touched-node measure).
    pub max_support: usize,
}

/// `to_dense` / `scale` come from the shared [`NodeValued`] trait;
/// `map_back` is overridden because the best-cluster `set` names
/// nodes too and must be remapped alongside the distribution.
impl NodeValued for NibbleResult {
    fn node_values(&self) -> &[(NodeId, f64)] {
        &self.vector
    }

    fn node_values_mut(&mut self) -> &mut Vec<(NodeId, f64)> {
        &mut self.vector
    }

    fn map_back(&self, perm: &Permutation) -> Self {
        let mut out = self.clone();
        out.vector = perm.unmap_sparse(&self.vector);
        out.set = perm.unmap_nodes(&self.set);
        out
    }
}

/// Run truncated lazy random walks from `seed` for `steps` steps with
/// truncation threshold `epsilon` and holding probability 1/2.
///
/// Errors on bad parameters or a degree-0/out-of-range seed.
pub fn nibble(g: &Graph, seed: NodeId, steps: usize, epsilon: f64) -> Result<NibbleResult> {
    validate_nibble_args(g, seed, steps, epsilon)?;
    let mut ctx = KernelCtx::new();
    let (result, _exit) = NIBBLE_POOL.with(|ws| nibble_core(g, seed, steps, epsilon, ws, &mut ctx));
    Ok(result)
}

/// Parameter validation shared by every nibble entry point.
fn validate_nibble_args(g: &Graph, seed: NodeId, steps: usize, epsilon: f64) -> Result<()> {
    let n = g.n();
    if seed as usize >= n {
        return Err(LocalError::InvalidArgument(format!(
            "seed {seed} out of range"
        )));
    }
    if g.degree(seed) <= 0.0 {
        return Err(LocalError::InvalidArgument(format!(
            "seed {seed} has zero degree"
        )));
    }
    if steps == 0 {
        return Err(LocalError::InvalidArgument("steps must be positive".into()));
    }
    if !(epsilon > 0.0 && epsilon.is_finite()) {
        return Err(LocalError::InvalidArgument(format!(
            "epsilon must be positive, got {epsilon}"
        )));
    }
    Ok(())
}

/// Context-driven truncated random walks: the [`KernelCtx`] decides
/// whether the run is metered, guarded, or traced.
///
/// A metered context charges one iteration per walk step and one work
/// unit per edge traversal. On exhaustion the best cluster seen so far
/// is returned with a [`Certificate::ResidualMass`] recording the
/// truncation leak — a walk stopped early is just a harder truncation
/// of the same diffusion. Under a guard, NaN/Inf contamination diverges.
pub fn nibble_ctx(
    g: &Graph,
    seed: NodeId,
    steps: usize,
    epsilon: f64,
    ctx: &mut KernelCtx,
) -> Result<SolverOutcome<NibbleResult>> {
    validate_nibble_args(g, seed, steps, epsilon)?;
    let (result, exit) = NIBBLE_POOL.with(|ws| nibble_core(g, seed, steps, epsilon, ws, ctx));
    let diags = ctx.finish();
    Ok(match exit {
        NibbleExit::Done => SolverOutcome::converged(result, diags),
        NibbleExit::Exhausted(exhausted) => {
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
        NibbleExit::Diverged(cause) => SolverOutcome::diverged(cause, diags),
    })
}

/// Reusable scratch for [`nibble`]: the current and next distributions
/// on stamped arrays, support lists, and the per-step sweep input.
#[derive(Debug, Default)]
struct NibbleWorkspace {
    q: StampedVec,
    next: StampedVec,
    support: Vec<NodeId>,
    next_support: Vec<NodeId>,
    kept: Vec<NodeId>,
    pairs: Vec<(NodeId, f64)>,
}

static NIBBLE_POOL: WorkspacePool<NibbleWorkspace> = WorkspacePool::new();

/// How the single truncated-walk core loop exited.
enum NibbleExit {
    /// All steps ran (or the walk truncated away entirely).
    Done,
    /// Budget ran out; the best cluster seen so far was harvested.
    Exhausted(Exhaustion),
    /// NaN/Inf contamination of the distribution (guarded contexts).
    Diverged(DivergenceCause),
}

/// The truncated-walk loop on stamped scratch (inputs pre-validated).
/// Bit-identical to the historical dense implementation: stamped resets
/// read like fresh zeroed arrays, first touch coincides with the old
/// `next[v] == 0.0` test (all contributions are positive), and each
/// per-step sweep runs over exactly the support the dense `0..n` filter
/// found — the sweep's ordering is a strict total order (ratio
/// descending, id ascending), so candidate input order cannot matter.
///
/// The [`KernelCtx`] supplies the cross-cutting concerns: metering (one
/// iteration per walk step, one work unit per edge traversal), residual
/// recording of the truncation leak, and finiteness scans when a guard
/// is attached. An inert context runs the historical loop exactly.
fn nibble_core(
    g: &Graph,
    seed: NodeId,
    steps: usize,
    epsilon: f64,
    ws: &mut NibbleWorkspace,
    ctx: &mut KernelCtx,
) -> (NibbleResult, NibbleExit) {
    let n = g.n();
    ws.q.reset(n);
    ws.next.reset(n);
    ws.support.clear();
    ws.support.push(seed);
    ws.q.set(seed as usize, 1.0);

    let mut best: Option<(Vec<NodeId>, f64, usize)> = None;
    let mut mass_lost = 0.0;
    let mut work = 0usize;
    let mut max_support = 1usize;
    let mut exit = NibbleExit::Done;

    // CORE LOOP
    'steps: for step in 1..=steps {
        // One lazy step over the support: next = (q + M q)/2 restricted
        // to the out-neighborhood of the support.
        ws.next_support.clear();
        let mut traversals = 0u64;
        for &u in &ws.support {
            let qu = ws.q.get(u as usize);
            if qu == 0.0 {
                continue;
            }
            // Lazy half stays.
            if ws.next.add(u as usize, 0.5 * qu) {
                ws.next_support.push(u);
            }
            let du = g.degree(u);
            for (v, w) in g.neighbors(u) {
                work += 1;
                traversals += 1;
                if ws.next.add(v as usize, 0.5 * qu * w / du) {
                    ws.next_support.push(v);
                }
            }
        }
        // Truncate: zero entries below ε·d_v (degree-0 nodes cannot
        // receive mass, so no special case needed).
        ws.kept.clear();
        for &v in &ws.next_support {
            let x = ws.next.get(v as usize);
            if ctx.is_guarded() && !x.is_finite() {
                exit = NibbleExit::Diverged(DivergenceCause::NonFiniteIterate { at_iter: step });
                break 'steps;
            }
            if x < epsilon * g.degree(v) {
                mass_lost += x;
            } else if x > 0.0 {
                ws.kept.push(v);
            }
        }
        // Swap buffers: move the kept entries of next into q.
        ws.q.reset(n);
        for &v in &ws.kept {
            let x = ws.next.get(v as usize);
            ws.q.set(v as usize, x);
        }
        ws.next.reset(n);
        std::mem::swap(&mut ws.support, &mut ws.kept);
        max_support = max_support.max(ws.support.len());
        ctx.push_residual(mass_lost);
        if ws.support.is_empty() {
            break; // everything truncated away
        }

        // Sweep the current distribution (support-sized, not n-sized).
        ws.pairs.clear();
        ws.pairs
            .extend(ws.support.iter().map(|&u| (u, ws.q.get(u as usize))));
        let sr = sweep_cut_sparse(g, &ws.pairs);
        if let Some(d) = ctx.diags_mut() {
            d.sweep_cut(sr.set.len(), sr.conductance);
        }
        if !sr.set.is_empty() {
            match &best {
                Some((_, phi, _)) if *phi <= sr.conductance => {}
                _ => best = Some((sr.set, sr.conductance, step)),
            }
        }

        ctx.tick_iter();
        if let Some(exhausted) = ctx.add_work(traversals) {
            ctx.note_with(|| format!("stopped after walk step {step} of {steps}"));
            exit = NibbleExit::Exhausted(exhausted);
            break;
        }
    }

    if let NibbleExit::Diverged(_) = exit {
        let empty = NibbleResult {
            set: Vec::new(),
            conductance: f64::INFINITY,
            best_step: 0,
            vector: Vec::new(),
            mass_lost: 0.0,
            work: 0,
            max_support: 0,
        };
        return (empty, exit);
    }

    let (set, conductance, best_step) = best.unwrap_or((vec![seed], f64::INFINITY, 0));
    let mut vector: Vec<(NodeId, f64)> = ws
        .support
        .iter()
        .map(|&u| (u, ws.q.get(u as usize)))
        .filter(|&(_, x)| x > 0.0)
        .collect();
    vector.sort_unstable_by_key(|&(u, _)| u);

    let result = NibbleResult {
        set,
        conductance,
        best_step,
        vector,
        mass_lost,
        work,
        max_support,
    };
    (result, exit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use acir_graph::gen::deterministic::{barbell, cycle};
    use acir_graph::gen::random::barabasi_albert;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn finds_barbell_community() {
        let g = barbell(8, 0).unwrap();
        let r = nibble(&g, 3, 40, 1e-5).unwrap();
        assert_eq!(r.set, (0..8).collect::<Vec<u32>>());
        assert!(r.conductance < 0.02);
        assert!(r.best_step >= 1);
    }

    #[test]
    fn mass_conservation_with_leak() {
        let g = cycle(30).unwrap();
        let r = nibble(&g, 0, 10, 1e-4).unwrap();
        let kept: f64 = r.vector.iter().map(|&(_, x)| x).sum();
        assert!((kept + r.mass_lost - 1.0).abs() < 1e-9);
        assert!(r.mass_lost >= 0.0);
    }

    #[test]
    fn truncation_bounds_support() {
        let mut rng = StdRng::seed_from_u64(17);
        let g = barabasi_albert(&mut rng, 3000, 3).unwrap();
        // Generous epsilon: the walk must stay tiny even after many steps.
        let r = nibble(&g, 1500, 30, 1e-2).unwrap();
        assert!(
            r.max_support < 300,
            "support {} should stay far below n = 3000",
            r.max_support
        );
        // Finer epsilon expands the support.
        let r2 = nibble(&g, 1500, 30, 1e-5).unwrap();
        assert!(r2.max_support > r.max_support);
    }

    #[test]
    fn aggressive_truncation_can_kill_the_walk() {
        // ε so large that even the seed's mass dies after a step or two.
        let g = cycle(10).unwrap();
        let r = nibble(&g, 0, 50, 10.0).unwrap();
        assert!(r.vector.is_empty() || r.mass_lost > 0.9);
    }

    #[test]
    fn validates_inputs() {
        let g = cycle(5).unwrap();
        assert!(nibble(&g, 9, 5, 1e-3).is_err());
        assert!(nibble(&g, 0, 0, 1e-3).is_err());
        assert!(nibble(&g, 0, 5, 0.0).is_err());
        assert!(nibble(&g, 0, 5, f64::NAN).is_err());
        let iso = acir_graph::Graph::from_pairs(2, []).unwrap();
        assert!(nibble(&iso, 0, 5, 1e-3).is_err());
    }

    #[test]
    fn work_scales_with_epsilon_not_n() {
        let mut rng = StdRng::seed_from_u64(5);
        let small = barabasi_albert(&mut rng, 400, 3).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let big = barabasi_albert(&mut rng, 4000, 3).unwrap();
        let a = nibble(&small, 200, 15, 1e-3).unwrap();
        let b = nibble(&big, 200, 15, 1e-3).unwrap();
        // Same seed region, same parameters: work within a small factor.
        let ratio = b.work as f64 / a.work.max(1) as f64;
        assert!(ratio < 5.0, "work ratio {ratio} suggests global scaling");
    }
}
