//! Push-style residual **repair**: update a prior ACL `(estimate,
//! residual)` pair to a mutated graph without recomputing from scratch.
//!
//! The ACL invariant (see [`crate::push`]) is, written for the lazy
//! walk matrix `W = (I + A D⁻¹)/2`,
//!
//! ```text
//! s = r + (1/α)(I − (1−α)W) p .
//! ```
//!
//! When the graph mutates (`A, D → A', D'`), keep `p` fixed and solve
//! for the residual that restores the invariant on the new graph:
//!
//! ```text
//! r' = r + ((1−α)/(2α)) (A'D'⁻¹ − AD⁻¹) p .
//! ```
//!
//! Only columns of changed endpoints differ, so the correction is
//! supported on `N_old(c) ∪ N_new(c)` for each delta endpoint `c` with
//! `p_c ≠ 0` — `O(d_u + d_v)` work per changed edge, independent of
//! how much diffusion built the prior. The corrected residual is
//! **signed** (a deleted edge can leave `p` locally too large), and the
//! ordinary push recurrence is sign-agnostic: pushing while
//! `|r_u| ≥ ε·d_u` restores `‖D⁻¹(pr_α(s) − p)‖_∞ ≤ ε` on the new
//! graph, because `D⁻¹ pr_α(r')` is a row-stochastic-matrix average of
//! `r'/d`. Mass conservation holds exactly throughout: `Σp + Σr = 1`.
//!
//! Termination: each push removes `α·|r_u|` of absolute residual mass
//! and the injected perturbation is `Δ = Σ|Δr|`, so the push count is
//! `O((1 + Δ)/(εα))`. When `Δ` exceeds a caller-set mass threshold the
//! kernel abandons repair and falls back to a from-scratch push — the
//! "how approximate is optimal" dial of Perry–Mahoney applied to
//! incremental maintenance: a large enough perturbation makes
//! recomputation the cheaper regularizer.
//!
//! The kernel is two passes in front of the push family's one loop:
//! `correct_columns` loads the prior and injects the correction,
//! `rearm_changed` queues the nodes whose `|r| ≥ ε·d` status moved, and
//! `push::resume_push` reflows the perturbed mass, its cap scaled by
//! `1 + Δ`.
//!
//! This is the engine behind incremental hub-sketch maintenance
//! ([`crate::sketch::repair_hub_sketches`]) and the serve layer's
//! cached-answer revalidation.

use crate::push::{
    harvest, push_core, resume_push, validate_push_args, worst_per_degree, PushExit, PushResult,
    PushWorkspace, PUSH_POOL,
};
use crate::{LocalError, Result};
use acir_graph::delta::EdgeDelta;
use acir_graph::{Graph, NodeId, NodeValued, Permutation};
use acir_runtime::{KernelCtx, SolverOutcome};

/// Default perturbation threshold above which [`ppr_repair`] falls back
/// to a from-scratch push: the full unit of diffusion mass. A fresh
/// push reflows `Σr = 1` of mass; a repair reflows `O(Δ)` — so repair
/// is the economical choice exactly while the injected perturbation
/// stays below one unit, and beyond it the fallback's tighter constant
/// wins.
pub const DEFAULT_REPAIR_MASS_THRESHOLD: f64 = 1.0;

/// Everything a repair needs besides the (new) graph: the prior state,
/// the edge delta that separates the graph the prior was computed on
/// from the graph being repaired against, and the ACL parameters the
/// prior was computed with.
#[derive(Debug, Clone, Copy)]
pub struct RepairRequest<'a> {
    /// Seed set of the prior computation (used by the from-scratch
    /// fallback; must be valid on the new graph).
    pub seeds: &'a [NodeId],
    /// Prior estimate `p`, sparse sorted `(node, value)`.
    pub estimate: &'a [(NodeId, f64)],
    /// Prior residual `r`, sparse sorted `(node, value)`.
    pub residual: &'a [(NodeId, f64)],
    /// Net edge changes from the prior's graph to this one, as
    /// produced by `DeltaGraph::net_delta`.
    pub delta: &'a [EdgeDelta],
    /// Teleportation probability; must match the prior run.
    pub alpha: f64,
    /// Truncation threshold; must match the prior run.
    pub epsilon: f64,
    /// Fall back to a from-scratch push when the injected perturbation
    /// `Σ|Δr|` exceeds this ([`DEFAULT_REPAIR_MASS_THRESHOLD`] is the
    /// usual choice; `f64::INFINITY` disables the fallback).
    pub mass_threshold: f64,
}

/// Output of [`ppr_repair`]. Mirrors [`PushResult`] plus repair
/// bookkeeping; `vector` and `residuals` describe the repaired state
/// on the new graph, satisfying `|r| < ε·d` everywhere when converged.
#[derive(Debug, Clone, Default)]
pub struct RepairResult {
    /// Repaired estimate, sparse sorted `(node, value)`. Entries can
    /// be negative by up to `ε·d` near the truncation frontier (the
    /// signed residual can overshoot); consumers that need
    /// nonnegativity should clamp at presentation time.
    pub vector: Vec<(NodeId, f64)>,
    /// Repaired residual, sparse sorted `(node, value)`, signed.
    pub residuals: Vec<(NodeId, f64)>,
    /// Signed residual mass `Σ_u r[u]` at exit (`Σp + Σr = 1` exactly).
    pub residual_mass: f64,
    /// **Measured** worst per-degree residual `max_u |r_u|/d_u` at
    /// exit — `< ε` when converged. This is the pointwise error bound
    /// the certificate carries.
    pub per_degree_bound: f64,
    /// Push operations performed (0 = the delta did not disturb the
    /// invariant; the prior was returned unchanged, bit for bit).
    pub pushes: usize,
    /// Edge traversals performed (correction pass + push loop).
    pub work: usize,
    /// Distinct nodes with nonzero `p` or `r` at exit.
    pub touched: usize,
    /// Absolute residual mass processed by the push loop.
    pub mass_pushed: f64,
    /// Injected perturbation `Σ|Δr|` from the edge delta.
    pub perturbation: f64,
    /// `true` if the prior was repaired incrementally; `false` if the
    /// kernel fell back to a from-scratch push.
    pub repaired: bool,
}

impl NodeValued for RepairResult {
    fn node_values(&self) -> &[(NodeId, f64)] {
        &self.vector
    }

    fn node_values_mut(&mut self) -> &mut Vec<(NodeId, f64)> {
        &mut self.vector
    }
}

fn validate_repair_args(g: &Graph, req: &RepairRequest<'_>) -> Result<()> {
    validate_push_args(g, req.seeds, req.alpha, req.epsilon)?;
    if req.mass_threshold.is_nan() || req.mass_threshold <= 0.0 {
        return Err(LocalError::InvalidArgument(format!(
            "ppr_repair needs mass_threshold > 0, got {}",
            req.mass_threshold
        )));
    }
    let n = g.n();
    for (name, slice) in [("estimate", req.estimate), ("residual", req.residual)] {
        for &(u, x) in slice {
            if u as usize >= n {
                return Err(LocalError::InvalidArgument(format!(
                    "ppr_repair: {name} node {u} out of range"
                )));
            }
            if !x.is_finite() {
                return Err(LocalError::InvalidArgument(format!(
                    "ppr_repair: {name} value at node {u} is not finite"
                )));
            }
        }
    }
    for d in req.delta {
        if d.u as usize >= n || d.v as usize >= n {
            return Err(LocalError::InvalidArgument(format!(
                "ppr_repair: delta edge ({}, {}) out of range",
                d.u, d.v
            )));
        }
    }
    Ok(())
}

/// The distinct endpoints of `delta`, ascending — the only columns of
/// the walk matrix a delta changes, and the only nodes whose degree it
/// moves.
pub fn delta_endpoints(delta: &[EdgeDelta]) -> Vec<NodeId> {
    let mut endpoints: Vec<NodeId> = delta.iter().flat_map(|d| [d.u, d.v]).collect();
    endpoints.sort_unstable();
    endpoints.dedup();
    endpoints
}

/// Can a delta with these `endpoints` change this prior at all? The
/// exact filter in front of [`ppr_repair`]: `None` means the repair
/// would reflow something (run it); `Some(bound)` means the prior is
/// **undisturbed** — `ppr_repair` on `g_new` would return `estimate`
/// and `residual` bit for bit with `pushes == 0` — so the caller keeps
/// the prior without paying for the call.
///
/// Undisturbed iff, for every endpoint `c` (degree `d'_c` on `g_new`):
///
/// 1. `p_c == 0`. The correction pass of the repair loop only visits
///    columns with `p_c ≠ 0`, so it adds nothing anywhere and the
///    injected perturbation is exactly 0: `r` is unchanged.
/// 2. not (`d'_c > 0` and `|r_c| ≥ ε·d'_c`). With `r` unchanged the
///    re-arm pass can only queue a node whose *degree* moved — an
///    endpoint; every other candidate keeps both `r` and `d`, and a
///    converged prior already has `|r| < ε·d` there. An empty queue
///    means zero pushes, and the harvest re-emits the loaded state.
///
/// `bound` is `max_c |r_c|/d'_c` over the endpoints inside the residual
/// support (0.0 if there are none): the only terms of the measured
/// `max_u |r_u|/d_u` whose denominator moved. The prior's own bound
/// covers the rest, so `max(prior bound, bound)` is a true
/// `per_degree_bound` on `g_new`, and `bound < ε` by (2) — a degree
/// that dropped under a parked residual is the case the raise covers.
///
/// Precondition: the prior is a **converged** state (`|r_u| < ε·d_u`
/// on the graph it was computed on) with no explicit zeros stored, as
/// [`crate::push`] and [`ppr_repair`] emit; `estimate` and `residual`
/// are sorted by node and `endpoints` come from [`delta_endpoints`].
/// It is a filter, not a second recurrence: `O(|endpoints|·log
/// support)`, no push, no allocation.
pub fn delta_leaves_undisturbed(
    g_new: &Graph,
    estimate: &[(NodeId, f64)],
    residual: &[(NodeId, f64)],
    endpoints: &[NodeId],
    epsilon: f64,
) -> Option<f64> {
    let mut bound = 0.0f64;
    for &c in endpoints {
        let on_estimate = estimate.binary_search_by_key(&c, |e| e.0);
        if on_estimate.is_ok_and(|k| estimate[k].1 != 0.0) {
            return None;
        }
        if let Ok(k) = residual.binary_search_by_key(&c, |e| e.0) {
            let (rc, dc) = (residual[k].1.abs(), g_new.degree(c));
            if dc > 0.0 {
                if rc >= epsilon * dc {
                    return None;
                }
                bound = bound.max(rc / dc);
            }
        }
    }
    Some(bound)
}

/// Changed arcs at one endpoint: `(target, old_weight, new_weight)`
/// sorted by target (0.0 = absent).
type ArcChanges = Vec<(NodeId, f64, f64)>;

/// Per-endpoint view of the delta: for endpoint `c`, the changed arcs
/// `(target, old_weight, new_weight)` sorted by target (0.0 = absent).
fn endpoint_changes(delta: &[EdgeDelta]) -> Vec<(NodeId, ArcChanges)> {
    let mut map: std::collections::BTreeMap<NodeId, ArcChanges> = Default::default();
    for d in delta {
        let (old, new) = (d.old.unwrap_or(0.0), d.new.unwrap_or(0.0));
        map.entry(d.u).or_default().push((d.v, old, new));
        if d.u != d.v {
            map.entry(d.v).or_default().push((d.u, old, new));
        }
    }
    map.into_iter()
        .map(|(c, mut row)| {
            row.sort_unstable_by_key(|e| e.0);
            (c, row)
        })
        .collect()
}

/// What [`correct_columns`] measured.
struct Correction {
    /// Signed residual mass `Σ r` after the pass.
    residual_mass: f64,
    /// Injected perturbation `Σ|Δr|`.
    perturbation: f64,
    /// Edge traversals spent.
    work: usize,
    /// A node carrying estimate mass gained its first or lost its last
    /// edges: the pass stopped there, and only a fresh push is honest.
    degenerate: bool,
}

/// The correction pass: load the prior into `ws` and restore the
/// invariant on the new graph by adjusting `r` at the changed columns
/// (delta endpoints with `p_c ≠ 0`). Adding into freshly-stamped zeros
/// is exact, so with nothing to correct `ws` holds the prior bit for
/// bit.
fn correct_columns(
    g: &Graph,
    req: &RepairRequest<'_>,
    changes: &[(NodeId, ArcChanges)],
    ws: &mut PushWorkspace,
) -> Correction {
    let mut residual_mass = 0.0f64;
    for &(u, x) in req.estimate {
        if ws.p.add(u as usize, x) {
            ws.touched.push(u);
        }
    }
    for &(u, x) in req.residual {
        if ws.r.add(u as usize, x) {
            ws.touched.push(u);
        }
        residual_mass += x;
    }
    let (mut perturbation, mut work) = (0.0f64, 0usize);
    let mut adjust = |ws: &mut PushWorkspace, x: NodeId, adj: f64| {
        perturbation += adj.abs();
        residual_mass += adj;
        if ws.r.add(x as usize, adj) {
            ws.touched.push(x);
        }
    };
    let mut degenerate = false;
    for (c, row) in changes {
        let pc = ws.p.get(*c as usize);
        if pc == 0.0 {
            continue; // column c never received estimate mass
        }
        let d_new = g.degree(*c);
        let d_old = d_new - row.iter().map(|&(_, o, nw)| nw - o).sum::<f64>();
        if d_old <= 0.0 || d_new <= 0.0 {
            degenerate = true;
            break;
        }
        let kappa = pc * (1.0 - req.alpha) / (2.0 * req.alpha);
        // Net column swap A'_{·c}/d'_c − A_{·c}/d_c, one merged pass:
        // the new CSR row (old weights restored from the delta record)
        // plus fully-deleted arcs. Unchanged arcs nearly cancel —
        // their adjustment is κ·w·(1/d' − 1/d) — so the measured
        // perturbation scales with the *relative* degree change, not
        // with the column mass.
        for (x, w_new) in g.neighbors(*c) {
            work += 1;
            let w_old = match row.binary_search_by_key(&x, |e| e.0) {
                Ok(k) => row[k].1,
                Err(_) => w_new,
            };
            let adj = kappa * (w_new / d_new - w_old / d_old);
            if adj != 0.0 {
                adjust(ws, x, adj);
            }
        }
        for &(x, w_old, w_new) in row {
            if w_new == 0.0 && w_old > 0.0 {
                work += 1;
                adjust(ws, x, -kappa * w_old / d_old);
            }
        }
    }
    Correction {
        residual_mass,
        perturbation,
        work,
        degenerate,
    }
}

/// The re-arm pass: queue every node whose `|r| ≥ ε·d` status the
/// delta can have changed — the endpoints (degree changed) and the
/// nodes their corrections landed on (residual changed).
fn rearm_changed(
    g: &Graph,
    changes: &[(NodeId, ArcChanges)],
    epsilon: f64,
    ws: &mut PushWorkspace,
) {
    let mut candidates: Vec<NodeId> = Vec::new();
    for (c, row) in changes {
        candidates.push(*c);
        candidates.extend(g.neighbors(*c).map(|(x, _)| x));
        for &(x, w_old, w_new) in row {
            if w_new == 0.0 && w_old > 0.0 {
                candidates.push(x);
            }
        }
    }
    candidates.sort_unstable();
    candidates.dedup();
    for u in candidates {
        ws.arm(u, g.degree(u), epsilon);
    }
}

/// Repair on the shared push scratch (see the [module docs](self)), or
/// a from-scratch [`push_core`] when the perturbation is over the
/// caller's threshold or the column swap is degenerate.
// CORE LOOP (delegated: push::resume_push)
fn repair_core(
    g: &Graph,
    req: &RepairRequest<'_>,
    ws: &mut PushWorkspace,
    out: &mut RepairResult,
    ctx: &mut KernelCtx,
) -> Result<PushExit> {
    let (alpha, eps) = (req.alpha, req.epsilon);
    ws.reset(g.n());
    let changes = endpoint_changes(req.delta);
    let c = correct_columns(g, req, &changes, ws);
    out.perturbation = c.perturbation;
    out.repaired = !(c.degenerate || c.perturbation > req.mass_threshold);
    let mut fresh = PushResult::empty();
    let exit = if out.repaired {
        rearm_changed(g, &changes, eps, ws);
        let cap = 1.0 + c.perturbation;
        let run = resume_push(g, ws, alpha, eps, |_| false, cap, c.residual_mass, ctx)?;
        harvest(ws, run, &mut fresh)
    } else {
        ctx.note_with(|| {
            if c.degenerate {
                "repair fallback: delta isolates or newly connects an estimate-bearing node".into()
            } else {
                format!(
                    "repair fallback: perturbation {:.3e} exceeds threshold {:.3e}",
                    c.perturbation, req.mass_threshold
                )
            }
        });
        push_core(g, req.seeds, alpha, eps, ws, &mut fresh, ctx)?
    };
    out.per_degree_bound = match &exit {
        PushExit::Exhausted {
            per_degree_bound, ..
        } => *per_degree_bound,
        _ => worst_per_degree(g, fresh.residuals.iter().copied()),
    };
    out.vector = fresh.vector;
    out.residuals = fresh.residuals;
    out.residual_mass = fresh.residual_mass;
    out.pushes = fresh.pushes;
    out.work = c.work + fresh.work;
    out.touched = fresh.touched;
    out.mass_pushed = fresh.mass_pushed;
    Ok(exit)
}

/// What [`repair_core`] emits for an empty delta, without the workspace
/// round trip: with nothing to correct and nothing to re-arm, the
/// harvest re-emits the loaded prior — its nonzero entries, `Σ r` in
/// ascending node order, the merged count of nodes carrying either —
/// and measures its bound. Only a prior the harvest would emit as
/// given qualifies (strictly ascending nodes, no stored zeros, as the
/// push family emits); anything else returns `None` and takes the
/// kernel.
fn unchanged_prior(g: &Graph, req: &RepairRequest<'_>) -> Option<RepairResult> {
    let canonical =
        |s: &[(NodeId, f64)]| s.windows(2).all(|w| w[0].0 < w[1].0) && s.iter().all(|e| e.1 != 0.0);
    if !req.delta.is_empty() || !canonical(req.estimate) || !canonical(req.residual) {
        return None;
    }
    let (p, r) = (req.estimate, req.residual);
    let (mut i, mut j, mut touched) = (0, 0, 0);
    while i < p.len() || j < r.len() {
        match (p.get(i), r.get(j)) {
            (Some(a), Some(b)) if a.0 == b.0 => (i, j) = (i + 1, j + 1),
            (Some(a), Some(b)) if a.0 < b.0 => i += 1,
            (Some(_), None) => i += 1,
            _ => j += 1,
        }
        touched += 1;
    }
    Some(RepairResult {
        vector: p.to_vec(),
        residuals: r.to_vec(),
        residual_mass: r.iter().fold(0.0, |sum, e| sum + e.1),
        per_degree_bound: worst_per_degree(g, r.iter().copied()),
        touched,
        repaired: true,
        ..RepairResult::default()
    })
}

/// Repair a prior push state against an edge delta. See the
/// [module docs](self).
///
/// Returns the repaired state on the new graph with the invariant
/// `|r_u| < ε·d_u` restored everywhere (so the repaired vector carries
/// the same `‖D⁻¹(pr_α(s) − p)‖_∞ ≤ ε` guarantee a from-scratch push
/// earns). An empty delta returns the prior unchanged, bit for bit,
/// with `pushes == 0`.
pub fn ppr_repair(g: &Graph, req: &RepairRequest<'_>) -> Result<RepairResult> {
    validate_repair_args(g, req)?;
    if let Some(out) = unchanged_prior(g, req) {
        return Ok(out);
    }
    let mut out = RepairResult::default();
    let mut ctx = KernelCtx::new();
    PUSH_POOL.with(|ws| repair_core(g, req, ws, &mut out, &mut ctx))?;
    Ok(out)
}

/// Repair a prior push state recorded in a *previous* snapshot's
/// vertex labeling against a graph that has since been relabeled by
/// `step` (prior ids → `g`'s ids), e.g. by a relabeling compaction
/// ([`acir_graph::snapshot`]).
///
/// The prior's seeds, estimate, residual, and delta endpoints are
/// routed through `step` into `g`'s id space and the repair then
/// proceeds exactly as [`ppr_repair`] — so the returned state lives in
/// `g`'s labeling and carries the same freshly **measured**
/// `per_degree_bound`. With an empty delta this reduces to relabeling
/// the prior verbatim (`pushes == 0`) while still re-measuring the
/// certificate against `g`; with an identity `step` it is bit-identical
/// to [`ppr_repair`].
pub fn ppr_repair_relabeled(
    g: &Graph,
    req: &RepairRequest<'_>,
    step: &Permutation,
) -> Result<RepairResult> {
    if step.is_identity() {
        return ppr_repair(g, req);
    }
    if step.len() != g.n() {
        return Err(LocalError::InvalidArgument(format!(
            "ppr_repair_relabeled: permutation over {} vertices cannot relabel into a graph with {} nodes",
            step.len(),
            g.n()
        )));
    }
    validate_repair_args(g, req)?;
    let seeds: Vec<NodeId> = req.seeds.iter().map(|&u| step.to_new(u)).collect();
    let estimate = step.map_sparse(req.estimate);
    let residual = step.map_sparse(req.residual);
    let mut delta: Vec<EdgeDelta> = req
        .delta
        .iter()
        .map(|d| {
            let (mut u, mut v) = (step.to_new(d.u), step.to_new(d.v));
            if u > v {
                std::mem::swap(&mut u, &mut v);
            }
            EdgeDelta {
                u,
                v,
                old: d.old,
                new: d.new,
            }
        })
        .collect();
    delta.sort_unstable_by_key(|d| (d.u, d.v));
    ppr_repair(
        g,
        &RepairRequest {
            seeds: &seeds,
            estimate: &estimate,
            residual: &residual,
            delta: &delta,
            alpha: req.alpha,
            epsilon: req.epsilon,
            mass_threshold: req.mass_threshold,
        },
    )
}

/// Context-driven repair: metering, contamination guards, and tracing
/// per the [`KernelCtx`], with the result structured as a
/// [`SolverOutcome`] whose certificate is the usual
/// [`acir_runtime::Certificate::ResidualMass`] — `remaining` is the
/// signed residual mass and `per_degree_bound` the **measured** worst
/// `|r|/d` at exit.
pub fn ppr_repair_ctx(
    g: &Graph,
    req: &RepairRequest<'_>,
    ctx: &mut KernelCtx,
) -> Result<SolverOutcome<RepairResult>> {
    validate_repair_args(g, req)?;
    let mut out = RepairResult::default();
    let exit = PUSH_POOL.with(|ws| repair_core(g, req, ws, &mut out, ctx))?;
    Ok(exit.outcome(out, ctx.finish()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::push::{ppr_exact_reference, ppr_push};
    use acir_graph::gen::deterministic::{barbell, cycle};
    use acir_graph::DeltaGraph;

    fn repair_after(
        g_old: &Graph,
        edits: impl FnOnce(&mut DeltaGraph<'_>),
        seeds: &[NodeId],
        alpha: f64,
        epsilon: f64,
    ) -> (Graph, Vec<EdgeDelta>, RepairResult) {
        let prior = ppr_push(g_old, seeds, alpha, epsilon).unwrap();
        let mut dg = DeltaGraph::new(g_old);
        edits(&mut dg);
        let delta = dg.net_delta();
        let (g_new, _) = dg.compact().unwrap();
        let rr = ppr_repair(
            &g_new,
            &RepairRequest {
                seeds,
                estimate: &prior.vector,
                residual: &prior.residuals,
                delta: &delta,
                alpha,
                epsilon,
                mass_threshold: DEFAULT_REPAIR_MASS_THRESHOLD,
            },
        )
        .unwrap();
        (g_new, delta, rr)
    }

    #[test]
    fn empty_delta_returns_prior_bit_for_bit() {
        let g = barbell(6, 2).unwrap();
        let prior = ppr_push(&g, &[0], 0.1, 1e-4).unwrap();
        let rr = ppr_repair(
            &g,
            &RepairRequest {
                seeds: &[0],
                estimate: &prior.vector,
                residual: &prior.residuals,
                delta: &[],
                alpha: 0.1,
                epsilon: 1e-4,
                mass_threshold: DEFAULT_REPAIR_MASS_THRESHOLD,
            },
        )
        .unwrap();
        assert!(rr.repaired);
        assert_eq!(rr.pushes, 0);
        assert_eq!(rr.perturbation, 0.0);
        assert_eq!(rr.vector, prior.vector);
        assert_eq!(rr.residuals, prior.residuals);
        assert_eq!(rr.residual_mass.to_bits(), prior.residual_mass.to_bits());
    }

    /// The empty-delta shortcut emits what the kernel's workspace round
    /// trip emits, field for field, on a fresh prior and on a signed
    /// repaired one.
    #[test]
    fn empty_delta_shortcut_matches_the_kernel() {
        let g = barbell(6, 2).unwrap();
        let (g_new, _, repaired) = repair_after(
            &g,
            |dg| {
                dg.insert_edge(0, 7, 2.0).unwrap();
            },
            &[0],
            0.1,
            1e-3,
        );
        let fresh = ppr_push(&g_new, &[0], 0.1, 1e-3).unwrap();
        let priors = [
            (fresh.vector, fresh.residuals),
            (repaired.vector, repaired.residuals),
        ];
        for (estimate, residual) in &priors {
            let req = RepairRequest {
                seeds: &[0],
                estimate,
                residual,
                delta: &[],
                alpha: 0.1,
                epsilon: 1e-3,
                mass_threshold: DEFAULT_REPAIR_MASS_THRESHOLD,
            };
            let short = ppr_repair(&g_new, &req).unwrap();
            let kernel = ppr_repair_ctx(&g_new, &req, &mut KernelCtx::new())
                .unwrap()
                .into_value()
                .unwrap();
            let fields = |r: &RepairResult| {
                let bits = |v: &[(NodeId, f64)]| -> Vec<(NodeId, u64)> {
                    v.iter().map(|&(u, x)| (u, x.to_bits())).collect()
                };
                (
                    bits(&r.vector),
                    bits(&r.residuals),
                    [
                        r.residual_mass,
                        r.per_degree_bound,
                        r.mass_pushed,
                        r.perturbation,
                    ]
                    .map(f64::to_bits),
                    (r.pushes, r.work, r.touched, r.repaired),
                )
            };
            assert_eq!(fields(&short), fields(&kernel));
        }
    }

    #[test]
    fn repaired_state_meets_invariant_and_tracks_reference() {
        let (alpha, eps) = (0.1, 1e-5);
        let g_old = barbell(8, 2).unwrap();
        let (g_new, _, rr) = repair_after(
            &g_old,
            |dg| {
                dg.insert_edge(0, 12, 1.0).unwrap();
                dg.delete_edge(1, 2).unwrap();
            },
            &[0],
            alpha,
            eps,
        );
        assert!(rr.repaired);
        assert!(rr.pushes > 0);
        // Invariant restored: measured bound below ε.
        assert!(rr.per_degree_bound < eps, "bound {}", rr.per_degree_bound);
        for &(u, r) in &rr.residuals {
            assert!(r.abs() < eps * g_new.degree(u));
        }
        // Mass conserved exactly through correction and push.
        let p_mass: f64 = rr.vector.iter().map(|&(_, x)| x).sum();
        assert!((p_mass + rr.residual_mass - 1.0).abs() < 1e-12);
        // Within ε·d of the exact answer on the NEW graph, node by node.
        let exact = ppr_exact_reference(&g_new, &[0], alpha, 20_000).unwrap();
        let dense = rr.to_dense(g_new.n());
        for u in 0..g_new.n() {
            let err = (exact[u] - dense[u]).abs() / g_new.degree(u as NodeId);
            assert!(err <= eps + 1e-9, "node {u}: err {err}");
        }
    }

    #[test]
    fn repair_is_cheaper_than_recompute_for_single_edges() {
        let (alpha, eps) = (0.05, 1e-6);
        let g_old = barbell(10, 3).unwrap();
        // Reweight an edge inside the far clique: little of the seed's
        // estimate mass sits on the endpoints, so the perturbation —
        // and the repair work — is small.
        let (g_new, _, rr) = repair_after(
            &g_old,
            |dg| {
                dg.insert_edge(14, 20, 3.0).unwrap();
            },
            &[0],
            alpha,
            eps,
        );
        let fresh = ppr_push(&g_new, &[0], alpha, eps).unwrap();
        assert!(rr.repaired);
        assert!(
            rr.pushes * 5 <= fresh.pushes,
            "repair {} vs rebuild {} pushes",
            rr.pushes,
            fresh.pushes
        );
        // And the two agree within 2ε per degree (both ε-truncations of
        // the same exact PPR).
        let dense_r = rr.to_dense(g_new.n());
        let dense_f = fresh.to_dense(g_new.n());
        for u in 0..g_new.n() {
            let diff = (dense_r[u] - dense_f[u]).abs() / g_new.degree(u as NodeId);
            assert!(diff <= 2.0 * eps + 1e-12, "node {u}: {diff}");
        }
    }

    #[test]
    fn oversized_perturbation_falls_back_to_scratch() {
        let (alpha, eps) = (0.1, 1e-4);
        let g_old = cycle(12).unwrap();
        let prior = ppr_push(&g_old, &[0], alpha, eps).unwrap();
        let mut dg = DeltaGraph::new(&g_old);
        // Rewire everything around the seed: huge perturbation.
        for v in 2..10 {
            dg.insert_edge(0, v, 10.0).unwrap();
        }
        let delta = dg.net_delta();
        let (g_new, _) = dg.compact().unwrap();
        let req = RepairRequest {
            seeds: &[0],
            estimate: &prior.vector,
            residual: &prior.residuals,
            delta: &delta,
            alpha,
            epsilon: eps,
            mass_threshold: 1e-6, // force the fallback
        };
        let rr = ppr_repair(&g_new, &req).unwrap();
        assert!(!rr.repaired);
        assert!(rr.perturbation > 1e-6);
        let fresh = ppr_push(&g_new, &[0], alpha, eps).unwrap();
        assert_eq!(rr.vector, fresh.vector);
        assert_eq!(rr.residuals, fresh.residuals);
        assert_eq!(rr.pushes, fresh.pushes);
    }

    #[test]
    fn relabeled_repair_with_empty_delta_maps_prior_and_remeasures() {
        use acir_graph::Permutation;
        let (alpha, eps) = (0.1, 1e-4);
        let g = barbell(6, 2).unwrap();
        let prior = ppr_push(&g, &[0], alpha, eps).unwrap();
        let step = Permutation::degree_descending(&g);
        assert!(!step.is_identity());
        let gp = g.permute(&step).unwrap();
        let rr = ppr_repair_relabeled(
            &gp,
            &RepairRequest {
                seeds: &[0],
                estimate: &prior.vector,
                residual: &prior.residuals,
                delta: &[],
                alpha,
                epsilon: eps,
                mass_threshold: DEFAULT_REPAIR_MASS_THRESHOLD,
            },
            &step,
        )
        .unwrap();
        // A pure relabel reflows nothing: the prior comes back mapped,
        // bit for bit, and the bound is re-measured against gp.
        assert!(rr.repaired);
        assert_eq!(rr.pushes, 0);
        assert_eq!(rr.vector, step.map_sparse(&prior.vector));
        assert_eq!(rr.residuals, step.map_sparse(&prior.residuals));
        assert!(rr.per_degree_bound > 0.0 && rr.per_degree_bound < eps);
    }

    #[test]
    fn relabeled_repair_restores_invariant_after_a_real_delta() {
        use acir_graph::Permutation;
        let (alpha, eps) = (0.1, 1e-5);
        let g_old = barbell(8, 2).unwrap();
        let prior = ppr_push(&g_old, &[0], alpha, eps).unwrap();
        let mut dg = DeltaGraph::new(&g_old);
        dg.insert_edge(0, 12, 2.0).unwrap();
        dg.delete_edge(1, 2).unwrap();
        let delta = dg.net_delta();
        let (g_new, _) = dg.compact().unwrap();
        let step = Permutation::rcm(&g_new);
        let gp = g_new.permute(&step).unwrap();
        let req = RepairRequest {
            seeds: &[0],
            estimate: &prior.vector,
            residual: &prior.residuals,
            delta: &delta,
            alpha,
            epsilon: eps,
            mass_threshold: DEFAULT_REPAIR_MASS_THRESHOLD,
        };
        let rr = ppr_repair_relabeled(&gp, &req, &step).unwrap();
        assert!(rr.repaired);
        assert!(rr.pushes > 0);
        assert!(rr.per_degree_bound < eps);
        let p_mass: f64 = rr.vector.iter().map(|&(_, x)| x).sum();
        assert!((p_mass + rr.residual_mass - 1.0).abs() < 1e-12);
        // Node-by-node agreement with the exact answer on the permuted
        // graph, from the permuted seed.
        let exact = ppr_exact_reference(&gp, &[step.to_new(0)], alpha, 20_000).unwrap();
        let dense = rr.to_dense(gp.n());
        for u in 0..gp.n() {
            let err = (exact[u] - dense[u]).abs() / gp.degree(u as NodeId);
            assert!(err <= eps + 1e-9, "node {u}: err {err}");
        }
        // Identity step delegates bit-for-bit to the plain kernel.
        let ident = Permutation::identity(g_new.n());
        let a = ppr_repair_relabeled(&g_new, &req, &ident).unwrap();
        let b = ppr_repair(&g_new, &req).unwrap();
        assert_eq!(a.vector, b.vector);
        assert_eq!(a.residuals, b.residuals);
        assert_eq!(a.pushes, b.pushes);
    }

    #[test]
    fn isolating_an_estimate_node_is_unrepairable() {
        let (alpha, eps) = (0.1, 1e-4);
        let g_old = barbell(4, 1).unwrap(); // bridge node 4 between cliques
        let prior = ppr_push(&g_old, &[0], alpha, eps).unwrap();
        let mut dg = DeltaGraph::new(&g_old);
        // Cut the bridge node loose entirely.
        dg.delete_edge(3, 4).unwrap();
        dg.delete_edge(4, 5).unwrap();
        let delta = dg.net_delta();
        let (g_new, _) = dg.compact().unwrap();
        let rr = ppr_repair(
            &g_new,
            &RepairRequest {
                seeds: &[0],
                estimate: &prior.vector,
                residual: &prior.residuals,
                delta: &delta,
                alpha,
                epsilon: eps,
                mass_threshold: f64::INFINITY,
            },
        )
        .unwrap();
        assert!(!rr.repaired, "degenerate column swap must fall back");
        let fresh = ppr_push(&g_new, &[0], alpha, eps).unwrap();
        assert_eq!(rr.vector, fresh.vector);
    }

    #[test]
    fn exhausted_repair_certificate_matches_the_dense_scan() {
        let (alpha, eps) = (0.1, 1e-6);
        let g_old = barbell(8, 3).unwrap();
        let prior = ppr_push(&g_old, &[0], alpha, eps).unwrap();
        let mut dg = DeltaGraph::new(&g_old);
        dg.insert_edge(0, 5, 4.0).unwrap();
        let delta = dg.net_delta();
        let (g_new, _) = dg.compact().unwrap();
        let req = RepairRequest {
            seeds: &[0],
            estimate: &prior.vector,
            residual: &prior.residuals,
            delta: &delta,
            alpha,
            epsilon: eps,
            mass_threshold: DEFAULT_REPAIR_MASS_THRESHOLD,
        };
        let mut ctx = acir_runtime::KernelCtx::budgeted(
            "local.ppr_repair",
            &acir_runtime::Budget::iterations(2),
        );
        let out = ppr_repair_ctx(&g_new, &req, &mut ctx).unwrap();
        assert!(!out.is_converged() && out.is_usable());
        let rr = out.value().unwrap();
        let mut r = vec![0.0f64; g_new.n()];
        for &(u, x) in &rr.residuals {
            r[u as usize] = x;
        }
        let dense_scan = (0..g_new.n())
            .map(|u| r[u].abs() / g_new.degree(u as NodeId))
            .fold(0.0f64, f64::max)
            .max(eps);
        assert!(rr.per_degree_bound > eps, "the ε floor must not decide");
        assert_eq!(rr.per_degree_bound.to_bits(), dense_scan.to_bits());
    }

    /// An endpoint that holds parked residual but no estimate mass
    /// loses an edge: the verdict turns on whether `|r_c|` still fits
    /// under `ε·d'_c`, and either way it is what the kernel then does.
    #[test]
    fn residual_only_endpoint_is_kept_until_its_degree_drops_under_it() {
        let (alpha, eps) = (0.1, 0.01);
        // 0 - 1 - 2 - 3
        //         | /
        //         4        c = 2 has degree 3; deleting {2, 4} makes it 2.
        let g_old = Graph::from_pairs(5, [(0, 1), (1, 2), (2, 3), (2, 4), (3, 4)]).unwrap();
        let mut dg = DeltaGraph::new(&g_old);
        dg.delete_edge(2, 4).unwrap();
        let delta = dg.net_delta();
        let (g_new, _) = dg.compact().unwrap();
        let endpoints = delta_endpoints(&delta);
        assert_eq!(endpoints, vec![2, 4]);

        let estimate = [(0, 0.6), (1, 0.3)];
        let measured = |g: &Graph, r: &[(NodeId, f64)]| {
            r.iter()
                .map(|&(u, x)| x.abs() / g.degree(u))
                .fold(0.0f64, f64::max)
        };
        let repair = |residual: &[(NodeId, f64)]| {
            ppr_repair(
                &g_new,
                &RepairRequest {
                    seeds: &[0],
                    estimate: &estimate,
                    residual,
                    delta: &delta,
                    alpha,
                    epsilon: eps,
                    mass_threshold: DEFAULT_REPAIR_MASS_THRESHOLD,
                },
            )
            .unwrap()
        };

        // r_c = 0.015: under ε·3 before and under ε·2 after — kept, and
        // the bound is raised from 0.015/3 to 0.015/2.
        let stays = [(1, 0.004), (2, 0.015)];
        assert!(measured(&g_old, &stays) < eps);
        let raised = delta_leaves_undisturbed(&g_new, &estimate, &stays, &endpoints, eps)
            .expect("no estimate on an endpoint, residual still parked");
        assert_eq!(raised, 0.015 / 2.0);
        assert!(raised > measured(&g_old, &stays) && raised < eps);
        let rr = repair(&stays);
        assert_eq!((rr.pushes, rr.perturbation), (0, 0.0));
        assert_eq!(rr.vector, estimate);
        assert_eq!(rr.residuals, stays);
        assert_eq!(rr.per_degree_bound, raised);

        // r_c = 0.025: under ε·3 before, over ε·2 after — disturbed,
        // and the kernel does push it back under.
        let crosses = [(1, 0.004), (2, 0.025)];
        assert!(measured(&g_old, &crosses) < eps);
        assert_eq!(
            delta_leaves_undisturbed(&g_new, &estimate, &crosses, &endpoints, eps),
            None
        );
        let rr = repair(&crosses);
        assert!(rr.pushes > 0 && rr.per_degree_bound < eps);

        // Estimate mass on an endpoint disturbs whatever the residual.
        let on_endpoint = [(0, 0.6), (2, 0.3)];
        assert_eq!(
            delta_leaves_undisturbed(&g_new, &on_endpoint, &[], &endpoints, eps),
            None
        );
        // And no endpoints at all disturb nothing.
        assert_eq!(
            delta_leaves_undisturbed(&g_new, &on_endpoint, &crosses, &[], eps),
            Some(0.0)
        );
    }

    #[test]
    fn ctx_variant_certifies_and_validates() {
        let (alpha, eps) = (0.1, 1e-4);
        let g_old = barbell(6, 2).unwrap();
        let prior = ppr_push(&g_old, &[0], alpha, eps).unwrap();
        let mut dg = DeltaGraph::new(&g_old);
        dg.insert_edge(0, 9, 1.0).unwrap();
        let delta = dg.net_delta();
        let (g_new, _) = dg.compact().unwrap();
        let req = RepairRequest {
            seeds: &[0],
            estimate: &prior.vector,
            residual: &prior.residuals,
            delta: &delta,
            alpha,
            epsilon: eps,
            mass_threshold: DEFAULT_REPAIR_MASS_THRESHOLD,
        };
        let mut ctx = acir_runtime::KernelCtx::traced("local.ppr_repair");
        let out = ppr_repair_ctx(&g_new, &req, &mut ctx).unwrap();
        assert!(out.is_converged());
        assert!(out.value().unwrap().per_degree_bound < eps);

        // Bad arguments are rejected before any work.
        let bad = RepairRequest {
            mass_threshold: 0.0,
            ..req
        };
        assert!(ppr_repair(&g_new, &bad).is_err());
        let bad = RepairRequest {
            estimate: &[(9999, 0.1)],
            ..req
        };
        assert!(ppr_repair(&g_new, &bad).is_err());
        let bad = RepairRequest {
            residual: &[(0, f64::NAN)],
            ..req
        };
        assert!(ppr_repair(&g_new, &bad).is_err());
        let bad_delta = [EdgeDelta {
            u: 0,
            v: 9999,
            old: None,
            new: Some(1.0),
        }];
        let bad = RepairRequest {
            delta: &bad_delta,
            ..req
        };
        assert!(ppr_repair(&g_new, &bad).is_err());
    }
}
