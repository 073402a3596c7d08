//! Hub-sketch precomputation and online splice for sublinear PPR
//! serving (FORA/TopPPR-style, refs \[FORA, TopPPR\]; paper §3.3).
//!
//! The ACL push loop is output-local, but a *cold* push from every
//! query seed still re-diffuses the same high-degree neighborhoods over
//! and over: on power-law graphs most of the frontier's residual mass
//! lands on a handful of hubs within a hop or two. This module
//! precomputes push sketches from the top-K hubs (degree-descending)
//! and splices them into the online push:
//!
//! * **Offline** ([`build_hub_sketches`]): run [`ppr_push_ctx`] from
//!   each hub `h` at a fine threshold `ε_sketch`, storing the truncated
//!   estimate `p_h` and residual `r_h` vectors.
//! * **Online** ([`ppr_push_spliced`]): push from the query seed at
//!   threshold `ε_push = ε − ε_sketch`, but *never enqueue a sketched
//!   hub* — residual arriving at a hub parks there (the push family's
//!   one loop, with the hubs as its parked set). When the frontier
//!   drains, every remaining non-hub residual is `< ε_push·d`. A hub
//!   whose parked residual a cold push would have pushed, `r[h] ≥
//!   ε_push·d(h)`, is *harvested*: its residual is substituted by
//!   linearity of PPR. A hub below that keeps `r[h]` as ordinary
//!   residual, under the same `ε_push·d` bound as the rest:
//!
//!   ```text
//!   pr_α(s) = p + Σ_harvested r[h]·pr_α(e_h) + pr_α(r_rest)
//!           ≈ p + Σ_harvested r[h]·p_h    (the spliced answer)
//!   ```
//!
//!   The unaccounted mass is `Σ_v r_rest[v] + Σ_harvested r[h]·‖r_h‖₁`,
//!   and per unit degree it is bounded by `ε_push + ε_sketch·Σ_harvested
//!   r[h] ≤ ε` since the parked mass is at most 1 — the *same* `ε·deg`
//!   invariant direct push certifies, at a fraction of the pushed mass.
//!   Harvesting only the hubs a cold push would push keeps the answer's
//!   support near the cold push's: a hub's whole sketch is not merged
//!   in for a residual the cold push would have dropped.
//!
//! When no sketch can help (empty store, mismatched α, `ε_sketch ≥ ε`)
//! the splice entry point degrades to a plain push and is
//! bit-identical to [`crate::push::ppr_push`].

use crate::push::{
    ppr_push_ctx, push_core, resume_push, validate_push_args, worst_per_degree, PushExit,
    PushResult, PushWorkspace, PUSH_POOL,
};
use crate::repair::{
    delta_endpoints, delta_leaves_undisturbed, ppr_repair, RepairRequest,
    DEFAULT_REPAIR_MASS_THRESHOLD,
};
use crate::{LocalError, Result};
use acir_graph::delta::EdgeDelta;
use acir_graph::{Graph, NodeId, NodeValued, Permutation};
use acir_runtime::{KernelCtx, SolverOutcome};

/// Sentinel in [`SketchSet::slot`] marking a node with no sketch.
const NO_SKETCH: u32 = u32::MAX;

/// One precomputed hub diffusion: the truncated `(estimate, residual)`
/// pair of an ACL push from `hub`.
#[derive(Debug, Clone)]
pub struct HubSketch {
    /// The hub the sketch diffuses from.
    pub hub: NodeId,
    /// Truncated PPR estimate `p_h`, sorted `(node, value)` pairs.
    pub estimate: Vec<(NodeId, f64)>,
    /// Residual `r_h` at exit (every entry `< ε_sketch·d`), sorted.
    pub residual: Vec<(NodeId, f64)>,
    /// `‖r_h‖₁` — the mass the sketch leaves undistributed; splices
    /// charge `r[h]·residual_mass` of slack per unit of harvested mass.
    pub residual_mass: f64,
    /// Pushes the offline build spent on this hub.
    pub pushes: usize,
}

/// An immutable set of hub sketches for one `(graph, α, ε_sketch)`
/// triple, with O(1) hub-membership lookup for the splice loop.
#[derive(Debug, Clone)]
pub struct SketchSet {
    alpha: f64,
    epsilon: f64,
    n: usize,
    /// Per-node sketch index, `NO_SKETCH` for non-hubs.
    slot: Vec<u32>,
    sketches: Vec<HubSketch>,
}

impl SketchSet {
    /// A set with no sketches at all: every splice against it takes the
    /// pure-push fallback.
    pub fn empty() -> Self {
        Self {
            alpha: 0.0,
            epsilon: 0.0,
            n: 0,
            slot: Vec::new(),
            sketches: Vec::new(),
        }
    }

    /// Teleportation probability the sketches were built for.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Truncation threshold the sketches were pushed to.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Node count of the graph the sketches were built against.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of sketched hubs.
    pub fn len(&self) -> usize {
        self.sketches.len()
    }

    /// Does the set hold no sketches?
    pub fn is_empty(&self) -> bool {
        self.sketches.is_empty()
    }

    /// Is `u` a sketched hub?
    pub fn covers(&self, u: NodeId) -> bool {
        self.slot.get(u as usize).is_some_and(|&s| s != NO_SKETCH)
    }

    /// The sketch diffusing from `u`, if `u` is a sketched hub.
    pub fn get(&self, u: NodeId) -> Option<&HubSketch> {
        match self.slot.get(u as usize) {
            Some(&s) if s != NO_SKETCH => self.sketches.get(s as usize),
            _ => None,
        }
    }

    /// All sketches, in hub-rank (degree-descending) order.
    pub fn sketches(&self) -> &[HubSketch] {
        &self.sketches
    }

    /// Total offline pushes spent building the set.
    pub fn build_pushes(&self) -> usize {
        self.sketches.iter().map(|s| s.pushes).sum()
    }
}

/// Precompute push sketches from the top-`k` hubs of `g` by
/// unweighted degree (ties by id, via
/// [`Permutation::degree_descending`]), at threshold `epsilon`.
///
/// `k = 0` yields a valid set that covers nothing. Hubs are pushed in
/// parallel over the ambient [`acir_exec::ExecPool`]; the result is
/// identical at any thread count (each hub's push is independent and
/// results are collected in rank order).
pub fn build_hub_sketches(g: &Graph, k: usize, alpha: f64, epsilon: f64) -> Result<SketchSet> {
    let mut ctx = KernelCtx::new();
    build_hub_sketches_ctx(g, k, alpha, epsilon, &mut ctx)
}

/// [`build_hub_sketches`] against a caller-supplied [`KernelCtx`]; the
/// build's aggregate cost is noted in the context's diagnostics (each
/// per-hub push runs [`ppr_push_ctx`] on its own inert context).
pub fn build_hub_sketches_ctx(
    g: &Graph,
    k: usize,
    alpha: f64,
    epsilon: f64,
    ctx: &mut KernelCtx,
) -> Result<SketchSet> {
    validate_sketch_params(alpha, epsilon)?;
    let n = g.n();
    let perm = Permutation::degree_descending(g);
    let hubs: Vec<NodeId> = (0..k.min(n))
        .map(|rank| perm.to_old(rank as NodeId))
        .filter(|&u| g.degree(u) > 0.0)
        .collect();
    build_for_hub_list(g, hubs, alpha, epsilon, ctx)
}

/// Build sketches for an explicit, caller-chosen hub list instead of
/// the top-`k`-by-degree selection — the engine uses this to *reuse*
/// a previous store's hub set when a pure-reweight delta leaves the
/// unweighted degree sequence (and therefore the top-K selection)
/// unchanged. Out-of-range hubs are an error; duplicates collapse to
/// their first occurrence and edgeless hubs are skipped, mirroring
/// [`build_hub_sketches`]. Per-hub output is bit-identical to what the
/// top-K builder would produce for the same hub.
pub fn build_sketches_for_hubs(
    g: &Graph,
    hubs: &[NodeId],
    alpha: f64,
    epsilon: f64,
) -> Result<SketchSet> {
    validate_sketch_params(alpha, epsilon)?;
    let n = g.n();
    let mut seen = vec![false; n];
    let mut list = Vec::with_capacity(hubs.len());
    for &h in hubs {
        if h as usize >= n {
            return Err(LocalError::InvalidArgument(format!(
                "build_sketches_for_hubs: hub {h} out of range for graph with {n} nodes"
            )));
        }
        if !seen[h as usize] && g.degree(h) > 0.0 {
            seen[h as usize] = true;
            list.push(h);
        }
    }
    let mut ctx = KernelCtx::new();
    build_for_hub_list(g, list, alpha, epsilon, &mut ctx)
}

/// Relabel a sketch set into a new vertex numbering: `step` maps the
/// set's (old) ids to the new ids, exactly as a relabeling compaction
/// ([`acir_graph::snapshot::CompactionOrder`]) permutes the graph.
/// Hub ids, estimate/residual supports, and the hub-membership slots
/// are re-laid-out; masses, push counts, and `(α, ε_sketch)` carry
/// over bitwise — a relabeling permutes a diffusion, it does not
/// change it. An identity `step` returns a verbatim clone.
pub fn relabel_sketch_set(set: &SketchSet, step: &Permutation) -> Result<SketchSet> {
    if step.is_identity() {
        return Ok(set.clone());
    }
    if step.len() != set.n {
        return Err(LocalError::InvalidArgument(format!(
            "relabel_sketch_set: permutation over {} vertices cannot relabel a sketch set built for {} nodes",
            step.len(),
            set.n
        )));
    }
    let mut slot = vec![NO_SKETCH; set.n];
    let sketches: Vec<HubSketch> = set
        .sketches
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let hub = step.to_new(s.hub);
            slot[hub as usize] = i as u32;
            HubSketch {
                hub,
                estimate: step.map_sparse(&s.estimate),
                residual: step.map_sparse(&s.residual),
                residual_mass: s.residual_mass,
                pushes: s.pushes,
            }
        })
        .collect();
    Ok(SketchSet {
        alpha: set.alpha,
        epsilon: set.epsilon,
        n: set.n,
        slot,
        sketches,
    })
}

/// Same α/ε validity rules as the push kernel itself.
fn validate_sketch_params(alpha: f64, epsilon: f64) -> Result<()> {
    if !(0.0 < alpha && alpha < 1.0) {
        return Err(LocalError::InvalidArgument(format!(
            "build_hub_sketches needs alpha in (0, 1), got {alpha}"
        )));
    }
    if !(epsilon > 0.0 && epsilon.is_finite()) {
        return Err(LocalError::InvalidArgument(format!(
            "build_hub_sketches needs epsilon > 0, got {epsilon}"
        )));
    }
    Ok(())
}

/// Shared tail of the sketch builders: push every hub in `hubs` in
/// parallel and assemble the set (see [`build_hub_sketches_ctx`] for
/// the determinism argument).
fn build_for_hub_list(
    g: &Graph,
    hubs: Vec<NodeId>,
    alpha: f64,
    epsilon: f64,
    ctx: &mut KernelCtx,
) -> Result<SketchSet> {
    let n = g.n();
    let pushed = acir_exec::ExecPool::from_env().par_map(&hubs, 1, |&h| {
        let mut hub_ctx = KernelCtx::new();
        let out = ppr_push_ctx(g, &[h], alpha, epsilon, &mut hub_ctx)?;
        out.into_value().ok_or_else(|| {
            LocalError::InvalidArgument(format!("hub {h} sketch diverged on an inert context"))
        })
    });
    let mut slot = vec![NO_SKETCH; n];
    let mut sketches = Vec::with_capacity(hubs.len());
    for (hub, result) in hubs.into_iter().zip(pushed) {
        let r = result?;
        slot[hub as usize] = sketches.len() as u32;
        sketches.push(HubSketch {
            hub,
            estimate: r.vector,
            residual: r.residuals,
            residual_mass: r.residual_mass,
            pushes: r.pushes,
        });
    }
    ctx.note_with(|| {
        format!(
            "hub sketches built: {} hubs at eps {epsilon:e} ({} offline pushes)",
            sketches.len(),
            sketches.iter().map(|s| s.pushes).sum::<usize>(),
        )
    });
    Ok(SketchSet {
        alpha,
        epsilon,
        n,
        slot,
        sketches,
    })
}

/// Output of [`repair_hub_sketches`]: the repaired set plus the exact
/// work accounting the dynamic benchmarks compare against a full
/// rebuild.
#[derive(Debug, Clone)]
pub struct SketchRepair {
    /// The repaired sketch set — same hubs, same `(α, ε_sketch)`,
    /// every sketch valid on the *new* graph.
    pub set: SketchSet,
    /// Sketches the delta disturbed, incrementally repaired.
    pub repaired: usize,
    /// Sketches the delta cannot change
    /// ([`delta_leaves_undisturbed`]: no estimate mass on any endpoint
    /// and every endpoint's parked residual still under `ε·d'`),
    /// carried over verbatim without calling the repair kernel — the
    /// same verdict the serve layer applies to its cached answers.
    pub untouched: usize,
    /// Sketches the repair kernel recomputed from scratch (oversized
    /// perturbation or a degenerate column swap), plus hubs the delta
    /// isolated entirely (their sketch becomes empty and inert).
    pub fallbacks: usize,
    /// Fresh pushes this repair spent, across all sketches — the
    /// numerator of the repair-vs-rebuild gate.
    pub pushes: usize,
    /// Fresh edge traversals this repair spent.
    pub work: usize,
}

/// Incrementally maintain a hub-sketch set across an edge delta,
/// instead of rebuilding all K sketches from scratch.
///
/// A sketch can only be invalidated by the delta if its diffusion put
/// *estimate* mass on a delta endpoint (a changed column of the walk
/// matrix) or parked a residual there that the endpoint's new degree
/// no longer covers; [`delta_leaves_undisturbed`] decides exactly that
/// and everything else is carried over verbatim. Disturbed sketches go
/// through [`ppr_repair`] with the hub as
/// seed at the set's own `(α, ε_sketch)`, preserving the per-sketch ACL
/// guarantee on the new graph. A hub the delta isolates entirely keeps
/// its slot but becomes an empty sketch — no residual can ever park on
/// a degree-0 node, so splices never consult it.
///
/// Sketches are repaired in parallel over the ambient
/// [`acir_exec::ExecPool`]; the result is identical at any thread
/// count. Errors if the set was built for a different node count.
pub fn repair_hub_sketches(
    g: &Graph,
    set: &SketchSet,
    delta: &[EdgeDelta],
) -> Result<SketchRepair> {
    if !set.is_empty() && set.n() != g.n() {
        return Err(LocalError::InvalidArgument(format!(
            "sketch set built for {} nodes, graph has {}",
            set.n(),
            g.n()
        )));
    }
    let endpoints = delta_endpoints(delta);

    let idxs: Vec<usize> = (0..set.len()).collect();
    let outcomes = acir_exec::ExecPool::from_env().par_map(&idxs, 1, |&i| {
        let s = &set.sketches[i];
        if delta_leaves_undisturbed(g, &s.estimate, &s.residual, &endpoints, set.epsilon).is_some()
        {
            return Ok::<(HubSketch, u8, usize), LocalError>((s.clone(), 0, 0));
        }
        if g.degree(s.hub) <= 0.0 {
            // The delta cut the hub loose: park an inert empty sketch.
            let empty = HubSketch {
                hub: s.hub,
                estimate: Vec::new(),
                residual: Vec::new(),
                residual_mass: 0.0,
                pushes: s.pushes,
            };
            return Ok((empty, 2, 0));
        }
        let rr = ppr_repair(
            g,
            &RepairRequest {
                seeds: &[s.hub],
                estimate: &s.estimate,
                residual: &s.residual,
                delta,
                alpha: set.alpha,
                epsilon: set.epsilon,
                mass_threshold: DEFAULT_REPAIR_MASS_THRESHOLD,
            },
        )?;
        let kind = if rr.repaired { 1 } else { 2 };
        let work = rr.work;
        let sketch = HubSketch {
            hub: s.hub,
            estimate: rr.vector,
            residual: rr.residuals,
            residual_mass: rr.residual_mass,
            pushes: s.pushes + rr.pushes,
        };
        Ok((sketch, kind, work))
    });

    let mut sketches = Vec::with_capacity(set.len());
    let (mut repaired, mut untouched, mut fallbacks) = (0usize, 0usize, 0usize);
    let (mut pushes, mut work) = (0usize, 0usize);
    for (outcome, prior) in outcomes.into_iter().zip(&set.sketches) {
        let (sketch, kind, w) = outcome?;
        pushes += sketch.pushes - prior.pushes;
        work += w;
        match kind {
            0 => untouched += 1,
            1 => repaired += 1,
            _ => fallbacks += 1,
        }
        sketches.push(sketch);
    }
    Ok(SketchRepair {
        set: SketchSet {
            alpha: set.alpha,
            epsilon: set.epsilon,
            n: set.n,
            slot: set.slot.clone(),
            sketches,
        },
        repaired,
        untouched,
        fallbacks,
        pushes,
        work,
    })
}

/// Output of [`ppr_push_spliced`].
#[derive(Debug, Clone, Default)]
pub struct SpliceResult {
    /// The combined PPR estimate (online push plus spliced hub
    /// sketches), sorted `(node, value)` pairs.
    pub vector: Vec<(NodeId, f64)>,
    /// Total unaccounted mass: the online loop's unharvested residual
    /// (non-hub, or parked on a hub under `ε_push·d(h)`) plus
    /// `Σ_harvested r[h]·‖r_h‖₁` inherited from the harvested sketches.
    pub residual_mass: f64,
    /// Certified per-unit-degree error bound of `vector`; at most the
    /// requested ε when the run converged.
    pub per_degree_bound: f64,
    /// Online pushes performed (0 when every seed is a sketched hub).
    pub pushes: usize,
    /// Online edge traversals.
    pub work: usize,
    /// Distinct nodes the *online* frontier touched — the per-query
    /// locality measure the benchmarks compare against cold push.
    pub touched: usize,
    /// Harvested hubs: those whose parked residual reached
    /// `ε_push·d(h)` and was answered from their sketches. A hub parked
    /// under that threshold is not counted.
    pub hubs_spliced: usize,
    /// Residual mass of the harvested hubs, answered from their
    /// sketches, `Σ_harvested r[h]` (≤ 1).
    pub hub_mass: f64,
    /// Residual mass processed by the online loop (`Σ r[u]` over
    /// pushes) — cold push's same counter is the speedup denominator.
    pub mass_pushed: f64,
    /// False when the call degraded to the pure-push fallback (empty or
    /// incompatible sketch set); the result is then bit-identical to
    /// [`crate::push::ppr_push`].
    pub used_sketches: bool,
}

/// `to_dense` / `map_back` via the shared [`NodeValued`] trait.
impl NodeValued for SpliceResult {
    fn node_values(&self) -> &[(NodeId, f64)] {
        &self.vector
    }

    fn node_values_mut(&mut self) -> &mut Vec<(NodeId, f64)> {
        &mut self.vector
    }
}

impl From<SpliceResult> for PushResult {
    /// Flatten a splice into the [`PushResult`] shape serving layers
    /// already speak (the combined vector and residual accounting; the
    /// post-combination residual support is not materialized).
    fn from(s: SpliceResult) -> Self {
        PushResult {
            vector: s.vector,
            residual_mass: s.residual_mass,
            pushes: s.pushes,
            work: s.work,
            touched: s.touched,
            residuals: Vec::new(),
            mass_pushed: s.mass_pushed,
        }
    }
}

/// Sketch-spliced approximate PPR from `seeds`: equivalent (within the
/// certified `ε·deg` bound) to [`crate::push::ppr_push`] at the same ε,
/// but pushing only until the frontier's residual is parked on sketched
/// hubs, then harvesting the hubs a cold push at `ε_push = ε − ε_sketch`
/// would have pushed (`r[h] ≥ ε_push·d(h)`) from their sketches; residual
/// parked under that threshold stays as certified residual. Falls back
/// to the exact push loop — bit-identical to
/// `ppr_push` — when `set` is empty, was built for a different α, or
/// its `ε_sketch` is not finer than `epsilon`.
pub fn ppr_push_spliced(
    g: &Graph,
    seeds: &[NodeId],
    alpha: f64,
    epsilon: f64,
    set: &SketchSet,
) -> Result<SpliceResult> {
    match ppr_push_spliced_ctx(g, seeds, alpha, epsilon, set, &mut KernelCtx::new())? {
        SolverOutcome::Converged { value, .. } => Ok(value),
        // An inert context never meters or guards, so the loop can only
        // run to completion.
        _ => Err(LocalError::InvalidArgument(
            "splice on an inert context did not converge (bug guard)".into(),
        )),
    }
}

/// Context-driven [`ppr_push_spliced`]: metered, guarded, or traced per
/// the [`KernelCtx`]. Budget exhaustion returns a certified partial
/// whose [`acir_runtime::Certificate::ResidualMass`] accounts for both
/// the un-pushed online residual and the slack inherited from spliced
/// sketches.
pub fn ppr_push_spliced_ctx(
    g: &Graph,
    seeds: &[NodeId],
    alpha: f64,
    epsilon: f64,
    set: &SketchSet,
    ctx: &mut KernelCtx,
) -> Result<SolverOutcome<SpliceResult>> {
    validate_push_args(g, seeds, alpha, epsilon)?;
    let fallback_reason = if set.is_empty() {
        Some("empty sketch set")
    } else if set.n() != g.n() {
        return Err(LocalError::InvalidArgument(format!(
            "sketch set built for {} nodes, graph has {}",
            set.n(),
            g.n()
        )));
    } else if set.alpha().to_bits() != alpha.to_bits() {
        Some("sketch alpha mismatch")
    } else if set.epsilon() >= epsilon {
        Some("sketch epsilon not finer than the query epsilon")
    } else {
        None
    };
    if let Some(reason) = fallback_reason {
        ctx.note_with(|| format!("sketch fallback to pure push: {reason}"));
        let mut out = PushResult::empty();
        let exit = PUSH_POOL.with(|ws| push_core(g, seeds, alpha, epsilon, ws, &mut out, ctx))?;
        // Shaped as a splice that used no sketch and spliced nothing.
        let (residual_mass, per_degree_bound) = match exit {
            PushExit::Exhausted {
                remaining,
                per_degree_bound,
                ..
            } => (remaining, per_degree_bound),
            _ => (out.residual_mass, epsilon),
        };
        let value = SpliceResult {
            vector: out.vector,
            residual_mass,
            per_degree_bound,
            pushes: out.pushes,
            work: out.work,
            touched: out.touched,
            mass_pushed: out.mass_pushed,
            ..SpliceResult::default()
        };
        return Ok(exit.outcome(value, ctx.finish()));
    }

    let mut out = SpliceResult::default();
    let exit =
        PUSH_POOL.with(|ws| splice_core(g, seeds, alpha, epsilon, set, ws, &mut out, ctx))?;
    ctx.note_with(|| {
        format!(
            "splice: {} hubs harvest {:.3e} mass; {} online pushes ({:.3e} mass pushed)",
            out.hubs_spliced, out.hub_mass, out.pushes, out.mass_pushed,
        )
    });
    Ok(exit.outcome(out, ctx.finish()))
}

/// The splice on the shared push scratch. Inputs are pre-validated and
/// `set` is known compatible (`ε_sketch < ε`, same α, same n).
///
/// The push family's one loop ([`resume_push`]) with the sketched hubs
/// parked: residual arriving at a hub is never pushed on. The harvest
/// substitutes `r[h]·p_h` for it only where a cold push at the online
/// threshold `ε_push = ε − ε_sketch` would have pushed the hub,
/// `r[h] ≥ ε_push·d(h)`; a hub below that keeps `r[h]` as ordinary
/// residual, already within the loop's own `ε_push·d` exit bound. The
/// combined per-degree bound is `ε_push + ε_sketch·Σ_harvested r[h]
/// ≤ ε`. Harvesting runs by ascending hub id, so the combination order —
/// and hence every bit of the output — is deterministic at any thread
/// count.
// CORE LOOP (delegated: push::resume_push)
#[allow(clippy::too_many_arguments)]
fn splice_core(
    g: &Graph,
    seeds: &[NodeId],
    alpha: f64,
    epsilon: f64,
    set: &SketchSet,
    ws: &mut PushWorkspace,
    out: &mut SpliceResult,
    ctx: &mut KernelCtx,
) -> Result<PushExit> {
    let eps_push = epsilon - set.epsilon();
    let parked = |u| set.covers(u);
    let harvested = |u, r| parked(u) && r >= eps_push * g.degree(u);
    ws.reset(g.n());
    ws.seed(g, seeds, eps_push, parked);
    let run = resume_push(g, ws, alpha, eps_push, parked, 1.0, 1.0, ctx)?;
    let mut exit = run.exit;
    if matches!(exit, PushExit::Diverged(_)) {
        return Ok(exit);
    }

    // Harvest: ascending node order, like the push kernel, into the
    // workspace's stamped accumulator. Every combined entry receives its
    // terms in the order of this walk (`p(u)`, then each `r(h)·p_h` by
    // ascending `h`), so its bits are fixed at any thread count. The
    // residual of a harvested hub is substituted by its sketch; every
    // other residual (non-hub, or a hub under `ε_push·d`) stays
    // unaccounted.
    ws.touched.sort_unstable();
    ws.combined.reset(g.n());
    ws.combined_nodes.clear();
    let PushWorkspace {
        p: est,
        r: res,
        touched: order,
        combined,
        combined_nodes,
        ..
    } = &mut *ws;
    let mut add = |v: NodeId, x: f64| {
        if combined.add(v as usize, x) {
            combined_nodes.push(v);
        }
    };
    let mut touched = 0usize;
    let mut own_residual = 0.0f64;
    let mut hub_mass = 0.0f64;
    let mut hubs_spliced = 0usize;
    let mut sketch_slack = 0.0f64;
    for &u in order.iter() {
        let p = est.get(u as usize);
        let r = res.get(u as usize);
        if p > 0.0 {
            add(u, p);
        }
        if p > 0.0 || r > 0.0 {
            touched += 1;
        }
        if r > 0.0 {
            match set.get(u) {
                Some(sketch) if harvested(u, r) => {
                    hub_mass += r;
                    hubs_spliced += 1;
                    sketch_slack += r * sketch.residual_mass;
                    for &(v, x) in &sketch.estimate {
                        add(v, r * x);
                    }
                }
                _ => own_residual += r,
            }
        }
    }
    combined_nodes.sort_unstable();
    let value = |&v: &NodeId| (v, combined.get(v as usize));
    let support = combined_nodes.iter().map(value).filter(|e| e.1 > 0.0);
    out.vector.reserve_exact(support.clone().count());
    out.vector.extend(support);
    let remaining = own_residual + sketch_slack;
    // Converged: every unharvested residual is < ε_push·d, by the loop
    // exit condition off the hubs and by the harvest rule on them.
    // Exhausted: the frontier may still hold larger residuals, so the
    // realized worst per-degree residual takes over.
    let base = match &exit {
        PushExit::Exhausted { .. } => {
            let own = (ws.touched.iter())
                .map(|&u| (u, ws.r.get(u as usize)))
                .filter(|&(u, r)| !harvested(u, r));
            worst_per_degree(g, own).max(eps_push)
        }
        _ => eps_push,
    };
    let per_degree_bound = base + set.epsilon() * hub_mass;
    out.residual_mass = remaining;
    out.per_degree_bound = per_degree_bound;
    out.pushes = run.pushes;
    out.work = run.work;
    out.touched = touched;
    out.hubs_spliced = hubs_spliced;
    out.hub_mass = hub_mass;
    out.mass_pushed = run.mass_pushed;
    out.used_sketches = true;
    if let PushExit::Exhausted {
        remaining: r,
        per_degree_bound: b,
        ..
    } = &mut exit
    {
        // The certificate must describe the *combined* answer.
        *r = remaining;
        *b = per_degree_bound;
    }
    Ok(exit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::push::{ppr_exact_reference, ppr_push};
    use acir_graph::gen::deterministic::barbell;
    use acir_graph::gen::random::barabasi_albert;
    use acir_runtime::Budget;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ba(n: usize, seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        barabasi_albert(&mut rng, n, 3).unwrap()
    }

    #[test]
    fn build_selects_top_degree_hubs_and_validates() {
        let g = ba(200, 5);
        let set = build_hub_sketches(&g, 8, 0.1, 1e-4).unwrap();
        assert_eq!(set.len(), 8);
        assert_eq!(set.n(), g.n());
        // Every sketched hub has degree at least any non-hub's degree.
        let min_hub = set
            .sketches()
            .iter()
            .map(|s| g.degree_unweighted(s.hub))
            .min()
            .unwrap();
        for u in 0..g.n() as NodeId {
            if !set.covers(u) {
                assert!(g.degree_unweighted(u) <= min_hub);
            }
        }
        // Each sketch is a genuine push result with the ACL guarantee.
        for s in set.sketches() {
            assert!(s.residual_mass < 1.0);
            for &(v, r) in &s.residual {
                assert!(r < 1e-4 * g.degree(v));
            }
            let direct = ppr_push(&g, &[s.hub], 0.1, 1e-4).unwrap();
            assert_eq!(s.estimate, direct.vector);
        }
        assert!(build_hub_sketches(&g, 4, 0.0, 1e-4).is_err());
        assert!(build_hub_sketches(&g, 4, 0.1, 0.0).is_err());
        assert!(build_hub_sketches(&g, 0, 0.1, 1e-4).unwrap().is_empty());
    }

    #[test]
    fn build_is_thread_count_invariant() {
        let g = ba(300, 9);
        let mut baseline: Option<SketchSet> = None;
        let before = std::env::var_os(acir_exec::THREADS_ENV);
        for threads in ["1", "4"] {
            std::env::set_var(acir_exec::THREADS_ENV, threads);
            let set = build_hub_sketches(&g, 16, 0.1, 1e-4).unwrap();
            if let Some(b) = &baseline {
                for (a, c) in b.sketches().iter().zip(set.sketches()) {
                    assert_eq!(a.hub, c.hub);
                    assert_eq!(a.estimate, c.estimate);
                    assert_eq!(a.residual, c.residual);
                    assert_eq!(a.residual_mass.to_bits(), c.residual_mass.to_bits());
                }
            } else {
                baseline = Some(set);
            }
        }
        match before {
            Some(v) => std::env::set_var(acir_exec::THREADS_ENV, v),
            None => std::env::remove_var(acir_exec::THREADS_ENV),
        }
    }

    #[test]
    fn explicit_hub_build_matches_topk_selection() {
        let g = ba(200, 5);
        let topk = build_hub_sketches(&g, 8, 0.1, 1e-4).unwrap();
        let hubs: Vec<NodeId> = topk.sketches().iter().map(|s| s.hub).collect();
        let explicit = build_sketches_for_hubs(&g, &hubs, 0.1, 1e-4).unwrap();
        assert_eq!(explicit.len(), topk.len());
        for (a, b) in topk.sketches().iter().zip(explicit.sketches()) {
            assert_eq!(a.hub, b.hub);
            assert_eq!(a.estimate, b.estimate);
            assert_eq!(a.residual, b.residual);
            assert_eq!(a.residual_mass.to_bits(), b.residual_mass.to_bits());
        }
        // Duplicates collapse; out-of-range hubs are rejected.
        let dup = build_sketches_for_hubs(&g, &[hubs[0], hubs[0]], 0.1, 1e-4).unwrap();
        assert_eq!(dup.len(), 1);
        assert!(build_sketches_for_hubs(&g, &[g.n() as NodeId], 0.1, 1e-4).is_err());
    }

    #[test]
    fn relabeled_set_answers_like_the_original() {
        let g = ba(220, 7);
        let set = build_hub_sketches(&g, 10, 0.1, 1e-5).unwrap();
        let step = Permutation::rcm(&g);
        assert!(!step.is_identity());
        let gp = g.permute(&step).unwrap();
        let mapped = relabel_sketch_set(&set, &step).unwrap();
        assert_eq!(mapped.len(), set.len());
        assert_eq!(mapped.alpha(), set.alpha());
        assert_eq!(mapped.n(), set.n());
        for (orig, rel) in set.sketches().iter().zip(mapped.sketches()) {
            assert_eq!(rel.hub, step.to_new(orig.hub));
            assert!(mapped.covers(rel.hub));
            assert_eq!(rel.estimate, step.map_sparse(&orig.estimate));
            assert_eq!(rel.residual, step.map_sparse(&orig.residual));
            assert_eq!(rel.residual_mass.to_bits(), orig.residual_mass.to_bits());
            // The mapped sketch is a valid truncated push on gp: the
            // residual bound transfers because degrees are preserved.
            for &(v, r) in &rel.residual {
                assert!(r < 1e-5 * gp.degree(v));
            }
        }
        // Splicing through the relabeled set on the permuted graph
        // still certifies: the combined answer tracks the exact PPR
        // within its measured bound.
        let seed = step.to_new(3);
        let spliced = ppr_push_spliced(&gp, &[seed], 0.1, 1e-3, &mapped).unwrap();
        assert!(spliced.used_sketches);
        assert!(spliced.per_degree_bound <= 1e-3 + 1e-12);
        let exact = ppr_exact_reference(&gp, &[seed], 0.1, 4000).unwrap();
        let dense = spliced.to_dense(gp.n());
        for u in 0..gp.n() {
            let err = (exact[u] - dense[u]) / gp.degree(u as NodeId);
            assert!(err >= -1e-9 && err <= spliced.per_degree_bound + 1e-9);
        }
        // Mismatched length and identity fast-path.
        let small = build_hub_sketches(&ba(50, 1), 2, 0.1, 1e-4).unwrap();
        assert!(relabel_sketch_set(&small, &step).is_err());
        let ident = Permutation::identity(g.n());
        let same = relabel_sketch_set(&set, &ident).unwrap();
        assert_eq!(same.sketches()[0].estimate, set.sketches()[0].estimate);
    }

    #[test]
    fn splice_matches_direct_push_within_certified_bound() {
        let g = ba(250, 11);
        let eps = 1e-3;
        let set = build_hub_sketches(&g, 12, 0.1, eps / 5.0).unwrap();
        let spliced = ppr_push_spliced(&g, &[40], 0.1, eps, &set).unwrap();
        assert!(spliced.used_sketches);
        assert!(spliced.per_degree_bound <= eps + 1e-12);
        let exact = ppr_exact_reference(&g, &[40], 0.1, 4000).unwrap();
        let dense = spliced.to_dense(g.n());
        for u in 0..g.n() {
            let err = (exact[u] - dense[u]) / g.degree(u as NodeId);
            assert!(err >= -1e-9, "node {u}: splice overshoots by {err}");
            assert!(
                err <= spliced.per_degree_bound + 1e-9,
                "node {u}: err {err} vs bound {}",
                spliced.per_degree_bound
            );
        }
        // Mass conservation: the combined estimate plus the combined
        // residual accounts for all teleported mass.
        let p_mass: f64 = spliced.vector.iter().map(|&(_, x)| x).sum();
        assert!((p_mass + spliced.residual_mass - 1.0).abs() < 1e-9);
        // And it genuinely spliced: fewer pushes than the cold run.
        let cold = ppr_push(&g, &[40], 0.1, eps).unwrap();
        assert!(spliced.hubs_spliced > 0);
        assert!(spliced.mass_pushed < cold.mass_pushed);
    }

    #[test]
    fn hub_parked_under_the_push_threshold_is_not_harvested() {
        // Seed 0 hangs between two star centers: hub A (node 2, 20
        // leaves) and hub B (node 1, 300 leaves). Both get the same
        // parked residual r from the seed, which clears ε_push·d(A) but
        // not ε_push·d(B): a cold push would push A and leave B.
        let (a_leaves, b_leaves) = (20, 300);
        let mut pairs = vec![(0, 1), (0, 2)];
        pairs.extend((0..b_leaves).map(|i| (1, 3 + i)));
        pairs.extend((0..a_leaves).map(|i| (2, 3 + b_leaves + i)));
        let g = Graph::from_pairs(3 + (a_leaves + b_leaves) as usize, pairs).unwrap();
        let (alpha, eps, eps_sketch) = (0.1, 1e-2, 1e-3);
        let set = build_hub_sketches(&g, 2, alpha, eps_sketch).unwrap();
        assert!(set.covers(1) && set.covers(2));
        let s = ppr_push_spliced(&g, &[0], alpha, eps, &set).unwrap();
        let eps_push = eps - eps_sketch;
        let r = s.hub_mass;
        assert!(r >= eps_push * g.degree(2) && r < eps_push * g.degree(1));
        // Only A is harvested and counted.
        assert_eq!(s.hubs_spliced, 1);
        let dense = s.to_dense(g.n());
        assert!(dense[2] > 0.0, "A's sketch was spliced in");
        assert!(
            (1..3 + b_leaves as usize).all(|v| v == 2 || dense[v] == 0.0),
            "B's sketch was spliced in"
        );
        // B's parked residual, equal to A's, stays certified residual:
        // the answer still conserves mass.
        assert!(s.residual_mass >= r);
        let p_mass: f64 = s.vector.iter().map(|&(_, x)| x).sum();
        assert!((p_mass + s.residual_mass - 1.0).abs() < 1e-12);
        // The bound charges sketch slack for A's mass only, and holds.
        assert_eq!(s.per_degree_bound, eps_push + eps_sketch * r);
        let exact = ppr_exact_reference(&g, &[0], alpha, 4000).unwrap();
        for (u, (&x, &y)) in exact.iter().zip(&dense).enumerate() {
            let err = (x - y) / g.degree(u as NodeId);
            assert!(err >= -1e-9, "node {u}: splice overshoots by {err}");
            assert!(err <= s.per_degree_bound + 1e-9, "node {u}: err {err}");
        }
    }

    #[test]
    fn fallback_paths_are_bit_identical_to_ppr_push() {
        let g = barbell(8, 3).unwrap();
        let direct = ppr_push(&g, &[0], 0.1, 1e-4).unwrap();
        // Empty set, mismatched α, and non-finer ε all fall back.
        let coarse = build_hub_sketches(&g, 4, 0.1, 1e-2).unwrap();
        for set in [
            SketchSet::empty(),
            build_hub_sketches(&g, 0, 0.1, 1e-5).unwrap(),
            build_hub_sketches(&g, 4, 0.2, 1e-5).unwrap(),
            coarse,
        ] {
            let s = ppr_push_spliced(&g, &[0], 0.1, 1e-4, &set).unwrap();
            assert!(!s.used_sketches);
            assert_eq!(s.vector, direct.vector);
            assert_eq!(s.residual_mass.to_bits(), direct.residual_mass.to_bits());
            assert_eq!(s.pushes, direct.pushes);
            assert_eq!(s.per_degree_bound, 1e-4);
        }
    }

    #[test]
    fn seed_on_a_hub_needs_no_pushes() {
        let g = ba(200, 5);
        let set = build_hub_sketches(&g, 8, 0.1, 1e-5).unwrap();
        let hub = set.sketches()[0].hub;
        let s = ppr_push_spliced(&g, &[hub], 0.1, 1e-3, &set).unwrap();
        assert!(s.used_sketches);
        assert_eq!(s.pushes, 0);
        assert!((s.hub_mass - 1.0).abs() < 1e-12);
        // The whole answer is the hub's own sketch.
        assert_eq!(s.vector, set.sketches()[0].estimate);
    }

    #[test]
    fn budget_exhaustion_certifies_the_combined_answer() {
        let g = ba(400, 13);
        let set = build_hub_sketches(&g, 8, 0.05, 1e-6).unwrap();
        let mut ctx = acir_runtime::KernelCtx::budgeted("test.splice", &Budget::iterations(3));
        let out = ppr_push_spliced_ctx(&g, &[17], 0.05, 1e-5, &set, &mut ctx).unwrap();
        assert!(!out.is_converged() && out.is_usable());
        let (remaining, bound) = match out.certificate() {
            Some(&acir_runtime::Certificate::ResidualMass {
                remaining,
                per_degree_bound,
            }) => (remaining, per_degree_bound),
            c => panic!("wrong certificate {c:?}"),
        };
        let v = out.value().unwrap();
        assert_eq!(remaining.to_bits(), v.residual_mass.to_bits());
        assert_eq!(bound.to_bits(), v.per_degree_bound.to_bits());
        // The certified bound really does bound the pointwise error.
        let exact = ppr_exact_reference(&g, &[17], 0.05, 4000).unwrap();
        let dense = v.to_dense(g.n());
        for u in 0..g.n() {
            let err = (exact[u] - dense[u]) / g.degree(u as NodeId);
            assert!(err >= -1e-9 && err <= bound + 1e-9, "node {u}: {err}");
        }
    }

    #[test]
    fn rejects_mismatched_graphs() {
        let g = ba(200, 5);
        let other = ba(100, 5);
        let set = build_hub_sketches(&g, 4, 0.1, 1e-5).unwrap();
        assert!(ppr_push_spliced(&other, &[0], 0.1, 1e-3, &set).is_err());
        assert!(repair_hub_sketches(&other, &set, &[]).is_err());
    }

    #[test]
    fn sketch_repair_tracks_a_fresh_rebuild() {
        use acir_graph::DeltaGraph;
        let g_old = ba(300, 21);
        let (alpha, eps) = (0.1, 1e-5);
        let set = build_hub_sketches(&g_old, 10, alpha, eps).unwrap();
        let mut dg = DeltaGraph::new(&g_old);
        dg.insert_edge(0, 299, 1.0).unwrap();
        let delta = dg.net_delta();
        let (g_new, _) = dg.compact().unwrap();
        let rep = repair_hub_sketches(&g_new, &set, &delta).unwrap();
        assert_eq!(rep.set.len(), set.len());
        assert_eq!(rep.repaired + rep.untouched + rep.fallbacks, set.len());
        let rebuilt = build_hub_sketches(&g_new, 10, alpha, eps).unwrap();
        assert!(
            rep.pushes < rebuilt.build_pushes(),
            "repair {} vs rebuild {} pushes",
            rep.pushes,
            rebuilt.build_pushes()
        );
        // Every repaired sketch satisfies the ACL bound on the new
        // graph and agrees with the fresh sketch within 2ε per degree.
        for (r, f) in rep.set.sketches().iter().zip(rebuilt.sketches()) {
            assert_eq!(r.hub, f.hub);
            for &(v, x) in &r.residual {
                assert!(x.abs() < eps * g_new.degree(v));
            }
            let dense_r = {
                let mut d = vec![0.0; g_new.n()];
                for &(v, x) in &r.estimate {
                    d[v as usize] = x;
                }
                d
            };
            let dense_f = {
                let mut d = vec![0.0; g_new.n()];
                for &(v, x) in &f.estimate {
                    d[v as usize] = x;
                }
                d
            };
            for u in 0..g_new.n() {
                let diff = (dense_r[u] - dense_f[u]).abs() / g_new.degree(u as NodeId);
                assert!(diff <= 2.0 * eps + 1e-12, "hub {} node {u}: {diff}", r.hub);
            }
        }
    }

    #[test]
    fn untouched_sketches_carry_over_verbatim() {
        // Two far-apart cliques: a delta inside one never touches the
        // other's hub sketch.
        let g_old = barbell(8, 30).unwrap();
        let set = build_hub_sketches(&g_old, 6, 0.2, 1e-4).unwrap();
        use acir_graph::DeltaGraph;
        let mut dg = DeltaGraph::new(&g_old);
        dg.insert_edge(0, 3, 4.0).unwrap(); // inside clique A
        let delta = dg.net_delta();
        let (g_new, _) = dg.compact().unwrap();
        let rep = repair_hub_sketches(&g_new, &set, &delta).unwrap();
        assert!(rep.untouched > 0, "some hub must be unaffected");
        for (r, p) in rep.set.sketches().iter().zip(set.sketches()) {
            let unaffected = p
                .estimate
                .iter()
                .chain(&p.residual)
                .all(|&(v, _)| v != 0 && v != 3);
            if unaffected {
                assert_eq!(r.estimate, p.estimate, "hub {}", p.hub);
                assert_eq!(r.residual, p.residual, "hub {}", p.hub);
                assert_eq!(r.pushes, p.pushes);
            }
        }
        // An empty delta is a pure carry-over.
        let rep = repair_hub_sketches(&g_new, &rep.set, &[]).unwrap();
        assert_eq!(rep.untouched, rep.set.len());
        assert_eq!(rep.pushes, 0);
    }
}
