//! MQI — Max-flow Quotient-cut Improvement (Lang & Rao).
//!
//! Given a graph and a side `A` of a bisection with `vol(A) ≤
//! vol(V)/2`, MQI finds the subset `S ⊆ A` with the best conductance
//! `φ(S) = cut(S)/vol(S)`, provably at least as good as `φ(A)`, by a
//! sequence of max-flow computations. "Metis+MQI" (multilevel bisection
//! to propose `A`, then MQI to polish) is the flow-based method of the
//! paper's Figure 1.
//!
//! ## The flow reduction
//!
//! Let `a = vol(A)`, `c = cut(A, Ā)`, and for `u ∈ A` let `b_u` be the
//! weight of `u`'s edges into `Ā`. Build a network on `A ∪ {s, t}`:
//!
//! * `s → u` with capacity `c · d_u` for every `u ∈ A`;
//! * `u → t` with capacity `a · b_u` for boundary nodes;
//! * each internal edge `{u, v}` of `A` with capacity `a · w(u, v)`
//!   in both directions.
//!
//! For a cut with source side `{s} ∪ S`, the capacity is
//! `c·a + [a·cut_G(S) − c·vol(S)]`, so the min cut is below `c·a`
//! exactly when some `S ⊆ A` has `cut_G(S)/vol(S) < c/a`, and the
//! source side of the min cut is that better set. Iterating until no
//! improvement yields the optimal quotient subset of `A`.

use crate::maxflow::{FlowExit, FlowNetwork};
use crate::{FlowError, Result};
use acir_graph::{Graph, NodeId};
use acir_runtime::{Certificate, DivergenceCause, KernelCtx, SolverOutcome};

/// Outcome of MQI.
#[derive(Debug, Clone)]
pub struct MqiResult {
    /// The improved set (subset of the input side), sorted.
    pub set: Vec<NodeId>,
    /// Conductance of the improved set.
    pub conductance: f64,
    /// Conductance of the input side (for reference).
    pub initial_conductance: f64,
    /// Number of max-flow iterations performed.
    pub iterations: usize,
}

/// Cut weight and volume of `side` in `g`; helper shared with tests.
fn cut_and_volume(g: &Graph, member: &[bool]) -> (f64, f64) {
    let mut cut = 0.0;
    let mut vol = 0.0;
    for u in 0..g.n() as NodeId {
        if !member[u as usize] {
            continue;
        }
        vol += g.degree(u);
        for (v, w) in g.neighbors(u) {
            if !member[v as usize] {
                cut += w;
            }
        }
    }
    (cut, vol)
}

/// Run MQI from the initial side `a_side`.
///
/// Requirements: `a_side` non-empty, within range, with
/// `vol(A) ≤ vol(V)/2` (the quotient-cut convention; pass the smaller
/// side). Errors otherwise. Returns the best-conductance subset found.
pub fn mqi(g: &Graph, a_side: &[NodeId]) -> Result<MqiResult> {
    let mut ctx = KernelCtx::new();
    match mqi_ctx(g, a_side, &mut ctx)? {
        SolverOutcome::Converged { value, .. } => Ok(value),
        _ => unreachable!("an inert context can neither exhaust nor diverge"),
    }
}

/// Validate `a_side` and return its membership mask.
fn validate_mqi_side(g: &Graph, a_side: &[NodeId]) -> Result<Vec<bool>> {
    let n = g.n();
    if a_side.is_empty() {
        return Err(FlowError::InvalidArgument(
            "MQI needs a non-empty side".into(),
        ));
    }
    let mut member = vec![false; n];
    for &u in a_side {
        if u as usize >= n {
            return Err(FlowError::InvalidArgument(format!("node {u} out of range")));
        }
        if member[u as usize] {
            return Err(FlowError::InvalidArgument(format!("duplicate node {u}")));
        }
        member[u as usize] = true;
    }
    let (_, vol0) = cut_and_volume(g, &member);
    if vol0 > g.total_volume() / 2.0 + 1e-9 {
        return Err(FlowError::InvalidArgument(
            "MQI side must have at most half the total volume".into(),
        ));
    }
    Ok(member)
}

/// Run the flow-round improvement loop under `ctx`; returns the final
/// side mask, the best conductance achieved, the round count, and the
/// exit condition.
fn mqi_core(
    g: &Graph,
    member: Vec<bool>,
    initial_conductance: f64,
    ctx: &mut KernelCtx,
) -> Result<(Vec<bool>, f64, usize, FlowExit)> {
    let n = g.n();
    let mut current = member;
    let mut best_phi = initial_conductance;
    let mut iterations = 0usize;
    let exit;
    // CORE LOOP
    loop {
        ctx.tick_iter();
        if let Some(exhausted) = ctx.check_budget() {
            ctx.note_with(|| {
                format!(
                    "{exhausted} after {iterations} flow rounds; current side is a valid improved cut"
                )
            });
            exit = FlowExit::Exhausted {
                exhausted,
                upper: initial_conductance,
            };
            break;
        }
        // Relabel current side nodes 0..k, with s = k and t = k + 1.
        let nodes: Vec<NodeId> = (0..n as NodeId).filter(|&u| current[u as usize]).collect();
        let k = nodes.len();
        let mut local = vec![usize::MAX; n];
        for (i, &u) in nodes.iter().enumerate() {
            local[u as usize] = i;
        }
        let (c, a) = cut_and_volume(g, &current);
        if c == 0.0 {
            exit = FlowExit::Done;
            break;
        }
        let s = k;
        let t = k + 1;
        let mut net = FlowNetwork::new(k + 2);
        let mut arcs = 0u64;
        for (i, &u) in nodes.iter().enumerate() {
            net.add_arc(s, i, c * g.degree(u))?;
            arcs += 1;
            let mut boundary = 0.0;
            for (v, w) in g.neighbors(u) {
                if current[v as usize] {
                    if local[v as usize] > i {
                        net.add_edge(i, local[v as usize], a * w)?;
                        arcs += 1;
                    }
                } else {
                    boundary += w;
                }
            }
            if boundary > 0.0 {
                net.add_arc(i, t, a * boundary)?;
                arcs += 1;
            }
        }
        ctx.add_work(arcs);
        let flow = net.max_flow(s, t)?;
        iterations += 1;
        ctx.push_residual(best_phi);

        // Improvement exists iff min cut < c·a (with slack for floats).
        if flow.value >= c * a * (1.0 - 1e-12) - 1e-9 {
            exit = FlowExit::Done;
            break;
        }
        let improved: Vec<NodeId> = nodes
            .iter()
            .enumerate()
            .filter(|&(i, _)| flow.source_side[i])
            .map(|(_, &u)| u)
            .collect();
        if improved.is_empty() || improved.len() == nodes.len() {
            exit = FlowExit::Done;
            break;
        }
        let mut next = vec![false; n];
        for &u in &improved {
            next[u as usize] = true;
        }
        let (nc, nv) = cut_and_volume(g, &next);
        let phi = if nv > 0.0 { nc / nv } else { f64::INFINITY };
        if ctx.is_guarded() && !phi.is_finite() {
            exit = FlowExit::Diverged(DivergenceCause::NonFiniteResidual {
                at_iter: iterations,
            });
            break;
        }
        if phi >= best_phi - 1e-15 {
            exit = FlowExit::Done;
            break; // numerical no-op; stop rather than loop
        }
        best_phi = phi;
        current = next;
    }
    if matches!(exit, FlowExit::Done) {
        ctx.note_with(|| {
            format!("quotient-cut optimum inside the side after {iterations} flow rounds")
        });
    }
    Ok((current, best_phi, iterations, exit))
}

/// [`mqi`] under an explicit [`KernelCtx`]: the same flow-round loop
/// with metering, guarding, and tracing routed through the context. An
/// inert context reproduces [`mqi`] exactly.
///
/// A metered context charges each max-flow round one budget iteration
/// plus the round's flow-network arcs as work units. MQI is an
/// *anytime* algorithm — every accepted round strictly improves
/// conductance, and the current side is always a valid answer — so
/// exhaustion returns the best set found with a
/// [`Certificate::FlowGap`] reading `value` = achieved conductance ≤
/// `upper_bound` = the input side's conductance: the slack is the
/// improvement already banked, and the guarantee `φ(S) ≤ φ(A)` of
/// Lang–Rao holds at every truncation point. A guard is consulted only
/// for the finiteness check on each round's candidate conductance.
pub fn mqi_ctx(
    g: &Graph,
    a_side: &[NodeId],
    ctx: &mut KernelCtx,
) -> Result<SolverOutcome<MqiResult>> {
    let member = validate_mqi_side(g, a_side)?;
    let (cut0, vol0) = cut_and_volume(g, &member);
    if cut0 == 0.0 {
        // Already a disconnected component: conductance 0, nothing to do.
        ctx.note_with(|| {
            "input side is already disconnected: conductance 0, nothing to improve".to_string()
        });
        let diags = ctx.finish();
        return Ok(SolverOutcome::converged(finish(g, &member, 0.0, 0), diags));
    }
    let initial_conductance = cut0 / vol0;
    let (current, best_phi, iterations, exit) = mqi_core(g, member, initial_conductance, ctx)?;
    let diags = ctx.finish();
    Ok(match exit {
        FlowExit::Done => {
            SolverOutcome::converged(finish(g, &current, initial_conductance, iterations), diags)
        }
        FlowExit::Exhausted { exhausted, upper } => SolverOutcome::exhausted(
            finish(g, &current, initial_conductance, iterations),
            exhausted,
            Certificate::FlowGap {
                value: best_phi,
                upper_bound: upper,
            },
            diags,
        ),
        FlowExit::Diverged(cause) => SolverOutcome::diverged(cause, diags),
    })
}

/// Build the result struct for whatever side `current` holds.
fn finish(g: &Graph, current: &[bool], initial_conductance: f64, iterations: usize) -> MqiResult {
    let n = g.n();
    let mut set: Vec<NodeId> = (0..n as NodeId).filter(|&u| current[u as usize]).collect();
    set.sort_unstable();
    let (fc, fv) = cut_and_volume(g, current);
    MqiResult {
        set,
        conductance: if fv > 0.0 { fc / fv } else { f64::INFINITY },
        initial_conductance,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acir_graph::gen::deterministic::{barbell, complete, lollipop, path};
    use acir_runtime::{Budget, GuardConfig};

    /// A metered context with the contamination guard.
    fn budgeted(budget: &Budget) -> KernelCtx {
        KernelCtx::budgeted("flow.mqi", budget).with_guard(GuardConfig::contamination_only())
    }

    #[test]
    fn mqi_trims_barbell_side_to_clique() {
        // Side = clique A (0..7) plus two bridge nodes: MQI should trim
        // back to the clique + maybe bridge prefix — whatever minimizes
        // the quotient. For barbell(8, 4) the best subset of
        // {0..7, 8, 9} is the one cutting a single bridge edge with
        // maximal volume, i.e. {0..7, 8, 9} → cut 1, or {0..7} → cut 1:
        // larger volume wins, so the bridge nodes stay.
        let g = barbell(8, 4).unwrap();
        let side: Vec<u32> = (0..10).collect();
        let r = mqi(&g, &side).unwrap();
        let (c, v) = {
            let mut m = vec![false; g.n()];
            for &u in &r.set {
                m[u as usize] = true;
            }
            cut_and_volume(&g, &m)
        };
        assert!((r.conductance - c / v).abs() < 1e-12);
        assert!(r.conductance <= r.initial_conductance + 1e-12);
        // Best quotient keeps all 10 nodes (cut 1, max volume).
        assert_eq!(r.set, side);
    }

    #[test]
    fn mqi_removes_bad_attachments() {
        // Side = one clique + one node of the *other* clique's bridge
        // side on a dumbbell: that stray node only adds cut.
        let g = barbell(6, 2).unwrap(); // nodes 0-5 clique, 6,7 bridge, 8-13 clique
        let side = vec![0, 1, 2, 3, 4, 5, 6];
        let r = mqi(&g, &side).unwrap();
        // {0..5, 6} has cut 1 (edge 6-7) and more volume than {0..5}
        // (cut 1 via edge 5-6): MQI keeps the bigger-volume variant.
        assert!(r.conductance <= r.initial_conductance);
        assert!(r.set.contains(&0));
    }

    #[test]
    fn mqi_extracts_clique_from_mixed_side() {
        // Lollipop: clique 0..5, tail 6..11. Take the side {3, 4, 5, 6,
        // 7, 8}: half clique, half tail. The best quotient subset inside
        // is a deep-cut piece; MQI must strictly improve the quotient.
        let g = lollipop(6, 6).unwrap();
        let side = vec![3, 4, 5, 6, 7, 8];
        let r = mqi(&g, &side).unwrap();
        assert!(
            r.conductance < r.initial_conductance,
            "{} !< {}",
            r.conductance,
            r.initial_conductance
        );
    }

    #[test]
    fn mqi_on_optimal_side_is_stable() {
        // The clique side of a dumbbell is already optimal within itself.
        let g = barbell(6, 0).unwrap();
        let side: Vec<u32> = (0..6).collect();
        let r = mqi(&g, &side).unwrap();
        assert_eq!(r.set, side);
        assert!((r.conductance - r.initial_conductance).abs() < 1e-12);
    }

    #[test]
    fn mqi_zero_cut_side_short_circuits() {
        // Two disjoint triangles: one triangle has cut 0.
        let g = acir_graph::Graph::from_pairs(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
            .unwrap();
        let r = mqi(&g, &[0, 1, 2]).unwrap();
        assert_eq!(r.conductance, 0.0);
        assert_eq!(r.iterations, 0);
        assert_eq!(r.set, vec![0, 1, 2]);
    }

    #[test]
    fn mqi_validates_inputs() {
        let g = path(6).unwrap();
        assert!(mqi(&g, &[]).is_err());
        assert!(mqi(&g, &[99]).is_err());
        assert!(mqi(&g, &[0, 0]).is_err());
        // Whole graph: volume too large.
        let all: Vec<u32> = (0..6).collect();
        assert!(mqi(&g, &all).is_err());
    }

    #[test]
    fn mqi_never_worsens_on_random_sides() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(13);
        let g = acir_graph::gen::random::erdos_renyi_gnp(&mut rng, 40, 0.15).unwrap();
        let total = g.total_volume();
        for trial in 0..10 {
            let side: Vec<u32> = (0..40u32).filter(|_| rng.gen_bool(0.3)).collect();
            if side.is_empty() || g.volume(&side) > total / 2.0 {
                continue;
            }
            let r = mqi(&g, &side).unwrap();
            assert!(
                r.conductance <= r.initial_conductance + 1e-9,
                "trial {trial}: {} > {}",
                r.conductance,
                r.initial_conductance
            );
        }
    }

    #[test]
    fn budgeted_unlimited_matches_plain() {
        let g = lollipop(6, 6).unwrap();
        let side = vec![3, 4, 5, 6, 7, 8];
        let out = mqi_ctx(&g, &side, &mut budgeted(&Budget::unlimited())).unwrap();
        assert!(out.is_converged());
        let r = out.value().unwrap();
        let p = mqi(&g, &side).unwrap();
        assert_eq!(r.set, p.set);
        assert!((r.conductance - p.conductance).abs() < 1e-12);
        assert!(!out.diagnostics().events.is_empty());
    }

    #[test]
    fn budgeted_exhaustion_returns_valid_anytime_cut() {
        // Zero flow rounds allowed: the partial answer must be the
        // input side itself, still certified φ(S) ≤ φ(A).
        let g = lollipop(6, 6).unwrap();
        let side = vec![3, 4, 5, 6, 7, 8];
        let out = mqi_ctx(&g, &side, &mut budgeted(&Budget::iterations(1))).unwrap();
        assert!(!out.is_converged() && out.is_usable());
        let r = out.value().unwrap();
        let (lo, hi) = match out.certificate() {
            Some(&Certificate::FlowGap { value, upper_bound }) => (value, upper_bound),
            c => panic!("wrong certificate {c:?}"),
        };
        assert!(lo <= hi + 1e-12, "achieved {lo} vs initial {hi}");
        assert!((r.conductance - lo).abs() < 1e-12);
        assert!((r.initial_conductance - hi).abs() < 1e-12);
        // Anytime guarantee: never worse than the input side.
        assert!(r.conductance <= r.initial_conductance + 1e-12);
    }

    #[test]
    fn budgeted_zero_cut_short_circuits_as_converged() {
        let g = acir_graph::Graph::from_pairs(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
            .unwrap();
        let out = mqi_ctx(&g, &[0, 1, 2], &mut budgeted(&Budget::iterations(1))).unwrap();
        assert!(out.is_converged());
        assert_eq!(out.value().unwrap().conductance, 0.0);
    }

    #[test]
    fn mqi_respects_half_volume_rule() {
        let g = complete(8).unwrap();
        let big: Vec<u32> = (0..7).collect(); // volume 49/56 > half
        assert!(mqi(&g, &big).is_err());
        let ok: Vec<u32> = (0..4).collect();
        assert!(mqi(&g, &ok).is_ok());
    }
}
