//! Global spectral partitioning (§3.2, the "spectral" rival).
//!
//! Solve Problem (3) — exactly via the Fiedler vector, or approximately
//! via a truncated power iteration — then perform a sweep cut over the
//! resulting vector. The cut is "quadratically good": by Cheeger, if
//! the graph has a cut of conductance `O(φ²)` the sweep finds one of
//! conductance ≤ `φ`. The truncated variant exposes the iteration count
//! so experiments can watch early stopping act as a regularizer.

use crate::{PartitionError, Result};
use acir_graph::Graph;
use acir_linalg::power::{power_method, power_method_budgeted, PowerOptions};
use acir_linalg::{vector, LinOp, ShiftedOp};
use acir_local::sweep::{sweep_cut, SweepResult};
use acir_runtime::{Budget, Certificate, SolverOutcome};
use acir_spectral::{fiedler_vector, normalized_laplacian, trivial_eigenvector};

/// Outcome of a spectral bisection.
#[derive(Debug, Clone)]
pub struct SpectralCut {
    /// The sweep result (best prefix set + conductance + profile).
    pub sweep: SweepResult,
    /// The embedding vector that was swept (degree-normalized order).
    pub embedding: Vec<f64>,
    /// `λ₂` of the normalized Laplacian (exact route only; the
    /// truncated route reports the Rayleigh quotient of its iterate).
    pub lambda2: f64,
}

/// Exact spectral bisection: Fiedler vector of `𝓛`, embedded as
/// `D^{−1/2} v₂`, then a sweep cut.
pub fn spectral_bisect(g: &Graph) -> Result<SpectralCut> {
    let f = fiedler_vector(g)?;
    let embedding = d_inv_sqrt_scale(g, &f.vector);
    let sweep = sweep_cut(g, &embedding);
    Ok(SpectralCut {
        sweep,
        embedding,
        lambda2: f.lambda2,
    })
}

/// Truncated spectral bisection: `iters` power-method steps on the
/// shifted operator `2I − 𝓛` (so the Fiedler direction is dominant
/// after deflating the trivial eigenvector), from a deterministic
/// pseudo-random seed, then the same sweep.
///
/// This is the §2.3 "early stopping" knob applied to §3.2: tiny budgets
/// give seed-dependent, smoothed cuts; large budgets converge to
/// [`spectral_bisect`].
pub fn spectral_bisect_truncated(g: &Graph, iters: usize) -> Result<SpectralCut> {
    if iters == 0 {
        return Err(PartitionError::InvalidArgument(
            "iters must be positive".into(),
        ));
    }
    let nl = normalized_laplacian(g);
    let v1 = trivial_eigenvector(g);
    // 2I − 𝓛 has spectrum in [0, 2] with the Fiedler direction at
    // 2 − λ₂ — the largest after deflation.
    let shifted = ShiftedOp::new(&nl, -1.0, 2.0);
    let seed = deterministic_seed(g.n());
    let opts = PowerOptions {
        max_iters: iters,
        tol: 0.0, // pure early stopping: run exactly `iters` steps
        deflate: vec![v1],
    };
    let r = power_method(&shifted, &seed, &opts)?;
    Ok(cut_from_iterate(g, &nl, &r.eigenvector))
}

/// Deterministic pseudo-random seed vector shared by the truncated and
/// budgeted bisections (an LCG from a fixed state, so every run — and
/// every thread count — sees the same starting iterate).
fn deterministic_seed(n: usize) -> Vec<f64> {
    let mut state = 0x243f6a8885a308d3u64;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        })
        .collect()
}

/// Sweep a power iterate into a [`SpectralCut`]: degree-normalize the
/// embedding, sweep it, and report the Rayleigh quotient of the iterate
/// against `𝓛` (not the shifted operator).
fn cut_from_iterate(g: &Graph, nl: &acir_linalg::CsrMatrix, v: &[f64]) -> SpectralCut {
    let embedding = d_inv_sqrt_scale(g, v);
    let sweep = sweep_cut(g, &embedding);
    let rq = {
        let lx = nl.apply_vec(v);
        vector::dot(v, &lx)
    };
    SpectralCut {
        sweep,
        embedding,
        lambda2: rq,
    }
}

/// Budgeted spectral bisection: power iteration on `2I − 𝓛` under a
/// resource [`Budget`], then a sweep cut over whatever iterate the
/// budget affords.
///
/// The sweep is an *anytime* consumer — any embedding vector yields a
/// valid cut with a real conductance — so budget exhaustion degrades
/// gracefully into a certified partial: the returned
/// [`Certificate::RayleighInterval`] (translated back from the shifted
/// operator, so `center ≈ λ₂ of 𝓛`) bounds how far the iterate's
/// eigenvalue estimate can be from a true one. This is §2.3 early
/// stopping surfaced as an explicit resource knob.
pub fn spectral_bisect_budgeted(g: &Graph, budget: &Budget) -> Result<SolverOutcome<SpectralCut>> {
    let nl = normalized_laplacian(g);
    let v1 = trivial_eigenvector(g);
    let shifted = ShiftedOp::new(&nl, -1.0, 2.0);
    let seed = deterministic_seed(g.n());
    let opts = PowerOptions {
        max_iters: usize::MAX,
        tol: 1e-10,
        deflate: vec![v1],
    };
    // CORE LOOP (delegated: the power recurrence lives in acir-linalg)
    let out = power_method_budgeted(&shifted, &seed, &opts, budget)?;

    let build = |r: acir_linalg::power::PowerResult| cut_from_iterate(g, &nl, &r.eigenvector);

    Ok(match out {
        SolverOutcome::Converged {
            value,
            mut diagnostics,
        } => {
            let cut = build(value);
            diagnostics.sweep_cut(cut.sweep.set.len(), cut.sweep.conductance);
            diagnostics.wrap_span("partition.spectral_bisect");
            SolverOutcome::Converged {
                value: cut,
                diagnostics,
            }
        }
        SolverOutcome::BudgetExhausted {
            best_so_far,
            exhausted,
            certificate,
            mut diagnostics,
        } => {
            // Translate the enclosure from 2I − 𝓛 back to 𝓛: an
            // eigenvalue μ of the shifted operator corresponds to
            // λ = 2 − μ, with the same radius.
            let certificate = match certificate {
                Certificate::RayleighInterval { center, radius } => Certificate::RayleighInterval {
                    center: 2.0 - center,
                    radius,
                },
                other => other,
            };
            diagnostics.note("sweep cut computed from the truncated power iterate");
            let cut = build(best_so_far);
            diagnostics.sweep_cut(cut.sweep.set.len(), cut.sweep.conductance);
            diagnostics.certificate_issued(&certificate);
            diagnostics.wrap_span("partition.spectral_bisect");
            SolverOutcome::BudgetExhausted {
                best_so_far: cut,
                exhausted,
                certificate,
                diagnostics,
            }
        }
        SolverOutcome::Diverged {
            at_iter,
            cause,
            mut diagnostics,
        } => {
            diagnostics.wrap_span("partition.spectral_bisect");
            SolverOutcome::Diverged {
                at_iter,
                cause,
                diagnostics,
            }
        }
    })
}

/// Ratio-cut spectral bisection: the Fiedler vector of the
/// *combinatorial* Laplacian `L = D − A` (deflating the constant
/// vector), swept in raw coordinate order.
///
/// This is the setting of the Guattery–Miller lower bound \[21\]: on the
/// cockroach graph the combinatorial Fiedler mode is the top/bottom
/// antisymmetric one for every `k`, so the half-size sweep prefix cuts
/// `Θ(k)` rung edges while the optimal bisection cuts 2. (Under the
/// normalized Laplacian the mode can cross over to the left/right cut
/// at large `k` because rung nodes carry higher degree.)
pub fn spectral_bisect_ratio(g: &Graph) -> Result<SpectralCut> {
    if g.n() < 2 || !acir_graph::traversal::is_connected(g) {
        return Err(PartitionError::InvalidArgument(
            "spectral_bisect_ratio needs a connected graph with >= 2 nodes".into(),
        ));
    }
    let l = acir_spectral::combinatorial_laplacian(g);
    let n = g.n();
    let ones = vec![1.0 / (n as f64).sqrt(); n];
    let (vals, mut vecs) = acir_linalg::lanczos::smallest_eigenpairs_restarted(
        &l,
        1,
        std::slice::from_ref(&ones),
        1e-7,
    )?;
    let lambda2 = vals[0];
    let v2 = vecs.swap_remove(0);
    // Plain (non-degree-normalized) ordering: sweep on v2 directly by
    // feeding degree-scaled scores, cancelling sweep_cut's internal
    // division by degree.
    let embedding: Vec<f64> = v2
        .iter()
        .zip(g.degrees())
        .map(|(&x, &d)| x * d.max(f64::MIN_POSITIVE))
        .collect();
    let sweep = sweep_cut(g, &embedding);
    Ok(SpectralCut {
        sweep,
        embedding: v2,
        lambda2,
    })
}

fn d_inv_sqrt_scale(g: &Graph, x: &[f64]) -> Vec<f64> {
    x.iter()
        .zip(g.degrees())
        .map(|(&v, &d)| if d > 0.0 { v / d.sqrt() } else { 0.0 })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use acir_graph::gen::deterministic::{barbell, cockroach, grid2d};

    #[test]
    fn exact_bisect_finds_barbell_cut() {
        let g = barbell(8, 2).unwrap();
        let r = spectral_bisect(&g).unwrap();
        // Optimal-ish: one clique (possibly with bridge prefix).
        assert!(r.sweep.conductance < 0.05, "φ = {}", r.sweep.conductance);
        assert!(r.lambda2 < 0.1);
        // Cheeger sanity: sweep conductance ≥ λ₂ / 2.
        assert!(r.sweep.conductance >= r.lambda2 / 2.0 - 1e-9);
    }

    #[test]
    fn truncated_converges_to_exact() {
        let g = barbell(6, 0).unwrap();
        let exact = spectral_bisect(&g).unwrap();
        let late = spectral_bisect_truncated(&g, 3000).unwrap();
        // The eigenvector sign is arbitrary, so the converged sweep may
        // return either side of the (symmetric) optimal cut.
        let complement: Vec<u32> = (0..g.n() as u32)
            .filter(|u| !exact.sweep.set.contains(u))
            .collect();
        assert!(
            late.sweep.set == exact.sweep.set || late.sweep.set == complement,
            "{:?}",
            late.sweep.set
        );
        assert!((late.sweep.conductance - exact.sweep.conductance).abs() < 1e-9);
    }

    #[test]
    fn truncated_few_iters_is_still_usable() {
        let g = barbell(6, 0).unwrap();
        let early = spectral_bisect_truncated(&g, 3).unwrap();
        // Even an aggressively truncated iterate gives a real cut with
        // finite conductance (the practitioner's experience).
        assert!(early.sweep.conductance.is_finite());
        assert!(!early.sweep.set.is_empty());
        assert!(spectral_bisect_truncated(&g, 0).is_err());
    }

    #[test]
    fn budgeted_bisect_converges_like_exact() {
        let g = barbell(6, 0).unwrap();
        let out = spectral_bisect_budgeted(&g, &Budget::unlimited()).unwrap();
        assert!(out.is_converged());
        let exact = spectral_bisect(&g).unwrap();
        let cut = out.value().unwrap();
        assert!((cut.sweep.conductance - exact.sweep.conductance).abs() < 1e-9);
    }

    #[test]
    fn budgeted_bisect_exhaustion_still_cuts() {
        let g = barbell(6, 0).unwrap();
        let out = spectral_bisect_budgeted(&g, &Budget::iterations(3)).unwrap();
        assert!(!out.is_converged() && out.is_usable());
        let cut = out.value().unwrap();
        // Anytime: a real cut with finite conductance, plus a
        // certificate translated back to the Laplacian's spectrum.
        assert!(cut.sweep.conductance.is_finite());
        assert!(!cut.sweep.set.is_empty());
        match out.certificate() {
            Some(&Certificate::RayleighInterval { center, radius }) => {
                // spec(𝓛) ⊆ [0, 2]: the interval must intersect it.
                assert!(center - radius <= 2.0 + 1e-9 && center + radius >= -1e-9);
            }
            c => panic!("wrong certificate {c:?}"),
        }
        assert!(!out.diagnostics().events.is_empty());
    }

    #[test]
    fn grid_cut_is_balancedish() {
        let g = grid2d(8, 8).unwrap();
        let r = spectral_bisect(&g).unwrap();
        // The spectral cut of a square grid is a near-half split.
        let frac = r.sweep.set.len() as f64 / 64.0;
        assert!((0.3..=0.7).contains(&frac), "fraction {frac}");
        assert!(r.sweep.conductance < 0.2);
    }

    #[test]
    fn cockroach_exhibits_spectral_weakness() {
        // Guattery–Miller: on the cockroach the Fiedler mode is the
        // top/bottom antisymmetric one (it pays energy only on the k
        // rungs and can concentrate on the free antennae), so the
        // spectral *bisection* — the half-size sweep prefix — cuts
        // Θ(k) rung edges, while the optimal bisection (antennae vs
        // ladder, a left/right cut) cuts only 2 edges. This is the
        // "long paths confused with deep cuts" pathology of §3.2.
        let k = 8;
        let g = cockroach(k).unwrap();
        let r = spectral_bisect(&g).unwrap();
        // Structural signature 1: antisymmetry of the Fiedler vector
        // between the two paths (top node i vs bottom node i).
        let f = acir_spectral::fiedler_vector(&g).unwrap();
        for i in 0..(2 * k) {
            let top = f.vector[i];
            let bot = f.vector[2 * k + i];
            assert!(
                (top + bot).abs() < 1e-6,
                "position {i}: {top} vs {bot} not antisymmetric"
            );
        }
        // Structural signature 2: the half-size sweep prefix (the
        // spectral bisection) cuts Θ(k) edges; the left/right bisection
        // cuts 2.
        let half: Vec<u32> = r.sweep.order[..2 * k].to_vec();
        let spectral_cut = crate::conductance::cut_weight(&g, &half).unwrap();
        let left_right: Vec<u32> = (0..k as u32) // left half of top path
            .chain(2 * k as u32..3 * k as u32) // left half of bottom path
            .collect();
        let optimal_cut = crate::conductance::cut_weight(&g, &left_right).unwrap();
        assert!((optimal_cut - 2.0).abs() < 1e-9);
        assert!(
            spectral_cut >= k as f64 * 0.75,
            "spectral bisection cut {spectral_cut} should be Θ(k = {k})"
        );
    }

    #[test]
    fn ratio_bisect_on_cockroach_is_top_bottom_for_all_k() {
        // The GM pathology under the combinatorial Laplacian persists
        // at sizes where the normalized variant crosses over.
        for k in [4usize, 8, 16] {
            let g = cockroach(k).unwrap();
            let r = spectral_bisect_ratio(&g).unwrap();
            let half: Vec<u32> = r.sweep.order[..g.n() / 2].to_vec();
            let cut = crate::conductance::cut_weight(&g, &half).unwrap();
            assert!(cut >= 0.75 * k as f64, "k={k}: bisection cut {cut}");
        }
    }

    #[test]
    fn ratio_bisect_finds_barbell_cut() {
        let g = barbell(6, 0).unwrap();
        let r = spectral_bisect_ratio(&g).unwrap();
        assert!(r.sweep.conductance < 0.05);
        assert!(r.lambda2 > 0.0);
        let disconnected = acir_graph::Graph::from_pairs(4, [(0, 1), (2, 3)]).unwrap();
        assert!(spectral_bisect_ratio(&disconnected).is_err());
    }

    #[test]
    fn embedding_is_degree_normalized_fiedler() {
        let g = barbell(5, 0).unwrap();
        let r = spectral_bisect(&g).unwrap();
        let f = fiedler_vector(&g).unwrap();
        for u in 0..g.n() {
            let expect = f.vector[u] / g.degree(u as u32).sqrt();
            // Up to global sign.
            assert!(
                (r.embedding[u] - expect).abs() < 1e-9 || (r.embedding[u] + expect).abs() < 1e-9
            );
        }
    }
}
