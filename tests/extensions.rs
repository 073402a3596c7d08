//! Integration tests for the extension modules (spectral clustering,
//! streaming PageRank, Chebyshev matrix functions, Bayesian risk) —
//! exercising them together and against the core stack.

use acir::prelude::*;
use acir_graph::gen::community::planted_partition;
use acir_graph::traversal::largest_component;
use acir_linalg::chebyshev::cheb_heat_kernel;
use acir_linalg::vector;
use acir_regularize::robustness::{risk_profile, PopulationModel};
use acir_spectral::embedding::{adjusted_rand_index, spectral_clustering};
use acir_spectral::ranking::{kendall_tau, pagerank_scores};
use acir_spectral::streaming::streaming_pagerank_of_graph;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The Chebyshev heat kernel agrees with the exact dense route
/// (`exp(−t𝓛)` via the symmetric eigensolver) on a real graph.
#[test]
fn heat_kernel_routes_agree() {
    let g = gen::deterministic::lollipop(10, 6).unwrap();
    let t = 2.5;
    let nl = normalized_laplacian(&g);
    let mut seed = vec![0.0; g.n()];
    seed[3] = 1.0;
    let h = acir_linalg::SymEig::new(&nl.to_dense())
        .unwrap()
        .matrix_function(|lam| (-t * lam).exp());
    let mut dense = vec![0.0; g.n()];
    h.gemv(1.0, &seed, 0.0, &mut dense);
    // Chebyshev needs exp(−t·𝓛): pass 𝓛 and the function handles −t.
    let cheb = cheb_heat_kernel(&nl, t, &seed, 2.0, 60).unwrap();
    assert!(
        vector::dist2(&dense, &cheb) < 1e-9,
        "gap {}",
        vector::dist2(&dense, &cheb)
    );
}

/// Chebyshev degree controls locality: low-degree approximations of a
/// delta seed cannot reach beyond their degree in hops — truncation is
/// structurally local, the §3.3 theme in polynomial form.
#[test]
fn chebyshev_degree_bounds_reach() {
    let g = gen::deterministic::path(50).unwrap();
    let nl = normalized_laplacian(&g);
    let mut seed = vec![0.0; 50];
    seed[0] = 1.0;
    let out = cheb_heat_kernel(&nl, 3.0, &seed, 2.0, 8).unwrap();
    for (u, &x) in out.iter().enumerate() {
        if u > 8 {
            assert!(x.abs() < 1e-12, "node {u} reached with degree 8");
        }
    }
}

/// k-way spectral clustering on an SBM agrees with the planted labels
/// and with what the (independent) conductance machinery says about
/// the recovered groups.
#[test]
fn spectral_clustering_clusters_have_low_conductance() {
    let mut rng = StdRng::seed_from_u64(11);
    let pc = planted_partition(&mut rng, 4, 25, 0.5, 0.02).unwrap();
    let (g, map) = largest_component(&pc.graph);
    let assign = spectral_clustering(&g, 4, 8, &mut rng).unwrap();
    let truth: Vec<u32> = map.iter().map(|&o| pc.community[o as usize]).collect();
    assert!(adjusted_rand_index(&assign, &truth) > 0.9);
    // Each recovered cluster is a good community by the partition
    // crate's standards.
    for c in 0..4u32 {
        let members: Vec<NodeId> = (0..g.n() as u32)
            .filter(|&u| assign[u as usize] == c)
            .collect();
        if members.len() < 2 || g.volume(&members) > g.total_volume() / 2.0 {
            continue;
        }
        let phi = conductance(&g, &members).unwrap();
        assert!(phi < 0.3, "cluster {c}: φ = {phi}");
    }
}

/// Streaming PageRank converges toward the exact CG-based solve as the
/// walker budget grows — two completely different computational models
/// for the same object.
#[test]
fn streaming_estimate_approaches_exact() {
    let mut rng = StdRng::seed_from_u64(12);
    let g = gen::random::barabasi_albert(&mut rng, 200, 3).unwrap();
    let exact = pagerank_scores(&g, 0.2).unwrap();
    let est = streaming_pagerank_of_graph(&g, 0.2, 30_000, 100, &mut rng).unwrap();
    assert!(kendall_tau(&exact, &est.scores) > 0.6);
    // Memory stays at the walker table regardless of graph size.
    assert_eq!(est.peak_memory_slots, 30_000);
}

/// The Bayesian-risk machinery composes with the generators: stronger
/// noise ⇒ more to gain from regularization.
#[test]
fn regularization_gain_grows_with_noise() {
    let mut rng = StdRng::seed_from_u64(13);
    let etas = [1.0, 4.0, 16.0, 64.0];
    let noisy = PopulationModel {
        block_size: 12,
        p_in: 0.55,
        p_out: 0.35,
    };
    let clean = PopulationModel {
        block_size: 12,
        p_in: 0.9,
        p_out: 0.05,
    };
    let noisy_profile = risk_profile(&noisy, &etas, 10, &mut rng).unwrap();
    let clean_profile = risk_profile(&clean, &etas, 10, &mut rng).unwrap();
    assert!(noisy_profile.improvement() > clean_profile.improvement());
    assert!(noisy_profile.improvement() > 0.05);
}
