//! Reproducibility: every stochastic component of the reproduction is
//! a pure function of its seed. (The paper's experiments must be
//! exactly re-runnable; see DESIGN.md §2.)

use acir::prelude::*;
use acir_graph::gen::community::{social_network, SocialNetworkParams};
use acir_graph::gen::random::{
    barabasi_albert, erdos_renyi_gnp, forest_fire, random_regular, watts_strogatz,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

#[test]
fn all_random_generators_are_seed_deterministic() {
    assert_eq!(
        erdos_renyi_gnp(&mut rng(1), 80, 0.1).unwrap(),
        erdos_renyi_gnp(&mut rng(1), 80, 0.1).unwrap()
    );
    assert_eq!(
        barabasi_albert(&mut rng(2), 150, 3).unwrap(),
        barabasi_albert(&mut rng(2), 150, 3).unwrap()
    );
    assert_eq!(
        watts_strogatz(&mut rng(3), 90, 4, 0.2).unwrap(),
        watts_strogatz(&mut rng(3), 90, 4, 0.2).unwrap()
    );
    assert_eq!(
        random_regular(&mut rng(4), 60, 5).unwrap(),
        random_regular(&mut rng(4), 60, 5).unwrap()
    );
    assert_eq!(
        forest_fire(&mut rng(5), 120, 0.3).unwrap(),
        forest_fire(&mut rng(5), 120, 0.3).unwrap()
    );
}

#[test]
fn different_seeds_differ() {
    assert_ne!(
        erdos_renyi_gnp(&mut rng(1), 80, 0.1).unwrap(),
        erdos_renyi_gnp(&mut rng(2), 80, 0.1).unwrap()
    );
}

#[test]
fn multilevel_partitioner_is_deterministic() {
    let pc = social_network(
        &mut rng(9),
        &SocialNetworkParams {
            core_nodes: 200,
            core_attach: 3,
            communities: 4,
            community_size_range: (5, 30),
            whiskers: 10,
            whisker_max_len: 4,
            ..Default::default()
        },
    )
    .unwrap();
    let g = &pc.graph;
    let opts = MultilevelOptions::default();
    let a = multilevel_bisect(g, &opts).unwrap();
    let b = multilevel_bisect(g, &opts).unwrap();
    assert_eq!(a.side, b.side);
    assert_eq!(a.cut, b.cut);
}

#[test]
fn ncp_pipelines_are_deterministic_across_thread_counts() {
    // The per-chunk merge makes the result independent of scheduling —
    // and it must also be identical for different thread counts, since
    // chunking only changes work distribution, not the set of runs.
    let g = gen::deterministic::ring_of_cliques(6, 8).unwrap();
    let base = NcpOptions {
        min_size: 2,
        max_size: 60,
        seeds: 12,
        alphas: vec![0.2, 0.05],
        epsilons: vec![1e-3],
        threads: 1,
        ..Default::default()
    };
    let mut two = base.clone();
    two.threads = 2;
    let mut four = base.clone();
    four.threads = 4;
    let a = ncp_local_spectral(&g, &base).unwrap();
    let b = ncp_local_spectral(&g, &two).unwrap();
    let c = ncp_local_spectral(&g, &four).unwrap();
    let key = |pts: &[acir_partition::NcpPoint]| -> Vec<(usize, Vec<u32>)> {
        pts.iter().map(|p| (p.size, p.set.clone())).collect()
    };
    assert_eq!(key(&a), key(&b));
    assert_eq!(key(&a), key(&c));
}

/// Run `f` with the `ACIR_THREADS` override set to `n`, then restore it.
///
/// Every env-flipping assertion lives in the single test below — tests
/// in one binary run concurrently, and a second test racing on the same
/// process-global variable would make thread counts nondeterministic in
/// exactly the suite that checks determinism.
fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    let before = std::env::var_os(THREADS_ENV);
    std::env::set_var(THREADS_ENV, n.to_string());
    let out = f();
    match before {
        Some(v) => std::env::set_var(THREADS_ENV, v),
        None => std::env::remove_var(THREADS_ENV),
    }
    out
}

#[test]
fn parallel_kernels_bit_identical_across_env_thread_counts() {
    let pc = social_network(
        &mut rng(17),
        &SocialNetworkParams {
            core_nodes: 300,
            core_attach: 3,
            communities: 6,
            community_size_range: (5, 40),
            whiskers: 12,
            whisker_max_len: 4,
            ..Default::default()
        },
    )
    .unwrap();
    let (g, _) = acir_graph::traversal::largest_component(&pc.graph);

    // Lanczos Fiedler solve: same eigenpair to the last bit. The graph
    // must stay above the dense cutoff, or this row would silently
    // test the Jacobi route instead.
    assert!(
        g.n() > acir_spectral::fiedler::DENSE_CUTOFF,
        "n = {} takes the dense route",
        g.n()
    );
    let f1 = with_threads(1, || fiedler_vector(&g).unwrap());
    let f4 = with_threads(4, || fiedler_vector(&g).unwrap());
    assert_eq!(f1.lambda2.to_bits(), f4.lambda2.to_bits());
    assert_eq!(f1.vector, f4.vector);

    // PPR push plus the sweep over its embedding: same vector, same cut.
    let p1 = with_threads(1, || ppr_push(&g, &[0, 5], 0.08, 1e-4).unwrap());
    let p4 = with_threads(4, || ppr_push(&g, &[0, 5], 0.08, 1e-4).unwrap());
    assert_eq!(p1.vector, p4.vector);
    assert_eq!(p1.pushes, p4.pushes);
    let dense = |sparse: &[(NodeId, f64)]| {
        let mut x = vec![0.0; g.n()];
        for &(u, v) in sparse {
            x[u as usize] = v;
        }
        x
    };
    let s1 = sweep_cut_support(&g, &dense(&p1.vector));
    let s4 = sweep_cut_support(&g, &dense(&p4.vector));
    assert_eq!(s1.set, s4.set);
    assert_eq!(s1.conductance.to_bits(), s4.conductance.to_bits());

    // A quick NCP sweep: same envelope.
    let opts = NcpOptions {
        min_size: 2,
        max_size: 120,
        seeds: 10,
        alphas: vec![0.1, 0.01],
        epsilons: vec![1e-3],
        ..Default::default()
    };
    let n1 = with_threads(1, || ncp_local_spectral(&g, &opts).unwrap());
    let n4 = with_threads(4, || ncp_local_spectral(&g, &opts).unwrap());
    assert_eq!(n1.len(), n4.len());
    for (pa, pb) in n1.iter().zip(&n4) {
        assert_eq!(pa.size, pb.size);
        assert_eq!(pa.conductance.to_bits(), pb.conductance.to_bits());
        assert_eq!(pa.set, pb.set);
    }
}

#[test]
fn deterministic_solvers_are_bitwise_stable() {
    let g = gen::deterministic::barbell(7, 1).unwrap();
    let f1 = fiedler_vector(&g).unwrap();
    let f2 = fiedler_vector(&g).unwrap();
    assert_eq!(f1.lambda2, f2.lambda2);
    assert_eq!(f1.vector, f2.vector);

    let p1 = ppr_push(&g, &[0], 0.1, 1e-5).unwrap();
    let p2 = ppr_push(&g, &[0], 0.1, 1e-5).unwrap();
    assert_eq!(p1.vector, p2.vector);
    assert_eq!(p1.pushes, p2.pushes);

    let m1 = mqi(&g, &[0, 1, 2, 3, 4, 5, 6]).unwrap();
    let m2 = mqi(&g, &[0, 1, 2, 3, 4, 5, 6]).unwrap();
    assert_eq!(m1.set, m2.set);
}
