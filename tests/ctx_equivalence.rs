//! The unified-context contract: a bare kernel name runs the one core
//! loop behind its `*_ctx` entry point under an inert context, and the
//! surviving `*_budgeted` routes (those that add an options clamp or a
//! validation step) and `ppr_push_ws` run it under theirs, so each must
//! return *bitwise identical* output to the explicit [`KernelCtx`] call
//! — an unlimited budget or a caller-held workspace may change cost,
//! never arithmetic. This suite is the executable matrix of that claim,
//! checked at `ACIR_THREADS` 1 and 4 (DESIGN.md §10).

use acir::prelude::*;
use acir_flow::FlowNetwork;
use acir_graph::gen::community::{social_network, SocialNetworkParams};
use acir_graph::traversal::largest_component;
use acir_linalg::chebyshev::ChebyshevExpansion;
use acir_linalg::power::{power_method, power_method_budgeted, power_method_ctx};
use acir_linalg::solve::{cg, cg_budgeted, cg_ctx, CgOptions};
use acir_linalg::PowerOptions;
use acir_local::sweep::sweep_cut_ctx;
use acir_spectral::Seed;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fixture() -> Graph {
    let pc = social_network(
        &mut StdRng::seed_from_u64(61),
        &SocialNetworkParams {
            core_nodes: 220,
            core_attach: 3,
            communities: 4,
            community_size_range: (6, 24),
            whiskers: 6,
            whisker_max_len: 3,
            ..Default::default()
        },
    )
    .unwrap();
    largest_component(&pc.graph).0
}

/// A deterministic, dense, nowhere-zero start vector.
fn start_vector(n: usize) -> Vec<f64> {
    (0..n).map(|i| 1.0 + (0.37 * i as f64).sin()).collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn sparse_bits(v: &[(NodeId, f64)]) -> Vec<(NodeId, u64)> {
    v.iter().map(|&(u, x)| (u, x.to_bits())).collect()
}

/// Unwrap a generously-budgeted outcome, which must have converged.
fn converged<T>(out: SolverOutcome<T>, what: &str) -> T {
    match out {
        SolverOutcome::Converged { value, .. } => value,
        _ => panic!("{what}: unlimited budget failed to converge"),
    }
}

/// Set `ACIR_THREADS`, run, unset. Every env-flipping assertion lives
/// in the single test below — tests in one binary run concurrently,
/// and a second test racing on the process-global variable would
/// corrupt exactly what this suite checks.
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

fn check_linalg(g: &Graph) {
    let nl = normalized_laplacian(g);
    let n = g.n();
    let v0 = start_vector(n);

    // power_method: plain / _budgeted(unlimited) vs _ctx(inert).
    // A positive tolerance so every route exits Converged — a pure
    // early-stopping run (`tol: 0.0`) exits through the budget axis on
    // the budgeted path, which is a different (still value-identical)
    // outcome shape.
    let opts = PowerOptions {
        max_iters: 2_000,
        tol: 1e-8,
        deflate: vec![],
    };
    let mut ctx = KernelCtx::new();
    let reference = converged(
        power_method_ctx(&nl, &v0, &opts, &mut ctx).unwrap(),
        "power",
    );
    let plain = power_method(&nl, &v0, &opts).unwrap();
    let budgeted = converged(
        power_method_budgeted(&nl, &v0, &opts, &Budget::unlimited()).unwrap(),
        "power_budgeted",
    );
    for (label, r) in [("plain", &plain), ("budgeted", &budgeted)] {
        assert_eq!(
            bits(&reference.eigenvector),
            bits(&r.eigenvector),
            "power_method ({label}) drifted from the ctx call"
        );
        assert_eq!(reference.eigenvalue.to_bits(), r.eigenvalue.to_bits());
        assert_eq!(reference.iterations, r.iterations);
    }

    // cg: plain / _budgeted(unlimited) vs _ctx(inert).
    let b = start_vector(n);
    let x0 = vec![0.0; n];
    let cg_opts = CgOptions {
        max_iters: 80,
        tol: 1e-10,
    };
    // 𝓛 is singular; shift to I + 𝓛 for an SPD solve.
    let spd = acir_linalg::ShiftedOp::new(&nl, 1.0, 1.0);
    let mut ctx = KernelCtx::new();
    let reference = converged(cg_ctx(&spd, &b, &x0, &cg_opts, &mut ctx).unwrap(), "cg");
    let plain = cg(&spd, &b, &x0, &cg_opts).unwrap();
    let budgeted = converged(
        cg_budgeted(&spd, &b, &x0, &cg_opts, &Budget::unlimited()).unwrap(),
        "cg_budgeted",
    );
    for (label, r) in [("plain", &plain), ("budgeted", &budgeted)] {
        assert_eq!(
            bits(&reference.x),
            bits(&r.x),
            "cg ({label}) drifted from the ctx call"
        );
        assert_eq!(reference.iterations, r.iterations);
    }

    // Chebyshev application: plain vs _ctx(inert).
    let exp = ChebyshevExpansion::fit(|x| (-0.8 * x).exp(), 0.0, 2.0, 24).unwrap();
    let mut ctx = KernelCtx::new();
    let reference = converged(exp.apply_ctx(&nl, &v0, &mut ctx).unwrap(), "chebyshev");
    let plain = exp.apply(&nl, &v0).unwrap();
    assert_eq!(bits(&reference), bits(&plain), "chebyshev plain");
}

fn check_local(g: &Graph) {
    let seeds: Vec<NodeId> = vec![1, 5];

    // ppr_push: plain / _ws vs _ctx.
    let mut ctx = KernelCtx::new();
    let reference = converged(
        ppr_push_ctx(g, &seeds, 0.05, 1e-5, &mut ctx).unwrap(),
        "ppr_push",
    );
    let plain = ppr_push(g, &seeds, 0.05, 1e-5).unwrap();
    let mut ws = PushWorkspace::default();
    let mut out = PushResult::empty();
    ppr_push_ws(g, &seeds, 0.05, 1e-5, &mut ws, &mut out).unwrap();
    for (label, r) in [("plain", &plain), ("ws", &out)] {
        assert_eq!(
            sparse_bits(&reference.vector),
            sparse_bits(&r.vector),
            "ppr_push ({label}) drifted from the ctx call"
        );
        assert_eq!(reference.pushes, r.pushes, "ppr_push ({label})");
        assert_eq!(
            reference.residual_mass.to_bits(),
            r.residual_mass.to_bits(),
            "ppr_push ({label})"
        );
    }
    // hk_relax: plain vs _ctx.
    let mut ctx = KernelCtx::new();
    let reference = converged(
        hk_relax_ctx(g, 1, 6.0, 1e-4, 1e-3, &mut ctx).unwrap(),
        "hk_relax",
    );
    let plain = hk_relax(g, 1, 6.0, 1e-4, 1e-3).unwrap();
    assert_eq!(
        sparse_bits(&reference.vector),
        sparse_bits(&plain.vector),
        "hk_relax drifted from the ctx call"
    );
    assert_eq!(reference.terms, plain.terms);
    assert_eq!(reference.mass_lost.to_bits(), plain.mass_lost.to_bits());

    // nibble: plain vs _ctx.
    let mut ctx = KernelCtx::new();
    let reference = converged(nibble_ctx(g, 1, 30, 1e-4, &mut ctx).unwrap(), "nibble");
    let plain = nibble(g, 1, 30, 1e-4).unwrap();
    assert_eq!(reference.set, plain.set, "nibble");
    assert_eq!(
        reference.conductance.to_bits(),
        plain.conductance.to_bits(),
        "nibble"
    );
    assert_eq!(
        sparse_bits(&reference.vector),
        sparse_bits(&plain.vector),
        "nibble"
    );

    // sweep_cut vs sweep_cut_ctx.
    let score = converged(
        ppr_push_ctx(g, &[1], 0.05, 1e-5, &mut KernelCtx::new()).unwrap(),
        "ppr_push",
    )
    .to_dense(g.n());
    let reference = sweep_cut_ctx(g, &score, &mut KernelCtx::new());
    let plain = sweep_cut(g, &score);
    assert_eq!(reference.set, plain.set, "sweep_cut");
    assert_eq!(
        reference.conductance.to_bits(),
        plain.conductance.to_bits(),
        "sweep_cut"
    );
}

fn check_spectral(g: &Graph) {
    let seed = Seed::Node(1);

    // pagerank_power: plain vs _ctx.
    let mut ctx = KernelCtx::new();
    let (ref_x, ref_delta) = converged(
        pagerank_power_ctx(g, 0.15, &seed, 25, &mut ctx).unwrap(),
        "pagerank_power",
    );
    let (plain_x, plain_delta) = pagerank_power(g, 0.15, &seed, 25).unwrap();
    assert_eq!(
        bits(&ref_x),
        bits(&plain_x),
        "pagerank_power drifted from the ctx call"
    );
    assert_eq!(ref_delta.to_bits(), plain_delta.to_bits(), "pagerank_power");

    // pagerank (CG route): plain vs _budgeted(unlimited).
    let plain = pagerank(g, 0.2, &seed).unwrap();
    let budgeted = converged(
        pagerank_budgeted(g, 0.2, &seed, &Budget::unlimited()).unwrap(),
        "pagerank_budgeted",
    );
    assert_eq!(bits(&plain), bits(&budgeted), "pagerank budgeted drifted");

    // heat_kernel_chebyshev: plain vs _budgeted(unlimited).
    let plain = heat_kernel_chebyshev(g, 2.0, &seed, 24).unwrap();
    let budgeted = converged(
        heat_kernel_chebyshev_budgeted(g, 2.0, &seed, 24, &Budget::unlimited()).unwrap(),
        "heat_kernel_chebyshev_budgeted",
    );
    assert_eq!(bits(&plain), bits(&budgeted), "heat_kernel budgeted");
}

fn check_flow(g: &Graph) {
    // A small directed network derived from the graph; rebuilt fresh
    // for every call because max-flow mutates residual capacities.
    let build = || {
        let mut net = FlowNetwork::new(g.n());
        for u in 0..g.n() as NodeId {
            for (v, w) in g.neighbors(u) {
                net.add_arc(u as usize, v as usize, w).unwrap();
            }
        }
        net
    };
    let (s, t) = (0usize, g.n() - 1);

    let reference = converged(
        build().max_flow_ctx(s, t, &mut KernelCtx::new()).unwrap(),
        "max_flow",
    );
    let plain = build().max_flow(s, t).unwrap();
    assert_eq!(
        reference.value.to_bits(),
        plain.value.to_bits(),
        "dinic max_flow drifted from the ctx call"
    );
    assert_eq!(reference.source_side, plain.source_side, "dinic");

    // mqi: plain vs _ctx.
    let side: Vec<NodeId> = {
        let cut = spectral_bisect(g).unwrap();
        let total = g.total_volume();
        if g.volume(&cut.sweep.set) <= total / 2.0 {
            cut.sweep.set
        } else {
            g.complement(&cut.sweep.set)
        }
    };
    let reference = converged(mqi_ctx(g, &side, &mut KernelCtx::new()).unwrap(), "mqi");
    let plain = mqi(g, &side).unwrap();
    assert_eq!(reference.set, plain.set, "mqi");
    assert_eq!(
        reference.conductance.to_bits(),
        plain.conductance.to_bits(),
        "mqi"
    );
    assert_eq!(reference.iterations, plain.iterations, "mqi");
}

/// The full matrix at both thread counts: parallel scheduling is
/// allowed to change *when* work happens, never *what* is computed.
#[test]
fn every_legacy_variant_matches_the_ctx_call() {
    let g = fixture();
    for threads in [1usize, 4] {
        with_threads(threads, || {
            check_linalg(&g);
            check_local(&g);
            check_spectral(&g);
            check_flow(&g);
        });
    }
}
