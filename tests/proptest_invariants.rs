//! Property-based cross-crate invariants on randomly generated graphs.

use acir::prelude::*;
use acir_graph::traversal::largest_component;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Random connected graph via ER + largest component.
fn arb_connected_graph() -> impl Strategy<Value = Graph> {
    (6usize..28, 0u64..1000)
        .prop_map(|(n, seed)| {
            let mut rng = StdRng::seed_from_u64(seed);
            // Density above the connectivity threshold most of the time.
            let p = (2.2 * (n as f64).ln() / n as f64).min(0.9);
            let g = acir_graph::gen::random::erdos_renyi_gnp(&mut rng, n, p).unwrap();
            largest_component(&g).0
        })
        .prop_filter("need >= 4 nodes", |g| g.n() >= 4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The normalized Laplacian of any graph is PSD with spectrum in
    /// \[0, 2\], and its Fiedler pair satisfies the eigen equation.
    #[test]
    fn laplacian_spectrum_in_bounds(g in arb_connected_graph()) {
        let nl = normalized_laplacian(&g);
        let eig = acir_linalg::SymEig::new(&nl.to_dense()).unwrap();
        prop_assert!(eig.eigenvalues[0] > -1e-9);
        prop_assert!(*eig.eigenvalues.last().unwrap() < 2.0 + 1e-9);
        let f = fiedler_vector(&g).unwrap();
        prop_assert!((f.rayleigh - f.lambda2).abs() < 1e-7);
    }

    /// Sweep-cut conductance always matches a direct recomputation,
    /// and satisfies the Cheeger upper bound.
    #[test]
    fn sweep_cut_is_consistent_and_cheeger_bounded(g in arb_connected_graph()) {
        let cut = spectral_bisect(&g).unwrap();
        let direct = set_conductance(&g, &cut.sweep.set);
        prop_assert!((cut.sweep.conductance - direct).abs() < 1e-9);
        prop_assert!(cut.sweep.conductance <= (2.0 * cut.lambda2).sqrt() + 1e-9);
        prop_assert!(cut.sweep.conductance >= cut.lambda2 / 2.0 - 1e-9);
    }

    /// PPR push: mass conservation, residual bound, agreement with the
    /// exact lazy PPR within ε per unit degree, and the ACL work bound.
    #[test]
    fn push_invariants(g in arb_connected_graph(), raw_seed in 0u32..1000, eps_pow in 3u32..6) {
        let seed = raw_seed % g.n() as u32;
        let eps = 10f64.powi(-(eps_pow as i32));
        let r = ppr_push(&g, &[seed], 0.15, eps).unwrap();
        let p_mass: f64 = r.vector.iter().map(|&(_, x)| x).sum();
        prop_assert!((p_mass + r.residual_mass - 1.0).abs() < 1e-9);
        let exact = acir_local::push::ppr_exact_reference(&g, &[seed], 0.15, 4000).unwrap();
        let dense = r.to_dense(g.n());
        for u in 0..g.n() {
            let err = (exact[u] - dense[u]) / g.degree(u as u32).max(1e-300);
            prop_assert!(err >= -1e-7 && err <= eps + 1e-7, "node {u}: {err}");
        }
        // The ACL work bound: each push retires α·r_u of the unit of
        // mass, and puts at least α·ε·d_u into p.
        prop_assert!(r.mass_pushed <= (1.0 + 1e-9) / 0.15, "{}", r.mass_pushed);
        let vol: f64 = r.vector.iter().map(|&(u, _)| g.degree(u)).sum();
        prop_assert!(vol <= (1.0 + 1e-9) / (eps * 0.15), "vol(supp p) {vol}");
    }

    /// MQI output is a subset of its input side and never has worse
    /// conductance.
    #[test]
    fn mqi_improves_subsets(g in arb_connected_graph(), bits in 0u64..u64::MAX) {
        let total = g.total_volume();
        let side: Vec<NodeId> = (0..g.n() as u32)
            .filter(|&u| (bits >> (u % 60)) & 1 == 1)
            .collect();
        prop_assume!(!side.is_empty());
        prop_assume!(g.volume(&side) <= total / 2.0);
        let before = conductance(&g, &side).unwrap();
        let r = mqi(&g, &side).unwrap();
        prop_assert!(r.conductance <= before + 1e-9);
        let side_set: std::collections::HashSet<_> = side.iter().collect();
        prop_assert!(r.set.iter().all(|u| side_set.contains(u)));
    }

    /// Max-flow equals min-cut capacity on random unit-capacity
    /// networks (duality, checked independently).
    #[test]
    fn maxflow_mincut_duality(g in arb_connected_graph(), s_raw in 0u32..100, t_raw in 0u32..100) {
        let n = g.n() as u32;
        let s = s_raw % n;
        let t = t_raw % n;
        prop_assume!(s != t);
        let mut net = acir_flow::FlowNetwork::new(g.n());
        for (u, v, w) in g.edges() {
            net.add_edge(u as usize, v as usize, w).unwrap();
        }
        let orig = net.clone();
        let r = net.max_flow(s as usize, t as usize).unwrap();
        // Recompute the cut across the partition on original capacities.
        let mut cut = 0.0;
        for (u, v, w) in g.edges() {
            if r.source_side[u as usize] != r.source_side[v as usize] {
                cut += w;
            }
        }
        let _ = orig;
        prop_assert!((cut - r.value).abs() < 1e-6, "cut {cut} vs flow {}", r.value);
        prop_assert!(r.source_side[s as usize]);
        prop_assert!(!r.source_side[t as usize]);
    }

    /// The heat kernel preserves probability mass and converges to the
    /// stationary distribution as t grows.
    #[test]
    fn heat_kernel_stochasticity(g in arb_connected_graph(), raw_seed in 0u32..1000) {
        let seed = raw_seed % g.n() as u32;
        // Work in the random-walk frame: D^{1/2} exp(-t·𝓛) D^{-1/2}
        // preserves 1-mass; equivalently check that the symmetric heat
        // kernel preserves the D^{1/2}-weighted inner product with the
        // trivial eigenvector.
        let out = heat_kernel_chebyshev(&g, 2.0, &Seed::Node(seed), 40).unwrap();
        let v1 = acir_spectral::trivial_eigenvector(&g);
        let before: f64 = v1[seed as usize] * 1.0;
        let after: f64 = out.iter().zip(&v1).map(|(a, b)| a * b).sum();
        prop_assert!((before - after).abs() < 1e-8);
    }

    /// Graph IO round trips: edge-list and METIS formats both
    /// reconstruct the graph exactly for arbitrary random inputs.
    #[test]
    fn io_roundtrips(g in arb_connected_graph()) {
        let mut buf = Vec::new();
        acir_graph::io::write_edge_list(&g, &mut buf).unwrap();
        prop_assert_eq!(&acir_graph::io::read_edge_list(buf.as_slice(), g.n()).unwrap(), &g);
        let mut buf = Vec::new();
        acir_graph::io::write_metis(&g, &mut buf).unwrap();
        prop_assert_eq!(&acir_graph::io::read_metis(buf.as_slice()).unwrap(), &g);
        let data = acir_graph::io::GraphData::from(&g);
        prop_assert_eq!(&data.to_graph().unwrap(), &g);
    }

    /// The sparse heat-kernel route (Chebyshev recurrence) agrees with
    /// the exact dense spectral route (via SymEig) on arbitrary graphs.
    #[test]
    fn heat_kernel_routes_agree_on_random_graphs(
        g in arb_connected_graph(),
        t_raw in 1u32..40,
        seed_raw in 0u32..1000,
    ) {
        let t = t_raw as f64 * 0.1;
        let seed = seed_raw % g.n() as u32;
        let n = g.n();
        let nl = normalized_laplacian(&g);
        let mut s = vec![0.0; n];
        s[seed as usize] = 1.0;
        // Dense spectral route.
        let eig = acir_linalg::SymEig::new(&nl.to_dense()).unwrap();
        let h = eig.matrix_function(|lam| (-t * lam).exp());
        let mut dense = vec![0.0; n];
        h.gemv(1.0, &s, 0.0, &mut dense);
        // Chebyshev route.
        let cheb = heat_kernel_chebyshev(&g, t, &Seed::Node(seed), 50).unwrap();
        prop_assert!(acir_linalg::vector::dist2(&dense, &cheb) < 1e-8);
    }

    /// Whisker extraction invariants on arbitrary graphs: each whisker's
    /// conductance matches the direct computation, whisker node counts
    /// match the independent shaving census, and whiskers are disjoint.
    #[test]
    fn whisker_invariants(g in arb_connected_graph()) {
        let ws = acir_partition::whisker::whiskers(&g).unwrap();
        let mut seen = std::collections::HashSet::new();
        let mut total = 0usize;
        for w in &ws {
            for &u in &w.nodes {
                prop_assert!(seen.insert(u), "whiskers overlap at node {u}");
            }
            total += w.nodes.len();
            let direct = conductance(&g, &w.nodes).unwrap();
            prop_assert!((w.conductance() - direct).abs() < 1e-9);
        }
        let (census, _) = acir_graph::stats::whisker_census(&g);
        if g.m() + 1 == g.n() {
            // A tree has no 2-core: the census shaves everything but
            // there are no whiskers *of* anything (documented behavior).
            prop_assert_eq!(total, 0);
        } else {
            prop_assert_eq!(total, census);
        }
    }

    /// The regularized SDP optimum always lies between the trivial
    /// bounds: λ₂ ≤ Tr(𝓛X*) ≤ mean(λ).
    #[test]
    fn sdp_objective_bounds(g in arb_connected_graph(), eta_pow in -2i32..2) {
        let sp = SpectralProblem::new(&g).unwrap();
        let eta = 10f64.powi(eta_pow);
        for reg in [Regularizer::Entropy, Regularizer::LogDet, Regularizer::PNorm(1.5)] {
            let sol = solve_regularized_sdp(&sp, reg, eta).unwrap();
            let mean = sp.lambda.iter().sum::<f64>() / sp.lambda.len() as f64;
            prop_assert!(sol.linear_objective >= sp.lambda2() - 1e-9);
            prop_assert!(sol.linear_objective <= mean + 1e-9,
                "{reg:?}: {} > {mean}", sol.linear_objective);
        }
    }
}

/// `I + 𝓛`: a strictly positive-definite system for exercising CG.
struct ShiftPlusIdentity<'a>(&'a dyn acir_linalg::LinOp);

impl acir_linalg::LinOp for ShiftPlusIdentity<'_> {
    fn dim(&self) -> usize {
        self.0.dim()
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.0.apply(x, y);
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi += xi;
        }
    }
}

// Fault-injection and resilience invariants: the runtime's structural
// guarantees, checked property-style across random graphs, fault
// onsets, and budgets.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Total NaN injection after a few clean operator applies: every
    /// budgeted linear-algebra kernel returns a structured outcome
    /// whose usable value (if any) is fully finite — a poisoned
    /// `Converged` is never produced — and a divergence always carries
    /// a non-empty event trail.
    #[test]
    fn nan_injection_never_poisons_outcomes(
        g in arb_connected_graph(),
        onset in 0u64..4,
        fault_seed in 0u64..1000,
    ) {
        let n = g.n();
        let nl = normalized_laplacian(&g);
        let cfg = acir_runtime::FaultConfig::nans(1.0)
            .after_clean_applies(onset)
            .with_seed(fault_seed);
        let mut v0 = vec![0.0; n];
        v0[0] = 1.0;
        v0[n - 1] += 0.5;

        // Power method.
        let faulty = acir_linalg::FaultyOp::new(&nl, cfg);
        let opts = acir_linalg::PowerOptions { max_iters: 50, tol: 1e-12, deflate: vec![] };
        let out = acir_linalg::power_method_budgeted(&faulty, &v0, &opts, &Budget::unlimited()).unwrap();
        match out.value() {
            Some(r) => {
                prop_assert!(r.eigenvalue.is_finite());
                prop_assert!(r.eigenvector.iter().all(|x| x.is_finite()));
            }
            None => prop_assert!(!out.diagnostics().events.is_empty()),
        }

        // CG on the strictly SPD system I + 𝓛.
        let spd = ShiftPlusIdentity(&nl);
        let faulty = acir_linalg::FaultyOp::new(&spd, cfg);
        let out = acir_linalg::cg_budgeted(
            &faulty, &v0, &vec![0.0; n], &acir_linalg::CgOptions::default(), &Budget::iterations(60),
        ).unwrap();
        match out.value() {
            Some(r) => prop_assert!(r.x.iter().all(|x| x.is_finite())),
            None => prop_assert!(!out.diagnostics().events.is_empty()),
        }

        // Thick-restart Lanczos: a poisoned operator is reported, never
        // certified. Two pairs take at least four applies (two Krylov
        // steps, two residual checks) and at most three are clean.
        let faulty = acir_linalg::FaultyOp::new(&nl, cfg);
        let out = acir_linalg::lanczos::smallest_eigenpairs_restarted(&faulty, 2, &[], 1e-8);
        let reported = matches!(
            out,
            Err(acir_linalg::LinalgError::NotConverged { residual, .. }) if residual.is_nan()
        );
        prop_assert!(reported, "{out:?}");

        // Chebyshev heat kernel.
        let faulty = acir_linalg::FaultyOp::new(&nl, cfg);
        let out = acir_linalg::chebyshev::cheb_heat_kernel_budgeted(
            &faulty, 1.5, &v0, 2.0, 30, &Budget::unlimited(),
        ).unwrap();
        match out.value() {
            Some(r) => prop_assert!(r.iter().all(|x| x.is_finite())),
            None => prop_assert!(!out.diagnostics().events.is_empty()),
        }
    }

    /// Wall-clock deadlines bind: an otherwise-endless power iteration
    /// under `Budget::deadline(d)` returns promptly after `d`, reports
    /// exhaustion on the deadline axis, and still hands back a finite
    /// best-so-far iterate.
    #[test]
    fn deadlines_bind_within_tolerance(g in arb_connected_graph(), ms in 0u64..20) {
        let nl = normalized_laplacian(&g);
        let v0 = vec![1.0; g.n()];
        // tol = 0 means the tolerance can never be met: only the
        // deadline can stop this run.
        let opts = acir_linalg::PowerOptions { max_iters: usize::MAX, tol: 0.0, deflate: vec![] };
        let budget = Budget::deadline(std::time::Duration::from_millis(ms));
        let t0 = std::time::Instant::now();
        let out = acir_linalg::power_method_budgeted(&nl, &v0, &opts, &budget).unwrap();
        let elapsed = t0.elapsed();
        prop_assert!(
            matches!(
                out,
                SolverOutcome::BudgetExhausted { exhausted: acir_runtime::Exhaustion::Deadline, .. }
            ),
            "expected deadline exhaustion, got converged={} usable={}",
            out.is_converged(),
            out.is_usable()
        );
        let r = out.value().expect("deadline exhaustion keeps best-so-far");
        prop_assert!(r.eigenvalue.is_finite());
        prop_assert!(
            elapsed < std::time::Duration::from_millis(ms + 400),
            "took {elapsed:?} against a {ms}ms deadline"
        );
    }

    /// Truncated PPR push at any work budget: the partial vector plus
    /// the certificate's residual mass account for all probability
    /// mass, so the certified error bound is trustworthy.
    #[test]
    fn ppr_budget_certificate_accounts_for_all_mass(
        g in arb_connected_graph(),
        raw_seed in 0u32..1000,
        work in 1u64..40,
    ) {
        let seed = raw_seed % g.n() as u32;
        let mut ctx = KernelCtx::budgeted("local.ppr_push", &Budget::work(work))
            .with_guard(GuardConfig::contamination_only());
        let out = ppr_push_ctx(&g, &[seed], 0.15, 1e-7, &mut ctx).unwrap();
        prop_assert!(out.is_usable());
        let r = out.value().expect("usable");
        let p_mass: f64 = r.vector.iter().map(|&(_, x)| x).sum();
        prop_assert!((p_mass + r.residual_mass - 1.0).abs() < 1e-9);
        if let Some(Certificate::ResidualMass { remaining, per_degree_bound }) = out.certificate() {
            prop_assert!((remaining - r.residual_mass).abs() < 1e-9);
            prop_assert!(*remaining >= -1e-12);
            prop_assert!(*per_degree_bound >= 0.0);
        }
    }
}

// Satellite invariants for the flow layer: two independent max-flow
// implementations must agree with each other and with the cut each one
// witnesses — strong duality checked from both sides.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Dinic and push–relabel compute the same maximum flow on random
    /// weighted networks, and each solver's witnessed source side is a
    /// cut whose capacity equals its flow value (max-flow = min-cut).
    #[test]
    fn dinic_and_push_relabel_agree(
        g in arb_connected_graph(),
        s_raw in 0u32..100,
        t_raw in 0u32..100,
        cap_seed in 0u64..1000,
    ) {
        let n = g.n() as u32;
        let s = s_raw % n;
        let t = t_raw % n;
        prop_assume!(s != t);
        // Deterministic pseudo-random capacities in [0.5, 4.5].
        let cap_of = |u: u32, v: u32| -> f64 {
            let h = (u as u64)
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add((v as u64).wrapping_mul(0xBF58476D1CE4E5B9))
                .wrapping_add(cap_seed);
            0.5 + (h % 1000) as f64 / 250.0
        };
        let arcs: Vec<(u32, u32, f64)> = g
            .edges()
            .map(|(u, v, _)| (u, v, cap_of(u.min(v), u.max(v))))
            .collect();
        let mut dinic = acir_flow::FlowNetwork::new(g.n());
        let mut pr = acir_flow::PushRelabelNetwork::new(g.n());
        for &(u, v, c) in &arcs {
            dinic.add_edge(u as usize, v as usize, c).unwrap();
            pr.add_edge(u as usize, v as usize, c).unwrap();
        }
        let rd = dinic.max_flow(s as usize, t as usize).unwrap();
        let rp = pr.max_flow(s as usize, t as usize).unwrap();
        // The two algorithms agree on the optimum.
        prop_assert!(
            (rd.value - rp.value).abs() < 1e-6 * (1.0 + rd.value.abs()),
            "dinic {} vs push-relabel {}",
            rd.value,
            rp.value
        );
        // Each witnessed cut has capacity equal to its flow value,
        // recomputed on the original (undirected) capacities.
        for r in [&rd, &rp] {
            prop_assert!(r.source_side[s as usize]);
            prop_assert!(!r.source_side[t as usize]);
            let cut: f64 = arcs
                .iter()
                .filter(|&&(u, v, _)| r.source_side[u as usize] != r.source_side[v as usize])
                .map(|&(_, _, c)| c)
                .sum();
            prop_assert!(
                (cut - r.value).abs() < 1e-6 * (1.0 + r.value.abs()),
                "cut {cut} vs flow {}",
                r.value
            );
        }
    }
}
