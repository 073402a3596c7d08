//! Workspace pooling must be invisible: a kernel's Nth call through a
//! warm pool (or a caller-held workspace) returns bit-identical output
//! to its first call on a cold one. The pools hand out epoch-stamped
//! or re-zeroed scratch, so no state can leak between calls; this
//! suite is the executable statement of that contract (DESIGN.md §9).

use acir::prelude::*;
use acir_graph::gen::community::{social_network, SocialNetworkParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fixture() -> Graph {
    let pc = social_network(
        &mut StdRng::seed_from_u64(23),
        &SocialNetworkParams {
            core_nodes: 250,
            core_attach: 3,
            communities: 5,
            community_size_range: (5, 30),
            whiskers: 8,
            whisker_max_len: 4,
            ..Default::default()
        },
    )
    .unwrap();
    acir_graph::traversal::largest_component(&pc.graph).0
}

/// Set `ACIR_THREADS`, run, unset. All env-flipping assertions live in
/// the single test below — tests in one binary run concurrently, and a
/// second test racing on the same process-global variable would
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

#[test]
fn repeated_calls_through_warm_pools_are_bit_identical() {
    let g = fixture();
    let seed: NodeId = 1;

    for threads in [1usize, 4] {
        with_threads(threads, || {
            // ppr_push: pooled scratch, fresh output each call.
            let first = ppr_push(&g, &[seed, 5], 0.05, 1e-5).unwrap();
            for _ in 0..4 {
                let again = ppr_push(&g, &[seed, 5], 0.05, 1e-5).unwrap();
                assert_eq!(first.vector, again.vector, "ppr_push drifted on reuse");
                assert_eq!(first.pushes, again.pushes);
                assert_eq!(first.residual_mass.to_bits(), again.residual_mass.to_bits());
            }

            // ppr_push_ws: caller-held workspace AND reused output buffer.
            let mut ws = PushWorkspace::default();
            let mut out = PushResult::empty();
            for _ in 0..4 {
                ppr_push_ws(&g, &[seed, 5], 0.05, 1e-5, &mut ws, &mut out).unwrap();
                assert_eq!(first.vector, out.vector, "ppr_push_ws drifted on reuse");
                assert_eq!(first.pushes, out.pushes);
            }

            // hk_relax: pooled Taylor-weight and residual scratch.
            let h_first = hk_relax(&g, seed, 3.0, 1e-4, 1e-8).unwrap();
            for _ in 0..3 {
                let h = hk_relax(&g, seed, 3.0, 1e-4, 1e-8).unwrap();
                assert_eq!(h_first.vector, h.vector, "hk_relax drifted on reuse");
                assert_eq!(h_first.terms, h.terms);
            }

            // nibble: pooled truncated-walk scratch.
            let n_first = nibble(&g, seed, 20, 1e-4).unwrap();
            for _ in 0..3 {
                let n = nibble(&g, seed, 20, 1e-4).unwrap();
                assert_eq!(n_first.set, n.set, "nibble drifted on reuse");
                assert_eq!(n_first.conductance.to_bits(), n.conductance.to_bits());
                assert_eq!(n_first.vector, n.vector);
            }

            // Sparse sweep: pooled membership set, incremental cut/vol.
            let s_first = sweep_cut_sparse(&g, &first.vector);
            for _ in 0..3 {
                let s = sweep_cut_sparse(&g, &first.vector);
                assert_eq!(s_first.set, s.set, "sweep_cut_sparse drifted on reuse");
                assert_eq!(s_first.conductance.to_bits(), s.conductance.to_bits());
                assert_eq!(s_first.profile, s.profile);
            }
        });
    }
}
