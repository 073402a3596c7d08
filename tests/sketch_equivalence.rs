//! The sketch-splice contract (DESIGN.md §13): a spliced PPR answer is
//! *equivalent* to a direct `ppr_push` at the same ε — not bit-equal,
//! but interchangeable under the ACL certificate. Concretely, for every
//! random (graph, seeds, α, ε, K) drawn below:
//!
//! * the spliced answer's certified `per_degree_bound` never exceeds
//!   the requested ε, and the answer sits within that bound of a
//!   near-exact reference push, node by node — the ACL invariant
//!   `residual(v) ≤ ε·deg(v)` measured rather than trusted;
//! * spliced and direct answers therefore agree within the *sum* of
//!   their certificates (triangle inequality through the exact vector);
//! * probability mass is conserved: estimate mass + certified residual
//!   mass = 1;
//! * the whole pipeline — parallel hub-sketch build plus splice — is
//!   bit-identical at `ACIR_THREADS` 1 and 4;
//! * `K = 0` (no sketches) degrades to the pure push loop bit-exactly.
//!
//! Deterministic companions pin the degenerate corners: seed-on-a-hub
//! (zero online pushes), empty/mismatched sketch stores (bit-exact
//! pure-push fallback), and a hub the diffusion cannot reach (splice
//! runs, harvests nothing, still certifies).

use acir_graph::gen::random::{barabasi_albert, forest_fire};
use acir_graph::traversal::largest_component;
use acir_graph::{Graph, NodeId};
use acir_local::{build_hub_sketches, ppr_push, ppr_push_spliced, PushResult, SketchSet};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const THREADS_ENV: &str = acir_exec::THREADS_ENV;

#[derive(Debug, Clone)]
struct Case {
    /// Power-law generator: Barabási–Albert or forest fire.
    ba: bool,
    n: usize,
    gen_seed: u64,
    seed_sels: Vec<u32>,
    alpha: f64,
    epsilon: f64,
    hubs: usize,
}

fn arb_case() -> impl Strategy<Value = Case> {
    (
        30usize..90,
        0u64..1_000_000,
        collection::vec(0u32..1024, 1..4),
        0u8..3,
        0u8..2,
        0usize..13,
    )
        .prop_map(|(n, gen_seed, seed_sels, a, e, hubs)| Case {
            ba: gen_seed % 2 == 0,
            n,
            gen_seed,
            seed_sels,
            alpha: [0.05, 0.1, 0.2][a as usize],
            epsilon: [1e-2, 3e-3][e as usize],
            hubs,
        })
}

fn build_graph(c: &Case) -> Graph {
    let mut rng = StdRng::seed_from_u64(c.gen_seed);
    let g = if c.ba {
        barabasi_albert(&mut rng, c.n, 3).unwrap()
    } else {
        forest_fire(&mut rng, c.n, 0.3).unwrap()
    };
    // Forest fire can leave isolated vertices; push seeds must have
    // outgoing mass somewhere, so test on the giant component.
    largest_component(&g).0
}

fn bits(v: &[(NodeId, f64)]) -> Vec<(NodeId, u64)> {
    v.iter().map(|&(u, x)| (u, x.to_bits())).collect()
}

fn dense(n: usize, v: &[(NodeId, f64)]) -> Vec<f64> {
    let mut out = vec![0.0; n];
    for &(u, x) in v {
        out[u as usize] += x;
    }
    out
}

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The equivalence matrix over random power-law graphs × seeds ×
    /// α × ε × hub counts, checked at 1 and 4 threads. (All env
    /// flipping lives in this one test: tests in a binary run
    /// concurrently, and a second test racing on the process-global
    /// thread knob would corrupt exactly what is asserted here.)
    #[test]
    fn spliced_answers_are_equivalent_to_direct_push(c in arb_case()) {
        let g = build_graph(&c);
        let n = g.n();
        let seeds: Vec<NodeId> = c.seed_sels.iter().map(|&s| s % n as u32).collect();
        let eps_sketch = c.epsilon / 10.0;
        let eps_ref = c.epsilon / 50.0;

        let run = || {
            let set = build_hub_sketches(&g, c.hubs, c.alpha, eps_sketch).unwrap();
            let spliced = ppr_push_spliced(&g, &seeds, c.alpha, c.epsilon, &set).unwrap();
            (set, spliced)
        };
        let (set, spliced) = with_threads(1, run);
        let (set4, spliced4) = with_threads(4, run);

        // Thread-count invariance: the sketch build (parallel over
        // hubs) and the splice must be bit-identical end to end.
        for (a, b) in set.sketches().iter().zip(set4.sketches()) {
            prop_assert_eq!(a.hub, b.hub);
            prop_assert_eq!(bits(&a.estimate), bits(&b.estimate));
            prop_assert_eq!(bits(&a.residual), bits(&b.residual));
        }
        prop_assert_eq!(bits(&spliced.vector), bits(&spliced4.vector));
        prop_assert_eq!(spliced.per_degree_bound.to_bits(), spliced4.per_degree_bound.to_bits());

        // The certificate never weakens past the requested ε.
        prop_assert!(spliced.per_degree_bound <= c.epsilon * (1.0 + 1e-12));
        // Mass conservation: estimate + certified residual = 1.
        let p_mass: f64 = spliced.vector.iter().map(|&(_, x)| x).sum();
        prop_assert!(
            (p_mass + spliced.residual_mass - 1.0).abs() < 1e-9,
            "mass leak: {} + {} ≠ 1", p_mass, spliced.residual_mass
        );
        // Each online push retires α·r_u of the unit of mass.
        prop_assert!(spliced.mass_pushed <= (1.0 + 1e-9) / c.alpha);

        // ACL invariant, measured: against a near-exact reference,
        // every node's error is within the certified per-degree bound
        // (plus the reference's own slack).
        let direct = ppr_push(&g, &seeds, c.alpha, c.epsilon).unwrap();
        let reference = ppr_push(&g, &seeds, c.alpha, eps_ref).unwrap();
        let ds = dense(n, &spliced.vector);
        let dd = dense(n, &direct.vector);
        let dr = dense(n, &reference.vector);
        for u in 0..n {
            let deg = g.degree(u as NodeId);
            let slack = (spliced.per_degree_bound + eps_ref) * deg + 1e-12;
            prop_assert!(
                (ds[u] - dr[u]).abs() <= slack,
                "node {}: spliced {} vs reference {} exceeds certified {}",
                u, ds[u], dr[u], slack
            );
            // Direct push honors the same invariant, so spliced and
            // direct agree within the sum of their certificates.
            let both = (spliced.per_degree_bound + c.epsilon) * deg + 1e-12;
            prop_assert!((ds[u] - dd[u]).abs() <= both);
        }

        // K = 0 (and any empty set) is the pure push loop, bit-exactly.
        if c.hubs == 0 {
            prop_assert!(!spliced.used_sketches);
            prop_assert_eq!(bits(&spliced.vector), bits(&direct.vector));
            prop_assert_eq!(spliced.pushes, direct.pushes);
        }
    }
}

/// Querying from a sketched hub needs no online pushes at all: the
/// whole answer is the stored sketch, rescaled.
#[test]
fn seed_on_a_hub_short_circuits() {
    let g = build_graph(&Case {
        ba: true,
        n: 80,
        gen_seed: 7,
        seed_sels: vec![],
        alpha: 0.1,
        epsilon: 1e-2,
        hubs: 0,
    });
    let hub = (0..g.n() as NodeId)
        .max_by(|&a, &b| g.degree(a).total_cmp(&g.degree(b)))
        .unwrap();
    let set = build_hub_sketches(&g, 1, 0.1, 1e-4).unwrap();
    assert!(set.covers(hub), "top-degree node must be the first hub");
    let s = ppr_push_spliced(&g, &[hub], 0.1, 1e-2, &set).unwrap();
    assert!(s.used_sketches);
    assert_eq!(s.pushes, 0, "seed-on-hub must not push");
    assert_eq!(s.hubs_spliced, 1);
    assert!((s.hub_mass - 1.0).abs() < 1e-12);
    assert!(s.per_degree_bound <= 1e-2);
}

/// Empty stores and stores built for the wrong (α, ε) fall back to the
/// pure push loop, bit-identical to `ppr_push` — never a weaker answer.
#[test]
fn useless_stores_fall_back_bit_identically() {
    let g = build_graph(&Case {
        ba: false,
        n: 70,
        gen_seed: 11,
        seed_sels: vec![],
        alpha: 0.1,
        epsilon: 1e-2,
        hubs: 0,
    });
    let direct = ppr_push(&g, &[3], 0.1, 1e-2).unwrap();
    let check = |set: &SketchSet| {
        let s = ppr_push_spliced(&g, &[3], 0.1, 1e-2, set).unwrap();
        assert!(!s.used_sketches);
        let sp: PushResult = s.into();
        assert_eq!(bits(&sp.vector), bits(&direct.vector));
        assert_eq!(sp.pushes, direct.pushes);
        assert_eq!(sp.mass_pushed.to_bits(), direct.mass_pushed.to_bits());
    };
    check(&SketchSet::empty());
    // α mismatch.
    check(&build_hub_sketches(&g, 4, 0.2, 1e-4).unwrap());
    // ε_sketch not finer than the query ε.
    check(&build_hub_sketches(&g, 4, 0.1, 1e-2).unwrap());
}

/// A hub the diffusion cannot reach (disconnected component) gives zero
/// hub coverage at runtime: the splice runs, harvests nothing, and the
/// answer still certifies against the requested ε.
#[test]
fn unreachable_hubs_harvest_nothing_but_still_certify() {
    // Two components: a triangle (seed side) and a star on 5 nodes
    // whose center out-degrees everything on the seed side, so the
    // star center is the unique top-degree hub.
    let mut pairs = vec![(0u32, 1u32), (1, 2), (0, 2)];
    pairs.extend((4..8).map(|v| (3u32, v)));
    let g = Graph::from_pairs(8, pairs).unwrap();
    let set = build_hub_sketches(&g, 1, 0.1, 1e-4).unwrap();
    assert!(set.covers(3));
    let s = ppr_push_spliced(&g, &[0], 0.1, 1e-2, &set).unwrap();
    assert!(s.used_sketches);
    assert_eq!(s.hubs_spliced, 0, "no residual can park on node 3");
    assert_eq!(s.hub_mass, 0.0);
    assert!(s.per_degree_bound <= 1e-2);
    let direct = ppr_push(&g, &[0], 0.1, 1e-2).unwrap();
    let ds = dense(8, &s.vector);
    let dd = dense(8, &direct.vector);
    for u in 0..8 {
        assert!((ds[u] - dd[u]).abs() <= 2e-2 * g.degree(u as NodeId) + 1e-12);
    }
}
