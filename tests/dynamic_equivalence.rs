//! The dynamic-graph contract (DESIGN.md §14): after an arbitrary
//! stream of edge inserts/deletes/reweights, *repaired* state is
//! equivalent to *from-scratch* state — not bit-equal, but
//! interchangeable under the ACL certificate. For every random
//! (graph, op stream, seeds, α, ε, K) drawn below:
//!
//! * `DeltaGraph::compact()` is **bit-identical** to building a fresh
//!   CSR from the merged edge list, and the overlay's merged view
//!   (neighbors, degrees, volume) is bit-identical to the compacted
//!   graph — the overlay is an honest CSR proxy;
//! * the repaired PPR state satisfies the ε·deg invariant *measured*
//!   (`per_degree_bound < ε`), conserves mass exactly, and sits within
//!   certificate distance of a near-exact from-scratch reference on
//!   the new graph, node by node;
//! * repaired hub sketches agree with freshly rebuilt sketches within
//!   the sum of their certificates, hub by hub, node by node;
//! * the whole repair pipeline (parallel over sketches) is
//!   bit-identical at `ACIR_THREADS` 1 and 4;
//! * an op stream that nets out to nothing returns the prior state bit
//!   for bit, with zero pushes.
//!
//! A deterministic work gate pins why repair exists: on single-edge
//! deltas it does at least 10× less push work than rebuilding.
//!
//! A deterministic engine-level companion drives a delta stream
//! through `Engine::update_graph_delta` and checks that every cached
//! answer served after repair carries a measured
//! `Certificate::ResidualMass` bound ≤ ε and tracks a from-scratch
//! push on the mutated graph.

use acir_graph::gen::random::{barabasi_albert, forest_fire, rmat};
use acir_graph::traversal::largest_component;
use acir_graph::{DeltaGraph, EdgeOp, Graph, NodeId};
use acir_local::{
    build_hub_sketches, ppr_push, repair::ppr_repair, repair::RepairRequest,
    repair::DEFAULT_REPAIR_MASS_THRESHOLD, repair_hub_sketches,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const THREADS_ENV: &str = acir_exec::THREADS_ENV;

#[derive(Debug, Clone)]
struct Case {
    ba: bool,
    n: usize,
    gen_seed: u64,
    /// Raw op stream: `(kind, endpoint selector a, endpoint selector
    /// b, weight selector)`; mapped onto valid edges below.
    ops: Vec<(u8, u32, u32, u8)>,
    seed_sels: Vec<u32>,
    alpha: f64,
    epsilon: f64,
    hubs: usize,
}

fn arb_case() -> impl Strategy<Value = Case> {
    (
        30usize..90,
        0u64..1_000_000,
        collection::vec((0u8..6, 0u32..1024, 0u32..1024, 0u8..4), 1..10),
        collection::vec(0u32..1024, 1..4),
        (0u8..3, 0u8..2, 0usize..9),
    )
        .prop_map(|(n, gen_seed, ops, seed_sels, (a, e, hubs))| Case {
            ba: gen_seed % 2 == 0,
            n,
            gen_seed,
            ops,
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
    largest_component(&g).0
}

/// Map the raw op stream onto the graph, keeping every node's degree
/// strictly positive (a delete that would strand an endpoint is
/// skipped — stranded nodes are a separate, deterministic corner).
fn apply_ops(dg: &mut DeltaGraph<'_>, c: &Case) {
    let n = dg.n() as u32;
    for &(kind, a, b, wsel) in &c.ops {
        let (u, v) = (a % n, b % n);
        if u == v {
            continue;
        }
        if kind % 3 == 2 {
            let w = dg.edge_weight(u, v);
            if w > 0.0 && dg.degree(u) - w > 0.5 && dg.degree(v) - w > 0.5 {
                dg.delete_edge(u, v).unwrap();
            }
        } else {
            let w = [0.5, 1.0, 2.0, 3.0][wsel as usize];
            dg.insert_edge(u, v, w).unwrap();
        }
    }
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

    /// The repair-equivalence matrix over random power-law graphs ×
    /// random insert/delete/reweight streams × seeds × α × ε × hub
    /// counts, checked at 1 and 4 threads. (All env flipping lives in
    /// this one test — see sketch_equivalence.rs for why.)
    #[test]
    fn repaired_state_is_equivalent_to_from_scratch(c in arb_case()) {
        let g_old = build_graph(&c);
        let n = g_old.n();
        let seeds: Vec<NodeId> = c.seed_sels.iter().map(|&s| s % n as u32).collect();
        let prior = ppr_push(&g_old, &seeds, c.alpha, c.epsilon).unwrap();

        let mut dg = DeltaGraph::new(&g_old);
        apply_ops(&mut dg, &c);
        let delta = dg.net_delta();
        let (g_new, _relabel) = dg.compact().unwrap();

        // --- compact() is bit-identical to a fresh CSR build, and the
        // overlay's merged view is bit-identical to the compacted CSR.
        let merged_edges: Vec<(NodeId, NodeId, f64)> = (0..n as NodeId)
            .flat_map(|u| {
                dg.neighbors(u)
                    .filter(move |&(v, _)| v >= u)
                    .map(move |(v, w)| (u, v, w))
                    .collect::<Vec<_>>()
            })
            .collect();
        let rebuilt = Graph::from_edges(n, merged_edges).unwrap();
        for u in 0..n as NodeId {
            let a: Vec<(NodeId, u64)> =
                g_new.neighbors(u).map(|(v, w)| (v, w.to_bits())).collect();
            let b: Vec<(NodeId, u64)> =
                rebuilt.neighbors(u).map(|(v, w)| (v, w.to_bits())).collect();
            let o: Vec<(NodeId, u64)> =
                dg.neighbors(u).map(|(v, w)| (v, w.to_bits())).collect();
            prop_assert_eq!(&a, &b, "compact vs from_edges row {}", u);
            prop_assert_eq!(&a, &o, "compact vs overlay row {}", u);
            prop_assert_eq!(g_new.degree(u).to_bits(), dg.degree(u).to_bits());
        }
        prop_assert_eq!(g_new.total_volume().to_bits(), dg.total_volume().to_bits());

        // --- residual repair vs from-scratch on the new graph.
        let req = RepairRequest {
            seeds: &seeds,
            estimate: &prior.vector,
            residual: &prior.residuals,
            delta: &delta,
            alpha: c.alpha,
            epsilon: c.epsilon,
            mass_threshold: DEFAULT_REPAIR_MASS_THRESHOLD,
        };
        let rr = ppr_repair(&g_new, &req).unwrap();

        if delta.is_empty() {
            // Ops that net out return the prior bit for bit.
            prop_assert_eq!(rr.pushes, 0);
            prop_assert_eq!(bits(&rr.vector), bits(&prior.vector));
            prop_assert_eq!(bits(&rr.residuals), bits(&prior.residuals));
            return Ok(());
        }

        // Invariant measured, not trusted.
        prop_assert!(
            rr.per_degree_bound < c.epsilon,
            "repaired bound {} ≥ ε {}", rr.per_degree_bound, c.epsilon
        );
        // Mass conservation survives correction + push exactly.
        let p_mass: f64 = rr.vector.iter().map(|&(_, x)| x).sum();
        prop_assert!(
            (p_mass + rr.residual_mass - 1.0).abs() < 1e-9,
            "mass leak: {} + {} ≠ 1", p_mass, rr.residual_mass
        );
        // Node-by-node against a near-exact from-scratch reference.
        let eps_ref = c.epsilon / 50.0;
        let reference = ppr_push(&g_new, &seeds, c.alpha, eps_ref).unwrap();
        let drep = dense(n, &rr.vector);
        let dref = dense(n, &reference.vector);
        for u in 0..n {
            let slack = (c.epsilon + eps_ref) * g_new.degree(u as NodeId) + 1e-12;
            prop_assert!(
                (drep[u] - dref[u]).abs() <= slack,
                "node {}: repaired {} vs reference {} exceeds {}",
                u, drep[u], dref[u], slack
            );
        }

        // --- sketch repair vs rebuild, and thread-count invariance of
        // the whole (parallel) repair pipeline.
        let eps_sketch = c.epsilon / 10.0;
        let run = || {
            let set = build_hub_sketches(&g_old, c.hubs, c.alpha, eps_sketch).unwrap();
            repair_hub_sketches(&g_new, &set, &delta).unwrap()
        };
        let rep = with_threads(1, run);
        let rep4 = with_threads(4, run);
        for (a, b) in rep.set.sketches().iter().zip(rep4.set.sketches()) {
            prop_assert_eq!(a.hub, b.hub);
            prop_assert_eq!(bits(&a.estimate), bits(&b.estimate));
            prop_assert_eq!(bits(&a.residual), bits(&b.residual));
        }
        prop_assert_eq!(rep.pushes, rep4.pushes);

        // Hub-by-hub against a from-scratch push on the new graph.
        // (The repaired set keeps its *old* hub selection — a fresh
        // `build_hub_sketches` would re-rank hubs by post-delta
        // degrees — so the contract is per-hub: each repaired sketch
        // is a valid (α, ε_sketch) sketch of its own hub.)
        for rs in rep.set.sketches() {
            if g_new.degree(rs.hub) <= 0.0 {
                prop_assert!(rs.estimate.is_empty() && rs.residual.is_empty());
                continue;
            }
            let fresh = ppr_push(&g_new, &[rs.hub], c.alpha, eps_sketch).unwrap();
            let dr = dense(n, &rs.estimate);
            let df = dense(n, &fresh.vector);
            for u in 0..n {
                let slack = 2.0 * eps_sketch * g_new.degree(u as NodeId) + 1e-12;
                prop_assert!(
                    (dr[u] - df[u]).abs() <= slack,
                    "hub {} node {}: repaired {} vs rebuilt {}",
                    rs.hub, u, dr[u], df[u]
                );
            }
        }
    }
}

/// The point of repair (DESIGN.md §14): a single-edge delta costs what
/// it changed, not what exists. On two 3–4k-node power-law graphs, 64
/// hub sketches and 8 cached answers are carried across 4 single-edge
/// deltas; repairing them must take at least 10× fewer pushes than
/// rebuilding them. Push counts are deterministic at any thread count.
#[test]
fn repair_does_an_order_of_magnitude_less_push_work_than_rebuild() {
    let (alpha, epsilon) = (0.05, 1e-5);
    let eps_sketch = epsilon / 10.0;
    let (hubs, queries, deltas) = (64, 8, 4);

    let mut rng = StdRng::seed_from_u64(0xAC1D ^ 0xd17a);
    let ff = largest_component(&forest_fire(&mut rng, 3_000, 0.37).unwrap()).0;
    let rm = largest_component(&rmat(&mut rng, 12, 8, (0.57, 0.19, 0.19, 0.05)).unwrap()).0;
    for (name, mut g) in [("forest_fire", ff), ("rmat", rm)] {
        let n = g.n();
        let seeds: Vec<NodeId> = (0..queries)
            .map(|i| ((i * n) / queries) as NodeId)
            .collect();
        let mut set = build_hub_sketches(&g, hubs, alpha, eps_sketch).unwrap();
        let mut answers: Vec<_> = seeds
            .iter()
            .map(|&s| ppr_push(&g, &[s], alpha, epsilon).unwrap())
            .map(|r| (r.vector, r.residuals))
            .collect();

        let (mut repair, mut rebuild) = (0usize, 0usize);
        for d in 0..deltas {
            let u = ((d * 7919 + 13) % n) as NodeId;
            let v = ((d * 104_729 + 2) % n) as NodeId;
            let mut dg = DeltaGraph::new(&g);
            dg.insert_edge(u, v, 1.0 + (d % 3) as f64 * 0.5).unwrap();
            let delta = dg.net_delta();
            let (g_new, _relabel) = dg.compact().unwrap();

            let rep = repair_hub_sketches(&g_new, &set, &delta).unwrap();
            repair += rep.pushes;
            rebuild += build_hub_sketches(&g_new, hubs, alpha, eps_sketch)
                .unwrap()
                .build_pushes();
            set = rep.set;

            for (seed, (est, res)) in seeds.iter().zip(answers.iter_mut()) {
                let req = RepairRequest {
                    seeds: std::slice::from_ref(seed),
                    estimate: est,
                    residual: res,
                    delta: &delta,
                    alpha,
                    epsilon,
                    mass_threshold: DEFAULT_REPAIR_MASS_THRESHOLD,
                };
                let rr = ppr_repair(&g_new, &req).unwrap();
                repair += rr.pushes;
                rebuild += ppr_push(&g_new, &[*seed], alpha, epsilon).unwrap().pushes;
                (*est, *res) = (rr.vector, rr.residuals);
            }
            g = g_new;
        }
        assert!(
            rebuild >= 10 * repair.max(1),
            "{name}: repair {repair} pushes vs rebuild {rebuild} — under 10× less work"
        );
    }
}

/// Engine-level: a stream of single-edge deltas repairs cached answers
/// in place; every post-repair `Cached` response carries a *measured*
/// `ResidualMass` certificate bound ≤ ε and tracks a from-scratch push
/// on the mutated graph.
#[test]
fn engine_delta_stream_keeps_cached_answers_certified() {
    use acir::serve::{Engine, EngineConfig, Query, ResponseKind};
    use acir_runtime::Certificate;

    let g = acir_graph::gen::deterministic::barbell(10, 3).unwrap();
    let eps = 1e-2;
    let mut e = Engine::new(g, EngineConfig::default());
    let q = |s: u32| Query {
        seeds: vec![s],
        alpha: 0.1,
        epsilon: eps,
        deadline: None,
        options: Default::default(),
    };
    assert!(e.submit(q(0)).is_accepted());
    assert!(e.submit(q(15)).is_accepted());
    let rs = e.run_pending();
    assert!(rs.iter().all(|r| r.kind == ResponseKind::Full));
    assert_eq!(e.answer_cache_len(), 2);

    // Five single-edge deltas: reweights and a fresh edge, spread over
    // both cliques.
    let stream = [
        EdgeOp::Insert {
            u: 14,
            v: 20,
            weight: 3.0,
        },
        EdgeOp::Insert {
            u: 2,
            v: 5,
            weight: 0.5,
        },
        EdgeOp::Insert {
            u: 0,
            v: 22,
            weight: 1.0,
        },
        EdgeOp::Delete { u: 14, v: 20 },
        EdgeOp::Insert {
            u: 16,
            v: 18,
            weight: 2.0,
        },
    ];
    for (i, op) in stream.iter().enumerate() {
        let s = e.update_graph_delta(std::slice::from_ref(op)).unwrap();
        assert_eq!(s.epoch, i as u64 + 1);
        assert_eq!(
            s.answers_revalidated + s.answers_repaired + s.answers_dropped,
            2,
            "every cached answer is accounted for at delta {i}"
        );
        assert_eq!(s.answers_dropped, 0, "raw-push answers stay repairable");

        // Both answers serve as Cached on the new epoch, certified
        // with a measured bound, and track a from-scratch push.
        for seed in [0u32, 15] {
            assert!(e.submit(q(seed)).is_accepted());
            let r = e.run_pending().remove(0);
            assert_eq!(r.kind, ResponseKind::Cached, "seed {seed} delta {i}");
            let Certificate::ResidualMass {
                remaining,
                per_degree_bound,
            } = r.certificate
            else {
                panic!(
                    "repaired answer must carry ResidualMass, got {:?}",
                    r.certificate
                );
            };
            assert!(
                per_degree_bound <= eps,
                "measured bound {per_degree_bound} > ε"
            );
            assert!(remaining.abs() <= 1.0 + 1e-12);
            let fresh = acir_local::ppr_push(e.graph(), &[seed], 0.1, eps).unwrap();
            let got = dense(e.graph().n(), &r.cluster);
            let want = dense(e.graph().n(), &fresh.vector);
            for u in 0..e.graph().n() {
                let slack = (per_degree_bound + eps) * e.graph().degree(u as NodeId) + 1e-12;
                assert!(
                    (got[u] - want[u]).abs() <= slack,
                    "delta {i} seed {seed} node {u}: cached {} vs fresh {}",
                    got[u],
                    want[u]
                );
            }
        }
    }
}
