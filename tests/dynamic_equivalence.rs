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
//! The filter in front of the repair kernel is held to the kernel it
//! mirrors: an *undisturbed* verdict from `delta_leaves_undisturbed`
//! means `ppr_repair` is the identity on that prior (safety, random
//! cases), and a *disturbed* verdict almost always means it is not
//! (tightness, on a power-law graph with hub-adjacent deltas).
//!
//! A deterministic work gate pins why repair exists: on single-edge
//! deltas it does at least 10× less push work than rebuilding.
//!
//! A deterministic engine-level companion drives a delta stream and a
//! compaction through the engine and checks every cached answer it
//! serves against an independent exact model: the certificate bound
//! covers the residual re-derived from the served vector on the head
//! graph, and the vector sits within that bound of exact PPR.

use acir_graph::gen::random::{barabasi_albert, forest_fire, rmat};
use acir_graph::traversal::largest_component;
use acir_graph::{DeltaGraph, EdgeOp, Graph, NodeId};
use acir_local::push::ppr_exact_reference;
use acir_local::{
    build_hub_sketches, delta_endpoints, delta_leaves_undisturbed, ppr_push, repair::ppr_repair,
    repair::RepairRequest, repair::DEFAULT_REPAIR_MASS_THRESHOLD, repair_hub_sketches, PushResult,
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

/// The worst `|r_u|/d_u` of a residual on `g` — what a certificate's
/// `per_degree_bound` claims to cover.
fn measured_bound(g: &Graph, residual: &[(NodeId, f64)]) -> f64 {
    residual
        .iter()
        .filter(|&&(u, _)| g.degree(u) > 0.0)
        .map(|&(u, r)| r.abs() / g.degree(u))
        .fold(0.0, f64::max)
}

fn repair_request<'a>(
    seed: &'a NodeId,
    prior: &'a PushResult,
    delta: &'a [acir_graph::EdgeDelta],
    alpha: f64,
    epsilon: f64,
) -> RepairRequest<'a> {
    RepairRequest {
        seeds: std::slice::from_ref(seed),
        estimate: &prior.vector,
        residual: &prior.residuals,
        delta,
        alpha,
        epsilon,
        mass_threshold: DEFAULT_REPAIR_MASS_THRESHOLD,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Safety of the skip, over the same generators × op streams × α ×
    /// ε as above with every node taken as a seed in turn (so one case
    /// yields both verdicts): whenever `delta_leaves_undisturbed` says
    /// a prior can be kept, `ppr_repair` on it is the identity — the
    /// prior bit for bit, zero pushes — and the bound the caller keeps,
    /// `max(prior bound, endpoint bound)`, covers what the kernel would
    /// have measured.
    #[test]
    fn an_undisturbed_verdict_means_repair_is_the_identity(c in arb_case()) {
        let g_old = build_graph(&c);
        let mut dg = DeltaGraph::new(&g_old);
        apply_ops(&mut dg, &c);
        let delta = dg.net_delta();
        let (g_new, _relabel) = dg.compact().unwrap();
        let endpoints = delta_endpoints(&delta);

        for seed in 0..g_old.n() as NodeId {
            let prior = ppr_push(&g_old, &[seed], c.alpha, c.epsilon).unwrap();
            let Some(endpoint_bound) = delta_leaves_undisturbed(
                &g_new, &prior.vector, &prior.residuals, &endpoints, c.epsilon,
            ) else {
                continue;
            };
            let req = repair_request(&seed, &prior, &delta, c.alpha, c.epsilon);
            let rr = ppr_repair(&g_new, &req).unwrap();
            prop_assert!(rr.repaired && rr.pushes == 0 && rr.perturbation == 0.0, "seed {}", seed);
            prop_assert_eq!(bits(&rr.vector), bits(&prior.vector), "seed {}", seed);
            prop_assert_eq!(bits(&rr.residuals), bits(&prior.residuals), "seed {}", seed);
            let kept = measured_bound(&g_old, &prior.residuals).max(endpoint_bound);
            prop_assert!(endpoint_bound < c.epsilon && kept < c.epsilon);
            prop_assert!(
                rr.per_degree_bound <= kept,
                "seed {}: kernel measures {} above the kept bound {}",
                seed, rr.per_degree_bound, kept
            );
        }
    }
}

/// Tightness of the skip: the predicate is *exact*, not conservative.
/// On a power-law graph with 300 cached priors and deltas placed on
/// hub neighbourhoods — where a residual-support test flags nearly
/// every prior — a *disturbed* verdict must mean the repair really
/// changes the state: identity repairs among the disturbed stay under
/// a tenth. (A support-union predicate fails this by an order of
/// magnitude; that is the regression the gate exists for.)
#[test]
fn a_disturbed_verdict_almost_always_means_the_state_changes() {
    let (alpha, epsilon) = (0.1, 1e-4);
    let mut rng = StdRng::seed_from_u64(0xAC1D ^ 0x7167);
    let g = largest_component(&rmat(&mut rng, 12, 8, (0.57, 0.19, 0.19, 0.05)).unwrap()).0;
    let n = g.n();
    let seeds: Vec<NodeId> = (0..300).map(|i| ((i * n) / 300) as NodeId).collect();
    let priors: Vec<PushResult> = seeds
        .iter()
        .map(|&s| ppr_push(&g, &[s], alpha, epsilon).unwrap())
        .collect();
    let mut hubs: Vec<NodeId> = (0..n as NodeId).collect();
    hubs.sort_by(|&a, &b| g.degree(b).total_cmp(&g.degree(a)).then(a.cmp(&b)));

    let (mut disturbed, mut undisturbed, mut identity, mut residual_hits) = (0, 0, 0, 0);
    for d in 0..4usize {
        // Four ops per delta, each on a neighbour of a top hub.
        let mut dg = DeltaGraph::new(&g);
        for k in 0..4usize {
            let hub = hubs[(4 * d + k) % 16];
            let nbrs = g.neighbor_ids(hub);
            let u = nbrs[(7 * d + 3 * k) % nbrs.len()];
            let v = ((d * 7919 + k * 104_729 + 13) % n) as NodeId;
            if u != v {
                dg.insert_edge(u, v, 1.0 + 0.5 * k as f64).unwrap();
            }
        }
        let delta = dg.net_delta();
        let (g_new, _relabel) = dg.compact().unwrap();
        let endpoints = delta_endpoints(&delta);
        for (seed, prior) in seeds.iter().zip(&priors) {
            if endpoints
                .iter()
                .any(|c| prior.residuals.binary_search_by_key(c, |e| e.0).is_ok())
            {
                residual_hits += 1;
            }
            let verdict = delta_leaves_undisturbed(
                &g_new,
                &prior.vector,
                &prior.residuals,
                &endpoints,
                epsilon,
            );
            if verdict.is_some() {
                undisturbed += 1;
                continue;
            }
            disturbed += 1;
            let req = repair_request(seed, prior, &delta, alpha, epsilon);
            let rr = ppr_repair(&g_new, &req).unwrap();
            if rr.pushes == 0
                && bits(&rr.vector) == bits(&prior.vector)
                && bits(&rr.residuals) == bits(&prior.residuals)
            {
                identity += 1;
            }
        }
    }
    assert!(
        disturbed > 0 && undisturbed > disturbed,
        "{disturbed} disturbed vs {undisturbed} undisturbed: the deltas must split the cache"
    );
    assert!(
        residual_hits >= 2 * disturbed,
        "residual support meets an endpoint for {residual_hits} priors, {disturbed} are \
         disturbed — the workload no longer separates the two tests"
    );
    assert!(
        10 * identity < disturbed,
        "{identity} of {disturbed} disturbed verdicts were identity repairs"
    );
}

/// `r = s − (1/α)(I − (1−α)W)p` with `W = (I + AD⁻¹)/2`: the residual
/// the ACL invariant assigns to an estimate `p` for a single seed,
/// re-derived from the graph alone.
fn acl_residual(g: &Graph, seed: NodeId, alpha: f64, p: &[f64]) -> Vec<f64> {
    (0..g.n())
        .map(|u| {
            let walk: f64 = g
                .neighbors(u as NodeId)
                .map(|(v, w)| w * p[v as usize] / g.degree(v))
                .sum();
            let lazy = 0.5 * (p[u] + walk);
            let s = if u as NodeId == seed { 1.0 } else { 0.0 };
            s - (p[u] - (1.0 - alpha) * lazy) / alpha
        })
        .collect()
}

/// Engine-level truth: through a delta far from every cached answer, a
/// reweight on a seed, a delete that drops a degree under a parked
/// residual, two deltas landing before one probe (a composed repair),
/// a delta caught up by an RCM compaction, and a bare RCM compaction,
/// every cached entry is served `Cached`, and what it serves is *true*
/// against a model that shares no code with the repair path — the
/// certificate bound covers the residual re-derived from the served
/// vector on the head graph, and the vector is within `bound·deg` of
/// exact PPR, node by node. A write visits no entry; the catch-ups its
/// next probes (or the compaction) run account for every entry exactly
/// once per step, and a request pinned before a write neither hits nor
/// populates the cache.
#[test]
fn engine_delta_stream_keeps_cached_answers_certified() {
    use acir::serve::{DeltaSummary, Engine, EngineConfig, EngineStats, Query, ResponseKind};
    use acir_graph::snapshot::CompactionOrder;
    use acir_runtime::Certificate;

    let (alpha, eps) = (0.1, 1e-3);
    let mut rng = StdRng::seed_from_u64(7);
    let g = largest_component(&barabasi_albert(&mut rng, 300, 3).unwrap()).0;
    let n = g.n();
    let seeds = [0 as NodeId, 150, 280];
    // Tokens enough that every request is granted its full ε rung.
    let cfg = EngineConfig {
        capacity: 64 * 100_000,
        refill_per_cycle: 64 * 100_000,
        ..EngineConfig::default()
    };
    let mut e = Engine::new(g, cfg);
    let q = |s: NodeId| Query {
        seeds: vec![s],
        alpha,
        epsilon: eps,
        deadline: None,
        options: Default::default(),
    };
    for &s in &seeds {
        assert!(e.submit(q(s)).is_accepted());
        assert_eq!(e.run_pending()[0].kind, ResponseKind::Full);
    }
    assert_eq!(e.answer_cache_len(), seeds.len());

    /// One cached answer as an outsider can know it, in the head's
    /// labeling: the served estimate, the residual the ACL invariant
    /// assigns to it, and the bound its certificate claims.
    struct Served {
        p: Vec<f64>,
        r: Vec<f64>,
        bound: f64,
    }
    // Ask for every cached answer again and hold each response to the
    // exact model on the head graph.
    let serve_and_check = |e: &mut Engine, step: &str| -> Vec<Served> {
        seeds
            .iter()
            .map(|&seed| {
                assert!(e.submit(q(seed)).is_accepted());
                let resp = e.run_pending().remove(0);
                assert_eq!(resp.kind, ResponseKind::Cached, "{step}: seed {seed}");
                let Certificate::ResidualMass {
                    per_degree_bound: bound,
                    ..
                } = resp.certificate
                else {
                    panic!("{step}: seed {seed} carries {:?}", resp.certificate);
                };
                assert!(bound > 0.0 && bound <= eps, "{step}: bound {bound}");

                let snap = e.snapshot();
                let (g, lineage) = (snap.graph(), snap.lineage());
                let mut p = vec![0.0; n];
                for &(u, x) in &resp.cluster {
                    p[lineage.to_new(u) as usize] = x;
                }
                let seed_in = lineage.to_new(seed);
                let r = acl_residual(g, seed_in, alpha, &p);
                let exact = ppr_exact_reference(g, &[seed_in], alpha, 400).unwrap();
                for u in 0..n {
                    let d = g.degree(u as NodeId);
                    assert!(
                        r[u].abs() <= bound * d + 1e-12,
                        "{step}: seed {seed} node {u}: |r|/d {} above the certified {bound}",
                        r[u].abs() / d
                    );
                    assert!(
                        (p[u] - exact[u]).abs() <= bound * d + 1e-12,
                        "{step}: seed {seed} node {u}: served {} vs exact {}",
                        p[u],
                        exact[u]
                    );
                }
                Served { p, r, bound }
            })
            .collect()
    };
    // The catch-ups between two stats readings: every cached answer
    // accounted for once, none dropped. Returns (revalidated, repaired).
    let accounted = |before: &EngineStats, after: &EngineStats, step: &str| {
        let revalidated = after.answers_revalidated - before.answers_revalidated;
        let repaired = after.answers_repaired - before.answers_repaired;
        let dropped = after.answers_dropped - before.answers_dropped;
        assert_eq!(
            (revalidated + repaired + dropped) as usize,
            seeds.len(),
            "{step}: every cached answer is accounted for"
        );
        assert_eq!(dropped, 0, "{step}: raw-push answers stay repairable");
        (revalidated, repaired)
    };
    // A write leaves the cache alone: its summary counts no answer.
    let untouched = |s: &DeltaSummary, step: &str| {
        assert_eq!(
            (s.answers_revalidated, s.answers_repaired, s.answers_dropped),
            (0, 0, 0),
            "{step}: the write visited a cached answer"
        );
        assert_eq!(s.repair_pushes, 0, "{step}: no sketches, nothing to push");
    };

    let served = serve_and_check(&mut e, "fresh");

    // --- 1. An insert far from every answer (no estimate, no residual
    // on either endpoint): nothing is repaired, nothing is pushed. Two
    // requests pinned *before* the write ride through it: one whose
    // key is cached, one whose key is new.
    let far: Vec<NodeId> = (0..n)
        .filter(|&u| served.iter().all(|a| a.p[u] == 0.0 && a.r[u] == 0.0))
        .map(|u| u as NodeId)
        .collect();
    let (u, v) = (far[0], far[1]);
    assert!(!e.graph().has_edge(u, v));
    let newcomer = far[2];
    assert!(e.submit(q(seeds[0])).is_accepted());
    assert!(e.submit(q(newcomer)).is_accepted());
    let s = e
        .update_graph_delta(&[EdgeOp::Insert { u, v, weight: 2.0 }])
        .unwrap();
    untouched(&s, "far insert");
    let before = e.stats().clone();
    let pinned = e.run_pending();
    assert!(
        pinned.iter().all(|r| r.kind == ResponseKind::Full),
        "a request pinned before the write must not be served from the head's cache"
    );
    assert_eq!(
        e.answer_cache_len(),
        seeds.len(),
        "an answer computed on a superseded snapshot must not enter the cache"
    );
    let served = serve_and_check(&mut e, "far insert");
    let (_, repaired) = accounted(&before, e.stats(), "far insert");
    assert_eq!(repaired, 0);

    // --- 2. A reweight on a seed, where its answer's estimate mass is
    // largest: that answer is reflowed and re-certified measured.
    let hub_nbr = e.graph().neighbor_ids(seeds[0])[0];
    let s = e
        .update_graph_delta(&[EdgeOp::Insert {
            u: seeds[0],
            v: hub_nbr,
            weight: 3.0,
        }])
        .unwrap();
    untouched(&s, "seed reweight");
    let before = e.stats().clone();
    let after = serve_and_check(&mut e, "seed reweight");
    let (_, repaired) = accounted(&before, e.stats(), "seed reweight");
    assert!(repaired >= 1);
    assert!(
        after[0].bound < eps && after[0].bound != served[0].bound,
        "the reflowed answer carries a measured bound"
    );
    let served = after;

    // --- 3. A delete between two nodes that hold no estimate mass in
    // any answer, one of them with residual parked on it, chosen so
    // every parked residual stays under ε·d′: nothing is repaired, yet
    // the degree under the residual dropped, so the kept certificate
    // has to be raised to stay true.
    let g = e.graph().clone();
    let no_estimate = |u: NodeId| served.iter().all(|a| a.p[u as usize] == 0.0);
    let still_parked = |u: NodeId, d_new: f64| {
        d_new > 0.5
            && served
                .iter()
                .all(|a| a.r[u as usize].abs() < 0.999 * eps * d_new)
    };
    let (c, x, ratio) = (0..n as NodeId)
        .filter(|&c| no_estimate(c))
        .flat_map(|c| g.neighbors(c).map(move |(x, w)| (c, x, w)))
        .filter(|&(c, x, w)| {
            no_estimate(x) && still_parked(c, g.degree(c) - w) && still_parked(x, g.degree(x) - w)
        })
        .map(|(c, x, w)| {
            let parked = served
                .iter()
                .map(|a| a.r[c as usize].abs())
                .fold(0.0, f64::max);
            (c, x, parked / (g.degree(c) - w))
        })
        .max_by(|a, b| a.2.total_cmp(&b.2))
        .expect("some residual-only node can lose an edge");
    assert!(ratio > 0.5 * eps, "the parked residual is a real one");
    let s = e
        .update_graph_delta(&[EdgeOp::Delete { u: c, v: x }])
        .unwrap();
    untouched(&s, "delete under a parked residual");
    let before = e.stats().clone();
    let kept = serve_and_check(&mut e, "delete under a parked residual");
    let (_, repaired) = accounted(&before, e.stats(), "delete under a parked residual");
    assert_eq!(repaired, 0);
    // Each kept certificate is the old one raised to cover the two
    // endpoints at their new degrees — and for the answer with the
    // most residual parked on `c` the raise is a real one.
    let per_degree = |a: &Served, u: NodeId| a.r[u as usize].abs() / e.graph().degree(u);
    for (before, after) in served.iter().zip(&kept) {
        let raised = before
            .bound
            .max(per_degree(before, c))
            .max(per_degree(before, x));
        assert!((after.bound - raised).abs() <= 1e-12);
    }
    assert!(
        served.iter().zip(&kept).any(|(b, a)| a.bound > b.bound),
        "no kept certificate had to be raised: |r_c|/d′_c = {ratio}"
    );

    // --- 4. Two deltas before one probe: a reweight on the second
    // seed, then an insert far from every answer. Each entry is
    // caught up once, against the composed delta of both writes.
    let reweight = |e: &mut Engine, seed: NodeId, weight: f64| {
        let nbr = e.graph().neighbor_ids(seed)[0];
        assert_ne!(e.graph().edge_weight(seed, nbr), weight);
        let s = e
            .update_graph_delta(&[EdgeOp::Insert {
                u: seed,
                v: nbr,
                weight,
            }])
            .unwrap();
        untouched(&s, "reweight");
    };
    let g = e.graph().clone();
    let far: Vec<NodeId> = (0..n as NodeId)
        .filter(|&u| {
            kept.iter()
                .all(|a| a.p[u as usize] == 0.0 && a.r[u as usize] == 0.0)
        })
        .collect();
    let (u, v) = far
        .iter()
        .flat_map(|&u| far.iter().map(move |&v| (u, v)))
        .find(|&(u, v)| u < v && !g.has_edge(u, v))
        .expect("two far nodes not yet joined");
    reweight(&mut e, seeds[1], 2.5);
    let s = e
        .update_graph_delta(&[EdgeOp::Insert { u, v, weight: 0.5 }])
        .unwrap();
    untouched(&s, "far insert after a reweight");
    let before = e.stats().clone();
    serve_and_check(&mut e, "two deltas, one probe");
    let (_, repaired) = accounted(&before, e.stats(), "two deltas, one probe");
    assert!(repaired >= 1, "the reweighted seed's answer is reflowed");

    // --- 5. A delta, then an RCM compaction before any probe: the
    // compaction catches every entry up on the old labeling, then
    // carries it through the relabeling; the probes find nothing
    // behind.
    reweight(&mut e, seeds[2], 4.0);
    let before = e.stats().clone();
    let s = e.compact(CompactionOrder::Rcm).unwrap();
    assert!(s.relabeled);
    assert_eq!((s.answers_relabeled, s.answers_dropped), (seeds.len(), 0));
    let (_, repaired) = accounted(&before, e.stats(), "delta, then rcm compaction");
    assert!(repaired >= 1, "the reweighted seed's answer is reflowed");
    let before = e.stats().clone();
    serve_and_check(&mut e, "delta, then rcm compaction");
    let (revalidated, repaired) = (
        e.stats().answers_revalidated - before.answers_revalidated,
        e.stats().answers_repaired - before.answers_repaired,
    );
    assert_eq!((revalidated, repaired), (0, 0), "nothing is behind");

    // --- 6. An RCM compaction with nothing behind: every answer is
    // carried through the relabeling and is still true on the
    // renumbered head.
    let s = e.compact(CompactionOrder::Rcm).unwrap();
    assert_eq!((s.answers_relabeled, s.answers_dropped), (seeds.len(), 0));
    serve_and_check(&mut e, "rcm compaction");
    assert_eq!(e.answer_cache_len(), seeds.len());
}
