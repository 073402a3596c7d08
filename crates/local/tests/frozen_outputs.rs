//! Frozen outputs of the push family: every output field of fresh push,
//! repair and splice, on every exit path, hashed bit for bit.
//!
//! Golden traces compare floats only to a tolerance; this pins every
//! `to_bits()` (and, for metered runs, the outcome kind, certificate and
//! residual trail) over three graphs × α ∈ {0.05, 0.15} × ε ∈ {1e-3,
//! 1e-5}. A change that moves these bits must say why.

use acir_graph::gen::{deterministic::barbell, random::barabasi_albert};
use acir_graph::{DeltaGraph, EdgeDelta, Graph, NodeId};
use acir_local::push::{ppr_push, ppr_push_ctx, PushResult};
use acir_local::repair::{ppr_repair, ppr_repair_ctx, RepairRequest, RepairResult};
use acir_local::sketch::{build_hub_sketches, ppr_push_spliced, ppr_push_spliced_ctx};
use acir_local::sketch::{SketchSet, SpliceResult};
use acir_runtime::{Budget, Certificate, GuardConfig, KernelCtx, SolverOutcome};
use rand::{rngs::StdRng, SeedableRng};

/// FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn words(&mut self, words: impl IntoIterator<Item = u64>) {
        for b in words.into_iter().flat_map(u64::to_le_bytes) {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn sparse(&mut self, v: &[(NodeId, f64)]) {
        self.words([v.len() as u64]);
        self.words(v.iter().flat_map(|&(u, x)| [u64::from(u), x.to_bits()]));
    }

    fn floats(&mut self, xs: &[f64]) {
        self.words(xs.iter().map(|x| x.to_bits()));
    }

    fn counts(&mut self, cs: &[usize]) {
        self.words(cs.iter().map(|&c| c as u64));
    }

    /// An outcome's kind, certificate and metered trail, then its value.
    fn outcome<T: Frozen>(&mut self, o: &SolverOutcome<T>) {
        let d = o.diagnostics();
        self.words([u64::from(o.is_converged()), d.iterations as u64, d.work]);
        if let Some(&Certificate::ResidualMass {
            remaining,
            per_degree_bound,
        }) = o.certificate()
        {
            self.words([remaining.to_bits(), per_degree_bound.to_bits()]);
        }
        self.words(d.residuals.iter().map(|x| x.to_bits()));
        o.value().unwrap().fold(self);
    }
}

/// Every output field of a push-family result, into the hash.
trait Frozen {
    fn fold(&self, h: &mut Fnv);
}

impl Frozen for PushResult {
    fn fold(&self, h: &mut Fnv) {
        h.sparse(&self.vector);
        h.sparse(&self.residuals);
        h.floats(&[self.residual_mass, self.mass_pushed]);
        h.counts(&[self.pushes, self.work, self.touched]);
    }
}

impl Frozen for RepairResult {
    fn fold(&self, h: &mut Fnv) {
        let r = self;
        h.sparse(&r.vector);
        h.sparse(&r.residuals);
        h.floats(&[r.residual_mass, r.per_degree_bound, r.mass_pushed]);
        h.floats(&[r.perturbation]);
        h.counts(&[r.pushes, r.work, r.touched, usize::from(r.repaired)]);
    }
}

impl Frozen for SpliceResult {
    fn fold(&self, h: &mut Fnv) {
        let r = self;
        h.sparse(&r.vector);
        h.floats(&[r.residual_mass, r.per_degree_bound]);
        h.floats(&[r.hub_mass, r.mass_pushed]);
        h.counts(&[r.pushes, r.work, r.touched, r.hubs_spliced]);
        h.counts(&[usize::from(r.used_sketches)]);
    }
}

/// A metered, contamination-guarded context allowing `iterations` pushes.
fn metered(iterations: usize) -> KernelCtx {
    KernelCtx::budgeted("frozen", &Budget::iterations(iterations))
        .with_guard(GuardConfig::contamination_only())
}

/// An unweighted barbell, a BA graph, and a weighted graph on a second
/// BA skeleton; each with a two-node seed set.
fn inputs() -> Vec<(Graph, Vec<NodeId>)> {
    let ba = |n, m, seed| barabasi_albert(&mut StdRng::seed_from_u64(seed), n, m).unwrap();
    let skeleton = ba(160, 2, 11);
    let weight = |u: NodeId, v: NodeId| 1.0 + f64::from((u * 31 + v * 17) % 7) / 2.0;
    let arcs = skeleton.edges().map(|(u, v, _)| (u, v, weight(u, v)));
    let weighted = Graph::from_edges(skeleton.n(), arcs).unwrap();
    vec![
        (barbell(8, 2).unwrap(), vec![0, 3]),
        (ba(200, 3, 7), vec![150, 17]),
        (weighted, vec![120, 9]),
    ]
}

/// The new graph and net delta after `edits`.
fn mutate(g: &Graph, edits: impl FnOnce(&mut DeltaGraph<'_>)) -> (Graph, Vec<EdgeDelta>) {
    let mut dg = DeltaGraph::new(g);
    edits(&mut dg);
    (dg.compact().unwrap().0, dg.net_delta())
}

/// Hash every path on one graph at one (α, ε) into `table`, in the
/// order of [`FROZEN`].
fn record(g: &Graph, seeds: &[NodeId], alpha: f64, eps: f64, table: &mut [Fnv]) {
    let mut paths = table.iter_mut();
    let mut next = || paths.next().unwrap();

    let prior = ppr_push(g, seeds, alpha, eps).unwrap();
    prior.fold(next());
    let out = ppr_push_ctx(g, seeds, alpha, eps, &mut metered(3)).unwrap();
    assert!(!out.is_converged(), "push must exhaust");
    next().outcome(&out);

    // Repair around the non-seed node with the most estimate mass whose
    // neighbors all keep an edge without it: the incremental delta joins
    // it to the last node and drops one of its edges; the degenerate
    // delta cuts it loose.
    let far = g.n() as NodeId - 1;
    let keeps_neighbors = |u| g.neighbors(u).all(|(v, _)| g.degree_unweighted(v) > 1);
    let (c, _) = (prior.vector.iter().copied())
        .filter(|&(u, _)| !seeds.contains(&u) && u != far && keeps_neighbors(u))
        .fold((far, 0.0), |best, e| if e.1 > best.1 { e } else { best });
    let (g_inc, delta_inc) = mutate(g, |dg| {
        dg.insert_edge(c, far, 1.5).unwrap();
        dg.delete_edge(c, g.neighbors(c).next().unwrap().0).unwrap();
    });
    let (g_iso, delta_iso) = mutate(g, |dg| {
        for (v, _) in g.neighbors(c) {
            dg.delete_edge(c, v).unwrap();
        }
    });
    let req = |delta, mass_threshold| RepairRequest {
        seeds,
        estimate: &prior.vector,
        residual: &prior.residuals,
        delta,
        alpha,
        epsilon: eps,
        mass_threshold,
    };
    let out = ppr_repair_ctx(&g_inc, &req(&delta_inc, 1.0), &mut metered(1)).unwrap();
    assert!(!out.is_converged(), "repair must exhaust");
    let cases = [
        (&g_inc, req(&delta_inc, 1.0), true),
        (&g_inc, req(&delta_inc, 1e-12), false),
        (&g_iso, req(&delta_iso, f64::INFINITY), false),
        (g, req(&[], 1.0), true),
    ];
    for (i, (g_new, rq, incremental)) in cases.iter().enumerate() {
        let rr = ppr_repair(g_new, rq).unwrap();
        assert_eq!(rr.repaired, *incremental, "repair case {i}");
        assert!(!rq.delta.is_empty() || rr.pushes == 0, "zero delta pushed");
        rr.fold(next());
        if i == 0 {
            next().outcome(&out);
        }
    }

    // Splice: a compatible store, then the two fallbacks.
    let hubs = (g.n() / 12).max(2);
    let set = build_hub_sketches(g, hubs, alpha, eps / 5.0).unwrap();
    let s = ppr_push_spliced(g, seeds, alpha, eps, &set).unwrap();
    assert!(s.used_sketches && s.hubs_spliced > 0);
    s.fold(next());
    let out = ppr_push_spliced_ctx(g, seeds, alpha, eps, &set, &mut metered(3)).unwrap();
    assert!(!out.is_converged(), "splice must exhaust");
    next().outcome(&out);
    let other_alpha = build_hub_sketches(g, hubs, alpha + 0.1, eps / 5.0).unwrap();
    for fallback in [SketchSet::empty(), other_alpha] {
        let s = ppr_push_spliced(g, seeds, alpha, eps, &fallback).unwrap();
        assert!(!s.used_sketches);
        s.fold(next());
    }
}

/// `(path, hash)` in the order [`record`] fills the table, recorded
/// before the push family's three loops were folded into one. The two
/// `splice.*` sketch rows were re-recorded when the harvest stopped
/// splicing hubs parked under `ε_push·d(h)` (their residual now stays
/// certified residual); every other row is the original.
const FROZEN: &[(&str, u64)] = &[
    ("push.converged", 0x3a56eea57aefac59),
    ("push.exhausted", 0x4e0f542c9e9fb5ad),
    ("repair.incremental", 0xd2a8293fbdfc9300),
    ("repair.exhausted", 0x4929e5a3b2121b90),
    ("repair.fallback_threshold", 0x1e282db4d24cd001),
    ("repair.fallback_degenerate", 0x105d20259d0e97a6),
    ("repair.zero_delta", 0x959120b60990ae18),
    ("splice.converged", 0x31eec8ea3dbb5eab),
    ("splice.exhausted", 0xe41e9ae9706adba8),
    ("splice.fallback_empty", 0x0d8153dc05026e07),
    ("splice.fallback_alpha", 0x0d8153dc05026e07),
];

#[test]
fn push_family_outputs_are_frozen_bit_for_bit() {
    let mut table: Vec<Fnv> = FROZEN.iter().map(|_| Fnv(0xcbf2_9ce4_8422_2325)).collect();
    for (g, seeds) in inputs() {
        for alpha in [0.05, 0.15] {
            for eps in [1e-3, 1e-5] {
                record(&g, &seeds, alpha, eps, &mut table);
            }
        }
    }
    let got: Vec<(&str, u64)> = FROZEN.iter().zip(&table).map(|(p, h)| (p.0, h.0)).collect();
    let printed: Vec<String> = got
        .iter()
        .map(|(p, h)| format!("({p:?}, {h:#018x}),"))
        .collect();
    assert!(
        got == FROZEN,
        "outputs moved; recomputed:\n{}",
        printed.join("\n")
    );
}
