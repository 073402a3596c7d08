//! Golden-trace conformance suite.
//!
//! Every instrumented kernel is run on a small deterministic input and
//! its structured trace (see `acir-obs`) is compared against a
//! canonical snapshot under `tests/golden/`. The diff is structural:
//! event kinds, span nesting and iteration counts must match exactly,
//! while float-valued fields (residuals, certificate slacks,
//! conductances) are compared to a relative tolerance.
//!
//! Regenerate snapshots after an intentional behavior change with
//!
//! ```text
//! ACIR_BLESS=1 cargo test --test golden_trace
//! ```
//!
//! and commit the updated `tests/golden/*.jsonl`. Blessing is
//! idempotent: a second run with `ACIR_BLESS=1` rewrites byte-identical
//! files. On drift the failing test writes the observed trace next to
//! the snapshot as `<name>.jsonl.actual` (ignored by git) so the two
//! can be diffed directly.
//!
//! Traces contain no wall-clock data (wall stamps are excluded from
//! canonical serialization) and all parallel fan-out merges in
//! deterministic chunk order, so the snapshots are bit-stable across
//! `ACIR_THREADS` settings — CI runs this suite at 1 and 4 threads.

use acir_graph::gen::deterministic::{barbell, grid2d, path, ring_of_cliques};
use acir_graph::Graph;
use acir_linalg::chebyshev::cheb_heat_kernel_budgeted;
use acir_linalg::{
    cg_budgeted, power_method_budgeted, CgOptions, DenseMatrix, FaultyOp, PowerOptions, ShiftedOp,
};
use acir_obs::{golden, Trace};
use acir_runtime::{Budget, Diagnostics, FaultConfig, GuardConfig, KernelCtx, SolverOutcome};
use std::path::{Path, PathBuf};

/// The metered, contamination-guarded context every budgeted kernel
/// run below uses.
fn guarded(kernel: &'static str, budget: &Budget) -> KernelCtx {
    KernelCtx::budgeted(kernel, budget).with_guard(GuardConfig::contamination_only())
}

fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(format!("{name}.jsonl"))
}

/// Structural well-formedness: at least one span, balanced enter/exit,
/// and at least one typed (non-span) event.
fn assert_well_formed(name: &str, trace: &Trace) {
    let counts = trace.counts();
    let enters = counts.get("span_enter").copied().unwrap_or(0);
    let exits = counts.get("span_exit").copied().unwrap_or(0);
    assert!(enters >= 1, "{name}: no spans recorded");
    assert_eq!(enters, exits, "{name}: unbalanced spans");
    assert!(
        counts
            .keys()
            .any(|k| *k != "span_enter" && *k != "span_exit"),
        "{name}: no typed events besides spans"
    );
}

fn check(name: &str, diags: &Diagnostics) {
    assert_well_formed(name, &diags.trace);
    if let Err(e) = golden::check_trace(&golden_path(name), &diags.trace, 1e-7) {
        panic!("golden trace drift for `{name}`:\n{e}");
    }
}

/// Deterministic non-degenerate start vector.
fn seed_vector(n: usize) -> Vec<f64> {
    (0..n).map(|i| 1.0 + (i as f64 * 0.37).sin()).collect()
}

fn laplacian_of_path(n: usize) -> (Graph, acir_linalg::CsrMatrix) {
    let g = path(n).expect("path graph");
    let nl = acir_spectral::normalized_laplacian(&g);
    (g, nl)
}

// ---------------------------------------------------------------- linalg

/// A diagonal operator with a well-separated dominant eigenvalue, so
/// power iteration converges in a handful of steps.
fn gapped_diag() -> DenseMatrix {
    DenseMatrix::from_diag(&[3.0, 1.0, 0.5, 0.25, 0.1, 0.05])
}

#[test]
fn golden_linalg_power_converged() {
    let a = gapped_diag();
    let opts = PowerOptions {
        max_iters: 500,
        tol: 1e-8,
        deflate: vec![],
    };
    let out = power_method_budgeted(&a, &seed_vector(6), &opts, &Budget::unlimited())
        .expect("power method");
    assert!(out.is_converged());
    check("linalg_power_converged", out.diagnostics());
}

#[test]
fn golden_linalg_power_exhausted() {
    let a = gapped_diag();
    let opts = PowerOptions {
        max_iters: usize::MAX,
        tol: 1e-14,
        deflate: vec![],
    };
    let out = power_method_budgeted(&a, &seed_vector(6), &opts, &Budget::iterations(4))
        .expect("power method");
    assert!(!out.is_converged());
    check("linalg_power_exhausted", out.diagnostics());
}

#[test]
fn golden_linalg_cg_converged() {
    let (_g, nl) = laplacian_of_path(20);
    // 2I − 𝓛 is SPD (spectrum within (0, 2]); solve against a fixed rhs.
    let spd = ShiftedOp::new(&nl, -1.0, 2.0);
    let b = seed_vector(20);
    let opts = CgOptions {
        max_iters: 200,
        tol: 1e-10,
    };
    let out = cg_budgeted(&spd, &b, &[0.0; 20], &opts, &Budget::unlimited()).expect("cg solve");
    assert!(out.is_converged());
    check("linalg_cg_converged", out.diagnostics());
}

#[test]
fn golden_linalg_cg_exhausted() {
    let (_g, nl) = laplacian_of_path(20);
    let spd = ShiftedOp::new(&nl, -1.0, 2.0);
    let b = seed_vector(20);
    let opts = CgOptions {
        max_iters: 200,
        tol: 1e-14,
    };
    let out = cg_budgeted(&spd, &b, &[0.0; 20], &opts, &Budget::iterations(3)).expect("cg solve");
    assert!(!out.is_converged());
    check("linalg_cg_exhausted", out.diagnostics());
}

#[test]
fn golden_linalg_chebyshev_converged() {
    let (_g, nl) = laplacian_of_path(16);
    let out = cheb_heat_kernel_budgeted(&nl, 0.5, &seed_vector(16), 2.0, 16, &Budget::unlimited())
        .expect("chebyshev heat kernel");
    assert!(out.is_converged());
    check("linalg_chebyshev_converged", out.diagnostics());
}

#[test]
fn golden_linalg_chebyshev_exhausted() {
    let (_g, nl) = laplacian_of_path(16);
    let out =
        cheb_heat_kernel_budgeted(&nl, 0.5, &seed_vector(16), 2.0, 24, &Budget::iterations(5))
            .expect("chebyshev heat kernel");
    assert!(!out.is_converged());
    check("linalg_chebyshev_exhausted", out.diagnostics());
}

#[test]
fn golden_linalg_power_faulted() {
    // NaN injection after two clean applies: the solver must surface a
    // structured divergence, and the harness surfaces the corruption
    // count as a fault_injected event — the pattern every resilient
    // caller follows.
    let (_g, nl) = laplacian_of_path(16);
    let faulty = FaultyOp::new(&nl, FaultConfig::nans(1.0).after_clean_applies(2));
    let opts = PowerOptions {
        max_iters: 100,
        tol: 1e-10,
        deflate: vec![],
    };
    let mut out = power_method_budgeted(&faulty, &seed_vector(16), &opts, &Budget::unlimited())
        .expect("power method");
    assert!(!out.is_usable(), "NaN injection must not converge");
    out.diagnostics_mut()
        .fault_injected("nan", faulty.faults_injected());
    check("linalg_power_faulted", out.diagnostics());
}

// ----------------------------------------------------------------- local

#[test]
fn golden_local_ppr_push_converged() {
    let g = ring_of_cliques(4, 6).expect("ring of cliques");
    let mut ctx = guarded("local.ppr_push", &Budget::unlimited());
    let out = acir_local::ppr_push_ctx(&g, &[0], 0.1, 1e-4, &mut ctx).expect("ppr push");
    assert!(out.is_converged());
    check("local_ppr_push_converged", out.diagnostics());
}

#[test]
fn golden_local_ppr_push_exhausted() {
    let g = ring_of_cliques(4, 6).expect("ring of cliques");
    let mut ctx = guarded("local.ppr_push", &Budget::iterations(10));
    let out = acir_local::ppr_push_ctx(&g, &[0], 0.05, 1e-6, &mut ctx).expect("ppr push");
    assert!(!out.is_converged());
    check("local_ppr_push_exhausted", out.diagnostics());
}

#[test]
fn golden_local_hk_relax_converged() {
    let g = ring_of_cliques(4, 6).expect("ring of cliques");
    let mut ctx = guarded("local.hk_relax", &Budget::unlimited());
    let out = acir_local::hk_relax_ctx(&g, 0, 5.0, 1e-4, 1e-6, &mut ctx).expect("hk relax");
    assert!(out.is_converged());
    check("local_hk_relax_converged", out.diagnostics());
}

// ------------------------------------------------------------------ flow

fn diamond_network() -> acir_flow::FlowNetwork {
    let mut net = acir_flow::FlowNetwork::new(6);
    for &(u, v, c) in &[
        (0usize, 1usize, 3.0f64),
        (0, 2, 2.0),
        (1, 3, 2.0),
        (1, 4, 1.0),
        (2, 3, 1.0),
        (2, 4, 2.0),
        (3, 5, 3.0),
        (4, 5, 2.0),
    ] {
        net.add_arc(u, v, c).expect("arc");
    }
    net
}

#[test]
fn golden_flow_dinic_converged() {
    let mut net = diamond_network();
    let mut ctx = guarded("flow.dinic", &Budget::unlimited());
    let out = net.max_flow_ctx(0, 5, &mut ctx).expect("max flow");
    assert!(out.is_converged());
    check("flow_dinic_converged", out.diagnostics());
}

#[test]
fn golden_flow_dinic_exhausted() {
    let mut net = diamond_network();
    let mut ctx = guarded("flow.dinic", &Budget::iterations(1));
    let out = net.max_flow_ctx(0, 5, &mut ctx).expect("max flow");
    assert!(!out.is_converged());
    check("flow_dinic_exhausted", out.diagnostics());
}

#[test]
fn golden_flow_push_relabel_converged() {
    let mut net = acir_flow::PushRelabelNetwork::new(6);
    for &(u, v, c) in &[
        (0usize, 1usize, 3.0f64),
        (0, 2, 2.0),
        (1, 3, 2.0),
        (1, 4, 1.0),
        (2, 3, 1.0),
        (2, 4, 2.0),
        (3, 5, 3.0),
        (4, 5, 2.0),
    ] {
        net.add_arc(u, v, c).expect("arc");
    }
    let mut ctx = guarded("flow.push_relabel", &Budget::unlimited());
    let out = net.max_flow_ctx(0, 5, &mut ctx).expect("max flow");
    assert!(out.is_converged());
    check("flow_push_relabel_converged", out.diagnostics());
}

#[test]
fn golden_flow_mqi_converged() {
    let g = barbell(6, 2).expect("barbell");
    let side: Vec<u32> = (0..7).collect();
    let mut ctx = guarded("flow.mqi", &Budget::unlimited());
    let out = acir_flow::mqi_ctx(&g, &side, &mut ctx).expect("mqi");
    assert!(out.is_converged());
    check("flow_mqi_converged", out.diagnostics());
}

// -------------------------------------------------------------- spectral

#[test]
fn golden_spectral_pagerank_converged() {
    let g = grid2d(4, 4).expect("grid");
    let out = acir_spectral::pagerank_budgeted(
        &g,
        0.2,
        &acir_spectral::Seed::Node(0),
        &Budget::unlimited(),
    )
    .expect("pagerank");
    assert!(out.is_converged());
    check("spectral_pagerank_converged", out.diagnostics());
}

#[test]
fn golden_spectral_pagerank_power_sell() {
    // The SpMV layout routed through the context: the `spmv layout
    // sell` note in this snapshot pins that a per-request preference
    // reaches the kernel (and is recorded), and the identical residual
    // stream pins that SELL-C-σ execution is bit-identical to the
    // default layout.
    let g = grid2d(4, 4).expect("grid");
    let mut ctx =
        acir_runtime::KernelCtx::budgeted("spectral.pagerank_power", &Budget::unlimited())
            .with_spmv_layout(acir_runtime::SpmvLayout::Sell);
    let out =
        acir_spectral::pagerank_power_ctx(&g, 0.2, &acir_spectral::Seed::Node(0), 30, &mut ctx)
            .expect("pagerank power");
    assert!(out.is_converged());
    check("spectral_pagerank_power_sell", out.diagnostics());
}

#[test]
fn golden_spectral_heat_kernel_converged() {
    let g = grid2d(4, 4).expect("grid");
    let out = acir_spectral::heat_kernel_chebyshev_budgeted(
        &g,
        1.0,
        &acir_spectral::Seed::Node(0),
        12,
        &Budget::unlimited(),
    )
    .expect("heat kernel");
    assert!(out.is_converged());
    check("spectral_heat_kernel_converged", out.diagnostics());
}

// ------------------------------------------------------------- partition

#[test]
fn golden_partition_spectral_bisect_converged() {
    let g = barbell(6, 0).expect("barbell");
    let out = acir_partition::spectral_bisect_budgeted(&g, &Budget::unlimited())
        .expect("spectral bisect");
    assert!(out.is_converged());
    check("partition_spectral_bisect_converged", out.diagnostics());
}

#[test]
fn golden_partition_spectral_bisect_exhausted() {
    let g = barbell(6, 0).expect("barbell");
    let out = acir_partition::spectral_bisect_budgeted(&g, &Budget::iterations(3))
        .expect("spectral bisect");
    assert!(!out.is_converged());
    check("partition_spectral_bisect_exhausted", out.diagnostics());
}

fn ncp_opts() -> acir_partition::NcpOptions {
    acir_partition::NcpOptions {
        min_size: 2,
        max_size: 200,
        bins_per_decade: 6,
        seeds: 12,
        alphas: vec![0.2, 0.05],
        epsilons: vec![1e-3, 1e-4],
        threads: 2,
        ..Default::default()
    }
}

#[test]
fn golden_partition_ncp_local_converged() {
    let g = ring_of_cliques(6, 8).expect("ring of cliques");
    let out = acir_partition::ncp_local_spectral_budgeted(&g, &ncp_opts(), &Budget::unlimited())
        .expect("ncp");
    assert!(out.is_converged());
    check("partition_ncp_local_converged", out.diagnostics());
}

#[test]
fn golden_partition_ncp_local_exhausted() {
    let g = ring_of_cliques(6, 8).expect("ring of cliques");
    let out = acir_partition::ncp_local_spectral_budgeted(&g, &ncp_opts(), &Budget::iterations(5))
        .expect("ncp");
    assert!(!out.is_converged());
    check("partition_ncp_local_exhausted", out.diagnostics());
}

#[test]
fn golden_partition_ncp_metis_mqi() {
    let g = ring_of_cliques(6, 8).expect("ring of cliques");
    let (points, diags) =
        acir_partition::ncp_metis_mqi_traced(&g, &ncp_opts()).expect("metis+mqi ncp");
    assert!(!points.is_empty());
    check("partition_ncp_metis_mqi", &diags);
}

// ----------------------------------------------------------------- serve

/// A sketch-routed serve query's full stage progression —
/// `admitted → splice → certificate → responded:full` — plus the
/// hub-sketch build note, pinned structurally. A regression that stops
/// routing eligible queries through the splice path (or reorders the
/// ladder) shows up here as a stage-event diff.
#[test]
fn golden_serve_sketch_query() {
    let g = ring_of_cliques(4, 6).expect("ring of cliques");
    let mut engine = acir::serve::Engine::new(
        g,
        acir::serve::EngineConfig {
            sketch_hubs: 4,
            ..acir::serve::EngineConfig::default()
        },
    );
    let admission = engine.submit(acir::serve::Query {
        seeds: vec![0],
        alpha: 0.1,
        epsilon: 1e-2,
        deadline: None,
        options: Default::default(),
    });
    assert!(admission.is_accepted());
    let rs = engine.run_pending();
    assert_eq!(rs[0].kind.name(), "full");
    assert_eq!(engine.stats().spliced, 1);
    let mut diags = engine.trace().clone();
    diags.finish_spans();
    check("serve_sketch_query", &diags);
}

/// The dynamic-graph stage progression — a query answered and cached,
/// then `delta applied → hub sketches repaired` (the write visits no
/// cached answer), then the repeat caught up at the probe —
/// `certificate (re-issued for the repaired answer) →
/// cache_catch_up:repaired` — and served as `cache_hit →
/// responded:cached` on the new epoch — pinned structurally. A
/// regression that reverts the delta path to purge-and-rebuild, or to
/// eager repair on the write, shows up here as a missing catch-up
/// stage or a moved certificate event.
#[test]
fn golden_serve_delta_repair() {
    let g = ring_of_cliques(4, 6).expect("ring of cliques");
    let mut engine = acir::serve::Engine::new(
        g,
        acir::serve::EngineConfig {
            // Sketches live at α = 0.1; the query runs at α = 0.2, so
            // its answer takes the raw push path and caches a
            // repairable residual vector (a spliced answer would not).
            sketch_hubs: 4,
            sketch_alpha: 0.1,
            ..acir::serve::EngineConfig::default()
        },
    );
    let q = acir::serve::Query {
        seeds: vec![0],
        alpha: 0.2,
        epsilon: 1e-2,
        deadline: None,
        options: Default::default(),
    };
    assert!(engine.submit(q.clone()).is_accepted());
    assert_eq!(engine.run_pending()[0].kind.name(), "full");
    let summary = engine
        .update_graph_delta(&[acir_graph::EdgeOp::Insert {
            u: 0,
            v: 12,
            weight: 2.0,
        }])
        .expect("delta applies");
    assert_eq!(summary.epoch, 1);
    assert!(!summary.sketches_rebuilt);
    let before = engine.stats().clone();
    assert!(engine.submit(q).is_accepted());
    assert_eq!(engine.run_pending()[0].kind.name(), "cached");
    let after = engine.stats();
    assert_eq!(
        after.answers_revalidated + after.answers_repaired
            - before.answers_revalidated
            - before.answers_repaired,
        1
    );
    let mut diags = engine.trace().clone();
    diags.finish_spans();
    check("serve_delta_repair", &diags);
}

/// The snapshot-lifecycle stage progression (DESIGN.md §15): a query
/// answered and cached, then a *relabeling compaction staged to fire
/// between admission and batch execution* of a second query — which
/// still answers `full` against its pinned pre-compaction snapshot —
/// with the `compacted`, `hub sketches relabeled`, and `answer cache
/// relabeled` notes landing between its `admitted` and `responded`
/// stages, then the relabeled cache entry served as `cache_hit` on the
/// new epoch. A regression that un-pins in-flight requests, or reverts
/// the compaction path to purge-and-rebuild, shows up here as a stage
/// or note diff.
#[test]
fn golden_serve_compact_inflight() {
    let g = ring_of_cliques(4, 6).expect("ring of cliques");
    let mut engine = acir::serve::Engine::new(
        g,
        acir::serve::EngineConfig {
            sketch_hubs: 4,
            sketch_alpha: 0.1,
            ..acir::serve::EngineConfig::default()
        },
    );
    let q = acir::serve::Query {
        seeds: vec![0],
        alpha: 0.2,
        epsilon: 1e-2,
        deadline: None,
        options: Default::default(),
    };
    assert!(engine.submit(q.clone()).is_accepted());
    assert_eq!(engine.run_pending()[0].kind.name(), "full");
    // A second query (fresh seed, so the cache cannot answer it early)
    // with the compaction staged to fire just before its batch runs.
    let acir::serve::Admission::Accepted { id, .. } = engine.submit(acir::serve::Query {
        seeds: vec![7],
        ..q.clone()
    }) else {
        panic!("query rejected");
    };
    engine.stage_write(
        acir::serve::PublishPoint::BeforeBatch,
        id,
        acir::serve::WriteOp::Compact(acir_graph::snapshot::CompactionOrder::Rcm),
    );
    let r = engine.run_pending().remove(0);
    // The pinned request is served in full from its pre-compaction
    // snapshot even though the head moved underneath it.
    assert_eq!(r.kind.name(), "full");
    assert_eq!(engine.epoch(), 1);
    assert!(engine.snapshot().is_relabeled());
    assert!(engine.submit(q).is_accepted());
    assert_eq!(engine.run_pending()[0].kind.name(), "cached");
    let mut diags = engine.trace().clone();
    diags.finish_spans();
    check("serve_compact_inflight", &diags);
}

// -------------------------------------------------- cross-cutting checks

/// A kernel trace round-trips through the JSONL sink and parses back as
/// one object per line with a `kind` field.
#[test]
fn traces_serialize_to_parseable_jsonl() {
    let g = ring_of_cliques(4, 6).expect("ring of cliques");
    let mut ctx = guarded("local.ppr_push", &Budget::unlimited());
    let out = acir_local::ppr_push_ctx(&g, &[0], 0.1, 1e-4, &mut ctx).expect("ppr push");
    let mut sink = acir_obs::JsonlSink::new(Vec::new());
    out.diagnostics().trace.replay_into(&mut sink);
    let buf = sink.into_inner();
    let text = String::from_utf8(buf).expect("utf8");
    assert!(!text.is_empty());
    for line in text.lines() {
        let v = serde_json::from_str(line).expect("valid json line");
        assert!(
            v.get("kind").and_then(|k| k.as_str()).is_some(),
            "line missing kind: {line}"
        );
    }
}

/// Budget exhaustion produces the full certified-outcome event triplet:
/// budget_exhausted, certificate_issued, and closed spans.
#[test]
fn exhausted_outcomes_carry_certificate_events() {
    let a = gapped_diag();
    let opts = PowerOptions {
        max_iters: usize::MAX,
        tol: 1e-14,
        deflate: vec![],
    };
    let out = power_method_budgeted(&a, &seed_vector(6), &opts, &Budget::iterations(4))
        .expect("power method");
    let counts = out.diagnostics().trace.counts();
    assert_eq!(counts.get("budget_exhausted").copied().unwrap_or(0), 1);
    assert_eq!(counts.get("certificate").copied().unwrap_or(0), 1);
    match out {
        SolverOutcome::BudgetExhausted { .. } => {}
        other => panic!("expected exhaustion, got {other:?}"),
    }
}
