//! Steady-state allocation gate for the strongly local kernels.
//!
//! The paper's locality argument (work ∝ cluster volume, not graph
//! size) dies in practice if every call re-allocates length-`n`
//! scratch. This binary installs the counting allocator and pins the
//! contract: after warm-up, `ppr_push_ws` with caller-held scratch and
//! output performs **zero** heap operations per call, and the pooled
//! public entry points stay within a small constant (the output
//! buffers they hand back) — the sketch splice included, whether it
//! harvests one hub or many. The same goes one layer up: a request
//! served by the engine costs a constant number of heap events, not
//! one per push. The write path is held to the same shape: compacting
//! an overlay allocates a fixed handful of vectors however many rows
//! it touches, and a delta costs the same whether 64 or 1,024 answers
//! are cached — one that disturbs none of them, and one that disturbs
//! every one: a write visits no cached answer at all.
//!
//! The counters are process-global, so every measurement lives in ONE
//! `#[test]` — a concurrent test's allocations would otherwise bleed
//! into the deltas. CI additionally runs this binary with
//! `--test-threads=1`.

use acir::prelude::*;
use acir::serve::{Engine, EngineConfig, Query, QueryOptions, ResponseKind};
use acir_graph::{DeltaGraph, EdgeOp};
use rand::SeedableRng;

#[global_allocator]
static ALLOC: acir_mem::CountingAlloc = acir_mem::CountingAlloc;

#[test]
fn steady_state_allocation_budgets() {
    assert!(acir_mem::is_installed());

    // The libtest harness's main thread blocks in `mpsc::recv` while
    // this test runs, and its *first* park lazily allocates a
    // thread-local waker context (two one-time allocations). Whether
    // that init lands inside a measurement window below is a pure
    // scheduling race against this thread. Sleeping here guarantees
    // the main thread completes its first park — and with it the
    // once-per-thread init — before any window opens; it can never
    // allocate from that path again.
    std::thread::sleep(std::time::Duration::from_millis(200));

    let g = gen::deterministic::ring_of_cliques(12, 10).unwrap();
    let seeds = [5 as NodeId];
    let (alpha, eps) = (0.05, 1e-5);
    const CALLS: u64 = 16;

    // --- ppr_push_ws: exactly zero heap events once warm. ---
    let mut ws = PushWorkspace::default();
    let mut out = PushResult::empty();
    for _ in 0..3 {
        ppr_push_ws(&g, &seeds, alpha, eps, &mut ws, &mut out).unwrap();
    }
    let before = acir_mem::snapshot();
    for _ in 0..CALLS {
        ppr_push_ws(&g, &seeds, alpha, eps, &mut ws, &mut out).unwrap();
    }
    let delta = acir_mem::snapshot().since(&before);
    assert_eq!(
        delta.heap_events(),
        0,
        "ppr_push_ws allocated in steady state: {delta:?}"
    );
    assert!(!out.vector.is_empty(), "kernel did real work");

    // --- pooled ppr_push: only the returned PushResult may allocate.
    // Measured at 7 events/call; the gate leaves headroom without
    // letting a per-node regression (O(n) events) through. ---
    for _ in 0..3 {
        ppr_push(&g, &seeds, alpha, eps).unwrap();
    }
    let before = acir_mem::snapshot();
    for _ in 0..CALLS {
        std::hint::black_box(ppr_push(&g, &seeds, alpha, eps).unwrap());
    }
    let delta = acir_mem::snapshot().since(&before);
    assert!(
        delta.heap_events() <= 16 * CALLS,
        "pooled ppr_push regressed to {} heap events over {CALLS} calls: {delta:?}",
        delta.heap_events()
    );

    // --- pooled ppr_push_spliced: the harvest accumulates in the push
    // workspace, so a warm splice costs the same constant number of
    // heap events whether it harvests one hub's sketch or many — not
    // one per combined entry. Measured at 2 events/call (the returned
    // vector, allocated at its exact length, and its drop). ---
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let ff = gen::random::forest_fire(&mut rng, 20_000, 0.37).unwrap();
    let set = acir_local::build_hub_sketches(&ff, 64, alpha, eps / 5.0).unwrap();
    let splice = |seed: NodeId| acir_local::ppr_push_spliced(&ff, &[seed], alpha, eps, &set);
    let top_hub = set.sketches()[0].hub;
    // The non-hub seed among the first 200 nodes whose splice harvests
    // the most hubs.
    let (wide, _) = (0..200)
        .filter(|&u| !set.covers(u))
        .map(|u| (u, splice(u).unwrap().hubs_spliced))
        .max_by_key(|&(u, hubs)| (hubs, std::cmp::Reverse(u)))
        .unwrap();
    let splice_events = |seed: NodeId| {
        for _ in 0..3 {
            splice(seed).unwrap();
        }
        let before = acir_mem::snapshot();
        for _ in 0..CALLS {
            std::hint::black_box(splice(seed).unwrap());
        }
        let delta = acir_mem::snapshot().since(&before);
        (delta, splice(seed).unwrap().hubs_spliced)
    };
    // The many-hub query first, so the one-hub window runs on scratch
    // already grown to the larger harvest.
    let (many, many_hubs) = splice_events(wide);
    let (one, one_hub) = splice_events(top_hub);
    assert!(
        many_hubs >= 8,
        "seed {wide} harvested only {many_hubs} hubs"
    );
    assert_eq!(one_hub, 1);
    assert_eq!(
        many.heap_events(),
        one.heap_events(),
        "a splice harvesting {many_hubs} hubs cost {many:?}, one harvesting one hub {one:?}"
    );
    assert!(
        many.heap_events() <= 4 * CALLS,
        "ppr_push_spliced regressed to {} heap events over {CALLS} calls: {many:?}",
        many.heap_events()
    );

    // --- sparse sweep through its pooled membership set: output
    // (set/profile/order) allocates, scratch must not grow per call. ---
    let probe = ppr_push(&g, &seeds, alpha, eps).unwrap();
    for _ in 0..3 {
        sweep_cut_sparse(&g, &probe.vector);
    }
    let support = probe.vector.len() as u64;
    let before = acir_mem::snapshot();
    for _ in 0..CALLS {
        std::hint::black_box(sweep_cut_sparse(&g, &probe.vector));
    }
    let delta = acir_mem::snapshot().since(&before);
    assert!(
        delta.heap_events() <= (16 + support) * CALLS,
        "sweep_cut_sparse heap events {} exceed output-proportional budget: {delta:?}",
        delta.heap_events()
    );

    // --- MetricsRegistry: sampling a name that already exists touches
    // no heap — the budgeted push loop observes `residual` once per
    // push, and a key allocated per sample was the engine's whole
    // allocation profile. ---
    let mut metrics = acir_obs::MetricsRegistry::new();
    metrics.observe("residual", 0.5);
    metrics.incr("certificates", 1);
    let before = acir_mem::snapshot();
    for i in 0..1000u64 {
        metrics.observe("residual", 1.0 / (i + 1) as f64);
        metrics.incr("certificates", 1);
    }
    let delta = acir_mem::snapshot().since(&before);
    assert_eq!(
        delta.heap_events(),
        0,
        "observe/incr on an existing name allocated: {delta:?}"
    );
    assert_eq!(metrics.histogram("residual").unwrap().count(), 1001);
    assert_eq!(metrics.counter("certificates"), 1001);

    // --- One served request, engine path end to end (submit +
    // run_pending): a `Full` answer of thousands of pushes stays
    // within a constant number of heap events — buffers that double,
    // the answer's copies, lifecycle strings — and an exact repeat
    // served `Cached` within a smaller one. Neither scales with the
    // pushes performed or with n. ---
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let ff = gen::random::forest_fire(&mut rng, 20_000, 0.37).unwrap();
    let hub = (0..ff.n() as NodeId)
        .max_by(|&a, &b| ff.degree(a).total_cmp(&ff.degree(b)))
        .unwrap();
    let pushes = ppr_push(&ff, &[hub], 0.1, 1e-5).unwrap().pushes;
    assert!(pushes >= 2_000, "workload too shallow: {pushes} pushes");
    let mut engine = Engine::new(
        ff,
        EngineConfig {
            capacity: 64 * 4_000_000,
            refill_per_cycle: 64 * 4_000_000,
            ..EngineConfig::default()
        },
    );
    let query = |seed: NodeId| Query {
        seeds: vec![seed],
        alpha: 0.1,
        epsilon: 1e-5,
        deadline: None,
        options: QueryOptions::default(),
    };
    // Warm the pooled push workspace and the engine's own buffers on
    // other seeds, so the windows below see steady state. The counts
    // are exact for this fixed sequence; the engine trail's vectors
    // still double now and then this early in an engine's life, and
    // five warm-ups put the next doubling inside the `Full` window.
    for k in 1..=5 {
        assert!(engine.submit(query((hub + k) % 20_000)).is_accepted());
        assert_eq!(engine.run_pending()[0].kind, ResponseKind::Full);
    }
    for (kind, budget) in [(ResponseKind::Full, 128), (ResponseKind::Cached, 16)] {
        let q = query(hub);
        let before = acir_mem::snapshot();
        let admitted = engine.submit(q).is_accepted();
        let rs = engine.run_pending();
        let delta = acir_mem::snapshot().since(&before);
        assert!(admitted && rs.len() == 1 && rs[0].kind == kind);
        assert!(
            delta.heap_events() <= budget,
            "a {kind:?} request cost {} heap events (budget {budget}): {delta:?}",
            delta.heap_events()
        );
    }

    // --- DeltaGraph::compact: a fixed handful of vectors (the four
    // CSR arrays and the identity relabeling), however many rows the
    // overlay touches — no boxed iterator per row, no edge list. ---
    let base = gen::deterministic::ring_of_cliques(12, 10).unwrap();
    let compact_events = |ops: usize| {
        let mut dg = DeltaGraph::new(&base);
        for k in 0..ops as NodeId {
            dg.insert_edge(k, 60 + k, 1.5).unwrap();
        }
        let before = acir_mem::snapshot();
        let compacted = std::hint::black_box(dg.compact().unwrap());
        let delta = acir_mem::snapshot().since(&before);
        assert_eq!(compacted.0.arc_count(), base.arc_count() + 2 * ops);
        drop(compacted);
        delta
    };
    let (one_op, eight_ops) = (compact_events(1), compact_events(8));
    assert_eq!(
        one_op.allocs, eight_ops.allocs,
        "compact() allocations grew with the overlay: {one_op:?} vs {eight_ops:?}"
    );
    assert!(
        eight_ops.allocs <= 8 && eight_ops.reallocs == 0,
        "compact() of a 16-row overlay: {eight_ops:?}"
    );

    // --- One write costs the same number of heap events whether 64 or
    // 1,024 answers are cached, whether it disturbs none of them or all
    // of them: the write visits no entry — no predicate, no repair
    // output, no re-keyed insert, no second map; the entries catch up
    // when probed. (The minimum over three deltas is the steady cost;
    // the engine trail's vector doubles now and then at a point that
    // depends on how many requests came before.) Each case then probes
    // one entry to show the write really did leave work behind.
    let write_events =
        |cached: NodeId, seeds_of: fn(NodeId) -> Vec<NodeId>, (u, v): (NodeId, NodeId)| {
            let ring = gen::deterministic::ring_of_cliques(220, 10).unwrap();
            let mut engine = Engine::new(
                ring,
                EngineConfig {
                    capacity: 64 * 1_000_000,
                    refill_per_cycle: 64 * 1_000_000,
                    answer_cache_cap: 2048,
                    ..EngineConfig::default()
                },
            );
            let query = |k: NodeId| Query {
                seeds: seeds_of(k),
                alpha: 0.2,
                epsilon: 1e-3,
                deadline: None,
                options: QueryOptions::default(),
            };
            for k in 0..cached {
                assert!(engine.submit(query(k)).is_accepted());
                assert_eq!(engine.run_pending()[0].kind, ResponseKind::Full);
            }
            assert_eq!(engine.answer_cache_len(), cached as usize);
            let events = (2..5)
                .map(|weight| {
                    let op = EdgeOp::Insert {
                        u,
                        v,
                        weight: f64::from(weight),
                    };
                    let before = acir_mem::snapshot();
                    let summary = engine.update_graph_delta(&[op]).unwrap();
                    let delta = acir_mem::snapshot().since(&before);
                    assert_eq!(
                        (
                            summary.answers_revalidated,
                            summary.answers_repaired,
                            summary.answers_dropped
                        ),
                        (0, 0, 0)
                    );
                    delta.heap_events()
                })
                .min()
                .unwrap();
            assert_eq!(engine.answer_cache_len(), cached as usize);
            let before = engine.stats().clone();
            assert!(engine.submit(query(0)).is_accepted());
            assert_eq!(engine.run_pending()[0].kind, ResponseKind::Cached);
            let after = engine.stats();
            let caught_up = (
                after.answers_revalidated - before.answers_revalidated,
                after.answers_repaired - before.answers_repaired,
            );
            (events, caught_up)
        };
    // Clique 160 is far from every single-seed diffusion.
    let far = |k: NodeId| vec![k];
    let (small, revalidated) = write_events(64, far, (1600, 1605));
    let (large, _) = write_events(1024, far, (1600, 1605));
    assert_eq!(revalidated, (1, 0), "the far write disturbed an answer");
    assert_eq!(
        small, large,
        "an undisturbing write cost {small} heap events beside 64 cached answers, {large} beside 1,024"
    );
    // Every answer diffuses from node 0, so estimate mass sits on the
    // endpoint of a reweight of {0, 1} in each of them.
    let through_zero = |k: NodeId| vec![0, k + 1];
    let (small, repaired) = write_events(64, through_zero, (0, 1));
    let (large, _) = write_events(1024, through_zero, (0, 1));
    assert_eq!(
        repaired,
        (0, 1),
        "the write at node 0 left an answer undisturbed"
    );
    assert_eq!(
        small, large,
        "a write disturbing every answer cost {small} heap events beside 64 cached answers, {large} beside 1,024"
    );
}
