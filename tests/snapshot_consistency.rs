//! Snapshot-consistency tier (DESIGN.md §15).
//!
//! The serving contract under concurrent mutation: every admitted
//! request pins the head [`GraphSnapshot`] at admission and runs
//! against it end to end, so a writer publishing a delta — or a
//! relabeling compaction — between any two stages of the request never
//! changes what it computes. The tests force publications at every
//! [`PublishPoint`] via [`Engine::stage_write`] (the deterministic
//! writer-interleaving hook) and assert *bit-identity* against a
//! serial replay of the same query on an engine whose graph never
//! moved.
//!
//! The second contract: a relabeling compaction carries derived state
//! *through* the permutation instead of rebuilding it — hub sketches
//! with zero fresh pushes, cached answers with fresh *measured*
//! residual-mass certificates — and externally-labeled responses are
//! unchanged bit for bit across the relabeling.
//!
//! CI runs this suite at `ACIR_THREADS` 1 and 4; the proptest
//! interleaving also flips the override in-process, so pinned reads
//! are checked against serial replay under both pool shapes either
//! way.

use acir::exec::THREADS_ENV;
use acir::serve::{
    Admission, Engine, EngineConfig, PublishPoint, Query, QueryOptions, Response, ResponseKind,
    WriteOp,
};
use acir_graph::gen::deterministic::{barbell, ring_of_cliques};
use acir_graph::snapshot::{CompactionOrder, GraphSnapshot};
use acir_graph::{EdgeOp, NodeId};
use acir_local::{ppr_push, sweep_cut_sparse};
use acir_runtime::Certificate;
use proptest::prelude::*;
use std::sync::Arc;

const ALPHA: f64 = 0.1;
const EPS: f64 = 1e-2;

fn query(seeds: &[NodeId]) -> Query {
    Query {
        seeds: seeds.to_vec(),
        alpha: ALPHA,
        epsilon: EPS,
        deadline: None,
        options: QueryOptions::default(),
    }
}

fn submit(e: &mut Engine, q: Query) -> u64 {
    match e.submit(q) {
        Admission::Accepted { id, .. } => id,
        Admission::Rejected(r) => panic!("query rejected: {:?}", r.reason),
    }
}

/// The serial-replay oracle: what the request's pinned snapshot says
/// the answer is, computed directly (seeds translated into the
/// snapshot's labeling, the result mapped back to external ids).
fn oracle(snap: &GraphSnapshot, seeds: &[NodeId]) -> Vec<(NodeId, f64)> {
    let internal: Vec<NodeId> = if snap.is_relabeled() {
        seeds.iter().map(|&s| snap.lineage().to_new(s)).collect()
    } else {
        seeds.to_vec()
    };
    let r = ppr_push(snap.graph(), &internal, ALPHA, EPS).expect("oracle push failed");
    if snap.is_relabeled() {
        snap.lineage().unmap_sparse(&r.vector)
    } else {
        r.vector
    }
}

/// A delta published between admission and batch execution leaves the
/// in-flight answer bit-identical to a serial run on an engine whose
/// graph never moved — and the writer really did fire mid-flight.
#[test]
fn pinned_query_across_delta_publish_matches_serial_replay() {
    let g = ring_of_cliques(4, 6).unwrap();
    let mut serial = Engine::new(g.clone(), EngineConfig::default());
    for point in [
        PublishPoint::BeforeCacheCheck,
        PublishPoint::BeforeBatch,
        PublishPoint::BeforeSupervise,
        PublishPoint::AfterRespond,
    ] {
        let mut e = Engine::new(g.clone(), EngineConfig::default());
        let id = submit(&mut e, query(&[0]));
        e.stage_write(
            point,
            id,
            WriteOp::Delta(vec![EdgeOp::Insert {
                u: 0,
                v: 12,
                weight: 2.0,
            }]),
        );
        let r = e.run_pending().remove(0);
        assert_eq!(e.staged_writes(), 0, "{point:?}: staged write never fired");
        assert_eq!(e.epoch(), 1, "{point:?}: delta did not publish");
        assert_eq!(r.kind, ResponseKind::Full);

        let sid = submit(&mut serial, query(&[0]));
        let want = serial.run_pending().remove(0);
        assert_eq!(want.id, sid);
        assert_eq!(
            r.cluster, want.cluster,
            "{point:?}: pinned answer diverged from serial replay"
        );
        assert_eq!(r.certificate, want.certificate);
        assert_eq!(r.epsilon_used, want.epsilon_used);
    }
}

/// Same contract with a relabeling compaction as the writer: the
/// pinned request computes on pre-compaction labels and answers in
/// external ids, bit-identical to the never-moved engine.
#[test]
fn pinned_query_across_relabeling_compaction_matches_serial_replay() {
    let g = barbell(10, 3).unwrap();
    let cfg = EngineConfig {
        sketch_hubs: 4,
        ..EngineConfig::default()
    };
    let mut serial = Engine::new(g.clone(), cfg.clone());
    let sid = submit(&mut serial, query(&[0]));
    let want = serial.run_pending().remove(0);
    assert_eq!(want.id, sid);

    for order in [CompactionOrder::Rcm, CompactionOrder::DegreeDescending] {
        let mut e = Engine::new(g.clone(), cfg.clone());
        let id = submit(&mut e, query(&[0]));
        e.stage_write(PublishPoint::BeforeBatch, id, WriteOp::Compact(order));
        let r = e.run_pending().remove(0);
        assert_eq!(e.epoch(), 1, "{order:?}: compaction did not publish");
        assert!(e.snapshot().is_relabeled(), "{order:?}: no relabeling");
        assert_eq!(r.kind, want.kind, "{order:?}");
        assert_eq!(
            r.cluster, want.cluster,
            "{order:?}: pinned answer diverged from serial replay"
        );
        assert_eq!(r.certificate, want.certificate);
    }
}

/// A relabeling compaction repairs derived state through the
/// permutation: every sketch carried (zero rebuilt), every cached
/// answer relabeled in place with a fresh *measured* certificate, and an exact
/// repeat of the pre-compaction query is a Cached hit whose external
/// cluster is bit-identical to the original answer.
#[test]
fn compaction_carries_sketches_and_answers_through_the_permutation() {
    let g = barbell(10, 3).unwrap();
    let mut e = Engine::new(
        g,
        EngineConfig {
            sketch_hubs: 4,
            // Sketches at α = 0.1; query at α = 0.2 caches a raw-push
            // answer whose stored residuals survive a relabel repair.
            sketch_alpha: 0.1,
            ..EngineConfig::default()
        },
    );
    let q = Query {
        alpha: 0.2,
        ..query(&[0])
    };
    submit(&mut e, q.clone());
    let before = e.run_pending().remove(0);
    assert_eq!(before.kind, ResponseKind::Full);

    let summary = e.compact(CompactionOrder::Rcm).expect("compaction failed");
    assert_eq!(summary.epoch, 1);
    assert!(summary.relabeled);
    assert_eq!(summary.sketches_relabeled, 4, "a sketch was rebuilt");
    assert_eq!(summary.answers_relabeled, 1, "the cached answer was lost");
    assert_eq!(summary.answers_dropped, 0);

    submit(&mut e, q);
    let after = e.run_pending().remove(0);
    assert_eq!(after.kind, ResponseKind::Cached);
    assert_eq!(
        after.cluster, before.cluster,
        "relabeled cache entry changed the externally-labeled answer"
    );
    // The re-issued certificate is measured from the mapped residuals,
    // not copied: a real bound, strictly inside the requested ε.
    match after.certificate {
        Certificate::ResidualMass {
            remaining,
            per_degree_bound,
        } => {
            assert!(remaining > 0.0 && remaining.is_finite());
            assert!(
                per_degree_bound > 0.0 && per_degree_bound <= EPS,
                "bound {per_degree_bound:e} not a fresh measurement under ε {EPS:e}"
            );
        }
        other => panic!("unexpected certificate {other:?}"),
    }
}

/// An order-preserving compaction is the degenerate case: the epoch
/// advances, nothing is relabeled, and the cache still hits bitwise.
#[test]
fn preserve_order_compaction_keeps_identity_lineage() {
    let g = ring_of_cliques(4, 6).unwrap();
    let mut e = Engine::new(g, EngineConfig::default());
    submit(&mut e, query(&[3]));
    let before = e.run_pending().remove(0);
    let summary = e
        .compact(CompactionOrder::Preserve)
        .expect("compaction failed");
    assert_eq!(summary.epoch, 1);
    assert!(!summary.relabeled);
    assert!(!e.snapshot().is_relabeled());
    submit(&mut e, query(&[3]));
    let after = e.run_pending().remove(0);
    assert_eq!(after.kind, ResponseKind::Cached);
    assert_eq!(after.cluster, before.cluster);
}

/// The opt-in sweep stage: a fresh compute and a cache hit both attach
/// the best-conductance prefix cut over the PPR support, identical to
/// sweeping the response vector directly while the lineage is the
/// identity — and still present (same conductance to float-sum
/// tolerance) after a relabeling compaction maps it back.
#[test]
fn sweep_option_attaches_a_cut_and_survives_relabeling() {
    let g = ring_of_cliques(4, 6).unwrap();
    let mut e = Engine::new(g.clone(), EngineConfig::default());
    let q = Query {
        options: QueryOptions { sweep: true },
        ..query(&[0])
    };
    submit(&mut e, q.clone());
    let r = e.run_pending().remove(0);
    assert_eq!(r.kind, ResponseKind::Full);
    let cut = r.sweep.expect("sweep requested but absent");
    let direct = sweep_cut_sparse(&g, &r.cluster);
    assert_eq!(cut.set, direct.set);
    assert_eq!(cut.conductance.to_bits(), direct.conductance.to_bits());

    // Off by default.
    submit(&mut e, query(&[1]));
    assert!(e.run_pending().remove(0).sweep.is_none());

    // Cache hit after a relabeling compaction: sweep recomputed on the
    // relabeled snapshot, mapped back to external ids.
    e.compact(CompactionOrder::Rcm).expect("compaction failed");
    submit(&mut e, q);
    let hit = e.run_pending().remove(0);
    assert_eq!(hit.kind, ResponseKind::Cached);
    let mapped = hit.sweep.expect("sweep absent on cache hit");
    assert!((mapped.conductance - cut.conductance).abs() < 1e-9);
    assert!(mapped.set.iter().all(|&u| (u as usize) < g.n()));
}

// ---------------------------------------------------------------- proptest

/// One step of a property-tested schedule.
#[derive(Debug, Clone)]
enum Step {
    /// Submit a query from this seed.
    Query(u32),
    /// Stage a delta insert against the most recent admission, at the
    /// publish point selected by the second field.
    StageDelta(u32, u8),
    /// Stage a compaction (order selected by the field) likewise.
    StageCompact(u8),
    /// Run the service cycle and check every response.
    Run,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    ((0u8..9), (0u32..24), (0u8..4)).prop_map(|(sel, v, p)| match sel {
        0..=3 => Step::Query(v),
        4 | 5 => Step::StageDelta(v, p),
        6 => Step::StageCompact(p),
        _ => Step::Run,
    })
}

fn point(sel: u8) -> PublishPoint {
    match sel % 4 {
        0 => PublishPoint::BeforeCacheCheck,
        1 => PublishPoint::BeforeBatch,
        2 => PublishPoint::BeforeSupervise,
        _ => PublishPoint::AfterRespond,
    }
}

fn order(sel: u8) -> CompactionOrder {
    match sel % 3 {
        0 => CompactionOrder::Preserve,
        1 => CompactionOrder::Rcm,
        _ => CompactionOrder::DegreeDescending,
    }
}

/// Drive one schedule and return `(admitted, answered)` ids, checking
/// every Full/Cached response bitwise against the serial-replay oracle
/// on its pinned snapshot.
fn drive(schedule: &[Step]) -> (Vec<u64>, Vec<Response>) {
    let g = ring_of_cliques(4, 6).unwrap();
    let mut e = Engine::new(g, EngineConfig::default());
    // Pinned snapshot and seeds per in-flight admission.
    let mut inflight: Vec<(u64, Arc<GraphSnapshot>, Vec<NodeId>)> = Vec::new();
    let mut admitted = Vec::new();
    let mut responses = Vec::new();
    let mut last_id = None;
    let check = |rs: Vec<Response>,
                 inflight: &mut Vec<(u64, Arc<GraphSnapshot>, Vec<NodeId>)>,
                 responses: &mut Vec<Response>| {
        for r in rs {
            let slot = inflight
                .iter()
                .position(|(id, _, _)| *id == r.id)
                .expect("response for an unknown admission");
            let (_, snap, seeds) = inflight.remove(slot);
            assert!(
                matches!(r.kind, ResponseKind::Full | ResponseKind::Cached),
                "request {} degraded unexpectedly: {:?}",
                r.id,
                r.kind
            );
            let want = oracle(&snap, &seeds);
            assert_eq!(
                r.cluster, want,
                "request {}: pinned read diverged from serial replay (a torn \
                 or half-applied publication was observed)",
                r.id
            );
            responses.push(r);
        }
    };
    for step in schedule {
        match step {
            Step::Query(seed) => {
                let seeds = vec![*seed as NodeId];
                let snap = e.snapshot();
                let id = submit(&mut e, query(&seeds));
                admitted.push(id);
                last_id = Some(id);
                inflight.push((id, snap, seeds));
            }
            Step::StageDelta(v, p) => {
                let op = EdgeOp::Insert {
                    u: 0,
                    v: *v as NodeId,
                    weight: 1.5,
                };
                match last_id {
                    // Writers with no request to interleave against
                    // publish immediately.
                    None => {
                        e.update_graph_delta(&[op]).expect("delta failed");
                    }
                    Some(id) => e.stage_write(point(*p), id, WriteOp::Delta(vec![op])),
                }
            }
            Step::StageCompact(sel) => match last_id {
                None => {
                    e.compact(order(*sel)).expect("compaction failed");
                }
                Some(id) => e.stage_write(point(*sel), id, WriteOp::Compact(order(*sel))),
            },
            Step::Run => {
                let rs = e.run_pending();
                check(rs, &mut inflight, &mut responses);
            }
        }
    }
    loop {
        let rs = e.run_pending();
        if rs.is_empty() && e.staged_writes() == 0 {
            break;
        }
        check(rs, &mut inflight, &mut responses);
        if e.staged_writes() > 0 && admitted.len() == responses.len() {
            // Staged writes keyed to an already-answered request can
            // never fire; that is fine — they model a writer whose
            // interleaving point never arrived.
            break;
        }
    }
    assert!(inflight.is_empty(), "admitted requests left unanswered");
    (admitted, responses)
}

/// Run `f` at `ACIR_THREADS = n`, then restore whatever the variable
/// held before (CI runs this binary with it set; a bare `remove_var`
/// would silently drop the rest of the binary back to the default).
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
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random interleavings of {query, delta publish, compaction}
    /// forced between arbitrary request stages: every admitted request
    /// is answered exactly once, bit-identically to a serial replay
    /// against its admission snapshot — at both worker-pool shapes.
    #[test]
    fn interleaved_writers_never_tear_a_pinned_read(
        schedule in proptest::collection::vec(step_strategy(), 1..24),
    ) {
        let (admitted, responses) = drive(&schedule);
        prop_assert_eq!(admitted.len(), responses.len());

        // The same schedule is bit-identical across thread counts.
        let (_, r1) = with_threads(1, || drive(&schedule));
        let (_, r4) = with_threads(4, || drive(&schedule));
        prop_assert_eq!(r1.len(), r4.len());
        for (a, b) in r1.iter().zip(&r4) {
            prop_assert_eq!(a.id, b.id);
            prop_assert_eq!(a.kind, b.kind);
            prop_assert_eq!(&a.cluster, &b.cluster);
        }
    }
}
