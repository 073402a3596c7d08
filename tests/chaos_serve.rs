//! Chaos suite for the `acir-serve` query engine.
//!
//! Property-tests the serving invariant over random fault × arrival
//! interleavings — worker panics, NaN corruption, budget starvation,
//! and deadline storms, at 1 and 4 worker threads:
//!
//! > Every admitted request receives exactly one certified response,
//! > the shutdown drain answers everything still queued, and the
//! > process never panics.
//!
//! Because every fault decision is a pure function of `(seed, id,
//! attempt)` and work decomposition is a pure function of the input,
//! the *entire service history* — ids, ladder rungs, clusters, retry
//! counts — must also be bit-identical across thread counts; the suite
//! asserts that too.

use acir::exec::THREADS_ENV;
use acir::serve::{Admission, ChaosConfig, Engine, EngineConfig, Query, Response};
use acir_graph::EdgeOp;
use acir_runtime::Certificate;
use proptest::prelude::*;
use std::sync::Once;
use std::time::Duration;

/// Suppress the default panic hook's backtrace for injected chaos
/// panics (they are caught by the engine's fence); real panics — test
/// assertion failures included — still print.
fn quiet_chaos_panics() {
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.starts_with("chaos:") {
                prev(info);
            }
        }));
    });
}

/// One randomized service run: fault schedule, offered load, and the
/// admission-control pressure it plays out under.
#[derive(Debug, Clone)]
struct Plan {
    chaos_seed: u64,
    panic_rate: f64,
    nan_rate: f64,
    /// Per request: `(seed-node selector, expired-deadline?, fine-ε?)`.
    requests: Vec<(u32, bool, bool)>,
    waves: usize,
    capacity: u64,
    queue_cap: usize,
    max_attempts: usize,
    /// Hub-sketch count; 0 disables the splice path entirely.
    sketch_hubs: usize,
    /// Apply a mid-stream edge delta between submitting and running
    /// every other wave — in-flight requests must never observe a
    /// half-applied delta (epoch-stamped consistency).
    delta_waves: bool,
    /// Probability that a delta's incremental repair faults at a given
    /// epoch, forcing the full-rebuild fallback.
    repair_fault_rate: f64,
}

fn arb_plan() -> impl Strategy<Value = Plan> {
    (
        (0u64..1_000_000, 0u8..4, 0u8..4),
        collection::vec((0u32..64, 0u8..4), 1..28),
        (1usize..4, 64u64..200_000, 1usize..9, 1usize..5),
        0usize..3,
        (0u8..2, 0u8..2),
    )
        .prop_map(
            |(
                (chaos_seed, p, n),
                reqs,
                (waves, capacity, queue_cap, max_attempts),
                hubs,
                (delta_waves, rf),
            )| Plan {
                chaos_seed,
                panic_rate: f64::from(p) * 0.15,
                nan_rate: f64::from(n) * 0.15,
                requests: reqs
                    .into_iter()
                    .map(|(sel, flavor)| (sel, flavor & 1 != 0, flavor & 2 != 0))
                    .collect(),
                waves,
                capacity,
                queue_cap,
                max_attempts,
                sketch_hubs: hubs * 8,
                delta_waves: delta_waves == 1,
                repair_fault_rate: f64::from(rf) * 0.5,
            },
        )
}

/// What must be identical across thread counts: the full service
/// history minus wall-clock times.
type Summary = (u64, &'static str, u64, Vec<(u32, u64)>, usize);

fn summarize(r: &Response) -> Summary {
    (
        r.id,
        r.kind.name(),
        r.epsilon_used.to_bits(),
        r.cluster.iter().map(|&(u, x)| (u, x.to_bits())).collect(),
        r.retries,
    )
}

/// Drive one full engine lifetime under `plan` and check the serving
/// invariant; returns the deterministic service history.
fn run_plan(plan: &Plan) -> Vec<Summary> {
    let g = acir_graph::gen::deterministic::barbell(10, 3).unwrap();
    let n = g.n() as u32;
    let cfg = EngineConfig {
        queue_cap: plan.queue_cap,
        capacity: plan.capacity,
        refill_per_cycle: plan.capacity / 2,
        min_grant: 16,
        max_attempts: plan.max_attempts,
        chaos: Some(ChaosConfig {
            repair_fault_rate: plan.repair_fault_rate,
            ..ChaosConfig::with_rates(plan.chaos_seed, plan.panic_rate, plan.nan_rate)
        }),
        sketch_hubs: plan.sketch_hubs,
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(g, cfg);
    let mut admitted: Vec<u64> = Vec::new();
    let mut responses: Vec<Response> = Vec::new();
    let wave_len = plan.requests.len().div_ceil(plan.waves);
    for (w, wave) in plan.requests.chunks(wave_len.max(1)).enumerate() {
        for &(sel, expired, fine) in wave {
            let q = Query {
                seeds: vec![sel % n],
                alpha: 0.1,
                epsilon: if fine { 1e-4 } else { 1e-2 },
                deadline: expired.then_some(Duration::ZERO),
                options: Default::default(),
            };
            match engine.submit(q) {
                Admission::Accepted { id, .. } => admitted.push(id),
                Admission::Rejected(o) => {
                    // Rejections are structural, never mid-compute.
                    assert!(!o.detail.is_empty());
                }
            }
        }
        // Mid-stream graph mutation with requests already queued: the
        // delta is atomic, bumps the epoch exactly once, and the
        // queued (old-epoch) requests still get exactly one certified
        // response each — they are never batched or spliced across the
        // mutation. A repair fault (rate-driven) must fall back to a
        // full sketch rebuild, never an error.
        if plan.delta_waves && w % 2 == 1 {
            let u = 13 + (w as u32 * 3) % 10;
            let v = 13 + (w as u32 * 3 + 1) % 10;
            let before = engine.epoch();
            let s = engine
                .update_graph_delta(&[EdgeOp::Insert {
                    u,
                    v,
                    weight: 1.0 + w as f64,
                }])
                .expect("valid delta must apply");
            assert!(
                (s.edges > 0 && s.epoch == before + 1) || (s.edges == 0 && s.epoch == before),
                "epoch must move exactly with the delta: {s:?}"
            );
        }
        responses.extend(engine.run_pending());
    }
    // Submit one last burst, then shut down without running a cycle:
    // the shutdown drain must still answer it.
    for &(sel, ..) in plan.requests.iter().take(3) {
        if let Admission::Accepted { id, .. } = engine.submit(Query {
            seeds: vec![sel % n],
            alpha: 0.1,
            epsilon: 1e-2,
            deadline: None,
            options: Default::default(),
        }) {
            admitted.push(id);
        }
    }
    responses.extend(engine.shutdown());

    // Exactly one response per admitted request, nothing else.
    let mut answered: Vec<u64> = responses.iter().map(|r| r.id).collect();
    answered.sort_unstable();
    admitted.sort_unstable();
    assert_eq!(answered, admitted, "admitted ≠ answered under {plan:?}");

    // Every response is certified and clean — no uncertified converged
    // result and no NaN ever reaches a client.
    for r in &responses {
        match r.certificate {
            Certificate::ResidualMass {
                remaining,
                per_degree_bound,
            } => {
                // Residual repair across a delta works with *signed*
                // residuals: a repaired answer's remaining mass can dip
                // slightly below zero (bounded by ε·vol over the
                // repaired support), so the lower bound here is loose
                // where a fresh push's would be exactly 0.
                assert!(
                    (-0.5..=1.0 + 1e-12).contains(&remaining),
                    "uncertifiable residual mass {remaining} on request {}",
                    r.id
                );
                assert!(per_degree_bound > 0.0);
            }
            Certificate::ResidualNorm { value } => assert!(value.is_finite()),
            Certificate::StaleResidualMass {
                remaining,
                per_degree_bound,
                ..
            } => {
                // Only the Stale rung may serve an epoch-labeled
                // answer; everything fresher certifies against the
                // current graph.
                assert_eq!(
                    r.kind.name(),
                    "stale",
                    "epoch-labeled certificate on non-stale rung for request {}",
                    r.id
                );
                assert!((0.0..=1.0 + 1e-12).contains(&remaining));
                assert!(per_degree_bound > 0.0);
            }
            other => panic!("certificate kind {other:?} cannot come from the serve ladder"),
        }
        assert!(
            r.cluster.iter().all(|&(_, x)| x.is_finite()),
            "non-finite value served on request {}",
            r.id
        );
        if !r.kind.is_degraded() {
            assert_eq!(r.epsilon_used.to_bits(), r.epsilon_requested.to_bits());
        }
    }
    responses.iter().map(summarize).collect()
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

    /// The serving invariant holds under arbitrary fault × arrival
    /// interleavings, and the full service history is bit-identical
    /// at 1 and 4 worker threads.
    #[test]
    fn admitted_requests_get_exactly_one_certified_response(plan in arb_plan()) {
        quiet_chaos_panics();
        let solo = with_threads(1, || run_plan(&plan));
        let wide = with_threads(4, || run_plan(&plan));
        prop_assert_eq!(solo, wide);
    }
}

/// The committed fault schedules the acceptance gate names: a panic
/// storm, a NaN storm, a starvation squeeze, and a deadline storm, each
/// driven deterministically and each ending with every admitted request
/// answered exactly once.
#[test]
fn committed_fault_schedules_hold_the_invariant() {
    quiet_chaos_panics();
    let schedules = [
        Plan {
            chaos_seed: 0xACE,
            panic_rate: 0.5,
            nan_rate: 0.0,
            requests: (0..24).map(|i| (i, false, i % 2 == 0)).collect(),
            waves: 3,
            capacity: 150_000,
            queue_cap: 8,
            max_attempts: 3,
            sketch_hubs: 0,
            delta_waves: false,
            repair_fault_rate: 0.0,
        },
        Plan {
            chaos_seed: 0xBEE,
            panic_rate: 0.0,
            nan_rate: 0.5,
            requests: (0..24).map(|i| (i * 7, false, false)).collect(),
            waves: 2,
            capacity: 150_000,
            queue_cap: 8,
            max_attempts: 2,
            sketch_hubs: 0,
            delta_waves: true,
            repair_fault_rate: 0.0,
        },
        Plan {
            chaos_seed: 0xCAB,
            panic_rate: 0.25,
            nan_rate: 0.25,
            requests: (0..32).map(|i| (i * 3, false, true)).collect(),
            waves: 4,
            capacity: 256, // squeezed bucket: most requests starve
            queue_cap: 4,
            max_attempts: 3,
            sketch_hubs: 8,
            delta_waves: true,
            repair_fault_rate: 0.0,
        },
        Plan {
            chaos_seed: 0xDAD,
            panic_rate: 0.25,
            nan_rate: 0.0,
            requests: (0..24).map(|i| (i, i % 3 == 0, false)).collect(),
            waves: 3,
            capacity: 150_000,
            queue_cap: 8,
            max_attempts: 3,
            sketch_hubs: 0,
            delta_waves: false,
            repair_fault_rate: 0.0,
        },
        // Panic + NaN storm with the splice path live: faults during
        // spliced first attempts must degrade through raw-push retries
        // and down the ladder, with the history still deterministic.
        Plan {
            chaos_seed: 0xFAB,
            panic_rate: 0.5,
            nan_rate: 0.25,
            requests: (0..24).map(|i| (i * 5, i % 5 == 0, i % 2 == 0)).collect(),
            waves: 3,
            capacity: 150_000,
            queue_cap: 8,
            max_attempts: 3,
            sketch_hubs: 8,
            delta_waves: true,
            repair_fault_rate: 0.0,
        },
        // Delta churn with every repair faulted: each mutation falls
        // back to a full sketch rebuild mid-stream, and the ladder
        // still answers everything exactly once.
        Plan {
            chaos_seed: 0xFEED,
            panic_rate: 0.25,
            nan_rate: 0.25,
            requests: (0..24).map(|i| (i * 3, i % 7 == 0, i % 2 == 0)).collect(),
            waves: 4,
            capacity: 150_000,
            queue_cap: 8,
            max_attempts: 3,
            sketch_hubs: 8,
            delta_waves: true,
            repair_fault_rate: 1.0,
        },
    ];
    for plan in &schedules {
        let history = run_plan(plan);
        assert!(!history.is_empty() || plan.capacity < 1024);
    }
}

/// A panic injected into the spliced first attempt degrades to a raw
/// push retry and still lands a Full answer — the splice path adds a
/// rung above the ladder, never a new failure mode.
#[test]
fn injected_splice_fault_degrades_to_raw_push() {
    quiet_chaos_panics();
    let g = acir_graph::gen::deterministic::barbell(10, 3).unwrap();
    let mut chaos = ChaosConfig::default();
    chaos.forced_panics.insert((0, 0)); // kill the splice attempt
    let mut e = Engine::new(
        g,
        EngineConfig {
            chaos: Some(chaos),
            sketch_hubs: 8,
            max_attempts: 3,
            ..EngineConfig::default()
        },
    );
    let Admission::Accepted { .. } = e.submit(Query {
        seeds: vec![0],
        alpha: 0.1,
        epsilon: 1e-2,
        deadline: None,
        options: Default::default(),
    }) else {
        panic!("query rejected");
    };
    let rs = e.run_pending();
    assert_eq!(rs[0].kind.name(), "full");
    assert_eq!(rs[0].retries, 1);
    assert!(rs[0].cluster.iter().all(|&(_, x)| x.is_finite()));
    assert_eq!(e.stats().spliced, 1);
}

/// With retries exhausted by splice faults, the request walks the rest
/// of the ladder instead of erroring: the answer is degraded, certified,
/// and NaN-free.
#[test]
fn splice_faults_with_no_retries_walk_the_ladder() {
    quiet_chaos_panics();
    let g = acir_graph::gen::deterministic::barbell(10, 3).unwrap();
    let mut chaos = ChaosConfig::default();
    chaos.forced_panics.insert((0, 0));
    let mut e = Engine::new(
        g,
        EngineConfig {
            chaos: Some(chaos),
            sketch_hubs: 8,
            max_attempts: 1, // no retry budget: the fault must degrade
            ..EngineConfig::default()
        },
    );
    assert!(e
        .submit(Query {
            seeds: vec![0],
            alpha: 0.1,
            epsilon: 1e-2,
            deadline: None,
            options: Default::default(),
        })
        .is_accepted());
    let rs = e.run_pending();
    assert_eq!(rs.len(), 1);
    assert!(rs[0].kind.is_degraded(), "kind {:?}", rs[0].kind);
    assert!(rs[0].cluster.iter().all(|&(_, x)| x.is_finite()));
}
