//! The load generator. `Engine` is a synchronous `submit` /
//! `run_pending` library, so the single driver thread *is* the event
//! loop: an open loop submits Poisson arrivals on the wall clock and
//! times each from its due time; a saturation loop keeps the queue
//! full. Every response passes the output checks as it arrives.

use crate::schedule::{QueryMix, QuerySpec, WriteEvent, WriteKind};
use acir_graph::CompactionOrder;
use acir_runtime::Certificate;
use acir_serve::{Admission, Engine, EngineConfig, Query, QueryOptions, Response, ResponseKind};
use std::time::{Duration, Instant};

/// Queue bound and closed-loop concurrency of every serving workload.
pub const QUEUE_CAP: usize = 16;

/// The engine's admission-time cost model for one query, `⌈4/(εα)⌉`.
pub fn est_cost(epsilon: f64, alpha: f64) -> u64 {
    (4.0 / (epsilon * alpha)).ceil() as u64
}

/// The engine configuration every serving workload starts from: the
/// token bucket funds a full queue of the finest-ε queries, so the
/// requested ε is always affordable and degradation can only come
/// from deadlines.
pub fn engine_config(mix: &QueryMix) -> EngineConfig {
    let capacity = QUEUE_CAP as u64 * est_cost(mix.eps_fine, mix.alpha);
    EngineConfig {
        queue_cap: QUEUE_CAP,
        capacity,
        refill_per_cycle: capacity,
        ..EngineConfig::default()
    }
}

/// The engine `Query` for a generated spec.
pub fn to_query(spec: &QuerySpec, alpha: f64, deadline: Option<Duration>) -> Query {
    Query {
        seeds: vec![spec.node],
        alpha,
        epsilon: spec.epsilon,
        deadline,
        options: QueryOptions { sweep: spec.sweep },
    }
}

/// Per-response output checks of every measured run: all values
/// finite, and on the top rungs `epsilon_used == epsilon_requested`
/// with a certificate bound no looser than that ε.
pub fn response_ok(r: &Response) -> bool {
    if !r.cluster.iter().all(|&(_, x)| x.is_finite()) {
        return false;
    }
    if let Some(s) = &r.sweep {
        if !s.conductance.is_finite() {
            return false;
        }
    }
    let bound = match r.certificate {
        Certificate::ResidualMass {
            remaining,
            per_degree_bound,
        }
        | Certificate::StaleResidualMass {
            remaining,
            per_degree_bound,
            ..
        } => {
            if !remaining.is_finite() {
                return false;
            }
            per_degree_bound
        }
        _ => return false,
    };
    if !bound.is_finite() {
        return false;
    }
    match r.kind {
        ResponseKind::Full | ResponseKind::Cached => {
            r.epsilon_used == r.epsilon_requested && bound <= r.epsilon_used * (1.0 + 1e-12)
        }
        ResponseKind::Coarsened => bound <= r.epsilon_used * (1.0 + 1e-12),
        _ => true,
    }
}

/// One write the driver performed.
#[derive(Debug, Clone, Copy)]
pub struct WriteSample {
    /// `true` for a compaction, `false` for a delta batch.
    pub compact: bool,
    /// ms from the write's due time to the call returning — when the
    /// new edge is queryable.
    pub visible_ms: f64,
    /// ms the call itself blocked the loop.
    pub busy_ms: f64,
}

/// What one phase of load did.
#[derive(Debug, Clone, Default)]
pub struct PhaseStats {
    /// Requests sent (submitted to the engine).
    pub sent: usize,
    /// Requests the engine refused at admission.
    pub rejected: usize,
    /// Responses received for requests of this phase.
    pub answered: usize,
    /// Responses that failed an output check, plus second answers to
    /// an id already answered.
    pub bad_responses: usize,
    /// Writes that returned an error.
    pub failed_writes: usize,
    /// Latency of every first answer, ms. Open loop: from the due
    /// time. Saturation: from submission.
    pub latency_ms: Vec<f64>,
    /// Answers `Full`/`Cached` at the requested ε within the limit.
    pub slo_ok: usize,
    /// Answers per [`ResponseKind`], in ladder order.
    pub kinds: [usize; 6],
    /// `run_pending` calls that returned at least one response.
    pub cycles: usize,
    /// Wall time of the phase, s.
    pub wall_s: f64,
    /// Most due-but-unsubmitted arrivals seen at once (open loop).
    pub backlog_max: usize,
    /// ms each arrival was submitted after it was due (open loop).
    pub gen_lag_ms: Vec<f64>,
    /// Writes performed, in order.
    pub writes: Vec<WriteSample>,
}

impl PhaseStats {
    /// Requests that got no answer at all.
    pub fn unanswered(&self) -> usize {
        (self.sent - self.rejected).saturating_sub(self.answered)
    }

    /// Operations attempted: requests sent plus writes.
    pub fn attempted(&self) -> usize {
        self.sent + self.writes.len() + self.failed_writes
    }

    /// Operations failed: rejected, unanswered, answered twice, failed
    /// an output check, or a write that errored.
    pub fn failed(&self) -> usize {
        self.rejected + self.unanswered() + self.bad_responses + self.failed_writes
    }

    /// Mean responses per non-empty `run_pending` cycle.
    pub fn batch_mean(&self) -> f64 {
        self.answered as f64 / self.cycles.max(1) as f64
    }

    /// Share of answers below the top rung.
    pub fn degraded_share(&self) -> f64 {
        self.kinds[2..].iter().sum::<usize>() as f64 / self.answered.max(1) as f64
    }

    /// Answers per second of the phase's wall time.
    pub fn rate(&self) -> f64 {
        self.answered as f64 / self.wall_s.max(1e-9)
    }
}

/// Position of a rung in the degradation ladder, top first.
pub fn kind_index(k: ResponseKind) -> usize {
    match k {
        ResponseKind::Full => 0,
        ResponseKind::Cached => 1,
        ResponseKind::Coarsened => 2,
        ResponseKind::Partial => 3,
        ResponseKind::Stale => 4,
        ResponseKind::SeedOnly => 5,
    }
}

/// Book-keeping for requests in flight: ids are handed out
/// consecutively to admitted requests, so a slot is `id - base`.
struct Ledger {
    base: Option<u64>,
    /// `(reference time ns, answers so far)` per admitted request.
    slots: Vec<(u64, u8)>,
}

impl Ledger {
    fn new() -> Self {
        Self {
            base: None,
            slots: Vec::new(),
        }
    }

    fn admit(&mut self, id: u64, reference_ns: u64) {
        let base = *self.base.get_or_insert(id);
        debug_assert_eq!(id - base, self.slots.len() as u64);
        self.slots.push((reference_ns, 0));
    }

    /// Record responses that arrived at `done_ns`.
    fn settle(&mut self, rs: &[Response], done_ns: u64, slo: Duration, out: &mut PhaseStats) {
        if rs.is_empty() {
            return;
        }
        out.cycles += 1;
        for r in rs {
            let slot = self
                .base
                .and_then(|b| r.id.checked_sub(b))
                .and_then(|i| self.slots.get_mut(i as usize));
            let Some(slot) = slot else {
                out.bad_responses += 1;
                continue;
            };
            slot.1 = slot.1.saturating_add(1);
            if slot.1 > 1 {
                out.bad_responses += 1;
                continue;
            }
            out.answered += 1;
            out.kinds[kind_index(r.kind)] += 1;
            let latency_ms = done_ns.saturating_sub(slot.0) as f64 / 1e6;
            out.latency_ms.push(latency_ms);
            if !response_ok(r) {
                out.bad_responses += 1;
            } else if !r.kind.is_degraded() && latency_ms <= slo.as_secs_f64() * 1e3 {
                out.slo_ok += 1;
            }
        }
    }
}

/// Spin to `target_us`. Sleeping would hand the core back between
/// arrivals, and how warm it comes back is the hypervisor's business:
/// identical runs then read up to 12 % apart at the median.
fn wait_until(start: Instant, target_us: u64) {
    while (start.elapsed().as_micros() as u64) < target_us {
        std::hint::spin_loop();
    }
}

fn perform_write(engine: &mut Engine, w: &WriteEvent, start: Instant, out: &mut PhaseStats) {
    let begin = start.elapsed();
    let result = match &w.kind {
        WriteKind::Delta(ops) => engine.update_graph_delta(ops).map(|_| false),
        WriteKind::Compact => engine.compact(CompactionOrder::Rcm).map(|_| true),
    };
    let end = start.elapsed();
    match result {
        Ok(compact) => out.writes.push(WriteSample {
            compact,
            visible_ms: end.as_secs_f64() * 1e3 - w.due_us as f64 / 1e3,
            busy_ms: (end - begin).as_secs_f64() * 1e3,
        }),
        Err(_) => out.failed_writes += 1,
    }
}

/// Open loop: arrival `i` is due `due_us[i]` after the phase starts.
/// Each cycle first runs any due write (the engine is idle at the top
/// of a cycle, and a write blocks the loop as the API dictates), then
/// submits every due arrival that fits the free queue slots — the rest
/// wait in the driver's backlog — then calls `run_pending`. Latency
/// runs from the due time. With `deadline_from_slo`, each query
/// carries what is left of `slo` at submission as its deadline.
pub fn open_loop(
    engine: &mut Engine,
    alpha: f64,
    queries: &mut dyn Iterator<Item = QuerySpec>,
    due_us: &[u64],
    writes: &[WriteEvent],
    slo: Duration,
    deadline_from_slo: bool,
) -> PhaseStats {
    let mut out = PhaseStats::default();
    let mut ledger = Ledger::new();
    let start = Instant::now();
    let now_us = || start.elapsed().as_micros() as u64;
    let (mut next, mut w) = (0usize, 0usize);
    while next < due_us.len() || engine.pending() > 0 {
        while w < writes.len() && writes[w].due_us <= now_us() {
            perform_write(engine, &writes[w], start, &mut out);
            w += 1;
        }
        let now = now_us();
        while next < due_us.len() && due_us[next] <= now && engine.pending() < QUEUE_CAP {
            let spec = queries.next().expect("query stream is endless");
            let left = slo.saturating_sub(Duration::from_micros(now - due_us[next]));
            let q = to_query(&spec, alpha, deadline_from_slo.then_some(left));
            out.sent += 1;
            out.gen_lag_ms.push((now - due_us[next]) as f64 / 1e3);
            match engine.submit(q) {
                Admission::Accepted { id, .. } => ledger.admit(id, due_us[next] * 1_000),
                Admission::Rejected(_) => out.rejected += 1,
            }
            next += 1;
        }
        let backlog = due_us[next..].partition_point(|&d| d <= now);
        out.backlog_max = out.backlog_max.max(backlog);
        if engine.pending() == 0 {
            // Idle until the next arrival or write, whichever is first.
            // The phase ends with its last arrival; a write due later
            // is not run.
            let Some(&arrival) = due_us.get(next) else {
                break;
            };
            wait_until(
                start,
                writes.get(w).map_or(arrival, |wr| arrival.min(wr.due_us)),
            );
            continue;
        }
        let rs = engine.run_pending();
        ledger.settle(&rs, start.elapsed().as_nanos() as u64, slo, &mut out);
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out
}

/// Saturation, closed loop with [`QUEUE_CAP`] in flight: every cycle
/// refills the queue and drains it, for `duration`. Latency runs from
/// submission, as the waiting callers see it.
pub fn saturate(
    engine: &mut Engine,
    alpha: f64,
    queries: &mut dyn Iterator<Item = QuerySpec>,
    duration: Duration,
    slo: Duration,
) -> PhaseStats {
    let mut out = PhaseStats::default();
    let mut ledger = Ledger::new();
    let start = Instant::now();
    while start.elapsed() < duration {
        let now_ns = start.elapsed().as_nanos() as u64;
        while engine.pending() < QUEUE_CAP {
            let spec = queries.next().expect("query stream is endless");
            out.sent += 1;
            match engine.submit(to_query(&spec, alpha, None)) {
                Admission::Accepted { id, .. } => ledger.admit(id, now_ns),
                Admission::Rejected(_) => out.rejected += 1,
            }
        }
        let rs = engine.run_pending();
        ledger.settle(&rs, start.elapsed().as_nanos() as u64, slo, &mut out);
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out
}

/// A fixed number of requests, one per cycle — the warm-up of every
/// engine, which sizes the kernel workspaces before anything is timed.
pub fn warm_up(
    engine: &mut Engine,
    alpha: f64,
    queries: &mut dyn Iterator<Item = QuerySpec>,
    count: usize,
) {
    for spec in queries.take(count) {
        engine.submit(to_query(&spec, alpha, None));
        engine.run_pending();
    }
}
