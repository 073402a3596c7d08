//! Per-layer measurements shared by the traced runs: the deterministic
//! replay of a serving workload with spans around every call into a
//! layer, and the bare-kernel samples beneath it.
//!
//! Counts taken here (marked `#` in `README.md`) are a pure function of
//! the seed: the replay runs one request per cycle at `ACIR_THREADS=1`
//! with writes placed by request index.

use crate::driver::{kind_index, response_ok, to_query, QUEUE_CAP};
use crate::report::{rss_now_kb, Report};
use crate::schedule::{QuerySpec, WriteKind};
use crate::spans::Tracer;
use crate::stats;
use acir_exec::ExecPool;
use acir_graph::snapshot::GraphSnapshot;
use acir_graph::{
    compact_ordered, CompactionOrder, DeltaGraph, EdgeOp, Graph, NodeId, SnapshotStore,
};
use acir_local::push::ppr_exact_reference;
use acir_local::{
    ppr_push, ppr_push_spliced, ppr_repair, sweep_cut_sparse, RepairRequest, SketchSet,
    DEFAULT_REPAIR_MASS_THRESHOLD,
};
use acir_serve::{Admission, Engine, EngineConfig, Response, ResponseKind};
use std::time::{Duration, Instant};

/// Answers per serving workload compared node by node with the exact
/// reference.
pub const REFERENCE_SAMPLES: usize = 16;

/// Run `f` with `ACIR_THREADS` set to `threads`, then restore it.
pub fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    let before = std::env::var("ACIR_THREADS").ok();
    std::env::set_var("ACIR_THREADS", threads.to_string());
    let out = f();
    match before {
        Some(v) => std::env::set_var("ACIR_THREADS", v),
        None => std::env::remove_var("ACIR_THREADS"),
    }
    out
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// What the engine did for one write of the replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct WriteOutcome {
    /// `true` for a compaction.
    pub compact: bool,
    /// ms the call took.
    pub ms: f64,
    /// Cached answers repaired in place (deltas).
    pub answers_repaired: usize,
    /// Cached answers dropped.
    pub answers_dropped: usize,
}

/// Everything the replay of one serving workload measured.
#[derive(Debug, Default)]
pub struct ReplayOut {
    /// Requests replayed.
    pub requests: usize,
    /// µs from `submit` to the response, per request.
    pub service_us: Vec<f64>,
    /// `service_us` of the answers served from the answer cache.
    pub cache_hit_us: Vec<f64>,
    /// µs of service minus the replayed kernels, per computed answer.
    pub self_us: Vec<f64>,
    /// Σ service µs over computed answers (the base of `self_share`).
    pub computed_service_us: f64,
    /// µs of the replayed diffusion kernel, per request.
    pub kernel_us: Vec<f64>,
    /// µs of the replayed `sweep_cut_sparse`, per sweeping request.
    pub sweep_us: Vec<f64>,
    /// Σ edge traversals of the replayed kernel.
    pub work: usize,
    /// Σ pushes of the replayed kernel.
    pub pushes: usize,
    /// Σ nodes the replayed kernel touched.
    pub touched: usize,
    /// Σ support of the replayed kernel's vector.
    pub support: usize,
    /// Answers per [`ResponseKind`], ladder order.
    pub kinds: [usize; 6],
    /// Requests answered through the splice path.
    pub spliced: u64,
    /// Allocator calls on the engine path (submit + run_pending).
    pub engine_allocs: u64,
    /// Bytes requested on the engine path.
    pub engine_alloc_bytes: u64,
    /// Allocator calls inside the replayed diffusion kernel.
    pub kernel_allocs: u64,
    /// Growth of `Engine::trace().events`.
    pub trace_events: usize,
    /// Σ `Response::diagnostics.events.len()`.
    pub diag_events: usize,
    /// Growth of the resident set over the replay, KiB.
    pub rss_growth_kb: f64,
    /// Wall time of the replay, s.
    pub wall_s: f64,
    /// Writes performed, in order.
    pub writes: Vec<WriteOutcome>,
}

/// The diffusion kernel the engine runs for a request, replayed bare.
/// Returns `(vector, work, pushes, touched)`.
fn run_kernel(
    g: &Graph,
    seed: NodeId,
    alpha: f64,
    epsilon: f64,
    sketches: Option<&SketchSet>,
) -> (Vec<(NodeId, f64)>, usize, usize, usize) {
    match sketches {
        Some(set) => {
            let r = ppr_push_spliced(g, &[seed], alpha, epsilon, set)
                .expect("replayed splice has valid arguments");
            (r.vector, r.work, r.pushes, r.touched)
        }
        None => {
            let r =
                ppr_push(g, &[seed], alpha, epsilon).expect("replayed push has valid arguments");
            (r.vector, r.work, r.pushes, r.touched)
        }
    }
}

/// Replay `specs` one request per cycle, with `writes[k] = (i, w)`
/// performed before request `i` is submitted. Each request gets a
/// `request` span over `serve.submit` and `serve.run_pending`, then a
/// `replay` span over the bare kernels the engine ran for it, on the
/// snapshot it was answered against. Every response passes the output
/// checks, and `references` evenly spaced answers are compared node by
/// node with `ppr_exact_reference` — before each write and at the end,
/// so no superseded snapshot is kept alive for it; `wall_s` and the
/// RSS growth leave the comparisons out. Run it under
/// [`with_threads`]`(1, …)`.
pub fn replay(
    engine: &mut Engine,
    alpha: f64,
    specs: &[QuerySpec],
    writes: &[(usize, WriteKind)],
    references: usize,
    tracer: &mut Tracer,
    report: &mut Report,
) -> ReplayOut {
    let mut out = ReplayOut {
        requests: specs.len(),
        ..ReplayOut::default()
    };
    let sample_every = (specs.len() / references.max(1)).max(1);
    // Answers awaiting comparison (all on the current head), how many
    // were taken, and the time and RSS the comparisons cost so far.
    let mut sampled: Vec<(QuerySpec, Response)> = Vec::new();
    let (mut taken, mut checking, mut checking_kb) = (0usize, Duration::ZERO, 0.0);
    let mut compare =
        |sampled: &mut Vec<(QuerySpec, Response)>, engine: &Engine, report: &mut Report| {
            let (t, kb) = (Instant::now(), rss_now_kb());
            let snapshot = engine.snapshot();
            for (spec, r) in sampled.drain(..) {
                report.check(
                    "answer within ε·deg of the exact reference",
                    reference_ok(&snapshot, &spec, &r, alpha),
                );
            }
            checking += t.elapsed();
            checking_kb += (rss_now_kb() - kb).max(0.0);
        };
    let events_before = engine.trace().events.len();
    let spliced_before = engine.stats().spliced;
    let rss_before = rss_now_kb();
    let start = Instant::now();
    let mut next_write = 0usize;
    for (i, spec) in specs.iter().enumerate() {
        while next_write < writes.len() && writes[next_write].0 == i {
            compare(&mut sampled, engine, report);
            out.writes
                .push(replay_write(engine, &writes[next_write].1, tracer, report));
            next_write += 1;
        }
        let rid = Some(i as u64);
        let a0 = acir_mem::snapshot();
        let req = tracer.begin("request", rid);
        let s = tracer.begin("serve.submit", None);
        let admission = engine.submit(to_query(spec, alpha, None));
        tracer.end(s);
        let s = tracer.begin("serve.run_pending", None);
        let mut rs = engine.run_pending();
        tracer.end(s);
        let service = us(tracer.end(req));
        let engine_alloc = acir_mem::snapshot().since(&a0);
        out.engine_allocs += engine_alloc.heap_events();
        out.engine_alloc_bytes += engine_alloc.bytes;

        let ok =
            matches!(admission, Admission::Accepted { .. }) && rs.len() == 1 && response_ok(&rs[0]);
        report.ops(1, usize::from(!ok));
        let Some(r) = rs.pop() else { continue };
        out.service_us.push(service);
        out.diag_events += r.diagnostics.events.len();
        out.kinds[kind_index(r.kind)] += 1;

        // The engine is idle, so its head is the snapshot this request ran on.
        let snapshot = engine.snapshot();
        let g = snapshot.graph();
        let seed = snapshot
            .to_internal(spec.node)
            .expect("generated seeds are in range");
        let sketches = engine.sketch_store().map(|s| s.set());
        let rp = tracer.begin("replay", rid);
        let a0 = acir_mem::snapshot();
        let k = tracer.begin(
            if sketches.is_some() {
                "local.ppr_push_spliced"
            } else {
                "local.ppr_push"
            },
            None,
        );
        let (vector, work, pushes, touched) = run_kernel(g, seed, alpha, spec.epsilon, sketches);
        let kernel = us(tracer.end(k));
        out.kernel_allocs += acir_mem::snapshot().since(&a0).heap_events();
        let mut sweep = 0.0;
        if spec.sweep {
            let s = tracer.begin("local.sweep_cut_sparse", None);
            std::hint::black_box(sweep_cut_sparse(g, &vector));
            sweep = us(tracer.end(s));
            out.sweep_us.push(sweep);
        }
        tracer.end(rp);
        out.kernel_us.push(kernel);
        out.work += work;
        out.pushes += pushes;
        out.touched += touched;
        out.support += vector.len();
        if r.kind == ResponseKind::Cached {
            out.cache_hit_us.push(service);
        } else {
            out.self_us.push((service - kernel - sweep).max(0.0));
            out.computed_service_us += service;
        }
        if i % sample_every == 0 && taken < references {
            sampled.push((*spec, r));
            taken += 1;
        }
    }
    compare(&mut sampled, engine, report);
    out.wall_s = (start.elapsed() - checking).as_secs_f64();
    out.trace_events = engine.trace().events.len() - events_before;
    out.spliced = engine.stats().spliced - spliced_before;
    out.rss_growth_kb = (rss_now_kb() - rss_before - checking_kb).max(0.0);
    out
}

/// The replay as every serving workload's traced run makes it: once
/// with tracing off and once with spans, both at one thread, the
/// difference being `trace.overhead_share`; then the `serve.*`, `mem.*`
/// and sweep metrics read off the traced pass. The untraced pass runs
/// on the first of `engines` and the traced pass on the last — two
/// fresh engines, or one whose path keeps no state between requests.
pub fn replay_twice(
    engines: &mut [Engine],
    alpha: f64,
    specs: &[QuerySpec],
    writes: &[(usize, WriteKind)],
    tracer: &mut Tracer,
    report: &mut Report,
) -> ReplayOut {
    let (untraced, out) = with_threads(1, || {
        let engine = engines.first_mut().expect("at least one engine");
        let mut off = Tracer::new(false, 0);
        let mut unused = Report::default();
        let untraced = replay(engine, alpha, specs, writes, 0, &mut off, &mut unused);
        let engine = engines.last_mut().expect("at least one engine");
        let out = replay(
            engine,
            alpha,
            specs,
            writes,
            REFERENCE_SAMPLES,
            tracer,
            report,
        );
        (untraced.wall_s, out)
    });
    report.set("trace.overhead_share", (out.wall_s - untraced) / untraced);
    set_replay_metrics(report, &out);
    out
}

fn replay_write(
    engine: &mut Engine,
    w: &WriteKind,
    tracer: &mut Tracer,
    report: &mut Report,
) -> WriteOutcome {
    let t = Instant::now();
    let result = match w {
        WriteKind::Delta(ops) => {
            let s = tracer.begin("serve.update_graph_delta", None);
            let r = engine.update_graph_delta(ops);
            tracer.end(s);
            r.map(|d| (false, d.answers_repaired, d.answers_dropped))
        }
        WriteKind::Compact => {
            let s = tracer.begin("serve.compact", None);
            let r = engine.compact(CompactionOrder::Rcm);
            tracer.end(s);
            r.map(|c| (true, 0, c.answers_dropped))
        }
    };
    let ms = t.elapsed().as_secs_f64() * 1e3;
    report.ops(1, usize::from(result.is_err()));
    let (compact, answers_repaired, answers_dropped) = result.unwrap_or_default();
    WriteOutcome {
        compact,
        ms,
        answers_repaired,
        answers_dropped,
    }
}

/// `|exact − answer| ≤ ε·deg` at every node of the snapshot the answer
/// was computed on. The reference iterates until its own error is
/// below a thousandth of ε, which the comparison allows for.
fn reference_ok(snapshot: &GraphSnapshot, spec: &QuerySpec, r: &Response, alpha: f64) -> bool {
    let g = snapshot.graph();
    let Ok(seed) = snapshot.to_internal(spec.node) else {
        return false;
    };
    let slack = 1e-3 * r.epsilon_used;
    let iters = (slack.ln() / (1.0 - alpha).ln()).ceil() as usize;
    let Ok(exact) = ppr_exact_reference(g, &[seed], alpha, iters) else {
        return false;
    };
    let mut answer = vec![0.0; g.n()];
    for &(u, x) in &r.cluster {
        match snapshot.to_internal(u) {
            Ok(v) => answer[v as usize] = x,
            Err(_) => return false,
        }
    }
    (0..g.n())
        .all(|u| (exact[u] - answer[u]).abs() <= r.epsilon_used * g.degree(u as NodeId) + slack)
}

/// Set the `serve.*`, `mem.*` and sweep metrics every serving replay
/// yields.
fn set_replay_metrics(report: &mut Report, r: &ReplayOut) {
    let n = r.requests.max(1) as f64;
    report.count("replay", r.service_us.len());
    report.set("serve.service_us_p50", stats::median(&r.service_us));
    report.set("serve.service_us_p99", stats::tail(&r.service_us).1);
    report.set("serve.self_us_p50", stats::median(&r.self_us));
    report.set(
        "serve.self_share",
        r.self_us.iter().sum::<f64>() / r.computed_service_us.max(1e-9),
    );
    report.set("serve.cache_hit_us_p50", stats::median(&r.cache_hit_us));
    report.set("serve.full_share", r.kinds[0] as f64 / n);
    report.set("serve.cached_share", r.kinds[1] as f64 / n);
    report.set("serve.spliced_share", r.spliced as f64 / n);
    report.set("serve.trace_events_per_req", r.trace_events as f64 / n);
    report.set("serve.diag_events_per_resp", r.diag_events as f64 / n);
    report.set("serve.rss_kb_per_req", r.rss_growth_kb / n);
    report.set("mem.allocs_per_req", r.engine_allocs as f64 / n);
    report.set(
        "mem.alloc_kb_per_req",
        r.engine_alloc_bytes as f64 / 1024.0 / n,
    );
    report.set("mem.allocs_per_push", r.kernel_allocs as f64 / n);
    report.set("local.sweep_us_p50", stats::median(&r.sweep_us));
}

/// Set the `local.push_*` metrics from a replay whose kernel was the
/// cold push.
pub fn set_push_metrics(report: &mut Report, r: &ReplayOut) {
    let n = r.requests.max(1) as f64;
    report.set("local.push_us_p50", stats::median(&r.kernel_us));
    report.set("local.push_us_p99", stats::tail(&r.kernel_us).1);
    report.set("local.push_work_per_q", r.work as f64 / n);
    report.set("local.pushes_per_q", r.pushes as f64 / n);
    report.set("local.touched_per_q", r.touched as f64 / n);
    report.set("local.push_support_per_q", r.support as f64 / n);
}

/// Median µs of bare `ppr_push` over `specs` on `g` (seeds mod `n`).
pub fn push_us_p50(g: &Graph, alpha: f64, specs: &[QuerySpec]) -> f64 {
    let times: Vec<f64> = specs
        .iter()
        .map(|q| {
            let seed = q.node % g.n() as NodeId;
            let t = Instant::now();
            std::hint::black_box(
                ppr_push(g, &[seed], alpha, q.epsilon).expect("valid push arguments"),
            );
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    stats::median(&times)
}

/// Median µs of an empty `ExecPool::par_for` region with two jobs: the
/// fixed price of every parallel region at the ambient thread count.
pub fn exec_region_us() -> f64 {
    let pool = ExecPool::from_env();
    let times: Vec<f64> = (0..2000)
        .map(|_| {
            let t = Instant::now();
            pool.par_for(2, 1, |i| {
                std::hint::black_box(i);
            });
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    stats::median(&times)
}

/// Seconds a fresh engine takes to answer `specs` at saturation.
pub fn drain_fixed(g: &Graph, cfg: &EngineConfig, alpha: f64, specs: &[QuerySpec]) -> f64 {
    let mut engine = Engine::new(g.clone(), cfg.clone());
    let mut next = 0usize;
    let t = Instant::now();
    while next < specs.len() || engine.pending() > 0 {
        while engine.pending() < QUEUE_CAP && next < specs.len() {
            engine.submit(to_query(&specs[next], alpha, None));
            next += 1;
        }
        std::hint::black_box(engine.run_pending());
    }
    t.elapsed().as_secs_f64()
}

/// `exec.batch_speedup`: the same saturation slice through a fresh
/// engine at one thread over the ambient thread count.
pub fn batch_speedup(g: &Graph, cfg: &EngineConfig, alpha: f64, specs: &[QuerySpec]) -> f64 {
    let many = drain_fixed(g, cfg, alpha, specs);
    let one = with_threads(1, || drain_fixed(g, cfg, alpha, specs));
    one / many
}

/// The graph layer's share of a write, measured bare on `g` for each
/// delta batch: overlay apply, CSR rebuild, RCM relabel, publication.
pub fn set_graph_write_metrics(report: &mut Report, g: &Graph, batches: &[Vec<EdgeOp>]) {
    let (mut apply, mut compact, mut publish) = (Vec::new(), Vec::new(), Vec::new());
    let store = SnapshotStore::new(g.clone());
    for ops in batches {
        let t = Instant::now();
        let mut dg = DeltaGraph::new(g);
        for op in ops {
            dg.apply(op).expect("generated ops are valid");
        }
        let delta = dg.net_delta();
        apply.push(t.elapsed().as_nanos() as f64 / 1e3);
        let t = Instant::now();
        let (next, _) = dg.compact().expect("overlay compacts");
        compact.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        store.publish_delta(next, delta);
        std::hint::black_box(store.pin());
        publish.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    let t = Instant::now();
    std::hint::black_box(
        compact_ordered(&DeltaGraph::new(g), CompactionOrder::Rcm).expect("RCM compaction"),
    );
    report.set("graph.rcm_compact_ms", t.elapsed().as_secs_f64() * 1e3);
    report.set("graph.delta_apply_us", stats::median(&apply));
    report.set("graph.delta_compact_ms", stats::median(&compact));
    report.set("graph.publish_us", stats::median(&publish));
}

/// `local.repair_*`: `ppr_repair` of the answers to `specs` across
/// each delta batch, as the engine repairs its answer cache.
pub fn set_repair_metrics(
    report: &mut Report,
    g: &Graph,
    alpha: f64,
    specs: &[QuerySpec],
    batches: &[Vec<EdgeOp>],
) {
    let answers: Vec<_> = specs
        .iter()
        .map(|q| ppr_push(g, &[q.node], alpha, q.epsilon).expect("valid push arguments"))
        .collect();
    let mut times = Vec::new();
    let mut pushes = 0usize;
    for ops in batches {
        let mut dg = DeltaGraph::new(g);
        for op in ops {
            dg.apply(op).expect("generated ops are valid");
        }
        let delta = dg.net_delta();
        let (next, _) = dg.compact().expect("overlay compacts");
        for (q, a) in specs.iter().zip(&answers) {
            let req = RepairRequest {
                seeds: &[q.node],
                estimate: &a.vector,
                residual: &a.residuals,
                delta: &delta,
                alpha,
                epsilon: q.epsilon,
                mass_threshold: DEFAULT_REPAIR_MASS_THRESHOLD,
            };
            let t = Instant::now();
            let r = ppr_repair(&next, &req);
            times.push(t.elapsed().as_nanos() as f64 / 1e3);
            match r {
                Ok(r) => {
                    pushes += r.pushes;
                    report.ops(1, usize::from(!r.per_degree_bound.is_finite()));
                }
                Err(_) => report.ops(1, 1),
            }
        }
    }
    report.set("local.repair_us_p50", stats::median(&times));
    report.set(
        "local.repair_pushes_per_delta",
        pushes as f64 / batches.len().max(1) as f64,
    );
}
