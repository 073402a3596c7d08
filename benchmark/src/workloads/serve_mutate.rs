//! `serve_mutate`: the read layer beside a writer.
//!
//! R-MAT scale 17, edge factor 10, largest component (≈81.7k nodes,
//! ≈1.2M edges, max degree ≈11.6k). The read mix of `serve_read` at
//! 300 req/s open loop, every query carrying what is left of the 25 ms
//! limit as its deadline, while a writer on the same clock publishes
//! one 8-op delta (5 inserts, 2 reweights, 1 delete) per round and one
//! RCM compaction in the first. CSR rebuild, answer repair and
//! relabeling do most of the work here and none in `serve_read`; the
//! open loop counts the requests that arrive *during* a stall, which a
//! closed loop would omit.

use super::serve_read::{config, mix, set_open_metrics, SLO};
use super::{
    fail_share, ladder_ok, note_phase, over, p50_ms, p99_ms, slo_share, tail_ms, timed_setup, Cx,
    ROUNDS,
};
use crate::driver::{open_loop, warm_up, PhaseStats};
use crate::graphs::{csr_bytes_per_edge, rmat_lcc, INSTANCE};
use crate::layers::{
    exec_region_us, replay_twice, set_graph_write_metrics, set_push_metrics, set_repair_metrics,
    WriteOutcome,
};
use crate::report::{rss_peak_mb, Report};
use crate::schedule::{
    delta_batch, poisson_due_us, rng_for, tag, QuerySpec, QueryStream, WriteEvent, WriteKind,
};
use crate::spans::Tracer;
use crate::stats;
use acir_graph::{EdgeOp, Graph};
use acir_serve::Engine;
use std::collections::BTreeMap;
use std::time::Instant;

/// Open-loop arrival rate, requests per second.
pub const OPEN_RATE: f64 = 300.0;

/// Requests that warm the engine before anything is timed: enough to
/// fill the 4096-entry answer cache. A delta repairs every cached
/// answer, so its cost grows with the cache (267 ms at 300 entries,
/// 460 ms at 3000); filling it first times the steady state.
pub const WARM_UP: usize = 6000;

/// When in a storm slice the delta batch is due, as a share of the slice.
pub const DELTA_AT: f64 = 1.0 / 3.0;

/// When in the first round's storm slice the compaction is due.
pub const COMPACT_AT: f64 = 2.0 / 3.0;

/// `(R-MAT scale, edge factor)`.
pub fn sizes(smoke: bool) -> (u32, usize) {
    if smoke {
        (12, 10)
    } else {
        (17, 10)
    }
}

/// The workload's graph.
pub fn graph(cx: &Cx) -> Graph {
    let (scale, edge_factor) = sizes(cx.smoke);
    rmat_lcc(tag::GRAPH, scale, edge_factor)
}

/// The first `count` delta batches of the dataset's edit log. What a
/// delta costs depends on where it lands — one reweight next to the
/// hub sends thousands of cached answers through a real repair, and
/// across ten seeds the median delta of a run ranged from 590 ms to
/// 930 ms — so with five deltas a run the edits are drawn from
/// `INSTANCE`, like the graph; `--seed` draws the traffic around them.
pub fn delta_batches(g: &Graph, count: usize) -> Vec<Vec<EdgeOp>> {
    let mut rng = rng_for(INSTANCE, tag::WRITES);
    let mut removed = BTreeMap::new();
    (0..count)
        .map(|_| delta_batch(&mut rng, g, &mut removed))
        .collect()
}

/// The rounds of each phase.
#[derive(Debug, Default)]
pub struct Load {
    /// Open loop, no writer.
    pub quiet: Vec<PhaseStats>,
    /// Open loop with the writer on the same clock.
    pub storm: Vec<PhaseStats>,
}

/// Run [`ROUNDS`] rounds of `quiet` then `storm` for `seconds` in
/// total, `quiet_share` of each round in the quiet slice (0 = storm
/// only). The first round's storm also publishes the compaction, so
/// the other four run on the relabeled graph and read alike.
pub fn load(cx: &Cx, engine: &mut Engine, seconds: f64, quiet_share: f64) -> Load {
    let mix = mix();
    let g = engine.graph().clone();
    let mut stream = QueryStream::new(cx.seed, INSTANCE, g.n(), &mix);
    warm_up(engine, mix.alpha, &mut stream, WARM_UP);
    let round = seconds / ROUNDS as f64;
    let (quiet_s, storm_s) = (round * quiet_share, round * (1.0 - quiet_share));
    let arrivals = |s: f64| (OPEN_RATE * s).ceil() as usize;
    let mut out = Load::default();
    for (k, ops) in delta_batches(&g, ROUNDS).into_iter().enumerate() {
        let seed = cx.seed.wrapping_add(2 * k as u64);
        if quiet_share > 0.0 {
            let due = poisson_due_us(seed, OPEN_RATE, arrivals(quiet_s));
            out.quiet.push(open_loop(
                engine,
                mix.alpha,
                &mut stream,
                &due,
                &[],
                SLO,
                true,
            ));
        }
        let mut writes = vec![WriteEvent {
            due_us: (storm_s * DELTA_AT * 1e6) as u64,
            kind: WriteKind::Delta(ops),
        }];
        if k == 0 {
            writes.push(WriteEvent {
                due_us: (storm_s * COMPACT_AT * 1e6) as u64,
                kind: WriteKind::Compact,
            });
        }
        let due = poisson_due_us(seed.wrapping_add(1), OPEN_RATE, arrivals(storm_s));
        out.storm.push(open_loop(
            engine,
            mix.alpha,
            &mut stream,
            &due,
            &writes,
            SLO,
            true,
        ));
    }
    out
}

fn note_load(report: &mut Report, l: &Load, engine: &Engine) {
    if !l.quiet.is_empty() {
        note_phase(report, "quiet", &l.quiet);
    }
    note_phase(report, "storm", &l.storm);
    report.check("serve_mutate ladder counts", ladder_ok(engine));
    report.check(
        "serve_mutate every storm slice published its delta",
        l.storm.iter().all(|p| p.writes.iter().any(|w| !w.compact)),
    );
}

/// ms from a storm slice's delta being due to it being queryable.
pub fn write_visible_ms(p: &PhaseStats) -> f64 {
    p.writes
        .iter()
        .find(|w| !w.compact)
        .map_or(0.0, |w| w.visible_ms)
}

/// ms the writes of a storm slice blocked the loop, by kind.
fn busy_ms(storm: &[PhaseStats], compact: bool) -> Vec<f64> {
    storm
        .iter()
        .flat_map(|p| p.writes.iter())
        .filter(|w| w.compact == compact)
        .map(|w| w.busy_ms)
        .collect()
}

/// Storm tail over quiet tail, both pooled over the rounds; ROADMAP
/// item 2(b) wants it at most 3.
pub fn mutate_tail_ratio(l: &Load) -> f64 {
    p99_ms(&l.storm) / p99_ms(&l.quiet)
}

/// Share of the storm slices' wall time the writer blocked the loop.
pub fn writer_stall_share(l: &Load) -> f64 {
    let busy: f64 =
        busy_ms(&l.storm, false).iter().sum::<f64>() + busy_ms(&l.storm, true).iter().sum::<f64>();
    busy / (l.storm.iter().map(|p| p.wall_s).sum::<f64>() * 1e3)
}

/// End-to-end run: an operation is one delta batch made queryable.
pub fn e2e(cx: &Cx) -> Report {
    let mut report = Report::default();
    let (mut engine, setup_s) = timed_setup(|| Engine::new(graph(cx), config(&mix())));
    report.set("setup_s", setup_s);
    let l = load(cx, &mut engine, cx.seconds, 0.0);
    note_load(&mut report, &l, &engine);
    let write_ms = over(&l.storm, write_visible_ms);
    report.set("ops_per_s", 1e3 / write_ms);
    report.set("lat_p50_ms", over(&l.storm, p50_ms));
    report.set("lat_tail_ms", over(&l.storm, tail_ms));
    report.set("slo_share", slo_share(&l.storm));
    report.set("rss_peak_mb", rss_peak_mb());
    report.note("write_ms_p50", write_ms, "ms");
    report.note("writer_stall_share", writer_stall_share(&l), "share");
    report.note(
        "storm.degraded_share",
        over(&l.storm, PhaseStats::degraded_share),
        "share",
    );
    report.note("fail_share", fail_share(&report), "share");
    report
}

/// Share of a round the traced run's load pass spends in a quiet
/// slice, for `serve.mutate_p99_ratio`.
pub const QUIET_SHARE: f64 = 0.2;

/// Requests of the traced replay.
pub fn replay_requests(smoke: bool) -> usize {
    if smoke {
        192
    } else {
        1024
    }
}

/// Delta batches of the traced replay and of the bare-layer samples.
pub const REPLAY_DELTAS: usize = 5;

/// The replay's writes, placed by request index: the delta batches
/// evenly spread, one RCM compaction after the middle.
pub fn replay_writes(requests: usize, batches: &[Vec<EdgeOp>]) -> Vec<(usize, WriteKind)> {
    let gap = requests / (batches.len() + 1);
    let mut writes: Vec<(usize, WriteKind)> = batches
        .iter()
        .enumerate()
        .map(|(k, ops)| ((k + 1) * gap, WriteKind::Delta(ops.clone())))
        .collect();
    writes.push((requests / 2 + gap / 2, WriteKind::Compact));
    writes.sort_by_key(|w| w.0);
    writes
}

/// Traced run: a load pass with tracing off (quiet slices added, so
/// its storm slices are a fifth shorter than `e2e`'s), the replay with
/// writes placed by request index, then the graph and repair layers
/// measured bare on the same delta batches.
pub fn traced(cx: &Cx, tracer: &mut Tracer) -> Report {
    let mut report = Report::default();
    let mix = mix();
    let cfg = config(&mix);
    let t = Instant::now();
    let g = graph(cx);
    report.set("graph.gen_s", t.elapsed().as_secs_f64());
    report.set("graph.csr_bytes_per_edge", csr_bytes_per_edge(&g));

    {
        let mut engine = Engine::new(g.clone(), cfg.clone());
        let l = load(cx, &mut engine, cx.seconds, QUIET_SHARE);
        note_load(&mut report, &l, &engine);
        set_open_metrics(&mut report, &l.storm);
        let deltas = busy_ms(&l.storm, false);
        report.set("serve.delta_ms_p50", stats::median(&deltas));
        report.set(
            "serve.delta_ms_max",
            deltas.iter().copied().fold(0.0, f64::max),
        );
        report.set(
            "serve.compact_ms_p50",
            stats::median(&busy_ms(&l.storm, true)),
        );
        report.set("serve.writer_stall_share", writer_stall_share(&l));
        report.set("serve.mutate_p99_ratio", mutate_tail_ratio(&l));
        report.set("serve.write_ms_p50", over(&l.storm, write_visible_ms));
    }

    let requests = replay_requests(cx.smoke);
    let specs: Vec<QuerySpec> = QueryStream::new(cx.seed, INSTANCE, g.n(), &mix)
        .take(requests)
        .collect();
    let batches = delta_batches(&g, REPLAY_DELTAS);
    let writes = replay_writes(requests, &batches);
    let mut engines = [
        Engine::new(g.clone(), cfg.clone()),
        Engine::new(g.clone(), cfg.clone()),
    ];
    let out = replay_twice(
        &mut engines,
        mix.alpha,
        &specs,
        &writes,
        tracer,
        &mut report,
    );
    report.check(
        "serve_mutate replay ladder counts",
        engines.iter().all(ladder_ok),
    );
    drop(engines);
    set_push_metrics(&mut report, &out);
    let deltas: Vec<&WriteOutcome> = out.writes.iter().filter(|w| !w.compact).collect();
    let per_delta = |f: fn(&WriteOutcome) -> usize| {
        deltas.iter().map(|w| f(w)).sum::<usize>() as f64 / deltas.len().max(1) as f64
    };
    report.set(
        "serve.answers_repaired_per_delta",
        per_delta(|w| w.answers_repaired),
    );
    report.set(
        "serve.answers_dropped_per_delta",
        per_delta(|w| w.answers_dropped),
    );

    set_graph_write_metrics(&mut report, &g, &batches);
    set_repair_metrics(
        &mut report,
        &g,
        mix.alpha,
        &specs[..specs.len().min(64)],
        &batches,
    );
    report.set("exec.region_us", exec_region_us());
    report.set("serve.fail_share", fail_share(&report));
    report
}
