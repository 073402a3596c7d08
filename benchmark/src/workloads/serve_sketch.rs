//! `serve_sketch`: the hub-sketch tier in the regime it was built for.
//!
//! Forest-fire n = 100 000. Deep traffic — α = 0.05, ε = 1e-5 — with
//! 256 hub sketches at ε = 1e-6 and the answer cache off; seeds are
//! uniform over a fixed 512-node pool, which bounds the engine's
//! unbounded stale cache. The splice/harvest path does most of the
//! work in phase `on` and is bypassed in phase `off` (the same queries
//! on an engine with no sketches) and in every other workload.

use super::{
    fail_share, ladder_ok, note_phase, over, p50_ms, slo_share, tail_ms, timed_setup, Cx, ROUNDS,
};
use crate::driver::{engine_config, saturate, warm_up, PhaseStats};
use crate::graphs::{csr_bytes_per_edge, forest_fire_graph, INSTANCE};
use crate::layers::{exec_region_us, push_us_p50, replay_twice};
use crate::report::{rss_peak_mb, Report};
use crate::schedule::{delta_batch, rng_for, tag, QueryMix, QuerySpec, QueryStream};
use crate::spans::Tracer;
use crate::stats;
use acir_graph::Graph;
use acir_local::{build_hub_sketches, ppr_push, ppr_push_spliced, SketchSet};
use acir_serve::{Engine, EngineConfig};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Latency limit of the SLO for deep queries, from submission: sixteen
/// callers wait on every cycle, and a cycle of sixteen deep diffusions
/// takes ≈140 ms with the sketches on.
pub const SLO: Duration = Duration::from_millis(250);

/// Requests that warm each engine before anything is timed.
pub const WARM_UP: usize = 16;

/// Share of a round spent in phase `on`; `off` gets the rest.
pub const ON_SHARE: f64 = 0.7;

/// `(n, hubs)`.
pub fn sizes(smoke: bool) -> (usize, usize) {
    if smoke {
        (10_000, 32)
    } else {
        (100_000, 256)
    }
}

/// Deep traffic over a 512-node pool.
pub fn mix() -> QueryMix {
    QueryMix {
        alpha: 0.05,
        eps_fine: 1e-5,
        eps_coarse: 1e-5,
        fine_share: 1.0,
        sweep_every: 0,
        pool: 512,
        pool_share: 1.0,
        zipf: 0.0,
    }
}

/// Engine configuration with `hubs` sketches (0 = the tier is off).
pub fn config(mix: &QueryMix, hubs: usize) -> EngineConfig {
    EngineConfig {
        sketch_hubs: hubs,
        sketch_alpha: mix.alpha,
        sketch_epsilon: 1e-6,
        answer_cache_cap: 0,
        ..engine_config(mix)
    }
}

/// The rounds of each phase.
#[derive(Debug, Default)]
pub struct Load {
    /// Saturation with the sketches on.
    pub on: Vec<PhaseStats>,
    /// The queries `on` ran, at saturation with the sketches off.
    pub off: Vec<PhaseStats>,
}

/// Run [`ROUNDS`] rounds of `on` then `off` for `seconds` in total.
pub fn load(cx: &Cx, on: &mut Engine, off: &mut Engine, seconds: f64) -> Load {
    let mix = mix();
    let round = seconds / ROUNDS as f64;
    let mut stream = QueryStream::new(cx.seed, INSTANCE, on.graph().n(), &mix);
    warm_up(off, mix.alpha, &mut stream.clone(), WARM_UP);
    warm_up(on, mix.alpha, &mut stream, WARM_UP);
    let mut out = Load::default();
    for _ in 0..ROUNDS {
        let mut again = stream.clone();
        let slice = Duration::from_secs_f64(round * ON_SHARE);
        out.on
            .push(saturate(on, mix.alpha, &mut stream, slice, SLO));
        let slice = Duration::from_secs_f64(round * (1.0 - ON_SHARE));
        out.off
            .push(saturate(off, mix.alpha, &mut again, slice, SLO));
    }
    out
}

fn note_load(report: &mut Report, l: &Load, on: &Engine, off: &Engine) {
    note_phase(report, "on", &l.on);
    note_phase(report, "off", &l.off);
    report.check(
        "serve_sketch ladder counts",
        ladder_ok(on) && ladder_ok(off),
    );
    report.check(
        "serve_sketch answers were spliced, and only with sketches",
        on.stats().spliced > 0 && off.stats().spliced == 0,
    );
}

/// `qps(on) / qps(off)`: above 1 means the sketch tier pays.
pub fn sketch_gain(l: &Load) -> f64 {
    over(&l.on, PhaseStats::rate) / over(&l.off, PhaseStats::rate)
}

/// End-to-end run: an operation is one request with the sketches on.
pub fn e2e(cx: &Cx) -> Report {
    let mut report = Report::default();
    let mix = mix();
    let (n, hubs) = sizes(cx.smoke);
    let (mut on, setup_s) =
        timed_setup(|| Engine::new(forest_fire_graph(tag::GRAPH, n), config(&mix, hubs)));
    report.set("setup_s", setup_s);
    let mut off = Engine::new(on.graph().clone(), config(&mix, 0));
    let l = load(cx, &mut on, &mut off, cx.seconds);
    note_load(&mut report, &l, &on, &off);
    report.set("ops_per_s", over(&l.on, PhaseStats::rate));
    report.set("lat_p50_ms", over(&l.on, p50_ms));
    report.set("lat_tail_ms", over(&l.on, tail_ms));
    report.set("slo_share", slo_share(&l.on));
    report.set("rss_peak_mb", rss_peak_mb());
    report.note("qps_sat", over(&l.on, PhaseStats::rate), "1/s");
    report.note("sketch_gain", sketch_gain(&l), "ratio");
    report.note("fail_share", fail_share(&report), "share");
    report
}

/// Requests of the traced replay.
pub fn replay_requests(smoke: bool) -> usize {
    if smoke {
        64
    } else {
        256
    }
}

/// Delta batches timed against the `on` engine for
/// `serve.sketch_repair_ms_p50`.
pub const REPAIR_DELTAS: usize = 5;

/// MiB the sketch set holds, computed from its vector lengths at 16 B
/// per `(node, value)` entry.
pub fn sketch_mb(set: &SketchSet) -> f64 {
    let entries: usize = set
        .sketches()
        .iter()
        .map(|s| s.estimate.len() + s.residual.len())
        .sum();
    (entries * 16) as f64 / (1024.0 * 1024.0)
}

/// `Σ mass_pushed` of the cold push over that of the splice, on the
/// same queries: how much less diffusion the sketches leave to do.
pub fn splice_mass_ratio(g: &Graph, set: &SketchSet, alpha: f64, specs: &[QuerySpec]) -> f64 {
    let (mut cold, mut spliced) = (0.0, 0.0);
    for q in specs {
        cold += ppr_push(g, &[q.node], alpha, q.epsilon)
            .expect("valid push arguments")
            .mass_pushed;
        spliced += ppr_push_spliced(g, &[q.node], alpha, q.epsilon, set)
            .expect("valid splice arguments")
            .mass_pushed;
    }
    cold / spliced
}

/// Traced run: shortened `on` / `off` phases with tracing off, the
/// replay through the splice path, the sketch layer measured bare,
/// then delta batches against the sketched engine.
pub fn traced(cx: &Cx, tracer: &mut Tracer) -> Report {
    let mut report = Report::default();
    let mix = mix();
    let (n, hubs) = sizes(cx.smoke);
    let t = Instant::now();
    let g = forest_fire_graph(tag::GRAPH, n);
    report.set("graph.gen_s", t.elapsed().as_secs_f64());
    report.set("graph.csr_bytes_per_edge", csr_bytes_per_edge(&g));

    let t = Instant::now();
    std::hint::black_box(
        build_hub_sketches(&g, hubs, mix.alpha, 1e-6).expect("valid sketch parameters"),
    );
    report.set("local.sketch_build_s", t.elapsed().as_secs_f64());

    // The splice path keeps no state between requests (the answer
    // cache is off), so one sketched engine serves every pass below.
    let mut on = Engine::new(g.clone(), config(&mix, hubs));
    {
        let mut off = Engine::new(g.clone(), config(&mix, 0));
        let l = load(cx, &mut on, &mut off, cx.seconds * 0.5);
        note_load(&mut report, &l, &on, &off);
        report.set("serve.qps_sat", over(&l.on, PhaseStats::rate));
        report.set("serve.sketch_gain", sketch_gain(&l));
        report.set(
            "serve.degraded_share",
            over(&l.on, PhaseStats::degraded_share),
        );
        report.set("serve.batch_mean", over(&l.on, PhaseStats::batch_mean));
    }

    let specs: Vec<QuerySpec> = QueryStream::new(cx.seed, INSTANCE, n, &mix)
        .take(replay_requests(cx.smoke))
        .collect();
    let out = replay_twice(
        std::slice::from_mut(&mut on),
        mix.alpha,
        &specs,
        &[],
        tracer,
        &mut report,
    );
    report.check("serve_sketch replay ladder counts", ladder_ok(&on));
    report.set("local.splice_us_p50", stats::median(&out.kernel_us));
    report.set(
        "local.splice_support_per_q",
        out.support as f64 / out.requests.max(1) as f64,
    );

    let set = on.sketch_store().expect("the on engine has sketches").set();
    report.set("local.sketch_mb", sketch_mb(set));
    let sample = &specs[..specs.len().min(64)];
    report.set(
        "local.splice_mass_ratio",
        splice_mass_ratio(&g, set, mix.alpha, sample),
    );
    report.set("local.push_us_p50", push_us_p50(&g, mix.alpha, sample));

    let mut rng = rng_for(cx.seed, tag::WRITES);
    let mut removed = BTreeMap::new();
    let repair_ms: Vec<f64> = (0..REPAIR_DELTAS)
        .map(|_| {
            let ops = delta_batch(&mut rng, &g, &mut removed);
            let t = Instant::now();
            let r = on.update_graph_delta(&ops);
            report.ops(1, usize::from(r.is_err()));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    report.set("serve.sketch_repair_ms_p50", stats::median(&repair_ms));
    report.set("exec.region_us", exec_region_us());
    report.set("serve.fail_share", fail_share(&report));
    report
}
