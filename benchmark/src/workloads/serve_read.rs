//! `serve_read`: the read path on a big graph with tiny outputs.
//!
//! Forest-fire n = 500 000 (≈970k edges), sketches off, answer cache
//! 4096. The read path — admit, cache probe, batch push, sweep,
//! externalize — does all the work; writers, sketches and SpMV do
//! none. The same query stream on a 50 000-node forest-fire turns the
//! paper's §3.3 claim (cost tracks output, not graph) into a number.

use super::{
    fail_share, ladder_ok, note_phase, over, p50_ms, slo_share, tail_ms, timed_setup, Cx, ROUNDS,
};
use crate::driver::{engine_config, open_loop, saturate, warm_up, PhaseStats};
use crate::graphs::{csr_bytes_per_edge, forest_fire_graph, INSTANCE};
use crate::layers::{batch_speedup, exec_region_us, push_us_p50, replay_twice, set_push_metrics};
use crate::report::{rss_peak_mb, Report};
use crate::schedule::{poisson_due_us, tag, QueryMix, QuerySpec, QueryStream};
use crate::spans::Tracer;
use crate::stats;
use acir_serve::{Engine, EngineConfig};
use std::time::{Duration, Instant};

/// Latency limit of the SLO, from the due time.
pub const SLO: Duration = Duration::from_millis(25);

/// Open-loop arrival rate, requests per second (≈35 % of saturation):
/// 500 arrivals per round, so a round's tail is its p98.
pub const OPEN_RATE: f64 = 250.0;

/// Requests that warm each engine before anything is timed.
pub const WARM_UP: usize = 64;

/// Shares of a round: open loop, saturation, saturation on the small graph.
pub const SHARES: (f64, f64, f64) = (0.5, 0.3, 0.2);

/// `(n, n_small)`.
pub fn sizes(smoke: bool) -> (usize, usize) {
    if smoke {
        (20_000, 2_000)
    } else {
        (500_000, 50_000)
    }
}

/// The read mix shared with `serve_mutate`: α = 0.1; ε 75 % 1e-4 and
/// 25 % 1e-5; every third query sweeps; 30 % of seeds Zipf over a
/// 4096-node hot pool (≈8 % exact repeats), the rest uniform.
pub fn mix() -> QueryMix {
    QueryMix {
        alpha: 0.1,
        eps_fine: 1e-5,
        eps_coarse: 1e-4,
        fine_share: 0.25,
        sweep_every: 3,
        pool: 4096,
        pool_share: 0.30,
        zipf: 1.0,
    }
}

/// Engine configuration: the common one with a 4096-entry answer cache.
pub fn config(mix: &QueryMix) -> EngineConfig {
    EngineConfig {
        answer_cache_cap: 4096,
        ..engine_config(mix)
    }
}

/// The big and the small engine, as set-up builds them.
pub fn build(cx: &Cx) -> (Engine, Engine) {
    let (n, n_small) = sizes(cx.smoke);
    let cfg = config(&mix());
    let big = forest_fire_graph(tag::GRAPH, n);
    let small = forest_fire_graph(tag::GRAPH_SMALL, n_small);
    (Engine::new(big, cfg.clone()), Engine::new(small, cfg))
}

/// The stream `sat_small` replays: the same queries, seeds mod `n_small`.
pub fn shrink(stream: QueryStream, n_small: usize) -> impl Iterator<Item = QuerySpec> {
    stream.map(move |q| QuerySpec {
        node: q.node % n_small as u32,
        ..q
    })
}

/// The rounds of each phase.
#[derive(Debug, Default)]
pub struct Load {
    /// Open loop at [`OPEN_RATE`] on the big graph.
    pub open: Vec<PhaseStats>,
    /// Saturation on the big graph.
    pub sat: Vec<PhaseStats>,
    /// The queries `sat` ran, at saturation on the small graph.
    pub sat_small: Vec<PhaseStats>,
}

/// Run [`ROUNDS`] rounds of `open`, `sat`, `sat_small` for `seconds`
/// in total.
pub fn load(cx: &Cx, big: &mut Engine, small: &mut Engine, seconds: f64) -> Load {
    let mix = mix();
    let (n, n_small) = sizes(cx.smoke);
    let round = seconds / ROUNDS as f64;
    let slice = |share: f64| Duration::from_secs_f64(round * share);
    let mut stream = QueryStream::new(cx.seed, INSTANCE, n, &mix);
    warm_up(big, mix.alpha, &mut stream, WARM_UP);
    warm_up(
        small,
        mix.alpha,
        &mut shrink(stream.clone(), n_small),
        WARM_UP,
    );
    let mut out = Load::default();
    for k in 0..ROUNDS as u64 {
        let arrivals = (OPEN_RATE * round * SHARES.0).ceil() as usize;
        let due = poisson_due_us(cx.seed.wrapping_add(k), OPEN_RATE, arrivals);
        out.open.push(open_loop(
            big,
            mix.alpha,
            &mut stream,
            &due,
            &[],
            SLO,
            false,
        ));
        let again = stream.clone();
        out.sat
            .push(saturate(big, mix.alpha, &mut stream, slice(SHARES.1), SLO));
        out.sat_small.push(saturate(
            small,
            mix.alpha,
            &mut shrink(again, n_small),
            slice(SHARES.2),
            SLO,
        ));
    }
    out
}

fn note_load(report: &mut Report, l: &Load, big: &Engine, small: &Engine) {
    note_phase(report, "open", &l.open);
    note_phase(report, "sat", &l.sat);
    note_phase(report, "sat_small", &l.sat_small);
    report.check(
        "serve_read ladder counts",
        ladder_ok(big) && ladder_ok(small),
    );
}

/// `qps(sat_small) / qps(sat)`: 1.0 means cost tracks output, not graph.
pub fn size_ratio(l: &Load) -> f64 {
    over(&l.sat_small, PhaseStats::rate) / over(&l.sat, PhaseStats::rate)
}

/// End-to-end run: an operation is one request.
pub fn e2e(cx: &Cx) -> Report {
    let mut report = Report::default();
    let ((mut big, mut small), setup_s) = timed_setup(|| build(cx));
    report.set("setup_s", setup_s);
    let l = load(cx, &mut big, &mut small, cx.seconds);
    note_load(&mut report, &l, &big, &small);
    report.set("ops_per_s", over(&l.sat, PhaseStats::rate));
    report.set("lat_p50_ms", over(&l.open, p50_ms));
    report.set("lat_tail_ms", over(&l.open, tail_ms));
    report.set("slo_share", slo_share(&l.open));
    report.set("rss_peak_mb", rss_peak_mb());
    report.note("qps_sat", over(&l.sat, PhaseStats::rate), "1/s");
    report.note("size_ratio", size_ratio(&l), "ratio");
    report.note("fail_share", fail_share(&report), "share");
    report
}

/// Requests of the traced replay.
pub fn replay_requests(smoke: bool) -> usize {
    if smoke {
        128
    } else {
        512
    }
}

/// The load-shaped per-layer readings of an open-loop phase.
pub fn set_open_metrics(report: &mut Report, open: &[PhaseStats]) {
    let lag: Vec<f64> = open.iter().flat_map(|p| p.gen_lag_ms.clone()).collect();
    report.set(
        "serve.degraded_share",
        over(open, PhaseStats::degraded_share),
    );
    report.set("serve.batch_mean", over(open, PhaseStats::batch_mean));
    report.set(
        "serve.backlog_max",
        open.iter().map(|p| p.backlog_max).max().unwrap_or(0) as f64,
    );
    report.set("serve.gen_lag_ms_p99", stats::tail(&lag).1);
}

/// Traced run: a shortened load pass with tracing off (the readings
/// that need real load), the deterministic replay with spans, then
/// the bare-kernel samples.
pub fn traced(cx: &Cx, tracer: &mut Tracer) -> Report {
    let mut report = Report::default();
    let mix = mix();
    let cfg = config(&mix);
    let (n, _) = sizes(cx.smoke);
    let t = Instant::now();
    let (mut big, mut small) = build(cx);
    report.set("graph.gen_s", t.elapsed().as_secs_f64());
    report.set("graph.csr_bytes_per_edge", csr_bytes_per_edge(big.graph()));

    let l = load(cx, &mut big, &mut small, cx.seconds * 0.5);
    note_load(&mut report, &l, &big, &small);
    set_open_metrics(&mut report, &l.open);
    report.set("serve.qps_sat", over(&l.sat, PhaseStats::rate));
    report.set("serve.size_ratio", size_ratio(&l));
    let (big, small) = {
        let graphs = (big.graph().clone(), small.graph().clone());
        drop((big, small));
        graphs
    };

    let specs: Vec<QuerySpec> = QueryStream::new(cx.seed, INSTANCE, n, &mix)
        .take(replay_requests(cx.smoke))
        .collect();
    let mut engines = [
        Engine::new(big.clone(), cfg.clone()),
        Engine::new(big.clone(), cfg.clone()),
    ];
    let out = replay_twice(&mut engines, mix.alpha, &specs, &[], tracer, &mut report);
    report.check(
        "serve_read replay ladder counts",
        engines.iter().all(ladder_ok),
    );
    drop(engines);
    set_push_metrics(&mut report, &out);

    report.set(
        "local.push_size_ratio",
        push_us_p50(&big, mix.alpha, &specs) / push_us_p50(&small, mix.alpha, &specs),
    );
    report.set("exec.region_us", exec_region_us());
    let slice: Vec<QuerySpec> = QueryStream::new(cx.seed ^ 1, INSTANCE, n, &mix)
        .take(2 * replay_requests(cx.smoke))
        .collect();
    report.set(
        "exec.batch_speedup",
        batch_speedup(&big, &cfg, mix.alpha, &slice),
    );
    report.set("serve.fail_share", fail_share(&report));
    report
}
