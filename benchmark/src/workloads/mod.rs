//! The four workloads. Each module has an `e2e` entry (tracing off,
//! end-to-end metrics) and a `traced` entry (spans, per-layer metrics).

use crate::driver::PhaseStats;
use crate::report::Report;
use crate::spans::Tracer;
use crate::stats;
use acir_serve::Engine;
use std::time::Instant;

pub mod batch_paper;
pub mod serve_mutate;
pub mod serve_read;
pub mod serve_sketch;

/// What a run was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Cx {
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`: how long the timed phases run, in total.
    pub seconds: f64,
    /// `--smoke`: CI-sized graphs.
    pub smoke: bool,
}

/// One workload: its name, its end-to-end run, its traced run.
pub type Workload = (
    &'static str,
    fn(&Cx) -> Report,
    fn(&Cx, &mut Tracer) -> Report,
);

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const ALL: [Workload; 4] = [
    ("serve_read", serve_read::e2e, serve_read::traced),
    ("serve_mutate", serve_mutate::e2e, serve_mutate::traced),
    ("serve_sketch", serve_sketch::e2e, serve_sketch::traced),
    ("batch_paper", batch_paper::e2e, batch_paper::traced),
];

/// Times set-up is repeated in one run; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// Build the workload's state [`SETUP_REPS`] times — each result is
/// dropped before the next is built, so peak memory is one copy — and
/// return the last with the median build time in seconds.
pub fn timed_setup<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("SETUP_REPS > 0"), stats::median(&times))
}

/// Output check on an idle engine: the ladder counts sum to the
/// responses, and every admitted request was answered.
pub fn ladder_ok(engine: &Engine) -> bool {
    let s = engine.stats();
    let ladder = s.full + s.cached + s.coarsened + s.partial + s.stale + s.seed_only;
    engine.pending() == 0 && ladder == s.responded && s.responded == s.admitted
}

/// Rounds a run's timed phases are cut into. Each round runs a slice
/// of every phase, and a timing metric is the median of the per-round
/// values: a burst from a neighbour spoils a round of every phase, not
/// most of one phase.
pub const ROUNDS: usize = 5;

/// Median over rounds of one reading of a phase.
pub fn over(rounds: &[PhaseStats], f: impl Fn(&PhaseStats) -> f64) -> f64 {
    stats::median(&rounds.iter().map(f).collect::<Vec<_>>())
}

/// Median latency of one slice, ms.
pub fn p50_ms(p: &PhaseStats) -> f64 {
    stats::median(&p.latency_ms)
}

/// Tail latency of one slice, ms: the highest percentile with ten
/// samples beyond it, at most p99.
pub fn tail_ms(p: &PhaseStats) -> f64 {
    stats::tail(&p.latency_ms).1
}

/// Share of all requests sent over the rounds that met the SLO.
pub fn slo_share(rounds: &[PhaseStats]) -> f64 {
    let sent: usize = rounds.iter().map(|p| p.sent).sum();
    rounds.iter().map(|p| p.slo_ok).sum::<usize>() as f64 / sent.max(1) as f64
}

/// Every latency sample of the rounds, ms.
pub fn pooled_latency_ms(rounds: &[PhaseStats]) -> Vec<f64> {
    rounds.iter().flat_map(|p| p.latency_ms.clone()).collect()
}

/// Tail latency over all rounds' samples, ms: p99 when the sample has
/// ten beyond it, otherwise the highest percentile that does.
pub fn p99_ms(rounds: &[PhaseStats]) -> f64 {
    stats::tail(&pooled_latency_ms(rounds)).1
}

/// Fold the rounds of one phase into the report: their operations,
/// sample count, and the readings a person wants to see.
pub fn note_phase(report: &mut Report, name: &str, rounds: &[PhaseStats]) {
    for p in rounds {
        report.ops(p.attempted(), p.failed());
    }
    let per_round = rounds.first().map_or(0, |p| p.latency_ms.len());
    report.count(name, rounds.iter().map(|p| p.latency_ms.len()).sum());
    report.note(
        format!("{name}.sent"),
        rounds.iter().map(|p| p.sent).sum::<usize>() as f64,
        "count",
    );
    report.note(
        format!("{name}.rate"),
        over(rounds, PhaseStats::rate),
        "1/s",
    );
    report.note(format!("{name}.lat_p50_ms"), over(rounds, p50_ms), "ms");
    report.note(format!("{name}.lat_tail_ms"), over(rounds, tail_ms), "ms");
    report.note(
        format!("{name}.tail_percentile"),
        stats::supported_tail(per_round, 0.99) * 100.0,
        "%",
    );
    report.note(format!("{name}.lat_p99_pooled_ms"), p99_ms(rounds), "ms");
    report.note(format!("{name}.slo_share"), slo_share(rounds), "share");
    report.note(
        format!("{name}.batch_mean"),
        over(rounds, PhaseStats::batch_mean),
        "count",
    );
}

/// `failed / attempted` of the report so far.
pub fn fail_share(report: &Report) -> f64 {
    report.failed as f64 / report.attempted.max(1) as f64
}
