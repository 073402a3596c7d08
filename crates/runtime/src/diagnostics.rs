//! Structured per-run diagnostics: residual trail, work counters,
//! wall time, and a typed event trace.
//!
//! Since the observability layer landed, `Diagnostics` is a facade
//! over [`acir_obs`]: every residual, note, certificate, budget
//! exhaustion, restart, sweep cut, and fault is mirrored into a typed
//! [`Trace`] (and the residual histogram / iteration counters into a
//! [`MetricsRegistry`]), while the flat `residuals` / `events` fields
//! keep their original shape so existing call sites never notice.

use crate::budget::{BudgetMeter, Exhaustion};
use crate::outcome::Certificate;
use acir_obs::{EventKind, MetricsRegistry, Trace};
use std::fmt::Write as _;
use std::time::Duration;

/// Hard cap on stored residuals; beyond it the trail is thinned by
/// dropping every other stored sample, so memory stays bounded on
/// million-iteration runs while early and late behavior both survive.
const MAX_RESIDUALS: usize = 4096;

/// What a solver run did, regardless of how it ended.
///
/// Every [`crate::SolverOutcome`] carries one of these, so callers can
/// always answer "how hard did it try, and what did convergence look
/// like" — the observability half of treating truncated runs as
/// first-class answers.
#[derive(Debug, Clone, Default)]
pub struct Diagnostics {
    /// Residual trail (possibly thinned; see [`Diagnostics::push_residual`]).
    pub residuals: Vec<f64>,
    /// Stride between stored residuals (1 = every iteration recorded).
    pub residual_stride: usize,
    /// Outer iterations performed.
    pub iterations: usize,
    /// Solver-defined work units consumed (matvecs, pushes, arc scans).
    pub work: u64,
    /// Wall time of the run.
    pub elapsed: Duration,
    /// Restarts / escalations performed by a [`crate::RetryPolicy`].
    pub restarts: usize,
    /// Human-readable event trail ("restarted with fresh seed", …).
    pub events: Vec<String>,
    /// Typed, deterministic event trace (spans, residuals,
    /// certificates, …) for sinks and golden snapshots.
    pub trace: Trace,
    /// Counters and histograms accumulated alongside the trace.
    pub metrics: MetricsRegistry,
}

impl Diagnostics {
    /// Fresh, empty diagnostics.
    pub fn new() -> Self {
        Self {
            residual_stride: 1,
            ..Self::default()
        }
    }

    /// Fresh diagnostics with the kernel's root span already open.
    ///
    /// This is how every instrumented solver starts: the span is
    /// closed automatically by the [`crate::SolverOutcome`]
    /// constructors, so no exit path can leave it dangling.
    pub fn for_kernel(name: &'static str) -> Self {
        let mut d = Self::new();
        d.trace.enter(name);
        d
    }

    /// Open a nested phase span (closed by [`Self::end_span`] or, for
    /// whatever is still open, by the outcome constructors).
    pub fn begin_span(&mut self, name: &'static str) {
        self.trace.enter(name);
    }

    /// Close the innermost open span with the current counters.
    pub fn end_span(&mut self) {
        self.trace.exit(self.iterations, self.work);
    }

    /// Close every open span with the current counters. Called by the
    /// outcome constructors; harmless to call twice.
    pub fn finish_spans(&mut self) {
        self.trace.close_all(self.iterations, self.work);
    }

    /// Retroactively wrap the whole trace in an outer kernel span —
    /// for wrappers that delegate their body to an inner solver and
    /// adopt its diagnostics (e.g. `expm` over Lanczos).
    pub fn wrap_span(&mut self, name: &'static str) {
        self.trace.wrap_span(name, self.iterations, self.work);
    }

    /// Record one residual sample, thinning the trail if it has grown
    /// past the cap.
    pub fn push_residual(&mut self, r: f64) {
        if self.residuals.len() >= MAX_RESIDUALS {
            let mut keep = 0;
            for i in (0..self.residuals.len()).step_by(2) {
                self.residuals[keep] = self.residuals[i];
                keep += 1;
            }
            self.residuals.truncate(keep);
            self.residual_stride = self.residual_stride.max(1) * 2;
        }
        self.residuals.push(r);
        self.trace.record(EventKind::Residual { value: r });
        self.metrics.observe("residual", r);
    }

    /// Record a notable event.
    pub fn note(&mut self, event: impl Into<String>) {
        let text = event.into();
        self.trace.record(EventKind::Note { text: text.clone() });
        self.events.push(text);
    }

    /// Record that a quality certificate was attached to the result.
    pub fn certificate_issued(&mut self, certificate: &Certificate) {
        self.trace.record(EventKind::CertificateIssued {
            kind: certificate.kind_name(),
            slack: certificate.slack(),
        });
        self.metrics.incr("certificates", 1);
    }

    /// Record that a budget axis ran out.
    pub fn budget_exhausted(&mut self, exhausted: &Exhaustion) {
        self.trace.record(EventKind::BudgetExhausted {
            axis: exhausted.axis_name(),
        });
        self.metrics.incr("budget_exhaustions", 1);
    }

    /// Record a retry-policy restart (1-based attempt number starting).
    pub fn restart(&mut self, attempt: usize, reason: impl Into<String>) {
        let reason = reason.into();
        self.trace.record(EventKind::Restart {
            attempt,
            reason: reason.clone(),
        });
        self.metrics.incr("restarts", 1);
        self.events.push(format!("restart {attempt}: {reason}"));
    }

    /// Record injected faults observed during the run. No-op when
    /// `count` is zero, so callers can report unconditionally.
    pub fn fault_injected(&mut self, kind: impl Into<String>, count: u64) {
        if count == 0 {
            return;
        }
        self.trace.record(EventKind::FaultInjected {
            kind: kind.into(),
            count,
        });
        self.metrics.incr("faults_injected", count);
    }

    /// Record a serving-layer request lifecycle stage (`"admitted"`,
    /// `"degraded"`, `"responded"`, …). Kernels never emit these;
    /// `acir-serve` uses them to stitch per-request stories out of the
    /// shared trace vocabulary.
    pub fn request_stage(&mut self, id: u64, stage: impl Into<String>) {
        let stage = stage.into();
        // Two allocations per stage, the two strings kept: the trail
        // line is sized up front (`format!` guesses short and regrows
        // mid-write) and the label moves into the typed event.
        let mut line = String::with_capacity("request : ".len() + 20 + stage.len());
        let _ = write!(line, "request {id}: {stage}");
        self.trace.record(EventKind::Request { id, stage });
        self.events.push(line);
    }

    /// Record a sweep cut (or harvested cluster).
    pub fn sweep_cut(&mut self, size: usize, conductance: f64) {
        self.trace.record(EventKind::SweepCut { size, conductance });
        self.metrics.incr("sweep_cuts", 1);
        self.metrics.observe("sweep_conductance", conductance);
    }

    /// Discard all but the newest `keep` entries of the event trail
    /// and of the typed trace, returning how many typed events went.
    /// For diagnostics that live as long as their owner (the serve
    /// engine's lifecycle trail) rather than for one run.
    pub fn keep_newest(&mut self, keep: usize) -> usize {
        let stale = self.events.len().saturating_sub(keep);
        self.events.drain(..stale);
        self.trace.keep_newest(keep)
    }

    /// Copy counters out of a finished meter.
    pub fn absorb_meter(&mut self, meter: &BudgetMeter) {
        self.iterations = meter.iterations();
        self.work = meter.work();
        self.elapsed = meter.elapsed();
        self.metrics.set("iterations", self.iterations as u64);
        self.metrics.set("work", self.work);
    }

    /// Fold another run's diagnostics into this one, for fan-out solvers
    /// that meter each parallel worker separately and report one merged
    /// record.
    ///
    /// Counters add; `elapsed` takes the maximum (workers run
    /// concurrently, so the slowest one is the wall time); events and
    /// the typed trace append in call order and each worker's residual
    /// trail is concatenated (the merged `residual_stride` becomes the
    /// coarsest of the two — the trail is a convergence sketch, not an
    /// aligned time series). Merging workers in a fixed (ascending
    /// chunk) order keeps the result — including the typed event
    /// sequence — deterministic across thread counts.
    pub fn merge(&mut self, other: &Diagnostics) {
        self.iterations += other.iterations;
        self.work += other.work;
        self.elapsed = self.elapsed.max(other.elapsed);
        self.restarts += other.restarts;
        self.residual_stride = self.residual_stride.max(other.residual_stride);
        for &r in &other.residuals {
            if self.residuals.len() >= MAX_RESIDUALS {
                let mut keep = 0;
                for i in (0..self.residuals.len()).step_by(2) {
                    self.residuals[keep] = self.residuals[i];
                    keep += 1;
                }
                self.residuals.truncate(keep);
                self.residual_stride = self.residual_stride.max(1) * 2;
            }
            self.residuals.push(r);
        }
        self.events.extend(other.events.iter().cloned());
        self.trace.merge(&other.trace);
        self.metrics.merge(&other.metrics);
    }

    /// Last recorded residual, if any.
    pub fn last_residual(&self) -> Option<f64> {
        self.residuals.last().copied()
    }

    /// Best (smallest) recorded residual, ignoring non-finite samples.
    pub fn best_residual(&self) -> Option<f64> {
        self.residuals
            .iter()
            .copied()
            .filter(|r| r.is_finite())
            .min_by(f64::total_cmp)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    #[test]
    fn residual_trail_thins_but_keeps_endpoints() {
        let mut d = Diagnostics::new();
        for i in 0..(MAX_RESIDUALS * 4) {
            d.push_residual(i as f64);
        }
        assert!(d.residuals.len() <= MAX_RESIDUALS + 1);
        assert!(d.residual_stride >= 4);
        assert_eq!(d.residuals[0], 0.0);
        assert_eq!(d.last_residual(), Some((MAX_RESIDUALS * 4 - 1) as f64));
    }

    #[test]
    fn keep_newest_trims_trail_and_trace_from_the_front() {
        let mut d = Diagnostics::for_kernel("k");
        for i in 0..8u64 {
            d.request_stage(i, "admitted");
            d.certificate_issued(&Certificate::ResidualNorm { value: 0.1 });
        }
        // 1 span_enter + 8 × (request, certificate) typed events; 8
        // trail lines.
        assert_eq!(d.keep_newest(4), 13);
        assert_eq!(d.trace.len(), 4);
        assert_eq!(
            d.events,
            [
                "request 4: admitted",
                "request 5: admitted",
                "request 6: admitted",
                "request 7: admitted"
            ]
        );
        assert_eq!(d.keep_newest(4), 0);
    }

    #[test]
    fn best_residual_ignores_nans() {
        let mut d = Diagnostics::new();
        d.push_residual(3.0);
        d.push_residual(f64::NAN);
        d.push_residual(1.5);
        assert_eq!(d.best_residual(), Some(1.5));
    }

    #[test]
    fn merge_adds_counters_and_takes_max_elapsed() {
        let mut a = Diagnostics::new();
        a.iterations = 3;
        a.work = 10;
        a.elapsed = Duration::from_millis(5);
        a.push_residual(0.5);
        a.note("worker 0 done");
        let mut b = Diagnostics::new();
        b.iterations = 4;
        b.work = 7;
        b.restarts = 1;
        b.elapsed = Duration::from_millis(9);
        b.push_residual(0.25);
        b.note("worker 1 done");
        a.merge(&b);
        assert_eq!(a.iterations, 7);
        assert_eq!(a.work, 17);
        assert_eq!(a.restarts, 1);
        assert_eq!(a.elapsed, Duration::from_millis(9));
        assert_eq!(a.residuals, vec![0.5, 0.25]);
        assert_eq!(a.events, vec!["worker 0 done", "worker 1 done"]);
    }

    #[test]
    fn events_accumulate() {
        let mut d = Diagnostics::new();
        d.note("restarted");
        d.note(format!("attempt {}", 2));
        assert_eq!(d.events.len(), 2);
    }

    #[test]
    fn for_kernel_opens_span_and_finish_closes_it() {
        let mut d = Diagnostics::for_kernel("linalg.power");
        assert_eq!(d.trace.open_spans(), ["linalg.power"]);
        d.iterations = 7;
        d.work = 21;
        d.finish_spans();
        assert!(d.trace.open_spans().is_empty());
        match &d.trace.events().last().unwrap().kind {
            EventKind::SpanExit {
                name,
                iterations,
                work,
            } => {
                assert_eq!(*name, "linalg.power");
                assert_eq!(*iterations, 7);
                assert_eq!(*work, 21);
            }
            other => panic!("unexpected terminal event {other:?}"),
        }
    }

    #[test]
    fn facade_mirrors_into_typed_trace() {
        let mut d = Diagnostics::for_kernel("k");
        d.push_residual(0.5);
        d.note("hello");
        d.certificate_issued(&Certificate::ResidualNorm { value: 0.1 });
        d.budget_exhausted(&Exhaustion::Work);
        d.sweep_cut(4, 0.25);
        d.fault_injected("nan", 3);
        d.fault_injected("nan", 0); // no-op
        d.restart(1, "fresh seed");
        d.request_stage(7, "admitted");
        d.finish_spans();
        let c = d.trace.counts();
        assert_eq!(c["request"], 1);
        assert!(d.events.iter().any(|e| e == "request 7: admitted"));
        assert_eq!(c["span_enter"], 1);
        assert_eq!(c["span_exit"], 1);
        assert_eq!(c["residual"], 1);
        assert_eq!(c["note"], 1);
        assert_eq!(c["certificate"], 1);
        assert_eq!(c["budget_exhausted"], 1);
        assert_eq!(c["sweep_cut"], 1);
        assert_eq!(c["fault_injected"], 1);
        assert_eq!(c["restart"], 1);
        assert_eq!(d.metrics.counter("faults_injected"), 3);
        assert_eq!(d.metrics.histogram("residual").unwrap().count(), 1);
    }

    #[test]
    fn merge_splices_traces_in_call_order() {
        let mk = |tag: &str| {
            let mut d = Diagnostics::new();
            d.note(tag.to_string());
            d
        };
        let mut all = Diagnostics::for_kernel("parent");
        for tag in ["w0", "w1", "w2"] {
            all.merge(&mk(tag));
        }
        all.finish_spans();
        let texts: Vec<String> = all
            .trace
            .events()
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Note { text } => Some(text.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(texts, vec!["w0", "w1", "w2"]);
    }
}
