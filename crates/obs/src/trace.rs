//! Deterministic per-run event traces with span bookkeeping.
//!
//! A [`Trace`] records [`Event`]s in program order. Wall-clock stamps
//! are attached for humans but excluded from the canonical form, so
//! the *sequence* of events is a pure function of the solver's inputs.
//! Parallel solvers keep one trace per worker and [`Trace::merge`]
//! them in ascending chunk order (the same discipline `acir-exec`
//! uses for values), which makes the merged trace bit-stable across
//! `ACIR_THREADS`.

use crate::event::{Event, EventKind};
use crate::sink::TraceSink;
use std::collections::BTreeMap;
use std::time::Instant;

/// Hard cap on stored `Residual` events; past it further residual
/// samples are counted but not stored, so hot million-iteration loops
/// cannot blow up trace memory. All other kinds are unbounded (their
/// counts are structurally small).
///
/// Wall stamps of stored residuals are *sampled*: the clock is re-read
/// on every [`RESIDUAL_STAMP_STRIDE`]th residual and the samples in
/// between repeat the trace's latest stamp, so a push loop recording
/// one residual per push does not pay one clock read per push.
const MAX_RESIDUAL_EVENTS: usize = 4096;

/// Residual events between clock reads (see [`MAX_RESIDUAL_EVENTS`]).
/// Every other kind is stamped with a fresh read.
const RESIDUAL_STAMP_STRIDE: usize = 64;

/// An ordered, deterministic event log for one solver run.
#[derive(Debug, Clone)]
pub struct Trace {
    start: Instant,
    events: Vec<Event>,
    open: Vec<&'static str>,
    residual_events: usize,
    dropped_residuals: u64,
    /// Latest clock reading, repeated by residuals between samples.
    last_wall_us: u64,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    /// Fresh, empty trace; the wall clock starts now.
    pub fn new() -> Self {
        Self {
            start: Instant::now(),
            events: Vec::new(),
            open: Vec::new(),
            residual_events: 0,
            dropped_residuals: 0,
            last_wall_us: 0,
        }
    }

    /// Record one event, stamping it with the elapsed wall time.
    ///
    /// `Residual` events past the storage cap are dropped (but
    /// counted); the drop rule depends only on how many residuals were
    /// recorded before, so it is deterministic. Stored residuals
    /// re-read the clock only every 64th sample and otherwise repeat
    /// the latest stamp (stamps stay monotone and are diagnostic-only —
    /// the canonical form omits them).
    pub fn record(&mut self, kind: EventKind) {
        let mut read_clock = true;
        if matches!(kind, EventKind::Residual { .. }) {
            if self.residual_events >= MAX_RESIDUAL_EVENTS {
                self.dropped_residuals += 1;
                return;
            }
            read_clock = self.residual_events % RESIDUAL_STAMP_STRIDE == 0;
            self.residual_events += 1;
        }
        if read_clock {
            self.last_wall_us = u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX);
        }
        self.events.push(Event {
            wall_us: self.last_wall_us,
            kind,
        });
    }

    /// Open a span: record `SpanEnter` and push it on the span stack.
    pub fn enter(&mut self, name: &'static str) {
        self.record(EventKind::SpanEnter { name });
        self.open.push(name);
    }

    /// Close the innermost open span with the given counters.
    /// No-op when no span is open.
    pub fn exit(&mut self, iterations: usize, work: u64) {
        if let Some(name) = self.open.pop() {
            self.record(EventKind::SpanExit {
                name,
                iterations,
                work,
            });
        }
    }

    /// Close every open span (innermost first) with the given
    /// counters. Outcome constructors call this so a solver can return
    /// from any exit path without hand-balancing its spans.
    pub fn close_all(&mut self, iterations: usize, work: u64) {
        while !self.open.is_empty() {
            self.exit(iterations, work);
        }
    }

    /// Retroactively wrap everything recorded so far in a span: a
    /// `SpanEnter` is inserted before the first event and a matching
    /// `SpanExit` appended. Used by kernels that delegate their whole
    /// body to an inner solver and only afterwards own its trace.
    pub fn wrap_span(&mut self, name: &'static str, iterations: usize, work: u64) {
        let wall_us = self.events.last().map(|e| e.wall_us).unwrap_or(0);
        self.events.insert(
            0,
            Event {
                wall_us: 0,
                kind: EventKind::SpanEnter { name },
            },
        );
        self.events.push(Event {
            wall_us,
            kind: EventKind::SpanExit {
                name,
                iterations,
                work,
            },
        });
    }

    /// All recorded events, in order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Names of currently open (unbalanced) spans, outermost first.
    pub fn open_spans(&self) -> &[&'static str] {
        &self.open
    }

    /// Residual samples that were counted but not stored.
    pub fn dropped_residuals(&self) -> u64 {
        self.dropped_residuals
    }

    /// Discard all but the newest `keep` events and return how many
    /// went. For long-lived owners (the serve engine's lifecycle
    /// trail) that must not grow with the number of requests served;
    /// open spans are bookkeeping, not events, and are unaffected.
    pub fn keep_newest(&mut self, keep: usize) -> usize {
        let dropped = self.events.len().saturating_sub(keep);
        self.residual_events -= self.events[..dropped]
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Residual { .. }))
            .count();
        self.events.drain(..dropped);
        dropped
    }

    /// Append another trace's events after this one's, preserving the
    /// other trace's relative wall stamps. Callers merge workers in a
    /// fixed (ascending chunk) order, so the combined sequence is
    /// deterministic across thread counts.
    pub fn merge(&mut self, other: &Trace) {
        for e in &other.events {
            if matches!(e.kind, EventKind::Residual { .. }) {
                if self.residual_events >= MAX_RESIDUAL_EVENTS {
                    self.dropped_residuals += 1;
                    continue;
                }
                self.residual_events += 1;
            }
            self.events.push(e.clone());
        }
        self.open.extend_from_slice(&other.open);
        self.dropped_residuals += other.dropped_residuals;
    }

    /// Event counts keyed by kind tag — the cheap structural summary
    /// tests assert on.
    pub fn counts(&self) -> BTreeMap<&'static str, usize> {
        let mut m = BTreeMap::new();
        for e in &self.events {
            *m.entry(e.kind.tag()).or_insert(0) += 1;
        }
        m
    }

    /// Canonical JSONL lines (one per event, wall stamps omitted) —
    /// the golden snapshot format.
    pub fn canonical_lines(&self) -> Vec<String> {
        self.events.iter().map(Event::canonical_line).collect()
    }

    /// Replay every event into a sink, in order.
    pub fn replay_into(&self, sink: &mut dyn TraceSink) {
        for e in &self.events {
            sink.emit(e);
        }
        sink.flush();
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    #[test]
    fn spans_balance_lifo() {
        let mut t = Trace::new();
        t.enter("outer");
        t.enter("inner");
        t.record(EventKind::Residual { value: 0.5 });
        t.close_all(3, 10);
        assert!(t.open_spans().is_empty());
        let tags: Vec<_> = t.events().iter().map(|e| e.kind.tag()).collect();
        assert_eq!(
            tags,
            vec![
                "span_enter",
                "span_enter",
                "residual",
                "span_exit",
                "span_exit"
            ]
        );
        match &t.events()[3].kind {
            EventKind::SpanExit { name, .. } => assert_eq!(*name, "inner"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn residual_cap_drops_deterministically() {
        let mut t = Trace::new();
        for i in 0..(MAX_RESIDUAL_EVENTS + 10) {
            t.record(EventKind::Residual { value: i as f64 });
        }
        assert_eq!(t.len(), MAX_RESIDUAL_EVENTS);
        assert_eq!(t.dropped_residuals(), 10);
    }

    #[test]
    fn residual_stamps_are_sampled_and_monotone() {
        let mut t = Trace::new();
        for i in 0..(3 * RESIDUAL_STAMP_STRIDE) {
            if i == RESIDUAL_STAMP_STRIDE + 5 {
                // Any other kind reads the clock and refreshes the
                // stamp the following residuals repeat.
                std::thread::sleep(std::time::Duration::from_millis(2));
                t.record(EventKind::Note { text: "n".into() });
            }
            t.record(EventKind::Residual { value: i as f64 });
        }
        let stamps: Vec<u64> = t.events().iter().map(|e| e.wall_us).collect();
        assert!(stamps.windows(2).all(|w| w[0] <= w[1]), "stamps monotone");
        // Inside a stride every residual repeats the stride's reading.
        let first = &stamps[..RESIDUAL_STAMP_STRIDE];
        assert!(first.iter().all(|&s| s == first[0]));
        let note_at = RESIDUAL_STAMP_STRIDE + 5;
        assert!(stamps[note_at] >= stamps[note_at - 1] + 2_000);
        assert_eq!(stamps[note_at + 1], stamps[note_at]);
        // The sequence itself is untouched by the sampling.
        let values: Vec<f64> = t
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Residual { value } => Some(value),
                _ => None,
            })
            .collect();
        let expect: Vec<f64> = (0..3 * RESIDUAL_STAMP_STRIDE).map(|i| i as f64).collect();
        assert_eq!(values, expect);
    }

    #[test]
    fn keep_newest_drops_from_the_front() {
        let mut t = Trace::new();
        t.enter("s");
        for i in 0..10 {
            t.record(EventKind::Residual { value: i as f64 });
        }
        assert_eq!(t.keep_newest(64), 0);
        assert_eq!(t.keep_newest(4), 7);
        assert_eq!(t.len(), 4);
        assert_eq!(t.open_spans(), ["s"]);
        match t.events()[0].kind {
            EventKind::Residual { value } => assert_eq!(value, 6.0),
            ref other => panic!("unexpected {other:?}"),
        }
        // Dropped residuals free their storage slots.
        for i in 0..MAX_RESIDUAL_EVENTS {
            t.record(EventKind::Residual { value: i as f64 });
        }
        assert_eq!(t.dropped_residuals(), 4);
    }

    #[test]
    fn merge_appends_in_call_order() {
        let mut a = Trace::new();
        a.record(EventKind::Note { text: "a".into() });
        let mut b = Trace::new();
        b.record(EventKind::Note { text: "b".into() });
        let mut c = Trace::new();
        c.record(EventKind::Note { text: "c".into() });
        a.merge(&b);
        a.merge(&c);
        let texts: Vec<_> = a
            .events()
            .iter()
            .map(|e| match &e.kind {
                EventKind::Note { text } => text.clone(),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(texts, vec!["a", "b", "c"]);
    }

    #[test]
    fn wrap_span_brackets_existing_events() {
        let mut t = Trace::new();
        t.record(EventKind::Residual { value: 1.0 });
        t.wrap_span("outer", 5, 9);
        let tags: Vec<_> = t.events().iter().map(|e| e.kind.tag()).collect();
        assert_eq!(tags, vec!["span_enter", "residual", "span_exit"]);
    }

    #[test]
    fn counts_summarize_by_tag() {
        let mut t = Trace::new();
        t.enter("s");
        t.record(EventKind::Residual { value: 1.0 });
        t.record(EventKind::Residual { value: 0.5 });
        t.close_all(2, 2);
        let c = t.counts();
        assert_eq!(c["residual"], 2);
        assert_eq!(c["span_enter"], 1);
        assert_eq!(c["span_exit"], 1);
    }
}
