//! Typed trace events: the vocabulary every instrumented kernel speaks.
//!
//! An [`Event`] is a wall-clock stamp plus an [`EventKind`]. The stamp
//! is *excluded* from the canonical (golden-comparable) serialization —
//! wall time is never deterministic — while the kind and its payload
//! are fully canonical: same solver, same seed, same event bytes,
//! regardless of `ACIR_THREADS`.

use serde_json::Value;
use std::collections::BTreeMap;

/// One structured occurrence inside a solver run.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Microseconds since the owning trace started. Diagnostic only;
    /// never part of the canonical serialization. `Residual` events
    /// carry a *sampled* stamp: the clock is re-read every 64th
    /// residual and the ones in between repeat the trace's latest
    /// reading (see `Trace::record`).
    pub wall_us: u64,
    /// What happened.
    pub kind: EventKind,
}

/// The typed payload of an [`Event`].
///
/// Variants mirror the observable lifecycle of the workspace's
/// budgeted solvers: phases open and close as spans, residuals tick,
/// retries restart, and runs end in a certificate, an exhausted
/// budget axis, or a divergence cause. Sweep cuts and injected faults
/// are the two domain-specific extras the paper's experiments revolve
/// around.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A solver phase began.
    SpanEnter {
        /// Phase name, dotted (`"linalg.power"`).
        name: &'static str,
    },
    /// A solver phase ended, with the counters it accumulated.
    SpanExit {
        /// Phase name, matching the corresponding `SpanEnter`.
        name: &'static str,
        /// Outer iterations performed inside the span.
        iterations: usize,
        /// Solver-defined work units consumed inside the span.
        work: u64,
    },
    /// One residual sample from the convergence trail.
    Residual {
        /// The residual value.
        value: f64,
    },
    /// A retry policy restarted the solver.
    Restart {
        /// 1-based attempt number that is starting.
        attempt: usize,
        /// Why the previous attempt was abandoned.
        reason: String,
    },
    /// A quality certificate was attached to a truncated result.
    CertificateIssued {
        /// Certificate family (`"residual_norm"`, `"flow_gap"`, …).
        kind: &'static str,
        /// The certificate's scalar slack (0 = exact).
        slack: f64,
    },
    /// A budget axis ran out.
    BudgetExhausted {
        /// Which axis (`"iterations"`, `"work"`, `"deadline"`).
        axis: &'static str,
    },
    /// A fault-injection harness corrupted solver state.
    FaultInjected {
        /// Corruption family (`"nan"`, `"sign_flip"`, …).
        kind: String,
        /// How many values were corrupted.
        count: u64,
    },
    /// A sweep cut (or harvested cluster) was found.
    SweepCut {
        /// Nodes on the small side of the cut.
        size: usize,
        /// Conductance of the cut.
        conductance: f64,
    },
    /// The run was halted as unrecoverable.
    Diverged {
        /// Human-readable cause.
        cause: String,
        /// Iteration at which the failure was detected.
        at_iter: usize,
    },
    /// Free-form annotation (mirrors `Diagnostics::note`).
    Note {
        /// The annotation text.
        text: String,
    },
    /// A serving-layer request crossed a lifecycle stage
    /// (`"admitted"`, `"degraded"`, `"retried"`, `"responded"`, …).
    /// Emitted by `acir-serve`, never by kernels, so golden kernel
    /// traces are unaffected.
    Request {
        /// Engine-assigned request id (unique per engine instance).
        id: u64,
        /// Lifecycle stage label.
        stage: String,
    },
}

impl EventKind {
    /// Stable snake_case tag for this kind, used as the `"kind"` field
    /// in serialized events and as the key of count summaries.
    pub fn tag(&self) -> &'static str {
        match self {
            EventKind::SpanEnter { .. } => "span_enter",
            EventKind::SpanExit { .. } => "span_exit",
            EventKind::Residual { .. } => "residual",
            EventKind::Restart { .. } => "restart",
            EventKind::CertificateIssued { .. } => "certificate",
            EventKind::BudgetExhausted { .. } => "budget_exhausted",
            EventKind::FaultInjected { .. } => "fault_injected",
            EventKind::SweepCut { .. } => "sweep_cut",
            EventKind::Diverged { .. } => "diverged",
            EventKind::Note { .. } => "note",
            EventKind::Request { .. } => "request",
        }
    }
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    let mut m = BTreeMap::new();
    for (k, v) in entries {
        m.insert(k.to_string(), v);
    }
    Value::Object(m)
}

impl Event {
    /// Serialize to a JSON object. `include_wall` adds the `wall_us`
    /// stamp; the canonical form used for golden comparison omits it.
    pub fn to_value(&self, include_wall: bool) -> Value {
        let mut entries: Vec<(&str, Value)> =
            vec![("kind", Value::String(self.kind.tag().to_string()))];
        match &self.kind {
            EventKind::SpanEnter { name } => {
                entries.push(("name", Value::String((*name).to_string())));
            }
            EventKind::SpanExit {
                name,
                iterations,
                work,
            } => {
                entries.push(("name", Value::String((*name).to_string())));
                entries.push(("iterations", Value::Number(*iterations as f64)));
                entries.push(("work", Value::Number(*work as f64)));
            }
            EventKind::Residual { value } => {
                entries.push(("value", Value::Number(*value)));
            }
            EventKind::Restart { attempt, reason } => {
                entries.push(("attempt", Value::Number(*attempt as f64)));
                entries.push(("reason", Value::String(reason.clone())));
            }
            EventKind::CertificateIssued { kind, slack } => {
                entries.push(("cert", Value::String((*kind).to_string())));
                entries.push(("slack", Value::Number(*slack)));
            }
            EventKind::BudgetExhausted { axis } => {
                entries.push(("axis", Value::String((*axis).to_string())));
            }
            EventKind::FaultInjected { kind, count } => {
                entries.push(("fault", Value::String(kind.clone())));
                entries.push(("count", Value::Number(*count as f64)));
            }
            EventKind::SweepCut { size, conductance } => {
                entries.push(("size", Value::Number(*size as f64)));
                entries.push(("conductance", Value::Number(*conductance)));
            }
            EventKind::Diverged { cause, at_iter } => {
                entries.push(("cause", Value::String(cause.clone())));
                entries.push(("at_iter", Value::Number(*at_iter as f64)));
            }
            EventKind::Note { text } => {
                entries.push(("text", Value::String(text.clone())));
            }
            EventKind::Request { id, stage } => {
                entries.push(("id", Value::Number(*id as f64)));
                entries.push(("stage", Value::String(stage.clone())));
            }
        }
        if include_wall {
            entries.push(("wall_us", Value::Number(self.wall_us as f64)));
        }
        obj(entries)
    }

    /// Canonical single-line JSON for golden snapshots (no wall stamp).
    pub fn canonical_line(&self) -> String {
        serde_json::to_string(&self.to_value(false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_stable() {
        assert_eq!(EventKind::SpanEnter { name: "x" }.tag(), "span_enter");
        assert_eq!(
            EventKind::Diverged {
                cause: "c".into(),
                at_iter: 1
            }
            .tag(),
            "diverged"
        );
    }

    #[test]
    fn canonical_line_omits_wall_and_is_sorted() {
        let e = Event {
            wall_us: 123,
            kind: EventKind::SweepCut {
                size: 7,
                conductance: 0.25,
            },
        };
        let line = e.canonical_line();
        assert!(!line.contains("wall_us"));
        assert_eq!(line, r#"{"conductance":0.25,"kind":"sweep_cut","size":7}"#);
        let with_wall = serde_json::to_string(&e.to_value(true));
        assert!(with_wall.contains("\"wall_us\":123"));
    }

    #[test]
    fn request_events_serialize_canonically() {
        let e = Event {
            wall_us: 0,
            kind: EventKind::Request {
                id: 42,
                stage: "admitted".into(),
            },
        };
        assert_eq!(e.kind.tag(), "request");
        assert_eq!(
            e.canonical_line(),
            r#"{"id":42,"kind":"request","stage":"admitted"}"#
        );
    }

    #[test]
    fn integers_serialize_without_decimal_point() {
        let e = Event {
            wall_us: 0,
            kind: EventKind::SpanExit {
                name: "linalg.power",
                iterations: 12,
                work: 34,
            },
        };
        assert_eq!(
            e.canonical_line(),
            r#"{"iterations":12,"kind":"span_exit","name":"linalg.power","work":34}"#
        );
    }
}
