//! In-memory spans recorded from the benchmark's own files, around
//! each call into a layer's public function. Kept in memory during the
//! run and written out as JSON lines when it ends.

use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.function` of the call the span wraps.
    pub name: &'static str,
    /// Start, ns from the tracer's origin.
    pub start_ns: u64,
    /// End, ns from the tracer's origin.
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// The request the span belongs to; spans of one request share it.
    pub request: Option<u64>,
}

impl Span {
    /// `end − start`, ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// The span recorder. A disabled tracer records nothing and costs a
/// branch: the same replay code runs with it to measure what tracing
/// itself costs.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer with room for `capacity` spans, so recording never
    /// allocates inside a measured region.
    pub fn new(enabled: bool, capacity: usize) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::with_capacity(if enabled { capacity } else { 0 }),
            stack: Vec::with_capacity(16),
        }
    }

    /// Open a span under whatever span is open now.
    pub fn begin(&mut self, name: &'static str, request: Option<u64>) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let parent = self.stack.last().copied();
        // A child belongs to its parent's request unless it names one.
        let request = request.or_else(|| parent.and_then(|p| self.spans[p].request));
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request,
        });
        let id = self.spans.len() - 1;
        self.stack.push(id);
        Open(Some(id))
    }

    /// Close `open`, which must be the innermost open span. Returns
    /// the span's duration in ns (0 when disabled).
    pub fn end(&mut self, open: Open) -> u64 {
        let Some(id) = open.0 else { return 0 };
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans[id].duration_ns()
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the spans as JSON lines: name, start, end, parent, request.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        let opt = |x: Option<u64>| x.map_or("null".to_owned(), |v| v.to_string());
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.request),
            )?;
        }
        w.flush()
    }
}

/// Self time of every span, ns: its duration minus the part of that
/// interval its child spans cover. Children of one parent never
/// overlap here (one driver thread), so the covered part is the sum of
/// the children's durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: Some(7),
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("request", 0, 100, None),
            span("serve.submit", 5, 15, Some(0)),
            span("serve.run_pending", 20, 90, Some(0)),
            span("inner", 30, 50, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 10, 50, 20]);
    }

    #[test]
    fn tracer_nests_and_inherits_the_request_id() {
        let mut t = Tracer::new(true, 8);
        let a = t.begin("request", Some(3));
        let b = t.begin("serve.submit", None);
        t.end(b);
        t.end(a);
        let c = t.begin("replay", Some(4));
        t.end(c);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].parent, s[0].request), (None, Some(3)));
        assert_eq!((s[1].parent, s[1].request), (Some(0), Some(3)));
        assert_eq!((s[2].parent, s[2].request), (None, Some(4)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let own = self_times_ns(s);
        assert_eq!(own[0], s[0].duration_ns() - s[1].duration_ns());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, 8);
        let a = t.begin("request", Some(1));
        assert_eq!(t.end(a), 0);
        assert!(t.spans().is_empty());
    }
}
