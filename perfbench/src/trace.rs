//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark's own code around each
//! public call into a layer; nothing inside the program is instrumented.
//! Spans nest strictly (one thread, closed in reverse order of opening),
//! so a span's children never overlap and its self time is its duration
//! minus the sum of its children's.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary name, e.g. `service.apply`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request identifier shared by all spans of one request: the event
    /// sequence number (online) or the instance index (offline).
    pub request: u64,
}

impl Span {
    /// Wall time of the span in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Records spans in memory; see the module docs.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, request: u64) {
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let id = self.open.pop().expect("exit matches an enter");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        self.enter(name, request);
        let out = f();
        self.exit();
        out
    }

    /// All closed spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        assert!(self.open.is_empty(), "every span is closed before reading");
        &self.spans
    }

    /// Per span: the summed wall ms of its direct children.
    fn child_ms(&self) -> Vec<f64> {
        let spans = self.spans();
        let mut child_ms = vec![0.0; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms();
            }
        }
        child_ms
    }

    /// Per span name: (number of spans, summed wall ms, summed self ms).
    pub fn totals(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let spans = self.spans();
        let child_ms = self.child_ms();
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (s, child) in spans.iter().zip(&child_ms) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.ms();
            e.2 += s.ms() - child;
        }
        out
    }

    /// Share (percent) of the summed wall time of root spans named
    /// `root` that its direct children cover.
    pub fn coverage_pct(&self, root: &str) -> f64 {
        let child_ms = self.child_ms();
        let mut covered = 0.0;
        let mut total = 0.0;
        for (s, child) in self.spans().iter().zip(&child_ms) {
            if s.name == root && s.parent.is_none() {
                total += s.ms();
                covered += child;
            }
        }
        if total > 0.0 {
            100.0 * covered / total
        } else {
            0.0
        }
    }

    /// The spans as JSON lines: one object per span with its id, name,
    /// start and end (ns since the run's origin), parent id and request.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        t.enter("root", 7);
        t.span("child", 7, || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.exit();
        let totals = t.totals();
        let (n, wall, own) = totals["root"];
        assert_eq!(n, 1);
        assert!(wall >= totals["child"].1);
        assert!((own - (wall - totals["child"].1)).abs() < 1e-9);
        assert!(t.coverage_pct("root") > 50.0);
        let lines = t.to_jsonl();
        assert_eq!(lines.lines().count(), 2);
        assert!(lines.contains("\"name\":\"child\"") && lines.contains("\"parent\":0"));
    }
}
