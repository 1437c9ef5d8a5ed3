//! Spans recorded by the benchmark around its calls into each layer. Spans
//! stay in memory during the run and are written out once it ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    /// Request the span belongs to (0 = set-up work outside any request).
    pub request: u64,
    pub layer: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans; one tracer per client thread, merged at the end.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer { epoch, spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, request: u64, layer: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span { request, layer, start_ns, end_ns: start_ns, parent });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        request: u64,
        layer: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(request, layer, parent);
        let r = f();
        self.end(id);
        r
    }

    /// Appends another tracer's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let shift = other.epoch.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s.start_ns += shift;
            s.end_ns += shift;
            s
        }));
    }

    /// Per layer: (spans, total self time in ns). A span's self time is its
    /// duration minus the time its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, (usize, u64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.layer).or_default();
            e.0 += 1;
            e.1 += s.duration_ns().saturating_sub(c);
        }
        out
    }

    /// All spans as a JSON array, one span per line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"request\":{},\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{parent}}}",
                s.request, s.layer, s.start_ns, s.end_ns
            );
            out.push_str(if i + 1 < self.spans.len() { ",\n" } else { "\n" });
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(Instant::now());
        t.spans.push(Span { request: 1, layer: "request", start_ns: 0, end_ns: 100, parent: None });
        t.spans.push(Span { request: 1, layer: "sql", start_ns: 10, end_ns: 30, parent: Some(0) });
        t.spans.push(Span { request: 1, layer: "exec", start_ns: 30, end_ns: 90, parent: Some(0) });
        let st = t.self_times();
        assert_eq!(st["request"], (1, 20));
        assert_eq!(st["sql"], (1, 20));
        assert_eq!(st["exec"], (1, 60));
        assert!(t.to_json().contains("\"parent\":0"));
    }
}
