//! In-memory span recorder for the traced run.
//!
//! A span is `(op, parent, layer.what, start, duration)`: spans of one
//! benchmark operation share its `op` number, and a child names the span
//! that caused it. Spans are only recorded around the benchmark's own calls
//! into each layer's public functions; nothing inside the crates is
//! instrumented. When tracing is off every call is a no-op.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

struct Span {
    op: u64,
    parent: Option<usize>,
    layer: &'static str,
    what: &'static str,
    start_ns: u64,
    dur_ns: u64,
}

impl Span {
    fn name(&self) -> String {
        if self.what.is_empty() {
            self.layer.to_string()
        } else {
            format!("{}.{}", self.layer, self.what)
        }
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

/// The id `open` hands out when tracing is off.
const NO_SPAN: usize = usize::MAX;

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a span; close it with [`close`](Self::close).
    pub fn open(
        &mut self,
        op: u64,
        parent: Option<usize>,
        layer: &'static str,
        what: &'static str,
    ) -> usize {
        if !self.enabled {
            return NO_SPAN;
        }
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            op,
            parent,
            layer,
            what,
            start_ns,
            dur_ns: 0,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        if id == NO_SPAN {
            return;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        let span = &mut self.spans[id];
        span.dur_ns = now - span.start_ns;
    }

    /// Renames a closed span (e.g. a builder call that turned out to be a
    /// cache hit).
    pub fn relabel(&mut self, id: usize, what: &'static str) {
        if let Some(span) = self.spans.get_mut(id) {
            span.what = what;
        }
    }

    /// Records a span whose duration was measured elsewhere (e.g. file I/O
    /// tallied by the counting vfs), ending now.
    pub fn record(
        &mut self,
        op: u64,
        parent: Option<usize>,
        layer: &'static str,
        what: &'static str,
        dur_ns: u64,
    ) {
        if self.enabled {
            let now = self.origin.elapsed().as_nanos() as u64;
            self.spans.push(Span {
                op,
                parent,
                layer,
                what,
                start_ns: now.saturating_sub(dur_ns),
                dur_ns,
            });
        }
    }

    /// Runs `f` inside a span and returns its result.
    pub fn time<T>(
        &mut self,
        op: u64,
        parent: Option<usize>,
        layer: &'static str,
        what: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(op, parent, layer, what);
        let out = f();
        self.close(id);
        out
    }

    fn matching<'a>(&'a self, layer: &'a str, what: &'a str) -> impl Iterator<Item = &'a Span> {
        self.spans
            .iter()
            .filter(move |s| s.layer == layer && (what == "*" || s.what == what))
    }

    /// Durations in ms of every span named `layer.what` (`what = "*"`
    /// matches the whole layer).
    pub fn ms(&self, layer: &str, what: &str) -> Vec<f64> {
        self.matching(layer, what)
            .map(|s| s.dur_ns as f64 / 1e6)
            .collect()
    }

    /// Total ms of every span named `layer.what`.
    pub fn total_ms(&self, layer: &str, what: &str) -> f64 {
        self.ms(layer, what).iter().sum()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"op\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
                s.op,
                s.name(),
                s.start_ns,
                s.dur_ns
            );
        }
        std::fs::write(path, out)
    }
}
