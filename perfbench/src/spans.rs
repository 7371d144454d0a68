//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span names the layer it times, the span that caused it, and the
//! checkpoint (or simulated interval) it belongs to. Calls made once
//! per store or per trace event are too many to keep one by one: they
//! are folded into one aggregate span per parent, whose duration is
//! the sum of the calls' durations and whose `calls` counts them.
//! Spans stay in memory; [`Tracer::to_json`] writes them out at the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Layers the benchmark attributes time to, in report order.
pub const LAYERS: [&str; 10] = [
    "trace",
    "memsim",
    "tracker",
    "bitmap",
    "oscomp",
    "baselines",
    "commit",
    "persist",
    "recover",
    "bench",
];

/// Identifier of a recorded span.
pub type SpanId = usize;

/// One span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// Layer the call belongs to (one of [`LAYERS`]).
    pub layer: &'static str,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Checkpoint sequence or simulated interval the span belongs to.
    pub ckpt: u64,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// Duration (summed over `calls` for an aggregate span).
    pub dur_ns: u64,
    /// Calls covered: 1 for a plain span.
    pub calls: u64,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// `t` in ns since the tracer was created.
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records the span `[start, end)`.
    pub fn span(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: Option<SpanId>,
        ckpt: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let start_ns = self.ns(start);
        let dur_ns = end.saturating_duration_since(start).as_nanos() as u64;
        self.push(name, layer, parent, ckpt, start_ns, dur_ns, 1)
    }

    /// Ends span `id` at `end`.
    pub fn set_end(&mut self, id: SpanId, end: Instant) {
        let end_ns = self.ns(end);
        let span = &mut self.spans[id];
        span.dur_ns = end_ns.saturating_sub(span.start_ns);
    }

    /// Records `calls` calls under `parent` that took `dur_ns` in all.
    /// Nothing is recorded for zero calls.
    #[allow(clippy::too_many_arguments)]
    pub fn aggregate(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: SpanId,
        ckpt: u64,
        start: Instant,
        dur_ns: u64,
        calls: u64,
    ) {
        if calls > 0 {
            let start_ns = self.ns(start);
            self.push(name, layer, Some(parent), ckpt, start_ns, dur_ns, calls);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: Option<SpanId>,
        ckpt: u64,
        start_ns: u64,
        dur_ns: u64,
        calls: u64,
    ) -> SpanId {
        debug_assert!(LAYERS.contains(&layer), "unknown layer {layer}");
        self.spans.push(Span {
            name,
            layer,
            parent,
            ckpt,
            start_ns,
            dur_ns,
            calls,
        });
        self.spans.len() - 1
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer: each span's duration minus the durations
    /// of its children, summed by layer.
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.layer).or_insert(0) += s.dur_ns.saturating_sub(c);
        }
        out
    }

    /// Total duration of the root spans (those without a parent).
    pub fn root_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.dur_ns)
            .sum()
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut s = String::from("[");
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push_str(",\n");
            }
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{{\"id\": {i}, \"name\": \"{}\", \"layer\": \"{}\", \"parent\": {parent}, \
                 \"ckpt\": {}, \"start_ns\": {}, \"dur_ns\": {}, \"calls\": {}}}",
                sp.name, sp.layer, sp.ckpt, sp.start_ns, sp.dur_ns, sp.calls
            );
        }
        s.push(']');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let t0 = Instant::now();
        let root = t.span(
            "run",
            "memsim",
            None,
            0,
            t0,
            t0 + Duration::from_nanos(1000),
        );
        t.aggregate("next_event", "trace", root, 0, t0, 300, 30);
        let c = t.span(
            "end_interval",
            "oscomp",
            Some(root),
            1,
            t0,
            t0 + Duration::from_nanos(200),
        );
        t.aggregate("inner", "bitmap", c, 1, t0, 50, 1);
        let by = t.self_ns_by_layer();
        assert_eq!(by["memsim"], 500);
        assert_eq!(by["trace"], 300);
        assert_eq!(by["oscomp"], 150);
        assert_eq!(by["bitmap"], 50);
        assert_eq!(t.root_ns(), 1000);
        assert!(t.to_json().contains("\"parent\": 0"));
    }
}
