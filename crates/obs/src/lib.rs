//! # cpdb-obs — unified observability for the consensus-pdb stack
//!
//! One crate unifies the stack's telemetry: a **metrics registry** of named
//! atomic counters, gauges, and fixed-bucket log-scale latency histograms
//! (lock-free recording through pre-registered handles), **tracing spans**
//! with monotonic timing, and a bounded ring-buffer **flight recorder** of
//! recent events — drainable for post-mortem dumps when a component reports
//! degraded health.
//!
//! The entry point is [`Obs`], a cheaply cloneable handle that is **disabled
//! by default**: a disabled handle hands out inert [`Counter`] / [`Gauge`] /
//! [`Histogram`] handles whose record paths are a single `Option` branch, so
//! instrumented code costs (nearly) nothing when no sink is attached — the
//! `observability` bench gates the instrumented hot query path at ≤ 2% of
//! the uninstrumented baseline. Instrumentation is **bit-transparent**: it
//! observes timing and counts only, never the values a computation produces,
//! so answers are identical with the recorder on or off (pinned by
//! `cpdb_testkit`'s `check_observability` across all conformance seeds).
//!
//! Components pre-register their handles once at attach time
//! ([`Obs::counter`] / [`Obs::gauge`] / [`Obs::histogram`]) and then record
//! without any name lookup; [`Obs::snapshot`] produces a cloneable
//! [`MetricsSnapshot`] with a stable, hand-rolled JSON emitter (same idiom
//! as the bench crate's `BENCH_ledger.json` writer). [`Span`]s time a region and optionally
//! leave start/finish events in the recorder.
//!
//! The crate is a leaf: it depends only on `cpdb_sync`, so every layer —
//! engine, live, store, replica — can carry an [`Obs`] without dependency
//! cycles, and the atomics route through the same facade the model checker
//! instruments under `--cfg cpdb_check`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod metrics;
mod recorder;
mod snapshot;
mod span;

pub use metrics::{Counter, Gauge, Histogram};
pub use recorder::{Event, EventKind};
pub use snapshot::{HistogramSnapshot, MetricValue, MetricsSnapshot};
pub use span::Span;

use cpdb_sync::Arc;
use metrics::Registry;
use recorder::FlightRecorder;

/// Default flight-recorder capacity (events retained before the oldest is
/// overwritten).
pub const DEFAULT_EVENT_CAPACITY: usize = 1024;

/// The shared observability sink: a metrics registry plus a flight recorder.
///
/// `Obs` is a handle (`Clone` is an `Arc` bump); a `Default`-constructed or
/// [`disabled`](Obs::disabled) handle has **no sink attached** — every
/// registration returns an inert handle and every record call is a single
/// branch. Attach one [`enabled`](Obs::enabled) handle at construction time
/// and clone it into each layer.
#[derive(Clone, Debug, Default)]
pub struct Obs {
    inner: Option<Arc<ObsInner>>,
}

#[derive(Debug)]
struct ObsInner {
    registry: Registry,
    recorder: FlightRecorder,
}

impl Obs {
    /// A handle with no sink attached: registrations return inert handles,
    /// records are no-ops. Identical to `Obs::default()`.
    pub fn disabled() -> Self {
        Obs { inner: None }
    }

    /// A live sink with the [`DEFAULT_EVENT_CAPACITY`] flight recorder.
    pub fn enabled() -> Self {
        Self::with_event_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// A live sink whose flight recorder retains the last `capacity` events
    /// (a capacity of `0` is clamped to `1`).
    pub fn with_event_capacity(capacity: usize) -> Self {
        Obs {
            inner: Some(Arc::new(ObsInner {
                registry: Registry::new(),
                recorder: FlightRecorder::new(capacity.max(1)),
            })),
        }
    }

    /// Whether a sink is attached.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Registers (or retrieves) the counter `name`. On a disabled handle the
    /// returned counter is inert.
    pub fn counter(&self, name: &str) -> Counter {
        match &self.inner {
            Some(inner) => inner.registry.counter(name),
            None => Counter::default(),
        }
    }

    /// Registers (or retrieves) the gauge `name`. On a disabled handle the
    /// returned gauge is inert.
    pub fn gauge(&self, name: &str) -> Gauge {
        match &self.inner {
            Some(inner) => inner.registry.gauge(name),
            None => Gauge::default(),
        }
    }

    /// Registers (or retrieves) the log-scale latency histogram `name`. On a
    /// disabled handle the returned histogram is inert.
    pub fn histogram(&self, name: &str) -> Histogram {
        match &self.inner {
            Some(inner) => inner.registry.histogram(name),
            None => Histogram::default(),
        }
    }

    /// Records a flight-recorder event with a pre-built detail string.
    /// Prefer [`event_with`](Self::event_with) when building the detail
    /// requires formatting — it skips the formatting entirely on a disabled
    /// handle.
    pub fn event(&self, kind: EventKind, detail: impl Into<String>) {
        if let Some(inner) = &self.inner {
            inner.recorder.record(kind, detail.into());
        }
    }

    /// Records a flight-recorder event, building the detail string lazily so
    /// a disabled handle pays nothing for it.
    pub fn event_with(&self, kind: EventKind, detail: impl FnOnce() -> String) {
        if let Some(inner) = &self.inner {
            inner.recorder.record(kind, detail());
        }
    }

    /// Opens a [`Span`] that records its elapsed time into `histogram` when
    /// dropped. Inert on a disabled handle.
    pub fn span(&self, histogram: &Histogram) -> Span {
        Span::timing(self, histogram)
    }

    /// Opens a [`Span`] that records a `start` event now, and on drop records
    /// its elapsed time into `histogram` plus a `finish` event carrying
    /// `detail` and the duration. Inert on a disabled handle.
    pub fn span_with_events(
        &self,
        histogram: &Histogram,
        start: EventKind,
        finish: EventKind,
        detail: impl FnOnce() -> String,
    ) -> Span {
        Span::with_events(self, histogram, start, finish, detail)
    }

    /// Opens a [`Span`] that, on drop, records its elapsed time into
    /// `histogram` and a single `finish` event carrying `detail` and the
    /// duration (no start event — the shape artifact builds want). Inert on
    /// a disabled handle.
    pub fn span_finishing(
        &self,
        histogram: &Histogram,
        finish: EventKind,
        detail: impl FnOnce() -> String,
    ) -> Span {
        Span::finishing(self, histogram, finish, detail)
    }

    /// A consistent, cloneable snapshot of every registered metric, sorted by
    /// name. Empty on a disabled handle.
    pub fn snapshot(&self) -> MetricsSnapshot {
        match &self.inner {
            Some(inner) => inner.registry.snapshot(),
            None => MetricsSnapshot::default(),
        }
    }

    /// The most recent `n` flight-recorder events, oldest first (the ring
    /// buffer is left untouched). Empty on a disabled handle.
    pub fn recent_events(&self, n: usize) -> Vec<Event> {
        match &self.inner {
            Some(inner) => inner.recorder.recent(n),
            None => Vec::new(),
        }
    }

    /// Drains the flight recorder for a post-mortem dump: every retained
    /// event, oldest first, leaving the buffer empty.
    pub fn drain_events(&self) -> Vec<Event> {
        match &self.inner {
            Some(inner) => inner.recorder.drain(),
            None => Vec::new(),
        }
    }

    /// Total number of events ever recorded (including ones the ring has
    /// since evicted).
    pub fn events_recorded(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.recorder.recorded(),
            None => 0,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_handles_are_inert() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        let c = obs.counter("x");
        c.incr();
        assert_eq!(c.get(), 0);
        let g = obs.gauge("y");
        g.set(7);
        assert_eq!(g.get(), 0);
        let h = obs.histogram("z");
        h.record(Duration::from_micros(3));
        assert_eq!(h.count(), 0);
        obs.event(EventKind::EpochPublish, "epoch 1");
        assert!(obs.recent_events(10).is_empty());
        assert!(obs.snapshot().is_empty());
        assert_eq!(obs.events_recorded(), 0);
    }

    #[test]
    fn counters_and_gauges_register_once() {
        let obs = Obs::enabled();
        let a = obs.counter("layer.ops");
        let b = obs.counter("layer.ops");
        a.add(3);
        b.incr();
        assert_eq!(a.get(), 4);
        let g = obs.gauge("layer.lag");
        g.set(11);
        assert_eq!(obs.gauge("layer.lag").get(), 11);
        let snap = obs.snapshot();
        assert_eq!(snap.counter("layer.ops"), Some(4));
        assert_eq!(snap.gauge("layer.lag"), Some(11));
    }

    #[test]
    fn histograms_bucket_on_a_log_scale() {
        let obs = Obs::enabled();
        let h = obs.histogram("lat");
        for us in [1u64, 10, 100, 1000] {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 4);
        let snap = obs.snapshot();
        let hs = snap.histogram("lat").expect("registered");
        assert_eq!(hs.count, 4);
        assert_eq!(hs.sum_ns, 1_111_000);
        // The p100 upper bound covers the largest sample.
        assert!(hs.quantile_ns(1.0) >= 1_000_000);
        // The p25 bound is no larger than the smallest bucket's bound.
        assert!(hs.quantile_ns(0.25) < 2_048);
    }

    #[test]
    fn spans_time_into_histograms_and_leave_events() {
        let obs = Obs::enabled();
        let h = obs.histogram("span.lat");
        {
            let _s =
                obs.span_with_events(&h, EventKind::QueryStart, EventKind::QueryFinish, || {
                    "topk".to_string()
                });
        }
        assert_eq!(h.count(), 1);
        let events = obs.recent_events(10);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::QueryStart);
        assert_eq!(events[1].kind, EventKind::QueryFinish);
        assert!(events[1].detail.contains("topk"));
    }

    #[test]
    fn recorder_is_bounded_and_drainable() {
        let obs = Obs::with_event_capacity(4);
        for i in 0..10 {
            obs.event(EventKind::WalAppend, format!("epoch {i}"));
        }
        let recent = obs.recent_events(100);
        assert_eq!(recent.len(), 4);
        assert_eq!(recent[0].detail, "epoch 6");
        assert_eq!(recent[3].detail, "epoch 9");
        assert_eq!(obs.events_recorded(), 10);
        // Sequence numbers keep counting across evictions.
        assert_eq!(recent[3].seq, 9);
        let drained = obs.drain_events();
        assert_eq!(drained.len(), 4);
        assert!(obs.recent_events(100).is_empty());
    }

    #[test]
    fn snapshot_json_is_stable_and_sorted() {
        let obs = Obs::enabled();
        obs.counter("b.count").add(2);
        obs.gauge("a.gauge").set(5);
        let json = obs.snapshot().to_json();
        let a = json.find("a.gauge").expect("gauge present");
        let b = json.find("b.count").expect("counter present");
        assert!(a < b, "entries must be sorted by name:\n{json}");
        assert_eq!(json, obs.snapshot().to_json(), "emitter must be stable");
    }
}
