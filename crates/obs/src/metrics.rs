//! The in-memory metrics registry and the cheap clonable [`Obs`] handle
//! the rest of the workspace threads around.
//!
//! Three metric kinds, split by determinism contract:
//!
//! * **Counters** — monotone `u64` sums of thread-invariant facts
//!   (rounds, messages, bits, node polls, query counts). Counter
//!   increments commute, so the final counter table is identical no
//!   matter how worker threads interleave — the counter half of a
//!   snapshot is byte-identical across reruns and `LCS_THREADS`
//!   settings, and tests assert exactly that.
//! * **Gauges** — last-written (or max-folded) `u64`s for shape- and
//!   configuration-dependent values (shard count, per-shard splits,
//!   staging volumes). A gauge may legitimately differ between thread
//!   counts; that is why it is not a counter.
//! * **Timers** — [`LatencyHistogram`]s of measured nanoseconds
//!   (barrier waits, per-query latency, span durations). Timings are
//!   measurements, never facts.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::export::MetricsSnapshot;
use crate::histogram::LatencyHistogram;

#[derive(Debug, Default)]
struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    timers: BTreeMap<String, LatencyHistogram>,
}

/// The in-memory metrics registry: named counters, gauges, and timer
/// histograms behind one mutex.
///
/// The mutex is deliberate, not incidental: probes on engine hot paths
/// never touch the registry directly — they accumulate into plain local
/// fields or a [`SpanBuffer`] and merge here at phase boundaries, so the
/// lock is taken a handful of times per run, not per message.
/// `BTreeMap` keys give every exporter a deterministic (sorted) order
/// for free.
#[derive(Debug, Default)]
pub struct Metrics {
    inner: Mutex<Registry>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// A point-in-time copy of every metric, with names sorted.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, &v)| (k.clone(), v))
                .collect(),
            gauges: inner.gauges.iter().map(|(k, &v)| (k.clone(), v)).collect(),
            timers: inner
                .timers
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }

    /// Adds `delta` to the counter `name` (creating it at 0).
    pub fn counter_add(&self, name: &str, delta: u64) {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        if let Some(slot) = inner.counters.get_mut(name) {
            *slot += delta;
        } else {
            inner.counters.insert(name.to_string(), delta);
        }
    }

    /// Sets the gauge `name` to `value`, overwriting any previous value.
    pub fn gauge_set(&self, name: &str, value: u64) {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        inner.gauges.insert(name.to_string(), value);
    }

    /// Folds `value` into the gauge `name` with max semantics.
    pub fn gauge_max(&self, name: &str, value: u64) {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        if let Some(slot) = inner.gauges.get_mut(name) {
            *slot = (*slot).max(value);
        } else {
            inner.gauges.insert(name.to_string(), value);
        }
    }

    /// Records one `nanos` sample into the timer `name`.
    pub fn timer_record(&self, name: &str, nanos: u64) {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        if let Some(slot) = inner.timers.get_mut(name) {
            slot.record(nanos);
        } else {
            let mut h = LatencyHistogram::new();
            h.record(nanos);
            inner.timers.insert(name.to_string(), h);
        }
    }

    /// Merges a whole pre-aggregated histogram into the timer `name` —
    /// the phase-boundary path for per-thread buffers.
    pub fn timer_merge(&self, name: &str, histogram: &LatencyHistogram) {
        if histogram.is_empty() {
            return;
        }
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        if let Some(slot) = inner.timers.get_mut(name) {
            slot.merge(histogram);
        } else {
            inner.timers.insert(name.to_string(), histogram.clone());
        }
    }
}

/// The handle every instrumented layer carries: either off (`None`
/// inside — the default) or a shared reference to one [`Metrics`]
/// registry.
///
/// Cloning is a refcount bump; every probe method first checks the
/// option, so an off handle costs one predictable branch per probe and
/// performs no allocation, clock read, or locking. Code that would pay
/// to *prepare* a probe (formatting a name, reading a clock) should gate
/// on [`Obs::is_on`] first.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    inner: Option<Arc<Metrics>>,
}

impl Obs {
    /// The disabled handle. Identical to `Obs::default()`.
    pub fn off() -> Self {
        Obs { inner: None }
    }

    /// A handle recording into a fresh registry.
    pub fn recording() -> Self {
        Obs {
            inner: Some(Arc::new(Metrics::new())),
        }
    }

    /// Whether this handle records anywhere.
    pub fn is_on(&self) -> bool {
        self.inner.is_some()
    }

    /// Adds `delta` to the counter `name`.
    #[inline]
    pub fn counter_add(&self, name: &str, delta: u64) {
        if let Some(metrics) = &self.inner {
            metrics.counter_add(name, delta);
        }
    }

    /// Sets the gauge `name` to `value`.
    #[inline]
    pub fn gauge_set(&self, name: &str, value: u64) {
        if let Some(metrics) = &self.inner {
            metrics.gauge_set(name, value);
        }
    }

    /// Folds `value` into the gauge `name` with max semantics.
    #[inline]
    pub fn gauge_max(&self, name: &str, value: u64) {
        if let Some(metrics) = &self.inner {
            metrics.gauge_max(name, value);
        }
    }

    /// Records one `nanos` sample into the timer `name`.
    #[inline]
    pub fn timer_record(&self, name: &str, nanos: u64) {
        if let Some(metrics) = &self.inner {
            metrics.timer_record(name, nanos);
        }
    }

    /// Merges a pre-aggregated histogram into the timer `name`.
    #[inline]
    pub fn timer_merge(&self, name: &str, histogram: &LatencyHistogram) {
        if let Some(metrics) = &self.inner {
            metrics.timer_merge(name, histogram);
        }
    }

    /// Opens a timing span for `path` ('/'-separated for hierarchy); the
    /// elapsed nanoseconds are recorded into the timer `path` when the
    /// returned guard drops. On an off handle the guard never reads the
    /// clock. Prefer the [`crate::span!`] macro at call sites.
    pub fn span(&self, path: &'static str) -> SpanGuard<'_> {
        SpanGuard {
            obs: self,
            path,
            start: self.is_on().then(Instant::now),
        }
    }

    /// Drains a per-thread [`SpanBuffer`] into the registry. Callers
    /// merge buffers at phase boundaries in a deterministic order
    /// (shard 0, 1, …; client 0, 1, …) — histogram merge commutes, the
    /// convention just keeps merge order legible in one place.
    pub fn merge_spans(&self, buffer: &mut SpanBuffer) {
        if let Some(metrics) = &self.inner {
            for (path, nanos) in buffer.entries.drain(..) {
                metrics.timer_record(path, nanos);
            }
        } else {
            buffer.entries.clear();
        }
    }

    /// A snapshot of the registry; empty when the handle is off.
    pub fn snapshot(&self) -> MetricsSnapshot {
        match &self.inner {
            Some(metrics) => metrics.snapshot(),
            None => MetricsSnapshot::default(),
        }
    }
}

/// An open span: records its elapsed time into `path` on drop. Created
/// by [`Obs::span`] / the [`crate::span!`] macro.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    obs: &'a Obs,
    path: &'static str,
    start: Option<Instant>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.obs
                .timer_record(self.path, start.elapsed().as_nanos() as u64);
        }
    }
}

/// Opens a hierarchical timing span on an [`Obs`] handle:
/// `let _span = obs::span!(handle, "verification/flood");`
/// The span ends (and records) when the guard drops.
#[macro_export]
macro_rules! span {
    ($obs:expr, $path:expr) => {
        $crate::Obs::span(&$obs, $path)
    };
}

/// A plain per-thread buffer of `(span path, nanos)` samples. Worker
/// threads on the engine hot path record here without any
/// synchronization; the coordinator merges buffers into the registry
/// with [`Obs::merge_spans`] at phase boundaries.
#[derive(Debug, Clone, Default)]
pub struct SpanBuffer {
    entries: Vec<(&'static str, u64)>,
}

impl SpanBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        SpanBuffer::default()
    }

    /// Appends one sample.
    pub fn record(&mut self, path: &'static str, nanos: u64) {
        self.entries.push((path, nanos));
    }

    /// Number of buffered samples.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer holds no samples.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_handle_records_nothing_and_snapshots_empty() {
        let obs = Obs::off();
        obs.counter_add("c", 1);
        obs.gauge_set("g", 2);
        obs.gauge_max("g", 3);
        obs.timer_record("t", 4);
        {
            let _span = span!(obs, "s");
        }
        let snapshot = obs.snapshot();
        assert!(snapshot.counters.is_empty());
        assert!(snapshot.gauges.is_empty());
        assert!(snapshot.timers.is_empty());
        assert!(!obs.is_on());
        assert_eq!(snapshot.counters_text(), "");
    }

    #[test]
    fn counters_accumulate_and_sort() {
        let obs = Obs::recording();
        obs.counter_add("b", 2);
        obs.counter_add("a", 1);
        obs.counter_add("b", 3);
        let snapshot = obs.snapshot();
        assert_eq!(
            snapshot.counters,
            vec![("a".to_string(), 1), ("b".to_string(), 5)]
        );
        assert_eq!(snapshot.counters_text(), "a 1\nb 5\n");
    }

    #[test]
    fn gauges_overwrite_and_max() {
        let obs = Obs::recording();
        obs.gauge_set("g", 10);
        obs.gauge_set("g", 4);
        obs.gauge_max("m", 1);
        obs.gauge_max("m", 9);
        obs.gauge_max("m", 5);
        let snapshot = obs.snapshot();
        assert_eq!(snapshot.gauge("g"), Some(4));
        assert_eq!(snapshot.gauge("m"), Some(9));
        assert_eq!(snapshot.gauge("missing"), None);
    }

    #[test]
    fn spans_record_into_timers() {
        let obs = Obs::recording();
        {
            let _span = span!(obs, "phase/work");
        }
        let snapshot = obs.snapshot();
        let timer = snapshot.timer("phase/work").expect("span recorded");
        assert_eq!(timer.count(), 1);
    }

    #[test]
    fn span_buffers_merge_and_drain() {
        let obs = Obs::recording();
        let mut buffer = SpanBuffer::new();
        buffer.record("engine/barrier_wait", 100);
        buffer.record("engine/barrier_wait", 300);
        assert_eq!(buffer.len(), 2);
        obs.merge_spans(&mut buffer);
        assert!(buffer.is_empty());
        let snapshot = obs.snapshot();
        assert_eq!(snapshot.timer("engine/barrier_wait").unwrap().count(), 2);
        // Off handles still drain the buffer so it can be reused.
        let mut buffer = SpanBuffer::new();
        buffer.record("x", 1);
        Obs::off().merge_spans(&mut buffer);
        assert!(buffer.is_empty());
    }

    #[test]
    fn timer_merge_folds_histograms() {
        let obs = Obs::recording();
        let mut client = LatencyHistogram::new();
        client.record(5);
        client.record(7);
        obs.timer_merge("workload/latency", &client);
        obs.timer_merge("workload/latency", &client);
        obs.timer_merge("workload/latency", &LatencyHistogram::new());
        let snapshot = obs.snapshot();
        assert_eq!(snapshot.timer("workload/latency").unwrap().count(), 4);
    }

    #[test]
    fn counter_merge_order_is_irrelevant() {
        // Counter adds commute: interleaving across threads cannot change
        // the snapshot — the property the cross-thread determinism suite
        // relies on.
        let a = Obs::recording();
        let b = Obs::recording();
        for (first, second) in [(&a, &b), (&b, &a)] {
            first.counter_add("x", 3);
            second.counter_add("y", 1);
            second.counter_add("x", 2);
            first.counter_add("y", 4);
        }
        assert_eq!(a.snapshot().counters_text(), b.snapshot().counters_text());
    }
}
