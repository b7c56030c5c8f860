//! The metric registry: named, labelled metric registration with
//! deduplication, plus the flight recorder every trace event lands in.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::metrics::{Counter, FloatCounter, Gauge, Histogram, HistogramCell};
use crate::snapshot::{MetricValue, Snapshot};
use crate::trace::{FlightInner, FlightRecorder, FLIGHT_RECORDER_CAPACITY};

/// Maximum distinct label sets per metric name. Registration past the
/// cap lands on an `other` overflow series (all label values rewritten
/// to `other`) and bumps `telemetry_labels_dropped_total`, so an
/// unbounded label source (e.g. per-tenant labels in `fabp-serve`)
/// cannot grow the registry without limit.
pub const MAX_SERIES_PER_METRIC: usize = 32;

/// Counter bumped each time a label set is rewritten to `other`.
pub const LABELS_DROPPED_METRIC: &str = "telemetry_labels_dropped_total";

/// Metric labels: ordered `key=value` pairs (ordering makes series
/// identity and export deterministic).
pub type Labels = Vec<(String, String)>;

/// A series key: metric name + ordered labels.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct SeriesKey {
    pub(crate) name: String,
    pub(crate) labels: Labels,
}

#[derive(Debug)]
pub(crate) enum MetricCell {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicI64>),
    FloatCounter(Arc<AtomicU64>),
    Histogram(Arc<HistogramCell>),
}

#[derive(Debug)]
pub(crate) struct SeriesEntry {
    pub(crate) help: String,
    pub(crate) cell: MetricCell,
}

#[derive(Debug)]
pub(crate) struct RegistryInner {
    pub(crate) series: Mutex<BTreeMap<SeriesKey, SeriesEntry>>,
    pub(crate) epoch: Instant,
    /// Lock-free flight recorder: the one store of trace events.
    pub(crate) flight: Arc<FlightInner>,
}

/// A metric + trace registry.
///
/// Cloning a `Registry` is cheap (an `Arc` bump); clones share state.
/// [`Registry::disabled()`] returns a registry whose handles are all
/// no-ops.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    pub(crate) inner: Option<Arc<RegistryInner>>,
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

impl Registry {
    /// A fresh, enabled registry.
    pub fn new() -> Registry {
        Registry {
            inner: Some(Arc::new(RegistryInner {
                series: Mutex::new(BTreeMap::new()),
                epoch: Instant::now(),
                flight: Arc::new(FlightInner::new(FLIGHT_RECORDER_CAPACITY)),
            })),
        }
    }

    /// A registry that records nothing: every handle it hands out is a
    /// no-op, and `snapshot()` is empty. Recording through a disabled
    /// registry costs one branch per operation.
    pub fn disabled() -> Registry {
        Registry { inner: None }
    }

    /// The process-wide registry (enabled; created on first use).
    pub fn global() -> &'static Registry {
        GLOBAL.get_or_init(Registry::new)
    }

    /// True when this registry records.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    // --- registration ---------------------------------------------------

    /// Registers (or re-fetches) an unlabelled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, Vec::new())
    }

    /// Registers (or re-fetches) a labelled counter. Handles for the
    /// same `(name, labels)` share one cell.
    pub fn counter_with(&self, name: &str, help: &str, labels: Labels) -> Counter {
        match &self.inner {
            None => Counter::disabled(),
            Some(inner) => {
                let cell = inner.series_cell(name, help, labels, || {
                    MetricCell::Counter(Arc::new(AtomicU64::new(0)))
                });
                match cell {
                    MetricCell::Counter(c) => Counter::live(c),
                    _ => Counter::disabled(),
                }
            }
        }
    }

    /// Registers (or re-fetches) an unlabelled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, Vec::new())
    }

    /// Registers (or re-fetches) a labelled gauge.
    pub fn gauge_with(&self, name: &str, help: &str, labels: Labels) -> Gauge {
        match &self.inner {
            None => Gauge::disabled(),
            Some(inner) => {
                let cell = inner.series_cell(name, help, labels, || {
                    MetricCell::Gauge(Arc::new(AtomicI64::new(0)))
                });
                match cell {
                    MetricCell::Gauge(c) => Gauge::live(c),
                    _ => Gauge::disabled(),
                }
            }
        }
    }

    /// Registers (or re-fetches) an unlabelled float counter.
    pub fn float_counter(&self, name: &str, help: &str) -> FloatCounter {
        self.float_counter_with(name, help, Vec::new())
    }

    /// Registers (or re-fetches) a labelled float counter.
    pub fn float_counter_with(&self, name: &str, help: &str, labels: Labels) -> FloatCounter {
        match &self.inner {
            None => FloatCounter::disabled(),
            Some(inner) => {
                let cell = inner.series_cell(name, help, labels, || {
                    MetricCell::FloatCounter(Arc::new(AtomicU64::new(0)))
                });
                match cell {
                    MetricCell::FloatCounter(c) => FloatCounter::live(c),
                    _ => FloatCounter::disabled(),
                }
            }
        }
    }

    /// Registers (or re-fetches) an unlabelled histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        self.histogram_with(name, help, Vec::new())
    }

    /// Registers (or re-fetches) a labelled histogram.
    pub fn histogram_with(&self, name: &str, help: &str, labels: Labels) -> Histogram {
        match &self.inner {
            None => Histogram::disabled(),
            Some(inner) => {
                let cell = inner.series_cell(name, help, labels, || {
                    MetricCell::Histogram(Arc::new(HistogramCell::new()))
                });
                match cell {
                    MetricCell::Histogram(c) => Histogram::live(c),
                    _ => Histogram::disabled(),
                }
            }
        }
    }

    // --- tracing --------------------------------------------------------

    /// Handle to this registry's flight recorder (disabled handle when
    /// the registry is disabled). Cloning the handle is an `Arc` bump;
    /// recording through it is lock-free and zero-alloc.
    pub fn flight_recorder(&self) -> FlightRecorder {
        match &self.inner {
            None => FlightRecorder::disabled(),
            Some(inner) => FlightRecorder::live(Arc::clone(&inner.flight)),
        }
    }

    /// Microseconds since this registry was created (0 when disabled).
    pub fn now_us(&self) -> f64 {
        self.inner
            .as_ref()
            .map_or(0.0, |i| i.epoch.elapsed().as_nanos() as f64 / 1_000.0)
    }

    // --- export ---------------------------------------------------------

    /// Captures a consistent snapshot of all series.
    pub fn snapshot(&self) -> Snapshot {
        let Some(inner) = &self.inner else {
            return Snapshot::default();
        };
        let series = inner.series.lock().expect("series map poisoned");
        let mut metrics = Vec::with_capacity(series.len());
        for (key, entry) in series.iter() {
            metrics.push(crate::snapshot::MetricSnapshot {
                name: key.name.clone(),
                labels: key.labels.clone(),
                help: entry.help.clone(),
                value: MetricValue::capture(&entry.cell),
            });
        }
        Snapshot { metrics }
    }
}

impl RegistryInner {
    fn series_cell(
        &self,
        name: &str,
        help: &str,
        labels: Labels,
        make: impl FnOnce() -> MetricCell,
    ) -> MetricCell {
        let mut series = self.series.lock().expect("series map poisoned");
        let mut key = SeriesKey {
            name: name.to_string(),
            labels,
        };
        // Cardinality guard: a new labelled series past the per-name cap
        // is rewritten onto the `other` overflow series and counted.
        if !key.labels.is_empty() && !series.contains_key(&key) {
            let floor = SeriesKey {
                name: name.to_string(),
                labels: Vec::new(),
            };
            let existing = series
                .range(floor..)
                .take_while(|(k, _)| k.name == name)
                .count();
            if existing >= MAX_SERIES_PER_METRIC {
                for (_, value) in &mut key.labels {
                    *value = "other".to_string();
                }
                let dropped_key = SeriesKey {
                    name: LABELS_DROPPED_METRIC.to_string(),
                    labels: Vec::new(),
                };
                let dropped = series.entry(dropped_key).or_insert_with(|| SeriesEntry {
                    help: "Label sets rewritten to the `other` overflow series".to_string(),
                    cell: MetricCell::Counter(Arc::new(AtomicU64::new(0))),
                });
                if let MetricCell::Counter(c) = &dropped.cell {
                    c.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let entry = series.entry(key).or_insert_with(|| SeriesEntry {
            help: help.to_string(),
            cell: make(),
        });
        match &entry.cell {
            MetricCell::Counter(c) => MetricCell::Counter(Arc::clone(c)),
            MetricCell::Gauge(c) => MetricCell::Gauge(Arc::clone(c)),
            MetricCell::FloatCounter(c) => MetricCell::FloatCounter(Arc::clone(c)),
            MetricCell::Histogram(c) => MetricCell::Histogram(Arc::clone(c)),
        }
    }
}

/// Builds a label list from `(key, value)` string pairs.
pub fn labels(pairs: &[(&str, &str)]) -> Labels {
    pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceContext;

    #[test]
    fn same_series_shares_cell() {
        let r = Registry::new();
        let a = r.counter("x_total", "x");
        let b = r.counter("x_total", "x");
        a.add(2);
        b.add(3);
        assert_eq!(a.get(), 5);
        assert_eq!(b.get(), 5);
    }

    #[test]
    fn labelled_series_are_distinct() {
        let r = Registry::new();
        let a = r.counter_with("y_total", "y", labels(&[("ch", "0")]));
        let b = r.counter_with("y_total", "y", labels(&[("ch", "1")]));
        a.inc();
        assert_eq!(a.get(), 1);
        assert_eq!(b.get(), 0);
        let snap = r.snapshot();
        assert_eq!(snap.metrics.len(), 2);
    }

    #[test]
    fn disabled_registry_yields_inert_handles() {
        let r = Registry::disabled();
        assert!(!r.is_enabled());
        let c = r.counter("z_total", "z");
        c.add(10);
        assert_eq!(c.get(), 0);
        assert!(r.snapshot().metrics.is_empty());
        let flight = r.flight_recorder();
        flight.record_stages(TraceContext::mint(1, 1), "p", 0.0, &[("a", 1.0)]);
        assert!(flight.events().is_empty());
    }

    #[test]
    fn concurrent_counter_increments() {
        let r = Registry::new();
        let c = r.counter("conc_total", "concurrency test");
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let c = c.clone();
                scope.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
    }

    #[test]
    fn span_tree_children_sum_to_parent() {
        let r = Registry::new();
        let flight = r.flight_recorder();
        let ctx = TraceContext::mint(1, 1);
        let stages = [("a", 10.0), ("b", 20.0), ("c", 30.0)];
        flight.record_stages(ctx, "e2e", r.now_us(), &stages);
        let spans = flight.events();
        assert_eq!(spans.len(), 4);
        let parent = &spans[0];
        assert_eq!(parent.name, "e2e");
        assert_eq!(parent.dur_us, 60.0);
        let child_sum: f64 = spans[1..].iter().map(|s| s.dur_us).sum();
        assert_eq!(child_sum, parent.dur_us);
        // One trace: every child hangs under the parent.
        for child in &spans[1..] {
            assert_eq!(child.trace_id, parent.trace_id);
            assert_eq!(child.parent_span_id, parent.span_id);
        }
        // Children tile the parent interval. The absolute start is a
        // wall-clock sample, so summing child offsets onto it can differ
        // from the parent's end in the last ulp — compare with a slack.
        assert_eq!(spans[1].start_us, parent.start_us);
        let child_end = spans[3].start_us + spans[3].dur_us;
        let parent_end = parent.start_us + parent.dur_us;
        assert!(
            (child_end - parent_end).abs() < 1e-6,
            "{child_end} vs {parent_end}"
        );
    }

    #[test]
    fn label_cardinality_is_capped_with_other_overflow() {
        let r = Registry::new();
        // Register far more per-tenant series than the cap allows.
        for i in 0..(MAX_SERIES_PER_METRIC + 20) {
            r.counter_with(
                "fabp_serve_requests_total",
                "per-tenant requests",
                labels(&[("tenant", &format!("tenant-{i:03}"))]),
            )
            .inc();
        }
        let snap = r.snapshot();
        let series: Vec<_> = snap
            .metrics
            .iter()
            .filter(|m| m.name == "fabp_serve_requests_total")
            .collect();
        // Cap distinct series + the single `other` overflow series.
        assert_eq!(series.len(), MAX_SERIES_PER_METRIC + 1);
        let other = snap
            .find("fabp_serve_requests_total", &[("tenant", "other")])
            .expect("overflow series exists");
        // All 20 overflowing registrations accumulated on `other`.
        assert_eq!(other.value, MetricValue::Counter(20));
        assert_eq!(snap.counter_total(LABELS_DROPPED_METRIC), 20);
        // Existing series keep working and don't re-trip the guard.
        r.counter_with(
            "fabp_serve_requests_total",
            "per-tenant requests",
            labels(&[("tenant", "tenant-000")]),
        )
        .inc();
        assert_eq!(r.snapshot().counter_total(LABELS_DROPPED_METRIC), 20);
    }

    #[test]
    fn unlabelled_series_bypass_the_cardinality_guard() {
        let r = Registry::new();
        for i in 0..(MAX_SERIES_PER_METRIC + 5) {
            r.counter(&format!("fabp_unique_metric_{i}_total"), "distinct names")
                .inc();
        }
        let snap = r.snapshot();
        assert_eq!(snap.counter_total(LABELS_DROPPED_METRIC), 0);
        assert_eq!(snap.metrics.len(), MAX_SERIES_PER_METRIC + 5);
    }
}
