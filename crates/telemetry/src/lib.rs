//! Lock-free metrics and trace events for the FabP reproduction.
//!
//! The paper's evaluation (§IV) reports throughput, stall fractions and
//! end-to-end stage timings; this crate is the plumbing that lets every
//! layer of the reproduction — host model, cycle-level engine, AXI
//! channels, software baselines — publish those numbers through one
//! uniform, zero-external-dependency API.
//!
//! # Design
//!
//! * **Handles are cheap and detachable.** A [`Counter`], [`Gauge`],
//!   [`FloatCounter`] or [`Histogram`] is an `Option<Arc<…>>`; a handle
//!   from [`Registry::disabled()`] holds `None`, so `inc()` on it is a
//!   single predictable branch (sub-nanosecond — see the
//!   `telemetry_overhead` bench).
//! * **One global registry, plus scoped ones.** Library code records
//!   against [`Registry::global()`] by default; tests and benches build
//!   private [`Registry::new()`] instances, or pass
//!   [`Registry::disabled()`] to measure the no-op path.
//! * **One span model.** Every span is a [`TraceEvent`] in the
//!   registry's [`FlightRecorder`]: a bounded, lock-free ring that keeps
//!   the newest [`FLIGHT_RECORDER_CAPACITY`] events and counts the rest
//!   as dropped. A [`TraceContext`] carries the trace id and parent
//!   links. Measured spans record wall-clock durations; modelled
//!   pipelines use [`FlightRecorder::record_stages`], whose children
//!   sum exactly to their parent.
//! * **Export is snapshot-based.** [`Registry::snapshot`] captures the
//!   metrics, which [`Snapshot::to_prometheus`] and [`Snapshot::to_json`]
//!   render; [`chrome_trace_for_events`] renders the recorder's events
//!   as a Chrome trace.
//!
//! ```
//! use fabp_telemetry::Registry;
//!
//! let registry = Registry::new();
//! let hits = registry.counter("fabp_hits_total", "Hits emitted");
//! hits.add(3);
//! let text = registry.snapshot().to_prometheus();
//! assert!(text.contains("fabp_hits_total 3"));
//! ```

#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod metrics;
mod registry;
mod slo;
mod snapshot;
mod trace;

pub use metrics::{Counter, FloatCounter, Gauge, Histogram, HISTOGRAM_BUCKETS};
pub use registry::{labels, Labels, Registry, LABELS_DROPPED_METRIC, MAX_SERIES_PER_METRIC};
pub use slo::{BurnRate, SloMonitor, SloPolicy, SloReport, TenantSlo};
pub use snapshot::{
    Exemplar, HistogramSnapshot, MetricKind, MetricSnapshot, MetricValue, Snapshot,
};
pub use trace::{
    chrome_trace_for_events, splitmix64, FlightEvent, FlightRecorder, TraceContext, TraceEvent,
    FLAG_CACHE_HIT, FLAG_CACHE_MISS, FLAG_CANCELLED, FLAG_ERROR, FLAG_HEDGE, FLAG_RECOVERED,
    FLAG_RETRY, FLAG_SHED, FLIGHT_RECORDER_CAPACITY, TRACE_NAME_MAX,
};

/// Convenience: the global registry (enabled by default).
pub fn global() -> &'static Registry {
    Registry::global()
}
