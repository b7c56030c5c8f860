//! Golden-file tests for the three exporters.
//!
//! The exported text is part of the crate's public contract: downstream
//! tooling (Prometheus scrapers, `chrome://tracing` / Perfetto, jq
//! pipelines) parses it byte-for-byte. These tests pin the exact output
//! for a fixed registry against checked-in golden files.
//!
//! To regenerate after an intentional format change:
//!
//! ```text
//! GOLDEN_UPDATE=1 cargo test -p fabp-telemetry --test golden
//! ```

use fabp_telemetry::{chrome_trace_for_events, labels, Registry, TraceContext};
use std::path::PathBuf;

/// Builds the fixed registry every golden file is derived from. All
/// inputs — values, label sets, trace ids, span timestamps — are
/// explicit, so the export is byte-deterministic.
fn golden_registry() -> Registry {
    let r = Registry::new();
    r.counter("fabp_engine_beats_total", "AXI beats consumed")
        .add(3128);
    r.counter_with(
        "fabp_axi_stall_cycles_total",
        "Cycles the datapath waited on AXI",
        labels(&[("channel", "0")]),
    )
    .add(128);
    r.counter_with(
        "fabp_axi_stall_cycles_total",
        "Cycles the datapath waited on AXI",
        labels(&[("channel", "1")]),
    )
    .add(64);
    r.counter_with(
        "fabp_hits_total",
        "Hits at or above threshold",
        labels(&[("engine", "cycle")]),
    )
    .add(4);
    r.gauge("fabp_cluster_nodes", "Boards in the modelled cluster")
        .set(4);
    r.float_counter(
        "fabp_host_end_to_end_seconds",
        "Modelled host pipeline seconds",
    )
    .add(0.001999);
    let h = r.histogram("fabp_engine_occupancy_percent", "Pipeline occupancy");
    h.observe(0);
    h.observe(1);
    h.observe(97);
    h.observe(u64::MAX);
    // Modelled host pipeline: children tile the parent exactly.
    r.flight_recorder().record_stages(
        TraceContext::mint(0xFAB, 1),
        "end_to_end",
        100.0,
        &[
            ("encode", 2.5),
            ("query_transfer", 1.25),
            ("kernel", 12.0),
            ("readback", 0.75),
        ],
    );
    r
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("GOLDEN_UPDATE").is_some() {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with GOLDEN_UPDATE=1",
            path.display()
        )
    });
    assert_eq!(
        actual,
        expected,
        "exporter output diverged from {}; if the change is intentional, \
         regenerate with GOLDEN_UPDATE=1",
        path.display()
    );
}

#[test]
fn prometheus_matches_golden() {
    check("sample.prom", &golden_registry().snapshot().to_prometheus());
}

#[test]
fn json_matches_golden() {
    check("sample.json", &golden_registry().snapshot().to_json());
}

/// The golden registry's trace events as a Chrome trace.
fn golden_trace() -> String {
    chrome_trace_for_events(&golden_registry().flight_recorder().events())
}

#[test]
fn chrome_trace_matches_golden() {
    check("sample_trace.json", &golden_trace());
}

#[test]
fn golden_trace_is_valid_trace_event_json() {
    // Cheap structural validation so the golden file itself can't rot:
    // balanced braces, one complete event per span, children tile parent.
    let trace = golden_trace();
    assert_eq!(trace.matches('{').count(), trace.matches('}').count());
    assert_eq!(trace.matches("\"ph\": \"X\"").count(), 5);
    assert!(trace.contains("\"ts\": 100.0"));
    // 2.5 + 1.25 + 12.0 + 0.75 = 16.5 — the parent's duration.
    assert!(trace.contains("\"dur\": 16.5"));
}
