//! Host-side pipeline timing (paper §IV preamble).
//!
//! "FabP host code is written in OpenCL to encode the queries and send
//! them along with the reference sequences from the host DRAM to the FPGA
//! DRAM. The host code invokes the RTL kernel … and, at the end, reads the
//! results from the FPGA DRAM. In all experiments, we measured the
//! end-to-end execution time that includes reading both query and
//! reference sequences from the FPGA DRAM, aligning the sequences, and
//! writing the results to the FPGA DRAM."
//!
//! Per that definition the database transfer host→FPGA is *outside* the
//! measured window (the reference is resident in FPGA DRAM); the measured
//! end-to-end time is query load + kernel + result write-back, which this
//! module assembles.

/// Host/board interconnect and encoding-rate parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostConfig {
    /// PCIe effective bandwidth, bytes/second.
    pub pcie_bandwidth: f64,
    /// Per-transfer latency, seconds.
    pub pcie_latency: f64,
    /// Host-side query encoding rate, elements/second (back-translation +
    /// 6-bit encoding is a trivial table walk).
    pub encode_rate: f64,
}

impl Default for HostConfig {
    fn default() -> HostConfig {
        HostConfig {
            pcie_bandwidth: 12.0e9, // PCIe 3.0 x16 effective
            pcie_latency: 10.0e-6,
            encode_rate: 200.0e6,
        }
    }
}

/// Breakdown of one measured end-to-end execution.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EndToEnd {
    /// Host-side query encoding.
    pub encode_seconds: f64,
    /// Query transfer to FPGA DRAM.
    pub query_transfer_seconds: f64,
    /// Kernel execution (from the cycle model or measured).
    pub kernel_seconds: f64,
    /// Result read-back from FPGA DRAM.
    pub readback_seconds: f64,
}

impl EndToEnd {
    /// Total measured time (the paper's end-to-end definition).
    pub fn total(&self) -> f64 {
        self.encode_seconds
            + self.query_transfer_seconds
            + self.kernel_seconds
            + self.readback_seconds
    }
}

/// Assembles the end-to-end time for one search.
///
/// `query_elements` is `L_q`, `hits` the number of reported positions
/// (8 bytes each: 4-byte position + score/flags), `kernel_seconds` the
/// kernel time from the cycle model.
pub fn end_to_end(
    config: &HostConfig,
    query_elements: usize,
    hits: usize,
    kernel_seconds: f64,
) -> EndToEnd {
    let query_bytes = (query_elements * 6).div_ceil(8) as f64;
    let result_bytes = (hits * 8) as f64;
    let breakdown = EndToEnd {
        encode_seconds: query_elements as f64 / config.encode_rate,
        query_transfer_seconds: config.pcie_latency + query_bytes / config.pcie_bandwidth,
        kernel_seconds,
        readback_seconds: config.pcie_latency + result_bytes / config.pcie_bandwidth,
    };
    record_end_to_end(fabp_telemetry::Registry::global(), &breakdown);
    breakdown
}

/// Seed of the host pipeline's trace ids (one trace per modelled run).
const HOST_TRACE_SEED: u64 = 0x4057_E2E0;

/// Publishes one end-to-end breakdown to `registry`: per-stage
/// `fabp_host_stage_seconds{stage=…}` float counters plus a modelled
/// trace `end_to_end → encode → query_transfer → kernel → readback` in
/// the flight recorder, one trace per call, whose child durations sum
/// exactly to the parent.
pub fn record_end_to_end(registry: &fabp_telemetry::Registry, breakdown: &EndToEnd) {
    if !registry.is_enabled() {
        return;
    }
    let stages = [
        ("encode", breakdown.encode_seconds),
        ("query_transfer", breakdown.query_transfer_seconds),
        ("kernel", breakdown.kernel_seconds),
        ("readback", breakdown.readback_seconds),
    ];
    for (stage, seconds) in stages {
        registry
            .float_counter_with(
                "fabp_host_stage_seconds",
                "Modelled host pipeline seconds, by stage",
                fabp_telemetry::labels(&[("stage", stage)]),
            )
            .add(seconds);
    }
    registry
        .float_counter(
            "fabp_host_end_to_end_seconds",
            "Modelled end-to-end seconds (paper's measured window)",
        )
        .add(breakdown.total());
    let runs = registry.counter("fabp_host_end_to_end_runs_total", "End-to-end model runs");
    runs.inc();
    let trace = fabp_telemetry::TraceContext::mint(HOST_TRACE_SEED, runs.get());
    let stages_us = stages.map(|(stage, seconds)| (stage, seconds * 1e6));
    registry
        .flight_recorder()
        .record_stages(trace, "end_to_end", registry.now_us(), &stages_us);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_sums_components() {
        let e = EndToEnd {
            encode_seconds: 1.0,
            query_transfer_seconds: 2.0,
            kernel_seconds: 3.0,
            readback_seconds: 4.0,
        };
        assert_eq!(e.total(), 10.0);
    }

    #[test]
    fn kernel_dominates_for_realistic_workloads() {
        // A 250-aa query with a 20 ms kernel: host overheads must be
        // negligible (the paper's end-to-end ≈ kernel).
        let config = HostConfig::default();
        let e = end_to_end(&config, 750, 1000, 20.0e-3);
        assert!(e.kernel_seconds / e.total() > 0.99, "breakdown: {e:?}");
    }

    #[test]
    fn each_run_records_its_own_stage_trace() {
        let registry = fabp_telemetry::Registry::new();
        let breakdown = end_to_end(&HostConfig::default(), 150, 4, 1.0e-3);
        record_end_to_end(&registry, &breakdown);
        record_end_to_end(&registry, &breakdown);
        let events = registry.flight_recorder().events();
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        let one = [
            "end_to_end",
            "encode",
            "query_transfer",
            "kernel",
            "readback",
        ];
        assert_eq!(names, [one, one].concat());
        let (first, second) = events.split_at(5);
        assert_ne!(first[0].trace_id, second[0].trace_id);
        for run in [first, second] {
            assert!(run.iter().all(|e| e.trace_id == run[0].trace_id));
            let stages_us: f64 = run[1..].iter().map(|e| e.dur_us).sum();
            assert!((stages_us - breakdown.total() * 1e6).abs() < 1e-6);
        }
    }

    #[test]
    fn query_transfer_includes_latency() {
        let config = HostConfig::default();
        let e = end_to_end(&config, 150, 0, 0.0);
        assert!(e.query_transfer_seconds >= config.pcie_latency);
        assert!(e.readback_seconds >= config.pcie_latency);
    }
}
