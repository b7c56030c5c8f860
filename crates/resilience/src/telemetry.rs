//! Telemetry surface of the resilience layer.
//!
//! All fault/detect/recover events flow into `fabp-telemetry` through
//! the helpers here, so the metric names stay consistent between the
//! engine runner, the fleet's routing and failover in `fabp-core`, and
//! the Prometheus golden test.

use fabp_telemetry::{labels, Registry};

/// Counts one injected fault, labelled by kind.
pub fn count_injected(registry: &Registry, kind: &str) {
    registry
        .counter_with(
            "fabp_resilience_faults_injected_total",
            "Faults injected by the chaos schedule",
            labels(&[("kind", kind)]),
        )
        .inc();
}

/// Counts one detected fault, labelled by kind.
pub fn count_detected(registry: &Registry, kind: &str) {
    registry
        .counter_with(
            "fabp_resilience_faults_detected_total",
            "Faults detected by CRC framing, scrubbing or the watchdog",
            labels(&[("kind", kind)]),
        )
        .inc();
}

/// Counts one recovered fault, labelled by kind.
pub fn count_recovered(registry: &Registry, kind: &str) {
    registry
        .counter_with(
            "fabp_resilience_faults_recovered_total",
            "Faults recovered by retry, scrub-and-replay or re-dispatch",
            labels(&[("kind", kind)]),
        )
        .inc();
}

/// Counts one retry and records its backoff delay.
pub fn record_retry(registry: &Registry, delay_cycles: u64) {
    registry
        .counter(
            "fabp_resilience_retries_total",
            "Transient-error retries issued by the backoff policy",
        )
        .inc();
    registry
        .histogram(
            "fabp_resilience_retry_delay_cycles",
            "Backoff delay charged per retry, in cycles",
        )
        .observe(delay_cycles);
}

/// Counts one scrub pass, labelled clean/upset.
pub fn count_scrub(registry: &Registry, outcome: &str) {
    registry
        .counter_with(
            "fabp_resilience_scrubs_total",
            "Configuration scrub passes by outcome",
            labels(&[("outcome", outcome)]),
        )
        .inc();
}

/// Records the detection latency of a config upset, in cycles.
pub fn record_detection_latency(registry: &Registry, cycles: u64) {
    registry
        .histogram(
            "fabp_resilience_detection_latency_cycles",
            "Cycles from fault injection to detection",
        )
        .observe(cycles);
}

/// Counts beats replayed during scrub-and-replay recovery.
pub fn count_replayed_beats(registry: &Registry, beats: u64) {
    registry
        .counter(
            "fabp_resilience_replayed_beats_total",
            "Reference beats replayed after a config upset",
        )
        .add(beats);
}

/// Counts one watchdog stall detection.
pub fn count_watchdog_stall(registry: &Registry, stalled_cycles: u64) {
    registry
        .counter(
            "fabp_resilience_watchdog_stalls_total",
            "Stream stalls flagged by the watchdog",
        )
        .inc();
    registry
        .histogram(
            "fabp_resilience_watchdog_stall_cycles",
            "Cycles of no progress observed per flagged stall",
        )
        .observe(stalled_cycles);
}

/// Records the total recovery overhead of one run, in cycles.
pub fn record_recovery_overhead(registry: &Registry, cycles: u64) {
    registry
        .histogram(
            "fabp_resilience_recovery_overhead_cycles",
            "Extra cycles spent on detection + recovery per run",
        )
        .observe(cycles);
}

/// Records the degraded fleet throughput as a permille of nominal.
pub fn record_degraded_throughput(registry: &Registry, permille: i64) {
    registry
        .gauge(
            "fabp_fleet_degraded_throughput_permille",
            "Fleet throughput over the live routing table, in permille of nominal",
        )
        .set(permille);
}

/// Counts one hedged duplicate read issued past the delay budget.
pub fn count_hedge_issued(registry: &Registry) {
    registry
        .counter(
            "fabp_fleet_hedges_total",
            "Hedged duplicate reads issued by the fleet scatter",
        )
        .inc();
}

/// Counts one hedge that beat its primary to completion.
pub fn count_hedge_won(registry: &Registry) {
    registry
        .counter(
            "fabp_fleet_hedge_wins_total",
            "Hedged reads that completed before their primary",
        )
        .inc();
}

/// Counts one read cancelled after losing a hedge race.
pub fn count_hedge_cancelled(registry: &Registry) {
    registry
        .counter(
            "fabp_fleet_cancels_total",
            "Reads cancelled after losing a first-response-wins race",
        )
        .inc();
}

/// Counts one shard failed over because no placed replica was routable.
pub fn count_failover(registry: &Registry) {
    registry
        .counter(
            "fabp_fleet_failovers_total",
            "Shards routed off their placement because every replica was drained",
        )
        .inc();
}
