//! Health-driven routing: a phi-accrual-style failure detector over
//! per-node latency statistics and fault events.
//!
//! Answering node death *post mortem* — a kill observed mid-search
//! triggering a one-shot shard redispatch, with the next search
//! starting from scratch — makes every request pay for the failure. A
//! fleet that serves steady traffic needs the opposite shape —
//! **routing** consults a continuously updated health table so
//! suspected nodes stop receiving primary reads *before* a request has
//! to fail over, and recovered nodes rejoin gradually through probation
//! probes instead of instantly absorbing full load.
//!
//! The detector keeps, per node:
//!
//! * an **EWMA of observed request latency** plus an EWMA of its squared
//!   deviation (a cheap online variance), from which a p95-style bound
//!   `mean + 2σ` is derived — the hedge-delay budget the fleet's
//!   scatter/gather uses;
//! * the **timestamp of the last success**, from which the classic
//!   phi-accrual suspicion level is computed: assuming exponentially
//!   distributed arrival gaps with the observed mean, the probability of
//!   seeing a gap at least as long as the current silence is
//!   `exp(-elapsed/mean)`, and `phi = -log10` of that —
//!   `phi = log10(e) · elapsed / mean ≈ 0.4343 · elapsed / mean`;
//! * a **consecutive-failure counter** fed by watchdog/fault events,
//!   each failure contributing a fixed phi boost so hard errors drain a
//!   node after [`HealthPolicy::failure_threshold`] strikes even when
//!   its latency history looks healthy.
//!
//! State machine (all transitions counted in telemetry):
//!
//! ```text
//!            phi > threshold, or
//!            failure_threshold strikes           explicit kill
//!  Healthy ───────────────────────► Suspected ───────────────► Dead
//!     ▲                                 │                       │
//!     │    probation_probes successes   │  first probe success  │ revive()
//!     └──────────── Probation ◄─────────┴───────────────────────┘
//! ```
//!
//! `Healthy` nodes are routable as primaries. `Probation` nodes receive
//! only probe traffic (the fleet routes hedges at them) until
//! [`HealthPolicy::probation_probes`] consecutive successes promote them
//! back. `Suspected` and `Dead` nodes are drained from the routing table
//! entirely; `Suspected` nodes re-enter via probation on their first
//! observed success, `Dead` nodes only via an explicit [`FailureDetector::revive`].

use fabp_telemetry::{labels, Gauge, Registry};

/// log10(e): converts the exponential-CDF exponent into a phi value.
const LOG10_E: f64 = core::f64::consts::LOG10_E;

/// Tunables for the failure detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthPolicy {
    /// Suspicion level at which a node is drained from routing.
    /// Classic phi-accrual deployments use 8–12; the default of 8 means
    /// "the observed silence is 10^8 times less likely than the mean
    /// gap" under the exponential model.
    pub phi_threshold: f64,
    /// Consecutive hard failures (watchdog stall, dispatch error, fault
    /// event) that suspend a node regardless of its phi.
    pub failure_threshold: u32,
    /// Phi contributed by each consecutive hard failure, so failures
    /// and silence compose into one suspicion scale.
    pub failure_phi_boost: f64,
    /// Consecutive successful probes a probation node must serve before
    /// rejoining the routing table as healthy.
    pub probation_probes: u32,
    /// EWMA smoothing factor for latency mean/variance, in `(0, 1]`.
    pub ewma_alpha: f64,
    /// Samples required before phi is trusted; an unarmed node is
    /// treated as healthy (cold fleets must not self-drain).
    pub min_samples: u32,
}

impl Default for HealthPolicy {
    fn default() -> HealthPolicy {
        HealthPolicy {
            phi_threshold: 8.0,
            failure_threshold: 3,
            failure_phi_boost: 4.0,
            probation_probes: 2,
            ewma_alpha: 0.25,
            min_samples: 3,
        }
    }
}

/// Routing state of one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// In the routing table; receives primary reads.
    Healthy,
    /// Drained: suspicion crossed the threshold. Re-enters via
    /// probation on the next observed success.
    Suspected,
    /// Serving probe traffic only; promotes to healthy after the
    /// configured streak of successes, demotes to suspected on failure.
    Probation,
    /// Administratively or fatally down; only [`FailureDetector::revive`]
    /// brings it back (into probation, not straight to healthy).
    Dead,
}

impl NodeState {
    /// Stable label for telemetry.
    pub fn label(self) -> &'static str {
        match self {
            NodeState::Healthy => "healthy",
            NodeState::Suspected => "suspected",
            NodeState::Probation => "probation",
            NodeState::Dead => "dead",
        }
    }
}

/// Per-node statistics backing the suspicion computation.
#[derive(Debug, Clone)]
struct NodeHealth {
    state: NodeState,
    /// EWMA of observed request latency, microseconds.
    ewma_latency_us: f64,
    /// EWMA of squared deviation from the latency mean (online
    /// variance estimate).
    ewma_var_us2: f64,
    /// Server-clock timestamp of the last success, microseconds.
    last_success_us: u64,
    /// Latency samples absorbed so far.
    samples: u32,
    consecutive_failures: u32,
    probe_streak: u32,
}

impl NodeHealth {
    fn new() -> NodeHealth {
        NodeHealth {
            state: NodeState::Healthy,
            ewma_latency_us: 0.0,
            ewma_var_us2: 0.0,
            last_success_us: 0,
            samples: 0,
            consecutive_failures: 0,
            probe_streak: 0,
        }
    }
}

/// Phi-accrual failure detector and routing table for a fixed-size fleet.
#[derive(Debug)]
pub struct FailureDetector {
    policy: HealthPolicy,
    nodes: Vec<NodeHealth>,
    registry: Registry,
    routable_gauge: Gauge,
    suspected_gauge: Gauge,
}

impl FailureDetector {
    /// Builds a detector for `nodes` nodes, all initially healthy.
    pub fn new(nodes: usize, policy: HealthPolicy, registry: &Registry) -> FailureDetector {
        let detector = FailureDetector {
            policy,
            nodes: (0..nodes).map(|_| NodeHealth::new()).collect(),
            registry: registry.clone(),
            routable_gauge: registry.gauge(
                "fabp_fleet_nodes_routable",
                "Nodes currently accepting primary reads",
            ),
            suspected_gauge: registry.gauge(
                "fabp_fleet_nodes_suspected",
                "Nodes drained from routing (suspected or dead)",
            ),
        };
        detector.routable_gauge.set(nodes as i64);
        detector.suspected_gauge.set(0);
        detector
    }

    /// A detector with the default policy.
    pub fn with_defaults(nodes: usize, registry: &Registry) -> FailureDetector {
        FailureDetector::new(nodes, HealthPolicy::default(), registry)
    }

    /// Number of nodes tracked.
    pub fn nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The policy in force.
    pub fn policy(&self) -> HealthPolicy {
        self.policy
    }

    /// Current state of `node` (healthy for out-of-range indices, which
    /// the fleet never produces).
    pub fn state(&self, node: usize) -> NodeState {
        self.nodes.get(node).map_or(NodeState::Healthy, |n| n.state)
    }

    /// Whether `node` accepts primary reads.
    pub fn is_routable(&self, node: usize) -> bool {
        self.state(node) == NodeState::Healthy
    }

    /// Whether `node` may receive hedge/probe traffic: healthy nodes
    /// always, probation nodes as their controlled re-entry path.
    pub fn accepts_probes(&self, node: usize) -> bool {
        matches!(self.state(node), NodeState::Healthy | NodeState::Probation)
    }

    /// Nodes currently accepting primary reads, ascending.
    pub fn routing_table(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&n| self.is_routable(n))
            .collect()
    }

    /// Count of nodes accepting primary reads.
    pub fn routable_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.state == NodeState::Healthy)
            .count()
    }

    /// Count of nodes able to serve reads at all: routable primaries
    /// plus probation nodes earning their rejoin through probes. This is
    /// the fleet's surviving *capacity* — the number brownout admission
    /// control should scale by, since probation nodes still do work.
    pub fn serving_count(&self) -> usize {
        (0..self.nodes.len())
            .filter(|&n| self.accepts_probes(n))
            .count()
    }

    /// Fraction of the fleet accepting primary reads, in `[0, 1]`.
    pub fn surviving_fraction(&self) -> f64 {
        if self.nodes.is_empty() {
            return 1.0;
        }
        self.routable_count() as f64 / self.nodes.len() as f64
    }

    /// EWMA latency estimate for `node`, microseconds (0 before the
    /// first sample).
    pub fn ewma_latency_us(&self, node: usize) -> f64 {
        self.nodes.get(node).map_or(0.0, |n| n.ewma_latency_us)
    }

    /// p95-style latency bound for `node`: `mean + 2σ` from the EWMA
    /// statistics. This is the hedge-delay budget — a primary read
    /// predicted (or observed) to exceed it earns a hedged duplicate.
    pub fn p95_latency_us(&self, node: usize) -> f64 {
        self.nodes.get(node).map_or(0.0, |n| {
            n.ewma_latency_us + 2.0 * n.ewma_var_us2.max(0.0).sqrt()
        })
    }

    /// The phi-accrual suspicion level for `node` at `now_us`.
    ///
    /// `0` while unarmed (fewer than [`HealthPolicy::min_samples`]
    /// samples); otherwise `0.4343 · silence / mean_latency` plus the
    /// per-failure boost for each consecutive hard failure.
    pub fn phi(&self, node: usize, now_us: u64) -> f64 {
        let Some(n) = self.nodes.get(node) else {
            return 0.0;
        };
        let failure_phi = f64::from(n.consecutive_failures) * self.policy.failure_phi_boost;
        if n.samples < self.policy.min_samples {
            return failure_phi;
        }
        let mean = n.ewma_latency_us.max(1.0);
        let silence = now_us.saturating_sub(n.last_success_us) as f64;
        LOG10_E * silence / mean + failure_phi
    }

    /// Feeds one successful request served by `node` with the observed
    /// `latency_us`, completing at `now_us`. Drives probation promotion
    /// and suspected→probation re-entry.
    pub fn record_success(&mut self, node: usize, latency_us: f64, now_us: u64) {
        let alpha = self.policy.ewma_alpha;
        let probes_needed = self.policy.probation_probes;
        let Some(n) = self.nodes.get_mut(node) else {
            return;
        };
        if n.samples == 0 {
            n.ewma_latency_us = latency_us;
            n.ewma_var_us2 = 0.0;
        } else {
            let dev = latency_us - n.ewma_latency_us;
            n.ewma_latency_us += alpha * dev;
            n.ewma_var_us2 = alpha * dev * dev + (1.0 - alpha) * n.ewma_var_us2;
        }
        n.samples = n.samples.saturating_add(1);
        n.last_success_us = now_us;
        n.consecutive_failures = 0;
        match n.state {
            NodeState::Healthy | NodeState::Dead => {}
            NodeState::Suspected => {
                n.probe_streak = 1;
                self.transition(node, NodeState::Probation);
            }
            NodeState::Probation => {
                n.probe_streak += 1;
                if n.probe_streak >= probes_needed {
                    self.transition(node, NodeState::Healthy);
                }
            }
        }
    }

    /// Feeds one hard failure on `node` (watchdog stall, dispatch error,
    /// injected fault) at `now_us`. Suspends the node once the failure
    /// streak or the combined phi crosses the policy thresholds.
    pub fn record_failure(&mut self, node: usize, now_us: u64) {
        let threshold = self.policy.failure_threshold;
        let phi_threshold = self.policy.phi_threshold;
        let Some(n) = self.nodes.get_mut(node) else {
            return;
        };
        n.consecutive_failures = n.consecutive_failures.saturating_add(1);
        n.probe_streak = 0;
        let strikes = n.consecutive_failures;
        match n.state {
            NodeState::Healthy => {
                if strikes >= threshold || self.phi(node, now_us) > phi_threshold {
                    self.transition(node, NodeState::Suspected);
                }
            }
            NodeState::Probation => self.transition(node, NodeState::Suspected),
            NodeState::Suspected | NodeState::Dead => {}
        }
    }

    /// Marks `node` dead outright (a kill event, not a suspicion).
    pub fn record_kill(&mut self, node: usize) {
        if self.nodes.get(node).is_some() {
            self.transition(node, NodeState::Dead);
        }
    }

    /// Re-evaluates every armed node's phi at `now_us`, draining any
    /// whose suspicion crossed the threshold. Returns the nodes drained
    /// by this sweep.
    pub fn sweep(&mut self, now_us: u64) -> Vec<usize> {
        let mut drained = Vec::new();
        for node in 0..self.nodes.len() {
            if self.nodes[node].state == NodeState::Healthy
                && self.phi(node, now_us) > self.policy.phi_threshold
            {
                self.transition(node, NodeState::Suspected);
                drained.push(node);
            }
        }
        drained
    }

    /// Administratively revives a dead node into probation: it serves
    /// probe traffic until the probation streak promotes it.
    pub fn revive(&mut self, node: usize) {
        let Some(n) = self.nodes.get_mut(node) else {
            return;
        };
        if n.state == NodeState::Dead || n.state == NodeState::Suspected {
            n.consecutive_failures = 0;
            n.probe_streak = 0;
            self.transition(node, NodeState::Probation);
        }
    }

    fn transition(&mut self, node: usize, to: NodeState) {
        let from = self.nodes[node].state;
        if from == to {
            return;
        }
        self.nodes[node].state = to;
        if to == NodeState::Healthy {
            self.nodes[node].probe_streak = 0;
        }
        self.registry
            .counter_with(
                "fabp_fleet_node_state_changes_total",
                "Failure-detector state transitions",
                labels(&[("to", to.label())]),
            )
            .inc();
        self.routable_gauge.set(self.routable_count() as i64);
        self.suspected_gauge.set(
            self.nodes
                .iter()
                .filter(|n| matches!(n.state, NodeState::Suspected | NodeState::Dead))
                .count() as i64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detector(nodes: usize) -> FailureDetector {
        FailureDetector::with_defaults(nodes, &Registry::disabled())
    }

    #[test]
    fn cold_fleet_is_fully_routable() {
        let d = detector(4);
        assert_eq!(d.routing_table(), vec![0, 1, 2, 3]);
        assert_eq!(d.phi(0, 1_000_000), 0.0, "unarmed nodes never self-drain");
        assert!((d.surviving_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ewma_and_p95_track_latency() {
        let mut d = detector(1);
        d.record_success(0, 100.0, 1_000);
        assert!((d.ewma_latency_us(0) - 100.0).abs() < 1e-9);
        // Constant latency → zero variance → p95 == mean.
        d.record_success(0, 100.0, 2_000);
        d.record_success(0, 100.0, 3_000);
        assert!((d.p95_latency_us(0) - 100.0).abs() < 1e-9);
        // A slow burst widens the bound above the mean.
        d.record_success(0, 400.0, 4_000);
        assert!(d.p95_latency_us(0) > d.ewma_latency_us(0));
    }

    #[test]
    fn silence_accrues_phi_and_sweep_drains() {
        let mut d = detector(2);
        for t in 1..=3u64 {
            d.record_success(0, 100.0, t * 1_000);
            d.record_success(1, 100.0, t * 1_000);
        }
        // Shortly after the last success: low suspicion.
        assert!(d.phi(0, 3_100) < 1.0);
        // Long silence: phi grows linearly past the threshold.
        assert!(d.phi(0, 3_000 + 10_000_000) > d.policy().phi_threshold);
        let drained = d.sweep(3_000 + 10_000_000);
        assert_eq!(drained, vec![0, 1]);
        assert_eq!(d.state(0), NodeState::Suspected);
        assert!(d.routing_table().is_empty());
    }

    #[test]
    fn failures_suspend_after_the_threshold() {
        let mut d = detector(3);
        d.record_failure(1, 10);
        d.record_failure(1, 20);
        assert_eq!(d.state(1), NodeState::Healthy, "two strikes tolerated");
        d.record_failure(1, 30);
        assert_eq!(d.state(1), NodeState::Suspected);
        assert_eq!(d.routing_table(), vec![0, 2]);
        assert!((d.surviving_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn probation_rejoins_after_probe_streak() {
        let mut d = detector(2);
        for _ in 0..3 {
            d.record_failure(0, 100);
        }
        assert_eq!(d.state(0), NodeState::Suspected);
        // First success re-enters via probation, not straight to healthy.
        d.record_success(0, 120.0, 200);
        assert_eq!(d.state(0), NodeState::Probation);
        assert!(!d.is_routable(0));
        assert!(d.accepts_probes(0));
        // The second consecutive success completes the default streak.
        d.record_success(0, 110.0, 300);
        assert_eq!(d.state(0), NodeState::Healthy);
        assert!(d.is_routable(0));
    }

    #[test]
    fn probation_failure_demotes_back_to_suspected() {
        let mut d = detector(1);
        for _ in 0..3 {
            d.record_failure(0, 100);
        }
        d.record_success(0, 100.0, 200);
        assert_eq!(d.state(0), NodeState::Probation);
        d.record_failure(0, 300);
        assert_eq!(d.state(0), NodeState::Suspected);
    }

    #[test]
    fn kill_is_dead_until_revived() {
        let mut d = detector(2);
        d.record_kill(1);
        assert_eq!(d.state(1), NodeState::Dead);
        // Successes do not resurrect a dead node.
        d.record_success(1, 100.0, 1_000);
        assert_eq!(d.state(1), NodeState::Dead);
        d.revive(1);
        assert_eq!(d.state(1), NodeState::Probation);
        d.record_success(1, 100.0, 2_000);
        d.record_success(1, 100.0, 3_000);
        assert_eq!(d.state(1), NodeState::Healthy);
    }

    #[test]
    fn transitions_are_counted_and_gauges_exported() {
        let registry = Registry::new();
        let mut d = FailureDetector::with_defaults(3, &registry);
        d.record_kill(2);
        for _ in 0..3 {
            d.record_failure(0, 10);
        }
        let text = registry.snapshot().to_prometheus();
        assert!(text.contains("fabp_fleet_nodes_routable 1"), "{text}");
        assert!(text.contains("fabp_fleet_nodes_suspected 2"), "{text}");
        assert!(
            text.contains("fabp_fleet_node_state_changes_total{to=\"dead\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("fabp_fleet_node_state_changes_total{to=\"suspected\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn detector_is_deterministic_for_identical_event_streams() {
        // Identical event sequences must produce identical routing
        // decisions — hedging determinism depends on it.
        let run = || {
            let mut d = detector(4);
            for t in 1..=5u64 {
                d.record_success(0, 80.0 + t as f64, t * 1_000);
                d.record_success(1, 200.0, t * 1_000);
            }
            d.record_failure(2, 5_100);
            d.record_failure(2, 5_200);
            d.record_failure(2, 5_300);
            d.sweep(20_000_000);
            (
                d.routing_table(),
                d.p95_latency_us(0).to_bits(),
                d.p95_latency_us(1).to_bits(),
                d.phi(3, 20_000_000).to_bits(),
            )
        };
        assert_eq!(run(), run());
    }
}
