//! Adaptive micro-batching: pick a batch size that fills the engines
//! without blowing the latency SLO.
//!
//! Batching amortises dispatch overhead (per-batch scheduling, telemetry,
//! thread wake-ups) but the *last* query in a batch waits for the whole
//! batch, so batch size trades throughput against tail latency. The
//! batcher closes that loop empirically: it keeps an EWMA of observed
//! per-query service time and sizes the next batch so the predicted
//! batch duration stays inside the configured SLO —
//!
//! ```text
//! target = clamp(min(queue_depth, slo_us / ewma_per_query_us), 1, max_batch)
//! ```
//!
//! Under light load (`queue_depth` small) batches stay small and latency
//! tracks the single-query cost; under heavy load batches grow until the
//! SLO bound or `max_batch` caps them. A cold batcher (no observations
//! yet) starts from a configurable prior instead of guessing zero. The
//! target is never rounded to a lane multiple: the software scan joins
//! a whole batch into one fused pass, whatever its size.

use fabp_telemetry::{Gauge, Registry};

/// Static bounds and SLO for the adaptive batcher.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchPolicy {
    /// Hard cap on queries per dispatch (engine- or memory-bound).
    pub max_batch: usize,
    /// Target ceiling for one batch's service time, microseconds. The
    /// batcher sizes batches so `predicted_batch_us <= slo_us`.
    pub slo_us: u64,
    /// Prior per-query cost used before any batch has been observed,
    /// microseconds.
    pub prior_query_us: f64,
    /// EWMA smoothing factor in `(0, 1]`; higher adapts faster.
    pub alpha: f64,
}

impl Default for BatchPolicy {
    fn default() -> BatchPolicy {
        BatchPolicy {
            max_batch: 64,
            slo_us: 50_000,
            prior_query_us: 1_000.0,
            alpha: 0.3,
        }
    }
}

/// EWMA-driven batch sizing (see the module docs for the control law).
#[derive(Debug)]
pub struct AdaptiveBatcher {
    policy: BatchPolicy,
    ewma_query_us: f64,
    observed_batches: u64,
    ewma_gauge: Gauge,
    target_gauge: Gauge,
}

impl AdaptiveBatcher {
    /// Builds a batcher with `policy`, publishing its EWMA and last
    /// target as gauges.
    pub fn new(policy: BatchPolicy, registry: &Registry) -> AdaptiveBatcher {
        AdaptiveBatcher {
            ewma_query_us: policy.prior_query_us.max(f64::MIN_POSITIVE),
            policy,
            observed_batches: 0,
            ewma_gauge: registry.gauge(
                "fabp_serve_batcher_ewma_query_us",
                "EWMA of observed per-query service time, microseconds",
            ),
            target_gauge: registry.gauge(
                "fabp_serve_batcher_target_batch",
                "Batch size chosen by the adaptive batcher at the last dispatch",
            ),
        }
    }

    /// The policy this batcher runs under.
    pub fn policy(&self) -> BatchPolicy {
        self.policy
    }

    /// Current per-query cost estimate, microseconds.
    pub fn ewma_query_us(&self) -> f64 {
        self.ewma_query_us
    }

    /// Batches observed so far.
    pub fn observed_batches(&self) -> u64 {
        self.observed_batches
    }

    /// Chooses the next batch size for a queue of `queue_depth` runnable
    /// requests. Zero when the queue is empty; otherwise at least 1 (a
    /// single query is dispatched even if it alone is predicted to miss
    /// the SLO — shedding is the queue's job, not the batcher's). The
    /// target is not rounded: the software scan joins a whole batch into
    /// one pass, whatever its size.
    pub fn target_batch(&mut self, queue_depth: usize) -> usize {
        if queue_depth == 0 {
            self.target_gauge.set(0);
            return 0;
        }
        let slo_limited = (self.policy.slo_us as f64 / self.ewma_query_us).floor() as usize;
        let capped = slo_limited.min(self.policy.max_batch);
        let target = capped.min(queue_depth).max(1);
        self.target_gauge.set(target as i64);
        target
    }

    /// Feeds back one completed dispatch: `batch_size` queries took
    /// `elapsed_us` in total. Ignores empty batches.
    pub fn observe(&mut self, batch_size: usize, elapsed_us: f64) {
        if batch_size == 0 {
            return;
        }
        let per_query = (elapsed_us / batch_size as f64).max(f64::MIN_POSITIVE);
        self.ewma_query_us = if self.observed_batches == 0 {
            per_query // first observation replaces the prior outright
        } else {
            self.policy.alpha * per_query + (1.0 - self.policy.alpha) * self.ewma_query_us
        };
        self.observed_batches += 1;
        self.ewma_gauge.set(self.ewma_query_us.round() as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batcher(policy: BatchPolicy) -> AdaptiveBatcher {
        AdaptiveBatcher::new(policy, &Registry::disabled())
    }

    #[test]
    fn cold_batcher_uses_the_prior() {
        let mut b = batcher(BatchPolicy {
            max_batch: 64,
            slo_us: 10_000,
            prior_query_us: 1_000.0,
            alpha: 0.3,
        });
        // slo/prior = 10: depth-limited below, SLO-limited above.
        assert_eq!(b.target_batch(4), 4);
        assert_eq!(b.target_batch(100), 10);
    }

    #[test]
    fn empty_queue_targets_zero_but_busy_queue_at_least_one() {
        let mut b = batcher(BatchPolicy {
            max_batch: 64,
            slo_us: 100, // SLO below even one query's cost
            prior_query_us: 1_000.0,
            alpha: 0.3,
        });
        assert_eq!(b.target_batch(0), 0);
        assert_eq!(b.target_batch(5), 1, "always makes forward progress");
    }

    #[test]
    fn slow_queries_shrink_the_batch_fast_queries_grow_it() {
        let mut b = batcher(BatchPolicy {
            max_batch: 1_000,
            slo_us: 10_000,
            prior_query_us: 100.0,
            alpha: 1.0, // adapt instantly for the test
        });
        assert_eq!(b.target_batch(1_000), 100); // 10_000 / 100
        b.observe(10, 20_000.0); // 2_000 us/query observed
        assert_eq!(b.target_batch(1_000), 5); // 10_000 / 2_000
        b.observe(5, 50.0); // 10 us/query observed
        assert_eq!(b.target_batch(1_000), 1_000); // SLO allows 1000
        assert_eq!(b.target_batch(7), 7); // depth-limited
    }

    #[test]
    fn first_observation_replaces_the_prior() {
        let mut b = batcher(BatchPolicy {
            max_batch: 64,
            slo_us: 1_000_000,
            prior_query_us: 1.0,
            alpha: 0.1,
        });
        b.observe(4, 4_000.0); // 1_000 us/query
        assert!((b.ewma_query_us() - 1_000.0).abs() < 1e-9);
        b.observe(4, 8_000.0); // 2_000 us/query, alpha 0.1
        assert!((b.ewma_query_us() - 1_100.0).abs() < 1e-9);
        assert_eq!(b.observed_batches(), 2);
    }

    #[test]
    fn max_batch_caps_the_target() {
        let mut b = batcher(BatchPolicy {
            max_batch: 8,
            slo_us: 1_000_000,
            prior_query_us: 1.0,
            alpha: 0.3,
        });
        assert_eq!(b.target_batch(10_000), 8);
    }

    #[test]
    fn targets_are_never_rounded_to_lanes() {
        let mut b = batcher(BatchPolicy {
            max_batch: 64,
            slo_us: 10_000,
            prior_query_us: 1_000.0, // SLO-limited at 10
            alpha: 0.3,
        });
        // Queue deeper than the cap: the cap itself, unrounded.
        assert_eq!(b.target_batch(50), 10);
        // Queue shallower than the cap: take it all.
        assert_eq!(b.target_batch(7), 7);
        // A cap of a few queries dispatches all of them.
        let mut tiny = batcher(BatchPolicy {
            max_batch: 64,
            slo_us: 3_000, // SLO-limited at 3
            prior_query_us: 1_000.0,
            alpha: 0.3,
        });
        assert_eq!(tiny.target_batch(50), 3);
    }

    #[test]
    fn gauges_are_exported() {
        let registry = Registry::new();
        let mut b = AdaptiveBatcher::new(BatchPolicy::default(), &registry);
        b.observe(2, 2_000.0);
        let _ = b.target_batch(3);
        let text = registry.snapshot().to_prometheus();
        assert!(
            text.contains("fabp_serve_batcher_ewma_query_us 1000"),
            "{text}"
        );
        assert!(text.contains("fabp_serve_batcher_target_batch 3"), "{text}");
    }
}
