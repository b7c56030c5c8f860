//! # fabp-serve — the production query-serving layer
//!
//! The paper's headline claim is throughput over *many* queries against
//! one resident database (§IV-A's 10 000-query evaluation); the natural
//! deployment is a long-running service in front of the scan engines —
//! the accelerator-as-a-service shape of ASAP and of Nguyen & Lavenier's
//! fine-grained protein-search parallelization. This crate turns the
//! one-shot `fabp-core` engines into that service:
//!
//! * [`queue::AdmissionQueue`] — a bounded admission queue with
//!   backpressure ([`fabp_resilience::FabpError::Overloaded`] typed
//!   rejections) and per-tenant round-robin fair scheduling, so one
//!   heavy tenant cannot starve the rest.
//! * [`batcher::AdaptiveBatcher`] — adaptive micro-batching: queued
//!   queries are coalesced into `fabp_core::batch` /
//!   `fabp_core::fleet::FpgaFleet` dispatches whose size adapts to
//!   queue depth and a configurable latency SLO via an EWMA of observed
//!   per-query cost.
//! * [`cache::LruCache`] — content-hash-keyed LRU caches for built
//!   aligners and fleets (encoded queries), with hit/miss/eviction
//!   telemetry.
//! * [`server::FabpServer`] — the serving loop: admission → shed
//!   expired deadlines → micro-batch → dispatch → per-request
//!   responses, wired into `fabp-resilience` recovery (fleet backend)
//!   and `fabp-telemetry` metrics/spans throughout. Each backend — the
//!   scan, the seeded prefilter over an index, or the fleet — keeps its
//!   own state, chosen once at build, and every one reads the one
//!   resident 2-bit reference: the server holds no second copy of it.
//! * **Sharded fleet backend** ([`server::ServeBackend::Fleet`]) —
//!   replicated shards with anti-affinity placement, primary reads
//!   routed through a persistent phi-accrual
//!   [`fabp_resilience::health::FailureDetector`], failover of a dead
//!   node's shards, hedged tail reads deduped by the shared merge,
//!   engine-level fault recovery, graceful drain
//!   ([`server::FabpServer::begin_drain`]) and brownout shedding by
//!   tenant priority when surviving capacity drops below demand.
//!
//! **Transparency invariant:** batching is provably invisible — the
//! hits served for a request are bit-identical to a sequential
//! single-query [`fabp_core::FabpAligner`] run, whatever the
//! interleaving of tenants, batch sizes, or cache state
//! (pinned by the crate's proptest).
//!
//! ```
//! use fabp_bio::seq::{ProteinSeq, RnaSeq};
//! use fabp_serve::server::{FabpServer, ServeConfig};
//!
//! let reference: RnaSeq = "GGAUGUUUGGAUGUUUGG".parse()?;
//! let registry = fabp_telemetry::Registry::new();
//! let mut server = FabpServer::new(reference, ServeConfig::default(), &registry)?;
//! let protein: ProteinSeq = "MF".parse()?;
//! let ticket = server.submit("tenant-a", &protein)?;
//! let responses = server.run_to_completion();
//! let served = responses.iter().find(|r| r.id == ticket).expect("served");
//! assert!(served.result.is_ok());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod batcher;
pub mod cache;
pub mod index_store;
pub mod queue;
pub mod server;

pub use batcher::{AdaptiveBatcher, BatchPolicy};
pub use cache::{content_hash, LruCache};
pub use index_store::{IndexLoad, IndexStore};
pub use queue::{AdmissionQueue, Request};
pub use server::{
    AnomalyDump, FabpServer, Response, ServeBackend, ServeConfig, ServerStats, MAX_ANOMALY_DUMPS,
};

// One import for callers that match on rejection reasons.
pub use fabp_resilience::{FabpError, FabpResult};
