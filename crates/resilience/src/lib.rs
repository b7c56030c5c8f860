//! Fault injection, detection and recovery for the FabP stack.
//!
//! The paper's deployment target — a Kintex-7 streaming NCBI-scale
//! databases for hours — sits squarely in the regime where single-event
//! upsets (SEUs) in configuration memory, transient AXI bit-flips, DRAM
//! corruption of packed bitstreams, bus stalls and whole-node failures
//! silently corrupt alignment scores. This crate closes the
//! **inject → detect → recover** loop at the system level:
//!
//! * [`inject`] — a deterministic, seeded [`inject::FaultSchedule`]
//!   (chaos harness) that flips AXI beats, corrupts packed-query words,
//!   upsets comparator LUT configs mid-run, stalls the reference stream
//!   past a deadline, and kills fleet nodes.
//! * [`detect`] — CRC32 framing on AXI bursts and packed streams
//!   ([`crc`]), periodic configuration scrubbing that compares the live
//!   comparator truth tables against the golden netlist (detection
//!   latency modelled in cycles), and a watchdog that flags engines
//!   whose consumed-element counter stops advancing.
//! * [`recover`] — the typed [`error::FabpError`] taxonomy,
//!   retry-with-exponential-backoff for transient stream errors,
//!   scrub-and-replay for configuration upsets, and the
//!   [`recover::ResilienceLevel`] policy knob.
//! * [`health`] — a phi-accrual-style [`health::FailureDetector`] that
//!   turns per-node EWMA latency and fault/watchdog events into a live
//!   routing table (suspected nodes drained, recovered nodes rejoining
//!   through probation probes) plus the p95-derived hedge-delay budget
//!   used by `fabp_core::fleet`'s hedged scatter/gather.
//! * [`engine`] — [`engine::ResilientRunner`], which drives a
//!   `fabp_fpga::engine::EngineSession` beat by beat under a schedule
//!   and produces a run whose hits are bit-identical to the fault-free
//!   run whenever every injected fault is detectable.
//!
//! Every fault, retry, scrub and replay event is exported through
//! `fabp-telemetry` counters and histograms (see [`telemetry`]).
//!
//! Node-level recovery (failover of a dead node's shards to routable
//! survivors, with live degraded timing) lives in `fabp_core::fleet`,
//! which layers on top of this crate.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod crc;
pub mod detect;
pub mod engine;
pub mod error;
pub mod health;
pub mod inject;
pub mod recover;
pub mod telemetry;

pub use crc::{crc32, Crc32};
pub use detect::{ConfigScrubber, ScrubOutcome, Watchdog, WatchdogVerdict};
pub use engine::{ResilienceReport, ResilientRun, ResilientRunner};
pub use error::{FabpError, FabpResult, StreamKind};
pub use health::{FailureDetector, HealthPolicy, NodeState};
pub use inject::{ConfigLut, FaultKind, FaultSchedule};
pub use recover::{retry_with_backoff, ResilienceLevel, RetryPolicy};
