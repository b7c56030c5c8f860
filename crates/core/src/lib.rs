//! # fabp-core — the FabP aligner public API
//!
//! The paper's primary contribution behind one façade: back-translate a
//! protein query, encode it into 6-bit instructions, and scan DNA/RNA
//! references for positions the protein could have been encoded at,
//! scoring by element matches (substitution-only alignment, §III).
//!
//! * [`aligner::FabpAligner`] — builder API with software and
//!   cycle-accurate execution engines (identical hits; the latter adds
//!   cycle/bandwidth statistics from the `fabp-fpga` model).
//! * [`bitparallel`] — the fused bit-parallel engine, the one scan
//!   kernel: any number of queries per pass over one reference
//!   (re-exported from `fabp-fpga`, whose cycle engine runs it too).
//! * [`batch`] — the one scheduler: every software search (aligner,
//!   batch, index, serving) joins its queries into one pass and runs
//!   its reference slices as items of the work-stealing claim loop.
//! * [`hits`] — hit post-processing (region merging, top-k).
//! * [`index`] — the persistent packed reference index and its seeded
//!   prefilter: lossless exact-word seeding from the identity bound.
//! * [`fleet`] — the sharded multi-FPGA backend: even shards,
//!   replication, health-driven routing, hedged reads and fault
//!   recovery.
//! * [`software`] — the scalar oracle engine that tests and benches
//!   check the fused engine against.
//! * [`host`] — end-to-end host pipeline timing per the paper's
//!   measurement definition.
//!
//! ```
//! use fabp_core::aligner::{FabpAligner, Threshold};
//! use fabp_bio::seq::{ProteinSeq, RnaSeq};
//!
//! // Search for regions that could encode Met-Phe.
//! let protein: ProteinSeq = "MF".parse()?;
//! let aligner = FabpAligner::builder()
//!     .protein_query(&protein)
//!     .threshold(Threshold::Fraction(1.0))
//!     .build()?;
//! let reference: RnaSeq = "AAAUGUUCAA".parse()?;
//! let outcome = aligner.search(&reference);
//! assert_eq!(outcome.hits.len(), 1); // AUGUUC at position 2
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod aligner;
pub mod batch;
pub mod fleet;
pub mod hits;
pub mod host;
pub mod index;
mod kmer;
pub mod slice_plan;
pub mod software;
pub mod streaming;

pub use aligner::{BuildError, Engine, FabpAligner, SearchOutcome, Threshold};
pub use bitparallel::BitParallelEngine;
// The fused engine lives in `fabp-fpga`, beside the cycle engine whose
// fast-forward datapath it drives; every core path reaches it here.
pub use fabp_fpga::bitparallel;
pub use fleet::{
    place_replicas, FleetSearchOutcome, FleetTiming, FpgaFleet, ShardDispatch, MAX_FLEET_NODES,
};
pub use hits::{
    best_hit, dedup_sorted_hits, merge_overlapping, merge_overlapping_unsorted, merge_shard_hits,
    top_k, Hit, HitRegion,
};
pub use index::{
    search_index, IndexBuildOptions, IndexSearchStats, PrefilterMode, ReferenceIndex, SeedParams,
};
pub use slice_plan::{Slice, SliceOptions, SlicePlan};
pub use software::SoftwareEngine;
pub use streaming::StreamingAligner;

// The typed error taxonomy lives in `fabp-resilience` (below this crate
// in the dependency graph) and is re-exported here so callers of the
// core API need only one import.
pub use fabp_resilience::{FabpError, FabpResult};
