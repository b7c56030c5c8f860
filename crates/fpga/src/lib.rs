#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

//! # fabp-fpga — gate-level and cycle-level model of the FabP accelerator
//!
//! The paper's accelerator is Verilog on a Kintex-7; this crate is its
//! software twin, faithful at three levels:
//!
//! * **Gate level** — [`primitives::Lut6`]/[`primitives::FlipFlop`]
//!   models of the directly-instantiated FPGA primitives, composed into
//!   [`netlist::Netlist`]s for the two-LUT custom [`comparator`] (Fig. 5)
//!   and the hand-crafted Pop36 [`popcount`] (Fig. 4). Truth tables are
//!   generated from the semantic spec and verified against the golden
//!   model and the paper's printed tables.
//! * **Cycle level** — the [`axi`] DRAM channel model, the
//!   [`resources`] planner that decides query segmentation (Table I),
//!   and the [`engine`] that streams AXI beats through 256 alignment
//!   instances with bit-exact scoring and honest cycle accounting.
//! * **Word level** — [`bitparallel`], the same datapath transposed
//!   onto 64-bit words: the one fused scan kernel. It scores the cycle
//!   engine's fast-forward path and, re-exported by `fabp-core`, every
//!   software search.
//!
//! ```
//! use fabp_fpga::engine::{EngineConfig, FabpEngine};
//! use fabp_encoding::encoder::EncodedQuery;
//! use fabp_bio::seq::{PackedSeq, ProteinSeq, RnaSeq};
//!
//! let protein: ProteinSeq = "MF".parse()?;
//! let query = EncodedQuery::from_protein(&protein);
//! let engine = FabpEngine::new(query, EngineConfig::kintex7(6)).unwrap();
//! let reference: RnaSeq = "GGAUGUUCGG".parse()?;
//! let run = engine.run(&PackedSeq::from_rna(&reference));
//! assert_eq!(run.hits[0].position, 2); // AUGUUC
//! # Ok::<(), fabp_bio::alphabet::ParseSymbolError>(())
//! ```

pub mod axi;
pub mod bitparallel;
pub mod comparator;
pub mod device;
pub mod engine;
pub mod fault;
pub mod instance;
pub mod netlist;
pub mod pipeline;
pub mod popcount;
pub mod power_model;
pub mod primitives;
pub mod resources;
pub mod sta;
pub mod telemetry;
pub mod vcd;
pub mod verilog;

pub use comparator::ComparatorCell;
pub use device::FpgaDevice;
pub use engine::{EngineConfig, EngineRun, EngineStats, FabpEngine, Hit};
pub use netlist::{Netlist, NodeKind, ResourceCount};
pub use pipeline::PipelinedPopCounter;
pub use primitives::{DspThreshold, FlipFlop, Lut6};
pub use resources::{crossover_query_len, plan, ArchParams, Bottleneck, FabpPlan};
pub use verilog::emit_verilog;
