//! # fabp-baselines — the comparison algorithms of the paper's evaluation
//!
//! * [`sw`] — Smith–Waterman local alignment (linear/affine gaps, protein
//!   BLOSUM62 and nucleotide scoring, banded variant): the DP ground truth
//!   for the accuracy experiment and the gapped stage of TBLASTN.
//! * [`tblastn`] — the TBLASTN-like pipeline (3-frame translation, two-hit
//!   seeding over `fabp-core`'s BLAST-style [`WordIndex`], X-drop
//!   ungapped extension, banded gapped extension), serial and
//!   multi-threaded: the paper's CPU baseline.
//! * [`gpu`] — the brute-force data-parallel kernel of the paper's CUDA
//!   implementation, with work counters for the GPU performance model.

pub mod gpu;
pub mod needleman;
pub mod sw;
pub mod tblastn;

pub use fabp_core::kmer::WordIndex;
pub use gpu::{brute_force_search, FusedQuery, GpuSearchResult};
pub use needleman::{needleman_wunsch, GlobalAlignment};
pub use sw::{sw_nucleotide, sw_protein, GapPenalties, LocalAlignment, NucScoring};
pub use tblastn::{tblastn_search, tblastn_search_parallel, Hsp, SearchResult, TblastnConfig};
