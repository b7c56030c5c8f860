//! Persistent packed reference index + k-mer seeded prefilter.
//!
//! Every search used to re-encode and re-scan the full reference; that
//! caps the system far below the paper's GB-scale `nt`-style workloads
//! (ROADMAP item 3). This module adds the two-tier filter-then-verify
//! design proven in ASAP (Banerjee et al.) and the Salamat/Rosing FPGA
//! alignment survey:
//!
//! 1. **A versioned on-disk packed-shard format** ([`ReferenceIndex`]):
//!    the reference is 2-bit packed ([`PackedSeq`]) into shards cut by
//!    [`slice_plan::overlap_ranges`](crate::slice_plan::overlap_ranges)
//!    with a fixed trailing overlap, framed with CRC32 checksums from
//!    `fabp-resilience`, and written as raw little-endian words. Loading
//!    is a single pass of reads straight into `u64` buffers — no text
//!    parse, no re-encode — so a 1 GB+ reference cold-loads at I/O
//!    speed and warm paths can hold the shards resident behind an
//!    [`Arc`](std::sync::Arc) keyed by [`ReferenceIndex::fingerprint`].
//! 2. **A k-mer seed prefilter** ([`search_index`] with
//!    [`PrefilterMode::Seeded`]): the production promotion of
//!    [`fabp_baselines::kmer::WordIndex`] — a BLAST-style BLOSUM62
//!    neighbourhood word table per query. Each shard is translated in
//!    the three forward frames with rolling packed keys; every seed hit
//!    `(word position, query position)` names one diagonal, so the
//!    candidate alignment start is `word_base − 3·q`. Candidates are
//!    binned per shard, coalesced into disjoint regions, and **verified
//!    by the exact engine** ([`BitParallelEngine`]) over just those
//!    regions. A hit depends only on the `window` bases it spans, so
//!    every hit the filter admits is bit-identical to the full scan's;
//!    the filter can only *miss* windows whose every seed word mutated
//!    below the neighbourhood threshold `T`. Recall is measured against
//!    planted ground truth (see `tests/proptest_index.rs` and
//!    `bench_serve`); [`PrefilterMode::Off`] keeps the exhaustive scan
//!    reachable end-to-end.
//!
//! # On-disk layout (version 1, all little-endian)
//!
//! ```text
//! magic   "FABPIDX\0"                      8 bytes
//! version u32                              4 bytes
//! hlen    u32   header-region byte length  4 bytes
//! header region (hlen bytes):
//!   total_bases u64 · overlap u64 · shard_count u64
//!   then per shard:
//!     start u64 · base_len u64 · word_count u64
//!     payload_crc u32 · reserved u32
//! header_crc u32   CRC32 over the header region
//! payload: per shard, word_count × u64 packed words
//! ```
//!
//! A corrupted header fails with
//! [`FabpError::CrcMismatch`]`{stream: IndexHeader}`; a corrupted shard
//! payload with `{stream: IndexShard, frame: shard}` — typed errors,
//! never UB or silent wrong hits.

use crate::aligner::{FabpAligner, Threshold};
use crate::batch::claim_all;
use crate::bitparallel::BitParallelEngine;
use crate::hits::{merge_shard_hits, Hit};
use crate::slice_plan::{overlap_ranges, SliceOptions, SlicePlan};
use fabp_baselines::kmer::{WordIndex, SYMBOLS};
use fabp_bio::alphabet::AminoAcid;
use fabp_bio::codon::Codon;
use fabp_bio::seq::{PackedSeq, ProteinSeq, RnaSeq};
use fabp_encoding::encoder::EncodedQuery;
use fabp_resilience::crc::crc32_words;
use fabp_resilience::{FabpError, FabpResult, StreamKind};
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;
use std::str::FromStr;

/// File magic at offset 0.
pub const MAGIC: [u8; 8] = *b"FABPIDX\0";
/// Current format version.
pub const VERSION: u32 = 1;
/// Header bytes per shard: start, base count and word count (u64 each),
/// payload CRC and a reserved word (u32 each).
const SHARD_GEOMETRY_BYTES: usize = 32;

/// BLAST protein defaults: 3-residue words, neighbourhood threshold 11.
pub const DEFAULT_WORD_SIZE: usize = 3;
/// See [`DEFAULT_WORD_SIZE`].
pub const DEFAULT_SEED_THRESHOLD: i32 = 11;

/// Whether the seeded prefilter routes the scan, or the exhaustive
/// full-reference scan runs (the ground-truth path).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PrefilterMode {
    /// Exhaustive scan of every position — no filtering, full recall.
    Off,
    /// k-mer seed → diagonal candidates → exact verification.
    #[default]
    Seeded,
}

impl PrefilterMode {
    /// Stable label for telemetry/CLI output.
    pub fn label(self) -> &'static str {
        match self {
            PrefilterMode::Off => "off",
            PrefilterMode::Seeded => "seeded",
        }
    }
}

impl FromStr for PrefilterMode {
    type Err = FabpError;

    fn from_str(s: &str) -> FabpResult<PrefilterMode> {
        match s {
            "off" => Ok(PrefilterMode::Off),
            "seeded" => Ok(PrefilterMode::Seeded),
            other => Err(FabpError::InvalidSpec(format!(
                "unknown prefilter mode '{other}' (expected off|seeded)"
            ))),
        }
    }
}

/// Seeding parameters for the prefilter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedParams {
    /// Word size in residues (BLAST protein default 3).
    pub word_size: usize,
    /// BLOSUM62 neighbourhood threshold `T` (BLAST default 11).
    pub threshold: i32,
}

impl Default for SeedParams {
    fn default() -> SeedParams {
        SeedParams {
            word_size: DEFAULT_WORD_SIZE,
            threshold: DEFAULT_SEED_THRESHOLD,
        }
    }
}

/// Sizing policy for [`ReferenceIndex::build_from_rna`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexBuildOptions {
    /// Trailing overlap bases per shard. Must be at least
    /// `3 × max_query_aa − 1` for the seeded path to admit every query
    /// window; the serve layer derives it from its `max_query_aa`.
    pub overlap: usize,
    /// Target shard payload size in bases; the builder cuts
    /// `ceil(total / target)` shards.
    pub target_shard_bases: usize,
}

impl Default for IndexBuildOptions {
    fn default() -> IndexBuildOptions {
        IndexBuildOptions {
            // 3 × 128 aa: comfortably above every workload's max query.
            overlap: 384,
            // 4 Mbases/shard: large enough to amortise per-shard costs,
            // small enough to parallelise seeding across cores.
            target_shard_bases: 1 << 22,
        }
    }
}

/// One packed shard of the reference: `base_len` bases starting at
/// global base `start`, including the trailing overlap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexShard {
    /// Global base offset of the shard's first base.
    pub start: usize,
    /// The 2-bit packed shard bases (body + trailing overlap).
    pub packed: PackedSeq,
}

/// A persistent, CRC-framed, packed-shard reference index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReferenceIndex {
    total_bases: usize,
    overlap: usize,
    shards: Vec<IndexShard>,
    fingerprint: u64,
}

impl ReferenceIndex {
    /// Packs `reference` into overlap-sharded form.
    ///
    /// # Errors
    ///
    /// Returns [`FabpError::InvalidShardPlan`] for an empty reference.
    pub fn build_from_rna(
        reference: &RnaSeq,
        options: IndexBuildOptions,
    ) -> FabpResult<ReferenceIndex> {
        let total = reference.len();
        if total == 0 {
            return Err(FabpError::InvalidShardPlan(
                "cannot index an empty reference".into(),
            ));
        }
        let parts = total.div_ceil(options.target_shard_bases.max(1)).max(1);
        let ranges = overlap_ranges(total, parts, options.overlap)?;
        let shards: Vec<IndexShard> = ranges
            .into_iter()
            .filter(|(s, e)| e > s)
            .map(|(s, e)| IndexShard {
                start: s,
                packed: reference.as_slice()[s..e].iter().copied().collect(),
            })
            .collect();
        let mut index = ReferenceIndex {
            total_bases: total,
            overlap: options.overlap,
            shards,
            fingerprint: 0,
        };
        index.fingerprint = index.compute_fingerprint();
        Ok(index)
    }

    /// Total reference length in bases.
    pub fn total_bases(&self) -> usize {
        self.total_bases
    }

    /// Trailing overlap bases per shard.
    pub fn overlap(&self) -> usize {
        self.overlap
    }

    /// The packed shards, in reference order.
    pub fn shards(&self) -> &[IndexShard] {
        &self.shards
    }

    /// Content fingerprint derived from the header and per-shard CRCs;
    /// stable across write/load round trips, suitable as a cache key
    /// that avoids re-hashing the full reference.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Alignment positions this shard *owns* for a `window`-base query:
    /// positions in the trailing overlap belong to the next shard.
    fn owned_positions(&self, shard_idx: usize, window: usize) -> usize {
        let shard = &self.shards[shard_idx];
        let len = shard.packed.len();
        let body = match self.shards.get(shard_idx + 1) {
            Some(next) => next.start - shard.start,
            None => len,
        };
        body.min((len + 1).saturating_sub(window))
    }

    /// Decodes the full reference back to an [`RnaSeq`] (each shard's
    /// body, overlap skipped) — the exhaustive-scan path for
    /// [`PrefilterMode::Off`].
    pub fn decode_reference(&self) -> RnaSeq {
        let mut bases = Vec::with_capacity(self.total_bases);
        for (i, shard) in self.shards.iter().enumerate() {
            let body = match self.shards.get(i + 1) {
                Some(next) => next.start - shard.start,
                None => shard.packed.len(),
            };
            bases.extend(shard.packed.iter().take(body));
        }
        RnaSeq::from(bases)
    }

    fn header_bytes(&self) -> Vec<u8> {
        let mut h = Vec::with_capacity(24 + self.shards.len() * SHARD_GEOMETRY_BYTES);
        h.extend_from_slice(&(self.total_bases as u64).to_le_bytes());
        h.extend_from_slice(&(self.overlap as u64).to_le_bytes());
        h.extend_from_slice(&(self.shards.len() as u64).to_le_bytes());
        for shard in &self.shards {
            h.extend_from_slice(&(shard.start as u64).to_le_bytes());
            h.extend_from_slice(&(shard.packed.len() as u64).to_le_bytes());
            h.extend_from_slice(&(shard.packed.words().len() as u64).to_le_bytes());
            h.extend_from_slice(&crc32_words(shard.packed.words()).to_le_bytes());
            h.extend_from_slice(&0u32.to_le_bytes());
        }
        h
    }

    fn compute_fingerprint(&self) -> u64 {
        let header = self.header_bytes();
        let header_crc = fabp_resilience::crc::crc32(&header);
        let mut tail = fabp_resilience::crc::Crc32::new();
        for shard in &self.shards {
            tail.update(&crc32_words(shard.packed.words()).to_le_bytes());
        }
        (u64::from(header_crc) << 32) | u64::from(tail.finalize())
    }

    /// Serializes the index to the version-1 byte layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        let header = self.header_bytes();
        let payload_words: usize = self.shards.iter().map(|s| s.packed.words().len()).sum();
        let mut out = Vec::with_capacity(20 + header.len() + payload_words * 8);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(header.len() as u32).to_le_bytes());
        out.extend_from_slice(&header);
        out.extend_from_slice(&fabp_resilience::crc::crc32(&header).to_le_bytes());
        for shard in &self.shards {
            for word in shard.packed.words() {
                out.extend_from_slice(&word.to_le_bytes());
            }
        }
        out
    }

    /// Writes the index to `path`.
    ///
    /// # Errors
    ///
    /// I/O failures surface as [`FabpError::Internal`].
    pub fn write_to(&self, path: impl AsRef<Path>) -> FabpResult<()> {
        let io_err = |e: std::io::Error| FabpError::Internal(format!("index write: {e}"));
        let mut w = BufWriter::new(File::create(path).map_err(io_err)?);
        let header = self.header_bytes();
        w.write_all(&MAGIC).map_err(io_err)?;
        w.write_all(&VERSION.to_le_bytes()).map_err(io_err)?;
        w.write_all(&(header.len() as u32).to_le_bytes())
            .map_err(io_err)?;
        w.write_all(&header).map_err(io_err)?;
        w.write_all(&fabp_resilience::crc::crc32(&header).to_le_bytes())
            .map_err(io_err)?;
        for shard in &self.shards {
            for word in shard.packed.words() {
                w.write_all(&word.to_le_bytes()).map_err(io_err)?;
            }
        }
        w.flush().map_err(io_err)
    }

    /// Loads an index from `path` (buffered chunk reads straight into
    /// word buffers — no text parse, no re-encode).
    ///
    /// # Errors
    ///
    /// * [`FabpError::Decode`] — wrong magic/version, truncation, or
    ///   inconsistent geometry;
    /// * [`FabpError::CrcMismatch`] — header or shard payload corrupted.
    pub fn load(path: impl AsRef<Path>) -> FabpResult<ReferenceIndex> {
        let io_err = |e: std::io::Error| FabpError::Decode(format!("index read: {e}"));
        let mut r = BufReader::new(File::open(path).map_err(io_err)?);
        let mut bytes = Vec::new();
        r.read_to_end(&mut bytes).map_err(io_err)?;
        ReferenceIndex::from_bytes(&bytes)
    }

    /// Decodes the version-1 byte layout. See [`ReferenceIndex::load`]
    /// for the error contract.
    pub fn from_bytes(bytes: &[u8]) -> FabpResult<ReferenceIndex> {
        let mut cur = Cursor { bytes, at: 0 };
        let magic = cur.take(8)?;
        if magic != MAGIC {
            return Err(FabpError::Decode(format!(
                "bad index magic {magic:02x?} (expected {MAGIC:02x?})"
            )));
        }
        let version = cur.u32()?;
        if version != VERSION {
            return Err(FabpError::Decode(format!(
                "unsupported index version {version} (expected {VERSION})"
            )));
        }
        let header_len = cur.u32()? as usize;
        let header = cur.take(header_len)?.to_vec();
        let stored_header_crc = cur.u32()?;
        let actual_header_crc = fabp_resilience::crc::crc32(&header);
        if stored_header_crc != actual_header_crc {
            return Err(FabpError::CrcMismatch {
                stream: StreamKind::IndexHeader,
                frame: 0,
                expected: stored_header_crc,
                actual: actual_header_crc,
            });
        }

        let mut hc = Cursor {
            bytes: &header,
            at: 0,
        };
        let total_bases = hc.u64()? as usize;
        let overlap = hc.u64()? as usize;
        let shard_count = hc.u64()? as usize;
        // Each shard's geometry takes SHARD_GEOMETRY_BYTES of the header:
        // a count the header cannot hold is rejected before anything is
        // allocated for it.
        let geometry_room = (header.len() - hc.at) / SHARD_GEOMETRY_BYTES;
        if shard_count == 0 || shard_count > total_bases.max(1) || shard_count > geometry_room {
            return Err(FabpError::Decode(format!(
                "implausible shard count {shard_count} for {total_bases} bases \
                 and a {}-byte header",
                header.len()
            )));
        }
        let mut geometry = Vec::with_capacity(shard_count);
        for i in 0..shard_count {
            let start = hc.u64()? as usize;
            let base_len = hc.u64()? as usize;
            let word_count = hc.u64()? as usize;
            let payload_crc = hc.u32()?;
            let _reserved = hc.u32()?;
            if word_count != base_len.div_ceil(PackedSeq::BASES_PER_WORD) {
                return Err(FabpError::Decode(format!(
                    "shard {i}: {word_count} words cannot hold {base_len} bases"
                )));
            }
            if start
                .checked_add(base_len)
                .is_none_or(|end| end > total_bases)
            {
                return Err(FabpError::Decode(format!(
                    "shard {i}: range {start}+{base_len} exceeds {total_bases} bases"
                )));
            }
            geometry.push((start, base_len, word_count, payload_crc));
        }
        // The shards must tile the reference in order, each reaching
        // `overlap` bases into the next, as `build_from_rna` writes them:
        // hit coordinates rely on it, and it bounds `total_bases` by the
        // payload the file actually holds.
        let tiled = geometry.first().is_some_and(|g| g.0 == 0)
            && geometry.windows(2).all(|w| {
                let ((start, len, ..), (next, ..)) = (w[0], w[1]);
                next > start && start + len >= next.saturating_add(overlap).min(total_bases)
            })
            && geometry.last().is_some_and(|g| g.0 + g.1 == total_bases);
        if !tiled {
            return Err(FabpError::Decode(format!(
                "shards do not tile {total_bases} bases in order with overlap {overlap}"
            )));
        }

        let mut cursor = Cursor {
            bytes: cur.rest(),
            at: 0,
        };
        let mut shards = Vec::with_capacity(shard_count);
        for (i, (start, base_len, word_count, payload_crc)) in geometry.into_iter().enumerate() {
            let raw = cursor.take(word_count * 8)?;
            let words: Vec<u64> = raw
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("chunks_exact(8)")))
                .collect();
            let actual = crc32_words(&words);
            if actual != payload_crc {
                return Err(FabpError::CrcMismatch {
                    stream: StreamKind::IndexShard,
                    frame: i as u64,
                    expected: payload_crc,
                    actual,
                });
            }
            let packed = PackedSeq::from_words(words, base_len).ok_or_else(|| {
                FabpError::Decode(format!(
                    "shard {i}: words inconsistent with {base_len} bases"
                ))
            })?;
            shards.push(IndexShard { start, packed });
        }

        let mut index = ReferenceIndex {
            total_bases,
            overlap,
            shards,
            fingerprint: 0,
        };
        index.fingerprint = index.compute_fingerprint();
        Ok(index)
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> FabpResult<&'a [u8]> {
        if self.at + n > self.bytes.len() {
            return Err(FabpError::Decode(format!(
                "index truncated: wanted {n} bytes at offset {}, have {}",
                self.at,
                self.bytes.len()
            )));
        }
        let out = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(out)
    }

    fn u32(&mut self) -> FabpResult<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> FabpResult<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn rest(&self) -> &'a [u8] {
        &self.bytes[self.at..]
    }
}

/// Counters describing one [`search_index`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IndexSearchStats {
    /// Raw seed hits (word match × posting) across all queries/shards.
    pub seed_hits: u64,
    /// Candidate alignment windows admitted for verification (after
    /// diagonal binning, before region coalescing).
    pub candidate_windows: u64,
    /// Bases the exact engine actually scanned (coalesced regions),
    /// summed over queries.
    pub admitted_bases: u64,
    /// Bases a full scan would read: `total_bases × queries`.
    pub full_scan_bases: u64,
}

impl IndexSearchStats {
    /// Fraction of the full scan the verifier actually ran (0 with the
    /// prefilter admitting nothing, 1.0 for [`PrefilterMode::Off`]).
    pub fn scanned_fraction(&self) -> f64 {
        if self.full_scan_bases == 0 {
            0.0
        } else {
            self.admitted_bases as f64 / self.full_scan_bases as f64
        }
    }
}

fn publish_stats(stats: &IndexSearchStats, mode: PrefilterMode) {
    let registry = fabp_telemetry::Registry::global();
    registry
        .counter(
            "fabp_index_seed_hits_total",
            "Raw k-mer seed hits across queries and shards",
        )
        .add(stats.seed_hits);
    registry
        .counter(
            "fabp_index_candidate_windows_total",
            "Candidate windows admitted by the seed prefilter",
        )
        .add(stats.candidate_windows);
    registry
        .counter(
            "fabp_index_admitted_bases_total",
            "Bases scanned by the exact verifier",
        )
        .add(stats.admitted_bases);
    registry
        .counter_with(
            "fabp_index_searches_total",
            "Index search calls by prefilter mode",
            fabp_telemetry::labels(&[("mode", mode.label())]),
        )
        .inc();
    registry
        .gauge(
            "fabp_index_scanned_fraction_permille",
            "Scanned fraction of the last index search, in permille",
        )
        .set((stats.scanned_fraction() * 1000.0) as i64);
}

/// Records a measured recall (vs planted ground truth) on the global
/// registry — called by the bench harness and CLIs after an evaluation
/// run so dashboards track the prefilter's recall alongside its
/// admission counters.
pub fn record_recall(recall: f64) {
    fabp_telemetry::Registry::global()
        .gauge(
            "fabp_index_recall_permille",
            "Measured seeded-prefilter recall vs planted ground truth, in permille",
        )
        .set((recall.clamp(0.0, 1.0) * 1000.0) as i64);
}

/// Searches `proteins` against the indexed reference.
///
/// With [`PrefilterMode::Off`] the reference is decoded once and every
/// position scanned (the exhaustive ground-truth path). With
/// [`PrefilterMode::Seeded`] each shard is translated in three frames,
/// seed hits are diagonally binned into candidate windows, and only the
/// coalesced candidate regions are verified by the exact engine — hits
/// are bit-identical to the full scan on everything admitted.
///
/// Returns per-query hit lists (global positions, merged and deduped by
/// [`merge_shard_hits`]) and the run's [`IndexSearchStats`].
///
/// # Errors
///
/// * [`FabpError::EmptyQuery`] — a query with zero residues;
/// * [`FabpError::InvalidShardPlan`] — a query window wider than the
///   index overlap allows (`3 × aa > overlap + 1` on a multi-shard
///   index), which would lose boundary-straddling hits;
/// * seed-table errors from [`WordIndex::try_build`].
pub fn search_index(
    index: &ReferenceIndex,
    proteins: &[ProteinSeq],
    threshold: Threshold,
    mode: PrefilterMode,
    params: SeedParams,
    workers: usize,
) -> FabpResult<(Vec<Vec<Hit>>, IndexSearchStats)> {
    for protein in proteins {
        if protein.is_empty() {
            return Err(FabpError::EmptyQuery);
        }
    }
    let mut stats = IndexSearchStats {
        full_scan_bases: index.total_bases() as u64 * proteins.len() as u64,
        ..IndexSearchStats::default()
    };
    let hits = match mode {
        PrefilterMode::Off => {
            stats.admitted_bases = stats.full_scan_bases;
            search_off(index, proteins, threshold, workers)?
        }
        PrefilterMode::Seeded => {
            search_seeded(index, proteins, threshold, params, workers, &mut stats)?
        }
    };
    publish_stats(&stats, mode);
    Ok((hits, stats))
}

/// The exhaustive path: decode once, scan everything through the
/// sliced batch scheduler.
fn search_off(
    index: &ReferenceIndex,
    proteins: &[ProteinSeq],
    threshold: Threshold,
    workers: usize,
) -> FabpResult<Vec<Vec<Hit>>> {
    let reference = index.decode_reference();
    let aligners: Vec<FabpAligner> = proteins
        .iter()
        .map(|p| {
            FabpAligner::builder()
                .protein_query(p)
                .threshold(threshold)
                .build()
                .map_err(FabpError::from)
        })
        .collect::<FabpResult<_>>()?;
    let (outcomes, _) = crate::batch::run(&aligners, &reference, workers, SliceOptions::default());
    Ok(outcomes.into_iter().map(|o| o.hits).collect())
}

/// Per-query seeding state shared across shards.
struct QuerySeed {
    words: WordIndex,
    engine: BitParallelEngine,
    window: usize,
    resolved_threshold: u32,
}

/// One verification work item: a run of `query`'s candidate base ranges
/// in `shard`, as indices into the shared list of shard-local ranges.
struct Verify {
    query: usize,
    shard: usize,
    ranges: std::ops::Range<usize>,
}

fn search_seeded(
    index: &ReferenceIndex,
    proteins: &[ProteinSeq],
    threshold: Threshold,
    params: SeedParams,
    workers: usize,
    stats: &mut IndexSearchStats,
) -> FabpResult<Vec<Vec<Hit>>> {
    let seeds: Vec<QuerySeed> = proteins
        .iter()
        .map(|protein| {
            let words =
                WordIndex::try_build(protein.as_slice(), params.word_size, params.threshold)?;
            let encoded = EncodedQuery::from_protein(protein);
            let window = encoded.len();
            if index.shards().len() > 1 && window > index.overlap() + 1 {
                return Err(FabpError::InvalidShardPlan(format!(
                    "query window {window} exceeds index overlap {} + 1; rebuild the \
                     index with a larger overlap or use --prefilter off",
                    index.overlap()
                )));
            }
            Ok(QuerySeed {
                words,
                engine: BitParallelEngine::new(&encoded)?,
                window,
                resolved_threshold: threshold.resolve(window),
            })
        })
        .collect::<FabpResult<_>>()?;

    // Seed every shard: per shard, one 3-frame translation pass with
    // rolling packed keys feeds every query's word table.
    let seeded = claim_all(index.shards(), workers, |shard| {
        seed_shard(&shard.packed, &seeds, params)
    })
    .results;
    stats.seed_hits += seeded.iter().map(|(_, hits)| hits).sum::<u64>();

    // Coalesce each query's candidates into regions per shard. Regions
    // are cut into slices (the batch slice plan) so a long one spreads
    // over the workers, and consecutive slices are packed into items of
    // at least one slice's worth of bases so short regions do not each
    // pay a claim.
    let options = SliceOptions::default();
    let mut ranges: Vec<(usize, usize)> = Vec::new();
    let mut items: Vec<Verify> = Vec::new();
    for (q, seed) in seeds.iter().enumerate() {
        for (s, (candidates, _)) in seeded.iter().enumerate() {
            let owned = index.owned_positions(s, seed.window);
            let mut starts: Vec<usize> = candidates[q]
                .iter()
                .copied()
                .filter(|&c| c < owned)
                .collect();
            starts.sort_unstable();
            starts.dedup();
            stats.candidate_windows += starts.len() as u64;
            let shard_len = index.shards()[s].packed.len();
            let mut first = ranges.len();
            let mut item_bases = 0;
            for (lo, hi) in coalesce(&starts, seed.window, shard_len) {
                stats.admitted_bases += (hi - lo) as u64;
                for slice in SlicePlan::build(hi - lo, seed.window, workers, options).slices() {
                    if slice.positions == 0 {
                        continue;
                    }
                    ranges.push((lo + slice.start, lo + slice.end));
                    item_bases += slice.bases();
                    if item_bases >= options.min_slice_positions {
                        items.push(Verify {
                            query: q,
                            shard: s,
                            ranges: first..ranges.len(),
                        });
                        first = ranges.len();
                        item_bases = 0;
                    }
                }
            }
            if first < ranges.len() {
                items.push(Verify {
                    query: q,
                    shard: s,
                    ranges: first..ranges.len(),
                });
            }
        }
    }

    // Verify every range with the exact engine; keep the hits the shard
    // owns, in global coordinates.
    let verified = claim_all(&items, workers, |item| {
        let seed = &seeds[item.query];
        let shard = &index.shards()[item.shard];
        let owned = index.owned_positions(item.shard, seed.window);
        let mut hits = Vec::new();
        for &(lo, hi) in &ranges[item.ranges.clone()] {
            let bases = shard.packed.unpack_range(lo..hi);
            hits.extend(
                seed.engine
                    .search(&bases, seed.resolved_threshold)
                    .into_iter()
                    .filter_map(|hit| {
                        let local = lo + hit.position;
                        (local < owned).then_some(Hit {
                            position: shard.start + local,
                            score: hit.score,
                        })
                    }),
            );
        }
        hits
    })
    .results;
    let mut per_query: Vec<Vec<Vec<Hit>>> = vec![Vec::new(); seeds.len()];
    for (item, hits) in items.iter().zip(verified) {
        per_query[item.query].push(hits);
    }
    Ok(per_query.into_iter().map(merge_shard_hits).collect())
}

/// Translates one packed shard in the three forward frames, streaming
/// rolling packed word keys into every query's neighbourhood table.
/// Returns per-query candidate window starts (shard-local bases) and
/// the raw seed-hit count.
fn seed_shard(
    packed: &PackedSeq,
    seeds: &[QuerySeed],
    params: SeedParams,
) -> (Vec<Vec<usize>>, u64) {
    let w = params.word_size;
    let rolling_modulus = SYMBOLS.pow(w as u32 - 1);
    let len = packed.len();
    let mut candidates: Vec<Vec<usize>> = seeds.iter().map(|_| Vec::new()).collect();
    let mut seed_hits = 0u64;
    for frame in 0..3usize {
        if len < frame + 3 {
            continue;
        }
        let mut key = 0usize;
        let mut residues = 0usize;
        let aa_count = (len - frame) / 3;
        for j in 0..aa_count {
            let base = frame + 3 * j;
            let codon_idx = ((packed.code_at(base) as usize) << 4)
                | ((packed.code_at(base + 1) as usize) << 2)
                | (packed.code_at(base + 2) as usize);
            let aa: AminoAcid = Codon::from_index(codon_idx as u8).translate();
            key = (key % rolling_modulus) * SYMBOLS + aa.index();
            residues += 1;
            if residues < w {
                continue;
            }
            // Word spans residues j−w+1 ..= j; its first base:
            let word_base = frame + 3 * (j + 1 - w);
            for (q, seed) in seeds.iter().enumerate() {
                let postings = seed.words.lookup_key(key);
                seed_hits += postings.len() as u64;
                for &qpos in postings {
                    let offset = 3 * qpos as usize;
                    if word_base >= offset {
                        candidates[q].push(word_base - offset);
                    }
                }
            }
        }
    }
    (candidates, seed_hits)
}

/// Coalesces sorted candidate starts into disjoint `[lo, hi)` base
/// regions of `window`-sized verifications, clamped to the shard.
fn coalesce(starts: &[usize], window: usize, shard_len: usize) -> Vec<(usize, usize)> {
    let mut regions: Vec<(usize, usize)> = Vec::new();
    for &c in starts {
        let lo = c;
        let hi = (c + window).min(shard_len);
        if hi <= lo {
            continue;
        }
        match regions.last_mut() {
            Some((_, end)) if lo <= *end => *end = (*end).max(hi),
            _ => regions.push((lo, hi)),
        }
    }
    regions
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabp_bio::generate::{random_protein, random_rna};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_index(len: usize, seed: u64) -> (RnaSeq, ReferenceIndex) {
        let mut rng = StdRng::seed_from_u64(seed);
        let reference = random_rna(len, &mut rng);
        let index = ReferenceIndex::build_from_rna(
            &reference,
            IndexBuildOptions {
                overlap: 47,
                target_shard_bases: 256,
            },
        )
        .unwrap();
        (reference, index)
    }

    #[test]
    fn build_shards_cover_the_reference() {
        let (reference, index) = small_index(1_000, 7);
        assert_eq!(index.total_bases(), 1_000);
        assert!(index.shards().len() > 1);
        assert_eq!(index.decode_reference(), reference);
    }

    #[test]
    fn round_trip_through_bytes_is_bit_identical() {
        let (_, index) = small_index(777, 3);
        let bytes = index.to_bytes();
        let loaded = ReferenceIndex::from_bytes(&bytes).unwrap();
        assert_eq!(loaded, index);
        assert_eq!(loaded.fingerprint(), index.fingerprint());
    }

    #[test]
    fn round_trip_through_a_file() {
        let (_, index) = small_index(2_048, 11);
        let dir = std::env::temp_dir().join("fabp_index_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.fabpidx");
        index.write_to(&path).unwrap();
        let loaded = ReferenceIndex::load(&path).unwrap();
        assert_eq!(loaded, index);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_payload_is_a_typed_crc_error() {
        let (_, index) = small_index(512, 5);
        let mut bytes = index.to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        match ReferenceIndex::from_bytes(&bytes) {
            Err(FabpError::CrcMismatch {
                stream: StreamKind::IndexShard,
                ..
            }) => {}
            other => panic!("expected shard CRC mismatch, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_header_is_a_typed_crc_error() {
        let (_, index) = small_index(512, 5);
        let mut bytes = index.to_bytes();
        bytes[20] ^= 0x01; // inside the header region
        match ReferenceIndex::from_bytes(&bytes) {
            Err(FabpError::CrcMismatch {
                stream: StreamKind::IndexHeader,
                ..
            }) => {}
            other => panic!("expected header CRC mismatch, got {other:?}"),
        }
    }

    #[test]
    fn shard_count_beyond_the_header_is_a_decode_error_not_an_allocation() {
        // A 24-byte header with a valid CRC claiming 2^36 shards over
        // 2^40 bases: the count passes the bases bound, but the header
        // holds no shard geometry at all.
        let mut header = Vec::new();
        for field in [1u64 << 40, 0, 1 << 36] {
            header.extend_from_slice(&field.to_le_bytes());
        }
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&(header.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&header);
        bytes.extend_from_slice(&fabp_resilience::crc::crc32(&header).to_le_bytes());
        assert_eq!(bytes.len(), 44);
        match ReferenceIndex::from_bytes(&bytes) {
            Err(FabpError::Decode(msg)) => assert!(msg.contains("shard count"), "{msg}"),
            other => panic!("expected a decode error, got {other:?}"),
        }

        // One shard whose start + length overflows usize.
        let mut header = Vec::new();
        for field in [u64::MAX, 0, 1, u64::MAX, 2, 1] {
            header.extend_from_slice(&field.to_le_bytes());
        }
        header.extend_from_slice(&[0; 8]); // payload CRC + reserved
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&(header.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&header);
        bytes.extend_from_slice(&fabp_resilience::crc::crc32(&header).to_le_bytes());
        match ReferenceIndex::from_bytes(&bytes) {
            Err(FabpError::Decode(msg)) => assert!(msg.contains("exceeds"), "{msg}"),
            other => panic!("expected a decode error, got {other:?}"),
        }
    }

    /// Rewrites the u64 at byte `offset` of the header region and
    /// recomputes the header CRC, as anyone crafting an index can.
    fn forge_header_u64(bytes: &mut [u8], offset: usize, value: u64) {
        let header_len = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        bytes[16 + offset..24 + offset].copy_from_slice(&value.to_le_bytes());
        let crc = fabp_resilience::crc::crc32(&bytes[16..16 + header_len]);
        bytes[16 + header_len..20 + header_len].copy_from_slice(&crc.to_le_bytes());
    }

    fn expect_tiling_error(bytes: &[u8]) {
        match ReferenceIndex::from_bytes(bytes) {
            Err(FabpError::Decode(msg)) => assert!(msg.contains("do not tile"), "{msg}"),
            other => panic!("expected a decode error, got {other:?}"),
        }
    }

    #[test]
    fn lying_total_bases_is_a_decode_error_not_an_allocation() {
        // Every shard still fits inside the claimed 2^44 bases, but the
        // last one ends far short of them: decoding the reference would
        // otherwise allocate 16 TiB.
        let (_, index) = small_index(1_000, 17);
        let mut bytes = index.to_bytes();
        forge_header_u64(&mut bytes, 0, 1 << 44);
        expect_tiling_error(&bytes);
    }

    #[test]
    fn misordered_or_gapped_shards_are_decode_errors() {
        // Shard geometry follows the 24-byte header fields, 32 bytes per
        // shard, `start` first.
        let (_, index) = small_index(1_000, 17);
        let start_at = |shard: usize| 24 + SHARD_GEOMETRY_BYTES * shard;
        let starts: Vec<u64> = index.shards().iter().map(|s| s.start as u64).collect();
        assert!(starts.len() >= 3, "{starts:?}");

        // Swapped starts: each range still fits, but hits would land at
        // the wrong coordinates.
        let mut bytes = index.to_bytes();
        forge_header_u64(&mut bytes, start_at(1), starts[2]);
        forge_header_u64(&mut bytes, start_at(2), starts[1]);
        expect_tiling_error(&bytes);

        // A shard that no longer reaches `overlap` bases into the next.
        let mut bytes = index.to_bytes();
        forge_header_u64(&mut bytes, start_at(1), starts[1] + 1);
        expect_tiling_error(&bytes);

        // A first shard that does not start at base 0.
        let mut bytes = index.to_bytes();
        forge_header_u64(&mut bytes, start_at(0), 1);
        expect_tiling_error(&bytes);
    }

    #[test]
    fn bad_magic_and_version_are_decode_errors() {
        let (_, index) = small_index(256, 9);
        let mut bytes = index.to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            ReferenceIndex::from_bytes(&bytes),
            Err(FabpError::Decode(_))
        ));
        let mut bytes = index.to_bytes();
        bytes[8] = 0xFF; // version
        assert!(matches!(
            ReferenceIndex::from_bytes(&bytes),
            Err(FabpError::Decode(_))
        ));
        assert!(matches!(
            ReferenceIndex::from_bytes(&bytes[..10]),
            Err(FabpError::Decode(_))
        ));
    }

    #[test]
    fn seeded_search_agrees_with_off_on_planted_exact_match() {
        let mut rng = StdRng::seed_from_u64(42);
        let protein = random_protein(9, &mut rng);
        let coding = fabp_bio::generate::coding_rna_for_paper_patterns(&protein, &mut rng);
        let mut bases = random_rna(2_000, &mut rng).into_inner();
        let at = 700;
        bases.splice(at..at + coding.len(), coding.iter().copied());
        let reference = RnaSeq::from(bases);
        let index = ReferenceIndex::build_from_rna(
            &reference,
            IndexBuildOptions {
                overlap: 63,
                target_shard_bases: 333,
            },
        )
        .unwrap();

        let proteins = vec![protein];
        let threshold = Threshold::Fraction(1.0);
        let (off, off_stats) = search_index(
            &index,
            &proteins,
            threshold,
            PrefilterMode::Off,
            SeedParams::default(),
            2,
        )
        .unwrap();
        let (seeded, stats) = search_index(
            &index,
            &proteins,
            threshold,
            PrefilterMode::Seeded,
            SeedParams::default(),
            2,
        )
        .unwrap();
        assert!(
            off[0].iter().any(|h| h.position == at),
            "full scan finds the plant"
        );
        assert_eq!(
            seeded[0], off[0],
            "seeded path recovers the full scan's hits"
        );
        assert!(stats.admitted_bases < off_stats.admitted_bases);
        assert!(stats.scanned_fraction() < 1.0);
        assert!(stats.seed_hits > 0);
    }

    #[test]
    fn oversized_query_window_is_rejected_on_multi_shard_index() {
        let (_, index) = small_index(1_000, 13); // overlap 47
        let mut rng = StdRng::seed_from_u64(1);
        let protein = random_protein(30, &mut rng); // window 90 > 48
        let err = search_index(
            &index,
            &[protein],
            Threshold::Fraction(0.8),
            PrefilterMode::Seeded,
            SeedParams::default(),
            1,
        )
        .unwrap_err();
        assert!(matches!(err, FabpError::InvalidShardPlan(_)), "{err}");
    }

    #[test]
    fn empty_query_is_rejected() {
        let (_, index) = small_index(256, 2);
        let err = search_index(
            &index,
            &[ProteinSeq::new()],
            Threshold::Fraction(0.8),
            PrefilterMode::Seeded,
            SeedParams::default(),
            1,
        )
        .unwrap_err();
        assert!(matches!(err, FabpError::EmptyQuery));
    }

    #[test]
    fn coalesce_merges_overlapping_windows() {
        assert_eq!(coalesce(&[0, 5, 40], 12, 100), vec![(0, 17), (40, 52)]);
        assert_eq!(coalesce(&[95], 12, 100), vec![(95, 100)]);
        assert!(coalesce(&[], 12, 100).is_empty());
    }

    #[test]
    fn prefilter_mode_parses() {
        assert_eq!("off".parse::<PrefilterMode>().unwrap(), PrefilterMode::Off);
        assert_eq!(
            "seeded".parse::<PrefilterMode>().unwrap(),
            PrefilterMode::Seeded
        );
        assert!("hybrid".parse::<PrefilterMode>().is_err());
    }
}
