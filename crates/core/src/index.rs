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
//!    speed and warm paths can hold the index resident behind an
//!    [`Arc`](std::sync::Arc) keyed by [`ReferenceIndex::fingerprint`].
//!    In memory the reference is one contiguous [`PackedSeq`] that every
//!    search scans in place; shards are base ranges of it that frame
//!    the file and nothing else. The overlap is framing the loader
//!    cross-checks, at most one shard long; no search reads either.
//! 2. **A k-mer seed prefilter** ([`search_index`] with
//!    [`PrefilterMode::Seeded`]), seed-then-extend in the
//!    filter-then-verify shape. The BLAST-style BLOSUM62 neighbourhood
//!    tables of every query ([`WordIndex`]) are merged into one table per
//!    search. The reference is cut into the batch scheduler's slices
//!    ([`SlicePlan`]) for the longest query window and the worker count;
//!    each slice is translated once in the three forward frames, and
//!    each frame word is looked up once with a rolling packed key;
//!    every seed hit `(word position, query position)` names one
//!    diagonal, so the candidate alignment start is `word_base − 3·q`.
//!    Each seeded (query, diagonal) is checked once against an
//!    **identity bound**: a codon pattern accepts only synonymous codons,
//!    so a window scoring `t` over `n` residues holds at least `t − 2n`
//!    residues identical to the query's, and a diagonal with fewer
//!    cannot reach the threshold. Where the bound forces every passing
//!    window to repeat a query word exactly, the table keeps only that
//!    query's exact postings. Each query's passing diagonals, gathered
//!    from every slice, are coalesced once into disjoint regions of the
//!    whole reference and **verified by the exact engine**
//!    ([`BitParallelEngine`]) over just those regions. A hit depends only
//!    on the `window` bases it spans, so seeded hits are a subset of the
//!    full scan's with equal scores, and every full-scan hit whose own
//!    diagonal carries a seed word is reported; the filter can only
//!    *miss* windows none of whose words seeds their own query position.
//!    Recall is measured against planted ground truth (see
//!    `tests/proptest_index.rs` and `bench_serve`);
//!    [`PrefilterMode::Off`] keeps the exhaustive scan reachable
//!    end-to-end.
//!
//! The reference is a database of records (a FASTA file's sequences)
//! held as one concatenation, as FabP streams its whole database. Every
//! search scans the concatenation once and keeps only the hits whose
//! window lies inside one record ([`locate`](crate::hits::locate)): a
//! window spanning two
//! records is a place no record holds.
//!
//! # On-disk layout (version 2, all little-endian)
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
//!   record_count u64
//!   then per record:
//!     start u64 · base_len u64 · id_len u64 · id (id_len UTF-8 bytes)
//! header_crc u32   CRC32 over the header region
//! payload: per shard, word_count × u64 packed words
//! ```
//!
//! Version 1 is the same layout without the record table; a version-1
//! file loads as one record with an empty id.
//!
//! A corrupted header fails with
//! [`FabpError::CrcMismatch`]`{stream: IndexHeader}`; a corrupted shard
//! payload with `{stream: IndexShard, frame: shard}`; shards that do not
//! tile the reference, or whose trailing overlap disagrees with the
//! bases that follow, records that do not tile it, and counts or id
//! lengths the header cannot hold, with [`FabpError::Decode`] — typed
//! errors, never UB, an allocation beyond the file's size, or silent
//! wrong hits.

use crate::aligner::Threshold;
use crate::batch::{claim_all, distinct, search_all};
use crate::bitparallel::BitParallelEngine;
use crate::hits::{retain_within_records, Hit};
use crate::kmer::{pack_word, WordIndex, SYMBOLS};
use crate::slice_plan::{overlap_ranges, SliceOptions, SlicePlan};
use fabp_bio::alphabet::AminoAcid;
use fabp_bio::codon::Codon;
use fabp_bio::fasta::PackedRecords;
use fabp_bio::seq::{PackedSeq, ProteinSeq, RnaSeq};
use fabp_encoding::encoder::EncodedQuery;
use fabp_resilience::crc::{crc32, crc32_words, Crc32};
use fabp_resilience::{FabpError, FabpResult, StreamKind};
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::ops::Range;
use std::path::Path;
use std::str::FromStr;
use std::sync::Arc;

/// File magic at offset 0.
pub const MAGIC: [u8; 8] = *b"FABPIDX\0";
/// Current format version: version 1 plus the record table.
pub const VERSION: u32 = 2;
/// Header bytes per shard: start, base count and word count (u64 each),
/// payload CRC and a reserved word (u32 each).
const SHARD_GEOMETRY_BYTES: usize = 32;
/// Header bytes per record before its id: start, base count and id
/// length (u64 each).
const RECORD_FIXED_BYTES: usize = 24;

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
    /// Trailing overlap bases per shard: framing the loader cross-checks,
    /// at most `target_shard_bases`. No search reads it.
    pub overlap: usize,
    /// Target shard payload size in bases, at least 1; the builder cuts
    /// `ceil(total / target)` shards.
    pub target_shard_bases: usize,
}

impl Default for IndexBuildOptions {
    fn default() -> IndexBuildOptions {
        IndexBuildOptions {
            // The framing every earlier release wrote.
            overlap: 384,
            // 4 Mbases/shard: large enough to amortise per-shard costs,
            // small enough to parallelise seeding across cores.
            target_shard_bases: 1 << 22,
        }
    }
}

/// A persistent, CRC-framed, packed-shard reference index: the reference
/// held once, its records as base ranges of it, and shards as base ranges
/// of it, each reaching `overlap` bases into the next, that frame the
/// file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReferenceIndex {
    overlap: usize,
    reference: Arc<PackedSeq>,
    shards: Vec<Range<usize>>,
    records: Vec<Range<usize>>,
    record_ids: Vec<String>,
    fingerprint: u64,
}

impl ReferenceIndex {
    /// Packs `reference` as one record with an empty id and cuts it into
    /// overlapping shards ([`ReferenceIndex::build_from_packed`]).
    ///
    /// # Errors
    ///
    /// As [`ReferenceIndex::build_from_packed`].
    pub fn build_from_rna(
        reference: &RnaSeq,
        options: IndexBuildOptions,
    ) -> FabpResult<ReferenceIndex> {
        let records = PackedRecords::one("", PackedSeq::from_rna(reference));
        ReferenceIndex::build_from_packed(records, options)
    }

    /// Cuts already packed records (a FASTA file read by
    /// [`read_packed`](fabp_bio::fasta::read_packed), say) into
    /// overlapping shards, holding their words as they are.
    ///
    /// # Errors
    ///
    /// Returns [`FabpError::InvalidShardPlan`] for an empty reference,
    /// records that do not tile it in order, one id each, a zero
    /// `target_shard_bases`, or an `overlap` above it: each shard then
    /// repeats less than its own length, so the file holds fewer than
    /// twice the reference's bases.
    pub fn build_from_packed(
        reference: PackedRecords,
        options: IndexBuildOptions,
    ) -> FabpResult<ReferenceIndex> {
        let total = reference.bases.len();
        if total == 0 {
            return Err(FabpError::InvalidShardPlan(
                "cannot index an empty reference".into(),
            ));
        }
        let (overlap, target) = (options.overlap, options.target_shard_bases);
        if target == 0 || overlap > target {
            return Err(FabpError::InvalidShardPlan(format!(
                "index shard size {target} must be at least 1 and at least the \
                 overlap {overlap}"
            )));
        }
        if reference.ids.len() != reference.ranges.len() || !records_tile(&reference.ranges, total)
        {
            return Err(FabpError::InvalidShardPlan(format!(
                "{} record ranges with {} ids do not tile {total} bases in order",
                reference.ranges.len(),
                reference.ids.len()
            )));
        }
        let shards = overlap_ranges(total, total.div_ceil(target), overlap)?
            .into_iter()
            .filter(|(s, e)| e > s)
            .map(|(s, e)| s..e)
            .collect();
        let mut index = ReferenceIndex {
            overlap,
            reference: Arc::new(reference.bases),
            shards,
            records: reference.ranges,
            record_ids: reference.ids,
            fingerprint: 0,
        };
        let crcs = index.shard_crcs();
        index.fingerprint = fingerprint(&index.header_bytes(&crcs), &crcs);
        Ok(index)
    }

    /// Total reference length in bases.
    pub fn total_bases(&self) -> usize {
        self.reference.len()
    }

    /// Trailing overlap bases per shard.
    pub fn overlap(&self) -> usize {
        self.overlap
    }

    /// The whole reference, 2-bit packed, shareable.
    pub fn reference(&self) -> &Arc<PackedSeq> {
        &self.reference
    }

    /// The shards' base ranges, in reference order.
    pub fn shards(&self) -> &[Range<usize>] {
        &self.shards
    }

    /// The records' base ranges, in order, tiling the reference.
    pub fn records(&self) -> &[Range<usize>] {
        &self.records
    }

    /// The records' identifiers, in order.
    pub fn record_ids(&self) -> &[String] {
        &self.record_ids
    }

    /// Content fingerprint derived from the header (record table
    /// included) and per-shard CRCs; stable across write/load round
    /// trips, suitable as a cache key that avoids re-hashing the full
    /// reference.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn shard_crcs(&self) -> Vec<u32> {
        self.shards
            .iter()
            .map(|shard| crc32_words(self.reference.slice(shard.clone()).words()))
            .collect()
    }

    /// The version-2 header region, given the shards' payload CRCs.
    fn header_bytes(&self, crcs: &[u32]) -> Vec<u8> {
        let mut h = Vec::with_capacity(
            32 + self.shards.len() * SHARD_GEOMETRY_BYTES + self.records.len() * RECORD_FIXED_BYTES,
        );
        let put = |h: &mut Vec<u8>, values: &[usize]| {
            for &value in values {
                h.extend_from_slice(&(value as u64).to_le_bytes());
            }
        };
        put(
            &mut h,
            &[self.total_bases(), self.overlap, self.shards.len()],
        );
        for (shard, crc) in self.shards.iter().zip(crcs) {
            let words = shard.len().div_ceil(PackedSeq::BASES_PER_WORD);
            put(&mut h, &[shard.start, shard.len(), words]);
            h.extend_from_slice(&crc.to_le_bytes());
            h.extend_from_slice(&0u32.to_le_bytes());
        }
        put(&mut h, &[self.records.len()]);
        for (record, id) in self.records.iter().zip(&self.record_ids) {
            put(&mut h, &[record.start, record.len(), id.len()]);
            h.extend_from_slice(id.as_bytes());
        }
        h
    }

    /// The version-2 serializer, cutting each shard's words with a slice.
    fn write_bytes(&self, w: &mut impl Write) -> std::io::Result<()> {
        let header = self.header_bytes(&self.shard_crcs());
        w.write_all(&MAGIC)?;
        w.write_all(&VERSION.to_le_bytes())?;
        w.write_all(&(header.len() as u32).to_le_bytes())?;
        w.write_all(&header)?;
        w.write_all(&crc32(&header).to_le_bytes())?;
        for shard in &self.shards {
            for word in self.reference.slice(shard.clone()).words() {
                w.write_all(&word.to_le_bytes())?;
            }
        }
        Ok(())
    }

    /// Serializes the index to the version-2 byte layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_bytes(&mut out).expect("a Vec write cannot fail");
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
        let written = self.write_bytes(&mut w).and_then(|()| w.flush());
        written.map_err(io_err)
    }

    /// Loads an index from `path` (buffered chunk reads straight into
    /// word buffers — no text parse, no re-encode).
    ///
    /// # Errors
    ///
    /// * [`FabpError::Decode`] — wrong magic/version, truncation,
    ///   inconsistent geometry or overlap bases, or a record table that
    ///   does not tile the reference;
    /// * [`FabpError::CrcMismatch`] — header or shard payload corrupted.
    pub fn load(path: impl AsRef<Path>) -> FabpResult<ReferenceIndex> {
        let io_err = |e: std::io::Error| FabpError::Decode(format!("index read: {e}"));
        let mut r = BufReader::new(File::open(path).map_err(io_err)?);
        let mut bytes = Vec::new();
        r.read_to_end(&mut bytes).map_err(io_err)?;
        ReferenceIndex::from_bytes(&bytes)
    }

    /// Decodes the version-2 byte layout, or version 1 as one record. See
    /// [`ReferenceIndex::load`] for the error contract.
    pub fn from_bytes(bytes: &[u8]) -> FabpResult<ReferenceIndex> {
        let mut cur = Cursor { bytes, at: 0 };
        let magic = cur.take(8)?;
        if magic != MAGIC {
            return Err(FabpError::Decode(format!(
                "bad index magic {magic:02x?} (expected {MAGIC:02x?})"
            )));
        }
        let version = cur.u32()?;
        if version != 1 && version != VERSION {
            return Err(FabpError::Decode(format!(
                "unsupported index version {version} (expected 1 or {VERSION})"
            )));
        }
        let header_len = cur.u32()? as usize;
        let header = cur.take(header_len)?.to_vec();
        let stored_header_crc = cur.u32()?;
        let actual_header_crc = crc32(&header);
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
        let mut shards = Vec::with_capacity(shard_count);
        let mut crcs = Vec::with_capacity(shard_count);
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
            shards.push(start..start + base_len);
            crcs.push(payload_crc);
        }
        // The shards must tile the reference in order, each reaching
        // `overlap` bases into the next, as `build_from_rna` writes them:
        // hit coordinates rely on it, and it bounds `total_bases` by the
        // payload the file actually holds.
        let tiled = shards.first().is_some_and(|s| s.start == 0)
            && shards.windows(2).all(|w| {
                let next = w[1].start;
                next > w[0].start && w[0].end >= next.saturating_add(overlap).min(total_bases)
            })
            && shards.last().is_some_and(|s| s.end == total_bases);
        if !tiled {
            return Err(FabpError::Decode(format!(
                "shards do not tile {total_bases} bases in order with overlap {overlap}"
            )));
        }
        let (records, record_ids) = if version == 1 {
            (
                std::iter::once(0..total_bases).collect(),
                vec![String::new()],
            )
        } else {
            decode_records(&mut hc, total_bases)?
        };

        // Append each shard's body, its bases up to the next shard's
        // start (at most its length, by the tiling). Its trailing overlap
        // repeats later bases; it is checked once they are all in.
        let mut cursor = Cursor {
            bytes: cur.rest(),
            at: 0,
        };
        // Sized by the payload the file holds, not the header's claim.
        let mut reference = PackedSeq::with_capacity(total_bases.min(4 * cursor.bytes.len()));
        let mut overlaps = Vec::new();
        for (i, (shard, &payload_crc)) in shards.iter().zip(&crcs).enumerate() {
            let len = shard.len();
            let raw = cursor.take(len.div_ceil(PackedSeq::BASES_PER_WORD) * 8)?;
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
            let packed = PackedSeq::from_words(words, len).ok_or_else(|| {
                FabpError::Decode(format!("shard {i}: words inconsistent with {len} bases"))
            })?;
            let body = shards.get(i + 1).map_or(shard.end, |next| next.start) - shard.start;
            reference.extend_from_words(packed.words(), body);
            if body < len {
                overlaps.push((i, shard.start + body, packed.slice(body..len)));
            }
        }
        for (i, at, bases) in overlaps {
            if reference.slice(at..at + bases.len()) != bases {
                return Err(FabpError::Decode(format!(
                    "shard {i}: trailing overlap at base {at} disagrees with the next shard"
                )));
            }
        }
        let mut index = ReferenceIndex {
            overlap,
            reference: Arc::new(reference),
            shards,
            records,
            record_ids,
            fingerprint: 0,
        };
        index.fingerprint = fingerprint(&index.header_bytes(&crcs), &crcs);
        Ok(index)
    }
}

/// Whether `records` tile `0..total` in order: each starts where the
/// previous one ends, the first at 0, the last ending at `total`.
fn records_tile(records: &[Range<usize>], total: usize) -> bool {
    let mut end = 0;
    for record in records {
        if record.start != end || record.end < record.start {
            return false;
        }
        end = record.end;
    }
    !records.is_empty() && end == total
}

/// Decodes the version-2 record table from the header cursor `hc`.
///
/// The count and every id length are checked against the bytes the
/// header holds before anything is allocated for them, and the records
/// must tile the `total` bases in order.
fn decode_records(
    hc: &mut Cursor<'_>,
    total: usize,
) -> FabpResult<(Vec<Range<usize>>, Vec<String>)> {
    let count = hc.u64()? as usize;
    let room = hc.rest().len() / RECORD_FIXED_BYTES;
    if count == 0 || count > room {
        return Err(FabpError::Decode(format!(
            "implausible record count {count} for a header with room for {room}"
        )));
    }
    let mut records = Vec::with_capacity(count);
    let mut ids = Vec::with_capacity(count);
    for i in 0..count {
        let start = hc.u64()? as usize;
        let len = hc.u64()? as usize;
        let id_len = hc.u64()? as usize;
        if id_len > hc.rest().len() {
            return Err(FabpError::Decode(format!(
                "record {i}: id of {id_len} bytes overruns the header"
            )));
        }
        let id = std::str::from_utf8(hc.take(id_len)?)
            .map_err(|_| FabpError::Decode(format!("record {i}: id is not UTF-8")))?;
        let end = start.checked_add(len).ok_or_else(|| {
            FabpError::Decode(format!("record {i}: range {start}+{len} overflows"))
        })?;
        records.push(start..end);
        ids.push(id.to_string());
    }
    if !records_tile(&records, total) {
        return Err(FabpError::Decode(format!(
            "records do not tile {total} bases in order"
        )));
    }
    Ok((records, ids))
}

/// [`ReferenceIndex::fingerprint`]: the header CRC over the chained
/// shard payload CRCs.
fn fingerprint(header: &[u8], crcs: &[u32]) -> u64 {
    let mut tail = Crc32::new();
    for crc in crcs {
        tail.update(&crc.to_le_bytes());
    }
    (u64::from(crc32(header)) << 32) | u64::from(tail.finalize())
}

struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> FabpResult<&'a [u8]> {
        if n > self.bytes.len() - self.at {
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
    /// Raw seed hits (word match × posting) across all queries, each
    /// frame word of the reference counted once.
    pub seed_hits: u64,
    /// Candidate alignment windows admitted for verification: the
    /// distinct seeded (query, window start) pairs that pass the query's
    /// identity bound (all of them when the bound is 0), before region
    /// coalescing.
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
            "Raw k-mer seed hits across queries, each reference word counted once",
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
/// With [`PrefilterMode::Off`] every position of the held words is
/// scanned (the exhaustive ground-truth path). With
/// [`PrefilterMode::Seeded`] each slice of the batch plan is translated
/// once in three frames against one neighbourhood table of all queries,
/// each seeded diagonal whose window can reach the threshold (the
/// identity bound in the module docs) becomes a candidate window, and
/// only each query's coalesced candidate regions are verified by the
/// exact engine. Seeded hits are a subset of the full scan's with equal
/// scores, include every full-scan hit whose own diagonal carries a seed
/// word, and do not depend on the file's shards or the worker count.
///
/// Either way the concatenated records are scanned once, and a hit is
/// kept only when its window lies inside one record
/// ([`retain_within_records`]). A protein the batch repeats is searched
/// once; every copy gets its hits, and the stats count distinct
/// proteins.
///
/// Returns per-query hit lists (global positions, in order) and the
/// run's [`IndexSearchStats`].
///
/// # Errors
///
/// * [`FabpError::EmptyQuery`] — a query with zero residues;
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
    let (firsts, slot_of) = distinct(proteins, |protein| protein);
    let unique: Vec<ProteinSeq> = firsts.iter().map(|&i| proteins[i].clone()).collect();
    let mut stats = IndexSearchStats {
        full_scan_bases: index.total_bases() as u64 * unique.len() as u64,
        ..IndexSearchStats::default()
    };
    let mut hits: Vec<Vec<Hit>> = match mode {
        PrefilterMode::Off => {
            // The exhaustive path: the held words through the sliced
            // batch scheduler.
            stats.admitted_bases = stats.full_scan_bases;
            let outcomes = search_all(&unique, &index.reference, threshold, workers)?;
            outcomes.into_iter().map(|o| o.hits).collect()
        }
        PrefilterMode::Seeded => {
            search_seeded(index, &unique, threshold, params, workers, &mut stats)?
        }
    };
    for (query_hits, protein) in hits.iter_mut().zip(&unique) {
        retain_within_records(query_hits, 3 * protein.len(), index.records());
    }
    publish_stats(&stats, mode);
    let copies = slot_of.into_iter().map(|slot| hits[slot].clone()).collect();
    Ok((copies, stats))
}

/// Per-query seeding and verification state shared across slices.
struct QuerySeed {
    words: WordIndex,
    engine: BitParallelEngine,
    window: usize,
    resolved_threshold: u32,
    /// Residues in the query.
    residue_count: usize,
    /// The query's amino-acid indices, zero-padded to whole 8-byte words.
    residues: Vec<u8>,
    /// Residues a window must share with the query to reach the
    /// threshold, `threshold − 2n`, floored at 0 (no bound).
    need: usize,
    /// The packed keys of the query's words, when only the postings of
    /// exact word matches can seed a window that passes the bound (see
    /// [`QuerySeed::exact_words`]).
    exact_words: Option<Vec<usize>>,
}

impl QuerySeed {
    /// The identity bound: whether the translated residues from
    /// `frame[0]` on match at least [`QuerySeed::need`] of the query's.
    ///
    /// A codon pattern accepts only codons of its own amino acid (pinned
    /// by `fabp-bio`'s backtranslate tests), so a window residue that
    /// differs from the query's scores at most 2 of its 3 elements; a
    /// window scoring `t` therefore holds at least `t − 2n` identical
    /// residues, and a window that fails the bound cannot reach the
    /// threshold. `frame` must hold the window's residues plus padding to
    /// a whole 8-byte word; the residues are compared 8 at a time.
    fn reaches_need(&self, frame: &[u8]) -> bool {
        if self.need == 0 {
            return true;
        }
        let Some(allowed) = self.residue_count.checked_sub(self.need) else {
            return false;
        };
        let mut mismatches = 0;
        for (k, query) in self.residues.chunks_exact(8).enumerate() {
            let mut diff = load_word(query) ^ load_word(&frame[8 * k..]);
            let valid = self.residue_count - 8 * k;
            if valid < 8 {
                diff &= (1 << (8 * valid)) - 1;
            }
            // Residue indices are below 32, so every byte of `diff` is
            // too: adding 0x7F sets a byte's top bit exactly when the
            // byte is non-zero, with no carry into the next byte.
            mismatches += ((diff + 0x7F7F_7F7F_7F7F_7F7F) & 0x8080_8080_8080_8080).count_ones();
            if mismatches as usize > allowed {
                return false;
            }
        }
        true
    }

    /// The packed keys of `query`'s words when an exact word match is the
    /// only seed that can lead to a window passing the bound.
    ///
    /// A passing window holds at least `need` identical residues, so its
    /// at most `n − need` other residues split them into at most
    /// `n − need + 1` runs, one of at least `ceil(need / (n − need + 1))`
    /// residues. When that is `w` or more, the window repeats a query
    /// word exactly, at the word's own position; if every query word
    /// seeds itself, that word's own posting seeds the window's
    /// diagonal, and the query's other postings add no candidate.
    fn exact_words(query: &[AminoAcid], words: &WordIndex, need: usize) -> Option<Vec<usize>> {
        let (n, w) = (query.len(), words.word_size());
        let pigeonhole = need > 0 && (need > n || need.div_ceil(n - need + 1) >= w);
        let keys: Vec<usize> = query.windows(w).map(pack_word).collect();
        let self_seeding = keys
            .iter()
            .enumerate()
            .all(|(j, &key)| words.lookup_key(key).contains(&(j as u32)));
        (pigeonhole && self_seeding).then_some(keys)
    }
}

/// The first 8 bytes of `bytes`, little-endian.
fn load_word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
}

/// A query word seeded by a reference word: residue `position` of
/// query `query`.
#[derive(Debug, Clone, Copy, Default)]
struct Posting {
    query: u32,
    position: u32,
}

/// Postings copied per frame word without looking at the row length;
/// the rare longer row takes a second copy.
const GATHER: usize = 4;

/// Frame words whose postings are gathered before they are checked, so
/// the gather buffer stays in L1.
const SEED_BLOCK: usize = 256;

/// The neighbourhood tables of every query of one search, merged into
/// one CSR table over the dense `21^w` packed word keys, so each frame
/// word of the reference is looked up once whatever the query count.
struct SeedTable {
    word_size: usize,
    /// CSR row offsets, `21^w + 1` entries.
    offsets: Vec<usize>,
    /// `(query, query position)` postings, grouped by packed word, then
    /// [`GATHER`] padding postings so every row can be read `GATHER` wide.
    /// A query with [`QuerySeed::exact_words`] keeps only its exact
    /// postings, those whose key is its own word at that position.
    postings: Vec<Posting>,
    /// Per packed word, every query position it seeds: the raw seed hits,
    /// postings left out included.
    seed_hits: Vec<u64>,
}

impl SeedTable {
    /// Merges the seeds' word tables, which share one word size.
    fn build(seeds: &[QuerySeed], word_size: usize) -> SeedTable {
        let table_size = SYMBOLS.pow(word_size as u32);
        let mut offsets = Vec::with_capacity(table_size + 1);
        let mut postings = Vec::new();
        let mut seed_hits = Vec::with_capacity(table_size);
        offsets.push(0);
        for key in 0..table_size {
            let mut hits = 0;
            for (query, seed) in seeds.iter().enumerate() {
                let positions = seed.words.lookup_key(key);
                hits += positions.len() as u64;
                postings.extend(
                    positions
                        .iter()
                        .filter(|&&p| {
                            seed.exact_words
                                .as_ref()
                                .is_none_or(|k| k[p as usize] == key)
                        })
                        .map(|&position| Posting {
                            query: query as u32,
                            position,
                        }),
                );
            }
            offsets.push(postings.len());
            seed_hits.push(hits);
        }
        postings.resize(postings.len() + GATHER, Posting::default());
        SeedTable {
            word_size,
            offsets,
            postings,
            seed_hits,
        }
    }
}

/// One verification work item: a run of `query`'s candidate base ranges,
/// as indices into the shared list of global ranges.
struct Verify {
    query: usize,
    ranges: Range<usize>,
}

fn search_seeded(
    index: &ReferenceIndex,
    proteins: &[ProteinSeq],
    threshold: Threshold,
    params: SeedParams,
    workers: usize,
    stats: &mut IndexSearchStats,
) -> FabpResult<Vec<Vec<Hit>>> {
    // Each query's neighbourhood table and engine, built on the workers.
    let seeds: Vec<QuerySeed> = claim_all(proteins, workers, |protein| {
        let words = WordIndex::try_build(protein.as_slice(), params.word_size, params.threshold)?;
        let encoded = EncodedQuery::from_protein(protein);
        let window = encoded.len();
        let resolved_threshold = threshold.resolve(window);
        let need = (resolved_threshold as usize).saturating_sub(2 * protein.len());
        let mut residues: Vec<u8> = protein.iter().map(|aa| aa.index() as u8).collect();
        residues.resize(protein.len().next_multiple_of(8), 0);
        Ok(QuerySeed {
            exact_words: QuerySeed::exact_words(protein.as_slice(), &words, need),
            words,
            engine: BitParallelEngine::new(&encoded)?,
            window,
            resolved_threshold,
            residue_count: protein.len(),
            residues,
            need,
        })
    })
    .results
    .into_iter()
    .collect::<FabpResult<_>>()?;
    let Some(longest) = seeds.iter().map(|seed| seed.window).max() else {
        return Ok(Vec::new());
    };

    // Seed the batch plan's slices of the resident reference for the
    // longest window, each slice's three forward frames as items of their
    // own. A slice owns the window starts up to the next slice's first
    // base, the last one those up to the reference end, and reads every
    // base an owned window covers.
    let table = SeedTable::build(&seeds, params.word_size);
    let reference = index.reference();
    let options = SliceOptions::default();
    let plan = SlicePlan::build(reference.len(), longest, workers, options);
    let slices = plan.slices();
    let frames: Vec<(usize, usize)> = (0..slices.len())
        .flat_map(|i| (0..3).map(move |frame| (i, frame)))
        .collect();
    let mut seeded = claim_all(&frames, workers, |&(i, frame)| {
        let owned_end = slices.get(i + 1).map_or(reference.len(), |next| next.start);
        let bases = slices[i].start + frame..slices[i].end;
        seed_frame(reference, bases, owned_end, &seeds, &table)
    })
    .results;
    stats.seed_hits += seeded.iter().map(|(_, hits)| hits).sum::<u64>();

    // Coalesce each query's candidates, gathered from every slice, once
    // over the whole reference. Regions are cut into slices (the batch
    // slice plan) so a long one spreads over the workers, and
    // consecutive slices are packed into items of at least one slice's
    // worth of bases so short regions do not each pay a claim.
    let mut ranges: Vec<(usize, usize)> = Vec::new();
    let mut items: Vec<Verify> = Vec::new();
    for (q, seed) in seeds.iter().enumerate() {
        let mut starts: Vec<usize> = seeded
            .iter_mut()
            .flat_map(|(candidates, _)| std::mem::take(&mut candidates[q]))
            .collect();
        starts.sort_unstable();
        stats.candidate_windows += starts.len() as u64;
        let mut first = ranges.len();
        let mut item_bases = 0;
        for (lo, hi) in coalesce(&starts, seed.window, reference.len()) {
            stats.admitted_bases += (hi - lo) as u64;
            for slice in SlicePlan::build(hi - lo, seed.window, workers, options).slices() {
                ranges.push((lo + slice.start, lo + slice.end));
                item_bases += slice.bases();
                if item_bases >= options.min_slice_positions {
                    items.push(Verify {
                        query: q,
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
                ranges: first..ranges.len(),
            });
        }
    }

    // Verify every range in place with the exact engine. A query's
    // regions are disjoint and its items in order, so its hits are its
    // items' hits, concatenated.
    let verified = claim_all(&items, workers, |item| {
        let seed = &seeds[item.query];
        let mut hits = Vec::new();
        for &(lo, hi) in &ranges[item.ranges.clone()] {
            hits.extend(
                seed.engine
                    .search(reference, lo..hi, seed.resolved_threshold)
                    .into_iter()
                    .map(|hit| Hit {
                        position: lo + hit.position,
                        score: hit.score,
                    }),
            );
        }
        hits
    })
    .results;
    let mut per_query: Vec<Vec<Hit>> = vec![Vec::new(); seeds.len()];
    for (item, hits) in items.iter().zip(verified) {
        per_query[item.query].extend(hits);
    }
    Ok(per_query)
}

/// Seeds one forward frame of a slice, the codons of `bases` from its
/// first base on: translates them once, rolls a packed word key along
/// them, looks every key up once in the all-query `table`, and checks
/// each (query, diagonal) its postings seed once against the query's
/// identity bound. The slice owns the window starts and frame words that
/// begin below `owned_end`. Returns per-query candidate window starts
/// (owned global bases whose window ends inside the reference,
/// unordered) and the raw seed-hit count of the owned words.
fn seed_frame(
    reference: &PackedSeq,
    bases: Range<usize>,
    owned_end: usize,
    seeds: &[QuerySeed],
    table: &SeedTable,
) -> (Vec<Vec<usize>>, u64) {
    let w = table.word_size;
    let count = bases.len() / 3;
    let mut candidates: Vec<Vec<usize>> = vec![Vec::new(); seeds.len()];
    if count < w {
        return (candidates, 0);
    }
    let top = SYMBOLS.pow(w as u32 - 1);
    // A query's word positions span `n − w + 1` residues, so every seed
    // hit on one diagonal comes within that many frame words of the
    // first: a ring of at least that many slots per query, keyed by
    // diagonal, remembers each diagonal until its last hit has passed.
    let ring = seeds
        .iter()
        .map(|seed| (seed.residue_count + 1).saturating_sub(w).max(1))
        .max()
        .unwrap_or(1)
        .next_power_of_two();
    let mut seen = vec![usize::MAX; seeds.len() * ring];
    let mut gathered: Vec<(u32, usize)> = Vec::with_capacity(GATHER * SEED_BLOCK);
    let mut seed_hits = 0u64;
    // Per query, the diagonals whose window starts at an owned base and
    // ends inside the reference; each such window lies inside the slice.
    let owned: Vec<usize> = seeds
        .iter()
        .map(|seed| {
            let end = owned_end.min((reference.len() + 1).saturating_sub(seed.window));
            end.saturating_sub(bases.start).div_ceil(3)
        })
        .collect();
    let owned_words = owned_end.saturating_sub(bases.start).div_ceil(3);
    let residues = translate_codons(reference, bases.start, count);
    let mut key = residues[..w - 1]
        .iter()
        .fold(0, |key, &r| key * SYMBOLS + r as usize);
    let words = count + 1 - w;
    for block in (0..words).step_by(SEED_BLOCK) {
        // Gather the block's postings as (query, diagonal): word `j`
        // spans frame residues `j ..= j + w − 1`, so seeding query
        // position `p` puts the window's first residue, its diagonal, at
        // `j − p` (wrapping past every owned diagonal when `p > j`).
        // Copying `GATHER` slots per word and keeping the row's share
        // spares a branch on each row's length.
        gathered.clear();
        for j in block..words.min(block + SEED_BLOCK) {
            key = key * SYMBOLS + residues[j + w - 1] as usize;
            let (lo, hi) = (table.offsets[key], table.offsets[key + 1]);
            if j < owned_words {
                seed_hits += table.seed_hits[key];
            }
            let row = &table.postings[lo..hi.max(lo + GATHER)];
            let entry = |p: &Posting| (p.query, j.wrapping_sub(p.position as usize));
            let kept = gathered.len() + (hi - lo).min(GATHER);
            gathered.extend(row[..GATHER].iter().map(entry));
            gathered.truncate(kept);
            gathered.extend(row[GATHER..].iter().map(entry));
            key -= residues[j] as usize * top;
        }
        for &(query, diagonal) in &gathered {
            let q = query as usize;
            if diagonal >= owned[q] {
                continue;
            }
            let slot = &mut seen[q * ring + (diagonal & (ring - 1))];
            if *slot == diagonal {
                continue;
            }
            *slot = diagonal;
            if seeds[q].reaches_need(&residues[diagonal..]) {
                candidates[q].push(bases.start + 3 * diagonal);
            }
        }
    }
    (candidates, seed_hits)
}

/// Amino-acid indices of the `count` codons from base `start` on, ten
/// codons per packed word read, followed by one word of zero padding
/// for [`QuerySeed::reaches_need`]'s 8-residue loads.
fn translate_codons(reference: &PackedSeq, start: usize, count: usize) -> Vec<u8> {
    // A packed word holds a codon's first base in its low bits, so the
    // 6 bits `b0 | b1 << 2 | b2 << 4` index this table.
    let residue_of: [u8; 64] = std::array::from_fn(|bits| {
        let codon = ((bits & 0b11) << 4) | (bits & 0b1100) | (bits >> 4);
        Codon::from_index(codon as u8).translate().index() as u8
    });
    let mut residues = Vec::with_capacity(count + 8);
    let mut at = start;
    while residues.len() < count {
        let word = reference.word_at(at);
        let take = (count - residues.len()).min(10);
        residues.extend((0..take).map(|k| residue_of[((word >> (6 * k)) & 63) as usize]));
        at += 30;
    }
    residues.resize(count + 8, 0);
    residues
}

/// Coalesces sorted candidate starts into disjoint `[lo, hi)` base
/// regions of `window`-sized verifications, clamped to the reference end.
fn coalesce(starts: &[usize], window: usize, end: usize) -> Vec<(usize, usize)> {
    let mut regions: Vec<(usize, usize)> = Vec::new();
    for &c in starts {
        let lo = c;
        let hi = (c + window).min(end);
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
    use rand::{Rng, SeedableRng};

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
        assert_eq!(index.reference().to_rna(), reference);
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

    /// A file of `version` framing the `header` region, with no payload.
    fn framed(version: u32, header: &[u8]) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&version.to_le_bytes());
        bytes.extend_from_slice(&(header.len() as u32).to_le_bytes());
        bytes.extend_from_slice(header);
        bytes.extend_from_slice(&crc32(header).to_le_bytes());
        bytes
    }

    fn expect_decode_error(bytes: &[u8], needle: &str) {
        match ReferenceIndex::from_bytes(bytes) {
            Err(FabpError::Decode(msg)) => assert!(msg.contains(needle), "{msg}"),
            other => panic!("expected a decode error naming {needle:?}, got {other:?}"),
        }
    }

    #[test]
    fn shard_count_beyond_the_header_is_a_decode_error_not_an_allocation() {
        let header = |fields: &[u64]| -> Vec<u8> {
            let mut h: Vec<u8> = fields.iter().flat_map(|f| f.to_le_bytes()).collect();
            h.extend_from_slice(&[0; 8]); // payload CRC + reserved
            h
        };
        // A 24-byte header with a valid CRC claiming 2^36 shards over
        // 2^40 bases: the count passes the bases bound, but the header
        // holds no shard geometry at all.
        let mut bytes = header(&[1 << 40, 0, 1 << 36]);
        bytes.truncate(24);
        let bytes = framed(VERSION, &bytes);
        assert_eq!(bytes.len(), 44);
        expect_decode_error(&bytes, "shard count");

        // One shard whose start + length overflows usize.
        expect_decode_error(
            &framed(VERSION, &header(&[u64::MAX, 0, 1, u64::MAX, 2, 1])),
            "exceeds",
        );

        // One well-tiled shard of 2^44 bases, as one record, and no
        // payload: the reference must not be sized by the claim before
        // the payload is read.
        let mut h = header(&[1 << 44, 0, 1, 0, 1 << 44, 1 << 39]);
        for field in [1u64, 0, 1 << 44, 0] {
            h.extend_from_slice(&field.to_le_bytes());
        }
        expect_decode_error(&framed(VERSION, &h), "truncated");
        // Version 1 has no record table.
        expect_decode_error(
            &framed(1, &header(&[1 << 44, 0, 1, 0, 1 << 44, 1 << 39])),
            "truncated",
        );
    }

    /// A 1 000-base index of records `rec1`, `rec2` and `rec3` (300, 300
    /// and 400 bases) in several shards.
    fn records_index() -> ReferenceIndex {
        let mut rng = StdRng::seed_from_u64(23);
        let bases = PackedSeq::from_rna(&random_rna(1_000, &mut rng));
        let records = PackedRecords {
            bases,
            ids: ["rec1", "rec2", "rec3"].map(String::from).to_vec(),
            ranges: vec![0..300, 300..600, 600..1_000],
        };
        let options = IndexBuildOptions {
            overlap: 47,
            target_shard_bases: 256,
        };
        ReferenceIndex::build_from_packed(records, options).unwrap()
    }

    /// Header offset of record `r`'s start field in `index`'s file.
    fn record_at(index: &ReferenceIndex, r: usize) -> usize {
        let table = 24 + SHARD_GEOMETRY_BYTES * index.shards().len();
        let ids: usize = index.record_ids()[..r].iter().map(String::len).sum();
        table + 8 + RECORD_FIXED_BYTES * r + ids
    }

    #[test]
    fn records_round_trip_and_are_fingerprinted() {
        let index = records_index();
        assert_eq!(index.records(), [0..300, 300..600, 600..1_000]);
        assert_eq!(index.record_ids(), ["rec1", "rec2", "rec3"]);
        let loaded = ReferenceIndex::from_bytes(&index.to_bytes()).unwrap();
        assert_eq!(loaded, index);
        // The same bases and shards as other records fingerprint apart.
        let mut bytes = index.to_bytes();
        forge_header_u64(&mut bytes, record_at(&index, 0) + 8, 299);
        forge_header_u64(&mut bytes, record_at(&index, 1), 299);
        forge_header_u64(&mut bytes, record_at(&index, 1) + 8, 301);
        let moved = ReferenceIndex::from_bytes(&bytes).unwrap();
        assert_eq!(moved.records(), [0..299, 299..600, 600..1_000]);
        assert_ne!(moved.fingerprint(), index.fingerprint());
        // Unequal ids and ranges are refused at build.
        let records = PackedRecords {
            bases: index.reference().as_ref().clone(),
            ids: vec!["only".into()],
            ranges: vec![0..300, 300..1_000],
        };
        let options = IndexBuildOptions::default();
        assert!(matches!(
            ReferenceIndex::build_from_packed(records, options),
            Err(FabpError::InvalidShardPlan(_))
        ));
    }

    #[test]
    fn a_version_1_file_loads_as_one_record() {
        // A version-2 file of one unnamed record, less its record table,
        // is the version-1 file of the same reference.
        let (reference, index) = small_index(1_000, 29);
        let mut bytes = index.to_bytes();
        let header_len = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        let v1_len = header_len - 8 - RECORD_FIXED_BYTES;
        bytes.drain(16 + v1_len..16 + header_len);
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        bytes[12..16].copy_from_slice(&(v1_len as u32).to_le_bytes());
        let crc = crc32(&bytes[16..16 + v1_len]);
        bytes[16 + v1_len..20 + v1_len].copy_from_slice(&crc.to_le_bytes());
        let loaded = ReferenceIndex::from_bytes(&bytes).unwrap();
        assert_eq!(
            (loaded.records().len(), loaded.records()[0].clone()),
            (1, 0..1_000)
        );
        assert_eq!(loaded.record_ids(), [""]);
        assert_eq!(loaded.reference().to_rna(), reference);
        assert_eq!(loaded, index);
        assert_eq!(loaded.fingerprint(), index.fingerprint());
    }

    #[test]
    fn a_record_table_the_header_cannot_hold_is_a_decode_error_not_an_allocation() {
        let index = records_index();
        let count_at = record_at(&index, 0) - 8;
        let forged = |offset: usize, value: u64| {
            let mut bytes = index.to_bytes();
            forge_header_u64(&mut bytes, offset, value);
            bytes
        };
        // A record count or an id length far beyond the header's bytes.
        expect_decode_error(&forged(count_at, 1 << 40), "record count");
        expect_decode_error(&forged(count_at, 0), "record count");
        expect_decode_error(&forged(record_at(&index, 1) + 16, 1 << 40), "overruns");
        expect_decode_error(&forged(record_at(&index, 1) + 16, u64::MAX), "overruns");
        // Records that overlap, leave a gap, end past `total_bases` or
        // end short of it.
        let untiled = "do not tile 1000 bases";
        expect_decode_error(&forged(record_at(&index, 1), 290), untiled);
        expect_decode_error(&forged(record_at(&index, 1), 310), untiled);
        expect_decode_error(&forged(record_at(&index, 2) + 8, 401), untiled);
        expect_decode_error(&forged(record_at(&index, 2) + 8, 399), untiled);
        expect_decode_error(&forged(record_at(&index, 2) + 8, u64::MAX), "overflows");
        // An id that is not UTF-8.
        let mut bytes = index.to_bytes();
        let id_at = 16 + record_at(&index, 1) + RECORD_FIXED_BYTES;
        bytes[id_at] = 0xFF;
        let header_len = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        let crc = crc32(&bytes[16..16 + header_len]);
        bytes[16 + header_len..20 + header_len].copy_from_slice(&crc.to_le_bytes());
        expect_decode_error(&bytes, "not UTF-8");
    }

    #[test]
    fn index_search_drops_windows_that_cross_a_record_end() {
        // MFWKMFWK's coding RNA split 12 + 12 across the rec1|rec2 end,
        // and whole inside rec3 at its base 100.
        let protein: ProteinSeq = "MFWKMFWK".parse().unwrap();
        let coding: RnaSeq = "AUGUUUUGGAAAAUGUUCUGGAAG".parse().unwrap();
        let mut rng = StdRng::seed_from_u64(31);
        let mut bases = random_rna(1_000, &mut rng).into_inner();
        bases.splice(288..312, coding.iter().copied());
        bases.splice(700..724, coding.iter().copied());
        let records = PackedRecords {
            bases: PackedSeq::from_rna(&RnaSeq::from(bases)),
            ids: ["rec1", "rec2", "rec3"].map(String::from).to_vec(),
            ranges: vec![0..300, 300..600, 600..1_000],
        };
        let options = IndexBuildOptions {
            overlap: 47,
            target_shard_bases: 256,
        };
        let index = ReferenceIndex::build_from_packed(records, options).unwrap();
        for mode in [PrefilterMode::Off, PrefilterMode::Seeded] {
            let (hits, _) = search_index(
                &index,
                std::slice::from_ref(&protein),
                Threshold::Fraction(1.0),
                mode,
                SeedParams::default(),
                2,
            )
            .unwrap();
            assert_eq!(
                hits,
                [[Hit {
                    position: 700,
                    score: 24
                }]],
                "{mode:?}"
            );
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
    fn inconsistent_overlap_is_a_decode_error() {
        // Shard 0's first overlap base no longer repeats shard 1's first
        // base. Both CRCs are recomputed, so only the overlap check can
        // catch it; otherwise the bases would be dropped unread.
        let (_, index) = small_index(1_000, 17);
        let mut bytes = index.to_bytes();
        let header_len = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        let payload = 20 + header_len;
        let body = index.shards()[1].start;
        let bit = 2 * (body % 32);
        bytes[payload + 8 * (body / 32) + bit / 8] ^= 1 << (bit % 8);
        let words = index.shards()[0].len().div_ceil(32);
        let shard0: Vec<u64> = bytes[payload..payload + 8 * words]
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let crc_at = 16 + 24 + 24;
        bytes[crc_at..crc_at + 4].copy_from_slice(&crc32_words(&shard0).to_le_bytes());
        let crc = crc32(&bytes[16..16 + header_len]);
        bytes[16 + header_len..20 + header_len].copy_from_slice(&crc.to_le_bytes());
        match ReferenceIndex::from_bytes(&bytes) {
            Err(FabpError::Decode(msg)) => assert!(msg.contains("overlap"), "{msg}"),
            other => panic!("expected a decode error, got {other:?}"),
        }
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
    fn a_repeated_protein_is_searched_once_and_answered_per_copy() {
        let mut rng = StdRng::seed_from_u64(43);
        let (p, q) = (random_protein(9, &mut rng), random_protein(7, &mut rng));
        let mut bases = random_rna(3_000, &mut rng).into_inner();
        for (protein, at) in [(&p, 700), (&q, 1_900)] {
            let coding = fabp_bio::generate::coding_rna_for_paper_patterns(protein, &mut rng);
            bases.splice(at..at + coding.len(), coding.iter().copied());
        }
        let options = IndexBuildOptions {
            overlap: 63,
            target_shard_bases: 512,
        };
        let index = ReferenceIndex::build_from_rna(&RnaSeq::from(bases), options).unwrap();
        for mode in [PrefilterMode::Off, PrefilterMode::Seeded] {
            let search = |proteins: &[ProteinSeq]| {
                let threshold = Threshold::Fraction(0.9);
                search_index(&index, proteins, threshold, mode, SeedParams::default(), 2).unwrap()
            };
            let (hits, stats) = search(&[p.clone(), p.clone(), q.clone()]);
            let (once, once_stats) = search(&[p.clone(), q.clone()]);
            assert!(once.iter().all(|h| !h.is_empty()), "{mode:?}: plants hit");
            let copies = [once[0].clone(), once[0].clone(), once[1].clone()];
            assert_eq!(hits, copies, "{mode:?}");
            assert_eq!(stats, once_stats, "{mode:?}: stats count distinct proteins");
        }
    }

    #[test]
    fn a_window_seeded_only_by_neighbourhood_words_is_kept() {
        // Each planted window scores exactly the threshold `t`, so it
        // holds exactly `need = t − 2n` identical residues, and no seed on
        // its diagonal comes from a query word it repeats exactly:
        //
        // * (WWI)×10 against (WWV)×10: 20 identical residues, never three
        //   in a row; each Val codon GUU matches 2 of Ile's 3 elements,
        //   so t = 80, and WWV seeds WWI's positions (score 25);
        // * A*AIWW against A*AVWW: t = 17 and `need` 5 puts every passing
        //   window in the pigeonhole regime, but its one identical word,
        //   A*A, scores 9 < T against itself and seeds nothing; AVW and
        //   VWW seed the diagonal.
        let cases = [
            ("WWI".repeat(10), "UGGUGGGUU".repeat(10), 80),
            ("A*AIWW".to_string(), "GCUUAAGCUGUUUGGUGG".to_string(), 17),
        ];
        for (query, coding, t) in cases {
            let query: ProteinSeq = query.parse().unwrap();
            let coding: RnaSeq = coding.parse().unwrap();
            let mut rng = StdRng::seed_from_u64(3);
            let mut bases = random_rna(2_000, &mut rng).into_inner();
            bases.splice(700..700 + coding.len(), coding.iter().copied());
            let index = ReferenceIndex::build_from_rna(
                &RnaSeq::from(bases),
                IndexBuildOptions {
                    overlap: 100,
                    target_shard_bases: 500,
                },
            )
            .unwrap();
            let search = |mode| {
                let queries = [query.clone()];
                let threshold = Threshold::Absolute(t);
                search_index(&index, &queries, threshold, mode, SeedParams::default(), 2)
                    .unwrap()
                    .0
            };
            let off = search(PrefilterMode::Off);
            let plant = Hit {
                position: 700,
                score: t,
            };
            assert!(off[0].contains(&plant), "{query}: {off:?}");
            assert_eq!(search(PrefilterMode::Seeded), off, "{query}");
        }
    }

    #[test]
    fn oversized_query_window_is_served_on_multi_shard_index() {
        // A 90-base window against shards of 250 bases that reach 47
        // into the next, planted across the second shard's start and past
        // the first shard's end: seeding reads the resident reference,
        // not the shards, so the window is served like any other.
        let mut rng = StdRng::seed_from_u64(13);
        let protein = random_protein(30, &mut rng);
        let coding = fabp_bio::generate::coding_rna_for_paper_patterns(&protein, &mut rng);
        let mut bases = random_rna(1_000, &mut rng).into_inner();
        bases.splice(230..320, coding.iter().copied());
        let reference = RnaSeq::from(bases);
        let options = IndexBuildOptions {
            overlap: 47,
            target_shard_bases: 256,
        };
        let index = ReferenceIndex::build_from_rna(&reference, options).unwrap();
        assert_eq!(index.shards()[1], 250..547);
        let search = |index: &ReferenceIndex, mode| {
            let (queries, threshold) = (std::slice::from_ref(&protein), Threshold::Fraction(1.0));
            search_index(index, queries, threshold, mode, SeedParams::default(), 1)
                .unwrap()
                .0
        };
        let off = search(&index, PrefilterMode::Off);
        let plant = Hit {
            position: 230,
            score: 90,
        };
        assert!(off[0].contains(&plant), "{off:?}");
        assert_eq!(search(&index, PrefilterMode::Seeded), off);
        let one_shard = ReferenceIndex::build_from_rna(&reference, IndexBuildOptions::default());
        assert_eq!(search(&one_shard.unwrap(), PrefilterMode::Seeded), off);
    }

    #[test]
    fn seeded_search_does_not_read_the_files_framing() {
        // One multi-record reference indexed at 1, 3 and 8 shards, each
        // at overlap 0 and at the largest overlap its shards can frame:
        // seeding runs over the batch plan's slices of the resident
        // words, so every file gives the same hits and statistics, at 1
        // and 4 workers, inside the pigeonhole regime (1.0; 0.9 for the
        // 34- and 12-aa queries) and outside it (0.7, 0.5).
        let mut rng = StdRng::seed_from_u64(37);
        let proteins = [34, 12, 20].map(|aa| random_protein(aa, &mut rng));
        let total = 72_000;
        let mut bases = random_rna(total, &mut rng).into_inner();
        // Plants, every other one mutated, around the shard starts at
        // 24 000 and 27 000 and the 4-worker slice starts near 18 000 and
        // 36 000.
        let plants = [17_950, 23_980, 26_990, 35_900, 36_010, 60_000];
        for (k, at) in plants.into_iter().enumerate() {
            let protein = &proteins[k % proteins.len()];
            let coding = fabp_bio::generate::coding_rna_for_paper_patterns(protein, &mut rng);
            let mut coding = coding.into_inner();
            for i in (k..coding.len() * (k % 2)).step_by(9) {
                coding[i] = fabp_bio::alphabet::Nucleotide::from_code2(rng.gen_range(0..4));
            }
            bases.splice(at..at + coding.len(), coding);
        }
        let records = PackedRecords {
            bases: PackedSeq::from_rna(&RnaSeq::from(bases)),
            ids: ["a", "b", "c"].map(String::from).to_vec(),
            ranges: vec![0..30_000, 30_000..50_000, 50_000..total],
        };
        let files: Vec<ReferenceIndex> = [1, 3, 8]
            .into_iter()
            .flat_map(|shards| {
                let target_shard_bases = total.div_ceil(shards);
                [0, target_shard_bases].map(|overlap| {
                    let options = IndexBuildOptions {
                        overlap,
                        target_shard_bases,
                    };
                    let index = ReferenceIndex::build_from_packed(records.clone(), options);
                    let index = index.unwrap();
                    assert_eq!(index.shards().len(), shards);
                    index
                })
            })
            .collect();
        for fraction in [1.0, 0.9, 0.7, 0.5] {
            for workers in [1, 4] {
                let search = |index| {
                    let threshold = Threshold::Fraction(fraction);
                    let (mode, params) = (PrefilterMode::Seeded, SeedParams::default());
                    search_index(index, &proteins, threshold, mode, params, workers).unwrap()
                };
                let (hits, stats) = search(&files[0]);
                assert!(hits.iter().all(|h| !h.is_empty()), "{fraction}: {hits:?}");
                for (f, file) in files.iter().enumerate().skip(1) {
                    assert_eq!(search(file), (hits.clone(), stats), "{fraction} file {f}");
                }
            }
        }
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
    fn a_zero_shard_size_is_rejected_at_build() {
        let reference: RnaSeq = "ACGUACGUACGU".parse().unwrap();
        let options = IndexBuildOptions {
            overlap: 0,
            target_shard_bases: 0,
        };
        match ReferenceIndex::build_from_rna(&reference, options) {
            Err(FabpError::InvalidShardPlan(msg)) => assert!(msg.contains("at least 1"), "{msg}"),
            other => panic!("expected InvalidShardPlan, got {other:?}"),
        }
    }

    #[test]
    fn an_overlap_above_the_shard_size_is_rejected_at_build() {
        // Each shard would repeat more bases than it holds, so the file
        // would grow with the square of the reference.
        let (reference, _) = small_index(1_000, 19);
        let build = |overlap| {
            let options = IndexBuildOptions {
                overlap,
                target_shard_bases: 100,
            };
            ReferenceIndex::build_from_rna(&reference, options)
        };
        match build(101) {
            Err(FabpError::InvalidShardPlan(msg)) => assert!(msg.contains("overlap 101"), "{msg}"),
            other => panic!("expected InvalidShardPlan, got {other:?}"),
        }
        let widest = build(100).unwrap();
        assert_eq!(widest.shards().len(), 10);
        let held: usize = widest.shards().iter().map(Range::len).sum();
        assert!(held < 2 * 1_000, "{held}");
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
