//! Bit-parallel (bit-sliced) software engine: the one fused scan.
//!
//! The FPGA evaluates 256 alignment instances simultaneously — one match
//! bit per (instance, element) — and reduces them with Pop-Counters, all
//! fed from one reference stream buffer. This engine is the same
//! computation transposed onto 64-bit words, executed as a **single
//! fused, tiled streaming pass** that scores one to [`LANES`] queries
//! (*lanes*) against one reference:
//!
//! 1. For every *distinct* comparator truth table used by any lane the
//!    engine materialises the comparator output column
//!    `W_t[p] = t(ctx(p))` — but only for an L1-sized *tile* of the
//!    reference at a time, and itself bit-sliced: 64 reference elements
//!    are packed into nucleotide bit-planes and each table's factored
//!    [`TableEval`] plan computes all 64 comparator outputs in a handful
//!    of word operations. The lanes' tables are interned into one union
//!    set (protein-derived queries draw from at most 12 distinct tables,
//!    so four lanes' union is no wider than one query's worst case), and
//!    this fill is paid once per tile whatever the lane count. The tile
//!    ring is recycled (`copy_within` of the `L_q`-element overlap)
//!    instead of allocating `O(reference)` heap vectors, so the working
//!    set stays cache-resident regardless of the reference size.
//! 2. Each 64-position block of the tile is scored lane by lane, adding
//!    the lane's `L_q` shifted column slices into vertical (bit-sliced)
//!    counters — the Pop-Counter, carried out across 64 instances at
//!    once, with a saturating-carry early exit and a per-lane early
//!    abandon.
//! 3. Thresholding is bit-sliced too: a borrow-propagating
//!    `score >= threshold` comparator produces the 64-position hit mask in
//!    `O(planes)` word operations (instead of extracting all 64 scores
//!    bit-by-bit), and the mask is walked with `trailing_zeros` so only
//!    actual hits pay for score extraction.
//!
//! [`BitParallelEngine::new`] builds a one-lane engine and
//! [`BitParallelEngine::join`] unions built engines into one that scores
//! all of their lanes per pass; every lane's hits are bit-identical to
//! its own one-lane scan.
//!
//! Queries built from proteins qualify automatically (their dependent
//! elements sit at codon position 2, so per-window and absolute context
//! coincide); arbitrary element streams with early dependent elements are
//! rejected at construction.
//!
//! The engine is the one scan kernel under both the software searches
//! (`fabp-core` re-exports this module as its own `bitparallel`) and
//! the cycle engine's fast-forward datapath
//! ([`EngineSession::push_beats_fast`](crate::engine::EngineSession::push_beats_fast)).
//!
//! The original two-pass implementation is retained as
//! [`BitParallelEngine::search_two_pass`] — it is the differential-testing
//! oracle and the baseline the `bench_perf` harness measures the fused
//! path against.

use crate::engine::Hit;
use fabp_bio::alphabet::Nucleotide;
use fabp_bio::backtranslate::{DependentFn, PatternElement};
use fabp_encoding::encoder::EncodedQuery;
use fabp_telemetry::{labels, Counter, Registry};

/// Maximum score-counter planes. The engine sizes its counters to the
/// query (`⌈log2(L_q + 1)⌉` planes — the hardware's 10-bit alignment
/// score of §IV-B corresponds to queries up to 1023 elements), capped
/// here. The counters saturate at the cap, which would misreport scores,
/// so longer queries are rejected at construction ([`MAX_QUERY_LEN`]).
const MAX_PLANES: usize = 16;

/// Longest query the engines accept: its score still fits
/// [`MAX_PLANES`] counter planes.
const MAX_QUERY_LEN: usize = (1 << MAX_PLANES) - 1;

/// 64-position blocks per tile. At ≤ 12 distinct tables this keeps the
/// column ring (`tables × (TILE_BLOCKS + overhang) × 8 B ≈ 14 KiB`)
/// inside a typical 32 KiB L1 data cache.
const TILE_BLOCKS: usize = 128;

/// Structural upper bound on distinct fused tables: 4 `Exact` + 4
/// `Conditional` + 4 `Dependent` pattern-element kinds.
const MAX_TABLES: usize = 12;

/// Queries one [`BitParallelEngine`] scores per pass: the most lanes
/// [`BitParallelEngine::join`] accepts, and the width the batch
/// scheduler packs lane groups to.
pub const LANES: usize = 4;

/// Error for queries the bit-parallel engine cannot score.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnsupportedQuery {
    /// Index of the offending element: 0 or 1 for a context-dependent
    /// element without the two bases of context its table needs, or the
    /// first element past the longest scorable query.
    pub element_index: usize,
}

impl std::fmt::Display for UnsupportedQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.element_index < 2 {
            write!(
                f,
                "context-dependent element at index {} (< 2) has no fused comparator table",
                self.element_index
            )
        } else {
            write!(
                f,
                "query longer than {} elements would overflow the score counters",
                self.element_index
            )
        }
    }
}

impl std::error::Error for UnsupportedQuery {}

/// The fused bit-parallel engine: one to [`LANES`] encoded queries
/// scored against one reference stream.
#[derive(Debug, Clone)]
pub struct BitParallelEngine {
    /// Distinct fused tables used by the lanes (their union).
    tables: Vec<u64>,
    /// Factored bit-sliced evaluation plan per distinct table: computes
    /// the comparator column for 64 reference elements at once from the
    /// nucleotide bit-planes, instead of one table lookup per element.
    evals: Vec<TableEval>,
    /// The queries scored per pass (1 ..= [`LANES`]).
    lanes: Vec<Lane>,
    /// Telemetry handles, registered once at construction so the scan
    /// loops pay only an atomic add per call (one registry lookup per
    /// engine lifetime, not per search).
    queries_ctr: Counter,
    residues_ctr: Counter,
    hits_ctr: Counter,
}

/// One query of a [`BitParallelEngine`].
#[derive(Debug, Clone)]
struct Lane {
    /// Per query element: index into the engine's `tables`.
    element_table: Vec<u16>,
    /// Counter planes needed to represent scores up to the query length;
    /// also the saturated-score cap.
    nplanes: usize,
}

impl BitParallelEngine {
    /// Builds a one-lane engine (telemetry goes to the global registry).
    ///
    /// # Errors
    ///
    /// Returns [`UnsupportedQuery`] when a context-dependent element
    /// appears at index 0 or 1 (impossible for protein-derived queries),
    /// or when the query is longer than 65 535 elements.
    ///
    /// # Panics
    ///
    /// Panics if the query is empty.
    pub fn new(query: &EncodedQuery) -> Result<BitParallelEngine, UnsupportedQuery> {
        BitParallelEngine::with_registry(query, Registry::global())
    }

    /// Builds a one-lane engine, publishing telemetry to `registry`.
    ///
    /// # Errors
    ///
    /// As [`BitParallelEngine::new`].
    ///
    /// # Panics
    ///
    /// Panics if the query is empty.
    pub fn with_registry(
        query: &EncodedQuery,
        registry: &Registry,
    ) -> Result<BitParallelEngine, UnsupportedQuery> {
        assert!(!query.is_empty(), "query must be non-empty");
        let mut tables: Vec<u64> = Vec::new();
        let element_table: Vec<u16> = fused_element_tables(query)?
            .into_iter()
            .map(|table| intern_table(&mut tables, table))
            .collect();
        debug_assert!(tables.len() <= MAX_TABLES, "{} fused tables", tables.len());
        let nplanes = (usize::BITS - element_table.len().leading_zeros()) as usize;
        let engine = labels(&[("engine", "bitparallel")]);
        Ok(BitParallelEngine {
            evals: tables.iter().map(|&t| TableEval::plan(t)).collect(),
            tables,
            lanes: vec![Lane {
                element_table,
                nplanes: nplanes.clamp(1, MAX_PLANES),
            }],
            queries_ctr: registry.counter_with(
                "fabp_queries_processed_total",
                "Query scans started, by engine",
                engine.clone(),
            ),
            residues_ctr: registry.counter_with(
                "fabp_residues_scanned_total",
                "Alignment positions evaluated, by engine",
                engine.clone(),
            ),
            hits_ctr: registry.counter_with("fabp_hits_total", "Hits emitted, by engine", engine),
        })
    }

    /// Joins built engines into one that scores all of their lanes in a
    /// single pass: their tables are interned into one union set, so no
    /// query is decoded again and the join cannot fail. The result's
    /// lanes are the engines' lanes in order; its telemetry goes to the
    /// first engine's counters.
    ///
    /// # Panics
    ///
    /// Panics unless `engines` hold 1 ..= [`LANES`] lanes in total.
    pub fn join(engines: &[&BitParallelEngine]) -> BitParallelEngine {
        let mut tables: Vec<u64> = Vec::new();
        let mut lanes = Vec::new();
        for engine in engines {
            let slots: Vec<u16> = engine
                .tables
                .iter()
                .map(|&table| intern_table(&mut tables, table))
                .collect();
            for lane in &engine.lanes {
                lanes.push(Lane {
                    element_table: lane
                        .element_table
                        .iter()
                        .map(|&s| slots[usize::from(s)])
                        .collect(),
                    nplanes: lane.nplanes,
                });
            }
        }
        assert!(
            (1..=LANES).contains(&lanes.len()),
            "1..={LANES} lanes per engine, got {}",
            lanes.len()
        );
        let first = engines[0];
        BitParallelEngine {
            evals: tables.iter().map(|&t| TableEval::plan(t)).collect(),
            tables,
            lanes,
            queries_ctr: first.queries_ctr.clone(),
            residues_ctr: first.residues_ctr.clone(),
            hits_ctr: first.hits_ctr.clone(),
        }
    }

    /// Number of lanes: queries scored per pass (1 ..= [`LANES`]).
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Query length in elements; for a joined engine the longest lane's,
    /// the window slices of the reference must overlap by.
    pub fn query_len(&self) -> usize {
        self.lanes
            .iter()
            .map(|lane| lane.element_table.len())
            .max()
            .unwrap_or(0)
    }

    /// Number of distinct comparator tables (≤ 12 for protein queries,
    /// however many lanes share them).
    pub fn distinct_tables(&self) -> usize {
        self.tables.len()
    }

    /// Scans the reference with the fused, tiled, bit-sliced pass,
    /// reporting hits with `score >= threshold`.
    ///
    /// # Panics
    ///
    /// Panics if the engine holds more than one lane; a joined engine
    /// scans with [`BitParallelEngine::search_lanes`].
    pub fn search(&self, reference: &[Nucleotide], threshold: u32) -> Vec<Hit> {
        self.search_lanes(reference, &[threshold]).swap_remove(0)
    }

    /// Scans the reference once, scoring every lane against its own
    /// threshold (`thresholds[l]` applies to lane `l`). Returns one
    /// position-sorted hit list per lane, each bit-identical to what that
    /// lane's query reports through its own one-lane engine.
    ///
    /// # Panics
    ///
    /// Panics if `thresholds.len() != self.lanes()`.
    pub fn search_lanes(&self, reference: &[Nucleotide], thresholds: &[u32]) -> Vec<Vec<Hit>> {
        assert_eq!(thresholds.len(), self.lanes.len(), "one threshold per lane");
        let mut results: Vec<Vec<Hit>> = vec![Vec::new(); self.lanes.len()];
        // Alignment positions per lane: none for a lane longer than the
        // reference.
        let mut lane_positions = [0usize; LANES];
        for (positions, lane) in lane_positions.iter_mut().zip(&self.lanes) {
            *positions = (reference.len() + 1).saturating_sub(lane.element_table.len());
        }
        let positions = lane_positions.iter().copied().max().unwrap_or(0);
        if positions == 0 {
            return results;
        }
        self.queries_ctr.add(self.lanes.len() as u64);
        self.residues_ctr
            .add(lane_positions.iter().map(|&p| p as u64).sum());

        let qlen = self.query_len();
        let tile_positions = TILE_BLOCKS * 64;
        // Extra words holding the longest lane's `L_q − 1` cross-tile
        // overlap bits, plus the 2-word padding `read_unaligned` requires.
        let tile_words = TILE_BLOCKS + (qlen - 1).div_ceil(64) + 2;
        // One flat allocation for the whole scan: the tile ring, one row
        // per distinct table. Invariant maintained below: every bit at a
        // relative position >= the encode frontier is zero, so filling
        // can OR bits in.
        let mut cols = vec![0u64; self.tables.len() * tile_words];

        // Next reference element to run through the comparator columns.
        let mut frontier = 0usize;
        for tile_start in (0..positions).step_by(tile_positions) {
            let tile_valid = (positions - tile_start).min(tile_positions);
            let need_until = (tile_start + tile_positions + qlen - 1).min(reference.len());
            if tile_start > 0 {
                // Recycle the ring: the already-encoded overlap bits
                // (relative positions >= tile_positions) slide from word
                // offset TILE_BLOCKS to the front; the vacated tail is
                // cleared for the new tile's columns.
                for buf in cols.chunks_exact_mut(tile_words) {
                    buf.copy_within(TILE_BLOCKS.., 0);
                    buf[tile_words - TILE_BLOCKS..].fill(0);
                }
            }
            debug_assert!(frontier >= tile_start && frontier <= need_until);
            // Fused pass 1, shared by every lane: extend the comparator
            // columns to this tile's horizon, **bit-sliced**. Each
            // 64-element word of the reference is packed into 2-bit
            // nucleotide planes, expanded into one-hot bit masks for the
            // current / previous / previous-previous element
            // (`e0`/`e1`/`e2`, with cross-word carry-in from the last
            // elements of the preceding word), and every distinct table
            // evaluates all 64 comparator outputs at once through its
            // factored [`TableEval`] plan — no per-element table lookups
            // at all.
            //
            // The word walk restarts at the 64-aligned floor of the
            // frontier; recomputing the already-encoded prefix of that word
            // is safe because the fill is a deterministic function of the
            // reference, so OR-ing the word in again is idempotent.
            // `tile_start` is a multiple of `TILE_BLOCKS * 64`, hence
            // `rel ≡ p (mod 64)` and word slots line up exactly.
            for w_pos in ((frontier & !63)..need_until).step_by(64) {
                let end = (w_pos + 64).min(reference.len());
                let mut b0 = 0u64;
                let mut b1 = 0u64;
                for (i, base) in reference[w_pos..end].iter().enumerate() {
                    let c = u64::from(base.code2());
                    b0 |= (c & 1) << i;
                    b1 |= (c >> 1) << i;
                }
                let (n0, n1) = (!b0, !b1);
                // One-hot planes: e0[v] has bit i set iff element
                // w_pos + i is nucleotide code v.
                let e0 = [n1 & n0, n1 & b0, b1 & n0, b1 & b0];
                // Previous-element planes: shifted e0 with carry-in from
                // the word boundary (positions before the reference start
                // backfill as code 0, matching the rolling ctx = 0 seed).
                let pc1 = prev_code(reference, w_pos, 1);
                let pc2 = prev_code(reference, w_pos, 2);
                let mut e1 = [0u64; 4];
                let mut e2 = [0u64; 4];
                for v in 0..4 {
                    e1[v] = (e0[v] << 1) | u64::from(pc1 == v as u8);
                    e2[v] =
                        (e0[v] << 2) | (u64::from(pc1 == v as u8) << 1) | u64::from(pc2 == v as u8);
                }
                let word = (w_pos - tile_start) / 64;
                for (t, eval) in self.evals.iter().enumerate() {
                    let m = eval.eval(&e0, &e1, &e2);
                    if m != 0 {
                        cols[t * tile_words + word] |= m;
                    }
                }
            }
            frontier = need_until;

            // Fused pass 2: vertical-counter accumulation and bit-sliced
            // thresholding, 64 positions per block, straight out of the
            // still-hot tile ring. Each lane runs its own counter loop —
            // its own plane count, carry exit and 16-element early
            // abandon — over the shared tile. An interleaved
            // `[u64; LANES]` ripple was tried first and measured ~3×
            // slower per lane: rippling the full lane array per element
            // forfeits the per-lane all-zero-carry exit and keeps every
            // lane accumulating until the *last* lane abandons (see
            // docs/PERFORMANCE.md). Lane independence is what makes this
            // exact: counters never interact across lanes, only the column
            // fill is shared.
            for block in (0..tile_valid).step_by(64) {
                'lanes: for (l, lane) in self.lanes.iter().enumerate() {
                    let valid = lane_positions[l].saturating_sub(tile_start + block).min(64);
                    if valid == 0 {
                        continue;
                    }
                    let valid_mask = u64::MAX >> (64 - valid);
                    let threshold = thresholds[l];
                    let mut plane_store = [0u64; MAX_PLANES];
                    let planes = &mut plane_store[..lane.nplanes];
                    let mut saturated = 0u64;
                    for (i, &slot) in lane.element_table.iter().enumerate() {
                        let col =
                            &cols[slot as usize * tile_words..(slot as usize + 1) * tile_words];
                        // Bit-sliced increment: add the match mask into the
                        // counters (ripple across planes, early exit once
                        // the carry clears; a carry out of the top plane
                        // saturates instead of wrapping).
                        let mut carry = read_unaligned(col, block + i);
                        for plane in planes.iter_mut() {
                            if carry == 0 {
                                break;
                            }
                            let t = *plane & carry;
                            *plane ^= carry;
                            carry = t;
                        }
                        saturated |= carry;
                        // Bit-sliced early abandon (the 64-position analogue of
                        // the scalar mismatch-budget exit): a position can
                        // still reach the threshold only if its counter is
                        // already at `threshold − remaining`. Once no valid
                        // position can, the rest of the block's
                        // accumulation is dead work.
                        if i & 15 == 15 {
                            let remaining = (lane.element_table.len() - 1 - i) as u32;
                            let needed = threshold.saturating_sub(remaining);
                            if needed > 0
                                && (ge_threshold_mask(planes, needed) | saturated) & valid_mask == 0
                            {
                                continue 'lanes;
                            }
                        }
                    }
                    // O(planes) word ops produce the 64-position hit mask;
                    // only set positions pay for score extraction.
                    let mut hit_mask =
                        (ge_threshold_mask(planes, threshold) | saturated) & valid_mask;
                    while hit_mask != 0 {
                        let j = hit_mask.trailing_zeros() as usize;
                        hit_mask &= hit_mask - 1;
                        let score = if (saturated >> j) & 1 == 1 {
                            ((1u64 << lane.nplanes) - 1) as u32
                        } else {
                            let mut s = 0u32;
                            for (b, &plane) in planes.iter().enumerate() {
                                s |= (((plane >> j) & 1) as u32) << b;
                            }
                            s
                        };
                        results[l].push(Hit {
                            position: tile_start + block + j,
                            score,
                        });
                    }
                }
            }
        }
        self.hits_ctr
            .add(results.iter().map(|hits| hits.len() as u64).sum());
        results
    }

    /// The original two-pass scan: pass 1 materialises full-length column
    /// bitvectors on the heap, pass 2 accumulates vertical counters and
    /// extracts every score bit-by-bit.
    ///
    /// Kept (without telemetry) as the differential-testing oracle for
    /// [`BitParallelEngine::search`] and as the baseline the `bench_perf`
    /// harness measures the fused path against. Scores above
    /// `2^MAX_PLANES − 1` saturate, matching the fused path.
    ///
    /// # Panics
    ///
    /// Panics if the engine holds more than one lane.
    pub fn search_two_pass(&self, reference: &[Nucleotide], threshold: u32) -> Vec<Hit> {
        let [lane] = self.lanes.as_slice() else {
            panic!(
                "the two-pass oracle scores one lane, not {}",
                self.lanes.len()
            );
        };
        let qlen = lane.element_table.len();
        if reference.len() < qlen {
            return Vec::new();
        }
        let positions = reference.len() - qlen + 1;
        let words = reference.len().div_ceil(64) + 2; // padding for shifts

        // Pass 1: comparator output columns, one bitvector per distinct
        // table: W_t[p] = table[ctx(p)].
        let mut columns: Vec<Vec<u64>> = vec![vec![0u64; words]; self.tables.len()];
        let mut ctx: u8 = 0;
        for (p, &base) in reference.iter().enumerate() {
            ctx = ((ctx << 2) | base.code2()) & 0b11_1111;
            let word = p / 64;
            let bit = p % 64;
            for (t, &table) in self.tables.iter().enumerate() {
                columns[t][word] |= ((table >> ctx) & 1) << bit;
            }
        }

        // Pass 2: vertical-counter accumulation, 64 positions per block.
        let mut hits = Vec::new();
        let mut block_base = 0usize;
        while block_base < positions {
            let valid = (positions - block_base).min(64);
            let mut plane_store = [0u64; MAX_PLANES];
            let planes = &mut plane_store[..lane.nplanes];
            let mut saturated = 0u64;
            for (i, &slot) in lane.element_table.iter().enumerate() {
                let mut carry = read_unaligned(&columns[slot as usize], block_base + i);
                for plane in planes.iter_mut() {
                    if carry == 0 {
                        break;
                    }
                    let t = *plane & carry;
                    *plane ^= carry;
                    carry = t;
                }
                saturated |= carry;
            }
            // Extract scores and threshold, position by position.
            for j in 0..valid {
                let mut score = 0u32;
                for (b, &plane) in planes.iter().enumerate() {
                    score |= (((plane >> j) & 1) as u32) << b;
                }
                if (saturated >> j) & 1 == 1 {
                    score = ((1u64 << lane.nplanes) - 1) as u32;
                }
                if score >= threshold || (saturated >> j) & 1 == 1 {
                    hits.push(Hit {
                        position: block_base + j,
                        score,
                    });
                }
            }
            block_base += 64;
        }
        hits
    }
}

/// Per-element fused 64-entry comparator tables for one encoded query
/// (bit `ctx = prev2 << 4 | prev1 << 2 | cur`), validating that no
/// context-dependent element sits at index 0 or 1 and that every score
/// fits the counters.
fn fused_element_tables(query: &EncodedQuery) -> Result<Vec<u64>, UnsupportedQuery> {
    let elements = query.decode();
    if elements.len() > MAX_QUERY_LEN {
        return Err(UnsupportedQuery {
            element_index: MAX_QUERY_LEN,
        });
    }
    let mut tables = Vec::with_capacity(elements.len());
    for (i, &element) in elements.elements().iter().enumerate() {
        if i < 2 {
            if let PatternElement::Dependent(f) = element {
                if f != DependentFn::Any {
                    return Err(UnsupportedQuery { element_index: i });
                }
            }
        }
        let mut table = 0u64;
        for ctx in 0..64u8 {
            let cur = Nucleotide::from_code2(ctx & 0b11);
            let prev1 = Some(Nucleotide::from_code2((ctx >> 2) & 0b11));
            let prev2 = Some(Nucleotide::from_code2((ctx >> 4) & 0b11));
            if element.matches(cur, prev1, prev2) {
                table |= 1 << ctx;
            }
        }
        tables.push(table);
    }
    Ok(tables)
}

/// Interns `table` into `tables`, returning its slot.
fn intern_table(tables: &mut Vec<u64>, table: u64) -> u16 {
    match tables.iter().position(|&t| t == table) {
        Some(slot) => slot as u16,
        None => {
            tables.push(table);
            (tables.len() - 1) as u16
        }
    }
}

/// Factored bit-sliced evaluation plan for one fused 64-entry comparator
/// table, exploiting the structure of back-translated pattern elements:
/// `Exact`/`Conditional` tables ignore context entirely (`CurOnly`),
/// `Dependent(Stop)` looks one element back (`Prev1`), `Dependent(Leu)` /
/// `Dependent(Arg)` look two back (`Prev2`). Each variant stores, per
/// previous-nucleotide digit, the 4-bit set of *current* nucleotides the
/// table accepts, so 64 comparator outputs cost a handful of AND/OR word
/// operations instead of 64 table lookups.
#[derive(Debug, Clone, PartialEq, Eq)]
enum TableEval {
    /// Output depends only on the current nucleotide: accepted-set mask.
    CurOnly(u8),
    /// Output depends on (prev1, cur): accepted-cur set per prev1 digit.
    Prev1([u8; 4]),
    /// Output depends on (prev2, cur): accepted-cur set per prev2 digit.
    Prev2([u8; 4]),
    /// Full (prev2, prev1, cur) dependence: accepted-cur set per
    /// (prev2, prev1) pair. Unreachable for protein-derived queries but
    /// kept for completeness.
    General([u8; 16]),
}

impl TableEval {
    /// Factors a fused table (bit `ctx = prev2 << 4 | prev1 << 2 | cur`)
    /// into the cheapest evaluation plan that reproduces it exactly.
    fn plan(table: u64) -> TableEval {
        let mut sets = [0u8; 16];
        for v2 in 0..4usize {
            for v1 in 0..4usize {
                for v0 in 0..4usize {
                    let ctx = (v2 << 4) | (v1 << 2) | v0;
                    if (table >> ctx) & 1 == 1 {
                        sets[v2 * 4 + v1] |= 1 << v0;
                    }
                }
            }
        }
        if sets.iter().all(|&s| s == sets[0]) {
            return TableEval::CurOnly(sets[0]);
        }
        if (0..4).all(|v1| (0..4).all(|v2| sets[v2 * 4 + v1] == sets[v1])) {
            return TableEval::Prev1([sets[0], sets[1], sets[2], sets[3]]);
        }
        if (0..4).all(|v2| (0..4).all(|v1| sets[v2 * 4 + v1] == sets[v2 * 4])) {
            return TableEval::Prev2([sets[0], sets[4], sets[8], sets[12]]);
        }
        TableEval::General(sets)
    }

    /// Evaluates the table for 64 reference elements at once from the
    /// one-hot current / prev1 / prev2 nucleotide planes.
    #[inline]
    fn eval(&self, e0: &[u64; 4], e1: &[u64; 4], e2: &[u64; 4]) -> u64 {
        match *self {
            TableEval::CurOnly(set) => cur_mask(e0, set),
            TableEval::Prev1(sets) => {
                let mut r = 0u64;
                for (v, &set) in sets.iter().enumerate() {
                    let m = cur_mask(e0, set);
                    if m != 0 {
                        r |= e1[v] & m;
                    }
                }
                r
            }
            TableEval::Prev2(sets) => {
                let mut r = 0u64;
                for (v, &set) in sets.iter().enumerate() {
                    let m = cur_mask(e0, set);
                    if m != 0 {
                        r |= e2[v] & m;
                    }
                }
                r
            }
            TableEval::General(sets) => {
                let mut r = 0u64;
                for v2 in 0..4 {
                    for v1 in 0..4 {
                        let m = cur_mask(e0, sets[v2 * 4 + v1]);
                        if m != 0 {
                            r |= e2[v2] & e1[v1] & m;
                        }
                    }
                }
                r
            }
        }
    }
}

/// Lane mask of elements whose current nucleotide is in `set` (bit `v`
/// set ⇔ code `v` accepted), from the one-hot current planes.
#[inline]
fn cur_mask(e0: &[u64; 4], set: u8) -> u64 {
    match set {
        0 => 0,
        // The e0 planes partition every valid lane; invalid tail lanes of
        // a final partial word may pick up spurious bits here, but those
        // relative positions are never read by pass 2.
        0b1111 => u64::MAX,
        _ => {
            let mut m = 0u64;
            for (v, &plane) in e0.iter().enumerate() {
                if set & (1 << v) != 0 {
                    m |= plane;
                }
            }
            m
        }
    }
}

/// 2-bit code of the element `back` positions before `pos`, backfilling
/// code 0 before the reference start (the rolling-context seed).
#[inline]
fn prev_code(reference: &[Nucleotide], pos: usize, back: usize) -> u8 {
    if pos >= back {
        reference[pos - back].code2()
    } else {
        0
    }
}

/// Bit-sliced `score >= threshold` over 64 lanes in `O(planes)` word
/// operations: computes the borrow of `score − threshold` per lane
/// (full-subtractor recurrence) — lanes without a final borrow meet the
/// threshold.
#[inline]
fn ge_threshold_mask(planes: &[u64], threshold: u32) -> u64 {
    if threshold == 0 {
        return u64::MAX;
    }
    debug_assert!(planes.len() < 64);
    if u64::from(threshold) > (1u64 << planes.len()) - 1 {
        // Unreachable by any unsaturated counter.
        return 0;
    }
    let mut borrow = 0u64;
    for (b, &s) in planes.iter().enumerate() {
        let t = if (threshold >> b) & 1 == 1 {
            u64::MAX
        } else {
            0
        };
        borrow = (!s & t) | ((!s | t) & borrow);
    }
    !borrow
}

/// Reads 64 bits starting at bit offset `bit_pos` from a padded word
/// vector.
///
/// Callers must size `words` with **two padding words** past the last
/// addressed position so the unconditional `words[word + 1]` access in
/// the unaligned branch stays in bounds; the invariant is debug-asserted.
#[inline]
fn read_unaligned(words: &[u64], bit_pos: usize) -> u64 {
    let word = bit_pos / 64;
    debug_assert!(
        word + 1 < words.len(),
        "read_unaligned at bit {bit_pos} violates the 2-word padding invariant \
         (word {word}, len {})",
        words.len()
    );
    let off = bit_pos % 64;
    if off == 0 {
        words[word]
    } else {
        (words[word] >> off) | (words[word + 1] << (64 - off))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabp_bio::backtranslate::BackTranslatedQuery;
    use fabp_bio::generate::{random_protein, random_rna};
    use fabp_encoding::fused::FusedScorer;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Positions covered by one tile, mirrored from the engine constant so
    /// tests exercise real tile boundaries.
    const TILE_POSITIONS: usize = TILE_BLOCKS * 64;

    /// The scalar oracle: the thresholded [`FusedScorer`] scan that
    /// `fabp-core`'s `SoftwareEngine` wraps, one window at a time.
    struct ScalarScan(FusedScorer);

    impl ScalarScan {
        fn new(query: &EncodedQuery) -> ScalarScan {
            ScalarScan(FusedScorer::build(&query.decode()))
        }

        fn search(&self, reference: &[Nucleotide], threshold: u32) -> Vec<Hit> {
            let positions = (reference.len() + 1).saturating_sub(self.0.len());
            (0..positions)
                .filter_map(|position| {
                    self.0
                        .score_window_thresholded(&reference[position..], threshold)
                        .map(|score| Hit { position, score })
                })
                .collect()
        }

        fn score_all(&self, reference: &[Nucleotide]) -> Vec<u32> {
            self.0.score_all_positions(reference)
        }
    }

    /// One engine joining a one-lane engine per query, as the batch
    /// scheduler builds its lane groups.
    fn joined(queries: &[EncodedQuery]) -> BitParallelEngine {
        let engines: Vec<BitParallelEngine> = queries
            .iter()
            .map(|q| BitParallelEngine::new(q).unwrap())
            .collect();
        BitParallelEngine::join(&engines.iter().collect::<Vec<_>>())
    }

    #[test]
    fn matches_scalar_engine_on_random_data() {
        let mut rng = StdRng::seed_from_u64(0xB17A);
        for _ in 0..5 {
            let protein = random_protein(20, &mut rng);
            let query = EncodedQuery::from_protein(&protein);
            let scalar = ScalarScan::new(&query);
            let parallel = BitParallelEngine::new(&query).unwrap();
            let reference = random_rna(5_000, &mut rng);
            for threshold in [0u32, 30, 45, 60] {
                let fused = parallel.search(reference.as_slice(), threshold);
                assert_eq!(
                    fused,
                    scalar.search(reference.as_slice(), threshold),
                    "threshold {threshold}"
                );
                assert_eq!(
                    fused,
                    parallel.search_two_pass(reference.as_slice(), threshold),
                    "two-pass oracle disagrees at threshold {threshold}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The fused/tiled path agrees with the scalar engine across
        /// tile-boundary-straddling reference lengths and *all* threshold
        /// values `0..=qlen`.
        #[test]
        fn fused_tiled_path_matches_scalar(
            protein_len in 3usize..=12,
            len_class in 0usize..6,
            jitter in 0usize..130,
            seed in 0u64..1_000_000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let protein = random_protein(protein_len, &mut rng);
            let query = EncodedQuery::from_protein(&protein);
            let qlen = query.len();
            // Length families: shorter than the query, exactly the query,
            // block-edge, straddling one tile boundary, straddling two.
            let len = match len_class {
                0 => qlen.saturating_sub(jitter % 3),
                1 => qlen + jitter % 4,
                2 => qlen - 1 + 64 * (1 + jitter % 4), // positions % 64 == 0
                3 => qlen - 1 + TILE_POSITIONS - 65 + jitter,
                4 => qlen - 1 + TILE_POSITIONS + jitter,
                _ => qlen - 1 + 2 * TILE_POSITIONS - 65 + jitter,
            };
            let reference = random_rna(len, &mut rng);
            let scalar = ScalarScan::new(&query);
            let parallel = BitParallelEngine::new(&query).unwrap();

            if len < qlen {
                prop_assert!(parallel.search(reference.as_slice(), 0).is_empty());
            } else {
                // One scalar scoring pass; thresholds derived by filtering.
                let scores = scalar.score_all(reference.as_slice());
                for threshold in 0..=qlen as u32 {
                    let expected: Vec<Hit> = scores
                        .iter()
                        .enumerate()
                        .filter(|&(_, &s)| s >= threshold)
                        .map(|(position, &score)| Hit { position, score })
                        .collect();
                    let fused = parallel.search(reference.as_slice(), threshold);
                    prop_assert_eq!(
                        &fused, &expected,
                        "len {} threshold {}", len, threshold
                    );
                }
            }
        }
    }

    #[test]
    fn block_boundaries_are_exact() {
        // References sized to hit 64-position block edges exactly.
        let mut rng = StdRng::seed_from_u64(0xB17B);
        let protein = random_protein(5, &mut rng);
        let query = EncodedQuery::from_protein(&protein);
        let scalar = ScalarScan::new(&query);
        let parallel = BitParallelEngine::new(&query).unwrap();
        for len in [15usize, 64, 78, 79, 128, 142, 143, 200] {
            let reference = random_rna(len, &mut rng);
            assert_eq!(
                parallel.search(reference.as_slice(), 0),
                scalar.search(reference.as_slice(), 0),
                "len {len}"
            );
        }
    }

    #[test]
    fn positions_multiple_of_64_boundary_is_exact() {
        // positions % 64 == 0: the final block is exactly full, so the
        // lane mask must be all-ones and the overhang reads must stay
        // within the padded ring.
        let mut rng = StdRng::seed_from_u64(0xB17D);
        let protein = random_protein(7, &mut rng);
        let query = EncodedQuery::from_protein(&protein);
        let qlen = query.len();
        let scalar = ScalarScan::new(&query);
        let parallel = BitParallelEngine::new(&query).unwrap();
        for blocks in [1usize, 2, TILE_BLOCKS, TILE_BLOCKS + 1] {
            let len = qlen - 1 + blocks * 64; // positions == blocks * 64
            let reference = random_rna(len, &mut rng);
            for threshold in [0u32, (qlen / 2) as u32, qlen as u32] {
                assert_eq!(
                    parallel.search(reference.as_slice(), threshold),
                    scalar.search(reference.as_slice(), threshold),
                    "blocks {blocks} threshold {threshold}"
                );
            }
        }
    }

    #[test]
    fn reference_exactly_query_length_is_exact() {
        // reference length == qlen: a single alignment position.
        let mut rng = StdRng::seed_from_u64(0xB17E);
        for _ in 0..10 {
            let protein = random_protein(6, &mut rng);
            let query = EncodedQuery::from_protein(&protein);
            let qlen = query.len();
            let scalar = ScalarScan::new(&query);
            let parallel = BitParallelEngine::new(&query).unwrap();
            let reference = random_rna(qlen, &mut rng);
            for threshold in [0u32, 1, qlen as u32] {
                let hits = parallel.search(reference.as_slice(), threshold);
                assert_eq!(
                    hits,
                    scalar.search(reference.as_slice(), threshold),
                    "threshold {threshold}"
                );
                assert!(hits.iter().all(|h| h.position == 0));
            }
        }
    }

    #[test]
    fn tile_boundary_straddling_hits_are_exact() {
        // Plant perfect hits right at the tile seam so windows straddle
        // the recycled overlap.
        let mut rng = StdRng::seed_from_u64(0xB17F);
        let protein = random_protein(10, &mut rng);
        let query = EncodedQuery::from_protein(&protein);
        let qlen = query.len();
        let scalar = ScalarScan::new(&query);
        let parallel = BitParallelEngine::new(&query).unwrap();
        let len = qlen - 1 + TILE_POSITIONS + 500;
        let reference = random_rna(len, &mut rng);
        for threshold in [0u32, (qlen as u32) / 2, qlen as u32 - 1] {
            assert_eq!(
                parallel.search(reference.as_slice(), threshold),
                scalar.search(reference.as_slice(), threshold),
                "threshold {threshold}"
            );
        }
    }

    #[test]
    fn distinct_table_count_is_small() {
        let mut rng = StdRng::seed_from_u64(0xB17C);
        let protein = random_protein(250, &mut rng);
        let query = EncodedQuery::from_protein(&protein);
        let engine = BitParallelEngine::new(&query).unwrap();
        assert!(
            engine.distinct_tables() <= 12,
            "{} distinct tables",
            engine.distinct_tables()
        );
    }

    #[test]
    fn early_dependent_element_is_rejected() {
        use fabp_bio::backtranslate::{DependentFn, PatternElement};
        let elements = vec![
            PatternElement::Dependent(DependentFn::Leu),
            PatternElement::Exact(Nucleotide::A),
            PatternElement::Exact(Nucleotide::A),
        ];
        let query =
            EncodedQuery::from_back_translated(&BackTranslatedQuery::from_elements(elements));
        let err = BitParallelEngine::new(&query).unwrap_err();
        assert_eq!(err.element_index, 0);
        assert!(err.to_string().contains("no fused comparator table"));
    }

    #[test]
    fn overlong_query_is_rejected_instead_of_saturating() {
        let rna: fabp_bio::seq::RnaSeq =
            std::iter::repeat_n(Nucleotide::A, MAX_QUERY_LEN + 1).collect();
        let err = BitParallelEngine::new(&EncodedQuery::from_exact_rna(&rna)).unwrap_err();
        assert_eq!(err.element_index, MAX_QUERY_LEN);
        assert!(err.to_string().contains("overflow"));
        let longest: fabp_bio::seq::RnaSeq =
            std::iter::repeat_n(Nucleotide::A, MAX_QUERY_LEN).collect();
        assert!(BitParallelEngine::new(&EncodedQuery::from_exact_rna(&longest)).is_ok());
    }

    #[test]
    fn d_element_in_front_is_fine() {
        use fabp_bio::backtranslate::{DependentFn, PatternElement};
        let elements = vec![
            PatternElement::Dependent(DependentFn::Any),
            PatternElement::Exact(Nucleotide::G),
        ];
        let query =
            EncodedQuery::from_back_translated(&BackTranslatedQuery::from_elements(elements));
        let engine = BitParallelEngine::new(&query).unwrap();
        let reference: fabp_bio::seq::RnaSeq = "UGAG".parse().unwrap();
        let hits = engine.search(reference.as_slice(), 2);
        // Windows: UG (D matches U, G ✓), GA (✗ second), AG (✓).
        assert_eq!(
            hits.iter().map(|h| h.position).collect::<Vec<_>>(),
            vec![0, 2]
        );
    }

    #[test]
    fn short_reference_is_empty() {
        let protein = "MKW".parse().unwrap();
        let query = EncodedQuery::from_protein(&protein);
        let engine = BitParallelEngine::new(&query).unwrap();
        let reference = random_rna(5, &mut StdRng::seed_from_u64(1));
        assert!(engine.search(reference.as_slice(), 0).is_empty());
    }

    #[test]
    fn ge_threshold_mask_is_exact() {
        // Exhaustive over small plane counts: pack counter values into
        // lanes, compare against the scalar predicate.
        for nplanes in 1..=6usize {
            let max = (1u32 << nplanes) - 1;
            let mut planes = vec![0u64; nplanes];
            // Lane j holds value j % (max + 1).
            for j in 0..64u32 {
                let v = j % (max + 1);
                for (b, plane) in planes.iter_mut().enumerate() {
                    *plane |= u64::from((v >> b) & 1) << j;
                }
            }
            for threshold in 0..=max + 1 {
                let mask = ge_threshold_mask(&planes, threshold);
                for j in 0..64u32 {
                    let v = j % (max + 1);
                    assert_eq!(
                        (mask >> j) & 1 == 1,
                        v >= threshold,
                        "nplanes {nplanes} threshold {threshold} lane {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn multiquery_lanes_match_single_engines() {
        // Four queries of different lengths, one shared pass: every lane
        // must be bit-identical to its own single-query engine at its own
        // threshold.
        let mut rng = StdRng::seed_from_u64(0xB17F);
        let proteins: Vec<_> = [5usize, 9, 12, 20]
            .iter()
            .map(|&aa| random_protein(aa, &mut rng))
            .collect();
        let queries: Vec<_> = proteins.iter().map(EncodedQuery::from_protein).collect();
        let multi = joined(&queries);
        assert_eq!(multi.lanes(), 4);
        assert_eq!(multi.query_len(), queries[3].len());
        let reference = random_rna(10_000, &mut rng);
        let thresholds: Vec<u32> = queries.iter().map(|q| (q.len() as u32) * 2 / 3).collect();
        let got = multi.search_lanes(reference.as_slice(), &thresholds);
        for (l, query) in queries.iter().enumerate() {
            let single = BitParallelEngine::new(query).unwrap();
            assert_eq!(
                got[l],
                single.search_two_pass(reference.as_slice(), thresholds[l]),
                "lane {l} disagrees with its single-query oracle"
            );
        }
    }

    #[test]
    fn multiquery_partial_occupancy_and_short_references() {
        // 1-, 2- and 3-lane groups (the ragged tail the batch layer
        // produces), including references shorter than the longest lane
        // but not the shortest.
        let mut rng = StdRng::seed_from_u64(0xB180);
        for nlanes in 1..=3usize {
            let proteins: Vec<_> = (0..nlanes)
                .map(|i| random_protein(4 + 6 * i, &mut rng))
                .collect();
            let queries: Vec<_> = proteins.iter().map(EncodedQuery::from_protein).collect();
            let multi = joined(&queries);
            let max_qlen = multi.query_len();
            for len in [0usize, 5, max_qlen - 1, max_qlen, max_qlen + 100] {
                let reference = random_rna(len, &mut rng);
                let thresholds = vec![3u32; nlanes];
                let got = multi.search_lanes(reference.as_slice(), &thresholds);
                assert_eq!(got.len(), nlanes);
                for (l, query) in queries.iter().enumerate() {
                    let single = BitParallelEngine::new(query).unwrap();
                    assert_eq!(
                        got[l],
                        single.search_two_pass(reference.as_slice(), 3),
                        "lanes {nlanes} len {len} lane {l}"
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Multi-query lanes are bit-identical to per-lane `search_two_pass`
        /// across lane counts, ragged query lengths, per-lane thresholds and
        /// tile-boundary-straddling reference lengths.
        #[test]
        fn multiquery_matches_two_pass_oracle(
            nlanes in 1usize..=LANES,
            len_a in 3usize..=15,
            len_b in 3usize..=15,
            len_c in 3usize..=15,
            len_d in 3usize..=15,
            len_class in 0usize..4,
            jitter in 0usize..130,
            seed in 0u64..1_000_000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let lens = [len_a, len_b, len_c, len_d];
            let proteins: Vec<_> = lens[..nlanes]
                .iter()
                .map(|&aa| random_protein(aa, &mut rng))
                .collect();
            let queries: Vec<_> = proteins
                .iter()
                .map(EncodedQuery::from_protein)
                .collect();
            let multi = joined(&queries);
            let max_qlen = multi.query_len();
            let len = match len_class {
                0 => max_qlen.saturating_sub(jitter % 5),
                1 => max_qlen + jitter % 70,
                2 => max_qlen - 1 + TILE_POSITIONS - 65 + jitter,
                _ => max_qlen - 1 + TILE_POSITIONS + jitter,
            };
            let reference = random_rna(len, &mut rng);
            let thresholds: Vec<u32> = queries
                .iter()
                .enumerate()
                .map(|(l, q)| (q.len() as u32).saturating_sub(1 + (l as u32 + jitter as u32) % 7))
                .collect();
            let got = multi.search_lanes(reference.as_slice(), &thresholds);
            for (l, query) in queries.iter().enumerate() {
                let single = BitParallelEngine::new(query).unwrap();
                prop_assert_eq!(
                    &got[l],
                    &single.search_two_pass(reference.as_slice(), thresholds[l]),
                    "nlanes {} len {} lane {}", nlanes, len, l
                );
            }
        }
    }

    #[test]
    fn multiquery_unions_distinct_tables() {
        // Identical queries in every lane intern down to one query's worth
        // of tables — the amortization the lane pass depends on.
        let mut rng = StdRng::seed_from_u64(0xB181);
        let protein = random_protein(10, &mut rng);
        let query = EncodedQuery::from_protein(&protein);
        let single = BitParallelEngine::new(&query).unwrap();
        let multi = BitParallelEngine::join(&[&single, &single, &single, &single]);
        assert_eq!(multi.distinct_tables(), single.distinct_tables());
        assert!(multi.distinct_tables() <= MAX_TABLES);
    }

    #[test]
    fn joined_engines_join_again_and_count_one_query_per_lane() {
        // A join of joined engines keeps every lane exact, and one pass
        // counts one query per lane under the `bitparallel` label.
        let mut rng = StdRng::seed_from_u64(0xB182);
        let registry = Registry::new();
        let singles: Vec<BitParallelEngine> = (0..LANES)
            .map(|i| {
                let query = EncodedQuery::from_protein(&random_protein(5 + 3 * i, &mut rng));
                BitParallelEngine::with_registry(&query, &registry).unwrap()
            })
            .collect();
        let pair = BitParallelEngine::join(&[&singles[0], &singles[1]]);
        let four = BitParallelEngine::join(&[&pair, &singles[2], &singles[3]]);
        assert_eq!(four.lanes(), LANES);
        let reference = random_rna(3_000, &mut rng);
        let got = four.search_lanes(reference.as_slice(), &[4; LANES]);
        for (l, single) in singles.iter().enumerate() {
            assert_eq!(
                got[l],
                single.search_two_pass(reference.as_slice(), 4),
                "lane {l}"
            );
        }
        let text = registry.snapshot().to_prometheus();
        assert!(
            text.contains("fabp_queries_processed_total{engine=\"bitparallel\"} 4"),
            "{text}"
        );
    }

    #[test]
    #[should_panic(expected = "lanes per engine")]
    fn join_beyond_lanes_panics() {
        let query = EncodedQuery::from_protein(&"MKW".parse().unwrap());
        let one = BitParallelEngine::new(&query).unwrap();
        let full = BitParallelEngine::join(&[&one; LANES]);
        BitParallelEngine::join(&[&full, &one]);
    }
}
