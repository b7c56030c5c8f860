//! Bit-parallel (bit-sliced) software engine: the one fused scan.
//!
//! The FPGA evaluates 256 alignment instances simultaneously — one match
//! bit per (instance, element) — and reduces them with Pop-Counters, all
//! fed from one reference stream buffer. This engine is the same
//! computation transposed onto 64-bit words, executed as a **single
//! fused, tiled streaming pass** that scores any number of queries
//! (*lanes*) against one reference:
//!
//! 1. For every *distinct* comparator truth table used by any lane the
//!    engine materialises the comparator output column
//!    `W_t[p] = t(ctx(p))` — but only for an L1-sized *tile* of the
//!    reference at a time, and itself bit-sliced: 64 reference elements
//!    load from the 2-bit packed words with a funnel shift, their even
//!    and odd bits unzip into nucleotide bit-planes, and each table's factored
//!    [`TableEval`] plan computes all 64 comparator outputs in a handful
//!    of word operations. The lanes' tables are interned into one union
//!    set (protein-derived queries draw from at most 12 distinct tables,
//!    so a whole batch's union is no wider than one query's worst case),
//!    and this fill is paid once per tile whatever the lane count. The
//!    tile ring is recycled (`copy_within` of the `L_q`-element overlap)
//!    instead of allocating `O(reference)` heap vectors, so the working
//!    set stays cache-resident regardless of the reference size.
//! 2. Each 64-position block of the tile is scored lane by lane, adding
//!    the lane's shifted column slices into vertical (bit-sliced)
//!    counters — the Pop-Counter, carried out across 64 instances at
//!    once. Like Pop36's compressor tree, it first compresses: each
//!    group of 16 columns folds into the counter through fifteen
//!    carry-save adders (Harley–Seal), and only the group's sixteens
//!    word ripples into the upper planes. After each group, a lane
//!    abandons the block once no position can still reach its
//!    threshold. Each lane reads its columns through a *read plan* built
//!    with the engine: its most selective elements first (ascending
//!    table popcount, the match probability on a uniform reference), so
//!    the first group's abandon check ends almost every block, and
//!    without the elements whose table accepts every context, which
//!    match everywhere and add their count to every score instead. A
//!    plan entry packs the element's ring word offset and shift, and a
//!    column word is one funnel shift of two ring words.
//! 3. Thresholding is bit-sliced too: a borrow-propagating
//!    `score >= threshold` comparator produces the 64-position hit mask in
//!    `O(planes)` word operations (instead of extracting all 64 scores
//!    bit-by-bit), and the mask is walked with `trailing_zeros` so only
//!    actual hits pay for score extraction.
//!
//! The order of scoring cannot change a score: a score is a sum over
//! elements, and the counters hold `⌈log2(L_q + 1)⌉` planes, so they
//! never saturate. The abandon bound (`counter ≥ threshold − remaining`)
//! is necessary for a hit whichever elements were added first.
//!
//! The engine scans a base range of a [`PackedSeq`] (the FPGA streams the
//! same 2-bit words) as a reference of its own, positions relative to it.
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
//! path against; it reads unpacked bases, in element order.

use crate::engine::Hit;
use fabp_bio::alphabet::Nucleotide;
use fabp_bio::backtranslate::{DependentFn, PatternElement};
use fabp_bio::seq::PackedSeq;
use fabp_encoding::encoder::EncodedQuery;
use fabp_telemetry::{labels, Counter, Registry};
use std::ops::Range;

/// Maximum score-counter planes. The engine sizes its counters to the
/// query (`⌈log2(L_q + 1)⌉` planes — the hardware's 10-bit alignment
/// score of §IV-B corresponds to queries up to 1023 elements), capped
/// here; longer queries are rejected at construction
/// ([`MAX_QUERY_LEN`]), so no counter saturates.
const MAX_PLANES: usize = 16;

/// Longest query the engines accept: its score still fits
/// [`MAX_PLANES`] counter planes.
const MAX_QUERY_LEN: usize = (1 << MAX_PLANES) - 1;

/// 64-position blocks per tile. At ≤ 12 distinct tables this keeps the
/// column ring (`tables × (TILE_BLOCKS + overhang) × 8 B ≈ 14 KiB`)
/// inside a typical 32 KiB L1 data cache.
const TILE_BLOCKS: usize = 128;

/// Structural upper bound on distinct fused tables: 4 `Exact` + 4
/// `Conditional` + 4 `Dependent` pattern-element kinds. It bounds the
/// tile ring's rows however many lanes a join holds.
const MAX_TABLES: usize = 12;

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

/// The fused bit-parallel engine: one or more encoded queries scored
/// against one reference stream.
#[derive(Debug, Clone)]
pub struct BitParallelEngine {
    /// Distinct fused tables used by the lanes (their union).
    tables: Vec<u64>,
    /// Factored bit-sliced evaluation plan per distinct table: computes
    /// the comparator column for 64 reference elements at once from the
    /// nucleotide bit-planes, instead of one table lookup per element.
    evals: Vec<TableEval>,
    /// Words per tile-ring row: a tile's blocks plus the longest lane's
    /// `L_q − 1` overlap bits and two padding words. The lanes' read
    /// plans address the ring with it.
    ring_words: usize,
    /// The queries scored per pass.
    lanes: Vec<Lane>,
    /// Telemetry handles, registered once at construction so the scan
    /// loops pay only an atomic add per call (one registry lookup per
    /// engine lifetime, not per search).
    counters: ScanCounters,
}

/// The engine's telemetry handles.
#[derive(Debug, Clone)]
struct ScanCounters {
    queries: Counter,
    residues: Counter,
    hits: Counter,
}

/// One query of a [`BitParallelEngine`].
#[derive(Debug, Clone)]
struct Lane {
    /// Per query element: index into the engine's `tables`.
    element_table: Vec<u16>,
    /// Elements whose table accepts every context: they match at every
    /// position, so pass 2 adds their count to every score instead of
    /// reading their columns.
    always: u32,
    /// Pass 2's read plan: one entry per other element, most selective
    /// first, packing the element's column as `word << 6 | shift` — its
    /// ring word offset from a block's first word, and the bit shift
    /// within it ([`read_column`]).
    plan: Vec<u32>,
    /// Counter planes needed to represent scores up to the query length.
    nplanes: usize,
}

impl Lane {
    /// A lane over `element_table` (slots into `tables`), reading a ring
    /// of `ring_words`-word rows.
    fn new(element_table: Vec<u16>, tables: &[u64], ring_words: usize) -> Lane {
        let (order, always) = read_order(&element_table, tables);
        let plan = order
            .into_iter()
            .map(|i| {
                let word = usize::from(element_table[i]) * ring_words + i / 64;
                u32::try_from((word << 6) | (i % 64)).expect("the ring fits a packed plan entry")
            })
            .collect();
        let nplanes = (usize::BITS - element_table.len().leading_zeros()) as usize;
        Lane {
            element_table,
            always,
            plan,
            nplanes: nplanes.clamp(1, MAX_PLANES),
        }
    }

    /// Scores one 64-position block whose ring words start at `ring[0]`:
    /// adds the planned columns into `planes` (zeroed) and returns the
    /// positions of `valid` whose counted sum reaches `threshold`, or 0
    /// as soon as no position can.
    #[inline]
    fn score_block(&self, ring: &[u64], threshold: u32, valid: u64, planes: &mut [u64]) -> u64 {
        // Whole 16-element groups go through the carry-save tree (a
        // plan with a group has the ≥ 5 planes it needs); the tail of
        // < 16 elements ripples.
        let mut groups = self.plan.chunks_exact(16);
        let mut remaining = self.plan.len() as u32;
        for group in groups.by_ref() {
            let words: [u64; 16] = std::array::from_fn(|k| read_column(ring, group[k]));
            add_group(planes, &words);
            // Bit-sliced early abandon (the 64-position analogue of the
            // scalar mismatch-budget exit): a position can still reach
            // the threshold only if its counter is already at
            // `threshold − remaining`. Once no valid position can, the
            // rest of the block's accumulation is dead work.
            remaining -= 16;
            let needed = threshold.saturating_sub(remaining);
            if needed > 0 && ge_threshold_mask(planes, needed) & valid == 0 {
                return 0;
            }
        }
        for &entry in groups.remainder() {
            ripple_add(planes, read_column(ring, entry));
        }
        ge_threshold_mask(planes, threshold) & valid
    }
}

/// Pass 2's scoring order for one lane: the indices of the elements
/// whose table rejects some context, by ascending table popcount (the
/// element's match probability on a uniform reference), ties by element
/// index; and the count of the others, whose table accepts every
/// context.
fn read_order(element_table: &[u16], tables: &[u64]) -> (Vec<usize>, u32) {
    let table = |i: usize| tables[usize::from(element_table[i])];
    let mut order: Vec<usize> = (0..element_table.len())
        .filter(|&i| table(i) != u64::MAX)
        .collect();
    order.sort_by_key(|&i| (table(i).count_ones(), i));
    let always = (element_table.len() - order.len()) as u32;
    (order, always)
}

/// Words per tile-ring row for a longest lane of `qlen` elements.
fn ring_words(qlen: usize) -> usize {
    TILE_BLOCKS + qlen.saturating_sub(1).div_ceil(64) + 2
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
        let engine = labels(&[("engine", "bitparallel")]);
        let counters = ScanCounters {
            queries: registry.counter_with(
                "fabp_queries_processed_total",
                "Query scans started, by engine",
                engine.clone(),
            ),
            residues: registry.counter_with(
                "fabp_residues_scanned_total",
                "Alignment positions evaluated, by engine",
                engine.clone(),
            ),
            hits: registry.counter_with("fabp_hits_total", "Hits emitted, by engine", engine),
        };
        Ok(BitParallelEngine::assemble(
            tables,
            vec![element_table],
            counters,
        ))
    }

    /// Joins built engines into one that scores all of their lanes in a
    /// single pass, however many there are: their tables are interned
    /// into one union set, so no query is decoded again and the join
    /// cannot fail. The result's lanes are the engines' lanes in order;
    /// its telemetry goes to the first engine's counters.
    ///
    /// # Panics
    ///
    /// Panics if `engines` is empty.
    pub fn join(engines: &[&BitParallelEngine]) -> BitParallelEngine {
        let first = engines.first().expect("a join needs at least one engine");
        let mut tables: Vec<u64> = Vec::new();
        let mut element_tables = Vec::new();
        for engine in engines {
            let slots: Vec<u16> = engine
                .tables
                .iter()
                .map(|&table| intern_table(&mut tables, table))
                .collect();
            for lane in &engine.lanes {
                let remapped = lane.element_table.iter().map(|&s| slots[usize::from(s)]);
                element_tables.push(remapped.collect());
            }
        }
        BitParallelEngine::assemble(tables, element_tables, first.counters.clone())
    }

    /// An engine over interned `tables` with one lane per element-table
    /// list: sizes the tile ring to the longest lane and builds every
    /// lane's read plan against it.
    fn assemble(
        tables: Vec<u64>,
        element_tables: Vec<Vec<u16>>,
        counters: ScanCounters,
    ) -> BitParallelEngine {
        debug_assert!(tables.len() <= MAX_TABLES, "{} fused tables", tables.len());
        let qlen = element_tables.iter().map(Vec::len).max().unwrap_or(0);
        let ring_words = ring_words(qlen);
        let lanes = element_tables
            .into_iter()
            .map(|element_table| Lane::new(element_table, &tables, ring_words))
            .collect();
        BitParallelEngine {
            evals: tables.iter().map(|&t| TableEval::plan(t)).collect(),
            tables,
            ring_words,
            lanes,
            counters,
        }
    }

    /// Number of lanes: queries scored per pass.
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

    /// Scans `range` of the packed reference with the fused, tiled,
    /// bit-sliced pass, reporting hits with `score >= threshold` at
    /// positions relative to `range.start`.
    ///
    /// # Panics
    ///
    /// Panics if the engine holds more than one lane (a joined engine
    /// scans with [`BitParallelEngine::search_lanes`]), or on a bad range.
    pub fn search(&self, reference: &PackedSeq, range: Range<usize>, threshold: u32) -> Vec<Hit> {
        self.search_lanes(reference, range, &[threshold])
            .swap_remove(0)
    }

    /// Scans `range` of the packed reference once, scoring every lane
    /// against its own threshold (`thresholds[l]` applies to lane `l`).
    /// Returns one position-sorted hit list per lane, positions relative
    /// to `range.start`, each bit-identical to what that lane's query
    /// reports through its own one-lane engine.
    ///
    /// # Panics
    ///
    /// Panics if `thresholds.len() != self.lanes()`, or if `range` ends
    /// past `reference.len()`.
    pub fn search_lanes(
        &self,
        reference: &PackedSeq,
        range: Range<usize>,
        thresholds: &[u32],
    ) -> Vec<Vec<Hit>> {
        assert_eq!(thresholds.len(), self.lanes.len(), "one threshold per lane");
        assert!(
            range.end <= reference.len(),
            "range {range:?} out of bounds"
        );
        let len = range.len();
        let mut results: Vec<Vec<Hit>> = vec![Vec::new(); self.lanes.len()];
        // Alignment positions per lane: none for a lane longer than the
        // range.
        let lane_positions: Vec<usize> = self
            .lanes
            .iter()
            .map(|lane| (len + 1).saturating_sub(lane.element_table.len()))
            .collect();
        let positions = lane_positions.iter().copied().max().unwrap_or(0);
        if positions == 0 {
            return results;
        }
        self.counters.queries.add(self.lanes.len() as u64);
        self.counters
            .residues
            .add(lane_positions.iter().map(|&p| p as u64).sum());
        // Each lane's threshold on the elements it reads: its always
        // matching elements add `always` to every position's score.
        let counted: Vec<u32> = self
            .lanes
            .iter()
            .zip(thresholds)
            .map(|(lane, &threshold)| threshold.saturating_sub(lane.always))
            .collect();

        let qlen = self.query_len();
        let tile_positions = TILE_BLOCKS * 64;
        let tile_words = self.ring_words;
        // One flat allocation for the whole scan: the tile ring, one row
        // per distinct table. Invariant maintained below: every bit at a
        // relative position >= the encode frontier is zero, so filling
        // can OR bits in.
        let mut cols = vec![0u64; self.tables.len() * tile_words];

        // Next reference element to run through the comparator columns.
        let mut frontier = 0usize;
        for tile_start in (0..positions).step_by(tile_positions) {
            let tile_valid = (positions - tile_start).min(tile_positions);
            let need_until = (tile_start + tile_positions + qlen - 1).min(len);
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
            // 64-element block of the range loads from two or three packed
            // words with a funnel shift ([`PackedSeq::word_at`]), unzips
            // into 2-bit nucleotide planes ([`unzip_codes`]), expands into
            // one-hot bit masks for the current / previous /
            // previous-previous element (`e0`/`e1`/`e2`, with cross-block
            // carry-in read from the words), and every distinct table
            // evaluates all 64 comparator outputs at once through its
            // factored [`TableEval`] plan — no per-element table lookups
            // at all. Bits past the range end come from whatever follows
            // it; pass 2 never reads them into a valid position.
            //
            // The word walk restarts at the 64-aligned floor of the
            // frontier; recomputing the already-encoded prefix of that word
            // is safe because the fill is a deterministic function of the
            // reference, so OR-ing the word in again is idempotent.
            // `tile_start` is a multiple of `TILE_BLOCKS * 64`, hence
            // `rel ≡ p (mod 64)` and word slots line up exactly.
            for w_pos in ((frontier & !63)..need_until).step_by(64) {
                let at = range.start + w_pos;
                let (b0, b1) = unzip_codes(reference.word_at(at), reference.word_at(at + 32));
                let (n0, n1) = (!b0, !b1);
                // One-hot planes: e0[v] has bit i set iff element
                // w_pos + i is nucleotide code v.
                let e0 = [n1 & n0, n1 & b0, b1 & n0, b1 & b0];
                // Previous-element planes: shifted e0 with carry-in from
                // the two codes before the block (positions before the
                // range start backfill as code 0, matching the rolling
                // ctx = 0 seed; `w_pos` is 0 or at least 64).
                let (pc1, pc2) = match w_pos {
                    0 => (0, 0),
                    _ => (reference.code_at(at - 1), reference.code_at(at - 2)),
                };
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
            // its own plane count, read plan, 16-element carry-save groups
            // ([`add_group`]) and early abandon after each group — over
            // the shared tile. An interleaved ripple across lanes was
            // tried first and measured ~3× slower per lane: rippling the
            // full lane array per element forfeits the per-lane
            // all-zero-carry exit and keeps every lane accumulating until
            // the *last* lane abandons (see docs/PERFORMANCE.md). Lane
            // independence is what makes this exact: counters never
            // interact across lanes, only the column fill is shared.
            for block in (0..tile_valid).step_by(64) {
                let ring = &cols[block / 64..];
                for (l, lane) in self.lanes.iter().enumerate() {
                    let valid = lane_positions[l].saturating_sub(tile_start + block).min(64);
                    if valid == 0 {
                        continue;
                    }
                    let mut plane_store = [0u64; MAX_PLANES];
                    let planes = &mut plane_store[..lane.nplanes];
                    let valid_mask = u64::MAX >> (64 - valid);
                    // O(planes) word ops produce the 64-position hit mask;
                    // only set positions pay for score extraction.
                    let mut hit_mask = lane.score_block(ring, counted[l], valid_mask, planes);
                    while hit_mask != 0 {
                        let j = hit_mask.trailing_zeros() as usize;
                        hit_mask &= hit_mask - 1;
                        let mut score = lane.always;
                        for (b, &plane) in planes.iter().enumerate() {
                            score += (((plane >> j) & 1) as u32) << b;
                        }
                        results[l].push(Hit {
                            position: tile_start + block + j,
                            score,
                        });
                    }
                }
            }
        }
        self.counters
            .hits
            .add(results.iter().map(|hits| hits.len() as u64).sum());
        results
    }

    /// The original two-pass scan: pass 1 materialises full-length column
    /// bitvectors on the heap, pass 2 accumulates vertical counters and
    /// extracts every score bit-by-bit.
    ///
    /// Kept (without telemetry) as the differential-testing oracle for
    /// [`BitParallelEngine::search`] and as the baseline the `bench_perf`
    /// harness measures the fused path against. It adds every element,
    /// in element order, with no read plan; scores above
    /// `2^MAX_PLANES − 1` would saturate.
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

/// Bit-sliced increment: adds one match word into the counter planes,
/// rippling the carry up until it clears. The planes hold the largest
/// score, so no carry leaves the top plane.
#[inline]
fn ripple_add(planes: &mut [u64], mut carry: u64) {
    for plane in planes.iter_mut() {
        if carry == 0 {
            break;
        }
        let t = *plane & carry;
        *plane ^= carry;
        carry = t;
    }
    debug_assert_eq!(carry, 0, "a score outgrew its counter planes");
}

/// Carry-save full adder over 64 bit positions: per position,
/// `a + b + c = 2·carry + sum`. Returns `(carry, sum)`.
#[inline(always)]
fn csa(a: u64, b: u64, c: u64) -> (u64, u64) {
    let u = a ^ b;
    ((a & b) | (u & c), u ^ c)
}

/// Adds 16 match words into the counter planes, Harley–Seal style: the
/// software form of the Pop-Counter's compressor tree (§III-D). The low
/// four planes serve as the ones/twos/fours/eights accumulators, fifteen
/// carry-save adders fold the words into them, and the one resulting
/// sixteens word ripples into the planes above. The planes stay an
/// ordinary bit-sliced binary counter.
#[inline]
fn add_group(planes: &mut [u64], w: &[u64; 16]) {
    let (twos_a, ones) = csa(planes[0], w[0], w[1]);
    let (twos_b, ones) = csa(ones, w[2], w[3]);
    let (fours_a, twos) = csa(planes[1], twos_a, twos_b);
    let (twos_a, ones) = csa(ones, w[4], w[5]);
    let (twos_b, ones) = csa(ones, w[6], w[7]);
    let (fours_b, twos) = csa(twos, twos_a, twos_b);
    let (eights_a, fours) = csa(planes[2], fours_a, fours_b);
    let (twos_a, ones) = csa(ones, w[8], w[9]);
    let (twos_b, ones) = csa(ones, w[10], w[11]);
    let (fours_a, twos) = csa(twos, twos_a, twos_b);
    let (twos_a, ones) = csa(ones, w[12], w[13]);
    let (twos_b, ones) = csa(ones, w[14], w[15]);
    let (fours_b, twos) = csa(twos, twos_a, twos_b);
    let (eights_b, fours) = csa(fours, fours_a, fours_b);
    let (sixteens, eights) = csa(planes[3], eights_a, eights_b);
    planes[..4].copy_from_slice(&[ones, twos, fours, eights]);
    ripple_add(&mut planes[4..], sixteens);
}

/// Splits 64 packed 2-bit codes (32 in `lo`, then 32 in `hi`) into bit
/// planes: bit `i` of the first (second) result is bit 0 (bit 1) of code `i`.
#[inline]
fn unzip_codes(lo: u64, hi: u64) -> (u64, u64) {
    let (lo, hi) = (unshuffle(lo), unshuffle(hi));
    ((lo << 32 >> 32) | (hi << 32), (lo >> 32) | (hi >> 32 << 32))
}

/// Outer perfect unshuffle (Hacker's Delight §7-2): bit `2k` moves to bit
/// `k`, bit `2k + 1` to bit `32 + k`.
#[inline]
fn unshuffle(mut x: u64) -> u64 {
    for (shift, mask) in [
        (1, 0x2222_2222_2222_2222u64),
        (2, 0x0C0C_0C0C_0C0C_0C0C),
        (4, 0x00F0_00F0_00F0_00F0),
        (8, 0x0000_FF00_0000_FF00),
        (16, 0x0000_0000_FFFF_0000),
    ] {
        let t = (x ^ (x >> shift)) & mask;
        x ^= t ^ (t << shift);
    }
    x
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

/// Reads the column word a plan entry (`word << 6 | shift`) addresses
/// from a block's ring words: one funnel shift of two words, with no
/// branch on the shift.
#[inline(always)]
fn read_column(ring: &[u64], entry: u32) -> u64 {
    let word = (entry >> 6) as usize;
    let pair = (u128::from(ring[word + 1]) << 64) | u128::from(ring[word]);
    (pair >> (entry & 63)) as u64
}

/// Reads 64 bits starting at bit offset `bit_pos` from a padded word
/// vector: the two-pass oracle's read.
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
    use rand::{Rng, SeedableRng};

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

    /// Packs `reference` and scans all of it.
    fn scan(engine: &BitParallelEngine, reference: &[Nucleotide], threshold: u32) -> Vec<Hit> {
        let packed: PackedSeq = reference.iter().copied().collect();
        engine.search(&packed, 0..packed.len(), threshold)
    }

    /// Packs `reference` and scans all of it with every lane.
    fn scan_lanes(
        engine: &BitParallelEngine,
        reference: &[Nucleotide],
        thresholds: &[u32],
    ) -> Vec<Vec<Hit>> {
        let packed: PackedSeq = reference.iter().copied().collect();
        engine.search_lanes(&packed, 0..packed.len(), thresholds)
    }

    /// A packed reference holding `reference` at `offset`, between
    /// random flanks, so a range scan starts at any word offset and
    /// crosses word, 64-block and tile boundaries.
    fn embedded(reference: &[Nucleotide], offset: usize, rng: &mut StdRng) -> PackedSeq {
        let mut packed = PackedSeq::from_rna(&random_rna(offset, rng));
        packed.extend_from_slice(reference);
        packed.extend_from(&PackedSeq::from_rna(&random_rna(offset % 37, rng)));
        packed
    }

    /// One engine joining a one-lane engine per query, as the batch
    /// scheduler joins a batch's lanes.
    fn joined(queries: &[EncodedQuery]) -> BitParallelEngine {
        let engines: Vec<BitParallelEngine> = queries
            .iter()
            .map(|q| BitParallelEngine::new(q).unwrap())
            .collect();
        BitParallelEngine::join(&engines.iter().collect::<Vec<_>>())
    }

    /// A query of `protein_len` residues in one of three shapes: `0`,
    /// the protein's back-translation; `1`, the same with about three
    /// elements in four replaced by `D`, which matches every context and
    /// so leaves the read plan; `2`, the back-translation with every
    /// element from index 2 on shuffled, so the selective elements sit
    /// anywhere in the query.
    fn drawn_query(protein_len: usize, shape: usize, rng: &mut StdRng) -> EncodedQuery {
        let protein = random_protein(protein_len, rng);
        let query = EncodedQuery::from_protein(&protein);
        let mut elements = query.decode().elements().to_vec();
        match shape {
            0 => return query,
            1 => {
                for element in &mut elements {
                    if rng.gen_bool(0.75) {
                        *element = PatternElement::Dependent(DependentFn::Any);
                    }
                }
            }
            _ => {
                for i in (3..elements.len()).rev() {
                    elements.swap(i, rng.gen_range(2..=i));
                }
            }
        }
        EncodedQuery::from_back_translated(&BackTranslatedQuery::from_elements(elements))
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
                let fused = scan(&parallel, reference.as_slice(), threshold);
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
        ///
        /// The query is a protein's back-translation, or an element
        /// stream where most elements match every context, or one whose
        /// read plan order differs from element order ([`drawn_query`]);
        /// every threshold up to the always-matching count is drawn too.
        #[test]
        fn fused_tiled_path_matches_scalar(
            protein_len in 3usize..=40,
            shape in 0usize..3,
            len_class in 0usize..6,
            jitter in 0usize..130,
            start in 0usize..96,
            seed in 0u64..1_000_000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let query = drawn_query(protein_len, shape, &mut rng);
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
            // The same bases at range `start..start + len` of a longer
            // packed reference; the oracle reads the unpacked slice.
            let packed = embedded(reference.as_slice(), start, &mut rng);
            let range = start..start + len;

            if len < qlen {
                prop_assert!(parallel.search(&packed, range, 0).is_empty());
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
                    let fused = parallel.search(&packed, range.clone(), threshold);
                    prop_assert_eq!(
                        &fused, &expected,
                        "len {} start {} threshold {}", len, start, threshold
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
                scan(&parallel, reference.as_slice(), 0),
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
                    scan(&parallel, reference.as_slice(), threshold),
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
                let hits = scan(&parallel, reference.as_slice(), threshold);
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
                scan(&parallel, reference.as_slice(), threshold),
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
    fn longest_query_fills_every_counter_plane() {
        // 65 535 exact `A`s score 65 535 = all 16 planes set at every
        // position of an all-`A` reference: 4 095 carry-save groups and a
        // 15-element rippled tail.
        let longest: fabp_bio::seq::RnaSeq =
            std::iter::repeat_n(Nucleotide::A, MAX_QUERY_LEN).collect();
        let engine = BitParallelEngine::new(&EncodedQuery::from_exact_rna(&longest)).unwrap();
        let reference = vec![Nucleotide::A; MAX_QUERY_LEN + 5];
        let hits = scan(&engine, &reference, MAX_QUERY_LEN as u32);
        let expected: Vec<Hit> = (0..6)
            .map(|position| Hit {
                position,
                score: MAX_QUERY_LEN as u32,
            })
            .collect();
        assert_eq!(hits, expected);
    }

    #[test]
    fn unzip_codes_splits_the_bit_planes() {
        let mut rng = StdRng::seed_from_u64(0xB183);
        for _ in 0..100 {
            let (lo, hi): (u64, u64) = (rng.gen(), rng.gen());
            let code = |i: usize| {
                if i < 32 {
                    lo >> (2 * i)
                } else {
                    hi >> (2 * (i - 32))
                }
            };
            let (b0, b1) = unzip_codes(lo, hi);
            for i in 0..64 {
                assert_eq!((b0 >> i) & 1, code(i) & 1, "bit 0 of code {i}");
                assert_eq!((b1 >> i) & 1, (code(i) >> 1) & 1, "bit 1 of code {i}");
            }
        }
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
        let hits = scan(&engine, reference.as_slice(), 2);
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
        assert!(scan(&engine, reference.as_slice(), 0).is_empty());
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
        let got = scan_lanes(&multi, reference.as_slice(), &thresholds);
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
        // 1-, 2- and 3-lane joins, including references shorter than the
        // longest lane but not the shortest.
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
                let got = scan_lanes(&multi, reference.as_slice(), &thresholds);
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
        /// across lane counts, ragged query lengths, query shapes
        /// ([`drawn_query`]), per-lane thresholds (near the query length,
        /// or at most the lane's always-matching count) and
        /// tile-boundary-straddling reference lengths.
        #[test]
        fn multiquery_matches_two_pass_oracle(
            lens in prop::collection::vec(3usize..=40, 1..=8),
            shape in 0usize..3,
            low_thresholds in any::<bool>(),
            len_class in 0usize..4,
            jitter in 0usize..130,
            start in 0usize..96,
            seed in 0u64..1_000_000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let queries: Vec<_> = lens
                .iter()
                .map(|&aa| drawn_query(aa, shape, &mut rng))
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
            let thresholds: Vec<u32> = multi
                .lanes
                .iter()
                .enumerate()
                .map(|(l, lane)| {
                    let drop = 1 + (l as u32 + jitter as u32) % 7;
                    if low_thresholds {
                        lane.always.saturating_sub(drop - 1)
                    } else {
                        (lane.element_table.len() as u32).saturating_sub(drop)
                    }
                })
                .collect();
            let packed = embedded(reference.as_slice(), start, &mut rng);
            let got = multi.search_lanes(&packed, start..start + len, &thresholds);
            for (l, query) in queries.iter().enumerate() {
                let single = BitParallelEngine::new(query).unwrap();
                prop_assert_eq!(
                    &got[l],
                    &single.search_two_pass(reference.as_slice(), thresholds[l]),
                    "lanes {} len {} start {} lane {}", lens.len(), len, start, l
                );
            }
        }

        /// A join of N lanes equals N one-lane scans: up to 64 lanes of
        /// mixed lengths and shapes, each at its own threshold anywhere
        /// in `0..=L_q`, over a range starting at any word offset.
        #[test]
        fn join_of_n_lanes_equals_n_one_lane_scans(
            lens in prop::collection::vec(3usize..=40, 1..=64),
            len_class in 0usize..3,
            jitter in 0usize..200,
            start in 0usize..160,
            seed in 0u64..1_000_000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let queries: Vec<_> = lens
                .iter()
                .enumerate()
                .map(|(l, &aa)| drawn_query(aa, l % 3, &mut rng))
                .collect();
            let singles: Vec<BitParallelEngine> = queries
                .iter()
                .map(|q| BitParallelEngine::new(q).unwrap())
                .collect();
            let multi = BitParallelEngine::join(&singles.iter().collect::<Vec<_>>());
            prop_assert_eq!(multi.lanes(), lens.len());
            let len = match len_class {
                0 => jitter,
                1 => multi.query_len() + 64 * (jitter % 8) + jitter % 64,
                _ => multi.query_len() - 1 + TILE_POSITIONS - 100 + jitter,
            };
            let packed = embedded(random_rna(len, &mut rng).as_slice(), start, &mut rng);
            let thresholds: Vec<u32> = queries
                .iter()
                .map(|q| rng.gen_range(0..=q.len() as u32))
                .collect();
            let range = start..start + len;
            let got = multi.search_lanes(&packed, range.clone(), &thresholds);
            for (l, single) in singles.iter().enumerate() {
                prop_assert_eq!(
                    &got[l],
                    &single.search(&packed, range.clone(), thresholds[l]),
                    "lanes {} len {} start {} lane {}", lens.len(), len, start, l
                );
            }
        }
    }

    #[test]
    fn read_plan_orders_by_popcount_and_counts_out_always_matches() {
        use fabp_bio::backtranslate::MatchCondition;
        // Table popcounts: D 64 (always), Exact 16, a two-base condition
        // 32, NotG 48.
        let elements = vec![
            PatternElement::Dependent(DependentFn::Any),
            PatternElement::Conditional(MatchCondition::PurineAg),
            PatternElement::Exact(Nucleotide::A),
            PatternElement::Conditional(MatchCondition::NotG),
            PatternElement::Dependent(DependentFn::Any),
            PatternElement::Exact(Nucleotide::G),
            PatternElement::Conditional(MatchCondition::PyrimidineUc),
            PatternElement::Exact(Nucleotide::A),
        ];
        let query =
            EncodedQuery::from_back_translated(&BackTranslatedQuery::from_elements(elements));
        let engine = BitParallelEngine::new(&query).unwrap();
        let lane = &engine.lanes[0];
        let (order, always) = read_order(&lane.element_table, &engine.tables);
        assert_eq!(order, vec![2, 5, 7, 1, 6, 3]);
        assert_eq!(always, 2);
        assert_eq!(lane.always, 2);
        // Each plan entry addresses its element's row and bit in the ring.
        let addressed: Vec<(usize, usize)> = lane
            .plan
            .iter()
            .map(|&entry| ((entry >> 6) as usize, (entry & 63) as usize))
            .collect();
        let expected: Vec<(usize, usize)> = order
            .iter()
            .map(|&i| (usize::from(lane.element_table[i]) * engine.ring_words, i))
            .collect();
        assert_eq!(addressed, expected);
        // Threshold at or below the two always-matching elements: every
        // position is a hit, scored in full.
        let reference = random_rna(300, &mut StdRng::seed_from_u64(0xB184));
        for threshold in 0..=2 {
            let hits = scan(&engine, reference.as_slice(), threshold);
            assert_eq!(hits.len(), 300 - query.len() + 1);
            assert_eq!(
                hits,
                engine.search_two_pass(reference.as_slice(), threshold)
            );
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
    fn a_block_is_abandoned_once_the_planned_elements_cannot_reach_it() {
        // Two always-matching elements, sixteen whose ring row is empty,
        // then two whose row is full. At a counted threshold of 4 the
        // first group leaves 0 with 2 planned elements to go, so no
        // position can reach it: the block ends before the tail.
        let tables = [0xFFFF, 0xFFFF_FFFF, u64::MAX];
        let element_table: Vec<u16> = [2, 2].into_iter().chain([0; 16]).chain([1, 1]).collect();
        let ring_words = 4;
        let lane = Lane::new(element_table, &tables, ring_words);
        assert_eq!((lane.always, lane.plan.len()), (2, 18));
        let mut ring = vec![u64::MAX; 3 * ring_words];
        ring[..ring_words].fill(0);
        let mut planes = vec![0u64; lane.nplanes];
        assert_eq!(lane.score_block(&ring, 4, u64::MAX, &mut planes), 0);
        assert!(
            planes.iter().all(|&p| p == 0),
            "the tail was added: {planes:?}"
        );
        // At 2 the bound never rules a position out: the tail's two
        // matches make every position a hit.
        planes.fill(0);
        assert_eq!(lane.score_block(&ring, 2, u64::MAX, &mut planes), u64::MAX);
        assert_eq!(planes[1], u64::MAX);
    }

    #[test]
    fn joined_engines_join_again_and_count_one_query_per_lane() {
        // A join of joined engines keeps every lane exact, and one pass
        // counts one query per lane under the `bitparallel` label.
        let mut rng = StdRng::seed_from_u64(0xB182);
        let registry = Registry::new();
        let singles: Vec<BitParallelEngine> = (0..6)
            .map(|i| {
                let query = EncodedQuery::from_protein(&random_protein(5 + 3 * i, &mut rng));
                BitParallelEngine::with_registry(&query, &registry).unwrap()
            })
            .collect();
        let pair = BitParallelEngine::join(&[&singles[0], &singles[1]]);
        let four = BitParallelEngine::join(&[&singles[2], &singles[3], &singles[4], &singles[5]]);
        let six = BitParallelEngine::join(&[&pair, &four]);
        assert_eq!(six.lanes(), 6);
        let reference = random_rna(3_000, &mut rng);
        let got = scan_lanes(&six, reference.as_slice(), &[4; 6]);
        for (l, single) in singles.iter().enumerate() {
            assert_eq!(
                got[l],
                single.search_two_pass(reference.as_slice(), 4),
                "lane {l}"
            );
        }
        let text = registry.snapshot().to_prometheus();
        assert!(
            text.contains("fabp_queries_processed_total{engine=\"bitparallel\"} 6"),
            "{text}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one engine")]
    fn join_without_lanes_panics() {
        BitParallelEngine::join(&[]);
    }
}
