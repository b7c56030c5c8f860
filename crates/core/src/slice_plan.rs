//! Reference slicing for fine-grained batch parallelism.
//!
//! Per-query work stealing (PR 4) cannot help when `queries ≪ workers`:
//! one query is one indivisible work item, so `1 query × N workers`
//! leaves `N − 1` workers idle and the batch runs at serial speed. The
//! fix — fine-grained parallelization of the *reference* scan, à la
//! Nguyen & Lavenier — is to split the reference into cache-sized slices
//! and steal `(query, slice)` pairs instead of whole queries.
//!
//! A [`SlicePlan`] partitions the **alignment positions**
//! `0 .. L_r − window + 1` into contiguous runs and assigns each run the
//! base range that scores it: slice `i` owns positions
//! `[pos_start, pos_start + positions)` and reads bases
//! `[pos_start, pos_start + positions + window − 1)` — the same
//! trailing-overlap arithmetic as [`crate::fleet::FpgaFleet`]'s shards
//! (which take their range math from [`overlap_ranges`] here). Because the overlap is
//! *exactly* `window − 1`, the per-slice position sets partition the
//! global position set: scanning each base range independently and
//! translating hits by `pos_start` reproduces the full scan with no
//! duplicates, and [`crate::hits::merge_shard_hits`] (sort + exact-dup
//! removal) restores the single-engine hit order regardless of slice
//! completion order. Engines whose lanes read *more* than `window − 1`
//! of context (a multi-query group scanning a shorter lane against the
//! group-maximum window) re-report boundary-straddling positions on two
//! slices with identical `(position, score)` pairs — the same
//! overlap-duplicate shape the fleet merge already deduplicates.
//!
//! Slice sizing trades steal granularity against per-slice overhead
//! (the overlap bases are re-read, and the tile ring warms up once per
//! slice): [`SliceOptions`] asks for a few slices per worker so stealing
//! can rebalance cost skew, but never slices below
//! [`SliceOptions::min_slice_positions`] so the overhead stays
//! amortised.

use fabp_resilience::{FabpError, FabpResult};

/// One reference slice of a [`SlicePlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slice {
    /// First base of the slice — also the global position offset to add
    /// to slice-local hit positions.
    pub start: usize,
    /// One past the last base the slice may read (includes the
    /// `window − 1` trailing overlap, clamped to the reference end).
    pub end: usize,
    /// Alignment positions owned by this slice:
    /// `[start, start + positions)` in global coordinates.
    pub positions: usize,
}

impl Slice {
    /// Number of bases the slice reads, including overlap.
    pub fn bases(&self) -> usize {
        self.end - self.start
    }
}

/// Sizing policy for [`SlicePlan::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceOptions {
    /// Target slices per worker. More slices steal-balance better; every
    /// extra slice re-reads `window − 1` overlap bases and re-warms the
    /// scan tile. 2–4 is the sweet spot.
    pub slices_per_worker: usize,
    /// Never cut slices smaller than this many positions (except when
    /// the whole reference is smaller). Keeps the per-slice fixed costs
    /// (thread handoff, tile warm-up, overlap re-read) well under the
    /// scan cost.
    pub min_slice_positions: usize,
}

impl Default for SliceOptions {
    fn default() -> SliceOptions {
        SliceOptions {
            slices_per_worker: 2,
            // ≈ 16 KiB of 2-bit-packable bases per slice minimum; a slice
            // scan costs ~10 µs at fused-scan speed, dwarfing steal costs.
            min_slice_positions: 16_384,
        }
    }
}

/// A partition of one reference into overlap-aware scan slices for a
/// fixed query window. See the module docs for the invariants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlicePlan {
    window: usize,
    reference_len: usize,
    slices: Vec<Slice>,
}

impl SlicePlan {
    /// Plans slices of a `reference_len`-base reference for a
    /// `window`-element query, sized for `workers` parallel workers.
    ///
    /// Degenerate shapes are well-defined:
    ///
    /// * empty reference → an empty plan (no slices, nothing to scan);
    /// * `0 < reference_len < window` (no alignment positions) → one
    ///   slice covering the whole reference with `positions == 0`, so
    ///   callers can still run their (vacuous) scan uniformly;
    /// * fewer positions than `workers × slices_per_worker ×
    ///   min_slice_positions` → fewer (possibly one) slices rather than
    ///   undersized ones.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0` (an empty query has no windows).
    pub fn build(
        reference_len: usize,
        window: usize,
        workers: usize,
        options: SliceOptions,
    ) -> SlicePlan {
        assert!(window > 0, "window must be positive");
        if reference_len == 0 {
            return SlicePlan {
                window,
                reference_len,
                slices: Vec::new(),
            };
        }
        let positions = reference_len.saturating_sub(window - 1);
        if positions == 0 {
            // Shorter than one window: a single vacuous slice.
            return SlicePlan {
                window,
                reference_len,
                slices: vec![Slice {
                    start: 0,
                    end: reference_len,
                    positions: 0,
                }],
            };
        }
        let desired = workers
            .max(1)
            .saturating_mul(options.slices_per_worker.max(1));
        let by_min = positions / options.min_slice_positions.max(1);
        let count = desired.min(by_min.max(1)).max(1);
        let ranges = position_ranges(positions, count);
        let slices = ranges
            .into_iter()
            .map(|(pos_start, pos_len)| Slice {
                start: pos_start,
                end: (pos_start + pos_len + window - 1).min(reference_len),
                positions: pos_len,
            })
            .collect();
        SlicePlan {
            window,
            reference_len,
            slices,
        }
    }

    /// The query window the plan was built for.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Reference length the plan was built for.
    pub fn reference_len(&self) -> usize {
        self.reference_len
    }

    /// The planned slices, in reference order.
    pub fn slices(&self) -> &[Slice] {
        &self.slices
    }

    /// Number of slices.
    pub fn len(&self) -> usize {
        self.slices.len()
    }

    /// True for the empty-reference plan.
    pub fn is_empty(&self) -> bool {
        self.slices.is_empty()
    }

    /// Total positions across all slices (equals the full scan's
    /// position count — the partition invariant).
    pub fn total_positions(&self) -> usize {
        self.slices.iter().map(|s| s.positions).sum()
    }
}

/// Splits `total` positions into `count` contiguous `(start, len)` runs,
/// sizes differing by at most one — the even split behind every slice
/// and every fleet shard.
fn position_ranges(total: usize, count: usize) -> Vec<(usize, usize)> {
    let count = count.max(1);
    let base = total / count;
    let extra = total % count;
    let mut ranges = Vec::with_capacity(count);
    let mut start = 0usize;
    for i in 0..count {
        let len = base + usize::from(i < extra);
        ranges.push((start, len));
        start += len;
    }
    ranges
}

/// Splits `total` bases into `parts` contiguous `(start, end)` base
/// ranges where each part additionally reads `overlap` trailing bases
/// (clamped to the reference end) — the shared range math behind
/// [`crate::fleet::FpgaFleet`]'s shards and [`SlicePlan`].
///
/// Part sizes (before overlap) differ by at most one base. With more
/// parts than bases the surplus parts are zero-sized; they sort to the
/// end of the split where the clamp leaves them as empty `(total,
/// total)` ranges — they scan nothing and contribute no hits, so the
/// downstream merge sees no duplicates from them. Consecutive non-empty
/// ranges overlap by exactly `overlap` bases (clamped at the reference
/// end), never more.
///
/// # Errors
///
/// Returns [`FabpError::InvalidShardPlan`] if `parts == 0`.
pub fn overlap_ranges(
    total: usize,
    parts: usize,
    overlap: usize,
) -> FabpResult<Vec<(usize, usize)>> {
    if parts == 0 {
        return Err(FabpError::InvalidShardPlan(
            "a shard plan needs at least one part".into(),
        ));
    }
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0usize;
    for (_, len) in position_ranges(total, parts) {
        let end = (start + len).saturating_add(overlap).min(total);
        ranges.push((start, end));
        start += len;
    }
    Ok(ranges)
}

#[cfg(test)]
mod tests {
    use super::*;

    const OPTS: SliceOptions = SliceOptions {
        slices_per_worker: 2,
        min_slice_positions: 100,
    };

    #[test]
    fn slices_partition_positions_with_window_overlap() {
        let plan = SlicePlan::build(10_000, 60, 4, OPTS);
        assert_eq!(plan.len(), 8);
        assert_eq!(plan.total_positions(), 10_000 - 59);
        let mut next_pos = 0usize;
        for s in plan.slices() {
            assert_eq!(s.start, next_pos, "positions are contiguous");
            // Every slice reads exactly its positions + window − 1 bases
            // (clamped at the end).
            assert_eq!(s.end, (s.start + s.positions + 59).min(10_000));
            next_pos += s.positions;
        }
        assert_eq!(next_pos, plan.total_positions());
        assert_eq!(plan.slices().last().unwrap().end, 10_000);
    }

    #[test]
    fn empty_reference_plans_no_slices() {
        let plan = SlicePlan::build(0, 10, 4, OPTS);
        assert!(plan.is_empty());
        assert_eq!(plan.total_positions(), 0);
    }

    #[test]
    fn reference_shorter_than_window_is_one_vacuous_slice() {
        // slice length < window: no alignment positions exist, but the
        // plan still yields one well-formed (vacuous) slice.
        let plan = SlicePlan::build(7, 10, 8, OPTS);
        assert_eq!(plan.len(), 1);
        let s = plan.slices()[0];
        assert_eq!((s.start, s.end, s.positions), (0, 7, 0));
    }

    #[test]
    fn reference_shorter_than_one_slice_is_not_subdivided() {
        // Fewer positions than min_slice_positions: one slice, never
        // undersized fragments.
        let plan = SlicePlan::build(80, 10, 8, OPTS);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan.total_positions(), 71);
    }

    #[test]
    fn one_query_eight_workers_saturates_when_reference_allows() {
        // The 1-query × 8-worker shape that starved per-query stealing:
        // the plan must produce at least 8 slices so every worker eats.
        let plan = SlicePlan::build(100_000, 60, 8, OPTS);
        assert!(plan.len() >= 8, "only {} slices", plan.len());
        assert_eq!(plan.len(), 16); // 8 workers × 2 slices/worker
        let max = plan.slices().iter().map(|s| s.positions).max().unwrap();
        let min = plan.slices().iter().map(|s| s.positions).min().unwrap();
        assert!(max - min <= 1, "even split: {min}..{max}");
    }

    #[test]
    fn min_slice_positions_caps_the_slice_count() {
        // 1000 positions at min 100 → at most 10 slices even for many
        // workers.
        let plan = SlicePlan::build(1_000 + 59, 60, 64, OPTS);
        assert_eq!(plan.len(), 10);
        assert!(plan.slices().iter().all(|s| s.positions == 100));
    }

    #[test]
    fn window_one_has_no_overlap() {
        let plan = SlicePlan::build(1_000, 1, 2, OPTS);
        assert_eq!(plan.total_positions(), 1_000);
        for s in plan.slices() {
            assert_eq!(s.bases(), s.positions, "window 1 reads no overlap");
        }
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_is_rejected() {
        let _ = SlicePlan::build(100, 0, 2, OPTS);
    }

    #[test]
    fn sharding_is_even_and_complete() {
        let ranges = overlap_ranges(1_000_000_007, 8, 0).unwrap();
        assert_eq!(ranges.len(), 8);
        let sizes: Vec<usize> = ranges.iter().map(|&(start, end)| end - start).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 1_000_000_007);
        let min = sizes.iter().min().unwrap();
        let max = sizes.iter().max().unwrap();
        assert!(max - min <= 1);
        // Without overlap the parts tile the reference exactly.
        assert!(ranges.windows(2).all(|w| w[0].1 == w[1].0));
    }

    #[test]
    fn more_nodes_than_bases_yields_zero_length_shards() {
        let sizes = |total, parts| -> Vec<usize> {
            overlap_ranges(total, parts, 0)
                .unwrap()
                .iter()
                .map(|&(start, end)| end - start)
                .collect()
        };
        // The non-empty parts come first (round-robin remainder).
        assert_eq!(sizes(3, 8), vec![1, 1, 1, 0, 0, 0, 0, 0]);
        // Zero bases entirely.
        assert_eq!(sizes(0, 4), vec![0, 0, 0, 0]);
    }

    #[test]
    fn overlap_ranges_match_the_fleet_shard_shape() {
        // The fleet's documented shard semantics (`FpgaFleet::homogeneous`).
        let ranges = overlap_ranges(100, 4, 5).unwrap();
        assert_eq!(ranges, vec![(0, 30), (25, 55), (50, 80), (75, 100)]);
        // Degenerate: more parts than bases → zero-sized parts that
        // sort to the end as empty (total, total) ranges.
        let tiny = overlap_ranges(3, 5, 2).unwrap();
        assert_eq!(tiny.len(), 5);
        assert_eq!(tiny[0], (0, 3));
        assert_eq!(tiny[4], (3, 3));
        // Zero parts is a typed error.
        assert!(overlap_ranges(10, 0, 1).is_err());
    }

    // --- Directed degenerate-geometry pins (ISSUE 10): shapes that
    // historically produce duplicate hits or malformed slices in
    // sharded scanners.

    #[test]
    fn consecutive_slices_overlap_by_exactly_window_minus_one() {
        // Interior boundaries must overlap by window − 1 bases — enough
        // for every straddling alignment window, never enough to score
        // the same position twice.
        for (len, window, workers) in [(10_000, 60, 4), (1_001, 7, 8), (333, 3, 5), (4_096, 33, 3)]
        {
            let opts = SliceOptions {
                slices_per_worker: 2,
                min_slice_positions: 16,
            };
            let plan = SlicePlan::build(len, window, workers, opts);
            for pair in plan.slices().windows(2) {
                let overlap = pair[0].end - pair[1].start;
                assert_eq!(
                    overlap,
                    window - 1,
                    "len {len} window {window} workers {workers}: slices {pair:?}"
                );
            }
        }
    }

    #[test]
    fn slice_length_equal_to_overlap_stays_disjoint_in_positions() {
        // Pathological sizing: every slice owns exactly one position, so
        // the slice body length equals the overlap (window − 1) + 1.
        let window = 9;
        let opts = SliceOptions {
            slices_per_worker: 1,
            min_slice_positions: 1,
        };
        let plan = SlicePlan::build(window + 3, window, 4, opts);
        assert_eq!(plan.total_positions(), 4);
        let mut seen = std::collections::HashSet::new();
        for s in plan.slices() {
            assert!(s.positions > 0, "no empty slices: {s:?}");
            assert!(s.end <= plan.reference_len());
            assert!(s.bases() < s.positions + window, "over-wide slice {s:?}");
            for p in s.start..s.start + s.positions {
                assert!(seen.insert(p), "position {p} owned twice");
            }
        }
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn overlap_ranges_part_length_equal_to_overlap() {
        // Each part's body length equals the overlap: consecutive parts
        // overlap by exactly `overlap`, never more, and nothing escapes
        // the reference.
        let ranges = overlap_ranges(12, 4, 3).unwrap();
        assert_eq!(ranges, vec![(0, 6), (3, 9), (6, 12), (9, 12)]);
        for pair in ranges.windows(2) {
            let overlap = pair[0].1.saturating_sub(pair[1].0);
            assert!(overlap <= 3, "over-wide overlap in {pair:?}");
        }
    }

    #[test]
    fn single_slice_plan_covers_everything_once() {
        let opts = SliceOptions {
            slices_per_worker: 1,
            min_slice_positions: 1,
        };
        let plan = SlicePlan::build(500, 20, 1, opts);
        assert_eq!(plan.len(), 1);
        let s = plan.slices()[0];
        assert_eq!((s.start, s.end), (0, 500));
        assert_eq!(s.positions, 481);
        assert_eq!(plan.total_positions(), 481);
        // Same via overlap_ranges: one part is the whole reference.
        assert_eq!(overlap_ranges(500, 1, 19).unwrap(), vec![(0, 500)]);
    }

    #[test]
    fn reference_equal_to_window_is_one_single_position_slice() {
        let plan = SlicePlan::build(10, 10, 8, OPTS);
        assert_eq!(plan.len(), 1);
        let s = plan.slices()[0];
        assert_eq!((s.start, s.end, s.positions), (0, 10, 1));
    }

    #[test]
    fn zero_sized_overlap_parts_are_empty_not_overreaching() {
        // More parts than bases: the trailing zero-length parts must be
        // empty ranges, not ranges that re-read the tail and duplicate
        // hits.
        let ranges = overlap_ranges(5, 9, 4).unwrap();
        assert_eq!(ranges.len(), 9);
        for &(start, end) in &ranges {
            assert!(end <= 5);
            assert!(start <= end);
        }
        let empties = ranges.iter().filter(|(s, e)| s == e).count();
        assert_eq!(empties, 4, "9 parts over 5 bases leave 4 empty");
        assert!(ranges[5..].iter().all(|&(s, e)| (s, e) == (5, 5)));
    }
}
