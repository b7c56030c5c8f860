//! Hit post-processing: the record rule, merging, ranking and region
//! extraction.
//!
//! FabP reports *every* alignment position above the threshold (§III-C), so
//! a strong homology produces a cluster of overlapping hits around the true
//! position. Downstream consumers usually want one region per homology —
//! [`merge_overlapping`] — or the best few positions — [`top_k`].
//!
//! Every search path scans a database's records as one concatenated
//! stream, as FabP streams its whole database from DRAM. [`locate`] is the
//! one rule that turns such a scan's hits back into per-record ones.

use std::ops::Range;

pub use fabp_fpga::engine::Hit;

/// The record rule: keeps `hit` only when its `window`-base window lies
/// inside one of `records`, and maps it to `(record, hit)` with the
/// position as an offset within that record.
///
/// `records` are base ranges of the concatenated reference, in order and
/// disjoint (empty ones allowed); the hit's record is found through the
/// sorted record starts. A window that crosses a record end spans two
/// database sequences, a place no sequence holds, so it is dropped.
pub fn locate(hit: Hit, window: usize, records: &[Range<usize>]) -> Option<(usize, Hit)> {
    let r = records
        .partition_point(|record| record.start <= hit.position)
        .checked_sub(1)?;
    let record = &records[r];
    (hit.position + window <= record.end).then_some((
        r,
        Hit {
            position: hit.position - record.start,
            score: hit.score,
        },
    ))
}

/// Drops the hits of a concatenated scan whose window crosses a record
/// end ([`locate`]), keeping concatenated coordinates.
pub fn retain_within_records(hits: &mut Vec<Hit>, window: usize, records: &[Range<usize>]) {
    hits.retain(|&hit| locate(hit, window, records).is_some());
}

/// Splits the position-sorted hits of a concatenated scan by record
/// ([`locate`]): each record that holds a hit, in order, with its hits at
/// offsets within it.
pub fn split_by_record(
    hits: &[Hit],
    window: usize,
    records: &[Range<usize>],
) -> Vec<(usize, Vec<Hit>)> {
    let mut split: Vec<(usize, Vec<Hit>)> = Vec::new();
    for (r, hit) in hits.iter().filter_map(|&hit| locate(hit, window, records)) {
        match split.last_mut() {
            Some((last, record_hits)) if *last == r => record_hits.push(hit),
            _ => split.push((r, vec![hit])),
        }
    }
    split
}

/// A maximal run of overlapping hits, merged into one reported region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HitRegion {
    /// First hit position in the region.
    pub start: usize,
    /// One past the last covered reference element
    /// (`last hit position + query_len`).
    pub end: usize,
    /// The best-scoring hit inside the region (ties: leftmost).
    pub best: Hit,
    /// Number of hits merged into the region.
    pub hit_count: usize,
}

impl HitRegion {
    /// Length of the region in reference elements.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Regions are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Merges position-sorted hits whose query windows overlap into
/// [`HitRegion`]s.
///
/// Two hits overlap when their positions differ by less than `query_len`.
///
/// # Panics
///
/// Panics if `query_len == 0` or `hits` is not sorted by position.
pub fn merge_overlapping(hits: &[Hit], query_len: usize) -> Vec<HitRegion> {
    assert!(query_len > 0, "query_len must be positive");
    let mut regions: Vec<HitRegion> = Vec::new();
    let mut last_position = 0usize;
    for &hit in hits {
        assert!(
            regions.is_empty() || hit.position >= last_position,
            "hits must be sorted by position"
        );
        last_position = hit.position;
        match regions.last_mut() {
            Some(region) if hit.position < region.end => {
                region.end = region.end.max(hit.position + query_len);
                region.hit_count += 1;
                if hit.score > region.best.score {
                    region.best = hit;
                }
            }
            _ => regions.push(HitRegion {
                start: hit.position,
                end: hit.position + query_len,
                best: hit,
                hit_count: 1,
            }),
        }
    }
    regions
}

/// Merges per-shard hit lists (already translated into **global**
/// coordinates) into one position-sorted, duplicate-free list.
///
/// This is the one shared merge step for every shard-composing path —
/// [`crate::fleet::search_batch`], the batch scheduler's slices,
/// and any caller composing [`crate::slice_plan::overlap_ranges`] with
/// per-shard engines. Shards built with
/// `query_len - 1` bases of trailing overlap evaluate every window
/// straddling a boundary on **two** nodes; both report the same
/// `(position, score)` pair, and naive concatenation double-counts it.
/// Sorting then deduplicating exact duplicates restores the
/// single-engine hit list.
///
/// Input order is irrelevant (lists are sorted here), so the helper is
/// also safe when failed-over or hedged reads complete *after*
/// higher-offset shards.
pub fn merge_shard_hits(per_shard: impl IntoIterator<Item = Vec<Hit>>) -> Vec<Hit> {
    let mut hits: Vec<Hit> = per_shard.into_iter().flatten().collect();
    dedup_sorted_hits(&mut hits);
    hits
}

/// Sorts `hits` by `(position, score)` and removes exact duplicates
/// in place — the flat-list form of [`merge_shard_hits`].
pub fn dedup_sorted_hits(hits: &mut Vec<Hit>) {
    hits.sort_unstable_by_key(|h| (h.position, h.score));
    hits.dedup();
}

/// Like [`merge_overlapping`], but tolerates unsorted input by sorting
/// a copy first (sort-before-merge).
///
/// Use this on hit lists whose ordering is not guaranteed — e.g. shard
/// lists gathered in completion order while a dead node's shard fails
/// over to a survivor, which legally completes shards out of offset
/// order. [`merge_overlapping`] panics on such input; this variant
/// never does.
///
/// # Panics
///
/// Panics if `query_len == 0` (an empty query has no windows).
pub fn merge_overlapping_unsorted(hits: &[Hit], query_len: usize) -> Vec<HitRegion> {
    let mut sorted = hits.to_vec();
    dedup_sorted_hits(&mut sorted);
    merge_overlapping(&sorted, query_len)
}

/// The `k` best hits by score (ties: lower position first).
pub fn top_k(hits: &[Hit], k: usize) -> Vec<Hit> {
    let mut sorted: Vec<Hit> = hits.to_vec();
    sorted.sort_by(|a, b| b.score.cmp(&a.score).then(a.position.cmp(&b.position)));
    sorted.truncate(k);
    sorted
}

/// The single best hit, if any (ties: lowest position).
pub fn best_hit(hits: &[Hit]) -> Option<Hit> {
    top_k(hits, 1).into_iter().next()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit(position: usize, score: u32) -> Hit {
        Hit { position, score }
    }

    #[test]
    fn locate_keeps_windows_inside_one_record() {
        // Records of 10, 0 and 8 bases, then one of 5; windows of 4.
        let records = [0..10, 10..10, 10..18, 18..23];
        let at = |position| locate(hit(position, 7), 4, &records);
        assert_eq!(at(0), Some((0, hit(0, 7))));
        assert_eq!(at(6), Some((0, hit(6, 7))), "ends on the record end");
        assert_eq!(at(7), None, "crosses into the third record");
        assert_eq!(
            at(10),
            Some((2, hit(0, 7))),
            "the empty record holds nothing"
        );
        assert_eq!(at(14), Some((2, hit(4, 7))));
        assert_eq!(at(15), None);
        assert_eq!(at(19), Some((3, hit(1, 7))));
        assert_eq!(at(20), None, "runs past the last record");
        assert_eq!(locate(hit(3, 7), 4, &[]), None);
        let late = [5..20, 20..30];
        assert_eq!(locate(hit(3, 7), 4, &late), None, "before every record");
    }

    #[test]
    fn split_and_retain_apply_the_record_rule() {
        let records = [0..10, 10..18];
        let hits = [hit(2, 5), hit(6, 6), hit(8, 7), hit(11, 8), hit(15, 9)];
        assert_eq!(
            split_by_record(&hits, 4, &records),
            vec![(0, vec![hit(2, 5), hit(6, 6)]), (1, vec![hit(1, 8)])]
        );
        let mut kept = hits.to_vec();
        retain_within_records(&mut kept, 4, &records);
        assert_eq!(kept, vec![hit(2, 5), hit(6, 6), hit(11, 8)]);
        assert!(split_by_record(&[], 4, &records).is_empty());
    }

    #[test]
    fn merge_groups_overlapping_cluster() {
        let hits = [hit(100, 50), hit(101, 58), hit(102, 52), hit(400, 55)];
        let regions = merge_overlapping(&hits, 60);
        assert_eq!(regions.len(), 2);
        assert_eq!(regions[0].start, 100);
        assert_eq!(regions[0].end, 102 + 60);
        assert_eq!(regions[0].best, hit(101, 58));
        assert_eq!(regions[0].hit_count, 3);
        assert_eq!(regions[1].hit_count, 1);
        assert_eq!(regions[1].len(), 60);
    }

    #[test]
    fn adjacent_but_disjoint_hits_stay_separate() {
        let hits = [hit(0, 10), hit(60, 11)];
        let regions = merge_overlapping(&hits, 60);
        assert_eq!(regions.len(), 2);
    }

    #[test]
    fn chained_overlaps_extend_the_region() {
        // Each hit overlaps the next; the region spans all of them.
        let hits = [hit(0, 10), hit(30, 11), hit(59, 12), hit(80, 13)];
        let regions = merge_overlapping(&hits, 60);
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[0].end, 140);
        assert_eq!(regions[0].best.score, 13);
    }

    #[test]
    fn empty_hits_give_empty_regions() {
        assert!(merge_overlapping(&[], 10).is_empty());
    }

    #[test]
    fn top_k_orders_by_score_then_position() {
        let hits = [hit(5, 10), hit(1, 20), hit(9, 20), hit(3, 15)];
        let top = top_k(&hits, 3);
        assert_eq!(top, vec![hit(1, 20), hit(9, 20), hit(3, 15)]);
        assert_eq!(best_hit(&hits), Some(hit(1, 20)));
        assert_eq!(best_hit(&[]), None);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn merge_rejects_zero_query_len() {
        let _ = merge_overlapping(&[hit(0, 1)], 0);
    }

    #[test]
    fn shard_merge_drops_cross_shard_duplicates() {
        // Shard i's overlap tail and shard i+1's head both report the
        // boundary-straddling window at position 98.
        let shard0 = vec![hit(10, 5), hit(98, 9)];
        let shard1 = vec![hit(98, 9), hit(120, 7)];
        let merged = merge_shard_hits([shard0, shard1]);
        assert_eq!(merged, vec![hit(10, 5), hit(98, 9), hit(120, 7)]);
    }

    #[test]
    fn shard_merge_sorts_out_of_order_lists() {
        // Re-dispatch order: the orphaned low-offset shard finishes last.
        let survivor = vec![hit(500, 4), hit(800, 6)];
        let orphan = vec![hit(100, 3)];
        let merged = merge_shard_hits([survivor, orphan]);
        assert_eq!(merged, vec![hit(100, 3), hit(500, 4), hit(800, 6)]);
    }

    #[test]
    fn shard_merge_keeps_distinct_scores_at_one_position() {
        // Same position, different scores (multi-pass artefact): both are
        // distinct hits and must survive the exact-duplicate dedup.
        let merged = merge_shard_hits([vec![hit(42, 8)], vec![hit(42, 9)]]);
        assert_eq!(merged, vec![hit(42, 8), hit(42, 9)]);
    }

    #[test]
    fn unsorted_merge_matches_sorted_merge() {
        let unsorted = [hit(400, 55), hit(100, 50), hit(102, 52), hit(101, 58)];
        let regions = merge_overlapping_unsorted(&unsorted, 60);
        let mut sorted = unsorted.to_vec();
        sorted.sort_by_key(|h| h.position);
        assert_eq!(regions, merge_overlapping(&sorted, 60));
        // The strict variant panics on the same input.
        let panicked = std::panic::catch_unwind(|| merge_overlapping(&unsorted, 60));
        assert!(panicked.is_err(), "strict merge must reject unsorted hits");
    }
}
