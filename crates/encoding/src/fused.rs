//! Fused per-element match tables for scalar software scoring.
//!
//! The two-LUT comparator of the hardware (input multiplexer + compare
//! LUT, Fig. 5) is a pure function of the query element and the reference
//! context `(ref[i−2], ref[i−1], ref[i])`. Fusing both LUTs per query
//! element yields one 64-entry truth table, making the scalar inner loop a
//! single indexed bit test. No production scan runs it: it is the
//! one-window-at-a-time oracle behind `fabp-core`'s `SoftwareEngine`
//! and the GPU-kernel baseline in `fabp-baselines`. The production
//! kernel, `fabp-fpga`'s `BitParallelEngine`, builds the same tables
//! and scores 64 windows per word operation.

use fabp_bio::alphabet::Nucleotide;
use fabp_bio::backtranslate::BackTranslatedQuery;

/// Per-element fused truth tables.
///
/// Table `i`'s bit `ctx` (with `ctx = prev2 << 4 | prev1 << 2 | cur`)
/// tells whether query element `i` matches reference element `cur` given
/// the two earlier reference elements. Elements at positions 0 and 1 are
/// built with missing context, matching the hardware's zero-reset shift
/// registers.
///
/// # Examples
///
/// ```
/// use fabp_bio::backtranslate::BackTranslatedQuery;
/// use fabp_bio::seq::{ProteinSeq, RnaSeq};
/// use fabp_encoding::fused::FusedScorer;
///
/// let protein: ProteinSeq = "MF".parse()?;
/// let scorer = FusedScorer::build(&BackTranslatedQuery::from_protein(&protein));
/// let reference: RnaSeq = "AUGUUC".parse()?;
/// assert_eq!(scorer.score_window(reference.as_slice()), 6);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusedScorer {
    tables: Vec<u64>,
}

impl FusedScorer {
    /// Pre-computes the fused tables for a back-translated query.
    pub fn build(query: &BackTranslatedQuery) -> FusedScorer {
        let tables = query
            .elements()
            .iter()
            .enumerate()
            .map(|(i, element)| {
                let mut table = 0u64;
                for ctx in 0..64u8 {
                    let cur = Nucleotide::from_code2(ctx & 0b11);
                    let prev1 = (i >= 1).then(|| Nucleotide::from_code2((ctx >> 2) & 0b11));
                    let prev2 = (i >= 2).then(|| Nucleotide::from_code2((ctx >> 4) & 0b11));
                    if element.matches(cur, prev1, prev2) {
                        table |= 1 << ctx;
                    }
                }
                table
            })
            .collect();
        FusedScorer { tables }
    }

    /// Number of query elements.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// `true` when the query holds no elements.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Scores one window: popcount of matching elements.
    ///
    /// # Panics
    ///
    /// Panics if the window is shorter than the query.
    #[inline]
    pub fn score_window(&self, window: &[Nucleotide]) -> u32 {
        assert!(window.len() >= self.tables.len(), "window too short");
        let mut ctx: u8 = 0;
        let mut score = 0u32;
        for (i, &table) in self.tables.iter().enumerate() {
            ctx = ((ctx << 2) | window[i].code2()) & 0b11_1111;
            score += ((table >> ctx) & 1) as u32;
        }
        score
    }

    /// Scores every alignment position of `reference`.
    pub fn score_all_positions(&self, reference: &[Nucleotide]) -> Vec<u32> {
        if self.is_empty() || reference.len() < self.len() {
            return Vec::new();
        }
        (0..=reference.len() - self.len())
            .map(|k| self.score_window(&reference[k..]))
            .collect()
    }

    /// Scores with early exit: returns `None` as soon as the window cannot
    /// reach `threshold` any more (mismatch budget exhausted), else the
    /// score. A branchy but often much faster variant for high thresholds.
    #[inline]
    pub fn score_window_thresholded(&self, window: &[Nucleotide], threshold: u32) -> Option<u32> {
        debug_assert!(window.len() >= self.tables.len());
        let len = self.tables.len() as u32;
        if threshold > len {
            return None;
        }
        let budget = len - threshold; // allowed mismatches
        let mut misses = 0u32;
        let mut ctx: u8 = 0;
        for (i, &table) in self.tables.iter().enumerate() {
            ctx = ((ctx << 2) | window[i].code2()) & 0b11_1111;
            misses += 1 - (((table >> ctx) & 1) as u32);
            if misses > budget {
                return None;
            }
        }
        Some(len - misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabp_bio::generate::{random_protein, random_rna};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fused_matches_golden_model() {
        let mut rng = StdRng::seed_from_u64(41);
        for _ in 0..10 {
            let protein = random_protein(20, &mut rng);
            let bt = BackTranslatedQuery::from_protein(&protein);
            let scorer = FusedScorer::build(&bt);
            let reference = random_rna(300, &mut rng);
            let golden = bt.score_all_positions(reference.as_slice());
            let fast = scorer.score_all_positions(reference.as_slice());
            assert_eq!(golden.len(), fast.len());
            for (g, f) in golden.iter().zip(&fast) {
                assert_eq!(*g as u32, *f);
            }
        }
    }

    #[test]
    fn thresholded_agrees_with_plain() {
        let mut rng = StdRng::seed_from_u64(42);
        let protein = random_protein(15, &mut rng);
        let bt = BackTranslatedQuery::from_protein(&protein);
        let scorer = FusedScorer::build(&bt);
        let reference = random_rna(500, &mut rng);
        for threshold in [0u32, 10, 30, 44, 45] {
            for k in 0..=reference.len() - scorer.len() {
                let window = &reference.as_slice()[k..];
                let plain = scorer.score_window(window);
                let thresholded = scorer.score_window_thresholded(window, threshold);
                if plain >= threshold {
                    assert_eq!(thresholded, Some(plain), "k={k} t={threshold}");
                } else {
                    assert_eq!(thresholded, None, "k={k} t={threshold}");
                }
            }
        }
    }

    #[test]
    fn threshold_above_length_is_none() {
        let protein = "MF".parse().unwrap();
        let scorer = FusedScorer::build(&BackTranslatedQuery::from_protein(&protein));
        let reference = random_rna(10, &mut StdRng::seed_from_u64(1));
        assert_eq!(
            scorer.score_window_thresholded(reference.as_slice(), 7),
            None
        );
    }

    #[test]
    fn empty_query() {
        let scorer = FusedScorer::build(&BackTranslatedQuery::from_elements(Vec::new()));
        assert!(scorer.is_empty());
        assert!(scorer.score_all_positions(&[]).is_empty());
    }
}
