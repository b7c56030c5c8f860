//! TBLASTN-like protein-vs-nucleotide search — the paper's CPU baseline.
//!
//! "TBLASTN aligns protein queries against references of nucleotide
//! sequences. It translates the reference sequences to proteins and then
//! aligns the query with the translated reference sequence" (§II). The
//! pipeline follows NCBI BLAST's structure:
//!
//! 1. translate the reference in all three forward reading frames;
//! 2. scan each frame's words against the query [`WordIndex`]
//!    (neighbourhood seeding);
//! 3. trigger on two word hits on the same diagonal within a window
//!    (the two-hit heuristic), or one hit when configured;
//! 4. X-drop ungapped extension of triggered seeds;
//! 5. banded gapped Smith–Waterman for extensions above the trigger score.
//!
//! The serial and multi-threaded drivers share the same per-chunk kernel;
//! the 12-thread variant reproduces the paper's "multi-thread (12 threads)
//! CPU" configuration.

use crate::sw::{sw_banded_score, GapPenalties};
use fabp_bio::alphabet::AminoAcid;
use fabp_bio::blosum::blosum62;
use fabp_bio::seq::{ProteinSeq, RnaSeq};
use fabp_bio::translate::translate_frame;
use fabp_core::kmer::WordIndex;

/// Tuning parameters of the search (NCBI-flavoured defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TblastnConfig {
    /// Word size in residues (BLAST protein default: 3).
    pub word_size: usize,
    /// Neighbourhood threshold `T` (BLAST default: 11).
    pub neighbourhood_t: i32,
    /// Two-hit window in residues along the diagonal (BLAST default: 40).
    pub two_hit_window: usize,
    /// Require two hits before extending (BLAST default behaviour).
    pub two_hit: bool,
    /// X-drop for the ungapped extension.
    pub xdrop: i32,
    /// Ungapped score that triggers gapped extension.
    pub gapped_trigger: i32,
    /// Gap penalties for the gapped stage.
    pub gaps: GapPenalties,
    /// Band half-width for the gapped stage.
    pub band: usize,
    /// Minimum final score to report an HSP.
    pub min_score: i32,
}

impl Default for TblastnConfig {
    fn default() -> TblastnConfig {
        TblastnConfig {
            word_size: 3,
            neighbourhood_t: 11,
            two_hit_window: 40,
            two_hit: true,
            xdrop: 7,
            gapped_trigger: 22,
            gaps: GapPenalties::default(),
            band: 16,
            min_score: 40,
        }
    }
}

/// A reported high-scoring segment pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hsp {
    /// Reading frame offset (0, 1, 2).
    pub frame: u8,
    /// Seed position in the query (residues).
    pub query_pos: usize,
    /// Seed position in the translated frame (residues).
    pub frame_pos: usize,
    /// Nucleotide position of the seed codon in the reference.
    pub nucleotide_pos: usize,
    /// Final (gapped when triggered, else ungapped) score.
    pub score: i32,
}

/// Work counters used by the platform performance models.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Reference words scanned across all frames.
    pub words_scanned: u64,
    /// Hash-table seed hits.
    pub seed_hits: u64,
    /// Ungapped extensions performed.
    pub ungapped_extensions: u64,
    /// Gapped extensions performed.
    pub gapped_extensions: u64,
    /// Dynamic-programming cells evaluated in gapped extensions.
    pub dp_cells: u64,
}

impl SearchStats {
    /// Merge another stats block into this one.
    pub fn merge(&mut self, other: SearchStats) {
        self.words_scanned += other.words_scanned;
        self.seed_hits += other.seed_hits;
        self.ungapped_extensions += other.ungapped_extensions;
        self.gapped_extensions += other.gapped_extensions;
        self.dp_cells += other.dp_cells;
    }

    /// Publishes these counters (plus the HSP count) to `registry` as
    /// `fabp_tblastn_*_total` counters. Called once per completed
    /// search, so the per-word scan loop stays untouched.
    pub fn record(&self, registry: &fabp_telemetry::Registry, hsps: usize) {
        if !registry.is_enabled() {
            return;
        }
        registry
            .counter(
                "fabp_tblastn_words_scanned_total",
                "TBLASTN reference words scanned across all frames",
            )
            .add(self.words_scanned);
        registry
            .counter(
                "fabp_tblastn_seed_hits_total",
                "TBLASTN hash-table seed hits",
            )
            .add(self.seed_hits);
        registry
            .counter(
                "fabp_tblastn_ungapped_extensions_total",
                "TBLASTN ungapped X-drop extensions",
            )
            .add(self.ungapped_extensions);
        registry
            .counter(
                "fabp_tblastn_gapped_extensions_total",
                "TBLASTN banded gapped extensions",
            )
            .add(self.gapped_extensions);
        registry
            .counter(
                "fabp_tblastn_dp_cells_total",
                "TBLASTN dynamic-programming cells evaluated",
            )
            .add(self.dp_cells);
        registry
            .counter_with(
                "fabp_hits_total",
                "Hits emitted, by engine",
                fabp_telemetry::labels(&[("engine", "tblastn")]),
            )
            .add(hsps as u64);
    }
}

/// Result of one search: HSPs plus work statistics.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// HSPs above the score cutoff, ordered by (frame, nucleotide position).
    pub hsps: Vec<Hsp>,
    /// Work counters.
    pub stats: SearchStats,
}

/// X-drop ungapped extension of a word seed in both directions.
///
/// Returns the extension score. Public so the GPU model and tests can use
/// the same kernel.
pub fn ungapped_extend(
    query: &[AminoAcid],
    frame: &[AminoAcid],
    qpos: usize,
    fpos: usize,
    word: usize,
    xdrop: i32,
) -> i32 {
    // Score of the seed word itself.
    let mut score: i32 = (0..word)
        .map(|k| blosum62(query[qpos + k], frame[fpos + k]))
        .sum();

    // Extend right.
    let mut best = score;
    let (mut qi, mut fi) = (qpos + word, fpos + word);
    while qi < query.len() && fi < frame.len() {
        score += blosum62(query[qi], frame[fi]);
        if score > best {
            best = score;
        } else if best - score > xdrop {
            break;
        }
        qi += 1;
        fi += 1;
    }

    // Extend left.
    let mut score = best;
    let (mut qi, mut fi) = (qpos, fpos);
    while qi > 0 && fi > 0 {
        qi -= 1;
        fi -= 1;
        score += blosum62(query[qi], frame[fi]);
        if score > best {
            best = score;
        } else if best - score > xdrop {
            break;
        }
    }
    best
}

/// Searches one translated frame. `frame_offset` is the frame id,
/// `nucleotide_base` the nucleotide coordinate of frame position 0.
#[allow(clippy::too_many_arguments)] // internal; mirrors the pipeline's knobs
fn search_frame(
    query: &[AminoAcid],
    index: &WordIndex,
    frame: &[AminoAcid],
    frame_offset: u8,
    nucleotide_base: usize,
    config: &TblastnConfig,
    out: &mut Vec<Hsp>,
    stats: &mut SearchStats,
) {
    let w = config.word_size;
    if frame.len() < w || query.len() < w {
        return;
    }
    let q = query.len();
    // Diagonal bookkeeping: diag = fpos - qpos + q (always positive).
    // One compact record per diagonal keeps the random accesses of the
    // seed loop within a single cache line each.
    #[derive(Clone, Copy)]
    struct DiagState {
        /// Last un-extended hit position (two-hit anchor).
        last_hit: u32,
        /// End of the last extension (suppresses rescanning).
        covered_until: u32,
    }
    let diag_count = frame.len() + q + 1;
    let mut diags = vec![
        DiagState {
            last_hit: u32::MAX,
            covered_until: 0,
        };
        diag_count
    ];

    // Rolling packed word key over the frame (drop the oldest residue's
    // digit, append the newest).
    let modulus = index.rolling_modulus();
    let mut key = frame[..w - 1]
        .iter()
        .fold(0usize, |acc, aa| acc * 21 + aa.index());

    for fpos in 0..=frame.len() - w {
        key = (key % modulus) * 21 + frame[fpos + w - 1].index();
        stats.words_scanned += 1;
        for &qpos in index.lookup_key(key) {
            let qpos = qpos as usize;
            stats.seed_hits += 1;
            let diag = fpos + q - qpos;
            let state = &mut diags[diag];
            if (fpos as u32) < state.covered_until {
                continue; // already inside an extended HSP on this diagonal
            }
            let trigger = if config.two_hit {
                // NCBI-style two-hit: the pair must be non-overlapping
                // (≥ w apart) and within the window. Overlapping hits keep
                // the earlier anchor; stale hits restart the window.
                let prev = state.last_hit;
                if prev == u32::MAX || fpos as u32 <= prev {
                    state.last_hit = fpos as u32;
                    false
                } else {
                    let d = fpos - prev as usize;
                    if d < w {
                        false // overlapping: keep the earlier anchor
                    } else {
                        state.last_hit = fpos as u32;
                        d <= config.two_hit_window
                    }
                }
            } else {
                true
            };
            if !trigger {
                continue;
            }

            stats.ungapped_extensions += 1;
            let ungapped = ungapped_extend(query, frame, qpos, fpos, w, config.xdrop);
            diags[diag].covered_until = (fpos + w) as u32;

            let final_score = if ungapped >= config.gapped_trigger {
                stats.gapped_extensions += 1;
                // Banded gapped alignment around the seed diagonal over a
                // local window of the frame.
                let window_start = fpos.saturating_sub(qpos + config.band);
                let window_end = (fpos + (q - qpos) + config.band).min(frame.len());
                let window = &frame[window_start..window_end];
                let shift = fpos as isize - qpos as isize - window_start as isize;
                stats.dp_cells += (q * (2 * config.band + 1)) as u64;
                sw_banded_score(query, window, blosum62, config.gaps, shift, config.band)
            } else {
                ungapped
            };

            if final_score >= config.min_score {
                out.push(Hsp {
                    frame: frame_offset,
                    query_pos: qpos,
                    frame_pos: fpos,
                    nucleotide_pos: nucleotide_base + 3 * fpos,
                    score: final_score,
                });
            }
        }
    }
}

/// Serial TBLASTN-like search of a protein query against an RNA reference
/// (three forward frames).
///
/// # Examples
///
/// ```
/// use fabp_bio::seq::{ProteinSeq, RnaSeq};
/// use fabp_baselines::tblastn::{tblastn_search, TblastnConfig};
///
/// let query: ProteinSeq = "MKWVFLLAMKWVFLLA".parse()?;
/// // Reference containing the query's coding sequence.
/// let reference: RnaSeq =
///     "AUGAAAUGGGUUUUUCUACUAGCUAUGAAAUGGGUUUUUCUACUAGCU".parse()?;
/// let result = tblastn_search(&query, &reference, &TblastnConfig::default());
/// assert!(!result.hsps.is_empty());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn tblastn_search(
    query: &ProteinSeq,
    reference: &RnaSeq,
    config: &TblastnConfig,
) -> SearchResult {
    let index = WordIndex::build(query.as_slice(), config.word_size, config.neighbourhood_t);
    let mut result = SearchResult {
        hsps: Vec::new(),
        stats: SearchStats::default(),
    };
    for offset in 0u8..3 {
        let frame = translate_frame(reference, offset);
        search_frame(
            query.as_slice(),
            &index,
            frame.as_slice(),
            offset,
            offset as usize,
            config,
            &mut result.hsps,
            &mut result.stats,
        );
    }
    result
        .hsps
        .sort_by_key(|h| (h.frame, h.nucleotide_pos, h.query_pos));
    result
        .stats
        .record(fabp_telemetry::Registry::global(), result.hsps.len());
    result
}

/// Multi-threaded search: the reference is split into overlapping chunks
/// distributed over `threads` workers (the paper's 12-thread baseline uses
/// `threads = 12`).
pub fn tblastn_search_parallel(
    query: &ProteinSeq,
    reference: &RnaSeq,
    config: &TblastnConfig,
    threads: usize,
) -> SearchResult {
    let threads = threads.max(1);
    if threads == 1 || reference.len() < 4096 {
        return tblastn_search(query, reference, config);
    }
    let index = WordIndex::build(query.as_slice(), config.word_size, config.neighbourhood_t);
    // Overlap must cover a full alignment plus band so chunk-boundary HSPs
    // are found by at least one worker (in nucleotides, codon-aligned).
    let overlap = 3 * (query.len() + 2 * config.band + config.two_hit_window);
    let chunk_len = reference.len().div_ceil(threads).max(overlap);

    let bases = reference.as_slice();
    let mut results: Vec<(Vec<Hsp>, SearchStats)> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        let mut start = 0usize;
        while start < bases.len() {
            let end = (start + chunk_len + overlap).min(bases.len());
            let chunk = &bases[start..end];
            let index = &index;
            let query = query.as_slice();
            handles.push((
                start,
                scope.spawn(move || {
                    let mut hsps = Vec::new();
                    let mut stats = SearchStats::default();
                    let chunk_rna: RnaSeq = chunk.iter().copied().collect();
                    for offset in 0u8..3 {
                        let frame = translate_frame(&chunk_rna, offset);
                        search_frame(
                            query,
                            index,
                            frame.as_slice(),
                            offset,
                            offset as usize,
                            config,
                            &mut hsps,
                            &mut stats,
                        );
                    }
                    (hsps, stats)
                }),
            ));
            start += chunk_len;
        }
        for (chunk_start, handle) in handles {
            let (mut hsps, stats) = handle.join().expect("search worker panicked");
            for h in &mut hsps {
                h.nucleotide_pos += chunk_start;
                // Frame ids are relative to the chunk; renormalise to the
                // global frame of the seed's nucleotide position.
                h.frame = (h.nucleotide_pos % 3) as u8;
            }
            results.push((hsps, stats));
        }
    });

    let mut merged = SearchResult {
        hsps: Vec::new(),
        stats: SearchStats::default(),
    };
    for (hsps, stats) in results {
        merged.hsps.extend(hsps);
        merged.stats.merge(stats);
    }
    // Deduplicate overlap-region duplicates.
    merged.hsps.sort_by_key(|h| {
        (
            h.frame,
            h.nucleotide_pos,
            h.query_pos,
            std::cmp::Reverse(h.score),
        )
    });
    merged
        .hsps
        .dedup_by_key(|h| (h.frame, h.nucleotide_pos, h.query_pos));
    merged
        .stats
        .record(fabp_telemetry::Registry::global(), merged.hsps.len());
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabp_bio::alphabet::Nucleotide;
    use fabp_bio::generate::{coding_rna_for, random_protein, random_rna};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn plant(reference: &RnaSeq, coding: &RnaSeq, at: usize) -> RnaSeq {
        let mut bases: Vec<Nucleotide> = reference.as_slice().to_vec();
        bases.splice(at..at + coding.len(), coding.iter().copied());
        RnaSeq::from(bases)
    }

    #[test]
    fn finds_planted_homology_in_each_frame() {
        let mut rng = StdRng::seed_from_u64(21);
        let protein = random_protein(40, &mut rng);
        let coding = coding_rna_for(&protein, &mut rng);
        for frame in 0usize..3 {
            let background = random_rna(3000, &mut rng);
            let at = 900 + frame;
            let reference = plant(&background, &coding, at);
            let result = tblastn_search(&protein, &reference, &TblastnConfig::default());
            let hit = result
                .hsps
                .iter()
                .find(|h| h.nucleotide_pos.abs_diff(at) < 3 * 40);
            assert!(
                hit.is_some(),
                "frame {frame}: no HSP near {at}; got {:?}",
                result.hsps
            );
            assert_eq!(hit.unwrap().frame as usize, frame);
        }
    }

    #[test]
    fn hsp_score_reflects_full_match() {
        let mut rng = StdRng::seed_from_u64(22);
        let protein = random_protein(30, &mut rng);
        let coding = coding_rna_for(&protein, &mut rng);
        let background = random_rna(2000, &mut rng);
        let reference = plant(&background, &coding, 600);
        let result = tblastn_search(&protein, &reference, &TblastnConfig::default());
        let best = result.hsps.iter().map(|h| h.score).max().unwrap();
        let self_score: i32 = protein.iter().map(|&a| blosum62(a, a)).sum();
        assert!(
            best >= self_score * 9 / 10,
            "best {best} vs self-score {self_score}"
        );
    }

    #[test]
    fn random_reference_yields_few_hits() {
        let mut rng = StdRng::seed_from_u64(23);
        let protein = random_protein(50, &mut rng);
        let reference = random_rna(30_000, &mut rng);
        let result = tblastn_search(&protein, &reference, &TblastnConfig::default());
        assert!(
            result.hsps.len() < 5,
            "unexpected hits in random data: {}",
            result.hsps.len()
        );
        assert!(result.stats.words_scanned > 25_000);
    }

    #[test]
    fn two_hit_reduces_extensions() {
        let mut rng = StdRng::seed_from_u64(24);
        let protein = random_protein(40, &mut rng);
        let reference = random_rna(20_000, &mut rng);
        let two_hit = tblastn_search(&protein, &reference, &TblastnConfig::default());
        let one_hit = tblastn_search(
            &protein,
            &reference,
            &TblastnConfig {
                two_hit: false,
                ..TblastnConfig::default()
            },
        );
        assert!(
            two_hit.stats.ungapped_extensions < one_hit.stats.ungapped_extensions,
            "two-hit {} vs one-hit {}",
            two_hit.stats.ungapped_extensions,
            one_hit.stats.ungapped_extensions
        );
    }

    #[test]
    fn parallel_matches_serial_hits() {
        let mut rng = StdRng::seed_from_u64(25);
        let protein = random_protein(35, &mut rng);
        let coding = coding_rna_for(&protein, &mut rng);
        let background = random_rna(40_000, &mut rng);
        let reference = plant(&background, &coding, 17_000);

        let serial = tblastn_search(&protein, &reference, &TblastnConfig::default());
        let parallel = tblastn_search_parallel(&protein, &reference, &TblastnConfig::default(), 4);

        // The planted hit must be found by both.
        let near = |hs: &[Hsp]| {
            hs.iter()
                .any(|h| h.nucleotide_pos.abs_diff(17_000) < 3 * 35)
        };
        assert!(near(&serial.hsps));
        assert!(near(&parallel.hsps));
        // Parallel finds at least everything serial finds (it may find
        // boundary duplicates which dedup removes).
        let serial_best = serial.hsps.iter().map(|h| h.score).max().unwrap_or(0);
        let parallel_best = parallel.hsps.iter().map(|h| h.score).max().unwrap_or(0);
        assert_eq!(serial_best, parallel_best);
    }

    #[test]
    fn ungapped_extension_grows_score() {
        let mut rng = StdRng::seed_from_u64(26);
        let protein = random_protein(20, &mut rng);
        // frame = query itself: extension from the middle should reach the
        // full self-score.
        let q = protein.as_slice();
        let score = ungapped_extend(q, q, 8, 8, 3, 1000);
        let self_score: i32 = q.iter().map(|&a| blosum62(a, a)).sum();
        assert_eq!(score, self_score);
    }

    #[test]
    fn stats_counters_are_populated() {
        let mut rng = StdRng::seed_from_u64(27);
        let protein = random_protein(30, &mut rng);
        let coding = coding_rna_for(&protein, &mut rng);
        let background = random_rna(5_000, &mut rng);
        let reference = plant(&background, &coding, 1_200);
        let result = tblastn_search(&protein, &reference, &TblastnConfig::default());
        assert!(result.stats.words_scanned > 0);
        assert!(result.stats.seed_hits > 0);
        assert!(result.stats.ungapped_extensions > 0);
        assert!(result.stats.gapped_extensions > 0);
        assert!(result.stats.dp_cells > 0);
    }

    #[test]
    fn empty_query_or_reference() {
        let empty_q = ProteinSeq::new();
        let reference: RnaSeq = "ACGUACGUACGU".parse().unwrap();
        let r = tblastn_search(&empty_q, &reference, &TblastnConfig::default());
        assert!(r.hsps.is_empty());
        let q: ProteinSeq = "MKWVF".parse().unwrap();
        let r = tblastn_search(&q, &RnaSeq::new(), &TblastnConfig::default());
        assert!(r.hsps.is_empty());
    }
}
