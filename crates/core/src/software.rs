//! The scalar oracle engine: the hardware's scores, one window at a
//! time.
//!
//! [`SoftwareEngine`] scores every alignment position with the fused
//! comparator tables ([`fabp_encoding::fused::FusedScorer`]) and an
//! early-exit threshold scan. It computes *exactly* the hits the
//! cycle-level engine reports (property-tested). No production path
//! runs it: every software search goes through the fused bit-parallel
//! engine ([`crate::bitparallel::BitParallelEngine`]) under the
//! [`batch`](crate::batch) scheduler, and this engine stays as the
//! independent scalar reference that tests and benches compare against.

use crate::hits::Hit;
use fabp_bio::alphabet::Nucleotide;
use fabp_encoding::encoder::EncodedQuery;
use fabp_encoding::fused::FusedScorer;
use fabp_telemetry::{labels, Counter, Registry};

/// The scalar oracle engine for one encoded query.
#[derive(Debug, Clone)]
pub struct SoftwareEngine {
    fused: FusedScorer,
    query_len: usize,
    /// Telemetry handles, registered once at construction so the scan
    /// loops pay only an atomic add per chunk.
    queries_ctr: Counter,
    residues_ctr: Counter,
    hits_ctr: Counter,
}

impl SoftwareEngine {
    /// Builds the engine from an encoded query (telemetry goes to the
    /// global registry).
    pub fn new(query: &EncodedQuery) -> SoftwareEngine {
        SoftwareEngine::with_registry(query, Registry::global())
    }

    /// Builds the engine, publishing telemetry to `registry`.
    pub fn with_registry(query: &EncodedQuery, registry: &Registry) -> SoftwareEngine {
        let engine = labels(&[("engine", "software")]);
        SoftwareEngine {
            fused: FusedScorer::build(&query.decode()),
            query_len: query.len(),
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
        }
    }

    /// Query length in elements.
    pub fn query_len(&self) -> usize {
        self.query_len
    }

    /// Scans `reference` serially, reporting hits with
    /// `score >= threshold`.
    pub fn search(&self, reference: &[Nucleotide], threshold: u32) -> Vec<Hit> {
        self.queries_ctr.inc();
        self.search_range(reference, threshold, 0, usize::MAX)
    }

    /// Scans positions `start .. min(end, L_r − L_q + 1)`.
    pub fn search_range(
        &self,
        reference: &[Nucleotide],
        threshold: u32,
        start: usize,
        end: usize,
    ) -> Vec<Hit> {
        if self.query_len == 0 || reference.len() < self.query_len {
            return Vec::new();
        }
        let limit = (reference.len() - self.query_len + 1).min(end);
        let mut hits = Vec::new();
        for position in start..limit {
            if let Some(score) = self
                .fused
                .score_window_thresholded(&reference[position..], threshold)
            {
                hits.push(Hit { position, score });
            }
        }
        self.residues_ctr.add(limit.saturating_sub(start) as u64);
        self.hits_ctr.add(hits.len() as u64);
        hits
    }

    /// Raw scores at all positions (no threshold), for analysis workloads.
    pub fn score_all(&self, reference: &[Nucleotide]) -> Vec<u32> {
        self.fused.score_all_positions(reference)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabp_bio::generate::{random_protein, random_rna};
    use fabp_bio::seq::ProteinSeq;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn engine(protein: &str) -> SoftwareEngine {
        let protein: ProteinSeq = protein.parse().unwrap();
        SoftwareEngine::new(&EncodedQuery::from_protein(&protein))
    }

    #[test]
    fn serial_equals_bruteforce_threshold_filter() {
        let mut rng = StdRng::seed_from_u64(51);
        let protein = random_protein(12, &mut rng);
        let query = EncodedQuery::from_protein(&protein);
        let eng = SoftwareEngine::new(&query);
        let reference = random_rna(2_000, &mut rng);
        for threshold in [0u32, 15, 25, 36] {
            let hits = eng.search(reference.as_slice(), threshold);
            let expected: Vec<Hit> = query
                .score_all_positions(reference.as_slice())
                .into_iter()
                .enumerate()
                .filter(|&(_, s)| s as u32 >= threshold)
                .map(|(position, score)| Hit {
                    position,
                    score: score as u32,
                })
                .collect();
            assert_eq!(hits, expected, "threshold {threshold}");
        }
    }

    #[test]
    fn range_restricts_positions() {
        let mut rng = StdRng::seed_from_u64(53);
        let eng = engine("MKWVF");
        let reference = random_rna(1_000, &mut rng);
        let all = eng.search(reference.as_slice(), 0);
        let slice = eng.search_range(reference.as_slice(), 0, 100, 200);
        assert_eq!(slice.len(), 100);
        assert_eq!(&all[100..200], slice.as_slice());
    }

    #[test]
    fn short_reference_yields_nothing() {
        let eng = engine("MKWVF");
        assert!(eng.search(&[], 0).is_empty());
        let reference = random_rna(5, &mut StdRng::seed_from_u64(54));
        assert!(eng.search(reference.as_slice(), 0).is_empty());
    }
}
