//! Seeded input generation and the golden-model checks every output
//! must pass before it counts.
//!
//! Inputs come from `PlantedDatabase::generate`: a random reference with
//! one exact paper-codon copy of each query planted at a known position.
//! The oracle is the paper's back-translation model
//! (`BackTranslatedQuery::score_window`), evaluated around every planted
//! homolog: hits there must match it exactly, and any hit reported
//! elsewhere must carry its exact golden score.

use fabp_bio::alphabet::Nucleotide;
use fabp_bio::backtranslate::BackTranslatedQuery;
use fabp_bio::generate::{PlantedDatabase, PlantedDatabaseConfig};
use fabp_bio::seq::ProteinSeq;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Alignment threshold as a fraction of the query's elements (the
/// `fabp_search` default).
pub const THRESHOLD: f64 = 0.9;

/// Shards of every persistent index the workloads build: eight, the
/// geometry of `bench_serve`'s pinned index.
pub const INDEX_SHARDS: usize = 8;

/// Sizes of a generated input set.
pub struct InputShape {
    pub queries: usize,
    pub query_aa: usize,
    pub reference_bases: usize,
    /// FASTA records the reference is split into, in equal parts.
    pub contigs: usize,
}

/// Generates the inputs for `seed`: the same seed gives the same inputs.
pub fn generate(seed: u64, shape: &InputShape) -> PlantedDatabase {
    // `generate` plants query k inside slot k of `reference_bases /
    // queries` bases; when the contigs are whole numbers of slots, no
    // plant straddles a record boundary.
    assert!(
        shape.queries.is_multiple_of(shape.contigs)
            && shape.reference_bases.is_multiple_of(shape.queries),
        "contig boundaries must fall between planting slots"
    );
    PlantedDatabase::generate(
        &PlantedDatabaseConfig {
            reference_len: shape.reference_bases,
            num_queries: shape.queries,
            query_len: shape.query_aa,
            paper_codons_only: true,
            ..PlantedDatabaseConfig::default()
        },
        &mut StdRng::seed_from_u64(seed),
    )
}

/// The golden model for one query.
pub struct Golden {
    query: BackTranslatedQuery,
    threshold: u32,
}

impl Golden {
    pub fn new(protein: &ProteinSeq) -> Golden {
        let query = BackTranslatedQuery::from_protein(protein);
        let threshold = (query.len() as f64 * THRESHOLD).ceil() as u32;
        Golden { query, threshold }
    }

    /// Query length in elements (three per residue).
    pub fn len(&self) -> usize {
        self.query.len()
    }

    /// Golden score of the window at `pos`, `None` past the end.
    pub fn score(&self, reference: &[Nucleotide], pos: usize) -> Option<u32> {
        let window = reference.get(pos..pos.checked_add(self.len())?)?;
        Some(self.query.score_window(window) as u32)
    }

    /// Whether `(pos, score)` is a true hit of this query.
    pub fn confirms(&self, reference: &[Nucleotide], pos: usize, score: u32) -> bool {
        score >= self.threshold && self.score(reference, pos) == Some(score)
    }

    /// Golden hits `(position, score)` with positions in `[lo, hi)`.
    fn hits_in(&self, reference: &[Nucleotide], lo: usize, hi: usize) -> Vec<(usize, u32)> {
        (lo..hi)
            .filter_map(|pos| Some((pos, self.score(reference, pos)?)))
            .filter(|&(_, score)| score >= self.threshold)
            .collect()
    }
}

/// What one query must report against one reference: the golden hits
/// inside the zones around its planted homologs.
pub struct Expected {
    pub golden: Golden,
    /// `[lo, hi)` position ranges searched exhaustively by the oracle.
    zones: Vec<(usize, usize)>,
    /// Golden hits inside `zones`, position-sorted.
    pub hits: Vec<(usize, u32)>,
}

impl Expected {
    /// The oracle for `protein` planted at `sites` of `reference`.
    pub fn new(protein: &ProteinSeq, reference: &[Nucleotide], sites: &[usize]) -> Expected {
        let golden = Golden::new(protein);
        let reach = 2 * golden.len();
        let mut zones: Vec<(usize, usize)> = sites
            .iter()
            .map(|&at| (at.saturating_sub(reach), (at + reach).min(reference.len())))
            .collect();
        zones.sort_unstable();
        let mut hits: Vec<(usize, u32)> = zones
            .iter()
            .flat_map(|&(lo, hi)| golden.hits_in(reference, lo, hi))
            .collect();
        hits.sort_unstable();
        hits.dedup();
        Expected {
            golden,
            zones,
            hits,
        }
    }

    fn in_zone(&self, pos: usize) -> bool {
        self.zones.iter().any(|&(lo, hi)| (lo..hi).contains(&pos))
    }

    /// Checks a reported hit list: exactly the golden hits inside the
    /// zones, and only true hits outside them.
    pub fn check_hits(&self, reference: &[Nucleotide], got: &[(usize, u32)]) -> bool {
        let sorted = got.windows(2).all(|w| w[0].0 < w[1].0);
        let zoned: Vec<(usize, u32)> = got.iter().copied().filter(|h| self.in_zone(h.0)).collect();
        sorted
            && zoned == self.hits
            && got
                .iter()
                .filter(|h| !self.in_zone(h.0))
                .all(|&(pos, score)| self.golden.confirms(reference, pos, score))
    }

    /// The regions `fabp_search` must report inside the zones.
    pub fn regions(&self) -> Vec<Region> {
        merge_regions(&self.hits, self.golden.len())
    }

    /// Checks one reported region that is not among [`Expected::regions`]:
    /// it must lie outside the zones and its best hit must be true.
    pub fn confirms_extra(&self, reference: &[Nucleotide], region: &Region) -> bool {
        !(region.start..region.end).any(|pos| self.in_zone(pos))
            && (region.start..region.end).contains(&region.best_pos)
            && self
                .golden
                .confirms(reference, region.best_pos, region.score)
    }
}

/// A merged run of overlapping hits, as `fabp_search` reports it.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Region {
    pub start: usize,
    pub end: usize,
    pub best_pos: usize,
    pub score: u32,
    pub hits: usize,
}

/// Merges position-sorted hits whose windows overlap (positions closer
/// than `len`); the best hit is the leftmost highest score.
pub fn merge_regions(hits: &[(usize, u32)], len: usize) -> Vec<Region> {
    let mut regions: Vec<Region> = Vec::new();
    for &(pos, score) in hits {
        match regions.last_mut() {
            Some(r) if pos < r.end => {
                r.end = r.end.max(pos + len);
                r.hits += 1;
                if score > r.score {
                    r.best_pos = pos;
                    r.score = score;
                }
            }
            _ => regions.push(Region {
                start: pos,
                end: pos + len,
                best_pos: pos,
                score,
                hits: 1,
            }),
        }
    }
    regions
}
