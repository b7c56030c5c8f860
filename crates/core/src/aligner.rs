//! The `FabpAligner` public API: the paper's full flow (Fig. 1) behind one
//! builder.
//!
//! Back-translation → encoding → alignment → thresholded hits, with a
//! choice of execution engine:
//!
//! * [`Engine::Software`] — the fused bit-parallel engine
//!   ([`BitParallelEngine`]) under the [`batch`](crate::batch) scheduler
//!   (identical hits, no timing);
//! * [`Engine::CycleAccurate`] — the `fabp-fpga` cycle-level simulator
//!   (identical hits *plus* cycle/bandwidth statistics).

use crate::bitparallel::{BitParallelEngine, UnsupportedQuery};
use crate::hits::{merge_overlapping, Hit, HitRegion};
use crate::slice_plan::SliceOptions;
use fabp_bio::backtranslate::BackTranslationMode;
use fabp_bio::seq::{PackedSeq, ProteinSeq, RnaSeq};
use fabp_encoding::encoder::{EncodedQuery, QuerySet};
use fabp_fpga::engine::{EngineConfig, EngineStats, FabpEngine};
use fabp_fpga::resources::PlanError;
use std::fmt;

/// How the alignment threshold is specified.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Threshold {
    /// Absolute score (matching elements).
    Absolute(u32),
    /// Fraction of the query length in `[0, 1]`; e.g. `0.9` reports
    /// windows matching ≥ 90 % of elements.
    Fraction(f64),
}

impl Threshold {
    /// Resolves to an absolute score for a query of `query_len` elements.
    pub fn resolve(self, query_len: usize) -> u32 {
        match self {
            Threshold::Absolute(t) => t,
            Threshold::Fraction(f) => (query_len as f64 * f.clamp(0.0, 1.0)).ceil() as u32,
        }
    }
}

/// Which execution engine performs the scan.
#[derive(Debug, Clone)]
pub enum Engine {
    /// The fused bit-parallel engine with `threads` workers.
    Software {
        /// Worker threads (1 = serial).
        threads: usize,
    },
    /// Cycle-level FPGA simulation with the given configuration (the
    /// configuration's own threshold field is overridden by the
    /// aligner's).
    CycleAccurate(Box<EngineConfig>),
}

impl Default for Engine {
    fn default() -> Engine {
        Engine::Software { threads: 1 }
    }
}

/// Errors from building an aligner.
#[derive(Debug)]
pub enum BuildError {
    /// The query was empty.
    EmptyQuery,
    /// The cycle-accurate engine could not fit the query on the device.
    Plan(PlanError),
    /// The fused software engine cannot score the query (longer than
    /// 65 535 elements).
    Unsupported(UnsupportedQuery),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::EmptyQuery => write!(f, "query must contain at least one element"),
            BuildError::Plan(e) => write!(f, "architecture planning failed: {e}"),
            BuildError::Unsupported(e) => write!(f, "unsupported query: {e}"),
        }
    }
}

impl std::error::Error for BuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BuildError::EmptyQuery => None,
            BuildError::Plan(e) => Some(e),
            BuildError::Unsupported(e) => Some(e),
        }
    }
}

impl From<PlanError> for BuildError {
    fn from(e: PlanError) -> BuildError {
        BuildError::Plan(e)
    }
}

impl From<UnsupportedQuery> for BuildError {
    fn from(e: UnsupportedQuery) -> BuildError {
        BuildError::Unsupported(e)
    }
}

impl From<BuildError> for fabp_resilience::FabpError {
    fn from(e: BuildError) -> fabp_resilience::FabpError {
        match e {
            BuildError::EmptyQuery => fabp_resilience::FabpError::EmptyQuery,
            BuildError::Plan(p) => fabp_resilience::FabpError::Plan(p.to_string()),
            BuildError::Unsupported(u) => u.into(),
        }
    }
}

/// Result of one search.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Hits at or above the threshold, position-sorted.
    pub hits: Vec<Hit>,
    /// The absolute threshold that was applied.
    pub threshold: u32,
    /// Query length in elements.
    pub query_len: usize,
    /// Cycle statistics (cycle-accurate engine only).
    pub stats: Option<EngineStats>,
}

impl SearchOutcome {
    /// Merges overlapping hits into regions.
    pub fn regions(&self) -> Vec<HitRegion> {
        merge_overlapping(&self.hits, self.query_len)
    }
}

/// Builder for [`FabpAligner`].
#[derive(Debug, Default)]
pub struct FabpAlignerBuilder {
    query: Option<EncodedQuery>,
    protein: Option<ProteinSeq>,
    threshold: Option<Threshold>,
    engine: Engine,
    mode: BackTranslationMode,
}

impl FabpAlignerBuilder {
    /// Sets a protein query (back-translated with the paper's patterns).
    pub fn protein_query(mut self, protein: &ProteinSeq) -> FabpAlignerBuilder {
        self.query = Some(EncodedQuery::from_protein(protein));
        self.protein = Some(protein.clone());
        self
    }

    /// Sets an exact-match RNA query.
    pub fn rna_query(mut self, rna: &RnaSeq) -> FabpAlignerBuilder {
        self.query = Some(EncodedQuery::from_exact_rna(rna));
        self
    }

    /// Sets the reporting threshold (default: 90 % of the query length).
    pub fn threshold(mut self, threshold: Threshold) -> FabpAlignerBuilder {
        self.threshold = Some(threshold);
        self
    }

    /// Chooses the execution engine (default: serial software).
    pub fn engine(mut self, engine: Engine) -> FabpAlignerBuilder {
        self.engine = engine;
        self
    }

    /// Sets the Serine representation mode.
    ///
    /// [`BackTranslationMode::ExtendedSer`] makes the search multi-pass:
    /// one extra encoded query per serine position (covering the `AGU`/
    /// `AGC` codons the paper's single pattern drops), with per-position
    /// best-score merging. Only effective for protein queries.
    pub fn mode(mut self, mode: BackTranslationMode) -> FabpAlignerBuilder {
        self.mode = mode;
        self
    }

    /// Builds the aligner.
    ///
    /// # Errors
    ///
    /// [`BuildError::EmptyQuery`] when no query was set or it is empty;
    /// [`BuildError::Plan`] when the cycle-accurate engine cannot fit the
    /// query on its device; [`BuildError::Unsupported`] when the software
    /// engine cannot score it.
    pub fn build(self) -> Result<FabpAligner, BuildError> {
        let query = self
            .query
            .filter(|q| !q.is_empty())
            .ok_or(BuildError::EmptyQuery)?;
        let threshold = self
            .threshold
            .unwrap_or(Threshold::Fraction(0.9))
            .resolve(query.len());

        // Extended-Ser mode: one additional pass per serine position.
        let passes: Vec<EncodedQuery> = match (self.mode, &self.protein) {
            (BackTranslationMode::ExtendedSer, Some(protein)) => {
                let set = QuerySet::build(protein, BackTranslationMode::ExtendedSer);
                std::iter::once(set.primary).chain(set.secondary).collect()
            }
            _ => vec![query],
        };

        let backend = match self.engine {
            Engine::Software { threads } => Backend::Software(
                passes
                    .iter()
                    .map(BitParallelEngine::new)
                    .collect::<Result<_, _>>()?,
                threads.max(1),
            ),
            Engine::CycleAccurate(mut config) => {
                config.threshold = threshold;
                let engines = passes
                    .iter()
                    .map(|q| FabpEngine::new(q.clone(), (*config).clone()))
                    .collect::<Result<Vec<_>, _>>()?;
                Backend::Cycle(engines)
            }
        };

        Ok(FabpAligner {
            passes,
            threshold,
            backend,
            mode: self.mode,
        })
    }
}

enum Backend {
    Software(Vec<BitParallelEngine>, usize),
    Cycle(Vec<FabpEngine>),
}

impl fmt::Debug for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Backend::Software(engines, threads) => {
                write!(
                    f,
                    "Software {{ passes: {}, threads: {threads} }}",
                    engines.len()
                )
            }
            Backend::Cycle(engines) => write!(
                f,
                "CycleAccurate {{ passes: {}, plan: {:?} }}",
                engines.len(),
                engines.first().map(|e| e.plan())
            ),
        }
    }
}

/// Per-position best-score merge of multi-pass hit lists (both inputs
/// position-sorted): the reduction over passes shared by the batch
/// scheduler and the cycle-accurate backend.
pub(crate) fn merge_hits(mut base: Vec<Hit>, extra: Vec<Hit>) -> Vec<Hit> {
    let mut merged = Vec::with_capacity(base.len().max(extra.len()));
    let mut b = base.drain(..).peekable();
    let mut e = extra.into_iter().peekable();
    loop {
        match (b.peek(), e.peek()) {
            (Some(x), Some(y)) if x.position == y.position => {
                let score = x.score.max(y.score);
                let position = x.position;
                b.next();
                e.next();
                merged.push(Hit { position, score });
            }
            (Some(x), Some(y)) => {
                if x.position < y.position {
                    merged.push(*x);
                    b.next();
                } else {
                    merged.push(*y);
                    e.next();
                }
            }
            (Some(_), None) => {
                merged.extend(b);
                break;
            }
            (None, Some(_)) => {
                merged.extend(e);
                break;
            }
            (None, None) => break,
        }
    }
    merged
}

/// The FabP aligner: searches RNA/DNA references for regions a protein
/// query could encode.
///
/// # Examples
///
/// ```
/// use fabp_core::aligner::{FabpAligner, Threshold};
/// use fabp_bio::seq::{ProteinSeq, RnaSeq};
///
/// let protein: ProteinSeq = "MF".parse()?;
/// let aligner = FabpAligner::builder()
///     .protein_query(&protein)
///     .threshold(Threshold::Absolute(6))
///     .build()?;
/// let reference: RnaSeq = "GGAUGUUUGG".parse()?;
/// let outcome = aligner.search(&reference);
/// assert_eq!(outcome.hits[0].position, 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct FabpAligner {
    /// One encoded query per search pass; the first is the query itself.
    passes: Vec<EncodedQuery>,
    threshold: u32,
    backend: Backend,
    mode: BackTranslationMode,
}

impl FabpAligner {
    /// Starts building an aligner.
    pub fn builder() -> FabpAlignerBuilder {
        FabpAlignerBuilder::default()
    }

    /// The encoded query.
    pub fn query(&self) -> &EncodedQuery {
        &self.passes[0]
    }

    /// The resolved absolute threshold.
    pub fn threshold(&self) -> u32 {
        self.threshold
    }

    /// The configured Serine representation mode.
    pub fn mode(&self) -> BackTranslationMode {
        self.mode
    }

    /// The architecture plan, when running cycle-accurately.
    pub fn plan(&self) -> Option<&fabp_fpga::resources::FabpPlan> {
        match &self.backend {
            Backend::Cycle(engines) => engines.first().map(|e| e.plan()),
            Backend::Software(..) => None,
        }
    }

    /// Number of search passes (1, plus one per serine in extended mode).
    pub fn passes(&self) -> usize {
        self.passes.len()
    }

    /// The fused engine of every pass, when this aligner runs on the
    /// software backend — the batch scheduler slices these across
    /// workers. `None` for the cycle-accurate backend, whose per-run
    /// statistics must accumulate inside a single whole-reference run.
    pub(crate) fn fused_passes(&self) -> Option<&[BitParallelEngine]> {
        match &self.backend {
            Backend::Software(engines, _) => Some(engines),
            Backend::Cycle(_) => None,
        }
    }

    /// Searches an RNA reference.
    pub fn search(&self, reference: &RnaSeq) -> SearchOutcome {
        match &self.backend {
            Backend::Software(_, threads) => {
                let (mut outcomes, _) =
                    crate::batch::run(&[self], reference, *threads, SliceOptions::default());
                outcomes.remove(0)
            }
            Backend::Cycle(_) => self.search_packed(&PackedSeq::from_rna(reference)),
        }
    }

    /// Searches a packed (2-bit) reference — the cycle-accurate engine's
    /// native input; the software engine unpacks.
    pub fn search_packed(&self, reference: &PackedSeq) -> SearchOutcome {
        match &self.backend {
            Backend::Software(..) => self.search(&reference.to_rna()),
            Backend::Cycle(engines) => {
                let mut hits: Option<Vec<Hit>> = None;
                let mut stats: Option<EngineStats> = None;
                for engine in engines {
                    let run = engine.run(reference);
                    hits = Some(match hits {
                        Some(existing) => merge_hits(existing, run.hits),
                        None => run.hits,
                    });
                    // Multi-pass cost accumulates: each extra query is a
                    // full reference scan on hardware.
                    stats = Some(match stats {
                        None => run.stats,
                        Some(mut acc) => {
                            acc.cycles += run.stats.cycles;
                            acc.beats += run.stats.beats;
                            acc.bytes_read += run.stats.bytes_read;
                            acc.stall_cycles += run.stats.stall_cycles;
                            acc.wb_stall_cycles += run.stats.wb_stall_cycles;
                            acc.busy_cycles += run.stats.busy_cycles;
                            acc.instances_evaluated += run.stats.instances_evaluated;
                            acc.kernel_seconds += run.stats.kernel_seconds;
                            // Aggregate bandwidth over all passes.
                            acc.achieved_bandwidth = if acc.kernel_seconds > 0.0 {
                                acc.bytes_read as f64 / acc.kernel_seconds
                            } else {
                                0.0
                            };
                            acc
                        }
                    });
                }
                SearchOutcome {
                    hits: hits.unwrap_or_default(),
                    threshold: self.threshold,
                    query_len: self.query().len(),
                    stats,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabp_bio::alphabet::Nucleotide;
    use fabp_bio::generate::{coding_rna_for_paper_patterns, random_protein, random_rna};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn threshold_resolution() {
        assert_eq!(Threshold::Absolute(42).resolve(100), 42);
        assert_eq!(Threshold::Fraction(0.9).resolve(150), 135);
        assert_eq!(Threshold::Fraction(1.5).resolve(10), 10); // clamped
        assert_eq!(Threshold::Fraction(0.0).resolve(10), 0);
    }

    #[test]
    fn software_and_cycle_engines_agree() {
        let mut rng = StdRng::seed_from_u64(61);
        let protein = random_protein(12, &mut rng);
        let coding = coding_rna_for_paper_patterns(&protein, &mut rng);
        let mut bases = random_rna(2_000, &mut rng).into_inner();
        bases.splice(700..700 + coding.len(), coding.iter().copied());
        let reference = RnaSeq::from(bases);

        let soft = FabpAligner::builder()
            .protein_query(&protein)
            .threshold(Threshold::Fraction(0.8))
            .engine(Engine::Software { threads: 4 })
            .build()
            .unwrap();
        let cycle = FabpAligner::builder()
            .protein_query(&protein)
            .threshold(Threshold::Fraction(0.8))
            .engine(Engine::CycleAccurate(Box::new(
                fabp_fpga::engine::EngineConfig::kintex7(0),
            )))
            .build()
            .unwrap();

        let a = soft.search(&reference);
        let b = cycle.search(&reference);
        assert_eq!(a.hits, b.hits);
        assert!(b.stats.is_some());
        assert!(a.stats.is_none());
        assert!(a.hits.iter().any(|h| h.position == 700));
    }

    #[test]
    fn default_threshold_is_90_percent() {
        let protein: ProteinSeq = "MKWVFMKWVF".parse().unwrap();
        let aligner = FabpAligner::builder()
            .protein_query(&protein)
            .build()
            .unwrap();
        assert_eq!(aligner.threshold(), 27); // ceil(30 * 0.9)
    }

    #[test]
    fn empty_query_is_rejected() {
        let err = FabpAligner::builder().build().unwrap_err();
        assert!(matches!(err, BuildError::EmptyQuery));
        let err = FabpAligner::builder()
            .rna_query(&RnaSeq::new())
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildError::EmptyQuery));
    }

    #[test]
    fn rna_query_does_exact_search() {
        let needle: RnaSeq = "ACGUACGU".parse().unwrap();
        let aligner = FabpAligner::builder()
            .rna_query(&needle)
            .threshold(Threshold::Fraction(1.0))
            .build()
            .unwrap();
        let mut reference: RnaSeq = "GGGG".parse().unwrap();
        reference.extend(needle.iter().copied());
        reference.extend([Nucleotide::G; 4]);
        let outcome = aligner.search(&reference);
        assert_eq!(outcome.hits.len(), 1);
        assert_eq!(outcome.hits[0].position, 4);
    }

    #[test]
    fn regions_are_derived_from_hits() {
        let protein: ProteinSeq = "MKW".parse().unwrap();
        let aligner = FabpAligner::builder()
            .protein_query(&protein)
            .threshold(Threshold::Absolute(0))
            .build()
            .unwrap();
        let reference = random_rna(100, &mut StdRng::seed_from_u64(62));
        let outcome = aligner.search(&reference);
        let regions = outcome.regions();
        assert_eq!(regions.len(), 1, "threshold 0 merges everything");
        assert_eq!(regions[0].hit_count, outcome.hits.len());
    }

    #[test]
    fn extended_ser_mode_recovers_agy_codons() {
        use fabp_bio::backtranslate::BackTranslationMode;
        use fabp_bio::generate::coding_rna_for;

        // Find a protein+coding pair whose serine uses AGU/AGC.
        let mut rng = StdRng::seed_from_u64(63);
        let protein: ProteinSeq = "MSFW".parse().unwrap();
        let coding = loop {
            let rna = coding_rna_for(&protein, &mut rng);
            if rna.as_slice()[3] == Nucleotide::A {
                break rna;
            }
        };
        let mut reference: RnaSeq = "GG".parse().unwrap();
        reference.extend(coding.iter().copied());
        reference.extend("GG".parse::<RnaSeq>().unwrap().iter().copied());

        let paper = FabpAligner::builder()
            .protein_query(&protein)
            .threshold(Threshold::Fraction(1.0))
            .build()
            .unwrap();
        assert_eq!(paper.passes(), 1);
        assert!(
            paper.search(&reference).hits.is_empty(),
            "paper mode misses AGY Ser"
        );

        let extended = FabpAligner::builder()
            .protein_query(&protein)
            .threshold(Threshold::Fraction(1.0))
            .mode(BackTranslationMode::ExtendedSer)
            .build()
            .unwrap();
        assert_eq!(extended.passes(), 2, "one extra pass for the single Ser");
        let hits = extended.search(&reference).hits;
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].position, 2);
    }

    #[test]
    fn extended_ser_cycle_engine_matches_software() {
        use fabp_bio::backtranslate::BackTranslationMode;
        let mut rng = StdRng::seed_from_u64(64);
        let protein: ProteinSeq = "MSSKW".parse().unwrap();
        let reference = random_rna(1_200, &mut rng);
        let build = |engine: Engine| {
            FabpAligner::builder()
                .protein_query(&protein)
                .threshold(Threshold::Fraction(0.6))
                .mode(BackTranslationMode::ExtendedSer)
                .engine(engine)
                .build()
                .unwrap()
        };
        let soft = build(Engine::Software { threads: 2 });
        let cycle = build(Engine::CycleAccurate(Box::new(
            fabp_fpga::engine::EngineConfig::kintex7(0),
        )));
        assert_eq!(soft.passes(), 3);
        let a = soft.search(&reference);
        let b = cycle.search(&reference);
        assert_eq!(a.hits, b.hits);
        // Multi-pass hardware cost: stats accumulate over passes.
        let stats = b.stats.unwrap();
        assert_eq!(stats.beats as usize, 3 * reference.len().div_ceil(256));
    }

    #[test]
    fn extended_mode_is_noop_for_rna_queries() {
        use fabp_bio::backtranslate::BackTranslationMode;
        let rna: RnaSeq = "ACGUACG".parse().unwrap();
        let aligner = FabpAligner::builder()
            .rna_query(&rna)
            .mode(BackTranslationMode::ExtendedSer)
            .build()
            .unwrap();
        assert_eq!(aligner.passes(), 1);
    }

    #[test]
    fn plan_is_exposed_for_cycle_engine() {
        let protein: ProteinSeq = "MKWVF".parse().unwrap();
        let soft = FabpAligner::builder()
            .protein_query(&protein)
            .build()
            .unwrap();
        assert!(soft.plan().is_none());
        let cycle = FabpAligner::builder()
            .protein_query(&protein)
            .engine(Engine::CycleAccurate(Box::new(
                fabp_fpga::engine::EngineConfig::kintex7(0),
            )))
            .build()
            .unwrap();
        assert_eq!(cycle.plan().unwrap().segments, 1);
    }
}
