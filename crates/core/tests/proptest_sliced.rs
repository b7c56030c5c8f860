//! Property tests: sliced-scan bit-identity.
//!
//! The sliced batch scheduler (reference slices stolen by workers,
//! multi-query SIMD lane groups per slice) must be **invisible** in the
//! hit stream: whatever the slice size, worker count, lane packing or
//! query mix, the per-query hits after
//! [`merge_shard_hits`](fabp_core::hits::merge_shard_hits) must equal
//! the serial oracle — [`BitParallelEngine::search_two_pass`] for
//! bit-parallel-eligible queries, the serial aligner for the rest. The
//! draws deliberately force slice boundaries *through* match windows
//! (tiny `min_slice_positions` against planted coding regions) so the
//! `window − 1` overlap arithmetic is exercised where it can actually
//! fail.
//!
//! The public entry points that run through the same scheduler —
//! `FabpAligner::search` at one and many threads, extended-Ser
//! aligners whose passes become fused lanes, and `StreamingAligner`
//! over random chunkings — are held to the golden back-translation
//! model directly.

use fabp_bio::alphabet::{AminoAcid, Nucleotide};
use fabp_bio::backtranslate::BackTranslationMode;
use fabp_bio::generate::{coding_rna_for_paper_patterns, random_protein, random_rna};
use fabp_bio::seq::{PackedSeq, RnaSeq};
use fabp_core::aligner::{Engine, FabpAligner, SearchOutcome, Threshold};
use fabp_core::batch::{search_prebuilt, BatchRunStats};
use fabp_core::hits::{split_by_record, Hit};
use fabp_core::slice_plan::{SliceOptions, SlicePlan};
use fabp_core::{BitParallelEngine, StreamingAligner, LANES};
use fabp_encoding::encoder::{EncodedQuery, QuerySet};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Borrow;

/// Golden hits: the positions whose best score over `passes`, scored by
/// the back-translation model (`BackTranslatedQuery::score_all_positions`),
/// reaches `threshold`.
fn golden_hits(passes: &[&EncodedQuery], reference: &[Nucleotide], threshold: u32) -> Vec<Hit> {
    let mut best: Vec<usize> = Vec::new();
    for pass in passes {
        let scores = pass.decode().score_all_positions(reference);
        best.resize(scores.len(), 0);
        for (b, s) in best.iter_mut().zip(scores) {
            *b = (*b).max(s);
        }
    }
    best.into_iter()
        .enumerate()
        .filter(|&(_, score)| score as u32 >= threshold)
        .map(|(position, score)| Hit {
            position,
            score: score as u32,
        })
        .collect()
}

/// [`search_prebuilt`] over `reference`, packed.
fn search_whole<A: Borrow<FabpAligner> + Sync>(
    aligners: &[A],
    reference: &RnaSeq,
    workers: usize,
    options: SliceOptions,
) -> (Vec<SearchOutcome>, BatchRunStats) {
    search_prebuilt(aligners, &PackedSeq::from_rna(reference), workers, options)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// **Sliced-batch bit-identity.** Random query count and a length
    /// per query, reference length, worker count and slice sizing: every
    /// query's batch hits equal its own serial `search_two_pass` oracle.
    /// Some cases draw a reference between the first lane group's
    /// shortest and longest windows, where only the shorter lanes have
    /// positions to score.
    #[test]
    fn sliced_batch_matches_two_pass_oracle(
        query_aas in prop::collection::vec(2usize..=16, 1..=6),
        reference_len in 200usize..=6_000,
        between_windows in any::<bool>(),
        workers in 2usize..=8,
        min_slice in 32usize..=512,
        slices_per_worker in 1usize..=4,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let proteins: Vec<_> = query_aas
            .iter()
            .map(|&aa| random_protein(aa, &mut rng))
            .collect();
        // The first lane group's windows (one lane per query here).
        let windows: Vec<usize> = query_aas.iter().take(LANES).map(|aa| 3 * aa).collect();
        let (shortest, longest) = (windows.iter().min().unwrap(), windows.iter().max().unwrap());
        let reference_len = if between_windows && shortest < longest {
            shortest + (seed as usize) % (longest - shortest)
        } else {
            reference_len
        };
        // Plant one real coding region per query so hits actually exist
        // for slice boundaries to straddle.
        let mut bases = random_rna(reference_len, &mut rng).into_inner();
        for protein in &proteins {
            let coding = coding_rna_for_paper_patterns(protein, &mut rng);
            if coding.len() < bases.len() {
                let at = (seed as usize) % (bases.len() - coding.len());
                bases.splice(at..at + coding.len(), coding.iter().copied());
            }
        }
        let reference = RnaSeq::from(bases);
        let aligners: Vec<FabpAligner> = proteins
            .iter()
            .map(|p| {
                FabpAligner::builder()
                    .protein_query(p)
                    .threshold(Threshold::Fraction(0.6))
                    .build()
                    .expect("non-empty query")
            })
            .collect();

        let options = SliceOptions { slices_per_worker, min_slice_positions: min_slice };
        let (sliced, stats) = search_whole(&aligners, &reference, workers, options);
        prop_assert_eq!(sliced.len(), aligners.len());
        prop_assert_eq!(stats.per_worker_busy_ns.len(), stats.workers);

        for (i, (aligner, outcome)) in aligners.iter().zip(&sliced).enumerate() {
            let oracle = BitParallelEngine::new(aligner.query())
                .expect("protein queries are bit-parallel eligible")
                .search_two_pass(reference.as_slice(), aligner.threshold());
            prop_assert_eq!(
                &outcome.hits, &oracle,
                "query {} of {:?} aa over {} bases (workers {}, min_slice {}, spw {})",
                i, query_aas, reference_len, workers, min_slice, slices_per_worker
            );
        }
    }

    /// **Records are references of their own, under one scan.** A
    /// reference cut into records — every other one shorter than 48
    /// bases, so some fall short of every window and some between the
    /// windows, and some plants split across a record end — is searched
    /// as one concatenation in one `search_prebuilt` call, and the record
    /// rule (`split_by_record`) splits each query's hits: each (record,
    /// query) outcome equals that query's two-pass oracle over the
    /// record's bases alone, at positions within the record.
    #[test]
    fn record_ranges_match_each_record_searched_alone(
        query_aas in prop::collection::vec(2usize..=12, 1..=6),
        record_lens in prop::collection::vec(0usize..=1_200, 1..=6),
        split_plants in prop::collection::vec(any::<bool>(), 6),
        workers in 1usize..=6,
        min_slice in 16usize..=256,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let proteins: Vec<_> = query_aas
            .iter()
            .map(|&aa| random_protein(aa, &mut rng))
            .collect();
        let records: Vec<RnaSeq> = record_lens
            .iter()
            .enumerate()
            .map(|(r, &len)| {
                let mut bases = random_rna(if r % 2 == 1 { len % 48 } else { len }, &mut rng).into_inner();
                let coding = coding_rna_for_paper_patterns(&proteins[r % proteins.len()], &mut rng);
                if coding.len() <= bases.len() {
                    let at = rng.gen_range(0..=bases.len() - coding.len());
                    bases.splice(at..at + coding.len(), coding.iter().copied());
                }
                RnaSeq::from(bases)
            })
            .collect();
        let mut records: Vec<Vec<Nucleotide>> =
            records.into_iter().map(RnaSeq::into_inner).collect();
        // Plant a coding region split across record `r`'s end and record
        // `r + 1`'s start: a window no record holds.
        for r in 0..records.len().saturating_sub(1) {
            let coding = coding_rna_for_paper_patterns(&proteins[r % proteins.len()], &mut rng);
            let head = rng.gen_range(1..coding.len());
            let fits = head <= records[r].len() && coding.len() - head <= records[r + 1].len();
            if split_plants[r] && fits {
                let tail_at = records[r].len() - head;
                records[r].splice(tail_at.., coding.as_slice()[..head].iter().copied());
                records[r + 1].splice(..coding.len() - head, coding.as_slice()[head..].iter().copied());
            }
        }
        let records: Vec<RnaSeq> = records.into_iter().map(RnaSeq::from).collect();
        let mut reference = PackedSeq::new();
        let mut ranges = Vec::new();
        for record in &records {
            let start = reference.len();
            reference.extend_from(&PackedSeq::from_rna(record));
            ranges.push(start..reference.len());
        }
        let aligners: Vec<FabpAligner> = proteins
            .iter()
            .map(|p| {
                FabpAligner::builder()
                    .protein_query(p)
                    .threshold(Threshold::Fraction(0.6))
                    .build()
                    .expect("non-empty query")
            })
            .collect();
        let options = SliceOptions { slices_per_worker: 2, min_slice_positions: min_slice };
        let (outcomes, stats) = search_prebuilt(&aligners, &reference, workers, options);
        prop_assert_eq!(outcomes.len(), aligners.len());
        prop_assert!(stats.workers <= workers);
        for (q, (aligner, outcome)) in aligners.iter().zip(&outcomes).enumerate() {
            let mut per_record = vec![Vec::new(); records.len()];
            for (r, hits) in split_by_record(&outcome.hits, outcome.query_len, &ranges) {
                per_record[r] = hits;
            }
            for (r, (record, hits)) in records.iter().zip(&per_record).enumerate() {
                let oracle = BitParallelEngine::new(aligner.query())
                    .expect("eligible")
                    .search_two_pass(record.as_slice(), aligner.threshold());
                prop_assert_eq!(
                    hits, &oracle,
                    "record {} of {:?} bases, query {} of {:?} aa",
                    r, record_lens, q, query_aas
                );
            }
        }
    }

    /// **Boundary-straddling planted hits.** One query, a planted exact
    /// match positioned *on* a slice boundary computed from the plan
    /// itself, pathologically small slices: the hit must survive with
    /// its exact score, once.
    #[test]
    fn planted_hit_straddling_a_slice_boundary_survives(
        query_aa in 3usize..=10,
        workers in 2usize..=8,
        min_slice in 16usize..=128,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let protein = random_protein(query_aa, &mut rng);
        let coding = coding_rna_for_paper_patterns(&protein, &mut rng);
        let window = coding.len();
        let reference_len = 4_000usize;

        // Plan first, then plant the coding region so it straddles the
        // first interior slice boundary (starts window/2 before it).
        let options = SliceOptions { slices_per_worker: 2, min_slice_positions: min_slice };
        let plan = SlicePlan::build(reference_len, window, workers, options);
        let mut bases = random_rna(reference_len, &mut rng).into_inner();
        let boundary = plan.slices().get(1).map(|s| s.start).unwrap_or(reference_len / 2);
        let at = boundary.saturating_sub(window / 2).min(reference_len - window);
        bases.splice(at..at + window, coding.iter().copied());
        let reference = RnaSeq::from(bases);

        let aligner = FabpAligner::builder()
            .protein_query(&protein)
            .threshold(Threshold::Fraction(1.0))
            .build()
            .expect("non-empty query");
        let (sliced, _) = search_whole(&[&aligner], &reference, workers, options);
        let oracle = BitParallelEngine::new(aligner.query())
            .expect("eligible")
            .search_two_pass(reference.as_slice(), aligner.threshold());
        prop_assert_eq!(&sliced[0].hits, &oracle);
        // The planted full-score hit is present exactly once.
        let planted: Vec<_> = sliced[0]
            .hits
            .iter()
            .filter(|h| h.position == at && h.score == window as u32)
            .collect();
        prop_assert_eq!(planted.len(), 1, "planted hit at {} (boundary {})", at, boundary);
    }

    /// **Degenerate geometry stays exact and duplicate-free.** Tiny
    /// references (shorter than, equal to, or barely longer than the
    /// window), pathologically small slices (slice length equal to the
    /// window−1 overlap), and single-slice plans: hits still equal the
    /// serial oracle and no `(position, score)` pair appears twice.
    #[test]
    fn degenerate_geometry_matches_oracle_without_duplicates(
        query_aa in 2usize..=8,
        extra_bases in 0usize..=40,
        workers in 1usize..=8,
        min_slice in 1usize..=4,
        slices_per_worker in 1usize..=4,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let protein = random_protein(query_aa, &mut rng);
        let window = protein.len() * 3;
        // Sweep the reference length across the degenerate boundary:
        // shorter than the window (no positions), exactly the window
        // (one position), and slightly longer (slice len ≈ overlap).
        let reference_len = window.saturating_sub(extra_bases % (window + 1)) + extra_bases;
        let mut bases = random_rna(reference_len, &mut rng).into_inner();
        if reference_len >= window {
            let coding = coding_rna_for_paper_patterns(&protein, &mut rng);
            let at = (seed as usize) % (reference_len - window + 1);
            bases.splice(at..at + window, coding.iter().copied());
        }
        let reference = RnaSeq::from(bases);
        let aligner = FabpAligner::builder()
            .protein_query(&protein)
            .threshold(Threshold::Fraction(0.6))
            .build()
            .expect("non-empty query");

        let options = SliceOptions { slices_per_worker, min_slice_positions: min_slice };
        // The plan itself must be well-formed: positions partition the
        // position space and interior overlaps are exactly window − 1.
        let plan = SlicePlan::build(reference_len, window, workers, options);
        prop_assert_eq!(
            plan.total_positions(),
            reference_len.saturating_sub(window - 1)
        );
        for pair in plan.slices().windows(2) {
            prop_assert_eq!(pair[0].end - pair[1].start, window - 1);
        }

        let (sliced, _) = search_whole(&[&aligner], &reference, workers, options);
        let oracle = BitParallelEngine::new(aligner.query())
            .expect("eligible")
            .search_two_pass(reference.as_slice(), aligner.threshold());
        prop_assert_eq!(&sliced[0].hits, &oracle,
            "ref {} window {} workers {} min_slice {}", reference_len, window, workers, min_slice);
        // No duplicate (position, score) pairs survive the merge.
        let mut pairs: Vec<_> = sliced[0].hits.iter().map(|h| (h.position, h.score)).collect();
        let before = pairs.len();
        pairs.dedup();
        prop_assert_eq!(pairs.len(), before, "duplicate hits leaked through the merge");
    }

    /// **Every software entry point equals the golden model.**
    /// `FabpAligner::search` at 1 and `threads` workers, in paper and
    /// extended-Ser mode (one extra fused pass per serine), and
    /// `StreamingAligner` fed random chunk sizes.
    #[test]
    fn aligner_and_streaming_match_the_golden_model(
        query_aa in 2usize..=12,
        reference_len in 0usize..=5_000,
        threads in 2usize..=8,
        fraction in 0.3f64..=1.0,
        extended in any::<bool>(),
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut protein = random_protein(query_aa, &mut rng);
        // At least one serine, so extended mode really adds a pass.
        let ser_at = rng.gen_range(0..query_aa);
        protein = protein
            .iter()
            .enumerate()
            .map(|(i, &aa)| if i == ser_at { AminoAcid::Ser } else { aa })
            .collect();
        let mut bases = random_rna(reference_len, &mut rng).into_inner();
        let coding = coding_rna_for_paper_patterns(&protein, &mut rng);
        if coding.len() < bases.len() {
            let at = rng.gen_range(0..bases.len() - coding.len());
            bases.splice(at..at + coding.len(), coding.iter().copied());
        }
        let reference = RnaSeq::from(bases);
        let mode = if extended { BackTranslationMode::ExtendedSer } else { BackTranslationMode::Paper };
        let build = |threads| {
            FabpAligner::builder()
                .protein_query(&protein)
                .threshold(Threshold::Fraction(fraction))
                .mode(mode)
                .engine(Engine::Software { threads })
                .build()
                .expect("non-empty query")
        };
        let set = QuerySet::build(&protein, mode);
        let passes: Vec<&EncodedQuery> =
            std::iter::once(&set.primary).chain(&set.secondary).collect();
        let serial = build(1);
        prop_assert_eq!(serial.passes(), passes.len());
        let golden = golden_hits(&passes, reference.as_slice(), serial.threshold());
        prop_assert_eq!(&serial.search(&reference).hits, &golden);
        prop_assert_eq!(&build(threads).search(&reference).hits, &golden, "{} threads", threads);

        let primary = golden_hits(&passes[..1], reference.as_slice(), serial.threshold());
        let mut scanner = StreamingAligner::new(serial.query(), serial.threshold());
        let mut streamed = Vec::new();
        let mut rest = reference.as_slice();
        while !rest.is_empty() {
            let take = rng.gen_range(1..=rest.len().min(700));
            let (chunk, tail) = rest.split_at(take);
            streamed.extend(scanner.feed(chunk));
            rest = tail;
        }
        streamed.extend(scanner.finish());
        prop_assert_eq!(&streamed, &primary);
    }

    /// **Serial/parallel equivalence stays total.** The public
    /// `search_prebuilt` (default slice sizing) agrees with the
    /// serial path for any worker count, including `workers = 1`.
    #[test]
    fn default_options_match_serial_for_any_worker_count(
        num_queries in 1usize..=5,
        workers in 1usize..=9,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let proteins: Vec<_> = (0..num_queries)
            .map(|_| random_protein(8, &mut rng))
            .collect();
        let reference = random_rna(3_000, &mut rng);
        let aligners: Vec<FabpAligner> = proteins
            .iter()
            .map(|p| {
                FabpAligner::builder()
                    .protein_query(p)
                    .threshold(Threshold::Fraction(0.7))
                    .build()
                    .expect("non-empty query")
            })
            .collect();
        let serial: Vec<_> = aligners.iter().map(|a| a.search(&reference)).collect();
        let (parallel, _) = search_whole(&aligners, &reference, workers, SliceOptions::default());
        for (a, b) in serial.iter().zip(&parallel) {
            prop_assert_eq!(&a.hits, &b.hits);
        }
    }
}
