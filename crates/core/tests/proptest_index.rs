//! Property tests: persistent index round-trip and seeded-prefilter
//! recall.
//!
//! Three invariant families:
//!
//! 1. **Round-trip.** `write → load` reproduces bit-identical shards
//!    (and the same fingerprint); flipping any byte of the serialized
//!    form must yield a *typed* error ([`FabpError::CrcMismatch`] or
//!    [`FabpError::Decode`]) — never UB, never silently wrong shards.
//! 2. **Recall.** Against planted ground truth
//!    ([`fabp_bio::generate::PlantedDatabase`], substitution-only so
//!    diagonals are exact), across a (mutation rate × word size ×
//!    seed threshold) grid: the seeded hits are always a **subset** of
//!    the exhaustive scan's (exact agreement on admitted windows), and
//!    recall of full-scan-findable planted regions stays at or above
//!    the documented floor.
//! 3. **Scheduling.** Seeded hits do not depend on the worker count,
//!    and equal the exhaustive scan's when every window is admitted.

use fabp_bio::generate::{PlantedDatabase, PlantedDatabaseConfig};
use fabp_bio::mutate::{IndelModel, SubstitutionModel};
use fabp_bio::seq::RnaSeq;
use fabp_core::aligner::Threshold;
use fabp_core::index::{
    search_index, IndexBuildOptions, PrefilterMode, ReferenceIndex, SeedParams,
};
use fabp_resilience::FabpError;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn random_reference(len: usize, seed: u64) -> RnaSeq {
    let mut rng = StdRng::seed_from_u64(seed);
    fabp_bio::generate::random_rna(len, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// **Write → load is bit-identical.** Any reference length and
    /// shard geometry: the loaded index equals the built one, shard for
    /// shard, word for word, with the same fingerprint.
    #[test]
    fn index_round_trip_is_bit_identical(
        reference_len in 1usize..=4_096,
        target_shard in 64usize..=1_024,
        overlap in 0usize..=128,
        seed in 0u64..1_000_000,
    ) {
        let reference = random_reference(reference_len, seed);
        let index = ReferenceIndex::build_from_rna(
            &reference,
            IndexBuildOptions { overlap, target_shard_bases: target_shard },
        ).expect("non-empty reference");
        let bytes = index.to_bytes();
        let loaded = ReferenceIndex::from_bytes(&bytes).expect("round trip");
        prop_assert_eq!(&loaded, &index);
        prop_assert_eq!(loaded.fingerprint(), index.fingerprint());
        prop_assert_eq!(loaded.reference().to_rna(), reference);
    }

    /// **Corruption is always a typed error.** Flip one byte anywhere
    /// in the serialized index: loading must fail with `CrcMismatch`
    /// or `Decode` — never succeed, never panic.
    #[test]
    fn corrupted_byte_yields_typed_error(
        reference_len in 32usize..=2_048,
        target_shard in 64usize..=512,
        corrupt_at_frac in 0.0f64..1.0,
        flip in 1u8..=255,
        seed in 0u64..1_000_000,
    ) {
        let reference = random_reference(reference_len, seed);
        let index = ReferenceIndex::build_from_rna(
            &reference,
            IndexBuildOptions { overlap: 32, target_shard_bases: target_shard },
        ).expect("non-empty reference");
        let mut bytes = index.to_bytes();
        let at = ((bytes.len() as f64 * corrupt_at_frac) as usize).min(bytes.len() - 1);
        bytes[at] ^= flip;
        match ReferenceIndex::from_bytes(&bytes) {
            Err(FabpError::CrcMismatch { .. }) | Err(FabpError::Decode(_)) => {}
            Ok(_) => prop_assert!(false, "corrupt byte {at} accepted"),
            Err(other) => prop_assert!(false, "untyped failure for byte {at}: {other:?}"),
        }
    }

    /// **Seeded recall vs planted ground truth.** Mutation rate ×
    /// word size × seed threshold grid. Invariants:
    ///
    /// * seeded hits ⊆ exhaustive hits, with identical scores (exact
    ///   agreement on admitted windows);
    /// * every planted region the full scan finds is recovered by the
    ///   seeded path — at these settings a plant only escapes when all
    ///   of its seed words mutate below `T` at once, which the
    ///   assertion bounds at ≥ 80% per case (measured recall in
    ///   bench_serve stays ≥ 0.99 at BLAST defaults, w=3 T=11).
    #[test]
    fn seeded_recall_holds_across_the_grid(
        rate in 0.0f64..=0.05,
        grid_pick in 0usize..4,
        num_queries in 3usize..=6,
        query_len in 10usize..=18,
        seed in 0u64..1_000_000,
    ) {
        // (word_size, T) pairs where an unmutated word always
        // self-seeds (min BLOSUM62 self-score 4/residue, no Stop in
        // generated queries).
        let (word_size, t) = [(3, 11), (3, 10), (3, 12), (4, 13)][grid_pick];
        let mut rng = StdRng::seed_from_u64(seed);
        let db = PlantedDatabase::generate(
            &PlantedDatabaseConfig {
                reference_len: 12_000,
                num_queries,
                query_len,
                substitutions: SubstitutionModel::new(rate),
                indels: IndelModel::none(),
                paper_codons_only: false,
            },
            &mut rng,
        );
        let index = ReferenceIndex::build_from_rna(
            &db.reference,
            IndexBuildOptions { overlap: 3 * query_len + 16, target_shard_bases: 2_048 },
        ).expect("non-empty reference");
        let threshold = Threshold::Fraction(0.6);
        let params = SeedParams { word_size, threshold: t };

        let (off, _) = search_index(
            &index, &db.queries, threshold, PrefilterMode::Off, params, 2,
        ).expect("off scan");
        let (seeded, stats) = search_index(
            &index, &db.queries, threshold, PrefilterMode::Seeded, params, 2,
        ).expect("seeded scan");

        // Exact agreement on admitted windows: subset with equal scores.
        for (q, hits) in seeded.iter().enumerate() {
            for hit in hits {
                prop_assert!(
                    off[q].contains(hit),
                    "query {q}: seeded hit {hit:?} absent from the full scan"
                );
            }
        }

        // Recall over full-scan-findable plants.
        let mut findable = 0usize;
        let mut found = 0usize;
        for region in &db.regions {
            let in_off = off[region.query_index].iter().any(|h| h.position == region.position);
            let in_seeded =
                seeded[region.query_index].iter().any(|h| h.position == region.position);
            if in_off {
                findable += 1;
                if in_seeded {
                    found += 1;
                }
            }
            prop_assert!(!in_seeded || in_off, "seeded found a plant off missed");
        }
        if findable > 0 {
            let recall = found as f64 / findable as f64;
            prop_assert!(
                recall >= 0.8,
                "recall {recall:.3} ({found}/{findable}) at rate {rate:.3}, w={word_size}, T={t}"
            );
            // Zero mutations: self-seeding is deterministic — perfect recall.
            if rate == 0.0 {
                prop_assert_eq!(found, findable, "exact plants must all self-seed");
            }
        }
        prop_assert!(stats.scanned_fraction() <= 1.0);
    }

    /// **Seeded search is worker-invariant and exact.** Seeding and
    /// verification run as items of the batch claim loop, so the worker
    /// count may change only who claims what: 1, 2 and 4 workers return
    /// identical hits and statistics, a subset of `--prefilter off`.
    /// With a neighbourhood threshold every word passes, every window
    /// is admitted, and the seeded hits equal the exhaustive scan's.
    #[test]
    fn seeded_hits_are_worker_invariant_and_exact_on_admitted_windows(
        rate in 0.0f64..=0.05,
        num_queries in 1usize..=4,
        query_len in 8usize..=14,
        target_shard in 512usize..=4_096,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let db = PlantedDatabase::generate(
            &PlantedDatabaseConfig {
                reference_len: 8_000,
                num_queries,
                query_len,
                substitutions: SubstitutionModel::new(rate),
                indels: IndelModel::none(),
                paper_codons_only: false,
            },
            &mut rng,
        );
        let index = ReferenceIndex::build_from_rna(
            &db.reference,
            IndexBuildOptions { overlap: 3 * query_len + 8, target_shard_bases: target_shard },
        ).expect("non-empty reference");
        let threshold = Threshold::Fraction(0.6);
        let search = |mode, params, workers| {
            search_index(&index, &db.queries, threshold, mode, params, workers).expect("search")
        };

        let (off, _) = search(PrefilterMode::Off, SeedParams::default(), 2);
        let (seeded, stats) = search(PrefilterMode::Seeded, SeedParams::default(), 1);
        for workers in [2, 4] {
            let (other, other_stats) = search(PrefilterMode::Seeded, SeedParams::default(), workers);
            prop_assert_eq!(&other, &seeded, "{} workers", workers);
            prop_assert_eq!(other_stats, stats);
        }
        for (q, hits) in seeded.iter().enumerate() {
            for hit in hits {
                prop_assert!(off[q].contains(hit), "query {}: {:?} not in the full scan", q, hit);
            }
        }

        let every_word = SeedParams { word_size: 3, threshold: -100 };
        for workers in [1, 4] {
            let (admitted, _) = search(PrefilterMode::Seeded, every_word, workers);
            prop_assert_eq!(&admitted, &off, "{} workers", workers);
        }
    }
}
