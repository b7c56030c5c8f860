//! Property tests: persistent index round-trip and the seeded
//! prefilter's equality with the exhaustive scan.
//!
//! Invariant families:
//!
//! 1. **Round-trip.** `write → load` reproduces bit-identical shards
//!    (and the same fingerprint); flipping any byte of the serialized
//!    form must yield a *typed* error ([`FabpError::CrcMismatch`] or
//!    [`FabpError::Decode`]) — never UB, never silently wrong shards.
//! 2. **Recall.** Against planted ground truth
//!    ([`fabp_bio::generate::PlantedDatabase`], substitution-only so
//!    diagonals are exact), across mutation rates, threshold fractions
//!    over (2/3, 1], absolute thresholds and longest seed words: the
//!    seeded hits **equal** the exhaustive scan's, so every
//!    full-scan-findable plant is recovered.
//! 3. **Scheduling.** Seeded hits and statistics do not depend on the
//!    worker count, and equal the exhaustive scan's.
//! 4. **The identity bound.** At any threshold, fraction or absolute,
//!    with Stop residues in the queries, the exact-word trigger the
//!    bound picks admits every window that reaches the threshold: seeded
//!    hits equal the exhaustive scan's.
//! 5. **Records.** An index of several records, with plants split across
//!    record ends, reports exactly the hits of each record searched alone,
//!    in concatenated coordinates, on both prefilters.
//! 6. **The parser never panics.** Arbitrary bytes, truncations, bit
//!    flips and forged record tables under a recomputed header CRC, in
//!    version 1 and 2 framing, load or fail with a typed error.

use fabp_bio::alphabet::AminoAcid;
use fabp_bio::fasta::PackedRecords;
use fabp_bio::generate::{
    coding_rna_for_paper_patterns, random_protein, PlantedDatabase, PlantedDatabaseConfig,
};
use fabp_bio::mutate::{IndelModel, SubstitutionModel};
use fabp_bio::seq::{PackedSeq, ProteinSeq, RnaSeq};
use fabp_core::aligner::{FabpAligner, Threshold};
use fabp_core::hits::Hit;
use fabp_core::index::{
    search_index, IndexBuildOptions, PrefilterMode, ReferenceIndex, SeedParams,
};
use fabp_resilience::FabpError;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_reference(len: usize, seed: u64) -> RnaSeq {
    let mut rng = StdRng::seed_from_u64(seed);
    fabp_bio::generate::random_rna(len, &mut rng)
}

/// `len` random bases in `records` records of random lengths, with one
/// coding region of each query planted inside a record and one split
/// across each record end it fits over.
fn planted_records(queries: &[ProteinSeq], records: usize, len: usize, seed: u64) -> PackedRecords {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut bases = fabp_bio::generate::random_rna(len, &mut rng).into_inner();
    let mut cuts: Vec<usize> = (1..records).map(|_| rng.gen_range(0..=len)).collect();
    cuts.sort_unstable();
    let starts: Vec<usize> = std::iter::once(0).chain(cuts.iter().copied()).collect();
    let ends: Vec<usize> = cuts.iter().copied().chain(std::iter::once(len)).collect();
    for (k, query) in queries.iter().enumerate() {
        let coding = coding_rna_for_paper_patterns(query, &mut rng);
        let at = rng.gen_range(0..=len - coding.len());
        bases.splice(at..at + coding.len(), coding.iter().copied());
        if let Some(&cut) = cuts.get(k) {
            let head = rng.gen_range(1..coding.len());
            if head <= cut && cut + coding.len() - head <= len {
                let at = cut - head;
                bases.splice(at..at + coding.len(), coding.iter().copied());
            }
        }
    }
    PackedRecords {
        bases: PackedSeq::from_rna(&RnaSeq::from(bases)),
        ids: (0..records).map(|r| format!("rec{r}")).collect(),
        ranges: starts.into_iter().zip(ends).map(|(s, e)| s..e).collect(),
    }
}

/// Rewrites `bytes[at..at + new.len()]` inside the header region and
/// recomputes the header CRC, as anyone crafting an index can.
fn forge_header(bytes: &mut [u8], at: usize, new: &[u8]) {
    let header_len = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let at = 16 + at.min(header_len.saturating_sub(new.len()));
    let end = (at + new.len()).min(16 + header_len);
    bytes[at..end].copy_from_slice(&new[..end - at]);
    let crc = fabp_resilience::crc::crc32(&bytes[16..16 + header_len]);
    bytes[16 + header_len..20 + header_len].copy_from_slice(&crc.to_le_bytes());
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
        overlap_pick in 0usize..=1_024,
        seed in 0u64..1_000_000,
    ) {
        let reference = random_reference(reference_len, seed);
        let overlap = overlap_pick % (target_shard + 1);
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

    /// **Records are searched as references of their own.** Several
    /// records, each query planted whole inside one and split across a
    /// record end: the exhaustive scan reports exactly each record's own
    /// hits (its aligner run over the record alone, in concatenated
    /// coordinates), and the seeded hits equal them.
    #[test]
    fn index_search_reports_each_records_own_hits(
        num_queries in 1usize..=4,
        query_len in 4usize..=16,
        records in 2usize..=6,
        reference_len in 200usize..=4_000,
        target_shard in 128usize..=2_048,
        overlap_pick in 0usize..=2_048,
        fraction in 0.75f64..=1.0,
        workers in 1usize..=3,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let queries: Vec<ProteinSeq> =
            (0..num_queries).map(|_| random_protein(query_len, &mut rng)).collect();
        let packed = planted_records(&queries, records, reference_len, seed);
        let threshold = Threshold::Fraction(fraction);
        let oracle: Vec<Vec<Hit>> = queries
            .iter()
            .map(|query| {
                let aligner = FabpAligner::builder()
                    .protein_query(query)
                    .threshold(threshold)
                    .build()
                    .expect("non-empty query");
                packed
                    .ranges
                    .iter()
                    .flat_map(|range| {
                        let record = packed.bases.slice(range.clone());
                        aligner.search_packed(&record).hits.into_iter().map(|hit| Hit {
                            position: range.start + hit.position,
                            score: hit.score,
                        })
                    })
                    .collect()
            })
            .collect();
        let overlap = overlap_pick % (target_shard + 1);
        let index = ReferenceIndex::build_from_packed(
            packed,
            IndexBuildOptions { overlap, target_shard_bases: target_shard },
        ).expect("records tile the reference");
        let search = |mode| {
            search_index(&index, &queries, threshold, mode, SeedParams::default(), workers)
                .expect("search")
                .0
        };
        let off = search(PrefilterMode::Off);
        prop_assert_eq!(&off, &oracle);
        prop_assert_eq!(&search(PrefilterMode::Seeded), &off);
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
    /// threshold (a fraction over (2/3, 1], where every passing window
    /// holds identical residues, or an absolute one, up to beyond the
    /// window) × longest seed word: the seeded hits equal the exhaustive
    /// scan's, with identical scores, so every planted region the full
    /// scan finds is recovered.
    #[test]
    fn seeded_recall_holds_across_the_grid(
        rate in 0.0f64..=0.05,
        fraction in (2.0f64 / 3.0)..=1.0,
        absolute in 20u32..=60,
        threshold_pick in 0usize..4,
        word_size in 2usize..=3,
        num_queries in 3usize..=6,
        query_len in 10usize..=18,
        overlap in 0usize..=2_048,
        seed in 0u64..1_000_000,
    ) {
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
            IndexBuildOptions { overlap, target_shard_bases: 2_048 },
        ).expect("non-empty reference");
        let threshold = if threshold_pick == 0 {
            Threshold::Absolute(absolute)
        } else {
            Threshold::Fraction(fraction)
        };
        let params = SeedParams { word_size };

        let (off, _) = search_index(
            &index, &db.queries, threshold, PrefilterMode::Off, params, 2,
        ).expect("off scan");
        let (seeded, stats) = search_index(
            &index, &db.queries, threshold, PrefilterMode::Seeded, params, 2,
        ).expect("seeded scan");
        prop_assert_eq!(&seeded, &off, "{:?}, longest word {}", threshold, word_size);
        prop_assert!(stats.scanned_fraction() <= 1.0);
    }

    /// **Seeded search is worker-invariant and exact.** Seeding and
    /// verification run as items of the batch claim loop, so the worker
    /// count may change only who claims what: 1, 2 and 4 workers return
    /// identical hits and statistics, equal to `--prefilter off`'s.
    #[test]
    fn seeded_hits_are_worker_invariant_and_exact_on_admitted_windows(
        rate in 0.0f64..=0.05,
        fraction in 0.6f64..=1.0,
        num_queries in 1usize..=4,
        query_len in 8usize..=14,
        target_shard in 512usize..=4_096,
        overlap_pick in 0usize..=4_096,
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
            IndexBuildOptions {
                overlap: overlap_pick % (target_shard + 1),
                target_shard_bases: target_shard,
            },
        ).expect("non-empty reference");
        let threshold = Threshold::Fraction(fraction);
        let search = |mode, workers| {
            search_index(&index, &db.queries, threshold, mode, SeedParams::default(), workers)
                .expect("search")
        };

        let (off, _) = search(PrefilterMode::Off, 2);
        let (seeded, stats) = search(PrefilterMode::Seeded, 1);
        for workers in [2, 4] {
            let (other, other_stats) = search(PrefilterMode::Seeded, workers);
            prop_assert_eq!(&other, &seeded, "{} workers", workers);
            prop_assert_eq!(other_stats, stats);
        }
        prop_assert_eq!(&seeded, &off, "at {}", fraction);
    }

    /// **The identity bound admits every passing window.** A threshold
    /// fraction from 0.5 to 1.0 or an absolute threshold, 0–8 %
    /// substitutions, 6–40-aa queries (some holding a Stop), any shard
    /// size and 1–3 workers: each query seeds with the longest word whose
    /// exact hits the bound guarantees on a passing window's diagonal, or
    /// is scanned in full, and the seeded hits equal the exhaustive
    /// scan's.
    #[test]
    fn seeded_search_is_complete_on_seeded_diagonals(
        fraction in 0.5f64..=1.0,
        absolute in 12u32..=120,
        threshold_pick in 0usize..4,
        rate in 0.0f64..=0.08,
        num_queries in 1usize..=4,
        target_shard in 256usize..=4_096,
        overlap_pick in 0usize..=4_096,
        workers in 1usize..=3,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let queries: Vec<ProteinSeq> = (0..num_queries)
            .map(|_| {
                let len = rng.gen_range(6..=40);
                let mut residues = random_protein(len, &mut rng).into_inner();
                if rng.gen_bool(0.4) {
                    residues[rng.gen_range(0..len)] = AminoAcid::Stop;
                }
                ProteinSeq::from(residues)
            })
            .collect();
        // Two mutated copies of every query, one per 1 000-base slot.
        let mut bases = fabp_bio::generate::random_rna(2_000 * num_queries + 500, &mut rng)
            .into_inner();
        for (q, query) in queries.iter().enumerate() {
            for copy in 0..2 {
                let coding = coding_rna_for_paper_patterns(query, &mut rng);
                let (mutated, _) = SubstitutionModel::new(rate).mutate_rna(&coding, &mut rng);
                let at = 1_000 * (2 * q + copy) + rng.gen_range(0..1_000 - mutated.len());
                bases.splice(at..at + mutated.len(), mutated.iter().copied());
            }
        }
        let reference = RnaSeq::from(bases);
        let index = ReferenceIndex::build_from_rna(
            &reference,
            IndexBuildOptions {
                overlap: overlap_pick % (target_shard + 1),
                target_shard_bases: target_shard,
            },
        ).expect("non-empty reference");
        let threshold = if threshold_pick == 0 {
            Threshold::Absolute(absolute)
        } else {
            Threshold::Fraction(fraction)
        };
        let search = |mode| {
            search_index(&index, &queries, threshold, mode, SeedParams::default(), workers)
                .expect("search")
        };
        let (off, _) = search(PrefilterMode::Off);
        let (seeded, _) = search(PrefilterMode::Seeded);
        prop_assert_eq!(&seeded, &off, "{:?}", threshold);
    }
}

proptest! {
    // Each case parses a few small files: cheap enough to run many.
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// **The parser never panics.** Arbitrary bytes behind a valid magic
    /// and version, and valid multi-record files truncated, bit-flipped or
    /// with part of their record table (or any header bytes) rewritten
    /// under a recomputed header CRC — in version 2 and, record table
    /// dropped, version 1 framing: every case loads or fails with
    /// `Decode` or `CrcMismatch`. A file that loads holds records tiling
    /// its bases.
    #[test]
    fn index_parser_never_panics(
        noise in prop::collection::vec(any::<u8>(), 0..=192),
        version in 0u32..=3,
        reference_len in 1usize..=3_000,
        records in 1usize..=5,
        target_shard in 64usize..=1_024,
        overlap_pick in 0usize..=1_024,
        cut_frac in 0.0f64..1.0,
        flip_frac in 0.0f64..1.0,
        flip in 1u8..=255,
        forge_frac in 0.0f64..1.0,
        forged in prop::collection::vec(any::<u8>(), 1..=24),
        forged_field in prop::option::of(0u64..=4_096),
        seed in 0u64..1_000_000,
    ) {
        let check = |bytes: &[u8], what: &str| -> Result<(), String> {
            match ReferenceIndex::from_bytes(bytes) {
                Ok(index) => {
                    let ranges = index.records();
                    let tiled = ranges.first().is_some_and(|r| r.start == 0)
                        && ranges.windows(2).all(|w| w[0].end == w[1].start)
                        && ranges.last().is_some_and(|r| r.end == index.total_bases());
                    if tiled && index.record_ids().len() == ranges.len() {
                        Ok(())
                    } else {
                        Err(format!("{what}: loaded records {ranges:?} do not tile"))
                    }
                }
                Err(FabpError::CrcMismatch { .. }) | Err(FabpError::Decode(_)) => Ok(()),
                Err(other) => Err(format!("{what}: untyped failure {other:?}")),
            }
        };

        // Arbitrary bytes after the magic and a version.
        let mut bytes = b"FABPIDX\0".to_vec();
        bytes.extend_from_slice(&version.to_le_bytes());
        bytes.extend_from_slice(&noise);
        prop_assert_eq!(check(&bytes, "noise"), Ok(()));

        let queries = [random_protein(6, &mut StdRng::seed_from_u64(seed))];
        let packed = planted_records(&queries, records, reference_len.max(18), seed);
        let overlap = overlap_pick % (target_shard + 1);
        let index = ReferenceIndex::build_from_packed(
            packed,
            IndexBuildOptions { overlap, target_shard_bases: target_shard },
        ).expect("records tile the reference");
        let valid = index.to_bytes();
        prop_assert_eq!(ReferenceIndex::from_bytes(&valid).as_ref(), Ok(&index));
        let header_len = u32::from_le_bytes(valid[12..16].try_into().unwrap()) as usize;
        let table = 24 + 32 * index.shards().len();
        // The same file in version-1 framing: no record table.
        let mut v1 = valid.clone();
        v1.drain(16 + table..16 + header_len);
        v1[8..12].copy_from_slice(&1u32.to_le_bytes());
        v1[12..16].copy_from_slice(&(table as u32).to_le_bytes());
        forge_header(&mut v1, 0, &[]);
        let one = ReferenceIndex::from_bytes(&v1).expect("version 1 loads");
        prop_assert_eq!(one.records().len(), 1);
        prop_assert_eq!(one.records()[0].clone(), 0..index.total_bases());
        prop_assert_eq!(one.reference(), index.reference());

        for (what, file) in [("v2", &valid), ("v1", &v1)] {
            let at = |frac: f64| ((file.len() as f64 * frac) as usize).min(file.len() - 1);
            prop_assert_eq!(check(&file[..at(cut_frac)], what), Ok(()));
            let mut flipped = file.clone();
            flipped[at(flip_frac)] ^= flip;
            prop_assert_eq!(check(&flipped, what), Ok(()));
            let header_len = u32::from_le_bytes(file[12..16].try_into().unwrap()) as usize;
            let mut rewritten = file.clone();
            forge_header(&mut rewritten, (header_len as f64 * forge_frac) as usize, &forged);
            prop_assert_eq!(check(&rewritten, what), Ok(()));
        }

        // One record-table field (the count, or a record's start, length
        // or id length) rewritten to a plausible or a huge value.
        let fields: Vec<usize> = {
            let mut at = table + 8;
            let mut fields = vec![table];
            for id in index.record_ids() {
                fields.extend([at, at + 8, at + 16]);
                at += 24 + id.len();
            }
            fields
        };
        let field = fields[seed as usize % fields.len()];
        let value = forged_field.unwrap_or(u64::MAX - seed);
        let mut rewritten = valid.clone();
        forge_header(&mut rewritten, field, &value.to_le_bytes());
        prop_assert_eq!(check(&rewritten, "record field"), Ok(()));
    }
}
