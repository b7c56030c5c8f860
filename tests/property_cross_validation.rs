//! Property-based cross-validation of the execution layers (proptest).
//!
//! Random proteins, references and thresholds; every layer of the stack
//! must agree with the golden model, and structural invariants must hold.

use fabp::bio::alphabet::{AminoAcid, Nucleotide};
use fabp::bio::backtranslate::BackTranslatedQuery;
use fabp::bio::seq::{PackedSeq, ProteinSeq, RnaSeq};
use fabp::core::aligner::{Engine, FabpAligner, Threshold};
use fabp::encoding::encoder::EncodedQuery;
use fabp::encoding::packing::{axi_beats, ELEMENTS_PER_BEAT};
use fabp::fpga::engine::EngineConfig;
use proptest::prelude::*;

fn arb_protein(max_len: usize) -> impl Strategy<Value = ProteinSeq> {
    prop::collection::vec(0usize..21, 1..=max_len).prop_map(|indices| {
        indices
            .into_iter()
            .map(|i| AminoAcid::ALL[i])
            .collect::<ProteinSeq>()
    })
}

fn arb_rna(min_len: usize, max_len: usize) -> impl Strategy<Value = RnaSeq> {
    prop::collection::vec(0u8..4, min_len..=max_len).prop_map(|codes| {
        codes
            .into_iter()
            .map(Nucleotide::from_code2)
            .collect::<RnaSeq>()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The software and cycle-accurate engines report exactly the golden
    /// model's thresholded hits for any query, reference and threshold
    /// fraction.
    #[test]
    fn engines_agree(
        protein in arb_protein(12),
        reference in arb_rna(40, 700),
        fraction in 0.0f64..=1.0,
    ) {
        let software = FabpAligner::builder()
            .protein_query(&protein)
            .threshold(Threshold::Fraction(fraction))
            .engine(Engine::Software { threads: 2 })
            .build()
            .unwrap();
        let cycle = FabpAligner::builder()
            .protein_query(&protein)
            .threshold(Threshold::Fraction(fraction))
            .engine(Engine::CycleAccurate(Box::new(EngineConfig::kintex7(0))))
            .build()
            .unwrap();
        let golden = BackTranslatedQuery::from_protein(&protein);
        let threshold = Threshold::Fraction(fraction).resolve(golden.len());
        let expected: Vec<(usize, u32)> = golden
            .score_all_positions(reference.as_slice())
            .into_iter()
            .enumerate()
            .filter(|&(_, score)| score as u32 >= threshold)
            .map(|(position, score)| (position, score as u32))
            .collect();
        let soft_hits = software.search(&reference).hits;
        let soft: Vec<(usize, u32)> = soft_hits.iter().map(|h| (h.position, h.score)).collect();
        prop_assert_eq!(&soft, &expected);
        prop_assert_eq!(&soft_hits, &cycle.search(&reference).hits);
    }

    /// Encoded queries decode back to their source pattern stream.
    #[test]
    fn encode_decode_round_trip(protein in arb_protein(64)) {
        let bt = BackTranslatedQuery::from_protein(&protein);
        let encoded = EncodedQuery::from_back_translated(&bt);
        prop_assert_eq!(encoded.decode(), bt);
    }

    /// Every coding sequence of a protein scores at least
    /// `2 × residues` under the paper's patterns (the third codon position
    /// may miss only for Ser's AGY codons; positions 1–2 can mismatch only
    /// for Ser too).
    #[test]
    fn coding_sequences_score_high(protein in arb_protein(24)) {
        use fabp::bio::codon::codons_of;
        // Worst-case coding sequence: always pick the last codon in the
        // table (hits Ser's AGC).
        let coding: RnaSeq = protein
            .iter()
            .flat_map(|&aa| codons_of(aa).last().unwrap().0)
            .collect();
        let bt = BackTranslatedQuery::from_protein(&protein);
        let score = bt.score_window(coding.as_slice());
        let ser_count = protein.iter().filter(|&&aa| aa == AminoAcid::Ser).count();
        prop_assert!(score >= bt.len() - 2 * ser_count);
        if ser_count == 0 {
            prop_assert_eq!(score, bt.len());
        }
    }

    /// Scores are bounded by the query length and the number of scored
    /// positions is exactly `L_r − L_q + 1`.
    #[test]
    fn score_bounds_and_instance_count(
        protein in arb_protein(10),
        reference in arb_rna(30, 400),
    ) {
        let bt = BackTranslatedQuery::from_protein(&protein);
        let scores = bt.score_all_positions(reference.as_slice());
        if reference.len() >= bt.len() {
            prop_assert_eq!(scores.len(), reference.len() - bt.len() + 1);
        } else {
            prop_assert!(scores.is_empty());
        }
        for s in scores {
            prop_assert!(s <= bt.len());
        }
    }

    /// Packing into AXI beats and unpacking is the identity, and beats are
    /// full except possibly the last.
    #[test]
    fn axi_beat_round_trip(reference in arb_rna(0, 1500)) {
        let packed = PackedSeq::from_rna(&reference);
        let beats = axi_beats(&packed);
        let unpacked: RnaSeq = beats.iter().flat_map(|b| b.iter()).collect();
        prop_assert_eq!(&unpacked, &reference);
        for (i, beat) in beats.iter().enumerate() {
            if i + 1 < beats.len() {
                prop_assert_eq!(beat.valid, ELEMENTS_PER_BEAT);
            }
        }
    }

    /// Merged hit regions partition the hit set and are disjoint.
    #[test]
    fn regions_partition_hits(
        protein in arb_protein(6),
        reference in arb_rna(30, 300),
        fraction in 0.0f64..=0.8,
    ) {
        let aligner = FabpAligner::builder()
            .protein_query(&protein)
            .threshold(Threshold::Fraction(fraction))
            .build()
            .unwrap();
        let outcome = aligner.search(&reference);
        let regions = outcome.regions();
        let total: usize = regions.iter().map(|r| r.hit_count).sum();
        prop_assert_eq!(total, outcome.hits.len());
        for pair in regions.windows(2) {
            prop_assert!(pair[0].end <= pair[1].start);
        }
    }

    /// Translation of any coding RNA built from a protein recovers the
    /// protein (inverse property across bio layers).
    #[test]
    fn translation_inverts_coding(
        protein in arb_protein(40),
        seed in 0u64..1000,
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let coding = fabp::bio::generate::coding_rna_for(&protein, &mut rng);
        prop_assert_eq!(
            fabp::bio::translate::translate_frame(&coding, 0),
            protein
        );
    }
}
