//! Property-based tests for the biology substrate.

use fabp_bio::alphabet::{AminoAcid, Nucleotide};
use fabp_bio::backtranslate::BackTranslatedQuery;
use fabp_bio::fasta::{read_packed, read_proteins, read_records, read_rna, write_records, Record};
use fabp_bio::mutate::SubstitutionModel;
use fabp_bio::seq::{PackedSeq, ProteinSeq, RnaSeq};
use fabp_bio::translate::{translate_frame, translate_six_frames};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn arb_rna(max_len: usize) -> impl Strategy<Value = RnaSeq> {
    prop::collection::vec(0u8..4, 0..=max_len)
        .prop_map(|v| v.into_iter().map(Nucleotide::from_code2).collect())
}

/// Packs `bases` one base at a time, straight into words.
fn per_base(bases: &[Nucleotide]) -> PackedSeq {
    let mut words = vec![0u64; bases.len().div_ceil(32)];
    for (i, base) in bases.iter().enumerate() {
        words[i / 32] |= u64::from(base.code2()) << (2 * (i % 32));
    }
    PackedSeq::from_words(words, bases.len()).expect("per-base words are canonical")
}

/// Renders `sequences` as a messy FASTA file, wrapped at `width`: each
/// draw of `mess` picks CRLF or LF per line, lowercase bases, gap
/// characters, blank lines, `;` comment lines and stray spaces.
fn messy_fasta(sequences: &[String], width: usize, mess: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(mess);
    let mut text = Vec::new();
    let line_end = |text: &mut Vec<u8>, rng: &mut StdRng| {
        if rng.gen_bool(0.3) {
            text.push(b'\r');
        }
        text.push(b'\n');
    };
    for (i, sequence) in sequences.iter().enumerate() {
        if rng.gen_bool(0.2) {
            text.extend_from_slice(b"; a comment");
            line_end(&mut text, &mut rng);
        }
        text.extend_from_slice(format!(">r{i} record {i}").as_bytes());
        line_end(&mut text, &mut rng);
        for line in sequence.as_bytes().chunks(width) {
            for &base in line {
                if rng.gen_bool(0.05) {
                    text.push([b'-', b'.', b' ', b'\t'][rng.gen_range(0..4usize)]);
                }
                text.push(if rng.gen_bool(0.3) {
                    base.to_ascii_lowercase()
                } else {
                    base
                });
            }
            line_end(&mut text, &mut rng);
            if rng.gen_bool(0.1) {
                line_end(&mut text, &mut rng);
            }
        }
    }
    text
}

fn arb_protein(max_len: usize) -> impl Strategy<Value = ProteinSeq> {
    prop::collection::vec(0usize..21, 1..=max_len)
        .prop_map(|v| v.into_iter().map(|i| AminoAcid::ALL[i]).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The word-level packer, `slice`, `drain_front` and the word append
    /// all equal per-base construction, at every length and offset.
    #[test]
    fn packed_seq_round_trip(rna in arb_rna(2000), a in 0usize..=2000, b in 0usize..=2000) {
        let packed = PackedSeq::from_rna(&rna);
        prop_assert_eq!(packed.len(), rna.len());
        prop_assert_eq!(&packed.to_rna(), &rna);
        let bases = rna.as_slice();
        prop_assert_eq!(&packed, &per_base(bases));
        prop_assert_eq!(&bases.iter().copied().collect::<PackedSeq>(), &packed);

        let (a, b) = (a % (bases.len() + 1), b % (bases.len() + 1));
        let (lo, hi) = (a.min(b), a.max(b));
        prop_assert_eq!(&packed.slice(lo..hi), &per_base(&bases[lo..hi]));
        let mut drained = packed.clone();
        drained.drain_front(lo);
        prop_assert_eq!(&drained, &per_base(&bases[lo..]));

        let tail = per_base(&bases[lo..]);
        let mut joined = per_base(&bases[..lo]);
        joined.extend_from_words(tail.words(), tail.len());
        prop_assert_eq!(&joined, &packed);
        let mut joined = per_base(&bases[..lo]);
        joined.extend_from_slice(&bases[lo..]);
        prop_assert_eq!(&joined, &packed);
    }

    #[test]
    fn reverse_complement_is_involutive(rna in arb_rna(500)) {
        prop_assert_eq!(rna.reverse_complement().reverse_complement(), rna);
    }

    #[test]
    fn dna_rna_conversions_are_inverse(rna in arb_rna(500)) {
        prop_assert_eq!(rna.to_dna().to_rna(), rna);
    }

    #[test]
    fn sequence_parse_display_round_trip(rna in arb_rna(300)) {
        let text = rna.to_string();
        prop_assert_eq!(text.parse::<RnaSeq>().unwrap(), rna);
    }

    #[test]
    fn coding_sequences_translate_back(protein in arb_protein(80), seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let coding = fabp_bio::generate::coding_rna_for(&protein, &mut rng);
        prop_assert_eq!(translate_frame(&coding, 0), protein);
    }

    #[test]
    fn six_frame_translation_lengths(rna in arb_rna(200)) {
        let dna = rna.to_dna();
        for (frame, protein) in translate_six_frames(&dna) {
            let usable = rna.len().saturating_sub(frame.offset as usize);
            prop_assert_eq!(protein.len(), usable / 3);
        }
    }

    #[test]
    fn substitutions_preserve_length(
        rna in arb_rna(400),
        rate in 0.0f64..=1.0,
        seed in 0u64..500,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mutated, summary) = SubstitutionModel::new(rate).mutate_rna(&rna, &mut rng);
        prop_assert_eq!(mutated.len(), rna.len());
        let differing = rna
            .iter()
            .zip(mutated.iter())
            .filter(|(a, b)| a != b)
            .count();
        prop_assert_eq!(differing, summary.substitutions);
    }

    #[test]
    fn back_translation_length_is_three_per_residue(protein in arb_protein(100)) {
        let bt = BackTranslatedQuery::from_protein(&protein);
        prop_assert_eq!(bt.len(), protein.len() * 3);
        let [t1, t2, t3] = bt.type_histogram();
        prop_assert_eq!(t1 + t2 + t3, bt.len());
    }

    /// Written records read back unchanged; and a messy rendering of
    /// them (CRLF, lowercase, gaps, blank and `;` lines, wraps on and
    /// off 32-base word boundaries, maybe one bad byte anywhere) reads
    /// the same through the packing reader as through the text reader
    /// and the RNA parse: the same bases, ids and ranges, or the same
    /// error at the same line.
    #[test]
    fn fasta_round_trip(
        sequences in prop::collection::vec("[ACGTU]{1,200}", 1..6),
        width in 1usize..100,
        word_aligned in any::<bool>(),
        mess in any::<u64>(),
        bad_at in prop::option::of(any::<usize>()),
    ) {
        let width = if word_aligned { 32 * (1 + width % 3) } else { width };
        let records: Vec<Record> = sequences
            .iter()
            .enumerate()
            .map(|(i, s)| Record::new(format!("r{i}"), s.clone()))
            .collect();
        let mut bytes = Vec::new();
        write_records(&mut bytes, &records, width).unwrap();
        let parsed = read_records(bytes.as_slice()).unwrap();
        prop_assert_eq!(parsed, records);

        let mut file = messy_fasta(&sequences, width, mess);
        if let Some(at) = bad_at {
            let bad = b"NX*1!@#>; \n\r-.anZ";
            let at = at % file.len();
            file[at] = bad[(mess as usize ^ at) % bad.len()];
        }
        match (read_rna(file.as_slice()), read_packed(file.as_slice())) {
            (Ok(rna), Ok(packed)) => {
                let mut bases = RnaSeq::new();
                let mut ranges = Vec::new();
                for (_, seq) in &rna {
                    ranges.push(bases.len()..bases.len() + seq.len());
                    bases.extend(seq.iter().copied());
                }
                let ids: Vec<String> = rna.into_iter().map(|(id, _)| id).collect();
                prop_assert_eq!(packed.bases, PackedSeq::from_rna(&bases));
                prop_assert_eq!(packed.ids, ids);
                prop_assert_eq!(packed.ranges, ranges);
            }
            (Err(text_err), Err(packed_err)) => {
                prop_assert_eq!(std::mem::discriminant(&packed_err), std::mem::discriminant(&text_err));
                prop_assert_eq!(packed_err.to_string(), text_err.to_string());
            }
            (rna, packed) => prop_assert!(
                false,
                "text reader {:?} but packing reader {:?} on {:?}",
                rna.map(|r| r.len()), packed.map(|p| p.ids), String::from_utf8_lossy(&file)
            ),
        }
    }

    /// **FASTA fuzzing.** Arbitrary bytes, and valid files with a few
    /// bytes replaced, inserted or deleted, give `Ok` or a typed
    /// [`FastaError`] from every reader, never a panic; whenever the
    /// packing reader accepts a file, the text reader and the RNA parse
    /// agree with it.
    #[test]
    fn fasta_readers_never_panic(
        noise in prop::collection::vec(any::<u8>(), 0..600),
        sequences in prop::collection::vec("[ACGTU]{1,120}", 1..4),
        edits in prop::collection::vec(any::<u64>(), 0..6),
        mess in any::<u64>(),
    ) {
        let mut mutated = messy_fasta(&sequences, 1 + (mess % 90) as usize, mess);
        for edit in edits {
            let at = (edit >> 8) as usize % (mutated.len() + 1);
            match edit % 3 {
                0 if at < mutated.len() => mutated[at] = (edit >> 40) as u8,
                1 => mutated.insert(at, (edit >> 40) as u8),
                _ if at < mutated.len() => {
                    mutated.remove(at);
                }
                _ => {}
            }
        }
        for input in [noise.as_slice(), mutated.as_slice()] {
            let records = read_records(input);
            let _ = read_proteins(input);
            if let Ok(packed) = read_packed(input) {
                let rna = read_rna(input).expect("a file the packer accepts parses as RNA");
                let ids: Vec<&str> = rna.iter().map(|(id, _)| id.as_str()).collect();
                prop_assert_eq!(&packed.ids, &ids);
                let lengths: Vec<usize> = rna.iter().map(|(_, seq)| seq.len()).collect();
                let ranges: Vec<usize> = packed.ranges.iter().map(|r| r.len()).collect();
                prop_assert_eq!(ranges, lengths);
                prop_assert_eq!(records.map(|r| r.len()).ok(), Some(ids.len()));
            }
        }
    }

    #[test]
    fn gc_content_is_bounded(rna in arb_rna(500)) {
        let gc = fabp_bio::stats::Composition::of(&rna).gc_content();
        prop_assert!((0.0..=1.0).contains(&gc) || rna.is_empty());
    }

    #[test]
    fn orfs_are_well_formed(rna in arb_rna(600)) {
        for orf in fabp_bio::orf::find_orfs(&rna, 1) {
            prop_assert!(orf.start < orf.end);
            prop_assert!(orf.end <= rna.len());
            prop_assert_eq!(orf.len() % 3, 0);
            prop_assert_eq!((orf.start % 3) as u8, orf.frame);
            // Starts with AUG.
            let s = &rna.as_slice()[orf.start..orf.start + 3];
            prop_assert_eq!(
                fabp_bio::codon::Codon::new(s[0], s[1], s[2]).translate(),
                AminoAcid::Met
            );
        }
    }
}
