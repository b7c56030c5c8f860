//! Protein k-mer (word) index with BLAST-style neighbourhoods.
//!
//! "BLAST looks for similar k-mers … all the k-mers of the query sequence
//! in a hash-table and use k-mers of the reference sequence to find the
//! similar subsequences (hits)" (§II). For protein search the table is
//! seeded not just with the query's own words but with every word whose
//! BLOSUM62 score against a query word reaches the neighbourhood threshold
//! `T` — the classic BLASTP/TBLASTN word neighbourhood.
//!
//! [`WordIndex`] is the seed table of the TBLASTN baseline
//! ([`crate::tblastn`]).

use fabp_bio::alphabet::AminoAcid;
use fabp_bio::blosum::blosum62;
use fabp_resilience::{FabpError, FabpResult};

/// Number of protein symbols (20 amino acids + Stop).
const SYMBOLS: usize = 21;

/// Packs a protein word into a dense table key (`Σ aa_i · 21^i`).
///
/// The key is only meaningful against an index whose `word_size` equals
/// `word.len()`; a longer word packs to a key outside that index's
/// `21^word_size` table; [`WordIndex::lookup`] checks the length.
fn pack_word(word: &[AminoAcid]) -> usize {
    word.iter()
        .fold(0usize, |acc, aa| acc * SYMBOLS + aa.index())
}

/// A query word index: maps every neighbourhood word to the query
/// positions it seeds.
///
/// Stored in compressed-sparse-row form (one offsets array over the dense
/// `21^w` key space plus a postings array) so the scan loop's lookup is a
/// two-load slice, cache-friendly even for the full 1 Gbase sweeps.
///
/// # Examples
///
/// ```
/// use fabp_bio::seq::ProteinSeq;
/// use fabp_baselines::WordIndex;
///
/// let query: ProteinSeq = "MKWVF".parse()?;
/// let index = WordIndex::build(query.as_slice(), 3, 11);
/// // The query's own words always seed themselves.
/// assert!(index.lookup(&query.as_slice()[0..3]).contains(&0));
/// # Ok::<(), fabp_bio::alphabet::ParseSymbolError>(())
/// ```
#[derive(Debug, Clone)]
pub struct WordIndex {
    word_size: usize,
    /// CSR row offsets, `table_size + 1` entries.
    offsets: Vec<u32>,
    /// Query positions, grouped by packed word.
    postings: Vec<u32>,
}

impl WordIndex {
    /// Builds the index for `query` with words of `word_size` residues and
    /// neighbourhood threshold `t` (BLOSUM62 word score ≥ `t` seeds the
    /// position). BLAST's protein defaults are `word_size = 3`, `t = 11`.
    ///
    /// # Panics
    ///
    /// Panics if `word_size` is 0 or greater than 5 (table size 21^w).
    pub fn build(query: &[AminoAcid], word_size: usize, t: i32) -> WordIndex {
        match WordIndex::try_build(query, word_size, t) {
            Ok(index) => index,
            Err(e) => panic!("word size {word_size} out of supported range: {e}"),
        }
    }

    /// Builds the index like [`WordIndex::build`] but returns a typed
    /// [`FabpError::InvalidWord`] instead of panicking when `word_size`
    /// is outside the supported `1..=5` range.
    fn try_build(query: &[AminoAcid], word_size: usize, t: i32) -> FabpResult<WordIndex> {
        if !(1..=5).contains(&word_size) {
            return Err(FabpError::InvalidWord {
                word_size,
                detail: "supported word sizes are 1..=5 (table size 21^w)".to_string(),
            });
        }
        let table_size = SYMBOLS.pow(word_size as u32);
        let mut pairs: Vec<(u32, u32)> = Vec::new();

        if query.len() >= word_size {
            let mut scratch = vec![AminoAcid::Ala; word_size];
            for pos in 0..=query.len() - word_size {
                let qword = &query[pos..pos + word_size];
                enumerate_neighbourhood(qword, t, &mut scratch, 0, 0, &mut |word| {
                    // Safe: each residue index < 21, word_size ≤ 5, so the
                    // packed key < 21^5 < 2^32. Checked, not assumed.
                    let key = u32::try_from(pack_word(word)).expect("key fits u32 for w <= 5");
                    pairs.push((key, pos as u32));
                });
            }
        }

        // Counting sort into CSR.
        let mut counts = vec![0u32; table_size + 1];
        for &(key, _) in &pairs {
            counts[key as usize + 1] += 1;
        }
        for i in 0..table_size {
            counts[i + 1] += counts[i];
        }
        let offsets = counts;
        let mut cursor = offsets.clone();
        let mut postings = vec![0u32; pairs.len()];
        for &(key, pos) in &pairs {
            let slot = cursor[key as usize];
            postings[slot as usize] = pos;
            cursor[key as usize] += 1;
        }

        Ok(WordIndex {
            word_size,
            offsets,
            postings,
        })
    }

    /// Size of the dense key space, `21^word_size`.
    fn table_size(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Query positions seeded by the packed word `key`.
    ///
    /// # Panics
    ///
    /// Panics if `key >= 21^word_size`.
    #[inline]
    pub fn lookup_key(&self, key: usize) -> &[u32] {
        match self.try_lookup_key(key) {
            Ok(postings) => postings,
            Err(e) => panic!("packed key out of range: {e}"),
        }
    }

    /// Query positions seeded by the packed word `key`, or a typed
    /// [`FabpError::InvalidWord`] if `key` is at or beyond the
    /// `21^word_size` table — as happens when a word longer than
    /// `word_size` is packed and its key used here.
    #[inline]
    fn try_lookup_key(&self, key: usize) -> FabpResult<&[u32]> {
        if key + 1 >= self.offsets.len() {
            return Err(FabpError::InvalidWord {
                word_size: self.word_size,
                detail: format!(
                    "packed key {key} is outside the table of {} entries",
                    self.table_size()
                ),
            });
        }
        let start = self.offsets[key] as usize;
        let end = self.offsets[key + 1] as usize;
        Ok(&self.postings[start..end])
    }

    /// Query positions seeded by `word`.
    ///
    /// # Panics
    ///
    /// Panics if `word.len()` is not the index's word size.
    pub fn lookup(&self, word: &[AminoAcid]) -> &[u32] {
        match self.try_lookup(word) {
            Ok(postings) => postings,
            Err(e) => panic!("word length mismatch: {e}"),
        }
    }

    /// Query positions seeded by `word`, or a typed
    /// [`FabpError::InvalidWord`] if `word.len()` is not the index's word
    /// size (packing a mismatched word would silently alias or overflow
    /// the key space).
    fn try_lookup(&self, word: &[AminoAcid]) -> FabpResult<&[u32]> {
        if word.len() != self.word_size {
            return Err(FabpError::InvalidWord {
                word_size: self.word_size,
                detail: format!("word has {} residue(s)", word.len()),
            });
        }
        self.try_lookup_key(pack_word(word))
    }

    /// Modulus for rolling-key updates: `21^(word_size − 1)`.
    pub fn rolling_modulus(&self) -> usize {
        SYMBOLS.pow(self.word_size as u32 - 1)
    }
}

/// Recursively enumerates all words whose partial BLOSUM62 score can still
/// reach `t`, calling `emit` for each complete word with total score ≥ `t`.
fn enumerate_neighbourhood(
    qword: &[AminoAcid],
    t: i32,
    scratch: &mut [AminoAcid],
    depth: usize,
    score_so_far: i32,
    emit: &mut impl FnMut(&[AminoAcid]),
) {
    if depth == qword.len() {
        if score_so_far >= t {
            emit(scratch);
        }
        return;
    }
    // Upper bound on the remaining score: best self-score is 11 (W/W).
    let remaining_max: i32 = qword[depth..]
        .iter()
        .map(|&q| {
            AminoAcid::ALL
                .iter()
                .map(|&s| blosum62(q, s))
                .max()
                .unwrap_or(0)
        })
        .sum();
    if score_so_far + remaining_max < t {
        return;
    }
    for symbol in AminoAcid::ALL {
        scratch[depth] = symbol;
        enumerate_neighbourhood(
            qword,
            t,
            scratch,
            depth + 1,
            score_so_far + blosum62(qword[depth], symbol),
            emit,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabp_bio::seq::ProteinSeq;

    fn protein(s: &str) -> Vec<AminoAcid> {
        s.parse::<ProteinSeq>().unwrap().into_inner()
    }

    /// Number of distinct words present in the table.
    fn words_stored(index: &WordIndex) -> usize {
        (0..index.table_size())
            .filter(|&key| !index.lookup_key(key).is_empty())
            .count()
    }

    #[test]
    fn own_words_seed_when_self_score_clears_t() {
        let q = protein("MKWVFA");
        let index = WordIndex::build(&q, 3, 11);
        for pos in 0..=q.len() - 3 {
            let word = &q[pos..pos + 3];
            let self_score: i32 = word.iter().map(|&a| blosum62(a, a)).sum();
            if self_score >= 11 {
                assert!(
                    index.lookup(word).contains(&(pos as u32)),
                    "word at {pos} missing"
                );
            }
        }
    }

    #[test]
    fn neighbourhood_includes_conservative_substitutions() {
        // ILE and VAL score +3; WWW region: neighbourhood of "WIW" should
        // include "WVW" (11 + 3 + 11 = 25 >= 11).
        let q = protein("WIW");
        let index = WordIndex::build(&q, 3, 11);
        assert!(index.lookup(&protein("WVW")).contains(&0));
        // And exclude hopeless words like "GGG" (-2 -4 -2 = -8).
        assert!(!index.lookup(&protein("GGG")).contains(&0));
    }

    #[test]
    fn higher_threshold_shrinks_neighbourhood() {
        let q = protein("MKWVFACDE");
        let loose = WordIndex::build(&q, 3, 10);
        let tight = WordIndex::build(&q, 3, 14);
        assert!(words_stored(&tight) < words_stored(&loose));
    }

    #[test]
    fn short_query_yields_empty_index() {
        let q = protein("MK");
        let index = WordIndex::build(&q, 3, 11);
        assert_eq!(words_stored(&index), 0);
    }

    #[test]
    fn pack_word_is_injective_for_small_words() {
        let mut seen = std::collections::HashSet::new();
        for a in AminoAcid::ALL {
            for b in AminoAcid::ALL {
                assert!(seen.insert(pack_word(&[a, b])), "collision at {a}{b}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "word length mismatch")]
    fn lookup_rejects_wrong_length() {
        let q = protein("MKWVF");
        let index = WordIndex::build(&q, 3, 11);
        let _ = index.lookup(&q[0..2]);
    }

    #[test]
    fn word_size_two_works() {
        let q = protein("WW");
        let index = WordIndex::build(&q, 2, 15);
        assert!(index.lookup(&protein("WW")).contains(&0));
    }

    // --- Regressions for the silent-truncation / unchecked-bounds bug.
    // Before the checked APIs existed, packing an over-long word produced
    // a key outside the `21^word_size` table and `lookup_key` indexed
    // `offsets[key + 1]` unchecked — an index-out-of-bounds panic at
    // best, a silently aliased posting list at worst.

    #[test]
    fn try_build_rejects_unsupported_word_size_with_typed_error() {
        let q = protein("MKWVF");
        for bad in [0usize, 6, 9] {
            match WordIndex::try_build(&q, bad, 11) {
                Err(FabpError::InvalidWord { word_size, .. }) => assert_eq!(word_size, bad),
                other => panic!("word_size {bad} accepted: {other:?}"),
            }
        }
        assert!(WordIndex::try_build(&q, 3, 11).is_ok());
    }

    #[test]
    fn try_lookup_rejects_mismatched_word_length_with_typed_error() {
        let q = protein("MKWVF");
        let index = WordIndex::try_build(&q, 3, 11).unwrap();
        // A 4-residue word packs to a key up to 21^4 − 1, far past the
        // 21^3-entry table; the checked API must refuse, not truncate.
        let long = protein("MKWV");
        match index.try_lookup(&long) {
            Err(FabpError::InvalidWord { word_size, detail }) => {
                assert_eq!(word_size, 3);
                assert!(detail.contains("4 residue"), "detail: {detail}");
            }
            other => panic!("over-long word accepted: {other:?}"),
        }
        assert!(index.try_lookup(&protein("MK")).is_err());
        assert!(index.try_lookup(&q[0..3]).is_ok());
    }

    #[test]
    fn try_lookup_key_bounds_checks_the_table() {
        let q = protein("MKWVF");
        let index = WordIndex::try_build(&q, 3, 11).unwrap();
        let table = index.table_size();
        assert_eq!(table, SYMBOLS.pow(3));
        assert!(index.try_lookup_key(table - 1).is_ok());
        // The first out-of-range key: exactly what pack_word yields for
        // an over-long word. Typed error, no panic, no aliasing.
        match index.try_lookup_key(table) {
            Err(FabpError::InvalidWord { .. }) => {}
            other => panic!("out-of-range key accepted: {other:?}"),
        }
        assert!(index.try_lookup_key(pack_word(&protein("MKWV"))).is_err());
    }

    #[test]
    #[should_panic(expected = "out of supported range")]
    fn build_still_panics_for_compat() {
        let q = protein("MKWVF");
        let _ = WordIndex::build(&q, 7, 11);
    }

    #[test]
    fn checked_and_panicking_lookups_agree() {
        let q = protein("MKWVFACDE");
        let index = WordIndex::build(&q, 3, 11);
        for pos in 0..=q.len() - 3 {
            let word = &q[pos..pos + 3];
            assert_eq!(index.lookup(word), index.try_lookup(word).unwrap());
        }
    }
}
