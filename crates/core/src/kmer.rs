//! Exact protein word tables for the index's seeded prefilter.
//!
//! A word of `w` residues packs 5 bits per residue (residue indices are
//! below 32) into a key below `2^(5w)`, so a key rolls along a translated
//! frame with one shift, one or and one mask. A [`WordTable`] holds the
//! words of every query seeded at one word length, each at its own query
//! position, as compressed-sparse-row postings over the dense key space,
//! beside a presence bitmap: a scan tests one bit per reference word and
//! reads postings only for the few words some query holds.

use fabp_bio::alphabet::AminoAcid;

/// Bits per residue in a packed word key.
const BITS: usize = 5;

/// The longest word a table packs: 15-bit keys and a 4 KiB bitmap.
pub(crate) const MAX_WORD: usize = 3;

/// Packs a word of at most [`MAX_WORD`] residues into its key, its first
/// residue in the highest bits.
pub(crate) fn pack(word: &[AminoAcid]) -> usize {
    word.iter().fold(0, |key, aa| (key << BITS) | aa.index())
}

/// A query word: residue `position` of query `query`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Posting {
    pub(crate) query: u32,
    pub(crate) position: u32,
}

/// Every word of one length of a set of queries, by packed key.
#[derive(Debug)]
pub(crate) struct WordTable {
    word: usize,
    /// One bit per key, set when the key has postings.
    live: Vec<u64>,
    /// CSR row offsets, one per key and one past the last.
    offsets: Vec<u32>,
    /// Postings grouped by key, each key's in query then position order.
    postings: Vec<Posting>,
}

impl WordTable {
    /// The table of the `word`-residue words of `queries`, given as
    /// (query, residues) in increasing query order.
    ///
    /// # Panics
    ///
    /// Panics if `word` is 0 or above [`MAX_WORD`], or a query or a
    /// position does not fit a `u32` (the engine refuses queries over
    /// 65 535 elements before any table is built).
    pub(crate) fn build<'a>(
        word: usize,
        queries: impl IntoIterator<Item = (usize, &'a [AminoAcid])>,
    ) -> WordTable {
        assert!((1..=MAX_WORD).contains(&word), "word of {word} residues");
        let keys: usize = 1 << (BITS * word);
        let fits = |value: usize| u32::try_from(value).expect("a u32 query or position");
        let mut words: Vec<(usize, Posting)> = Vec::new();
        for (query, residues) in queries {
            for (position, w) in residues.windows(word).enumerate() {
                let (query, position) = (fits(query), fits(position));
                words.push((pack(w), Posting { query, position }));
            }
        }
        // Stable, so each key keeps its postings in query, position order.
        words.sort_by_key(|&(key, _)| key);
        let mut live = vec![0u64; keys.div_ceil(64)];
        let mut offsets = vec![0u32; keys + 1];
        for &(key, _) in &words {
            live[key / 64] |= 1 << (key % 64);
            offsets[key + 1] += 1;
        }
        for key in 0..keys {
            offsets[key + 1] += offsets[key];
        }
        WordTable {
            word,
            live,
            offsets,
            postings: words.into_iter().map(|(_, posting)| posting).collect(),
        }
    }

    /// Residues per word.
    pub(crate) fn word(&self) -> usize {
        self.word
    }

    /// The mask that keeps a rolled key to the table's `5 · word` bits.
    pub(crate) fn mask(&self) -> usize {
        (1 << (BITS * self.word)) - 1
    }

    /// Whether some query holds the word of `key`.
    #[inline]
    pub(crate) fn is_live(&self, key: usize) -> bool {
        (self.live[key / 64] >> (key % 64)) & 1 == 1
    }

    /// The query words of `key`.
    #[inline]
    pub(crate) fn postings(&self, key: usize) -> &[Posting] {
        &self.postings[self.offsets[key] as usize..self.offsets[key + 1] as usize]
    }
}

/// Rolls `key` on by `residue`: the next word of a table's length.
#[inline]
pub(crate) fn roll(key: usize, residue: u8, mask: usize) -> usize {
    ((key << BITS) | residue as usize) & mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabp_bio::seq::ProteinSeq;

    fn protein(s: &str) -> Vec<AminoAcid> {
        s.parse::<ProteinSeq>().unwrap().into_inner()
    }

    #[test]
    fn every_query_word_is_posted_at_its_own_position_and_nothing_else() {
        let (a, b) = (protein("MKWMKW*"), protein("WMK"));
        let table = WordTable::build(3, [(0, a.as_slice()), (1, b.as_slice())]);
        let posting = |query, position| Posting { query, position };
        assert_eq!(
            table.postings(pack(&protein("WMK"))),
            [posting(0, 2), posting(1, 0)]
        );
        assert_eq!(
            table.postings(pack(&protein("MKW"))),
            [posting(0, 0), posting(0, 3)]
        );
        assert_eq!(table.postings(pack(&protein("MKW*")[1..])), [posting(0, 4)]);
        let posted: usize = (0..=table.mask())
            .map(|key| table.postings(key).len())
            .sum();
        assert_eq!(posted, 5 + 1);
        assert!(!table.is_live(pack(&protein("WWW"))));
        assert!(table.postings(pack(&protein("WWW"))).is_empty());
    }

    #[test]
    fn a_rolled_key_is_the_packed_word() {
        let frame = protein("ACDEFGHIKLMNPQRSTVWY*");
        for word in 1..=MAX_WORD {
            let table = WordTable::build(word, [(0, frame.as_slice())]);
            let mut key = 0;
            for (end, aa) in frame.iter().enumerate() {
                key = roll(key, aa.index() as u8, table.mask());
                if end + 1 >= word {
                    let start = end + 1 - word;
                    assert_eq!(key, pack(&frame[start..=end]), "word {word} at {start}");
                    let posting = Posting {
                        query: 0,
                        position: start as u32,
                    };
                    assert!(table.is_live(key));
                    assert_eq!(table.postings(key), [posting]);
                }
            }
        }
    }
}
