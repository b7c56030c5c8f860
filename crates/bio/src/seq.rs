//! Owned sequence types over the biological alphabets.
//!
//! [`RnaSeq`], [`DnaSeq`] and [`ProteinSeq`] are thin, invariant-preserving
//! wrappers around `Vec` of the respective symbols. [`PackedSeq`] stores an
//! RNA sequence 2 bits per base — the representation FabP streams from the
//! FPGA DRAM (256 bases per 512-bit AXI beat, paper §III-C).

use crate::alphabet::{AminoAcid, DnaNucleotide, Nucleotide, ParseSymbolError};
use std::fmt;
use std::str::FromStr;

macro_rules! seq_newtype {
    (
        $(#[$meta:meta])*
        $name:ident, $elem:ty, $alphabet:literal
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
        pub struct $name(Vec<$elem>);

        impl $name {
            /// Creates an empty sequence.
            pub fn new() -> $name {
                $name(Vec::new())
            }

            /// Creates an empty sequence with room for `capacity` symbols.
            pub fn with_capacity(capacity: usize) -> $name {
                $name(Vec::with_capacity(capacity))
            }

            /// Number of symbols in the sequence.
            pub fn len(&self) -> usize {
                self.0.len()
            }

            /// `true` when the sequence holds no symbols.
            pub fn is_empty(&self) -> bool {
                self.0.is_empty()
            }

            /// Borrow the symbols as a slice.
            pub fn as_slice(&self) -> &[$elem] {
                &self.0
            }

            /// Appends one symbol.
            pub fn push(&mut self, symbol: $elem) {
                self.0.push(symbol);
            }

            /// Iterates over the symbols.
            pub fn iter(&self) -> std::slice::Iter<'_, $elem> {
                self.0.iter()
            }

            /// Consumes the sequence, returning the underlying vector.
            pub fn into_inner(self) -> Vec<$elem> {
                self.0
            }
        }

        impl From<Vec<$elem>> for $name {
            fn from(v: Vec<$elem>) -> $name {
                $name(v)
            }
        }

        impl FromIterator<$elem> for $name {
            fn from_iter<I: IntoIterator<Item = $elem>>(iter: I) -> $name {
                $name(iter.into_iter().collect())
            }
        }

        impl Extend<$elem> for $name {
            fn extend<I: IntoIterator<Item = $elem>>(&mut self, iter: I) {
                self.0.extend(iter);
            }
        }

        impl std::ops::Index<usize> for $name {
            type Output = $elem;

            fn index(&self, idx: usize) -> &$elem {
                &self.0[idx]
            }
        }

        impl AsRef<[$elem]> for $name {
            fn as_ref(&self) -> &[$elem] {
                &self.0
            }
        }

        impl<'a> IntoIterator for &'a $name {
            type Item = &'a $elem;
            type IntoIter = std::slice::Iter<'a, $elem>;

            fn into_iter(self) -> Self::IntoIter {
                self.0.iter()
            }
        }

        impl IntoIterator for $name {
            type Item = $elem;
            type IntoIter = std::vec::IntoIter<$elem>;

            fn into_iter(self) -> Self::IntoIter {
                self.0.into_iter()
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                for symbol in &self.0 {
                    write!(f, "{}", symbol)?;
                }
                Ok(())
            }
        }

        impl FromStr for $name {
            type Err = ParseSymbolError;

            fn from_str(s: &str) -> Result<$name, ParseSymbolError> {
                s.chars()
                    .filter(|c| !c.is_whitespace())
                    .map(<$elem>::try_from)
                    .collect()
            }
        }
    };
}

seq_newtype!(
    /// An owned RNA sequence (string over `{A, C, G, U}`).
    ///
    /// # Examples
    ///
    /// ```
    /// use fabp_bio::seq::RnaSeq;
    /// let seq: RnaSeq = "AUGUUU".parse()?;
    /// assert_eq!(seq.len(), 6);
    /// # Ok::<(), fabp_bio::alphabet::ParseSymbolError>(())
    /// ```
    RnaSeq,
    Nucleotide,
    "RNA"
);

seq_newtype!(
    /// An owned DNA sequence (string over `{A, C, G, T}`).
    DnaSeq,
    DnaNucleotide,
    "DNA"
);

seq_newtype!(
    /// An owned protein sequence (string over the 20 amino acids + `*`).
    ///
    /// # Examples
    ///
    /// ```
    /// use fabp_bio::seq::ProteinSeq;
    /// let q: ProteinSeq = "MFSR*".parse()?;
    /// assert_eq!(q.len(), 5);
    /// # Ok::<(), fabp_bio::alphabet::ParseSymbolError>(())
    /// ```
    ProteinSeq,
    AminoAcid,
    "protein"
);

impl RnaSeq {
    /// Converts to DNA by the `U → T` substitution.
    pub fn to_dna(&self) -> DnaSeq {
        self.iter().map(|&n| DnaNucleotide::from_rna(n)).collect()
    }

    /// Reverse complement of the sequence.
    pub fn reverse_complement(&self) -> RnaSeq {
        self.iter().rev().map(|n| n.complement()).collect()
    }
}

impl DnaSeq {
    /// Converts to RNA by the `T → U` substitution (how FabP treats DNA
    /// reference databases).
    pub fn to_rna(&self) -> RnaSeq {
        self.iter().map(|&n| n.to_rna()).collect()
    }

    /// Reverse complement of the sequence.
    pub fn reverse_complement(&self) -> DnaSeq {
        self.iter().rev().map(|n| n.complement()).collect()
    }
}

impl ProteinSeq {
    /// `true` when no position is the Stop symbol.
    pub fn is_stop_free(&self) -> bool {
        self.iter().all(|aa| aa.is_standard())
    }
}

/// An RNA sequence packed 2 bits per base, in hardware code order.
///
/// Base `i` occupies bits `2*(i mod 32)..2*(i mod 32)+2` of word `i / 32`,
/// i.e. base 0 sits in the least-significant bits of word 0. A 512-bit AXI
/// beat is therefore exactly eight consecutive words holding 256 bases
/// (paper §III-C).
///
/// # Examples
///
/// ```
/// use fabp_bio::seq::{PackedSeq, RnaSeq};
/// let rna: RnaSeq = "ACGU".parse()?;
/// let packed = PackedSeq::from_rna(&rna);
/// assert_eq!(packed.len(), 4);
/// assert_eq!(packed.to_rna(), rna);
/// # Ok::<(), fabp_bio::alphabet::ParseSymbolError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct PackedSeq {
    words: Vec<u64>,
    len: usize,
}

impl PackedSeq {
    /// Bases stored per 64-bit word.
    pub const BASES_PER_WORD: usize = 32;

    /// Creates an empty packed sequence.
    pub fn new() -> PackedSeq {
        PackedSeq::default()
    }

    /// Packs an RNA sequence, 32 bases per word.
    pub fn from_rna(seq: &RnaSeq) -> PackedSeq {
        let mut packed = PackedSeq::with_capacity(seq.len());
        packed.extend_from_slice(seq.as_slice());
        packed
    }

    /// Reassembles a packed sequence from raw words previously exposed
    /// by [`PackedSeq::words`] — the zero-re-encode load path of the
    /// persistent reference index.
    ///
    /// Returns `None` when the word count does not match `len` or when
    /// the unused high bits of the last word are non-zero (either means
    /// the words did not come from a `PackedSeq` of that length, and
    /// accepting them would break `Eq`/round-trip guarantees).
    pub fn from_words(words: Vec<u64>, len: usize) -> Option<PackedSeq> {
        if words.len() != len.div_ceil(Self::BASES_PER_WORD) {
            return None;
        }
        let tail_bases = len % Self::BASES_PER_WORD;
        if tail_bases != 0 {
            let used_bits = 2 * tail_bases;
            let last = *words.last().expect("len > 0 implies a last word");
            if used_bits < 64 && (last >> used_bits) != 0 {
                return None;
            }
        }
        Some(PackedSeq { words, len })
    }

    /// Creates an empty packed sequence with room for `bases` bases.
    pub fn with_capacity(bases: usize) -> PackedSeq {
        PackedSeq {
            words: Vec::with_capacity(bases.div_ceil(Self::BASES_PER_WORD)),
            len: 0,
        }
    }

    /// Number of bases stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no bases are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bases the sequence can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.words.capacity() * Self::BASES_PER_WORD
    }

    /// The base at position `index`.
    ///
    /// Returns `None` when `index >= self.len()`.
    #[inline]
    pub fn get(&self, index: usize) -> Option<Nucleotide> {
        (index < self.len).then(|| Nucleotide::from_code2(self.code_at(index)))
    }

    /// The 2-bit hardware code at position `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[inline]
    pub fn code_at(&self, index: usize) -> u8 {
        assert!(index < self.len, "base index {index} out of range");
        let word = self.words[index / Self::BASES_PER_WORD];
        let bit = 2 * (index % Self::BASES_PER_WORD);
        ((word >> bit) & 0b11) as u8
    }

    /// Borrow the underlying 64-bit words (base 0 in the LSBs of word 0).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The 32 bases from base `start` on, packed as one word in the
    /// layout of [`PackedSeq::words`]: a funnel shift of the two words
    /// they straddle. Bases past the end read as code 0.
    #[inline]
    pub fn word_at(&self, start: usize) -> u64 {
        let word = |i: usize| self.words.get(i).copied().unwrap_or(0);
        let (at, shift) = (
            start / Self::BASES_PER_WORD,
            2 * (start % Self::BASES_PER_WORD),
        );
        match shift {
            0 => word(at),
            _ => (word(at) >> shift) | (word(at + 1) << (64 - shift)),
        }
    }

    /// Iterates over the bases.
    pub fn iter(&self) -> impl Iterator<Item = Nucleotide> + '_ {
        (0..self.len).map(|i| Nucleotide::from_code2(self.code_at(i)))
    }

    /// The bases in `range` as a sequence of their own, a word at a time.
    ///
    /// # Panics
    ///
    /// Panics if `range` is decreasing or ends past `self.len()`.
    pub fn slice(&self, range: std::ops::Range<usize>) -> PackedSeq {
        assert!(range.start <= range.end && range.end <= self.len);
        let skip = range.start % Self::BASES_PER_WORD;
        let words = &self.words[range.start / Self::BASES_PER_WORD..];
        let mut out = PackedSeq::new();
        out.extend_from_words(words, skip + range.len());
        out.drain_front(skip);
        out
    }

    /// Removes the first `n` bases in place, a word at a time.
    ///
    /// # Panics
    ///
    /// Panics if `n > self.len()`.
    pub fn drain_front(&mut self, n: usize) {
        assert!(n <= self.len, "cannot drain {n} of {} bases", self.len);
        self.len -= n;
        // Word k reads words at index >= k only, so the forward pass
        // never reads a word it already overwrote.
        for k in 0..self.len.div_ceil(Self::BASES_PER_WORD) {
            self.words[k] = self.word_at(n + Self::BASES_PER_WORD * k);
        }
        self.words.truncate(self.len.div_ceil(Self::BASES_PER_WORD));
        self.clear_unused_bits();
    }

    /// Appends bases, packing 32 per word (see [`pack_word`]): the
    /// partial last word fills first, then whole words go straight in.
    pub fn extend_from_slice(&mut self, bases: &[Nucleotide]) {
        let room = self.words.len() * Self::BASES_PER_WORD - self.len;
        let (head, rest) = bases.split_at(bases.len().min(room));
        self.extend_from_words(&[pack_word(head)], head.len());
        let words = rest.chunks(Self::BASES_PER_WORD).map(pack_word);
        self.words.extend(words);
        self.len += rest.len();
    }

    /// Appends the first `len` bases of `words` (laid out as
    /// [`PackedSeq::words`], an AXI beat's words for instance); bits past
    /// `len` in a partial last word are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `words` hold fewer than `len` bases.
    pub fn extend_from_words(&mut self, words: &[u64], len: usize) {
        let words = &words[..len.div_ceil(Self::BASES_PER_WORD)];
        let shift = 2 * (self.len % Self::BASES_PER_WORD);
        if shift == 0 {
            self.words.extend_from_slice(words);
        } else {
            // Each word tops up the partial last word and spills the rest.
            for &word in words {
                *self.words.last_mut().expect("a partial last word") |= word << shift;
                self.words.push(word >> (64 - shift));
            }
        }
        self.len += len;
        self.words.truncate(self.len.div_ceil(Self::BASES_PER_WORD));
        self.clear_unused_bits();
    }

    /// Appends every base of `other` to `self`.
    pub fn extend_from(&mut self, other: &PackedSeq) {
        self.extend_from_words(&other.words, other.len);
    }

    /// Unpacks into an owned [`RnaSeq`].
    pub fn to_rna(&self) -> RnaSeq {
        self.iter().collect()
    }

    /// Zeroes the bits past the last base, as `Eq` requires.
    fn clear_unused_bits(&mut self) {
        if let Some(last) = self.words.last_mut() {
            *last &= u64::MAX >> (64 - 2 * ((self.len - 1) % Self::BASES_PER_WORD + 1));
        }
    }
}

/// Packs up to 32 bases into one word, eight at a time: their codes load
/// as the bytes of one `u64` and [`pack_octet`] closes the gaps.
#[inline]
fn pack_word(bases: &[Nucleotide]) -> u64 {
    let mut codes = [0u8; 32];
    for (code, base) in codes.iter_mut().zip(bases) {
        *code = base.code2();
    }
    (0..4).fold(0, |word, k| {
        let octet = u64::from_le_bytes(codes[8 * k..8 * k + 8].try_into().expect("8 bytes"));
        word | (pack_octet(octet) << (16 * k))
    })
}

/// Gathers eight 2-bit codes, one per byte of `x`, into 16 bits (byte
/// `i`'s at bits `2i..2i + 2`): each shift-or step halves the gaps.
#[inline]
pub(crate) fn pack_octet(x: u64) -> u64 {
    let x = (x | (x >> 6)) & 0x000F_000F_000F_000F;
    let x = (x | (x >> 12)) & 0x0000_00FF_0000_00FF;
    (x | (x >> 24)) & 0xFFFF
}

impl FromIterator<Nucleotide> for PackedSeq {
    fn from_iter<I: IntoIterator<Item = Nucleotide>>(iter: I) -> PackedSeq {
        PackedSeq::from_rna(&iter.into_iter().collect())
    }
}

impl fmt::Display for PackedSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for base in self.iter() {
            write!(f, "{base}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rna_parse_display_round_trip() {
        let s = "AUGCUUACGGAU";
        let seq: RnaSeq = s.parse().unwrap();
        assert_eq!(seq.to_string(), s);
        assert_eq!(seq.len(), s.len());
    }

    #[test]
    fn rna_parse_skips_whitespace_and_accepts_t() {
        let seq: RnaSeq = "AUG\nCT T".parse().unwrap();
        assert_eq!(seq.to_string(), "AUGCUU");
    }

    #[test]
    fn rna_parse_rejects_garbage() {
        assert!("AUGX".parse::<RnaSeq>().is_err());
    }

    #[test]
    fn protein_parse_round_trip() {
        let s = "MFSR*";
        let seq: ProteinSeq = s.parse().unwrap();
        assert_eq!(seq.to_string(), s);
        assert!(!seq.is_stop_free());
        let clean: ProteinSeq = "MFSR".parse().unwrap();
        assert!(clean.is_stop_free());
    }

    #[test]
    fn dna_rna_conversion_round_trip() {
        let dna: DnaSeq = "ACGTTTGA".parse().unwrap();
        assert_eq!(dna.to_rna().to_dna(), dna);
        assert_eq!(dna.to_rna().to_string(), "ACGUUUGA");
    }

    #[test]
    fn reverse_complement_involution() {
        let rna: RnaSeq = "AUGCUUACG".parse().unwrap();
        assert_eq!(rna.reverse_complement().reverse_complement(), rna);
        let dna: DnaSeq = "ACGT".parse().unwrap();
        assert_eq!(dna.reverse_complement().to_string(), "ACGT");
    }

    #[test]
    fn packed_round_trip_various_lengths() {
        for len in [0usize, 1, 31, 32, 33, 63, 64, 65, 255, 256, 1000] {
            let rna: RnaSeq = (0..len)
                .map(|i| Nucleotide::from_code2((i % 4) as u8))
                .collect();
            let packed = PackedSeq::from_rna(&rna);
            assert_eq!(packed.len(), len);
            assert_eq!(packed.to_rna(), rna);
            assert_eq!(packed.words().len(), len.div_ceil(32));
        }
    }

    #[test]
    fn packed_slice_drain_and_word_append_match_the_bases() {
        // An aperiodic base pattern, so a misaligned word offset shows.
        let rna: RnaSeq = (0..200usize)
            .map(|i| Nucleotide::from_code2((i * i / 3 + i / 5) as u8))
            .collect();
        let packed = PackedSeq::from_rna(&rna);
        for (lo, hi) in [
            (0, 0),
            (0, 200),
            (1, 31),
            (31, 33),
            (32, 64),
            (5, 150),
            (199, 200),
        ] {
            let expected = PackedSeq::from_rna(&RnaSeq::from(rna.as_slice()[lo..hi].to_vec()));
            assert_eq!(packed.slice(lo..hi), expected, "slice {lo}..{hi}");
            let mut drained = packed.slice(0..hi);
            drained.drain_front(lo);
            assert_eq!(drained, expected, "drain {lo} of 0..{hi}");
            let mut joined = packed.slice(0..lo);
            joined.extend_from_words(expected.words(), expected.len());
            assert_eq!(joined, packed.slice(0..hi), "append {lo}..{hi}");
        }
    }

    #[test]
    fn pack_octet_is_exact() {
        // Every octet of 2-bit codes, one code per byte.
        for pattern in 0u64..1 << 16 {
            let bytes = (0..8).fold(0u64, |x, i| x | (((pattern >> (2 * i)) & 0b11) << (8 * i)));
            assert_eq!(pack_octet(bytes), pattern);
        }
    }

    #[test]
    fn word_append_ignores_bits_past_the_last_base() {
        let mut packed = PackedSeq::from_rna(&"ACG".parse().unwrap());
        packed.extend_from_words(&[u64::MAX, u64::MAX], 33);
        assert_eq!(packed.len(), 36);
        assert_eq!(packed.to_string(), format!("ACG{}", "U".repeat(33)));
        assert_eq!(
            PackedSeq::from_words(packed.words().to_vec(), 36),
            Some(packed)
        );
    }

    #[test]
    fn packed_bit_layout_is_lsb_first() {
        let rna: RnaSeq = "UA".parse().unwrap(); // U=11 at bits 0..2, A=00 at 2..4
        let packed = PackedSeq::from_rna(&rna);
        assert_eq!(packed.words()[0], 0b0011);
        assert_eq!(packed.code_at(0), 0b11);
        assert_eq!(packed.code_at(1), 0b00);
    }

    #[test]
    fn packed_get_bounds() {
        let packed = PackedSeq::from_rna(&"ACG".parse().unwrap());
        assert_eq!(packed.get(2), Some(Nucleotide::G));
        assert_eq!(packed.get(3), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn packed_code_at_panics_out_of_range() {
        let packed = PackedSeq::from_rna(&"ACG".parse().unwrap());
        let _ = packed.code_at(3);
    }

    #[test]
    fn packed_extend_from() {
        let mut a = PackedSeq::from_rna(&"ACG".parse().unwrap());
        let b = PackedSeq::from_rna(&"UUA".parse().unwrap());
        a.extend_from(&b);
        assert_eq!(a.to_rna().to_string(), "ACGUUA");
    }

    #[test]
    fn seq_collect_and_extend() {
        let mut seq: RnaSeq = [Nucleotide::A, Nucleotide::C].into_iter().collect();
        seq.extend([Nucleotide::G]);
        assert_eq!(seq.to_string(), "ACG");
        assert_eq!(seq[1], Nucleotide::C);
    }
}
