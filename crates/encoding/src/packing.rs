//! Reference packing into 512-bit AXI beats and the overlapping stream
//! chunking the accelerator consumes.
//!
//! "In every cycle that the AXI port has valid data, FabP reads 512 bits of
//! the reference sequence … Since each element of the reference sequence is
//! 2 bits, … FabP reads 256 elements of the reference in each memory
//! access" (§III-C). To cover alignment positions that straddle beats,
//! "FabP keeps the last `L_q` elements of the current Reference Stream
//! buffer and concatenates it with the next incoming reference sequence",
//! so each iteration the stream buffer holds `L_q + 256` elements.

use fabp_bio::alphabet::Nucleotide;
use fabp_bio::seq::PackedSeq;
use std::ops::Range;

/// Reference elements carried per AXI beat (512 bits / 2 bits per base).
pub const ELEMENTS_PER_BEAT: usize = 256;

/// AXI data width in bits.
pub const AXI_WIDTH_BITS: usize = 512;

/// One 512-bit AXI data beat: eight 64-bit words, base 0 in the LSBs of
/// word 0, plus the number of valid bases (the final beat may be partial).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AxiBeat {
    /// The 512 bits of payload.
    pub words: [u64; 8],
    /// Number of valid bases in `0..=256`.
    pub valid: usize,
}

impl AxiBeat {
    /// The base at beat-local `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.valid`.
    #[inline]
    pub fn base(&self, index: usize) -> Nucleotide {
        assert!(index < self.valid, "beat index {index} out of range");
        let word = self.words[index / 32];
        let bit = 2 * (index % 32);
        Nucleotide::from_code2(((word >> bit) & 0b11) as u8)
    }

    /// Iterates over the valid bases.
    pub fn iter(&self) -> impl Iterator<Item = Nucleotide> + '_ {
        (0..self.valid).map(|i| self.base(i))
    }

    /// Appends the valid bases to `out` — the stream buffer's fill —
    /// unpacking a whole word (32 bases) per step rather than a base.
    ///
    /// # Panics
    ///
    /// Panics if `valid` exceeds [`ELEMENTS_PER_BEAT`].
    fn unpack_into(&self, out: &mut Vec<Nucleotide>) {
        assert!(
            self.valid <= ELEMENTS_PER_BEAT,
            "beat holds {} > {ELEMENTS_PER_BEAT} bases",
            self.valid
        );
        for (w, &word) in self.words.iter().enumerate() {
            let n = self.valid.saturating_sub(32 * w).min(32);
            if n == 0 {
                break;
            }
            let bases: [Nucleotide; 32] =
                std::array::from_fn(|i| Nucleotide::from_code2((word >> (2 * i)) as u8));
            out.extend_from_slice(&bases[..n]);
        }
    }
}

/// Splits a packed reference into AXI beats.
///
/// # Examples
///
/// ```
/// use fabp_bio::seq::{PackedSeq, RnaSeq};
/// use fabp_encoding::packing::{axi_beats, ELEMENTS_PER_BEAT};
///
/// let reference: RnaSeq = "ACGU".repeat(100).parse()?;
/// let beats = axi_beats(&PackedSeq::from_rna(&reference));
/// assert_eq!(beats.len(), 2); // 400 bases -> 256 + 144
/// assert_eq!(beats[0].valid, ELEMENTS_PER_BEAT);
/// assert_eq!(beats[1].valid, 144);
/// # Ok::<(), fabp_bio::alphabet::ParseSymbolError>(())
/// ```
pub fn axi_beats(reference: &PackedSeq) -> Vec<AxiBeat> {
    axi_beats_in(reference, 0..reference.len())
}

/// Splits the bases of `reference` in `range` into AXI beats, read in
/// place from its words ([`PackedSeq::word_at`]): a shard streamed from
/// a resident database without copying it first. The last beat's bits
/// past `range.end` are zero.
///
/// # Panics
///
/// Panics if `range` is decreasing or ends past `reference.len()`.
pub fn axi_beats_in(reference: &PackedSeq, range: Range<usize>) -> Vec<AxiBeat> {
    assert!(range.start <= range.end && range.end <= reference.len());
    let (end, tail) = (range.end, range.len() % 32);
    let mut beats: Vec<AxiBeat> = range
        .step_by(ELEMENTS_PER_BEAT)
        .map(|start| {
            let valid = (end - start).min(ELEMENTS_PER_BEAT);
            let mut words = [0u64; 8];
            for (w, slot) in words.iter_mut().take(valid.div_ceil(32)).enumerate() {
                *slot = reference.word_at(start + 32 * w);
            }
            AxiBeat { words, valid }
        })
        .collect();
    // A partial last word also read the bases after the range: zero
    // them, as in a copy of the range.
    if let Some(last) = beats.last_mut().filter(|_| tail > 0) {
        last.words[(last.valid - 1) / 32] &= (1 << (2 * tail)) - 1;
    }
    beats
}

/// The accelerator's *Reference Stream* buffer: holds the current beat's
/// 256 elements plus the trailing `L_q` elements of the previous contents,
/// so all `L_r − L_q + 1` alignment positions are covered without gaps.
#[derive(Debug, Clone)]
pub struct ReferenceStream {
    query_len: usize,
    buffer: Vec<Nucleotide>,
    /// Absolute reference position of `buffer[0]`.
    base_position: usize,
    primed: bool,
}

impl ReferenceStream {
    /// Creates a stream buffer for a query of `query_len` elements.
    pub fn new(query_len: usize) -> ReferenceStream {
        ReferenceStream {
            query_len,
            buffer: Vec::with_capacity(query_len + ELEMENTS_PER_BEAT),
            base_position: 0,
            primed: false,
        }
    }

    /// Buffer capacity per the paper: `L_q + 256`.
    pub fn capacity(&self) -> usize {
        self.query_len + ELEMENTS_PER_BEAT
    }

    /// Feeds the next AXI beat and returns the window of alignment
    /// instances it completes: `(start_position, elements)` where
    /// `elements` spans the carried overlap plus the new beat.
    ///
    /// Alignment instances starting at
    /// `start_position ..` can be evaluated on the returned slice.
    pub fn push_beat(&mut self, beat: &AxiBeat) -> StreamWindow<'_> {
        if self.primed {
            // Keep only the trailing L_q elements (may be fewer if the
            // buffer is still short).
            let keep = self.query_len.min(self.buffer.len());
            let drop = self.buffer.len() - keep;
            self.buffer.drain(..drop);
            self.base_position += drop;
        } else {
            self.primed = true;
        }
        beat.unpack_into(&mut self.buffer);
        StreamWindow {
            start_position: self.base_position,
            elements: &self.buffer,
        }
    }

    /// Absolute position of the first element currently buffered.
    pub fn base_position(&self) -> usize {
        self.base_position
    }
}

/// A borrowed view of the stream buffer after a beat arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamWindow<'a> {
    /// Absolute reference position of `elements[0]`.
    pub start_position: usize,
    /// Buffered elements (`≤ L_q + 256`).
    pub elements: &'a [Nucleotide],
}

impl StreamWindow<'_> {
    /// Number of alignment instances of a `query_len`-element query that
    /// this window can evaluate (those whose full extent lies inside it).
    pub fn num_instances(&self, query_len: usize) -> usize {
        self.elements.len().saturating_sub(query_len)
            + usize::from(query_len <= self.elements.len() && query_len > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabp_bio::generate::random_rna;
    use fabp_bio::seq::RnaSeq;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn beats_round_trip_all_bases() {
        let mut rng = StdRng::seed_from_u64(1);
        for len in [0usize, 1, 255, 256, 257, 512, 1000] {
            let rna = random_rna(len, &mut rng);
            let beats = axi_beats(&PackedSeq::from_rna(&rna));
            let unpacked: RnaSeq = beats.iter().flat_map(|b| b.iter()).collect();
            assert_eq!(unpacked, rna, "len {len}");
            assert_eq!(beats.len(), len.div_ceil(ELEMENTS_PER_BEAT));
        }
    }

    #[test]
    fn beats_of_a_range_equal_beats_of_its_copy() {
        // Unaligned starts, partial words and partial beats: beats read
        // in place carry the copied range's words, zero past its end.
        let mut rng = StdRng::seed_from_u64(5);
        let packed = PackedSeq::from_rna(&random_rna(1_100, &mut rng));
        for _ in 0..200 {
            let start = rng.gen_range(0..=packed.len());
            let end = rng.gen_range(start..=packed.len());
            assert_eq!(
                axi_beats_in(&packed, start..end),
                axi_beats(&packed.slice(start..end)),
                "{start}..{end}"
            );
        }
    }

    #[test]
    fn unpack_into_equals_iter_on_partial_beats() {
        let mut rng = StdRng::seed_from_u64(4);
        let words: [u64; 8] = std::array::from_fn(|_| rng.gen());
        for valid in [0usize, 1, 17, 31, 32, 33, 200, 255, 256] {
            let beat = AxiBeat { words, valid };
            let mut out = vec![Nucleotide::G];
            beat.unpack_into(&mut out);
            assert_eq!(out[0], Nucleotide::G, "valid {valid}: appends");
            assert_eq!(out[1..], beat.iter().collect::<Vec<_>>(), "valid {valid}");
        }
    }

    #[test]
    fn beat_base_indexing() {
        let rna: RnaSeq = "UACG".parse().unwrap();
        let beats = axi_beats(&PackedSeq::from_rna(&rna));
        assert_eq!(beats[0].base(0), Nucleotide::U);
        assert_eq!(beats[0].base(3), Nucleotide::G);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn beat_base_out_of_range_panics() {
        let rna: RnaSeq = "AC".parse().unwrap();
        let beats = axi_beats(&PackedSeq::from_rna(&rna));
        let _ = beats[0].base(2);
    }

    #[test]
    fn stream_covers_every_position_exactly_once() {
        // Reconstruct all window positions from the stream and check every
        // alignment instance start in 0..=L_r - L_q appears exactly once.
        let mut rng = StdRng::seed_from_u64(2);
        let query_len = 30usize;
        let rna = random_rna(700, &mut rng);
        let beats = axi_beats(&PackedSeq::from_rna(&rna));
        let mut stream = ReferenceStream::new(query_len);
        let mut seen = vec![0usize; rna.len() - query_len + 1];
        for beat in &beats {
            let window = stream.push_beat(beat);
            if window.elements.len() < query_len {
                continue;
            }
            for offset in 0..=window.elements.len() - query_len {
                let pos = window.start_position + offset;
                if pos < seen.len() {
                    // Verify the window content equals the reference there.
                    assert_eq!(
                        &window.elements[offset..offset + query_len],
                        &rna.as_slice()[pos..pos + query_len]
                    );
                    seen[pos] += 1;
                }
            }
        }
        // Positions covered by overlapping windows appear more than once;
        // what matters is that none is missed.
        assert!(seen.iter().all(|&c| c >= 1), "some position never covered");
    }

    #[test]
    fn stream_buffer_respects_capacity() {
        let query_len = 40usize;
        let mut rng = StdRng::seed_from_u64(3);
        let rna = random_rna(1024, &mut rng);
        let beats = axi_beats(&PackedSeq::from_rna(&rna));
        let mut stream = ReferenceStream::new(query_len);
        for beat in &beats {
            let window = stream.push_beat(beat);
            assert!(window.elements.len() <= stream.capacity());
        }
        assert_eq!(stream.capacity(), query_len + 256);
    }

    #[test]
    fn window_instance_count() {
        let w = StreamWindow {
            start_position: 0,
            elements: &[Nucleotide::A; 296],
        };
        // L_q = 40: 296 - 40 + 1 = 257 instances.
        assert_eq!(w.num_instances(40), 257);
        assert_eq!(w.num_instances(297), 0);
    }
}
