//! Incremental (streaming) search: feed the reference in chunks.
//!
//! Mirrors the hardware's own consumption model — "FabP keeps the last
//! `L_q` elements of the current Reference Stream buffer and concatenates
//! it with the next incoming reference sequence" (§III-C) — at the API
//! level, so gigabase FASTA files can be searched without materialising
//! them in memory.
//!
//! The working buffer is 2-bit packed, owned by the scanner and reused
//! across [`StreamingAligner::feed`] calls: the carried `L_q − 1`
//! overlap stays in place at the front of the buffer (slid down a word
//! at a time after each chunk) and only the incoming chunk is packed and
//! appended, so a steady-state feed performs **zero allocations** and
//! never re-packs the overlap. Each buffer is scanned by the fused
//! bit-parallel engine ([`BitParallelEngine`]).

use crate::bitparallel::BitParallelEngine;
use crate::hits::Hit;
use fabp_bio::alphabet::Nucleotide;
use fabp_bio::seq::PackedSeq;
use fabp_encoding::encoder::EncodedQuery;
use fabp_resilience::{FabpError, FabpResult};
use fabp_telemetry::Counter;

/// A stateful scanner that accepts reference chunks of any size and
/// reports hits with global coordinates.
///
/// # Examples
///
/// ```
/// use fabp_core::streaming::StreamingAligner;
/// use fabp_encoding::encoder::EncodedQuery;
/// use fabp_bio::seq::{ProteinSeq, RnaSeq};
///
/// let protein: ProteinSeq = "MF".parse()?;
/// let query = EncodedQuery::from_protein(&protein);
/// let mut scanner = StreamingAligner::new(&query, 6);
///
/// // "AUGUUC" arrives split across two chunks.
/// let a: RnaSeq = "GGAUGU".parse()?;
/// let b: RnaSeq = "UCGG".parse()?;
/// let mut hits = scanner.feed(a.as_slice());
/// hits.extend(scanner.feed(b.as_slice()));
/// hits.extend(scanner.finish());
/// assert_eq!(hits.len(), 1);
/// assert_eq!(hits[0].position, 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct StreamingAligner {
    engine: BitParallelEngine,
    threshold: u32,
    /// Reusable packed working buffer. Between `feed` calls it holds
    /// exactly the carried tail: the last `L_q − 1` elements seen.
    buffer: PackedSeq,
    /// Global position of `buffer[0]`.
    carry_position: usize,
    /// Total elements consumed.
    consumed: usize,
    /// Telemetry handles, registered once at construction — the feed hot
    /// path pays one atomic add per chunk, not a registry lookup.
    chunks_ctr: Counter,
    elements_ctr: Counter,
}

impl StreamingAligner {
    /// Creates a scanner for an encoded query and absolute threshold.
    ///
    /// # Panics
    ///
    /// Panics if the query is empty or the fused engine cannot score it;
    /// use [`StreamingAligner::try_new`] for a fallible constructor.
    pub fn new(query: &EncodedQuery, threshold: u32) -> StreamingAligner {
        match StreamingAligner::try_new(query, threshold) {
            Ok(scanner) => scanner,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible constructor: returns a typed error instead of panicking.
    ///
    /// # Errors
    ///
    /// [`FabpError::EmptyQuery`] when `query` is empty;
    /// [`FabpError::Plan`] when the fused engine cannot score it (a
    /// context-dependent element at index 0 or 1, or more than 65 535
    /// elements).
    pub fn try_new(query: &EncodedQuery, threshold: u32) -> FabpResult<StreamingAligner> {
        if query.is_empty() {
            return Err(FabpError::EmptyQuery);
        }
        let telemetry = fabp_telemetry::Registry::global();
        Ok(StreamingAligner {
            engine: BitParallelEngine::new(query)?,
            threshold,
            buffer: PackedSeq::new(),
            carry_position: 0,
            consumed: 0,
            chunks_ctr: telemetry.counter("fabp_stream_chunks_total", "Reference chunks streamed"),
            elements_ctr: telemetry.counter(
                "fabp_stream_elements_total",
                "Reference elements consumed by streaming scans",
            ),
        })
    }

    /// Total reference elements consumed so far.
    pub fn consumed(&self) -> usize {
        self.consumed
    }

    /// Feeds the next chunk, returning all hits whose windows are now
    /// complete (positions are global).
    ///
    /// Steady-state cost: one packed append of `chunk` into the reused
    /// working buffer, one scan, one in-place slide of the `L_q − 1`
    /// carry tail — no allocation once the buffer has grown to the
    /// largest `carry + chunk` seen.
    pub fn feed(&mut self, chunk: &[Nucleotide]) -> Vec<Hit> {
        let qlen = self.engine.query_len();
        self.consumed += chunk.len();
        self.chunks_ctr.inc();
        self.elements_ctr.add(chunk.len() as u64);

        // The carry tail is already in place at the front of the buffer;
        // pack and append only the new chunk.
        self.buffer.extend_from_slice(chunk);

        let all = 0..self.buffer.len();
        let mut hits = self.engine.search(&self.buffer, all, self.threshold);
        for hit in &mut hits {
            hit.position += self.carry_position;
        }

        // Slide the trailing qlen-1 elements to the front for the next
        // chunk (in place — the allocation is retained).
        let keep = (qlen - 1).min(self.buffer.len());
        let drop = self.buffer.len() - keep;
        self.carry_position += drop;
        self.buffer.drain_front(drop);

        hits
    }

    /// Finishes the stream. No further windows can complete (every window
    /// ending in the carried tail was already reported), so this only
    /// resets the state and returns nothing; provided for API symmetry
    /// with chunked decoders.
    pub fn finish(&mut self) -> Vec<Hit> {
        self.buffer = PackedSeq::new();
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::software::SoftwareEngine;
    use fabp_bio::generate::{random_protein, random_rna};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn chunked_equals_whole_for_any_chunking() {
        let mut rng = StdRng::seed_from_u64(0x517);
        let protein = random_protein(10, &mut rng);
        let query = EncodedQuery::from_protein(&protein);
        let reference = random_rna(3_000, &mut rng);
        let threshold = 18u32;

        let whole = SoftwareEngine::new(&query).search(reference.as_slice(), threshold);

        for chunk_size in [1usize, 7, 64, 256, 1000, 5000] {
            let mut scanner = StreamingAligner::new(&query, threshold);
            let mut hits = Vec::new();
            for chunk in reference.as_slice().chunks(chunk_size) {
                hits.extend(scanner.feed(chunk));
            }
            hits.extend(scanner.finish());
            assert_eq!(hits, whole, "chunk size {chunk_size}");
            assert_eq!(scanner.consumed(), reference.len());
        }
    }

    #[test]
    fn random_chunk_sizes_agree_too() {
        let mut rng = StdRng::seed_from_u64(0x518);
        let protein = random_protein(7, &mut rng);
        let query = EncodedQuery::from_protein(&protein);
        let reference = random_rna(2_000, &mut rng);
        let whole = SoftwareEngine::new(&query).search(reference.as_slice(), 12);

        let mut scanner = StreamingAligner::new(&query, 12);
        let mut hits = Vec::new();
        let mut rest = reference.as_slice();
        while !rest.is_empty() {
            let take = rng.gen_range(1..=rest.len().min(333));
            let (chunk, tail) = rest.split_at(take);
            hits.extend(scanner.feed(chunk));
            rest = tail;
        }
        hits.extend(scanner.finish());
        assert_eq!(hits, whole);
    }

    #[test]
    fn no_duplicate_hits_across_boundaries() {
        // A hit exactly at a chunk boundary must be reported once.
        let protein = "MF".parse().unwrap();
        let query = EncodedQuery::from_protein(&protein);
        let reference: fabp_bio::seq::RnaSeq = "AUGUUUAUGUUU".parse().unwrap();
        let mut scanner = StreamingAligner::new(&query, 6);
        let mut hits = Vec::new();
        for chunk in reference.as_slice().chunks(6) {
            hits.extend(scanner.feed(chunk));
        }
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].position, 0);
        assert_eq!(hits[1].position, 6);
    }

    #[test]
    fn buffer_is_reused_across_feeds() {
        // After the first uniform-size feed, subsequent feeds must not
        // grow the buffer's capacity (zero steady-state allocation).
        let mut rng = StdRng::seed_from_u64(0x519);
        let protein = random_protein(8, &mut rng);
        let query = EncodedQuery::from_protein(&protein);
        let reference = random_rna(8_192, &mut rng);
        let mut scanner = StreamingAligner::new(&query, 10);
        let mut caps = Vec::new();
        for chunk in reference.as_slice().chunks(512) {
            scanner.feed(chunk);
            caps.push(scanner.buffer.capacity());
        }
        let steady = caps[1];
        assert!(
            caps[1..].iter().all(|&c| c == steady),
            "buffer capacity kept growing: {caps:?}"
        );
    }

    #[test]
    fn unscorable_query_is_a_typed_error_not_a_panic() {
        use fabp_bio::backtranslate::{BackTranslatedQuery, DependentFn, PatternElement};
        let elements = vec![
            PatternElement::Dependent(DependentFn::Leu),
            PatternElement::Exact(Nucleotide::A),
            PatternElement::Exact(Nucleotide::A),
        ];
        let query =
            EncodedQuery::from_back_translated(&BackTranslatedQuery::from_elements(elements));
        match StreamingAligner::try_new(&query, 1) {
            Err(FabpError::Plan(msg)) => assert!(msg.contains("index 0"), "{msg}"),
            other => panic!("expected a typed plan error, got {other:?}"),
        }
    }

    #[test]
    fn short_stream_produces_nothing() {
        let protein = "MFW".parse().unwrap();
        let query = EncodedQuery::from_protein(&protein);
        let mut scanner = StreamingAligner::new(&query, 0);
        let chunk: fabp_bio::seq::RnaSeq = "AUG".parse().unwrap();
        assert!(scanner.feed(chunk.as_slice()).is_empty());
        assert!(scanner.finish().is_empty());
    }
}
