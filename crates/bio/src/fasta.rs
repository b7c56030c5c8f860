//! Minimal FASTA reading and writing.
//!
//! The paper's workloads come from the NCBI protein (`nr`) and nucleotide
//! (`nt`) FASTA databases; this module lets the examples and benchmark
//! harness load real FASTA files when available and write the synthetic
//! databases they generate.
//!
//! One byte scanner holds the grammar. [`read_records`] (and the typed
//! readers on it) keeps each record's text; [`read_packed`] packs a
//! nucleotide file's bases straight into the 2-bit words every search
//! scans, holding nothing else but one fixed-size read buffer.

use crate::alphabet::ParseSymbolError;
use crate::seq::{pack_octet, DnaSeq, PackedSeq, ProteinSeq, RnaSeq};
use std::fmt;
use std::io::{self, Read, Write};
use std::ops::Range;
use std::str::FromStr;

/// One FASTA record: a header line and the raw residue text.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Record {
    /// Identifier: the header up to the first whitespace (without `>`).
    pub id: String,
    /// Remainder of the header line after the identifier.
    pub description: String,
    /// Concatenated sequence lines (whitespace removed), unparsed.
    pub sequence: String,
}

impl Record {
    /// Creates a record from an identifier and sequence text.
    pub fn new(id: impl Into<String>, sequence: impl Into<String>) -> Record {
        Record {
            id: id.into(),
            description: String::new(),
            sequence: sequence.into(),
        }
    }

    /// Parses the sequence text as a given sequence type.
    ///
    /// # Errors
    ///
    /// Propagates the symbol error of the target alphabet.
    pub fn parse_as<S: FromStr<Err = ParseSymbolError>>(&self) -> Result<S, ParseSymbolError> {
        self.sequence.parse()
    }
}

/// Errors produced while reading FASTA.
#[derive(Debug)]
pub enum FastaError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Sequence data appeared before any `>` header.
    MissingHeader {
        /// 1-based line number of the offending line.
        line: usize,
    },
    /// A `>` header was followed by no sequence lines (or only gap
    /// characters) before the next header or end of input.
    EmptyRecord {
        /// Identifier from the offending header.
        id: String,
        /// 1-based line number of the offending header.
        line: usize,
    },
    /// A residue failed to parse as the requested alphabet, with the
    /// record it came from for context.
    Symbol {
        /// Identifier of the record the bad residue is in.
        id: String,
        /// 1-based line number of the record's header.
        line: usize,
        /// The underlying symbol error.
        source: ParseSymbolError,
    },
}

impl fmt::Display for FastaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FastaError::Io(e) => write!(f, "fasta i/o error: {e}"),
            FastaError::MissingHeader { line } => {
                write!(f, "sequence data before first '>' header at line {line}")
            }
            FastaError::EmptyRecord { id, line } => {
                write!(
                    f,
                    "record '{id}' (header at line {line}) has no sequence data"
                )
            }
            FastaError::Symbol { id, line, source } => {
                write!(f, "record '{id}' (header at line {line}): {source}")
            }
        }
    }
}

impl std::error::Error for FastaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FastaError::Io(e) => Some(e),
            FastaError::Symbol { source, .. } => Some(source),
            FastaError::MissingHeader { .. } | FastaError::EmptyRecord { .. } => None,
        }
    }
}

impl From<io::Error> for FastaError {
    fn from(e: io::Error) -> FastaError {
        FastaError::Io(e)
    }
}

/// Reads all FASTA records from `reader`, normalizing real-world mess.
///
/// Blank lines are ignored; `;` comment lines (an old FASTA dialect) are
/// skipped. CRLF line endings are accepted, lowercase residues are
/// uppercased (the NCBI soft-masking convention), and `-`/`.` alignment
/// gap characters are stripped, so the returned sequences contain only
/// residue symbols. Whitespace means ASCII whitespace. A `&mut R` can be
/// passed for readers you want to keep.
///
/// This is the grammar [`read_packed`] reads too: one byte scanner
/// splits the lines for both.
///
/// # Errors
///
/// Returns [`FastaError`] on I/O failure (a header or sequence that is
/// not UTF-8 is [`io::ErrorKind::InvalidData`]), sequence data before
/// the first header, or a header with no sequence data at all
/// ([`FastaError::EmptyRecord`]).
///
/// # Examples
///
/// ```
/// use fabp_bio::fasta::read_records;
/// let text = ">q1 demo\r\nmfsr\nMK\n>q2\nac-gt..\n";
/// let records = read_records(text.as_bytes())?;
/// assert_eq!(records.len(), 2);
/// assert_eq!(records[0].id, "q1");
/// assert_eq!(records[0].sequence, "MFSRMK");
/// assert_eq!(records[1].sequence, "ACGT");
/// # Ok::<(), fabp_bio::fasta::FastaError>(())
/// ```
pub fn read_records<R: Read>(reader: R) -> Result<Vec<Record>, FastaError> {
    Ok(read_records_with_lines(reader)?
        .into_iter()
        .map(|(record, _)| record)
        .collect())
}

/// Like [`read_records`] but pairs each record with the 1-based line
/// number of its header, for error context in the typed readers.
fn read_records_with_lines<R: Read>(reader: R) -> Result<Vec<(Record, usize)>, FastaError> {
    let mut text = Text::default();
    scan(reader, &mut text)?;
    Ok(text.records)
}

/// A nucleotide FASTA file packed 2 bits per base: every record's bases
/// in one [`PackedSeq`], in file order, with each record's identifier
/// and base range — the layout of a reference index's shards.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PackedRecords {
    /// Every record's bases, concatenated in file order.
    pub bases: PackedSeq,
    /// Each record's identifier (its header up to the first whitespace).
    pub ids: Vec<String>,
    /// Each record's bases in [`PackedRecords::bases`], in file order.
    pub ranges: Vec<Range<usize>>,
}

impl PackedRecords {
    /// `bases` as one record named `id`.
    pub fn one(id: impl Into<String>, bases: PackedSeq) -> PackedRecords {
        PackedRecords {
            ranges: std::iter::once(0..bases.len()).collect(),
            ids: vec![id.into()],
            bases,
        }
    }
}

/// Reads a DNA or RNA FASTA file straight into 2-bit words.
///
/// The grammar is [`read_records`]': the file's bytes are read once
/// through one fixed-size buffer, each classified by a 256-entry table,
/// and bases (`A`, `C`, `G`, `T`/`U`, either case) pack eight at a time
/// into the words, with no text or per-base copy of a record. It gives
/// the bases, ids and errors of [`read_rna`] followed by
/// [`PackedSeq::from_rna`], except that a non-ASCII byte in sequence
/// data is an invalid symbol.
///
/// # Errors
///
/// As [`read_rna`]: the first structural error, else
/// [`FastaError::Symbol`] naming the first record holding a byte that
/// is not a base, whitespace or a gap.
///
/// # Examples
///
/// ```
/// use fabp_bio::fasta::read_packed;
/// let fasta = read_packed(">r1\nACGT\nac\n>r2 second\nU-U\n".as_bytes())?;
/// assert_eq!(fasta.bases.to_string(), "ACGUACUU");
/// assert_eq!(fasta.ids, ["r1", "r2"]);
/// assert_eq!(fasta.ranges, [0..6, 6..8]);
/// # Ok::<(), fabp_bio::fasta::FastaError>(())
/// ```
pub fn read_packed<R: Read>(reader: R) -> Result<PackedRecords, FastaError> {
    let mut packer = Packer::default();
    scan(reader, &mut packer)?;
    if let Some(error) = packer.error {
        return Err(error);
    }
    if packer.partial_bits > 0 {
        packer.words.push(packer.partial);
    }
    let bases = PackedSeq::from_words(packer.words, packer.len)
        .expect("the packer fills words low bits first and leaves the rest zero");
    Ok(PackedRecords {
        bases,
        ids: packer.ids,
        ranges: packer.ranges,
    })
}

// Byte classes of the grammar: `0..=3` is a base's 2-bit code.
/// ASCII whitespace other than the line break.
const SPACE: u8 = 4;
/// `-` and `.` alignment gaps.
const GAP: u8 = 5;
/// The line break, `\n`.
const NEWLINE: u8 = 6;
/// Any other byte: sequence text, but not a base.
const OTHER: u8 = 7;

/// Every byte's class, one lookup per byte.
static CLASS: [u8; 256] = {
    let mut class = [OTHER; 256];
    let bases = [(b'A', 0), (b'C', 1), (b'G', 2), (b'T', 3), (b'U', 3)];
    let mut i = 0;
    while i < bases.len() {
        let (base, code) = bases[i];
        class[base as usize] = code;
        class[base.to_ascii_lowercase() as usize] = code;
        i += 1;
    }
    let spaces = [b' ', b'\t', b'\r', 0x0B, 0x0C];
    let mut i = 0;
    while i < spaces.len() {
        class[spaces[i] as usize] = SPACE;
        i += 1;
    }
    class[b'-' as usize] = GAP;
    class[b'.' as usize] = GAP;
    class[b'\n' as usize] = NEWLINE;
    class
};

#[inline]
fn class(byte: u8) -> u8 {
    CLASS[usize::from(byte)]
}

/// Bytes per read: the one buffer a reader holds besides what it builds.
const BUFFER_BYTES: usize = 64 << 10;

/// A record's header line, split into identifier and description.
struct Header {
    id: String,
    description: String,
    /// 1-based line number of the header.
    line: usize,
}

impl Header {
    fn parse(text: Vec<u8>, line: usize) -> Result<Header, FastaError> {
        let text = String::from_utf8(text).map_err(invalid_data)?;
        let mut parts = text.trim_end().splitn(2, char::is_whitespace);
        let id = parts.next().unwrap_or("").to_string();
        let description = parts.next().unwrap_or("").trim().to_string();
        Ok(Header {
            id,
            description,
            line,
        })
    }
}

fn invalid_data(e: std::string::FromUtf8Error) -> FastaError {
    FastaError::Io(io::Error::new(io::ErrorKind::InvalidData, e))
}

/// What a reader builds from the lines [`scan`] splits out.
trait Sink {
    /// Takes a run of the open record's sequence-line bytes (never a
    /// line break); returns whether any of them is sequence data rather
    /// than whitespace or a gap.
    fn feed(&mut self, bytes: &[u8]) -> bool;
    /// Closes a record that holds sequence data.
    fn close(&mut self, header: Header) -> Result<(), FastaError>;
}

/// The FASTA grammar, once for every reader. Reads `reader` through one
/// fixed buffer and splits it into lines. A line's first non-whitespace
/// byte decides its kind: none makes it blank and `;` a comment, both
/// skipped; `>` opens a record; anything else makes a sequence line,
/// whose bytes go to `sink`. A record closes at the next header or the
/// end of input, and must hold sequence data by then.
fn scan<R: Read, S: Sink>(mut reader: R, sink: &mut S) -> Result<(), FastaError> {
    enum Line {
        Start,
        Header(Vec<u8>),
        Comment,
        Sequence,
    }
    /// Closes the open record, if any.
    fn close<S: Sink>(open: Option<(Header, bool)>, sink: &mut S) -> Result<(), FastaError> {
        match open {
            Some((header, true)) => sink.close(header),
            Some((header, false)) => Err(FastaError::EmptyRecord {
                id: header.id,
                line: header.line,
            }),
            None => Ok(()),
        }
    }
    let mut buffer = vec![0u8; BUFFER_BYTES];
    let mut state = Line::Start;
    let mut line = 1usize;
    // The open record's header, and whether it holds sequence data yet.
    let mut open: Option<(Header, bool)> = None;
    loop {
        let n = match reader.read(&mut buffer) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        let mut rest = &buffer[..n];
        while let Some(&first) = rest.first() {
            if let Line::Start = state {
                match (class(first), first) {
                    (SPACE, _) => {}
                    (NEWLINE, _) => line += 1,
                    (_, b'>') => state = Line::Header(Vec::new()),
                    (_, b';') => state = Line::Comment,
                    _ if open.is_none() => return Err(FastaError::MissingHeader { line }),
                    // The first byte is sequence data: the line takes it.
                    _ => {
                        state = Line::Sequence;
                        continue;
                    }
                }
                rest = &rest[1..];
                continue;
            }
            let (run, ended) = match rest.iter().position(|&b| b == b'\n') {
                Some(end) => (&rest[..end], true),
                None => (rest, false),
            };
            rest = &rest[run.len() + usize::from(ended)..];
            match &mut state {
                Line::Header(text) => text.extend_from_slice(run),
                Line::Sequence => {
                    let (_, data) = open.as_mut().expect("a sequence line follows a header");
                    *data |= sink.feed(run);
                }
                Line::Comment | Line::Start => {}
            }
            if ended {
                if let Line::Header(text) = std::mem::replace(&mut state, Line::Start) {
                    close(open.take(), sink)?;
                    open = Some((Header::parse(text, line)?, false));
                }
                line += 1;
            }
        }
    }
    if let Line::Header(text) = state {
        close(open.take(), sink)?;
        open = Some((Header::parse(text, line)?, false));
    }
    close(open, sink)
}

/// [`read_records`]' sink: each record's sequence as text, uppercased,
/// without whitespace or gaps.
#[derive(Default)]
struct Text {
    records: Vec<(Record, usize)>,
    /// The open record's sequence bytes.
    sequence: Vec<u8>,
}

impl Sink for Text {
    fn feed(&mut self, bytes: &[u8]) -> bool {
        let before = self.sequence.len();
        let kept = bytes.iter().filter(|&&b| !matches!(class(b), SPACE | GAP));
        self.sequence.extend(kept.map(u8::to_ascii_uppercase));
        self.sequence.len() > before
    }

    fn close(&mut self, header: Header) -> Result<(), FastaError> {
        let sequence =
            String::from_utf8(std::mem::take(&mut self.sequence)).map_err(invalid_data)?;
        let record = Record {
            id: header.id,
            description: header.description,
            sequence,
        };
        self.records.push((record, header.line));
        Ok(())
    }
}

/// [`read_packed`]'s sink: bases straight into 2-bit words.
#[derive(Default)]
struct Packer {
    words: Vec<u64>,
    /// Bases not yet in a whole word, first base in the low bits.
    partial: u64,
    partial_bits: u32,
    len: usize,
    /// First base of the open record.
    start: usize,
    ids: Vec<String>,
    ranges: Vec<Range<usize>>,
    /// The open record's first byte that is not a base, as a symbol.
    bad: Option<char>,
    /// The first record's symbol error, reported after the scan unless
    /// the scan fails first (as [`read_rna`] reports structure first).
    error: Option<FastaError>,
}

impl Packer {
    /// Appends `n <= 8` bases whose codes sit 2 bits each in `codes`.
    #[inline]
    fn push(&mut self, codes: u64, n: u32) {
        self.partial |= codes << self.partial_bits;
        self.partial_bits += 2 * n;
        self.len += n as usize;
        if self.partial_bits >= 64 {
            self.words.push(self.partial);
            self.partial_bits -= 64;
            self.partial = codes >> (2 * n - self.partial_bits);
        }
    }

    /// Feeds `run[range]` a byte at a time.
    fn feed_bytes(&mut self, run: &[u8], range: Range<usize>) -> bool {
        let mut data = false;
        for i in range {
            match class(run[i]) {
                SPACE | GAP => continue,
                code @ 0..=3 => self.push(u64::from(code), 1),
                _ => {
                    // The symbol, decoded as the text readers would see
                    // it (a character cut by the buffer reads as U+FFFD).
                    let found = String::from_utf8_lossy(&run[i..run.len().min(i + 4)])
                        .chars()
                        .next()
                        .map_or(char::REPLACEMENT_CHARACTER, |c| c.to_ascii_uppercase());
                    self.bad.get_or_insert(found);
                }
            }
            data = true;
        }
        data
    }
}

impl Sink for Packer {
    fn feed(&mut self, bytes: &[u8]) -> bool {
        let mut data = false;
        let whole = bytes.len() - bytes.len() % 8;
        for at in (0..whole).step_by(8) {
            // Eight classes load as the bytes of one word; when all are
            // base codes, `pack_octet` closes them up into 16 bits.
            let codes = bytes[at..at + 8]
                .iter()
                .rev()
                .fold(0u64, |codes, &b| (codes << 8) | u64::from(class(b)));
            if codes & 0xFCFC_FCFC_FCFC_FCFC == 0 {
                self.push(pack_octet(codes), 8);
                data = true;
            } else {
                data |= self.feed_bytes(bytes, at..at + 8);
            }
        }
        self.feed_bytes(bytes, whole..bytes.len()) | data
    }

    fn close(&mut self, header: Header) -> Result<(), FastaError> {
        if let Some(found) = self.bad.take() {
            let source = ParseSymbolError {
                found,
                alphabet: "nucleotide",
            };
            self.error.get_or_insert(FastaError::Symbol {
                id: header.id.clone(),
                line: header.line,
                source,
            });
        }
        self.ranges.push(self.start..self.len);
        self.start = self.len;
        self.ids.push(header.id);
        Ok(())
    }
}

/// Writes records in FASTA format, wrapping sequences at `width` columns.
///
/// # Errors
///
/// Propagates I/O errors from `writer`.
pub fn write_records<W: Write>(mut writer: W, records: &[Record], width: usize) -> io::Result<()> {
    let width = width.max(1);
    for record in records {
        if record.description.is_empty() {
            writeln!(writer, ">{}", record.id)?;
        } else {
            writeln!(writer, ">{} {}", record.id, record.description)?;
        }
        let bytes = record.sequence.as_bytes();
        for chunk in bytes.chunks(width) {
            writer.write_all(chunk)?;
            writer.write_all(b"\n")?;
        }
    }
    Ok(())
}

/// Reads and parses every record as a protein sequence.
///
/// # Errors
///
/// Returns the structural FASTA error, or [`FastaError::Symbol`] naming
/// the record (id + header line) whose residues failed to parse.
pub fn read_proteins<R: Read>(reader: R) -> Result<Vec<(String, ProteinSeq)>, FastaError> {
    read_typed(reader)
}

/// Reads and parses every record as a DNA sequence.
///
/// # Errors
///
/// See [`read_proteins`].
pub fn read_dna<R: Read>(reader: R) -> Result<Vec<(String, DnaSeq)>, FastaError> {
    read_typed(reader)
}

/// Reads and parses every record as an RNA sequence.
///
/// # Errors
///
/// See [`read_proteins`].
pub fn read_rna<R: Read>(reader: R) -> Result<Vec<(String, RnaSeq)>, FastaError> {
    read_typed(reader)
}

fn read_typed<R: Read, S: FromStr<Err = ParseSymbolError>>(
    reader: R,
) -> Result<Vec<(String, S)>, FastaError> {
    let records = read_records_with_lines(reader)?;
    records
        .into_iter()
        .map(|(r, line)| match r.parse_as::<S>() {
            Ok(seq) => Ok((r.id, seq)),
            Err(source) => Err(FastaError::Symbol {
                id: r.id,
                line,
                source,
            }),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_through_text() {
        let records = vec![
            Record {
                id: "a".into(),
                description: "first record".into(),
                sequence: "MFSRMKLV".into(),
            },
            Record::new("b", "ACGT"),
        ];
        let mut out = Vec::new();
        write_records(&mut out, &records, 4).unwrap();
        let parsed = read_records(out.as_slice()).unwrap();
        assert_eq!(parsed, records);
    }

    #[test]
    fn wrapping_splits_lines() {
        let records = vec![Record::new("x", "AAAAAAAAAA")];
        let mut out = Vec::new();
        write_records(&mut out, &records, 4).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text, ">x\nAAAA\nAAAA\nAA\n");
    }

    #[test]
    fn missing_header_is_an_error() {
        let err = read_records("ACGT\n".as_bytes()).unwrap_err();
        assert!(matches!(err, FastaError::MissingHeader { line: 1 }));
        assert!(err.to_string().contains("line 1"));
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        let text = "; comment\n\n>s\nAC\n; another\nGT\n\n";
        let records = read_records(text.as_bytes()).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].sequence, "ACGT");
    }

    #[test]
    fn typed_readers_parse_sequences() {
        let proteins = read_proteins(">p\nMFW\n".as_bytes()).unwrap();
        assert_eq!(proteins[0].1.to_string(), "MFW");
        let dna = read_dna(">d\nACGT\n".as_bytes()).unwrap();
        assert_eq!(dna[0].1.to_string(), "ACGT");
        let rna = read_rna(">r\nACGU\n".as_bytes()).unwrap();
        assert_eq!(rna[0].1.to_string(), "ACGU");
    }

    #[test]
    fn typed_reader_propagates_symbol_errors() {
        assert!(read_proteins(">p\nMF!\n".as_bytes()).is_err());
    }

    #[test]
    fn empty_input_is_ok() {
        assert!(read_records("".as_bytes()).unwrap().is_empty());
    }

    #[test]
    fn header_without_description() {
        let records = read_records(">only_id\nAC\n".as_bytes()).unwrap();
        assert_eq!(records[0].id, "only_id");
        assert!(records[0].description.is_empty());
    }

    // --- Regressions for real-world messy inputs that used to corrupt
    // sequences or pass silently: CRLF, lowercase soft-masking, gap
    // characters, and headers with no sequence.

    #[test]
    fn crlf_line_endings_are_normalized() {
        let text = ">q1 desc here\r\nMFSR\r\nMK\r\n>q2\r\nACGU\r\n";
        let records = read_records(text.as_bytes()).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].id, "q1");
        assert_eq!(records[0].description, "desc here");
        assert_eq!(records[0].sequence, "MFSRMK");
        assert_eq!(records[1].sequence, "ACGU");
    }

    #[test]
    fn lowercase_residues_are_uppercased() {
        // NCBI soft-masks repeats as lowercase; they are the same
        // residues and must not fail the alphabet parse downstream.
        let records = read_records(">r\nacgUAcg\n".as_bytes()).unwrap();
        assert_eq!(records[0].sequence, "ACGUACG");
        let rna = read_rna(">r\nacgu\n".as_bytes()).unwrap();
        assert_eq!(rna[0].1.to_string(), "ACGU");
    }

    #[test]
    fn gap_characters_are_stripped() {
        let records = read_records(">aln\nAC-GU\n..AC--GU.\n".as_bytes()).unwrap();
        assert_eq!(records[0].sequence, "ACGUACGU");
    }

    #[test]
    fn empty_record_after_header_is_a_typed_error() {
        // Mid-file: header immediately followed by another header.
        let err = read_records(">empty\n>full\nACGU\n".as_bytes()).unwrap_err();
        match err {
            FastaError::EmptyRecord { id, line } => {
                assert_eq!(id, "empty");
                assert_eq!(line, 1);
            }
            other => panic!("expected EmptyRecord, got {other:?}"),
        }
        // Trailing: header at end of input.
        let err = read_records(">full\nACGU\n>tail junk\n".as_bytes()).unwrap_err();
        assert!(matches!(err, FastaError::EmptyRecord { line: 3, .. }));
        // A record whose lines are all gaps is empty too.
        let err = read_records(">gaps\n---\n...\n".as_bytes()).unwrap_err();
        assert!(matches!(err, FastaError::EmptyRecord { line: 1, .. }));
        assert!(err.to_string().contains("gaps"));
    }

    #[test]
    fn symbol_errors_carry_record_context() {
        let err = read_proteins(">good\nMFW\n>bad one\nMF!\n".as_bytes()).unwrap_err();
        match &err {
            FastaError::Symbol { id, line, .. } => {
                assert_eq!(id, "bad");
                assert_eq!(*line, 3);
            }
            other => panic!("expected Symbol, got {other:?}"),
        }
        let msg = err.to_string();
        assert!(
            msg.contains("'bad'") && msg.contains("line 3"),
            "msg: {msg}"
        );
        assert!(std::error::Error::source(&err).is_some());
    }

    // --- The packing reader.

    /// Hands out at most `chunk` bytes per read, so lines, headers and
    /// octets straddle reads.
    struct Trickle<'a> {
        bytes: &'a [u8],
        chunk: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.chunk.min(buf.len()).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    #[test]
    fn byte_classes_agree_with_the_nucleotide_alphabet() {
        use crate::alphabet::Nucleotide;
        for byte in 0..=255u8 {
            let parsed = Nucleotide::from_char(char::from(byte)).ok();
            let code = (class(byte) < 4).then(|| Nucleotide::from_code2(class(byte)));
            assert_eq!(code, parsed, "byte {byte:#04x}");
            let space = byte.is_ascii() && char::from(byte).is_whitespace() && byte != b'\n';
            assert_eq!(class(byte) == SPACE, space, "byte {byte:#04x}");
        }
    }

    #[test]
    fn packed_reader_matches_the_text_reader_across_reads() {
        let long: String = (0..200).map(|i| ['a', 'C', 'g', 'T', 'U'][i % 5]).collect();
        let text =
            format!("; comment\r\n\r\n>r1 first one\r\nAC-GT\r\n..acgu\n  \n>r2\n{long}\n>r3\nG");
        for chunk in [1, 3, 7, 8, 64, BUFFER_BYTES] {
            let reader = Trickle {
                bytes: text.as_bytes(),
                chunk,
            };
            let packed = read_packed(reader).unwrap();
            let rna = read_rna(text.as_bytes()).unwrap();
            let mut bases = RnaSeq::new();
            for (_, seq) in &rna {
                bases.extend(seq.iter().copied());
            }
            assert_eq!(packed.bases, PackedSeq::from_rna(&bases), "chunk {chunk}");
            assert_eq!(packed.ids, ["r1", "r2", "r3"]);
            assert_eq!(packed.ranges, [0..8, 8..208, 208..209]);
        }
    }

    #[test]
    fn packed_reader_names_the_record_of_a_bad_symbol() {
        let err = read_packed(">good\nACGU\n>bad one\nAC\nGNT\n".as_bytes()).unwrap_err();
        let expected = read_rna(">good\nACGU\n>bad one\nAC\nGNT\n".as_bytes()).unwrap_err();
        assert_eq!(err.to_string(), expected.to_string());
        match err {
            FastaError::Symbol { id, line, source } => {
                assert_eq!((id.as_str(), line, source.found), ("bad", 3, 'N'));
            }
            other => panic!("expected Symbol, got {other:?}"),
        }
        // Lowercase symbols are reported uppercased, as the text readers
        // report them; structure errors anywhere come first.
        let err = read_packed(">a\nACx\n>b\n".as_bytes()).unwrap_err();
        assert!(
            matches!(err, FastaError::EmptyRecord { line: 3, .. }),
            "{err:?}"
        );
        let err = read_packed(">a\nACx\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("'X'"), "{err}");
        // A non-ASCII byte is a symbol error, decoded where it can be.
        let err = read_packed(">a\nAC\u{e9}G\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains('\u{e9}'), "{err}");
    }

    #[test]
    fn packed_reader_keeps_the_structural_errors() {
        let cases: [(&str, &str); 4] = [
            ("ACGT\n>r\nA\n", "line 1"),
            (">r\n-..-\n>s\nA\n", "'r' (header at line 1)"),
            (">r\nA\n>tail junk", "'tail' (header at line 3)"),
            ("\n  -\n", "line 2"),
        ];
        for (text, context) in cases {
            let packed = read_packed(text.as_bytes()).unwrap_err().to_string();
            let records = read_records(text.as_bytes()).unwrap_err().to_string();
            assert_eq!(packed, records, "{text:?}");
            assert!(packed.contains(context), "{text:?}: {packed}");
        }
        assert_eq!(
            read_packed("".as_bytes()).unwrap(),
            PackedRecords::default()
        );
        let err = read_packed(&b">r\xff\nA\n"[..]).unwrap_err();
        assert!(matches!(&err, FastaError::Io(e) if e.kind() == io::ErrorKind::InvalidData));
    }
}
