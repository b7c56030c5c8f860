//! Protein back-translation into degenerate codon patterns (paper §III-A).
//!
//! Back-translation maps each amino acid to the set of codons that could
//! have produced it. FabP represents that set as a three-element *pattern*
//! whose elements fall into the paper's three classes:
//!
//! * **Type I** — uniquely back-translated, exact element-wise comparison
//!   ([`PatternElement::Exact`]).
//! * **Type II** — non-unique but independent of other positions,
//!   conditional comparison ([`PatternElement::Conditional`] with a
//!   [`MatchCondition`]).
//! * **Type III** — dependent on an earlier element of the same codon,
//!   implemented by one of the hardware functions `F:00` (Stop), `F:01`
//!   (Leu), `F:10` (Arg) ([`PatternElement::Dependent`]). The
//!   "match-anything" element `D` is logically Type II but is encoded with
//!   the Type III opcode as function `F:11` for hardware simplicity
//!   (paper §III-B); we model it as [`DependentFn::Any`].
//!
//! This module is the **golden model**: every bit-level layer (the 6-bit
//! instruction encoding, the LUT truth tables, the cycle-level engine) is
//! property-tested against the semantics defined here.
//!
//! ## Fidelity notes
//!
//! The dependent functions discriminate their two branches by a *single bit*
//! of the earlier reference element, exactly as the hardware multiplexer
//! does (Fig. 5(a)): Stop and Leu use the MSB of the source element, Arg
//! uses the LSB. For reference elements that satisfy the pattern's earlier
//! positions the discrimination is exact; for arbitrary reference windows it
//! reproduces the hardware's (intentional) don't-care behaviour.
//!
//! The paper aggregates Serine as `UCD`, deliberately dropping its `AGU` and
//! `AGC` codons — only third-position dependence is expressible with the
//! F-functions. [`BackTranslationMode::Paper`] reproduces that;
//! [`BackTranslationMode::ExtendedSer`] adds the second pattern `AG(U/C)`
//! so full-sensitivity experiments are possible.

use crate::alphabet::{AminoAcid, Nucleotide};
use crate::codon::Codon;
use crate::seq::ProteinSeq;
use std::fmt;

/// The four Type II matching conditions that fit the 2-bit condition field
/// (paper §III-B). The paper observes five conditions in the codon table;
/// the fifth (`D`, match-anything) is encoded with the Type III opcode.
///
/// Discriminants are the hardware condition codes from Fig. 5(b)'s legend:
/// `U/C=00, A/G=01, G̅=10, A/C=11`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum MatchCondition {
    /// Matches `U` or `C` (a pyrimidine). Hardware code `00`.
    PyrimidineUc = 0b00,
    /// Matches `A` or `G` (a purine). Hardware code `01`.
    PurineAg = 0b01,
    /// Matches anything except `G`. Hardware code `10`.
    NotG = 0b10,
    /// Matches `A` or `C`. Hardware code `11`.
    AOrC = 0b11,
}

impl MatchCondition {
    /// All four conditions in hardware-code order.
    pub const ALL: [MatchCondition; 4] = [
        MatchCondition::PyrimidineUc,
        MatchCondition::PurineAg,
        MatchCondition::NotG,
        MatchCondition::AOrC,
    ];

    /// The 2-bit hardware condition code.
    #[inline]
    pub const fn code2(self) -> u8 {
        self as u8
    }

    /// Reconstructs a condition from its 2-bit hardware code.
    #[inline]
    pub const fn from_code2(code: u8) -> MatchCondition {
        match code & 0b11 {
            0b00 => MatchCondition::PyrimidineUc,
            0b01 => MatchCondition::PurineAg,
            0b10 => MatchCondition::NotG,
            _ => MatchCondition::AOrC,
        }
    }

    /// Whether `reference` satisfies this condition.
    #[inline]
    pub const fn matches(self, reference: Nucleotide) -> bool {
        match self {
            MatchCondition::PyrimidineUc => {
                matches!(reference, Nucleotide::U | Nucleotide::C)
            }
            MatchCondition::PurineAg => matches!(reference, Nucleotide::A | Nucleotide::G),
            MatchCondition::NotG => !matches!(reference, Nucleotide::G),
            MatchCondition::AOrC => matches!(reference, Nucleotide::A | Nucleotide::C),
        }
    }
}

impl fmt::Display for MatchCondition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MatchCondition::PyrimidineUc => "U/C",
            MatchCondition::PurineAg => "A/G",
            MatchCondition::NotG => "G\u{0305}", // G with overline, the paper's G̅
            MatchCondition::AOrC => "A/C",
        })
    }
}

/// The four Type III hardware functions (paper §III-B).
///
/// Discriminants are the 2-bit `F` codes: `F:00` Stop, `F:01` Leu,
/// `F:10` Arg, `F:11` the match-anything element `D`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum DependentFn {
    /// `F:00` — third element of the Stop codons `{UAA, UAG, UGA}`:
    /// if the previous element is `A`-like, match `A/G`; if `G`-like,
    /// match only `A`.
    Stop = 0b00,
    /// `F:01` — third element of Leucine (`CUD` or `UUA/G`): if the
    /// first codon element is `C`-like, match anything; if `U`-like,
    /// match `A/G`.
    Leu = 0b01,
    /// `F:10` — third element of Arginine (`(A/C)G…`): if the first codon
    /// element is `A`-like, match `A/G`; if `C`-like, match anything.
    Arg = 0b10,
    /// `F:11` — the element `D`: matches all four nucleotides.
    Any = 0b11,
}

impl DependentFn {
    /// All four functions in `F`-code order.
    pub const ALL: [DependentFn; 4] = [
        DependentFn::Stop,
        DependentFn::Leu,
        DependentFn::Arg,
        DependentFn::Any,
    ];

    /// The 2-bit `F` code.
    #[inline]
    pub const fn code2(self) -> u8 {
        self as u8
    }

    /// Reconstructs a function from its 2-bit `F` code.
    #[inline]
    pub const fn from_code2(code: u8) -> DependentFn {
        match code & 0b11 {
            0b00 => DependentFn::Stop,
            0b01 => DependentFn::Leu,
            0b10 => DependentFn::Arg,
            _ => DependentFn::Any,
        }
    }

    /// Which earlier reference element the hardware multiplexer taps, and
    /// which of its two bits (Fig. 5(a)): `(offset, bit)` where `offset` is
    /// 1 for `Ref^{i-1}` or 2 for `Ref^{i-2}` and `bit` is 0 (LSB) or 1
    /// (MSB) of the 2-bit base code.
    ///
    /// Returns `None` for [`DependentFn::Any`], whose output ignores the
    /// selected bit.
    #[inline]
    pub const fn source_tap(self) -> Option<(usize, u8)> {
        match self {
            DependentFn::Stop => Some((1, 1)), // Ref^{i-1}[1]
            DependentFn::Leu => Some((2, 1)),  // Ref^{i-2}[1]
            DependentFn::Arg => Some((2, 0)),  // Ref^{i-2}[0]
            DependentFn::Any => None,
        }
    }

    /// Evaluates the function given the multiplexer-selected bit `s` and
    /// the current reference element — the exact truth table of Fig. 5(b)'s
    /// "Dependent matching" columns.
    #[inline]
    pub const fn eval(self, s: bool, reference: Nucleotide) -> bool {
        match self {
            DependentFn::Stop => {
                if s {
                    matches!(reference, Nucleotide::A)
                } else {
                    matches!(reference, Nucleotide::A | Nucleotide::G)
                }
            }
            DependentFn::Leu => {
                if s {
                    matches!(reference, Nucleotide::A | Nucleotide::G)
                } else {
                    true
                }
            }
            DependentFn::Arg => {
                if s {
                    true
                } else {
                    matches!(reference, Nucleotide::A | Nucleotide::G)
                }
            }
            DependentFn::Any => true,
        }
    }

    /// Evaluates the function against full earlier-element context.
    ///
    /// `prev1` is the reference element one position back (`Ref^{i-1}`),
    /// `prev2` two positions back (`Ref^{i-2}`). Missing context (window
    /// truncated at the start) selects `s = 0`, matching the hardware whose
    /// shift registers reset to zero.
    #[inline]
    pub fn eval_in_context(
        self,
        reference: Nucleotide,
        prev1: Option<Nucleotide>,
        prev2: Option<Nucleotide>,
    ) -> bool {
        let s = match self.source_tap() {
            None => false,
            Some((offset, bit)) => {
                let src = if offset == 1 { prev1 } else { prev2 };
                match src {
                    Some(n) => (n.code2() >> bit) & 1 == 1,
                    None => false,
                }
            }
        };
        self.eval(s, reference)
    }
}

impl fmt::Display for DependentFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DependentFn::Stop => write!(f, "F:00"),
            DependentFn::Leu => write!(f, "F:01"),
            DependentFn::Arg => write!(f, "F:10"),
            DependentFn::Any => write!(f, "D"),
        }
    }
}

/// The paper's element type taxonomy (§III-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElementType {
    /// Uniquely back-translated; exact comparison.
    TypeI,
    /// Non-unique, independent of other positions; conditional comparison.
    TypeII,
    /// Depends on an earlier element of the codon; dependent comparison.
    TypeIII,
}

impl fmt::Display for ElementType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ElementType::TypeI => "Type I",
            ElementType::TypeII => "Type II",
            ElementType::TypeIII => "Type III",
        })
    }
}

/// One element of a back-translated (degenerate) codon pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatternElement {
    /// Type I: the reference element must equal this nucleotide.
    Exact(Nucleotide),
    /// Type II: the reference element must satisfy the condition.
    Conditional(MatchCondition),
    /// Type III (and `D`): evaluated by a hardware function against earlier
    /// reference elements.
    Dependent(DependentFn),
}

impl PatternElement {
    /// The paper's type classification of this element.
    ///
    /// `D` reports [`ElementType::TypeII`] — the paper calls it a Type II
    /// element even though it shares the Type III opcode.
    #[inline]
    pub const fn element_type(self) -> ElementType {
        match self {
            PatternElement::Exact(_) => ElementType::TypeI,
            PatternElement::Conditional(_) => ElementType::TypeII,
            PatternElement::Dependent(DependentFn::Any) => ElementType::TypeII,
            PatternElement::Dependent(_) => ElementType::TypeIII,
        }
    }

    /// Whether `reference` matches this element given earlier reference
    /// elements (`prev1` = one back, `prev2` = two back).
    ///
    /// This is the golden element-wise comparison every hardware layer must
    /// agree with.
    #[inline]
    pub fn matches(
        self,
        reference: Nucleotide,
        prev1: Option<Nucleotide>,
        prev2: Option<Nucleotide>,
    ) -> bool {
        match self {
            PatternElement::Exact(n) => reference == n,
            PatternElement::Conditional(cond) => cond.matches(reference),
            PatternElement::Dependent(func) => func.eval_in_context(reference, prev1, prev2),
        }
    }

    /// The set of nucleotides this element can match in *some* context.
    pub fn possible_matches(self) -> Vec<Nucleotide> {
        Nucleotide::ALL
            .into_iter()
            .filter(|&n| {
                Nucleotide::ALL.into_iter().any(|p1| {
                    Nucleotide::ALL
                        .into_iter()
                        .any(|p2| self.matches(n, Some(p1), Some(p2)))
                })
            })
            .collect()
    }
}

impl fmt::Display for PatternElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatternElement::Exact(n) => write!(f, "{n}"),
            PatternElement::Conditional(c) => write!(f, "({c})"),
            PatternElement::Dependent(DependentFn::Any) => write!(f, "D"),
            PatternElement::Dependent(func) => write!(f, "({func})"),
        }
    }
}

/// A back-translated codon: three pattern elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CodonPattern(pub [PatternElement; 3]);

impl CodonPattern {
    /// Whether the pattern matches a whole reference codon (all three
    /// elements match).
    pub fn matches_codon(&self, codon: Codon) -> bool {
        let [a, b, c] = codon.0;
        self.0[0].matches(a, None, None)
            && self.0[1].matches(b, Some(a), None)
            && self.0[2].matches(c, Some(b), Some(a))
    }

    /// The set of codons this pattern accepts.
    pub fn accepted_codons(&self) -> Vec<Codon> {
        Codon::all().filter(|&c| self.matches_codon(c)).collect()
    }

    /// Iterates over the three elements.
    pub fn iter(&self) -> std::slice::Iter<'_, PatternElement> {
        self.0.iter()
    }
}

impl fmt::Display for CodonPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}{}", self.0[0], self.0[1], self.0[2])
    }
}

/// How Serine's six codons are represented.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum BackTranslationMode {
    /// The paper's scheme: Ser = `UCD`, silently dropping `AGU`/`AGC`
    /// (§III-A lists only the four `UCx` codons).
    #[default]
    Paper,
    /// Extension: Ser is represented by two patterns, `UCD` and `AG(U/C)`,
    /// restoring full codon coverage at the cost of a second query pass.
    ExtendedSer,
}

/// Back-translates one amino acid into its primary degenerate codon pattern
/// (the paper's scheme, Fig. 2 / §III-A).
///
/// # Examples
///
/// ```
/// use fabp_bio::alphabet::AminoAcid;
/// use fabp_bio::backtranslate::back_translate;
///
/// assert_eq!(back_translate(AminoAcid::Phe).to_string(), "UU(U/C)");
/// assert_eq!(back_translate(AminoAcid::Met).to_string(), "AUG");
/// ```
pub fn back_translate(aa: AminoAcid) -> CodonPattern {
    use DependentFn as F;
    use MatchCondition as C;
    use Nucleotide::{A, C as Cy, G, U};
    use PatternElement::{Conditional as Cond, Dependent as Dep, Exact};

    match aa {
        AminoAcid::Ala => CodonPattern([Exact(G), Exact(Cy), Dep(F::Any)]),
        AminoAcid::Arg => CodonPattern([Cond(C::AOrC), Exact(G), Dep(F::Arg)]),
        AminoAcid::Asn => CodonPattern([Exact(A), Exact(A), Cond(C::PyrimidineUc)]),
        AminoAcid::Asp => CodonPattern([Exact(G), Exact(A), Cond(C::PyrimidineUc)]),
        AminoAcid::Cys => CodonPattern([Exact(U), Exact(G), Cond(C::PyrimidineUc)]),
        AminoAcid::Gln => CodonPattern([Exact(Cy), Exact(A), Cond(C::PurineAg)]),
        AminoAcid::Glu => CodonPattern([Exact(G), Exact(A), Cond(C::PurineAg)]),
        AminoAcid::Gly => CodonPattern([Exact(G), Exact(G), Dep(F::Any)]),
        AminoAcid::His => CodonPattern([Exact(Cy), Exact(A), Cond(C::PyrimidineUc)]),
        AminoAcid::Ile => CodonPattern([Exact(A), Exact(U), Cond(C::NotG)]),
        AminoAcid::Leu => CodonPattern([Cond(C::PyrimidineUc), Exact(U), Dep(F::Leu)]),
        AminoAcid::Lys => CodonPattern([Exact(A), Exact(A), Cond(C::PurineAg)]),
        AminoAcid::Met => CodonPattern([Exact(A), Exact(U), Exact(G)]),
        AminoAcid::Phe => CodonPattern([Exact(U), Exact(U), Cond(C::PyrimidineUc)]),
        AminoAcid::Pro => CodonPattern([Exact(Cy), Exact(Cy), Dep(F::Any)]),
        AminoAcid::Ser => CodonPattern([Exact(U), Exact(Cy), Dep(F::Any)]),
        AminoAcid::Thr => CodonPattern([Exact(A), Exact(Cy), Dep(F::Any)]),
        AminoAcid::Trp => CodonPattern([Exact(U), Exact(G), Exact(G)]),
        AminoAcid::Tyr => CodonPattern([Exact(U), Exact(A), Cond(C::PyrimidineUc)]),
        AminoAcid::Val => CodonPattern([Exact(G), Exact(U), Dep(F::Any)]),
        AminoAcid::Stop => CodonPattern([Exact(U), Cond(C::PurineAg), Dep(F::Stop)]),
    }
}

/// The secondary Serine pattern `AG(U/C)` used by
/// [`BackTranslationMode::ExtendedSer`].
pub fn serine_secondary_pattern() -> CodonPattern {
    CodonPattern([
        PatternElement::Exact(Nucleotide::A),
        PatternElement::Exact(Nucleotide::G),
        PatternElement::Conditional(MatchCondition::PyrimidineUc),
    ])
}

/// A whole back-translated query: the paper's *consensus sequence*.
///
/// Flattens one [`CodonPattern`] per amino acid into a single element
/// stream of length `3 × protein length` — the `L_q` the hardware works
/// with ("After the back-translation, the length of the query sequence is
/// multiplied by three", §IV-A).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BackTranslatedQuery {
    elements: Vec<PatternElement>,
}

impl BackTranslatedQuery {
    /// Back-translates `protein` with the paper's per-amino-acid patterns.
    pub fn from_protein(protein: &ProteinSeq) -> BackTranslatedQuery {
        let mut elements = Vec::with_capacity(protein.len() * 3);
        for &aa in protein {
            elements.extend(back_translate(aa).0);
        }
        BackTranslatedQuery { elements }
    }

    /// Builds a query directly from pattern elements (used by tests and the
    /// exact-RNA query path).
    pub fn from_elements(elements: Vec<PatternElement>) -> BackTranslatedQuery {
        BackTranslatedQuery { elements }
    }

    /// Builds an exact-match query from an RNA sequence (every element
    /// Type I) — FabP degenerates to plain nucleotide alignment.
    pub fn from_exact_rna(rna: &crate::seq::RnaSeq) -> BackTranslatedQuery {
        BackTranslatedQuery {
            elements: rna.iter().map(|&n| PatternElement::Exact(n)).collect(),
        }
    }

    /// Number of elements (`L_q`, three per amino acid).
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// `true` when the query holds no elements.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// Borrow the elements.
    pub fn elements(&self) -> &[PatternElement] {
        &self.elements
    }

    /// Golden alignment score of this query against one reference window:
    /// the number of element-wise matches (paper §III-C — FabP "only counts
    /// the differences", i.e. the score is the popcount of matches).
    ///
    /// `window` must be at least as long as the query; extra elements are
    /// ignored. Earlier-element context for Type III elements comes from
    /// the *reference window*, exactly as the hardware's shift taps do.
    ///
    /// # Panics
    ///
    /// Panics if `window.len() < self.len()`.
    pub fn score_window(&self, window: &[Nucleotide]) -> usize {
        assert!(
            window.len() >= self.len(),
            "window ({}) shorter than query ({})",
            window.len(),
            self.len()
        );
        self.elements
            .iter()
            .enumerate()
            .filter(|&(i, element)| {
                let prev1 = i.checked_sub(1).map(|j| window[j]);
                let prev2 = i.checked_sub(2).map(|j| window[j]);
                element.matches(window[i], prev1, prev2)
            })
            .count()
    }

    /// Golden sliding-window scores against a full reference: one score per
    /// alignment position `0 ..= reference.len() - query.len()` — the
    /// paper's `L_r - L_q + 1` independent alignment instances.
    ///
    /// Returns an empty vector when the reference is shorter than the query.
    pub fn score_all_positions(&self, reference: &[Nucleotide]) -> Vec<usize> {
        if reference.len() < self.len() || self.is_empty() {
            return Vec::new();
        }
        (0..=reference.len() - self.len())
            .map(|k| self.score_window(&reference[k..]))
            .collect()
    }

    /// Count of elements per [`ElementType`], in order (I, II, III).
    pub fn type_histogram(&self) -> [usize; 3] {
        let mut h = [0usize; 3];
        for e in &self.elements {
            match e.element_type() {
                ElementType::TypeI => h[0] += 1,
                ElementType::TypeII => h[1] += 1,
                ElementType::TypeIII => h[2] += 1,
            }
        }
        h
    }
}

impl fmt::Display for BackTranslatedQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.elements {
            write!(f, "{e}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codon::codons_of;

    /// Codons a pattern should accept: the amino acid's codon list, minus
    /// the paper's documented Ser exception.
    fn expected_codons(aa: AminoAcid) -> Vec<Codon> {
        let mut v: Vec<Codon> = codons_of(aa).to_vec();
        if aa == AminoAcid::Ser {
            v.retain(|c| c.0[0] == Nucleotide::U); // drop AGU, AGC
        }
        v.sort();
        v
    }

    #[test]
    fn pattern_accepts_exactly_the_codon_set() {
        for aa in AminoAcid::ALL {
            let pattern = back_translate(aa);
            let mut accepted = pattern.accepted_codons();
            accepted.sort();
            assert_eq!(
                accepted,
                expected_codons(aa),
                "pattern {pattern} for {aa:?} accepts the wrong codon set"
            );
        }
    }

    /// The premise of the seeded prefilter's identity bound: a residue
    /// scores all 3 elements only if its codon translates to the query
    /// residue, so a window scoring `t` holds at least `t − 2n`
    /// identical residues.
    #[test]
    fn patterns_accept_only_synonymous_codons() {
        let patterns = AminoAcid::ALL
            .into_iter()
            .map(|aa| (aa, back_translate(aa)))
            .chain([(AminoAcid::Ser, serine_secondary_pattern())]);
        for (aa, pattern) in patterns {
            for codon in pattern.accepted_codons() {
                assert_eq!(
                    codon.translate(),
                    aa,
                    "pattern {pattern} for {aa:?} accepts {codon}"
                );
            }
        }
    }

    #[test]
    fn serine_secondary_covers_the_dropped_codons() {
        let pattern = serine_secondary_pattern();
        let mut accepted = pattern.accepted_codons();
        accepted.sort();
        let mut expected = vec![
            Codon::from_str_strict("AGU").unwrap(),
            Codon::from_str_strict("AGC").unwrap(),
        ];
        expected.sort();
        assert_eq!(accepted, expected);
    }

    #[test]
    fn paper_notation_round_trip() {
        // §III-A worked notation.
        assert_eq!(back_translate(AminoAcid::Phe).to_string(), "UU(U/C)");
        assert_eq!(
            back_translate(AminoAcid::Ile).to_string(),
            format!("AU({})", MatchCondition::NotG)
        );
        assert_eq!(back_translate(AminoAcid::Ser).to_string(), "UCD");
        assert_eq!(back_translate(AminoAcid::Arg).to_string(), "(A/C)G(F:10)");
        assert_eq!(back_translate(AminoAcid::Stop).to_string(), "U(A/G)(F:00)");
        assert_eq!(back_translate(AminoAcid::Leu).to_string(), "(U/C)U(F:01)");
    }

    #[test]
    fn element_types_follow_the_paper() {
        // Phe = UU(U/C): two Type I then a Type II (§III-A).
        let phe = back_translate(AminoAcid::Phe);
        assert_eq!(phe.0[0].element_type(), ElementType::TypeI);
        assert_eq!(phe.0[1].element_type(), ElementType::TypeI);
        assert_eq!(phe.0[2].element_type(), ElementType::TypeII);
        // D is "a Type II element" even though it shares the Type III opcode.
        let ser = back_translate(AminoAcid::Ser);
        assert_eq!(ser.0[2].element_type(), ElementType::TypeII);
        // Leu/Arg/Stop third elements are Type III.
        for aa in [AminoAcid::Leu, AminoAcid::Arg, AminoAcid::Stop] {
            assert_eq!(back_translate(aa).0[2].element_type(), ElementType::TypeIII);
        }
    }

    #[test]
    fn dependent_fn_truth_tables_match_fig5b() {
        use Nucleotide::{A, C, G, U};
        // Stop column.
        let f = DependentFn::Stop;
        assert!(f.eval(false, A) && !f.eval(false, C) && f.eval(false, G) && !f.eval(false, U));
        assert!(f.eval(true, A) && !f.eval(true, C) && !f.eval(true, G) && !f.eval(true, U));
        // Leu column.
        let f = DependentFn::Leu;
        assert!(f.eval(false, A) && f.eval(false, C) && f.eval(false, G) && f.eval(false, U));
        assert!(f.eval(true, A) && !f.eval(true, C) && f.eval(true, G) && !f.eval(true, U));
        // Arg column.
        let f = DependentFn::Arg;
        assert!(f.eval(false, A) && !f.eval(false, C) && f.eval(false, G) && !f.eval(false, U));
        assert!(f.eval(true, A) && f.eval(true, C) && f.eval(true, G) && f.eval(true, U));
        // D column.
        let f = DependentFn::Any;
        for s in [false, true] {
            for n in Nucleotide::ALL {
                assert!(f.eval(s, n));
            }
        }
    }

    #[test]
    fn source_taps_match_fig5a_inputs() {
        assert_eq!(DependentFn::Stop.source_tap(), Some((1, 1)));
        assert_eq!(DependentFn::Leu.source_tap(), Some((2, 1)));
        assert_eq!(DependentFn::Arg.source_tap(), Some((2, 0)));
        assert_eq!(DependentFn::Any.source_tap(), None);
    }

    #[test]
    fn dependent_elements_only_in_third_position() {
        for aa in AminoAcid::ALL {
            let pattern = back_translate(aa);
            for element in &pattern.0[..2] {
                assert!(
                    !matches!(
                        element,
                        PatternElement::Dependent(DependentFn::Stop)
                            | PatternElement::Dependent(DependentFn::Leu)
                            | PatternElement::Dependent(DependentFn::Arg)
                    ),
                    "{aa:?}: dependent function before codon position 2"
                );
            }
        }
    }

    #[test]
    fn condition_codes_match_fig5b_legend() {
        assert_eq!(MatchCondition::PyrimidineUc.code2(), 0b00);
        assert_eq!(MatchCondition::PurineAg.code2(), 0b01);
        assert_eq!(MatchCondition::NotG.code2(), 0b10);
        assert_eq!(MatchCondition::AOrC.code2(), 0b11);
        for c in MatchCondition::ALL {
            assert_eq!(MatchCondition::from_code2(c.code2()), c);
        }
        for f in DependentFn::ALL {
            assert_eq!(DependentFn::from_code2(f.code2()), f);
        }
    }

    #[test]
    fn paper_query_example_back_translation() {
        // §III-B: Q = {Met-Phe-Ser-Arg-Stop}
        // → {AUG - UU(U/C) - UCD - (A/C)G(F:10) - U(A/G)(F:00)}
        // (the paper prints "UUD" for Ser; the codon table makes it UCD —
        //  see DESIGN.md fidelity notes).
        let q: ProteinSeq = "MFSR*".parse().unwrap();
        let bt = BackTranslatedQuery::from_protein(&q);
        assert_eq!(bt.len(), 15);
        assert_eq!(bt.to_string(), "AUGUU(U/C)UCD(A/C)G(F:10)U(A/G)(F:00)");
    }

    #[test]
    fn score_window_counts_matches() {
        let q: ProteinSeq = "MF".parse().unwrap(); // AUG UU(U/C)
        let bt = BackTranslatedQuery::from_protein(&q);
        let reference: crate::seq::RnaSeq = "AUGUUC".parse().unwrap();
        assert_eq!(bt.score_window(reference.as_slice()), 6);
        let mismatch: crate::seq::RnaSeq = "AUGUUG".parse().unwrap();
        assert_eq!(bt.score_window(mismatch.as_slice()), 5);
        let worse: crate::seq::RnaSeq = "CCCUUG".parse().unwrap();
        assert_eq!(bt.score_window(worse.as_slice()), 2);
    }

    #[test]
    fn score_all_positions_counts_instances() {
        let q: ProteinSeq = "M".parse().unwrap();
        let bt = BackTranslatedQuery::from_protein(&q);
        let reference: crate::seq::RnaSeq = "AAUGAUGA".parse().unwrap();
        let scores = bt.score_all_positions(reference.as_slice());
        // L_r - L_q + 1 = 8 - 3 + 1 = 6 alignment instances.
        assert_eq!(scores.len(), 6);
        assert_eq!(scores[1], 3); // AUG at offset 1
        assert_eq!(scores[4], 3); // AUG at offset 4
    }

    #[test]
    fn score_all_positions_short_reference() {
        let q: ProteinSeq = "MF".parse().unwrap();
        let bt = BackTranslatedQuery::from_protein(&q);
        let reference: crate::seq::RnaSeq = "AUG".parse().unwrap();
        assert!(bt.score_all_positions(reference.as_slice()).is_empty());
    }

    #[test]
    fn exact_rna_query_scores_hamming() {
        let rna: crate::seq::RnaSeq = "ACGU".parse().unwrap();
        let bt = BackTranslatedQuery::from_exact_rna(&rna);
        assert_eq!(bt.score_window(rna.as_slice()), 4);
        let other: crate::seq::RnaSeq = "ACGA".parse().unwrap();
        assert_eq!(bt.score_window(other.as_slice()), 3);
    }

    #[test]
    fn type_histogram_for_paper_example() {
        let q: ProteinSeq = "MFSR*".parse().unwrap();
        let bt = BackTranslatedQuery::from_protein(&q);
        let [t1, t2, t3] = bt.type_histogram();
        // AUG: 3×I. UU(U/C): 2×I + 1×II. UCD: 2×I + 1×II (D).
        // (A/C)G(F:10): 1×II + 1×I + 1×III. U(A/G)(F:00): 1×I + 1×II + 1×III.
        assert_eq!(t1, 9);
        assert_eq!(t2, 4);
        assert_eq!(t3, 2);
        assert_eq!(t1 + t2 + t3, bt.len());
    }

    #[test]
    fn possible_matches_of_d_is_everything() {
        let d = PatternElement::Dependent(DependentFn::Any);
        assert_eq!(d.possible_matches(), Nucleotide::ALL.to_vec());
        let exact = PatternElement::Exact(Nucleotide::G);
        assert_eq!(exact.possible_matches(), vec![Nucleotide::G]);
    }
}
