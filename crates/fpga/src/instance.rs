//! A complete gate-level *alignment instance*: the Fig. 3 datapath from
//! reference window to thresholded hit, built entirely from LUT6/carry
//! primitives.
//!
//! One instance scores one alignment position: `L_q` two-LUT comparators,
//! the hand-crafted Pop-Counter reducing the `L_q` match bits, and a
//! threshold comparator on the score. The query instruction bits are
//! netlist *inputs* — on the device they live in distributed memory and
//! are loaded at run time (§III-C), not synthesized into the fabric — so
//! every comparator cone stays dynamic exactly like the real hardware.
//! (An earlier revision baked them in as constant drivers, which
//! constant-folds half of each comparator away and lit up `fabp-lint`'s
//! `lut-foldable` rule.) The cycle engine's fast path scores this
//! datapath with the fused bit-parallel kernel; this module builds the
//! *actual netlist* so it can be resource-counted, Verilog-emitted,
//! fault-simulated and verified gate-by-gate against the golden model.

use crate::comparator::{compare_lut, mux_lut};
use crate::netlist::{Netlist, NodeId, ResourceCount};
use crate::popcount::{add_vectors, pop6_group};
use fabp_bio::alphabet::Nucleotide;
use fabp_encoding::encoder::EncodedQuery;
use fabp_encoding::instruction::Instruction;

/// A built alignment instance.
#[derive(Debug, Clone)]
pub struct AlignmentInstance {
    netlist: Netlist,
    instructions: Vec<Instruction>,
    query_len: usize,
    score_bits: Vec<NodeId>,
    hit: NodeId,
    threshold: u32,
}

impl AlignmentInstance {
    /// Builds the instance for an encoded query and a score threshold.
    ///
    /// The netlist's inputs are the reference window — 2 bits per element
    /// (`L_q` elements), MSB first per element — followed by the query
    /// instruction bits, 6 per element in `Q[0..6]` order (the
    /// distributed-memory word the device loads at run time).
    /// [`AlignmentInstance::eval`] drives both groups automatically.
    ///
    /// # Panics
    ///
    /// Panics if the query is empty.
    pub fn build(query: &EncodedQuery, threshold: u32) -> AlignmentInstance {
        assert!(!query.is_empty(), "query must be non-empty");
        let mut n = Netlist::new();
        let len = query.len();

        // Reference window inputs: element i = (msb, lsb).
        let ref_bits: Vec<[NodeId; 2]> = (0..len)
            .map(|_| {
                let msb = n.input();
                let lsb = n.input();
                [msb, lsb]
            })
            .collect();
        // Query instruction inputs: element i = Q[0..6].
        let q_bits: Vec<Vec<NodeId>> = (0..len).map(|_| n.inputs(6)).collect();
        let zero = n.constant(false);

        // Per-element comparator: the mux LUT fed by earlier reference
        // elements and the instruction's config bits, then the compare
        // LUT — two LUTs per element, exactly the paper's Fig. 5 cell.
        let mut match_bits = Vec::with_capacity(len);
        for i in 0..len {
            let q = &q_bits[i];
            let prev1_msb = if i >= 1 { ref_bits[i - 1][0] } else { zero };
            let prev2 = if i >= 2 {
                ref_bits[i - 2]
            } else {
                [zero, zero]
            };
            // Mux pins: I0=Q[3], I1=prev1_msb, I2=prev2_lsb, I3=prev2_msb,
            // I4=Q[5], I5=Q[4].
            let x = n.lut(mux_lut(), [q[3], prev1_msb, prev2[1], prev2[0], q[5], q[4]]);
            // Compare pins: I0=ref_lsb, I1=ref_msb, I2=X, I3=Q[2], I4=Q[1],
            // I5=Q[0].
            let m = n.lut(
                compare_lut(),
                [ref_bits[i][1], ref_bits[i][0], x, q[2], q[1], q[0]],
            );
            match_bits.push(m);
        }

        // Pop-Counter: Fig. 4 structure over the match bits.
        let score_bits = build_popcount(&mut n, &match_bits);

        // Threshold: score >= threshold via a ripple comparator on the
        // carry chain (hardware uses a DSP; gate-level model shown here).
        let hit = build_ge_const(&mut n, &score_bits, threshold);
        n.mark_output("hit", hit);
        for (i, &b) in score_bits.iter().enumerate() {
            n.mark_output(format!("score{i}"), b);
        }
        // Per-element match bits as named outputs: each comparator cone
        // has an 11-input support, small enough for `fabp-verify` to
        // exhaustively prove against `Instruction::matches`.
        for (i, &m) in match_bits.iter().enumerate() {
            n.mark_output(format!("match{i}"), m);
        }

        AlignmentInstance {
            netlist: n,
            instructions: query.instructions().to_vec(),
            query_len: len,
            score_bits,
            hit,
            threshold,
        }
    }

    /// Query length in elements.
    pub fn query_len(&self) -> usize {
        self.query_len
    }

    /// The configured threshold.
    pub fn threshold(&self) -> u32 {
        self.threshold
    }

    /// Resource footprint of the full instance.
    pub fn resources(&self) -> ResourceCount {
        self.netlist.resources()
    }

    /// Borrow the netlist (Verilog emission, fault simulation).
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Evaluates the instance on a reference window, returning
    /// `(score, hit)`.
    ///
    /// # Panics
    ///
    /// Panics if `window.len() < self.query_len()`.
    pub fn eval(&mut self, window: &[Nucleotide]) -> (u32, bool) {
        assert!(window.len() >= self.query_len, "window too short");
        let mut inputs: Vec<bool> = Vec::with_capacity(self.query_len * 8);
        // Reference window bits, then the query's distributed-memory word.
        for n in &window[..self.query_len] {
            let code = n.code2();
            inputs.push(code & 0b10 != 0);
            inputs.push(code & 0b01 != 0);
        }
        for instr in &self.instructions {
            let bits = instr.bits();
            for k in 0..6 {
                inputs.push((bits >> (5 - k)) & 1 == 1);
            }
        }
        self.netlist.eval(&inputs);
        let score = self
            .score_bits
            .iter()
            .enumerate()
            .map(|(i, &b)| u32::from(self.netlist.value(b)) << i)
            .sum();
        (score, self.netlist.value(self.hit))
    }
}

/// Hand-crafted pop-count over an arbitrary number of bits (pads the last
/// Pop36 with constants).
fn build_popcount(n: &mut Netlist, bits: &[NodeId]) -> Vec<NodeId> {
    let zero = n.constant(false);
    let mut sums: Vec<Vec<NodeId>> = Vec::new();
    for chunk in bits.chunks(36) {
        let mut padded = [zero; 36];
        padded[..chunk.len()].copy_from_slice(chunk);
        // Stage 1 + 2 + 3 per crate::popcount's Pop36.
        let stage1: Vec<[NodeId; 3]> = padded
            .chunks(6)
            .map(|c| {
                let mut pins = [zero; 6];
                pins.copy_from_slice(c);
                pop6_group(n, &pins)
            })
            .collect();
        let stage2: Vec<[NodeId; 3]> = (0..3)
            .map(|j| {
                let pins: [NodeId; 6] = std::array::from_fn(|g| stage1[g][j]);
                pop6_group(n, &pins)
            })
            .collect();
        let p1s: Vec<NodeId> = std::iter::once(zero)
            .chain(stage2[1].iter().copied())
            .collect();
        let p2s: Vec<NodeId> = [zero, zero]
            .into_iter()
            .chain(stage2[2].iter().copied())
            .collect();
        let t = add_vectors(n, &p1s, &p2s);
        sums.push(add_vectors(n, stage2[0].as_ref(), &t));
    }
    while sums.len() > 1 {
        let mut next = Vec::new();
        for pair in sums.chunks(2) {
            match pair {
                [a, b] => next.push(add_vectors(n, a, b)),
                [a] => next.push(a.clone()),
                _ => unreachable!(),
            }
        }
        sums = next;
    }
    sums.pop().expect("non-empty")
}

/// Builds `value >= constant` over little-endian bits using the carry
/// chain: compute `value - constant` and take the final (no-borrow) carry.
fn build_ge_const(n: &mut Netlist, bits: &[NodeId], constant: u32) -> NodeId {
    // If the constant has bits beyond the score width, value < constant
    // unconditionally — decided *before* building the chain, so no dead
    // carry cone is left behind (fabp-lint's `dead-node` rule found the
    // original build-then-discard version).
    let width = bits.len();
    if u64::from(constant) >> width.min(63) != 0 {
        return n.constant(false);
    }
    // value >= c  <=>  value + (!c) + 1 carries out of the top bit.
    let one = n.constant(true);
    let mut carry = one; // +1 of the two's complement
    for (i, &b) in bits.iter().enumerate() {
        let not_c_bit = n.constant((constant >> i) & 1 == 0);
        carry = n.carry(b, not_c_bit, carry);
    }
    carry
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabp_bio::generate::{random_protein, random_rna};
    use fabp_bio::seq::ProteinSeq;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn instance_for(protein: &str, threshold: u32) -> AlignmentInstance {
        let protein: ProteinSeq = protein.parse().unwrap();
        AlignmentInstance::build(&EncodedQuery::from_protein(&protein), threshold)
    }

    #[test]
    fn gate_level_scores_match_golden_model() {
        let mut rng = StdRng::seed_from_u64(0xA11);
        let protein = random_protein(8, &mut rng);
        let query = EncodedQuery::from_protein(&protein);
        let mut instance = AlignmentInstance::build(&query, 12);
        let reference = random_rna(200, &mut rng);
        for k in 0..=reference.len() - query.len() {
            let window = &reference.as_slice()[k..];
            let golden = query.score_window(window) as u32;
            let (score, hit) = instance.eval(window);
            assert_eq!(score, golden, "position {k}");
            assert_eq!(hit, golden >= 12, "position {k}");
        }
    }

    #[test]
    fn resource_count_matches_component_sums() {
        use crate::popcount::{popcounter_cost, PopStyle};
        let instance = instance_for("MFSRW", 10); // 15 elements
        let r = instance.resources();
        // 15 comparators × 2 LUTs + the hand-crafted Pop-Counter at the
        // same width (padding cones constant-folded identically);
        // threshold rides the carry chain (0 LUTs).
        let pop = popcounter_cost(15, PopStyle::HandCrafted).luts;
        assert_eq!(r.luts, 15 * 2 + pop, "LUT budget: {}", r.luts);
        assert_eq!(r.ffs, 0, "combinational instance");
    }

    #[test]
    fn threshold_edge_cases() {
        let protein: ProteinSeq = "MF".parse().unwrap();
        let query = EncodedQuery::from_protein(&protein);
        // Perfect window AUGUUU scores 6.
        let window: Vec<Nucleotide> = "AUGUUU"
            .parse::<fabp_bio::seq::RnaSeq>()
            .unwrap()
            .into_inner();
        for (threshold, expect_hit) in [(0u32, true), (6, true), (7, false)] {
            let mut instance = AlignmentInstance::build(&query, threshold);
            let (score, hit) = instance.eval(&window);
            assert_eq!(score, 6);
            assert_eq!(hit, expect_hit, "threshold {threshold}");
        }
    }

    #[test]
    fn oversized_threshold_never_hits() {
        let mut instance = instance_for("MF", 63);
        let window: Vec<Nucleotide> = "AUGUUU"
            .parse::<fabp_bio::seq::RnaSeq>()
            .unwrap()
            .into_inner();
        let (_, hit) = instance.eval(&window);
        assert!(!hit);
    }

    #[test]
    fn instance_emits_verilog() {
        let instance = instance_for("MFS", 5);
        let v = crate::verilog::emit_verilog(instance.netlist(), "fabp_instance");
        assert!(v.contains("module fabp_instance"));
        assert!(v.contains("output hit;"));
        assert_eq!(v.matches("LUT6 #(").count(), instance.resources().luts);
    }

    #[test]
    fn long_query_uses_multiple_pop36_blocks() {
        let mut rng = StdRng::seed_from_u64(0xA12);
        let protein = random_protein(30, &mut rng); // 90 elements -> 3 Pop36
        let query = EncodedQuery::from_protein(&protein);
        let mut instance = AlignmentInstance::build(&query, 60);
        let r = instance.resources();
        let pop = crate::popcount::popcounter_cost(90, crate::popcount::PopStyle::HandCrafted).luts;
        assert_eq!(r.luts, 90 * 2 + pop, "three Pop36 blocks expected");
        // Still bit-exact.
        let reference = random_rna(120, &mut rng);
        let golden = query.score_window(reference.as_slice()) as u32;
        let (score, _) = instance.eval(reference.as_slice());
        assert_eq!(score, golden);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_query_panics() {
        let query = EncodedQuery::from_exact_rna(&fabp_bio::seq::RnaSeq::new());
        let _ = AlignmentInstance::build(&query, 0);
    }
}
