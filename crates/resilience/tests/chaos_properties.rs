//! Property tests: randomized schedules (beyond the fixed seed matrix)
//! always recover bit-identically, and no spec string makes the fault
//! spec parser panic.
//!
//! The proptest shim is deterministic per test name; failures print the
//! generated seed/mix, which maps straight onto
//! `FaultSchedule::seeded(seed, beats, words, mix)`.

use fabp_bio::generate::{coding_rna_for_paper_patterns, random_protein, random_rna};
use fabp_bio::seq::{PackedSeq, RnaSeq};
use fabp_encoding::encoder::EncodedQuery;
use fabp_fpga::engine::{EngineConfig, FabpEngine};
use fabp_resilience::inject::{FaultKind, FaultMix};
use fabp_resilience::{FabpError, FaultSchedule, ResilienceLevel, ResilientRunner};
use fabp_telemetry::Registry;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn build_fixture(seed: u64) -> (FabpEngine, PackedSeq, Vec<fabp_fpga::engine::Hit>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let protein = random_protein(16, &mut rng);
    let coding = coding_rna_for_paper_patterns(&protein, &mut rng);
    let mut bases: Vec<_> = random_rna(2600, &mut rng).as_slice().to_vec();
    bases.splice(900..900 + coding.len(), coding.iter().copied());
    let reference = PackedSeq::from_rna(&RnaSeq::from(bases));
    let query = EncodedQuery::from_protein(&protein);
    let threshold = (query.len() as u32).saturating_sub(3);
    let engine = FabpEngine::new(query, EngineConfig::kintex7(threshold)).expect("plan fits");
    let baseline = engine.run(&reference).hits;
    (engine, reference, baseline)
}

/// The characters fault specs are made of.
const SPEC_CHARS: &[u8] = b"0123456789abcdefgiklmnopqrstuxyX@:, +-";

/// A valid spec drawn from `words`: a `seed:` spec, or one atom per word
/// with arguments up to the parser's limits.
fn valid_spec(words: &[u64]) -> String {
    if words[0].is_multiple_of(8) {
        return format!("seed:{:#x}", words[0]);
    }
    let atoms: Vec<String> = words
        .iter()
        .map(|&w| {
            let (beat, bit) = ((w >> 8) % 1_000, (w >> 20) % 64);
            match w % 5 {
                0 => format!("beatflip@{beat}:{}:{bit}", (w >> 30) % 8),
                1 => format!("queryflip@{}:{bit}", (w >> 30) % 64),
                2 => format!(
                    "config@{beat}:{}:{bit}",
                    ["mux", "cmp"][(w >> 3) as usize % 2]
                ),
                3 => format!("stall@{beat}:{}", (w >> 32) as u32),
                _ => format!("kill@{}:{}", (w >> 30) % 16, w >> 40),
            }
        })
        .collect();
    atoms.join(",")
}

/// Parses `spec`: a schedule that prints and parses back to itself, or a
/// typed `InvalidSpec` error. Anything else is described in the error.
fn parse_round_trips(spec: &str) -> Result<(), String> {
    match FaultSchedule::parse(spec) {
        Ok(schedule) => {
            let stall_cap = u64::from(u32::MAX);
            if schedule
                .events()
                .iter()
                .any(|e| matches!(e, FaultKind::StreamStall { cycles, .. } if *cycles > stall_cap))
            {
                return Err(format!(
                    "`{spec}`: a stall above {stall_cap} cycles was accepted"
                ));
            }
            let printed = schedule.to_string();
            match FaultSchedule::parse(&printed) {
                Ok(again) if again == schedule => Ok(()),
                again => Err(format!("`{spec}` printed as `{printed}` gave {again:?}")),
            }
        }
        Err(FabpError::InvalidSpec(_)) => Ok(()),
        Err(other) => Err(format!("`{spec}`: untyped failure {other:?}")),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes, strings of spec characters and valid specs with
    /// characters replaced, inserted or deleted: every input parses to a
    /// schedule whose `Display` parses back to it, or fails with
    /// `InvalidSpec` — never a panic.
    #[test]
    fn fault_spec_parser_never_panics(
        noise in prop::collection::vec(any::<u8>(), 0..64),
        letters in prop::collection::vec(any::<u64>(), 0..48),
        words in prop::collection::vec(any::<u64>(), 1..5),
        edits in prop::collection::vec(any::<u64>(), 0..4),
    ) {
        let pick = |w: u64| SPEC_CHARS[(w % SPEC_CHARS.len() as u64) as usize];
        let valid = valid_spec(&words);
        prop_assert_eq!(parse_round_trips(&valid), Ok(()));
        prop_assert!(FaultSchedule::parse(&valid).is_ok(), "`{}` must parse", valid);
        let mut mutated = valid.into_bytes();
        for edit in edits {
            let at = (edit >> 8) as usize % (mutated.len() + 1);
            match edit % 3 {
                0 if at < mutated.len() => mutated[at] = pick(edit >> 32),
                1 => mutated.insert(at, pick(edit >> 32)),
                _ if at < mutated.len() => {
                    mutated.remove(at);
                }
                _ => {}
            }
        }
        let letters: Vec<u8> = letters.into_iter().map(pick).collect();
        for input in [noise, letters, mutated] {
            prop_assert_eq!(parse_round_trips(&String::from_utf8_lossy(&input)), Ok(()));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For arbitrary seeds and fault mixes, recovery is bit-exact.
    #[test]
    fn any_seeded_detectable_schedule_recovers_bit_identically(
        seed in any::<u64>(),
        beat_flips in 0u32..4,
        config_upsets in 0u32..3,
        stalls in 0u32..3,
        query_flips in 0u32..2,
        scrub_interval in 2u64..12,
    ) {
        let (engine, reference, baseline) = build_fixture(seed ^ 0x5EED);
        let mix = FaultMix { beat_flips, query_flips, config_upsets, stalls };
        let schedule = FaultSchedule::seeded(seed, 11, 6, mix);
        let runner = ResilientRunner::new(&engine, ResilienceLevel::Recover, schedule.clone())
            .with_scrub(scrub_interval, 16)
            .with_watchdog(256);
        let out = runner
            .run(&reference, &Registry::disabled())
            .unwrap_or_else(|e| panic!("schedule `{schedule}` (seed {seed:#x}): {e}"));
        prop_assert_eq!(
            out.run.hits,
            baseline,
            "schedule `{}` diverged (seed {:#x})",
            schedule,
            seed
        );
        prop_assert_eq!(out.report.injected, schedule.events().len() as u64);
    }
}
