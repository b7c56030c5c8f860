//! Fast-forward ⇄ per-beat equivalence matrix.
//!
//! The event-driven fast path ([`fabp_fpga::engine::EngineSession::push_beats_fast`],
//! used by [`fabp_fpga::engine::FabpEngine::run_beats`]) must produce a
//! [`fabp_fpga::engine::CycleReport`] that is **field-for-field identical**
//! to the exact per-beat model ([`fabp_fpga::engine::FabpEngine::run_beats_exact`])
//! — same `cycles`, `stall_cycles`, `wb_stall_cycles`, `busy_cycles`,
//! `beats`, `bytes_read`, `instances_evaluated` — and the same hit list,
//! across devices, channel counts, AXI timings, segmentation depths,
//! thresholds, reference shapes, injected stream stalls and injected
//! configuration faults. The fast path scores beats with the fused
//! bit-parallel kernel in chunks, so the matrix also covers irregular
//! streams: partial beats mid-stream, runs split across calls, a
//! checkpoint replay, and a query the kernel rejects.
//!
//! A fault-free read of a range of resident words
//! ([`fabp_fpga::engine::FabpEngine::read`]) builds no beats: the kernel
//! scans the range in place and the accounting pass replays the range's
//! beats from their valid counts. It must equal the exact model over
//! that range's beats ([`fabp_encoding::packing::axi_beats_in`]), and so
//! must the accounting pass over each lane of one joined multi-lane scan.

use fabp_bio::alphabet::Nucleotide;
use fabp_bio::backtranslate::{BackTranslatedQuery, DependentFn, PatternElement};
use fabp_bio::generate::{random_protein, random_rna};
use fabp_bio::seq::PackedSeq;
use fabp_encoding::encoder::EncodedQuery;
use fabp_encoding::packing::{axi_beats, axi_beats_in, AxiBeat};
use fabp_fpga::axi::AxiConfig;
use fabp_fpga::bitparallel::BitParallelEngine;
use fabp_fpga::comparator::ComparatorCell;
use fabp_fpga::device::FpgaDevice;
use fabp_fpga::engine::{CycleReport, EngineConfig, EngineSession, FabpEngine};
use fabp_fpga::primitives::Lut6;
use fabp_telemetry::Registry;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Asserts every cycle-accounting field of two reports is identical.
fn assert_reports_identical(fast: &CycleReport, exact: &CycleReport, label: &str) {
    assert_eq!(fast.cycles, exact.cycles, "{label}: cycles");
    assert_eq!(fast.beats, exact.beats, "{label}: beats");
    assert_eq!(fast.bytes_read, exact.bytes_read, "{label}: bytes_read");
    assert_eq!(
        fast.stall_cycles, exact.stall_cycles,
        "{label}: stall_cycles"
    );
    assert_eq!(
        fast.wb_stall_cycles, exact.wb_stall_cycles,
        "{label}: wb_stall_cycles"
    );
    assert_eq!(fast.busy_cycles, exact.busy_cycles, "{label}: busy_cycles");
    assert_eq!(
        fast.instances_evaluated, exact.instances_evaluated,
        "{label}: instances_evaluated"
    );
    assert_eq!(
        fast.kernel_seconds, exact.kernel_seconds,
        "{label}: kernel_seconds"
    );
}

#[test]
fn matrix_devices_axi_thresholds_lengths() {
    let mut rng = StdRng::seed_from_u64(0xFA57);
    let devices: [(&str, FpgaDevice); 2] = [
        ("kintex7/1ch", FpgaDevice::kintex7()),
        ("virtex7/2ch", FpgaDevice::virtex7()),
    ];
    let axis: [(&str, AxiConfig); 3] = [
        ("default", AxiConfig::default()),
        ("ideal", AxiConfig::ideal()),
        (
            "tight",
            AxiConfig {
                read_latency: 3,
                beats_per_burst: 2,
                inter_burst_gap: 5,
            },
        ),
    ];
    // Short query → 1 segment; long query → several segments (compute
    // bound), exercising both sides of the burst fast-forward condition.
    for protein_len in [8usize, 90] {
        let protein = random_protein(protein_len, &mut rng);
        let query = EncodedQuery::from_protein(&protein);
        let qlen = query.len() as u32;
        for (dev_name, device) in &devices {
            for (axi_name, axi) in &axis {
                // Threshold 0 floods the WB port (every instance hits);
                // qlen is hit-sparse; a mid threshold mixes both.
                for threshold in [0u32, qlen / 2, qlen] {
                    let config = EngineConfig {
                        device: device.clone(),
                        axi: *axi,
                        channels: device.mem_channels,
                        threshold,
                        ..EngineConfig::kintex7(threshold)
                    };
                    let engine = FabpEngine::new(query.clone(), config).unwrap();
                    for ref_len in [0usize, protein_len, 4096, 10_000] {
                        let reference = random_rna(ref_len, &mut rng);
                        let packed = PackedSeq::from_rna(&reference);
                        let beats = axi_beats(&packed);
                        let fast = engine.run_beats(&beats, &Registry::new());
                        let exact = engine.run_beats_exact(&beats, &Registry::new());
                        let label =
                            format!("{dev_name}/{axi_name}/q{protein_len}/t{threshold}/r{ref_len}");
                        assert_eq!(fast.hits, exact.hits, "{label}: hits");
                        assert_reports_identical(&fast.stats, &exact.stats, &label);
                    }
                }
            }
        }
    }
}

#[test]
fn injected_stream_stalls_keep_reports_identical() {
    // Random beats are delayed (refresh storm / wedged DMA model) in both
    // sessions identically; the fast path must degrade to the exact model
    // around each event with no accounting drift.
    let mut rng = StdRng::seed_from_u64(0xD1A7);
    let protein = random_protein(20, &mut rng);
    let query = EncodedQuery::from_protein(&protein);
    let reference = random_rna(6_000, &mut rng);
    let packed = PackedSeq::from_rna(&reference);
    let beats = axi_beats(&packed);
    let engine = FabpEngine::new(query, EngineConfig::kintex7(30)).unwrap();

    // Delay schedule: ~1 beat in 5 gets a random extra latency.
    let delays: Vec<u64> = beats
        .iter()
        .map(|_| {
            if rng.gen_range(0..5) == 0 {
                rng.gen_range(1..100)
            } else {
                0
            }
        })
        .collect();

    // Exact session: per-beat throughout.
    let mut exact = engine.session();
    for (beat, &d) in beats.iter().zip(&delays) {
        exact.push_beat_delayed(beat, d);
    }
    let exact = exact.finish_with_registry(&Registry::new());

    // Fast session: stall-free runs go through push_beats_fast; delayed
    // beats take the exact injection surface.
    let mut fast = engine.session();
    let mut run_start = 0usize;
    for (i, &d) in delays.iter().enumerate() {
        if d > 0 {
            fast.push_beats_fast(&beats[run_start..i]);
            fast.push_beat_delayed(&beats[i], d);
            run_start = i + 1;
        }
    }
    fast.push_beats_fast(&beats[run_start..]);
    let fast = fast.finish_with_registry(&Registry::new());

    assert_eq!(fast.hits, exact.hits);
    assert_reports_identical(&fast.stats, &exact.stats, "delayed-stream");
}

#[test]
fn configuration_fault_forces_slow_path_and_stays_exact() {
    // A configuration upset makes the live cell diverge from the golden
    // netlist. The fused fast datapath models the *golden* tables, so the
    // fast-forward entry point must detect the upset and take the exact
    // per-beat path — reproducing the corrupted netlist's (wrong) hits
    // bit-for-bit, not the golden ones.
    let mut rng = StdRng::seed_from_u64(0x5E0);
    let protein = random_protein(12, &mut rng);
    let query = EncodedQuery::from_protein(&protein);
    let reference = random_rna(3_000, &mut rng);
    let packed = PackedSeq::from_rna(&reference);
    let beats = axi_beats(&packed);
    let engine = FabpEngine::new(query, EngineConfig::kintex7(0)).unwrap();

    let golden = ComparatorCell::new();
    // Invert the compare LUT wholesale: every match decision flips.
    let corrupted = ComparatorCell::from_luts(golden.mux(), Lut6::from_init(!golden.cmp().init()));

    let mut fast = engine.session();
    fast.set_cell(corrupted);
    fast.push_beats_fast(&beats);
    let fast = fast.finish_with_registry(&Registry::new());

    let mut exact = engine.session();
    exact.set_cell(corrupted);
    for beat in &beats {
        exact.push_beat(beat);
    }
    let exact = exact.finish_with_registry(&Registry::new());

    assert_eq!(fast.hits, exact.hits);
    assert_reports_identical(&fast.stats, &exact.stats, "seu-corrupted");

    // Sanity: the corruption genuinely changes the datapath — a pristine
    // run must disagree, otherwise this test proves nothing.
    let pristine = engine.run_beats(&beats, &Registry::new());
    assert_ne!(
        pristine.hits, fast.hits,
        "inverted compare LUT should alter scoring"
    );
}

#[test]
fn single_beat_runs_and_wb_flood_agree() {
    // Degenerate shapes: exactly one beat; and threshold 0 on a dense
    // reference so *every* beat carries WB back-pressure (the fast path
    // never accumulates a burst).
    let mut rng = StdRng::seed_from_u64(0xBEA7);
    let protein = random_protein(5, &mut rng);
    let query = EncodedQuery::from_protein(&protein);
    let mut config = EngineConfig::kintex7(0);
    config.wb_rate_per_cycle = 1; // worst-case WB drain
    let engine = FabpEngine::new(query, config).unwrap();
    for ref_len in [256usize, 257, 2_048] {
        let reference = random_rna(ref_len, &mut rng);
        let packed = PackedSeq::from_rna(&reference);
        let beats = axi_beats(&packed);
        let fast = engine.run_beats(&beats, &Registry::new());
        let exact = engine.run_beats_exact(&beats, &Registry::new());
        assert_eq!(fast.hits, exact.hits, "r{ref_len}: hits");
        assert_reports_identical(&fast.stats, &exact.stats, &format!("wb-flood/r{ref_len}"));
        assert!(
            fast.stats.wb_stall_cycles > 0,
            "r{ref_len}: flood must exercise WB back-pressure"
        );
    }
}

/// Asserts two open sessions agree on everything observable mid-run.
fn assert_sessions_agree(fast: &EngineSession<'_>, exact: &EngineSession<'_>, label: &str) {
    assert_eq!(fast.hits(), exact.hits(), "{label}: hits");
    assert_eq!(fast.consumed(), exact.consumed(), "{label}: consumed");
    assert_eq!(fast.beat_index(), exact.beat_index(), "{label}: beat_index");
}

/// Drives `engine` over `beats` twice: through `push_beats_fast` in one
/// call per run between the sorted `cuts`, and per beat through
/// `push_beat`, checking the sessions after every call. With
/// `checkpoint`, both sessions checkpoint after their first call and,
/// at the end, restore and replay every beat after it. Asserts the
/// finished runs are identical: hits and every `CycleReport` field.
fn assert_split_run_matches_exact(
    engine: &FabpEngine,
    beats: &[AxiBeat],
    cuts: &[usize],
    checkpoint: bool,
    label: &str,
) {
    let mut fast = engine.session();
    let mut exact = engine.session();
    let mut saved = None;
    let mut start = 0;
    for &end in cuts.iter().chain(std::iter::once(&beats.len())) {
        fast.push_beats_fast(&beats[start..end]);
        for beat in &beats[start..end] {
            exact.push_beat(beat);
        }
        assert_sessions_agree(
            &fast,
            &exact,
            &format!("{label}: call ending at beat {end}"),
        );
        if checkpoint && saved.is_none() {
            saved = Some((fast.checkpoint(), exact.checkpoint(), end));
        }
        start = end;
    }
    if let Some((fast_ckpt, exact_ckpt, from)) = saved {
        fast.restore(&fast_ckpt);
        exact.restore(&exact_ckpt);
        fast.push_beats_fast(&beats[from..]);
        for beat in &beats[from..] {
            exact.push_beat(beat);
        }
        assert_sessions_agree(&fast, &exact, &format!("{label}: replay from beat {from}"));
    }
    let fast = fast.finish_with_registry(&Registry::new());
    let exact = exact.finish_with_registry(&Registry::new());
    assert_eq!(fast.hits, exact.hits, "{label}: hits");
    assert_reports_identical(&fast.stats, &exact.stats, label);
    assert_eq!(fast.stats, exact.stats, "{label}: CycleReport");
}

#[test]
fn partial_beats_split_calls_and_checkpoint_replay_agree() {
    // Hand-built beats: partial beats (1, 17 and 200 valid bases) open the
    // stream and recur mid-stream, some shorter than the query, so the
    // fused scan's carry crosses beats that complete no instance. Calls
    // longer than 64 beats also cross a fused-scan chunk boundary.
    let mut rng = StdRng::seed_from_u64(0x9A27);
    let mut valid = vec![
        17usize, 1, 256, 200, 256, 256, 1, 256, 17, 256, 200, 1, 17, 200,
    ];
    valid.extend((0..70).map(|i| [256, 256, 256, 200, 1, 256, 17][i % 7]));
    let beats: Vec<AxiBeat> = valid
        .iter()
        .map(|&valid| AxiBeat {
            words: std::array::from_fn(|_| rng.gen::<u64>()),
            valid,
        })
        .collect();
    let query = EncodedQuery::from_protein(&random_protein(12, &mut rng));
    let qlen = query.len() as u32;
    for threshold in [0u32, qlen / 2, qlen * 3 / 4] {
        let config = EngineConfig {
            channels: 2,
            device: FpgaDevice::virtex7(),
            ..EngineConfig::kintex7(threshold)
        };
        let engine = FabpEngine::new(query.clone(), config).unwrap();
        for round in 0..4 {
            let mut cuts: Vec<usize> = (0..3).map(|_| rng.gen_range(0..=beats.len())).collect();
            cuts.sort_unstable();
            assert_split_run_matches_exact(
                &engine,
                &beats,
                &cuts,
                true,
                &format!("t{threshold}/round{round}/cuts{cuts:?}"),
            );
        }
    }
}

#[test]
fn query_rejected_by_fused_kernel_takes_exact_path() {
    // A context-dependent element at index 0 has no fused table, so the
    // fast-forward entry point must run the exact per-beat datapath.
    let mut rng = StdRng::seed_from_u64(0x0E1E);
    let mut elements = vec![PatternElement::Dependent(DependentFn::Leu)];
    elements.extend_from_slice(
        BackTranslatedQuery::from_protein(&random_protein(10, &mut rng)).elements(),
    );
    elements.push(PatternElement::Exact(Nucleotide::G));
    let query = EncodedQuery::from_back_translated(&BackTranslatedQuery::from_elements(elements));
    assert_eq!(
        BitParallelEngine::new(&query).unwrap_err().element_index,
        0,
        "the fused kernel must reject this query"
    );
    let qlen = query.len() as u32;
    let reference = random_rna(5_000, &mut rng);
    let beats = axi_beats(&PackedSeq::from_rna(&reference));
    let packed = PackedSeq::from_rna(&reference);
    for threshold in [0u32, qlen / 2, qlen] {
        let engine = FabpEngine::new(query.clone(), EngineConfig::kintex7(threshold)).unwrap();
        assert!(engine.kernel().is_none());
        let fast = engine.run_beats(&beats, &Registry::new());
        let exact = engine.run_beats_exact(&beats, &Registry::new());
        let label = format!("rejected/t{threshold}");
        assert_eq!(fast.hits, exact.hits, "{label}: hits");
        assert_reports_identical(&fast.stats, &exact.stats, &label);
        assert_eq!(fast.stats, exact.stats, "{label}: CycleReport");
        // Without a kernel, the in-place read takes the beat path.
        let read = engine.read(&packed, 300..4_321, &Registry::new());
        let exact = engine.run_beats_exact(&axi_beats_in(&packed, 300..4_321), &Registry::new());
        assert_eq!(read.hits, exact.hits, "{label}: read hits");
        assert_eq!(read.stats, exact.stats, "{label}: read CycleReport");
    }
}

/// Asserts `run` equals the exact per-beat model over `range`'s beats:
/// hits and every `CycleReport` field.
fn assert_matches_exact_read(
    engine: &FabpEngine,
    reference: &PackedSeq,
    range: std::ops::Range<usize>,
    run: &fabp_fpga::engine::EngineRun,
    label: &str,
) {
    let beats = axi_beats_in(reference, range);
    let exact = engine.run_beats_exact(&beats, &Registry::new());
    assert_eq!(run.hits, exact.hits, "{label}: hits");
    assert_reports_identical(&run.stats, &exact.stats, label);
    assert_eq!(run.stats, exact.stats, "{label}: CycleReport");
}

#[test]
fn joined_lane_scans_replay_each_lanes_own_read() {
    // One joined pass scores up to four engines' kernels over a range;
    // the accounting pass over each lane's hits must give that lane's
    // own read. The lanes differ in query length, threshold (0 floods
    // the WB port), channel count and AXI timing, and the ranges are
    // unaligned, end in partial beats, are shorter than some queries or
    // empty.
    let mut rng = StdRng::seed_from_u64(0x1A7E);
    let reference = PackedSeq::from_rna(&random_rna(9_000, &mut rng));
    let tight = AxiConfig {
        read_latency: 3,
        beats_per_burst: 2,
        inter_burst_gap: 5,
    };
    for round in 0..12 {
        let lanes = 1 + round % 4;
        let engines: Vec<FabpEngine> = (0..lanes)
            .map(|lane| {
                let query =
                    EncodedQuery::from_protein(&random_protein(rng.gen_range(1..=40), &mut rng));
                let threshold = match lane {
                    0 => 0,
                    _ => rng.gen_range(0..=query.len() as u32),
                };
                let two_channels = rng.gen::<bool>();
                let config = EngineConfig {
                    device: if two_channels {
                        FpgaDevice::virtex7()
                    } else {
                        FpgaDevice::kintex7()
                    },
                    channels: if two_channels { 2 } else { 1 },
                    axi: if rng.gen::<bool>() {
                        tight
                    } else {
                        AxiConfig::default()
                    },
                    wb_rate_per_cycle: rng.gen_range(1..=4),
                    ..EngineConfig::kintex7(threshold)
                };
                FabpEngine::new(query, config).unwrap()
            })
            .collect();
        let kernels: Vec<(&BitParallelEngine, u32)> =
            engines.iter().map(|e| e.kernel().unwrap()).collect();
        let joined = BitParallelEngine::join(&kernels.iter().map(|k| k.0).collect::<Vec<_>>());
        let thresholds: Vec<u32> = kernels.iter().map(|k| k.1).collect();
        let start = rng.gen_range(0..=reference.len());
        let len = match round % 3 {
            0 => rng.gen_range(0..=60),
            _ => rng.gen_range(0..=reference.len() - start),
        };
        let range = start..start + len;
        let per_lane = joined.search_lanes(&reference, range.clone(), &thresholds);
        for (lane, (engine, hits)) in engines.iter().zip(&per_lane).enumerate() {
            let label = format!("round{round}/lane{lane}/{range:?}");
            let replayed = engine.run_scored(len, hits, &Registry::new());
            let own = engine.read(&reference, range.clone(), &Registry::new());
            assert_eq!(replayed.hits, own.hits, "{label}: hits");
            assert_eq!(replayed.stats, own.stats, "{label}: CycleReport");
            assert_matches_exact_read(engine, &reference, range.clone(), &replayed, &label);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fast-forward runs split at arbitrary beats equal the per-beat
    /// model across query lengths, every threshold, reference lengths
    /// from empty to 20 beats, AXI timings, channel counts and WB rates.
    #[test]
    fn split_fast_forward_runs_match_exact(
        protein_len in 1usize..=120,
        threshold_pick in 0u32..=360,
        ref_len in 0usize..=5_000,
        read_latency in 0u64..40,
        beats_per_burst in 1u64..=24,
        inter_burst_gap in 0u64..6,
        two_channels in any::<bool>(),
        wb_rate in 1usize..=4,
        cut_picks in prop::collection::vec(0usize..=20, 0..5),
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let query = EncodedQuery::from_protein(&random_protein(protein_len, &mut rng));
        let threshold = threshold_pick % (query.len() as u32 + 1);
        let (device, channels) = if two_channels {
            (FpgaDevice::virtex7(), 2)
        } else {
            (FpgaDevice::kintex7(), 1)
        };
        let config = EngineConfig {
            device,
            channels,
            axi: AxiConfig { read_latency, beats_per_burst, inter_burst_gap },
            wb_rate_per_cycle: wb_rate,
            ..EngineConfig::kintex7(threshold)
        };
        let engine = FabpEngine::new(query, config).unwrap();
        let beats = axi_beats(&PackedSeq::from_rna(&random_rna(ref_len, &mut rng)));
        let mut cuts: Vec<usize> = cut_picks.iter().map(|&c| c.min(beats.len())).collect();
        cuts.sort_unstable();
        assert_split_run_matches_exact(
            &engine,
            &beats,
            &cuts,
            false,
            &format!("q{protein_len}/t{threshold}/r{ref_len}/cuts{cuts:?}"),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The in-place read of `reference[range]` equals the per-beat model
    /// over the range's beats across query lengths, every threshold
    /// (0 floods the WB port), references, unaligned ranges ending in
    /// partial beats, empty ranges and ranges shorter than the query,
    /// AXI timings, channel counts and WB rates.
    #[test]
    fn in_place_reads_match_exact(
        protein_len in 1usize..=60,
        threshold_pick in 0u32..=200,
        ref_len in 0usize..=6_000,
        start_pick in 0usize..=6_000,
        short_range in any::<bool>(),
        len_pick in 0usize..=6_000,
        read_latency in 0u64..40,
        beats_per_burst in 1u64..=24,
        inter_burst_gap in 0u64..6,
        two_channels in any::<bool>(),
        wb_rate in 1usize..=4,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let query = EncodedQuery::from_protein(&random_protein(protein_len, &mut rng));
        let threshold = threshold_pick % (query.len() as u32 + 1);
        let (device, channels) = if two_channels {
            (FpgaDevice::virtex7(), 2)
        } else {
            (FpgaDevice::kintex7(), 1)
        };
        let config = EngineConfig {
            device,
            channels,
            axi: AxiConfig { read_latency, beats_per_burst, inter_burst_gap },
            wb_rate_per_cycle: wb_rate,
            ..EngineConfig::kintex7(threshold)
        };
        let engine = FabpEngine::new(query, config).unwrap();
        let reference = PackedSeq::from_rna(&random_rna(ref_len, &mut rng));
        let start = start_pick.min(ref_len);
        let len = if short_range { len_pick % (3 * protein_len + 2) } else { len_pick };
        let range = start..(start + len).min(ref_len);
        let read = engine.read(&reference, range.clone(), &Registry::new());
        let label = format!("q{protein_len}/t{threshold}/r{ref_len}/{range:?}");
        assert_matches_exact_read(&engine, &reference, range, &read, &label);
    }
}
