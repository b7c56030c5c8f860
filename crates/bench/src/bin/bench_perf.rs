//! `bench_perf` — the hot-path performance regression harness.
//!
//! Times the workspace's five hot paths on pinned (seeded) workloads and
//! emits `BENCH_perf.json`:
//!
//! * `bitparallel` — the fused tiled bit-sliced scan vs the retained
//!   two-pass oracle (`BitParallelEngine::search_two_pass`), and the
//!   same scan at threshold `L_q` (`bitparallel_fill`), where nearly
//!   every block abandons after its first 16-element group, which
//!   attributes the scan between pass 1 (the column fill) and pass 2;
//! * `software` — the scalar oracle scan (`SoftwareEngine`), which no
//!   production path runs;
//! * `batch` — the multi-query batch through `search_all` on one worker
//!   (`batch_serial`), and the reference-sliced scheduler at 1/2/4
//!   workers (`batch_sliced*`) with its critical-path speedup over the
//!   one-worker run of the same fused engine, derived from per-worker
//!   CPU busy time: the fastest 1-worker wall time over the shortest
//!   N-worker critical path, each the minimum of its own runs;
//! * `multiquery` — four one-lane engines joined into one 4-lane scan
//!   (`fused_multiquery4`) vs four independent fused scans, and a
//!   serving batch's 32 16-aa queries joined into one pass
//!   (`fused_batch32`) vs the same queries in eight 4-lane joins;
//! * `streaming` — chunked feed through the reusable carry buffer,
//!   packing each chunk inside the feed;
//! * `engine` — the cycle-accurate simulator's event-driven fast-forward
//!   path (the fused bit-parallel kernel under the cycle accounting) vs
//!   the exact per-beat model.
//!
//! Before any timing, the harness cross-checks that the fused scan, the
//! two-pass oracle and the scalar engine produce **bit-identical hit
//! sets** on the measured workload — a perf number for a wrong answer is
//! worse than no number. The fused and batch entries scan a reference
//! packed before timing starts, as every production path holds it; the
//! oracles read the unpacked bases.
//!
//! ```text
//! cargo run --release -p fabp-bench --bin bench_perf -- \
//!     [--quick] [--out BENCH_perf.json] [--best-of N] \
//!     [--min-speedup ID:FLOOR]... \
//!     [--baseline BENCH_perf.json --check [--tolerance 0.10]]
//! ```
//!
//! With `--baseline` + `--check`, every timed entry of the current run is
//! compared against the same id in the baseline file: times may not
//! regress by more than `--tolerance` (default 10 %), and derived
//! speedups may not drop by more than the same fraction.
//! `--min-speedup id:value` (repeatable) enforces an *absolute* floor
//! on a speedup entry — it fails even if the committed baseline itself
//! has regressed — and *removes* that entry from the relative `--check`
//! (the floored sliced critical-path ratios swing far beyond ±10 %
//! run-to-run from worker scheduling noise, so a relative gate on them
//! is pure flake; the floor is the honest gate). CI runs `--quick
//! --check` against the committed `BENCH_perf.json` on every push plus
//! floors on the sliced-batch and joined-lane speedups (the
//! `perf-smoke` job).

use fabp_bench::{time_best_of, time_once, BenchWorkload};
use fabp_bio::seq::PackedSeq;
use fabp_core::aligner::{FabpAligner, Threshold};
use fabp_core::batch::{search_all, search_prebuilt};
use fabp_core::bitparallel::BitParallelEngine;
use fabp_core::slice_plan::SliceOptions;
use fabp_core::software::SoftwareEngine;
use fabp_core::streaming::StreamingAligner;
use fabp_encoding::encoder::EncodedQuery;
use fabp_encoding::packing::axi_beats;
use fabp_fpga::engine::{EngineConfig, FabpEngine};
use fabp_telemetry::Registry;

/// One measured (or derived) benchmark result.
struct Entry {
    id: String,
    /// `"time"` (ns_per_op, lower is better) or `"speedup"` (ratio,
    /// higher is better).
    kind: &'static str,
    value: f64,
    note: String,
}

impl Entry {
    fn time(id: &str, seconds: f64, note: String) -> Entry {
        Entry {
            id: id.to_string(),
            kind: "time",
            value: seconds * 1e9,
            note,
        }
    }

    fn speedup(id: &str, baseline_s: f64, fast_s: f64, note: &str) -> Entry {
        Entry {
            id: id.to_string(),
            kind: "speedup",
            value: if fast_s > 0.0 {
                baseline_s / fast_s
            } else {
                0.0
            },
            note: note.to_string(),
        }
    }
}

/// Pinned workload shapes. `full` mirrors the acceptance criterion
/// (10 Mb reference, 34-aa ≈ 102-element query); `quick` is the CI smoke
/// variant of every benchmark, small enough for a debug-cached runner.
struct Shape {
    tag: &'static str,
    scan_bases: usize,
    engine_bases: usize,
    stream_chunk: usize,
    batch_queries: usize,
    batch_bases: usize,
    best_of: usize,
}

const QUICK: Shape = Shape {
    tag: "quick",
    scan_bases: 1_000_000,
    engine_bases: 131_072,
    stream_chunk: 65_536,
    batch_queries: 8,
    batch_bases: 100_000,
    best_of: 3,
};

const FULL: Shape = Shape {
    tag: "full",
    scan_bases: 10_000_000,
    engine_bases: 1_048_576,
    stream_chunk: 65_536,
    batch_queries: 16,
    batch_bases: 300_000,
    best_of: 3,
};

const QUERY_AA: usize = 34; // ~102 encoded elements
const SEED: u64 = 0xFAB9_0004;

fn run_shape(shape: &Shape, best_of_override: Option<usize>) -> Vec<Entry> {
    let best_of = best_of_override.unwrap_or(shape.best_of);
    let tag = shape.tag;
    let mut entries = Vec::new();

    // ---- scan benchmarks: fused bitparallel vs two-pass vs scalar ----
    let w = BenchWorkload::generate(QUERY_AA, shape.scan_bases, SEED);
    let query = EncodedQuery::from_protein(&w.query);
    let threshold = Threshold::Fraction(0.8).resolve(query.len());
    let registry = Registry::new();
    let bp = BitParallelEngine::with_registry(&query, &registry)
        .expect("pinned query is bit-parallel capable");
    let sw = SoftwareEngine::with_registry(&query, &registry);
    let reference = w.reference.as_slice();
    let packed_ref = PackedSeq::from_rna(&w.reference);
    let all = 0..packed_ref.len();

    // Correctness gate: all three scan paths must agree bit-for-bit on
    // the measured workload before any of them is timed.
    let fused_hits = bp.search(&packed_ref, all.clone(), threshold);
    assert_eq!(
        fused_hits,
        bp.search_two_pass(reference, threshold),
        "{tag}: fused scan diverged from the two-pass oracle"
    );
    assert_eq!(
        fused_hits,
        sw.search(reference, threshold),
        "{tag}: fused scan diverged from the scalar engine"
    );
    assert!(
        fused_hits.iter().any(|h| h.position == w.planted_at),
        "{tag}: planted hit missing"
    );

    // Pass-1 attribution: at threshold L_q nearly every block abandons
    // after its first 16-element group, so this scan is the column fill
    // plus one carry-save group per block.
    let fill_threshold = query.len() as u32;
    assert_eq!(
        bp.search(&packed_ref, all.clone(), fill_threshold),
        bp.search_two_pass(reference, fill_threshold),
        "{tag}: fill-bound scan diverged from the two-pass oracle"
    );

    let (_, t_two_pass) = time_best_of(best_of, || bp.search_two_pass(reference, threshold));
    let (_, t_fused) = time_best_of(best_of, || bp.search(&packed_ref, all.clone(), threshold));
    let (_, t_fill) = time_best_of(best_of, || {
        bp.search(&packed_ref, all.clone(), fill_threshold)
    });
    let (_, t_scalar) = time_best_of(best_of, || sw.search(reference, threshold));
    let per_base = |s: f64| format!("{:.3} ns/base", s * 1e9 / shape.scan_bases as f64);
    entries.push(Entry::time(
        &format!("bitparallel_two_pass_{tag}"),
        t_two_pass,
        format!("{} bases, {}", shape.scan_bases, per_base(t_two_pass)),
    ));
    entries.push(Entry::time(
        &format!("bitparallel_fused_{tag}"),
        t_fused,
        format!("{} bases, {}", shape.scan_bases, per_base(t_fused)),
    ));
    entries.push(Entry::time(
        &format!("bitparallel_fill_{tag}"),
        t_fill,
        format!(
            "{} bases at threshold L_q: the fill plus one group per block, {}",
            shape.scan_bases,
            per_base(t_fill)
        ),
    ));
    entries.push(Entry::time(
        &format!("software_scan_{tag}"),
        t_scalar,
        format!("{} bases, {}", shape.scan_bases, per_base(t_scalar)),
    ));
    entries.push(Entry::speedup(
        &format!("fused_vs_two_pass_{tag}"),
        t_two_pass,
        t_fused,
        "fused tiled scan over the retained two-pass baseline",
    ));

    // ---- streaming: chunked feed through the reusable carry buffer ----
    let (stream_hits, t_stream) = time_best_of(best_of, || {
        let mut scanner = StreamingAligner::new(&query, threshold);
        let mut hits = Vec::new();
        for chunk in reference.chunks(shape.stream_chunk) {
            hits.extend(scanner.feed(chunk));
        }
        hits.extend(scanner.finish());
        hits
    });
    assert_eq!(
        stream_hits.len(),
        fused_hits.len(),
        "{tag}: streaming hit count diverged"
    );
    entries.push(Entry::time(
        &format!("streaming_feed_{tag}"),
        t_stream,
        format!(
            "{} bases in {}-base chunks",
            shape.scan_bases, shape.stream_chunk
        ),
    ));

    // ---- batch: search_all on one worker, aligner build included ----
    let bw = BenchWorkload::generate(20, shape.batch_bases, SEED ^ 1);
    let batch_queries: Vec<_> = (0..shape.batch_queries)
        .map(|i| BenchWorkload::generate(20, 64, SEED ^ (2 + i as u64)).query)
        .collect();
    let batch_ref = PackedSeq::from_rna(&bw.reference);
    let (_, t_serial) = time_best_of(best_of, || {
        search_all(&batch_queries, &batch_ref, Threshold::Fraction(0.8), 1).expect("batch runs")
    });
    entries.push(Entry::time(
        &format!("batch_serial_{tag}"),
        t_serial,
        format!(
            "{} queries × {} bases, 1 worker",
            shape.batch_queries, shape.batch_bases
        ),
    ));

    // ---- sliced batch: slices of one joined pass, stolen by workers ----
    let batch_aligners: Vec<FabpAligner> = batch_queries
        .iter()
        .map(|q| {
            FabpAligner::builder()
                .protein_query(q)
                .threshold(Threshold::Fraction(0.8))
                .build()
                .expect("pinned batch query builds")
        })
        .collect();
    // Correctness gate: the sliced 4-worker schedule must be bit-identical
    // to each query's own two-pass oracle before it is timed.
    let (sliced_check, _) =
        search_prebuilt(&batch_aligners, &batch_ref, 4, SliceOptions::default());
    for (a, outcome) in batch_aligners.iter().zip(&sliced_check) {
        let oracle = BitParallelEngine::new(a.query())
            .expect("pinned batch queries are bit-parallel eligible")
            .search_two_pass(bw.reference.as_slice(), a.threshold());
        assert_eq!(
            outcome.hits, oracle,
            "{tag}: sliced batch diverged from the two-pass oracle"
        );
    }
    // Per worker count: the fastest wall time and the shortest critical
    // path over the same `best_of` runs, so a speedup divides one
    // minimum by another, never a minimum by a single sample.
    let time_sliced = |workers: usize| {
        let (mut wall, mut critical_path, mut items) = (f64::INFINITY, f64::INFINITY, 0);
        for _ in 0..best_of {
            let ((_, stats), t) = time_once(|| {
                search_prebuilt(
                    &batch_aligners,
                    &batch_ref,
                    workers,
                    SliceOptions::default(),
                )
            });
            wall = wall.min(t);
            critical_path = critical_path.min(stats.critical_path_ns() as f64 / 1e9);
            items = stats.items;
        }
        (wall, critical_path, items)
    };
    let (t_sliced1, _, _) = time_sliced(1);
    let (t_sliced2, path2, _) = time_sliced(2);
    let (t_sliced4, path4, items4) = time_sliced(4);
    let shape_note = format!(
        "{} queries x {} bases",
        shape.batch_queries, shape.batch_bases
    );
    entries.push(Entry::time(
        &format!("batch_sliced1_{tag}"),
        t_sliced1,
        format!("{shape_note}, 1 worker running the same items inline"),
    ));
    entries.push(Entry::time(
        &format!("batch_sliced2_{tag}"),
        t_sliced2,
        format!("{shape_note}, 2 workers stealing slices of one joined pass"),
    ));
    entries.push(Entry::time(
        &format!("batch_sliced4_{tag}"),
        t_sliced4,
        format!("{shape_note}, 4 workers stealing slices of one joined pass"),
    ));
    entries.push(Entry::speedup(
        &format!("batch_sliced2_vs_serial_{tag}"),
        t_sliced1,
        path2,
        "fastest 1-worker wall over the shortest 2-worker critical path (busiest worker's \
         CPU-ns), same engine",
    ));
    entries.push(Entry::speedup(
        &format!("batch_sliced4_vs_serial_{tag}"),
        t_sliced1,
        path4,
        &format!(
            "fastest 1-worker wall over the shortest 4-worker critical path (busiest worker's \
             CPU-ns; wall-clock scaling additionally needs >= 4 hardware cores), same engine; \
             {items4} items"
        ),
    ));

    // ---- joined lanes: 4 queries, one decoded column stream ----
    let lane_proteins: Vec<_> = std::iter::once(w.query.clone())
        .chain((0..3).map(|i| BenchWorkload::generate(QUERY_AA, 256, SEED ^ (0x20 + i)).query))
        .collect();
    let lane_queries: Vec<EncodedQuery> = lane_proteins
        .iter()
        .map(EncodedQuery::from_protein)
        .collect();
    let lane_engines: Vec<BitParallelEngine> = lane_queries
        .iter()
        .map(|q| BitParallelEngine::new(q).expect("pinned lane queries are bit-parallel capable"))
        .collect();
    let lane_thresholds: Vec<u32> = lane_queries
        .iter()
        .map(|q| Threshold::Fraction(0.8).resolve(q.len()))
        .collect();
    let multi = BitParallelEngine::join(&lane_engines.iter().collect::<Vec<_>>());
    // Correctness gate: every lane equals its own two-pass oracle.
    let multi_hits = multi.search_lanes(&packed_ref, all.clone(), &lane_thresholds);
    for (lane, engine) in lane_engines.iter().enumerate() {
        assert_eq!(
            multi_hits[lane],
            engine.search_two_pass(reference, lane_thresholds[lane]),
            "{tag}: joined lane {lane} diverged from the two-pass oracle"
        );
    }
    let (_, t_lanes4) = time_best_of(best_of, || {
        multi.search_lanes(&packed_ref, all.clone(), &lane_thresholds)
    });
    let (_, t_four_scans) = time_best_of(best_of, || {
        lane_engines
            .iter()
            .zip(&lane_thresholds)
            .map(|(engine, &t)| engine.search(&packed_ref, all.clone(), t).len())
            .sum::<usize>()
    });
    entries.push(Entry::time(
        &format!("fused_multiquery4_{tag}"),
        t_lanes4,
        format!(
            "4 queries x {} bases in one pass; {:.3} ns/base/query",
            shape.scan_bases,
            t_lanes4 * 1e9 / (4.0 * shape.scan_bases as f64)
        ),
    ));
    entries.push(Entry::speedup(
        &format!("fused_multiquery4_vs_fused_{tag}"),
        t_four_scans,
        t_lanes4,
        "4 independent fused scans over one joined 4-lane pass",
    ));

    // ---- one join per batch: 32 serving-shaped lanes in one pass ----
    let batch_proteins: Vec<_> = (0..32)
        .map(|i| BenchWorkload::generate(16, 64, SEED ^ (0x40 + i)).query)
        .collect();
    let batch_engines: Vec<BitParallelEngine> = batch_proteins
        .iter()
        .map(|p| {
            BitParallelEngine::new(&EncodedQuery::from_protein(p))
                .expect("pinned batch queries are bit-parallel capable")
        })
        .collect();
    let batch_thresholds: Vec<u32> = batch_engines
        .iter()
        .map(|e| Threshold::Fraction(0.9).resolve(e.query_len()))
        .collect();
    let batch32 = BitParallelEngine::join(&batch_engines.iter().collect::<Vec<_>>());
    let lanes4: Vec<BitParallelEngine> = batch_engines
        .chunks(4)
        .map(|chunk| BitParallelEngine::join(&chunk.iter().collect::<Vec<_>>()))
        .collect();
    // Correctness gate: every lane of the one join, and of the eight
    // 4-lane joins, equals its own two-pass oracle.
    let batch32_hits = batch32.search_lanes(&packed_ref, all.clone(), &batch_thresholds);
    let lanes4_hits: Vec<Vec<_>> = lanes4
        .iter()
        .zip(batch_thresholds.chunks(4))
        .flat_map(|(joined, t)| joined.search_lanes(&packed_ref, all.clone(), t))
        .collect();
    for (lane, engine) in batch_engines.iter().enumerate() {
        let oracle = engine.search_two_pass(reference, batch_thresholds[lane]);
        assert_eq!(
            batch32_hits[lane], oracle,
            "{tag}: 32-lane join, lane {lane} diverged from the two-pass oracle"
        );
        assert_eq!(
            lanes4_hits[lane], oracle,
            "{tag}: 4-lane join, lane {lane} diverged from the two-pass oracle"
        );
    }
    let (_, t_batch32) = time_best_of(best_of, || {
        batch32.search_lanes(&packed_ref, all.clone(), &batch_thresholds)
    });
    let (_, t_lanes4x8) = time_best_of(best_of, || {
        lanes4
            .iter()
            .zip(batch_thresholds.chunks(4))
            .map(|(joined, t)| joined.search_lanes(&packed_ref, all.clone(), t).len())
            .sum::<usize>()
    });
    entries.push(Entry::time(
        &format!("fused_batch32_{tag}"),
        t_batch32,
        format!(
            "32 16-aa queries at 0.9 x {} bases in one pass; {:.3} ns/base/query",
            shape.scan_bases,
            t_batch32 * 1e9 / (32.0 * shape.scan_bases as f64)
        ),
    ));
    entries.push(Entry::speedup(
        &format!("fused_batch32_vs_lanes4_{tag}"),
        t_lanes4x8,
        t_batch32,
        "the same 32 queries in eight 4-lane joins over one 32-lane join",
    ));

    // ---- engine sim: event-driven fast-forward vs exact per-beat ----
    let ew = BenchWorkload::generate(QUERY_AA, shape.engine_bases, SEED ^ 7);
    let equery = EncodedQuery::from_protein(&ew.query);
    let ethreshold = Threshold::Fraction(0.8).resolve(equery.len());
    let engine = FabpEngine::new(equery, EngineConfig::kintex7(ethreshold))
        .expect("pinned workload fits the device");
    let packed = PackedSeq::from_rna(&ew.reference);
    let beats = axi_beats(&packed);
    let quiet = Registry::disabled();
    let fast_run = engine.run_beats(&beats, &quiet);
    let exact_run = engine.run_beats_exact(&beats, &quiet);
    assert_eq!(
        fast_run.hits, exact_run.hits,
        "{tag}: fast-forward hits diverged"
    );
    assert_eq!(
        fast_run.stats, exact_run.stats,
        "{tag}: fast-forward CycleReport diverged"
    );
    let (_, t_exact) = time_best_of(best_of, || engine.run_beats_exact(&beats, &quiet));
    let (_, t_fast) = time_best_of(best_of, || engine.run_beats(&beats, &quiet));
    let engine_per_base = |s: f64| format!("{:.3} ns/base", s * 1e9 / shape.engine_bases as f64);
    entries.push(Entry::time(
        &format!("engine_exact_{tag}"),
        t_exact,
        format!(
            "{} bases per-beat, {}",
            shape.engine_bases,
            engine_per_base(t_exact)
        ),
    ));
    entries.push(Entry::time(
        &format!("engine_fast_forward_{tag}"),
        t_fast,
        format!(
            "{} bases event-driven, fused bit-parallel datapath, {}",
            shape.engine_bases,
            engine_per_base(t_fast)
        ),
    ));
    entries.push(Entry::speedup(
        &format!("engine_fast_forward_vs_exact_{tag}"),
        t_exact,
        t_fast,
        "event-driven fast-forward over the exact per-beat model",
    ));

    entries
}

fn emit_json(mode: &str, entries: &[Entry]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"fabp-bench-perf/1\",\n");
    out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    out.push_str(&format!("  \"query_aa\": {QUERY_AA},\n"));
    out.push_str(&format!("  \"seed\": {SEED},\n"));
    out.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let field = match e.kind {
            "time" => format!("\"ns_per_op\": {:.1}", e.value),
            _ => format!("\"speedup\": {:.3}", e.value),
        };
        let comma = if i + 1 == entries.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"id\": \"{}\", \"kind\": \"{}\", {field}, \"note\": \"{}\"}}{comma}\n",
            e.id, e.kind, e.note
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Extracts a quoted string field from a single-entry JSON line.
fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')? + start;
    Some(&line[start..end])
}

/// Extracts a numeric field from a single-entry JSON line.
fn field_num(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..]
        .find(|c: char| c != '-' && c != '.' && !c.is_ascii_digit())
        .map(|e| e + start)
        .unwrap_or(line.len());
    line[start..end].parse().ok()
}

/// Parses the one-entry-per-line `entries` array: (id, kind, value).
fn parse_entries(text: &str) -> Vec<(String, String, f64)> {
    text.lines()
        .filter_map(|line| {
            let id = field_str(line, "id")?;
            let kind = field_str(line, "kind")?;
            let value = match kind {
                "time" => field_num(line, "ns_per_op")?,
                "speedup" => field_num(line, "speedup")?,
                _ => return None,
            };
            Some((id.to_string(), kind.to_string(), value))
        })
        .collect()
}

/// Compares current entries against a baseline file. Returns the number
/// of regressions (each is reported on stderr).
///
/// Entries named in `floor_gated` are skipped: they carry an absolute
/// `--min-speedup` floor instead. The floored entries are the sliced
/// critical-path ratios, which swing well beyond any sane relative
/// tolerance run-to-run (worker scheduling and CPU-clock sampling
/// noise on the small `--quick` shapes), so a relative gate on them is
/// pure flake — the absolute floor is the honest gate.
fn check_against_baseline(
    entries: &[Entry],
    baseline_text: &str,
    tolerance: f64,
    floor_gated: &[(String, f64)],
) -> usize {
    let baseline = parse_entries(baseline_text);
    let mut regressions = 0usize;
    let mut compared = 0usize;
    for e in entries {
        if floor_gated.iter().any(|(id, _)| *id == e.id) {
            eprintln!(
                "bench_perf: note: `{}` gated by --min-speedup floor, relative check skipped",
                e.id
            );
            continue;
        }
        let Some((_, _, base)) = baseline
            .iter()
            .find(|(id, kind, _)| *id == e.id && *kind == e.kind)
        else {
            eprintln!(
                "bench_perf: note: `{}` not in baseline (new benchmark)",
                e.id
            );
            continue;
        };
        compared += 1;
        match e.kind {
            "time" => {
                let limit = base * (1.0 + tolerance);
                if e.value > limit {
                    regressions += 1;
                    eprintln!(
                        "bench_perf: REGRESSION `{}`: {:.0} ns/op vs baseline {:.0} ns/op \
                         (+{:.1} %, limit +{:.0} %)",
                        e.id,
                        e.value,
                        base,
                        (e.value / base - 1.0) * 100.0,
                        tolerance * 100.0
                    );
                } else {
                    eprintln!(
                        "bench_perf: ok `{}`: {:.0} ns/op (baseline {:.0}, {:+.1} %)",
                        e.id,
                        e.value,
                        base,
                        (e.value / base - 1.0) * 100.0
                    );
                }
            }
            _ => {
                let limit = base * (1.0 - tolerance);
                if e.value < limit {
                    regressions += 1;
                    eprintln!(
                        "bench_perf: REGRESSION `{}`: speedup {:.2}× vs baseline {:.2}× \
                         (allowed ≥ {:.2}×)",
                        e.id, e.value, base, limit
                    );
                } else {
                    eprintln!(
                        "bench_perf: ok `{}`: speedup {:.2}× (baseline {:.2}×)",
                        e.id, e.value, base
                    );
                }
            }
        }
    }
    assert!(compared > 0, "baseline shares no entry ids with this run");
    regressions
}

fn main() {
    let mut out_path = "BENCH_perf.json".to_string();
    let mut quick = false;
    let mut check = false;
    let mut baseline_path: Option<String> = None;
    let mut tolerance = 0.10f64;
    let mut best_of: Option<usize> = None;
    let mut min_speedups: Vec<(String, f64)> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out_path = it.next().expect("missing value for --out"),
            "--quick" => quick = true,
            "--check" => check = true,
            "--baseline" => baseline_path = Some(it.next().expect("missing value for --baseline")),
            "--tolerance" => {
                tolerance = it
                    .next()
                    .expect("missing value for --tolerance")
                    .parse()
                    .expect("--tolerance takes a fraction, e.g. 0.10")
            }
            "--best-of" => {
                best_of = Some(
                    it.next()
                        .expect("missing value for --best-of")
                        .parse()
                        .expect("--best-of takes a positive integer"),
                )
            }
            "--min-speedup" => {
                let spec = it.next().expect("missing value for --min-speedup");
                let (id, floor) = spec
                    .split_once(':')
                    .expect("--min-speedup takes id:value, e.g. batch_sliced4_vs_serial_quick:2.5");
                min_speedups.push((
                    id.to_string(),
                    floor.parse().expect("--min-speedup floor is a number"),
                ));
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: bench_perf [--quick] [--out BENCH_perf.json] [--best-of N] \
                     [--min-speedup ID:FLOOR]... \
                     [--baseline FILE --check [--tolerance 0.10]]"
                );
                std::process::exit(2);
            }
            other => {
                eprintln!("unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }

    let mut entries = run_shape(&QUICK, best_of);
    let mode = if quick {
        "quick"
    } else {
        entries.extend(run_shape(&FULL, best_of));
        "full"
    };

    for e in &entries {
        match e.kind {
            "time" => eprintln!(
                "bench_perf: {:<34} {:>14.0} ns/op  ({})",
                e.id, e.value, e.note
            ),
            _ => eprintln!(
                "bench_perf: {:<34} {:>13.2}×     ({})",
                e.id, e.value, e.note
            ),
        }
    }

    let json = emit_json(mode, &entries);
    std::fs::write(&out_path, &json).expect("write benchmark snapshot");
    eprintln!("bench_perf: snapshot written to {out_path}");

    // Absolute speedup floors (`--min-speedup id:value`, repeatable) —
    // unlike `--check`, these hold even when the committed baseline
    // itself regresses.
    let mut floor_failures = 0usize;
    for (id, floor) in &min_speedups {
        match entries.iter().find(|e| e.id == *id) {
            Some(e) if e.value >= *floor => {
                eprintln!(
                    "bench_perf: floor ok `{id}`: {:.2}x >= {floor:.2}x",
                    e.value
                );
            }
            Some(e) => {
                floor_failures += 1;
                eprintln!(
                    "bench_perf: FLOOR VIOLATION `{id}`: {:.2}x < required {floor:.2}x",
                    e.value
                );
            }
            None => {
                floor_failures += 1;
                eprintln!("bench_perf: FLOOR VIOLATION `{id}`: no such entry in this run");
            }
        }
    }
    if floor_failures > 0 {
        eprintln!("bench_perf: {floor_failures} speedup floor(s) violated");
        std::process::exit(1);
    }

    if check {
        let path = baseline_path.expect("--check requires --baseline FILE");
        let baseline_text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let regressions =
            check_against_baseline(&entries, &baseline_text, tolerance, &min_speedups);
        if regressions > 0 {
            eprintln!(
                "bench_perf: {regressions} regression(s) beyond ±{:.0} % tolerance",
                tolerance * 100.0
            );
            std::process::exit(1);
        }
        eprintln!(
            "bench_perf: no regressions beyond ±{:.0} %",
            tolerance * 100.0
        );
    }
}
