//! `fabp-search` — command-line protein-vs-nucleotide search.
//!
//! The downstream-user entry point: protein queries (FASTA) against a
//! DNA/RNA database (FASTA), reporting hit regions per query.
//!
//! ```text
//! fabp-search --query queries.faa --reference db.fna [options]
//!
//! Options:
//!   --threshold <0..1>   fraction of matching elements (default 0.9)
//!   --engine <software|cycle>   execution engine (default software: the
//!                        fused bit-parallel scan; cycle: the cycle-level
//!                        FPGA model with cycle/bandwidth statistics)
//!   --threads <n>        software engine workers for the whole run
//!                        (default 4): every query and record is one
//!                        batch under one worker pool
//!   --top <k>            print at most k regions per query (default 10)
//!   --stats              print telemetry counters after the run
//!   --metrics-out <path> write Prometheus text exposition to <path>
//!   --trace-out <path>   write the flight recorder's spans (one trace
//!                        per query; the modelled host stages and retry
//!                        spans on the cycle engine) as Chrome
//!                        trace-event JSON to <path>
//!   --quiet              suppress informational stderr output
//!   --disasm             print each query's instruction listing
//!   --resilience <off|detect|recover>   fault handling level (cycle engine)
//!   --inject-faults <spec>              seeded fault schedule, e.g.
//!                        `seed:0xBEEF` or `beatflip@3:1:7,stall@40:2000`
//! ```
//!
//! The software engine reads the reference FASTA straight into 2-bit
//! words, builds each query's aligner once and scans the records'
//! concatenation once for every query in one lane-packed batch; the
//! record rule ([`split_by_record`]) drops each hit whose window crosses
//! a record end and maps the rest to their records. Rows print query by
//! query, each query's records in file order. The cycle engine models
//! one device, so it searches each query against each record in turn.
//!
//! `--index` searches a persistent index's concatenated records, masked
//! by the same rule; its rows name the index file and give concatenated
//! coordinates. `--build-index` writes that index, cut into shards of
//! `--index-shard-bases` (default 4 194 304) that each repeat the next
//! `--index-overlap` bases (default 384, at most the shard size): framing
//! the loader cross-checks, which no search reads. The search flags are
//! usage errors there, and every mode ends in the same `--stats`,
//! `--metrics-out` and `--trace-out` tail.
//!
//! `--resilience` and `--inject-faults` (`--engine cycle` only) drive
//! the cycle-accurate engine through the `fabp-resilience` harness:
//! faults from the spec are injected on the modelled AXI/config/query
//! paths, and the detection/recovery machinery (CRC framing,
//! configuration scrubbing, stream watchdog, retry with backoff) runs at
//! the requested level. A per-run overhead line reports the throughput
//! cost of detection against the unprotected cycle count.

use fabp::bio::fasta::{read_packed, read_proteins};
use fabp::bio::seq::{PackedSeq, ProteinSeq};
use fabp::core::aligner::{Engine, FabpAligner, SearchOutcome, Threshold};
use fabp::core::batch::search_prebuilt;
use fabp::core::hits::split_by_record;
use fabp::core::host::HostConfig;
use fabp::core::index::{
    search_index, IndexBuildOptions, PrefilterMode, ReferenceIndex, SeedParams,
};
use fabp::core::slice_plan::SliceOptions;
use fabp::encoding::encoder::EncodedQuery;
use fabp::fpga::engine::{EngineConfig, FabpEngine};
use fabp::resilience::{FabpError, FaultSchedule, ResilienceLevel, ResilientRunner};
use fabp_telemetry::{
    chrome_trace_for_events, MetricValue, Registry, SpanKind, TraceContext, TraceEvent,
};
use std::fs::File;
use std::io::{BufWriter, ErrorKind, Write};
use std::process::ExitCode;

struct Args {
    query_path: String,
    reference_path: String,
    threshold: f64,
    /// `--engine cycle`: the cycle-level FPGA model, not the software
    /// engine.
    cycle: bool,
    threads: usize,
    top: usize,
    stats: bool,
    disasm: bool,
    quiet: bool,
    metrics_out: Option<String>,
    trace_out: Option<String>,
    resilience: ResilienceLevel,
    inject_faults: Option<String>,
    build_index: Option<String>,
    index_path: Option<String>,
    prefilter: Option<PrefilterMode>,
    index_overlap: Option<usize>,
    index_shard_bases: Option<usize>,
}

/// The header line of the hit TSV on stdout.
const TSV_HEADER: &str =
    "# query\treference\tregion_start\tregion_end\tbest_pos\tscore\tmax_score\thits";

/// Writes the `top` best-scoring hit regions of one query against one
/// reference as TSV rows — the one row format of every search mode.
fn write_rows(
    out: &mut impl Write,
    query_id: &str,
    reference: &str,
    outcome: &SearchOutcome,
    top: usize,
) -> std::io::Result<()> {
    let mut regions = outcome.regions();
    regions.sort_by_key(|r| std::cmp::Reverse(r.best.score));
    for region in regions.iter().take(top) {
        writeln!(
            out,
            "{query_id}\t{reference}\t{}\t{}\t{}\t{}\t{}\t{}",
            region.start,
            region.end,
            region.best.position,
            region.best.score,
            outcome.query_len,
            region.hit_count
        )?;
    }
    Ok(())
}

/// Seed of the measured spans' trace ids: one trace per query, per
/// batch search and per index build.
const TRACE_SEED: u64 = 0xFAB6_0E77;

fn usage() -> ! {
    eprintln!(
        "usage: fabp-search --query <queries.faa> --reference <db.fna> \
         [--threshold 0.9] [--engine software|cycle] [--threads 4] \
         [--top 10] [--stats] [--metrics-out m.prom] [--trace-out t.json] \
         [--quiet] [--disasm] \
         [--resilience off|detect|recover] [--inject-faults <spec>]\n\
         \n\
         persistent index:\n\
           fabp-search --reference <db.fna> --build-index <out.fabpidx> \
         [--index-overlap 384 (file framing, <= shard bases)] \
         [--index-shard-bases 4194304]\n\
           fabp-search --query <queries.faa> --index <db.fabpidx> \
         [--prefilter off|seeded] [--threshold 0.9] [--threads 4] [--top 10]"
    );
    std::process::exit(2);
}

/// Fetches a flag's value, naming the flag in the error when it is
/// missing.
fn value_for(flag: &str, it: &mut impl Iterator<Item = String>) -> String {
    it.next().unwrap_or_else(|| {
        eprintln!("missing value for {flag}");
        usage()
    })
}

/// Parses a flag's value, naming the flag and the bad value on failure.
fn parse_for<T: std::str::FromStr>(flag: &str, it: &mut impl Iterator<Item = String>) -> T {
    let raw = value_for(flag, it);
    raw.parse().unwrap_or_else(|_| {
        eprintln!("invalid value {raw:?} for {flag}");
        usage()
    })
}

/// Parses a fraction in `[0, 1]`, rejecting NaN, infinities and values
/// outside the range (which would otherwise clamp silently to 0 or 1).
fn parse_fraction(flag: &str, it: &mut impl Iterator<Item = String>) -> f64 {
    let raw = value_for(flag, it);
    match raw.parse::<f64>() {
        Ok(fraction) if (0.0..=1.0).contains(&fraction) => fraction,
        _ => {
            eprintln!("invalid value {raw:?} for {flag} (a fraction in [0, 1])");
            usage()
        }
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        query_path: String::new(),
        reference_path: String::new(),
        threshold: 0.9,
        cycle: false,
        threads: 4,
        top: 10,
        stats: false,
        disasm: false,
        quiet: false,
        metrics_out: None,
        trace_out: None,
        resilience: ResilienceLevel::Off,
        inject_faults: None,
        build_index: None,
        index_path: None,
        prefilter: None,
        index_overlap: None,
        index_shard_bases: None,
    };
    let mut given = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        given.push(arg.clone());
        match arg.as_str() {
            "--query" => args.query_path = value_for("--query", &mut it),
            "--reference" => args.reference_path = value_for("--reference", &mut it),
            "--build-index" => args.build_index = Some(value_for("--build-index", &mut it)),
            "--index" => args.index_path = Some(value_for("--index", &mut it)),
            "--prefilter" => args.prefilter = Some(parse_for("--prefilter", &mut it)),
            "--index-overlap" => args.index_overlap = Some(parse_for("--index-overlap", &mut it)),
            "--index-shard-bases" => {
                args.index_shard_bases = Some(parse_for("--index-shard-bases", &mut it))
            }
            "--threshold" => args.threshold = parse_fraction("--threshold", &mut it),
            "--engine" => {
                args.cycle = match value_for("--engine", &mut it).as_str() {
                    "software" => false,
                    "cycle" => true,
                    other => {
                        eprintln!("invalid value {other:?} for --engine (software or cycle)");
                        usage()
                    }
                }
            }
            "--threads" => args.threads = parse_for("--threads", &mut it),
            "--top" => args.top = parse_for("--top", &mut it),
            "--stats" => args.stats = true,
            "--disasm" => args.disasm = true,
            "--quiet" => args.quiet = true,
            "--metrics-out" => args.metrics_out = Some(value_for("--metrics-out", &mut it)),
            "--trace-out" => args.trace_out = Some(value_for("--trace-out", &mut it)),
            "--resilience" => args.resilience = parse_for("--resilience", &mut it),
            "--inject-faults" => args.inject_faults = Some(value_for("--inject-faults", &mut it)),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument {other:?}");
                usage();
            }
        }
    }
    if args.build_index.is_some() {
        // Build mode: only the reference is needed.
        if args.reference_path.is_empty() {
            usage();
        }
    } else if args.index_path.is_some() {
        // Index search mode: queries come from FASTA, the reference from
        // the persistent index.
        if args.query_path.is_empty() || !args.reference_path.is_empty() {
            usage();
        }
    } else if args.query_path.is_empty() || args.reference_path.is_empty() {
        usage();
    }
    // A flag of another mode would otherwise be ignored silently.
    let (build, index) = (args.build_index.is_some(), args.index_path.is_some());
    let (search, fasta) = ("a search, not --build-index", "--query with --reference");
    for (flag, allowed, needs) in [
        ("--prefilter", index, "--index"),
        ("--disasm", !build && !index, fasta),
        ("--index-overlap", build, "--build-index"),
        ("--index-shard-bases", build, "--build-index"),
        ("--query", !build, search),
        ("--engine", !build && !index, fasta),
        ("--threshold", !build, search),
        ("--top", !build, search),
        ("--threads", !build, search),
        ("--resilience", args.cycle, "--engine cycle"),
        ("--inject-faults", args.cycle, "--engine cycle"),
    ] {
        if !allowed && given.iter().any(|g| g == flag) {
            eprintln!("{flag} requires {needs}");
            usage();
        }
    }
    args
}

/// `--build-index`: pack the reference FASTA (records concatenated in
/// file order, with their ids and base ranges) into the persistent shard
/// format.
fn run_build_index(args: &Args, out: &str) -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
    let reference = read_packed(File::open(&args.reference_path)?)?;
    if reference.ids.is_empty() {
        return Err("reference file contains no records".into());
    }
    let start_us = Registry::global().now_us();
    let defaults = IndexBuildOptions::default();
    let index = ReferenceIndex::build_from_packed(
        reference,
        IndexBuildOptions {
            overlap: args.index_overlap.unwrap_or(defaults.overlap),
            target_shard_bases: args
                .index_shard_bases
                .unwrap_or(defaults.target_shard_bases),
        },
    )?;
    index.write_to(out)?;
    let build_ms = record_since(TraceContext::mint(TRACE_SEED, 0), "build_index", start_us) / 1e3;
    if !args.quiet {
        eprintln!(
            "# index: {} bases in {} record(s) and {} shard(s), overlap {}, \
             fingerprint {:016x}, built+written in {build_ms:.1} ms -> {out}",
            index.total_bases(),
            index.records().len(),
            index.shards().len(),
            index.overlap(),
            index.fingerprint(),
        );
    }
    Ok(())
}

/// `--index`: search the persistent index (exhaustive or seeded) and
/// print the same region TSV as the FASTA-reference path.
fn run_index_search(
    args: &Args,
    index_path: &str,
) -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
    let queries = read_proteins(File::open(&args.query_path)?)?;
    if queries.is_empty() {
        return Err("query file contains no records".into());
    }
    let prefilter = args.prefilter.unwrap_or_default();
    let started = std::time::Instant::now();
    let index = ReferenceIndex::load(index_path)?;
    let load_ms = started.elapsed().as_secs_f64() * 1e3;
    if !args.quiet {
        eprintln!(
            "# index: loaded {} bases ({} shard(s), fingerprint {:016x}) in {load_ms:.1} ms, \
             prefilter {}",
            index.total_bases(),
            index.shards().len(),
            index.fingerprint(),
            prefilter.label(),
        );
    }
    let proteins: Vec<_> = queries.iter().map(|(_, p)| p.clone()).collect();
    let start_us = Registry::global().now_us();
    let (all_hits, istats) = search_index(
        &index,
        &proteins,
        Threshold::Fraction(args.threshold),
        prefilter,
        SeedParams::default(),
        args.threads,
    )?;
    let search_ms = record_since(TraceContext::mint(TRACE_SEED, 0), "search", start_us) / 1e3;
    let mut out = BufWriter::new(std::io::stdout().lock());
    writeln!(out, "{TSV_HEADER}")?;
    for ((query_id, protein), hits) in queries.iter().zip(all_hits) {
        let query_len = 3 * protein.len();
        let outcome = SearchOutcome {
            hits,
            threshold: Threshold::Fraction(args.threshold).resolve(query_len),
            query_len,
            stats: None,
        };
        write_rows(&mut out, query_id, index_path, &outcome, args.top)?;
    }
    out.flush()?;
    if !args.quiet {
        eprintln!(
            "# index: search {search_ms:.1} ms, seed_hits={} candidate_windows={} \
             full_scan_queries={} scanned_fraction={:.4}",
            istats.seed_hits,
            istats.candidate_windows,
            istats.full_scan_queries,
            istats.scanned_fraction(),
        );
    }
    Ok(())
}

/// Records the flight event `name` under `ctx`, measured from `start_us`
/// to now on the global registry's clock; returns its duration in µs.
fn record_since(ctx: TraceContext, name: &'static str, start_us: f64) -> f64 {
    let telemetry = Registry::global();
    let dur_us = telemetry.now_us() - start_us;
    let event = TraceEvent::new(ctx, name, start_us, dur_us);
    telemetry.flight_recorder().record(event);
    dur_us
}

/// The output tail of every mode: the `--stats` report and the
/// `--metrics-out` and `--trace-out` files.
fn write_outputs(args: &Args) -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
    let telemetry = Registry::global();
    if args.stats {
        print_stats_report(telemetry);
    }
    if let Some(path) = &args.metrics_out {
        std::fs::write(path, telemetry.snapshot().to_prometheus())?;
        if !args.quiet {
            eprintln!("# metrics written to {path}");
        }
    }
    if let Some(path) = &args.trace_out {
        let flight = telemetry.flight_recorder();
        let events = flight.events();
        std::fs::write(path, chrome_trace_for_events(&events))?;
        if !args.quiet {
            eprintln!(
                "# trace written to {path} ({} events retained, {} dropped)",
                events.len(),
                flight.dropped()
            );
        }
    }
    Ok(())
}

/// Prints the telemetry-backed `--stats` report to stderr.
fn print_stats_report(registry: &Registry) {
    let snap = registry.snapshot();
    eprintln!("# telemetry:");
    for m in &snap.metrics {
        let labels = if m.labels.is_empty() {
            String::new()
        } else {
            let pairs: Vec<String> = m.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
            format!("{{{}}}", pairs.join(","))
        };
        match &m.value {
            MetricValue::Counter(v) => eprintln!("#   {}{} = {}", m.name, labels, v),
            MetricValue::Gauge(v) => eprintln!("#   {}{} = {}", m.name, labels, v),
            MetricValue::FloatCounter(v) => {
                eprintln!("#   {}{} = {:.6}", m.name, labels, v)
            }
            MetricValue::Histogram(h) => eprintln!(
                "#   {}{} = {} observations, sum {}",
                m.name, labels, h.count, h.sum
            ),
        }
    }
    let flight = registry.flight_recorder();
    eprintln!(
        "#   trace events retained = {}, dropped = {}",
        flight.events().len(),
        flight.dropped()
    );
}

fn run() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
    let args = parse_args();
    if let Some(out) = &args.build_index {
        run_build_index(&args, out)?;
    } else if let Some(index_path) = &args.index_path {
        run_index_search(&args, index_path)?;
    } else {
        run_reference_search(&args)?;
    }
    write_outputs(&args)
}

/// `--reference`: search the FASTA records, software batch or cycle
/// model, recording each query's measured spans in the flight recorder.
fn run_reference_search(args: &Args) -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
    let telemetry = Registry::global();
    let flight = telemetry.flight_recorder();
    // One trace id per resilient (query, reference) search; its spans
    // share a deterministic synthetic timeline so dumps replay
    // identically.
    let mut flight_ordinal = 0u64;
    let mut flight_start_us = 0.0f64;

    let queries = read_proteins(File::open(&args.query_path)?)?;
    if queries.is_empty() {
        return Err("query file contains no records".into());
    }

    // References may be DNA or RNA (T reads as U): the reader packs the
    // file's bases straight into 2-bit words, one sequence for all
    // records.
    let reference = read_packed(File::open(&args.reference_path)?)?;
    if reference.ids.is_empty() {
        return Err("reference file contains no records".into());
    }
    let engine = if args.cycle {
        Engine::CycleAccurate(Box::new(EngineConfig::kintex7(0)))
    } else {
        Engine::Software {
            threads: args.threads,
        }
    };

    // Fault injection / resilience only makes sense on the modelled
    // hardware path (parse_args allows them with --engine cycle only):
    // the software engines have no AXI stream, LUT configuration or DMA
    // to corrupt.
    let resilience_active = args.resilience != ResilienceLevel::Off || args.inject_faults.is_some();
    let fault_schedule = match &args.inject_faults {
        Some(spec) => FaultSchedule::parse(spec)?,
        None => FaultSchedule::new(),
    };
    if let Some((node, beat)) = fault_schedule.node_kills().next() {
        let msg = format!("`kill@{node}:{beat}`: fabp_search models one device, not a fleet");
        return Err(FabpError::InvalidSpec(msg).into());
    }

    if !args.quiet {
        eprintln!(
            "{} quer{} vs {} reference record(s), threshold {:.0}%, engine {}",
            queries.len(),
            if queries.len() == 1 { "y" } else { "ies" },
            reference.ids.len(),
            args.threshold * 100.0,
            if args.cycle { "cycle" } else { "software" },
        );
    }

    // Each query's encoding and aligner, built once for every record.
    let build = |ctx: TraceContext, query_id: &str, protein: &ProteinSeq| {
        let start_us = telemetry.now_us();
        let encoded = EncodedQuery::from_protein(protein);
        record_since(ctx.child(SpanKind::Stage, 0), "encode_query", start_us);
        if args.disasm && !args.quiet {
            eprintln!("# disassembly of {query_id}:");
            for line in encoded.disassemble().lines() {
                eprintln!("#   {line}");
            }
        }
        let aligner = FabpAligner::builder()
            .protein_query(protein)
            .threshold(Threshold::Fraction(args.threshold))
            .engine(engine.clone())
            .build()?;
        Ok::<_, Box<dyn std::error::Error + Send + Sync>>((encoded, aligner))
    };

    let mut out = BufWriter::new(std::io::stdout().lock());
    writeln!(out, "{TSV_HEADER}")?;
    if !args.cycle {
        // Every query over the concatenated records in one lane-packed
        // batch: one claim queue, whose workers start once for the
        // whole run.
        let aligners = (0u64..)
            .zip(&queries)
            .map(|(ordinal, (query_id, protein))| {
                let ctx = TraceContext::mint(TRACE_SEED, ordinal);
                let start_us = telemetry.now_us();
                let built = build(ctx, query_id, protein);
                record_since(ctx, "query", start_us);
                built.map(|(_, aligner)| aligner)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let start_us = telemetry.now_us();
        let (outcomes, _) = search_prebuilt(
            &aligners,
            &reference.bases,
            args.threads,
            SliceOptions::default(),
        );
        let batch = TraceContext::mint(TRACE_SEED, queries.len() as u64);
        record_since(batch, "search", start_us);
        for ((query_id, _), outcome) in queries.iter().zip(outcomes) {
            let window = outcome.query_len;
            for (record, hits) in split_by_record(&outcome.hits, window, &reference.ranges) {
                let record_outcome = SearchOutcome {
                    hits,
                    threshold: outcome.threshold,
                    query_len: window,
                    stats: None,
                };
                let record_id = &reference.ids[record];
                write_rows(&mut out, query_id, record_id, &record_outcome, args.top)?;
            }
        }
    } else {
        // The cycle engine models one device: each query runs against
        // each record in turn.
        let records: Vec<PackedSeq> = reference
            .ranges
            .iter()
            .map(|range| reference.bases.slice(range.clone()))
            .collect();
        for ((query_id, protein), ordinal) in queries.iter().zip(0u64..) {
            let ctx = TraceContext::mint(TRACE_SEED, ordinal);
            let query_start_us = telemetry.now_us();
            let (encoded, aligner) = build(ctx, query_id, protein)?;
            let threshold_abs = Threshold::Fraction(args.threshold).resolve(encoded.len());
            // Resilience harness: wraps the cycle-accurate engine so faults
            // can be injected and detection/recovery overhead measured.
            let resilient_engine = if resilience_active {
                Some(FabpEngine::new(
                    encoded.clone(),
                    EngineConfig::kintex7(threshold_abs),
                )?)
            } else {
                None
            };

            for ((record_id, record), slot) in reference.ids.iter().zip(&records).zip(1u64..) {
                let search_start_us = telemetry.now_us();
                let outcome = match &resilient_engine {
                    Some(engine) => {
                        let trace = TraceContext::mint(0xFAB6_5EA7, flight_ordinal);
                        let start_us = flight_start_us;
                        let runner =
                            ResilientRunner::new(engine, args.resilience, fault_schedule.clone())
                                .with_trace(flight.clone(), trace, start_us);
                        let resilient = runner.run(record, telemetry)?;
                        let dur_us = (resilient.run.stats.kernel_seconds * 1e6).max(1.0);
                        flight.record(
                            TraceEvent::new(trace, "search", start_us, dur_us)
                                .with_arg(flight_ordinal),
                        );
                        flight_ordinal += 1;
                        flight_start_us += dur_us + 1.0;
                        if !args.quiet {
                            let r = &resilient.report;
                            let cycles = resilient.run.stats.cycles;
                            let pct = if cycles > 0 {
                                100.0 * r.overhead_cycles as f64 / cycles as f64
                            } else {
                                0.0
                            };
                            eprintln!(
                                "# resilience[{}] {query_id} vs {}: injected={} detected={} \
                                 recovered={} retries={} scrubs={} replayed_beats={} \
                                 overhead={} cycles ({pct:.3}% of {cycles})",
                                args.resilience,
                                record_id,
                                r.injected,
                                r.detected,
                                r.recovered,
                                r.retries,
                                r.scrubs,
                                r.replayed_beats,
                                r.overhead_cycles,
                            );
                        }
                        SearchOutcome {
                            hits: resilient.run.hits,
                            threshold: threshold_abs,
                            query_len: encoded.len(),
                            stats: Some(resilient.run.stats),
                        }
                    }
                    None => aligner.search_packed(record),
                };
                record_since(ctx.child(SpanKind::Stage, slot), "search", search_start_us);
                // Cycle engine: assemble the modelled host pipeline so the
                // encode → transfer → kernel → readback breakdown lands in
                // the flight recorder and the per-stage counters.
                if let Some(stats) = &outcome.stats {
                    let _ = fabp::core::host::end_to_end(
                        &HostConfig::default(),
                        encoded.len(),
                        outcome.hits.len(),
                        stats.kernel_seconds,
                    );
                }
                write_rows(&mut out, query_id, record_id, &outcome, args.top)?;
                if args.stats && !args.quiet {
                    if let Some(stats) = outcome.stats {
                        eprintln!(
                            "# {query_id} vs {record_id}: {} cycles, {:.2} GB/s, {:.3} ms kernel",
                            stats.cycles,
                            stats.achieved_bandwidth / 1e9,
                            stats.kernel_seconds * 1e3
                        );
                    }
                }
            }
            record_since(ctx, "query", query_start_us);
        }
    }
    out.flush()?;
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        // The reader closed stdout early (`| head`): it has the rows it
        // wanted, so stop writing without an error.
        Err(e)
            if e.downcast_ref::<std::io::Error>()
                .is_some_and(|e| e.kind() == ErrorKind::BrokenPipe) =>
        {
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fabp-search: {e}");
            ExitCode::FAILURE
        }
    }
}
