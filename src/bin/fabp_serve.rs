//! `fabp-serve` — drive the production query-serving layer from the
//! command line.
//!
//! Feeds a protein query stream (FASTA or synthetic) through
//! [`fabp_serve::FabpServer`]: bounded admission with per-tenant
//! round-robin fairness, adaptive micro-batching, content-hash caches
//! and deadline shedding, over the software batch engine or the
//! modelled FPGA fleet.
//!
//! ```text
//! fabp-serve --reference db.fna --queries q.faa [options]
//! fabp-serve --index db.fabpidx --queries q.faa [--prefilter seeded] [options]
//! fabp-serve --synthetic-bases 200000 --synthetic-queries 64 [options]
//!
//! Options:
//!   --queries <faa>          protein queries (FASTA)
//!   --reference <fna>        reference database (FASTA; every record,
//!                            concatenated in file order as
//!                            fabp-search --build-index packs it; no
//!                            hit spans two records)
//!   --index <fabpidx>        persistent packed index (see fabp-search
//!                            --build-index); cold + warm load timings
//!                            are reported on the `# index:` line
//!   --prefilter <off|seeded> exhaustive scan or k-mer seeded
//!                            seed-and-verify (requires --index on the
//!                            software backend; default off)
//!   --synthetic-bases <n>    generate a random reference of n bases
//!   --synthetic-queries <n>  generate n random queries (planted in the
//!                            synthetic reference so they hit)
//!   --query-len <aa>         synthetic query length (default 12)
//!   --seed <u64>             synthetic workload seed (default 1)
//!   --tenants <n>            spread queries across n tenants (default 2)
//!   --repeat <n>             submit the stream n times (default 1;
//!                            repeats exercise the query cache)
//!   --backend <software|fleet>  execution backend (default software)
//!   --threads <n>            software batch workers (default 4;
//!                            software backend only)
//!   --nodes <n>              fleet nodes, one shard each (default 4,
//!                            at most 1024; fleet backend only, as are
//!                            the next two)
//!   --replication <n>        fleet replicas per shard (default 2;
//!                            anti-affinity requires n <= nodes)
//!   --threshold <0..1>       match fraction (default 0.9)
//!   --queue-capacity <n>     admission-queue bound (default 1024)
//!   --max-batch <n>          micro-batch cap (default 64)
//!   --slo-us <n>             batch latency SLO, µs (default 50000)
//!   --deadline-us <n>        per-request deadline budget, µs
//!   --query-cache <n>        built-aligner/fleet cache entries (default 256)
//!   --max-query-aa <n>       longest admissible query (default 128;
//!                            fleet backend only)
//!   --inject-faults <spec>   fleet fault schedule, e.g. kill@1:50:
//!                            kill@ nodes are marked dead in the failure
//!                            detector (their shards fail over); other
//!                            faults hit every read and are recovered
//!   --stats                  print telemetry counters to stderr
//!   --slo                    print the SLO burn-rate report to stderr
//!   --metrics-out <path>     write Prometheus text exposition
//!   --trace-out <path>       write the flight recorder's spans (every
//!                            request's tree and each dispatch's
//!                            `fabp_serve_batch`) as Chrome trace-event
//!                            JSON
//!   --anomaly-out <path>     write the first captured anomaly dump
//!                            (SLO/deadline/fault-recovery span tree)
//!   --quiet                  suppress informational stderr output
//! ```

use fabp::bio::fasta::{read_packed, read_proteins, PackedRecords};
use fabp::bio::generate::{coding_rna_for_paper_patterns, random_protein, random_rna};
use fabp::bio::seq::{PackedSeq, ProteinSeq};
use fabp::core::aligner::Threshold;
use fabp::core::fleet::MAX_FLEET_NODES;
use fabp::core::index::PrefilterMode;
use fabp::serve::{BatchPolicy, FabpServer, IndexStore, Response, ServeBackend, ServeConfig};
use fabp_telemetry::{chrome_trace_for_events, Registry};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs::File;
use std::io::{BufWriter, ErrorKind, Write};
use std::process::ExitCode;

struct Args {
    query_path: Option<String>,
    reference_path: Option<String>,
    index_path: Option<String>,
    prefilter: PrefilterMode,
    synthetic_bases: usize,
    synthetic_queries: usize,
    query_len: usize,
    seed: u64,
    tenants: usize,
    repeat: usize,
    fleet: bool,
    threads: usize,
    nodes: usize,
    replication: usize,
    threshold: f64,
    queue_capacity: usize,
    max_batch: usize,
    slo_us: u64,
    deadline_us: Option<u64>,
    query_cache: usize,
    max_query_aa: usize,
    inject_faults: Option<String>,
    stats: bool,
    slo: bool,
    quiet: bool,
    metrics_out: Option<String>,
    trace_out: Option<String>,
    anomaly_out: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: fabp-serve (--queries <q.faa> --reference <db.fna> | \
         --queries <q.faa> --index <db.fabpidx> [--prefilter off|seeded] | \
         --synthetic-bases <n> --synthetic-queries <n>) [--query-len 12] \
         [--seed 1] [--tenants 2] [--repeat 1] \
         [--backend software|fleet] [--threads 4] [--nodes 4] \
         [--replication 2] [--threshold 0.9] [--queue-capacity 1024] \
         [--max-batch 64] [--slo-us 50000] [--deadline-us <n>] \
         [--query-cache 256] [--max-query-aa 128 (fleet backend only)] \
         [--inject-faults <spec>] \
         [--stats] [--slo] [--metrics-out m.prom] [--trace-out t.json] \
         [--anomaly-out a.json] [--quiet]"
    );
    std::process::exit(2);
}

fn value_for(flag: &str, it: &mut impl Iterator<Item = String>) -> String {
    it.next().unwrap_or_else(|| {
        eprintln!("missing value for {flag}");
        usage()
    })
}

fn parse_for<T: std::str::FromStr>(flag: &str, it: &mut impl Iterator<Item = String>) -> T {
    let raw = value_for(flag, it);
    raw.parse().unwrap_or_else(|_| {
        eprintln!("invalid value {raw:?} for {flag}");
        usage()
    })
}

/// Parses a count of at most `max`: a larger one would size an
/// allocation by the input, so it is a usage error before anything runs.
fn parse_at_most(flag: &str, max: usize, it: &mut impl Iterator<Item = String>) -> usize {
    let raw = value_for(flag, it);
    match raw.parse::<usize>() {
        Ok(count) if count <= max => count,
        _ => {
            eprintln!("invalid value {raw:?} for {flag} (at most {max})");
            usage()
        }
    }
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
        query_path: None,
        reference_path: None,
        index_path: None,
        prefilter: PrefilterMode::Off,
        synthetic_bases: 0,
        synthetic_queries: 0,
        query_len: 12,
        seed: 1,
        tenants: 2,
        repeat: 1,
        fleet: false,
        threads: 4,
        nodes: 4,
        replication: 2,
        threshold: 0.9,
        queue_capacity: 1_024,
        max_batch: 64,
        slo_us: 50_000,
        deadline_us: None,
        query_cache: 256,
        max_query_aa: 128,
        inject_faults: None,
        stats: false,
        slo: false,
        quiet: false,
        metrics_out: None,
        trace_out: None,
        anomaly_out: None,
    };
    let mut given = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        given.push(arg.clone());
        match arg.as_str() {
            "--queries" => args.query_path = Some(value_for("--queries", &mut it)),
            "--reference" => args.reference_path = Some(value_for("--reference", &mut it)),
            "--index" => args.index_path = Some(value_for("--index", &mut it)),
            "--prefilter" => args.prefilter = parse_for("--prefilter", &mut it),
            "--synthetic-bases" => args.synthetic_bases = parse_for("--synthetic-bases", &mut it),
            "--synthetic-queries" => {
                args.synthetic_queries = parse_for("--synthetic-queries", &mut it)
            }
            "--query-len" => args.query_len = parse_for("--query-len", &mut it),
            "--seed" => args.seed = parse_for("--seed", &mut it),
            "--tenants" => args.tenants = parse_for("--tenants", &mut it),
            "--repeat" => args.repeat = parse_for("--repeat", &mut it),
            "--backend" => {
                args.fleet = match value_for("--backend", &mut it).as_str() {
                    "software" => false,
                    "fleet" => true,
                    other => {
                        eprintln!("invalid value {other:?} for --backend (software or fleet)");
                        usage()
                    }
                }
            }
            "--threads" => args.threads = parse_for("--threads", &mut it),
            "--nodes" => args.nodes = parse_at_most("--nodes", MAX_FLEET_NODES, &mut it),
            "--replication" => args.replication = parse_for("--replication", &mut it),
            "--threshold" => args.threshold = parse_fraction("--threshold", &mut it),
            "--queue-capacity" => args.queue_capacity = parse_for("--queue-capacity", &mut it),
            "--max-batch" => args.max_batch = parse_for("--max-batch", &mut it),
            "--slo-us" => args.slo_us = parse_for("--slo-us", &mut it),
            "--deadline-us" => args.deadline_us = Some(parse_for("--deadline-us", &mut it)),
            "--query-cache" => args.query_cache = parse_for("--query-cache", &mut it),
            "--max-query-aa" => args.max_query_aa = parse_for("--max-query-aa", &mut it),
            "--inject-faults" => args.inject_faults = Some(value_for("--inject-faults", &mut it)),
            "--stats" => args.stats = true,
            "--slo" => args.slo = true,
            "--quiet" => args.quiet = true,
            "--metrics-out" => args.metrics_out = Some(value_for("--metrics-out", &mut it)),
            "--trace-out" => args.trace_out = Some(value_for("--trace-out", &mut it)),
            "--anomaly-out" => args.anomaly_out = Some(value_for("--anomaly-out", &mut it)),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument {other:?}");
                usage();
            }
        }
    }
    let file_mode = args.query_path.is_some() && args.reference_path.is_some();
    let synth_mode = args.synthetic_bases > 0 && args.synthetic_queries > 0;
    let index_mode = args.index_path.is_some() && args.query_path.is_some();
    if !(file_mode || synth_mode || index_mode) {
        usage();
    }
    // A flag of another backend or source would otherwise be ignored
    // silently.
    let (fleet, index) = (args.fleet, args.index_path.is_some());
    for (flag, allowed, needs) in [
        ("--nodes", fleet, "--backend fleet"),
        ("--replication", fleet, "--backend fleet"),
        ("--inject-faults", fleet, "--backend fleet"),
        ("--max-query-aa", fleet, "--backend fleet"),
        ("--threads", !fleet, "--backend software"),
        (
            "--prefilter",
            index && !fleet,
            "--index on --backend software",
        ),
    ] {
        if !allowed && given.iter().any(|g| g == flag) {
            eprintln!("{flag} requires {needs}");
            usage();
        }
    }
    args
}

/// Packed reference records plus named queries — the serving workload.
type Workload = (PackedRecords, Vec<(String, ProteinSeq)>);

/// Builds the workload: either from FASTA files (the reference's records
/// concatenated in file order, as `fabp-search --build-index` packs
/// them) or a synthetic planted-homology database of one record (every
/// query is guaranteed to hit).
fn load_workload(args: &Args) -> Result<Workload, Box<dyn std::error::Error + Send + Sync>> {
    if let (Some(qp), Some(rp)) = (&args.query_path, &args.reference_path) {
        let queries = read_proteins(File::open(qp)?)?;
        if queries.is_empty() {
            return Err("query file contains no records".into());
        }
        let reference = read_packed(File::open(rp)?)?;
        if reference.ids.is_empty() {
            return Err("reference file contains no records".into());
        }
        return Ok((reference, queries));
    }
    let mut rng = StdRng::seed_from_u64(args.seed);
    let queries: Vec<(String, ProteinSeq)> = (0..args.synthetic_queries)
        .map(|i| {
            (
                format!("synthetic-{i}"),
                random_protein(args.query_len, &mut rng),
            )
        })
        .collect();
    let mut bases = random_rna(args.synthetic_bases, &mut rng).into_inner();
    // Plant each query's coding RNA at an evenly spaced position so every
    // request returns at least one hit region.
    let stride = (args.synthetic_bases / queries.len().max(1)).max(1);
    for (i, (_, protein)) in queries.iter().enumerate() {
        let coding = coding_rna_for_paper_patterns(protein, &mut rng);
        let at = (i * stride) % args.synthetic_bases.saturating_sub(coding.len()).max(1);
        if at + coding.len() <= bases.len() {
            bases.splice(at..at + coding.len(), coding.iter().copied());
        }
    }
    let records = PackedRecords::one("synthetic", PackedSeq::from_rna(&bases.into()));
    Ok((records, queries))
}

fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * p).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)]
}

fn error_label(response: &Response) -> &'static str {
    match &response.result {
        Ok(_) => "ok",
        Err(e) => e.kind_label(),
    }
}

fn run() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
    let args = parse_args();
    let registry = Registry::global();
    let backend = if args.fleet {
        ServeBackend::Fleet {
            nodes: args.nodes,
            replication: args.replication,
            fault_spec: args.inject_faults.clone(),
        }
    } else {
        ServeBackend::Software {
            threads: args.threads,
        }
    };
    let config = ServeConfig {
        threshold: Threshold::Fraction(args.threshold),
        queue_capacity: args.queue_capacity,
        policy: BatchPolicy {
            max_batch: args.max_batch,
            slo_us: args.slo_us,
            ..BatchPolicy::default()
        },
        backend,
        query_cache: args.query_cache,
        default_deadline_us: args.deadline_us,
        max_query_aa: args.max_query_aa,
        prefilter: args.prefilter,
        ..ServeConfig::default()
    };

    // Workload + server: FASTA/synthetic reference, or a persistent
    // packed index (cold load timed, then a warm re-load for the
    // resident-store comparison the CI smoke greps for).
    let (mut server, queries, resident_bases) = if let Some(index_path) = &args.index_path {
        let query_path = args
            .query_path
            .as_ref()
            .ok_or("--index requires --queries")?;
        let queries = read_proteins(File::open(query_path)?)?;
        if queries.is_empty() {
            return Err("query file contains no records".into());
        }
        let mut store = IndexStore::new();
        let cold = store.load(index_path, false)?;
        let warm = store.load(index_path, false)?;
        eprintln!(
            "# index: cold_load_ms={:.3} warm_reload_ms={:.3} bases={} shards={} \
             fingerprint={:016x} prefilter={}",
            cold.load_us as f64 / 1e3,
            warm.load_us as f64 / 1e3,
            cold.index.total_bases(),
            cold.index.shards().len(),
            cold.index.fingerprint(),
            args.prefilter.label(),
        );
        let bases = cold.index.total_bases();
        let server = FabpServer::with_index(cold.index, config, registry)?;
        (server, queries, bases)
    } else {
        let (reference, queries) = load_workload(&args)?;
        let bases = reference.bases.len();
        let server = FabpServer::with_packed(reference, config, registry)?;
        (server, queries, bases)
    };
    if !args.quiet {
        eprintln!(
            "serving {} quer{} × {} repeat(s) over {} tenant(s), {} bases resident, backend {}",
            queries.len(),
            if queries.len() == 1 { "y" } else { "ies" },
            args.repeat,
            args.tenants,
            resident_bases,
            if args.fleet { "fleet" } else { "software" },
        );
    }

    // Closed-loop driver: submit the stream; on backpressure, pump the
    // server to drain a batch and retry the same request.
    let started = std::time::Instant::now();
    let mut responses: Vec<Response> = Vec::new();
    let mut names: Vec<(u64, String)> = Vec::new();
    let mut hard_rejects = 0u64;
    for round in 0..args.repeat {
        for (i, (query_id, protein)) in queries.iter().enumerate() {
            let tenant = format!("tenant-{}", i % args.tenants.max(1));
            loop {
                match server.submit(&tenant, protein) {
                    Ok(ticket) => {
                        names.push((ticket, format!("{query_id}#r{round}")));
                        break;
                    }
                    Err(fabp::serve::FabpError::Overloaded { .. }) => {
                        responses.extend(server.pump());
                    }
                    Err(e) => {
                        eprintln!("# rejected {query_id}: {e}");
                        hard_rejects += 1;
                        break;
                    }
                }
            }
        }
    }
    responses.extend(server.run_to_completion());
    let wall_seconds = started.elapsed().as_secs_f64();

    let mut out = BufWriter::new(std::io::stdout().lock());
    writeln!(
        out,
        "# ticket\tquery\ttenant\tstatus\thits\tbest_pos\tbest_score\tlatency_us\tbatch\tcached"
    )?;
    responses.sort_by_key(|r| r.id);
    for response in &responses {
        let name = names
            .iter()
            .find(|(t, _)| *t == response.id)
            .map(|(_, n)| n.as_str())
            .unwrap_or("?");
        let (hits, best_pos, best_score) = match &response.result {
            Ok(hits) => {
                let best = hits.iter().max_by_key(|h| h.score);
                (
                    hits.len() as i64,
                    best.map(|h| h.position as i64).unwrap_or(-1),
                    best.map(|h| i64::from(h.score)).unwrap_or(-1),
                )
            }
            Err(_) => (-1, -1, -1),
        };
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            response.id,
            name,
            response.tenant,
            error_label(response),
            hits,
            best_pos,
            best_score,
            response.latency_us,
            response.batch_size,
            response.cached_query,
        )?;
    }
    out.flush()?;

    let stats = server.stats();
    let mut latencies: Vec<u64> = responses
        .iter()
        .filter(|r| r.result.is_ok())
        .map(|r| r.latency_us)
        .collect();
    latencies.sort_unstable();
    let qps = if wall_seconds > 0.0 {
        stats.served_ok as f64 / wall_seconds
    } else {
        0.0
    };
    eprintln!(
        "# served_ok={} served_err={} shed={} rejected={} (hard {}) batches={} peak_batch={}",
        stats.served_ok,
        stats.served_err,
        stats.shed,
        stats.rejected,
        hard_rejects,
        stats.batches,
        stats.peak_batch,
    );
    eprintln!(
        "# qps={qps:.1} p50_us={} p99_us={} query_cache_hit_rate={:.3}",
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.99),
        stats.query_cache.hit_rate(),
    );
    if args.fleet {
        eprintln!(
            "# fleet: routable={}/{} hedges={} hedge_wins={} cancels={} failovers={} brownout_shed={}",
            server.routable_nodes().unwrap_or(args.nodes),
            args.nodes,
            stats.hedges,
            stats.hedge_wins,
            stats.cancels,
            stats.failovers,
            stats.brownout_shed,
        );
    }

    let flight = registry.flight_recorder();
    if args.stats {
        eprintln!(
            "# telemetry: {} series, {} trace events retained, {} dropped",
            registry.snapshot().metrics.len(),
            flight.events().len(),
            flight.dropped()
        );
    }
    // Evaluate the SLO monitor before snapshotting so the burn-rate
    // and alert gauges (published by `report()`) land in the scrape.
    let slo_report = server.slo_report();
    if args.slo {
        eprint!("{}", slo_report.render_text());
    }
    if let Some(path) = &args.metrics_out {
        std::fs::write(path, registry.snapshot().to_prometheus())?;
        if !args.quiet {
            eprintln!("# metrics written to {path}");
        }
    }
    if let Some(path) = &args.trace_out {
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
    if let Some(path) = &args.anomaly_out {
        match server.anomaly_dumps().first() {
            Some(dump) => {
                std::fs::write(path, &dump.chrome_trace)?;
                if !args.quiet {
                    eprintln!(
                        "# anomaly dump ({}, ticket {}, trace {:016x}) written to {path}",
                        dump.reason, dump.id, dump.trace_id
                    );
                }
            }
            None => {
                if !args.quiet {
                    eprintln!("# no anomalies captured; {path} not written");
                }
            }
        }
    }
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
            eprintln!("fabp-serve: {e}");
            ExitCode::FAILURE
        }
    }
}
