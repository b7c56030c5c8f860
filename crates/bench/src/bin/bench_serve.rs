//! `bench_serve` — closed-loop load generator for the serving layer.
//!
//! Drives `fabp_serve::FabpServer` with a pinned synthetic multi-tenant
//! workload and emits `BENCH_serve.json` with two entry classes:
//!
//! * **time** entries (wall-clock: sustained queries/second as
//!   `ns_per_query`, p50/p99 latency) — machine-dependent, gated in CI
//!   with a loose tolerance;
//! * **rate** entries (shed rate under a deadline burst, backpressure
//!   reject rate under an admission flood, query/reference cache hit
//!   rates) — **deterministic by construction** (manual clock, fixed
//!   submission order), gated exactly.
//!
//! Before any timing, the harness cross-checks the transparency
//! invariant on the measured workload: every served hit list must be
//! bit-identical to a sequential single-query `FabpAligner` run.
//!
//! ```text
//! cargo run --release -p fabp-bench --bin bench_serve -- \
//!     [--quick] [--out BENCH_serve.json] \
//!     [--min-speedup ID:FLOOR]... \
//!     [--baseline BENCH_serve.json --check [--tolerance 0.50]]
//! ```
//!
//! The persistent-index entries (`index_build`, `index_cold_load`,
//! `index_warm_reload`, `index_warm_vs_cold`, `index_seeded_recall`)
//! cover the on-disk packed-shard format: cold loads CRC-verify every
//! shard frame, warm re-loads come from the resident store, and recall
//! is measured against planted ground truth at BLAST-default seeding
//! (w=3, T=11) with a hard-asserted 0.99 floor.

use fabp_bio::generate::{coding_rna_for_paper_patterns, random_protein, random_rna};
use fabp_bio::seq::{ProteinSeq, RnaSeq};
use fabp_core::aligner::{Engine, FabpAligner, Threshold};
use fabp_core::index::{
    search_index, IndexBuildOptions, PrefilterMode, ReferenceIndex, SeedParams,
};
use fabp_serve::{
    BatchPolicy, FabpError, FabpServer, IndexStore, Response, ServeBackend, ServeConfig,
};
use fabp_telemetry::Registry;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEED: u64 = 0xFAB9_0005;

/// One measured (or derived) benchmark result.
struct Entry {
    id: String,
    /// `"time"` (ns, lower is better) or `"rate"` (fraction/ratio,
    /// higher is better; deterministic entries are equal across runs).
    kind: &'static str,
    value: f64,
    note: String,
}

impl Entry {
    fn time(id: &str, nanos: f64, note: String) -> Entry {
        Entry {
            id: id.to_string(),
            kind: "time",
            value: nanos,
            note,
        }
    }

    fn rate(id: &str, value: f64, note: String) -> Entry {
        Entry {
            id: id.to_string(),
            kind: "rate",
            value,
            note,
        }
    }

    /// Machine-relative ratio (higher is better). Gated only by
    /// `--min-speedup` absolute floors, never by the relative check —
    /// load-time ratios swing too much run-to-run for a tolerance gate.
    fn speedup(id: &str, value: f64, note: String) -> Entry {
        Entry {
            id: id.to_string(),
            kind: "speedup",
            value,
            note,
        }
    }
}

/// Pinned workload shape.
struct Shape {
    tag: &'static str,
    /// Distinct proteins in the query stream.
    unique_queries: usize,
    /// Times the stream is replayed (repeats exercise the caches).
    repeats: usize,
    /// Resident reference size, bases.
    reference_bases: usize,
    query_aa: usize,
    tenants: usize,
    threads: usize,
}

const QUICK: Shape = Shape {
    tag: "quick",
    unique_queries: 16,
    repeats: 4,
    reference_bases: 100_000,
    query_aa: 12,
    tenants: 3,
    threads: 4,
};

const FULL: Shape = Shape {
    tag: "full",
    unique_queries: 64,
    repeats: 4,
    reference_bases: 1_000_000,
    query_aa: 16,
    tenants: 4,
    threads: 4,
};

/// Synthetic planted workload: every query hits the reference.
fn workload(shape: &Shape) -> (RnaSeq, Vec<ProteinSeq>) {
    let mut rng = StdRng::seed_from_u64(SEED);
    let queries: Vec<ProteinSeq> = (0..shape.unique_queries)
        .map(|_| random_protein(shape.query_aa, &mut rng))
        .collect();
    let mut bases = random_rna(shape.reference_bases, &mut rng).into_inner();
    let stride = shape.reference_bases / shape.unique_queries;
    for (i, protein) in queries.iter().enumerate() {
        let coding = coding_rna_for_paper_patterns(protein, &mut rng);
        let at = i * stride;
        if at + coding.len() <= bases.len() {
            bases.splice(at..at + coding.len(), coding.iter().copied());
        }
    }
    (RnaSeq::from(bases), queries)
}

fn config(shape: &Shape) -> ServeConfig {
    ServeConfig {
        threshold: Threshold::Fraction(0.9),
        queue_capacity: 4 * shape.unique_queries * shape.repeats,
        policy: BatchPolicy {
            max_batch: 32,
            slo_us: 100_000,
            ..BatchPolicy::default()
        },
        backend: ServeBackend::Software {
            threads: shape.threads,
        },
        query_cache: 2 * shape.unique_queries,
        reference_cache: 4,
        default_deadline_us: None,
        max_query_aa: 128,
        prefilter: PrefilterMode::Off,
    }
}

/// Persistent-index lifecycle on the pinned workload: build + write the
/// packed shards, then time a cold (full CRC-verified read) load against
/// a warm re-load of the resident copy through [`IndexStore`]. Both
/// loads take the best of [`LOAD_REPS`] samples (evicting between cold
/// samples) — a single sub-millisecond disk read swings several-fold
/// with page-cache state, and the minimum is the stable, comparable
/// number for the committed baseline.
const LOAD_REPS: usize = 5;

/// Shortest span one warm re-load sample times. A warm re-load costs
/// about one tick of `IndexLoad::load_us`, so each sample times a batch
/// of re-loads with one outer clock, sized to span at least this long,
/// and reports the mean per re-load.
const WARM_SAMPLE: std::time::Duration = std::time::Duration::from_millis(1);

fn index_persistence(shape: &Shape, entries: &mut Vec<Entry>) {
    let (reference, _) = workload(shape);
    let tag = shape.tag;
    let options = IndexBuildOptions {
        overlap: 3 * 128, // covers the config()'s max_query_aa
        target_shard_bases: (shape.reference_bases / 8).max(4_096),
    };
    let started = std::time::Instant::now();
    let index = ReferenceIndex::build_from_rna(&reference, options).expect("index builds");
    let build_ns = started.elapsed().as_nanos() as f64;
    let path = std::env::temp_dir().join(format!("bench_serve_{tag}.fabpidx"));
    index.write_to(&path).expect("index writes");
    assert!(index.shards().len() > 1, "{tag}: exercise multi-shard");

    let mut store = IndexStore::new();
    let mut cold = store.load(&path, false).expect("cold load");
    assert!(cold.cold, "{tag}: first load is cold");
    assert_eq!(cold.index.fingerprint(), index.fingerprint());
    for _ in 1..LOAD_REPS {
        store.evict(&path);
        let c = store.load(&path, false).expect("cold load rep");
        assert!(c.cold, "{tag}: a load after eviction is cold");
        if c.load_us < cold.load_us {
            cold = c;
        }
    }
    let mut warm_batch = |reloads: u32| {
        let started = std::time::Instant::now();
        for _ in 0..reloads {
            let warm = store.load(&path, false).expect("warm load");
            assert!(!warm.cold, "{tag}: a resident load is warm");
        }
        started.elapsed()
    };
    let mut reloads = 1u32;
    while warm_batch(reloads) < WARM_SAMPLE {
        reloads *= 2;
    }
    let warm_ns = (0..LOAD_REPS)
        .map(|_| warm_batch(reloads).as_nanos() as f64 / f64::from(reloads))
        .fold(f64::INFINITY, f64::min);
    std::fs::remove_file(&path).ok();

    entries.push(Entry::time(
        &format!("index_build_{tag}"),
        build_ns,
        format!(
            "pack {} bases into {} shard(s), overlap {}",
            index.total_bases(),
            index.shards().len(),
            index.overlap()
        ),
    ));
    entries.push(Entry::time(
        &format!("index_cold_load_{tag}"),
        cold.load_us as f64 * 1e3,
        "disk read + CRC verification of every shard frame (best of 5)".to_string(),
    ));
    entries.push(Entry::time(
        &format!("index_warm_reload_{tag}"),
        warm_ns,
        format!(
            "resident re-load from the index store (no disk, no CRC; \
             best of 5 batches of {reloads}, mean per re-load)"
        ),
    ));
    entries.push(Entry::speedup(
        &format!("index_warm_vs_cold_{tag}"),
        cold.load_us as f64 * 1e3 / warm_ns,
        "cold CRC-verified load over warm resident re-load".to_string(),
    ));
}

/// Seeded-prefilter recall against planted ground truth at BLAST-default
/// seeding (w=3, T=11). Deterministic: fixed seed, substitution-only
/// mutations, both scans exact. Recall is measured over the plants the
/// *exhaustive* scan recovers, so the entry isolates what the prefilter
/// loses — the committed floor is 0.99 and the run hard-asserts it.
fn index_recall(shape: &Shape, entries: &mut Vec<Entry>) {
    use fabp_bio::generate::{PlantedDatabase, PlantedDatabaseConfig};
    use fabp_bio::mutate::{IndelModel, SubstitutionModel};

    let tag = shape.tag;
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x1D3C);
    let db = PlantedDatabase::generate(
        &PlantedDatabaseConfig {
            reference_len: shape.reference_bases,
            num_queries: shape.unique_queries,
            query_len: shape.query_aa,
            substitutions: SubstitutionModel::new(0.02),
            indels: IndelModel::none(),
            paper_codons_only: false,
        },
        &mut rng,
    );
    let index = ReferenceIndex::build_from_rna(
        &db.reference,
        IndexBuildOptions {
            overlap: 3 * 128,
            target_shard_bases: (shape.reference_bases / 8).max(4_096),
        },
    )
    .expect("index builds");
    let threshold = Threshold::Fraction(0.9);
    let params = SeedParams::default(); // BLAST defaults: w=3, T=11
    let (off, _) = search_index(
        &index,
        &db.queries,
        threshold,
        PrefilterMode::Off,
        params,
        shape.threads,
    )
    .expect("exhaustive scan");
    let (seeded, stats) = search_index(
        &index,
        &db.queries,
        threshold,
        PrefilterMode::Seeded,
        params,
        shape.threads,
    )
    .expect("seeded scan");
    for (q, hits) in seeded.iter().enumerate() {
        for hit in hits {
            assert!(
                off[q].contains(hit),
                "{tag}: seeded hit {hit:?} absent from the full scan"
            );
        }
    }
    let mut findable = 0usize;
    let mut found = 0usize;
    for region in &db.regions {
        if off[region.query_index]
            .iter()
            .any(|h| h.position == region.position)
        {
            findable += 1;
            if seeded[region.query_index]
                .iter()
                .any(|h| h.position == region.position)
            {
                found += 1;
            }
        }
    }
    assert!(findable > 0, "{tag}: planted workload must be findable");
    let recall = found as f64 / findable as f64;
    fabp_core::index::record_recall(recall);
    assert!(
        recall >= 0.99,
        "{tag}: seeded recall {recall:.4} ({found}/{findable}) below the 0.99 floor"
    );
    entries.push(Entry::rate(
        &format!("index_seeded_recall_{tag}"),
        recall,
        format!(
            "{found}/{findable} full-scan-findable plants recovered at w=3 T=11, \
             2 % substitutions; scanned fraction {:.4}",
            stats.scanned_fraction()
        ),
    ));
}

/// Sustained closed-loop throughput + latency over the repeated stream.
fn sustained(shape: &Shape, entries: &mut Vec<Entry>) {
    let (reference, queries) = workload(shape);
    let registry = Registry::disabled();
    let mut server =
        FabpServer::new(reference.clone(), config(shape), &registry).expect("server builds");

    let started = std::time::Instant::now();
    let mut responses: Vec<Response> = Vec::new();
    for _ in 0..shape.repeats {
        for (i, protein) in queries.iter().enumerate() {
            let tenant = format!("tenant-{}", i % shape.tenants);
            loop {
                match server.submit(&tenant, protein) {
                    Ok(_) => break,
                    Err(FabpError::Overloaded { .. }) => responses.extend(server.pump()),
                    Err(e) => panic!("pinned workload rejected: {e}"),
                }
            }
        }
    }
    responses.extend(server.run_to_completion());
    let wall = started.elapsed();

    // Transparency gate: a perf number for a wrong answer is worse than
    // no number. Every response must match the sequential oracle.
    let total = shape.unique_queries * shape.repeats;
    assert_eq!(responses.len(), total, "{}: lost responses", shape.tag);
    let mut oracle: Vec<Vec<fabp_core::hits::Hit>> = Vec::new();
    for protein in &queries {
        let aligner = FabpAligner::builder()
            .protein_query(protein)
            .threshold(Threshold::Fraction(0.9))
            .engine(Engine::Software { threads: 1 })
            .build()
            .expect("pinned query builds");
        oracle.push(aligner.search(&reference).hits);
    }
    for response in &responses {
        let expected = &oracle[(response.id as usize) % shape.unique_queries];
        let hits = response
            .result
            .as_ref()
            .unwrap_or_else(|e| panic!("{}: request {} failed: {e}", shape.tag, response.id));
        assert_eq!(hits, expected, "{}: batching changed hits", shape.tag);
        assert!(!hits.is_empty(), "{}: planted query must hit", shape.tag);
    }

    let mut latencies: Vec<u64> = responses.iter().map(|r| r.latency_us).collect();
    latencies.sort_unstable();
    let pct = |p: f64| latencies[((latencies.len() - 1) as f64 * p).round() as usize];
    let stats = server.stats();
    let tag = shape.tag;
    entries.push(Entry::time(
        &format!("serve_ns_per_query_{tag}"),
        wall.as_nanos() as f64 / total as f64,
        format!(
            "{total} queries ({} unique × {}) closed-loop, {:.0} q/s",
            shape.unique_queries,
            shape.repeats,
            total as f64 / wall.as_secs_f64().max(1e-9)
        ),
    ));
    entries.push(Entry::time(
        &format!("serve_p50_latency_{tag}"),
        pct(0.50) as f64 * 1e3,
        "median submit-to-response latency".to_string(),
    ));
    entries.push(Entry::time(
        &format!("serve_p99_latency_{tag}"),
        pct(0.99) as f64 * 1e3,
        "tail submit-to-response latency".to_string(),
    ));
    // Deterministic: each unique query misses once, then hits R-1 times
    // regardless of batch boundaries.
    entries.push(Entry::rate(
        &format!("serve_query_cache_hit_rate_{tag}"),
        stats.query_cache.hit_rate(),
        format!(
            "expected exactly {:.3} = (repeats-1)/repeats",
            (shape.repeats - 1) as f64 / shape.repeats as f64
        ),
    ));
    let expected_rate = (shape.repeats - 1) as f64 / shape.repeats as f64;
    assert!(
        (stats.query_cache.hit_rate() - expected_rate).abs() < 1e-9,
        "{tag}: cache hit rate {} != {expected_rate}",
        stats.query_cache.hit_rate()
    );
}

/// Deterministic deadline burst on a manual clock: half the stream
/// expires while queued, half survives → shed rate exactly 0.5.
fn shed_burst(shape: &Shape, entries: &mut Vec<Entry>) {
    let (reference, queries) = workload(shape);
    let registry = Registry::disabled();
    let mut server =
        FabpServer::with_manual_clock(reference, config(shape), &registry).expect("server builds");
    let n = queries.len();
    for protein in &queries {
        server
            .submit_with_deadline("doomed", protein, Some(500))
            .expect("capacity fits the burst");
    }
    server.advance_clock_us(10_000); // every deadline expires while queued
    for protein in &queries {
        server
            .submit_with_deadline("live", protein, None)
            .expect("capacity fits the burst");
    }
    let responses = server.run_to_completion();
    assert_eq!(responses.len(), 2 * n);
    let shed = responses
        .iter()
        .filter(|r| matches!(r.result, Err(FabpError::DeadlineExceeded { .. })))
        .count();
    let served = responses.iter().filter(|r| r.result.is_ok()).count();
    assert_eq!((shed, served), (n, n), "{}: shed split", shape.tag);
    entries.push(Entry::rate(
        &format!("serve_shed_rate_{}", shape.tag),
        shed as f64 / (2 * n) as f64,
        "deterministic deadline burst: half the stream expires queued".to_string(),
    ));
}

/// Deterministic admission flood: capacity C, open-loop submit C + C/2
/// without pumping → exactly C/2 typed Overloaded rejections.
fn backpressure_flood(shape: &Shape, entries: &mut Vec<Entry>) {
    let (reference, queries) = workload(shape);
    let registry = Registry::disabled();
    let capacity = queries.len();
    let flood = capacity + capacity / 2;
    let mut cfg = config(shape);
    cfg.queue_capacity = capacity;
    let mut server = FabpServer::new(reference, cfg, &registry).expect("server builds");
    let mut rejected = 0usize;
    for i in 0..flood {
        match server.submit("flood", &queries[i % queries.len()]) {
            Ok(_) => {}
            Err(FabpError::Overloaded { .. }) => rejected += 1,
            Err(e) => panic!("unexpected rejection: {e}"),
        }
    }
    assert_eq!(rejected, flood - capacity, "{}: reject count", shape.tag);
    let responses = server.run_to_completion();
    assert_eq!(responses.len(), capacity);
    entries.push(Entry::rate(
        &format!("serve_reject_rate_{}", shape.tag),
        rejected as f64 / flood as f64,
        "deterministic open-loop flood at 1.5× queue capacity".to_string(),
    ));
}

/// Modelled fleet scaling sweep: 1 → 16 nodes at R = min(2, nodes),
/// healthy and with one node killed. Throughput comes from the analytic
/// kernel model over the live routing table, so every entry is
/// deterministic and gated exactly like the other rates.
fn fleet_sweep(entries: &mut Vec<Entry>) {
    use fabp_core::fleet::FpgaFleet;
    use fabp_encoding::encoder::EncodedQuery;
    use fabp_fpga::engine::EngineConfig;
    use fabp_resilience::health::FailureDetector;

    let mut rng = StdRng::seed_from_u64(SEED ^ 0xF1EE7);
    let protein = random_protein(12, &mut rng);
    let query = EncodedQuery::from_protein(&protein);
    let config = EngineConfig::kintex7(query.len() as u32);
    const TOTAL_BASES: usize = 1_000_000;
    let mut qps_single = 0.0;
    for nodes in [1usize, 2, 4, 8, 16] {
        let replication = 2.min(nodes);
        let fleet = FpgaFleet::homogeneous(&query, &config, nodes, replication, TOTAL_BASES, 0)
            .expect("fleet builds");
        let qps = fleet.timing().queries_per_second;
        if nodes == 1 {
            qps_single = qps;
        }
        entries.push(Entry::rate(
            &format!("fleet_model_qps_{nodes}node"),
            qps,
            format!(
                "modelled fleet throughput, R={replication}, healthy \
                 ({:.2}x vs 1 node)",
                qps / qps_single.max(f64::MIN_POSITIVE)
            ),
        ));
        if nodes > 1 {
            let registry = Registry::disabled();
            let mut detector = FailureDetector::with_defaults(nodes, &registry);
            detector.record_kill(0);
            let degraded = fleet
                .fleet_timing(&detector)
                .expect("replicas cover the dead node")
                .queries_per_second;
            assert!(
                degraded <= qps,
                "a dead node cannot speed the fleet up: {degraded} vs {qps}"
            );
            entries.push(Entry::rate(
                &format!("fleet_model_qps_{nodes}node_killed"),
                degraded,
                "one node killed: a survivor absorbs the orphan shard via its replica".to_string(),
            ));
        }
    }
}

/// Chaos availability: rolling single-node kills (4 nodes, R = 2) under
/// a live served stream on the manual clock. Bit-identity against the
/// sequential oracle is a hard gate; the measured availability is
/// committed as a deterministic rate entry (replication means no
/// request may fail, so anything below 1.0 is a regression).
fn fleet_chaos_availability(shape: &Shape, entries: &mut Vec<Entry>) {
    const NODES: usize = 4;
    let (reference, queries) = workload(shape);
    let registry = Registry::disabled();
    let mut cfg = config(shape);
    cfg.backend = ServeBackend::Fleet {
        nodes: NODES,
        replication: 2,
        fault_spec: None,
    };
    let mut server = FabpServer::with_manual_clock(reference.clone(), cfg, &registry)
        .expect("fleet server builds");

    let mut oracle: Vec<Vec<fabp_core::hits::Hit>> = Vec::new();
    for protein in &queries {
        let aligner = FabpAligner::builder()
            .protein_query(protein)
            .threshold(Threshold::Fraction(0.9))
            .engine(Engine::Software { threads: 1 })
            .build()
            .expect("pinned query builds");
        oracle.push(aligner.search(&reference).hits);
    }

    let mut total = 0usize;
    let mut ok = 0usize;
    for victim in 0..NODES {
        server.kill_node(victim);
        for (i, protein) in queries.iter().enumerate() {
            let tenant = format!("tenant-{}", i % shape.tenants);
            server.submit(&tenant, protein).expect("queue has room");
        }
        server.advance_clock_us(1_000);
        for response in server.run_to_completion() {
            total += 1;
            if let Ok(hits) = &response.result {
                ok += 1;
                let expected = &oracle[(response.id as usize) % queries.len()];
                assert_eq!(
                    hits, expected,
                    "chaos changed hits for request {}",
                    response.id
                );
            }
        }
        server.revive_node(victim);
    }
    let availability = ok as f64 / total.max(1) as f64;
    assert!(
        (availability - 1.0).abs() < 1e-12,
        "R=2 rolling kills must not fail a request: {ok}/{total}"
    );
    entries.push(Entry::rate(
        &format!("fleet_availability_rolling_kills_{}", shape.tag),
        availability,
        format!("{total} requests served across {NODES} rolling single-node kills, R=2"),
    ));
}

/// Tracing overhead as the serving layer sees it: the disabled-context
/// record every instrumented call site pays when no trace is attached
/// to the request. The hard ≤ 2 ns budget is gated in bench_telemetry;
/// the serve snapshot carries the number so both benches stay in parity.
fn trace_overhead(entries: &mut Vec<Entry>) {
    use fabp_telemetry::{TraceContext, TraceEvent};
    const OPS: u64 = 4_000_000;
    let registry = Registry::new();
    let flight = registry.flight_recorder();
    let off = TraceContext::none();
    let started = std::time::Instant::now();
    for i in 0..OPS {
        std::hint::black_box(&flight).record(TraceEvent::new(off, "bench", i as f64, 1.0));
    }
    let disabled = started.elapsed().as_nanos() as f64 / OPS as f64;
    let ctx = TraceContext::mint(SEED, 1);
    let started = std::time::Instant::now();
    for i in 0..OPS {
        std::hint::black_box(&flight).record(TraceEvent::new(ctx, "bench", i as f64, 1.0));
    }
    let enabled = started.elapsed().as_nanos() as f64 / OPS as f64;
    entries.push(Entry::time(
        "serve_trace_disabled_ns_per_record",
        disabled,
        "flight-recorder record under a disabled context (budget <= 2 ns/op)".to_string(),
    ));
    entries.push(Entry::time(
        "serve_trace_enabled_ns_per_record",
        enabled,
        "flight-recorder record with a live trace attached".to_string(),
    ));
}

fn emit_json(mode: &str, entries: &[Entry]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"fabp-bench-serve/1\",\n");
    out.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    out.push_str(&format!("  \"seed\": {SEED},\n"));
    out.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let field = match e.kind {
            "time" => format!("\"ns_per_op\": {:.1}", e.value),
            "speedup" => format!("\"speedup\": {:.3}", e.value),
            _ => format!("\"rate\": {:.6}", e.value),
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

fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')? + start;
    Some(&line[start..end])
}

fn field_num(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..]
        .find(|c: char| c != '-' && c != '.' && !c.is_ascii_digit())
        .map(|e| e + start)
        .unwrap_or(line.len());
    line[start..end].parse().ok()
}

fn parse_entries(text: &str) -> Vec<(String, String, f64)> {
    text.lines()
        .filter_map(|line| {
            let id = field_str(line, "id")?;
            let kind = field_str(line, "kind")?;
            let value = match kind {
                "time" => field_num(line, "ns_per_op")?,
                "rate" => field_num(line, "rate")?,
                "speedup" => field_num(line, "speedup")?,
                _ => return None,
            };
            Some((id.to_string(), kind.to_string(), value))
        })
        .collect()
}

/// `time` entries may not regress beyond `tolerance`; `rate` entries may
/// not drop below `baseline × (1 − rate_slack)` where the slack is tight
/// (rates are deterministic). `speedup` entries never enter the relative
/// check — they gate only through `--min-speedup` absolute floors, the
/// repeatable form for ratios that swing on loaded runners.
fn check_against_baseline(entries: &[Entry], baseline_text: &str, tolerance: f64) -> usize {
    const RATE_SLACK: f64 = 1e-6;
    let baseline = parse_entries(baseline_text);
    let mut regressions = 0usize;
    let mut compared = 0usize;
    for e in entries {
        if e.kind == "speedup" {
            eprintln!(
                "bench_serve: note: `{}` gates via --min-speedup floors only",
                e.id
            );
            continue;
        }
        let Some((_, _, base)) = baseline
            .iter()
            .find(|(id, kind, _)| *id == e.id && *kind == e.kind)
        else {
            eprintln!("bench_serve: note: `{}` not in baseline (new entry)", e.id);
            continue;
        };
        compared += 1;
        match e.kind {
            "time" => {
                let limit = base * (1.0 + tolerance);
                if e.value > limit {
                    regressions += 1;
                    eprintln!(
                        "bench_serve: REGRESSION `{}`: {:.0} ns vs baseline {:.0} ns \
                         (+{:.1} %, limit +{:.0} %)",
                        e.id,
                        e.value,
                        base,
                        (e.value / base - 1.0) * 100.0,
                        tolerance * 100.0
                    );
                } else {
                    eprintln!(
                        "bench_serve: ok `{}`: {:.0} ns (baseline {:.0}, {:+.1} %)",
                        e.id,
                        e.value,
                        base,
                        (e.value / base - 1.0) * 100.0
                    );
                }
            }
            _ => {
                let limit = base * (1.0 - RATE_SLACK);
                if e.value < limit {
                    regressions += 1;
                    eprintln!(
                        "bench_serve: REGRESSION `{}`: rate {:.6} vs baseline {:.6}",
                        e.id, e.value, base
                    );
                } else {
                    eprintln!(
                        "bench_serve: ok `{}`: rate {:.6} (baseline {:.6})",
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
    let mut out_path = "BENCH_serve.json".to_string();
    let mut quick = false;
    let mut check = false;
    let mut baseline_path: Option<String> = None;
    let mut tolerance = 0.50f64;
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
                    .expect("--tolerance takes a fraction, e.g. 0.50")
            }
            "--min-speedup" => {
                let spec = it.next().expect("missing value for --min-speedup");
                let (id, floor) = spec
                    .split_once(':')
                    .expect("--min-speedup takes id:value, e.g. index_warm_vs_cold_quick:2.0");
                min_speedups.push((
                    id.to_string(),
                    floor.parse().expect("--min-speedup floor is a number"),
                ));
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: bench_serve [--quick] [--out BENCH_serve.json] \
                     [--min-speedup ID:FLOOR]... \
                     [--baseline FILE --check [--tolerance 0.50]]"
                );
                std::process::exit(2);
            }
            other => {
                eprintln!("unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }

    let mut entries = Vec::new();
    sustained(&QUICK, &mut entries);
    shed_burst(&QUICK, &mut entries);
    backpressure_flood(&QUICK, &mut entries);
    fleet_chaos_availability(&QUICK, &mut entries);
    index_persistence(&QUICK, &mut entries);
    index_recall(&QUICK, &mut entries);
    let mode = if quick {
        "quick"
    } else {
        sustained(&FULL, &mut entries);
        shed_burst(&FULL, &mut entries);
        backpressure_flood(&FULL, &mut entries);
        index_persistence(&FULL, &mut entries);
        index_recall(&FULL, &mut entries);
        "full"
    };
    fleet_sweep(&mut entries);
    trace_overhead(&mut entries);

    for e in &entries {
        match e.kind {
            "time" => eprintln!(
                "bench_serve: {:<34} {:>14.0} ns   ({})",
                e.id, e.value, e.note
            ),
            "speedup" => eprintln!(
                "bench_serve: {:<34} {:>13.2}x      ({})",
                e.id, e.value, e.note
            ),
            _ => eprintln!(
                "bench_serve: {:<34} {:>14.6}      ({})",
                e.id, e.value, e.note
            ),
        }
    }

    let json = emit_json(mode, &entries);
    std::fs::write(&out_path, &json).expect("write benchmark snapshot");
    eprintln!("bench_serve: snapshot written to {out_path}");

    // Absolute speedup floors: repeatable on loaded runners, and they
    // hold even when the committed baseline itself regresses.
    let mut floor_failures = 0usize;
    for (id, floor) in &min_speedups {
        match entries.iter().find(|e| e.id == *id) {
            Some(e) if e.value >= *floor => {
                eprintln!(
                    "bench_serve: floor ok `{id}`: {:.2}x >= {floor:.2}x",
                    e.value
                );
            }
            Some(e) => {
                floor_failures += 1;
                eprintln!(
                    "bench_serve: FLOOR VIOLATION `{id}`: {:.2}x < required {floor:.2}x",
                    e.value
                );
            }
            None => {
                floor_failures += 1;
                eprintln!("bench_serve: FLOOR VIOLATION `{id}`: no such entry in this run");
            }
        }
    }
    if floor_failures > 0 {
        eprintln!("bench_serve: {floor_failures} floor violation(s)");
        std::process::exit(1);
    }

    if check {
        let path = baseline_path.expect("--check requires --baseline FILE");
        let baseline_text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let regressions = check_against_baseline(&entries, &baseline_text, tolerance);
        if regressions > 0 {
            eprintln!("bench_serve: {regressions} regression(s) beyond tolerance");
            std::process::exit(1);
        }
        eprintln!(
            "bench_serve: no regressions (time ±{:.0} %, rates exact)",
            tolerance * 100.0
        );
    }
}
