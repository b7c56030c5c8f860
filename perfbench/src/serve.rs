//! `serve_scan` and `serve_fleet`: an index-backed `FabpServer` from
//! submit to response.
//!
//! The traffic is `bench_serve`'s pinned full stream: 64 distinct 16-aa
//! queries sent four times over, query `i` from tenant `i % 4`, all
//! submitted at once to a fresh server with cold caches. A quarter of
//! the requests therefore build their aligner (or fleet) and the rest
//! find it cached. The stream is replayed on a new server until the
//! run's time is up. A request's latency runs from its `submit` call to
//! the end of the `pump` call that returned its response.

use crate::check::{self, Expected, InputShape, INDEX_SHARDS, THRESHOLD};
use crate::{ms, setup_due, Args, Layers, Measured, MIN_SETUPS};
use fabp_bio::generate::PlantedDatabase;
use fabp_core::aligner::Threshold;
use fabp_core::index::{IndexBuildOptions, PrefilterMode, ReferenceIndex};
use fabp_serve::{BatchPolicy, FabpServer, Response, ServeBackend, ServeConfig};
use fabp_telemetry::Registry;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One serving workload.
pub struct ServeWorkload {
    inputs: InputShape,
    backend: ServeBackend,
}

/// `bench_serve`'s full shape, 1 Mbase, on the software backend with
/// one worker per core of the two-core host.
pub const SCAN: ServeWorkload = ServeWorkload {
    inputs: InputShape {
        queries: 64,
        query_aa: 16,
        reference_bases: 1_000_000,
        contigs: 1,
    },
    backend: ServeBackend::Software { threads: 2 },
};

/// The same stream on `bench_serve`'s chaos fleet, four nodes holding
/// every shard twice. The modelled engines cost several times the
/// software scan per base, so the reference is cut to 256 kbases.
pub const FLEET: ServeWorkload = ServeWorkload {
    inputs: InputShape {
        queries: 64,
        query_aa: 16,
        reference_bases: 256 << 10,
        contigs: 1,
    },
    backend: ServeBackend::Fleet {
        nodes: 4,
        replication: 2,
        fault_spec: None,
    },
};

/// Times the stream sends every query.
const REPEATS: usize = 4;
/// Tenants the stream is spread over.
const TENANTS: usize = 4;
/// Longest query the server admits, as in `bench_serve`.
const MAX_QUERY_AA: usize = 128;
/// Batch latency objective. `bench_serve` sets 100 ms, which a 32-query
/// dispatch here can exceed, so batch sizes would follow the host's
/// speed; far above every dispatch, batches are always the queue or
/// `max_batch`.
const SLO_US: u64 = 1_000_000;

fn tenant(query: usize) -> String {
    format!("tenant-{}", query % TENANTS)
}

/// `bench_serve`'s server configuration for a stream over `queries`.
fn config(workload: &ServeWorkload) -> ServeConfig {
    let queries = workload.inputs.queries;
    ServeConfig {
        threshold: Threshold::Fraction(THRESHOLD),
        queue_capacity: 4 * queries * REPEATS,
        policy: BatchPolicy {
            max_batch: 32,
            slo_us: SLO_US,
            ..BatchPolicy::default()
        },
        backend: workload.backend.clone(),
        query_cache: 2 * queries,
        reference_cache: 4,
        default_deadline_us: None,
        max_query_aa: MAX_QUERY_AA,
        prefilter: PrefilterMode::Off,
    }
}

fn server(index: &Arc<ReferenceIndex>, workload: &ServeWorkload) -> Result<FabpServer, String> {
    FabpServer::with_index(index.clone(), config(workload), &Registry::new())
        .map_err(|e| e.to_string())
}

/// The program's set-up: build and write the persistent index, load it,
/// and build a server.
fn set_up(
    db: &PlantedDatabase,
    workload: &ServeWorkload,
    index_path: &Path,
) -> Result<(Duration, Arc<ReferenceIndex>), String> {
    let options = IndexBuildOptions {
        overlap: 3 * MAX_QUERY_AA,
        target_shard_bases: workload.inputs.reference_bases / INDEX_SHARDS,
    };
    let start = Instant::now();
    ReferenceIndex::build_from_rna(&db.reference, options)
        .and_then(|index| index.write_to(index_path))
        .map_err(|e| e.to_string())?;
    let index = Arc::new(ReferenceIndex::load(index_path).map_err(|e| e.to_string())?);
    let built = server(&index, workload)?;
    let took = start.elapsed();
    drop(built);
    Ok((took, index))
}

/// Hits as `(position, score)`.
type Hits = Vec<(usize, u32)>;

/// Hits of a response, or `None` for an error.
fn hits_of(response: &Response) -> Option<Hits> {
    let hits = response.result.as_ref().ok()?;
    Some(hits.iter().map(|h| (h.position, h.score)).collect())
}

/// A submitted request the benchmark is waiting on.
struct Pending {
    query: usize,
    submitted: Instant,
    admitted: Instant,
}

/// What replays of the stream accumulate.
#[derive(Default)]
struct Tally {
    /// Per-request sums; averaged once the replays are over.
    layers: Layers,
    latencies_ms: Vec<f64>,
    /// Pool query and hits of every answered request.
    answers: Vec<(usize, Option<Hits>)>,
    pumps: u64,
    pumped_ms: f64,
    misses: u64,
}

/// Sends the whole stream to `server` at once and pumps it until every
/// request is answered.
fn replay(server: &mut FabpServer, db: &PlantedDatabase, tally: &mut Tally) -> Result<(), String> {
    let mut pending: HashMap<u64, Pending> = HashMap::new();
    for _ in 0..REPEATS {
        for (query, protein) in db.queries.iter().enumerate() {
            let submitted = Instant::now();
            let ticket = server
                .submit(&tenant(query), protein)
                .map_err(|e| format!("submit: {e}"))?;
            let admitted = Instant::now();
            tally.layers.admission_ms += ms(admitted - submitted);
            pending.insert(
                ticket,
                Pending {
                    query,
                    submitted,
                    admitted,
                },
            );
        }
    }
    while !pending.is_empty() {
        let began = Instant::now();
        let responses = server.pump();
        let end = Instant::now();
        if responses.is_empty() {
            return Err("pump answered nothing while requests were queued".into());
        }
        tally.pumps += 1;
        tally.pumped_ms += ms(end - began);
        for response in responses {
            let request = pending
                .remove(&response.id)
                .ok_or_else(|| format!("response to unknown ticket {}", response.id))?;
            tally.latencies_ms.push(ms(end - request.submitted));
            tally.layers.queue_wait_ms += ms(began - request.admitted);
            tally.layers.service_ms += ms(end - began);
            if !response.cached_query {
                tally.misses += 1;
                tally.layers.miss_service_ms += ms(end - began);
            }
            tally.answers.push((request.query, hits_of(&response)));
        }
    }
    Ok(())
}

pub fn run(workload: &ServeWorkload, args: &Args) -> Result<Measured, String> {
    let db = check::generate(args.seed, &workload.inputs);
    let reference = db.reference.as_slice();
    let oracle: Vec<Expected> = db
        .queries
        .iter()
        .zip(&db.regions)
        .map(|(protein, region)| Expected::new(protein, reference, &[region.position]))
        .collect();
    let wrong = |tally: &Tally| {
        tally
            .answers
            .iter()
            .filter(|(query, hits)| {
                !hits
                    .as_ref()
                    .is_some_and(|hits| oracle[*query].check_hits(reference, hits))
            })
            .count() as u64
    };
    // The measured servers use the index of the first set-up; the later
    // set-ups write theirs to another file and drop it.
    let index_path = args.work_dir.join("serve.fabpidx");
    let spare_path = args.work_dir.join("setup.fabpidx");
    let mut measured = Measured::default();
    let (took, index) = set_up(&db, workload, &index_path)?;
    measured.setups_s.push(took.as_secs_f64());
    let spare_set_up = || set_up(&db, workload, &spare_path).map(|(took, _)| took.as_secs_f64());

    // One untimed replay warms the process, as the warm-up search does
    // for the search workloads; every measured replay still starts on a
    // new server with cold caches.
    let mut warm = Tally::default();
    replay(&mut server(&index, workload)?, &db, &mut warm)?;
    if wrong(&warm) > 0 {
        return Err("the warm-up replay returned wrong hits".into());
    }

    let mut tally = Tally::default();
    let start = Instant::now();
    loop {
        replay(&mut server(&index, workload)?, &db, &mut tally)?;
        let progress = start.elapsed().as_secs_f64() / args.seconds;
        if progress >= 1.0 {
            break;
        }
        while setup_due(&measured.setups_s, progress) {
            measured.setups_s.push(spare_set_up()?);
        }
    }
    while measured.setups_s.len() < MIN_SETUPS {
        measured.setups_s.push(spare_set_up()?);
    }

    measured.attempted = tally.answers.len() as u64;
    measured.failed = wrong(&tally);
    let n = measured.attempted as f64;
    let mut layers = tally.layers;
    layers.admission_ms /= n;
    layers.queue_wait_ms /= n;
    layers.service_ms /= n;
    layers.miss_service_ms /= tally.misses.max(1) as f64;
    layers.batch_size = n / tally.pumps as f64;
    layers.query_cache_hit_rate = 1.0 - tally.misses as f64 / n;
    layers.scanned_fraction = 1.0;
    layers.scan_ns_per_base = tally.pumped_ms * 1e6 / (n * reference.len() as f64);
    measured.latencies_ms = tally.latencies_ms;
    measured.layers = layers;
    Ok(measured)
}
