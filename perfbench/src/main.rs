//! End-to-end and per-layer benchmark of FabP's two user-facing paths.
//!
//! `run.py` builds this crate and the `fabp_search` binary, then runs:
//!
//! ```text
//! fabp-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                --search-bin <path to fabp_search> --work-dir <scratch dir>
//! ```
//!
//! Workloads (inputs are generated from `--seed`):
//!
//! * `search_scan` — the `fabp_search` binary from FASTA files to the hit
//!   TSV, exhaustive scan of a multi-contig reference;
//! * `search_seeded` — the `fabp_search` binary over a persistent index
//!   with the k-mer seeded prefilter;
//! * `serve_scan` — an index-backed `FabpServer` on the software backend,
//!   submit to response, replaying `bench_serve`'s pinned request stream
//!   on a fresh server each time;
//! * `serve_fleet` — the same stream on the replicated fleet backend.
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` reports the
//! per-layer metrics, timed by spans this benchmark records around its
//! own calls into each layer. Every output is checked against the golden
//! back-translation model before it counts. The last stdout line is one
//! JSON object with the keys `correct`, `attempted`, `failed` and
//! `metrics`.

mod check;
mod search;
mod serve;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub search_bin: PathBuf,
    pub work_dir: PathBuf,
}

/// Times spent per layer and per-layer counts, averaged over a run's
/// operations. Layers a workload does not pass through stay 0.
#[derive(Debug, Default)]
pub struct Layers {
    /// Reading and parsing the query FASTA, ms per search.
    pub query_parse_ms: f64,
    /// Reference access: FASTA read and parse, or index load, ms per search.
    pub reference_ms: f64,
    /// Query encoding and aligner build, ms per search.
    pub build_ms: f64,
    /// Scan, including seeding and verification on the seeded path, ms per search.
    pub scan_ms: f64,
    /// Region merge and ranking, ms per search.
    pub merge_ms: f64,
    /// `FabpServer::submit`, ms per request.
    pub admission_ms: f64,
    /// From admission until the dispatch that serves the request starts, ms per request.
    pub queue_wait_ms: f64,
    /// The dispatch (`FabpServer::pump`) that served the request, ms per request.
    pub service_ms: f64,
    /// `service_ms` over the requests that missed the query cache, so
    /// their dispatch built the aligner or fleet.
    pub miss_service_ms: f64,
    /// Scan (search) or dispatch (serve) time per reference base per query, ns.
    pub scan_ns_per_base: f64,
    /// Share of reference bases the exact engine scanned.
    pub scanned_fraction: f64,
    /// Raw k-mer seed hits per search.
    pub seed_hits: f64,
    /// Candidate windows admitted by the prefilter per search.
    pub candidate_windows: f64,
    /// Requests per dispatch.
    pub batch_size: f64,
    /// Share of requests whose per-query artefact was already cached.
    pub query_cache_hit_rate: f64,
}

impl Layers {
    fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("query_parse_ms", self.query_parse_ms, "ms"),
            ("reference_ms", self.reference_ms, "ms"),
            ("build_ms", self.build_ms, "ms"),
            ("scan_ms", self.scan_ms, "ms"),
            ("merge_ms", self.merge_ms, "ms"),
            ("admission_ms", self.admission_ms, "ms"),
            ("queue_wait_ms", self.queue_wait_ms, "ms"),
            ("service_ms", self.service_ms, "ms"),
            ("miss_service_ms", self.miss_service_ms, "ms"),
            ("scan_ns_per_base", self.scan_ns_per_base, "ns"),
            ("scanned_fraction", self.scanned_fraction, "ratio"),
            ("seed_hits", self.seed_hits, "count"),
            ("candidate_windows", self.candidate_windows, "count"),
            ("batch_size", self.batch_size, "count"),
            ("query_cache_hit_rate", self.query_cache_hit_rate, "ratio"),
        ]
    }
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Operations (searches or requests) attempted in the measured phase.
    pub attempted: u64,
    /// Operations that errored or returned wrong hits.
    pub failed: u64,
    /// Per-operation latency, ms.
    pub latencies_ms: Vec<f64>,
    /// Duration of each repeated set-up, s.
    pub setups_s: Vec<f64>,
    pub layers: Layers,
}

/// Set-ups a run takes at least; `setup_s` is their median.
pub const MIN_SETUPS: usize = 5;

/// Whether a run should repeat its set-up now, between two operations
/// of its measured phase, `progress` (0 to 1) of the way through it.
/// Besides the one before the phase, set-ups are spread evenly over the
/// phase until two seconds of set-up have been timed (400 at most). The
/// host's speed moves over seconds, so set-ups taken in one burst would
/// describe one stretch of the run rather than the whole of it.
pub fn setup_due(setups_s: &[f64], progress: f64) -> bool {
    setups_s.len() < 400 && setups_s.iter().sum::<f64>() < 2.0 * progress.min(1.0)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `f`, adding its wall time in ms to `acc`: the benchmark's span
/// around one call into a layer.
pub fn span<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *acc += ms(start.elapsed());
    out
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values`.
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut search_bin = None;
    let mut work_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = |what: &str| format!("invalid {what} {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("seconds"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                })
            }
            "--search-bin" => search_bin = Some(PathBuf::from(&value)),
            "--work-dir" => work_dir = Some(PathBuf::from(&value)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    // Searches run inside their input directories, so the binary's path
    // must not be relative.
    let search_bin = search_bin.ok_or("--search-bin is required")?;
    let search_bin = std::path::absolute(&search_bin)
        .map_err(|e| format!("--search-bin {}: {e}", search_bin.display()))?;
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        search_bin,
        work_dir: work_dir.ok_or("--work-dir is required")?,
    })
}

fn json_metrics(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("work dir {}: {e}", args.work_dir.display()))?;
    let measured = match args.workload.as_str() {
        "search_scan" => search::run(&search::SCAN, &args)?,
        "search_seeded" => search::run(&search::SEEDED, &args)?,
        "serve_scan" => serve::run(&serve::SCAN, &args)?,
        "serve_fleet" => serve::run(&serve::FLEET, &args)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    if measured.attempted == 0 || measured.latencies_ms.is_empty() {
        return Err("no operation completed in the measured phase".into());
    }
    // Latency quantiles are printed but not reported. On a shared host
    // each core switches between a fast and a slow speed for seconds at
    // a time; across runs the low quantiles moved as much as the mean
    // and the median more. A serve request's latency is set by its
    // batch's place in the queue, so its quantiles sit on the steps of
    // that staircase, while the mean counts every batch.
    let latencies = &measured.latencies_ms;
    let metrics = if args.trace {
        measured.layers.metrics()
    } else {
        let mean = latencies.iter().sum::<f64>() / latencies.len() as f64;
        vec![
            ("latency_mean_ms", mean, "ms"),
            ("setup_s", quantile(&measured.setups_s, 0.5), "s"),
        ]
    };
    eprintln!(
        "# {}: {} operations ({} failed), latency p50 {:.3} ms, p90 {:.3} ms, {} set-ups",
        args.workload,
        measured.attempted,
        measured.failed,
        quantile(latencies, 0.5),
        quantile(latencies, 0.9),
        measured.setups_s.len()
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        measured.failed == 0,
        measured.attempted,
        measured.failed,
        json_metrics(&metrics)
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fabp-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
