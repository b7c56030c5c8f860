//! The serving loop: admission → shed → micro-batch → dispatch → respond.
//!
//! [`FabpServer`] owns one resident 2-bit packed reference database — its
//! records concatenated, scanned once per batch — and serves a
//! multi-tenant query stream against it:
//!
//! ```text
//! submit() ──► AdmissionQueue (bounded, per-tenant round-robin)
//!                 │ pump()
//!                 ▼
//!           shed expired deadlines ──► Err(DeadlineExceeded) responses
//!                 │
//!                 ▼
//!           AdaptiveBatcher picks the batch size (EWMA vs. SLO)
//!                 │
//!                 ▼
//!           backend dispatch ──► Scan: cached aligners +
//!                 │               work-stealing batch::search_prebuilt
//!                 │              Seeded: one search_index per batch
//!                 │              Fleet: cached per-query FpgaFleet, one
//!                 │               fleet::search_batch over the resident
//!                 ▼               reference, routed by the failure detector
//!           per-request Response { result, latency, … }
//! ```
//!
//! Each backend keeps its own state, chosen once at build; every one
//! reads the one resident reference and holds no copy of it.
//!
//! **Transparency invariant.** Whatever batch sizes, tenant
//! interleavings or cache states occur, the hits in a successful
//! [`Response`] are bit-identical to sequential single-query
//! [`FabpAligner`] runs over each record, in concatenated coordinates,
//! with the same threshold — batching is an execution-schedule
//! optimisation, never a semantic one. Every dispatch path applies the
//! record rule ([`retain_within_records`]), so no hit spans two records.
//! The crate's proptest pins this.
//!
//! Time is injectable: production servers run on a wall clock, tests use
//! [`FabpServer::with_manual_clock`] plus [`FabpServer::advance_clock_us`]
//! so deadline-shedding behaviour is deterministic.

use crate::batcher::{AdaptiveBatcher, BatchPolicy};
use crate::cache::{content_hash, CacheStats, LruCache};
use crate::queue::{AdmissionQueue, Request};
use fabp_bio::alphabet::Nucleotide;
use fabp_bio::fasta::PackedRecords;
use fabp_bio::seq::{PackedSeq, ProteinSeq, RnaSeq};
use fabp_core::aligner::{Engine, FabpAligner, Threshold};
use fabp_core::batch::{distinct, search_prebuilt};
use fabp_core::fleet::{place_replicas, search_batch, FpgaFleet};
use fabp_core::hits::{retain_within_records, Hit};
use fabp_core::index::{search_index, PrefilterMode, ReferenceIndex, SeedParams};
use fabp_core::slice_plan::SliceOptions;
use fabp_encoding::encoder::EncodedQuery;
use fabp_fpga::engine::EngineConfig;
use fabp_resilience::health::FailureDetector;
use fabp_resilience::{FabpError, FabpResult, FaultSchedule};
use fabp_telemetry::{
    chrome_trace_for_events, Counter, FlightRecorder, Gauge, Histogram, Registry, SloMonitor,
    SloPolicy, SloReport, SpanKind, TraceContext, TraceEvent, FLAG_CACHE_HIT, FLAG_CACHE_MISS,
    FLAG_ERROR, FLAG_RECOVERED, FLAG_SHED,
};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Salt on the trace seed for dispatch traces, keeping their ids apart
/// from the per-request ones.
const DISPATCH_TRACE_SALT: u64 = 0xBA7C_4000_0000_0001;

/// A dispatched request, whether its per-query artefact was cached,
/// whether it needed fault recovery, and its hits or error.
type Served = (Request, bool, bool, FabpResult<Vec<Hit>>);

/// Dump-on-anomaly budget: at most this many span-tree dumps are
/// retained per server instance, so a pathological workload cannot turn
/// the anomaly log into an unbounded allocation.
pub const MAX_ANOMALY_DUMPS: usize = 8;

/// Which engine pool executes dispatched batches.
#[derive(Debug, Clone)]
pub enum ServeBackend {
    /// The fast functional engine, parallelised across the batch with
    /// `threads` work-stealing workers.
    Software {
        /// Worker threads for [`search_prebuilt`] (1 = serial).
        threads: usize,
    },
    /// A modelled FPGA fleet ([`FpgaFleet`]): the reference split into
    /// one shard per node, every shard replicated on `replication` nodes
    /// with anti-affinity, primary reads routed through a persistent
    /// phi-accrual [`FailureDetector`], tail reads hedged to replicas.
    /// One fleet is built per distinct query (the query lives in
    /// flip-flops, so fleets are cached per query content hash); every
    /// read streams its shard's range of the resident reference. Health
    /// state carries across requests, so routing is steady-state —
    /// drained nodes stop receiving primaries before a request has to
    /// fail over, and a shard with no routable replica fails over to a
    /// survivor.
    Fleet {
        /// Nodes in the fleet (== shards).
        nodes: usize,
        /// Replicas per shard (anti-affinity requires
        /// `replication <= nodes`).
        replication: usize,
        /// Optional fault-schedule spec (see [`FaultSchedule::parse`],
        /// e.g. `"kill@1:50"`), parsed once at build — chaos-testing
        /// hook, `None` in production. `kill@node:beat` entries mark
        /// nodes dead in the failure detector; every other entry is
        /// injected into each read and recovered by the engine-level
        /// resilience runner.
        fault_spec: Option<String>,
    },
}

impl Default for ServeBackend {
    fn default() -> ServeBackend {
        ServeBackend::Software { threads: 1 }
    }
}

/// Serving-layer configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Alignment threshold applied to every query.
    pub threshold: Threshold,
    /// Admission-queue capacity (requests queued before
    /// [`FabpError::Overloaded`] rejections start).
    pub queue_capacity: usize,
    /// Adaptive micro-batching policy.
    pub policy: BatchPolicy,
    /// Execution backend.
    pub backend: ServeBackend,
    /// Entries in the built-aligner / built-fleet caches (per-query
    /// artefacts keyed by protein content hash).
    pub query_cache: usize,
    /// Unused: the fleet reads the resident reference and caches no
    /// shards. Kept so that existing struct literals build; it goes in
    /// a later release.
    pub reference_cache: usize,
    /// Deadline attached to [`FabpServer::submit`] requests, as a
    /// relative budget in microseconds (`None`: requests never expire).
    pub default_deadline_us: Option<u64>,
    /// Longest query accepted, amino acids; fleet backend only. The
    /// fleet sizes its shard overlap from this (`3 · max_query_aa`
    /// bases), so longer queries are rejected at submit instead of
    /// silently losing cross-shard hits.
    pub max_query_aa: usize,
    /// Prefilter routing: [`PrefilterMode::Off`] (the default) keeps
    /// the exhaustive scan; [`PrefilterMode::Seeded`] routes the
    /// software backend of an index-backed server
    /// ([`FabpServer::with_index`]) through the k-mer seed-and-verify
    /// path. `Seeded` without an index, or on the fleet backend, fails
    /// the build with [`FabpError::InvalidSpec`].
    pub prefilter: PrefilterMode,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            threshold: Threshold::Fraction(1.0),
            queue_capacity: 1_024,
            policy: BatchPolicy::default(),
            backend: ServeBackend::default(),
            query_cache: 256,
            reference_cache: 8,
            default_deadline_us: None,
            max_query_aa: 128,
            prefilter: PrefilterMode::Off,
        }
    }
}

/// The server's answer to one request (successful, failed, or shed).
#[derive(Debug, Clone)]
pub struct Response {
    /// Ticket returned by [`FabpServer::submit`].
    pub id: u64,
    /// Tenant the request belonged to.
    pub tenant: String,
    /// Merged hits in concatenated reference coordinates, each window
    /// inside one record, or the typed error
    /// that ended the request ([`FabpError::DeadlineExceeded`] for shed
    /// requests, build/dispatch errors otherwise).
    pub result: FabpResult<Vec<Hit>>,
    /// Queue + service time on the server clock, microseconds.
    pub latency_us: u64,
    /// Size of the dispatch batch this request rode in (0 when shed
    /// before dispatch).
    pub batch_size: usize,
    /// Whether the per-query artefact (aligner or fleet) was already
    /// resident in the cache.
    pub cached_query: bool,
}

/// One captured anomaly: a request that exceeded the latency objective,
/// missed its deadline, failed dispatch, or needed fault recovery. The
/// request's whole span tree is exported as a ready-to-write Chrome
/// trace so the slow/failed request can be inspected span by span.
#[derive(Debug, Clone)]
pub struct AnomalyDump {
    /// Ticket of the anomalous request.
    pub id: u64,
    /// Tenant the request belonged to.
    pub tenant: String,
    /// Trace id shared by every span in `chrome_trace`.
    pub trace_id: u64,
    /// Why the dump was taken: `"deadline_exceeded"`,
    /// `"dispatch_error"`, `"fault_recovery"`, or `"slo_exceeded"`.
    pub reason: &'static str,
    /// Chrome trace-event JSON for the request's span tree.
    pub chrome_trace: String,
}

/// Aggregate counters since server construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests accepted by [`FabpServer::submit`].
    pub submitted: u64,
    /// Requests rejected with [`FabpError::Overloaded`] or a submit-time
    /// validation error.
    pub rejected: u64,
    /// Responses delivered with `Ok` hits.
    pub served_ok: u64,
    /// Responses delivered with a dispatch/build error.
    pub served_err: u64,
    /// Requests shed for an expired deadline.
    pub shed: u64,
    /// Dispatch batches executed.
    pub batches: u64,
    /// Largest batch dispatched.
    pub peak_batch: usize,
    /// Built-aligner / built-fleet cache counters (zero on the seeded
    /// backend, which builds no per-query artefact).
    pub query_cache: CacheStats,
    /// Hedged duplicate reads issued by the fleet backend.
    pub hedges: u64,
    /// Hedges that beat their primary.
    pub hedge_wins: u64,
    /// Losing reads cancelled after the hedge race resolved.
    pub cancels: u64,
    /// Shards served off-placement because every replica was drained.
    pub failovers: u64,
    /// Requests shed by brownout tenant-priority shedding.
    pub brownout_shed: u64,
}

/// Injectable time source: wall for production, manual for tests.
#[derive(Debug)]
enum Clock {
    Wall(Instant),
    Manual(u64),
}

impl Clock {
    fn now_us(&self) -> u64 {
        match self {
            Clock::Wall(epoch) => epoch.elapsed().as_micros() as u64,
            Clock::Manual(t) => *t,
        }
    }
}

/// What one serving backend keeps between dispatches, chosen once when
/// the server is built.
#[derive(Debug)]
enum Backend {
    /// The exhaustive software scan.
    Scan {
        /// Worker threads for [`search_prebuilt`].
        threads: usize,
        /// Built aligners, keyed by protein hash.
        aligners: LruCache<Arc<FabpAligner>>,
    },
    /// Seed-and-verify over the index the server was built from.
    Seeded {
        /// Worker threads for [`search_index`].
        threads: usize,
        /// The persistent index; its words are the resident reference.
        index: Arc<ReferenceIndex>,
    },
    /// The modelled fleet.
    Fleet(FleetState),
}

/// The fleet backend's state.
#[derive(Debug)]
struct FleetState {
    nodes: usize,
    replication: usize,
    /// Persistent across requests, which makes routing steady-state:
    /// EWMA latency, suspicion and probation streaks carry over.
    detector: FailureDetector,
    /// The fault schedule, parsed once; its node kills are already in
    /// `detector`.
    faults: FaultSchedule,
    /// Built fleets, keyed by protein hash.
    fleets: LruCache<Arc<FpgaFleet>>,
}

impl Backend {
    /// The state `config` selects; `index` is the server's index, if it
    /// has one.
    fn new(
        config: &ServeConfig,
        index: Option<&Arc<ReferenceIndex>>,
        registry: &Registry,
    ) -> FabpResult<Backend> {
        match (&config.backend, config.prefilter, index) {
            (&ServeBackend::Software { threads }, PrefilterMode::Off, _) => {
                let aligners = LruCache::new("query", config.query_cache, registry);
                Ok(Backend::Scan { threads, aligners })
            }
            (&ServeBackend::Software { threads }, PrefilterMode::Seeded, Some(index)) => {
                let index = Arc::clone(index);
                Ok(Backend::Seeded { threads, index })
            }
            (ServeBackend::Software { .. }, PrefilterMode::Seeded, None) => Err(
                FabpError::InvalidSpec("the seeded prefilter needs an index (with_index)".into()),
            ),
            (ServeBackend::Fleet { .. }, PrefilterMode::Seeded, _) => Err(FabpError::InvalidSpec(
                "the seeded prefilter runs on the software backend only".into(),
            )),
            (
                ServeBackend::Fleet {
                    nodes,
                    replication,
                    fault_spec,
                },
                PrefilterMode::Off,
                _,
            ) => {
                let spec = fault_spec.as_deref();
                FleetState::new(*nodes, *replication, spec, config, registry).map(Backend::Fleet)
            }
        }
    }
}

impl FleetState {
    /// A fleet of `nodes` holding each shard `replication` times, with
    /// `fault_spec`'s node kills recorded in its detector.
    fn new(
        nodes: usize,
        replication: usize,
        fault_spec: Option<&str>,
        config: &ServeConfig,
        registry: &Registry,
    ) -> FabpResult<FleetState> {
        // Fail a zero-node fleet, an unsatisfiable replication factor or
        // a malformed fault spec at build, not on every dispatch.
        place_replicas(nodes, nodes, replication)?;
        let faults = match fault_spec {
            Some(spec) => FaultSchedule::parse(spec)?,
            None => FaultSchedule::new(),
        };
        let mut detector = FailureDetector::with_defaults(nodes, registry);
        for (node, beat) in faults.node_kills() {
            if node >= nodes {
                let msg = format!("`kill@{node}:{beat}`: the fleet has {nodes} nodes");
                return Err(FabpError::InvalidSpec(msg));
            }
            detector.record_kill(node);
        }
        registry
            .gauge("fabp_fleet_nodes", "Nodes in the modelled fleet")
            .set(nodes as i64);
        registry
            .gauge("fabp_fleet_replication", "Replicas per shard")
            .set(replication as i64);
        Ok(FleetState {
            nodes,
            replication,
            detector,
            faults,
            fleets: LruCache::new("fleet", config.query_cache, registry),
        })
    }
}

/// A long-running query-serving instance over one resident reference.
#[derive(Debug)]
pub struct FabpServer {
    /// The resident reference, 2-bit packed: packed once from an
    /// [`RnaSeq`], or shared with the persistent index.
    reference: Arc<PackedSeq>,
    /// The records' base ranges in `reference`: no served hit crosses
    /// one's end.
    records: Arc<[Range<usize>]>,
    config: ServeConfig,
    registry: Registry,
    clock: Clock,
    next_id: u64,
    queue: AdmissionQueue,
    batcher: AdaptiveBatcher,
    backend: Backend,
    /// Per-tenant brownout priority (higher survives longer); unlisted
    /// tenants default to 0.
    tenant_priority: HashMap<String, i32>,
    /// Whether the server is draining: queued and in-flight work
    /// completes, new submits are rejected.
    draining: bool,
    /// Exported drain state (1 while draining).
    drain_gauge: Gauge,
    stats: ServerStats,
    latency_hist: Histogram,
    batch_hist: Histogram,
    served_ctr: Counter,
    failed_ctr: Counter,
    /// Registry's flight recorder; every request's spans land here.
    flight: FlightRecorder,
    /// Seed for deterministic per-request trace-id minting.
    trace_seed: u64,
    slo: SloMonitor,
    anomaly_dumps: Vec<AnomalyDump>,
    anomaly_ctr: Counter,
}

impl FabpServer {
    /// Builds a wall-clock server over `reference`, packed once, as one
    /// record.
    ///
    /// # Errors
    ///
    /// [`FabpError::InvalidShardPlan`] for a zero-node fleet or an
    /// unsatisfiable replication factor, and
    /// [`FabpError::InvalidSpec`] for a malformed fault spec, one that
    /// kills a node the fleet does not have, or the seeded prefilter
    /// (which needs [`FabpServer::with_index`]).
    pub fn new(
        reference: RnaSeq,
        config: ServeConfig,
        registry: &Registry,
    ) -> FabpResult<FabpServer> {
        let records = PackedRecords::one("", PackedSeq::from_rna(&reference));
        FabpServer::with_packed(records, config, registry)
    }

    /// [`FabpServer::new`] over records that are already packed (a FASTA
    /// file read by [`read_packed`](fabp_bio::fasta::read_packed), say),
    /// their bases held as they are.
    ///
    /// # Errors
    ///
    /// As [`FabpServer::new`].
    pub fn with_packed(
        reference: PackedRecords,
        config: ServeConfig,
        registry: &Registry,
    ) -> FabpResult<FabpServer> {
        let key = content_hash(reference.bases.iter().map(Nucleotide::code2));
        let clock = Clock::Wall(Instant::now());
        let (packed, records) = (Arc::new(reference.bases), reference.ranges.into());
        FabpServer::build(packed, records, None, key, config, registry, clock)
    }

    /// [`FabpServer::new`] with a manually advanced clock starting at 0 —
    /// deadline behaviour becomes deterministic for tests.
    ///
    /// # Errors
    ///
    /// As [`FabpServer::new`].
    pub fn with_manual_clock(
        reference: RnaSeq,
        config: ServeConfig,
        registry: &Registry,
    ) -> FabpResult<FabpServer> {
        let key = content_hash(reference.iter().map(|&b| b as u8));
        let records = PackedRecords::one("", PackedSeq::from_rna(&reference));
        let (packed, ranges) = (Arc::new(records.bases), records.ranges.into());
        let clock = Clock::Manual(0);
        FabpServer::build(packed, ranges, None, key, config, registry, clock)
    }

    /// Builds a wall-clock server over a loaded persistent index, sharing
    /// its packed words and serving its records. Trace ids derive from
    /// [`ReferenceIndex::fingerprint`] — no O(n) re-hash of the bases — and
    /// [`ServeConfig::prefilter`] selects between the exhaustive scan
    /// and the seeded seed-and-verify dispatch on the software backend.
    ///
    /// # Errors
    ///
    /// As [`FabpServer::new`]; here the seeded prefilter fails the build
    /// only on the fleet backend.
    pub fn with_index(
        index: Arc<ReferenceIndex>,
        config: ServeConfig,
        registry: &Registry,
    ) -> FabpResult<FabpServer> {
        let (key, clock) = (index.fingerprint(), Clock::Wall(Instant::now()));
        let (words, records) = (Arc::clone(index.reference()), index.records().into());
        FabpServer::build(words, records, Some(&index), key, config, registry, clock)
    }

    /// Builds a server over `reference` and its `records`, with the
    /// backend state `config` selects over `index`. Trace ids derive
    /// from `reference_key`, which the caller takes from wherever it
    /// already has one: a content hash of the bases, or an index
    /// fingerprint.
    fn build(
        reference: Arc<PackedSeq>,
        records: Arc<[Range<usize>]>,
        index: Option<&Arc<ReferenceIndex>>,
        reference_key: u64,
        config: ServeConfig,
        registry: &Registry,
        clock: Clock,
    ) -> FabpResult<FabpServer> {
        let backend = Backend::new(&config, index, registry)?;
        // The latency objective the batcher already steers for doubles
        // as the SLO the burn-rate monitor holds the server to.
        let slo = SloMonitor::new(
            SloPolicy::with_latency_objective(config.policy.slo_us),
            registry,
        );
        Ok(FabpServer {
            flight: registry.flight_recorder(),
            // Deterministic given the reference: the same server setup
            // mints the same trace ids for the same ticket numbers.
            trace_seed: 0xFAB6_0006 ^ reference_key,
            slo,
            anomaly_dumps: Vec::new(),
            anomaly_ctr: registry.counter(
                "fabp_serve_anomaly_dumps_total",
                "Span-tree dumps captured for anomalous requests",
            ),
            queue: AdmissionQueue::new(config.queue_capacity, registry),
            batcher: AdaptiveBatcher::new(config.policy, registry),
            backend,
            tenant_priority: HashMap::new(),
            draining: false,
            drain_gauge: registry.gauge(
                "fabp_serve_draining",
                "1 while the server is draining (rejecting new submits)",
            ),
            latency_hist: registry.histogram(
                "fabp_serve_latency_us",
                "Per-request submit-to-response latency, microseconds",
            ),
            batch_hist: registry.histogram(
                "fabp_serve_batch_size",
                "Queries per dispatched micro-batch",
            ),
            served_ctr: registry.counter(
                "fabp_serve_served_total",
                "Responses delivered with Ok hits",
            ),
            failed_ctr: registry.counter(
                "fabp_serve_failed_total",
                "Responses delivered with an error (shed or dispatch failure)",
            ),
            reference,
            records,
            config,
            registry: registry.clone(),
            clock,
            next_id: 0,
            stats: ServerStats::default(),
        })
    }

    /// The server's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Requests queued and not yet dispatched.
    pub fn queue_depth(&self) -> usize {
        self.queue.depth()
    }

    /// Aggregate counters, the query cache's as of the last dispatch.
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// Server-clock time, microseconds since construction.
    pub fn now_us(&self) -> u64 {
        self.clock.now_us()
    }

    /// Advances a manual clock by `delta_us` (no-op on a wall clock).
    pub fn advance_clock_us(&mut self, delta_us: u64) {
        if let Clock::Manual(t) = &mut self.clock {
            *t += delta_us;
        }
    }

    /// Sets `tenant`'s brownout priority (default 0). When surviving
    /// fleet capacity drops below queued demand, the lowest-priority
    /// tenants' newest requests are shed first.
    pub fn set_tenant_priority(&mut self, tenant: &str, priority: i32) {
        self.tenant_priority.insert(tenant.to_string(), priority);
    }

    /// Begins a graceful drain: from now on [`FabpServer::submit`]
    /// rejects with [`FabpError::Draining`], while queued and in-flight
    /// requests run to completion (keep pumping until
    /// [`FabpServer::is_drained`]).
    pub fn begin_drain(&mut self) {
        self.draining = true;
        self.drain_gauge.set(1);
    }

    /// Whether a drain has been requested.
    pub fn is_draining(&self) -> bool {
        self.draining
    }

    /// Whether the drain finished: draining and nothing left queued.
    pub fn is_drained(&self) -> bool {
        self.draining && self.queue.is_empty()
    }

    /// Chaos hook: marks fleet node `node` dead in the failure detector
    /// (no-op on non-fleet backends). Subsequent dispatches route around
    /// it and [`FabpServer::pump`] sheds by brownout if demand exceeds
    /// surviving capacity.
    pub fn kill_node(&mut self, node: usize) {
        if let Backend::Fleet(fleet) = &mut self.backend {
            fleet.detector.record_kill(node);
        }
    }

    /// Chaos hook: revives a killed fleet node into probation; it earns
    /// back primary routing through probe successes (hedges land on it
    /// first).
    pub fn revive_node(&mut self, node: usize) {
        if let Backend::Fleet(fleet) = &mut self.backend {
            fleet.detector.revive(node);
        }
    }

    /// Nodes currently accepting primary reads (`None` on non-fleet
    /// backends).
    pub fn routable_nodes(&self) -> Option<usize> {
        self.failure_detector().map(FailureDetector::routable_count)
    }

    /// Read access to the fleet's failure detector, when the backend
    /// has one.
    pub fn failure_detector(&self) -> Option<&FailureDetector> {
        match &self.backend {
            Backend::Fleet(fleet) => Some(&fleet.detector),
            Backend::Scan { .. } | Backend::Seeded { .. } => None,
        }
    }

    /// Submits a query under the configured default deadline budget.
    /// Returns the ticket to match against [`Response::id`].
    ///
    /// # Errors
    ///
    /// [`FabpError::Draining`] once a drain has begun,
    /// [`FabpError::EmptyQuery`] for an empty protein,
    /// [`FabpError::InvalidShardPlan`] for a query longer than
    /// [`ServeConfig::max_query_aa`] on the fleet backend,
    /// and [`FabpError::Overloaded`] when the admission queue is full.
    pub fn submit(&mut self, tenant: &str, protein: &ProteinSeq) -> FabpResult<u64> {
        let deadline = self
            .config
            .default_deadline_us
            .map(|budget| self.clock.now_us().saturating_add(budget));
        self.submit_with_deadline(tenant, protein, deadline)
    }

    /// [`FabpServer::submit`] with an explicit absolute deadline on the
    /// server clock (`None`: never expires).
    ///
    /// # Errors
    ///
    /// As [`FabpServer::submit`].
    pub fn submit_with_deadline(
        &mut self,
        tenant: &str,
        protein: &ProteinSeq,
        deadline_us: Option<u64>,
    ) -> FabpResult<u64> {
        if self.draining {
            self.stats.rejected += 1;
            return Err(FabpError::Draining);
        }
        if protein.is_empty() {
            self.stats.rejected += 1;
            return Err(FabpError::EmptyQuery);
        }
        if matches!(self.backend, Backend::Fleet(_)) && protein.len() > self.config.max_query_aa {
            self.stats.rejected += 1;
            return Err(FabpError::InvalidShardPlan(format!(
                "query of {} aa exceeds max_query_aa {} the shard overlap was sized for",
                protein.len(),
                self.config.max_query_aa
            )));
        }
        let id = self.next_id;
        let request = Request {
            id,
            tenant: tenant.to_string(),
            protein: protein.clone(),
            deadline_us,
            submitted_us: self.clock.now_us(),
            trace: TraceContext::mint(self.trace_seed, id),
        };
        match self.queue.try_admit(request) {
            Ok(()) => {
                self.next_id += 1;
                self.stats.submitted += 1;
                Ok(id)
            }
            Err(e) => {
                self.stats.rejected += 1;
                Err(e)
            }
        }
    }

    /// Runs one scheduling round: sheds expired requests, dispatches one
    /// adaptively sized micro-batch, and returns every response produced
    /// (shed + served). Returns an empty vector when the queue is idle.
    pub fn pump(&mut self) -> Vec<Response> {
        let now = self.clock.now_us();
        let mut responses = Vec::new();
        self.shed_for_brownout(now, &mut responses);
        let dequeue_start = Instant::now();
        let target = self.batcher.target_batch(self.queue.depth());
        let (batch, shed) = self.queue.take_batch(target, now);
        let dequeue_us = dequeue_start.elapsed().as_secs_f64() * 1e6;

        responses.reserve(batch.len() + shed.len());
        for (request, error) in shed {
            self.stats.shed += 1;
            responses.push(self.answer_unserved(request, now, error, "deadline_exceeded"));
        }
        if batch.is_empty() {
            return responses;
        }

        // Queue-wait spans close at dispatch time; the batch id links
        // every request coalesced into this dispatch.
        let batch_id = self.stats.batches;
        for request in &batch {
            self.flight.record(
                TraceEvent::new(
                    request.trace.child(SpanKind::Stage, 0),
                    "queue_wait",
                    request.submitted_us as f64,
                    now.saturating_sub(request.submitted_us) as f64,
                )
                .with_arg(batch_id),
            );
        }

        let exec_start = Instant::now();
        let batch_size = batch.len();
        let dispatch = Dispatch {
            reference: &self.reference,
            records: &self.records,
            config: &self.config,
            registry: &self.registry,
            flight: &self.flight,
            now_us: now,
            start_us: self.clock.now_us() as f64,
        };
        let executed = match &mut self.backend {
            Backend::Scan { threads, aligners } => {
                dispatch.scan(batch, *threads, aligners, &mut self.stats)
            }
            Backend::Seeded { threads, index } => dispatch.seeded(batch, *threads, index),
            Backend::Fleet(fleet) => dispatch.fleet(batch, fleet, &mut self.stats),
        };
        let exec_us = exec_start.elapsed().as_secs_f64() * 1e6;
        self.batcher.observe(batch_size, exec_us);
        self.batch_hist.observe(batch_size as u64);
        self.stats.batches += 1;
        self.stats.peak_batch = self.stats.peak_batch.max(batch_size);
        // Each dispatch is a trace of its own, so an anomaly dump (one
        // request's trace) never holds the batch tree.
        self.flight.record_stages(
            TraceContext::mint(self.trace_seed ^ DISPATCH_TRACE_SALT, batch_id),
            "fabp_serve_batch",
            now as f64,
            &[("dequeue", dequeue_us), ("execute", exec_us)],
        );

        let done = self.clock.now_us();
        let slo_us = self.config.policy.slo_us;
        for (request, cached_query, recovered, result) in executed {
            let (ok, trace) = (result.is_ok(), request.trace);
            if ok {
                self.stats.served_ok += 1;
                self.served_ctr.inc();
            } else {
                self.stats.served_err += 1;
                self.failed_ctr.inc();
            }
            let latency_us = done.saturating_sub(request.submitted_us);
            self.latency_hist.observe_traced(latency_us, trace.trace_id);
            let batch_span = TraceEvent::new(
                trace.child(SpanKind::Stage, 1),
                "batch",
                now as f64,
                exec_us,
            );
            self.flight.record(batch_span.with_arg(batch_id));
            let error = if ok { 0 } else { FLAG_ERROR };
            let flags = error | if recovered { FLAG_RECOVERED } else { 0 };
            let (start_us, dur_us) = (request.submitted_us as f64, latency_us as f64);
            let root = TraceEvent::new(trace, "request", start_us, dur_us).with_arg(request.id);
            self.flight.record(root.with_flags(flags));
            self.slo.observe(&request.tenant, done, latency_us, ok);
            let anomaly = if !ok {
                Some("dispatch_error")
            } else if recovered {
                Some("fault_recovery")
            } else if latency_us > slo_us {
                Some("slo_exceeded")
            } else {
                None
            };
            if let Some(reason) = anomaly {
                self.capture_anomaly(&request.tenant, request.id, trace.trace_id, reason);
            }
            responses.push(Response {
                id: request.id,
                tenant: request.tenant,
                result,
                latency_us,
                batch_size,
                cached_query,
            });
        }
        responses
    }

    /// Brownout: when the fleet is degraded (serving < total nodes,
    /// where "serving" counts routable plus probation nodes) and queued
    /// demand exceeds the capacity the survivors can carry
    /// (`queue_capacity` scaled by the surviving fraction), sheds the
    /// lowest-tenant-priority requests — newest first, so each tenant's
    /// oldest work keeps its place — and answers them with
    /// [`FabpError::Brownout`]. No-op on non-fleet backends and on a
    /// healthy fleet.
    fn shed_for_brownout(&mut self, now: u64, responses: &mut Vec<Response>) {
        let Backend::Fleet(fleet) = &self.backend else {
            return;
        };
        let (serving, nodes) = (fleet.detector.serving_count(), fleet.nodes);
        if serving >= nodes {
            return;
        }
        let allowed = self.config.queue_capacity * serving / nodes;
        if self.queue.depth() <= allowed {
            return;
        }
        let priorities = &self.tenant_priority;
        let shed = self.queue.shed_lowest_priority(allowed, |tenant| {
            priorities.get(tenant).copied().unwrap_or(0)
        });
        for request in shed {
            self.stats.brownout_shed += 1;
            let error = FabpError::Brownout {
                routable_nodes: serving,
                fleet_nodes: nodes,
            };
            responses.push(self.answer_unserved(request, now, error, "brownout"));
        }
    }

    /// Answers `request` with `error` instead of dispatching it: records
    /// its shed spans, latency and SLO miss, and dumps its trace as a
    /// `reason` anomaly.
    fn answer_unserved(
        &mut self,
        request: Request,
        now: u64,
        error: FabpError,
        reason: &'static str,
    ) -> Response {
        self.failed_ctr.inc();
        let latency_us = now.saturating_sub(request.submitted_us);
        self.latency_hist
            .observe_traced(latency_us, request.trace.trace_id);
        let (start_us, dur_us) = (request.submitted_us as f64, latency_us as f64);
        self.flight.record(
            TraceEvent::new(
                request.trace.child(SpanKind::Stage, 0),
                "queue_wait",
                start_us,
                dur_us,
            )
            .with_flags(FLAG_SHED),
        );
        self.flight.record(
            TraceEvent::new(request.trace, "request", start_us, dur_us)
                .with_arg(request.id)
                .with_flags(FLAG_SHED | FLAG_ERROR),
        );
        self.slo.observe(&request.tenant, now, latency_us, false);
        let trace_id = request.trace.trace_id;
        self.capture_anomaly(&request.tenant, request.id, trace_id, reason);
        Response {
            id: request.id,
            tenant: request.tenant,
            result: Err(error),
            latency_us,
            batch_size: 0,
            cached_query: false,
        }
    }

    /// Captures one anomalous request's span tree as a Chrome trace,
    /// up to the [`MAX_ANOMALY_DUMPS`] budget. A request whose events
    /// already rotated out of the flight recorder yields no dump.
    fn capture_anomaly(&mut self, tenant: &str, id: u64, trace_id: u64, reason: &'static str) {
        if self.anomaly_dumps.len() >= MAX_ANOMALY_DUMPS {
            return;
        }
        let events = self.flight.events_for(trace_id);
        if events.is_empty() {
            return;
        }
        self.anomaly_ctr.inc();
        self.anomaly_dumps.push(AnomalyDump {
            id,
            tenant: tenant.to_string(),
            trace_id,
            reason,
            chrome_trace: chrome_trace_for_events(&events),
        });
    }

    /// Span-tree dumps captured for anomalous requests, oldest first.
    pub fn anomaly_dumps(&self) -> &[AnomalyDump] {
        &self.anomaly_dumps
    }

    /// The flight recorder every request's spans are recorded into.
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Burn-rate report against the configured SLO, as of the server
    /// clock now. Also refreshes the exported SLO gauges.
    pub fn slo_report(&self) -> SloReport {
        self.slo.report(self.clock.now_us())
    }

    /// Pumps until the queue drains, returning every response produced.
    pub fn run_to_completion(&mut self) -> Vec<Response> {
        let mut responses = Vec::new();
        while !self.queue.is_empty() {
            responses.extend(self.pump());
        }
        responses
    }
}

/// The host's cores, read once per process (the read costs tens of
/// microseconds): the fleet's scan phase runs one worker per modelled
/// board, capped by them.
fn host_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// What a dispatch reads from the server besides its backend's state.
struct Dispatch<'a> {
    reference: &'a PackedSeq,
    records: &'a [Range<usize>],
    config: &'a ServeConfig,
    registry: &'a Registry,
    flight: &'a FlightRecorder,
    /// Server clock when the batch left the queue, microseconds.
    now_us: u64,
    /// Server clock when the dispatch started: the start of its spans.
    start_us: f64,
}

impl Dispatch<'_> {
    /// Scan dispatch: cached aligners + one work-stealing batch run, each
    /// distinct aligner scanned once however many requests share it.
    fn scan(
        &self,
        batch: Vec<Request>,
        threads: usize,
        aligners: &mut LruCache<Arc<FabpAligner>>,
        stats: &mut ServerStats,
    ) -> Vec<Served> {
        let threshold = self.config.threshold;
        // Resolve every request to a cached/built aligner (or a build
        // error) first, so one bad query cannot fail its batch-mates.
        let mut prepared: Vec<(Request, bool, FabpResult<Arc<FabpAligner>>)> = Vec::new();
        for request in batch {
            let key = content_hash(request.protein.iter().map(|&aa| aa as u8));
            let cached = aligners.contains(key);
            self.record_query_cache(request.trace.child(SpanKind::Stage, 1), cached);
            let built = aligners.try_get_or_insert_with(key, || {
                FabpAligner::builder()
                    .protein_query(&request.protein)
                    .threshold(threshold)
                    .engine(Engine::Software { threads: 1 })
                    .build()
                    .map(Arc::new)
                    .map_err(FabpError::from)
            });
            prepared.push((request, cached, built));
        }
        stats.query_cache = aligners.stats();
        let runnable: Vec<Arc<FabpAligner>> = prepared
            .iter()
            .filter_map(|(_, _, built)| built.as_ref().ok().cloned())
            .collect();
        // A repeated query resolves to the one cached aligner.
        let (firsts, slot_of) = distinct(&runnable, Arc::as_ptr);
        let unique: Vec<&FabpAligner> = firsts.iter().map(|&i| runnable[i].as_ref()).collect();
        let align_start = Instant::now();
        let (outcomes, _) =
            search_prebuilt(&unique, self.reference, threads, SliceOptions::default());
        let align_us = align_start.elapsed().as_secs_f64() * 1e6;
        let mut slots = slot_of.into_iter();
        prepared
            .into_iter()
            .map(|(request, cached, built)| {
                let missing = "batch dispatch returned fewer outcomes than aligners";
                let result = built
                    .and_then(|_| {
                        slots
                            .next()
                            .and_then(|slot| outcomes.get(slot))
                            .ok_or_else(|| FabpError::Internal(missing.into()))
                    })
                    .map(|outcome| {
                        self.record_work(request.trace, "align", align_us);
                        let mut hits = outcome.hits.clone();
                        retain_within_records(&mut hits, outcome.query_len, self.records);
                        hits
                    });
                (request, cached, false, result)
            })
            .collect()
    }

    /// Seeded dispatch: the whole batch rides one [`search_index`] call
    /// — per slice of the resident reference, one three-frame
    /// translation pass seeds every query's exact words, then the exact
    /// engine verifies only the coalesced candidate regions, and the
    /// index's records mask the hits. Seeding is lossless, so hits are
    /// bit-identical to the exhaustive scan's (the serving transparency
    /// invariant).
    fn seeded(&self, batch: Vec<Request>, threads: usize, index: &ReferenceIndex) -> Vec<Served> {
        let proteins: Vec<ProteinSeq> = batch.iter().map(|r| r.protein.clone()).collect();
        let verify_start = Instant::now();
        let searched = search_index(
            index,
            &proteins,
            self.config.threshold,
            PrefilterMode::Seeded,
            SeedParams::default(),
            threads,
        );
        let verify_us = verify_start.elapsed().as_secs_f64() * 1e6;
        let mut per_query = searched.map(|(hits, _stats)| hits.into_iter());
        batch
            .into_iter()
            .map(|request| {
                let missing = "index dispatch returned fewer hit lists than queries";
                let result = match &mut per_query {
                    Ok(hits) => hits
                        .next()
                        .ok_or_else(|| FabpError::Internal(missing.into())),
                    Err(e) => Err(e.clone()),
                };
                if result.is_ok() {
                    self.record_work(request.trace, "seed_verify", verify_us);
                }
                (request, false, false, result)
            })
            .collect()
    }

    /// Fleet dispatch: every request first resolves its fleet, in request
    /// order — the cache lookup, its `query_cache` span and the build —
    /// so one bad query cannot fail its batch-mates; then the built
    /// fleets ride one [`search_batch`] call over the resident
    /// reference. Its scan phase scores each distinct query once, on one
    /// worker per modelled board, capped by the host's cores; its control
    /// phase routes every request through the server's persistent
    /// failure detector back-to-back, as on hardware (the query lives in
    /// flip-flops — reloading it is microseconds against a
    /// multi-millisecond scan). Every completion feeds the detector's
    /// EWMA statistics, so health state (and with it the p95 hedge
    /// budget) evolves across requests. A request counts as recovered
    /// when a shard failed over or the engine-level faults of the
    /// schedule were recovered.
    fn fleet(
        &self,
        batch: Vec<Request>,
        fleet: &mut FleetState,
        stats: &mut ServerStats,
    ) -> Vec<Served> {
        let threshold = self.config.threshold;
        let (nodes, replication, total) = (fleet.nodes, fleet.replication, self.reference.len());
        // Overlap sized for the longest admissible query's window (3
        // bases per residue); the shared merge removes the cross-shard
        // duplicates it creates.
        let overlap = 3 * self.config.max_query_aa;
        let prepared: Vec<(Request, bool, FabpResult<Arc<FpgaFleet>>)> = batch
            .into_iter()
            .map(|request| {
                let key = content_hash(request.protein.iter().map(|&aa| aa as u8));
                let cached = fleet.fleets.contains(key);
                self.record_query_cache(request.trace.child(SpanKind::Stage, 1), cached);
                let built = fleet.fleets.try_get_or_insert_with(key, || {
                    let query = EncodedQuery::from_protein(&request.protein);
                    let config = EngineConfig::kintex7(threshold.resolve(query.len()));
                    FpgaFleet::homogeneous(&query, &config, nodes, replication, total, overlap)
                        .map(Arc::new)
                });
                (request, cached, built)
            })
            .collect();
        stats.query_cache = fleet.fleets.stats();
        // Scatter spans hang off the batch span, so the dump reads
        // submit → queue → batch → per-shard work.
        let requests: Vec<(&FpgaFleet, TraceContext)> = prepared
            .iter()
            .filter_map(|(request, _, built)| {
                let built = built.as_ref().ok()?;
                Some((built.as_ref(), request.trace.child(SpanKind::Stage, 1)))
            })
            .collect();
        let mut outcomes = search_batch(
            &requests,
            self.reference,
            &fleet.faults,
            &mut fleet.detector,
            self.now_us,
            self.registry,
            self.flight,
            self.start_us,
            nodes.min(host_cores()),
        )
        .into_iter();
        prepared
            .into_iter()
            .map(|(request, cached, built)| {
                let missing = "fleet dispatch returned fewer outcomes than fleets";
                let mut recovered = false;
                let result = built
                    .and_then(|_| {
                        outcomes
                            .next()
                            .unwrap_or_else(|| Err(FabpError::Internal(missing.into())))
                    })
                    .map(|mut outcome| {
                        recovered = outcome.failovers > 0 || outcome.report.recovered > 0;
                        stats.hedges += u64::from(outcome.hedges);
                        stats.hedge_wins += u64::from(outcome.hedge_wins);
                        stats.cancels += u64::from(outcome.cancels);
                        stats.failovers += u64::from(outcome.failovers);
                        let window = 3 * request.protein.len();
                        retain_within_records(&mut outcome.hits, window, self.records);
                        outcome.hits
                    });
                (request, cached, recovered, result)
            })
            .collect()
    }

    /// Records whether a request's per-query artefact was cached, under
    /// its batch span `ctx`.
    fn record_query_cache(&self, ctx: TraceContext, cached: bool) {
        let flags = if cached {
            FLAG_CACHE_HIT
        } else {
            FLAG_CACHE_MISS
        };
        let event = TraceEvent::new(
            ctx.child(SpanKind::QueryCache, 0),
            "query_cache",
            self.start_us,
            1.0,
        );
        self.flight.record(event.with_flags(flags));
    }

    /// Records a request's measured dispatch work `name` under its batch
    /// span.
    fn record_work(&self, trace: TraceContext, name: &'static str, dur_us: f64) {
        let event = TraceEvent::new(
            trace.child(SpanKind::Stage, 1).child(SpanKind::Work, 0),
            name,
            self.start_us,
            dur_us,
        );
        self.flight.record(event.with_track(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabp_bio::generate::{coding_rna_for_paper_patterns, random_protein, random_rna};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A reference with `proteins`' coding RNA planted at known spots.
    fn planted_reference(proteins: &[ProteinSeq], rng: &mut StdRng) -> RnaSeq {
        let mut bases = random_rna(4_000, rng).into_inner();
        for (i, protein) in proteins.iter().enumerate() {
            let coding = coding_rna_for_paper_patterns(protein, rng);
            let at = 200 + i * 700;
            bases.splice(at..at + coding.len(), coding.iter().copied());
        }
        RnaSeq::from(bases)
    }

    fn sequential_hits(protein: &ProteinSeq, reference: &RnaSeq, threshold: Threshold) -> Vec<Hit> {
        FabpAligner::builder()
            .protein_query(protein)
            .threshold(threshold)
            .engine(Engine::Software { threads: 1 })
            .build()
            .unwrap()
            .search(reference)
            .hits
    }

    #[test]
    fn served_hits_match_sequential_single_query_runs() {
        let mut rng = StdRng::seed_from_u64(91);
        let proteins: Vec<ProteinSeq> = (0..5).map(|_| random_protein(8, &mut rng)).collect();
        let reference = planted_reference(&proteins, &mut rng);
        let registry = Registry::new();
        let config = ServeConfig {
            backend: ServeBackend::Software { threads: 4 },
            ..ServeConfig::default()
        };
        let mut server = FabpServer::new(reference.clone(), config, &registry).unwrap();
        let mut tickets = Vec::new();
        for (i, protein) in proteins.iter().enumerate() {
            let tenant = format!("tenant-{}", i % 2);
            tickets.push((server.submit(&tenant, protein).unwrap(), protein));
        }
        let responses = server.run_to_completion();
        assert_eq!(responses.len(), proteins.len());
        for (ticket, protein) in tickets {
            let response = responses.iter().find(|r| r.id == ticket).unwrap();
            let hits = response.result.as_ref().unwrap();
            let expected = sequential_hits(protein, &reference, Threshold::Fraction(1.0));
            assert_eq!(hits, &expected, "ticket {ticket}");
            assert!(!expected.is_empty(), "planted query must hit");
        }
        let stats = server.stats();
        assert_eq!(stats.served_ok, 5);
        assert_eq!(stats.shed, 0);
    }

    #[test]
    fn repeated_queries_hit_the_aligner_cache() {
        let mut rng = StdRng::seed_from_u64(92);
        let protein = random_protein(6, &mut rng);
        let reference = planted_reference(std::slice::from_ref(&protein), &mut rng);
        let registry = Registry::new();
        let mut server = FabpServer::new(reference, ServeConfig::default(), &registry).unwrap();
        for _ in 0..3 {
            server.submit("a", &protein).unwrap();
        }
        let responses = server.run_to_completion();
        assert_eq!(responses.len(), 3);
        // The first build populates the cache; later requests reuse it
        // (whether in the same batch or a later one).
        assert!(responses.iter().filter(|r| r.cached_query).count() >= 2);
        let stats = server.stats();
        assert!(stats.query_cache.hits >= 2, "{:?}", stats.query_cache);
        assert_eq!(stats.query_cache.misses, 1, "{:?}", stats.query_cache);
    }

    #[test]
    fn overload_rejects_with_typed_backpressure() {
        let mut rng = StdRng::seed_from_u64(93);
        let protein = random_protein(5, &mut rng);
        let reference = random_rna(1_000, &mut rng);
        let registry = Registry::new();
        let config = ServeConfig {
            queue_capacity: 2,
            ..ServeConfig::default()
        };
        let mut server = FabpServer::new(reference, config, &registry).unwrap();
        server.submit("a", &protein).unwrap();
        server.submit("a", &protein).unwrap();
        match server.submit("a", &protein) {
            Err(FabpError::Overloaded {
                queue_depth,
                capacity,
            }) => assert_eq!((queue_depth, capacity), (2, 2)),
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert_eq!(server.stats().rejected, 1);
    }

    #[test]
    fn expired_deadlines_are_shed_with_latency_accounting() {
        let mut rng = StdRng::seed_from_u64(94);
        let protein = random_protein(5, &mut rng);
        let reference = random_rna(1_000, &mut rng);
        let registry = Registry::new();
        let config = ServeConfig {
            default_deadline_us: Some(500),
            ..ServeConfig::default()
        };
        let mut server = FabpServer::with_manual_clock(reference, config, &registry).unwrap();
        let doomed = server.submit("a", &protein).unwrap();
        server.advance_clock_us(2_000); // sail past the 500 us budget
        let live = server.submit("a", &protein).unwrap();
        let responses = server.run_to_completion();
        let shed = responses.iter().find(|r| r.id == doomed).unwrap();
        match &shed.result {
            Err(FabpError::DeadlineExceeded { late_us }) => assert_eq!(*late_us, 1_500),
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert_eq!(shed.latency_us, 2_000);
        assert_eq!(shed.batch_size, 0);
        let served = responses.iter().find(|r| r.id == live).unwrap();
        assert!(served.result.is_ok());
        let stats = server.stats();
        assert_eq!((stats.shed, stats.served_ok), (1, 1));
    }

    #[test]
    fn empty_query_is_rejected_at_submit() {
        let mut rng = StdRng::seed_from_u64(95);
        let reference = random_rna(500, &mut rng);
        let registry = Registry::disabled();
        let mut server = FabpServer::new(reference, ServeConfig::default(), &registry).unwrap();
        assert!(matches!(
            server.submit("a", &ProteinSeq::new()),
            Err(FabpError::EmptyQuery)
        ));
    }

    /// A fleet-backend config admitting queries of up to 16 aa.
    fn fleet(nodes: usize, replication: usize, fault_spec: Option<&str>) -> ServeConfig {
        ServeConfig {
            backend: ServeBackend::Fleet {
                nodes,
                replication,
                fault_spec: fault_spec.map(str::to_string),
            },
            max_query_aa: 16,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn fleet_backend_at_r1_matches_software() {
        let mut rng = StdRng::seed_from_u64(96);
        let proteins: Vec<ProteinSeq> = (0..3).map(|_| random_protein(7, &mut rng)).collect();
        let reference = planted_reference(&proteins, &mut rng);
        let registry = Registry::new();
        let mut server = FabpServer::new(reference.clone(), fleet(3, 1, None), &registry).unwrap();
        let mut tickets = Vec::new();
        for protein in &proteins {
            tickets.push((server.submit("a", protein).unwrap(), protein));
        }
        // Resubmit the first protein: exercises the fleet cache.
        let repeat = server.submit("b", &proteins[0]).unwrap();
        let responses = server.run_to_completion();
        for (ticket, protein) in tickets {
            let response = responses.iter().find(|r| r.id == ticket).unwrap();
            let expected = sequential_hits(protein, &reference, Threshold::Fraction(1.0));
            assert_eq!(response.result.as_ref().unwrap(), &expected);
        }
        let repeated = responses.iter().find(|r| r.id == repeat).unwrap();
        assert!(repeated.result.is_ok());
        let stats = server.stats();
        assert!(stats.query_cache.hits >= 1, "{:?}", stats.query_cache);
    }

    #[test]
    fn fleet_backend_rejects_overlong_queries() {
        let mut rng = StdRng::seed_from_u64(97);
        let reference = random_rna(2_000, &mut rng);
        let config = ServeConfig {
            max_query_aa: 4,
            ..fleet(2, 1, None)
        };
        let mut server = FabpServer::new(reference, config, &Registry::disabled()).unwrap();
        let long = random_protein(10, &mut rng);
        assert!(matches!(
            server.submit("a", &long),
            Err(FabpError::InvalidShardPlan(_))
        ));
    }

    #[test]
    fn fleet_survives_node_kill_at_r1_with_identical_hits() {
        let mut rng = StdRng::seed_from_u64(98);
        let protein = random_protein(8, &mut rng);
        let reference = planted_reference(std::slice::from_ref(&protein), &mut rng);
        let registry = Registry::new();
        let mut healthy = FabpServer::new(reference.clone(), fleet(3, 1, None), &registry).unwrap();
        healthy.submit("a", &protein).unwrap();
        let clean = healthy.run_to_completion().remove(0).result.unwrap();

        let mut chaos =
            FabpServer::new(reference, fleet(3, 1, Some("kill@1:50")), &registry).unwrap();
        chaos.submit("a", &protein).unwrap();
        let survived = chaos.run_to_completion().remove(0).result.unwrap();
        assert_eq!(survived, clean, "failover must be hit-transparent");
        assert!(!clean.is_empty(), "planted query must hit");
        assert_eq!(chaos.stats().failovers, 1);
    }

    #[test]
    fn fault_recovery_span_tree_shares_one_trace() {
        let mut rng = StdRng::seed_from_u64(100);
        let protein = random_protein(8, &mut rng);
        let reference = planted_reference(std::slice::from_ref(&protein), &mut rng);
        let registry = Registry::new();
        let config = fleet(3, 1, Some("kill@1:50"));
        let mut server = FabpServer::new(reference.clone(), config, &registry).unwrap();
        server.submit("a", &protein).unwrap();
        let hits = server.run_to_completion().remove(0).result.unwrap();
        assert_eq!(
            hits,
            sequential_hits(&protein, &reference, Threshold::Fraction(1.0)),
            "recovery stays hit-transparent under tracing"
        );

        let events = server.flight_recorder().events();
        let root = events
            .iter()
            .find(|e| e.name == "request")
            .expect("root request span");
        assert_ne!(root.trace_id, 0);
        assert_eq!(root.parent_span_id, 0);
        let trace: Vec<_> = events
            .iter()
            .filter(|e| e.trace_id == root.trace_id)
            .collect();
        let queue = trace
            .iter()
            .find(|e| e.name == "queue_wait")
            .expect("queue-wait span");
        assert_eq!(queue.parent_span_id, root.span_id);
        let batch = trace
            .iter()
            .find(|e| e.name == "batch")
            .expect("batch span");
        assert_eq!(batch.parent_span_id, root.span_id);
        let shards: Vec<_> = trace.iter().filter(|e| e.name == "shard").collect();
        assert_eq!(
            shards.len(),
            3,
            "one scatter span per shard, dead node's included"
        );
        assert!(shards.iter().all(|s| s.parent_span_id == batch.span_id));
        let retry = trace
            .iter()
            .find(|e| e.name == "resilience_retry")
            .expect("failover retry span");
        let failed = shards
            .iter()
            .find(|s| s.span_id == retry.parent_span_id)
            .expect("retry hangs under the dead node's shard span");
        assert_eq!(failed.arg, 1, "shard 1 lived only on the dead node");
        assert_ne!(failed.flags & FLAG_ERROR, 0);
        assert_ne!(retry.arg, 1, "a survivor serves the shard");
        assert_eq!(
            retry.track,
            fabp_core::fleet::SHARD_TRACK_BASE + retry.arg as u32
        );
        assert_ne!(retry.flags & fabp_telemetry::FLAG_RETRY, 0);
        assert_ne!(retry.flags & FLAG_RECOVERED, 0);
        assert_ne!(root.flags & FLAG_RECOVERED, 0);

        let dumps = server.anomaly_dumps();
        let dump = dumps
            .iter()
            .find(|d| d.reason == "fault_recovery")
            .expect("recovery triggers a dump");
        assert_eq!(dump.trace_id, root.trace_id);
        assert!(dump.chrome_trace.contains("resilience_retry"));
        assert!(dump.chrome_trace.contains("queue_wait"));
    }

    #[test]
    fn fleet_engine_faults_are_injected_recovered_and_transparent() {
        let mut rng = StdRng::seed_from_u64(108);
        let protein = random_protein(8, &mut rng);
        let reference = planted_reference(std::slice::from_ref(&protein), &mut rng);
        let registry = Registry::new();
        let config = fleet(3, 2, Some("beatflip@0:2:9,stall@1:900"));
        let mut server = FabpServer::new(reference.clone(), config, &registry).unwrap();
        assert_eq!(server.routable_nodes(), Some(3), "no kill in the spec");
        server.submit("a", &protein).unwrap();
        let hits = server.run_to_completion().remove(0).result.unwrap();
        assert_eq!(
            hits,
            sequential_hits(&protein, &reference, Threshold::Fraction(1.0))
        );
        let text = registry.snapshot().to_prometheus();
        for kind in ["axi_beat_flip", "stream_stall"] {
            assert!(
                text.contains(&format!(
                    "fabp_resilience_faults_injected_total{{kind=\"{kind}\"}} 3"
                )),
                "one {kind} per shard read:\n{text}"
            );
        }
        assert!(server
            .anomaly_dumps()
            .iter()
            .any(|d| d.reason == "fault_recovery"));
    }

    #[test]
    fn malformed_fault_spec_fails_the_build() {
        let reference = random_rna(500, &mut StdRng::seed_from_u64(109));
        assert!(matches!(
            FabpServer::new(
                reference.clone(),
                fleet(2, 1, Some("kill@x")),
                &Registry::disabled()
            ),
            Err(FabpError::InvalidSpec(_))
        ));
        // The fleet has nodes 0 and 1 only.
        match FabpServer::new(
            reference,
            fleet(2, 1, Some("kill@2:50")),
            &Registry::disabled(),
        ) {
            Err(FabpError::InvalidSpec(msg)) => assert!(msg.contains("kill@2:50"), "{msg}"),
            other => panic!("expected an invalid spec, got {other:?}"),
        }
    }

    #[test]
    fn shed_requests_burn_the_slo_budget_and_dump() {
        let mut rng = StdRng::seed_from_u64(101);
        let protein = random_protein(5, &mut rng);
        let reference = random_rna(1_000, &mut rng);
        let registry = Registry::new();
        let config = ServeConfig {
            default_deadline_us: Some(500),
            ..ServeConfig::default()
        };
        let mut server = FabpServer::with_manual_clock(reference, config, &registry).unwrap();
        server.submit("a", &protein).unwrap();
        server.advance_clock_us(2_000);
        server.run_to_completion();

        let report = server.slo_report();
        let tenant = report.tenants.iter().find(|t| t.tenant == "a").unwrap();
        assert!(
            tenant.availability_alert,
            "100% errors must trip the availability burn alert: {report:?}"
        );
        assert!(report.alerting());
        assert!(report.render_text().contains("AVAILABILITY"));
        let text = registry.snapshot().to_prometheus();
        assert!(text.contains("fabp_slo_burn_rate_milli"), "{text}");
        assert!(text.contains("fabp_serve_anomaly_dumps_total 1"), "{text}");

        let dumps = server.anomaly_dumps();
        assert_eq!(dumps.len(), 1);
        assert_eq!(dumps[0].reason, "deadline_exceeded");
        assert!(dumps[0].chrome_trace.contains("queue_wait"));
        // The shed request's spans carry the shed flag.
        let events = server.flight_recorder().events_for(dumps[0].trace_id);
        assert!(events.iter().all(|e| e.flags & FLAG_SHED != 0));
    }

    #[test]
    fn latency_exemplars_link_histograms_to_traces() {
        let mut rng = StdRng::seed_from_u64(102);
        let protein = random_protein(5, &mut rng);
        let reference = random_rna(1_500, &mut rng);
        let registry = Registry::new();
        let mut server = FabpServer::new(reference, ServeConfig::default(), &registry).unwrap();
        server.submit("a", &protein).unwrap();
        server.run_to_completion();
        let events = server.flight_recorder().events();
        let root = events.iter().find(|e| e.name == "request").unwrap();
        let text = registry.snapshot().to_prometheus();
        assert!(
            text.contains(&format!("trace_id=\"{:016x}\"", root.trace_id)),
            "latency bucket exemplar must carry the request's trace id:\n{text}"
        );
    }

    #[test]
    fn anomaly_dump_budget_is_bounded() {
        let mut rng = StdRng::seed_from_u64(103);
        let protein = random_protein(5, &mut rng);
        let reference = random_rna(800, &mut rng);
        let registry = Registry::new();
        let config = ServeConfig {
            default_deadline_us: Some(1),
            ..ServeConfig::default()
        };
        let mut server = FabpServer::with_manual_clock(reference, config, &registry).unwrap();
        for _ in 0..(MAX_ANOMALY_DUMPS + 4) {
            server.submit("a", &protein).unwrap();
        }
        server.advance_clock_us(10_000); // expire everything queued
        server.run_to_completion();
        assert_eq!(server.anomaly_dumps().len(), MAX_ANOMALY_DUMPS);
        assert_eq!(server.stats().shed as usize, MAX_ANOMALY_DUMPS + 4);
    }

    #[test]
    fn fleet_backend_matches_sequential_hits_and_caches_fleets() {
        let mut rng = StdRng::seed_from_u64(104);
        let proteins: Vec<ProteinSeq> = (0..3).map(|_| random_protein(7, &mut rng)).collect();
        let reference = planted_reference(&proteins, &mut rng);
        let registry = Registry::new();
        let mut server = FabpServer::new(reference.clone(), fleet(3, 2, None), &registry).unwrap();
        assert_eq!(server.routable_nodes(), Some(3));
        let mut tickets = Vec::new();
        for protein in &proteins {
            tickets.push((server.submit("a", protein).unwrap(), protein));
        }
        let repeat = server.submit("b", &proteins[0]).unwrap();
        let responses = server.run_to_completion();
        for (ticket, protein) in tickets {
            let response = responses.iter().find(|r| r.id == ticket).unwrap();
            let expected = sequential_hits(protein, &reference, Threshold::Fraction(1.0));
            assert_eq!(response.result.as_ref().unwrap(), &expected);
        }
        assert!(responses
            .iter()
            .find(|r| r.id == repeat)
            .unwrap()
            .result
            .is_ok());
        let stats = server.stats();
        assert!(stats.query_cache.hits >= 1, "{:?}", stats.query_cache);
        assert_eq!(stats.failovers, 0, "healthy fleet never fails over");
        // The fleet's shape is exported once, on the server's own
        // registry.
        let text = registry.snapshot().to_prometheus();
        assert!(text.contains("\nfabp_fleet_nodes 3\n"), "{text}");
        assert!(text.contains("\nfabp_fleet_replication 2\n"), "{text}");
    }

    #[test]
    fn fleet_backend_build_rejects_unsatisfiable_replication() {
        let mut rng = StdRng::seed_from_u64(105);
        let reference = random_rna(2_000, &mut rng);
        let config = ServeConfig {
            backend: ServeBackend::Fleet {
                nodes: 2,
                replication: 3,
                fault_spec: None,
            },
            ..ServeConfig::default()
        };
        assert!(matches!(
            FabpServer::new(reference, config, &Registry::disabled()),
            Err(FabpError::InvalidShardPlan(_))
        ));
    }

    #[test]
    fn draining_rejects_new_work_and_completes_in_flight() {
        let mut rng = StdRng::seed_from_u64(106);
        let protein = random_protein(5, &mut rng);
        let reference = planted_reference(std::slice::from_ref(&protein), &mut rng);
        let registry = Registry::new();
        let mut server = FabpServer::new(reference, ServeConfig::default(), &registry).unwrap();
        server.submit("a", &protein).unwrap();
        server.submit("b", &protein).unwrap();
        assert!(!server.is_draining());
        server.begin_drain();
        assert!(server.is_draining());
        assert!(!server.is_drained(), "two requests still queued");
        assert!(matches!(
            server.submit("a", &protein),
            Err(FabpError::Draining)
        ));
        let responses = server.run_to_completion();
        assert_eq!(responses.len(), 2);
        assert!(responses.iter().all(|r| r.result.is_ok()));
        assert!(server.is_drained());
        assert_eq!(server.stats().rejected, 1);
        let text = registry.snapshot().to_prometheus();
        assert!(text.contains("fabp_serve_draining 1"), "{text}");
    }

    #[test]
    fn brownout_sheds_lowest_priority_tenants_with_typed_errors() {
        let mut rng = StdRng::seed_from_u64(107);
        let protein = random_protein(6, &mut rng);
        let reference = planted_reference(std::slice::from_ref(&protein), &mut rng);
        let registry = Registry::new();
        let config = ServeConfig {
            backend: ServeBackend::Fleet {
                nodes: 4,
                replication: 2,
                fault_spec: None,
            },
            queue_capacity: 8,
            max_query_aa: 16,
            ..ServeConfig::default()
        };
        let mut server = FabpServer::with_manual_clock(reference, config, &registry).unwrap();
        server.set_tenant_priority("gold", 1);
        server.set_tenant_priority("bronze", 0);
        let mut gold = Vec::new();
        for _ in 0..3 {
            gold.push(server.submit("gold", &protein).unwrap());
        }
        for _ in 0..3 {
            server.submit("bronze", &protein).unwrap();
        }
        // Two nodes die: surviving capacity is 8 · 2/4 = 4 requests, but
        // 6 are queued — the brownout sheds the 2 newest bronze ones.
        server.kill_node(2);
        server.kill_node(3);
        assert_eq!(server.routable_nodes(), Some(2));
        let responses = server.run_to_completion();
        let browned: Vec<_> = responses
            .iter()
            .filter(|r| matches!(r.result, Err(FabpError::Brownout { .. })))
            .collect();
        assert_eq!(browned.len(), 2, "{responses:?}");
        assert!(browned.iter().all(|r| r.tenant == "bronze"));
        match &browned[0].result {
            Err(FabpError::Brownout {
                routable_nodes,
                fleet_nodes,
            }) => assert_eq!((*routable_nodes, *fleet_nodes), (2, 4)),
            other => panic!("expected Brownout, got {other:?}"),
        }
        for id in gold {
            let response = responses.iter().find(|r| r.id == id).unwrap();
            assert!(response.result.is_ok(), "gold survives: {response:?}");
        }
        let stats = server.stats();
        assert_eq!(stats.brownout_shed, 2);
        assert!(stats.failovers > 0, "dead replicas force failover");
        assert!(server
            .anomaly_dumps()
            .iter()
            .any(|d| d.reason == "brownout"));
    }

    #[test]
    fn seeded_index_serving_is_transparent() {
        use fabp_core::index::IndexBuildOptions;
        let mut rng = StdRng::seed_from_u64(106);
        let proteins: Vec<ProteinSeq> = (0..4).map(|_| random_protein(8, &mut rng)).collect();
        let reference = planted_reference(&proteins, &mut rng);
        let index = Arc::new(
            ReferenceIndex::build_from_rna(
                &reference,
                IndexBuildOptions {
                    overlap: 0,
                    target_shard_bases: 1_024,
                },
            )
            .unwrap(),
        );
        assert!(index.shards().len() > 1, "test must exercise multi-shard");
        let mut per_mode = Vec::new();
        for prefilter in [PrefilterMode::Off, PrefilterMode::Seeded] {
            let registry = Registry::new();
            let config = ServeConfig {
                threshold: Threshold::Fraction(0.9),
                prefilter,
                ..ServeConfig::default()
            };
            let mut server = FabpServer::with_index(Arc::clone(&index), config, &registry).unwrap();
            // Trace ids come from the index fingerprint, never a
            // re-hash of the decoded bases.
            assert_eq!(server.trace_seed, 0xFAB6_0006 ^ index.fingerprint());
            let tickets: Vec<u64> = proteins
                .iter()
                .map(|p| server.submit("a", p).unwrap())
                .collect();
            let responses = server.run_to_completion();
            let hits: Vec<Vec<Hit>> = tickets
                .iter()
                .map(|t| {
                    responses
                        .iter()
                        .find(|r| r.id == *t)
                        .unwrap()
                        .result
                        .clone()
                        .unwrap()
                })
                .collect();
            per_mode.push(hits);
        }
        assert!(
            per_mode[0].iter().any(|h| !h.is_empty()),
            "planted queries must hit"
        );
        // Seeded serving is bit-identical to the exhaustive scan, which
        // itself matches sequential single-query runs.
        assert_eq!(per_mode[0], per_mode[1]);
        for (protein, hits) in proteins.iter().zip(&per_mode[0]) {
            let expected = sequential_hits(protein, &reference, Threshold::Fraction(0.9));
            assert_eq!(hits, &expected);
        }
    }

    #[test]
    fn with_index_serves_queries_wider_than_the_overlap() {
        // Shards of 1 000 bases reaching 16 into the next, and a batch of
        // two 8-aa queries and one 40-aa query (a 120-base window) planted
        // across the second shard's start: the seeded server serves all
        // three, each as the exhaustive scan does.
        use fabp_core::index::IndexBuildOptions;
        let mut rng = StdRng::seed_from_u64(107);
        let short = [random_protein(8, &mut rng), random_protein(8, &mut rng)];
        let long = random_protein(40, &mut rng);
        let mut bases = planted_reference(&short, &mut rng).into_inner();
        let coding = coding_rna_for_paper_patterns(&long, &mut rng);
        bases.splice(950..1_070, coding.iter().copied());
        let options = IndexBuildOptions {
            overlap: 16,
            target_shard_bases: 1_024,
        };
        let index = ReferenceIndex::build_from_rna(&RnaSeq::from(bases), options).unwrap();
        assert_eq!(index.shards()[1].start, 1_000);
        let index = Arc::new(index);
        let served: Vec<Vec<FabpResult<Vec<Hit>>>> = [PrefilterMode::Off, PrefilterMode::Seeded]
            .into_iter()
            .map(|prefilter| {
                let config = ServeConfig {
                    prefilter,
                    ..ServeConfig::default()
                };
                let registry = Registry::disabled();
                let mut server = FabpServer::with_index(Arc::clone(&index), config, &registry)
                    .expect("any overlap serves");
                for protein in short.iter().chain([&long]) {
                    server.submit("a", protein).unwrap();
                }
                let mut responses = server.run_to_completion();
                assert!(responses.iter().all(|r| r.batch_size == 3));
                responses.sort_by_key(|r| r.id);
                responses.into_iter().map(|r| r.result).collect()
            })
            .collect();
        let long_hits = served[0][2].as_ref().unwrap();
        assert!(long_hits.iter().any(|h| h.position == 950), "{long_hits:?}");
        assert!(served[0]
            .iter()
            .all(|r| r.as_ref().is_ok_and(|h| !h.is_empty())));
        assert_eq!(served[1], served[0]);
    }

    #[test]
    fn a_repeated_query_in_one_batch_is_answered_like_its_first_copy() {
        // Scan and seeded backends compute a repeated query once per
        // batch; every copy gets the answer a batch without it gives.
        use fabp_core::index::IndexBuildOptions;
        let mut rng = StdRng::seed_from_u64(112);
        let proteins: Vec<ProteinSeq> = (0..2).map(|_| random_protein(8, &mut rng)).collect();
        let reference = planted_reference(&proteins, &mut rng);
        let options = IndexBuildOptions {
            overlap: 48,
            target_shard_bases: 1_024,
        };
        let index = Arc::new(ReferenceIndex::build_from_rna(&reference, options).unwrap());
        let (p, q) = (&proteins[0], &proteins[1]);
        for prefilter in [PrefilterMode::Off, PrefilterMode::Seeded] {
            let serve = |stream: &[&ProteinSeq]| {
                let config = ServeConfig {
                    threshold: Threshold::Fraction(0.9),
                    prefilter,
                    ..ServeConfig::default()
                };
                let registry = Registry::disabled();
                let mut server = FabpServer::with_index(Arc::clone(&index), config, &registry)
                    .expect("index-backed server builds");
                for protein in stream {
                    server.submit("a", protein).unwrap();
                }
                let mut responses = server.run_to_completion();
                assert!(responses.iter().all(|r| r.batch_size == stream.len()));
                responses.sort_by_key(|r| r.id);
                let hits = responses.into_iter().map(|r| r.result.unwrap());
                hits.collect::<Vec<_>>()
            };
            let once = serve(&[p, q]);
            assert!(!once[0].is_empty(), "{prefilter:?}: planted query hits");
            let copies = [once[0].clone(), once[1].clone(), once[0].clone()];
            assert_eq!(serve(&[p, q, p]), copies, "{prefilter:?}");
        }
    }

    #[test]
    fn seeded_prefilter_needs_an_index_and_the_software_backend() {
        use fabp_core::index::IndexBuildOptions;
        let reference = random_rna(2_000, &mut StdRng::seed_from_u64(110));
        let seeded = |config: ServeConfig| ServeConfig {
            prefilter: PrefilterMode::Seeded,
            max_query_aa: 16,
            ..config
        };
        let registry = Registry::disabled();
        // Without an index there is nothing to seed.
        let config = seeded(ServeConfig::default());
        match FabpServer::new(reference.clone(), config, &registry) {
            Err(FabpError::InvalidSpec(msg)) => assert!(msg.contains("index"), "{msg}"),
            other => panic!("expected InvalidSpec, got {other:?}"),
        }
        // The fleet reads every shard; it has no seeded path.
        let options = IndexBuildOptions {
            overlap: 3 * 16,
            target_shard_bases: 512,
        };
        let index = Arc::new(ReferenceIndex::build_from_rna(&reference, options).unwrap());
        let config = seeded(fleet(2, 1, None));
        match FabpServer::with_index(Arc::clone(&index), config, &registry) {
            Err(FabpError::InvalidSpec(msg)) => assert!(msg.contains("software"), "{msg}"),
            other => panic!("expected InvalidSpec, got {other:?}"),
        }
        // Either half alone builds.
        assert!(FabpServer::with_index(index, seeded(ServeConfig::default()), &registry).is_ok());
        assert!(FabpServer::new(reference, fleet(2, 1, None), &registry).is_ok());
    }

    #[test]
    fn only_the_active_backends_cache_exports_series() {
        let mut rng = StdRng::seed_from_u64(111);
        let protein = random_protein(5, &mut rng);
        let reference = random_rna(1_500, &mut rng);
        for (config, name) in [
            (ServeConfig::default(), "query"),
            (fleet(2, 1, None), "fleet"),
        ] {
            let registry = Registry::new();
            let mut server = FabpServer::new(reference.clone(), config, &registry).unwrap();
            server.submit("a", &protein).unwrap();
            server.run_to_completion();
            let text = registry.snapshot().to_prometheus();
            let caches: Vec<&str> = ["query", "fleet", "reference"]
                .into_iter()
                .filter(|cache| text.contains(&format!("cache=\"{cache}\"")))
                .collect();
            assert_eq!(caches, [name], "{text}");
        }
    }

    #[test]
    fn telemetry_and_spans_are_recorded() {
        let mut rng = StdRng::seed_from_u64(99);
        let protein = random_protein(5, &mut rng);
        let reference = random_rna(1_500, &mut rng);
        let registry = Registry::new();
        let mut server = FabpServer::new(reference, ServeConfig::default(), &registry).unwrap();
        server.submit("a", &protein).unwrap();
        server.run_to_completion();
        let text = registry.snapshot().to_prometheus();
        assert!(text.contains("fabp_serve_served_total 1"), "{text}");
        assert!(text.contains("fabp_serve_batch_size"), "{text}");
        assert!(text.contains("fabp_serve_latency_us"), "{text}");
        // The dispatch tree: `fabp_serve_batch` over `dequeue` and
        // `execute`, all under one trace id of its own.
        let events = registry.flight_recorder().events();
        let batch = events
            .iter()
            .find(|e| e.name == "fabp_serve_batch")
            .expect("expected a fabp_serve_batch span");
        for stage in ["dequeue", "execute"] {
            let child = events.iter().find(|e| e.name == stage).unwrap();
            assert_eq!(child.trace_id, batch.trace_id, "{stage}");
            assert_eq!(child.parent_span_id, batch.span_id, "{stage}");
        }
        let request = events.iter().find(|e| e.name == "request").unwrap();
        assert_ne!(request.trace_id, batch.trace_id);
    }
}
