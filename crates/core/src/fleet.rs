//! The sharded multi-FPGA backend: even shards, replication,
//! health-driven routing, hedged scatter/gather and fault recovery.
//!
//! The paper motivates FabP with data-centre deployment: "Recent
//! popularity of FPGAs as accelerators has led to widely deployment of
//! FPGAs in data centers" (§I). The natural scale-out shards the
//! reference database across boards with resident shards, broadcasts
//! each query and merges the hits. [`FpgaFleet`] is that model, and the
//! only sharded backend:
//!
//! * **Even shards over one resident reference.** A fleet cuts the
//!   reference it serves into one base range per node, sizes differing
//!   by at most one base, each carrying trailing overlap so
//!   boundary-straddling windows are scored; the range math is
//!   [`crate::slice_plan::overlap_ranges`], shared with the batch
//!   scheduler's slices. Reads stream their range straight from the
//!   caller's packed words: the fleet holds no copy of the reference.
//! * **Replication with anti-affinity.** [`place_replicas`] assigns each
//!   shard `s` to `R` distinct nodes `(s + r) % nodes`, so no node holds
//!   two replicas of one shard and any single failure leaves `R − 1`
//!   live copies. At `R = 1` every shard lives on its home node only.
//! * **Health-driven routing.** Every dispatch consults a
//!   [`FailureDetector`] (phi-accrual suspicion over per-node EWMA
//!   latency plus fault events — see `fabp_resilience::health`): drained
//!   nodes stop receiving primary reads *before* a request has to fail
//!   over, and recovered nodes rejoin through probation probes.
//! * **Failover.** Node kills are detector state. A shard with no
//!   routable replica is served off-placement by a routable node; its
//!   `shard` span carries [`FLAG_ERROR`] and gains a `resilience_retry`
//!   child ([`FLAG_RETRY`] | [`FLAG_RECOVERED`]) on the serving node's
//!   track. Hits stay bit-identical to the healthy fleet.
//! * **Scan once, then replay the control.** [`search_batch`] serves a
//!   batch in two phases. The *scan* phase joins the batch's distinct
//!   queries over equal shard ranges into one fused kernel and scores
//!   each shard's range of the resident reference once for all of them,
//!   the (group, shard) items claimed by the batch module's worker pool.
//!   The *control* phase then runs on the calling thread, request by
//!   request and shard by shard in the order a serial fleet would:
//!   routing, hedging, failover, detector updates, spans and the
//!   merge. Each delivering read replays only the engine's accounting
//!   pass ([`FabpEngine::run_scored`]) over its lane's hits for that
//!   shard. Control never reads a hit, and a fault-free read's hits and
//!   [`CycleReport`](fabp_fpga::engine::CycleReport) depend only on the
//!   query, the shard's range and the one engine config, so every hit,
//!   report, routing decision, counter and span equals the serial
//!   fleet's. The modelled boards still hold one query per pass; only
//!   the simulator shares it (Nguyen & Lavenier's bank-to-bank scheme).
//! * **Engine-level faults.** When the request's [`FaultSchedule`]
//!   holds anything besides node kills (beat/query flips, config upsets,
//!   stalls, or a seeded schedule), there is no scan phase: every read
//!   runs under [`ResilientRunner`] at [`ResilienceLevel::Recover`] —
//!   CRC retry, scrub-and-replay, watchdog re-issue — with its retries
//!   traced under the read. A query the kernel rejects reads through
//!   the beat path of [`FabpEngine::read`].
//! * **Hedged reads** (the tail-at-scale pattern): when the primary's
//!   modelled completion exceeds the detector's p95-derived budget for
//!   that node, a duplicate read is issued to the next placed replica.
//!   First response wins; the loser is cancelled unless it finishes
//!   inside the cancel-propagation window, in which case both responses
//!   deliver and [`merge_shard_hits`] removes the exact duplicates —
//!   replica overlap stays bit-identical to the single-node oracle.
//! * **Live degraded timing.** [`FpgaFleet::fleet_timing`] recomputes
//!   [`FleetTiming`] from the *current* routing table, so SLO
//!   burn-rate gauges track the degraded fleet as nodes drain and
//!   rejoin.
//!
//! The serving integration (graceful drain, brownout shedding, chaos
//! under live traffic) lives in `fabp-serve`.

use crate::batch::{claim_all, distinct, JoinedLanes};
use crate::hits::{merge_shard_hits, Hit};
use crate::slice_plan::overlap_ranges;
use fabp_bio::seq::PackedSeq;
use fabp_encoding::encoder::EncodedQuery;
use fabp_fpga::engine::{EngineConfig, FabpEngine};
use fabp_resilience::health::FailureDetector;
use fabp_resilience::telemetry as rtel;
use fabp_resilience::{
    FabpError, FabpResult, FaultKind, FaultSchedule, ResilienceLevel, ResilienceReport,
    ResilientRunner,
};
use fabp_telemetry::{
    FlightRecorder, Registry, SpanKind, TraceContext, TraceEvent, FLAG_CANCELLED, FLAG_ERROR,
    FLAG_HEDGE, FLAG_RECOVERED, FLAG_RETRY,
};
use std::ops::Range;
use std::time::Instant;

/// Display-track base for per-shard scatter spans in Chrome-trace dumps:
/// node `n`'s spans render on track `SHARD_TRACK_BASE + n`, so parallel
/// shards do not stack on the request track (track 0).
pub const SHARD_TRACK_BASE: u32 = 10;

/// Modelled time for a cancellation to propagate to a losing read,
/// microseconds. A loser that would finish within this window of the
/// winner cannot be cancelled in time — both responses deliver and the
/// gather deduplicates them.
pub const CANCEL_PROPAGATION_US: f64 = 50.0;

/// Most nodes a fleet may have. A fleet allocates per-node and
/// per-replica state before any work, so the node count is checked
/// against this bound first: 1 024 boards is far beyond any modelled
/// deployment, and a larger count is an [`FabpError::InvalidShardPlan`].
pub const MAX_FLEET_NODES: usize = 1_024;

/// Timing summary of one broadcast query on the fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetTiming {
    /// Slowest node's kernel time — the query latency, seconds.
    pub latency_seconds: f64,
    /// Aggregate queries/second with perfect query pipelining.
    pub queries_per_second: f64,
    /// Total board energy per query, joules (per-board power from the
    /// activity model).
    pub joules_per_query: f64,
}

/// Places `R` replicas of each of `shards` shards across `nodes` nodes
/// with anti-affinity: replica `r` of shard `s` lives on node
/// `(s + r) % nodes`, so one shard's replicas always land on distinct
/// nodes and consecutive shards' primaries are spread evenly.
///
/// # Errors
///
/// [`FabpError::InvalidShardPlan`] when `replication == 0` (a shard with
/// no home), `replication > nodes` (anti-affinity is unsatisfiable —
/// some node would hold two copies of one shard), or `shards` or
/// `nodes` exceeds [`MAX_FLEET_NODES`]; each is checked before anything
/// is allocated.
pub fn place_replicas(
    shards: usize,
    nodes: usize,
    replication: usize,
) -> FabpResult<Vec<Vec<usize>>> {
    if shards.max(nodes) > MAX_FLEET_NODES {
        return Err(FabpError::InvalidShardPlan(format!(
            "{} nodes exceed the fleet bound of {MAX_FLEET_NODES}",
            shards.max(nodes)
        )));
    }
    if nodes == 0 {
        return Err(FabpError::InvalidShardPlan(
            "a fleet needs at least one node".into(),
        ));
    }
    if replication == 0 {
        return Err(FabpError::InvalidShardPlan(
            "every shard needs at least one replica".into(),
        ));
    }
    if replication > nodes {
        return Err(FabpError::InvalidShardPlan(format!(
            "replication {replication} over {nodes} node(s) violates anti-affinity"
        )));
    }
    Ok((0..shards)
        .map(|s| (0..replication).map(|r| (s + r) % nodes).collect())
        .collect())
}

/// Whether `faults` holds anything besides node kills — faults the
/// engine itself must detect and recover.
fn has_engine_faults(faults: &FaultSchedule) -> bool {
    faults.needs_resolution()
        || faults
            .events()
            .iter()
            .any(|e| !matches!(e, FaultKind::NodeKill { .. }))
}

/// How one shard was routed by a hedged scatter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardDispatch {
    /// Shard index.
    pub shard: usize,
    /// Node that received the primary read.
    pub primary: usize,
    /// Node that received the hedged duplicate, if one was issued.
    pub hedge: Option<usize>,
    /// Node whose response won the race (equals `primary` when no hedge
    /// was issued).
    pub winner: usize,
    /// Node whose read was cancelled after losing the race. `None` when
    /// no hedge ran, or when the loser finished inside the
    /// cancel-propagation window and delivered anyway.
    pub cancelled: Option<usize>,
    /// True when no placed replica was routable and the shard was
    /// served off-placement by an arbitrary routable node.
    pub failover: bool,
}

/// Outcome of one fleet search.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSearchOutcome {
    /// Merged hits in global coordinates — bit-identical to a
    /// single-node scan of the whole reference.
    pub hits: Vec<Hit>,
    /// Per-shard routing decisions, in shard order.
    pub dispatches: Vec<ShardDispatch>,
    /// Live fleet timing over the current routing table (degraded when
    /// nodes are drained).
    pub timing: FleetTiming,
    /// Hedged duplicates issued.
    pub hedges: u32,
    /// Hedges that beat their primary.
    pub hedge_wins: u32,
    /// Reads cancelled after losing the race.
    pub cancels: u32,
    /// Shards served off-placement because every replica was drained.
    pub failovers: u32,
    /// Engine-level faults injected, detected and recovered across every
    /// read (all zero when the schedule holds only node kills).
    pub report: ResilienceReport,
}

/// A replicated fleet: one shard per node slot, each shard placed on
/// `R` nodes. The query lives in the engine's configuration and every
/// board is identical, so the fleet holds one engine; nodes differ only
/// in routing, straggle and span track.
#[derive(Debug)]
pub struct FpgaFleet {
    engine: FabpEngine,
    /// Each shard's base range in the reference, trailing overlap
    /// included: the one shard geometry reads and timing share.
    ranges: Vec<Range<usize>>,
    placement: Vec<Vec<usize>>,
    /// Per-node latency multiplier (test hook modelling stragglers);
    /// 1.0 = nominal.
    straggle: Vec<f64>,
    replication: usize,
}

impl FpgaFleet {
    /// Builds a homogeneous fleet: `nodes` boards with `config`, the
    /// database of `total_bases` nucleotides split into `nodes` even
    /// shards, each reading `overlap` bases of trailing context (clamped
    /// to the reference end) so windows straddling a shard boundary are
    /// scored, and each shard replicated on `replication` nodes with
    /// anti-affinity. An overlap of at least `query.len() − 1` scores
    /// every window; [`merge_shard_hits`] removes the duplicates a
    /// larger one creates. With more nodes than bases the surplus shards
    /// are empty.
    ///
    /// # Errors
    ///
    /// [`FabpError::InvalidShardPlan`] for a zero-node fleet, one of
    /// more than [`MAX_FLEET_NODES`] nodes or an unsatisfiable
    /// replication factor, [`FabpError::EmptyQuery`] for
    /// an empty query, and [`FabpError::Plan`] when the query cannot fit
    /// the device.
    pub fn homogeneous(
        query: &EncodedQuery,
        config: &EngineConfig,
        nodes: usize,
        replication: usize,
        total_bases: usize,
        overlap: usize,
    ) -> FabpResult<FpgaFleet> {
        if query.is_empty() {
            return Err(FabpError::EmptyQuery);
        }
        let placement = place_replicas(nodes, nodes, replication)?;
        let ranges = overlap_ranges(total_bases, nodes, overlap)?
            .into_iter()
            .map(|(start, end)| start..end)
            .collect();
        Ok(FpgaFleet {
            engine: FabpEngine::new(query.clone(), config.clone())?,
            ranges,
            placement,
            straggle: vec![1.0; nodes],
            replication,
        })
    }

    /// Number of nodes (== number of shards).
    pub fn nodes(&self) -> usize {
        self.placement.len()
    }

    /// Replicas per shard.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// The placement map: `placement()[s]` lists the nodes holding
    /// shard `s`, primary first.
    pub fn placement(&self) -> &[Vec<usize>] {
        &self.placement
    }

    /// Length of the reference the fleet shards.
    fn total_bases(&self) -> usize {
        self.ranges.last().map_or(0, |range| range.end)
    }

    /// Bases shard `shard` owns: from its start up to the next shard's
    /// start, overlap excluded.
    fn owned_bases(&self, shard: usize) -> u64 {
        let end = self
            .ranges
            .get(shard + 1)
            .map_or(self.total_bases(), |next| next.start);
        (end - self.ranges[shard].start) as u64
    }

    /// Models `node` as a straggler: its reads take `factor`× the
    /// nominal modelled kernel time. Test/chaos hook.
    pub fn set_straggle(&mut self, node: usize, factor: f64) {
        if let Some(s) = self.straggle.get_mut(node) {
            *s = factor.max(0.0);
        }
    }

    /// Modelled completion time of `bases` nucleotides on `node`,
    /// microseconds, including its straggle factor (0 for a node the
    /// fleet does not have).
    pub fn read_latency_us(&self, node: usize, bases: u64) -> f64 {
        self.straggle.get(node).map_or(0.0, |&factor| {
            self.engine.model_kernel_seconds(bases.div_ceil(4)) * 1e6 * factor
        })
    }

    /// Nominal timing with every node healthy, each serving exactly its
    /// own shard (replicas idle as hedge capacity).
    pub fn timing(&self) -> FleetTiming {
        self.timing_for_assignment(&(0..self.nodes()).map(|s| (s, s)).collect::<Vec<_>>())
    }

    /// Live fleet timing over the detector's current routing table:
    /// each shard is served by its first routable replica (or any
    /// routable node as a last resort), survivors' serial loads set the
    /// latency. This is the number SLO burn-rate gauges should track
    /// while the fleet is degraded — recomputed on every call, not
    /// captured at failure time.
    ///
    /// # Errors
    ///
    /// [`FabpError::NodeDown`] when no node is routable.
    pub fn fleet_timing(&self, detector: &FailureDetector) -> FabpResult<FleetTiming> {
        let assignment = (0..self.nodes())
            .map(|s| Ok((s, self.route_shard(s, detector)?.0)))
            .collect::<FabpResult<Vec<_>>>()?;
        Ok(self.timing_for_assignment(&assignment))
    }

    /// Timing when each `(shard, node)` pair in `assignment` runs
    /// serially on its node.
    fn timing_for_assignment(&self, assignment: &[(usize, usize)]) -> FleetTiming {
        let mut load = vec![0u64; self.nodes()];
        for &(shard, node) in assignment {
            if let Some(l) = load.get_mut(node) {
                *l += self.owned_bases(shard);
            }
        }
        let watts = fabp_fpga::power_model::PowerModel::default()
            .power(
                self.engine.plan().resources,
                self.engine.config().device.clock_hz,
            )
            .total();
        let mut latency: f64 = 0.0;
        let mut joules = 0.0;
        for (node, &bases) in load.iter().enumerate() {
            if bases == 0 {
                continue;
            }
            let t = self.engine.model_kernel_seconds(bases.div_ceil(4))
                * self.straggle.get(node).copied().unwrap_or(1.0);
            latency = latency.max(t);
            joules += watts * t;
        }
        FleetTiming {
            latency_seconds: latency,
            queries_per_second: if latency > 0.0 { 1.0 / latency } else { 0.0 },
            joules_per_query: joules,
        }
    }

    /// Routes `shard` through the detector: the first routable placed
    /// replica serves as primary; if every replica is drained, the
    /// shard fails over to a routable node chosen round-robin by shard
    /// index; if *no* node is routable, a probe-accepting (probation)
    /// node serves as a last resort — a successful probe read is
    /// exactly what earns its rejoin streak, so a fleet that is all in
    /// probation heals through traffic instead of flatlining. Returns
    /// `(primary, failover)`.
    fn route_shard(&self, shard: usize, detector: &FailureDetector) -> FabpResult<(usize, bool)> {
        let replicas = &self.placement[shard];
        if let Some(&primary) = replicas.iter().find(|&&n| detector.is_routable(n)) {
            return Ok((primary, false));
        }
        let table = detector.routing_table();
        if let Some(&node) = table.get(shard % table.len().max(1)) {
            return Ok((node, true));
        }
        if let Some(&node) = replicas.iter().find(|&&n| detector.accepts_probes(n)) {
            return Ok((node, true));
        }
        let probers: Vec<usize> = (0..self.nodes())
            .filter(|&n| detector.accepts_probes(n))
            .collect();
        match probers.get(shard % probers.len().max(1)) {
            Some(&node) => Ok((node, true)),
            None => Err(FabpError::NodeDown {
                node: replicas.first().copied().unwrap_or(0),
            }),
        }
    }

    /// The hedge target for `shard` given its `primary`: the next
    /// placed replica (in placement order) that accepts probe traffic —
    /// probation nodes qualify, which is exactly how they earn their
    /// rejoin streak without taking primary reads.
    fn hedge_target(
        &self,
        shard: usize,
        primary: usize,
        detector: &FailureDetector,
    ) -> Option<usize> {
        self.placement[shard]
            .iter()
            .copied()
            .find(|&n| n != primary && detector.accepts_probes(n))
    }

    /// The control phase of one request: hedged scatter/gather of the
    /// fleet's query over `reference`, the packed database the fleet was
    /// built for. `scanned` holds the scan phase's hits per shard
    /// (positions relative to the shard's start), when it ran for this
    /// fleet.
    ///
    /// Per shard: each read covers the shard's whole range, overlap
    /// included. The primary read goes to the
    /// first routable placed replica (consulting `detector`'s live
    /// routing table; node kills are recorded there by the caller with
    /// [`FailureDetector::record_kill`]); a shard with no routable
    /// replica fails over to another routable node. When the primary's
    /// modelled completion exceeds the detector's p95-derived budget
    /// for that node, a hedged duplicate is issued to the next replica.
    /// First response wins. The loser is cancelled — unless it finishes
    /// within [`CANCEL_PROPAGATION_US`] of the winner, in which case
    /// both responses deliver and the gather's [`merge_shard_hits`]
    /// removes the exact duplicates. Every completion feeds the
    /// detector's EWMA statistics, so routing and hedge budgets evolve
    /// with the traffic.
    ///
    /// A delivering read replays the engine's accounting pass over the
    /// scanned hits; without them it reads through [`FabpEngine::read`].
    /// When `faults` holds engine-level
    /// faults, every delivering read runs under [`ResilientRunner`] at
    /// [`ResilienceLevel::Recover`]; the merged hits stay bit-identical
    /// to the fault-free search and the outcome's `report` aggregates
    /// what was injected and recovered. `kill@` entries are ignored here.
    ///
    /// Trace spans: each shard records a `shard` span on track
    /// `SHARD_TRACK_BASE + primary`, each delivering read an
    /// `fpga_kernel` child (engine-fault retries hang beneath it); a
    /// hedged duplicate records a `hedge` child span ([`FLAG_HEDGE`],
    /// track of the hedge node), and a cancelled read carries
    /// [`FLAG_CANCELLED`]. A failed-over shard span carries
    /// [`FLAG_ERROR`] since its placement was unroutable, plus a
    /// `resilience_retry` child ([`FLAG_RETRY`] | [`FLAG_RECOVERED`],
    /// argument and track = the serving node).
    ///
    /// # Errors
    ///
    /// As [`search_batch`].
    #[allow(clippy::too_many_arguments)]
    fn scatter(
        &self,
        reference: &PackedSeq,
        faults: &FaultSchedule,
        detector: &mut FailureDetector,
        now_us: u64,
        registry: &Registry,
        flight: &FlightRecorder,
        trace: TraceContext,
        start_us: f64,
        scanned: Option<&[Vec<Hit>]>,
    ) -> FabpResult<FleetSearchOutcome> {
        if reference.len() != self.total_bases() {
            return Err(FabpError::InvalidShardPlan(format!(
                "a {}-base reference for a fleet sharding {} bases",
                reference.len(),
                self.total_bases()
            )));
        }
        let engine_faults = has_engine_faults(faults);
        let mut report = ResilienceReport::default();
        let mut per_shard: Vec<Vec<Hit>> = Vec::with_capacity(self.nodes());
        let mut dispatches = Vec::with_capacity(self.nodes());
        let (mut hedges, mut hedge_wins, mut cancels, mut failovers) = (0u32, 0u32, 0u32, 0u32);

        for (shard_idx, range) in self.ranges.iter().enumerate() {
            let (primary, failover) = self.route_shard(shard_idx, detector)?;
            if failover {
                failovers += 1;
                rtel::count_failover(registry);
            }
            let bases = range.len() as u64;
            let primary_latency = self.read_latency_us(primary, bases);

            // Hedge when the primary's modelled completion blows the
            // p95 budget learned for that node. A cold detector (no
            // samples yet) has budget 0 treated as "no budget": never
            // hedge blind.
            let budget = detector.p95_latency_us(primary);
            let hedge = if budget > 0.0 && primary_latency > budget {
                self.hedge_target(shard_idx, primary, detector)
            } else {
                None
            };

            let shard_ctx = trace.child(SpanKind::Shard, shard_idx as u64);
            let mut dispatch = ShardDispatch {
                shard: shard_idx,
                primary,
                hedge,
                winner: primary,
                cancelled: None,
                failover,
            };
            let mut hedge_latency = 0.0;
            if let Some(hedge_node) = hedge {
                hedges += 1;
                rtel::count_hedge_issued(registry);
                hedge_latency = self.read_latency_us(hedge_node, bases);
                let loser = if hedge_latency < primary_latency {
                    hedge_wins += 1;
                    rtel::count_hedge_won(registry);
                    dispatch.winner = hedge_node;
                    primary
                } else {
                    hedge_node
                };
                // First response wins; the loser is cancelled if the
                // cancel reaches it before it finishes anyway.
                if (hedge_latency - primary_latency).abs() > CANCEL_PROPAGATION_US {
                    cancels += 1;
                    rtel::count_hedge_cancelled(registry);
                    dispatch.cancelled = Some(loser);
                }
            }
            let cancelled = |node| {
                if dispatch.cancelled == Some(node) {
                    FLAG_CANCELLED
                } else {
                    0
                }
            };
            let error = if failover { FLAG_ERROR } else { 0 };
            flight.record(
                TraceEvent::new(shard_ctx, "shard", start_us, primary_latency)
                    .with_arg(shard_idx as u64)
                    .with_track(SHARD_TRACK_BASE + primary as u32)
                    .with_flags(error | cancelled(primary)),
            );
            if let Some(hedge_node) = hedge {
                flight.record(
                    TraceEvent::new(
                        shard_ctx.child(SpanKind::Hedge, hedge_node as u64),
                        "hedge",
                        start_us,
                        hedge_latency,
                    )
                    .with_arg(hedge_node as u64)
                    .with_track(SHARD_TRACK_BASE + hedge_node as u32)
                    .with_flags(FLAG_HEDGE | cancelled(hedge_node)),
                );
            }
            if failover {
                // The placement could not serve the shard: the failover
                // is a recovered retry on the node that served it.
                flight.record(
                    TraceEvent::new(
                        shard_ctx.child(SpanKind::Failover, primary as u64),
                        "resilience_retry",
                        start_us,
                        primary_latency,
                    )
                    .with_arg(primary as u64)
                    .with_track(SHARD_TRACK_BASE + primary as u32)
                    .with_flags(FLAG_RETRY | FLAG_RECOVERED),
                );
            }

            // Run every read that delivers a response: the winner's, and
            // an uncancelled loser's, whose exact duplicates the merge
            // below removes.
            let loser = hedge.map(|node| {
                if node == dispatch.winner {
                    primary
                } else {
                    node
                }
            });
            let uncancelled = loser.filter(|_| dispatch.cancelled.is_none());
            for node in std::iter::once(dispatch.winner).chain(uncancelled) {
                let latency = self.read_latency_us(node, bases);
                let read_ctx = shard_ctx.child(SpanKind::Read, node as u64);
                // Engine-fault retries hang beneath the read's span.
                let run = if engine_faults {
                    let shard = reference.slice(range.clone());
                    let level = ResilienceLevel::Recover;
                    let runner = ResilientRunner::new(&self.engine, level, faults.clone());
                    let traced = runner.with_trace(flight.clone(), read_ctx, start_us);
                    let out = traced.run(&shard, registry)?;
                    report.absorb(&out.report);
                    out.run
                } else if let Some(scanned) = scanned {
                    let hits = &scanned[shard_idx];
                    self.engine.run_scored(range.len(), hits, registry)
                } else {
                    self.engine.read(reference, range.clone(), registry)
                };
                self.engine
                    .record_kernel_span(flight, read_ctx, start_us, range.len());
                per_shard.push(
                    run.hits
                        .into_iter()
                        .map(|h| Hit {
                            position: h.position + range.start,
                            score: h.score,
                        })
                        .collect(),
                );
                detector.record_success(node, latency, now_us.saturating_add(latency as u64));
            }
            dispatches.push(dispatch);
        }

        // Replica duplicates (uncancelled losers) and ordinary
        // cross-shard overlap duplicates both flow through the shared
        // merge — the transparency invariant every shard-composing
        // caller relies on.
        let hits = merge_shard_hits(per_shard);

        let timing = self.fleet_timing(detector)?;
        let nominal = self.timing();
        if detector.routable_count() < self.nodes() && nominal.queries_per_second > 0.0 {
            let permille =
                (timing.queries_per_second / nominal.queries_per_second * 1000.0).round() as i64;
            rtel::record_degraded_throughput(registry, permille.clamp(0, 1000));
        }

        Ok(FleetSearchOutcome {
            hits,
            dispatches,
            timing,
            hedges,
            hedge_wins,
            cancels,
            failovers,
            report,
        })
    }
}

/// Serves a batch of requests, each `(fleet, trace)` one query on its
/// fleet, over `reference`, the packed database every fleet was built
/// for — the fleet's one entry point. Untraced callers pass
/// [`TraceContext::none`] and a disabled recorder; a single request is a
/// batch of one.
///
/// **Scan phase.** Every distinct fleet (a repeated query's fleet is the
/// same one and is scanned once) whose kernel exists joins the lane
/// group of every fleet with equal shard ranges, and each
/// (group, shard) pair is one item of the batch module's claim queue,
/// run by up to `workers` workers: one fused pass over the shard's range
/// of `reference`'s words scores every lane. Each scanned request then
/// records one measured `fleet_scan` work event under `trace`, carrying
/// the phase's wall time. The phase is skipped when `faults` holds
/// engine-level faults (every read then runs under [`ResilientRunner`])
/// and when no node is routable or accepts probes (every request then
/// fails with [`FabpError::NodeDown`] before it reads, and nothing in the
/// batch can change that).
///
/// **Control phase.** On the calling thread, request by request in
/// batch order, each fleet routes, hedges and fails over its shards,
/// feeds `detector`, records its spans and merges its hits exactly as a
/// serial fleet does; a delivering read replays the engine's accounting
/// pass over its lane's hits for the shard. Outcomes are therefore the
/// same whatever the batch and `workers`.
///
/// Returns one result per request, in order.
///
/// # Errors
///
/// Per request: [`FabpError::InvalidShardPlan`] when `reference` is not
/// the length the fleet was built for, [`FabpError::NodeDown`] when no
/// node is routable for some shard, and any engine-level error
/// [`ResilientRunner::run`] could not recover.
#[allow(clippy::too_many_arguments)]
pub fn search_batch(
    requests: &[(&FpgaFleet, TraceContext)],
    reference: &PackedSeq,
    faults: &FaultSchedule,
    detector: &mut FailureDetector,
    now_us: u64,
    registry: &Registry,
    flight: &FlightRecorder,
    start_us: f64,
    workers: usize,
) -> Vec<FabpResult<FleetSearchOutcome>> {
    let (firsts, slot_of) = distinct(requests, |&(fleet, _)| fleet as *const FpgaFleet);
    let mut scanned: Vec<Option<Vec<Vec<Hit>>>> = vec![None; firsts.len()];
    if !has_engine_faults(faults) && detector.serving_count() > 0 {
        let fleets: Vec<&FpgaFleet> = firsts.iter().map(|&i| requests[i].0).collect();
        let started = Instant::now();
        scanned = scan_phase(&fleets, reference, workers);
        let scan_us = started.elapsed().as_secs_f64() * 1e6;
        for (&(_, trace), &slot) in requests.iter().zip(&slot_of) {
            if scanned[slot].is_some() {
                let ctx = trace.child(SpanKind::Work, 0);
                let event = TraceEvent::new(ctx, "fleet_scan", start_us, scan_us);
                flight.record(event.with_track(1));
            }
        }
    }
    requests
        .iter()
        .zip(&slot_of)
        .map(|(&(fleet, trace), &slot)| {
            let scanned = scanned[slot].as_deref();
            fleet.scatter(
                reference, faults, detector, now_us, registry, flight, trace, start_us, scanned,
            )
        })
        .collect()
}

/// The scan phase of [`search_batch`] over distinct `fleets`: returns
/// each fleet's hits per shard, positions relative to the shard's start,
/// or `None` for a fleet it cannot scan (its kernel rejects the query,
/// or `reference` is not the length it was built for).
fn scan_phase(
    fleets: &[&FpgaFleet],
    reference: &PackedSeq,
    workers: usize,
) -> Vec<Option<Vec<Vec<Hit>>>> {
    // One lane group per shard geometry: every fleet over equal shard
    // ranges joins one kernel.
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (f, fleet) in fleets.iter().enumerate() {
        if fleet.engine.kernel().is_none() || fleet.total_bases() != reference.len() {
            continue;
        }
        match groups
            .iter_mut()
            .find(|g| fleets[g[0]].ranges == fleet.ranges)
        {
            Some(group) => group.push(f),
            None => groups.push(vec![f]),
        }
    }
    let kernels: Vec<JoinedLanes> = groups
        .iter()
        .map(|group| JoinedLanes::new(group.iter().filter_map(|&f| fleets[f].engine.kernel())))
        .collect();
    let items: Vec<(usize, usize)> = groups
        .iter()
        .enumerate()
        .flat_map(|(g, group)| (0..fleets[group[0]].ranges.len()).map(move |s| (g, s)))
        .collect();
    let claimed = claim_all(&items, workers, |&(g, s)| {
        let range = fleets[groups[g][0]].ranges[s].clone();
        kernels[g].scan(reference, range)
    });

    // Items run group by group, shard by shard: hand each lane's list
    // to its fleet in shard order.
    let mut scanned: Vec<Option<Vec<Vec<Hit>>>> = vec![None; fleets.len()];
    for (&(g, _), per_lane) in items.iter().zip(claimed.results) {
        for (&f, hits) in groups[g].iter().zip(per_lane) {
            scanned[f].get_or_insert_with(Vec::new).push(hits);
        }
    }
    scanned
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hits::{merge_overlapping, merge_overlapping_unsorted};
    use fabp_bio::generate::{coding_rna_for_paper_patterns, random_protein, random_rna};
    use fabp_bio::seq::RnaSeq;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fixture(seed: u64, bases: usize, plant: &[usize]) -> (EncodedQuery, RnaSeq) {
        let mut rng = StdRng::seed_from_u64(seed);
        let protein = random_protein(10, &mut rng);
        let query = EncodedQuery::from_protein(&protein);
        let coding = coding_rna_for_paper_patterns(&protein, &mut rng);
        let mut seq = random_rna(bases, &mut rng).into_inner();
        for &at in plant {
            seq.splice(at..at + coding.len(), coding.iter().copied());
        }
        (query, RnaSeq::from(seq))
    }

    fn oracle(query: &EncodedQuery, reference: &RnaSeq) -> Vec<Hit> {
        let engine =
            FabpEngine::new(query.clone(), EngineConfig::kintex7(query.len() as u32)).unwrap();
        engine.run(&PackedSeq::from_rna(reference)).hits
    }

    /// A fleet for `query` over `reference` with the exact-window
    /// threshold and `query_len - 1` overlap, plus the reference packed.
    fn fleet_over(
        query: &EncodedQuery,
        reference: &RnaSeq,
        nodes: usize,
        replication: usize,
    ) -> (FpgaFleet, PackedSeq) {
        let qlen = query.len();
        let config = EngineConfig::kintex7(qlen as u32);
        let bases = reference.len();
        let fleet =
            FpgaFleet::homogeneous(query, &config, nodes, replication, bases, qlen - 1).unwrap();
        (fleet, PackedSeq::from_rna(reference))
    }

    /// Bases shard 0 of `fleet_over`'s fleet reads, overlap included.
    fn first_shard_bases(query: &EncodedQuery, reference: &PackedSeq, nodes: usize) -> u64 {
        let (start, end) = overlap_ranges(reference.len(), nodes, query.len() - 1).unwrap()[0];
        (end - start) as u64
    }

    /// `fleet` serving one request, as a batch of one.
    #[allow(clippy::too_many_arguments)]
    fn batch_of_one(
        fleet: &FpgaFleet,
        reference: &PackedSeq,
        faults: &FaultSchedule,
        detector: &mut FailureDetector,
        now_us: u64,
        registry: &Registry,
        flight: &FlightRecorder,
        trace: TraceContext,
        start_us: f64,
    ) -> FabpResult<FleetSearchOutcome> {
        let requests = [(fleet, trace)];
        let mut outcomes = search_batch(
            &requests, reference, faults, detector, now_us, registry, flight, start_us, 1,
        );
        outcomes.remove(0)
    }

    /// An untraced search at time 0.
    fn search(
        fleet: &FpgaFleet,
        reference: &PackedSeq,
        faults: &FaultSchedule,
        detector: &mut FailureDetector,
        registry: &Registry,
    ) -> FabpResult<FleetSearchOutcome> {
        let flight = FlightRecorder::disabled();
        let none = TraceContext::none();
        batch_of_one(
            fleet, reference, faults, detector, 0, registry, &flight, none, 0.0,
        )
    }

    /// Warms the detector so every node has an armed EWMA at
    /// `latency_us` — the state a steady fleet reaches after a few
    /// requests.
    fn warm(detector: &mut FailureDetector, nodes: usize, latency_us: f64) {
        for t in 1..=4u64 {
            for n in 0..nodes {
                detector.record_success(n, latency_us, t * 1_000);
            }
        }
    }

    #[test]
    fn a_fleet_beyond_the_node_bound_is_refused_before_allocating() {
        let query = EncodedQuery::from_protein(&"MKW".parse().unwrap());
        let config = EngineConfig::kintex7(9);
        for nodes in [MAX_FLEET_NODES + 1, usize::MAX] {
            assert!(matches!(
                place_replicas(nodes, nodes, 1),
                Err(FabpError::InvalidShardPlan(msg)) if msg.contains("fleet bound")
            ));
            assert!(matches!(
                FpgaFleet::homogeneous(&query, &config, nodes, 1, 100, 8),
                Err(FabpError::InvalidShardPlan(_))
            ));
        }
        let fleet = FpgaFleet::homogeneous(&query, &config, MAX_FLEET_NODES, 1, 100, 8).unwrap();
        assert_eq!(fleet.nodes(), MAX_FLEET_NODES);
    }

    #[test]
    fn placement_has_anti_affinity_and_rejects_bad_factors() {
        let placement = place_replicas(6, 6, 3).unwrap();
        assert_eq!(placement.len(), 6);
        for (s, replicas) in placement.iter().enumerate() {
            assert_eq!(replicas.len(), 3);
            let mut sorted = replicas.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "shard {s} replicas collide: {replicas:?}");
            assert_eq!(replicas[0], s, "primary replica is the home node");
        }
        // Every node carries the same number of replicas (balance).
        let mut per_node = vec![0usize; 6];
        for replicas in &placement {
            for &n in replicas {
                per_node[n] += 1;
            }
        }
        assert!(per_node.iter().all(|&c| c == 3), "{per_node:?}");

        assert!(matches!(
            place_replicas(4, 4, 0),
            Err(FabpError::InvalidShardPlan(_))
        ));
        assert!(matches!(
            place_replicas(4, 4, 5),
            Err(FabpError::InvalidShardPlan(_))
        ));
        assert!(matches!(
            place_replicas(4, 0, 1),
            Err(FabpError::InvalidShardPlan(_))
        ));
    }

    #[test]
    fn unhedged_fleet_matches_the_single_node_oracle() {
        // Plants one copy mid-shard and one straddling the shard
        // boundary at 1000.
        let (query, reference) = fixture(41, 2_000, &[300, 985]);
        let (fleet, packed) = fleet_over(&query, &reference, 4, 2);
        let mut detector = FailureDetector::with_defaults(4, &Registry::disabled());
        let out = search(
            &fleet,
            &packed,
            &FaultSchedule::new(),
            &mut detector,
            &Registry::disabled(),
        )
        .unwrap();
        assert_eq!(out.hits, oracle(&query, &reference));
        assert!(out.hits.iter().any(|h| h.position == 985), "straddling hit");
        assert_eq!(out.hedges, 0, "cold detector must not hedge blind");
        assert_eq!(out.failovers, 0);
        assert_eq!(out.report, ResilienceReport::default());
        assert!(out
            .dispatches
            .iter()
            .enumerate()
            .all(|(s, d)| d.primary == s && d.winner == s && d.hedge.is_none()));
    }

    #[test]
    fn fleet_search_finds_hits_across_shard_boundaries() {
        // The single-replica shape: 4 shards of 500 bases, one copy
        // straddling the boundary at 1000 and one mid-shard.
        let (query, reference) = fixture(2, 2_000, &[985, 300]);
        let (fleet, packed) = fleet_over(&query, &reference, 4, 1);
        let mut detector = FailureDetector::with_defaults(4, &Registry::disabled());
        let hits = search(
            &fleet,
            &packed,
            &FaultSchedule::new(),
            &mut detector,
            &Registry::disabled(),
        )
        .unwrap()
        .hits;
        assert!(hits.iter().any(|h| h.position == 300), "{hits:?}");
        assert!(
            hits.iter().any(|h| h.position == 985),
            "straddling hit: {hits:?}"
        );
        assert_eq!(hits, oracle(&query, &reference));
    }

    #[test]
    fn straggler_triggers_hedge_and_hits_stay_bit_identical() {
        let (query, reference) = fixture(42, 2_000, &[300, 985]);
        let (mut fleet, packed) = fleet_over(&query, &reference, 4, 2);
        let nominal = fleet.read_latency_us(0, first_shard_bases(&query, &packed, 4));

        // Train the detector at the nominal latency, then make node 1 a
        // heavy straggler: its primary read blows the p95 budget and the
        // scatter hedges shard 1 to node 2 (placement (1, 2)). The
        // straggle factor is sized so the loser finishes well outside
        // the cancel-propagation window of the winner.
        let straggle = 2.0 * CANCEL_PROPAGATION_US / nominal + 2.0;
        let mut detector = FailureDetector::with_defaults(4, &Registry::disabled());
        warm(&mut detector, 4, nominal);
        fleet.set_straggle(1, straggle);

        let registry = Registry::new();
        let out = batch_of_one(
            &fleet,
            &packed,
            &FaultSchedule::new(),
            &mut detector,
            1_000_000,
            &registry,
            &FlightRecorder::disabled(),
            TraceContext::none(),
            0.0,
        )
        .unwrap();
        assert_eq!(out.hits, oracle(&query, &reference), "hedging is invisible");
        assert!(out.hedges >= 1);
        assert!(out.hedge_wins >= 1, "the healthy replica must win");
        let d1 = out.dispatches[1];
        assert_eq!((d1.primary, d1.hedge, d1.winner), (1, Some(2), 2));
        assert_eq!(d1.cancelled, Some(1), "the straggler read is cancelled");
        let prom = registry.snapshot().to_prometheus();
        assert!(prom.contains("fabp_fleet_hedges_total"), "{prom}");
        assert!(prom.contains("fabp_fleet_hedge_wins_total"), "{prom}");
        assert!(prom.contains("fabp_fleet_cancels_total"), "{prom}");
    }

    #[test]
    fn uncancellable_loser_delivers_duplicates_that_dedup_exactly() {
        let (query, reference) = fixture(43, 1_600, &[200, 900]);
        let (mut fleet, packed) = fleet_over(&query, &reference, 4, 2);
        let nominal = fleet.read_latency_us(0, first_shard_bases(&query, &packed, 4));

        // Train the budget low, then slow *every* node slightly: each
        // primary blows its budget, but primary and hedge finish within
        // the cancel-propagation window of each other (same straggle),
        // so both deliver and the gather must dedup the full replica
        // overlap back to the oracle.
        let mut detector = FailureDetector::with_defaults(4, &Registry::disabled());
        warm(&mut detector, 4, nominal * 0.2);
        for n in 0..4 {
            fleet.set_straggle(n, 1.0);
        }

        let out = batch_of_one(
            &fleet,
            &packed,
            &FaultSchedule::new(),
            &mut detector,
            1_000_000,
            &Registry::disabled(),
            &FlightRecorder::disabled(),
            TraceContext::none(),
            0.0,
        )
        .unwrap();
        assert!(out.hedges >= 1, "every shard should hedge: {out:?}");
        assert_eq!(out.cancels, 0, "equal-speed losers cannot be cancelled");
        assert!(out
            .dispatches
            .iter()
            .any(|d| d.hedge.is_some() && d.cancelled.is_none()));
        assert_eq!(
            out.hits,
            oracle(&query, &reference),
            "duplicate replica responses must dedup bit-identically"
        );
    }

    #[test]
    fn drained_replicas_fail_over_and_stay_bit_identical() {
        let (query, reference) = fixture(44, 2_000, &[120, 1_500]);
        let (fleet, packed) = fleet_over(&query, &reference, 4, 2);

        // Shard 0 is placed on nodes (0, 1); kill both. The scatter
        // must fail over to a routable node and still merge the full
        // hit set.
        let mut detector = FailureDetector::with_defaults(4, &Registry::disabled());
        detector.record_kill(0);
        detector.record_kill(1);
        let none = FaultSchedule::new();
        let out = search(&fleet, &packed, &none, &mut detector, &Registry::disabled()).unwrap();
        assert_eq!(out.hits, oracle(&query, &reference));
        assert!(out.failovers >= 1);
        assert!(out.dispatches[0].failover);
        assert!([2, 3].contains(&out.dispatches[0].primary));

        // Timing over two survivors each carrying double load is worse
        // than nominal.
        let degraded = fleet.fleet_timing(&detector).unwrap();
        assert!(degraded.latency_seconds > fleet.timing().latency_seconds);
        assert!(degraded.queries_per_second < fleet.timing().queries_per_second);

        // A fully dead fleet is fatal.
        detector.record_kill(2);
        detector.record_kill(3);
        assert!(matches!(
            search(&fleet, &packed, &none, &mut detector, &Registry::disabled()),
            Err(FabpError::NodeDown { .. })
        ));
    }

    #[test]
    fn hedging_is_deterministic_for_identical_inputs() {
        let (query, reference) = fixture(45, 1_800, &[400]);
        let run = || {
            let (mut fleet, packed) = fleet_over(&query, &reference, 4, 2);
            let nominal = fleet.read_latency_us(0, first_shard_bases(&query, &packed, 4));
            let mut detector = FailureDetector::with_defaults(4, &Registry::disabled());
            warm(&mut detector, 4, nominal);
            fleet.set_straggle(3, 50.0);
            let out = batch_of_one(
                &fleet,
                &packed,
                &FaultSchedule::new(),
                &mut detector,
                1_000_000,
                &Registry::disabled(),
                &FlightRecorder::disabled(),
                TraceContext::none(),
                0.0,
            )
            .unwrap();
            (
                out.hits,
                out.dispatches,
                out.hedges,
                out.hedge_wins,
                out.cancels,
                out.failovers,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn shard_count_mismatch_is_a_typed_error() {
        // The fleet cuts its shards from the reference length it was
        // built for; a reference shorter or longer than that (empty
        // included) does not fit its shard plan.
        let (query, reference) = fixture(46, 800, &[]);
        let (fleet, packed) = fleet_over(&query, &reference, 4, 2);
        let mut detector = FailureDetector::with_defaults(4, &Registry::disabled());
        let none = FaultSchedule::new();
        let registry = Registry::disabled();
        for len in [799, 801, 0] {
            let wrong = PackedSeq::from_rna(&random_rna(len, &mut StdRng::seed_from_u64(3)));
            assert!(matches!(
                search(&fleet, &wrong, &none, &mut detector, &registry),
                Err(FabpError::InvalidShardPlan(_))
            ));
        }
        assert!(search(&fleet, &packed, &none, &mut detector, &registry).is_ok());
    }

    #[test]
    fn shard_count_mismatch_at_r1_is_a_typed_error() {
        // Two nodes at R = 1 sharding 12 bases: one base short, one
        // base over, then the reference the plan was cut from.
        let protein = random_protein(5, &mut StdRng::seed_from_u64(3));
        let query = EncodedQuery::from_protein(&protein);
        let reference: RnaSeq = "ACGUACGUACGU".parse().unwrap();
        let (fleet, packed) = fleet_over(&query, &reference, 2, 1);
        let mut detector = FailureDetector::with_defaults(2, &Registry::disabled());
        let none = FaultSchedule::new();
        let registry = Registry::disabled();
        for wrong in ["ACGUACGUACG", "ACGUACGUACGUA"] {
            let wrong = PackedSeq::from_rna(&wrong.parse().unwrap());
            assert!(matches!(
                search(&fleet, &wrong, &none, &mut detector, &registry),
                Err(FabpError::InvalidShardPlan(_))
            ));
        }
        assert!(search(&fleet, &packed, &none, &mut detector, &registry).is_ok());
    }

    #[test]
    fn empty_query_fleet_is_a_typed_error() {
        let query = EncodedQuery::from_exact_rna(&RnaSeq::new());
        assert!(matches!(
            FpgaFleet::homogeneous(&query, &EngineConfig::kintex7(0), 2, 2, 100, 0),
            Err(FabpError::EmptyQuery)
        ));
    }

    #[test]
    fn empty_query_fleet_at_r1_is_a_typed_error() {
        let query = EncodedQuery::from_exact_rna(&RnaSeq::new());
        for nodes in [1, 2, 4] {
            assert!(
                matches!(
                    FpgaFleet::homogeneous(&query, &EngineConfig::kintex7(0), nodes, 1, 100, 0),
                    Err(FabpError::EmptyQuery)
                ),
                "nodes={nodes}"
            );
        }
    }

    #[test]
    fn zero_nodes_is_a_typed_error() {
        let (query, reference) = fixture(47, 100, &[]);
        assert!(matches!(
            overlap_ranges(reference.len(), 0, 3),
            Err(FabpError::InvalidShardPlan(_))
        ));
        assert!(matches!(
            FpgaFleet::homogeneous(&query, &EngineConfig::kintex7(30), 0, 1, 100, 3),
            Err(FabpError::InvalidShardPlan(_))
        ));
    }

    #[test]
    fn throughput_scales_with_nodes() {
        let protein = random_protein(50, &mut StdRng::seed_from_u64(1));
        let query = EncodedQuery::from_protein(&protein);
        let config = EngineConfig::kintex7(140);
        let single = FpgaFleet::homogeneous(&query, &config, 1, 1, 1_000_000_000, 0).unwrap();
        let quad = FpgaFleet::homogeneous(&query, &config, 4, 1, 1_000_000_000, 0).unwrap();
        let t1 = single.timing();
        let t4 = quad.timing();
        let scaling = t4.queries_per_second / t1.queries_per_second;
        assert!(
            (3.2..=4.0).contains(&scaling),
            "4-node scaling {scaling:.2} (warm-up overhead bounds it below 4)"
        );
        // Energy per query stays in the same ballpark (same total work).
        let ratio = t4.joules_per_query / t1.joules_per_query;
        assert!((0.8..=1.6).contains(&ratio), "energy ratio {ratio:.2}");
    }

    // ---- shard plans: nodes > bases, zero-length shards, overlap ≥
    // shard size ----

    #[test]
    fn overlap_larger_than_shard_clamps_to_reference_end() {
        // 12 bases in 6 shards of 2 bases, overlap 5 > shard size.
        let ranges = overlap_ranges(12, 6, 5).unwrap();
        let offsets: Vec<usize> = ranges.iter().map(|&(start, _)| start).collect();
        assert_eq!(offsets, vec![0, 2, 4, 6, 8, 10]);
        // Every shard stays in bounds, and the final shard cannot read
        // past the end.
        assert!(ranges.iter().all(|&(start, end)| start <= end && end <= 12));
        assert_eq!(ranges[5], (10, 12));
    }

    #[test]
    fn overlap_with_more_nodes_than_bases_stays_in_bounds_and_complete() {
        let bases = 5;
        for (nodes, overlap) in [(8, 3), (8, 5), (8, 64), (5, 5), (12, 0)] {
            let ranges = overlap_ranges(bases, nodes, overlap).unwrap();
            assert_eq!(ranges.len(), nodes, "nodes={nodes} overlap={overlap}");
            // Offsets are non-decreasing and every range is in bounds.
            assert!(ranges
                .iter()
                .all(|&(start, end)| start <= end && end <= bases));
            assert!(ranges.windows(2).all(|w| w[0].0 <= w[1].0));
            // Every base is covered by at least one shard: the union of
            // the ranges is [0, bases).
            let mut covered = vec![false; bases];
            for &(start, end) in &ranges {
                for c in &mut covered[start..end] {
                    *c = true;
                }
            }
            assert!(
                covered.iter().all(|&c| c),
                "nodes={nodes} overlap={overlap}: coverage gap"
            );
            // Zero-size shard bodies appear exactly when nodes > bases.
            let zero_body = overlap_ranges(bases, nodes, 0)
                .unwrap()
                .iter()
                .filter(|&&(start, end)| start == end)
                .count();
            assert_eq!(zero_body, nodes.saturating_sub(bases));
        }
    }

    #[test]
    fn degenerate_sharding_still_matches_single_engine() {
        let mut rng = StdRng::seed_from_u64(9);
        let protein = random_protein(6, &mut rng);
        let query = EncodedQuery::from_protein(&protein);
        let qlen = query.len();
        let coding = coding_rna_for_paper_patterns(&protein, &mut rng);

        // A reference barely longer than the query, more nodes than
        // sensible, overlap far larger than the shard size.
        let mut bases = random_rna(40, &mut rng).into_inner();
        bases.splice(7..7 + coding.len(), coding.iter().copied());
        let reference = RnaSeq::from(bases);

        let config = EngineConfig::kintex7(qlen as u32);
        let expected = oracle(&query, &reference);
        assert!(!expected.is_empty(), "fixture must plant a hit");

        let packed = PackedSeq::from_rna(&reference);
        for (nodes, overlap) in [(16, qlen - 1), (8, 40), (40, qlen - 1), (3, 0)] {
            let fleet =
                FpgaFleet::homogeneous(&query, &config, nodes, 1, packed.len(), overlap).unwrap();
            let mut detector = FailureDetector::with_defaults(nodes, &Registry::disabled());
            let hits = search(
                &fleet,
                &packed,
                &FaultSchedule::new(),
                &mut detector,
                &Registry::disabled(),
            )
            .unwrap()
            .hits;
            if overlap >= qlen - 1 {
                assert_eq!(hits, expected, "nodes={nodes} overlap={overlap}");
            } else {
                // Too little overlap may *miss* boundary hits but must
                // never invent or duplicate them.
                for h in &hits {
                    assert!(expected.contains(h), "nodes={nodes} overlap={overlap}");
                }
                let mut sorted = hits.clone();
                sorted.dedup();
                assert_eq!(sorted, hits, "no duplicates");
            }
        }
    }

    #[test]
    fn composed_shard_searches_do_not_duplicate_boundary_hits() {
        // A caller composing `overlap_ranges` with per-shard engine runs
        // must get the single-engine hit list. Naive concatenation
        // double-reports a boundary homology: once from shard 1's
        // overlap tail and once from shard 2's head.
        //
        // Shards carry 64 bases of overlap — the serving-layer shape,
        // where overlap is sized for the *longest* supported query, so a
        // shorter query's boundary windows are evaluated by two nodes.
        let mut rng = StdRng::seed_from_u64(21);
        let protein = random_protein(10, &mut rng);
        let query = EncodedQuery::from_protein(&protein);
        let overlap = 64usize;
        assert!(query.len() <= overlap);
        let coding = coding_rna_for_paper_patterns(&protein, &mut rng);

        // 4 shards of 500 bases; plant a homology just past the shard
        // boundary at 1000 — its window [1005, 1035) lies inside both
        // shard 1's overlap tail ([500, 1064)) and shard 2 ([1000, …)).
        let mut bases = random_rna(2_000, &mut rng).into_inner();
        bases.splice(1_005..1_005 + coding.len(), coding.iter().copied());
        let reference = RnaSeq::from(bases);

        let expected = oracle(&query, &reference);
        assert!(
            expected.iter().any(|h| h.position == 1_005),
            "fixture must plant a boundary hit: {expected:?}"
        );

        // Per-shard runs, hits translated to global coordinates — the
        // composition a multi-query serving layer performs.
        let packed = PackedSeq::from_rna(&reference);
        let config = EngineConfig::kintex7(query.len() as u32);
        let fleet = FpgaFleet::homogeneous(&query, &config, 4, 1, packed.len(), overlap).unwrap();
        let per_shard: Vec<Vec<Hit>> = overlap_ranges(packed.len(), 4, overlap)
            .unwrap()
            .into_iter()
            .map(|(start, end)| {
                fleet
                    .engine
                    .run(&packed.slice(start..end))
                    .hits
                    .into_iter()
                    .map(|h| Hit {
                        position: h.position + start,
                        score: h.score,
                    })
                    .collect()
            })
            .collect();

        // Concatenate + sort, no dedup: the boundary hit appears twice.
        let mut naive: Vec<Hit> = per_shard.iter().flatten().copied().collect();
        naive.sort_by_key(|h| h.position);
        assert!(
            naive.len() > expected.len()
                && naive.iter().filter(|h| h.position == 1_005).count() >= 2,
            "fixture must exhibit the duplicate the helper exists to remove: {naive:?}"
        );

        // The shared helper restores the single-engine list.
        assert_eq!(merge_shard_hits(per_shard), expected);

        // And the fleet path agrees with the helper (same code).
        let mut detector = FailureDetector::with_defaults(4, &Registry::disabled());
        let out = search(
            &fleet,
            &packed,
            &FaultSchedule::new(),
            &mut detector,
            &Registry::disabled(),
        )
        .unwrap();
        assert_eq!(out.hits, expected);
    }

    // ---- node kills at R = 1: failover is the recovery ----

    #[test]
    fn node_kill_recovers_on_survivors_with_degraded_timing() {
        let (query, reference) = fixture(4, 2_000, &[985, 300]);
        let (fleet, packed) = fleet_over(&query, &reference, 4, 1);
        let none = FaultSchedule::new();
        let mut healthy = FailureDetector::with_defaults(4, &Registry::disabled());
        let baseline = search(&fleet, &packed, &none, &mut healthy, &Registry::disabled())
            .unwrap()
            .hits;
        assert!(baseline.iter().any(|h| h.position == 300));

        // Kill the node holding the mid-shard hit (node 0 covers 0..500).
        let registry = Registry::new();
        let mut detector = FailureDetector::with_defaults(4, &registry);
        detector.record_kill(0);
        let out = search(&fleet, &packed, &none, &mut detector, &registry).unwrap();
        assert_eq!(
            out.hits, baseline,
            "survivors must reproduce the full hit set bit-identically"
        );
        assert_eq!(out.failovers, 1);
        assert!(out.dispatches[0].failover && out.dispatches[0].primary != 0);

        // A survivor carries double load.
        let nominal = fleet.timing();
        let degraded = fleet.fleet_timing(&detector).unwrap();
        assert_eq!(out.timing, degraded);
        assert!(degraded.latency_seconds > nominal.latency_seconds);
        let penalty = 1.0 - degraded.queries_per_second / nominal.queries_per_second;
        assert!(penalty > 0.0 && penalty < 1.0, "penalty {penalty:.3}");

        // Telemetry observed the failover and the degradation.
        let prom = registry.snapshot().to_prometheus();
        assert!(prom.contains("fabp_fleet_failovers_total 1"), "{prom}");
        assert!(
            prom.contains("fabp_fleet_degraded_throughput_permille"),
            "{prom}"
        );
    }

    #[test]
    fn node_kill_then_region_merge_does_not_panic() {
        // Shards may legally complete out of offset order — a failed-over
        // shard runs on a survivor *after* higher-offset shards. Merging
        // such a list with the strict `merge_overlapping` panics; the
        // sort-before-merge path must be used.
        let (query, reference) = fixture(31, 1_600, &[100, 1_300]);
        let qlen = query.len();
        let (fleet, packed) = fleet_over(&query, &reference, 4, 1);
        let none = FaultSchedule::new();
        let mut healthy = FailureDetector::with_defaults(4, &Registry::disabled());
        let baseline = search(&fleet, &packed, &none, &mut healthy, &Registry::disabled())
            .unwrap()
            .hits;

        // Completion order with node 0's shard served last.
        let ranges = overlap_ranges(packed.len(), 4, qlen - 1).unwrap();
        let mut completion_order: Vec<Hit> = Vec::new();
        for shard in [1usize, 2, 3, 0] {
            let (start, end) = ranges[shard];
            let run = fleet.engine.run(&packed.slice(start..end));
            completion_order.extend(run.hits.into_iter().map(|h| Hit {
                position: h.position + start,
                score: h.score,
            }));
        }
        assert!(
            completion_order
                .windows(2)
                .any(|w| w[1].position < w[0].position),
            "fixture must produce an out-of-order list: {completion_order:?}"
        );
        let strict = std::panic::catch_unwind(|| merge_overlapping(&completion_order, qlen));
        assert!(strict.is_err(), "strict merge must panic on failover order");
        // Sort-before-merge handles it and matches the fault-free regions.
        let regions = merge_overlapping_unsorted(&completion_order, qlen);
        assert_eq!(regions, merge_overlapping(&baseline, qlen));

        // The full path: kill node 0, fail over, merge regions.
        let mut detector = FailureDetector::with_defaults(4, &Registry::disabled());
        detector.record_kill(0);
        let out = search(&fleet, &packed, &none, &mut detector, &Registry::disabled()).unwrap();
        assert_eq!(out.hits, baseline);
        let regions = merge_overlapping_unsorted(&out.hits, qlen);
        assert_eq!(regions, merge_overlapping(&baseline, qlen));
        assert!(regions
            .iter()
            .any(|r| r.best.position == 100 || r.start <= 100));
    }

    #[test]
    fn killing_every_node_is_fatal() {
        let (query, reference) = fixture(8, 200, &[]);
        let (fleet, packed) = fleet_over(&query, &reference, 2, 1);
        let faults = FaultSchedule::parse("kill@0:1,kill@1:1").unwrap();
        let mut detector = FailureDetector::with_defaults(2, &Registry::disabled());
        for (node, _) in faults.node_kills() {
            detector.record_kill(node);
        }
        assert!(matches!(
            search(
                &fleet,
                &packed,
                &faults,
                &mut detector,
                &Registry::disabled()
            ),
            Err(FabpError::NodeDown { .. })
        ));
    }

    #[test]
    fn node_kill_with_engine_faults_still_bit_identical() {
        let (query, reference) = fixture(13, 1_500, &[700]);
        let (fleet, packed) = fleet_over(&query, &reference, 3, 1);
        let mut healthy = FailureDetector::with_defaults(3, &Registry::disabled());
        let baseline = search(
            &fleet,
            &packed,
            &FaultSchedule::new(),
            &mut healthy,
            &Registry::disabled(),
        )
        .unwrap()
        .hits;
        assert!(!baseline.is_empty());

        // Node death *plus* engine-level faults on every read.
        let faults =
            FaultSchedule::parse("kill@1:3,beatflip@0:2:9,config@1:cmp:11,stall@0:900").unwrap();
        let registry = Registry::new();
        let flight = registry.flight_recorder();
        let trace = TraceContext::mint(7, 1);
        let mut detector = FailureDetector::with_defaults(3, &registry);
        for (node, _) in faults.node_kills() {
            detector.record_kill(node);
        }
        let out = batch_of_one(
            &fleet,
            &packed,
            &faults,
            &mut detector,
            0,
            &registry,
            &flight,
            trace,
            0.0,
        )
        .unwrap();
        assert_eq!(out.hits, baseline);
        assert_eq!(out.failovers, 1);
        assert!(out.report.injected > 0 && out.report.recovered > 0);
        let prom = registry.snapshot().to_prometheus();
        assert!(
            prom.contains("fabp_resilience_faults_injected_total"),
            "{prom}"
        );

        // The failover retry hangs under shard 1's span on the serving
        // node's track; engine retries hang under their read's kernel
        // span.
        let events = flight.events_for(trace.trace_id);
        let span = |id: u64| events.iter().find(|e| e.span_id == id);
        let retries: Vec<_> = events
            .iter()
            .filter(|e| e.name == "resilience_retry")
            .collect();
        let failover = retries
            .iter()
            .find(|e| e.flags & FLAG_RECOVERED != 0)
            .expect("failover retry span");
        let shard_span = span(failover.parent_span_id).expect("failover parent");
        assert_eq!(shard_span.name, "shard");
        assert_eq!(shard_span.arg, 1);
        assert_ne!(shard_span.flags & FLAG_ERROR, 0);
        assert_eq!(failover.arg, out.dispatches[1].primary as u64);
        assert_eq!(
            failover.track,
            SHARD_TRACK_BASE + out.dispatches[1].primary as u32
        );
        assert!(retries
            .iter()
            .filter(|e| e.flags & FLAG_RECOVERED == 0)
            .all(|e| span(e.parent_span_id).is_some_and(|p| p.name == "fpga_kernel")));
        assert!(retries.len() > 1, "engine faults retry under the reads");
    }

    // ---- batches: one scan phase, then the serial control ----

    /// Nodes of [`batch_fixture`]'s fleets.
    const BATCH_NODES: usize = 8;

    /// Eight nodes at R = 2 over one 3 000-base reference holding a
    /// planted copy of each of three queries (10, 6 and 10 aa, the first
    /// two straddling shard boundaries): one fleet per query, cutting the
    /// same shards, and a fourth for the 6-aa query whose wider overlap
    /// cuts other ones, so it cannot share their lanes. On every fleet
    /// node 1 is a
    /// heavy straggler (its hedged loser is cancelled) and node 3 a mild
    /// one (its loser finishes inside the cancel window and delivers).
    /// Returns the fleets, the packed reference and the nominal read
    /// latency the detector is warmed at.
    fn batch_fixture() -> (Vec<FpgaFleet>, PackedSeq, f64) {
        let mut rng = StdRng::seed_from_u64(61);
        let proteins = [10, 6, 10].map(|aa| random_protein(aa, &mut rng));
        let mut bases = random_rna(3_000, &mut rng).into_inner();
        // The 6-aa query's second copy ends past shard 4's 30-base
        // overlap, inside its 45-base one.
        let plants = [(0, 1_110), (1, 1_495), (1, 1_890), (2, 2_200)];
        for (p, at) in plants {
            let coding = coding_rna_for_paper_patterns(&proteins[p], &mut rng);
            bases.splice(at..at + coding.len(), coding.iter().copied());
        }
        let packed = PackedSeq::from_rna(&RnaSeq::from(bases));
        let mut fleets: Vec<FpgaFleet> = [(0, 30), (1, 30), (2, 30), (1, 45)]
            .into_iter()
            .map(|(p, overlap)| {
                let query = EncodedQuery::from_protein(&proteins[p]);
                let config = EngineConfig::kintex7(query.len() as u32 - 2);
                let bases = packed.len();
                FpgaFleet::homogeneous(&query, &config, BATCH_NODES, 2, bases, overlap).unwrap()
            })
            .collect();
        let nominal = fleets[0].read_latency_us(0, fleets[0].ranges[0].len() as u64);
        for fleet in &mut fleets {
            fleet.set_straggle(1, 2.0 * CANCEL_PROPAGATION_US / nominal + 2.0);
            fleet.set_straggle(3, 2.0);
        }
        (fleets, packed, nominal)
    }

    /// What one run of a request stream leaves behind: each request's
    /// result, the detector's per-node state, the fleet telemetry, and
    /// the flight events — the control's in recording order, the
    /// measured `fleet_scan` events (duration dropped) sorted apart.
    #[derive(Debug, PartialEq)]
    struct Served {
        outcomes: Vec<FabpResult<FleetSearchOutcome>>,
        detector: Vec<(fabp_resilience::health::NodeState, u64, u64)>,
        metrics: String,
        control: Vec<fabp_telemetry::FlightEvent>,
        scans: Vec<(u64, u64, u64, u32)>,
    }

    /// Serves `fleets[f]` for each `f` of `stream` at 1 ms, after warming
    /// the detector at `nominal` and killing `kills`: as one
    /// batch on `workers` workers, or with `None` one request at a time,
    /// each a batch of one.
    fn serve_stream(
        fleets: &[FpgaFleet],
        stream: &[usize],
        packed: &PackedSeq,
        (faults, kills, nominal): (&FaultSchedule, &[usize], f64),
        workers: Option<usize>,
    ) -> Served {
        let registry = Registry::new();
        let flight = registry.flight_recorder();
        let mut detector = FailureDetector::with_defaults(BATCH_NODES, &registry);
        warm(&mut detector, BATCH_NODES, nominal);
        for &node in kills {
            detector.record_kill(node);
        }
        let requests: Vec<(&FpgaFleet, TraceContext)> = stream
            .iter()
            .enumerate()
            .map(|(i, &f)| (&fleets[f], TraceContext::mint(0xB47C, i as u64)))
            .collect();
        let mut batch = |requests: &[(&FpgaFleet, TraceContext)], workers| {
            let (d, r, f) = (&mut detector, &registry, &flight);
            search_batch(requests, packed, faults, d, 1_000_000, r, f, 0.0, workers)
        };
        let outcomes = match workers {
            Some(workers) => batch(&requests, workers),
            None => requests
                .iter()
                .flat_map(|request| batch(std::slice::from_ref(request), 1))
                .collect(),
        };
        let (mut control, mut scans) = (Vec::new(), Vec::new());
        for event in flight.events() {
            if event.name == "fleet_scan" {
                let key = (event.trace_id, event.span_id, event.parent_span_id);
                scans.push((key.0, key.1, key.2, event.track));
            } else {
                control.push(event);
            }
        }
        scans.sort_unstable();
        Served {
            outcomes,
            detector: (0..BATCH_NODES)
                .map(|n| {
                    let ewma = detector.ewma_latency_us(n).to_bits();
                    (
                        detector.state(n),
                        ewma,
                        detector.p95_latency_us(n).to_bits(),
                    )
                })
                .collect(),
            metrics: registry.snapshot().to_prometheus(),
            control,
            scans,
        }
    }

    #[test]
    fn a_batch_serves_exactly_as_its_requests_one_at_a_time() {
        // A repeated query, two query lengths, two shard plans, hedges
        // with a cancelled and an uncancelled loser, and nodes 5 and 6
        // killed, so shard 5 (placed on both) fails over.
        let (fleets, packed, nominal) = batch_fixture();
        let stream = [0, 1, 0, 3, 2, 1];
        let none = FaultSchedule::new();
        let shape = (&none, &[5usize, 6][..], nominal);
        let serial = serve_stream(&fleets, &stream, &packed, shape, None);
        let outcomes: Vec<&FleetSearchOutcome> = serial
            .outcomes
            .iter()
            .map(|o| o.as_ref().unwrap())
            .collect();
        let dispatches = || outcomes.iter().flat_map(|o| &o.dispatches);
        assert!(dispatches().any(|d| d.cancelled.is_some()), "{outcomes:?}");
        assert!(dispatches().any(|d| d.hedge.is_some() && d.cancelled.is_none()));
        assert!(dispatches().any(|d| d.failover && d.shard == 5));
        for (o, &f) in outcomes.iter().zip(&stream) {
            let engine = &fleets[f].engine;
            assert_eq!(
                o.hits,
                engine.run(&packed).hits,
                "hedges and failover are invisible"
            );
            assert!(!o.hits.is_empty(), "planted queries hit");
        }
        assert_eq!(
            serial.scans.len(),
            stream.len(),
            "one fleet_scan per request"
        );
        for workers in [1, 2, 4] {
            let batch = serve_stream(&fleets, &stream, &packed, shape, Some(workers));
            assert_eq!(batch, serial, "workers={workers}");
        }
    }

    #[test]
    fn engine_faults_and_a_dead_fleet_serve_batches_serially() {
        let (fleets, packed, nominal) = batch_fixture();
        let stream = [2, 0, 2];
        // Engine-level faults: no scan phase, every read recovered under
        // the resilient runner, exactly as one request at a time.
        let faults = FaultSchedule::parse("beatflip@0:2:9,stall@1:900").unwrap();
        let shape = (&faults, &[][..], nominal);
        let serial = serve_stream(&fleets, &stream, &packed, shape, None);
        assert!(serial.scans.is_empty(), "engine faults skip the scan phase");
        for (outcome, &f) in serial.outcomes.iter().zip(&stream) {
            let outcome = outcome.as_ref().unwrap();
            assert_eq!(outcome.hits, fleets[f].engine.run(&packed).hits);
            assert!(outcome.report.injected > 0 && outcome.report.recovered > 0);
        }
        assert_eq!(
            serve_stream(&fleets, &stream, &packed, shape, Some(2)),
            serial
        );

        // Every node dead: every request fails before it reads.
        let none = FaultSchedule::new();
        let every: Vec<usize> = (0..BATCH_NODES).collect();
        let shape = (&none, &every[..], nominal);
        let dead = serve_stream(&fleets, &stream, &packed, shape, Some(2));
        assert!(dead
            .outcomes
            .iter()
            .all(|o| matches!(o, Err(FabpError::NodeDown { .. }))));
        assert!(dead.scans.is_empty() && dead.control.is_empty());
        assert_eq!(serve_stream(&fleets, &stream, &packed, shape, None), dead);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        /// Span ids cannot collide: on fleets of up to 512 nodes, with
        /// stragglers (hedged reads whose losers are cancelled or
        /// deliver) and killed nodes (failovers), every event of a
        /// request's trace has a span id of its own.
        #[test]
        fn span_ids_are_unique_in_every_trace(
            nodes in 1usize..=512,
            replication in 1usize..=3,
            stragglers in proptest::prop::collection::vec(0usize..512, 0..=8),
            kills in proptest::prop::collection::vec(0usize..512, 0..=4),
            seed in 0u64..1_000_000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let query = EncodedQuery::from_protein(&random_protein(4, &mut rng));
            let reference = PackedSeq::from_rna(&random_rna(3_000, &mut rng));
            let config = EngineConfig::kintex7(query.len() as u32 / 2);
            let replication = replication.min(nodes);
            let bases = reference.len();
            let mut fleet =
                FpgaFleet::homogeneous(&query, &config, nodes, replication, bases, query.len() - 1)
                    .unwrap();
            let nominal = fleet.read_latency_us(0, fleet.ranges[0].len() as u64);
            for (i, &node) in stragglers.iter().enumerate() {
                // A heavy straggler's loser is cancelled; a mild one's
                // finishes inside the cancel window and delivers.
                let heavy = 2.0 * CANCEL_PROPAGATION_US / nominal + 2.0;
                fleet.set_straggle(node % nodes, if i % 2 == 0 { heavy } else { 2.0 });
            }
            let registry = Registry::new();
            let flight = registry.flight_recorder();
            let mut detector = FailureDetector::with_defaults(nodes, &registry);
            warm(&mut detector, nodes, nominal);
            for &node in &kills {
                detector.record_kill(node % nodes);
            }
            let none = FaultSchedule::new();
            let trace = TraceContext::mint(0x5EED, seed);
            let requests = [(&fleet, trace)];
            let (d, r, f) = (&mut detector, &registry, &flight);
            search_batch(&requests, &reference, &none, d, 1_000_000, r, f, 0.0, 2);
            proptest::prop_assert_eq!(flight.dropped(), 0);
            let events = flight.events_for(trace.trace_id);
            let mut ids: Vec<u64> = events.iter().map(|e| e.span_id).collect();
            ids.sort_unstable();
            let before = ids.len();
            ids.dedup();
            proptest::prop_assert_eq!(ids.len(), before, "a span id repeats in {:?}", events);
        }
    }
}
