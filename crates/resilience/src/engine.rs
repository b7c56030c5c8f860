//! The resilient kernel runner: drives an engine session beat by beat
//! under a fault schedule, detecting and recovering as configured.
//!
//! [`ResilientRunner`] is the system-level composition of the three
//! layers:
//!
//! * every reference beat is CRC-framed at "pack time" (host side) and
//!   checked on arrival; a mismatch triggers retry-with-backoff
//!   re-fetches of the pristine beat from DRAM;
//! * the packed query bitstream is CRC-checked before configuration; a
//!   mismatch triggers a re-transfer;
//! * a [`ConfigScrubber`] periodically compares the live comparator
//!   truth tables against the golden netlist; an upset is repaired by
//!   rewriting the golden configuration and **replaying** the beats
//!   since the last clean checkpoint (which were scored by corrupted
//!   logic) — replays honestly cost cycles and DRAM reads;
//! * a [`Watchdog`] bounds how long a fetch may stall; a flagged stall
//!   is recovered by re-issuing the burst, so the run pays
//!   `deadline + backoff` instead of the full stall.
//!
//! Under [`ResilienceLevel::Recover`], any schedule of *detectable*
//! faults yields hits **bit-identical** to the fault-free run (the
//! chaos property suite pins this); under `Detect` the run fails fast
//! with the typed error; under `Off` faults corrupt silently, which is
//! the baseline the CLI uses to quantify detection overhead.

use crate::crc::{crc32_words, frame_beats};
use crate::detect::{check_beat, ConfigScrubber, ScrubOutcome, Watchdog};
use crate::error::{FabpError, FabpResult, StreamKind};
use crate::inject::{ConfigLut, FaultKind, FaultSchedule};
use crate::recover::{ResilienceLevel, RetryPolicy};
use crate::telemetry as rtel;
use fabp_bio::seq::PackedSeq;
use fabp_encoding::bitstream::PackedQuery;
use fabp_encoding::packing::axi_beats;
use fabp_fpga::comparator::ComparatorCell;
use fabp_fpga::engine::{EngineRun, FabpEngine};
use fabp_fpga::primitives::Lut6;
use fabp_telemetry::{FlightRecorder, Registry, TraceContext, TraceEvent, FLAG_RETRY};

/// Aggregate fault/detect/recover statistics for one resilient run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceReport {
    /// Faults the schedule injected into this run.
    pub injected: u64,
    /// Faults the detection layer observed.
    pub detected: u64,
    /// Faults recovered (retry, re-transfer, scrub-and-replay).
    pub recovered: u64,
    /// Transient-error retries issued.
    pub retries: u64,
    /// Configuration scrub passes performed.
    pub scrubs: u64,
    /// Scrub passes that found an upset.
    pub scrub_upsets: u64,
    /// Beats replayed after scrub-and-replay.
    pub replayed_beats: u64,
    /// Watchdog stall detections.
    pub stalls_detected: u64,
    /// Packed-query CRC failures detected.
    pub query_crc_failures: u64,
    /// Reference-beat CRC failures detected.
    pub beat_crc_failures: u64,
    /// Extra cycles charged to detection + recovery (scrub readback,
    /// backoff delays, replayed beats' stream time).
    pub overhead_cycles: u64,
    /// Worst observed upset detection latency, in cycles.
    pub max_detection_latency_cycles: u64,
}

impl ResilienceReport {
    /// Folds another report into this one (fleet-level aggregation:
    /// counts add, detection latency takes the maximum).
    pub fn absorb(&mut self, other: &ResilienceReport) {
        self.injected += other.injected;
        self.detected += other.detected;
        self.recovered += other.recovered;
        self.retries += other.retries;
        self.scrubs += other.scrubs;
        self.scrub_upsets += other.scrub_upsets;
        self.replayed_beats += other.replayed_beats;
        self.stalls_detected += other.stalls_detected;
        self.query_crc_failures += other.query_crc_failures;
        self.beat_crc_failures += other.beat_crc_failures;
        self.overhead_cycles += other.overhead_cycles;
        self.max_detection_latency_cycles = self
            .max_detection_latency_cycles
            .max(other.max_detection_latency_cycles);
    }
}

/// Result of a resilient kernel run.
#[derive(Debug, Clone)]
pub struct ResilientRun {
    /// The engine run (hits + cycle statistics, including all charged
    /// recovery overhead).
    pub run: EngineRun,
    /// What the resilience layer saw and did.
    pub report: ResilienceReport,
}

/// Drives a [`FabpEngine`] under a fault schedule with a configurable
/// resilience level.
#[derive(Debug, Clone)]
pub struct ResilientRunner<'e> {
    engine: &'e FabpEngine,
    level: ResilienceLevel,
    schedule: FaultSchedule,
    retry: RetryPolicy,
    scrub_interval_beats: u64,
    scrub_readback_cycles: u64,
    watchdog_deadline_cycles: u64,
    /// Flight recorder retry spans are written to (disabled by default).
    flight: FlightRecorder,
    /// Parent span for retry events (the owning shard/engine span).
    trace: TraceContext,
    /// Start timestamp stamped onto retry spans, microseconds on the
    /// caller's clock.
    trace_start_us: f64,
}

impl<'e> ResilientRunner<'e> {
    /// Creates a runner with default retry/scrub/watchdog parameters.
    pub fn new(
        engine: &'e FabpEngine,
        level: ResilienceLevel,
        schedule: FaultSchedule,
    ) -> ResilientRunner<'e> {
        ResilientRunner {
            engine,
            level,
            schedule,
            retry: RetryPolicy::default(),
            scrub_interval_beats: ConfigScrubber::DEFAULT_INTERVAL_BEATS,
            scrub_readback_cycles: ConfigScrubber::DEFAULT_READBACK_CYCLES,
            watchdog_deadline_cycles: Watchdog::DEFAULT_DEADLINE_CYCLES,
            flight: FlightRecorder::disabled(),
            trace: TraceContext::none(),
            trace_start_us: 0.0,
        }
    }

    /// Attaches a trace identity: every recovery retry this runner
    /// performs is recorded as a `resilience_retry` child span of
    /// `trace` in `flight`. Disabled contexts/recorders cost one branch.
    pub fn with_trace(
        mut self,
        flight: FlightRecorder,
        trace: TraceContext,
        start_us: f64,
    ) -> ResilientRunner<'e> {
        self.flight = flight;
        self.trace = trace;
        self.trace_start_us = start_us;
        self
    }

    /// Records one retry as a child span of the runner's trace context.
    /// `slot` disambiguates sibling retries (beat index or retry site).
    fn trace_retry(&self, slot: u64, name: &'static str, delay_cycles: u64) {
        self.flight.record(
            TraceEvent::new(
                self.trace.child(0x5E7 + slot),
                name,
                self.trace_start_us,
                (delay_cycles as f64).max(1.0),
            )
            .with_arg(slot)
            .with_flags(FLAG_RETRY),
        );
    }

    /// Overrides the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> ResilientRunner<'e> {
        self.retry = retry;
        self
    }

    /// Overrides the scrub interval (beats) and readback cost (cycles).
    pub fn with_scrub(mut self, interval_beats: u64, readback_cycles: u64) -> ResilientRunner<'e> {
        self.scrub_interval_beats = interval_beats.max(1);
        self.scrub_readback_cycles = readback_cycles;
        self
    }

    /// Overrides the watchdog no-progress deadline.
    pub fn with_watchdog(mut self, deadline_cycles: u64) -> ResilientRunner<'e> {
        self.watchdog_deadline_cycles = deadline_cycles.max(1);
        self
    }

    /// The schedule after seed resolution against `reference`'s shape.
    pub fn resolved_schedule(&self, reference: &PackedSeq) -> FaultSchedule {
        let beats = axi_beats(reference).len() as u64;
        let query_words = PackedQuery::from_query(self.engine.query()).words().len();
        self.schedule.resolve(beats, query_words)
    }

    /// Runs the kernel over `reference` under the configured schedule
    /// and level, reporting all events into `registry`.
    ///
    /// # Errors
    ///
    /// Under [`ResilienceLevel::Detect`], the first detected fault is
    /// returned as its typed error. Under `Recover`, an error is only
    /// returned when the retry budget is exhausted. Under `Off`, a
    /// corrupted query bitstream that no longer decodes surfaces as
    /// [`FabpError::Decode`]; everything else runs to completion with
    /// silently wrong results.
    pub fn run(&self, reference: &PackedSeq, registry: &Registry) -> FabpResult<ResilientRun> {
        let beats = axi_beats(reference);
        let packed_query = PackedQuery::from_query(self.engine.query());
        let schedule = self
            .schedule
            .resolve(beats.len() as u64, packed_query.words().len());
        let mut report = ResilienceReport::default();

        // ---- configure phase: packed query transfer + CRC check ----
        let corrupted_engine =
            self.transfer_query(&packed_query, &schedule, registry, &mut report)?;
        let engine = corrupted_engine.as_ref().unwrap_or(self.engine);

        // Host-side golden frame CRCs, computed at pack time.
        let golden_crcs = frame_beats(&beats);

        // ---- stream phase ----
        let mut session = engine.session();
        let mut scrubber = ConfigScrubber::new(
            engine_golden_cell(engine),
            self.scrub_interval_beats,
            self.scrub_readback_cycles,
        );
        let mut watchdog = Watchdog::new(self.watchdog_deadline_cycles);
        let mut checkpoint = session.checkpoint();
        let mut upset_pending_since: Option<u64> = None;

        for (i, beat) in beats.iter().enumerate() {
            let i64b = i as u64;

            // Periodic configuration scrubbing (detect levels only).
            if self.level.detects() && scrubber.due(i64b) {
                report.scrubs += 1;
                report.overhead_cycles += scrubber.readback_cycles();
                match scrubber.scrub(&mut session, self.level.recovers()) {
                    ScrubOutcome::Clean => {
                        rtel::count_scrub(registry, "clean");
                        checkpoint = session.checkpoint();
                    }
                    ScrubOutcome::Upset { corrupted_words } => {
                        report.scrub_upsets += 1;
                        report.detected += 1;
                        rtel::count_scrub(registry, "upset");
                        rtel::count_detected(registry, "config_upset");
                        let latency = upset_pending_since
                            .map(|c| session.current_cycle().saturating_sub(c))
                            .unwrap_or(0);
                        upset_pending_since = None;
                        report.max_detection_latency_cycles =
                            report.max_detection_latency_cycles.max(latency);
                        rtel::record_detection_latency(registry, latency);
                        if !self.level.recovers() {
                            return Err(FabpError::ConfigUpset {
                                detected_cycle: session.current_cycle(),
                                corrupted_words,
                            });
                        }
                        // Scrub-and-replay: the beats since the last
                        // clean checkpoint were scored by corrupted
                        // logic — rewind and replay them at full price.
                        let from = checkpoint.beat_index();
                        session.restore(&checkpoint);
                        let mut replayed = 0u64;
                        for j in from..i64b {
                            session.push_beat(
                                &beats[usize::try_from(j).map_err(|_| {
                                    FabpError::InvalidShardPlan("beat index overflow".into())
                                })?],
                            );
                            replayed += 1;
                        }
                        report.replayed_beats += replayed;
                        rtel::count_replayed_beats(registry, replayed);
                        rtel::count_recovered(registry, "config_upset");
                        report.recovered += 1;
                        checkpoint = session.checkpoint();
                    }
                }
            }

            // Gather this beat's scheduled faults.
            let mut delivered_beat = *beat;
            let mut extra_delay = 0u64;
            for event in schedule.events() {
                match *event {
                    FaultKind::AxiBeatFlip { beat: b, word, bit } if b == i64b => {
                        report.injected += 1;
                        rtel::count_injected(registry, event.label());
                        delivered_beat.words[word.min(7)] ^= 1u64 << (bit % 64);
                    }
                    FaultKind::ConfigUpset { beat: b, lut, bit } if b == i64b => {
                        report.injected += 1;
                        rtel::count_injected(registry, event.label());
                        let cell = session.cell();
                        session.set_cell(upset_cell(cell, lut, bit));
                        if upset_pending_since.is_none() {
                            upset_pending_since = Some(session.current_cycle());
                        }
                    }
                    FaultKind::StreamStall { beat: b, cycles } if b == i64b => {
                        report.injected += 1;
                        rtel::count_injected(registry, event.label());
                        extra_delay += cycles;
                    }
                    _ => {}
                }
            }

            // CRC check + retry-with-backoff re-fetch.
            if self.level.detects() {
                if let Err(e) = check_beat(&delivered_beat, golden_crcs[i], i64b) {
                    report.detected += 1;
                    report.beat_crc_failures += 1;
                    rtel::count_detected(registry, "axi_beat_flip");
                    if !self.level.recovers() {
                        return Err(e);
                    }
                    // Transient wire corruption: re-fetch the pristine
                    // beat from DRAM after one backoff step. The model
                    // assumes transients do not repeat on re-fetch; the
                    // CRC is re-checked regardless.
                    let delay = self.retry.delay_for(1);
                    report.retries += 1;
                    report.overhead_cycles += delay;
                    rtel::record_retry(registry, delay);
                    self.trace_retry(i64b, "resilience_retry", delay);
                    check_beat(beat, golden_crcs[i], i64b)?;
                    delivered_beat = *beat;
                    extra_delay += delay;
                    rtel::count_recovered(registry, "axi_beat_flip");
                    report.recovered += 1;
                }
            }

            // Watchdog: a stall past the deadline is detected and the
            // burst re-issued, paying deadline + backoff instead of the
            // full stall.
            if self.level.detects() && extra_delay > watchdog.deadline_cycles() {
                report.detected += 1;
                report.stalls_detected += 1;
                rtel::count_detected(registry, "stream_stall");
                rtel::count_watchdog_stall(registry, extra_delay);
                if !self.level.recovers() {
                    return Err(FabpError::StreamStall {
                        beat: i64b,
                        stalled_cycles: extra_delay,
                    });
                }
                let delay = self.retry.delay_for(1);
                let recovered_delay = watchdog.deadline_cycles() + delay;
                report.retries += 1;
                rtel::record_retry(registry, delay);
                self.trace_retry(i64b, "resilience_retry", delay);
                if recovered_delay < extra_delay {
                    report.overhead_cycles += recovered_delay;
                    extra_delay = recovered_delay;
                } else {
                    report.overhead_cycles += extra_delay;
                }
                rtel::count_recovered(registry, "stream_stall");
                report.recovered += 1;
            }

            let outcome = session.push_beat_delayed(&delivered_beat, extra_delay);
            watchdog.rearm(outcome.delivered_cycle, session.consumed());
        }

        // Final scrub: catch upsets injected after the last interval,
        // so "detectable" means detectable-by-end-of-run.
        if self.level.detects() && upset_pending_since.is_some() {
            report.scrubs += 1;
            report.overhead_cycles += scrubber.readback_cycles();
            if let ScrubOutcome::Upset { corrupted_words } =
                scrubber.scrub(&mut session, self.level.recovers())
            {
                report.scrub_upsets += 1;
                report.detected += 1;
                rtel::count_scrub(registry, "upset");
                rtel::count_detected(registry, "config_upset");
                let latency = upset_pending_since
                    .map(|c| session.current_cycle().saturating_sub(c))
                    .unwrap_or(0);
                report.max_detection_latency_cycles =
                    report.max_detection_latency_cycles.max(latency);
                rtel::record_detection_latency(registry, latency);
                if !self.level.recovers() {
                    return Err(FabpError::ConfigUpset {
                        detected_cycle: session.current_cycle(),
                        corrupted_words,
                    });
                }
                let from = checkpoint.beat_index();
                session.restore(&checkpoint);
                let mut replayed = 0u64;
                for j in from..beats.len() as u64 {
                    session.push_beat(&beats[j as usize]);
                    replayed += 1;
                }
                report.replayed_beats += replayed;
                rtel::count_replayed_beats(registry, replayed);
                rtel::count_recovered(registry, "config_upset");
                report.recovered += 1;
            } else {
                rtel::count_scrub(registry, "clean");
            }
        }

        let run = session.finish_with_registry(registry);
        rtel::record_recovery_overhead(registry, report.overhead_cycles);
        Ok(ResilientRun { run, report })
    }

    /// Models the packed-query transfer: applies scheduled query-word
    /// flips, CRC-checks the stream, and — under `Recover` —
    /// re-transfers the pristine bitstream. Returns a corrupted-engine
    /// replacement only when an *undetected* corrupted query still
    /// decodes (the `Off` baseline).
    fn transfer_query(
        &self,
        packed: &PackedQuery,
        schedule: &FaultSchedule,
        registry: &Registry,
        report: &mut ResilienceReport,
    ) -> FabpResult<Option<FabpEngine>> {
        let golden_crc = crc32_words(packed.words());
        let mut words = packed.words().to_vec();
        let mut corrupted = false;
        for event in schedule.events() {
            if let FaultKind::QueryWordFlip { word, bit } = *event {
                if word < words.len() {
                    report.injected += 1;
                    rtel::count_injected(registry, event.label());
                    words[word] ^= 1u64 << (bit % 64);
                    corrupted = true;
                }
            }
        }
        if !corrupted {
            return Ok(None);
        }
        let actual = crc32_words(&words);
        if !self.level.detects() {
            // No framing: the corrupted bitstream configures the device.
            let bad = PackedQuery::from_raw_parts(words, packed.len());
            let query = bad.unpack().map_err(|e| FabpError::Decode(e.to_string()))?;
            let engine =
                FabpEngine::new(query, self.engine.config().clone()).map_err(FabpError::from)?;
            return Ok(Some(engine));
        }
        report.detected += 1;
        report.query_crc_failures += 1;
        rtel::count_detected(registry, "query_word_flip");
        if !self.level.recovers() {
            return Err(FabpError::CrcMismatch {
                stream: StreamKind::PackedQuery,
                frame: 0,
                expected: golden_crc,
                actual,
            });
        }
        // Re-transfer the pristine bitstream after one backoff step.
        let delay = self.retry.delay_for(1);
        report.retries += 1;
        report.overhead_cycles += delay;
        rtel::record_retry(registry, delay);
        self.trace_retry(0, "resilience_retry", delay);
        rtel::count_recovered(registry, "query_word_flip");
        report.recovered += 1;
        Ok(None)
    }
}

/// The engine's golden comparator configuration (what the bitstream
/// loader wrote before any upset).
fn engine_golden_cell(_engine: &FabpEngine) -> ComparatorCell {
    // All FabP engines share the two shipped truth tables; a session
    // starts from this golden cell.
    ComparatorCell::new()
}

/// Flips one INIT bit of the selected truth table.
fn upset_cell(cell: ComparatorCell, lut: ConfigLut, bit: u32) -> ComparatorCell {
    let mask = 1u64 << (bit % 64);
    match lut {
        ConfigLut::Mux => {
            ComparatorCell::from_luts(Lut6::from_init(cell.mux().init() ^ mask), cell.cmp())
        }
        ConfigLut::Compare => {
            ComparatorCell::from_luts(cell.mux(), Lut6::from_init(cell.cmp().init() ^ mask))
        }
    }
}
