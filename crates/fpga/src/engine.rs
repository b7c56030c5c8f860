//! Cycle-level simulator of the FabP accelerator (Fig. 3).
//!
//! The engine couples the planned architecture (`resources`), the AXI
//! timing model (`axi`) and the gate-level comparator truth tables
//! (`comparator`) into a beat-by-beat simulation: every 512-bit beat
//! delivers 256 reference elements into the *Reference Stream* buffer, the
//! 256 alignment instances score their windows through the two-LUT
//! comparator cells, a Pop-Counter reduction produces each score, DSP
//! threshold comparators select hits, and the WB buffer writes hit
//! positions back. Scores are **bit-exact** with the golden model (the
//! datapath evaluates the same LUT truth tables the RTL would) while the
//! cycle accounting reproduces the paper's bandwidth/segmentation
//! behaviour.
//!
//! Two datapaths share that accounting. The exact per-beat path
//! ([`EngineSession::push_beat`]) evaluates the live two-LUT comparator
//! configuration for every instance, so it also models configuration
//! upsets. The fast-forward path ([`EngineSession::push_beats_fast`],
//! behind [`FabpEngine::run`]) scores the beat stream with the fused
//! bit-parallel kernel ([`crate::bitparallel`]) in bounded chunks and
//! retires each hit with the beat that completes its window, so hits
//! and every [`CycleReport`] field match the exact path.

use crate::axi::{AxiChannel, AxiConfig};
use crate::bitparallel::BitParallelEngine;
use crate::comparator::ComparatorCell;
use crate::device::FpgaDevice;
use crate::primitives::DspThreshold;
use crate::resources::{plan, ArchParams, FabpPlan, PlanError};
use fabp_bio::alphabet::Nucleotide;
use fabp_bio::seq::PackedSeq;
use fabp_encoding::encoder::EncodedQuery;
use fabp_encoding::packing::{axi_beats, AxiBeat, ReferenceStream, ELEMENTS_PER_BEAT};
use std::fmt;

/// Beats one fused scan of the fast-forward path covers. Its buffer
/// holds these beats' 16 384 elements plus the `L_q − 1` the stream
/// buffer carries, so it is bounded by the chunk, not the reference.
const FAST_CHUNK_BEATS: usize = 64;

/// Configuration of a FabP engine instance.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Target device.
    pub device: FpgaDevice,
    /// AXI channel timing.
    pub axi: AxiConfig,
    /// Resource-model overheads.
    pub arch: ArchParams,
    /// Score threshold: positions with `score >= threshold` are reported.
    pub threshold: u32,
    /// Memory channels to use (clamped to the device's).
    pub channels: usize,
    /// Hit positions the WB buffer can retire per cycle.
    pub wb_rate_per_cycle: usize,
    /// Pipeline depth in cycles (comparator + Pop-Counter + threshold
    /// stages), added once as drain latency.
    pub pipeline_depth: u64,
}

impl EngineConfig {
    /// Default configuration on the paper's Kintex-7 with the given
    /// threshold.
    pub fn kintex7(threshold: u32) -> EngineConfig {
        EngineConfig {
            device: FpgaDevice::kintex7(),
            axi: AxiConfig::default(),
            arch: ArchParams::default(),
            threshold,
            channels: 1,
            wb_rate_per_cycle: 4,
            pipeline_depth: 12,
        }
    }
}

/// One reported alignment hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Hit {
    /// Start position of the alignment window in the reference.
    pub position: usize,
    /// Alignment score: number of matching elements.
    pub score: u32,
}

impl fmt::Display for Hit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "hit @{} score {}", self.position, self.score)
    }
}

/// The per-kernel cycle accounting report — alias of [`EngineStats`],
/// named for the fast-forward/per-cycle equivalence contract: the
/// event-driven fast-forward path ([`EngineSession::push_beats_fast`])
/// must produce a `CycleReport` whose `cycles`, `stall_cycles`,
/// `wb_stall_cycles` and `busy_cycles` fields are **bit-identical** to
/// the per-beat model's.
pub type CycleReport = EngineStats;

/// Cycle/bandwidth statistics of one kernel execution.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineStats {
    /// Total kernel cycles (including AXI warm-up and pipeline drain).
    pub cycles: u64,
    /// AXI beats consumed.
    pub beats: u64,
    /// Bytes read from DRAM.
    pub bytes_read: u64,
    /// Cycles spent waiting on the AXI channel.
    pub stall_cycles: u64,
    /// Extra cycles spent draining the write-back buffer.
    pub wb_stall_cycles: u64,
    /// Compute cycles (`beats × segments`, summed over channels).
    pub busy_cycles: u64,
    /// Alignment instances evaluated.
    pub instances_evaluated: u64,
    /// Kernel wall time at the device clock, in seconds.
    pub kernel_seconds: f64,
    /// Achieved DRAM read bandwidth in bytes/second.
    pub achieved_bandwidth: f64,
}

/// Result of one engine run.
#[derive(Debug, Clone)]
pub struct EngineRun {
    /// Hits at or above the threshold, in ascending position order.
    pub hits: Vec<Hit>,
    /// Timing statistics.
    pub stats: EngineStats,
}

/// The simulated FabP accelerator.
#[derive(Debug, Clone)]
pub struct FabpEngine {
    query: EncodedQuery,
    plan: FabpPlan,
    config: EngineConfig,
    cell: ComparatorCell,
    dsp: DspThreshold,
    /// The fused bit-parallel kernel over the golden `cell`'s truth
    /// tables (bit-identical, property-tested): the fast-forward
    /// datapath while the live configuration is pristine. `None` when
    /// the kernel rejects the query (a context-dependent element at
    /// index 0 or 1), which then always takes the exact path. Its
    /// counters go to a disabled registry: a run counts only through
    /// `record_engine_run`, under `engine="cycle"`.
    kernel: Option<BitParallelEngine>,
}

impl FabpEngine {
    /// Plans the architecture for `query` and builds the engine.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] when the query cannot fit the device at any
    /// segmentation.
    ///
    /// # Panics
    ///
    /// Panics if the query is empty.
    pub fn new(query: EncodedQuery, config: EngineConfig) -> Result<FabpEngine, PlanError> {
        assert!(!query.is_empty(), "query must be non-empty");
        let plan = plan(&config.device, query.len(), config.channels, &config.arch)?;
        let dsp = DspThreshold::new(config.threshold.min((1 << DspThreshold::SCORE_WIDTH) - 1));
        let kernel =
            BitParallelEngine::with_registry(&query, &fabp_telemetry::Registry::disabled()).ok();
        Ok(FabpEngine {
            query,
            plan,
            config,
            cell: ComparatorCell::new(),
            dsp,
            kernel,
        })
    }

    /// The planned architecture (segments, utilisation, bottleneck).
    pub fn plan(&self) -> &FabpPlan {
        &self.plan
    }

    /// The encoded query the engine holds in distributed memory.
    pub fn query(&self) -> &EncodedQuery {
        &self.query
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Runs the kernel over a packed reference, producing hits and cycle
    /// statistics. Counters are published to the global telemetry
    /// registry; use [`FabpEngine::run_with_registry`] to direct them
    /// elsewhere.
    pub fn run(&self, reference: &PackedSeq) -> EngineRun {
        self.run_with_registry(reference, fabp_telemetry::Registry::global())
    }

    /// Runs the kernel, publishing telemetry to an explicit `registry`
    /// (e.g. a scoped [`fabp_telemetry::Registry::new`] for isolated
    /// benchmarking).
    pub fn run_with_registry(
        &self,
        reference: &PackedSeq,
        registry: &fabp_telemetry::Registry,
    ) -> EngineRun {
        self.run_beats(&axi_beats(reference), registry)
    }

    /// [`FabpEngine::run_with_registry`] with request-scoped tracing: on
    /// completion one `fpga_kernel` work span is recorded into `flight`
    /// under `trace`, with the modelled kernel time as its duration (so
    /// span durations stay deterministic under an injectable clock) and
    /// the consumed-base count as its argument. A disabled context or
    /// recorder costs one branch.
    pub fn run_traced(
        &self,
        reference: &PackedSeq,
        registry: &fabp_telemetry::Registry,
        flight: &fabp_telemetry::FlightRecorder,
        trace: fabp_telemetry::TraceContext,
        start_us: f64,
    ) -> EngineRun {
        let run = self.run_with_registry(reference, registry);
        let dur_us = self.model_kernel_seconds(reference.len().div_ceil(4) as u64) * 1e6;
        flight.record(
            fabp_telemetry::TraceEvent::new(trace, "fpga_kernel", start_us, dur_us)
                .with_arg(reference.len() as u64),
        );
        run
    }

    /// Runs the kernel over an explicit beat stream (the decomposed form
    /// of [`FabpEngine::run`]). This is the injection surface the
    /// resilience layer uses: corrupted or re-ordered beats can be fed
    /// directly, without re-packing a [`PackedSeq`].
    ///
    /// Uses the event-driven fast-forward path
    /// ([`EngineSession::push_beats_fast`]): hits and [`CycleReport`]
    /// fields are bit-identical to [`FabpEngine::run_beats_exact`]
    /// (enforced by the equivalence test matrix), but stall-free bursts
    /// are advanced in O(1) and the datapath is scored by the fused
    /// bit-parallel kernel, 64 instances per word operation, instead of
    /// per-element LUT evaluation.
    pub fn run_beats(&self, beats: &[AxiBeat], registry: &fabp_telemetry::Registry) -> EngineRun {
        let mut session = self.session();
        session.push_beats_fast(beats);
        session.finish_with_registry(registry)
    }

    /// Runs the kernel strictly beat-by-beat through the exact per-cycle
    /// model ([`EngineSession::push_beat`]) — the reference
    /// implementation the fast-forward path is verified against, and the
    /// path fault-injection campaigns exercise.
    pub fn run_beats_exact(
        &self,
        beats: &[AxiBeat],
        registry: &fabp_telemetry::Registry,
    ) -> EngineRun {
        let mut session = self.session();
        for beat in beats {
            session.push_beat(beat);
        }
        session.finish_with_registry(registry)
    }

    /// Opens a resumable, beat-by-beat execution session.
    ///
    /// [`EngineSession::push_beat`] is exactly one iteration of
    /// [`FabpEngine::run`]'s loop; [`EngineSession::finish`] closes the
    /// accounting. Sessions additionally support configuration-upset
    /// injection ([`EngineSession::set_cell`]), live configuration
    /// readback ([`EngineSession::cell`]), datapath checkpoint/replay
    /// ([`EngineSession::checkpoint`]/[`EngineSession::restore`]) and
    /// idle-cycle insertion ([`EngineSession::inject_idle`]) — the
    /// mechanisms `fabp-resilience` builds its inject → detect → recover
    /// loop on.
    pub fn session(&self) -> EngineSession<'_> {
        let channels = self.plan.channels.max(1);
        EngineSession {
            engine: self,
            cell: self.cell,
            stream: ReferenceStream::new(self.query.len()),
            channel_ready: vec![0u64; channels],
            axi: (0..channels)
                .map(|_| AxiChannel::new(self.config.axi))
                .collect(),
            next_position: 0,
            beat_index: 0,
            consumed: 0,
            hits: Vec::new(),
            stats: EngineStats::default(),
            finished: false,
        }
    }

    /// Analytical kernel time for a reference of `reference_bytes` bytes,
    /// without simulating the datapath — used to extrapolate the paper's
    /// 1 GB workloads from smaller simulated runs.
    ///
    /// Matches [`FabpEngine::run`]'s cycle accounting for hit-sparse
    /// workloads (no WB back-pressure).
    pub fn model_kernel_seconds(&self, reference_bytes: u64) -> f64 {
        let beats_total = reference_bytes.div_ceil(64);
        let channels = self.plan.channels.max(1) as u64;
        let beats_per_channel = beats_total.div_ceil(channels);
        let segments = self.plan.segments as u64;
        // Per channel: beats arrive at efficiency eff; compute needs S
        // cycles per beat. The slower of the two pipelines dominates.
        let eff = self.config.axi.efficiency();
        let mem_cycles = (beats_per_channel as f64 / eff).ceil();
        let compute_cycles = (beats_per_channel * segments) as f64;
        let cycles = mem_cycles.max(compute_cycles)
            + self.config.axi.read_latency as f64
            + self.config.pipeline_depth as f64;
        cycles / self.config.device.clock_hz
    }
}

/// Outcome of delivering one beat into an [`EngineSession`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BeatOutcome {
    /// Cycle at which the consumer held the beat (after AXI latency and
    /// any injected stall).
    pub delivered_cycle: u64,
    /// Hits this beat's alignment instances produced.
    pub hits: u64,
}

/// Restorable datapath state of an [`EngineSession`].
///
/// A checkpoint captures the *datapath* (stream buffer, scan frontier,
/// accepted hits) but deliberately **not** the AXI channels or cycle
/// accounting: restoring and replaying beats models a real re-fetch, so
/// replayed beats cost additional cycles and DRAM reads — the honest
/// price of recovery.
#[derive(Debug, Clone)]
pub struct EngineCheckpoint {
    stream: ReferenceStream,
    next_position: usize,
    beat_index: u64,
    consumed: u64,
    hit_count: usize,
    instances_evaluated: u64,
}

impl EngineCheckpoint {
    /// Beat index the checkpoint was taken at (the next beat to deliver
    /// after a restore).
    pub fn beat_index(&self) -> u64 {
        self.beat_index
    }
}

/// A resumable, beat-by-beat execution of a [`FabpEngine`] kernel.
///
/// Created by [`FabpEngine::session`]; behaviourally identical to
/// [`FabpEngine::run`] when every beat is pushed in order and the session
/// is finished, but additionally exposes the state a resilience layer
/// needs: live comparator configuration, progress (`consumed`),
/// checkpoints, and stall injection.
#[derive(Debug, Clone)]
pub struct EngineSession<'e> {
    engine: &'e FabpEngine,
    /// Live comparator configuration — starts as the engine's golden
    /// cell; a configuration upset (SEU) may corrupt it mid-run.
    cell: ComparatorCell,
    stream: ReferenceStream,
    channel_ready: Vec<u64>,
    axi: Vec<AxiChannel>,
    next_position: usize,
    beat_index: u64,
    consumed: u64,
    hits: Vec<Hit>,
    stats: EngineStats,
    finished: bool,
}

impl<'e> EngineSession<'e> {
    /// The engine this session executes.
    pub fn engine(&self) -> &'e FabpEngine {
        self.engine
    }

    /// Delivers the next beat to the datapath.
    pub fn push_beat(&mut self, beat: &AxiBeat) -> BeatOutcome {
        self.push_beat_delayed(beat, 0)
    }

    /// Delivers the next beat with `extra_delay_cycles` of additional
    /// channel latency — the fault-injection surface for modelling a
    /// stream that stalls past its deadline (row hammer mitigation,
    /// refresh storms, a wedged upstream DMA).
    pub fn push_beat_delayed(&mut self, beat: &AxiBeat, extra_delay_cycles: u64) -> BeatOutcome {
        debug_assert!(!self.finished, "session already finished");
        let query_len = self.engine.query.len();
        let segments = self.engine.plan.segments.max(1) as u64;
        let channels = self.channel_ready.len();
        let ch = (self.beat_index % channels as u64) as usize;
        self.beat_index += 1;

        // The channel's own beat sequence index drives availability.
        let t_data = self.axi[ch].fetch_beat(self.channel_ready[ch]) + extra_delay_cycles;
        if extra_delay_cycles > 0 {
            self.stats.stall_cycles += extra_delay_cycles;
        }

        // Bit-exact scoring of every alignment instance this beat
        // completes.
        let window = self.stream.push_beat(beat);
        let mut beat_hits = 0u64;
        if window.elements.len() >= query_len {
            for offset in 0..=window.elements.len() - query_len {
                let position = window.start_position + offset;
                if position < self.next_position {
                    continue;
                }
                let score = self
                    .cell
                    .score_window(self.engine.query.instructions(), &window.elements[offset..])
                    as u32;
                self.stats.instances_evaluated += 1;
                if self.engine.dsp.exceeds(score) {
                    self.hits.push(Hit { position, score });
                    beat_hits += 1;
                }
            }
            self.next_position = window.start_position + window.elements.len() - query_len + 1;
        }
        self.consumed += beat.valid as u64;

        // Cycle accounting: S segment cycles, plus WB back-pressure if
        // this beat produced more hits than the WB port can retire.
        let wb_cycles = beat_hits.div_ceil(self.engine.config.wb_rate_per_cycle.max(1) as u64);
        let extra_wb = wb_cycles.saturating_sub(segments);
        self.channel_ready[ch] = t_data + segments + extra_wb;
        self.stats.busy_cycles += segments;
        self.stats.wb_stall_cycles += extra_wb;
        BeatOutcome {
            delivered_cycle: t_data,
            hits: beat_hits,
        }
    }

    /// Delivers a whole beat stream through the event-driven
    /// **fast-forward** path.
    ///
    /// Semantics are bit-identical to calling [`EngineSession::push_beat`]
    /// once per beat (same hits, same [`CycleReport`] fields — enforced by
    /// the `fast_forward_equivalence` test matrix), but two per-beat costs
    /// are amortised:
    ///
    /// * **Datapath**: the beats stream through the Reference Stream
    ///   buffer as in `push_beat`, and every alignment instance they
    ///   complete is scored by one fused bit-parallel scan
    ///   ([`BitParallelEngine`]) per chunk of [`FAST_CHUNK_BEATS`] beats,
    ///   over the chunk's elements plus the `L_q − 1` the buffer carries
    ///   from earlier beats, instead of per-element evaluation of the
    ///   two-LUT comparator netlist. A hit at position `p` retires with
    ///   the beat that delivers element `p + L_q − 1`, the beat whose
    ///   `push_beat` would report it, so each beat's hit count, `hits`,
    ///   `instances_evaluated` and the stream buffer end up exactly as
    ///   the per-beat path leaves them. The kernel models the *golden*
    ///   datapath: if a configuration upset is present
    ///   ([`EngineSession::set_cell`]), or the kernel rejects the query,
    ///   the whole stream takes the exact per-beat path instead.
    /// * **Cycle accounting**: stall-free beats are batched per channel
    ///   and advanced over whole AXI bursts in O(1)
    ///   ([`AxiChannel::fetch_burst`]). Only two events can interrupt a
    ///   batch — a burst boundary (the next beat may stall on the
    ///   inter-burst gap) and WB back-pressure (`extra_wb > 0` changes
    ///   the consumer's pace) — and both fall back to the exact
    ///   single-beat update.
    pub fn push_beats_fast(&mut self, beats: &[AxiBeat]) {
        debug_assert!(!self.finished, "session already finished");
        let engine = self.engine;
        let kernel = match &engine.kernel {
            Some(kernel) if self.cell == engine.cell => kernel,
            // A live SEU (the kernel models the golden netlist) or a
            // query the kernel rejects: exact per-beat path throughout.
            _ => {
                for beat in beats {
                    self.push_beat(beat);
                }
                return;
            }
        };
        let query_len = engine.query.len();
        let segments = engine.plan.segments.max(1) as u64;
        let channels = self.channel_ready.len();
        let bpb = engine.config.axi.beats_per_burst;
        let wb_rate = engine.config.wb_rate_per_cycle.max(1) as u64;
        let threshold = engine.dsp.threshold();
        // Stall-free beats deferred per channel, waiting to be advanced
        // in one `fetch_burst` call.
        let mut pending = vec![0u64; channels];
        let mut scan: Vec<Nucleotide> =
            Vec::with_capacity(query_len + FAST_CHUNK_BEATS * ELEMENTS_PER_BEAT);
        for chunk in beats.chunks(FAST_CHUNK_BEATS) {
            // The reference from `next_position` on: the elements of
            // incomplete instances the stream buffer carries (at most
            // `L_q − 1`), then every element the chunk's beats deliver.
            let scan_start = self.next_position;
            scan.clear();
            for beat in chunk {
                let window = self.stream.push_beat(beat);
                let have = scan_start + scan.len();
                scan.extend_from_slice(&window.elements[have - window.start_position..]);
            }
            let mut hits = kernel.search(&scan, threshold).into_iter().peekable();
            for beat in chunk {
                let ch = (self.beat_index % channels as u64) as usize;
                self.beat_index += 1;
                self.consumed += beat.valid as u64;

                // Retire the instances this beat completes: positions up
                // to `consumed − L_q`, each scored once.
                let next = (self.consumed as usize + 1).saturating_sub(query_len);
                self.stats.instances_evaluated += (next - self.next_position) as u64;
                self.next_position = next;
                let mut beat_hits = 0u64;
                while let Some(hit) = hits.next_if(|h| scan_start + h.position < next) {
                    self.hits.push(Hit {
                        position: scan_start + hit.position,
                        score: hit.score,
                    });
                    beat_hits += 1;
                }

                let wb_cycles = beat_hits.div_ceil(wb_rate);
                let extra_wb = wb_cycles.saturating_sub(segments);

                // This beat's index within the channel's own sequence:
                // beats already fetched plus beats deferred ahead of it.
                let local = self.axi[ch].stats().beats + pending[ch];
                let new_burst = bpb != u64::MAX && local.is_multiple_of(bpb);
                if pending[ch] > 0 && (new_burst || extra_wb > 0) {
                    // Event boundary: advance the deferred stall-free
                    // beats in O(1) before handling this one exactly.
                    self.flush_pending(ch, pending[ch], segments);
                    pending[ch] = 0;
                }
                if extra_wb > 0 {
                    // WB back-pressure alters the consumer's pace for
                    // this beat: exact single-beat update, as in
                    // `push_beat`.
                    let t_data = self.axi[ch].fetch_beat(self.channel_ready[ch]);
                    self.channel_ready[ch] = t_data + segments + extra_wb;
                    self.stats.busy_cycles += segments;
                    self.stats.wb_stall_cycles += extra_wb;
                } else {
                    pending[ch] += 1;
                }
            }
            debug_assert!(hits.next().is_none(), "every scanned hit retires");
        }
        for (ch, &deferred) in pending.iter().enumerate() {
            if deferred > 0 {
                self.flush_pending(ch, deferred, segments);
            }
        }
    }

    /// Advances `n` deferred stall-free beats on channel `ch` in O(1) —
    /// the closed form of `n` successive `fetch_beat` + `+= segments`
    /// steps (bit-identical by [`AxiChannel::fetch_burst`]'s contract:
    /// within a burst at `segments >= 1` cycles/beat, only the first beat
    /// can stall).
    fn flush_pending(&mut self, ch: usize, n: u64, segments: u64) {
        self.channel_ready[ch] = self.axi[ch].fetch_burst(self.channel_ready[ch], n, segments);
        self.stats.busy_cycles += segments * n;
    }

    /// Total reference elements consumed so far — the progress signal a
    /// watchdog monitors; a session whose `consumed()` stops advancing
    /// while cycles elapse is wedged.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// Index of the next beat to be delivered.
    pub fn beat_index(&self) -> u64 {
        self.beat_index
    }

    /// The current cycle frontier (max over channels).
    pub fn current_cycle(&self) -> u64 {
        self.channel_ready.iter().copied().max().unwrap_or(0)
    }

    /// Hits accepted so far.
    pub fn hits(&self) -> &[Hit] {
        &self.hits
    }

    /// The live comparator configuration (readback surface for
    /// configuration scrubbing).
    pub fn cell(&self) -> ComparatorCell {
        self.cell
    }

    /// Overwrites the live comparator configuration — the configuration
    /// upset (SEU) injection surface. The engine's golden cell is
    /// untouched; [`EngineSession::scrub_cell`] restores it.
    pub fn set_cell(&mut self, cell: ComparatorCell) {
        self.cell = cell;
    }

    /// Restores the comparator configuration from the engine's golden
    /// copy, returning `true` when the live configuration differed
    /// (i.e. an upset was present).
    pub fn scrub_cell(&mut self) -> bool {
        let dirty = self.cell != self.engine.cell;
        self.cell = self.engine.cell;
        dirty
    }

    /// Inserts `cycles` idle cycles on every channel — models the
    /// datapath pausing for a configuration readback (scrub) window.
    pub fn inject_idle(&mut self, cycles: u64) {
        for ready in &mut self.channel_ready {
            *ready += cycles;
        }
    }

    /// Captures the datapath state for later [`EngineSession::restore`].
    pub fn checkpoint(&self) -> EngineCheckpoint {
        EngineCheckpoint {
            stream: self.stream.clone(),
            next_position: self.next_position,
            beat_index: self.beat_index,
            consumed: self.consumed,
            hit_count: self.hits.len(),
            instances_evaluated: self.stats.instances_evaluated,
        }
    }

    /// Rewinds the datapath to a checkpoint (hits after it are
    /// discarded). Cycle and DRAM-traffic accounting are *not* rewound:
    /// the beats replayed after a restore are genuinely re-fetched and
    /// re-scored, so their cost stays on the books.
    pub fn restore(&mut self, checkpoint: &EngineCheckpoint) {
        self.stream = checkpoint.stream.clone();
        self.next_position = checkpoint.next_position;
        self.beat_index = checkpoint.beat_index;
        self.consumed = checkpoint.consumed;
        self.hits.truncate(checkpoint.hit_count);
        self.stats.instances_evaluated = checkpoint.instances_evaluated;
    }

    /// Closes the session, publishing telemetry to the global registry.
    pub fn finish(self) -> EngineRun {
        self.finish_with_registry(fabp_telemetry::Registry::global())
    }

    /// Closes the session: adds the pipeline-drain latency, derives the
    /// summary statistics and publishes telemetry to `registry`.
    pub fn finish_with_registry(mut self, registry: &fabp_telemetry::Registry) -> EngineRun {
        self.finished = true;
        let end = self.current_cycle() + self.engine.config.pipeline_depth;
        let per_channel: Vec<_> = self.axi.iter().map(AxiChannel::stats).collect();
        let mut stats = self.stats;
        stats.cycles = end;
        stats.beats = per_channel.iter().map(|s| s.beats).sum();
        stats.bytes_read = per_channel.iter().map(|s| s.bytes).sum();
        stats.stall_cycles += per_channel.iter().map(|s| s.stall_cycles).sum::<u64>();
        stats.kernel_seconds = end as f64 / self.engine.config.device.clock_hz;
        stats.achieved_bandwidth = if end > 0 {
            stats.bytes_read as f64 / stats.kernel_seconds
        } else {
            0.0
        };
        crate::telemetry::record_engine_run(registry, &stats, &per_channel, self.hits.len());
        EngineRun {
            hits: self.hits,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabp_bio::generate::{coding_rna_for_paper_patterns, random_protein, random_rna};
    use fabp_bio::seq::{ProteinSeq, RnaSeq};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn engine_for(protein: &str, threshold: u32) -> FabpEngine {
        let protein: ProteinSeq = protein.parse().unwrap();
        let query = EncodedQuery::from_protein(&protein);
        FabpEngine::new(query, EngineConfig::kintex7(threshold)).unwrap()
    }

    #[test]
    fn finds_planted_perfect_hit() {
        let mut rng = StdRng::seed_from_u64(42);
        let protein = random_protein(20, &mut rng);
        let coding = coding_rna_for_paper_patterns(&protein, &mut rng);
        let mut reference = random_rna(1000, &mut rng);
        // Plant at position 400.
        let mut bases: Vec<_> = reference.as_slice().to_vec();
        bases.splice(400..400 + coding.len(), coding.iter().copied());
        reference = RnaSeq::from(bases);

        let query = EncodedQuery::from_protein(&protein);
        let qlen = query.len() as u32;
        let engine = FabpEngine::new(query, EngineConfig::kintex7(qlen)).unwrap();
        let run = engine.run(&PackedSeq::from_rna(&reference));
        assert!(
            run.hits
                .iter()
                .any(|h| h.position == 400 && h.score == qlen),
            "hits: {:?}",
            run.hits
        );
    }

    #[test]
    fn hits_match_functional_scorer_across_chunk_boundaries() {
        // Reference long enough to span several 256-element beats; verify
        // against EncodedQuery::score_all_positions at every position.
        let mut rng = StdRng::seed_from_u64(7);
        let protein = random_protein(15, &mut rng);
        let query = EncodedQuery::from_protein(&protein);
        let reference = random_rna(1500, &mut rng);
        let threshold = 30u32;
        let engine = FabpEngine::new(query.clone(), EngineConfig::kintex7(threshold)).unwrap();
        let run = engine.run(&PackedSeq::from_rna(&reference));

        let expected: Vec<Hit> = query
            .score_all_positions(reference.as_slice())
            .into_iter()
            .enumerate()
            .filter(|&(_, s)| s as u32 >= threshold)
            .map(|(position, score)| Hit {
                position,
                score: score as u32,
            })
            .collect();
        assert_eq!(run.hits, expected);
    }

    #[test]
    fn all_positions_evaluated_exactly_once() {
        let mut rng = StdRng::seed_from_u64(8);
        let protein = random_protein(10, &mut rng);
        let query = EncodedQuery::from_protein(&protein);
        let qlen = query.len();
        let reference = random_rna(900, &mut rng);
        // Threshold 0: every instance is a hit.
        let engine = FabpEngine::new(query, EngineConfig::kintex7(0)).unwrap();
        let run = engine.run(&PackedSeq::from_rna(&reference));
        assert_eq!(run.hits.len(), reference.len() - qlen + 1);
        for (i, h) in run.hits.iter().enumerate() {
            assert_eq!(h.position, i);
        }
        assert_eq!(run.stats.instances_evaluated, run.hits.len() as u64);
    }

    #[test]
    fn short_query_is_bandwidth_bound_with_high_bw() {
        let engine = engine_for(&"M".repeat(50), 1000);
        assert_eq!(engine.plan().segments, 1);
        let mut rng = StdRng::seed_from_u64(9);
        let reference = random_rna(256 * 1024, &mut rng);
        let run = engine.run(&PackedSeq::from_rna(&reference));
        let bw = run.stats.achieved_bandwidth;
        assert!(
            bw > 11.0e9 && bw <= 12.8e9,
            "achieved bandwidth {:.2} GB/s",
            bw / 1e9
        );
    }

    #[test]
    fn long_query_bandwidth_drops_by_segment_factor() {
        let engine = engine_for(&"M".repeat(250), 1000);
        let s = engine.plan().segments as f64;
        assert!(s >= 3.0);
        let mut rng = StdRng::seed_from_u64(10);
        let reference = random_rna(64 * 1024, &mut rng);
        let run = engine.run(&PackedSeq::from_rna(&reference));
        let expected = 12.8e9 / s;
        let bw = run.stats.achieved_bandwidth;
        assert!(
            (bw - expected).abs() / expected < 0.15,
            "bw {:.2} GB/s, expected ≈{:.2} GB/s",
            bw / 1e9,
            expected / 1e9
        );
    }

    #[test]
    fn model_time_agrees_with_simulation() {
        for protein_len in [30usize, 120] {
            let engine = engine_for(&"M".repeat(protein_len), 1000);
            let mut rng = StdRng::seed_from_u64(11);
            let reference = random_rna(32 * 1024, &mut rng);
            let run = engine.run(&PackedSeq::from_rna(&reference));
            let modeled = engine.model_kernel_seconds((reference.len() as u64).div_ceil(4));
            // bytes = len/4 (2 bits per base -> 4 bases per byte).
            let simulated = run.stats.kernel_seconds;
            let ratio = modeled / simulated;
            assert!(
                (0.8..1.2).contains(&ratio),
                "len {protein_len}: modeled {modeled:.2e} vs simulated {simulated:.2e}"
            );
        }
    }

    #[test]
    fn wb_backpressure_adds_cycles_when_everything_hits() {
        let mut rng = StdRng::seed_from_u64(12);
        let protein = random_protein(5, &mut rng);
        let query = EncodedQuery::from_protein(&protein);
        let reference = random_rna(8 * 1024, &mut rng);
        let mut config = EngineConfig::kintex7(0); // every position hits
        config.wb_rate_per_cycle = 4;
        let engine = FabpEngine::new(query, config).unwrap();
        let run = engine.run(&PackedSeq::from_rna(&reference));
        assert!(
            run.stats.wb_stall_cycles > 0,
            "256 hits/beat must exceed 4/cycle WB rate"
        );
    }

    #[test]
    fn empty_reference_is_graceful() {
        let engine = engine_for("MFW", 0);
        let run = engine.run(&PackedSeq::new());
        assert!(run.hits.is_empty());
        assert_eq!(run.stats.beats, 0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_query_panics() {
        let query = EncodedQuery::from_exact_rna(&RnaSeq::new());
        let _ = FabpEngine::new(query, EngineConfig::kintex7(0));
    }
}
