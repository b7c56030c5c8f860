//! Tracing: `TraceContext` propagation and the lock-free flight
//! recorder, the one store of spans.
//!
//! A [`TraceContext`] is minted once per request (SplitMix64-seeded, so
//! ids are deterministic given the server seed and request id) and
//! carried through every layer that touches the request: admission
//! queue, batcher, cache, fleet scatter/gather, engine, resilience
//! retries. Each layer records [`TraceEvent`]s into the registry's
//! [`FlightRecorder`] — a bounded, overwrite-oldest ring whose hot path
//! is zero-alloc and lock-free (per-slot seqlock over plain atomics).
//!
//! The disabled path (`TraceContext::none()` or a disabled registry) is
//! a single predictable branch per record, mirroring the metric
//! handles' `Option<Arc<…>>` pattern — measured ≤ 2 ns/op in
//! `bench_telemetry`.

use std::sync::atomic::{fence, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Number of events the flight recorder retains. Older events are
/// overwritten (and counted as dropped) once the ring wraps.
pub const FLIGHT_RECORDER_CAPACITY: usize = 4096;

/// Maximum recorded event-name length in bytes; longer names are
/// truncated at a UTF-8 boundary. Event names are short stage labels
/// (`queue_wait`, `shard`, `resilience_retry`), so 24 bytes is ample.
pub const TRACE_NAME_MAX: usize = 24;

/// Event flag: the request was served from a cache.
pub const FLAG_CACHE_HIT: u32 = 1 << 0;
/// Event flag: the lookup missed and the value was built.
pub const FLAG_CACHE_MISS: u32 = 1 << 1;
/// Event flag: the event is a detection/recovery retry.
pub const FLAG_RETRY: u32 = 1 << 2;
/// Event flag: the request was shed (deadline exceeded in queue).
pub const FLAG_SHED: u32 = 1 << 3;
/// Event flag: the request finished with an error.
pub const FLAG_ERROR: u32 = 1 << 4;
/// Event flag: fault recovery ran while serving this request.
pub const FLAG_RECOVERED: u32 = 1 << 5;
/// Event flag: the span is a hedged duplicate of a primary read.
pub const FLAG_HEDGE: u32 = 1 << 6;
/// Event flag: the read lost the hedge race and was cancelled.
pub const FLAG_CANCELLED: u32 = 1 << 7;

/// SplitMix64: the id-mixing function behind trace/span id minting.
/// Deterministic, dependency-free, and well distributed — the same
/// generator the workspace's compat `rand` shim seeds from.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Bit position of the span kind in a child slot: the index of a child
/// below it, the kind above it.
const SLOT_KIND_SHIFT: u32 = 56;

/// The kind of a child span, [`TraceContext::child`]'s namespace: two
/// kinds' children of one parent never share a span id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanKind {
    /// An ordinal child: a pipeline stage ([`FlightRecorder::record_stages`]),
    /// a request's queue wait (0) and batch (1), a search's steps.
    Stage = 0,
    /// A fleet shard's scatter, by shard index.
    Shard = 1,
    /// A delivering shard read, by node.
    Read = 2,
    /// A hedged duplicate read, by node.
    Hedge = 3,
    /// A failed-over shard's recovered retry, by serving node.
    Failover = 4,
    /// An engine-level recovery retry, by beat or retry site.
    Retry = 5,
    /// A request's query-cache lookup.
    QueryCache = 6,
    /// A request's measured dispatch work (`align`, `seed_verify`,
    /// `fleet_scan`).
    Work = 7,
}

/// A request's trace identity: one `trace_id` shared by every span the
/// request produces, plus this hop's `span_id` and its parent.
///
/// `trace_id == 0` means tracing is disabled for this request; every
/// recording helper then reduces to one branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceContext {
    /// Trace id shared by all spans of one request (0 = disabled).
    pub trace_id: u64,
    /// This span's id.
    pub span_id: u64,
    /// Parent span id (0 for the root span).
    pub parent_span_id: u64,
}

impl TraceContext {
    /// The disabled context: nothing downstream records.
    pub const fn none() -> TraceContext {
        TraceContext {
            trace_id: 0,
            span_id: 0,
            parent_span_id: 0,
        }
    }

    /// True when spans recorded under this context are retained.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.trace_id != 0
    }

    /// Mints the root context for a request, deterministically from
    /// `(seed, request_id)`. The same pair always yields the same ids,
    /// so traces are reproducible under the injectable manual clock.
    pub fn mint(seed: u64, request_id: u64) -> TraceContext {
        let trace_id = splitmix64(seed ^ splitmix64(request_id)) | 1; // never 0
        TraceContext {
            trace_id,
            span_id: splitmix64(trace_id),
            parent_span_id: 0,
        }
    }

    /// Derives the child context of span kind `kind` with sibling index
    /// `index` (stage ordinal, shard, node, retry site). Each kind owns
    /// its own slot namespace — the kind in the slot's top byte, the
    /// index below it — and `splitmix64` is a bijection, so two distinct
    /// (kind, index) children of one parent never share a span id,
    /// whatever the index. A [`SpanKind::Stage`] child's slot is its
    /// index. The derivation is pure, so child ids are as deterministic
    /// as the root.
    pub fn child(&self, kind: SpanKind, index: u64) -> TraceContext {
        if !self.is_enabled() {
            return TraceContext::none();
        }
        debug_assert!(
            index >> SLOT_KIND_SHIFT == 0,
            "span index {index} overflows its kind"
        );
        let slot = ((kind as u64) << SLOT_KIND_SHIFT) | index;
        TraceContext {
            trace_id: self.trace_id,
            span_id: splitmix64(self.span_id ^ splitmix64(slot.wrapping_add(1))),
            parent_span_id: self.span_id,
        }
    }

    /// The trace id as the fixed-width hex string used by exemplar
    /// labels and trace dumps.
    pub fn trace_id_hex(&self) -> String {
        format!("{:016x}", self.trace_id)
    }
}

/// One event on the flight-recorder hot path. `name` must be a
/// `&'static str` so recording never allocates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Trace identity of the span being recorded.
    pub ctx: TraceContext,
    /// Stage name (truncated to [`TRACE_NAME_MAX`] bytes on record).
    pub name: &'static str,
    /// Start time, microseconds on the caller's clock.
    pub start_us: f64,
    /// Duration, microseconds.
    pub dur_us: f64,
    /// Free-form argument: batch id, shard/node index, retry ordinal.
    pub arg: u64,
    /// Bit flags (`FLAG_*`).
    pub flags: u32,
    /// Display track for the Chrome-trace dump (0 = request track;
    /// scatter spans use `10 + node` so parallel shards don't stack).
    pub track: u32,
}

impl TraceEvent {
    /// A new event on track 0 with no flags or argument.
    pub fn new(ctx: TraceContext, name: &'static str, start_us: f64, dur_us: f64) -> TraceEvent {
        TraceEvent {
            ctx,
            name,
            start_us,
            dur_us,
            arg: 0,
            flags: 0,
            track: 0,
        }
    }

    /// Sets the argument word.
    pub fn with_arg(mut self, arg: u64) -> TraceEvent {
        self.arg = arg;
        self
    }

    /// Ors in flags.
    pub fn with_flags(mut self, flags: u32) -> TraceEvent {
        self.flags |= flags;
        self
    }

    /// Sets the display track.
    pub fn with_track(mut self, track: u32) -> TraceEvent {
        self.track = track;
        self
    }
}

/// A decoded event read back out of the recorder (names are owned
/// strings because the ring stores bytes, not pointers).
#[derive(Debug, Clone, PartialEq)]
pub struct FlightEvent {
    /// Trace id of the owning request.
    pub trace_id: u64,
    /// Span id.
    pub span_id: u64,
    /// Parent span id (0 for roots).
    pub parent_span_id: u64,
    /// Stage name.
    pub name: String,
    /// Start time, microseconds.
    pub start_us: f64,
    /// Duration, microseconds.
    pub dur_us: f64,
    /// Argument word.
    pub arg: u64,
    /// Bit flags (`FLAG_*`).
    pub flags: u32,
    /// Display track.
    pub track: u32,
}

const NAME_WORDS: usize = TRACE_NAME_MAX / 8;

/// One ring slot. Every field is a plain atomic: concurrent writers and
/// readers race benignly (no locks, no UB); the per-slot sequence word
/// lets readers discard torn slots. A slot is valid for generation `g`
/// only when `seq == 2 g + 2`.
struct Slot {
    seq: AtomicU64,
    trace_id: AtomicU64,
    span_id: AtomicU64,
    parent_span_id: AtomicU64,
    start_bits: AtomicU64,
    dur_bits: AtomicU64,
    arg: AtomicU64,
    flags: AtomicU32,
    track: AtomicU32,
    name_len: AtomicU32,
    name: [AtomicU64; NAME_WORDS],
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            trace_id: AtomicU64::new(0),
            span_id: AtomicU64::new(0),
            parent_span_id: AtomicU64::new(0),
            start_bits: AtomicU64::new(0),
            dur_bits: AtomicU64::new(0),
            arg: AtomicU64::new(0),
            flags: AtomicU32::new(0),
            track: AtomicU32::new(0),
            name_len: AtomicU32::new(0),
            name: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

pub(crate) struct FlightInner {
    slots: Box<[Slot]>,
    cursor: AtomicU64,
}

impl FlightInner {
    pub(crate) fn new(capacity: usize) -> FlightInner {
        FlightInner {
            slots: (0..capacity.max(1)).map(|_| Slot::empty()).collect(),
            cursor: AtomicU64::new(0),
        }
    }
}

impl std::fmt::Debug for FlightInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightInner")
            .field("capacity", &self.slots.len())
            .field("recorded", &self.cursor.load(Ordering::Relaxed))
            .finish()
    }
}

/// Handle to a registry's flight recorder. Like the metric handles it
/// is an `Option<Arc<…>>`: a handle from a disabled registry records
/// nothing, at the cost of one branch per call.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    pub(crate) inner: Option<Arc<FlightInner>>,
}

impl FlightRecorder {
    /// A recorder not connected to any registry; `record` is a no-op.
    pub fn disabled() -> FlightRecorder {
        FlightRecorder { inner: None }
    }

    pub(crate) fn live(inner: Arc<FlightInner>) -> FlightRecorder {
        FlightRecorder { inner: Some(inner) }
    }

    /// True when events are retained.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records one event. Zero-alloc, lock-free: claims a slot with one
    /// `fetch_add`, then writes through plain atomics under a per-slot
    /// sequence word. Disabled handles and disabled contexts cost one
    /// branch. Overwrites the oldest event once the ring is full.
    #[inline]
    pub fn record(&self, event: TraceEvent) {
        let Some(inner) = &self.inner else { return };
        if !event.ctx.is_enabled() {
            return;
        }
        let gen = inner.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = &inner.slots[(gen % inner.slots.len() as u64) as usize];
        slot.seq.store(2 * gen + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        slot.trace_id.store(event.ctx.trace_id, Ordering::Relaxed);
        slot.span_id.store(event.ctx.span_id, Ordering::Relaxed);
        slot.parent_span_id
            .store(event.ctx.parent_span_id, Ordering::Relaxed);
        slot.start_bits
            .store(event.start_us.to_bits(), Ordering::Relaxed);
        slot.dur_bits
            .store(event.dur_us.to_bits(), Ordering::Relaxed);
        slot.arg.store(event.arg, Ordering::Relaxed);
        slot.flags.store(event.flags, Ordering::Relaxed);
        slot.track.store(event.track, Ordering::Relaxed);
        let bytes = truncate_utf8(event.name, TRACE_NAME_MAX);
        slot.name_len.store(bytes.len() as u32, Ordering::Relaxed);
        for (w, chunk) in slot.name.iter().zip(bytes.chunks(8)) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            w.store(u64::from_le_bytes(word), Ordering::Relaxed);
        }
        fence(Ordering::Release);
        slot.seq.store(2 * gen + 2, Ordering::Release);
    }

    /// Records a parent event and its stages laid end to end under one
    /// context: the parent is `ctx` and covers the stages' summed
    /// duration from `start_us`; stage `i` is `ctx.child(SpanKind::Stage, i)` and starts
    /// where stage `i - 1` ends, so the children sum exactly to the
    /// parent. Negative durations count as zero.
    pub fn record_stages(
        &self,
        ctx: TraceContext,
        parent: &'static str,
        start_us: f64,
        stages: &[(&'static str, f64)],
    ) {
        if self.inner.is_none() || !ctx.is_enabled() {
            return;
        }
        let total_us = stages.iter().map(|(_, dur)| dur.max(0.0)).sum();
        self.record(TraceEvent::new(ctx, parent, start_us, total_us));
        let mut cursor = start_us;
        for (slot, &(name, dur)) in (0u64..).zip(stages) {
            let dur = dur.max(0.0);
            self.record(TraceEvent::new(
                ctx.child(SpanKind::Stage, slot),
                name,
                cursor,
                dur,
            ));
            cursor += dur;
        }
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.cursor.load(Ordering::Relaxed))
    }

    /// Events overwritten because the ring wrapped.
    pub fn dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| {
            i.cursor
                .load(Ordering::Relaxed)
                .saturating_sub(i.slots.len() as u64)
        })
    }

    /// Snapshot of retained events, oldest first. Slots mid-write (or
    /// torn by a concurrent wrap) are skipped rather than misread.
    pub fn events(&self) -> Vec<FlightEvent> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let cap = inner.slots.len() as u64;
        let end = inner.cursor.load(Ordering::Acquire);
        let start = end.saturating_sub(cap);
        let mut out = Vec::with_capacity((end - start) as usize);
        for gen in start..end {
            let slot = &inner.slots[(gen % cap) as usize];
            let seq1 = slot.seq.load(Ordering::Acquire);
            if seq1 != 2 * gen + 2 {
                continue; // mid-write or already overwritten
            }
            let trace_id = slot.trace_id.load(Ordering::Relaxed);
            let span_id = slot.span_id.load(Ordering::Relaxed);
            let parent_span_id = slot.parent_span_id.load(Ordering::Relaxed);
            let start_us = f64::from_bits(slot.start_bits.load(Ordering::Relaxed));
            let dur_us = f64::from_bits(slot.dur_bits.load(Ordering::Relaxed));
            let arg = slot.arg.load(Ordering::Relaxed);
            let flags = slot.flags.load(Ordering::Relaxed);
            let track = slot.track.load(Ordering::Relaxed);
            let name_len = (slot.name_len.load(Ordering::Relaxed) as usize).min(TRACE_NAME_MAX);
            let mut name_bytes = [0u8; TRACE_NAME_MAX];
            for (i, w) in slot.name.iter().enumerate() {
                name_bytes[i * 8..i * 8 + 8]
                    .copy_from_slice(&w.load(Ordering::Relaxed).to_le_bytes());
            }
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != seq1 {
                continue; // torn by a concurrent writer
            }
            let name = match std::str::from_utf8(&name_bytes[..name_len]) {
                Ok(s) => s.to_string(),
                Err(_) => "?".to_string(),
            };
            out.push(FlightEvent {
                trace_id,
                span_id,
                parent_span_id,
                name,
                start_us,
                dur_us,
                arg,
                flags,
                track,
            });
        }
        out
    }

    /// Retained events belonging to one trace, oldest first.
    pub fn events_for(&self, trace_id: u64) -> Vec<FlightEvent> {
        let mut events = self.events();
        events.retain(|e| e.trace_id == trace_id);
        events
    }
}

/// Truncates `s` to at most `max` bytes on a UTF-8 boundary.
fn truncate_utf8(s: &str, max: usize) -> &[u8] {
    if s.len() <= max {
        return s.as_bytes();
    }
    let mut end = max;
    while end > 0 && !s.is_char_boundary(end) {
        end -= 1;
    }
    &s.as_bytes()[..end]
}

fn fmt_trace_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

fn escape_name(s: &str) -> String {
    s.chars()
        .filter(|c| *c != '"' && *c != '\\' && (*c as u32) >= 0x20)
        .collect()
}

/// Renders a set of flight-recorder events as a Chrome trace-event file
/// (`chrome://tracing` / Perfetto "JSON Array Format" wrapped in an
/// object; every event a complete `"ph": "X"` event). Events are
/// grouped per trace: `pid` is a small per-trace ordinal, `tid` the
/// producer-chosen track, and each event's args carry the full trace
/// identity so parent/child links survive the export.
pub fn chrome_trace_for_events(events: &[FlightEvent]) -> String {
    use std::fmt::Write as _;
    let mut pids: Vec<u64> = Vec::new();
    let mut out = String::from("{\"traceEvents\": [\n");
    let mut first = true;
    for e in events {
        let pid = match pids.iter().position(|&t| t == e.trace_id) {
            Some(i) => i + 1,
            None => {
                pids.push(e.trace_id);
                pids.len()
            }
        };
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let _ = write!(
            out,
            "  {{\"name\": \"{}\", \"cat\": \"fabp-trace\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \"pid\": {}, \"tid\": {}, \"args\": {{\"trace_id\": \"{:016x}\", \"span_id\": \"{:016x}\", \"parent_span_id\": \"{:016x}\", \"arg\": {}, \"flags\": {}}}}}",
            escape_name(&e.name),
            fmt_trace_f64(e.start_us),
            fmt_trace_f64(e.dur_us),
            pid,
            e.track,
            e.trace_id,
            e.span_id,
            e.parent_span_id,
            e.arg,
            e.flags
        );
    }
    if !first {
        out.push('\n');
    }
    let _ = writeln!(
        out,
        "], \"displayTimeUnit\": \"ms\", \"otherData\": {{\"traces\": \"{}\", \"events\": \"{}\"}}}}",
        pids.len(),
        events.len()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn minting_is_deterministic_and_nonzero() {
        let a = TraceContext::mint(0xFAB, 1);
        let b = TraceContext::mint(0xFAB, 1);
        let c = TraceContext::mint(0xFAB, 2);
        assert_eq!(a, b);
        assert_ne!(a.trace_id, c.trace_id);
        assert!(a.is_enabled());
        assert_eq!(a.parent_span_id, 0);
        assert_eq!(a.trace_id_hex().len(), 16);
    }

    #[test]
    fn children_share_the_trace_and_chain_parents() {
        let root = TraceContext::mint(7, 42);
        let shard0 = root.child(SpanKind::Shard, 0);
        let shard1 = root.child(SpanKind::Shard, 1);
        assert_eq!(shard0.trace_id, root.trace_id);
        assert_eq!(shard0.parent_span_id, root.span_id);
        assert_ne!(shard0.span_id, shard1.span_id);
        let retry = shard0.child(SpanKind::Retry, 99);
        assert_eq!(retry.parent_span_id, shard0.span_id);
        // Disabled contexts stay disabled.
        assert!(!TraceContext::none().child(SpanKind::Stage, 3).is_enabled());
    }

    #[test]
    fn recorder_round_trips_events() {
        let r = Registry::new();
        let flight = r.flight_recorder();
        assert!(flight.is_enabled());
        let ctx = TraceContext::mint(1, 1);
        flight.record(
            TraceEvent::new(ctx, "queue_wait", 10.0, 5.5)
                .with_arg(3)
                .with_flags(FLAG_SHED)
                .with_track(2),
        );
        let events = flight.events();
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(e.name, "queue_wait");
        assert_eq!(e.trace_id, ctx.trace_id);
        assert_eq!(e.span_id, ctx.span_id);
        assert_eq!((e.start_us, e.dur_us), (10.0, 5.5));
        assert_eq!((e.arg, e.flags, e.track), (3, FLAG_SHED, 2));
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let r = Registry::new();
        let flight = r.flight_recorder();
        let ctx = TraceContext::mint(2, 2);
        let n = FLIGHT_RECORDER_CAPACITY as u64 + 10;
        for i in 0..n {
            flight.record(TraceEvent::new(ctx, "e", i as f64, 1.0));
        }
        assert_eq!(flight.recorded(), n);
        assert_eq!(flight.dropped(), 10);
        let events = flight.events();
        assert_eq!(events.len(), FLIGHT_RECORDER_CAPACITY);
        // Oldest retained event is generation 10.
        assert_eq!(events[0].start_us, 10.0);
        assert_eq!(events.last().unwrap().start_us, (n - 1) as f64);
    }

    #[test]
    fn disabled_paths_record_nothing() {
        let disabled = FlightRecorder::disabled();
        disabled.record(TraceEvent::new(TraceContext::mint(3, 3), "x", 0.0, 0.0));
        assert!(disabled.events().is_empty());
        assert_eq!(disabled.recorded(), 0);
        // Enabled recorder, disabled context: also nothing.
        let r = Registry::new();
        let flight = r.flight_recorder();
        flight.record(TraceEvent::new(TraceContext::none(), "x", 0.0, 0.0));
        assert!(flight.events().is_empty());
        // Disabled registry hands out a disabled recorder.
        assert!(!Registry::disabled().flight_recorder().is_enabled());
    }

    #[test]
    fn long_names_truncate_on_utf8_boundary() {
        let r = Registry::new();
        let flight = r.flight_recorder();
        let ctx = TraceContext::mint(4, 4);
        flight.record(TraceEvent::new(
            ctx,
            "a_very_long_stage_name_that_overflows_the_slot",
            0.0,
            1.0,
        ));
        let events = flight.events();
        assert_eq!(events[0].name.len(), TRACE_NAME_MAX);
        assert!("a_very_long_stage_name_that_overflows_the_slot".starts_with(&events[0].name));
    }

    #[test]
    fn concurrent_recording_loses_no_well_formed_events() {
        let r = Registry::new();
        let flight = r.flight_recorder();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let flight = flight.clone();
                scope.spawn(move || {
                    let ctx = TraceContext::mint(5, t);
                    for i in 0..500u64 {
                        flight.record(TraceEvent::new(ctx, "work", i as f64, 1.0).with_arg(t));
                    }
                });
            }
        });
        assert_eq!(flight.recorded(), 2_000);
        let events = flight.events();
        assert_eq!(events.len(), 2_000, "no wrap, no writer in flight");
        for t in 0..4u64 {
            assert_eq!(events.iter().filter(|e| e.arg == t).count(), 500);
        }
    }

    #[test]
    fn chrome_dump_groups_by_trace_and_balances() {
        let r = Registry::new();
        let flight = r.flight_recorder();
        let a = TraceContext::mint(6, 1);
        let b = TraceContext::mint(6, 2);
        flight.record(TraceEvent::new(a, "request", 0.0, 10.0));
        flight
            .record(TraceEvent::new(a.child(SpanKind::Shard, 0), "shard", 2.0, 3.0).with_track(10));
        flight.record(TraceEvent::new(b, "request", 1.0, 4.0));
        let dump = chrome_trace_for_events(&flight.events());
        assert_eq!(dump.matches("\"ph\": \"X\"").count(), 3);
        assert_eq!(dump.matches('{').count(), dump.matches('}').count());
        assert!(dump.contains(&format!("\"trace_id\": \"{:016x}\"", a.trace_id)));
        assert!(dump.contains("\"traces\": \"2\""));
        // The shard event keeps its parent link.
        assert!(dump.contains(&format!("\"parent_span_id\": \"{:016x}\"", a.span_id)));
    }
}
