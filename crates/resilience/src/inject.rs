//! Deterministic, seeded fault injection (the chaos harness).
//!
//! A [`FaultSchedule`] is an ordered list of faults pinned to beat
//! indices. Schedules come from three places:
//!
//! * **hand-written** — [`FaultSchedule::new`] + [`FaultSchedule::push`];
//! * **seeded** — [`FaultSchedule::seeded`] draws a reproducible random
//!   mix from a 64-bit seed (the chaos suite's seed matrix); a failing
//!   test prints the seed, and re-running with it replays the exact
//!   schedule;
//! * **parsed** — [`FaultSchedule::parse`] accepts the CLI `--inject-faults`
//!   spec, and [`std::fmt::Display`] round-trips a schedule back into
//!   that spec so failures are copy-paste reproducible.
//!
//! The generator is a self-contained SplitMix64 so schedules do not
//! depend on any external RNG crate (the `rand` shim is dev-only).

use crate::error::{FabpError, FabpResult};
use std::fmt;

/// Which of the comparator cell's two LUT6 truth tables an SEU hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConfigLut {
    /// The back-translation mux LUT (codon → residue select).
    Mux,
    /// The residue compare LUT.
    Compare,
}

impl ConfigLut {
    /// Stable label used in specs and telemetry.
    pub fn label(self) -> &'static str {
        match self {
            ConfigLut::Mux => "mux",
            ConfigLut::Compare => "cmp",
        }
    }
}

/// One injectable fault, pinned to a point in the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Flip bit `bit` of word `word` of reference beat `beat` while it
    /// crosses the AXI read channel (transient wire/DRAM corruption).
    AxiBeatFlip {
        /// Beat index into the reference stream.
        beat: u64,
        /// Word within the 512-bit beat, `0..8`.
        word: usize,
        /// Bit within the word, `0..64`.
        bit: u32,
    },
    /// Flip bit `bit` of word `word` of the packed query bitstream
    /// before it is transferred (DRAM corruption at configure time).
    QueryWordFlip {
        /// Word index into the packed query.
        word: usize,
        /// Bit within the word, `0..64`.
        bit: u32,
    },
    /// Flip one bit of a comparator LUT truth table just before beat
    /// `beat` is consumed (an SEU in configuration memory).
    ConfigUpset {
        /// Beat index at which the upset lands.
        beat: u64,
        /// Which truth table is hit.
        lut: ConfigLut,
        /// INIT bit to flip, `0..64`.
        bit: u32,
    },
    /// Stall the delivery of beat `beat` by `cycles` extra cycles (a
    /// hung DMA descriptor / bus contention spike).
    StreamStall {
        /// Beat index whose fetch stalls.
        beat: u64,
        /// Extra stall cycles beyond the modelled AXI latency.
        cycles: u64,
    },
    /// Kill fleet node `node` (power loss / fatal link error). The
    /// fleet's failure detector marks the node dead outright;
    /// `after_beats` is kept so specs round-trip.
    NodeKill {
        /// Fleet node index.
        node: usize,
        /// Beats of its shard the node completes before dying.
        after_beats: u64,
    },
}

impl FaultKind {
    /// Stable label used for telemetry counters.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::AxiBeatFlip { .. } => "axi_beat_flip",
            FaultKind::QueryWordFlip { .. } => "query_word_flip",
            FaultKind::ConfigUpset { .. } => "config_upset",
            FaultKind::StreamStall { .. } => "stream_stall",
            FaultKind::NodeKill { .. } => "node_kill",
        }
    }

    /// Whether the detect layer can catch this fault (all shipped kinds
    /// are detectable; the distinction matters for hand-written
    /// schedules that model undetectable multi-bit aliasing).
    pub fn is_detectable(&self) -> bool {
        true
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::AxiBeatFlip { beat, word, bit } => {
                write!(f, "beatflip@{beat}:{word}:{bit}")
            }
            FaultKind::QueryWordFlip { word, bit } => write!(f, "queryflip@{word}:{bit}"),
            FaultKind::ConfigUpset { beat, lut, bit } => {
                write!(f, "config@{beat}:{}:{bit}", lut.label())
            }
            FaultKind::StreamStall { beat, cycles } => write!(f, "stall@{beat}:{cycles}"),
            FaultKind::NodeKill { node, after_beats } => {
                write!(f, "kill@{node}:{after_beats}")
            }
        }
    }
}

/// A deterministic, ordered schedule of faults.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultSchedule {
    events: Vec<FaultKind>,
    seed: Option<u64>,
}

/// Longest stall a spec may ask for, in cycles: 21 s at the modelled
/// 200 MHz, and small enough that no sum of a spec's stalls overflows.
const MAX_STALL_CYCLES: u64 = u32::MAX as u64;

/// The per-kind weights used by [`FaultSchedule::seeded`].
#[derive(Debug, Clone, Copy)]
pub struct FaultMix {
    /// Number of AXI beat flips to draw.
    pub beat_flips: u32,
    /// Number of packed-query word flips to draw.
    pub query_flips: u32,
    /// Number of configuration upsets to draw.
    pub config_upsets: u32,
    /// Number of stream stalls to draw.
    pub stalls: u32,
}

impl Default for FaultMix {
    fn default() -> FaultMix {
        FaultMix {
            beat_flips: 2,
            query_flips: 1,
            config_upsets: 1,
            stalls: 1,
        }
    }
}

/// SplitMix64 step (public domain; Vigna 2015) — keeps the schedule
/// generator dependency-free and bit-stable across platforms.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultSchedule {
    /// An empty schedule (the fault-free baseline).
    pub fn new() -> FaultSchedule {
        FaultSchedule::default()
    }

    /// Appends a fault to the schedule.
    pub fn push(&mut self, fault: FaultKind) -> &mut Self {
        self.events.push(fault);
        self
    }

    /// Builds a schedule with the given events.
    pub fn from_events(events: Vec<FaultKind>) -> FaultSchedule {
        FaultSchedule { events, seed: None }
    }

    /// Draws a reproducible random schedule from `seed`.
    ///
    /// `total_beats` bounds the beat indices (faults land in
    /// `0..total_beats`); `query_words` bounds query-flip word indices
    /// (0 disables query flips even if the mix requests them).
    pub fn seeded(seed: u64, total_beats: u64, query_words: usize, mix: FaultMix) -> FaultSchedule {
        let mut s = seed;
        let beats = total_beats.max(1);
        let mut events = Vec::new();
        for _ in 0..mix.beat_flips {
            events.push(FaultKind::AxiBeatFlip {
                beat: splitmix64(&mut s) % beats,
                word: (splitmix64(&mut s) % 8) as usize,
                bit: (splitmix64(&mut s) % 64) as u32,
            });
        }
        if query_words > 0 {
            for _ in 0..mix.query_flips {
                events.push(FaultKind::QueryWordFlip {
                    word: (splitmix64(&mut s) % query_words as u64) as usize,
                    bit: (splitmix64(&mut s) % 64) as u32,
                });
            }
        }
        for _ in 0..mix.config_upsets {
            let lut = if splitmix64(&mut s) & 1 == 0 {
                ConfigLut::Mux
            } else {
                ConfigLut::Compare
            };
            events.push(FaultKind::ConfigUpset {
                beat: splitmix64(&mut s) % beats,
                lut,
                bit: (splitmix64(&mut s) % 64) as u32,
            });
        }
        for _ in 0..mix.stalls {
            events.push(FaultKind::StreamStall {
                beat: splitmix64(&mut s) % beats,
                // Long enough to trip any sane watchdog deadline.
                cycles: 500 + splitmix64(&mut s) % 1500,
            });
        }
        // Deterministic order: sort by beat, then by the display form so
        // equal-beat events have a stable order.
        events.sort_by_key(|e| (schedule_beat(e), e.to_string()));
        FaultSchedule {
            events,
            seed: Some(seed),
        }
    }

    /// Parses a CLI spec: comma-separated fault atoms, e.g.
    /// `beatflip@12:3:17,stall@40:900,config@64:mux:5,queryflip@0:3,kill@1:50`
    /// or `seed:0xBEEF` / `seed:42` for a seeded schedule (resolved
    /// against the run's beat count by the caller via
    /// [`FaultSchedule::seeded`], signalled here by an empty event list
    /// and `Some(seed)`).
    pub fn parse(spec: &str) -> FabpResult<FaultSchedule> {
        let spec = spec.trim();
        if spec.is_empty() {
            return Ok(FaultSchedule::new());
        }
        if let Some(rest) = spec.strip_prefix("seed:") {
            let seed = parse_u64(rest)
                .ok_or_else(|| FabpError::InvalidSpec(format!("bad seed `{rest}`")))?;
            return Ok(FaultSchedule {
                events: Vec::new(),
                seed: Some(seed),
            });
        }
        let mut events = Vec::new();
        for atom in spec.split(',') {
            let atom = atom.trim();
            let (kind, args) = atom
                .split_once('@')
                .ok_or_else(|| FabpError::InvalidSpec(format!("missing `@` in `{atom}`")))?;
            let parts: Vec<&str> = args.split(':').collect();
            let bad = || FabpError::InvalidSpec(format!("bad arguments in `{atom}`"));
            let num = |i: usize| -> FabpResult<u64> {
                parts.get(i).and_then(|p| parse_u64(p)).ok_or_else(bad)
            };
            // A word or bit the modelled hardware does not have is
            // rejected, not wrapped onto one it does; a stall is capped
            // so that no sum of stalls the runner forms can overflow.
            let at_most = |i: usize, max: u64, what: &str| -> FabpResult<u64> {
                let value = num(i)?;
                if value > max {
                    return Err(FabpError::InvalidSpec(format!(
                        "{what} {value} in `{atom}` is out of range (0..={max})"
                    )));
                }
                Ok(value)
            };
            let event = match kind {
                "beatflip" => {
                    if parts.len() != 3 {
                        return Err(bad());
                    }
                    FaultKind::AxiBeatFlip {
                        beat: num(0)?,
                        word: at_most(1, 7, "beat word")? as usize,
                        bit: at_most(2, 63, "bit")? as u32,
                    }
                }
                "queryflip" => {
                    if parts.len() != 2 {
                        return Err(bad());
                    }
                    FaultKind::QueryWordFlip {
                        word: num(0)? as usize,
                        bit: at_most(1, 63, "bit")? as u32,
                    }
                }
                "config" => {
                    if parts.len() != 3 {
                        return Err(bad());
                    }
                    let lut = match parts[1] {
                        "mux" => ConfigLut::Mux,
                        "cmp" | "compare" => ConfigLut::Compare,
                        other => {
                            return Err(FabpError::InvalidSpec(format!(
                                "unknown LUT `{other}` in `{atom}` (want mux|cmp)"
                            )))
                        }
                    };
                    FaultKind::ConfigUpset {
                        beat: num(0)?,
                        lut,
                        bit: at_most(2, 63, "bit")? as u32,
                    }
                }
                "stall" => {
                    if parts.len() != 2 {
                        return Err(bad());
                    }
                    FaultKind::StreamStall {
                        beat: num(0)?,
                        cycles: at_most(1, MAX_STALL_CYCLES, "stall cycles")?,
                    }
                }
                "kill" => {
                    if parts.len() != 2 {
                        return Err(bad());
                    }
                    FaultKind::NodeKill {
                        node: num(0)? as usize,
                        after_beats: num(1)?,
                    }
                }
                other => {
                    return Err(FabpError::InvalidSpec(format!(
                        "unknown fault kind `{other}` (want beatflip|queryflip|config|stall|kill)"
                    )))
                }
            };
            events.push(event);
        }
        Ok(FaultSchedule { events, seed: None })
    }

    /// The ordered fault events.
    pub fn events(&self) -> &[FaultKind] {
        &self.events
    }

    /// The seed this schedule was drawn from, if any.
    pub fn seed(&self) -> Option<u64> {
        self.seed
    }

    /// True when the schedule injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.seed.is_none()
    }

    /// Whether a seeded spec still needs resolving against a run shape.
    pub fn needs_resolution(&self) -> bool {
        self.events.is_empty() && self.seed.is_some()
    }

    /// Resolves a `seed:`-style schedule against the run shape; a
    /// schedule that already has events is returned unchanged.
    pub fn resolve(&self, total_beats: u64, query_words: usize) -> FaultSchedule {
        if self.needs_resolution() {
            match self.seed {
                Some(seed) => {
                    FaultSchedule::seeded(seed, total_beats, query_words, FaultMix::default())
                }
                None => self.clone(),
            }
        } else {
            self.clone()
        }
    }

    /// All node-kill events (fleet-level; engine runners ignore them).
    pub fn node_kills(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.events.iter().filter_map(|e| match e {
            FaultKind::NodeKill { node, after_beats } => Some((*node, *after_beats)),
            _ => None,
        })
    }
}

/// Beat key used for deterministic ordering (query flips sort first,
/// node kills last).
fn schedule_beat(e: &FaultKind) -> u64 {
    match e {
        FaultKind::QueryWordFlip { .. } => 0,
        FaultKind::AxiBeatFlip { beat, .. }
        | FaultKind::ConfigUpset { beat, .. }
        | FaultKind::StreamStall { beat, .. } => *beat,
        FaultKind::NodeKill { .. } => u64::MAX,
    }
}

fn parse_u64(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

impl fmt::Display for FaultSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.needs_resolution() {
            return match self.seed {
                Some(seed) => write!(f, "seed:{seed:#x}"),
                None => Ok(()),
            };
        }
        let mut first = true;
        for e in &self.events {
            if !first {
                f.write_str(",")?;
            }
            write!(f, "{e}")?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_is_deterministic_and_bounded() {
        let a = FaultSchedule::seeded(0xBEEF, 100, 4, FaultMix::default());
        let b = FaultSchedule::seeded(0xBEEF, 100, 4, FaultMix::default());
        assert_eq!(a, b);
        assert_eq!(a.seed(), Some(0xBEEF));
        assert!(!a.events().is_empty());
        for e in a.events() {
            match e {
                FaultKind::AxiBeatFlip { beat, word, bit } => {
                    assert!(*beat < 100 && *word < 8 && *bit < 64)
                }
                FaultKind::QueryWordFlip { word, bit } => assert!(*word < 4 && *bit < 64),
                FaultKind::ConfigUpset { beat, bit, .. } => assert!(*beat < 100 && *bit < 64),
                FaultKind::StreamStall { beat, cycles } => {
                    assert!(*beat < 100 && *cycles >= 500)
                }
                FaultKind::NodeKill { .. } => panic!("seeded schedules are node-local"),
            }
        }
        let c = FaultSchedule::seeded(0xBEF0, 100, 4, FaultMix::default());
        assert_ne!(a, c, "different seeds draw different schedules");
    }

    #[test]
    fn spec_round_trips_through_display() {
        let spec = "beatflip@12:3:17,config@64:mux:5,stall@40:900,queryflip@0:3,kill@1:50";
        let sched = FaultSchedule::parse(spec).unwrap();
        assert_eq!(sched.events().len(), 5);
        let printed = sched.to_string();
        let reparsed = FaultSchedule::parse(&printed).unwrap();
        assert_eq!(sched.events(), reparsed.events());
    }

    #[test]
    fn seed_spec_resolves_lazily() {
        let sched = FaultSchedule::parse("seed:0xBEEF").unwrap();
        assert!(sched.needs_resolution());
        assert_eq!(sched.to_string(), "seed:0xbeef");
        let resolved = sched.resolve(64, 2);
        assert!(!resolved.needs_resolution());
        assert_eq!(
            resolved,
            FaultSchedule::seeded(0xBEEF, 64, 2, FaultMix::default())
        );
    }

    #[test]
    fn bad_specs_are_rejected_with_context() {
        for bad in [
            "nope@1:2",
            "beatflip@1",
            "config@1:quux:3",
            "stall@",
            "seed:zzz",
            "beatflip12:3:17",
        ] {
            let err = FaultSchedule::parse(bad).unwrap_err();
            assert_eq!(err.kind_label(), "invalid_spec", "{bad} should fail");
        }
        // A beat word or bit the hardware lacks, named in the error.
        for bad in [
            "beatflip@0:8:1",
            "beatflip@0:1:64",
            "queryflip@0:64",
            "config@1:mux:64",
            "stall@1:4294967296",
        ] {
            let err = FaultSchedule::parse(bad).unwrap_err();
            assert_eq!(err.kind_label(), "invalid_spec", "{bad} should fail");
            assert!(err.to_string().contains(bad), "{bad}: {err}");
        }
        assert!(FaultSchedule::parse("").unwrap().is_empty());
        // The longest stall still parses.
        assert!(FaultSchedule::parse("stall@1:4294967295").is_ok());
    }

    #[test]
    fn node_kills_are_filtered() {
        let sched = FaultSchedule::parse("kill@2:10,beatflip@1:0:0").unwrap();
        let kills: Vec<_> = sched.node_kills().collect();
        assert_eq!(kills, vec![(2, 10)]);
    }
}
