//! The typed error taxonomy for the FabP stack.
//!
//! Public APIs in `fabp-core` and this crate return [`FabpError`]
//! instead of panicking; callers match on the variant to decide between
//! retry (transient), scrub-and-replay (config upsets) and re-dispatch
//! (node death). [`FabpError::is_transient`] encodes the retry policy's
//! view of the taxonomy.

use std::fmt;

/// Convenience alias used across the workspace.
pub type FabpResult<T> = Result<T, FabpError>;

/// Which framed stream a CRC mismatch was observed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamKind {
    /// 512-bit reference-database beats on the AXI read channel.
    AxiReference,
    /// The packed 2-bit query bitstream transferred at configure time.
    PackedQuery,
    /// A packed-shard payload in the persistent on-disk reference index.
    IndexShard,
    /// The fixed-size header of the persistent on-disk reference index.
    IndexHeader,
}

impl StreamKind {
    /// Stable label used for telemetry and `Display`.
    pub fn label(self) -> &'static str {
        match self {
            StreamKind::AxiReference => "axi_reference",
            StreamKind::PackedQuery => "packed_query",
            StreamKind::IndexShard => "index_shard",
            StreamKind::IndexHeader => "index_header",
        }
    }
}

impl fmt::Display for StreamKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Typed failure taxonomy replacing panics in the public APIs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FabpError {
    /// A query with zero residues cannot be planned or aligned.
    EmptyQuery,
    /// The architecture planner could not fit the design (message from
    /// `fabp_fpga::resources::PlanError`).
    Plan(String),
    /// A framed stream failed its CRC32 check — transient corruption on
    /// the wire or in DRAM; retry the transfer.
    CrcMismatch {
        /// The stream the mismatch was observed on.
        stream: StreamKind,
        /// The frame (beat index for AXI, always 0 for the query).
        frame: u64,
        /// CRC computed at pack time (golden).
        expected: u32,
        /// CRC computed at the consumer.
        actual: u32,
    },
    /// Configuration scrubbing found live LUT truth tables that differ
    /// from the golden netlist — an SEU in configuration memory.
    ConfigUpset {
        /// Cycle at which the scrub detected the upset.
        detected_cycle: u64,
        /// Number of 64-bit truth-table words that differed.
        corrupted_words: u32,
    },
    /// The reference stream stopped advancing past the watchdog
    /// deadline — a hung DMA or bus stall; retry the burst.
    StreamStall {
        /// Beat index that stalled.
        beat: u64,
        /// Cycles the watchdog waited before declaring the stall.
        stalled_cycles: u64,
    },
    /// A fleet node is down and no routable node could serve its shard.
    NodeDown {
        /// Index of the dead node in the fleet.
        node: usize,
    },
    /// A packed bitstream failed to decode (corruption escaped framing).
    Decode(String),
    /// The retry policy gave up.
    RetriesExhausted {
        /// Attempts made (including the first).
        attempts: u32,
        /// The final error that exhausted the budget.
        last: Box<FabpError>,
    },
    /// A fleet/shard plan is invalid (zero nodes, empty shard list,
    /// mismatched offsets, …).
    InvalidShardPlan(String),
    /// The serving layer's admission queue is full — backpressure; the
    /// client should retry after a backoff.
    Overloaded {
        /// Requests currently queued.
        queue_depth: usize,
        /// Configured admission-queue capacity.
        capacity: usize,
    },
    /// A request's deadline expired before (or while) it was served and
    /// the serving layer shed it.
    DeadlineExceeded {
        /// Microseconds past the deadline when the request was shed.
        late_us: u64,
    },
    /// The serving instance is draining for shutdown or maintenance and
    /// no longer admits new work; in-flight requests still complete.
    /// Clients should route to another instance.
    Draining,
    /// The fleet is browned out: surviving capacity is below demand, and
    /// this request was shed by tenant priority to protect
    /// higher-priority traffic.
    Brownout {
        /// Nodes still accepting primary reads when the request was shed.
        routable_nodes: usize,
        /// Total nodes in the fleet.
        fleet_nodes: usize,
    },
    /// A k-mer seed-index word or packed key does not fit the index's
    /// `21^word_size` table geometry — wrong residue count, or a packed
    /// key at or beyond `21^word_size`.
    InvalidWord {
        /// The index's configured word size in residues.
        word_size: usize,
        /// What the caller supplied and why it was rejected.
        detail: String,
    },
    /// A user-supplied fault-schedule or CLI spec failed to parse.
    InvalidSpec(String),
    /// An invariant the code relies on was violated — the typed
    /// replacement for `unreachable!`/`expect` in public APIs.
    Internal(String),
}

impl FabpError {
    /// Whether the retry policy should treat this error as transient
    /// (a re-issue of the same operation can succeed).
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            FabpError::CrcMismatch { .. }
                | FabpError::StreamStall { .. }
                | FabpError::Overloaded { .. }
                | FabpError::Brownout { .. }
        )
    }

    /// Stable short label for telemetry counters.
    pub fn kind_label(&self) -> &'static str {
        match self {
            FabpError::EmptyQuery => "empty_query",
            FabpError::Plan(_) => "plan",
            FabpError::CrcMismatch { .. } => "crc_mismatch",
            FabpError::ConfigUpset { .. } => "config_upset",
            FabpError::StreamStall { .. } => "stream_stall",
            FabpError::NodeDown { .. } => "node_down",
            FabpError::Decode(_) => "decode",
            FabpError::RetriesExhausted { .. } => "retries_exhausted",
            FabpError::InvalidShardPlan(_) => "invalid_shard_plan",
            FabpError::Overloaded { .. } => "overloaded",
            FabpError::DeadlineExceeded { .. } => "deadline_exceeded",
            FabpError::Draining => "draining",
            FabpError::Brownout { .. } => "brownout",
            FabpError::InvalidWord { .. } => "invalid_word",
            FabpError::InvalidSpec(_) => "invalid_spec",
            FabpError::Internal(_) => "internal",
        }
    }
}

impl fmt::Display for FabpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabpError::EmptyQuery => write!(f, "query is empty"),
            FabpError::Plan(msg) => write!(f, "architecture plan failed: {msg}"),
            FabpError::CrcMismatch {
                stream,
                frame,
                expected,
                actual,
            } => write!(
                f,
                "CRC32 mismatch on {stream} frame {frame}: expected {expected:#010x}, got {actual:#010x}"
            ),
            FabpError::ConfigUpset {
                detected_cycle,
                corrupted_words,
            } => write!(
                f,
                "configuration upset detected at cycle {detected_cycle}: {corrupted_words} truth-table word(s) differ from golden netlist"
            ),
            FabpError::StreamStall {
                beat,
                stalled_cycles,
            } => write!(
                f,
                "reference stream stalled at beat {beat} for {stalled_cycles} cycles past the watchdog deadline"
            ),
            FabpError::NodeDown { node } => write!(f, "fleet node {node} is down"),
            FabpError::Decode(msg) => write!(f, "bitstream decode failed: {msg}"),
            FabpError::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempt(s): {last}")
            }
            FabpError::InvalidShardPlan(msg) => write!(f, "invalid shard plan: {msg}"),
            FabpError::Overloaded {
                queue_depth,
                capacity,
            } => write!(
                f,
                "admission queue full ({queue_depth}/{capacity} requests); retry after backoff"
            ),
            FabpError::DeadlineExceeded { late_us } => {
                write!(f, "request deadline exceeded by {late_us} µs; shed")
            }
            FabpError::Draining => {
                write!(f, "server is draining and no longer admits work; route elsewhere")
            }
            FabpError::Brownout {
                routable_nodes,
                fleet_nodes,
            } => write!(
                f,
                "fleet browned out ({routable_nodes}/{fleet_nodes} nodes routable); request shed by tenant priority"
            ),
            FabpError::InvalidWord { word_size, detail } => write!(
                f,
                "invalid k-mer word for word_size {word_size}: {detail}"
            ),
            FabpError::InvalidSpec(msg) => write!(f, "invalid fault spec: {msg}"),
            FabpError::Internal(msg) => write!(f, "internal invariant violated: {msg}"),
        }
    }
}

impl std::error::Error for FabpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FabpError::RetriesExhausted { last, .. } => Some(last.as_ref()),
            _ => None,
        }
    }
}

impl From<fabp_fpga::resources::PlanError> for FabpError {
    fn from(e: fabp_fpga::resources::PlanError) -> FabpError {
        FabpError::Plan(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_classification() {
        assert!(FabpError::CrcMismatch {
            stream: StreamKind::AxiReference,
            frame: 3,
            expected: 1,
            actual: 2
        }
        .is_transient());
        assert!(FabpError::StreamStall {
            beat: 0,
            stalled_cycles: 100
        }
        .is_transient());
        assert!(!FabpError::ConfigUpset {
            detected_cycle: 10,
            corrupted_words: 1
        }
        .is_transient());
        assert!(!FabpError::NodeDown { node: 2 }.is_transient());
        assert!(!FabpError::EmptyQuery.is_transient());
        // Backpressure is transient (retry after backoff); a blown
        // deadline is not (the result is no longer wanted).
        assert!(FabpError::Overloaded {
            queue_depth: 64,
            capacity: 64
        }
        .is_transient());
        assert!(!FabpError::DeadlineExceeded { late_us: 10 }.is_transient());
        // A brownout clears when nodes rejoin — retry; a draining
        // instance never admits again — route elsewhere.
        assert!(FabpError::Brownout {
            routable_nodes: 1,
            fleet_nodes: 4
        }
        .is_transient());
        assert!(!FabpError::Draining.is_transient());
    }

    #[test]
    fn fleet_errors_display_and_label() {
        let brownout = FabpError::Brownout {
            routable_nodes: 1,
            fleet_nodes: 4,
        };
        assert!(brownout.to_string().contains("1/4"));
        assert_eq!(brownout.kind_label(), "brownout");
        assert!(FabpError::Draining.to_string().contains("draining"));
        assert_eq!(FabpError::Draining.kind_label(), "draining");
    }

    #[test]
    fn serve_errors_display_and_label() {
        let over = FabpError::Overloaded {
            queue_depth: 64,
            capacity: 64,
        };
        assert!(over.to_string().contains("64/64"));
        assert_eq!(over.kind_label(), "overloaded");
        let late = FabpError::DeadlineExceeded { late_us: 1234 };
        assert!(late.to_string().contains("1234"));
        assert_eq!(late.kind_label(), "deadline_exceeded");
    }

    #[test]
    fn display_includes_key_fields() {
        let e = FabpError::CrcMismatch {
            stream: StreamKind::PackedQuery,
            frame: 0,
            expected: 0xDEAD_BEEF,
            actual: 0x0BAD_F00D,
        };
        let s = e.to_string();
        assert!(s.contains("packed_query"));
        assert!(s.contains("0xdeadbeef"));
        let chained = FabpError::RetriesExhausted {
            attempts: 4,
            last: Box::new(e),
        };
        assert!(chained.to_string().contains("4 attempt(s)"));
        assert!(std::error::Error::source(&chained).is_some());
    }
}
