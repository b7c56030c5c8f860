//! Snapshot capture and the two metric exporters: Prometheus text
//! exposition and stable JSON.

use std::fmt::Write as _;
use std::sync::atomic::Ordering;

use crate::metrics::{bucket_upper_bound, HISTOGRAM_BUCKETS};
use crate::registry::{Labels, MetricCell};

/// Kind tag for an exported metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone integer counter.
    Counter,
    /// Signed gauge.
    Gauge,
    /// Monotone float counter (exported as a counter).
    FloatCounter,
    /// Log2-bucketed histogram.
    Histogram,
}

impl MetricKind {
    fn prometheus_type(self) -> &'static str {
        match self {
            MetricKind::Counter | MetricKind::FloatCounter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }

    fn json_name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::FloatCounter => "float_counter",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One captured exemplar: a recent traced observation in a bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exemplar {
    /// Bucket index the exemplar belongs to.
    pub bucket: usize,
    /// Trace id of the observation (non-zero).
    pub trace_id: u64,
    /// The observed value.
    pub value: u64,
}

/// Captured histogram state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (65 log2 buckets).
    pub buckets: Vec<u64>,
    /// Sum of observed values (wrapping).
    pub sum: u64,
    /// Number of observations.
    pub count: u64,
    /// Exemplars for buckets that have one (empty without tracing, so
    /// untraced exports are byte-identical to their pre-exemplar form).
    pub exemplars: Vec<Exemplar>,
}

/// Captured value of one metric series.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Float counter value.
    FloatCounter(f64),
    /// Histogram state.
    Histogram(HistogramSnapshot),
}

impl MetricValue {
    pub(crate) fn capture(cell: &MetricCell) -> MetricValue {
        match cell {
            MetricCell::Counter(c) => MetricValue::Counter(c.load(Ordering::Relaxed)),
            MetricCell::Gauge(c) => MetricValue::Gauge(c.load(Ordering::Relaxed)),
            MetricCell::FloatCounter(c) => {
                MetricValue::FloatCounter(f64::from_bits(c.load(Ordering::Relaxed)))
            }
            MetricCell::Histogram(h) => MetricValue::Histogram(HistogramSnapshot {
                buckets: h
                    .buckets
                    .iter()
                    .map(|b| b.load(Ordering::Relaxed))
                    .collect(),
                sum: h.sum.load(Ordering::Relaxed),
                count: h.count.load(Ordering::Relaxed),
                exemplars: h
                    .exemplar_trace
                    .iter()
                    .enumerate()
                    .filter_map(|(bucket, t)| {
                        let trace_id = t.load(Ordering::Relaxed);
                        (trace_id != 0).then(|| Exemplar {
                            bucket,
                            trace_id,
                            value: h.exemplar_value[bucket].load(Ordering::Relaxed),
                        })
                    })
                    .collect(),
            }),
        }
    }

    /// The kind tag for this value.
    pub fn kind(&self) -> MetricKind {
        match self {
            MetricValue::Counter(_) => MetricKind::Counter,
            MetricValue::Gauge(_) => MetricKind::Gauge,
            MetricValue::FloatCounter(_) => MetricKind::FloatCounter,
            MetricValue::Histogram(_) => MetricKind::Histogram,
        }
    }
}

/// One exported metric series.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// Metric name (`fabp_*` by convention).
    pub name: String,
    /// Ordered label pairs.
    pub labels: Labels,
    /// Help text.
    pub help: String,
    /// Captured value.
    pub value: MetricValue,
}

/// A consistent capture of a registry's metrics.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// All registered series, sorted by (name, labels).
    pub metrics: Vec<MetricSnapshot>,
}

fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn label_block(labels: &Labels, extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", escape(v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

impl Snapshot {
    /// Renders the snapshot in Prometheus text exposition format
    /// (version 0.0.4). Histograms become cumulative
    /// `_bucket{le=…}` series plus `_sum` and `_count`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_name: Option<&str> = None;
        for m in &self.metrics {
            if last_name != Some(m.name.as_str()) {
                let _ = writeln!(out, "# HELP {} {}", m.name, m.help);
                let _ = writeln!(
                    out,
                    "# TYPE {} {}",
                    m.name,
                    m.value.kind().prometheus_type()
                );
                last_name = Some(m.name.as_str());
            }
            match &m.value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "{}{} {}", m.name, label_block(&m.labels, None), v);
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "{}{} {}", m.name, label_block(&m.labels, None), v);
                }
                MetricValue::FloatCounter(v) => {
                    let _ = writeln!(
                        out,
                        "{}{} {}",
                        m.name,
                        label_block(&m.labels, None),
                        fmt_f64(*v)
                    );
                }
                MetricValue::Histogram(h) => {
                    let mut cumulative = 0u64;
                    for (i, &b) in h.buckets.iter().enumerate().take(HISTOGRAM_BUCKETS) {
                        cumulative += b;
                        // Skip interior empty buckets to keep output
                        // compact, but always emit the first, any
                        // occupied, and the +Inf bucket.
                        if b == 0 && i != 0 && i != HISTOGRAM_BUCKETS - 1 {
                            continue;
                        }
                        let le = if i >= 64 {
                            "+Inf".to_string()
                        } else {
                            bucket_upper_bound(i).to_string()
                        };
                        // OpenMetrics-style exemplar, appended only when
                        // a traced observation landed in this bucket —
                        // untraced output stays byte-identical.
                        let exemplar = h
                            .exemplars
                            .iter()
                            .find(|e| e.bucket == i)
                            .map(|e| {
                                format!(
                                    " # {{trace_id=\"{:016x}\"}} {}",
                                    e.trace_id,
                                    fmt_f64(e.value as f64)
                                )
                            })
                            .unwrap_or_default();
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {}{}",
                            m.name,
                            label_block(&m.labels, Some(("le", &le))),
                            cumulative,
                            exemplar
                        );
                    }
                    // The loop above always emits bucket 64 (the skip
                    // guard exempts the last index), so `+Inf` is
                    // present exactly once even with no observation
                    // there — no synthesised duplicate line.
                    let _ = writeln!(
                        out,
                        "{}_sum{} {}",
                        m.name,
                        label_block(&m.labels, None),
                        h.sum
                    );
                    let _ = writeln!(
                        out,
                        "{}_count{} {}",
                        m.name,
                        label_block(&m.labels, None),
                        h.count
                    );
                }
            }
        }
        out
    }

    /// Renders the snapshot as stable JSON: metrics sorted by
    /// (name, labels). The layout is part of the crate's public contract
    /// (golden-tested).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"metrics\": [");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            let _ = write!(out, "\"name\": \"{}\", ", escape(&m.name));
            let _ = write!(out, "\"kind\": \"{}\", ", m.value.kind().json_name());
            out.push_str("\"labels\": {");
            for (j, (k, v)) in m.labels.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "\"{}\": \"{}\"", escape(k), escape(v));
            }
            out.push_str("}, ");
            match &m.value {
                MetricValue::Counter(v) => {
                    let _ = write!(out, "\"value\": {v}");
                }
                MetricValue::Gauge(v) => {
                    let _ = write!(out, "\"value\": {v}");
                }
                MetricValue::FloatCounter(v) => {
                    let _ = write!(out, "\"value\": {}", fmt_f64(*v));
                }
                MetricValue::Histogram(h) => {
                    let _ = write!(
                        out,
                        "\"count\": {}, \"sum\": {}, \"buckets\": [",
                        h.count, h.sum
                    );
                    let mut first = true;
                    for (i, &b) in h.buckets.iter().enumerate() {
                        if b == 0 {
                            continue;
                        }
                        if !first {
                            out.push_str(", ");
                        }
                        first = false;
                        let le = if i >= 64 {
                            "\"+Inf\"".to_string()
                        } else {
                            format!("\"{}\"", bucket_upper_bound(i))
                        };
                        let exemplar = h
                            .exemplars
                            .iter()
                            .find(|e| e.bucket == i)
                            .map(|e| {
                                format!(
                                    ", \"exemplar\": {{\"trace_id\": \"{:016x}\", \"value\": {}}}",
                                    e.trace_id, e.value
                                )
                            })
                            .unwrap_or_default();
                        let _ = write!(out, "{{\"le\": {le}, \"count\": {b}{exemplar}}}");
                    }
                    out.push(']');
                }
            }
            out.push('}');
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Finds a metric series by name and exact labels.
    pub fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricSnapshot> {
        self.metrics.iter().find(|m| {
            m.name == name
                && m.labels.len() == labels.len()
                && m.labels
                    .iter()
                    .zip(labels)
                    .all(|((k, v), (lk, lv))| k == lk && v == lv)
        })
    }

    /// Sum of all counter series with `name` (any labels).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.metrics
            .iter()
            .filter(|m| m.name == name)
            .map(|m| match &m.value {
                MetricValue::Counter(v) => *v,
                _ => 0,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use crate::registry::labels;
    use crate::Registry;

    fn sample_registry() -> Registry {
        let r = Registry::new();
        r.counter("fabp_hits_total", "Hits emitted").add(42);
        r.counter_with(
            "fabp_axi_bytes_read_total",
            "Bytes fetched per channel",
            labels(&[("channel", "0")]),
        )
        .add(4096);
        r.gauge("fabp_queue_depth", "Worker queue depth").set(-2);
        r.float_counter("fabp_host_stage_seconds", "Modelled stage seconds")
            .add(0.5);
        let h = r.histogram("fabp_occupancy", "Pipeline occupancy");
        h.observe(0);
        h.observe(1);
        h.observe(5);
        h.observe(u64::MAX);
        r
    }

    #[test]
    fn prometheus_exposition_shape() {
        let text = sample_registry().snapshot().to_prometheus();
        assert!(text.contains("# HELP fabp_hits_total Hits emitted"));
        assert!(text.contains("# TYPE fabp_hits_total counter"));
        assert!(text.contains("fabp_hits_total 42"));
        assert!(text.contains("fabp_axi_bytes_read_total{channel=\"0\"} 4096"));
        assert!(text.contains("# TYPE fabp_queue_depth gauge"));
        assert!(text.contains("fabp_queue_depth -2"));
        assert!(text.contains("fabp_host_stage_seconds 0.5"));
        assert!(text.contains("# TYPE fabp_occupancy histogram"));
        assert!(text.contains("fabp_occupancy_bucket{le=\"0\"} 1"));
        assert!(text.contains("fabp_occupancy_bucket{le=\"1\"} 2"));
        assert!(text.contains("fabp_occupancy_bucket{le=\"7\"} 3"));
        assert!(text.contains("fabp_occupancy_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("fabp_occupancy_count 4"));
        // Cumulative buckets never decrease.
        let mut last = 0u64;
        for line in text
            .lines()
            .filter(|l| l.starts_with("fabp_occupancy_bucket"))
        {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "cumulative violated: {line}");
            last = v;
        }
    }

    #[test]
    fn json_is_stable_and_parsable_shape() {
        let a = sample_registry().snapshot().to_json();
        let b = sample_registry().snapshot().to_json();
        assert_eq!(a, b, "JSON export must be deterministic");
        assert!(a.contains("\"name\": \"fabp_hits_total\""));
        assert!(a.contains("\"kind\": \"histogram\""));
        assert!(a.contains("\"le\": \"+Inf\", \"count\": 1"));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        assert_eq!(a.matches('[').count(), a.matches(']').count());
    }

    #[test]
    fn find_and_counter_total() {
        let r = Registry::new();
        r.counter_with("t_total", "t", labels(&[("ch", "0")]))
            .add(2);
        r.counter_with("t_total", "t", labels(&[("ch", "1")]))
            .add(3);
        let snap = r.snapshot();
        assert!(snap.find("t_total", &[("ch", "0")]).is_some());
        assert!(snap.find("t_total", &[("ch", "9")]).is_none());
        assert_eq!(snap.counter_total("t_total"), 5);
    }
}
