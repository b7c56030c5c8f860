//! Overhead of telemetry primitives, enabled and disabled.
//!
//! The contract the instrumentation relies on: a handle obtained from
//! [`Registry::disabled`] must cost ~one predictable branch per
//! operation (< 5 ns), so hot loops can keep their counters
//! unconditionally. Each benchmark performs `OPS` operations per
//! iteration; divide the reported per-iteration time by `OPS` (or read
//! the Melem/s column: 1000 Melem/s = 1 ns/op).
//!
//! ```text
//! cargo bench -p fabp-telemetry --bench telemetry_overhead
//! ```

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use fabp_telemetry::{Registry, TraceContext, TraceEvent};

const OPS: u64 = 1_000;

fn bench_counters(c: &mut Criterion) {
    let mut group = c.benchmark_group("counter");
    group.throughput(Throughput::Elements(OPS));

    let disabled = Registry::disabled();
    let d_counter = disabled.counter("bench_total", "disabled counter");
    group.bench_function("disabled_inc", |b| {
        b.iter(|| {
            for _ in 0..OPS {
                black_box(&d_counter).inc();
            }
        })
    });

    let live = Registry::new();
    let l_counter = live.counter("bench_total", "live counter");
    group.bench_function("enabled_inc", |b| {
        b.iter(|| {
            for _ in 0..OPS {
                black_box(&l_counter).inc();
            }
        })
    });
    group.finish();
}

fn bench_histograms(c: &mut Criterion) {
    let mut group = c.benchmark_group("histogram");
    group.throughput(Throughput::Elements(OPS));

    let disabled = Registry::disabled();
    let d_hist = disabled.histogram("bench_hist", "disabled histogram");
    group.bench_function("disabled_observe", |b| {
        b.iter(|| {
            for i in 0..OPS {
                black_box(&d_hist).observe(i);
            }
        })
    });

    let live = Registry::new();
    let l_hist = live.histogram("bench_hist", "live histogram");
    group.bench_function("enabled_observe", |b| {
        b.iter(|| {
            for i in 0..OPS {
                black_box(&l_hist).observe(i);
            }
        })
    });
    group.finish();
}

fn bench_trace(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace");
    group.throughput(Throughput::Elements(OPS));

    // Disabled-tracing hot path: a live recorder asked to record under
    // a disabled context. This is the cost every traced call site pays
    // when tracing is off — budget ≤ 2 ns/op, gated by bench_telemetry.
    let live = Registry::new();
    let flight = live.flight_recorder();
    let off = TraceContext::none();
    group.bench_function("disabled_record", |b| {
        b.iter(|| {
            for i in 0..OPS {
                black_box(&flight).record(TraceEvent::new(off, "bench", i as f64, 1.0));
            }
        })
    });

    // Fully enabled: claim a slot, seqlock write, name byte-pack.
    let ctx = TraceContext::mint(0xBE_BC, 1);
    group.bench_function("enabled_record", |b| {
        b.iter(|| {
            for i in 0..OPS {
                black_box(&flight).record(TraceEvent::new(ctx, "bench", i as f64, 1.0));
            }
        })
    });

    // Traced histogram observation vs the plain one.
    let hist = live.histogram("bench_traced_hist", "exemplar path");
    group.bench_function("observe_traced", |b| {
        b.iter(|| {
            for i in 0..OPS {
                black_box(&hist).observe_traced(i, ctx.trace_id);
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_counters, bench_histograms, bench_trace);
criterion_main!(benches);
