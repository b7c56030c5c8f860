//! Gate-level model micro-benchmarks: netlist simulation speed of the
//! comparator cell, the full alignment instance, and the streaming
//! software scanner it is verified against.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fabp_bench::BenchWorkload;
use fabp_bio::backtranslate::BackTranslatedQuery;
use fabp_bio::seq::PackedSeq;
use fabp_core::bitparallel::BitParallelEngine;
use fabp_core::software::SoftwareEngine;
use fabp_core::streaming::StreamingAligner;
use fabp_encoding::encoder::EncodedQuery;
use fabp_encoding::fused::FusedScorer;
use fabp_fpga::comparator::ComparatorCell;
use fabp_fpga::instance::AlignmentInstance;

fn bench_comparator_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("comparator_paths");
    let workload = BenchWorkload::generate(25, 4_096, 0x6A7E);
    let query = EncodedQuery::from_protein(&workload.query);
    let bt = BackTranslatedQuery::from_protein(&workload.query);
    let bases = workload.reference.as_slice();
    let windows = bases.len() - query.len() + 1;
    group.throughput(Throughput::Elements((windows * query.len()) as u64));

    let cell = ComparatorCell::new();
    group.bench_function("lut_cell", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for k in 0..windows {
                total += cell.score_window(query.instructions(), &bases[k..]);
            }
            total
        })
    });

    let fused = FusedScorer::build(&bt);
    group.bench_function("fused_tables", |b| {
        b.iter(|| {
            let mut total = 0u32;
            for k in 0..windows {
                total += fused.score_window(&bases[k..]);
            }
            total
        })
    });

    let mut instance = AlignmentInstance::build(&query, 40);
    group.bench_function("gate_level_instance", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            // The netlist is ~100x slower; sample every 64th window.
            for k in (0..windows).step_by(64) {
                let (_, hit) = instance.eval(&bases[k..]);
                hits += usize::from(hit);
            }
            hits
        })
    });
    group.finish();
}

fn bench_streaming(c: &mut Criterion) {
    let mut group = c.benchmark_group("streaming_scanner");
    group.sample_size(20);
    let workload = BenchWorkload::generate(30, 1 << 18, 0x57E);
    let query = EncodedQuery::from_protein(&workload.query);
    let threshold = (query.len() as u32 * 9).div_ceil(10);
    group.throughput(Throughput::Bytes((workload.reference.len() / 4) as u64));
    for chunk in [4_096usize, 65_536] {
        group.bench_with_input(BenchmarkId::from_parameter(chunk), &chunk, |b, &chunk| {
            b.iter(|| {
                let mut scanner = StreamingAligner::new(&query, threshold);
                let mut hits = 0usize;
                for piece in workload.reference.as_slice().chunks(chunk) {
                    hits += scanner.feed(piece).len();
                }
                hits
            })
        });
    }
    group.finish();
}

fn bench_engine_shootout(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_shootout");
    group.sample_size(15);
    let workload = BenchWorkload::generate(50, 1 << 19, 0x5007);
    let query = EncodedQuery::from_protein(&workload.query);
    let threshold = (query.len() as u32 * 9).div_ceil(10);
    let bases = workload.reference.as_slice();
    group.throughput(Throughput::Elements(bases.len() as u64));

    let scalar = SoftwareEngine::new(&query);
    group.bench_function("scalar_early_exit", |b| {
        b.iter(|| scalar.search(bases, threshold))
    });
    let parallel = BitParallelEngine::new(&query).unwrap();
    let packed = PackedSeq::from_rna(&workload.reference);
    group.bench_function("bit_parallel", |b| {
        b.iter(|| parallel.search(&packed, 0..packed.len(), threshold))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_comparator_paths,
    bench_streaming,
    bench_engine_shootout
);
criterion_main!(benches);
