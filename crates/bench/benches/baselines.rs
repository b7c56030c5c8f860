//! Baseline algorithm micro-benchmarks: Smith–Waterman kernels and the
//! TBLASTN pipeline stages.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fabp_baselines::sw::{sw_banded_score, sw_protein, GapPenalties};
use fabp_bio::blosum::blosum62;
use fabp_bio::generate::random_protein;
use fabp_core::kmer::WordIndex;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_smith_waterman(c: &mut Criterion) {
    let mut group = c.benchmark_group("smith_waterman");
    group.sample_size(20);
    let mut rng = StdRng::seed_from_u64(0xBA5E);
    for &n in &[64usize, 128, 256] {
        let a = random_protein(n, &mut rng);
        let b = random_protein(n, &mut rng);
        group.throughput(Throughput::Elements((n * n) as u64));
        group.bench_with_input(BenchmarkId::new("full", n), &n, |bencher, _| {
            bencher.iter(|| sw_protein(a.as_slice(), b.as_slice(), GapPenalties::default(), false))
        });
        group.bench_with_input(BenchmarkId::new("banded16", n), &n, |bencher, _| {
            bencher.iter(|| {
                sw_banded_score(
                    a.as_slice(),
                    b.as_slice(),
                    blosum62,
                    GapPenalties::default(),
                    0,
                    16,
                )
            })
        });
    }
    group.finish();
}

fn bench_word_index(c: &mut Criterion) {
    let mut group = c.benchmark_group("word_index_build");
    group.sample_size(20);
    let mut rng = StdRng::seed_from_u64(0x1DE);
    for &n in &[50usize, 250] {
        let query = random_protein(n, &mut rng);
        group.bench_with_input(BenchmarkId::new("t11", n), &query, |b, q| {
            b.iter(|| WordIndex::build(q.as_slice(), 3, 11))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_smith_waterman, bench_word_index);
criterion_main!(benches);
