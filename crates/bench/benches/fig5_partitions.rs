//! Criterion bench for the Figure 5 pipeline: times one back-to-back
//! partition-comparison trial per strategy at a representative size.

use apples_bench::fig5::run_trial;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use metasim::testbed::LoadProfile;
use std::hint::black_box;

fn bench_fig5(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig5_partition_trial");
    g.sample_size(10);
    for &n in &[1000usize, 2000] {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| black_box(run_trial(black_box(n), 20, 1996, LoadProfile::Moderate).unwrap()));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_fig5);
criterion_main!(benches);
