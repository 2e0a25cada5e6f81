//! Criterion bench for the Figure 6 pipeline: one memory-aware trial
//! below and above the 3700×3700 spill point.

use apples_bench::fig6::run_trial;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_fig6(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig6_memory_trial");
    g.sample_size(10);
    for &n in &[3000usize, 4000] {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| black_box(run_trial(black_box(n), 10, 1996).unwrap()));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_fig6);
criterion_main!(benches);
