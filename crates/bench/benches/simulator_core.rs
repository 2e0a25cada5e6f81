//! Criterion bench for the simulator substrate itself: SPMD iteration
//! throughput and the fluid-flow transfer simulator under contention.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use metasim::exec::{simulate_spmd, simulate_workqueue, SpmdJob, SpmdPlacement, WorkQueueJob};
use metasim::host::HostSpec;
use metasim::load::LoadModel;
use metasim::net::{simulate_transfers, LinkSpec, TopologyBuilder, TransferReq};
use metasim::simtrace::NoopSink;
use metasim::{HostId, SimTime, Topology};
use std::hint::black_box;

fn ring_topo(hosts: usize) -> Topology {
    let mut b = TopologyBuilder::new();
    let seg = b.add_segment(LinkSpec::shared(
        "seg",
        10.0,
        SimTime::from_millis(1),
        LoadModel::RandomWalk {
            start: 0.7,
            step: 0.05,
            interval: SimTime::from_secs(5),
            floor: 0.3,
            ceil: 1.0,
        },
    ));
    for i in 0..hosts {
        b.add_host(HostSpec::workstation(
            &format!("h{i}"),
            20.0,
            256.0,
            seg,
            LoadModel::RandomWalk {
                start: 0.6,
                step: 0.05,
                interval: SimTime::from_secs(5),
                floor: 0.2,
                ceil: 1.0,
            },
        ));
    }
    b.instantiate(SimTime::from_secs(100_000), 0).expect("topo")
}

fn bench_spmd(c: &mut Criterion) {
    let mut g = c.benchmark_group("spmd_ring_100_iterations");
    g.sample_size(10);
    for &k in &[4usize, 8, 16] {
        let topo = ring_topo(k);
        let job = SpmdJob {
            placements: (0..k)
                .map(|w| SpmdPlacement {
                    host: HostId(w),
                    work_mflop: 5.0,
                    resident_mb: 8.0,
                    sends: vec![((w + 1) % k, 0.05)],
                })
                .collect(),
            iterations: 100,
            start: SimTime::ZERO,
        };
        g.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| {
                black_box(simulate_spmd(&topo, black_box(&job), &mut NoopSink).expect("run"))
            });
        });
    }
    g.finish();
}

fn bench_flows(c: &mut Criterion) {
    let mut g = c.benchmark_group("fluid_flow_transfers");
    g.sample_size(10);
    for &flows in &[10usize, 100, 500] {
        let topo = ring_topo(8);
        let reqs: Vec<TransferReq> = (0..flows)
            .map(|i| TransferReq {
                from: HostId(i % 8),
                to: HostId((i + 3) % 8),
                mb: 5.0,
                start: SimTime::from_millis((i as u64) * 37),
                tag: i,
            })
            .collect();
        g.bench_with_input(BenchmarkId::from_parameter(flows), &flows, |b, _| {
            b.iter(|| {
                black_box(
                    simulate_transfers(&topo, black_box(&reqs), &mut NoopSink)
                        .expect("flows")
                        .0,
                )
            });
        });
    }
    g.finish();
}

fn bench_workqueue(c: &mut Criterion) {
    let mut g = c.benchmark_group("workqueue_chunks");
    g.sample_size(10);
    let topo = ring_topo(8);
    for &chunks in &[100usize, 1000] {
        let job = WorkQueueJob {
            master: HostId(0),
            workers: (1..8).map(HostId).collect(),
            n_chunks: chunks,
            mflop_per_chunk: 10.0,
            mb_per_chunk: 0.01,
            result_mb_per_chunk: 0.001,
            resident_mb: 1.0,
            start: SimTime::ZERO,
        };
        g.bench_with_input(BenchmarkId::from_parameter(chunks), &chunks, |b, _| {
            b.iter(|| black_box(simulate_workqueue(&topo, black_box(&job)).expect("run")));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_spmd, bench_flows, bench_workqueue);
criterion_main!(benches);
