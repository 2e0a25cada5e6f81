//! Integration tests for the apples-grid job-stream service: the same
//! seed and workload configuration must reproduce the fleet bit for
//! bit, and the aware information regime must actually observe the
//! load earlier tenants impose.

use apples_grid::workload::RetryPolicy;
use apples_grid::workload::{ArrivalProcess, JobKind, JobMix, JobSpec, WorkloadConfig};
use apples_grid::{run_regime_jobs_with_sink, GridConfig, GridService, Regime, SchedRegime};
use metasim::simtrace::NoopSink;
use metasim::SimTime;

fn s(x: f64) -> SimTime {
    SimTime::from_secs_f64(x)
}

/// Short stream for the quick tier-1 suite: 300 s of the default mix
/// covers multiple jobs, both regimes and contention at a fraction of
/// the original 1800 s window's cost. The many-job population lives in
/// `long_soak_stream_stays_deterministic`, which trades job size for
/// job count.
fn stream_workload() -> WorkloadConfig {
    WorkloadConfig {
        arrivals: ArrivalProcess::Poisson { rate_hz: 0.02 },
        mix: JobMix::default_mix(),
        duration: s(300.0),
        seed: 7,
        ..WorkloadConfig::default()
    }
}

/// Same seed + same workload config → bit-identical per-job records
/// and fleet metrics across two independent runs.
#[test]
fn same_seed_and_workload_reproduce_fleet_metrics_exactly() {
    let cfg = GridConfig {
        seed: 7,
        ..GridConfig::default()
    };
    let workload = stream_workload();
    let svc = GridService::new(cfg).expect("valid config");
    let a = svc
        .run(SchedRegime::Selfish, &workload, &mut NoopSink)
        .expect("first run");
    let b = svc
        .run(SchedRegime::Selfish, &workload, &mut NoopSink)
        .expect("second run");
    assert!(a.fleet.jobs > 0, "stream should admit at least one job");
    assert_eq!(a.records, b.records);
    assert_eq!(a.fleet, b.fleet);
}

/// The two information regimes run the same admitted job list to
/// completion; only the forecasts the agents decide from differ.
#[test]
fn both_regimes_complete_every_admitted_job() {
    let workload = stream_workload();
    let n_submitted = workload.realize().len();
    for regime in [Regime::Aware, Regime::Blind] {
        let cfg = GridConfig {
            seed: 7,
            regime,
            ..GridConfig::default()
        };
        let out = GridService::new(cfg)
            .and_then(|svc| svc.run(SchedRegime::Selfish, &workload, &mut NoopSink))
            .expect("stream");
        assert_eq!(out.records.len(), n_submitted, "{regime:?} lost jobs");
        for r in &out.records {
            assert!(r.exec_seconds > 0.0);
            assert!(r.wait_seconds >= 0.0);
            assert!(r.slowdown >= 1.0 - 1e-9);
            assert!(!r.hosts.is_empty());
        }
    }
}

/// A later tenant's NWS forecasts reflect earlier tenants' imposed
/// load: with three long solves parked on the fast hosts, an aware
/// probe schedules around them and finishes no slower than a blind
/// probe that plans from a pristine pre-stream snapshot.
#[test]
fn aware_probe_observes_earlier_tenants_load() {
    let jobs: Vec<JobSpec> = [6000u32, 6000, 6000, 400]
        .iter()
        .enumerate()
        .map(|(i, &iterations)| JobSpec {
            id: i,
            submit: s(60.0 * i as f64),
            kind: JobKind::Jacobi {
                n: 1200,
                iterations: iterations as usize,
            },
        })
        .collect();
    let duration = s(400.0);
    let mut outcomes = Vec::new();
    for regime in [Regime::Aware, Regime::Blind] {
        let cfg = GridConfig {
            seed: 1996,
            regime,
            ..GridConfig::default()
        };
        outcomes.push(
            run_regime_jobs_with_sink(
                &cfg,
                SchedRegime::Selfish,
                &jobs,
                duration,
                RetryPolicy::default(),
                &mut NoopSink,
            )
            .expect("probe stream"),
        );
    }
    let (aware, blind) = (&outcomes[0], &outcomes[1]);
    let aware_probe = aware.records.last().expect("probe");
    let blind_probe = blind.records.last().expect("probe");
    // The occupied fast hosts look pristine to the blind probe, so it
    // piles on top of them; the aware probe routes around.
    assert_ne!(aware_probe.hosts, blind_probe.hosts);
    assert!(
        aware_probe.exec_seconds <= blind_probe.exec_seconds,
        "aware probe ({:.1}s) should not lose to blind ({:.1}s)",
        aware_probe.exec_seconds,
        blind_probe.exec_seconds
    );
}

/// The soak stream: what the original 1800 s / default-mix version
/// (≈ 61 s of wall clock, hidden behind `#[ignore]`) actually tested
/// was *many* jobs flowing through one service instance — enough
/// arrivals that queues form, tenants overlap and the RNG streams are
/// consumed far past the first few draws. A 10× arrival rate over a
/// downsized job mix admits the same ≥ 20-job population in a couple
/// of wall-clock seconds, so the test now runs in the tier-1 suite.
#[test]
fn long_soak_stream_stays_deterministic() {
    let mix = JobMix {
        entries: vec![
            (
                JobKind::Jacobi {
                    n: 200,
                    iterations: 10,
                },
                4.0,
            ),
            (
                JobKind::Jacobi {
                    n: 300,
                    iterations: 30,
                },
                2.0,
            ),
            (JobKind::ReactPipeline { units: 4 }, 1.0),
            (JobKind::NileFarm { events: 500 }, 1.0),
        ],
    };
    let workload = WorkloadConfig {
        arrivals: ArrivalProcess::Poisson { rate_hz: 0.5 },
        mix,
        duration: s(60.0),
        seed: 7,
        ..WorkloadConfig::default()
    };
    let cfg = GridConfig {
        seed: 7,
        ..GridConfig::default()
    };
    let svc = GridService::new(cfg).expect("valid config");
    let a = svc
        .run(SchedRegime::Selfish, &workload, &mut NoopSink)
        .expect("first soak");
    let b = svc
        .run(SchedRegime::Selfish, &workload, &mut NoopSink)
        .expect("second soak");
    assert!(a.fleet.jobs >= 20, "soak should admit a real stream");
    assert_eq!(a.records, b.records);
    assert_eq!(a.fleet, b.fleet);
}
