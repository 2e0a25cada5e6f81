//! Fault-tolerant job streams, end to end: seeded fault schedules must
//! replay bit for bit, a testbed that dies entirely must fail every
//! job *and terminate*, retry backoff must stay monotone and bounded,
//! and the aware regime with rescheduling must complete strictly more
//! of the same stream than the blind single-attempt baseline.

use apples_grid::workload::{
    ArrivalProcess, JobKind, JobMix, JobSpec, RetryPolicy, WorkloadConfig,
};
use apples_grid::{
    run_regime_jobs_with_sink, FaultInjection, GridConfig, GridService, Regime, SchedRegime,
};
use metasim::simtrace::NoopSink;
use metasim::{FaultModel, FaultSpec, HostFault, HostId, SimTime};
use proptest::prelude::*;

fn s(x: f64) -> SimTime {
    SimTime::from_secs_f64(x)
}

/// Every host crashes at `at`; `recover` is shared by all of them.
fn all_hosts_down(at: f64, recover: Option<f64>) -> FaultSpec {
    FaultSpec {
        host_faults: (0..8)
            .map(|h| HostFault {
                host: HostId(h),
                at: s(at),
                recover: recover.map(s),
            })
            .collect(),
        link_faults: vec![],
    }
}

/// Same seed + same fault model → bit-identical records and fleet
/// metrics, retries and reschedules included.
#[test]
fn seeded_fault_stream_replays_bit_identically() {
    let cfg = GridConfig {
        faults: FaultInjection::Random(FaultModel {
            host_crashes_per_hour: 3.0,
            ..FaultModel::default()
        }),
        ..GridConfig::default()
    };
    // Kind-diverse but light mix: under faults the aware regime runs
    // every Jacobi job phase-wise, so the default mix's 1500-iteration
    // solves would make this quick determinism check take minutes.
    let mix = JobMix {
        entries: vec![
            (
                JobKind::Jacobi {
                    n: 800,
                    iterations: 60,
                },
                3.0,
            ),
            (
                JobKind::Jacobi {
                    n: 1200,
                    iterations: 240,
                },
                1.0,
            ),
            (JobKind::ReactPipeline { units: 30 }, 1.0),
            (JobKind::NileFarm { events: 20_000 }, 1.0),
        ],
    };
    let workload = WorkloadConfig {
        arrivals: ArrivalProcess::Poisson { rate_hz: 0.02 },
        mix,
        duration: s(150.0),
        seed: 11,
        retry: RetryPolicy::with_attempts(3),
    };
    let svc = GridService::new(cfg).expect("valid config");
    let a = svc
        .run(SchedRegime::Selfish, &workload, &mut NoopSink)
        .expect("first faulted stream");
    let b = svc
        .run(SchedRegime::Selfish, &workload, &mut NoopSink)
        .expect("second faulted stream");
    assert!(a.fleet.jobs > 0, "stream should admit jobs");
    assert_eq!(a.records, b.records);
    assert_eq!(a.fleet, b.fleet);
}

/// When the whole testbed dies permanently mid-stream, every job that
/// needs it afterwards exhausts its retries and is *recorded* failed —
/// the stream terminates instead of hanging or dropping jobs.
#[test]
fn a_fully_dead_testbed_fails_every_job_and_terminates() {
    let jobs: Vec<JobSpec> = (0..3)
        .map(|i| JobSpec {
            id: i,
            submit: s(120.0 + 60.0 * i as f64),
            kind: JobKind::Jacobi {
                n: 800,
                iterations: 150,
            },
        })
        .collect();
    let cfg = GridConfig {
        // Kill everything before the first submission, forever.
        faults: FaultInjection::Spec(all_hosts_down(650.0, None)),
        ..GridConfig::default()
    };
    for regime in [Regime::Aware, Regime::Blind] {
        let out = run_regime_jobs_with_sink(
            &GridConfig {
                regime,
                ..cfg.clone()
            },
            SchedRegime::Selfish,
            &jobs,
            s(300.0),
            RetryPolicy::with_attempts(3),
            &mut NoopSink,
        )
        .expect("stream must terminate, not hang");
        assert_eq!(out.records.len(), jobs.len(), "{regime:?} dropped jobs");
        for r in &out.records {
            assert!(!r.completed, "{regime:?} job {} on a dead fleet", r.id);
            assert_eq!(r.exec_seconds, 0.0);
        }
        assert_eq!(out.fleet.jobs_failed, jobs.len());
        assert_eq!(out.fleet.jobs_completed, 0);
        assert_eq!(out.fleet.goodput, 0.0);
    }
}

/// Aware agents that detect revocations, back off and reschedule
/// complete strictly more of the same stream than blind single-attempt
/// agents facing the identical mid-stream fault schedule.
#[test]
fn aware_rescheduling_completes_more_than_blind_under_faults() {
    let jobs: Vec<JobSpec> = (0..2)
        .map(|i| JobSpec {
            id: i,
            submit: s(30.0 * i as f64),
            kind: JobKind::Jacobi {
                n: 800,
                iterations: 80,
            },
        })
        .collect();
    // The fleet goes dark between the two submissions (the second job
    // can only start inside the outage) and comes back before the
    // exponential backoff budget runs out: four attempts from t = 630
    // reach to roughly t = 840.
    let faults = all_hosts_down(615.0, Some(800.0));
    let duration = s(120.0);

    let blind = run_regime_jobs_with_sink(
        &GridConfig {
            regime: Regime::Blind,
            faults: FaultInjection::Spec(faults.clone()),
            ..GridConfig::default()
        },
        SchedRegime::Selfish,
        &jobs,
        duration,
        RetryPolicy::default(),
        &mut NoopSink,
    )
    .expect("blind stream");
    let aware = run_regime_jobs_with_sink(
        &GridConfig {
            regime: Regime::Aware,
            faults: FaultInjection::Spec(faults),
            ..GridConfig::default()
        },
        SchedRegime::Selfish,
        &jobs,
        duration,
        RetryPolicy::with_attempts(4),
        &mut NoopSink,
    )
    .expect("aware stream");

    assert_eq!(aware.records.len(), blind.records.len());
    assert!(
        aware.fleet.jobs_completed > blind.fleet.jobs_completed,
        "aware {}/{} vs blind {}/{} completed",
        aware.fleet.jobs_completed,
        aware.fleet.jobs,
        blind.fleet.jobs_completed,
        blind.fleet.jobs,
    );
    assert!(aware.fleet.goodput > blind.fleet.goodput);
    assert!(
        aware.fleet.total_attempts > aware.fleet.jobs_completed as u64
            || aware.fleet.jobs_rescheduled > 0,
        "recovery must have done real work: {:?}",
        aware.fleet,
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Exponential backoff never shrinks as attempts accumulate and
    /// never exceeds the cap, whatever the policy knobs.
    #[test]
    fn retry_backoff_is_monotone_and_bounded(
        max_attempts in 1u32..32,
        base_secs in 0.0f64..900.0,
        factor in 0.0f64..16.0,
    ) {
        let policy = RetryPolicy {
            max_attempts,
            base_backoff: SimTime::from_secs_f64(base_secs),
            factor,
        };
        prop_assert!(policy.validate().is_ok());
        let mut prev = SimTime::ZERO;
        for attempt in 1..=96u32 {
            let b = policy.backoff(attempt);
            prop_assert!(b >= prev, "backoff shrank at attempt {attempt}");
            prop_assert!(b <= RetryPolicy::MAX_BACKOFF);
            prev = b;
        }
        prop_assert_eq!(policy.backoff(10_000), policy.backoff(20_000));
    }
}
