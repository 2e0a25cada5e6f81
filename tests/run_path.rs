//! One way to run a job stream: the validated `GridService::run` and
//! the free `run_regime_jobs_with_sink` are the same run path. For
//! every scheduling regime, on the Figure-2 testbed with a host crash
//! mid-stream, the two entry points must agree record for record,
//! attaching a trace sink must not perturb the outcome, and the service
//! must refuse a workload that cannot fit in memory before running it.

use apples_grid::workload::{ArrivalProcess, JobKind, JobMix, RetryPolicy, WorkloadConfig};
use apples_grid::{
    run_regime_jobs_with_sink, FaultInjection, GridConfig, GridError, GridService, SchedRegime,
};
use metasim::simtrace::{NoopSink, VecSink};
use metasim::{FaultSpec, HostFault, HostId, SimTime};

/// The Figure-2 testbed with host 0 down from t = 900 s to 2 500 s,
/// which falls inside the submission window (warm-up ends at 600 s).
fn crashing_grid() -> GridConfig {
    GridConfig {
        faults: FaultInjection::Spec(FaultSpec {
            host_faults: vec![HostFault {
                host: HostId(0),
                at: SimTime::from_secs(900),
                recover: Some(SimTime::from_secs(2500)),
            }],
            link_faults: Vec::new(),
        }),
        ..GridConfig::default()
    }
}

/// A light kind-diverse stream: eight jobs, one every 250 s, with a
/// retry budget so crashed placements come back.
fn workload() -> WorkloadConfig {
    WorkloadConfig {
        arrivals: ArrivalProcess::Uniform {
            gap: SimTime::from_secs(250),
        },
        mix: JobMix {
            entries: vec![
                (
                    JobKind::Jacobi {
                        n: 800,
                        iterations: 60,
                    },
                    2.0,
                ),
                (JobKind::ReactPipeline { units: 30 }, 1.0),
                (JobKind::NileFarm { events: 20_000 }, 1.0),
            ],
        },
        duration: SimTime::from_secs(2000),
        seed: 5,
        retry: RetryPolicy::with_attempts(3),
    }
}

#[test]
fn service_and_free_entry_point_agree_in_every_regime() {
    let cfg = crashing_grid();
    let w = workload();
    let svc = GridService::new(cfg.clone()).expect("valid config");
    for regime in SchedRegime::ALL {
        let validated = svc.run(regime, &w, &mut NoopSink).expect("validated run");
        let free = run_regime_jobs_with_sink(
            &cfg,
            regime,
            &w.realize(),
            w.duration,
            w.retry,
            &mut NoopSink,
        )
        .expect("free run");
        assert!(!validated.records.is_empty(), "{regime}: no jobs ran");
        assert_eq!(validated, free, "{regime}: entry points disagree");
    }
}

#[test]
fn attaching_a_sink_leaves_every_regime_unchanged() {
    let svc = GridService::new(crashing_grid()).expect("valid config");
    let w = workload();
    for regime in SchedRegime::ALL {
        let plain = svc.run(regime, &w, &mut NoopSink).expect("plain run");
        let mut sink = VecSink::new();
        let traced = svc.run(regime, &w, &mut sink).expect("traced run");
        assert_eq!(plain, traced, "{regime}: tracing perturbed the run");
        assert!(
            sink.events
                .iter()
                .any(|e| e.kind() == "host_fault_injected"),
            "{regime}: the crash never reached the live testbed"
        );
        let completed = sink
            .events
            .iter()
            .filter(|e| e.kind() == "job_completed")
            .count();
        assert_eq!(
            completed, traced.fleet.jobs_completed,
            "{regime}: trace and outcome disagree on completions"
        );
    }
}

#[test]
fn service_refuses_a_memory_overcommitted_workload_in_every_regime() {
    let svc = GridService::new(crashing_grid()).expect("valid config");
    // A 30000x30000 Jacobi grid is ~14 GB resident; even spread across
    // every Figure-2 host it cannot fit.
    let w = WorkloadConfig {
        mix: JobMix::only(JobKind::Jacobi {
            n: 30_000,
            iterations: 10,
        }),
        ..workload()
    };
    for regime in SchedRegime::ALL {
        let mut sink = VecSink::new();
        let err = svc.run(regime, &w, &mut sink).unwrap_err();
        match err {
            GridError::InvalidConfig(msg) => {
                assert!(msg.contains("memory-overcommit"), "{regime}: {msg}")
            }
            other => panic!("{regime}: expected InvalidConfig, got {other:?}"),
        }
        assert!(
            sink.events.is_empty(),
            "{regime}: refused run emitted events"
        );
    }
}
