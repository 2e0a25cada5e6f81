//! One way to run a job stream: the validated `GridService::run` and
//! the free `run_regime_jobs_with_sink` are the same run path. For
//! every scheduling regime, on the Figure-2 testbed with a host crash
//! and a link outage mid-stream, the two entry points must agree record
//! for record, attaching a trace sink must not perturb the outcome, the
//! trace must open with the schedule's fault windows, and the service
//! must refuse a workload that cannot fit in memory before running it.
//! An invalid fault schedule is refused before any event is emitted.
//! With the whole testbed down for a while, every regime's trace must
//! narrate each job's lifecycle exactly as its record tells it.

use apples_grid::workload::{ArrivalProcess, JobKind, JobMix, RetryPolicy, WorkloadConfig};
use apples_grid::{
    run_regime_jobs_with_sink, FaultInjection, GridConfig, GridError, GridService, SchedRegime,
};
use metasim::simtrace::{NoopSink, TraceEvent, VecSink};
use metasim::{FaultSpec, HostFault, HostId, LinkFault, LinkId, SimTime};

/// Host 0 down from t = 900 s to 2 500 s and link 0 dark from 1 200 s
/// to 1 500 s, both inside the submission window (warm-up ends at
/// 600 s).
fn crash_schedule() -> FaultSpec {
    FaultSpec {
        host_faults: vec![HostFault {
            host: HostId(0),
            at: SimTime::from_secs(900),
            recover: Some(SimTime::from_secs(2500)),
        }],
        link_faults: vec![LinkFault {
            link: LinkId(0),
            at: SimTime::from_secs(1200),
            recover: Some(SimTime::from_secs(1500)),
        }],
    }
}

/// The Figure-2 testbed under [`crash_schedule`].
fn crashing_grid() -> GridConfig {
    GridConfig {
        faults: FaultInjection::Spec(crash_schedule()),
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

/// Every regime's trace carries the schedule's fault windows, host
/// faults then link faults, each in schedule order, before the first
/// job is submitted.
#[test]
fn fault_events_match_the_schedule_and_precede_submissions_in_every_regime() {
    let spec = crash_schedule();
    let want: Vec<TraceEvent> = spec
        .host_faults
        .iter()
        .map(|f| TraceEvent::HostFaultInjected {
            host: f.host,
            at: f.at,
            recover: f.recover,
        })
        .chain(
            spec.link_faults
                .iter()
                .map(|f| TraceEvent::LinkFaultInjected {
                    link: f.link,
                    at: f.at,
                    recover: f.recover,
                }),
        )
        .collect();
    let svc = GridService::new(crashing_grid()).expect("valid config");
    let w = workload();
    for regime in SchedRegime::ALL {
        let mut sink = VecSink::new();
        svc.run(regime, &w, &mut sink).expect("faulted run");
        let is_fault = |e: &TraceEvent| {
            matches!(
                e,
                TraceEvent::HostFaultInjected { .. } | TraceEvent::LinkFaultInjected { .. }
            )
        };
        let got: Vec<TraceEvent> = sink
            .events
            .iter()
            .filter(|e| is_fault(e))
            .cloned()
            .collect();
        assert_eq!(got, want, "{regime}: fault events differ from the schedule");
        let first_submit = sink
            .events
            .iter()
            .position(|e| matches!(e, TraceEvent::JobSubmitted { .. }))
            .expect("a job was submitted");
        let last_fault = sink.events.iter().rposition(is_fault).expect("faults");
        assert!(
            last_fault < first_submit,
            "{regime}: a fault event follows the first submission"
        );
    }
}

/// A schedule naming an unknown host, or a window that recovers no
/// later than it starts, is refused by the unvalidated entry point too
/// — including under fractional sharing, which never applies the
/// schedule to a testbed — and the refused run emits nothing.
#[test]
fn invalid_fault_schedule_is_refused_without_events_in_every_regime() {
    let at = SimTime::from_secs(900);
    let bad = [
        FaultSpec {
            host_faults: vec![HostFault {
                host: HostId(99),
                at,
                recover: None,
            }],
            link_faults: Vec::new(),
        },
        FaultSpec {
            host_faults: vec![HostFault {
                host: HostId(0),
                at,
                recover: Some(at),
            }],
            link_faults: Vec::new(),
        },
        FaultSpec {
            host_faults: Vec::new(),
            link_faults: vec![LinkFault {
                link: LinkId(0),
                at,
                recover: Some(SimTime::from_secs(800)),
            }],
        },
    ];
    let w = workload();
    let jobs = w.realize();
    for (i, spec) in bad.into_iter().enumerate() {
        let cfg = GridConfig {
            faults: FaultInjection::Spec(spec),
            ..GridConfig::default()
        };
        for regime in SchedRegime::ALL {
            let mut sink = VecSink::new();
            let res =
                run_regime_jobs_with_sink(&cfg, regime, &jobs, w.duration, w.retry, &mut sink);
            assert!(res.is_err(), "{regime}: invalid schedule {i} was run");
            assert!(
                sink.events.is_empty(),
                "{regime}: refused schedule {i} emitted events"
            );
        }
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

/// Every lifecycle event a job's trace carries, per kind.
#[derive(Default)]
struct Narrated {
    submitted: u32,
    dispatched: u32,
    retried: u32,
    completed: u32,
    failed: u32,
}

/// Under an outage of all eight Figure-2 hosts from 1 250 s to 1 800 s,
/// every regime retries, gives up and records under the same rules: per
/// job, one `job_submitted`, one `job_dispatched` per recorded attempt,
/// one `job_retried` per attempt but the last, and exactly one of
/// `job_completed` / `job_failed`, matching the record.
#[test]
fn lifecycle_events_agree_with_records_in_every_regime() {
    let cfg = GridConfig {
        faults: FaultInjection::Spec(FaultSpec {
            host_faults: (0..8)
                .map(|h| HostFault {
                    host: HostId(h),
                    at: SimTime::from_secs(1250),
                    recover: Some(SimTime::from_secs(1800)),
                })
                .collect(),
            link_faults: Vec::new(),
        }),
        ..GridConfig::default()
    };
    let svc = GridService::new(cfg).expect("valid config");
    for regime in SchedRegime::ALL {
        let (mut retries, mut failures, mut revocations) = (0, 0, 0);
        for budget in [1, 3] {
            let w = WorkloadConfig {
                retry: RetryPolicy::with_attempts(budget),
                ..workload()
            };
            let mut sink = VecSink::new();
            let out = svc.run(regime, &w, &mut sink).expect("faulted run");
            let mut per_job: std::collections::BTreeMap<usize, Narrated> = Default::default();
            for e in &sink.events {
                match e {
                    TraceEvent::JobSubmitted { job, .. } => {
                        per_job.entry(*job).or_default().submitted += 1
                    }
                    TraceEvent::JobDispatched { job, .. } => {
                        per_job.entry(*job).or_default().dispatched += 1
                    }
                    TraceEvent::JobRetried { job, .. } => {
                        per_job.entry(*job).or_default().retried += 1
                    }
                    TraceEvent::JobCompleted { job, .. } => {
                        per_job.entry(*job).or_default().completed += 1
                    }
                    TraceEvent::JobFailed { job, .. } => {
                        per_job.entry(*job).or_default().failed += 1
                    }
                    TraceEvent::PlacementRevoked { .. } => revocations += 1,
                    _ => {}
                }
            }
            assert_eq!(per_job.len(), out.records.len(), "{regime}/{budget}");
            for r in &out.records {
                let n = &per_job[&r.id];
                let ctx = format!("{regime}, budget {budget}, job {}", r.id);
                assert_eq!(n.submitted, 1, "{ctx}: submissions");
                assert_eq!(n.dispatched, r.attempts, "{ctx}: dispatches vs attempts");
                assert_eq!(n.retried, r.attempts - 1, "{ctx}: retries");
                assert_eq!(n.completed + n.failed, 1, "{ctx}: one final event");
                assert_eq!(
                    n.completed == 1,
                    r.completed,
                    "{ctx}: final event vs record"
                );
                assert!(r.attempts <= budget, "{ctx}: budget overrun");
                retries += n.retried;
                failures += n.failed;
            }
        }
        assert!(retries > 0, "{regime}: the outage forced no retry");
        assert!(failures > 0, "{regime}: the outage failed no job");
        if regime == SchedRegime::Fractional {
            assert!(
                revocations > 0,
                "fractional: the outage revoked no resident"
            );
        }
    }
}
