#![warn(missing_docs)]

//! # apples-grid — a multi-tenant job-stream service over `metasim`
//!
//! The paper's §3 setting, run as a service: *many* users submit jobs
//! to one shared metacomputer, each job gets its own selfish AppLeS
//! agent, and nobody coordinates. "Each user and/or
//! application-developer schedules their application so as to optimize
//! their own performance criteria without regard to the performance
//! goals of other applications which share the system."
//!
//! Where [`apples::Coordinator`] schedules one application once, this
//! crate streams a whole *workload* through the system:
//!
//! 1. [`workload`] describes who arrives when — Poisson, fixed-gap, or
//!    trace-replay arrivals over a mix of Jacobi2D stencils, 3D-REACT
//!    style pipelines and NILE event farms;
//! 2. [`service`] admits jobs FCFS (optionally bounded in-flight),
//!    spawns a Coordinator per job against the *live* system state,
//!    actuates the winning schedule, and feeds the job's realized
//!    resource usage back into the topology as foreground load — so
//!    later agents' NWS sensors observe earlier jobs and route around
//!    them;
//! 3. [`metrics`] reduces the per-job records (wait, execution,
//!    slowdown, attempts, goodput) to fleet metrics: throughput,
//!    latency percentiles, per-host utilization;
//! 4. [`sched`] replays the identical realized stream under rival
//!    policies — selfish agents, a centralized FCFS + EASY batch
//!    queue, dynamic fractional sharing ([`SchedRegime`]) — so regime
//!    comparisons are attributable to policy alone;
//! 5. [`sweep`] repeats the whole thing across seeds in parallel.
//!
//! The service is fault-tolerant: a [`service::FaultInjection`]
//! schedule can crash hosts and cut links mid-stream; revoked
//! placements are detected at actuation time and retried with bounded
//! exponential backoff ([`workload::RetryPolicy`]), with aware stencil
//! jobs rescheduling remnant work onto surviving hosts.
//!
//! Everything is deterministic per seed: same seed + same workload
//! config + same fault schedule → bit-identical records and fleet
//! metrics. The [`obsv`] crate (re-exported here) turns the service's
//! trace stream into metrics, profiles and Prometheus expositions.

pub mod metrics;
pub mod sched;
pub mod service;
pub mod sweep;
pub mod workload;

pub use obsv;

pub use metrics::{percentile, slowdown_of, FleetMetrics, JobRecord};
pub use sched::{
    run_batch_with_log, run_fractional_with_log, run_regime_jobs_with_sink, BackfillEntry,
    BatchLog, FractionalLog, SchedRegime, ShareSample,
};
pub use service::{
    validate_config, Diagnostic, FaultInjection, GridConfig, GridError, GridOutcome, GridService,
    Regime,
};
pub use workload::{ArrivalProcess, JobKind, JobMix, JobSpec, RetryPolicy, WorkloadConfig};
