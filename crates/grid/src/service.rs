//! The job-stream service: admit, decide, actuate, impose, record.
//!
//! One shared Figure 2 testbed; each admitted job gets its own selfish
//! AppLeS agent deciding from Network Weather Service forecasts, then
//! the job's realized resource usage is written back into the topology
//! as foreground load (§3: "other applications create contention for
//! shared resources, and are experienced by an individual application
//! in terms of the dynamically varying performance capability of
//! metacomputing system resources"). Later agents' sensors observe
//! that contention and route around it.
//!
//! ## Information regimes
//!
//! * [`Regime::Aware`] — one shared Weather Service is advanced to
//!   each job's start over the *live* (load-imposed) topology. Because
//!   a job's imposition only alters availability from its own start
//!   time forward, and jobs are processed in admission order, the
//!   shared service's sample stream is identical to giving every agent
//!   a fresh service over the mutated topology — at a fraction of the
//!   cost for long streams.
//! * [`Regime::Blind`] — every agent decides from one pristine
//!   pre-stream snapshot, as if all jobs were submitted simultaneously;
//!   they pile onto the same fast hosts and contend.
//!
//! ## Approximations
//!
//! A running job does not feel load imposed by *later* arrivals
//! (first-decider-wins): each actuation simulates against the topology
//! as of its start. Host impositions are exact for SPMD jobs (measured
//! compute seconds); pipeline and farm impositions are busy-fraction
//! estimates. Link impositions smear a job's total transferred MB over
//! its run window.
//!
//! ## Faults and retries
//!
//! A [`FaultInjection`] schedule (explicit [`FaultSpec`] or a realized
//! [`FaultModel`]) is applied to the *live* topology before the stream
//! starts. The blind snapshot stays pre-fault: a blind agent has no
//! channel through which to learn about crashes, which is exactly the
//! baseline the paper's Figure 6 argues against. When an actuation is
//! revoked mid-run ([`metasim::SimError::PlacementLost`]) the service
//! discards the attempt without writing its load back (tear-down: a
//! placement that died never finished occupying its hosts for the
//! recorded window), excludes the dead host, and retries the job under
//! the workload's [`RetryPolicy`] with exponential backoff. Aware
//! stencil jobs additionally run under [`ReschedulingAgent`], which
//! checkpoints at phase boundaries and re-plans remnant iterations on
//! the survivors instead of restarting from scratch. Jobs that exhaust
//! their attempts are recorded with `completed = false`, never dropped.

use crate::metrics::{slowdown_of, FleetMetrics, JobRecord};
use crate::sched::SchedRegime;
use crate::workload::{JobKind, JobSpec, RetryPolicy, WorkloadConfig};
use apples::actuator::{actuate_with_sink, ActuationDetail, ActuationReport};
use apples::hat::Hat;
use apples::info::InfoPool;
use apples::rescheduler::{RescheduleReport, ReschedulingAgent};
use apples::schedule::Schedule;
use apples::{ApplesError, Coordinator};
use apples_apps::nile::plan_farm;
use metasim::load::Imposition;
use metasim::simtrace::{EventSink, TraceEvent};
use metasim::testbed::{pcl_sdsc, LoadProfile, TestbedConfig};
use metasim::topogen::{self, TopoGenConfig, TopoSpec};
use metasim::{apply_faults_with_sink, FaultModel, FaultSpec, SimError};
use metasim::{HostId, SimTime, Topology};
use nws::{WeatherService, WeatherServiceConfig};
use simcore::EventQueue;

/// Information regime for the stream's agents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// Each agent observes the system as it is when its job starts,
    /// including earlier jobs' imposed load.
    Aware,
    /// Every agent decides from pristine pre-stream measurements.
    Blind,
}

/// How (and whether) host and link faults are injected into the live
/// testbed for the duration of the stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum FaultInjection {
    /// No injected faults; the seed behavior.
    #[default]
    None,
    /// Apply this exact fault schedule.
    Spec(FaultSpec),
    /// Realize a random schedule from this model over the submission
    /// window, seeded by the grid seed (deterministic per seed).
    Random(FaultModel),
}

impl FaultInjection {
    /// True when no faults will be injected.
    pub fn is_none(&self) -> bool {
        matches!(self, FaultInjection::None)
    }
}

/// Service-side configuration: the shared system and its policies.
#[derive(Debug, Clone, PartialEq)]
pub struct GridConfig {
    /// Background-load profile of the testbed.
    pub profile: LoadProfile,
    /// Include the two SP-2 nodes.
    pub with_sp2: bool,
    /// Run on a generated topology family instead of the Figure-2
    /// SDSC/PCL testbed (`with_sp2` is ignored when set). The profile,
    /// horizon and seed above drive the generation.
    pub topo: Option<TopoSpec>,
    /// Sensor warmup before the first submission: the NWS needs
    /// history to forecast from.
    pub warmup: SimTime,
    /// Availability-realization horizon of the testbed (series extend
    /// their last value beyond it).
    pub horizon: SimTime,
    /// Seed for the testbed's background-load realization.
    pub seed: u64,
    /// Information regime.
    pub regime: Regime,
    /// FCFS admission bound: at most this many jobs in flight; further
    /// submissions queue. `usize::MAX` disables admission control.
    pub max_in_flight: usize,
    /// Faults injected into the live testbed.
    pub faults: FaultInjection,
}

impl Default for GridConfig {
    fn default() -> Self {
        GridConfig {
            profile: LoadProfile::Light,
            with_sp2: false,
            topo: None,
            warmup: SimTime::from_secs(600),
            horizon: SimTime::from_secs(400_000),
            seed: 1996,
            regime: Regime::Aware,
            max_in_flight: usize::MAX,
            faults: FaultInjection::None,
        }
    }
}

/// A service failure.
#[derive(Debug, Clone, PartialEq)]
pub enum GridError {
    /// A configuration knob was rejected before the stream started.
    InvalidConfig(String),
    /// A job failed in a way the retry policy cannot absorb.
    Job {
        /// Submission-order id of the failing job.
        id: usize,
        /// What went wrong.
        message: String,
    },
    /// An agent-level failure outside any per-job retry path.
    Agent(ApplesError),
    /// A simulator-level failure (testbed construction, imposition,
    /// fault application).
    Sim(SimError),
    /// A service invariant was violated — a bug, not bad input.
    Internal(String),
}

impl std::fmt::Display for GridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GridError::InvalidConfig(m) => write!(f, "invalid grid configuration: {m}"),
            GridError::Job { id, message } => write!(f, "job {id}: {message}"),
            GridError::Agent(e) => write!(f, "agent failure: {e}"),
            GridError::Sim(e) => write!(f, "simulation failure: {e}"),
            GridError::Internal(m) => write!(f, "internal service error: {m}"),
        }
    }
}

impl std::error::Error for GridError {}

impl From<ApplesError> for GridError {
    fn from(e: ApplesError) -> Self {
        GridError::Agent(e)
    }
}

impl From<SimError> for GridError {
    fn from(e: SimError) -> Self {
        GridError::Sim(e)
    }
}

/// Everything a finished stream yields.
#[derive(Debug, Clone, PartialEq)]
pub struct GridOutcome {
    /// Per-job records in submission order.
    pub records: Vec<JobRecord>,
    /// Fleet-level reduction of the records.
    pub fleet: FleetMetrics,
}

/// One pre-run diagnostic: a stable machine-readable code plus prose.
///
/// Codes for testbed/fault problems come from
/// [`metasim::ConfigIssue::code`]; service- and workload-level problems
/// use the codes documented on [`validate_config`].
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable kebab-case class of the problem (e.g. `unreachable-hosts`).
    pub code: String,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.code, self.message)
    }
}

impl From<&metasim::ConfigIssue> for Diagnostic {
    fn from(issue: &metasim::ConfigIssue) -> Self {
        Diagnostic {
            code: issue.code().to_owned(),
            message: issue.to_string(),
        }
    }
}

/// Best-case per-host resident demand of one job kind when spread over
/// `n_hosts`, for the static memory-fit check. `None` for kinds without
/// a static footprint model.
fn per_host_demand_mb(kind: &JobKind, n_hosts: usize) -> Option<(String, f64)> {
    let (hat, _) = kind.hat_and_user();
    if let Some(t) = hat.as_stencil() {
        let rows = t.n.div_ceil(n_hosts.max(1));
        Some((
            format!("{} ({n}x{n} stencil)", kind.name(), n = t.n),
            t.strip_resident_mb(rows),
        ))
    } else {
        hat.as_pipeline().map(|p| {
            (
                kind.name().to_owned(),
                p.producer_resident_mb.max(p.consumer_base_mb),
            )
        })
    }
}

/// Build the stream's shared topology: the Figure-2 SDSC/PCL testbed
/// by default, or a generated [`topogen`] family when `cfg.topo` names
/// one. The grid profile, horizon and seed drive the generation, so a
/// `--topo fat-tree:k=8` stream is exactly as reproducible as the
/// hand-built testbed.
pub(crate) fn build_topology(cfg: &GridConfig) -> Result<Topology, SimError> {
    match &cfg.topo {
        Some(spec) => topogen::generate(
            spec,
            &TopoGenConfig {
                profile: cfg.profile,
                horizon: cfg.horizon,
                seed: cfg.seed,
            },
        ),
        None => Ok(pcl_sdsc(&TestbedConfig {
            profile: cfg.profile,
            horizon: cfg.horizon,
            seed: cfg.seed,
            with_sp2: cfg.with_sp2,
        })?
        .topo),
    }
}

/// Statically validate a service configuration (and, when given, a
/// workload) without running anything.
///
/// Returns every problem found, not just the first. Testbed and fault
/// diagnostics carry [`metasim::ConfigIssue`] codes; the service adds:
///
/// * `admission` — `max_in_flight` is zero, the stream can never start;
/// * `testbed` — the testbed itself failed to build;
/// * `fault-model` — a random fault model with invalid rates;
/// * `arrivals` / `job-mix` / `retry` — the corresponding workload knob
///   was rejected;
/// * `memory-overcommit` — a job kind in the mix cannot fit on the
///   testbed's hosts even when spread perfectly.
pub fn validate_config(cfg: &GridConfig, workload: Option<&WorkloadConfig>) -> Vec<Diagnostic> {
    let (topo, mut out) = config_diagnostics(cfg);
    if let (Some(topo), Some(w)) = (&topo, workload) {
        out.extend(workload_diagnostics(topo, w));
    }
    out
}

/// The service-side half of [`validate_config`]: admission, testbed
/// and fault diagnostics, plus the testbed when it built.
fn config_diagnostics(cfg: &GridConfig) -> (Option<Topology>, Vec<Diagnostic>) {
    let mut out = Vec::new();
    let mut push = |code: &str, message: String| {
        out.push(Diagnostic {
            code: code.to_owned(),
            message,
        });
    };

    if cfg.max_in_flight == 0 {
        push("admission", "max_in_flight must be at least 1".into());
    }

    let topo = match build_topology(cfg) {
        Ok(t) => t,
        Err(e) => {
            push("testbed", format!("testbed failed to build: {e}"));
            return (None, out);
        }
    };

    let mut report = metasim::validate_topology(&topo);
    match &cfg.faults {
        FaultInjection::None => {}
        FaultInjection::Spec(spec) => {
            report.merge(metasim::validate_faults(&topo, spec));
        }
        FaultInjection::Random(model) => {
            if let Err(e) = model.validate() {
                push("fault-model", e.to_string());
            }
        }
    }
    out.extend(report.issues.iter().map(Diagnostic::from));
    (Some(topo), out)
}

/// The workload half of [`validate_config`], checked against an
/// already-built testbed.
fn workload_diagnostics(topo: &Topology, w: &WorkloadConfig) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let knobs = [
        ("arrivals", w.arrivals.validate()),
        ("job-mix", w.mix.validate()),
        ("retry", w.retry.validate()),
    ];
    for (code, result) in knobs {
        if let Err(e) = result {
            out.push(Diagnostic {
                code: code.into(),
                message: e.to_string(),
            });
        }
    }
    let n_hosts = topo.hosts().len();
    for (kind, _) in &w.mix.entries {
        if let Some((what, needed)) = per_host_demand_mb(kind, n_hosts) {
            if let Some(issue) = metasim::validate::memory_fit(topo, &what, needed) {
                out.push(Diagnostic::from(&issue));
            }
        }
    }
    out
}

/// Join every diagnostic into one [`GridError::InvalidConfig`].
fn invalid_config(diags: &[Diagnostic]) -> GridError {
    GridError::InvalidConfig(
        diags
            .iter()
            .map(Diagnostic::to_string)
            .collect::<Vec<_>>()
            .join("; "),
    )
}

/// A validated handle on the simulated grid: construction runs the full
/// static validation pass and refuses configurations that would panic
/// or hang a stream mid-run. The pristine testbed that validation built
/// is kept, and every [`GridService::run`] borrows it instead of
/// building it again.
#[derive(Debug, Clone)]
pub struct GridService {
    cfg: GridConfig,
    pristine: Topology,
}

impl GridService {
    /// Validate `cfg` (service knobs, testbed topology, fault schedule)
    /// and wrap it. Every diagnostic is reported, joined into one
    /// [`GridError::InvalidConfig`].
    pub fn new(cfg: GridConfig) -> Result<GridService, GridError> {
        match config_diagnostics(&cfg) {
            (Some(pristine), diags) if diags.is_empty() => Ok(GridService { cfg, pristine }),
            (_, diags) => Err(invalid_config(&diags)),
        }
    }

    /// The validated configuration.
    pub fn config(&self) -> &GridConfig {
        &self.cfg
    }

    /// Validate `workload` against this service's testbed (including
    /// the static memory-fit check), realize it, and stream it under
    /// `regime`, narrating every job's lifecycle (submit → dispatch →
    /// retry → complete/fail), the agents' decisions, forecasts,
    /// faults, imposed load and executor events into `sink`. Pass
    /// [`metasim::simtrace::NoopSink`] to run untraced.
    pub fn run(
        &self,
        regime: SchedRegime,
        workload: &WorkloadConfig,
        sink: &mut dyn EventSink,
    ) -> Result<GridOutcome, GridError> {
        let diags = workload_diagnostics(&self.pristine, workload);
        if !diags.is_empty() {
            return Err(invalid_config(&diags));
        }
        crate::sched::run_on(
            &self.cfg,
            &self.pristine,
            regime,
            &workload.realize(),
            workload.duration,
            workload.retry,
            sink,
        )
    }
}

/// What one placement attempt produced.
enum AttemptOutcome {
    /// The job ran to completion in one actuation.
    OneShot(Schedule, ActuationReport),
    /// The job ran in phases under the rescheduling agent, surviving
    /// zero or more mid-run revocations.
    Phased(RescheduleReport),
}

/// A failure the retry policy may absorb: the revoked/unreachable host
/// (when the failure names one) and the simulated time the placement
/// was lost (when known).
pub(crate) fn retryable(err: &ApplesError) -> Option<(Option<HostId>, Option<SimTime>)> {
    match err {
        ApplesError::Sim(SimError::PlacementLost { host, at }) => {
            Some((Some(HostId(*host)), Some(*at)))
        }
        ApplesError::Sim(SimError::NeverCompletes { .. }) => Some((None, None)),
        ApplesError::NoFeasibleResources
        | ApplesError::PlanningFailed(_)
        | ApplesError::NoViableSchedule => Some((None, None)),
        _ => None,
    }
}

/// What every regime engine starts from: the shared run prologue.
///
/// [`Stream::start`] gives the selfish loop below and the centralized
/// engines in [`crate::sched`] the same live testbed, the same realized
/// fault schedule (keyed by the grid seed) and the same admission
/// order, so every regime faces the exact same stream.
pub(crate) struct Stream<'a> {
    /// A clone of the pristine testbed with the faults applied.
    pub(crate) live: Topology,
    /// The fault schedule realized over the submission window.
    pub(crate) faults: FaultSpec,
    /// The jobs in admission order, `(submit, id)`.
    pub(crate) jobs: Vec<&'a JobSpec>,
    /// Submission-window length: the throughput and utilization
    /// denominator.
    pub(crate) duration: SimTime,
    /// The validated retry policy.
    pub(crate) retry: RetryPolicy,
}

impl<'a> Stream<'a> {
    /// Validate the retry policy (and, except under processor sharing,
    /// which has no queue, the admission bound), clone the live
    /// testbed from the borrowed `pristine` one, realize and apply the
    /// faults, and order the jobs.
    pub(crate) fn start(
        cfg: &GridConfig,
        regime: SchedRegime,
        pristine: &Topology,
        jobs: &'a [JobSpec],
        duration: SimTime,
        retry: RetryPolicy,
        sink: &mut dyn EventSink,
    ) -> Result<Stream<'a>, GridError> {
        retry.validate()?;
        if regime != SchedRegime::Fractional && cfg.max_in_flight == 0 {
            return Err(GridError::InvalidConfig(
                "max_in_flight must be at least 1".into(),
            ));
        }
        let faults = match &cfg.faults {
            FaultInjection::None => FaultSpec::none(),
            FaultInjection::Spec(s) => s.clone(),
            FaultInjection::Random(m) => {
                m.realize(pristine, cfg.warmup, cfg.warmup + duration, cfg.seed)?
            }
        };
        let mut live = pristine.clone();
        if !faults.is_empty() {
            apply_faults_with_sink(&mut live, &faults, sink)?;
        }
        let mut jobs: Vec<&JobSpec> = jobs.iter().collect();
        jobs.sort_by_key(|j| (j.submit, j.id));
        Ok(Stream {
            live,
            faults,
            jobs,
            duration,
            retry,
        })
    }
}

/// The shared run epilogue: reduce `records` to fleet metrics over the
/// live testbed's hosts.
pub(crate) fn outcome(live: &Topology, records: Vec<JobRecord>, duration: SimTime) -> GridOutcome {
    let host_names: Vec<String> = live.hosts().iter().map(|h| h.spec.name.clone()).collect();
    let fleet = FleetMetrics::from_records(&records, duration.as_secs_f64(), &host_names);
    GridOutcome { records, fleet }
}

/// The selfish engine: one AppLeS agent per job, first decider wins.
/// Blind agents decide from `pristine`, which stays fault-free.
pub(crate) fn run_selfish(
    cfg: &GridConfig,
    pristine: &Topology,
    stream: Stream<'_>,
    sink: &mut dyn EventSink,
) -> Result<GridOutcome, GridError> {
    let Stream {
        live: mut topo,
        faults,
        jobs: ordered,
        duration,
        retry,
    } = stream;
    let faults_on = !faults.is_empty();

    // Blind agents share one pre-stream snapshot; aware agents share
    // one service advanced in admission order over the live topology.
    let mut blind_ws = None;
    if cfg.regime == Regime::Blind {
        let mut ws = WeatherService::for_topology(pristine, WeatherServiceConfig::default());
        ws.advance(pristine, cfg.warmup);
        blind_ws = Some(ws);
    }
    let mut shared_ws = WeatherService::for_topology(&topo, WeatherServiceConfig::default());

    // Finish times of admitted jobs, for the FCFS in-flight bound.
    let mut in_flight: EventQueue<SimTime, ()> = EventQueue::new();
    let mut records = Vec::with_capacity(ordered.len());

    for job in ordered {
        let submit = cfg.warmup + job.submit;
        let mut start = submit;
        while in_flight.len() >= cfg.max_in_flight {
            let Some((freed, _, ())) = in_flight.pop() else {
                break;
            };
            start = start.max(freed);
        }
        if sink.enabled() {
            sink.record(TraceEvent::JobSubmitted {
                job: job.id,
                kind: job.kind.name().to_string(),
                at: submit,
            });
        }

        let (hat, base_user) = job.kind.hat_and_user();
        // Aware stencil jobs run phase-wise under faults so a mid-run
        // revocation costs only the failed phase, not the whole job.
        let phased =
            faults_on && cfg.regime == Regime::Aware && matches!(job.kind, JobKind::Jacobi { .. });

        let mut attempts: u32 = 0;
        let mut reschedules: u32 = 0;
        // Hosts the service has watched die under this job's
        // placements; excluded from subsequent attempts.
        let mut dead_hosts: Vec<HostId> = Vec::new();

        let record = loop {
            attempts += 1;
            if sink.enabled() {
                sink.record(TraceEvent::JobDispatched {
                    job: job.id,
                    at: start,
                    attempt: attempts,
                });
            }
            let mut user = base_user.clone();
            user.excluded_hosts.extend(dead_hosts.iter().copied());

            let outcome: Result<AttemptOutcome, ApplesError> = if phased {
                let mut agent = ReschedulingAgent::new(Coordinator::new(hat.clone(), user));
                if let JobKind::Jacobi { iterations, .. } = job.kind {
                    // Four checkpoints per job bounds lost work to a
                    // quarter of the solve without paying a replanning
                    // pass per handful of iterations.
                    agent.policy.phase_iterations = (iterations / 4).max(10);
                }
                // The rescheduler drives its own sampling clock past
                // this job's phases; give it a private service over the
                // live topology so the shared admission-order stream is
                // not advanced beyond the next job's start. (Sampling
                // is deterministic, so this is observationally the same
                // stream.)
                let mut ws = WeatherService::for_topology(&topo, WeatherServiceConfig::default());
                agent
                    .run_stencil_with_sink(&topo, &mut ws, start, sink)
                    .map(AttemptOutcome::Phased)
            } else {
                let schedule = match (&blind_ws, cfg.regime) {
                    (Some(ws), Regime::Blind) => {
                        let pool = InfoPool::with_nws(pristine, ws, &hat, &user, cfg.warmup);
                        decide(&job.kind, &pool, sink)
                    }
                    _ => {
                        shared_ws.advance_with_sink(&topo, start, sink);
                        let pool = InfoPool::with_nws(&topo, &shared_ws, &hat, &user, start);
                        decide(&job.kind, &pool, sink)
                    }
                };
                schedule.and_then(|schedule| {
                    actuate_with_sink(&topo, &hat, &schedule, start, sink)
                        .map(|report| AttemptOutcome::OneShot(schedule, report))
                })
            };

            match outcome {
                Ok(AttemptOutcome::OneShot(schedule, report)) => {
                    impose_job_load(&mut topo, &hat, &schedule, &report, start, sink)?;
                    let hosts = host_names_of(&topo, &schedule.hosts())?;
                    let wait_seconds = start.saturating_sub(submit).as_secs_f64();
                    if sink.enabled() {
                        sink.record(TraceEvent::JobCompleted {
                            job: job.id,
                            at: report.finish,
                            exec_seconds: report.elapsed_seconds,
                        });
                    }
                    break JobRecord {
                        id: job.id,
                        kind: job.kind.name().to_string(),
                        submit,
                        start,
                        finish: report.finish,
                        hosts,
                        wait_seconds,
                        exec_seconds: report.elapsed_seconds,
                        slowdown: slowdown_of(wait_seconds, report.elapsed_seconds),
                        attempts,
                        reschedules,
                        completed: true,
                    };
                }
                Ok(AttemptOutcome::Phased(report)) => {
                    // Saturate rather than truncate: a `usize as u32`
                    // cast would silently wrap a pathological count.
                    reschedules = reschedules
                        .saturating_add(u32::try_from(report.revocations).unwrap_or(u32::MAX));
                    let mut used: Vec<HostId> = Vec::new();
                    // Collect each host's per-phase impositions and
                    // apply them in one batched series rebuild per host
                    // instead of one per (phase, worker). Phase windows
                    // on one host are disjoint in time, so the batched
                    // result equals sequential application; LoadImposed
                    // events keep the original per-phase order.
                    let mut batched: Vec<(HostId, Vec<Imposition>)> = Vec::new();
                    for ph in &report.phases {
                        let phase_end = ph.start + SimTime::from_secs_f64(ph.elapsed_seconds);
                        for (w, &h) in ph.hosts.iter().enumerate() {
                            let busy = ph.compute_seconds.get(w).copied().unwrap_or(0.0);
                            if ph.elapsed_seconds > 0.0 {
                                let utilization = (busy / ph.elapsed_seconds).clamp(0.0, 1.0);
                                let factor = 1.0 - utilization;
                                let imp = Imposition::new(ph.start, phase_end, factor);
                                match batched.iter_mut().find(|(bh, _)| *bh == h) {
                                    Some((_, imps)) => imps.push(imp),
                                    None => batched.push((h, vec![imp])),
                                }
                                if sink.enabled() {
                                    sink.record(TraceEvent::LoadImposed {
                                        host: h,
                                        at: ph.start,
                                        until: phase_end,
                                        factor,
                                    });
                                }
                            }
                            if !used.contains(&h) {
                                used.push(h);
                            }
                        }
                    }
                    for (h, imps) in &batched {
                        let hm = topo.host_mut(*h)?;
                        let scaled = hm.availability().with_impositions(imps);
                        hm.set_availability(scaled);
                    }
                    let hosts = host_names_of(&topo, &used)?;
                    let wait_seconds = start.saturating_sub(submit).as_secs_f64();
                    if sink.enabled() {
                        sink.record(TraceEvent::JobCompleted {
                            job: job.id,
                            at: report.finish,
                            exec_seconds: report.elapsed_seconds,
                        });
                    }
                    break JobRecord {
                        id: job.id,
                        kind: job.kind.name().to_string(),
                        submit,
                        start,
                        finish: report.finish,
                        hosts,
                        wait_seconds,
                        exec_seconds: report.elapsed_seconds,
                        slowdown: slowdown_of(wait_seconds, report.elapsed_seconds),
                        attempts,
                        reschedules,
                        completed: true,
                    };
                }
                Err(err) => {
                    let Some((lost_host, lost_at)) = retryable(&err) else {
                        return Err(GridError::Job {
                            id: job.id,
                            message: err.to_string(),
                        });
                    };
                    if let Some(h) = lost_host {
                        if !dead_hosts.contains(&h) {
                            dead_hosts.push(h);
                        }
                    }
                    if attempts >= retry.max_attempts {
                        // Out of budget: record the failure. Nothing
                        // was imposed for any failed attempt, so the
                        // topology carries no trace of the lost work.
                        let give_up = lost_at.unwrap_or(start).max(start);
                        let wait_seconds = give_up.saturating_sub(submit).as_secs_f64();
                        if sink.enabled() {
                            sink.record(TraceEvent::JobFailed {
                                job: job.id,
                                at: give_up,
                                attempts,
                            });
                        }
                        break JobRecord {
                            id: job.id,
                            kind: job.kind.name().to_string(),
                            submit,
                            start,
                            finish: give_up,
                            hosts: Vec::new(),
                            wait_seconds,
                            exec_seconds: 0.0,
                            slowdown: slowdown_of(wait_seconds, 0.0),
                            attempts,
                            reschedules,
                            completed: false,
                        };
                    }
                    // Jittered per (seed, job): jobs revoked by the
                    // same fault spread out instead of thundering back
                    // in lockstep, deterministically per seed.
                    start = lost_at.unwrap_or(start).max(start)
                        + retry.backoff_jittered(attempts, cfg.seed ^ job.id as u64);
                    if sink.enabled() {
                        sink.record(TraceEvent::JobRetried {
                            job: job.id,
                            at: start,
                            attempt: attempts,
                        });
                    }
                }
            }
        };
        in_flight.schedule(record.finish, ());
        records.push(record);
    }

    Ok(outcome(&topo, records, duration))
}

/// Resolve host ids to their testbed names.
pub(crate) fn host_names_of(topo: &Topology, hosts: &[HostId]) -> Result<Vec<String>, GridError> {
    hosts
        .iter()
        .map(|&h| {
            topo.host(h)
                .map(|x| x.spec.name.clone())
                .map_err(GridError::from)
        })
        .collect()
}

/// Plan one job: stencil and pipeline hats go through the Coordinator's
/// select → plan → estimate → choose loop; task farms are planned by
/// their Site Manager ([`plan_farm`]), as in the paper's NILE case
/// study, over every feasible host with the data and result home on
/// the fastest-forecast host.
fn decide(
    kind: &JobKind,
    pool: &InfoPool<'_>,
    sink: &mut dyn EventSink,
) -> Result<Schedule, ApplesError> {
    decide_with_prediction(kind, pool, sink).map(|(schedule, _)| schedule)
}

/// [`decide`], also surfacing the estimator's predicted runtime in
/// seconds. The centralized batch scheduler ([`crate::sched`]) uses
/// that prediction as its EASY-backfilling reservation oracle — the
/// same application-level estimate the selfish agents act on, handed
/// to a resource-level policy instead.
pub(crate) fn decide_with_prediction(
    kind: &JobKind,
    pool: &InfoPool<'_>,
    sink: &mut dyn EventSink,
) -> Result<(Schedule, f64), ApplesError> {
    match kind {
        JobKind::NileFarm { .. } => {
            let feasible: Vec<HostId> = apples::selector::ResourceSelector::feasible_hosts(pool);
            let home = feasible
                .iter()
                .copied()
                .max_by(|&a, &b| {
                    let fa = pool.effective_mflops(a).unwrap_or(0.0);
                    let fb = pool.effective_mflops(b).unwrap_or(0.0);
                    fa.total_cmp(&fb).then(b.cmp(&a))
                })
                .ok_or(ApplesError::NoFeasibleResources)?;
            let plan = plan_farm(pool, &feasible, home, home)?;
            let predicted = apples::estimator::estimate_farm(pool, &plan)?;
            Ok((Schedule::Farm(plan), predicted))
        }
        _ => {
            let coordinator = Coordinator::new(pool.hat.clone(), pool.user.clone());
            let decision = coordinator.decide_with_sink(pool, sink)?;
            let predicted = decision.chosen().predicted_seconds;
            Ok((decision.schedule().clone(), predicted))
        }
    }
}

/// Write a finished job's resource usage back into the topology so
/// later observers experience the contention.
fn impose_job_load(
    topo: &mut Topology,
    hat: &Hat,
    schedule: &Schedule,
    report: &ActuationReport,
    start: SimTime,
    sink: &mut dyn EventSink,
) -> Result<(), GridError> {
    let finish = report.finish;
    let elapsed = finish.saturating_sub(start).as_secs_f64();
    if elapsed <= 0.0 {
        return Ok(());
    }
    match (schedule, &report.detail) {
        (Schedule::Stencil(s), ActuationDetail::Spmd(out)) => {
            // Exact: the simulator reports each worker's compute time.
            for (w, part) in s.parts.iter().enumerate() {
                let utilization = (out.compute_seconds[w] / elapsed).clamp(0.0, 1.0);
                impose_host(topo, part.host, start, finish, 1.0 - utilization, sink)?;
            }
        }
        (Schedule::Pipeline(p), ActuationDetail::Pipeline(out)) => {
            let producer_busy = ((elapsed - out.producer_block_seconds) / elapsed).clamp(0.0, 1.0);
            let consumer_busy = ((elapsed - out.consumer_stall_seconds) / elapsed).clamp(0.0, 1.0);
            impose_host(topo, p.producer, start, finish, 1.0 - producer_busy, sink)?;
            if p.consumer != p.producer {
                impose_host(topo, p.consumer, start, finish, 1.0 - consumer_busy, sink)?;
            }
            if let Some(t) = hat.as_pipeline() {
                let mb = t.mb_per_unit * t.total_units as f64;
                impose_route(topo, p.producer, p.consumer, mb, start, finish)?;
            }
        }
        (Schedule::Farm(f), ActuationDetail::Farm(out)) => {
            let t = hat.as_task_farm().ok_or_else(|| {
                GridError::Internal("farm schedule paired with a non-farm hat".into())
            })?;
            for (&(host, events), &(_, done)) in f.assignments.iter().zip(&out.host_done) {
                let window = done.saturating_sub(start).as_secs_f64();
                if window <= 0.0 || events == 0 {
                    continue;
                }
                // Estimate: compute demand over delivered capability.
                let h = topo.host(host)?;
                let avail = h.mean_availability(start, done).max(1e-9);
                let est_compute = events as f64 * t.mflop_per_event / (h.spec.mflops * avail);
                let utilization = (est_compute / window).clamp(0.0, 1.0);
                impose_host(topo, host, start, done, 1.0 - utilization, sink)?;
                impose_route(
                    topo,
                    f.data_home,
                    host,
                    events as f64 * t.mb_per_event,
                    start,
                    done,
                )?;
                impose_route(
                    topo,
                    host,
                    f.result_home,
                    events as f64 * t.result_mb_per_event,
                    start,
                    done,
                )?;
            }
        }
        // Schedule/report shape mismatch cannot happen: `actuate`
        // produced the report from this same schedule.
        _ => {
            return Err(GridError::Internal(
                "actuation detail does not match schedule shape".into(),
            ))
        }
    }
    Ok(())
}

/// Scale one host's availability by `factor` over `[from, to)`.
fn impose_host(
    topo: &mut Topology,
    host: HostId,
    from: SimTime,
    to: SimTime,
    factor: f64,
    sink: &mut dyn EventSink,
) -> Result<(), GridError> {
    let h = topo.host_mut(host)?;
    let scaled = h
        .availability()
        .with_impositions(&[Imposition::new(from, to, factor)]);
    h.set_availability(scaled);
    if sink.enabled() {
        sink.record(TraceEvent::LoadImposed {
            host,
            at: from,
            until: to,
            factor,
        });
    }
    Ok(())
}

/// Smear `mb` of foreground traffic over every link on the route from
/// `from_host` to `to_host` across `[from, to)`: each link loses the
/// fraction of its nominal bandwidth the transfer consumed.
fn impose_route(
    topo: &mut Topology,
    from_host: HostId,
    to_host: HostId,
    mb: f64,
    from: SimTime,
    to: SimTime,
) -> Result<(), GridError> {
    let window = to.saturating_sub(from).as_secs_f64();
    if mb <= 0.0 || window <= 0.0 || from_host == to_host {
        return Ok(());
    }
    for link_id in topo.route(from_host, to_host)? {
        let scaled = {
            let l = topo.link(link_id)?;
            let fraction = (mb / (l.spec.bandwidth_mbps * window)).clamp(0.0, 1.0);
            l.availability()
                .with_impositions(&[Imposition::new(from, to, 1.0 - fraction)])
        };
        topo.link_mut(link_id)?.set_availability(scaled);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_regime_jobs_with_sink;
    use crate::workload::{ArrivalProcess, JobMix};
    use metasim::simtrace::NoopSink;

    fn s(x: f64) -> SimTime {
        SimTime::from_secs_f64(x)
    }

    /// Stream `jobs` through the selfish engine, untraced.
    fn selfish(
        cfg: &GridConfig,
        jobs: &[JobSpec],
        duration: SimTime,
        retry: RetryPolicy,
    ) -> Result<GridOutcome, GridError> {
        run_regime_jobs_with_sink(
            cfg,
            SchedRegime::Selfish,
            jobs,
            duration,
            retry,
            &mut NoopSink,
        )
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&str> {
        diags.iter().map(|d| d.code.as_str()).collect()
    }

    #[test]
    fn grid_service_accepts_the_default_config() {
        let svc = GridService::new(GridConfig::default()).expect("default config is valid");
        assert_eq!(svc.config().seed, 1996);
    }

    #[test]
    fn grid_service_refuses_zero_admission_bound() {
        let cfg = GridConfig {
            max_in_flight: 0,
            ..GridConfig::default()
        };
        let diags = validate_config(&cfg, None);
        assert!(codes(&diags).contains(&"admission"), "{diags:?}");
        let err = GridService::new(cfg).unwrap_err();
        assert!(matches!(err, GridError::InvalidConfig(_)));
    }

    #[test]
    fn grid_service_refuses_bad_fault_model() {
        let cfg = GridConfig {
            faults: FaultInjection::Random(FaultModel {
                host_crashes_per_hour: -1.0,
                link_outages_per_hour: 0.0,
                mean_outage: SimTime::from_secs(600),
                permanent_fraction: 0.0,
            }),
            ..GridConfig::default()
        };
        let diags = validate_config(&cfg, None);
        assert!(codes(&diags).contains(&"fault-model"), "{diags:?}");
        assert!(GridService::new(cfg).is_err());
    }

    #[test]
    fn grid_service_refuses_fault_windows_outside_horizon() {
        let cfg = GridConfig {
            faults: FaultInjection::Spec(FaultSpec {
                host_faults: vec![metasim::HostFault {
                    host: HostId(0),
                    at: SimTime::from_secs(500_000),
                    recover: None,
                }],
                link_faults: vec![],
            }),
            ..GridConfig::default()
        };
        let diags = validate_config(&cfg, None);
        assert!(codes(&diags).contains(&"fault-beyond-horizon"), "{diags:?}");
        assert!(GridService::new(cfg).is_err());
    }

    #[test]
    fn grid_service_refuses_fault_on_unknown_host() {
        let cfg = GridConfig {
            faults: FaultInjection::Spec(FaultSpec {
                host_faults: vec![metasim::HostFault {
                    host: HostId(999),
                    at: SimTime::from_secs(100),
                    recover: None,
                }],
                link_faults: vec![],
            }),
            ..GridConfig::default()
        };
        let diags = validate_config(&cfg, None);
        assert!(
            codes(&diags).contains(&"fault-on-unknown-host"),
            "{diags:?}"
        );
        assert!(GridService::new(cfg).is_err());
    }

    #[test]
    fn validate_config_rejects_workload_knobs() {
        let cfg = GridConfig::default();
        let w = WorkloadConfig {
            arrivals: ArrivalProcess::Poisson { rate_hz: 0.0 },
            mix: JobMix { entries: vec![] },
            retry: RetryPolicy {
                max_attempts: 0,
                ..RetryPolicy::default()
            },
            ..WorkloadConfig::default()
        };
        let diags = validate_config(&cfg, Some(&w));
        let c = codes(&diags);
        assert!(c.contains(&"arrivals"), "{c:?}");
        assert!(c.contains(&"job-mix"), "{c:?}");
        assert!(c.contains(&"retry"), "{c:?}");
    }

    #[test]
    fn validate_config_flags_memory_overcommit() {
        let cfg = GridConfig::default();
        // A 30000x30000 Jacobi grid is ~14 GB resident; even spread
        // across every Figure-2 host it cannot fit.
        let w = WorkloadConfig {
            mix: JobMix::only(JobKind::Jacobi {
                n: 30_000,
                iterations: 10,
            }),
            ..WorkloadConfig::default()
        };
        let diags = validate_config(&cfg, Some(&w));
        assert!(codes(&diags).contains(&"memory-overcommit"), "{diags:?}");
        // And the service refuses to run it.
        let svc = GridService::new(cfg).unwrap();
        assert!(matches!(
            svc.run(SchedRegime::Selfish, &w, &mut NoopSink),
            Err(GridError::InvalidConfig(_))
        ));
    }

    #[test]
    fn validate_config_is_clean_for_shipped_configs() {
        for with_sp2 in [false, true] {
            let cfg = GridConfig {
                with_sp2,
                ..GridConfig::default()
            };
            let diags = validate_config(&cfg, Some(&WorkloadConfig::default()));
            assert!(diags.is_empty(), "shipped config flagged: {diags:?}");
        }
    }

    fn probe_jobs(long_iters: usize, probe_iters: usize) -> Vec<JobSpec> {
        // Three long Jacobi solves occupy the fast hosts, then a short
        // probe arrives — the bench multi-agent scenario.
        let mut jobs: Vec<JobSpec> = (0..3)
            .map(|i| JobSpec {
                id: i,
                submit: s(60.0 * i as f64),
                kind: JobKind::Jacobi {
                    n: 1200,
                    iterations: long_iters,
                },
            })
            .collect();
        jobs.push(JobSpec {
            id: 3,
            submit: s(180.0),
            kind: JobKind::Jacobi {
                n: 1200,
                iterations: probe_iters,
            },
        });
        jobs
    }

    #[test]
    fn same_seed_streams_are_bit_identical() {
        let cfg = GridConfig::default();
        let workload = WorkloadConfig {
            arrivals: ArrivalProcess::Poisson { rate_hz: 0.01 },
            duration: s(1200.0),
            ..WorkloadConfig::default()
        };
        let a = selfish(&cfg, &workload.realize(), workload.duration, workload.retry)
            .expect("stream a");
        let b = selfish(&cfg, &workload.realize(), workload.duration, workload.retry)
            .expect("stream b");
        assert_eq!(a.records, b.records);
        assert_eq!(a.fleet, b.fleet);
        assert!(!a.records.is_empty(), "workload produced no jobs");
    }

    #[test]
    fn aware_probe_routes_around_and_beats_blind() {
        let cfg = GridConfig {
            seed: 77,
            ..GridConfig::default()
        };
        let jobs = probe_jobs(6000, 400);
        let aware = selfish(&cfg, &jobs, s(300.0), RetryPolicy::default()).expect("aware");
        let blind = selfish(
            &GridConfig {
                regime: Regime::Blind,
                ..cfg.clone()
            },
            &jobs,
            s(300.0),
            RetryPolicy::default(),
        )
        .expect("blind");
        // The first job decides from identical information either way.
        assert!((aware.records[0].exec_seconds - blind.records[0].exec_seconds).abs() < 1e-6);
        // The probe lands mid-contention: its NWS forecasts reflect the
        // long jobs' imposed load, so it routes around the occupied
        // fast hosts and finishes sooner than the blind probe.
        let aware_probe = &aware.records[3];
        let blind_probe = &blind.records[3];
        assert_ne!(
            {
                let mut h = aware.records[0].hosts.clone();
                h.sort();
                h
            },
            {
                let mut h = aware_probe.hosts.clone();
                h.sort();
                h
            },
            "aware probe piled onto the long jobs' hosts"
        );
        assert!(
            aware_probe.exec_seconds < blind_probe.exec_seconds,
            "aware probe {:.1}s vs blind probe {:.1}s",
            aware_probe.exec_seconds,
            blind_probe.exec_seconds
        );
    }

    #[test]
    fn admission_bound_queues_jobs_fcfs() {
        let cfg = GridConfig {
            max_in_flight: 1,
            ..GridConfig::default()
        };
        let jobs: Vec<JobSpec> = (0..3)
            .map(|i| JobSpec {
                id: i,
                submit: s(1.0 + i as f64),
                kind: JobKind::Jacobi {
                    n: 800,
                    iterations: 120,
                },
            })
            .collect();
        let out = selfish(&cfg, &jobs, s(10.0), RetryPolicy::default()).expect("bounded stream");
        // With one slot, each job starts when its predecessor finishes.
        for pair in out.records.windows(2) {
            assert!(pair[1].start >= pair[0].finish);
        }
        assert!(out.records[1].wait_seconds > 0.0);
        assert!(out.records[2].wait_seconds > out.records[1].wait_seconds);
        // Unbounded admission: no waiting.
        let free = selfish(
            &GridConfig::default(),
            &jobs,
            s(10.0),
            RetryPolicy::default(),
        )
        .expect("free stream");
        assert!(free.records.iter().all(|r| r.wait_seconds == 0.0));
    }

    #[test]
    fn mixed_kinds_all_complete() {
        let cfg = GridConfig::default();
        let jobs = vec![
            JobSpec {
                id: 0,
                submit: s(10.0),
                kind: JobKind::Jacobi {
                    n: 800,
                    iterations: 60,
                },
            },
            JobSpec {
                id: 1,
                submit: s(20.0),
                kind: JobKind::ReactPipeline { units: 20 },
            },
            JobSpec {
                id: 2,
                submit: s(30.0),
                kind: JobKind::NileFarm { events: 10_000 },
            },
        ];
        let out = selfish(&cfg, &jobs, s(60.0), RetryPolicy::default()).expect("mixed stream");
        assert_eq!(out.records.len(), 3);
        for r in &out.records {
            assert!(r.exec_seconds > 0.0, "{} did not run", r.kind);
            assert!(!r.hosts.is_empty());
            assert!(r.slowdown >= 1.0);
        }
        assert_eq!(out.records[1].kind, "react-pipe");
        assert_eq!(out.records[2].kind, "nile-farm");
        // The farm fans out to more than one host.
        assert!(out.records[2].hosts.len() > 1);
    }

    #[test]
    fn degenerate_config_is_rejected_with_typed_errors() {
        let cfg = GridConfig {
            max_in_flight: 0,
            ..GridConfig::default()
        };
        assert!(matches!(
            selfish(&cfg, &[], s(10.0), RetryPolicy::default()),
            Err(GridError::InvalidConfig(_))
        ));
        let bad_retry = crate::workload::RetryPolicy {
            max_attempts: 0,
            ..Default::default()
        };
        assert!(matches!(
            selfish(&GridConfig::default(), &[], s(10.0), bad_retry),
            Err(GridError::InvalidConfig(_))
        ));
    }

    #[test]
    fn transient_host_crash_is_survived_by_retry() {
        use metasim::{FaultSpec, HostFault};
        // One short job placed while its likely host crashes shortly
        // after the stream starts. With a single attempt the blind
        // regime records a failure; with retries the job completes
        // after the host recovers or elsewhere.
        let jobs = vec![JobSpec {
            id: 0,
            submit: s(10.0),
            kind: JobKind::Jacobi {
                n: 800,
                iterations: 120,
            },
        }];
        let faults = FaultSpec {
            host_faults: (0..8)
                .map(|h| HostFault {
                    host: metasim::HostId(h),
                    at: s(605.0),
                    recover: Some(s(2000.0)),
                })
                .collect(),
            link_faults: vec![],
        };
        let cfg = GridConfig {
            regime: Regime::Blind,
            faults: FaultInjection::Spec(faults),
            ..GridConfig::default()
        };
        let blind = selfish(&cfg, &jobs, s(60.0), RetryPolicy::default()).expect("blind stream");
        assert_eq!(blind.fleet.jobs_failed, 1, "{:?}", blind.records);
        assert!(!blind.records[0].completed);
        assert_eq!(blind.records[0].exec_seconds, 0.0);

        let retrying = selfish(
            &GridConfig {
                regime: Regime::Aware,
                ..cfg.clone()
            },
            &jobs,
            s(60.0),
            crate::workload::RetryPolicy::with_attempts(8),
        )
        .expect("aware stream");
        assert_eq!(retrying.fleet.jobs_completed, 1, "{:?}", retrying.records);
        let r = &retrying.records[0];
        assert!(r.completed);
        assert!(
            r.attempts > 1 || r.reschedules > 0,
            "job should have needed the fault machinery: {r:?}"
        );
        assert!(retrying.fleet.goodput > 0.0);
    }

    #[test]
    fn faulted_streams_are_bit_identical_across_runs() {
        use metasim::FaultModel;
        let cfg = GridConfig {
            faults: FaultInjection::Random(FaultModel {
                host_crashes_per_hour: 2.0,
                ..FaultModel::default()
            }),
            ..GridConfig::default()
        };
        let workload = WorkloadConfig {
            arrivals: ArrivalProcess::Uniform { gap: s(90.0) },
            duration: s(600.0),
            retry: crate::workload::RetryPolicy::with_attempts(3),
            ..WorkloadConfig::default()
        };
        let a = selfish(&cfg, &workload.realize(), workload.duration, workload.retry)
            .expect("stream a");
        let b = selfish(&cfg, &workload.realize(), workload.duration, workload.retry)
            .expect("stream b");
        assert_eq!(a.records, b.records);
        assert_eq!(a.fleet, b.fleet);
    }

    #[test]
    fn traced_stream_narrates_every_layer() {
        use metasim::simtrace::VecSink;
        let cfg = GridConfig::default();
        let jobs = vec![
            JobSpec {
                id: 0,
                submit: s(10.0),
                kind: JobKind::Jacobi {
                    n: 800,
                    iterations: 60,
                },
            },
            JobSpec {
                id: 1,
                submit: s(30.0),
                kind: JobKind::NileFarm { events: 10_000 },
            },
        ];
        let mut sink = VecSink::default();
        let traced = run_regime_jobs_with_sink(
            &cfg,
            SchedRegime::Selfish,
            &jobs,
            s(60.0),
            RetryPolicy::default(),
            &mut sink,
        )
        .expect("traced stream");
        // Tracing must not perturb the simulation.
        let plain = selfish(&cfg, &jobs, s(60.0), RetryPolicy::default()).expect("plain stream");
        assert_eq!(traced.records, plain.records);

        let kinds: std::collections::BTreeSet<&str> =
            sink.events.iter().map(|e| e.kind()).collect();
        // Events from every layer of the stack.
        for k in [
            "job_submitted",      // grid
            "job_dispatched",     // grid
            "job_completed",      // grid
            "load_imposed",       // grid → metasim
            "forecast_issued",    // nws
            "resource_selection", // core
            "candidate_considered",
            "schedule_chosen",
            "actuated",
            "compute_start", // metasim executors
            "compute_finish",
            "transfer_start",
            "transfer_finish",
        ] {
            assert!(kinds.contains(k), "missing {k}: have {kinds:?}");
        }
        // Timestamps never run backwards per job lifecycle: submit ≤
        // dispatch ≤ complete.
        let find = |want: &str, job: usize| {
            sink.events
                .iter()
                .find_map(|e| match e {
                    TraceEvent::JobSubmitted { job: j, at, .. }
                    | TraceEvent::JobDispatched { job: j, at, .. }
                    | TraceEvent::JobCompleted { job: j, at, .. }
                        if *j == job && e.kind() == want =>
                    {
                        Some(*at)
                    }
                    _ => None,
                })
                .expect("lifecycle event present")
        };
        for job in [0usize, 1] {
            let sub = find("job_submitted", job);
            let disp = find("job_dispatched", job);
            let done = find("job_completed", job);
            assert!(
                sub <= disp && disp <= done,
                "job {job} lifecycle out of order"
            );
        }
    }

    #[test]
    fn imposed_load_keeps_availability_in_unit_interval() {
        let cfg = GridConfig::default();
        let workload = WorkloadConfig {
            arrivals: ArrivalProcess::Uniform { gap: s(120.0) },
            mix: JobMix::default_mix(),
            duration: s(1200.0),
            seed: 5,
            ..WorkloadConfig::default()
        };
        // Re-run the stream, then inspect the mutated topology by
        // reproducing it here (run() does not expose the topology).
        let tb = pcl_sdsc(&TestbedConfig {
            profile: cfg.profile,
            horizon: cfg.horizon,
            seed: cfg.seed,
            with_sp2: cfg.with_sp2,
        })
        .expect("testbed");
        let mut topo = tb.topo.clone();
        let mut ws = WeatherService::for_topology(&topo, WeatherServiceConfig::default());
        for job in workload.realize() {
            let start = cfg.warmup + job.submit;
            let (hat, user) = job.kind.hat_and_user();
            ws.advance(&topo, start);
            let pool = InfoPool::with_nws(&topo, &ws, &hat, &user, start);
            let schedule = decide(&job.kind, &pool, &mut NoopSink).expect("plan");
            let report =
                actuate_with_sink(&topo, &hat, &schedule, start, &mut NoopSink).expect("run");
            impose_job_load(&mut topo, &hat, &schedule, &report, start, &mut NoopSink)
                .expect("impose");
        }
        for h in topo.hosts() {
            for &(_, v) in h.availability().points() {
                assert!((0.0..=1.0).contains(&v), "host availability {v} escaped");
            }
        }
        for l in topo.links() {
            for &(_, v) in l.availability().points() {
                assert!((0.0..=1.0).contains(&v), "link availability {v} escaped");
            }
        }
    }
}
