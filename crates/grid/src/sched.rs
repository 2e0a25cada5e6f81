//! Scheduling regimes: the same seeded job stream under three policies.
//!
//! The paper's thesis is that applications schedule *themselves*
//! ("everything in the system is evaluated in terms of its impact on
//! the application") — the selfish-agent stream in [`crate::service`]
//! is that world. This module puts the alternative worlds next to it,
//! over the *identical* realized workload and fault schedule, so the
//! tradeoff is measurable rather than rhetorical:
//!
//! * [`SchedRegime::Selfish`] — first-decider-wins AppLeS agents, one
//!   per job, each optimizing its own completion time against live
//!   (or blind) forecasts: the stream loop in [`crate::service`].
//! * [`SchedRegime::Batch`] — a centralized space-shared batch queue:
//!   FCFS with EASY backfilling. The reservation oracle is the same
//!   application-level runtime prediction the selfish agents act on
//!   ([`decide_with_prediction`]), handed to a resource-level policy:
//!   the head of the queue gets a reservation at the earliest
//!   predicted drain of its hosts, and a later job may jump it only
//!   if it starts on free hosts *now* and cannot delay that
//!   reservation. Backfill candidates are moldable — a blocked
//!   candidate is replanned against the currently-free hosts before
//!   the EASY check, because an AppLeS job requests performance, not
//!   named hosts.
//! * [`SchedRegime::Fractional`] — dynamic fractional sharing
//!   (processor-sharing): every job is admitted immediately and the
//!   running jobs on each host split it evenly, shares resized on
//!   every arrival and departure. A job's rate is the minimum share
//!   across its hosts; its dedicated-equivalent work (measured by a
//!   what-if actuation on the pristine testbed) drains at that rate.
//!   The realized per-host occupancy is written back onto the live
//!   topology as one batched [`StepSeries::with_impositions`] rebuild
//!   per host at the end of the run.
//!
//! ## Comparability contract
//!
//! All three regimes consume the same `Vec<JobSpec>` (same seed →
//! same arrivals, same kinds) and the same realized [`FaultSpec`]
//! (keyed by the grid seed): [`run_regime_jobs_with_sink`] and
//! [`GridService::run`] dispatch every regime through one shared
//! prologue that applies the faults and orders the jobs, and one
//! shared epilogue that reduces the records to fleet metrics. Every
//! submitted job appears exactly once in the outcome records, completed
//! or failed — no regime may lose or duplicate work. Stretch, slowdown
//! and goodput comparisons ride on that invariant; the regime-race
//! bench (`bench::regime_race`) and the property tests below enforce
//! it.
//!
//! ## Modeling simplifications
//!
//! The batch queue is space-shared: host exclusivity comes from the
//! queue itself, so completed batch jobs do not write load back into
//! the topology, and link contention between co-running batch jobs is
//! not modeled (background load from the testbed profile still is).
//! Failed attempts tear down instantly, as in the selfish stream.
//! The fractional regime is host-centric: link faults are ignored,
//! `max_in_flight` does not apply (processor sharing has no queue),
//! and a host crash revokes its residents entirely — a restarted job
//! loses its progress (no checkpointing across PS restarts).
//!
//! [`StepSeries::with_impositions`]: metasim::load::StepSeries::with_impositions
//! [`FaultSpec`]: metasim::FaultSpec
//! [`GridService::run`]: crate::GridService::run

use crate::metrics::{slowdown_of, JobRecord};
use crate::service::{
    build_topology, decide_with_prediction, host_names_of, outcome, retryable, run_selfish,
    GridConfig, GridError, GridOutcome, Stream,
};
use crate::workload::{JobKind, JobSpec, RetryPolicy};
use apples::actuator::actuate_with_sink;
use apples::hat::Hat;
use apples::info::InfoPool;
use apples::schedule::Schedule;
use apples::ApplesError;
use metasim::load::Imposition;
use metasim::simtrace::{EventSink, NoopSink, TraceEvent};
use metasim::{HostId, SimTime, Topology};
use simcore::EventQueue;
use std::collections::BTreeMap;
use std::collections::BTreeSet;

/// Which scheduling policy governs the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedRegime {
    /// First-decider-wins selfish AppLeS agents (the paper's world).
    Selfish,
    /// Centralized FCFS batch queue with EASY backfilling, using the
    /// AppLeS estimator's predictions as the reservation oracle.
    Batch,
    /// Dynamic fractional sharing: running jobs hold CPU *fractions*,
    /// resized on every arrival and departure.
    Fractional,
}

impl SchedRegime {
    /// Every regime, in canonical race order.
    pub const ALL: [SchedRegime; 3] = [
        SchedRegime::Selfish,
        SchedRegime::Batch,
        SchedRegime::Fractional,
    ];

    /// Stable kebab-case name (CLI flag value, metrics label).
    pub fn name(self) -> &'static str {
        match self {
            SchedRegime::Selfish => "selfish",
            SchedRegime::Batch => "batch",
            SchedRegime::Fractional => "fractional",
        }
    }

    /// Parse a CLI flag value. Accepts the canonical names only.
    pub fn parse(s: &str) -> Option<SchedRegime> {
        match s {
            "selfish" => Some(SchedRegime::Selfish),
            "batch" => Some(SchedRegime::Batch),
            "fractional" => Some(SchedRegime::Fractional),
            _ => None,
        }
    }
}

impl std::fmt::Display for SchedRegime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Stream an explicit job list (offsets from stream start) under
/// `regime`. `duration` is the submission-window length used for
/// throughput and utilization denominators.
///
/// This is the one unvalidated entry point: it builds the testbed once
/// and lends it to the regime's engine; [`crate::GridService::run`] is
/// the validated one. Its name and signature are pinned because the
/// repository benchmark (`appbench/`) calls it.
pub fn run_regime_jobs_with_sink(
    cfg: &GridConfig,
    regime: SchedRegime,
    jobs: &[JobSpec],
    duration: SimTime,
    retry: RetryPolicy,
    sink: &mut dyn EventSink,
) -> Result<GridOutcome, GridError> {
    run_on(
        cfg,
        &build_topology(cfg)?,
        regime,
        jobs,
        duration,
        retry,
        sink,
    )
}

/// Run the shared prologue over the borrowed `pristine` testbed, then
/// dispatch to `regime`'s engine.
pub(crate) fn run_on(
    cfg: &GridConfig,
    pristine: &Topology,
    regime: SchedRegime,
    jobs: &[JobSpec],
    duration: SimTime,
    retry: RetryPolicy,
    sink: &mut dyn EventSink,
) -> Result<GridOutcome, GridError> {
    let stream = Stream::start(cfg, regime, pristine, jobs, duration, retry, sink)?;
    match regime {
        SchedRegime::Selfish => run_selfish(cfg, pristine, stream, sink),
        SchedRegime::Batch => run_batch(cfg, pristine, stream, sink).map(|(o, _)| o),
        SchedRegime::Fractional => run_fractional(cfg, pristine, stream, sink).map(|(o, _)| o),
    }
}

/// One job's static plan, made once on the pristine testbed.
///
/// The centralized regimes plan without NWS forecasts: a batch system
/// knows the machines it owns, not the weather between them, and the
/// pristine pool keeps planning independent of queue state — the
/// prediction depends only on (kind, excluded hosts), which is what
/// makes it usable as a reservation oracle.
#[derive(Clone)]
struct Planned {
    hat: Hat,
    schedule: Schedule,
    predicted_seconds: f64,
    hosts: Vec<HostId>,
}

/// Plan `kind` on the pristine testbed with `excluded` hosts removed
/// from consideration, surfacing the estimator's runtime prediction.
fn plan_static(
    topo: &Topology,
    kind: &JobKind,
    excluded: &[HostId],
    now: SimTime,
    sink: &mut dyn EventSink,
) -> Result<Planned, ApplesError> {
    let (hat, mut user) = kind.hat_and_user();
    user.excluded_hosts.extend(excluded.iter().copied());
    let (schedule, predicted_seconds) = {
        let pool = InfoPool::static_nominal(topo, &hat, &user, now);
        decide_with_prediction(kind, &pool, sink)?
    };
    let hosts = schedule.hosts();
    Ok(Planned {
        hat,
        schedule,
        predicted_seconds,
        hosts,
    })
}

// ---------------------------------------------------------------------
// Batch: FCFS + EASY backfilling
// ---------------------------------------------------------------------

/// One backfill decision, for auditing the EASY invariant: starting a
/// job out of order must never push the head-of-queue reservation
/// later.
#[derive(Debug, Clone, PartialEq)]
pub struct BackfillEntry {
    /// Submission-order id of the backfilled job.
    pub job: usize,
    /// When it was started out of order.
    pub at: SimTime,
    /// Head-of-queue reservation before the backfill started.
    pub reservation_before: SimTime,
    /// Head-of-queue reservation after — must be `<= reservation_before`.
    pub reservation_after: SimTime,
}

/// Audit log of the batch scheduler's out-of-order decisions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchLog {
    /// Every backfill, in decision order.
    pub backfills: Vec<BackfillEntry>,
}

/// Event classes at equal times: completions free hosts before
/// (re-)enqueues observe the queue.
const EV_COMPLETED: u8 = 0;
const EV_ENQUEUE: u8 = 1;

enum BatchEvent {
    /// A running job's hosts drain (its actuation already finished;
    /// this frees them for the queue).
    Completed { idx: usize },
    /// A job (first arrival or retry) asks to be queued.
    Enqueue { idx: usize },
}

struct BatchState<'a> {
    spec: &'a JobSpec,
    submit: SimTime,
    attempts: u32,
    dead_hosts: Vec<HostId>,
    planned: Option<Planned>,
    announced: bool,
}

struct Running {
    idx: usize,
    hosts: Vec<HostId>,
    /// Predicted drain time from the estimator — the reservation
    /// oracle. Actual completion may differ; EASY only promises the
    /// head is never delayed *relative to the predictions*.
    predicted_end: SimTime,
}

struct BatchRun<'a> {
    cfg: &'a GridConfig,
    retry: RetryPolicy,
    duration: SimTime,
    /// Fault-free snapshot used for planning and prediction.
    pristine: &'a Topology,
    /// Live (fault-injected) topology used for actuation.
    topo: Topology,
    states: Vec<BatchState<'a>>,
    /// FCFS queue of state indices, ordered by (enqueue time, id).
    queue: Vec<(SimTime, usize, usize)>,
    running: Vec<Running>,
    events: EventQueue<(SimTime, u8), BatchEvent>,
    records: Vec<JobRecord>,
    log: BatchLog,
    sink: &'a mut dyn EventSink,
}

/// Run the centralized batch queue, returning the outcome and the
/// backfill audit log.
pub fn run_batch_with_log(
    cfg: &GridConfig,
    jobs: &[JobSpec],
    duration: SimTime,
    retry: RetryPolicy,
    sink: &mut dyn EventSink,
) -> Result<(GridOutcome, BatchLog), GridError> {
    let pristine = build_topology(cfg)?;
    let stream = Stream::start(
        cfg,
        SchedRegime::Batch,
        &pristine,
        jobs,
        duration,
        retry,
        sink,
    )?;
    run_batch(cfg, &pristine, stream, sink)
}

/// The batch engine over a started stream.
fn run_batch<'a>(
    cfg: &'a GridConfig,
    pristine: &'a Topology,
    stream: Stream<'a>,
    sink: &'a mut dyn EventSink,
) -> Result<(GridOutcome, BatchLog), GridError> {
    let states: Vec<BatchState<'_>> = stream
        .jobs
        .iter()
        .map(|j| BatchState {
            spec: j,
            submit: cfg.warmup + j.submit,
            attempts: 0,
            dead_hosts: Vec::new(),
            planned: None,
            announced: false,
        })
        .collect();

    let mut run = BatchRun {
        cfg,
        retry: stream.retry,
        duration: stream.duration,
        pristine,
        topo: stream.live,
        states,
        queue: Vec::new(),
        running: Vec::new(),
        events: EventQueue::new(),
        records: Vec::new(),
        log: BatchLog::default(),
        sink,
    };
    for idx in 0..run.states.len() {
        let at = run.states[idx].submit;
        run.events
            .schedule((at, EV_ENQUEUE), BatchEvent::Enqueue { idx });
    }
    run.run()
}

impl BatchRun<'_> {
    fn run(mut self) -> Result<(GridOutcome, BatchLog), GridError> {
        while let Some(((now, _), _, ev)) = self.events.pop() {
            match ev {
                BatchEvent::Completed { idx } => self.running.retain(|r| r.idx != idx),
                BatchEvent::Enqueue { idx } => self.process_enqueue(idx, now)?,
            }
            self.try_start_queued(now)?;
        }
        self.records.sort_by_key(|r| r.id);
        Ok((outcome(&self.topo, self.records, self.duration), self.log))
    }

    fn process_enqueue(&mut self, idx: usize, now: SimTime) -> Result<(), GridError> {
        let id = self.states[idx].spec.id;
        if !self.states[idx].announced {
            self.states[idx].announced = true;
            if self.sink.enabled() {
                self.sink.record(TraceEvent::JobSubmitted {
                    job: id,
                    kind: self.states[idx].spec.kind.name().to_string(),
                    at: now,
                });
            }
        }
        match plan_static(
            self.pristine,
            &self.states[idx].spec.kind,
            &self.states[idx].dead_hosts,
            now,
            self.sink,
        ) {
            Ok(p) => {
                self.states[idx].planned = Some(p);
                let key = (now, id);
                let pos = self.queue.partition_point(|&(t, i, _)| (t, i) < key);
                self.queue.insert(pos, (now, id, idx));
            }
            Err(err) => {
                // A planning failure consumes an attempt, mirroring the
                // selfish stream's accounting.
                self.states[idx].attempts += 1;
                if self.sink.enabled() {
                    self.sink.record(TraceEvent::JobDispatched {
                        job: id,
                        at: now,
                        attempt: self.states[idx].attempts,
                    });
                }
                self.handle_attempt_failure(idx, now, err)?;
            }
        }
        Ok(())
    }

    fn hosts_free(&self, hosts: &[HostId]) -> bool {
        hosts
            .iter()
            .all(|h| !self.running.iter().any(|r| r.hosts.contains(h)))
    }

    /// Earliest time the queue head's hosts are all predicted free:
    /// the latest predicted end among running jobs it overlaps.
    fn reservation_for(&self, hosts: &[HostId], now: SimTime) -> SimTime {
        self.running
            .iter()
            .filter(|r| r.hosts.iter().any(|h| hosts.contains(h)))
            .map(|r| r.predicted_end)
            .max()
            .unwrap_or(now)
    }

    fn try_start_queued(&mut self, now: SimTime) -> Result<(), GridError> {
        loop {
            let Some(&(_, _, head)) = self.queue.first() else {
                return Ok(());
            };
            if self.running.len() >= self.cfg.max_in_flight {
                return Ok(());
            }
            let head_hosts = self.states[head]
                .planned
                .as_ref()
                .map(|p| p.hosts.clone())
                .ok_or_else(|| GridError::Internal("queued job has no plan".into()))?;
            if self.hosts_free(&head_hosts) {
                self.queue.remove(0);
                self.start_job(head, now)?;
                continue;
            }
            // EASY: the head holds a reservation at the predicted drain
            // of its hosts. A later job may start out of order only if
            // its hosts are free *now* and it cannot delay that
            // reservation — either it touches none of the head's hosts,
            // or its own predicted end fits before the reservation.
            //
            // Candidates are *moldable*: an AppLeS job is a request for
            // performance, not for named hosts, so when a candidate's
            // enqueue-time plan is blocked the scan replans it against
            // the hosts that are free right now. Without this, every
            // plan converges on the same fastest hosts and EASY never
            // finds a startable candidate.
            let resv = self.reservation_for(&head_hosts, now);
            let busy: Vec<HostId> = self
                .running
                .iter()
                .flat_map(|r| r.hosts.iter().copied())
                .collect();
            let mut chosen = None;
            for qi in 1..self.queue.len() {
                let (_, _, idx) = self.queue[qi];
                let Some(p) = self.states[idx].planned.as_ref() else {
                    continue;
                };
                let candidate = if self.hosts_free(&p.hosts) {
                    Some(p.clone())
                } else {
                    let mut excluded = self.states[idx].dead_hosts.clone();
                    excluded.extend(busy.iter().copied());
                    plan_static(
                        self.pristine,
                        &self.states[idx].spec.kind,
                        &excluded,
                        now,
                        &mut NoopSink,
                    )
                    .ok()
                };
                let Some(p) = candidate else {
                    continue;
                };
                let disjoint = p.hosts.iter().all(|h| !head_hosts.contains(h));
                let predicted_end = now
                    .checked_add(SimTime::from_secs_f64(p.predicted_seconds.max(0.0)))
                    .unwrap_or(SimTime::MAX);
                if disjoint || predicted_end <= resv {
                    self.states[idx].planned = Some(p);
                    chosen = Some(qi);
                    break;
                }
            }
            let Some(qi) = chosen else {
                return Ok(());
            };
            let (_, _, idx) = self.queue.remove(qi);
            let id = self.states[idx].spec.id;
            if self.sink.enabled() {
                self.sink.record(TraceEvent::JobBackfilled {
                    job: id,
                    at: now,
                    reservation: resv,
                });
            }
            self.start_job(idx, now)?;
            let after = self.reservation_for(&head_hosts, now);
            self.log.backfills.push(BackfillEntry {
                job: id,
                at: now,
                reservation_before: resv,
                reservation_after: after,
            });
        }
    }

    fn start_job(&mut self, idx: usize, now: SimTime) -> Result<(), GridError> {
        let id = self.states[idx].spec.id;
        let submit = self.states[idx].submit;
        self.states[idx].attempts += 1;
        let attempts = self.states[idx].attempts;
        let planned = self.states[idx]
            .planned
            .clone()
            .ok_or_else(|| GridError::Internal("started job has no plan".into()))?;
        if self.sink.enabled() {
            self.sink.record(TraceEvent::JobDispatched {
                job: id,
                at: now,
                attempt: attempts,
            });
        }
        match actuate_with_sink(&self.topo, &planned.hat, &planned.schedule, now, self.sink) {
            Ok(report) => {
                let hosts = host_names_of(&self.topo, &planned.hosts)?;
                let wait_seconds = now.saturating_sub(submit).as_secs_f64();
                if self.sink.enabled() {
                    self.sink.record(TraceEvent::JobCompleted {
                        job: id,
                        at: report.finish,
                        exec_seconds: report.elapsed_seconds,
                    });
                }
                let predicted_end = now
                    .checked_add(SimTime::from_secs_f64(planned.predicted_seconds.max(0.0)))
                    .unwrap_or(SimTime::MAX);
                self.running.push(Running {
                    idx,
                    hosts: planned.hosts,
                    predicted_end,
                });
                self.events
                    .schedule((report.finish, EV_COMPLETED), BatchEvent::Completed { idx });
                self.records.push(JobRecord {
                    id,
                    kind: self.states[idx].spec.kind.name().to_string(),
                    submit,
                    start: now,
                    finish: report.finish,
                    hosts,
                    wait_seconds,
                    exec_seconds: report.elapsed_seconds,
                    slowdown: slowdown_of(wait_seconds, report.elapsed_seconds),
                    attempts,
                    reschedules: 0,
                    completed: true,
                });
            }
            Err(err) => self.handle_attempt_failure(idx, now, err)?,
        }
        Ok(())
    }

    fn handle_attempt_failure(
        &mut self,
        idx: usize,
        now: SimTime,
        err: ApplesError,
    ) -> Result<(), GridError> {
        let id = self.states[idx].spec.id;
        let Some((lost_host, lost_at)) = retryable(&err) else {
            return Err(GridError::Job {
                id,
                message: err.to_string(),
            });
        };
        if let Some(h) = lost_host {
            if !self.states[idx].dead_hosts.contains(&h) {
                self.states[idx].dead_hosts.push(h);
            }
        }
        let attempts = self.states[idx].attempts;
        let give_up = lost_at.unwrap_or(now).max(now);
        if attempts >= self.retry.max_attempts {
            let submit = self.states[idx].submit;
            let wait_seconds = give_up.saturating_sub(submit).as_secs_f64();
            if self.sink.enabled() {
                self.sink.record(TraceEvent::JobFailed {
                    job: id,
                    at: give_up,
                    attempts,
                });
            }
            self.records.push(JobRecord {
                id,
                kind: self.states[idx].spec.kind.name().to_string(),
                submit,
                start: now,
                finish: give_up,
                hosts: Vec::new(),
                wait_seconds,
                exec_seconds: 0.0,
                slowdown: slowdown_of(wait_seconds, 0.0),
                attempts,
                reschedules: 0,
                completed: false,
            });
            return Ok(());
        }
        let retry_at = give_up
            + self
                .retry
                .backoff_jittered(attempts, self.cfg.seed ^ id as u64);
        if self.sink.enabled() {
            self.sink.record(TraceEvent::JobRetried {
                job: id,
                at: retry_at,
                attempt: attempts,
            });
        }
        self.events
            .schedule((retry_at, EV_ENQUEUE), BatchEvent::Enqueue { idx });
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Fractional: dynamic fractional sharing (processor sharing)
// ---------------------------------------------------------------------

/// Residual work below this many dedicated-equivalent seconds counts
/// as done. The event loop advances time in integer microseconds
/// (rounding gaps up), so the residual after a predicted departure is
/// at most `share × 1 µs` — comfortably under this bound, which is
/// what guarantees every predicted departure actually completes a job.
const WORK_EPS: f64 = 1e-6;

/// One constant-share interval on one host: between two consecutive
/// scheduling events the resident set is fixed, so the summed share is
/// too. `total_share` over a host never exceeds 1.0 — the property the
/// share-conservation test pins down.
#[derive(Debug, Clone, PartialEq)]
pub struct ShareSample {
    /// The host whose capacity is being split.
    pub host: HostId,
    /// Interval start (inclusive).
    pub from: SimTime,
    /// Interval end (exclusive).
    pub to: SimTime,
    /// Sum of resident jobs' shares on this host over the interval.
    pub total_share: f64,
}

/// Audit log of the fractional scheduler's share assignments.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FractionalLog {
    /// Every constant-share interval, in simulation order.
    pub samples: Vec<ShareSample>,
}

/// Event classes at equal times: recoveries first (a re-queued job may
/// use the recovered host), then crashes (an arrival must not plan
/// onto a host dying this instant), then enqueues.
const EV_HOST_UP: u8 = 0;
const EV_HOST_DOWN: u8 = 1;
const EV_FRAC_ENQUEUE: u8 = 2;

enum FracEvent {
    HostUp(HostId),
    HostDown(HostId),
    Enqueue { idx: usize },
}

struct FracState<'a> {
    spec: &'a JobSpec,
    submit: SimTime,
    attempts: u32,
    dead_hosts: Vec<HostId>,
    announced: bool,
}

struct ActiveJob {
    idx: usize,
    id: usize,
    start: SimTime,
    /// Dedicated-equivalent work left, in seconds. Work, not a
    /// timestamp: it drains at the job's fractional rate.
    remaining: f64,
    hosts: Vec<HostId>,
}

struct FracRun<'a> {
    cfg: &'a GridConfig,
    retry: RetryPolicy,
    duration: SimTime,
    /// Fault-free snapshot used for planning and dedicated what-if
    /// actuation.
    pristine: &'a Topology,
    /// Live topology: faults applied up front, realized occupancy
    /// written back at the end.
    live: Topology,
    states: Vec<FracState<'a>>,
    active: Vec<ActiveJob>,
    down: BTreeSet<HostId>,
    events: EventQueue<(SimTime, u8), FracEvent>,
    records: Vec<JobRecord>,
    samples: Vec<ShareSample>,
    impositions: BTreeMap<HostId, Vec<Imposition>>,
    sink: &'a mut dyn EventSink,
}

/// Run the dynamic fractional-sharing scheduler, returning the outcome
/// and the share audit log.
pub fn run_fractional_with_log(
    cfg: &GridConfig,
    jobs: &[JobSpec],
    duration: SimTime,
    retry: RetryPolicy,
    sink: &mut dyn EventSink,
) -> Result<(GridOutcome, FractionalLog), GridError> {
    let pristine = build_topology(cfg)?;
    let stream = Stream::start(
        cfg,
        SchedRegime::Fractional,
        &pristine,
        jobs,
        duration,
        retry,
        sink,
    )?;
    run_fractional(cfg, &pristine, stream, sink)
}

/// The fractional engine over a started stream.
fn run_fractional<'a>(
    cfg: &'a GridConfig,
    pristine: &'a Topology,
    stream: Stream<'a>,
    sink: &'a mut dyn EventSink,
) -> Result<(GridOutcome, FractionalLog), GridError> {
    let states: Vec<FracState<'_>> = stream
        .jobs
        .iter()
        .map(|j| FracState {
            spec: j,
            submit: cfg.warmup + j.submit,
            attempts: 0,
            dead_hosts: Vec::new(),
            announced: false,
        })
        .collect();

    let mut run = FracRun {
        cfg,
        retry: stream.retry,
        duration: stream.duration,
        pristine,
        live: stream.live,
        states,
        active: Vec::new(),
        down: BTreeSet::new(),
        events: EventQueue::new(),
        records: Vec::new(),
        samples: Vec::new(),
        impositions: BTreeMap::new(),
        sink,
    };
    for idx in 0..run.states.len() {
        let at = run.states[idx].submit;
        run.events
            .schedule((at, EV_FRAC_ENQUEUE), FracEvent::Enqueue { idx });
    }
    for f in &stream.faults.host_faults {
        run.events
            .schedule((f.at, EV_HOST_DOWN), FracEvent::HostDown(f.host));
        if let Some(r) = f.recover {
            run.events
                .schedule((r, EV_HOST_UP), FracEvent::HostUp(f.host));
        }
    }
    run.run()
}

impl FracRun<'_> {
    fn run(mut self) -> Result<(GridOutcome, FractionalLog), GridError> {
        let mut now = SimTime::ZERO;
        loop {
            let dep = self.next_departure(now);
            let stat = self.events.peek_time();
            match (dep, stat) {
                (None, None) => break,
                // Departures win ties: a finished job must release its
                // shares before a simultaneous arrival sees the pool.
                (Some((t, _)), stat) if stat.is_none_or(|s| t <= s.0) => {
                    self.advance_to(now, t);
                    now = t;
                    self.complete_ready(now)?;
                }
                _ => {
                    let Some(((t, _), _, ev)) = self.events.pop() else {
                        break;
                    };
                    self.advance_to(now, t);
                    now = t;
                    match ev {
                        FracEvent::HostUp(h) => {
                            self.down.remove(&h);
                        }
                        FracEvent::HostDown(h) => self.host_down(h, now)?,
                        FracEvent::Enqueue { idx } => self.process_enqueue(idx, now)?,
                    }
                }
            }
        }
        self.finish()
    }

    /// A job's fractional rate: the minimum over its hosts of an even
    /// split among that host's residents.
    fn share_of(&self, job: &ActiveJob) -> f64 {
        let mut share = 1.0f64;
        for &h in &job.hosts {
            let residents = self.active.iter().filter(|o| o.hosts.contains(&h)).count();
            share = share.min(1.0 / residents.max(1) as f64);
        }
        share
    }

    /// Earliest predicted departure given current shares; ties broken
    /// by job id for determinism.
    fn next_departure(&self, now: SimTime) -> Option<(SimTime, usize)> {
        let mut best: Option<(SimTime, usize)> = None;
        for j in &self.active {
            let share = self.share_of(j);
            if share <= 0.0 {
                continue;
            }
            let dt_secs = (j.remaining / share).max(0.0);
            let t = now
                .checked_add(SimTime::from_secs_f64(dt_secs))
                .unwrap_or(SimTime::MAX);
            let key = (t, j.id);
            match best {
                None => best = Some(key),
                Some(b) if key < b => best = Some(key),
                _ => {}
            }
        }
        best
    }

    /// Drain every active job's work over `[now, until)` at the shares
    /// in force (no event fires inside the interval, so shares are
    /// constant), and record the per-host occupancy for the final
    /// write-back.
    fn advance_to(&mut self, now: SimTime, until: SimTime) {
        if until <= now || self.active.is_empty() {
            return;
        }
        let dt = until.saturating_sub(now).as_secs_f64();
        let shares: Vec<f64> = self.active.iter().map(|j| self.share_of(j)).collect();
        let mut per_host: BTreeMap<HostId, f64> = BTreeMap::new();
        for (j, s) in self.active.iter().zip(shares.iter()) {
            for &h in &j.hosts {
                *per_host.entry(h).or_insert(0.0) += *s;
            }
        }
        for (h, total) in per_host {
            self.samples.push(ShareSample {
                host: h,
                from: now,
                to: until,
                total_share: total,
            });
            let factor = (1.0 - total).max(0.0);
            let imps = self.impositions.entry(h).or_default();
            match imps.last_mut() {
                // Extend the previous window when the factor is
                // bit-identical — adjacent equal steps collapse into
                // one imposition.
                Some(last)
                    if last.to == now
                        && last.factor.total_cmp(&factor) == std::cmp::Ordering::Equal =>
                {
                    last.to = until;
                }
                _ => imps.push(Imposition::new(now, until, factor)),
            }
        }
        for (j, s) in self.active.iter_mut().zip(shares.iter()) {
            j.remaining -= dt * *s;
        }
    }

    /// Complete every active job whose work has drained, in id order.
    fn complete_ready(&mut self, now: SimTime) -> Result<(), GridError> {
        let mut ready: Vec<usize> = self
            .active
            .iter()
            .filter(|j| j.remaining <= WORK_EPS)
            .map(|j| j.id)
            .collect();
        ready.sort_unstable();
        for id in ready {
            let Some(pos) = self.active.iter().position(|j| j.id == id) else {
                continue;
            };
            let j = self.active.remove(pos);
            let st = &self.states[j.idx];
            let exec_seconds = now.saturating_sub(j.start).as_secs_f64();
            let wait_seconds = j.start.saturating_sub(st.submit).as_secs_f64();
            let hosts = host_names_of(self.pristine, &j.hosts)?;
            if self.sink.enabled() {
                self.sink.record(TraceEvent::JobCompleted {
                    job: j.id,
                    at: now,
                    exec_seconds,
                });
            }
            self.records.push(JobRecord {
                id: j.id,
                kind: st.spec.kind.name().to_string(),
                submit: st.submit,
                start: j.start,
                finish: now,
                hosts,
                wait_seconds,
                exec_seconds,
                slowdown: slowdown_of(wait_seconds, exec_seconds),
                attempts: st.attempts,
                reschedules: 0,
                completed: true,
            });
        }
        Ok(())
    }

    /// A host crash revokes every resident: the job restarts from
    /// scratch (no PS checkpointing) under the retry policy.
    fn host_down(&mut self, h: HostId, now: SimTime) -> Result<(), GridError> {
        self.down.insert(h);
        let victims: Vec<usize> = self
            .active
            .iter()
            .filter(|j| j.hosts.contains(&h))
            .map(|j| j.id)
            .collect();
        for id in victims {
            let Some(pos) = self.active.iter().position(|j| j.id == id) else {
                continue;
            };
            let j = self.active.remove(pos);
            if self.sink.enabled() {
                self.sink
                    .record(TraceEvent::PlacementRevoked { host: h, at: now });
            }
            let idx = j.idx;
            if !self.states[idx].dead_hosts.contains(&h) {
                self.states[idx].dead_hosts.push(h);
            }
            let attempts = self.states[idx].attempts;
            if attempts >= self.retry.max_attempts {
                let st = &self.states[idx];
                let wait_seconds = now.saturating_sub(st.submit).as_secs_f64();
                if self.sink.enabled() {
                    self.sink.record(TraceEvent::JobFailed {
                        job: id,
                        at: now,
                        attempts,
                    });
                }
                self.records.push(JobRecord {
                    id,
                    kind: st.spec.kind.name().to_string(),
                    submit: st.submit,
                    start: j.start,
                    finish: now,
                    hosts: Vec::new(),
                    wait_seconds,
                    exec_seconds: 0.0,
                    slowdown: slowdown_of(wait_seconds, 0.0),
                    attempts,
                    reschedules: 0,
                    completed: false,
                });
            } else {
                let retry_at = now
                    + self
                        .retry
                        .backoff_jittered(attempts, self.cfg.seed ^ id as u64);
                if self.sink.enabled() {
                    self.sink.record(TraceEvent::JobRetried {
                        job: id,
                        at: retry_at,
                        attempt: attempts,
                    });
                }
                self.events
                    .schedule((retry_at, EV_FRAC_ENQUEUE), FracEvent::Enqueue { idx });
            }
        }
        Ok(())
    }

    fn process_enqueue(&mut self, idx: usize, now: SimTime) -> Result<(), GridError> {
        let id = self.states[idx].spec.id;
        if !self.states[idx].announced {
            self.states[idx].announced = true;
            if self.sink.enabled() {
                self.sink.record(TraceEvent::JobSubmitted {
                    job: id,
                    kind: self.states[idx].spec.kind.name().to_string(),
                    at: now,
                });
            }
        }
        self.states[idx].attempts += 1;
        let attempts = self.states[idx].attempts;
        if self.sink.enabled() {
            self.sink.record(TraceEvent::JobDispatched {
                job: id,
                at: now,
                attempt: attempts,
            });
        }
        // A central PS scheduler sees the whole system: exclude both
        // hosts this job has watched die and hosts currently down.
        let mut excluded = self.states[idx].dead_hosts.clone();
        excluded.extend(self.down.iter().copied());
        let outcome = plan_static(
            self.pristine,
            &self.states[idx].spec.kind,
            &excluded,
            now,
            self.sink,
        )
        .and_then(|p| {
            // What-if actuation on the pristine testbed measures the
            // job's dedicated-equivalent work; the executor events are
            // hypothetical, so they go to a noop sink.
            actuate_with_sink(self.pristine, &p.hat, &p.schedule, now, &mut NoopSink)
                .map(|report| (p, report))
        });
        match outcome {
            Ok((p, report)) => {
                // The what-if run above is the only place the dedicated
                // execution time of this attempt is known; publish it so
                // profilers can split the PS window into compute vs.
                // dilution (the executor trace has no events for it).
                if self.sink.enabled() {
                    self.sink.record(TraceEvent::JobWorkMeasured {
                        job: id,
                        at: now,
                        dedicated_seconds: report.elapsed_seconds.max(0.0),
                    });
                }
                self.active.push(ActiveJob {
                    idx,
                    id,
                    start: now,
                    remaining: report.elapsed_seconds.max(0.0),
                    hosts: p.hosts,
                });
            }
            Err(err) => self.handle_failure(idx, now, err)?,
        }
        Ok(())
    }

    fn handle_failure(
        &mut self,
        idx: usize,
        now: SimTime,
        err: ApplesError,
    ) -> Result<(), GridError> {
        let id = self.states[idx].spec.id;
        let Some((lost_host, lost_at)) = retryable(&err) else {
            return Err(GridError::Job {
                id,
                message: err.to_string(),
            });
        };
        if let Some(h) = lost_host {
            if !self.states[idx].dead_hosts.contains(&h) {
                self.states[idx].dead_hosts.push(h);
            }
        }
        let attempts = self.states[idx].attempts;
        let give_up = lost_at.unwrap_or(now).max(now);
        if attempts >= self.retry.max_attempts {
            let st = &self.states[idx];
            let wait_seconds = give_up.saturating_sub(st.submit).as_secs_f64();
            if self.sink.enabled() {
                self.sink.record(TraceEvent::JobFailed {
                    job: id,
                    at: give_up,
                    attempts,
                });
            }
            self.records.push(JobRecord {
                id,
                kind: st.spec.kind.name().to_string(),
                submit: st.submit,
                start: now,
                finish: give_up,
                hosts: Vec::new(),
                wait_seconds,
                exec_seconds: 0.0,
                slowdown: slowdown_of(wait_seconds, 0.0),
                attempts,
                reschedules: 0,
                completed: false,
            });
            return Ok(());
        }
        let retry_at = give_up
            + self
                .retry
                .backoff_jittered(attempts, self.cfg.seed ^ id as u64);
        if self.sink.enabled() {
            self.sink.record(TraceEvent::JobRetried {
                job: id,
                at: retry_at,
                attempt: attempts,
            });
        }
        self.events
            .schedule((retry_at, EV_FRAC_ENQUEUE), FracEvent::Enqueue { idx });
        Ok(())
    }

    /// Write the realized per-host occupancy back onto the live
    /// topology: one batched [`with_impositions`] rebuild per host —
    /// the high-rate path the incremental sweep in `metasim::load` was
    /// built for.
    ///
    /// [`with_impositions`]: metasim::load::StepSeries::with_impositions
    fn finish(mut self) -> Result<(GridOutcome, FractionalLog), GridError> {
        let impositions = std::mem::take(&mut self.impositions);
        for (h, imps) in &impositions {
            let hm = self.live.host_mut(*h)?;
            let scaled = hm.availability().with_impositions(imps);
            hm.set_availability(scaled);
            if self.sink.enabled() {
                for imp in imps {
                    self.sink.record(TraceEvent::LoadImposed {
                        host: *h,
                        at: imp.from,
                        until: imp.to,
                        factor: imp.factor,
                    });
                }
            }
        }
        self.records.sort_by_key(|r| r.id);
        Ok((
            outcome(&self.live, self.records, self.duration),
            FractionalLog {
                samples: self.samples,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{ArrivalProcess, JobMix, WorkloadConfig};
    use crate::GridService;
    use metasim::{FaultSpec, HostFault};

    fn small_workload(seed: u64) -> WorkloadConfig {
        WorkloadConfig {
            arrivals: ArrivalProcess::Uniform {
                gap: SimTime::from_secs(500),
            },
            mix: JobMix::default_mix(),
            duration: SimTime::from_secs(4000),
            seed,
            retry: RetryPolicy::default(),
        }
    }

    fn cfg() -> GridConfig {
        GridConfig::default()
    }

    #[test]
    fn regime_names_round_trip() {
        for r in SchedRegime::ALL {
            assert_eq!(SchedRegime::parse(r.name()), Some(r));
            assert_eq!(format!("{r}"), r.name());
        }
        assert_eq!(SchedRegime::parse("gang"), None);
    }

    #[test]
    fn all_regimes_schedule_the_same_job_set() {
        let cfg = cfg();
        let w = small_workload(42);
        let jobs = w.realize();
        let ids: Vec<usize> = jobs.iter().map(|j| j.id).collect();
        for regime in SchedRegime::ALL {
            let out = GridService::new(cfg.clone())
                .and_then(|svc| svc.run(regime, &w, &mut NoopSink))
                .unwrap();
            let mut got: Vec<usize> = out.records.iter().map(|r| r.id).collect();
            got.sort_unstable();
            let mut want = ids.clone();
            want.sort_unstable();
            assert_eq!(got, want, "regime {regime} lost or duplicated jobs");
        }
    }

    #[test]
    fn regimes_are_deterministic_per_seed() {
        let cfg = cfg();
        let w = small_workload(7);
        for regime in SchedRegime::ALL {
            let a = GridService::new(cfg.clone())
                .and_then(|svc| svc.run(regime, &w, &mut NoopSink))
                .unwrap();
            let b = GridService::new(cfg.clone())
                .and_then(|svc| svc.run(regime, &w, &mut NoopSink))
                .unwrap();
            assert_eq!(a.records, b.records, "regime {regime} not deterministic");
            assert_eq!(a.fleet, b.fleet);
        }
    }

    #[test]
    fn batch_backfills_never_delay_the_head_reservation() {
        let cfg = cfg();
        // Dense stream to force queueing and give EASY room to work.
        let w = WorkloadConfig {
            arrivals: ArrivalProcess::Uniform {
                gap: SimTime::from_secs(80),
            },
            duration: SimTime::from_secs(2000),
            ..small_workload(11)
        };
        let jobs = w.realize();
        let (out, log) =
            run_batch_with_log(&cfg, &jobs, w.duration, w.retry, &mut NoopSink).unwrap();
        assert_eq!(out.records.len(), jobs.len());
        assert!(
            !log.backfills.is_empty(),
            "a dense stream must exercise EASY backfilling, or this test is vacuous"
        );
        for b in &log.backfills {
            assert!(
                b.reservation_after <= b.reservation_before,
                "backfill of job {} delayed the head reservation: {:?} -> {:?}",
                b.job,
                b.reservation_before,
                b.reservation_after
            );
        }
    }

    #[test]
    fn fractional_shares_never_oversubscribe_a_host() {
        let cfg = cfg();
        let w = WorkloadConfig {
            arrivals: ArrivalProcess::Uniform {
                gap: SimTime::from_secs(120),
            },
            duration: SimTime::from_secs(2000),
            ..small_workload(13)
        };
        let jobs = w.realize();
        let (out, log) =
            run_fractional_with_log(&cfg, &jobs, w.duration, w.retry, &mut NoopSink).unwrap();
        assert_eq!(out.records.len(), jobs.len());
        assert!(
            !log.samples.is_empty(),
            "a busy stream must produce samples"
        );
        for s in &log.samples {
            assert!(
                s.total_share <= 1.0 + 1e-9,
                "host {:?} oversubscribed: total share {} on [{:?}, {:?})",
                s.host,
                s.total_share,
                s.from,
                s.to
            );
            assert!(s.total_share > 0.0);
            assert!(s.from < s.to);
        }
    }

    #[test]
    fn fractional_single_job_runs_at_full_speed() {
        let cfg = cfg();
        let jobs = vec![JobSpec {
            id: 0,
            submit: SimTime::ZERO,
            kind: JobKind::Jacobi {
                n: 800,
                iterations: 60,
            },
        }];
        let (out, log) = run_fractional_with_log(
            &cfg,
            &jobs,
            SimTime::from_secs(100),
            RetryPolicy::default(),
            &mut NoopSink,
        )
        .unwrap();
        let r = &out.records[0];
        assert!(r.completed);
        // Alone in the system: share is 1.0 everywhere, so the PS
        // finish equals the dedicated what-if duration (up to the
        // microsecond rounding of the departure event).
        for s in &log.samples {
            assert!((s.total_share - 1.0).abs() < 1e-12);
        }
        assert!(r.exec_seconds > 0.0);
    }

    #[test]
    fn regimes_survive_fault_injection_without_losing_jobs() {
        let mut cfg = cfg();
        cfg.faults = crate::service::FaultInjection::Spec(FaultSpec {
            host_faults: vec![HostFault {
                host: HostId(0),
                at: SimTime::from_secs(900),
                recover: Some(SimTime::from_secs(2500)),
            }],
            link_faults: Vec::new(),
        });
        let mut w = small_workload(5);
        w.retry = RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        };
        let jobs = w.realize();
        for regime in SchedRegime::ALL {
            let out = GridService::new(cfg.clone())
                .and_then(|svc| svc.run(regime, &w, &mut NoopSink))
                .unwrap();
            assert_eq!(
                out.records.len(),
                jobs.len(),
                "regime {regime} lost jobs under faults"
            );
        }
    }

    #[test]
    fn grid_service_runs_regimes_after_validation() {
        let svc = GridService::new(cfg()).unwrap();
        let w = small_workload(3);
        for regime in SchedRegime::ALL {
            let out = svc.run(regime, &w, &mut NoopSink).unwrap();
            assert!(!out.records.is_empty());
        }
    }
}
