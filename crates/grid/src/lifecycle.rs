//! The job lifecycle every regime shares: submit → dispatch →
//! complete, or fail → retry → … → fail for good.
//!
//! The regimes differ only in *how* they place an attempt. What happens
//! to a job around that decision — when it is announced, how attempts
//! are counted, which hosts later attempts avoid, how long a retry
//! backs off, when the budget runs out and what the finished record
//! says — is decided here, once, so a regime comparison measures the
//! scheduling policy and nothing else. Every call narrates its own
//! lifecycle event into the sink.

use crate::metrics::{slowdown_of, JobRecord};
use crate::service::GridError;
use crate::workload::{JobSpec, RetryPolicy};
use apples::ApplesError;
use metasim::simtrace::{EventSink, TraceEvent};
use metasim::{HostId, SimError, SimTime};

/// One job's lifecycle state.
pub(crate) struct Job<'a> {
    /// What to run.
    pub(crate) spec: &'a JobSpec,
    /// Absolute submission time (warmup included).
    pub(crate) submit: SimTime,
    /// When the latest attempt was dispatched.
    pub(crate) start: SimTime,
    /// Hosts the service has watched die under this job's placements;
    /// later attempts exclude them.
    pub(crate) dead_hosts: Vec<HostId>,
    attempts: u32,
    reschedules: u32,
    announced: bool,
}

/// What a failed attempt settles into.
pub(crate) enum Settled {
    /// The budget allows another attempt: re-enqueue the job at this
    /// time (backoff included).
    Retry(SimTime),
    /// Out of budget: the job's final, failed record.
    Failed(JobRecord),
}

/// Every job of a stream, in admission order, plus the retry rules they
/// all live under.
pub(crate) struct Ledger<'a> {
    jobs: Vec<Job<'a>>,
    retry: RetryPolicy,
    /// Backoff jitter salt: XORed with the job id.
    seed: u64,
}

impl<'a> Ledger<'a> {
    /// Order `specs` by `(submit, id)` — the admission order every
    /// regime sees — with submissions offset by `warmup`.
    pub(crate) fn new(
        specs: &'a [JobSpec],
        warmup: SimTime,
        retry: RetryPolicy,
        seed: u64,
    ) -> Ledger<'a> {
        let mut jobs: Vec<Job<'a>> = specs
            .iter()
            .map(|spec| Job {
                spec,
                submit: warmup + spec.submit,
                start: warmup + spec.submit,
                dead_hosts: Vec::new(),
                attempts: 0,
                reschedules: 0,
                announced: false,
            })
            .collect();
        jobs.sort_by_key(|j| (j.spec.submit, j.spec.id));
        Ledger { jobs, retry, seed }
    }

    /// Number of jobs in the stream.
    pub(crate) fn len(&self) -> usize {
        self.jobs.len()
    }

    /// The job at admission index `idx`.
    pub(crate) fn job(&self, idx: usize) -> &Job<'a> {
        &self.jobs[idx]
    }

    /// Announce the job at its submission time; later calls are no-ops.
    pub(crate) fn submit(&mut self, idx: usize, sink: &mut dyn EventSink) {
        let job = &mut self.jobs[idx];
        if job.announced {
            return;
        }
        job.announced = true;
        if sink.enabled() {
            sink.record(TraceEvent::JobSubmitted {
                job: job.spec.id,
                kind: job.spec.kind.name().to_string(),
                at: job.submit,
            });
        }
    }

    /// Start attempt number `attempts + 1` at `at`.
    pub(crate) fn dispatch(&mut self, idx: usize, at: SimTime, sink: &mut dyn EventSink) {
        let job = &mut self.jobs[idx];
        job.attempts += 1;
        job.start = at;
        if sink.enabled() {
            sink.record(TraceEvent::JobDispatched {
                job: job.spec.id,
                at,
                attempt: job.attempts,
            });
        }
    }

    /// Count mid-run revocations the current attempt survived by
    /// rescheduling onto other hosts.
    pub(crate) fn rescheduled(&mut self, idx: usize, revocations: usize) {
        // Saturate rather than truncate: a `usize as u32` cast would
        // silently wrap a pathological count.
        let job = &mut self.jobs[idx];
        job.reschedules = job
            .reschedules
            .saturating_add(u32::try_from(revocations).unwrap_or(u32::MAX));
    }

    /// The current attempt finished its work at `finish` after
    /// `exec_seconds` of execution on `hosts`: the job's final record.
    pub(crate) fn complete(
        &self,
        idx: usize,
        finish: SimTime,
        exec_seconds: f64,
        hosts: Vec<String>,
        sink: &mut dyn EventSink,
    ) -> JobRecord {
        let job = &self.jobs[idx];
        if sink.enabled() {
            sink.record(TraceEvent::JobCompleted {
                job: job.spec.id,
                at: finish,
                exec_seconds,
            });
        }
        let wait_seconds = job.start.saturating_sub(job.submit).as_secs_f64();
        job.record(finish, wait_seconds, exec_seconds, hosts, true)
    }

    /// The current attempt failed with `err` at `now`. Errors the retry
    /// policy cannot absorb end the stream.
    pub(crate) fn settle(
        &mut self,
        idx: usize,
        err: &ApplesError,
        now: SimTime,
        sink: &mut dyn EventSink,
    ) -> Result<Settled, GridError> {
        let Some((lost_host, lost_at)) = retryable(err) else {
            return Err(GridError::Job {
                id: self.jobs[idx].spec.id,
                message: err.to_string(),
            });
        };
        Ok(self.settle_failure(idx, lost_host, lost_at, now, sink))
    }

    /// The current attempt was lost at `now` — on `lost_host` at
    /// `lost_at`, when known. Exclude the dead host from later
    /// attempts, then retry after a jittered backoff or, out of budget,
    /// give up.
    pub(crate) fn settle_failure(
        &mut self,
        idx: usize,
        lost_host: Option<HostId>,
        lost_at: Option<SimTime>,
        now: SimTime,
        sink: &mut dyn EventSink,
    ) -> Settled {
        let job = &mut self.jobs[idx];
        if let Some(h) = lost_host {
            if !job.dead_hosts.contains(&h) {
                job.dead_hosts.push(h);
            }
        }
        let give_up = lost_at.unwrap_or(now).max(now);
        let (id, attempts) = (job.spec.id, job.attempts);
        if attempts >= self.retry.max_attempts {
            if sink.enabled() {
                sink.record(TraceEvent::JobFailed {
                    job: id,
                    at: give_up,
                    attempts,
                });
            }
            let wait_seconds = give_up.saturating_sub(job.submit).as_secs_f64();
            return Settled::Failed(job.record(give_up, wait_seconds, 0.0, Vec::new(), false));
        }
        // Jittered per (seed, job): jobs revoked by the same fault
        // spread out instead of thundering back in lockstep,
        // deterministically per seed.
        let at = give_up + self.retry.backoff_jittered(attempts, self.seed ^ id as u64);
        if sink.enabled() {
            sink.record(TraceEvent::JobRetried {
                job: id,
                at,
                attempt: attempts,
            });
        }
        Settled::Retry(at)
    }
}

impl Job<'_> {
    fn record(
        &self,
        finish: SimTime,
        wait_seconds: f64,
        exec_seconds: f64,
        hosts: Vec<String>,
        completed: bool,
    ) -> JobRecord {
        JobRecord {
            id: self.spec.id,
            kind: self.spec.kind.name().to_string(),
            submit: self.submit,
            start: self.start,
            finish,
            hosts,
            wait_seconds,
            exec_seconds,
            slowdown: slowdown_of(wait_seconds, exec_seconds),
            attempts: self.attempts,
            reschedules: self.reschedules,
            completed,
        }
    }
}

/// A failure the retry policy may absorb: the revoked/unreachable host
/// (when the failure names one) and the simulated time the placement
/// was lost (when known).
fn retryable(err: &ApplesError) -> Option<(Option<HostId>, Option<SimTime>)> {
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
