//! Attribution of host time to the program's layers from its trace.
//!
//! [`WallSink`] stamps host time on every event the program emits. The
//! gap since the previous event ends at the new event, so it belongs to
//! the layer whose work the new event reports ([`classify`]). The gap
//! from a regime call's start to its first event is the call's own
//! set-up; the time spent inside the sink is the observability layer's;
//! the tail after a call's last event carries no event, so it stays
//! unattributed. By construction the four parts add up to the traced
//! wall time, which [`WallSink::closure_error_ns`] checks.

use apples_grid::SchedRegime;
use metasim::simtrace::{EventSink, TraceEvent};
use std::time::{Duration, Instant};

/// The layers host time is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Testbed build, load realization and fault application inside a
    /// regime call, before its first event.
    Setup,
    /// `nws::WeatherService` advancing its sensors and forecasters.
    Nws,
    /// `apples::selector` generating candidate resource sets.
    Select,
    /// `apples::planner` + `apples::estimator` on one candidate.
    PlanEstimate,
    /// `apples::coordinator` choosing among the evaluated candidates.
    Decide,
    /// `apples::actuator`, `metasim::net`/`exec` and `simcore`.
    Actuate,
    /// Imposed-load write-back into `metasim::load` series.
    Load,
    /// `metasim::fault` and `apples::rescheduler`.
    Fault,
    /// `grid::service` (selfish) and `grid::sched` (batch, fractional).
    Regime,
    /// The event sink itself.
    Obsv,
}

impl Layer {
    pub const ALL: [Layer; 10] = [
        Layer::Setup,
        Layer::Nws,
        Layer::Select,
        Layer::PlanEstimate,
        Layer::Decide,
        Layer::Actuate,
        Layer::Load,
        Layer::Fault,
        Layer::Regime,
        Layer::Obsv,
    ];
}

/// Number of event kinds, in the canonical order of `obsv::KINDS`.
pub const KIND_COUNT: usize = 22;

/// The event's index in `obsv::KINDS` and the layer that did the work
/// it reports. The match has no wildcard, so a new event kind fails to
/// compile here until it is given a layer.
pub fn classify(e: &TraceEvent) -> (usize, Layer) {
    use TraceEvent as E;
    match e {
        E::ComputeStart { .. } => (0, Layer::Actuate),
        E::ComputeFinish { .. } => (1, Layer::Actuate),
        E::TransferStart { .. } => (2, Layer::Actuate),
        E::TransferFinish { .. } => (3, Layer::Actuate),
        E::HostFaultInjected { .. } => (4, Layer::Fault),
        E::LinkFaultInjected { .. } => (5, Layer::Fault),
        E::PlacementRevoked { .. } => (6, Layer::Fault),
        E::LoadImposed { .. } => (7, Layer::Load),
        E::ForecastIssued { .. } => (8, Layer::Nws),
        E::ResourceSelection { .. } => (9, Layer::Select),
        E::CandidateConsidered { .. } => (10, Layer::PlanEstimate),
        E::ScheduleChosen { .. } => (11, Layer::Decide),
        E::Actuated { .. } => (12, Layer::Actuate),
        E::RescheduleTriggered { .. } => (13, Layer::Fault),
        E::RescheduleDecision { .. } => (14, Layer::Fault),
        E::JobSubmitted { .. } => (15, Layer::Regime),
        E::JobDispatched { .. } => (16, Layer::Regime),
        E::JobRetried { .. } => (17, Layer::Regime),
        E::JobBackfilled { .. } => (18, Layer::Regime),
        // Fractional sharing emits this right after a what-if
        // actuation on dedicated resources: the gap is actuation work.
        E::JobWorkMeasured { .. } => (19, Layer::Actuate),
        E::JobCompleted { .. } => (20, Layer::Regime),
        E::JobFailed { .. } => (21, Layer::Regime),
    }
}

/// Index of a kind name in `obsv::KINDS`.
pub fn kind_index(kind: &str) -> Option<usize> {
    obsv::KINDS.iter().position(|k| *k == kind)
}

/// A sink that stamps host time on every event and attributes it.
pub struct WallSink {
    call_start: Instant,
    last: Instant,
    before_first: bool,
    regime: Option<SchedRegime>,
    /// Events seen, per kind.
    pub count: [u64; KIND_COUNT],
    /// Gap time attributed to each kind.
    pub kind_time: [Duration; KIND_COUNT],
    /// Call start to first event, summed over calls.
    pub setup: Duration,
    /// Time inside [`EventSink::record`].
    pub sink: Duration,
    /// Last event to call return, summed over calls.
    pub unattributed: Duration,
    /// Wall time of the traced calls, summed.
    pub traced: Duration,
    /// Regime-layer gaps during fractional calls: the share engine
    /// draining work and resizing shares between events.
    pub share_update: Duration,
    /// Candidates offered per decision.
    pub candidates: Vec<usize>,
    /// Host ms from the end of the event before a `resource_selection`
    /// to its `schedule_chosen`.
    pub decide_ms: Vec<f64>,
    decision_start: Option<Instant>,
}

impl Default for WallSink {
    fn default() -> Self {
        let now = Instant::now();
        WallSink {
            call_start: now,
            last: now,
            before_first: true,
            regime: None,
            count: [0; KIND_COUNT],
            kind_time: [Duration::ZERO; KIND_COUNT],
            setup: Duration::ZERO,
            sink: Duration::ZERO,
            unattributed: Duration::ZERO,
            traced: Duration::ZERO,
            share_update: Duration::ZERO,
            candidates: Vec::new(),
            decide_ms: Vec::new(),
            decision_start: None,
        }
    }
}

impl WallSink {
    /// Mark the start of a traced regime call.
    pub fn begin(&mut self, regime: SchedRegime) {
        let now = Instant::now();
        self.call_start = now;
        self.last = now;
        self.before_first = true;
        self.regime = Some(regime);
        self.decision_start = None;
    }

    /// Mark the return of the call begun last.
    pub fn end(&mut self) {
        let now = Instant::now();
        if self.before_first {
            self.setup += now - self.call_start;
        } else {
            self.unattributed += now - self.last;
        }
        self.traced += now - self.call_start;
        self.regime = None;
    }

    /// Time attributed to `layer`.
    pub fn layer_time(&self, layer: Layer) -> Duration {
        let by_kind: Duration = every_kind()
            .iter()
            .zip(&self.kind_time)
            .filter(|(e, _)| classify(e).1 == layer)
            .map(|(_, d)| *d)
            .sum();
        by_kind
            + match layer {
                Layer::Setup => self.setup,
                Layer::Obsv => self.sink,
                _ => Duration::ZERO,
            }
    }

    /// Time attributed to one kind by name.
    pub fn time_of(&self, kind: &str) -> Duration {
        kind_index(kind).map_or(Duration::ZERO, |i| self.kind_time[i])
    }

    /// Events of one kind by name.
    pub fn count_of(&self, kind: &str) -> u64 {
        kind_index(kind).map_or(0, |i| self.count[i])
    }

    /// |attributed + unattributed − traced wall| in nanoseconds.
    pub fn closure_error_ns(&self) -> u128 {
        let attributed: Duration = Layer::ALL.iter().map(|&l| self.layer_time(l)).sum();
        let total = (attributed + self.unattributed).as_nanos();
        total.abs_diff(self.traced.as_nanos())
    }
}

/// One event of every kind, in `obsv::KINDS` order.
pub fn every_kind() -> Vec<TraceEvent> {
    use metasim::{HostId, LinkId, SimTime};
    use TraceEvent as E;
    let at = SimTime::ZERO;
    let host = HostId(0);
    vec![
        E::ComputeStart {
            host,
            at,
            work_mflop: 0.0,
        },
        E::ComputeFinish {
            host,
            at,
            elapsed_seconds: 0.0,
        },
        E::TransferStart {
            from: host,
            to: host,
            at,
            mb: 0.0,
        },
        E::TransferFinish {
            from: host,
            to: host,
            at,
            mb: 0.0,
            contention_share: 1.0,
        },
        E::HostFaultInjected {
            host,
            at,
            recover: None,
        },
        E::LinkFaultInjected {
            link: LinkId(0),
            at,
            recover: None,
        },
        E::PlacementRevoked { host, at },
        E::LoadImposed {
            host,
            at,
            until: at,
            factor: 1.0,
        },
        E::ForecastIssued {
            resource: String::new(),
            at,
            predicted: 0.0,
            observed: 0.0,
            error: 0.0,
            method: String::new(),
        },
        E::ResourceSelection { at, candidates: 0 },
        E::CandidateConsidered {
            at,
            index: 0,
            hosts: 0,
            predicted_seconds: 0.0,
            objective: 0.0,
        },
        E::ScheduleChosen {
            at,
            index: 0,
            predicted_seconds: 0.0,
        },
        E::Actuated {
            at,
            finish: at,
            elapsed_seconds: 0.0,
        },
        E::RescheduleTriggered { at, phase: 0 },
        E::RescheduleDecision {
            at,
            keep_seconds: 0.0,
            move_seconds: 0.0,
            move_cost_seconds: 0.0,
            migrated: false,
        },
        E::JobSubmitted {
            job: 0,
            kind: String::new(),
            at,
        },
        E::JobDispatched {
            job: 0,
            at,
            attempt: 1,
        },
        E::JobRetried {
            job: 0,
            at,
            attempt: 1,
        },
        E::JobBackfilled {
            job: 0,
            at,
            reservation: at,
        },
        E::JobWorkMeasured {
            job: 0,
            at,
            dedicated_seconds: 0.0,
        },
        E::JobCompleted {
            job: 0,
            at,
            exec_seconds: 0.0,
        },
        E::JobFailed {
            job: 0,
            at,
            attempts: 1,
        },
    ]
}

impl EventSink for WallSink {
    fn record(&mut self, event: TraceEvent) {
        let enter = Instant::now();
        let gap = enter - self.last;
        let (kind, layer) = classify(&event);
        if self.before_first {
            self.setup += gap;
            self.before_first = false;
        } else {
            self.kind_time[kind] += gap;
            if layer == Layer::Regime && self.regime == Some(SchedRegime::Fractional) {
                self.share_update += gap;
            }
        }
        self.count[kind] += 1;
        match event {
            TraceEvent::ResourceSelection { candidates, .. } => {
                self.candidates.push(candidates);
                self.decision_start = Some(self.last);
            }
            TraceEvent::ScheduleChosen { .. } => {
                if let Some(start) = self.decision_start.take() {
                    self.decide_ms.push((enter - start).as_secs_f64() * 1e3);
                }
            }
            _ => {}
        }
        let exit = Instant::now();
        self.sink += exit - enter;
        self.last = exit;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_table_covers_every_kind_in_canonical_order() {
        let events = every_kind();
        assert_eq!(events.len(), KIND_COUNT);
        assert_eq!(obsv::KINDS.len(), KIND_COUNT);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(obsv::KINDS[i], e.kind());
            assert_eq!(classify(e).0, i, "{}", e.kind());
        }
    }

    #[test]
    fn attribution_closes_on_a_synthetic_call() {
        let mut sink = WallSink::default();
        for regime in [SchedRegime::Selfish, SchedRegime::Fractional] {
            sink.begin(regime);
            for e in every_kind() {
                std::thread::sleep(Duration::from_micros(50));
                sink.record(e);
            }
            std::thread::sleep(Duration::from_micros(50));
            sink.end();
        }
        assert_eq!(sink.closure_error_ns(), 0);
        assert!(sink.setup > Duration::ZERO);
        assert!(sink.unattributed > Duration::ZERO);
        assert!(sink.share_update > Duration::ZERO);
        assert_eq!(sink.count.iter().sum::<u64>(), 2 * KIND_COUNT as u64);
        assert_eq!(sink.decide_ms.len(), 2);
    }
}
