//! Structured event tracing across the simulation stack.
//!
//! The paper's argument is about *why* a schedule won — per-worker
//! compute vs. wait, border-exchange cost, forecast error at decision
//! time — yet end-of-run aggregates throw that information away. This
//! module defines a deterministic event log every layer can append to:
//!
//! * **metasim** emits compute, transfer, fault and load events,
//! * **nws** emits one [`TraceEvent::ForecastIssued`] per monitored
//!   resource per advance (predicted vs. observed, per-method error),
//! * **core** emits selection, candidate-evaluation, actuation and
//!   rescheduling decisions,
//! * **grid** emits the job lifecycle (submit → dispatch →
//!   retry/backoff → complete/fail).
//!
//! Producers take a `&mut dyn EventSink`. The default [`NoopSink`]
//! reports `enabled() == false`, and every emission site is guarded by
//! that check, so untraced runs never construct an event — tracing is
//! zero-cost when no sink is attached.
//!
//! **Determinism guarantee:** the simulation is deterministic given a
//! seed, and events are emitted in simulation order by straight-line
//! code, so two runs with the same seed and configuration produce
//! byte-identical JSONL streams ([`WriterSink`]). [`first_divergence`]
//! turns that guarantee into a mechanical check.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write;

use crate::host::HostId;
use crate::net::LinkId;
use crate::time::SimTime;

/// Declares the trace taxonomy once. Each row of the invocation below is
/// one event kind: its variant, its JSON `kind` string and its fields,
/// `at` first. From the table this generates the [`TraceEvent`] enum,
/// [`KINDS`], and [`TraceEvent::kind_index`], [`TraceEvent::kind`],
/// [`TraceEvent::at`], [`TraceEvent::to_json`] and
/// [`TraceEvent::from_json`]. A field's JSON key is its name unless the
/// row gives another with `as "key"`; its type's [`JsonField`] impl
/// spells its value.
macro_rules! trace_events {
    (@key $field:ident) => { stringify!($field) };
    (@key $field:ident $key:literal) => { $key };
    (
        $(#[$meta:meta])*
        pub enum TraceEvent {$(
            $(#[$vmeta:meta])*
            $variant:ident = $kind:literal {
                $(#[$atmeta:meta])*
                at: SimTime,
                $($(#[$fmeta:meta])* $field:ident $(as $key:literal)?: $ty:ty,)+
            },
        )+}
    ) => {
        $(#[$meta])*
        pub enum TraceEvent {$(
            $(#[$vmeta])*
            $variant {
                $(#[$atmeta])*
                at: SimTime,
                $($(#[$fmeta])* $field: $ty,)+
            },
        )+}

        /// Every event kind's `kind` string, in taxonomy order: the order
        /// of [`TraceEvent::kind_index`], and of per-kind exports.
        pub const KINDS: [&str; [$($kind),+].len()] = [$($kind),+];

        impl TraceEvent {
            /// Position of the event's kind in [`KINDS`].
            pub fn kind_index(&self) -> usize {
                enum Index {
                    $($variant),+
                }
                match self {
                    $(TraceEvent::$variant { .. } => Index::$variant as usize,)+
                }
            }

            /// The event's absolute timestamp.
            pub fn at(&self) -> SimTime {
                match self {
                    $(TraceEvent::$variant { at, .. })|+ => *at,
                }
            }

            /// Serialize the event as one line of JSON (hand-rolled; the
            /// workspace carries no serialization dependency): `kind`,
            /// then `at`, then the other fields in table order.
            /// [`SimTime`] fields are integer microseconds so streams
            /// compare byte-exactly.
            pub fn to_json(&self) -> String {
                let mut out = String::new();
                let _ = write!(out, "{{\"kind\":\"{}\",\"at\":{}", self.kind(), self.at().0);
                match self {$(
                    TraceEvent::$variant { $($field,)+ .. } => {$(
                        out.push_str(concat!(",\"", trace_events!(@key $field $($key)?), "\":"));
                        $field.render(&mut out);
                    )+}
                )+}
                out.push('}');
                out
            }

            /// Parse one JSONL line produced by [`TraceEvent::to_json`]
            /// back into an event.
            ///
            /// Returns `None` when the line has no recognizable `kind`,
            /// an unknown kind, or a field that is missing or does not
            /// parse as its type, so consumers of foreign or truncated
            /// traces can skip bad lines and keep going. Numeric fields
            /// serialized as `null` (non-finite floats) come back as NaN,
            /// preserving the event rather than dropping it.
            pub fn from_json(line: &str) -> Option<TraceEvent> {
                let kind = extract_json_str(line, "kind")?;
                let at = SimTime::parse(line, "at")?;
                Some(match kind.as_str() {
                    $($kind => TraceEvent::$variant {
                        at,
                        $($field: <$ty>::parse(line, trace_events!(@key $field $($key)?))?,)+
                    },)+
                    _ => return None,
                })
            }
        }
    };
}

trace_events! {
    /// One structured event from somewhere in the stack.
    ///
    /// Every variant carries an absolute simulation timestamp ([`SimTime`],
    /// serialized as integer microseconds) so streams from different layers
    /// interleave on a common clock.
    #[derive(Debug, Clone, PartialEq)]
    pub enum TraceEvent {
        /// A worker began its compute phase on a host (one event per worker
        /// per run, covering all iterations; `work_mflop` is the total).
        ComputeStart = "compute_start" {
            /// Co-allocation barrier time when compute began.
            at: SimTime,
            /// Host executing the worker.
            host: HostId,
            /// Total work across all iterations, Mflop.
            work_mflop: f64,
        },
        /// A worker finished its last compute phase.
        ComputeFinish = "compute_finish" {
            /// When the final compute phase completed.
            at: SimTime,
            /// Host that executed the worker.
            host: HostId,
            /// Total wall-clock seconds spent computing (load and paging
            /// slowdown included).
            elapsed_seconds: f64,
        },
        /// A transfer was admitted to the network.
        TransferStart = "transfer_start" {
            /// When the transfer entered the network.
            at: SimTime,
            /// Sending host.
            from: HostId,
            /// Receiving host.
            to: HostId,
            /// Payload, MB.
            mb: f64,
        },
        /// A transfer was fully delivered.
        TransferFinish = "transfer_finish" {
            /// Delivery time (propagation latency included).
            at: SimTime,
            /// Sending host.
            from: HostId,
            /// Receiving host.
            to: HostId,
            /// Payload, MB.
            mb: f64,
            /// Mean achieved bandwidth over the nominal bottleneck
            /// bandwidth of the route: 1.0 means the flow had the
            /// bottleneck to itself, lower means contention.
            contention_share: f64,
        },
        /// A host crash was injected into the topology.
        HostFaultInjected = "host_fault_injected" {
            /// Crash time.
            at: SimTime,
            /// Crashed host.
            host: HostId,
            /// Recovery time; `None` is a permanent crash.
            recover: Option<SimTime>,
        },
        /// A link outage was injected into the topology.
        LinkFaultInjected = "link_fault_injected" {
            /// Outage start.
            at: SimTime,
            /// Dark link.
            link: LinkId,
            /// Recovery time; `None` is a permanent outage.
            recover: Option<SimTime>,
        },
        /// A running placement was revoked mid-run by a host death.
        PlacementRevoked = "placement_revoked" {
            /// When the loss was detected.
            at: SimTime,
            /// Host that died under the placement.
            host: HostId,
        },
        /// Background load was imposed on a host (a dispatched job making
        /// the resource busier for everyone after it).
        LoadImposed = "load_imposed" {
            /// Load window start.
            at: SimTime,
            /// Loaded host.
            host: HostId,
            /// Load window end.
            until: SimTime,
            /// Multiplicative availability factor applied over the window.
            factor: f64,
        },
        /// The forecaster published a prediction for a resource and
        /// immediately scored it against the newly observed value.
        ForecastIssued = "forecast_issued" {
            /// Wall-clock of the monitoring advance.
            at: SimTime,
            /// Monitored resource, e.g. `cpu:3` or `link:1`.
            resource: String,
            /// Prediction made *before* the new samples arrived.
            predicted: f64,
            /// Most recent observed value.
            observed: f64,
            /// Running mean absolute error of the winning method.
            error: f64,
            /// Name of the forecasting method that currently wins.
            method: String,
        },
        /// The coordinator started a selection over a candidate pool.
        ResourceSelection = "resource_selection" {
            /// Decision time.
            at: SimTime,
            /// Number of candidate resource sets under consideration.
            candidates: usize,
        },
        /// One candidate schedule was evaluated by the cost model.
        CandidateConsidered = "candidate_considered" {
            /// Decision time.
            at: SimTime,
            /// Index of the candidate within the selection.
            index: usize,
            /// Number of hosts the candidate uses.
            hosts: usize,
            /// Cost-model predicted execution seconds.
            predicted_seconds: f64,
            /// Objective value (lower is better).
            objective: f64,
        },
        /// The coordinator committed to a schedule.
        ScheduleChosen = "schedule_chosen" {
            /// Decision time.
            at: SimTime,
            /// Index of the winning candidate.
            index: usize,
            /// Predicted execution seconds of the winner.
            predicted_seconds: f64,
        },
        /// A schedule was actuated on the simulated testbed.
        Actuated = "actuated" {
            /// Actuation start time.
            at: SimTime,
            /// Simulated completion time.
            finish: SimTime,
            /// Elapsed wall-clock seconds.
            elapsed_seconds: f64,
        },
        /// The rescheduler re-planned at a phase boundary.
        RescheduleTriggered = "reschedule_triggered" {
            /// Re-planning time.
            at: SimTime,
            /// Phase number (0-based).
            phase: usize,
        },
        /// The rescheduler compared staying put against migrating.
        RescheduleDecision = "reschedule_decision" {
            /// Decision time.
            at: SimTime,
            /// Predicted seconds for the remaining work if it stays.
            keep_seconds: f64,
            /// Predicted seconds for the remaining work if it moves.
            move_seconds: f64,
            /// Predicted cost of moving the state, seconds.
            move_cost_seconds: f64,
            /// Whether the job migrated.
            migrated: bool,
        },
        /// A job entered the stream.
        JobSubmitted = "job_submitted" {
            /// Absolute submission time.
            at: SimTime,
            /// Submission-order index within the stream.
            job: usize,
            /// Job class name (the JSON key is `class`, since `kind` names
            /// the event).
            kind as "class": String,
        },
        /// A job was admitted and its agent dispatched a placement attempt.
        JobDispatched = "job_dispatched" {
            /// Dispatch time.
            at: SimTime,
            /// Job index.
            job: usize,
            /// Attempt number (1 = first try).
            attempt: u32,
        },
        /// A failed attempt was scheduled for retry after backoff.
        JobRetried = "job_retried" {
            /// Time the retry was scheduled (next attempt start).
            at: SimTime,
            /// Job index.
            job: usize,
            /// The attempt that failed.
            attempt: u32,
        },
        /// A centralized batch scheduler started a queued job ahead of
        /// FCFS order because it fits without delaying the head-of-queue
        /// reservation (EASY backfilling).
        JobBackfilled = "job_backfilled" {
            /// Backfill start time.
            at: SimTime,
            /// Job index.
            job: usize,
            /// The head-of-queue reservation the backfill must not delay.
            reservation: SimTime,
        },
        /// A scheduler measured how long a job's current attempt would run
        /// on dedicated (uncontended) resources — the what-if baseline a
        /// fractional-share regime dilutes. Profilers use this to split the
        /// attempt window into compute vs. contention-wait when the actual
        /// execution never touches the shared executor trace.
        JobWorkMeasured = "job_work_measured" {
            /// Measurement time (the dispatch this estimate covers).
            at: SimTime,
            /// Job index.
            job: usize,
            /// Predicted dedicated execution seconds for the attempt.
            dedicated_seconds: f64,
        },
        /// A job finished its work.
        JobCompleted = "job_completed" {
            /// Completion time.
            at: SimTime,
            /// Job index.
            job: usize,
            /// Admission-to-completion seconds.
            exec_seconds: f64,
        },
        /// A job exhausted its retry budget.
        JobFailed = "job_failed" {
            /// Time of the final failed attempt.
            at: SimTime,
            /// Job index.
            job: usize,
            /// Attempts made before giving up.
            attempts: u32,
        },
    }
}

/// How one field type is spelled in a trace line: `render` writes the
/// value after its `"key":`, `parse` reads it back from the line. A
/// missing key, or a value that does not parse as the type, is `None`
/// and fails the whole line.
trait JsonField: Sized {
    fn render(&self, out: &mut String);
    fn parse(line: &str, key: &str) -> Option<Self>;
}

impl JsonField for usize {
    fn render(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
    fn parse(line: &str, key: &str) -> Option<Self> {
        usize::try_from(extract_json_u64(line, key)?).ok()
    }
}

impl JsonField for u32 {
    fn render(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
    fn parse(line: &str, key: &str) -> Option<Self> {
        u32::try_from(extract_json_u64(line, key)?).ok()
    }
}

impl JsonField for HostId {
    fn render(&self, out: &mut String) {
        self.0.render(out);
    }
    fn parse(line: &str, key: &str) -> Option<Self> {
        usize::parse(line, key).map(HostId)
    }
}

impl JsonField for LinkId {
    fn render(&self, out: &mut String) {
        self.0.render(out);
    }
    fn parse(line: &str, key: &str) -> Option<Self> {
        usize::parse(line, key).map(LinkId)
    }
}

impl JsonField for SimTime {
    fn render(&self, out: &mut String) {
        let _ = write!(out, "{}", self.0);
    }
    fn parse(line: &str, key: &str) -> Option<Self> {
        extract_json_u64(line, key).map(SimTime)
    }
}

/// `null` (and only `null`) is `None`; a missing key fails the line.
impl JsonField for Option<SimTime> {
    fn render(&self, out: &mut String) {
        match self {
            Some(t) => t.render(out),
            None => out.push_str("null"),
        }
    }
    fn parse(line: &str, key: &str) -> Option<Self> {
        if json_value(line, key)?.starts_with("null") {
            Some(None)
        } else {
            SimTime::parse(line, key).map(Some)
        }
    }
}

/// Non-finite values, which JSON cannot represent, render as `null`.
impl JsonField for f64 {
    fn render(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else {
            out.push_str("null");
        }
    }
    fn parse(line: &str, key: &str) -> Option<Self> {
        extract_json_f64(line, key)
    }
}

impl JsonField for bool {
    fn render(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
    fn parse(line: &str, key: &str) -> Option<Self> {
        extract_json_bool(line, key)
    }
}

impl JsonField for String {
    fn render(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
    fn parse(line: &str, key: &str) -> Option<Self> {
        extract_json_str(line, key)
    }
}

impl TraceEvent {
    /// Stable snake_case name of the event kind (the JSON `kind`
    /// field).
    pub fn kind(&self) -> &'static str {
        KINDS[self.kind_index()]
    }

    /// Parse a whole JSONL stream, skipping unparseable lines (see
    /// [`TraceEvent::from_json`]). Returns the events plus the count of
    /// non-empty lines that did not parse.
    pub fn from_jsonl(text: &str) -> (Vec<TraceEvent>, usize) {
        let mut events = Vec::new();
        let mut skipped = 0usize;
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            match TraceEvent::from_json(line) {
                Some(e) => events.push(e),
                None => skipped += 1,
            }
        }
        (events, skipped)
    }
}

/// Receiver for [`TraceEvent`]s.
///
/// Emission sites guard with [`EventSink::enabled`] before constructing
/// an event, so a disabled sink costs one virtual call per potential
/// event and nothing else.
pub trait EventSink {
    /// Whether this sink wants events at all. Emission sites skip event
    /// construction entirely when this returns `false`.
    fn enabled(&self) -> bool {
        true
    }

    /// Record one event.
    fn record(&mut self, event: TraceEvent);
}

/// The default sink: drops everything, reports itself disabled.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl EventSink for NoopSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _event: TraceEvent) {}
}

/// Collects events in memory, for tests and in-process analysis.
#[derive(Debug, Default, Clone)]
pub struct VecSink {
    /// Recorded events, in emission order.
    pub events: Vec<TraceEvent>,
}

impl VecSink {
    /// An empty sink.
    pub fn new() -> VecSink {
        VecSink::default()
    }
}

impl EventSink for VecSink {
    fn record(&mut self, event: TraceEvent) {
        self.events.push(event);
    }
}

/// Streams events as JSONL (one [`TraceEvent::to_json`] object per
/// line) to any [`Write`] target.
///
/// Write errors are captured rather than panicking; check
/// [`WriterSink::take_error`] after the run.
#[derive(Debug)]
pub struct WriterSink<W: Write> {
    writer: W,
    error: Option<std::io::Error>,
}

impl<W: Write> WriterSink<W> {
    /// Wrap a writer.
    pub fn new(writer: W) -> WriterSink<W> {
        WriterSink {
            writer,
            error: None,
        }
    }

    /// The first write error encountered, if any (consumes it).
    pub fn take_error(&mut self) -> Option<std::io::Error> {
        self.error.take()
    }

    /// Unwrap the inner writer.
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: Write> EventSink for WriterSink<W> {
    fn record(&mut self, event: TraceEvent) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = writeln!(self.writer, "{}", event.to_json()) {
            self.error = Some(e);
        }
    }
}

/// Aggregate view of an event stream.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// Total events.
    pub events: usize,
    /// Events per kind, alphabetically ordered.
    pub by_kind: BTreeMap<String, usize>,
    /// Earliest event timestamp.
    pub first_at: Option<SimTime>,
    /// Latest event timestamp.
    pub last_at: Option<SimTime>,
    /// Non-empty JSONL lines that did not parse as an event (see
    /// [`TraceEvent::from_json`]); always 0 for an in-memory stream.
    pub skipped_lines: usize,
}

impl TraceSummary {
    /// Summarize an in-memory event stream.
    pub fn from_events(events: &[TraceEvent]) -> TraceSummary {
        let mut counts = [0usize; KINDS.len()];
        for e in events {
            counts[e.kind_index()] += 1;
        }
        let by_kind = KINDS.iter().zip(counts).filter(|&(_, n)| n > 0);
        TraceSummary {
            events: events.len(),
            by_kind: by_kind.map(|(k, n)| (k.to_string(), n)).collect(),
            first_at: events.iter().map(TraceEvent::at).min(),
            last_at: events.iter().map(TraceEvent::at).max(),
            skipped_lines: 0,
        }
    }

    /// Summarize a JSONL stream produced by [`WriterSink`], parsed with
    /// [`TraceEvent::from_jsonl`]; lines that do not parse are counted
    /// in [`TraceSummary::skipped_lines`] and skipped.
    pub fn from_jsonl(text: &str) -> TraceSummary {
        let (events, skipped_lines) = TraceEvent::from_jsonl(text);
        TraceSummary {
            skipped_lines,
            ..Self::from_events(&events)
        }
    }

    /// Human-readable multi-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "events: {}", self.events);
        if let (Some(f), Some(l)) = (self.first_at, self.last_at) {
            let _ = writeln!(
                out,
                "span: {:.3}s .. {:.3}s",
                f.as_secs_f64(),
                l.as_secs_f64()
            );
        }
        let width = self.by_kind.keys().map(|k| k.len()).max().unwrap_or(0);
        for (kind, n) in &self.by_kind {
            let _ = writeln!(out, "  {kind:width$}  {n}");
        }
        if self.skipped_lines > 0 {
            let _ = writeln!(
                out,
                "note: {} unparseable line(s) skipped",
                self.skipped_lines
            );
        }
        out
    }

    /// The summary as a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"events\":{},\"first_at\":", self.events);
        self.first_at.render(&mut out);
        out.push_str(",\"last_at\":");
        self.last_at.render(&mut out);
        out.push_str(",\"by_kind\":{");
        for (i, (kind, n)) in self.by_kind.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            kind.render(&mut out);
            let _ = write!(out, ":{n}");
        }
        out.push_str("}}");
        out
    }
}

/// Pull a `"key":"value"` string field out of a one-line JSON object
/// without a full parser (the format is our own, from
/// [`TraceEvent::to_json`]).
fn extract_json_str(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    // Unescape up to the closing quote, honoring the escapes
    // `String::render` produces.
    let mut out = String::new();
    let mut chars = rest.chars();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let code = u32::from_str_radix(&hex, 16).ok()?;
                    out.push(char::from_u32(code)?);
                }
                other => out.push(other),
            },
            c => out.push(c),
        }
    }
}

/// The rest of a one-line JSON object after its first `"key":`.
fn json_value<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    Some(&line[line.find(&pat)? + pat.len()..])
}

/// Pull a `"key":123` integer field out of a one-line JSON object.
fn extract_json_u64(line: &str, key: &str) -> Option<u64> {
    let rest = json_value(line, key)?;
    let digits = rest.len() - rest.trim_start_matches(|c: char| c.is_ascii_digit()).len();
    rest[..digits].parse().ok()
}

/// Pull a `"key":<number>` float field out of a one-line JSON object.
/// A `null` value (how non-finite floats are rendered) parses as
/// NaN so the enclosing event survives the round-trip.
fn extract_json_f64(line: &str, key: &str) -> Option<f64> {
    let rest = json_value(line, key)?;
    if rest.starts_with("null") {
        return Some(f64::NAN);
    }
    let num: String = rest
        .chars()
        .take_while(|c| c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E'))
        .collect();
    num.parse().ok()
}

/// Pull a `"key":true|false` field out of a one-line JSON object.
fn extract_json_bool(line: &str, key: &str) -> Option<bool> {
    let rest = json_value(line, key)?;
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

/// Where two JSONL streams first diverge.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// 1-based line number of the first differing line.
    pub line: usize,
    /// That line in the left stream (`None` if the stream ended).
    pub left: Option<String>,
    /// That line in the right stream (`None` if the stream ended).
    pub right: Option<String>,
}

/// Compare two JSONL streams line by line; `None` means identical.
///
/// This is the mechanical form of the determinism guarantee: two runs
/// with the same seed and configuration must produce identical streams.
pub fn first_divergence(a: &str, b: &str) -> Option<Divergence> {
    let mut left = a.lines();
    let mut right = b.lines();
    let mut line = 0usize;
    loop {
        line += 1;
        match (left.next(), right.next()) {
            (None, None) => return None,
            (l, r) if l == r => continue,
            (l, r) => {
                return Some(Divergence {
                    line,
                    left: l.map(str::to_string),
                    right: r.map(str::to_string),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(x: f64) -> SimTime {
        SimTime::from_secs_f64(x)
    }

    #[test]
    fn noop_sink_is_disabled() {
        let sink = NoopSink;
        assert!(!sink.enabled());
    }

    #[test]
    fn vec_sink_collects_in_order() {
        let mut sink = VecSink::new();
        assert!(sink.enabled());
        sink.record(TraceEvent::JobSubmitted {
            job: 0,
            kind: "jacobi2d".into(),
            at: s(1.0),
        });
        sink.record(TraceEvent::JobDispatched {
            job: 0,
            at: s(2.0),
            attempt: 1,
        });
        assert_eq!(sink.events.len(), 2);
        assert_eq!(sink.events[0].kind(), "job_submitted");
        assert_eq!(sink.events[1].at(), s(2.0));
    }

    #[test]
    fn writer_sink_emits_jsonl() {
        let mut sink = WriterSink::new(Vec::new());
        sink.record(TraceEvent::ComputeStart {
            host: HostId(3),
            at: s(1.5),
            work_mflop: 100.0,
        });
        sink.record(TraceEvent::HostFaultInjected {
            host: HostId(1),
            at: s(10.0),
            recover: None,
        });
        assert!(sink.take_error().is_none());
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"kind\":\"compute_start\",\"at\":1500000,\"host\":3,\"work_mflop\":100}"
        );
        assert!(lines[1].contains("\"recover\":null"));
    }

    #[test]
    fn json_escapes_strings_and_non_finite() {
        let e = TraceEvent::ForecastIssued {
            resource: "cpu:\"x\"".into(),
            at: s(0.0),
            predicted: f64::NAN,
            observed: 0.5,
            error: 0.1,
            method: "mean\n".into(),
        };
        let j = e.to_json();
        assert!(j.contains("cpu:\\\"x\\\""));
        assert!(j.contains("\"predicted\":null"));
        assert!(j.contains("mean\\n"));
    }

    #[test]
    fn summary_counts_kinds_from_events_and_jsonl() {
        let events = vec![
            TraceEvent::JobSubmitted {
                job: 0,
                kind: "jacobi2d".into(),
                at: s(1.0),
            },
            TraceEvent::JobDispatched {
                job: 0,
                at: s(2.0),
                attempt: 1,
            },
            TraceEvent::JobCompleted {
                job: 0,
                at: s(5.0),
                exec_seconds: 3.0,
            },
        ];
        let sum = TraceSummary::from_events(&events);
        assert_eq!(sum.events, 3);
        assert_eq!(sum.by_kind["job_submitted"], 1);
        assert_eq!(sum.first_at, Some(s(1.0)));
        assert_eq!(sum.last_at, Some(s(5.0)));

        let jsonl: String = events
            .iter()
            .map(|e| format!("{}\n", e.to_json()))
            .collect();
        let sum2 = TraceSummary::from_jsonl(&jsonl);
        assert_eq!(sum, sum2);
        assert!(sum.render().contains("job_completed"));
        assert!(!sum.render().contains("skipped"));
        assert!(sum.to_json().contains("\"events\":3"));

        // The summary reads JSONL with the event parser: a truncated
        // line and an unknown kind are skipped, not counted.
        let mixed = "{\"kind\":\"job_dispatched\",\"at\":9000000,\"job\":0,\"attempt\":1}\n\
                     {\"kind\":\"job_dispatched\"\n\
                     {\"kind\":\"no_such_kind\",\"at\":0}\n";
        let sum3 = TraceSummary::from_jsonl(mixed);
        assert_eq!(sum3.events, 1);
        assert_eq!(sum3.skipped_lines, 2);
        assert_eq!(sum3.first_at, Some(s(9.0)));
        assert_eq!(
            sum3.render(),
            "events: 1\nspan: 9.000s .. 9.000s\n  job_dispatched  1\n\
             note: 2 unparseable line(s) skipped\n"
        );
    }

    #[test]
    fn backfill_event_round_trips_through_json() {
        let e = TraceEvent::JobBackfilled {
            job: 7,
            at: s(12.5),
            reservation: s(90.0),
        };
        assert_eq!(e.kind(), "job_backfilled");
        assert_eq!(e.at(), s(12.5));
        let j = e.to_json();
        assert_eq!(
            j,
            "{\"kind\":\"job_backfilled\",\"at\":12500000,\"job\":7,\"reservation\":90000000}"
        );
        assert_eq!(TraceEvent::from_json(&j), Some(e));
    }

    #[test]
    fn divergence_reports_first_differing_line() {
        assert!(first_divergence("a\nb\n", "a\nb\n").is_none());
        let d = first_divergence("a\nb\nc\n", "a\nx\nc\n").unwrap();
        assert_eq!(d.line, 2);
        assert_eq!(d.left.as_deref(), Some("b"));
        assert_eq!(d.right.as_deref(), Some("x"));
        // Length mismatch: the shorter stream "ends".
        let d = first_divergence("a\n", "a\nb\n").unwrap();
        assert_eq!(d.line, 2);
        assert!(d.left.is_none());
        assert_eq!(d.right.as_deref(), Some("b"));
    }
}
