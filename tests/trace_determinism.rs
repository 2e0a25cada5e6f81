//! simtrace determinism: the whole point of structured tracing over a
//! deterministic simulator is that the event stream is part of the
//! reproducibility contract. Same seed → byte-identical JSONL, and the
//! `trace diff` machinery must report zero divergence on such a pair.

use apples_grid::workload::{ArrivalProcess, JobMix, WorkloadConfig};
use apples_grid::{GridConfig, GridService, SchedRegime};
use metasim::simtrace::{
    decision_latency_seconds, first_divergence, host_busy_seconds, host_utilization_timeline,
    queue_depth_timeline, NoopSink, TraceEvent, TraceSummary, VecSink, WriterSink,
};
use metasim::{HostId, SimTime};

fn s(x: f64) -> SimTime {
    SimTime::from_secs_f64(x)
}

fn workload() -> WorkloadConfig {
    WorkloadConfig {
        arrivals: ArrivalProcess::Poisson { rate_hz: 0.02 },
        mix: JobMix::default_mix(),
        duration: s(300.0),
        seed: 7,
        ..WorkloadConfig::default()
    }
}

/// Run the stream with a JSONL sink and return the bytes written.
fn traced_jsonl() -> String {
    let mut sink = WriterSink::new(Vec::new());
    GridService::new(GridConfig::default())
        .and_then(|svc| svc.run(SchedRegime::Selfish, &workload(), &mut sink))
        .expect("traced stream");
    assert!(sink.take_error().is_none());
    String::from_utf8(sink.into_inner()).expect("JSONL is UTF-8")
}

#[test]
fn same_seed_traces_are_byte_identical() {
    let a = traced_jsonl();
    let b = traced_jsonl();
    assert!(!a.is_empty(), "traced stream emitted nothing");
    assert_eq!(a, b, "same seed must reproduce the trace byte for byte");
    assert!(
        first_divergence(&a, &b).is_none(),
        "diff machinery disagrees with byte equality"
    );
}

#[test]
fn trace_diff_pinpoints_the_first_divergence() {
    let a = traced_jsonl();
    // Corrupt one line mid-stream and check the report names it.
    let lines: Vec<&str> = a.lines().collect();
    let k = lines.len() / 2;
    let mut mutated: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
    mutated[k] = mutated[k].replace("\"at\":", "\"at\":9");
    let b = mutated.join("\n") + "\n";
    let d = first_divergence(&a, &b).expect("mutation must diverge");
    assert_eq!(d.line, k + 1, "divergence line is 1-indexed");
    assert_eq!(d.left.as_deref(), Some(lines[k]));
    // A truncated right side reports the missing line as absent.
    let truncated: String = lines[..k]
        .iter()
        .map(|l| format!("{l}\n"))
        .collect::<String>();
    let d = first_divergence(&a, &truncated).expect("truncation must diverge");
    assert_eq!(d.line, k + 1);
    assert!(d.right.is_none());
}

#[test]
fn traced_grid_run_spans_the_stack_and_matches_untraced() {
    let mut sink = VecSink::new();
    let svc = GridService::new(GridConfig::default()).expect("valid config");
    let traced = svc
        .run(SchedRegime::Selfish, &workload(), &mut sink)
        .expect("traced stream");
    let plain = svc
        .run(SchedRegime::Selfish, &workload(), &mut NoopSink)
        .expect("plain stream");
    assert_eq!(
        traced.records, plain.records,
        "attaching a sink must not perturb the simulation"
    );

    let summary = TraceSummary::from_events(&sink.events);
    assert_eq!(summary.events, sink.events.len());
    assert!(
        summary.by_kind.len() >= 6,
        "expected at least 6 distinct event kinds, got {:?}",
        summary.by_kind
    );
    // At least one event from each layer of the stack.
    let kinds: Vec<&str> = summary.by_kind.keys().map(|k| k.as_str()).collect();
    for (layer, witness) in [
        ("metasim", "compute_start"),
        ("nws", "forecast_issued"),
        ("core", "schedule_chosen"),
        ("grid", "job_completed"),
    ] {
        assert!(kinds.contains(&witness), "no {witness} event from {layer}");
    }

    // The JSONL round-trip preserves the per-kind counts.
    let jsonl: String = sink.events.iter().map(|e| e.to_json() + "\n").collect();
    let reparsed = TraceSummary::from_jsonl(&jsonl);
    assert_eq!(reparsed.by_kind, summary.by_kind);
    assert_eq!(reparsed.first_at, summary.first_at);
    assert_eq!(reparsed.last_at, summary.last_at);
}

/// The derived timelines on a hand-built trace, where every value can
/// be checked against arithmetic done by eye.
#[test]
fn derived_timelines_match_hand_computed_values() {
    let events = vec![
        TraceEvent::JobSubmitted {
            job: 0,
            kind: "spmd".into(),
            at: s(1.0),
        },
        TraceEvent::JobSubmitted {
            job: 1,
            kind: "pipe".into(),
            at: s(2.0),
        },
        TraceEvent::JobDispatched {
            job: 0,
            at: s(3.0),
            attempt: 1,
        },
        // Host 2 computes over [6, 10]: spans buckets [5,10) and [10,15).
        TraceEvent::ComputeFinish {
            host: HostId(2),
            at: s(10.0),
            elapsed_seconds: 4.0,
        },
        TraceEvent::JobRetried {
            job: 0,
            at: s(11.0),
            attempt: 1,
        },
        TraceEvent::JobDispatched {
            job: 0,
            at: s(12.0),
            attempt: 2,
        },
        TraceEvent::JobDispatched {
            job: 1,
            at: s(14.0),
            attempt: 1,
        },
    ];

    let busy = host_busy_seconds(&events);
    assert_eq!(busy.len(), 1);
    assert!((busy[&HostId(2)] - 4.0).abs() < 1e-9);

    let util = host_utilization_timeline(&events, 5.0);
    // Events end at t=14 → ceil(14/5) = 3 buckets of 5 s.
    let lane = &util[&HostId(2)];
    assert_eq!(lane.len(), 3);
    assert!((lane[0] - 0.0).abs() < 1e-9, "no compute before t=5");
    assert!((lane[1] - 0.8).abs() < 1e-9, "4 of [5,10) busy");
    assert!((lane[2] - 0.0).abs() < 1e-9, "interval closed at t=10");

    // submit(+1) submit(+1) dispatch(-1) retry(+1) dispatch(-1) dispatch(-1)
    let depth = queue_depth_timeline(&events);
    let depths: Vec<usize> = depth.iter().map(|&(_, d)| d).collect();
    assert_eq!(depths, vec![1, 2, 1, 2, 1, 0]);
    assert_eq!(depth[3].0, s(11.0), "retry re-enters the queue at t=11");

    // Decision latency is submit → *first* dispatch; retries don't reset it.
    let latency = decision_latency_seconds(&events);
    assert!((latency[&0] - 2.0).abs() < 1e-9);
    assert!((latency[&1] - 12.0).abs() < 1e-9);
}

/// The same derived timelines on a real traced run: cross-check them
/// against each other and against the stream's own invariants.
#[test]
fn derived_timelines_are_consistent_on_a_real_trace() {
    let mut sink = VecSink::new();
    GridService::new(GridConfig::default())
        .and_then(|svc| svc.run(SchedRegime::Selfish, &workload(), &mut sink))
        .expect("traced stream");
    let events = &sink.events;

    // Busy seconds and the utilization timeline are two renderings of
    // the same ComputeFinish intervals clipped to t >= 0, so each
    // host's bucket-sum must equal its busy total.
    let busy = host_busy_seconds(events);
    let util = host_utilization_timeline(events, 10.0);
    assert!(!busy.is_empty(), "no compute events in the stream");
    assert_eq!(
        busy.keys().collect::<Vec<_>>(),
        util.keys().collect::<Vec<_>>()
    );
    for (host, lane) in &util {
        let bucketed: f64 = lane.iter().sum::<f64>() * 10.0;
        assert!(
            (bucketed - busy[host]).abs() < 1e-6,
            "host {host:?}: timeline sums to {bucketed} s, busy says {} s",
            busy[host]
        );
    }

    // Queue depth never goes negative (saturating) and ends at zero:
    // the 300 s stream drains completely.
    let depth = queue_depth_timeline(events);
    assert!(!depth.is_empty());
    assert_eq!(depth.last().map(|&(_, d)| d), Some(0), "queue must drain");
    for w in depth.windows(2) {
        assert!(w[0].0 <= w[1].0, "change points must be time-ordered");
    }

    // Every dispatched job has a non-negative decision latency, and
    // the count matches the dispatched-job population of the trace.
    let latency = decision_latency_seconds(events);
    let dispatched: std::collections::BTreeSet<usize> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::JobDispatched { job, .. } => Some(*job),
            _ => None,
        })
        .collect();
    assert_eq!(latency.len(), dispatched.len());
    assert!(latency.values().all(|&l| l >= 0.0));
}
