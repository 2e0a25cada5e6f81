//! Benchmark worker. `run.py` drives it; each subcommand prints one
//! JSON object on its last line of standard output.
//!
//! ```text
//! appbench pass  WORKLOAD SEED        untraced regime runs + outcome checks
//! appbench setup WORKLOAD SEED REPS   median of REPS timed set-ups
//! appbench trace WORKLOAD SEED        traced run, probes and folds
//! ```
//!
//! A failed run or check prints its reason on standard error and exits
//! with code 1.

mod layer;
mod outcome;
mod probe;
mod workload;

use apples_grid::SchedRegime;
use layer::{Layer, WallSink};
use metasim::simtrace::{NoopSink, TraceSummary, VecSink};
use obsv::percentile;
use outcome::{digest, mean, median, turnarounds};
use std::fmt::Write as _;
use std::time::Duration;
use workload::{run_regime, Inputs, RegimeRun, Workload};

/// A flat JSON object, built in insertion order.
#[derive(Default)]
struct Obj(String);

impl Obj {
    fn num(&mut self, key: &str, v: f64) -> &mut Self {
        let v = if v.is_finite() {
            format!("{v}")
        } else {
            "null".into()
        };
        self.raw(key, &v)
    }

    fn int(&mut self, key: &str, v: u64) -> &mut Self {
        self.raw(key, &v.to_string())
    }

    fn str(&mut self, key: &str, v: &str) -> &mut Self {
        self.raw(key, &format!("\"{v}\""))
    }

    fn raw(&mut self, key: &str, v: &str) -> &mut Self {
        if !self.0.is_empty() {
            self.0.push(',');
        }
        let _ = write!(self.0, "\"{key}\":{v}");
        self
    }

    fn done(&self) -> String {
        format!("{{{}}}", self.0)
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Peak resident set of this process, MB, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn input_props(o: &mut Obj, inputs: &Inputs, w: &Workload) {
    o.int("hosts", inputs.hosts as u64)
        .int("jobs", inputs.jobs.len() as u64)
        .int("submit_window_s", w.span_s)
        .int(
            "crashes_before_last_submit",
            inputs.crashes_before_last_submit() as u64,
        );
}

fn run_all(
    inputs: &Inputs,
    w: &Workload,
    sink: &mut dyn FnMut(SchedRegime) -> Result<RegimeRun, String>,
) -> Result<Vec<RegimeRun>, String> {
    let runs = w
        .regimes
        .iter()
        .map(|&r| sink(r))
        .collect::<Result<Vec<_>, _>>()?;
    outcome::check(&runs, inputs.jobs.len())?;
    Ok(runs)
}

fn pass(w: &Workload, seed: u64) -> Result<String, String> {
    let inputs = w.inputs(seed).map_err(|e| e.to_string())?;
    let runs = run_all(&inputs, w, &mut |r| {
        run_regime(&inputs, r, &mut NoopSink).map_err(|e| format!("{r}: {e}"))
    })?;
    let t = turnarounds(&runs);
    let submitted = runs.iter().map(|r| r.records.len()).sum::<usize>();
    let mut o = Obj::default();
    o.num("wall_s", runs.iter().map(|r| r.wall_s).sum())
        .str("digest", &format!("{:016x}", digest(&runs)))
        .int("jobs_submitted", submitted as u64)
        .int("jobs_completed", t.len() as u64)
        .num("sim_turnaround_p50_s", median(&t))
        .num("sim_turnaround_mean_s", mean(&t))
        .num("peak_rss_mb", peak_rss_mb());
    for run in &runs {
        o.num(&format!("{}_s", run.regime), run.wall_s);
    }
    input_props(&mut o, &inputs, w);
    Ok(o.done())
}

fn setup(w: &Workload, seed: u64, reps: usize) -> Result<String, String> {
    let (s, total) = probe::setup_median(w, seed, reps).map_err(|e| e.to_string())?;
    let mut o = Obj::default();
    o.num("setup_s", total)
        .num("topology_s", s.topology_s)
        .num("faults_s", s.faults_s)
        .int("hosts", s.hosts as u64)
        .int("series_points", s.series_points as u64);
    Ok(o.done())
}

fn trace(w: &Workload, seed: u64) -> Result<String, String> {
    let inputs = w.inputs(seed).map_err(|e| e.to_string())?;
    let err = |r: SchedRegime| move |e: apples_grid::GridError| format!("{r}: {e}");

    let untraced = run_all(&inputs, w, &mut |r| {
        run_regime(&inputs, r, &mut NoopSink).map_err(err(r))
    })?;
    let mut sink = WallSink::default();
    let traced = run_all(&inputs, w, &mut |r| {
        sink.begin(r);
        let run = run_regime(&inputs, r, &mut sink).map_err(err(r));
        sink.end();
        run
    })?;
    let mut traces: Vec<Vec<_>> = Vec::new();
    let collected = run_all(&inputs, w, &mut |r| {
        let mut vec = VecSink::new();
        let run = run_regime(&inputs, r, &mut vec).map_err(err(r));
        traces.push(vec.events);
        run
    })?;

    let d = digest(&untraced);
    if digest(&traced) != d || digest(&collected) != d {
        return Err("tracing changed the outcome digest".into());
    }
    if sink.closure_error_ns() > 0 {
        return Err(format!(
            "attribution does not close: off by {} ns",
            sink.closure_error_ns()
        ));
    }
    let summaries: Vec<_> = traces
        .iter()
        .map(|t| TraceSummary::from_events(t))
        .collect();
    for (i, kind) in obsv::KINDS.iter().enumerate() {
        let want: u64 = summaries
            .iter()
            .map(|s| s.by_kind.get(*kind).copied().unwrap_or(0) as u64)
            .sum();
        if sink.count[i] != want {
            return Err(format!(
                "{kind}: wall sink saw {} events, a VecSink run {want}",
                sink.count[i]
            ));
        }
    }

    let (setup, _) = probe::setup_median(w, seed, 3).map_err(|e| e.to_string())?;
    let (fc_start, fc_end) = probe::forecast_us(&inputs).map_err(|e| e.to_string())?;
    let decide128 = probe::decide_ms_fattree128().map_err(|e| e.to_string())?;
    let folds = probe::time_folds(&traces);

    let untraced_s: f64 = untraced.iter().map(|r| r.wall_s).sum();
    let regime_s = |r: SchedRegime| {
        untraced
            .iter()
            .filter(|run| run.regime == r)
            .map(|run| run.wall_s)
            .sum::<f64>()
    };
    let considered = sink.count_of("candidate_considered");
    let offered: u64 = sink.candidates.iter().map(|&c| c as u64).sum();
    let decisions = sink.count_of("resource_selection");
    let imposed = sink.count_of("load_imposed");
    let pe = secs(sink.layer_time(Layer::PlanEstimate));
    let load = secs(sink.layer_time(Layer::Load));
    let per = |total: f64, n: u64| if n == 0 { 0.0 } else { total * 1e6 / n as f64 };
    let records = || traced.iter().flat_map(|r| r.records.iter());

    let mut m = Obj::default();
    m.num("setup.topology_s", setup.topology_s)
        .num("setup.faults_s", setup.faults_s)
        .int("setup.hosts", setup.hosts as u64)
        .int("setup.series_points", setup.series_points as u64)
        .num("setup.in_run_s", secs(sink.layer_time(Layer::Setup)))
        .num("nws.advance_s", secs(sink.layer_time(Layer::Nws)))
        .int("nws.forecasts_issued", sink.count_of("forecast_issued"))
        .num("nws.forecast_us_start", fc_start)
        .num("nws.forecast_us_end", fc_end)
        .int("select.decisions", decisions)
        .int("select.candidates", offered)
        .int(
            "select.candidates_max",
            sink.candidates.iter().copied().max().unwrap_or(0) as u64,
        )
        .num("select.s", secs(sink.layer_time(Layer::Select)))
        .num("select.decide_ms_fattree128", decide128)
        .int("plan_estimate.considered", considered)
        .int("plan_estimate.rejected", offered.saturating_sub(considered))
        .num("plan_estimate.s", pe)
        .num("plan_estimate.us_per_candidate", per(pe, considered))
        .num("decide.s", secs(sink.layer_time(Layer::Decide)))
        .num("decide.ms_p50", percentile(&sink.decide_ms, 50.0))
        .num("decide.ms_p90", percentile(&sink.decide_ms, 90.0))
        .num("decide.ms_max", percentile(&sink.decide_ms, 100.0))
        .num(
            "decide.useful_ratio",
            if considered == 0 {
                0.0
            } else {
                decisions as f64 / considered as f64
            },
        )
        .num("actuate.s", secs(sink.layer_time(Layer::Actuate)))
        .int("net.transfers", sink.count_of("transfer_finish"))
        .int("exec.compute_tasks", sink.count_of("compute_start"))
        .int("load.impositions", imposed)
        .num("load.s", load)
        .num("load.us_per_imposition", per(load, imposed))
        .num("fault.s", secs(sink.layer_time(Layer::Fault)))
        .int("fault.host_faults", sink.count_of("host_fault_injected"))
        .int("fault.revocations", sink.count_of("placement_revoked"))
        .int("resched.triggers", sink.count_of("reschedule_triggered"))
        .num(
            "resched.s",
            secs(sink.time_of("reschedule_triggered") + sink.time_of("reschedule_decision")),
        )
        .num("regime.s", secs(sink.layer_time(Layer::Regime)))
        .num("regime.selfish_s", regime_s(SchedRegime::Selfish))
        .num("regime.batch_s", regime_s(SchedRegime::Batch))
        .num("regime.fractional_s", regime_s(SchedRegime::Fractional))
        .int(
            "regime.attempts",
            records().map(|r| u64::from(r.attempts)).sum(),
        )
        .int("regime.retries", sink.count_of("job_retried"))
        .int("regime.backfills", sink.count_of("job_backfilled"))
        .num("regime.backfill_s", secs(sink.time_of("job_backfilled")))
        .num("regime.share_update_s", secs(sink.share_update))
        .int("obsv.events", sink.count.iter().sum())
        .num("obsv.sink_s", secs(sink.layer_time(Layer::Obsv)))
        .num("obsv.metrics_fold_s", folds.metrics_s)
        .num("obsv.profile_fold_s", folds.profile_s)
        .num("obsv.span_fold_s", folds.span_s)
        .num("obsv.timeseries_fold_s", folds.timeseries_s)
        .num("trace.wall_s", secs(sink.traced))
        .num("trace.overhead_s", secs(sink.traced) - untraced_s)
        .num("trace.unattributed_s", secs(sink.unattributed));
    let mut o = Obj::default();
    o.raw("metrics", &m.done())
        .str("digest", &format!("{d:016x}"))
        .int("jobs_submitted", records().count() as u64)
        .int(
            "jobs_completed",
            records().filter(|r| r.completed).count() as u64,
        );
    input_props(&mut o, &inputs, w);
    Ok(o.done())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: appbench pass|setup|trace WORKLOAD SEED [REPS]";
    let result = match args.as_slice() {
        [cmd, name, seed, rest @ ..] => {
            let w = Workload::by_name(name);
            let seed = seed.parse::<u64>().ok();
            match (cmd.as_str(), w, seed, rest) {
                (_, None, _, _) => Err(format!("unknown workload {name}")),
                (_, _, None, _) => Err(usage.to_string()),
                ("pass", Some(w), Some(s), []) => pass(w, s),
                ("trace", Some(w), Some(s), []) => trace(w, s),
                ("setup", Some(w), Some(s), [reps]) => match reps.parse() {
                    Ok(reps) => setup(w, s, reps),
                    Err(_) => Err(usage.to_string()),
                },
                _ => Err(usage.to_string()),
            }
        }
        _ => Err(usage.to_string()),
    };
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("appbench: {e}");
            std::process::exit(1);
        }
    }
}
