//! Direct timed calls into public functions, outside any regime run.

use crate::workload::{Inputs, Workload, MACHINE_SEED};
use apples::coordinator::Coordinator;
use apples::info::InfoPool;
use apples_grid::workload::JobKind;
use apples_grid::{FaultInjection, GridConfig, GridError};
use metasim::simtrace::{EventSink, TraceEvent};
use metasim::testbed::{pcl_sdsc, TestbedConfig};
use metasim::topogen::{self, TopoGenConfig, TopoSpec};
use metasim::{apply_faults, SimTime, Topology};
use nws::{WeatherService, WeatherServiceConfig};
use obsv::{MetricsSink, Profile, SpanTree, TimeSeriesSink};
use std::hint::black_box;
use std::time::Instant;

/// Build the testbed a regime call builds for `grid`, through the
/// public generator it uses.
pub fn build_testbed(grid: &GridConfig) -> Result<Topology, GridError> {
    let topo = match &grid.topo {
        Some(spec) => topogen::generate(
            spec,
            &TopoGenConfig {
                profile: grid.profile,
                horizon: grid.horizon,
                seed: grid.seed,
            },
        )?,
        None => {
            pcl_sdsc(&TestbedConfig {
                profile: grid.profile,
                horizon: grid.horizon,
                seed: grid.seed,
                with_sp2: grid.with_sp2,
            })?
            .topo
        }
    };
    Ok(topo)
}

/// One timed set-up of a workload's inputs.
pub struct SetupSample {
    pub topology_s: f64,
    pub faults_s: f64,
    pub hosts: usize,
    pub series_points: usize,
}

impl SetupSample {
    pub fn total_s(&self) -> f64 {
        self.topology_s + self.faults_s
    }
}

/// Time the testbed build (load realization included) and the fault
/// application onto it, each call on its own.
pub fn setup_once(inputs: &Inputs) -> Result<SetupSample, GridError> {
    let t = Instant::now();
    let topo = black_box(build_testbed(&inputs.grid)?);
    let topology_s = t.elapsed().as_secs_f64();
    let series_points = topo
        .hosts()
        .iter()
        .map(|h| h.availability().points().len())
        .chain(topo.links().iter().map(|l| l.availability().points().len()))
        .sum();
    let hosts = topo.hosts().len();
    let faults_s = match &inputs.grid.faults {
        FaultInjection::Spec(spec) => {
            let mut live = topo.clone();
            let t = Instant::now();
            apply_faults(&mut live, spec)?;
            black_box(&live);
            t.elapsed().as_secs_f64()
        }
        _ => 0.0,
    };
    Ok(SetupSample {
        topology_s,
        faults_s,
        hosts,
        series_points,
    })
}

/// Mean µs per `WeatherService::forecast` over every monitored key,
/// after advancing the workload's testbed to the warm-up and to its
/// last submission.
pub fn forecast_us(inputs: &Inputs) -> Result<(f64, f64), GridError> {
    let mut topo = build_testbed(&inputs.grid)?;
    if let FaultInjection::Spec(spec) = &inputs.grid.faults {
        apply_faults(&mut topo, spec)?;
    }
    let mut ws = WeatherService::for_topology(&topo, WeatherServiceConfig::default());
    let last = inputs
        .jobs
        .iter()
        .map(|j| j.submit)
        .max()
        .unwrap_or(SimTime::ZERO);
    let mut out = [0.0; 2];
    for (slot, until) in out
        .iter_mut()
        .zip([inputs.grid.warmup, inputs.grid.warmup + last])
    {
        ws.advance(&topo, until);
        let keys: Vec<_> = ws.keys().collect();
        let reps = 200;
        let t = Instant::now();
        for _ in 0..reps {
            for &k in &keys {
                black_box(ws.forecast(k));
            }
        }
        *slot = t.elapsed().as_secs_f64() * 1e6 / (reps * keys.len().max(1)) as f64;
    }
    Ok((out[0], out[1]))
}

/// One timed `Coordinator::decide` for a Jacobi job on an NWS pool over
/// the 128-host fat-tree machine, in ms.
pub fn decide_ms_fattree128() -> Result<f64, GridError> {
    let grid = GridConfig {
        topo: Some(TopoSpec::parse("fat-tree:k=4")?),
        seed: MACHINE_SEED,
        ..GridConfig::default()
    };
    let topo = build_testbed(&grid)?;
    let mut ws = WeatherService::for_topology(&topo, WeatherServiceConfig::default());
    ws.advance(&topo, grid.warmup);
    let (hat, user) = JobKind::Jacobi {
        n: 800,
        iterations: 60,
    }
    .hat_and_user();
    let pool = InfoPool::with_nws(&topo, &ws, &hat, &user, grid.warmup);
    let agent = Coordinator::new(hat.clone(), user.clone());
    let t = Instant::now();
    black_box(agent.decide(&pool)?);
    Ok(t.elapsed().as_secs_f64() * 1e3)
}

/// Host seconds of each public obsv fold over one trace per regime.
pub struct Folds {
    pub metrics_s: f64,
    pub profile_s: f64,
    pub span_s: f64,
    pub timeseries_s: f64,
}

pub fn time_folds(traces: &[Vec<TraceEvent>]) -> Folds {
    let mut f = Folds {
        metrics_s: 0.0,
        profile_s: 0.0,
        span_s: 0.0,
        timeseries_s: 0.0,
    };
    for events in traces {
        let owned = events.clone();
        let t = Instant::now();
        let mut metrics = MetricsSink::new();
        for e in owned {
            metrics.record(e);
        }
        black_box(metrics.registry().expose());
        f.metrics_s += t.elapsed().as_secs_f64();

        let t = Instant::now();
        black_box(Profile::from_events(events));
        f.profile_s += t.elapsed().as_secs_f64();

        let t = Instant::now();
        black_box(SpanTree::from_events(events).composition());
        f.span_s += t.elapsed().as_secs_f64();

        let owned = events.clone();
        let t = Instant::now();
        let mut series = TimeSeriesSink::fixed_seconds(300.0);
        for e in owned {
            series.record(e);
        }
        black_box(series.finalize());
        f.timeseries_s += t.elapsed().as_secs_f64();
    }
    f
}

/// Median of `reps` set-ups.
pub fn setup_median(w: &Workload, seed: u64, reps: usize) -> Result<(SetupSample, f64), GridError> {
    let inputs = w.inputs(seed)?;
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        samples.push(setup_once(&inputs)?);
    }
    let totals: Vec<f64> = samples.iter().map(SetupSample::total_s).collect();
    let med = crate::outcome::median(&totals);
    let pick = |f: fn(&SetupSample) -> f64| {
        crate::outcome::median(&samples.iter().map(f).collect::<Vec<_>>())
    };
    let sample = SetupSample {
        topology_s: pick(|s| s.topology_s),
        faults_s: pick(|s| s.faults_s),
        hosts: samples[0].hosts,
        series_points: samples[0].series_points,
    };
    Ok((sample, med))
}
