//! Subcommand implementations.

use crate::args::{ArgError, Parsed};
use apples::coordinator::Coordinator;
use apples::info::{ForecastSource, InfoPool};
use apples::user::{PerformanceMetric, UserSpec};
use apples::Schedule;
use apples_apps::jacobi2d::partition::jacobi_context;
use apples_apps::jacobi2d::{blocked_uniform, static_strip};
use apples_apps::nile::{cleo_analysis_hat, SiteManager};
use apples_apps::react3d;
use metasim::exec::simulate_spmd;
use metasim::host::HostSpec;
use metasim::testbed::{pcl_sdsc, LoadProfile, Testbed, TestbedConfig};
use metasim::{HostId, SimTime};
use nws::{ResourceKey, WeatherService, WeatherServiceConfig};

type CmdResult = Result<(), Box<dyn std::error::Error>>;

fn profile_of(p: &Parsed) -> Result<LoadProfile, ArgError> {
    match p.get("profile", "moderate") {
        "dedicated" => Ok(LoadProfile::Dedicated),
        "light" => Ok(LoadProfile::Light),
        "moderate" => Ok(LoadProfile::Moderate),
        "heavy" => Ok(LoadProfile::Heavy),
        other => Err(ArgError(format!("unknown profile {other:?}"))),
    }
}

fn build_testbed(p: &Parsed) -> Result<Testbed, Box<dyn std::error::Error>> {
    let cfg = TestbedConfig {
        profile: profile_of(p)?,
        horizon: SimTime::from_secs(400_000),
        seed: p.get_parsed("seed", 1996u64)?,
        with_sp2: p.switch("sp2"),
    };
    Ok(pcl_sdsc(&cfg)?)
}

/// `apples-cli testbed`
pub fn testbed(p: &Parsed) -> CmdResult {
    let tb = build_testbed(p)?;
    outln!("SDSC/PCL testbed (Figure 2), profile {:?}:", profile_of(p)?);
    for h in tb.topo.hosts() {
        let mean = h.mean_availability(SimTime::ZERO, SimTime::from_secs(100_000));
        outln!(
            "  {:>14}  {:>5.0} Mflop/s  {:>6.0} MB  mean availability {:.2}",
            h.spec.name,
            h.spec.mflops,
            h.spec.mem_mb,
            mean
        );
    }
    for l in tb.topo.links() {
        outln!(
            "  {:>18}  {:>6.2} MB/s  {:>5.1} ms",
            l.spec.name,
            l.spec.bandwidth_mbps,
            l.spec.latency.as_secs_f64() * 1e3
        );
    }
    Ok(())
}

/// `apples-cli schedule`
pub fn schedule(p: &Parsed) -> CmdResult {
    let tb = build_testbed(p)?;
    let n: usize = p.get_parsed("n", 2000)?;
    let iterations: usize = p.get_parsed("iterations", 100)?;
    let warmup = SimTime::from_secs(p.get_parsed("warmup", 600u64)?);

    let (hat, mut user) = jacobi_context(n, iterations);
    user.max_hosts = p.get_parsed("max-hosts", usize::MAX)?;
    user.metric = match p.get("metric", "time") {
        "time" => PerformanceMetric::ExecutionTime,
        "speedup" => PerformanceMetric::Speedup,
        other => match other.strip_prefix("cost:") {
            Some(rate) => PerformanceMetric::Cost {
                per_host_second: rate
                    .parse()
                    .map_err(|_| ArgError(format!("bad cost rate {rate:?}")))?,
            },
            None => return Err(ArgError(format!("unknown metric {other:?}")).into()),
        },
    };
    let source = match p.get("source", "nws") {
        "nws" => ForecastSource::Nws,
        "last-value" => ForecastSource::LastValue,
        "oracle" => ForecastSource::Oracle,
        "static" => ForecastSource::StaticNominal,
        other => return Err(ArgError(format!("unknown source {other:?}")).into()),
    };

    let mut ws = WeatherService::for_topology(&tb.topo, WeatherServiceConfig::default());
    ws.advance(&tb.topo, warmup);
    let mut pool = InfoPool::with_nws(&tb.topo, &ws, &hat, &user, warmup);
    pool.source = source;
    let agent = Coordinator::new(hat.clone(), user.clone());
    let decision = agent.decide(&pool)?;
    let report = apples::actuator::actuate(&tb.topo, &hat, decision.schedule(), warmup)?;

    outln!(
        "Jacobi2D {n}x{n}, {iterations} iterations — {} candidates considered, {} rejected",
        decision.considered.len(),
        decision.rejected
    );
    if let Schedule::Stencil(s) = decision.schedule() {
        for part in &s.parts {
            let h = tb.topo.host(part.host)?;
            outln!(
                "  {:>14}: {:>5} rows ({:>5.1}%)",
                h.spec.name,
                part.rows,
                part.rows as f64 / n as f64 * 100.0
            );
        }
    }
    outln!(
        "predicted {:.2} s, actuated {:.2} s",
        decision.chosen().predicted_seconds,
        report.elapsed_seconds
    );
    Ok(())
}

/// `apples-cli compare`
pub fn compare(p: &Parsed) -> CmdResult {
    let tb = build_testbed(p)?;
    let n: usize = p.get_parsed("n", 2000)?;
    let iterations: usize = p.get_parsed("iterations", 100)?;
    let warmup = SimTime::from_secs(600);
    let (hat, user) = jacobi_context(n, iterations);
    let t = hat.as_stencil().expect("stencil");

    let mut ws = WeatherService::for_topology(&tb.topo, WeatherServiceConfig::default());
    ws.advance(&tb.topo, warmup);
    let pool = InfoPool::with_nws(&tb.topo, &ws, &hat, &user, warmup);
    let apples = apples_apps::jacobi2d::apples_stencil_schedule(&pool)?;
    let a = simulate_spmd(&tb.topo, &apples.to_spmd_job(t, warmup))?;

    let ws_hosts = tb.workstations();
    let strip = static_strip(&tb.topo, n, iterations, &ws_hosts);
    let s = simulate_spmd(&tb.topo, &strip.to_spmd_job(t, warmup))?;
    let blocked = blocked_uniform(n, iterations, &ws_hosts);
    let b = simulate_spmd(&tb.topo, &blocked.to_spmd_job(t, warmup))?;

    let (a, s, b) = (
        a.makespan(warmup).as_secs_f64(),
        s.makespan(warmup).as_secs_f64(),
        b.makespan(warmup).as_secs_f64(),
    );
    outln!("Jacobi2D {n}x{n}, {iterations} iterations (one trial):");
    outln!("  AppLeS       {a:>9.2} s");
    outln!("  static Strip {s:>9.2} s   ({:.2}x)", s / a);
    outln!("  HPF Blocked  {b:>9.2} s   ({:.2}x)", b / a);
    Ok(())
}

/// `apples-cli forecast`
pub fn forecast(p: &Parsed) -> CmdResult {
    let tb = build_testbed(p)?;
    let host = HostId(p.get_parsed("host", 1usize)?);
    let until: u64 = p.get_parsed("until", 3600u64)?;
    let name = &tb.topo.host(host)?.spec.name;
    outln!("NWS tracking {name} for {until} s:");
    let mut ws = WeatherService::for_topology(&tb.topo, WeatherServiceConfig::default());
    let key = ResourceKey::Cpu(host);
    let step = (until / 12).max(60);
    let mut t = step;
    outln!(
        "{:>8}  {:>8}  {:>8}  {:>7}  predictor",
        "time s",
        "measured",
        "forecast",
        "err"
    );
    while t <= until {
        let now = SimTime::from_secs(t);
        ws.advance(&tb.topo, now);
        if let (Some(cur), Some(f)) = (ws.current(key), ws.forecast(key)) {
            outln!(
                "{:>8}  {:>8.3}  {:>8.3}  {:>7.4}  {}",
                t,
                cur,
                f.value,
                f.error,
                f.method
            );
        }
        t += step;
    }
    Ok(())
}

/// `apples-cli react`
pub fn react(p: &Parsed) -> CmdResult {
    let seed: u64 = p.get_parsed("seed", 0u64)?;
    let unit: usize = p.get_parsed("unit", 0usize)?;
    let depth: usize = p.get_parsed("depth", 4usize)?;
    let tb = react3d::casa_testbed(seed)?;
    const HOUR: f64 = 3600.0;
    let c90 = react3d::single_site_run(&tb, tb.c90)?.as_secs_f64() / HOUR;
    let par = react3d::single_site_run(&tb, tb.paragon)?.as_secs_f64() / HOUR;
    outln!("3D-REACT: single-site C90 {c90:.2} h, Paragon {par:.2} h");
    if unit > 0 {
        let run = react3d::distributed_run(&tb, unit, depth)?;
        outln!(
            "distributed (unit {unit}, depth {depth}): {:.2} h",
            run.makespan(SimTime::ZERO).as_secs_f64() / HOUR
        );
    } else {
        for (u, secs) in
            react3d::sweep_pipeline_sizes(&tb, &[1, 2, 5, 10, 20, 40, 130, 520], depth)?
        {
            outln!("  unit {u:>4}: {:.2} h", secs / HOUR);
        }
    }
    Ok(())
}

/// `apples-cli nile`
pub fn nile(p: &Parsed) -> CmdResult {
    let events: u64 = p.get_parsed("events", 150_000u64)?;
    let runs: usize = p.get_parsed("runs", 8usize)?;
    let seed: u64 = p.get_parsed("seed", 0u64)?;

    // A compact two-site setup: server behind a WAN, Alpha farm local.
    let mut b = metasim::net::TopologyBuilder::new();
    let exp = b.add_segment(metasim::net::LinkSpec::dedicated(
        "experiment",
        12.5,
        SimTime::from_micros(500),
    ));
    let lab = b.add_segment(metasim::net::LinkSpec::dedicated(
        "analysis",
        12.5,
        SimTime::from_micros(500),
    ));
    let wan = b.add_link(metasim::net::LinkSpec::dedicated(
        "wan",
        0.6,
        SimTime::from_millis(35),
    ));
    b.add_route(exp, lab, vec![wan])?;
    let server = b.add_host(metasim::host::HostSpec::dedicated(
        "event-store",
        25.0,
        4096.0,
        exp,
    ));
    let mut compute = Vec::new();
    for i in 0..3 {
        compute.push(b.add_host(metasim::host::HostSpec::dedicated(
            &format!("alpha-{i}"),
            40.0,
            256.0,
            lab,
        )));
    }
    let topo = b.instantiate(SimTime::from_secs(10_000_000), seed)?;

    let hat = cleo_analysis_hat(events);
    let user = UserSpec::default();
    let pool = InfoPool::static_nominal(&topo, &hat, &user, SimTime::ZERO);
    let sm = SiteManager {
        runs,
        skim_mb_factor: 3.0,
    };
    let plan = sm.plan_campaign(&pool, &compute, server, compute[0])?;
    let measured = sm.run_campaign(&topo, &hat, &plan, server, compute[0], SimTime::ZERO)?;
    outln!(
        "{events} events, {runs} run(s): Site Manager chose {} \
         (predicted {:.1} s vs {:.1} s; measured {:.1} s)",
        if plan.skim { "SKIM" } else { "REMOTE" },
        plan.predicted_seconds,
        plan.predicted_alternative_seconds,
        measured
    );
    Ok(())
}

/// `apples-cli resched`
pub fn resched(p: &Parsed) -> CmdResult {
    use apples::rescheduler::ReschedulingAgent;
    let n: usize = p.get_parsed("n", 1600)?;
    let iterations: usize = p.get_parsed("iterations", 600)?;
    let phase: usize = p.get_parsed("phase", 50)?;
    let seed: u64 = p.get_parsed("seed", 0u64)?;

    // Two host pairs that swap load regimes 60 s into the run.
    let mut b = metasim::net::TopologyBuilder::new();
    let seg = b.add_segment(metasim::net::LinkSpec::dedicated(
        "seg",
        12.5,
        SimTime::from_micros(500),
    ));
    for i in 0..2 {
        b.add_host(HostSpec::workstation(
            &format!("early-idle-{i}"),
            30.0,
            1024.0,
            seg,
            metasim::load::LoadModel::Trace(vec![
                (SimTime::ZERO, 0.95),
                (SimTime::from_secs(660), 0.1),
            ]),
        ));
        b.add_host(HostSpec::workstation(
            &format!("late-idle-{i}"),
            30.0,
            1024.0,
            seg,
            metasim::load::LoadModel::Trace(vec![
                (SimTime::ZERO, 0.1),
                (SimTime::from_secs(660), 0.95),
            ]),
        ));
    }
    let topo = b.instantiate(SimTime::from_secs(1_000_000), seed)?;
    let start = SimTime::from_secs(600);
    let hat = apples::hat::jacobi2d_hat(n, iterations);
    let user = UserSpec::default();

    let mut ws1 = WeatherService::for_topology(&topo, WeatherServiceConfig::default());
    ws1.advance(&topo, start);
    let one_shot = Coordinator::new(hat.clone(), user.clone());
    let (_, one_shot_report) = one_shot.run(&topo, &ws1, start)?;

    let mut ws2 = WeatherService::for_topology(&topo, WeatherServiceConfig::default());
    let mut adaptive = ReschedulingAgent::new(Coordinator::new(hat, user));
    adaptive.policy.phase_iterations = phase;
    let report = adaptive.run_stencil(&topo, &mut ws2, start)?;

    outln!("Jacobi2D {n}x{n}, {iterations} iterations; load regime flips at t = 660 s");
    outln!("one-shot:     {:>8.1} s", one_shot_report.elapsed_seconds);
    outln!(
        "rescheduling: {:>8.1} s  ({} migration(s), phase = {phase} iterations)",
        report.elapsed_seconds,
        report.migrations
    );
    outln!(
        "speedup: {:.2}x",
        one_shot_report.elapsed_seconds / report.elapsed_seconds
    );
    Ok(())
}

/// `apples-cli advise`
pub fn advise_cmd(p: &Parsed) -> CmdResult {
    use apples::advisor::advise;
    use metasim::host::SharingPolicy;
    let wait: f64 = p.get_parsed("wait", 900.0f64)?;
    let avail: f64 = p.get_parsed("avail", 0.35f64)?;
    let n: usize = p.get_parsed("n", 1200)?;
    let iterations: usize = p.get_parsed("iterations", 800)?;

    let mut b = metasim::net::TopologyBuilder::new();
    let seg = b.add_segment(metasim::net::LinkSpec::dedicated(
        "seg",
        20.0,
        SimTime::from_micros(200),
    ));
    for i in 0..2 {
        let mut spec = HostSpec::dedicated(&format!("batch-{i}"), 40.0, 1024.0, seg);
        spec.sharing = SharingPolicy::SpaceShared {
            wait: SimTime::from_secs_f64(wait),
        };
        b.add_host(spec);
    }
    for i in 0..2 {
        b.add_host(HostSpec::workstation(
            &format!("shared-{i}"),
            40.0,
            1024.0,
            seg,
            metasim::load::LoadModel::Constant(avail),
        ));
    }
    let topo = b.instantiate(SimTime::from_secs(1_000_000), 0)?;

    let hat = apples::hat::jacobi2d_hat(n, iterations);
    let user = UserSpec::default();
    let mut pool = InfoPool::static_nominal(&topo, &hat, &user, SimTime::ZERO);
    pool.source = ForecastSource::Oracle;
    let advice = advise(
        &pool,
        &[vec![HostId(0), HostId(1)], vec![HostId(2), HostId(3)]],
    )?;
    outln!(
        "Jacobi2D {n}x{n} x{iterations}: queue wait {wait:.0} s vs shared pool at {:.0}%",
        avail * 100.0
    );
    for o in &advice.options {
        outln!(
            "  wait {:>6.0} s -> complete in {:>9.1} s",
            o.wait_seconds,
            o.completion_seconds
        );
    }
    let chosen = advice.chosen();
    outln!(
        "recommendation: {}",
        if chosen.wait_seconds > 0.0 {
            "WAIT for the dedicated partition"
        } else {
            "RUN NOW on the shared pool"
        }
    );
    Ok(())
}

/// `apples-cli whatif`
pub fn whatif(p: &Parsed) -> CmdResult {
    use apples::whatif::{evaluate, standard_menu};
    let tb = build_testbed(p)?;
    let n: usize = p.get_parsed("n", 1600)?;
    let iterations: usize = p.get_parsed("iterations", 60)?;
    let now = SimTime::from_secs(600);
    let mut ws = WeatherService::for_topology(&tb.topo, WeatherServiceConfig::default());
    ws.advance(&tb.topo, now);
    let (hat, user) = jacobi_context(n, iterations);
    let menu = standard_menu(&tb.topo);
    let report = evaluate(&tb.topo, &ws, &hat, &user, now, &menu)?;
    outln!(
        "Jacobi2D {n}x{n} x{iterations}: baseline {:.2} s; top upgrades:",
        report.baseline_seconds
    );
    for r in report.results.iter().take(8) {
        outln!(
            "  {:>34}: {:>7.2} s ({:.2}x)",
            r.upgrade.describe(&tb.topo),
            r.upgraded_seconds,
            r.speedup
        );
    }
    Ok(())
}

/// Build the service- and workload-side configs for `grid` and
/// `validate` from the shared flag set. Deliberately does *not*
/// reject bad knob values here: both commands route them through
/// [`apples_grid::validate_config`] so every malformed class is
/// reported as a typed diagnostic rather than an ad-hoc parse error.
fn grid_setup(
    p: &Parsed,
) -> Result<(apples_grid::GridConfig, apples_grid::WorkloadConfig), Box<dyn std::error::Error>> {
    use apples_grid::workload::{ArrivalProcess, JobMix, RetryPolicy, WorkloadConfig};
    use apples_grid::{FaultInjection, GridConfig, Regime};
    use metasim::FaultModel;
    let rate: f64 = p.get_parsed("rate", 0.02)?;
    let duration: f64 = p.get_parsed("duration", 3600.0)?;
    let seed: u64 = p.get_parsed("seed", 1996)?;
    let horizon: f64 = p.get_parsed("horizon", 400_000.0)?;
    let max_in_flight: usize = p.get_parsed("max-in-flight", usize::MAX)?;
    let fault_rate: f64 = p.get_parsed("fault-rate", 0.0)?;
    let link_fault_rate: f64 = p.get_parsed("link-fault-rate", 0.0)?;
    let mean_outage: f64 = p.get_parsed("mean-outage", 600.0)?;
    let permanent: f64 = p.get_parsed("permanent", 0.25)?;
    let max_attempts: u32 = p.get_parsed("max-attempts", 1)?;
    let backoff: f64 = p.get_parsed("backoff", 30.0)?;
    // Build a fault model as soon as any fault knob is touched, even
    // with zero rates, so the validator sees (and can reject) every
    // given value instead of silently discarding an inert model.
    let fault_knob_given = ["fault-rate", "link-fault-rate", "mean-outage", "permanent"]
        .iter()
        .any(|k| !p.get(k, "").is_empty());
    let faults = if fault_knob_given {
        FaultInjection::Random(FaultModel {
            host_crashes_per_hour: fault_rate,
            link_outages_per_hour: link_fault_rate,
            mean_outage: SimTime::from_secs_f64(mean_outage),
            permanent_fraction: permanent,
        })
    } else {
        FaultInjection::None
    };
    let topo_raw = p.get("topo", "");
    let topo = if topo_raw.is_empty() {
        None
    } else {
        Some(metasim::topogen::TopoSpec::parse(topo_raw)?)
    };
    let cfg = GridConfig {
        profile: profile_of(p)?,
        with_sp2: p.switch("sp2"),
        topo,
        seed,
        horizon: SimTime::from_secs_f64(horizon),
        regime: if p.switch("blind") {
            Regime::Blind
        } else {
            Regime::Aware
        },
        max_in_flight,
        faults,
        ..GridConfig::default()
    };
    let workload = WorkloadConfig {
        arrivals: ArrivalProcess::Poisson { rate_hz: rate },
        mix: JobMix::default_mix(),
        duration: SimTime::from_secs_f64(duration),
        seed,
        retry: RetryPolicy {
            max_attempts,
            base_backoff: SimTime::from_secs_f64(backoff),
            factor: 2.0,
        },
    };
    Ok((cfg, workload))
}

/// `apples-cli validate` — static pre-run check of a grid
/// configuration: print every typed diagnostic, exit nonzero if any.
pub fn validate(p: &Parsed) -> CmdResult {
    let (cfg, workload) = grid_setup(p)?;
    let diags = apples_grid::validate_config(&cfg, Some(&workload));
    if diags.is_empty() {
        outln!(
            "configuration OK: {} profile{}, horizon {}, seed {}",
            p.get("profile", "moderate"),
            if cfg.with_sp2 { " with SP-2 nodes" } else { "" },
            cfg.horizon,
            cfg.seed,
        );
        return Ok(());
    }
    for d in &diags {
        outln!("{d}");
    }
    Err(format!("{} configuration issue(s) found", diags.len()).into())
}

/// Parse the `--regime` flag shared by `grid`, `metrics` and `race`.
fn sched_regime_of(p: &Parsed) -> Result<apples_grid::SchedRegime, ArgError> {
    let raw = p.get("regime", "selfish");
    apples_grid::SchedRegime::parse(raw).ok_or_else(|| {
        ArgError(format!(
            "unknown scheduling regime {raw:?} (selfish | batch | fractional)"
        ))
    })
}

/// `apples-cli grid`
pub fn grid(p: &Parsed) -> CmdResult {
    use apples_grid::workload::ArrivalProcess;
    use apples_grid::{GridService, Regime};
    let (cfg, workload) = grid_setup(p)?;
    let sched = sched_regime_of(p)?;
    let ArrivalProcess::Poisson { rate_hz: rate } = workload.arrivals else {
        return Err(ArgError("grid streams use Poisson arrivals".into()).into());
    };
    let duration = workload.duration.as_secs_f64();
    let seed = cfg.seed;
    let max_in_flight = cfg.max_in_flight;
    let service = GridService::new(cfg)?;
    let cfg = service.config();
    let trace_path = p.get("trace", "");
    let metrics_path = p.get("metrics", "");
    // Fan the one event stream out to whichever consumers were asked
    // for: a JSONL writer (--trace) and/or a metrics registry
    // (--metrics). With neither, the fan-out is disabled and the run
    // builds no events.
    let mut writer = if trace_path.is_empty() {
        None
    } else {
        let file = std::fs::File::create(trace_path)
            .map_err(|e| format!("cannot create {trace_path}: {e}"))?;
        Some(metasim::simtrace::WriterSink::new(std::io::BufWriter::new(
            file,
        )))
    };
    let mut metrics = if metrics_path.is_empty() {
        None
    } else {
        Some(obsv::MetricsSink::new())
    };
    let out = {
        let mut fan = obsv::FanoutSink::new();
        if let Some(w) = writer.as_mut() {
            fan.push(w);
        }
        if let Some(m) = metrics.as_mut() {
            fan.push(m);
        }
        service.run(sched, &workload, &mut fan)
    };
    if let Some(mut sink) = writer {
        if let Some(e) = sink.take_error() {
            return Err(format!("writing {trace_path}: {e}").into());
        }
        sink.into_inner()
            .into_inner()
            .map_err(|e| format!("flushing {trace_path}: {e}"))?;
    }
    if let Some(sink) = metrics {
        std::fs::write(metrics_path, sink.registry().expose())
            .map_err(|e| format!("cannot write {metrics_path}: {e}"))?;
    }
    let out = out?;

    if p.switch("json") {
        outln!("{}", out.fleet.to_json());
        return Ok(());
    }
    if p.switch("csv") {
        outln!("{}", apples_grid::FleetMetrics::csv_header());
        outln!("{}", out.fleet.csv_row(&format!("seed-{seed}")));
        outln!();
        outln!("{}", apples_grid::JobRecord::csv_header());
        for r in &out.records {
            outln!("{}", r.csv_row());
        }
        return Ok(());
    }

    outln!(
        "job stream: Poisson {rate}/s for {duration} s, seed {seed} \
         ({sched} scheduling, {} info, {} in-flight limit)\n",
        if cfg.regime == Regime::Blind {
            "blind"
        } else {
            "aware"
        },
        if max_in_flight == usize::MAX {
            "no".to_string()
        } else {
            max_in_flight.to_string()
        },
    );
    let f = &out.fleet;
    outln!("jobs admitted     {:>10}", f.jobs);
    outln!("jobs completed    {:>10}", f.jobs_completed);
    outln!("jobs failed       {:>10}", f.jobs_failed);
    outln!("jobs rescheduled  {:>10}", f.jobs_rescheduled);
    outln!("total attempts    {:>10}", f.total_attempts);
    outln!("throughput /h     {:>10.2}", f.throughput_per_hour);
    outln!("goodput           {:>10.3}", f.goodput);
    outln!("mean wait s       {:>10.2}", f.mean_wait_seconds);
    outln!("mean exec s       {:>10.2}", f.mean_exec_seconds);
    outln!("mean slowdown     {:>10.3}", f.mean_slowdown);
    outln!("latency p50 s     {:>10.2}", f.latency_p50);
    outln!("latency p95 s     {:>10.2}", f.latency_p95);
    outln!("latency p99 s     {:>10.2}", f.latency_p99);
    outln!("\nper-host demand utilization:");
    for (name, u) in &f.host_utilization {
        outln!("  {name:>14}  {u:>6.3}");
    }
    Ok(())
}

/// `apples-cli race` — T-RACE: race every scheduling regime (selfish
/// AppLeS agents, centralized EASY batch, fractional sharing) on
/// identical seeded streams across one or more topologies.
pub fn race(p: &Parsed) -> CmdResult {
    use apples_bench::regime_race::{render, render_report, run_race, split_topo_list, RaceConfig};
    let defaults = RaceConfig::default();
    let rate_hz: f64 = p.get_parsed("rate", defaults.rate_hz)?;
    let duration_secs: f64 = p.get_parsed("duration", defaults.duration_secs)?;
    let seed: u64 = p.get_parsed("seed", defaults.seed)?;
    let crash_rate: f64 = p.get_parsed("fault-rate", defaults.crash_rate)?;
    let mean_outage_secs: f64 = p.get_parsed("mean-outage", defaults.mean_outage_secs)?;
    let max_attempts: u32 = p.get_parsed("max-attempts", defaults.max_attempts)?;
    let topo_raw = p.get("topo", "");
    let topos = if topo_raw.is_empty() {
        defaults.topos
    } else {
        split_topo_list(topo_raw)
    };
    if rate_hz <= 0.0 || duration_secs <= 0.0 {
        return Err(ArgError("race needs a positive rate and duration".into()).into());
    }
    if crash_rate < 0.0 || mean_outage_secs <= 0.0 || max_attempts == 0 {
        return Err(ArgError("race fault and retry knobs must be sane".into()).into());
    }
    let cfg = RaceConfig {
        topos,
        rate_hz,
        duration_secs,
        seed,
        crash_rate,
        mean_outage_secs,
        max_attempts,
    };
    outln!(
        "T-RACE: Poisson arrivals at {rate_hz}/s for {duration_secs} s, seed {seed}, \
         crashes {crash_rate}/host-hour\n\
         (every regime faces the same realized stream and fault schedule)\n"
    );
    // A full race is minutes of silent wall clock; narrate each leg
    // on stderr so redirected stdout stays clean. --quiet disables it.
    let quiet = p.switch("quiet");
    let legs = cfg.topos.len() * apples_grid::SchedRegime::ALL.len();
    let mut done = 0usize;
    let trials = run_race(&cfg, &mut |topo, regime| {
        done += 1;
        if !quiet {
            eprintln!("race [{done}/{legs}] {topo}: {} regime...", regime.name());
        }
    })?;
    outln!("{}", render(&trials));
    let report_path = p.get("report", "");
    if !report_path.is_empty() {
        std::fs::write(report_path, render_report(&cfg, &trials))
            .map_err(|e| format!("cannot write {report_path}: {e}"))?;
        if !quiet {
            eprintln!("wrote {report_path}");
        }
    }
    Ok(())
}

/// `apples-cli trace summary FILE` / `apples-cli trace diff A B`.
///
/// Takes the raw (positional) arguments after `trace` and returns the
/// process exit code: 0 on success / identical traces, 1 when `diff`
/// finds a divergence, 2 on usage or I/O errors.
pub fn trace(args: &[String]) -> i32 {
    use metasim::simtrace::{first_divergence, TraceSummary};
    let read = |path: &str| -> Result<String, i32> {
        std::fs::read_to_string(path).map_err(|e| {
            eprintln!("error: cannot read {path}: {e}");
            2
        })
    };
    match args {
        [sub, file] if sub == "summary" => {
            let text = match read(file) {
                Ok(t) => t,
                Err(code) => return code,
            };
            out!("{}", TraceSummary::from_jsonl(&text).render());
            0
        }
        [sub, a, b] if sub == "diff" => {
            let (ta, tb) = match (read(a), read(b)) {
                (Ok(ta), Ok(tb)) => (ta, tb),
                (Err(code), _) | (_, Err(code)) => return code,
            };
            match first_divergence(&ta, &tb) {
                None => {
                    outln!("identical: {} events", ta.lines().count());
                    0
                }
                Some(d) => {
                    outln!("divergence at line {}:", d.line);
                    outln!("  {a}: {}", d.left.as_deref().unwrap_or("<absent>"));
                    outln!("  {b}: {}", d.right.as_deref().unwrap_or("<absent>"));
                    1
                }
            }
        }
        _ => {
            eprintln!("usage: apples-cli trace summary FILE | trace diff A B");
            2
        }
    }
}

/// `apples-cli prof FILE [--mode folded|gantt|table] [--width N]` —
/// time-attribution profile of a JSONL trace.
///
/// Positional like `trace`; returns the process exit code (0 on
/// success, 2 on usage or I/O errors).
pub fn prof(args: &[String]) -> i32 {
    let mut file: Option<&str> = None;
    let mut mode = "folded";
    let mut width = 72usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--mode" => match it.next() {
                Some(m) => mode = m,
                None => {
                    eprintln!("error: --mode needs a value (folded|gantt|table)");
                    return 2;
                }
            },
            "--width" => match it.next().and_then(|w| w.parse().ok()) {
                Some(w) => width = w,
                None => {
                    eprintln!("error: --width needs an integer value");
                    return 2;
                }
            },
            other if !other.starts_with('-') && file.is_none() => file = Some(other),
            other => {
                eprintln!("error: unexpected argument {other:?}");
                return 2;
            }
        }
    }
    let Some(path) = file else {
        eprintln!("usage: apples-cli prof FILE [--mode folded|gantt|table] [--width N]");
        return 2;
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return 2;
        }
    };
    let profile = obsv::Profile::from_jsonl(&text);
    match mode {
        "folded" => out!("{}", profile.folded()),
        "gantt" => out!("{}", profile.gantt(width)),
        "table" => out!("{}", profile.table()),
        other => {
            eprintln!("error: unknown mode {other:?} (folded|gantt|table)");
            return 2;
        }
    }
    0
}

/// `apples-cli spans FILE [--mode tree|jsonl|composition]` — fold a
/// JSONL trace into causal span trees (job → attempt → phase, with
/// retry/revocation/backfill cause edges and per-job critical paths).
///
/// Positional like `prof`; returns the process exit code (0 on
/// success, 2 on usage or I/O errors). `tree` renders the indented
/// trees plus the composition summary, `jsonl` emits one byte-stable
/// JSON object per job, `composition` only the critical-path
/// composition rollup.
pub fn spans(args: &[String]) -> i32 {
    let mut file: Option<&str> = None;
    let mut mode = "tree";
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--mode" => match it.next() {
                Some(m) => mode = m,
                None => {
                    eprintln!("error: --mode needs a value (tree|jsonl|composition)");
                    return 2;
                }
            },
            other if !other.starts_with('-') && file.is_none() => file = Some(other),
            other => {
                eprintln!("error: unexpected argument {other:?}");
                return 2;
            }
        }
    }
    let Some(path) = file else {
        eprintln!("usage: apples-cli spans FILE [--mode tree|jsonl|composition]");
        return 2;
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return 2;
        }
    };
    let tree = obsv::SpanTree::from_jsonl(&text);
    if tree.skipped_lines > 0 {
        eprintln!("note: skipped {} malformed line(s)", tree.skipped_lines);
    }
    match mode {
        "tree" => out!("{}", tree.render()),
        "jsonl" => out!("{}", tree.to_jsonl()),
        "composition" => outln!("{}", tree.composition().render()),
        other => {
            eprintln!("error: unknown mode {other:?} (tree|jsonl|composition)");
            return 2;
        }
    }
    0
}

/// `apples-cli timeseries FILE [--window SECS | --aligned] [--jsonl]`
/// — stream a JSONL trace through the windowed time-series engine.
///
/// Positional like `prof`; exit 0 on success, 2 on usage or I/O
/// errors. Default is 60 s fixed windows as a table; `--aligned`
/// switches to event-aligned (one row per distinct event time) and
/// `--jsonl` emits the byte-stable JSONL export instead.
pub fn timeseries(args: &[String]) -> i32 {
    use metasim::simtrace::{EventSink, TraceEvent};
    let mut file: Option<&str> = None;
    let mut window = 60.0f64;
    let mut aligned = false;
    let mut jsonl = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--window" => match it.next().and_then(|w| w.parse::<f64>().ok()) {
                Some(w) if w > 0.0 => window = w,
                _ => {
                    eprintln!("error: --window needs a positive seconds value");
                    return 2;
                }
            },
            "--aligned" => aligned = true,
            "--jsonl" => jsonl = true,
            other if !other.starts_with('-') && file.is_none() => file = Some(other),
            other => {
                eprintln!("error: unexpected argument {other:?}");
                return 2;
            }
        }
    }
    let Some(path) = file else {
        eprintln!("usage: apples-cli timeseries FILE [--window SECS | --aligned] [--jsonl]");
        return 2;
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return 2;
        }
    };
    let (events, skipped) = TraceEvent::from_jsonl(&text);
    let mut sink = if aligned {
        obsv::TimeSeriesSink::new(obsv::WindowMode::EventAligned)
    } else {
        obsv::TimeSeriesSink::fixed_seconds(window)
    };
    for e in events {
        sink.record(e);
    }
    let series = sink.finalize();
    if jsonl {
        out!("{}", series.to_jsonl());
    } else {
        out!("{}", series.render());
    }
    if skipped > 0 {
        eprintln!("note: skipped {skipped} malformed line(s)");
    }
    0
}

/// `apples-cli snapshot-diff A B` — compare two Prometheus text
/// snapshots series by series. Exit 0 when they agree, 1 on any
/// difference, 2 on I/O or usage errors (mirrors `trace diff`).
pub fn snapshot_diff(args: &[String]) -> i32 {
    let [a, b] = args else {
        eprintln!("usage: apples-cli snapshot-diff A B");
        return 2;
    };
    let read = |path: &str| -> Result<String, i32> {
        std::fs::read_to_string(path).map_err(|e| {
            eprintln!("error: cannot read {path}: {e}");
            2
        })
    };
    let (ta, tb) = match (read(a), read(b)) {
        (Ok(ta), Ok(tb)) => (ta, tb),
        (Err(code), _) | (_, Err(code)) => return code,
    };
    let deltas = obsv::snapshot_diff(&ta, &tb);
    if deltas.is_empty() {
        outln!(
            "identical: {} series",
            obsv::Snapshot::parse(&ta).series.len()
        );
        return 0;
    }
    outln!("{} differing series:", deltas.len());
    for d in &deltas {
        outln!("  {}", d.render());
    }
    1
}

/// `apples-cli lint` — run the simlint workspace analyzer. Thin
/// wrapper over [`simlint::driver::run`], the same driver behind the
/// standalone `simlint` binary, so flags and exit codes are identical
/// (0 clean, 1 unallowed/denied findings, 2 usage or I/O errors).
pub fn lint(args: &[String]) -> i32 {
    i32::from(simlint::driver::run(args.iter().cloned()))
}

/// `apples-cli metrics` — run a seeded grid scenario with a
/// [`obsv::MetricsSink`] attached and dump the Prometheus exposition
/// (to stdout, or `--out FILE`). Same scenario flags as `grid`.
pub fn metrics(p: &Parsed) -> CmdResult {
    use apples_grid::GridService;
    let (cfg, workload) = grid_setup(p)?;
    let sched = sched_regime_of(p)?;
    let service = GridService::new(cfg)?;
    let mut sink = obsv::MetricsSink::new();
    service.run(sched, &workload, &mut sink)?;
    let exposition = sink.registry().expose();
    let out_path = p.get("out", "");
    if out_path.is_empty() {
        out!("{exposition}");
    } else {
        std::fs::write(out_path, exposition)
            .map_err(|e| format!("cannot write {out_path}: {e}"))?;
    }
    Ok(())
}

/// `apples-cli bench` — the T-SCALE events/sec sweep: incremental
/// dirty-set transfer engine vs the full-recompute baseline on a
/// seeded synthetic fleet. `--check FILE` validates an existing
/// results document instead of running the sweep.
pub fn bench(p: &Parsed) -> CmdResult {
    use apples_bench::event_engine::{
        compare_with_history, history_line, parse_history, parse_results, run_sweep,
        run_topo_sweep, to_json, to_table, DEFAULT_SWEEP, DEFAULT_TOPO_SWEEP,
    };

    // The trajectory file rides next to the results document:
    // `BENCH_event_engine.json` → `BENCH_event_engine.history.jsonl`.
    fn history_path(out: &str) -> String {
        match out.strip_suffix(".json") {
            Some(stem) => format!("{stem}.history.jsonl"),
            None => format!("{out}.history.jsonl"),
        }
    }

    let check = p.get("check", "");
    if !check.is_empty() {
        let text =
            std::fs::read_to_string(check).map_err(|e| format!("cannot read {check}: {e}"))?;
        let points = parse_results(&text).map_err(|e| format!("{check}: {e}"))?;
        outln!("{check}: {} valid sweep point(s)", points.len());
        let hist = history_path(check);
        match std::fs::read_to_string(&hist) {
            Ok(htext) => {
                let runs = parse_history(&htext).map_err(|e| format!("{hist}: {e}"))?;
                match runs.last() {
                    Some(last) => {
                        let drift = compare_with_history(&points, last)
                            .map_err(|e| format!("{check} vs {hist}: {e}"))?;
                        outln!("vs last of {} history run(s) in {hist}:", runs.len());
                        for line in drift {
                            outln!("  {line}");
                        }
                    }
                    None => outln!("{hist}: empty history, nothing to compare"),
                }
            }
            Err(_) => outln!("{hist}: no history file, nothing to compare"),
        }
        return Ok(());
    }

    fn list(raw: &str, what: &str) -> Result<Vec<usize>, ArgError> {
        raw.split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .map_err(|_| ArgError(format!("--{what}: cannot parse {s:?}")))
            })
            .collect()
    }
    let seed: u64 = p.get_parsed("seed", 42)?;
    let hosts_raw = p.get("hosts", "");
    let topo_raw = p.get("topo", "");
    // With neither --hosts nor --topo, run the default fleet sweep
    // plus the default generated-topology point.
    let defaults = hosts_raw.is_empty() && topo_raw.is_empty();
    let sweep: Vec<(usize, usize)> = if defaults {
        DEFAULT_SWEEP.to_vec()
    } else if hosts_raw.is_empty() {
        Vec::new()
    } else {
        let hosts = list(hosts_raw, "hosts")?;
        let jobs_raw = p.get("jobs", "");
        let jobs = if jobs_raw.is_empty() {
            vec![1000; hosts.len()]
        } else {
            let j = list(jobs_raw, "jobs")?;
            if j.len() == 1 {
                vec![j[0]; hosts.len()]
            } else if j.len() == hosts.len() {
                j
            } else {
                return Err(
                    ArgError("--jobs must have 1 value or as many as --hosts".into()).into(),
                );
            }
        };
        hosts.into_iter().zip(jobs).collect()
    };
    let topo_jobs: usize = p
        .get("jobs", "")
        .split(',')
        .next()
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.trim()
                .parse()
                .map_err(|_| ArgError(format!("--jobs: cannot parse {s:?}")))
        })
        .transpose()?
        .unwrap_or(10_000);
    let topo_sweep: Vec<(&str, usize)> = if defaults {
        DEFAULT_TOPO_SWEEP.to_vec()
    } else if topo_raw.is_empty() {
        Vec::new()
    } else {
        vec![(topo_raw, topo_jobs)]
    };

    let mut points = run_sweep(&sweep, seed)?;
    points.extend(run_topo_sweep(&topo_sweep, seed)?);
    let doc = to_json(&points);
    if p.switch("json") {
        out!("{doc}");
    } else {
        out!("{}", to_table(&points));
    }
    let out = p.get("out", "BENCH_event_engine.json");
    std::fs::write(out, &doc).map_err(|e| format!("cannot write {out}: {e}"))?;
    eprintln!("wrote {out}");
    // Append this run to the trajectory so `--check` (and a human with
    // `tail`) can see how the machine's numbers move over time.
    let hist = history_path(out);
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&hist)
        .map_err(|e| format!("cannot open {hist}: {e}"))?;
    writeln!(f, "{}", history_line(&points)).map_err(|e| format!("cannot append {hist}: {e}"))?;
    eprintln!("appended {hist}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Parsed;

    fn parsed(words: &[&str]) -> Parsed {
        let args: Vec<String> = words.iter().map(|s| s.to_string()).collect();
        Parsed::parse(
            &args,
            &[
                "n",
                "iterations",
                "profile",
                "seed",
                "source",
                "metric",
                "max-hosts",
                "warmup",
                "host",
                "until",
                "unit",
                "depth",
                "events",
                "runs",
                "phase",
                "wait",
                "avail",
                "rate",
                "duration",
                "max-in-flight",
                "fault-rate",
                "link-fault-rate",
                "mean-outage",
                "permanent",
                "max-attempts",
                "backoff",
                "horizon",
                "trace",
                "topo",
                "regime",
                "out",
                "check",
                "report",
            ],
            &["sp2", "csv", "json", "blind", "quiet"],
        )
        .expect("parse")
    }

    #[test]
    fn testbed_command_runs() {
        assert!(testbed(&parsed(&["testbed", "--sp2"])).is_ok());
    }

    #[test]
    fn schedule_command_runs_small() {
        assert!(schedule(&parsed(&["schedule", "--n", "600", "--iterations", "10"])).is_ok());
    }

    #[test]
    fn schedule_rejects_bad_metric_and_source() {
        assert!(schedule(&parsed(&["schedule", "--metric", "nonsense"])).is_err());
        assert!(schedule(&parsed(&["schedule", "--source", "nonsense"])).is_err());
    }

    #[test]
    fn schedule_accepts_cost_metric() {
        assert!(schedule(&parsed(&[
            "schedule",
            "--n",
            "600",
            "--iterations",
            "5",
            "--metric",
            "cost:2.5"
        ]))
        .is_ok());
    }

    #[test]
    fn compare_command_runs_small() {
        assert!(compare(&parsed(&["compare", "--n", "600", "--iterations", "10"])).is_ok());
    }

    #[test]
    fn forecast_command_runs() {
        assert!(forecast(&parsed(&["forecast", "--host", "1", "--until", "900"])).is_ok());
    }

    #[test]
    fn react_command_single_unit_runs() {
        assert!(react(&parsed(&["react", "--unit", "10"])).is_ok());
    }

    #[test]
    fn nile_command_runs_small() {
        assert!(nile(&parsed(&["nile", "--events", "5000", "--runs", "2"])).is_ok());
    }

    #[test]
    fn advise_command_runs() {
        assert!(advise_cmd(&parsed(&[
            "advise",
            "--wait",
            "60",
            "--n",
            "600",
            "--iterations",
            "100"
        ]))
        .is_ok());
    }

    #[test]
    fn bad_profile_is_an_error() {
        assert!(testbed(&parsed(&["testbed", "--profile", "imaginary"])).is_err());
    }

    #[test]
    fn grid_command_runs_small() {
        assert!(grid(&parsed(&[
            "grid",
            "--rate",
            "0.005",
            "--duration",
            "900",
            "--profile",
            "light"
        ]))
        .is_ok());
    }

    #[test]
    fn grid_csv_and_json_run() {
        assert!(grid(&parsed(&[
            "grid",
            "--rate",
            "0.005",
            "--duration",
            "900",
            "--profile",
            "light",
            "--csv"
        ]))
        .is_ok());
        assert!(grid(&parsed(&[
            "grid",
            "--rate",
            "0.005",
            "--duration",
            "900",
            "--profile",
            "light",
            "--json"
        ]))
        .is_ok());
    }

    #[test]
    fn grid_rejects_nonpositive_rate() {
        assert!(grid(&parsed(&["grid", "--rate", "0"])).is_err());
    }

    #[test]
    fn grid_runs_every_scheduling_regime() {
        for regime in ["selfish", "batch", "fractional"] {
            assert!(
                grid(&parsed(&[
                    "grid",
                    "--rate",
                    "0.005",
                    "--duration",
                    "900",
                    "--profile",
                    "light",
                    "--regime",
                    regime
                ]))
                .is_ok(),
                "regime {regime} failed"
            );
        }
    }

    #[test]
    fn grid_rejects_unknown_regime() {
        assert!(grid(&parsed(&["grid", "--regime", "gang"])).is_err());
    }

    #[test]
    fn race_rejects_bad_knobs() {
        assert!(race(&parsed(&["race", "--rate", "0"])).is_err());
        assert!(race(&parsed(&["race", "--max-attempts", "0"])).is_err());
        assert!(race(&parsed(&["race", "--topo", "not-a-family"])).is_err());
    }

    #[test]
    fn grid_fault_flags_run() {
        assert!(grid(&parsed(&[
            "grid",
            "--rate",
            "0.005",
            "--duration",
            "600",
            "--profile",
            "light",
            "--fault-rate",
            "2.0",
            "--max-attempts",
            "3",
            "--backoff",
            "15",
        ]))
        .is_ok());
    }

    #[test]
    fn grid_rejects_bad_fault_knobs() {
        assert!(grid(&parsed(&["grid", "--fault-rate", "-1"])).is_err());
        assert!(grid(&parsed(&["grid", "--mean-outage", "0"])).is_err());
    }

    #[test]
    fn validate_accepts_shipped_configs() {
        assert!(validate(&parsed(&["validate"])).is_ok());
        assert!(validate(&parsed(&["validate", "--sp2"])).is_ok());
        assert!(validate(&parsed(&["validate", "--fault-rate", "0.5"])).is_ok());
    }

    #[test]
    fn validate_accepts_generated_topologies() {
        assert!(validate(&parsed(&["validate", "--topo", "star:hosts=16,per_seg=4"])).is_ok());
        assert!(validate(&parsed(&[
            "validate",
            "--topo",
            "clusters:clusters=2,segs=2,hosts=2"
        ]))
        .is_ok());
    }

    #[test]
    fn validate_rejects_bad_topo_spec() {
        assert!(validate(&parsed(&["validate", "--topo", "ring:hosts=9"])).is_err());
    }

    #[test]
    fn grid_runs_on_a_generated_topology() {
        assert!(grid(&parsed(&[
            "grid",
            "--rate",
            "0.003",
            "--duration",
            "600",
            "--profile",
            "light",
            "--topo",
            "star:hosts=12,per_seg=4",
        ]))
        .is_ok());
    }

    #[test]
    fn validate_rejects_each_malformed_class() {
        for bad in [
            ["validate", "--rate", "0"],
            ["validate", "--max-attempts", "0"],
            ["validate", "--max-in-flight", "0"],
            ["validate", "--permanent", "1.5"],
            ["validate", "--fault-rate", "-1"],
            ["validate", "--horizon", "0"],
            ["validate", "--mean-outage", "0"],
        ] {
            assert!(validate(&parsed(&bad)).is_err(), "{bad:?} should fail");
        }
    }
}
