//! T-GRID: stream a multi-tenant workload through the shared testbed
//! and report fleet metrics.
//!
//! ```text
//! grid_throughput [--arrival-rate R] [--duration SECS] [--seed N]
//!                 [--trials T] [--max-in-flight K] [--csv] [--json]
//!                 [--trace FILE] [--metrics FILE]
//! ```
//!
//! `--csv` emits one machine-parseable row per trial (plus per-job
//! rows for single-trial runs); `--json` emits the fleet metrics of
//! each trial as one JSON object per line. Same seed → same output,
//! bit for bit. `--trace` writes every structured event of the first
//! trial to FILE as JSONL through a [`WriterSink`]; `--metrics` writes
//! a Prometheus text-format snapshot of it from a [`MetricsSink`]. The
//! first trial is re-run at most once, whichever of `--trace`,
//! `--metrics` and single-trial `--csv` ask for it.
//!
//! [`WriterSink`]: metasim::simtrace::WriterSink
//! [`MetricsSink`]: obsv::MetricsSink

use apples_bench::grid_exp::{
    fleet_table, run_trials, sweep_summary, utilization_table, GridExpConfig,
};
use apples_grid::metrics::{FleetMetrics, JobRecord};
use apples_grid::workload::{ArrivalProcess, JobMix, WorkloadConfig};
use apples_grid::{GridConfig, GridService, SchedRegime};
use metasim::simtrace::WriterSink;
use metasim::SimTime;

fn usage() -> ! {
    eprintln!(
        "usage: grid_throughput [--arrival-rate R] [--duration SECS] [--seed N]\n\
         \x20                      [--trials T] [--max-in-flight K] [--csv] [--json]\n\
         \x20                      [--trace FILE] [--metrics FILE]"
    );
    std::process::exit(2);
}

fn main() {
    let mut cfg = GridExpConfig::default();
    let mut csv = false;
    let mut json = false;
    let mut trace_path = String::new();
    let mut metrics_path = String::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |name: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match arg.as_str() {
            "--arrival-rate" => cfg.rate_hz = parse(&take("--arrival-rate")),
            "--duration" => cfg.duration_secs = parse(&take("--duration")),
            "--seed" => cfg.seed = parse(&take("--seed")),
            "--trials" => cfg.trials = parse(&take("--trials")),
            "--max-in-flight" => cfg.max_in_flight = parse(&take("--max-in-flight")),
            "--csv" => csv = true,
            "--trace" => trace_path = take("--trace"),
            "--metrics" => metrics_path = take("--metrics"),
            "--json" => json = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag: {other}");
                usage();
            }
        }
    }
    if cfg.rate_hz <= 0.0 || cfg.duration_secs <= 0.0 || cfg.trials == 0 {
        eprintln!("arrival rate, duration and trials must be positive");
        usage();
    }

    let trials = run_trials(&cfg);
    // The sweep keeps only fleet metrics; events and per-job records
    // come from one re-run of the first trial (determinism makes the
    // re-run free of surprise).
    let want_records = csv && !json && cfg.trials == 1;
    let first_records = if want_records || !trace_path.is_empty() || !metrics_path.is_empty() {
        rerun_first_trial(&cfg, &trace_path, &metrics_path)
    } else {
        Vec::new()
    };

    if json {
        for t in &trials {
            println!("{}", t.fleet.to_json());
        }
        return;
    }
    if csv {
        println!("{}", FleetMetrics::csv_header());
        for t in &trials {
            println!("{}", t.fleet.csv_row(&format!("seed-{}", t.seed)));
        }
        if cfg.trials == 1 {
            // Single trial: append the per-job records too.
            println!();
            println!("{}", JobRecord::csv_header());
            for r in &first_records {
                println!("{}", r.csv_row());
            }
        }
        return;
    }

    println!(
        "Poisson arrivals at {}/s for {} s on the Figure 2 testbed (seed {}, {} trial(s))\n",
        cfg.rate_hz, cfg.duration_secs, cfg.seed, cfg.trials
    );
    for t in &trials {
        println!("seed {}:", t.seed);
        println!("{}", fleet_table(&t.fleet));
        println!("{}", utilization_table(&t.fleet));
    }
    println!("{}", sweep_summary(&trials));
}

fn parse<T: std::str::FromStr>(s: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("could not parse {s:?}");
        usage()
    })
}

/// The service and workload configuration of the first trial.
fn first_trial_config(cfg: &GridExpConfig) -> (GridConfig, WorkloadConfig) {
    let grid = GridConfig {
        seed: cfg.seed,
        max_in_flight: cfg.max_in_flight,
        ..GridConfig::default()
    };
    let workload = WorkloadConfig {
        arrivals: ArrivalProcess::Poisson {
            rate_hz: cfg.rate_hz,
        },
        mix: JobMix::default_mix(),
        duration: SimTime::from_secs_f64(cfg.duration_secs),
        seed: cfg.seed,
        ..WorkloadConfig::default()
    };
    (grid, workload)
}

/// Re-run the first trial once, feeding `--trace` (JSONL to
/// `trace_path`) and `--metrics` (Prometheus exposition to
/// `metrics_path`) from one fan-out sink; an empty path skips that
/// output. Returns the trial's per-job records.
fn rerun_first_trial(cfg: &GridExpConfig, trace_path: &str, metrics_path: &str) -> Vec<JobRecord> {
    let (grid, workload) = first_trial_config(cfg);
    let mut writer = (!trace_path.is_empty()).then(|| {
        let file = std::fs::File::create(trace_path).unwrap_or_else(|e| {
            eprintln!("cannot create {trace_path}: {e}");
            std::process::exit(2);
        });
        WriterSink::new(std::io::BufWriter::new(file))
    });
    let mut metrics = (!metrics_path.is_empty()).then(obsv::MetricsSink::new);
    let result = {
        let mut fan = obsv::FanoutSink::new();
        if let Some(w) = writer.as_mut() {
            fan.push(w);
        }
        if let Some(m) = metrics.as_mut() {
            fan.push(m);
        }
        GridService::new(grid).and_then(|svc| svc.run(SchedRegime::Selfish, &workload, &mut fan))
    };
    if let Some(mut sink) = writer {
        if let Some(e) = sink.take_error() {
            eprintln!("writing {trace_path}: {e}");
            std::process::exit(2);
        }
        if let Err(e) = std::io::Write::flush(&mut sink.into_inner()) {
            eprintln!("flushing {trace_path}: {e}");
            std::process::exit(2);
        }
    }
    let out = result.expect("grid stream");
    if !trace_path.is_empty() {
        eprintln!("trace written to {trace_path}");
    }
    if let Some(sink) = metrics {
        if let Err(e) = std::fs::write(metrics_path, sink.registry().expose()) {
            eprintln!("cannot write {metrics_path}: {e}");
            std::process::exit(2);
        }
        eprintln!("metrics written to {metrics_path}");
    }
    out.records
}
