//! `apples-cli repro <id>`: regenerate one figure, table or ablation of
//! the paper. The ids are DESIGN.md's experiment ids in lower case;
//! `repro all` runs every headline claim at reduced size as a
//! pass/fail checklist. The experiments themselves live in
//! `apples_bench`; each function here parses its flags, runs one and
//! renders it.

use crate::args::{ArgError, Parsed};
use crate::commands::{self, CmdResult};
use apples::info::InfoPool;
use apples::whatif::{evaluate, standard_menu};
use apples_apps::jacobi2d::partition::{apples_blocked_decision, jacobi_context};
use apples_apps::jacobi2d::{apples_stencil_schedule, static_strip};
use apples_apps::react3d;
use apples_bench::fault_exp::{fault_summary, fault_table, run_fault_sweep, FaultExpConfig};
use apples_bench::fig5::Fig5Config;
use apples_bench::fig6::Fig6Config;
use apples_bench::grid_exp::{
    first_trial, fleet_table, run_trials, sweep_summary, utilization_table, GridExpConfig,
};
use apples_bench::predict_react::Volatility;
use apples_bench::{ablation, estimator_exp, fig5, fig6, fixed_time, multi_agent};
use apples_bench::{nile_exp, nws_exp, predict_react, react_exp, table};
use apples_grid::metrics::{FleetMetrics, JobRecord};
use apples_grid::{GridService, SchedRegime};
use metasim::exec::simulate_spmd;
use metasim::simtrace::{NoopSink, VecSink};
use metasim::testbed::{pcl_sdsc, LoadProfile, TestbedConfig};
use metasim::{SharingPolicy, SimTime};
use nws::{WeatherService, WeatherServiceConfig};
use obsv::Profile;

/// The body of one experiment.
pub type Run = fn(&Parsed) -> CmdResult;

/// `(id, flags, switches, body)` of every experiment. Each id takes
/// exactly the flags listed here.
const EXPERIMENTS: &[(&str, &[&str], &[&str], Run)] = &[
    ("fig1", &[], &[], fig1),
    ("fig2", &[], &[], fig2),
    ("fig3", &[], &[], fig3),
    ("fig4", &[], &[], fig4),
    ("fig5", &[], &["quick", "csv"], fig5),
    ("fig6", &[], &["quick", "csv"], fig6),
    ("t-react", &[], &[], t_react),
    ("t-nile", &[], &[], t_nile),
    ("t-nws", &[], &[], t_nws),
    ("resched", &[], &[], resched),
    ("abl-1", &[], &["quick"], abl_1),
    ("abl-2", &[], &[], abl_2),
    ("abl-3", &[], &[], abl_3),
    ("abl-4", &[], &[], abl_4),
    ("t-est", &[], &[], t_est),
    ("t-multi", &[], &[], t_multi),
    ("t-pred", &[], &[], t_pred),
    ("t-fixed", &[], &[], t_fixed),
    ("t-whatif", &[], &[], t_whatif),
    (
        "t-grid",
        &[
            "rate",
            "duration",
            "seed",
            "trials",
            "max-in-flight",
            "trace",
            "metrics",
        ],
        &["csv", "json"],
        t_grid,
    ),
    (
        "t-fault",
        &[
            "rate",
            "duration",
            "seed",
            "rates",
            "mean-outage",
            "permanent",
            "max-attempts",
        ],
        &["csv"],
        t_fault,
    ),
    (
        "t-prof",
        &["n", "iterations", "seed", "folded"],
        &[],
        t_prof,
    ),
    ("all", &[], &[], all),
];

/// Parse the arguments after `repro`: an experiment id, then that
/// experiment's own flags.
pub fn parse(args: &[String]) -> Result<(Parsed, Run), ArgError> {
    let id = args
        .first()
        .ok_or_else(|| ArgError("repro needs an experiment id".into()))?;
    let (_, flags, switches, run) = EXPERIMENTS
        .iter()
        .find(|(name, ..)| name == id)
        .ok_or_else(|| ArgError(format!("unknown experiment {id:?}")))?;
    Ok((Parsed::parse(args, flags, switches)?, *run))
}

/// FIG1: the organization of an AppLeS agent (the paper's Figure 1),
/// rendered from the *actual* types in this implementation so the
/// diagram cannot drift from the code. Each box names the Rust item
/// that realizes it.
fn fig1(_: &Parsed) -> CmdResult {
    outln!(
        r#"Figure 1: Organization of an AppLeS agent

                         +----------------------------+
                         |        Coordinator         |
                         |   apples::Coordinator      |
                         |  (decide = select > plan   |
                         |   > estimate > choose;     |
                         |   run = decide > actuate)  |
                         +-------------+--------------+
                                       |
        +---------------+--------------+--------------+----------------+
        |               |                             |                |
+-------+------+ +------+--------+           +--------+-------+ +------+-------+
|   Resource   | |    Planner    |           |  Performance   | |   Actuator   |
|   Selector   | | apples::      |           |   Estimator    | | apples::     |
| apples::     | |  planner      |           | apples::       | |  actuator    |
|  selector    | | (strip solve  |           |  estimator     | | (lowers the  |
| (filter +    | |  T_i=A_iP_i   |           | (cost models   | |  schedule    |
|  exhaustive/ | |  +C_i; pipe-  |           |  under the     | |  onto        |
|  greedy sets)| |  line sizing) |           |  user metric)  | |  metasim)    |
+------+-------+ +------+--------+           +--------+-------+ +------+-------+
       |                |                             |                |
       +----------------+--------------+--------------+----------------+
                                       |
                         +-------------+--------------+
                         |      Information Pool      |
                         |     apples::InfoPool       |
                         +-------------+--------------+
                                       |
       +---------------+---------------+---------------+---------------+
       |               |                               |               |
+------+-------+ +-----+---------+             +-------+------+ +------+-------+
|   Network    | | Heterogeneous |             |    Models    | |     User     |
|   Weather    | |  Application  |             | (estimator/  | |Specifications|
|   Service    | |   Template    |             |  planner     | | apples::     |
| nws::Weather | |  apples::Hat  |             |  cost models;|  |  UserSpec   |
|   Service    | | (stencil /    |             |  estimate_*  | | (metric,     |
| (sensors +   | |  pipeline /   |             |  functions)  | |  access,     |
|  adaptive    | |  task farm)   |             |              | |  preferences)|
|  forecasts)  | |               |             |              | |              |
+--------------+ +---------------+             +--------------+ +--------------+

Resource management substrate (the paper's Globus/Legion/PVM slot):
  metasim — hosts, shared networks, availability processes, executors.
"#
    );
    Ok(())
}

/// FIG2: the SDSC/PCL system configuration of Figure 2 — hosts with
/// nominal speeds, memories and sharing, and the shared media joining
/// them.
fn fig2(_: &Parsed) -> CmdResult {
    let cfg = TestbedConfig {
        with_sp2: true,
        ..Default::default()
    };
    let tb = pcl_sdsc(&cfg)?;

    outln!("Figure 2: SDSC/PCL system configuration for Jacobi2D\n");

    let host_rows: Vec<Vec<String>> = tb
        .topo
        .hosts()
        .iter()
        .map(|h| {
            let sharing = match h.spec.sharing {
                SharingPolicy::TimeShared => "time-shared",
                SharingPolicy::SpaceShared { .. } => "dedicated",
            };
            let seg = tb
                .topo
                .segment_link(h.spec.segment)
                .and_then(|l| tb.topo.link(l).map(|l| l.spec.name.clone()))
                .unwrap_or_default();
            vec![
                h.spec.name.clone(),
                format!("{:.0}", h.spec.mflops),
                format!("{:.0}", h.spec.mem_mb),
                sharing.to_string(),
                seg,
            ]
        })
        .collect();
    outln!(
        "{}",
        table::render(
            &["host", "Mflop/s", "mem MB", "sharing", "segment"],
            &host_rows
        )
    );

    let link_rows: Vec<Vec<String>> = tb
        .topo
        .links()
        .iter()
        .map(|l| {
            vec![
                l.spec.name.clone(),
                format!("{:.2}", l.spec.bandwidth_mbps),
                format!("{:.1}", l.spec.latency.as_secs_f64() * 1e3),
            ]
        })
        .collect();
    outln!(
        "{}",
        table::render(&["medium", "MB/s", "latency ms"], &link_rows)
    );
    Ok(())
}

/// FIG3: the AppLeS partitioning of Jacobi2D on the SDSC/PCL network —
/// the "non-intuitive" strip fractions the agent chooses once dynamic
/// load information is in play, for the paper's n = 2000 case.
fn fig3(_: &Parsed) -> CmdResult {
    let n = 2000;
    outln!("Figure 3: AppLeS partitioning of Jacobi2D (n = {n})\n");
    for seed in [1996u64, 1997, 1998] {
        let trial = fig5::run_trial(n, 50, seed, LoadProfile::Moderate)?;
        outln!("load realization (seed {seed}):");
        let rows: Vec<Vec<String>> = trial
            .apples_fractions
            .iter()
            .map(|(name, frac)| {
                vec![
                    name.clone(),
                    format!("{:.1}%", frac * 100.0),
                    format!("{}", (frac * n as f64).round() as usize),
                ]
            })
            .collect();
        outln!("{}", table::render(&["host", "fraction", "rows"], &rows));
    }
    outln!(
        "Note how the fractions track *delivered* speed (nominal speed × \n\
         forecast availability), not nominal speed — and change with the\n\
         load realization. Compare Figure 4 (static fractions)."
    );
    Ok(())
}

/// FIG4: the non-uniform static strip partitioning of Jacobi2D —
/// computed at compile time from nominal CPU speeds alone, identical
/// for every load realization.
fn fig4(_: &Parsed) -> CmdResult {
    let n = 2000;
    let tb = pcl_sdsc(&TestbedConfig::default())?;
    let sched = static_strip(&tb.topo, n, 1, &tb.workstations());

    outln!("Figure 4: non-uniform static strip partitioning (n = {n})\n");
    let mut rows: Vec<Vec<String>> = Vec::new();
    for p in &sched.parts {
        let h = tb.topo.host(p.host)?;
        rows.push(vec![
            h.spec.name.clone(),
            format!("{:.0}", h.spec.mflops),
            format!("{:.1}%", p.rows as f64 / n as f64 * 100.0),
            format!("{}", p.rows),
        ]);
    }
    outln!(
        "{}",
        table::render(&["host", "nominal Mflop/s", "fraction", "rows"], &rows)
    );
    outln!(
        "The fractions are proportional to nominal speed: the partition\n\
         is blind to contention, which Figure 5 shows costs 2-8x."
    );
    Ok(())
}

/// FIG5: execution-time averages for Jacobi2D under the AppLeS, static
/// Strip and HPF Uniform/Blocked partitionings, problem sizes
/// 1000×1000 – 2000×2000 on the non-dedicated testbed. `--quick` runs
/// a reduced sweep.
fn fig5(p: &Parsed) -> CmdResult {
    let cfg = if p.switch("quick") {
        Fig5Config {
            sizes: vec![1000, 1500, 2000],
            iterations: 40,
            trials: 3,
            ..Default::default()
        }
    } else {
        Fig5Config::default()
    };

    let rows = fig5::run(&cfg)?;
    if p.switch("csv") {
        outln!("n,apples_s,strip_s,blocked_s,strip_ratio,blocked_ratio");
        for r in &rows {
            outln!(
                "{},{:.4},{:.4},{:.4},{:.4},{:.4}",
                r.n,
                r.apples.mean,
                r.strip.mean,
                r.blocked.mean,
                r.strip_ratio(),
                r.blocked_ratio()
            );
        }
        return Ok(());
    }
    outln!(
        "Figure 5: Jacobi2D execution-time averages ({} trials/size, {} iterations)\n",
        cfg.trials,
        cfg.iterations
    );
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{0}x{0}", r.n),
                table::secs(r.apples.mean),
                table::secs(r.strip.mean),
                table::secs(r.blocked.mean),
                table::ratio(r.strip_ratio()),
                table::ratio(r.blocked_ratio()),
            ]
        })
        .collect();
    outln!(
        "{}",
        table::render(
            &[
                "problem",
                "AppLeS s",
                "Strip s",
                "Blocked s",
                "Strip/AppLeS",
                "Blocked/AppLeS"
            ],
            &table_rows
        )
    );
    outln!(
        "Paper: \"The AppLeS partition outperforms the Strip and Blocked\n\
         partitions by factors of 2-8 for problem sizes 1000x1000 - 2000x2000.\""
    );
    Ok(())
}

/// FIG6: Jacobi2D execution-time averages with memory accounted for —
/// AppLeS over the full pool (two unloaded SP-2 nodes + loaded
/// workstations) versus an HPF Uniform/Blocked partition pinned to the
/// SP-2, which spills from memory beyond 3700×3700. `--quick` runs a
/// reduced sweep.
fn fig6(p: &Parsed) -> CmdResult {
    let cfg = if p.switch("quick") {
        Fig6Config {
            sizes: vec![2000, 3500, 3800, 4500],
            iterations: 20,
            trials: 2,
            ..Default::default()
        }
    } else {
        Fig6Config::default()
    };

    let rows = fig6::run(&cfg)?;
    if p.switch("csv") {
        outln!("n,apples_s,blocked_sp2_s,ratio,apples_hosts");
        for r in &rows {
            outln!(
                "{},{:.4},{:.4},{:.4},{}",
                r.n,
                r.apples.mean,
                r.blocked_sp2.mean,
                r.blocked_sp2.mean / r.apples.mean,
                r.apples_hosts.len()
            );
        }
        return Ok(());
    }
    outln!(
        "Figure 6: Jacobi2D with memory considered ({} trials/size, {} iterations)\n",
        cfg.trials,
        cfg.iterations
    );
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{0}x{0}", r.n),
                table::secs(r.apples.mean),
                table::secs(r.blocked_sp2.mean),
                table::ratio(r.blocked_sp2.mean / r.apples.mean),
                format!("{}", r.apples_hosts.len()),
            ]
        })
        .collect();
    outln!(
        "{}",
        table::render(
            &[
                "problem",
                "AppLeS s",
                "Blocked(SP-2) s",
                "Blocked/AppLeS",
                "AppLeS hosts"
            ],
            &table_rows
        )
    );
    outln!(
        "The SP-2 pair holds a 3700x3700 grid exactly; beyond that the\n\
         Blocked partition pages (\"a dramatic reduction in performance\")\n\
         while AppLeS \"locates available memory elsewhere in the resource\n\
         pool\" by widening the strip set."
    );
    Ok(())
}

/// T-REACT: the §2.3 3D-REACT measurements — ≥16 h on either machine
/// alone, <5 h distributed across the C90 + Paragon pipeline, and the
/// pipeline-size tradeoff.
fn t_react(_: &Parsed) -> CmdResult {
    let r = react_exp::run(0);
    outln!("3D-REACT (quantum reactive scattering, H + D2 => HD + D)\n");
    outln!("single-site C90:      {:>7.2} h", r.c90_hours);
    outln!("single-site Paragon:  {:>7.2} h", r.paragon_hours);
    outln!(
        "distributed pipeline: {:>7.2} h  (pipeline size {} SF, speedup {:.1}x)\n",
        r.distributed_hours,
        r.best_unit,
        r.speedup
    );

    let depths =
        react3d::sweep_pipeline_depths(&react3d::casa_testbed(0)?, r.best_unit, &[1, 2, 4, 8])?;
    outln!(
        "pipeline-depth sweep at the best unit size ({} SF):",
        r.best_unit
    );
    let depth_rows: Vec<Vec<String>> = depths
        .iter()
        .map(|d| {
            vec![
                format!("{}", d.depth),
                format!("{:.2}", d.makespan_s / 3600.0),
                format!("{:.0}", d.producer_block_s),
                format!("{:.0}", d.consumer_stall_s),
            ]
        })
        .collect();
    outln!(
        "{}",
        table::render(
            &["depth", "hours", "producer blocked s", "consumer stalled s"],
            &depth_rows
        )
    );
    outln!();

    outln!("pipeline-size sweep (surface functions per subdomain):");
    let rows: Vec<Vec<String>> = r
        .sweep
        .iter()
        .map(|&(u, h)| {
            vec![
                format!("{u}"),
                format!("{h:.2}"),
                if u == r.best_unit {
                    "<- best".into()
                } else {
                    String::new()
                },
            ]
        })
        .collect();
    outln!("{}", table::render(&["unit SF", "hours", ""], &rows));
    outln!(
        "Paper (§2.3): both machines alone exceed 16 h; the distributed\n\
         platform finishes in just under 5 h; subdomains of 5-20 surface\n\
         functions balance stall (too small) against lost overlap and\n\
         buffering cost (too large)."
    );
    Ok(())
}

/// T-NILE: the §2.1 skim-vs-remote tradeoff — the Site Manager
/// "compares the cost of skimming with a prediction of the reduction
/// in cost of event analysis when the data is local", and the right
/// answer flips as the analysis campaign lengthens.
fn t_nile(_: &Parsed) -> CmdResult {
    let events = 150_000;
    outln!("CLEO/NILE event analysis: skim vs remote access ({events} events)\n");
    let rows = nile_exp::run(events, &[1, 2, 4, 8, 16, 32], 0);
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{}", r.runs),
                if r.skim { "skim" } else { "remote" }.into(),
                table::secs(r.predicted_s),
                table::secs(r.alternative_s),
                table::secs(r.measured_s),
            ]
        })
        .collect();
    outln!(
        "{}",
        table::render(
            &["runs", "decision", "predicted s", "alt s", "measured s"],
            &table_rows
        )
    );
    outln!(
        "A single pass stays remote (skimming copies ~3x the bytes one\n\
         analysis reads); repeated passes amortize the skim and the Site\n\
         Manager switches to building a private local data set."
    );
    Ok(())
}

/// T-NWS: one-step-ahead forecast accuracy of the NWS predictor battery
/// and the adaptive selector, per signal class (§3.6: "a schedule is
/// only as good as the accuracy of its underlying predictions").
fn t_nws(_: &Parsed) -> CmdResult {
    outln!("NWS forecaster accuracy (one-step MAE, lower is better)\n");
    for row in nws_exp::run(100_000, 1996) {
        outln!("signal: {}", row.signal);
        let best = row.scores[..row.scores.len() - 1]
            .iter()
            .map(|&(_, m)| m)
            .fold(f64::INFINITY, f64::min);
        let rows: Vec<Vec<String>> = row
            .scores
            .iter()
            .map(|(name, mae)| {
                let mark = if (*mae - best).abs() < 1e-12 {
                    "<- best individual"
                } else if name == "adaptive-selector" {
                    "<- selector"
                } else {
                    ""
                };
                vec![name.clone(), format!("{mae:.4}"), mark.into()]
            })
            .collect();
        outln!("{}", table::render(&["predictor", "MAE", ""], &rows));
    }
    outln!(
        "No single predictor wins every regime; the adaptive selector\n\
         tracks the best one per signal, which is the NWS design point."
    );
    Ok(())
}

/// RESCHED: §3.2's "redistribution of the application during
/// execution" — a one-shot AppLeS decision versus phase-wise
/// rescheduling, on a testbed whose load regime flips mid-run.
fn resched(_: &Parsed) -> CmdResult {
    let (n, iterations) = (1600, 600);
    let (one_shot_report, report) = commands::one_shot_vs_rescheduling(n, iterations, 50, 0)?;

    outln!(
        "Mid-execution rescheduling: Jacobi2D {n}x{n}, {iterations} iterations,\n\
         load regime flips at t = 660 s (run starts at t = 600 s)\n"
    );
    outln!(
        "one-shot AppLeS:      {:>8.1} s",
        one_shot_report.elapsed_seconds
    );
    outln!(
        "rescheduling AppLeS:  {:>8.1} s  ({} migration(s))\n",
        report.elapsed_seconds,
        report.migrations
    );

    let rows: Vec<Vec<String>> = report
        .phases
        .iter()
        .enumerate()
        .map(|(i, p)| {
            vec![
                format!("{i}"),
                format!("{:.0}", p.start.as_secs_f64()),
                format!("{}", p.iterations),
                table::secs(p.elapsed_seconds),
                if p.migrated {
                    format!("yes ({:.1} s)", p.migration_seconds)
                } else {
                    "".into()
                },
                format!("{}", p.hosts.len()),
            ]
        })
        .collect();
    outln!(
        "{}",
        table::render(
            &[
                "phase",
                "t start",
                "iters",
                "elapsed s",
                "migrated",
                "hosts"
            ],
            &rows
        )
    );
    outln!(
        "speedup from rescheduling: {:.2}x",
        one_shot_report.elapsed_seconds / report.elapsed_seconds
    );
    Ok(())
}

/// ABL-1: forecast-source ablation — the same AppLeS blueprint fed by
/// a perfect oracle, NWS forecasts, raw last measurements, and static
/// nominal speeds. Quantifies §3.6: prediction quality bounds schedule
/// quality. `--quick` runs a reduced size.
fn abl_1(p: &Parsed) -> CmdResult {
    let (n, iters, trials) = if p.switch("quick") {
        (1000, 30, 3)
    } else {
        (1600, 80, 5)
    };
    outln!("Forecast-source ablation: Jacobi2D {n}x{n}, {iters} iterations, {trials} trials\n");
    let rows = ablation::forecast_ablation(n, iters, trials, 1996);
    let base = rows
        .iter()
        .find(|(name, _)| *name == "oracle")
        .map(|(_, s)| s.mean)
        .ok_or("the forecast ablation has no oracle row")?;
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|(name, s)| {
            vec![
                name.to_string(),
                table::secs(s.mean),
                table::secs(s.std_dev),
                table::ratio(s.mean / base),
            ]
        })
        .collect();
    outln!(
        "{}",
        table::render(&["source", "mean s", "std s", "vs oracle"], &table_rows)
    );
    outln!(
        "static-nominal pays the full price of ignoring contention; the\n\
         oracle, NWS and last-value sources are within noise of each\n\
         other on slowly-drifting loads — §3.6's point in reverse: the\n\
         value is in having *any* accurate dynamic information, and the\n\
         forecaster only needs to beat the signal's drift rate."
    );
    Ok(())
}

/// ABL-2: resource-set search ablation — exhaustive subset enumeration
/// (the paper's §5 approach, feasible on 8 hosts) versus greedy
/// distance-ranked prefixes (what a larger pool requires).
fn abl_2(_: &Parsed) -> CmdResult {
    outln!("Resource-set search ablation: Jacobi2D 1200x1200, 60 iterations\n");
    let mut rows = Vec::new();
    for seed in [1996u64, 1997, 1998, 1999, 2000] {
        let t = ablation::selection_trial(1200, 60, seed);
        rows.push(vec![
            format!("{seed}"),
            format!("{}", t.exhaustive_candidates),
            format!("{}", t.greedy_candidates),
            table::secs(t.exhaustive_s),
            table::secs(t.greedy_s),
            table::ratio(t.greedy_s / t.exhaustive_s),
        ]);
    }
    outln!(
        "{}",
        table::render(
            &[
                "seed",
                "exh. sets",
                "greedy sets",
                "exh. s",
                "greedy s",
                "greedy/exh."
            ],
            &rows
        )
    );
    outln!(
        "Greedy evaluates ~30x fewer candidate sets; the chosen schedule\n\
         is usually competitive because the ranking already encodes the\n\
         application's logical distance (3.3)."
    );
    Ok(())
}

/// ABL-3: decomposition-shape ablation — the §5 user told the agent to
/// consider only strip decompositions; with a blocked cost model the
/// agent can search uniform block meshes too. This measures what the
/// strip restriction costs (or saves) on the paper's testbed.
fn abl_3(_: &Parsed) -> CmdResult {
    let warmup = SimTime::from_secs(600);
    outln!("Decomposition-shape ablation: AppLeS strips vs AppLeS blocks\n");
    let mut rows = Vec::new();
    for &n in &[1000usize, 1500, 2000] {
        let mut strip_total = 0.0;
        let mut block_total = 0.0;
        let trials = 3;
        for trial in 0..trials {
            let tb = pcl_sdsc(&TestbedConfig {
                seed: 1996 + trial,
                ..Default::default()
            })?;
            let (hat, user) = jacobi_context(n, 60);
            let t = hat.as_stencil().ok_or("Jacobi2D HAT is not a stencil")?;
            let mut ws = WeatherService::for_topology(&tb.topo, WeatherServiceConfig::default());
            ws.advance(&tb.topo, warmup);
            let pool = InfoPool::with_nws(&tb.topo, &ws, &hat, &user, warmup);

            let strip = apples_stencil_schedule(&pool)?;
            let strip_run = simulate_spmd(&tb.topo, &strip.to_spmd_job(t, warmup), &mut NoopSink)?;
            strip_total += strip_run.makespan(warmup).as_secs_f64();

            let (blocked, _) = apples_blocked_decision(&pool)?;
            let block_run =
                simulate_spmd(&tb.topo, &blocked.to_spmd_job(t, warmup), &mut NoopSink)?;
            block_total += block_run.makespan(warmup).as_secs_f64();
        }
        let strip_s = strip_total / trials as f64;
        let block_s = block_total / trials as f64;
        rows.push(vec![
            format!("{n}x{n}"),
            table::secs(strip_s),
            table::secs(block_s),
            table::ratio(block_s / strip_s),
        ]);
    }
    outln!(
        "{}",
        table::render(
            &[
                "problem",
                "AppLeS strips s",
                "AppLeS blocks s",
                "blocks/strips"
            ],
            &rows
        )
    );
    outln!(
        "Even with forecast-driven host selection, uniform blocks cannot\n\
         shape themselves to per-host speed — the shaped strips win,\n\
         which is why the paper's user preference for strips was sound\n\
         (though far less dramatic than the naive Blocked baseline of\n\
         Figure 5, which also ignored load in picking its hosts)."
    );
    Ok(())
}

/// ABL-4: sensor-noise ablation — §3.6's "a schedule is only as good
/// as the accuracy of its underlying predictions", with measurement
/// noise as the control knob.
fn abl_4(_: &Parsed) -> CmdResult {
    let (n, iters, trials) = (1400, 60, 5);
    outln!(
        "Sensor-noise ablation: Jacobi2D {n}x{n}, {iters} iterations, {trials} trials;\n\
         uniform measurement error added to every CPU and link sample\n"
    );
    let rows = ablation::noise_ablation(n, iters, trials, 1996, &[0.0, 0.05, 0.1, 0.2, 0.4, 0.8]);
    let base = rows[0].1.mean;
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|(noise, s)| {
            vec![
                format!("±{noise:.2}"),
                table::secs(s.mean),
                table::secs(s.std_dev),
                table::ratio(s.mean / base),
            ]
        })
        .collect();
    outln!(
        "{}",
        table::render(&["noise", "mean s", "std s", "vs clean"], &table_rows)
    );
    outln!(
        "Moderate noise is largely absorbed by the forecaster battery\n\
         (means and medians average it out); schedules only degrade\n\
         once the noise approaches the signal's own dynamic range."
    );
    Ok(())
}

/// T-EST: predicted vs simulated execution time across random strip
/// schedules — a direct measurement of §3.6's "a schedule is only as
/// good as the accuracy of its underlying predictions".
fn t_est(_: &Parsed) -> CmdResult {
    let (samples, stats) = estimator_exp::run(100, 2027);
    outln!(
        "Performance Estimator calibration: {} random schedules on the\n\
         Figure 2 testbed, NWS-parameterized predictions vs simulation\n",
        samples.len()
    );
    outln!("prediction/reality ratio distribution:");
    outln!(
        "  median {:.3}   mean {:.3} ± {:.3}",
        stats.median,
        stats.mean,
        stats.std_dev
    );
    outln!("  min    {:.3}   max  {:.3}\n", stats.min, stats.max);

    // A coarse histogram of the ratio.
    let buckets = [
        (0.0, 0.5),
        (0.5, 0.8),
        (0.8, 1.0),
        (1.0, 1.25),
        (1.25, 2.0),
        (2.0, f64::INFINITY),
    ];
    let rows: Vec<Vec<String>> = buckets
        .iter()
        .map(|&(lo, hi)| {
            let count = samples
                .iter()
                .filter(|s| s.ratio() >= lo && s.ratio() < hi)
                .count();
            let bar = "#".repeat(count.min(60));
            vec![
                if hi.is_infinite() {
                    format!(">= {lo}")
                } else {
                    format!("{lo} - {hi}")
                },
                format!("{count}"),
                bar,
            ]
        })
        .collect();
    outln!("{}", table::render(&["ratio", "count", ""], &rows));
    outln!(
        "Ratios above 1 are conservative predictions (model overestimates\n\
         cost); the §5 model charges each side of an exchange separately\n\
         while the simulator overlaps them, so a mild conservative bias\n\
         is expected and is harmless for *ranking* candidate schedules."
    );
    Ok(())
}

/// T-MULTI: several selfish AppLeS agents sharing the Figure 2
/// testbed — what §3's application-centric, uncoordinated scheduling
/// does when a short job arrives among long-running ones.
fn t_multi(_: &Parsed) -> CmdResult {
    use multi_agent::Regime;
    let n = 1400;
    // Three long jobs, then a short probe arriving mid-contention.
    let mix: &[usize] = &[6000, 6000, 6000, 400];
    let gap = SimTime::from_secs(60);
    outln!(
        "3 long + 1 short Jacobi2D {n}x{n} jobs, submitted {} s apart\n",
        gap.as_secs_f64()
    );
    for (regime, label) in [(Regime::Blind, "blind"), (Regime::Aware, "aware")] {
        let outcomes = multi_agent::run_staged(n, mix, 1996, gap, regime)?;
        outln!(
            "{label}: each agent decides {}",
            match regime {
                Regime::Blind => "from pristine pre-submission measurements",
                Regime::Aware => "from measurements that include earlier agents' load",
            }
        );
        let rows: Vec<Vec<String>> = outcomes
            .iter()
            .map(|o| {
                vec![
                    format!("{}", o.agent),
                    format!("{:.0}", o.start.as_secs_f64()),
                    table::secs(o.elapsed),
                    o.hosts.join(", "),
                ]
            })
            .collect();
        outln!(
            "{}",
            table::render(&["agent", "t submit", "elapsed s", "hosts"], &rows)
        );
        let probe = outcomes.last().ok_or("no agent ran")?;
        outln!("probe (agent 3) elapsed: {:.2} s\n", probe.elapsed);
    }
    outln!(
        "No agent coordinates with any other; the aware probe's advantage\n\
         is purely from observation — \"other applications ... are\n\
         experienced by an individual application in terms of the\n\
         dynamically varying performance capability of ... resources\" (§3)."
    );
    Ok(())
}

/// T-PRED: prediction (AppLeS static farm with NWS forecasts) versus
/// reaction (dynamic self-scheduling work queue) on the same
/// bag-of-events job, across network latencies and load volatilities.
fn t_pred(_: &Parsed) -> CmdResult {
    let events = 100_000;
    let chunks = 2000;
    outln!(
        "Prediction vs reaction: {events} events, 4 workers;\n\
         predictive = NWS-forecast one-shot allocation,\n\
         reactive   = {chunks}-chunk self-scheduling work queue\n"
    );
    let rows = predict_react::run_sweep(events, chunks, 1996);
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let winner = if r.predictive_s < r.reactive_s {
                "prediction"
            } else {
                "reaction"
            };
            vec![
                format!("{} ms", r.latency_ms),
                match r.volatility {
                    Volatility::Stable => "stable",
                    Volatility::Volatile => "volatile",
                }
                .into(),
                table::secs(r.predictive_s),
                table::secs(r.reactive_s),
                winner.into(),
            ]
        })
        .collect();
    outln!(
        "{}",
        table::render(
            &["latency", "load", "predictive s", "reactive s", "winner"],
            &table_rows
        )
    );
    outln!(
        "Reaction needs no forecasts but pays a round-trip per chunk and\n\
         only works for independent tasks; prediction pays nothing per\n\
         chunk but rides on forecast accuracy. AppLeS's niche (§3.3) is\n\
         exactly the left column's losses: wide-area, \"far\" resources\n\
         where chattiness is ruinous — plus every coupled application\n\
         (stencils, pipelines) where self-scheduling does not apply."
    );
    Ok(())
}

/// T-FIXED: fixed-time (Gustafson) scaling — the largest Jacobi2D grid
/// each partitioning strategy finishes within a fixed wall-clock
/// budget on the non-dedicated testbed.
fn t_fixed(_: &Parsed) -> CmdResult {
    use fixed_time::Strategy;
    let iterations = 60;
    outln!(
        "Fixed-time scaling: largest grid finishing within the budget\n\
         ({iterations} iterations, moderate contention, seed 1996)\n"
    );
    let mut rows = Vec::new();
    for &budget in &[5.0f64, 15.0, 40.0] {
        let mut row = vec![format!("{budget:.0} s")];
        for strategy in [Strategy::Apples, Strategy::StaticStrip, Strategy::Blocked] {
            let n = fixed_time::largest_grid_within(strategy, budget, iterations, 1996);
            row.push(format!("{n}x{n}"));
        }
        rows.push(row);
    }
    outln!(
        "{}",
        table::render(&["budget", "AppLeS", "static Strip", "HPF Blocked"], &rows)
    );
    outln!(
        "Fixed-size speedup (Figure 5) and fixed-time scaling are two views\n\
         of the same gap: a ~2x throughput advantage buys a ~1.4x larger\n\
         grid edge in the same wall-clock budget (Gustafson, the paper's\n\
         reference [12])."
    );
    Ok(())
}

/// T-WHATIF: application-centric capacity planning — which single
/// hardware upgrade most improves a Jacobi2D run on the Figure 2
/// testbed? (§1.2: adding technology to the pool should enhance the
/// performance of existing applications — this measures *which*
/// technology, for *this* application.)
fn t_whatif(_: &Parsed) -> CmdResult {
    let tb = pcl_sdsc(&TestbedConfig::default())?;
    let now = SimTime::from_secs(600);
    let mut ws = WeatherService::for_topology(&tb.topo, WeatherServiceConfig::default());
    ws.advance(&tb.topo, now);
    let (hat, user) = jacobi_context(2000, 80);

    let menu = standard_menu(&tb.topo);
    let report = evaluate(&tb.topo, &ws, &hat, &user, now, &menu)?;

    outln!(
        "What-if: double one resource at a time (Jacobi2D 2000x2000, 80 iters)\n\
         baseline: {:.2} s\n",
        report.baseline_seconds
    );
    let rows: Vec<Vec<String>> = report
        .results
        .iter()
        .take(12)
        .map(|r| {
            vec![
                r.upgrade.describe(&tb.topo),
                table::secs(r.upgraded_seconds),
                table::ratio(r.speedup),
            ]
        })
        .collect();
    outln!(
        "{}",
        table::render(&["upgrade", "new time", "speedup"], &rows)
    );
    outln!(
        "The ranking is application-centric: it reflects where *this*\n\
         application's time actually goes under *current* contention,\n\
         not the hardware's nominal specs. Re-planning after each\n\
         hypothetical upgrade matters — a faster host earns a bigger\n\
         strip, it doesn't just run its old strip faster."
    );
    Ok(())
}

/// T-GRID: stream a multi-tenant workload through the shared testbed
/// and report fleet metrics, one seeded trial after another. `--csv`
/// emits one row per trial (plus per-job rows for a single trial),
/// `--json` one fleet-metrics object per trial. `--trace` and
/// `--metrics` record the first trial, re-run once for whichever of
/// them and single-trial `--csv` ask for it.
fn t_grid(p: &Parsed) -> CmdResult {
    let defaults = GridExpConfig::default();
    let cfg = GridExpConfig {
        rate_hz: p.get_parsed("rate", defaults.rate_hz)?,
        duration_secs: p.get_parsed("duration", defaults.duration_secs)?,
        seed: p.get_parsed("seed", defaults.seed)?,
        trials: p.get_parsed("trials", defaults.trials)?,
        max_in_flight: p.get_parsed("max-in-flight", defaults.max_in_flight)?,
    };
    if cfg.rate_hz <= 0.0 || cfg.duration_secs <= 0.0 || cfg.trials == 0 {
        return Err(ArgError("rate, duration and trials must be positive".into()).into());
    }
    let csv = p.switch("csv");

    let trials = run_trials(&cfg)?;
    // The sweep keeps only fleet metrics; events and per-job records
    // come from one re-run of the first trial (determinism makes the
    // re-run free of surprise).
    let want_records = csv && cfg.trials == 1;
    let first_records =
        if want_records || !p.get("trace", "").is_empty() || !p.get("metrics", "").is_empty() {
            let (grid, workload) = first_trial(&cfg);
            let service = GridService::new(grid)?;
            commands::traced(p, |sink| service.run(SchedRegime::Selfish, &workload, sink))?.records
        } else {
            Vec::new()
        };

    if p.switch("json") {
        for t in &trials {
            outln!("{}", t.fleet.to_json());
        }
        return Ok(());
    }
    if csv {
        outln!("{}", FleetMetrics::csv_header());
        for t in &trials {
            outln!("{}", t.fleet.csv_row(&format!("seed-{}", t.seed)));
        }
        if want_records {
            outln!();
            outln!("{}", JobRecord::csv_header());
            for r in &first_records {
                outln!("{}", r.csv_row());
            }
        }
        return Ok(());
    }

    outln!(
        "Poisson arrivals at {}/s for {} s on the Figure 2 testbed (seed {}, {} trial(s))\n",
        cfg.rate_hz,
        cfg.duration_secs,
        cfg.seed,
        cfg.trials
    );
    for t in &trials {
        outln!("seed {}:", t.seed);
        outln!("{}", fleet_table(&t.fleet));
        outln!("{}", utilization_table(&t.fleet));
    }
    outln!("{}", sweep_summary(&trials));
    Ok(())
}

/// T-FAULT: "Figure 6 for a fleet" — aware-with-rescheduling vs blind
/// job streams under escalating host-crash rates. Each crash rate
/// realizes one seeded fault schedule that both regimes face
/// unchanged. `--csv` emits one row per (rate, regime).
fn t_fault(p: &Parsed) -> CmdResult {
    let defaults = FaultExpConfig::default();
    let rates: Vec<f64> = p.get_list("rates")?;
    let cfg = FaultExpConfig {
        rate_hz: p.get_parsed("rate", defaults.rate_hz)?,
        duration_secs: p.get_parsed("duration", defaults.duration_secs)?,
        seed: p.get_parsed("seed", defaults.seed)?,
        crash_rates: if rates.is_empty() {
            defaults.crash_rates
        } else {
            rates
        },
        mean_outage_secs: p.get_parsed("mean-outage", defaults.mean_outage_secs)?,
        permanent_fraction: p.get_parsed("permanent", defaults.permanent_fraction)?,
        max_attempts: p.get_parsed("max-attempts", defaults.max_attempts)?,
    };
    if cfg.rate_hz <= 0.0
        || cfg.duration_secs <= 0.0
        || cfg.crash_rates.iter().any(|r| !r.is_finite() || *r < 0.0)
        || cfg.mean_outage_secs <= 0.0
        || !(0.0..=1.0).contains(&cfg.permanent_fraction)
        || cfg.max_attempts == 0
    {
        return Err(ArgError(
            "rate, duration, crash rates, outage and retry knobs must be sane".into(),
        )
        .into());
    }

    let trials = run_fault_sweep(&cfg)?;

    if p.switch("csv") {
        outln!("{}", FleetMetrics::csv_header());
        for t in &trials {
            outln!("{}", t.aware.csv_row(&format!("aware-{:.2}", t.crash_rate)));
            outln!("{}", t.blind.csv_row(&format!("blind-{:.2}", t.crash_rate)));
        }
        return Ok(());
    }

    outln!(
        "Poisson arrivals at {}/s for {} s, crashes escalating over {:?} per host-hour\n\
         (seed {}, mean outage {} s, {:.0}% permanent, aware retries up to {} attempts)\n",
        cfg.rate_hz,
        cfg.duration_secs,
        cfg.crash_rates,
        cfg.seed,
        cfg.mean_outage_secs,
        cfg.permanent_fraction * 100.0,
        cfg.max_attempts
    );
    outln!("{}", fault_table(&trials));
    outln!("{}", fault_summary(&trials));
    Ok(())
}

/// T-PROF: where do the simulated seconds go under each partitioning
/// strategy of the Figure 5 scenario? Runs the three partitions on the
/// same warmed testbed with an event sink attached, folds each trace
/// with simprof, and prints the compute / border-exchange /
/// contention-wait shares: the static partitions burn their extra
/// seconds waiting, not computing. `--folded DIR` also writes one
/// flamegraph-compatible folded-stack file per strategy.
fn t_prof(p: &Parsed) -> CmdResult {
    let n: usize = p.get_parsed("n", 1400)?;
    let iterations: usize = p.get_parsed("iterations", 100)?;
    let seed: u64 = p.get_parsed("seed", 1996)?;
    let folded_dir = p.get("folded", "");

    let tb = fig5::testbed(seed, LoadProfile::Moderate)?;
    let trial = fig5::jobs(&tb, n, iterations)?;

    outln!("Jacobi2D {n}x{n}, {iterations} iterations, seed {seed} (moderate profile):\n");
    outln!(
        "{:<14} {:>10} {:>10} {:>17} {:>17}",
        "strategy",
        "makespan",
        "compute",
        "border-exchange",
        "contention-wait"
    );
    for (name, job) in &trial.jobs {
        let mut sink = VecSink::new();
        let out = simulate_spmd(&tb.topo, job, &mut sink)?;
        let profile = Profile::from_events(&sink.events);
        let shares = profile
            .exec_shares()
            .ok_or_else(|| format!("{name}: the run emitted no execution events"))?;
        outln!(
            "{:<14} {:>9.2}s {:>9.1}% {:>16.1}% {:>16.1}%",
            name,
            out.makespan(fig5::WARMUP).as_secs_f64(),
            shares.compute * 100.0,
            shares.border_exchange * 100.0,
            shares.contention_wait * 100.0,
        );
        if !folded_dir.is_empty() {
            let path = format!("{folded_dir}/{name}.folded");
            std::fs::write(&path, profile.folded())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
        }
    }
    if !folded_dir.is_empty() {
        eprintln!("folded stacks written to {folded_dir}/<strategy>.folded");
    }
    Ok(())
}

/// One line of the `repro all` checklist.
struct Check {
    name: &'static str,
    claim: &'static str,
    pass: bool,
    detail: String,
}

/// Every headline claim at reduced size, as a pass/fail checklist; an
/// error (exit 1) if any check fails. Full-size sweeps are the
/// individual experiments.
fn all(_: &Parsed) -> CmdResult {
    let mut checks: Vec<Check> = Vec::new();

    // FIG5: AppLeS beats Strip and Blocked.
    {
        let r = fig5::run_trial(1200, 40, 1996, LoadProfile::Moderate)?;
        let strip_ratio = r.strip_s / r.apples_s;
        let blocked_ratio = r.blocked_s / r.apples_s;
        checks.push(Check {
            name: "FIG5",
            claim: "AppLeS beats Strip and Blocked by 2-8x",
            pass: strip_ratio > 1.5 && blocked_ratio > 2.0,
            detail: format!("strip {strip_ratio:.1}x, blocked {blocked_ratio:.1}x"),
        });
    }

    // FIG6: paging cliff past 3700^2; AppLeS smooth.
    {
        let below = fig6::run_trial(3000, 10, 1996)?;
        let above = fig6::run_trial(4200, 10, 1996)?;
        checks.push(Check {
            name: "FIG6",
            claim: "Blocked(SP-2) cliffs past 3700^2, AppLeS does not",
            pass: below.blocked_sp2_s < 2.0 * below.apples_s
                && above.blocked_sp2_s > 3.0 * above.apples_s,
            detail: format!(
                "ratio {:.2}x below, {:.2}x above",
                below.blocked_sp2_s / below.apples_s,
                above.blocked_sp2_s / above.apples_s
            ),
        });
    }

    // T-REACT: >16h single site, <5h distributed.
    {
        let r = react_exp::run(0);
        checks.push(Check {
            name: "T-REACT",
            claim: ">16 h on either machine alone, <5 h pipelined",
            pass: r.c90_hours > 16.0 && r.paragon_hours > 16.0 && r.distributed_hours < 5.0,
            detail: format!(
                "C90 {:.1} h, Paragon {:.1} h, distributed {:.1} h (unit {})",
                r.c90_hours, r.paragon_hours, r.distributed_hours, r.best_unit
            ),
        });
    }

    // T-NILE: skim decision crosses over with campaign length.
    {
        let rows = nile_exp::run(150_000, &[1, 16], 0);
        checks.push(Check {
            name: "T-NILE",
            claim: "remote for one run, skim for a long campaign",
            pass: !rows[0].skim && rows[1].skim,
            detail: format!(
                "1 run -> {}, 16 runs -> {}",
                if rows[0].skim { "skim" } else { "remote" },
                if rows[1].skim { "skim" } else { "remote" },
            ),
        });
    }

    // ABL-1: dynamic information beats static.
    {
        let rows = ablation::forecast_ablation(1000, 25, 3, 2024);
        let get = |name: &str| {
            rows.iter()
                .find(|(n, _)| *n == name)
                .map(|(_, s)| s.mean)
                .unwrap_or(f64::NAN)
        };
        let nws_t = get("nws");
        let static_t = get("static-nominal");
        checks.push(Check {
            name: "ABL-1",
            claim: "NWS-informed schedules beat static-nominal",
            pass: nws_t < static_t,
            detail: format!("nws {nws_t:.1}s vs static {static_t:.1}s"),
        });
    }

    // T-FIXED: AppLeS solves the largest fixed-time grid.
    {
        let a = fixed_time::largest_grid_within(fixed_time::Strategy::Apples, 8.0, 40, 1996);
        let s = fixed_time::largest_grid_within(fixed_time::Strategy::StaticStrip, 8.0, 40, 1996);
        checks.push(Check {
            name: "T-FIXED",
            claim: "largest fixed-time grid: AppLeS > static Strip",
            pass: a > s,
            detail: format!("AppLeS {a}^2 vs Strip {s}^2 in 8 s"),
        });
    }

    // T-MULTI: an aware probe beats a blind probe.
    {
        let gap = SimTime::from_secs(60);
        let mix: &[usize] = &[4000, 4000, 300];
        let aware = multi_agent::run_staged(1200, mix, 77, gap, multi_agent::Regime::Aware)?;
        let blind = multi_agent::run_staged(1200, mix, 77, gap, multi_agent::Regime::Blind)?;
        let (ap, bp) = match (aware.last(), blind.last()) {
            (Some(a), Some(b)) => (a.elapsed, b.elapsed),
            _ => return Err("T-MULTI: no agent ran".into()),
        };
        checks.push(Check {
            name: "T-MULTI",
            claim: "observing other agents' load pays off",
            pass: ap < bp,
            detail: format!("aware probe {ap:.0}s vs blind probe {bp:.0}s"),
        });
    }

    // Report.
    outln!("Reproduction checklist (reduced sizes; see EXPERIMENTS.md for full runs)\n");
    let mut all = true;
    for c in &checks {
        all &= c.pass;
        outln!(
            "[{}] {:8} {} — {}",
            if c.pass { "PASS" } else { "FAIL" },
            c.name,
            c.claim,
            c.detail
        );
    }
    outln!(
        "\n{}",
        if all {
            "All reproduction checks passed."
        } else {
            "SOME CHECKS FAILED — see above."
        }
    );
    if all {
        Ok(())
    } else {
        Err("reproduction checks failed".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(words: &[&str]) -> CmdResult {
        let args: Vec<String> = words.iter().map(|s| s.to_string()).collect();
        let (parsed, run) = parse(&args).expect("parse");
        run(&parsed)
    }

    fn parses(words: &[&str]) -> bool {
        let args: Vec<String> = words.iter().map(|s| s.to_string()).collect();
        parse(&args).is_ok()
    }

    #[test]
    fn ids_are_unique_and_listed_in_the_usage() {
        for (i, (id, ..)) in EXPERIMENTS.iter().enumerate() {
            assert!(
                EXPERIMENTS[..i].iter().all(|(other, ..)| other != id),
                "duplicate id {id}"
            );
            assert!(crate::USAGE.contains(id), "{id} missing from the usage");
        }
    }

    #[test]
    fn each_experiment_takes_only_its_own_flags() {
        assert!(parses(&["fig5", "--quick", "--csv"]));
        assert!(parses(&["t-prof", "--n", "600", "--folded", "d"]));
        assert!(!parses(&["fig2", "--quick"]));
        assert!(!parses(&["t-grid", "--arrival-rate", "0.01"]));
    }

    #[test]
    fn cheap_experiments_run() {
        for id in ["fig1", "fig2", "fig4"] {
            assert!(run(&[id]).is_ok(), "{id}");
        }
        assert!(run(&["t-prof", "--n", "600", "--iterations", "5"]).is_ok());
        assert!(run(&["t-grid", "--rate", "0.005", "--duration", "600", "--csv"]).is_ok());
    }

    #[test]
    fn insane_knobs_are_errors() {
        assert!(run(&["t-grid", "--trials", "0"]).is_err());
        assert!(run(&["t-grid", "--rate", "abc"]).is_err());
        assert!(run(&["t-fault", "--permanent", "1.5"]).is_err());
        assert!(run(&["t-fault", "--rates", "1,-2"]).is_err());
        assert!(run(&["t-prof", "--n", "0"]).is_err());
    }
}
