//! Multi-trial sweeps: the same service under many seeds, in parallel.
//!
//! Each trial realizes an independent background load *and* an
//! independent job stream from its seed, runs the full service loop,
//! and reduces to fleet metrics. Trials share nothing, so they run on
//! scoped threads; results come back in seed order regardless of
//! completion order, keeping sweep output deterministic.

use crate::metrics::FleetMetrics;
use crate::sched::SchedRegime;
use crate::service::{GridConfig, GridError, GridService};
use crate::workload::WorkloadConfig;
use metasim::simtrace::NoopSink;

/// One trial's summary.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialResult {
    /// The seed this trial used for both testbed and workload.
    pub seed: u64,
    /// The trial's fleet metrics.
    pub fleet: FleetMetrics,
}

/// Run one trial per seed in parallel, seeding both the testbed
/// realization and the workload from the same value. Each trial runs
/// the selfish stream through a validated [`GridService`].
pub fn sweep_seeds(
    cfg: &GridConfig,
    workload: &WorkloadConfig,
    seeds: &[u64],
) -> Result<Vec<TrialResult>, GridError> {
    let results: Vec<Result<TrialResult, GridError>> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = seeds
            .iter()
            .map(|&seed| {
                let trial_cfg = GridConfig {
                    seed,
                    ..cfg.clone()
                };
                let trial_workload = WorkloadConfig {
                    seed,
                    ..workload.clone()
                };
                scope.spawn(move |_| {
                    GridService::new(trial_cfg)?
                        .run(SchedRegime::Selfish, &trial_workload, &mut NoopSink)
                        .map(|out| TrialResult {
                            seed,
                            fleet: out.fleet,
                        })
                })
            })
            .collect();
        handles
            .into_iter()
            // simlint: allow(panic-in-lib): re-raises a panic from a trial thread; swallowing it would fabricate results
            .map(|h| h.join().expect("trial thread"))
            .collect()
    })
    // simlint: allow(panic-in-lib): crossbeam scope fails only when a child thread panicked; propagate it
    .expect("trial scope");
    results.into_iter().collect()
}

/// Mean of a per-trial scalar across sweep results.
pub fn mean_of(trials: &[TrialResult], f: impl Fn(&FleetMetrics) -> f64) -> f64 {
    if trials.is_empty() {
        return 0.0;
    }
    trials.iter().map(|t| f(&t.fleet)).sum::<f64>() / trials.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::ArrivalProcess;
    use metasim::SimTime;

    #[test]
    fn sweep_is_deterministic_and_seed_ordered() {
        let cfg = GridConfig::default();
        let workload = WorkloadConfig {
            arrivals: ArrivalProcess::Poisson { rate_hz: 0.005 },
            duration: SimTime::from_secs(1200),
            ..WorkloadConfig::default()
        };
        let seeds = [3, 1, 2];
        let a = sweep_seeds(&cfg, &workload, &seeds).expect("sweep a");
        let b = sweep_seeds(&cfg, &workload, &seeds).expect("sweep b");
        assert_eq!(a, b);
        let got: Vec<u64> = a.iter().map(|t| t.seed).collect();
        assert_eq!(got, seeds, "results must come back in input order");
        // Different seeds make different streams.
        assert_ne!(a[0].fleet, a[1].fleet);
        assert!(mean_of(&a, |m| m.jobs as f64) > 0.0);
    }
}
