#![warn(missing_docs)]

//! # apples-bench — the experiment harness
//!
//! One module per paper artifact. `apples-cli repro <id>` runs and
//! renders each experiment from these functions, and the Criterion
//! benches under `benches/` time the same entry points. See DESIGN.md
//! for the experiment ↔ module index and EXPERIMENTS.md for recorded
//! results.

pub mod ablation;
pub mod estimator_exp;
pub mod event_engine;
pub mod fault_exp;
pub mod fig5;
pub mod fig6;
pub mod fixed_time;
pub mod grid_exp;
pub mod multi_agent;
pub mod nile_exp;
pub mod nws_exp;
pub mod predict_react;
pub mod react_exp;
pub mod regime_race;
pub mod table;

use apples::ApplesError;
use metasim::trace::Stats;

/// Run `trials` independent trials in parallel, trial `i` seeded
/// `base_seed + i`; the first error in seed order wins.
pub(crate) fn fan_out<T: Send>(
    trials: usize,
    base_seed: u64,
    trial: impl Fn(u64) -> Result<T, ApplesError> + Sync,
) -> Result<Vec<T>, ApplesError> {
    let trial = &trial;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..trials as u64)
            .map(|i| scope.spawn(move || trial(base_seed + i)))
            .collect();
        handles
            .into_iter()
            // Re-raise a trial thread's panic; never turn it into a result.
            .map(|h| h.join().expect("trial thread"))
            .collect()
    })
}

/// Summary statistics of one field over a sweep's trials.
pub(crate) fn stats<T>(trials: &[T], field: impl Fn(&T) -> f64) -> Result<Stats, ApplesError> {
    let samples: Vec<f64> = trials.iter().map(field).collect();
    Stats::from_samples(&samples)
        .ok_or_else(|| ApplesError::Invalid("a sweep needs at least one trial".into()))
}
