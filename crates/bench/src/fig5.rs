//! Figure 5: execution-time averages for Jacobi2D under the AppLeS
//! partitioning, the static non-uniform Strip partitioning, and the
//! HPF Uniform/Blocked partitioning, on the non-dedicated SDSC/PCL
//! testbed of Figure 2.
//!
//! The paper reports AppLeS beating both static partitions "by factors
//! of 2-8 for problem sizes 1000×1000 – 2000×2000 ... because AppLeS
//! is able to consider the dynamically changing performance
//! capabilities of the resources due to contention". Each trial here
//! runs all three partitions back-to-back against the *same* realized
//! load traces, and rows average over independent trials (seeds).

use apples::info::InfoPool;
use apples::{ApplesError, StencilSchedule};
use apples_apps::jacobi2d::partition::jacobi_context;
use apples_apps::jacobi2d::{apples_stencil_schedule, blocked_uniform, static_strip};
use metasim::exec::{simulate_spmd, SpmdJob};
use metasim::simtrace::NoopSink;
use metasim::testbed::{pcl_sdsc, LoadProfile, Testbed, TestbedConfig};
use metasim::trace::Stats;
use metasim::{SimError, SimTime, Topology};
use nws::{WeatherService, WeatherServiceConfig};

/// Time the Weather Service warms up before the scheduling decision.
pub const WARMUP: SimTime = SimTime::from_secs(600);

/// Configuration of the Figure 5 experiment.
#[derive(Debug, Clone)]
pub struct Fig5Config {
    /// Grid sizes to sweep (the paper uses 1000–2000).
    pub sizes: Vec<usize>,
    /// Jacobi iterations per run.
    pub iterations: usize,
    /// Independent trials (distinct load realizations) per size.
    pub trials: usize,
    /// Base seed; trial `i` uses `base_seed + i`.
    pub base_seed: u64,
    /// Background-load intensity.
    pub profile: LoadProfile,
}

impl Default for Fig5Config {
    fn default() -> Self {
        Fig5Config {
            sizes: vec![1000, 1200, 1400, 1600, 1800, 2000],
            iterations: 100,
            trials: 5,
            base_seed: 1996,
            profile: LoadProfile::Moderate,
        }
    }
}

/// Measured seconds for the three partitions in one trial.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialResult {
    /// AppLeS (NWS-driven) partition.
    pub apples_s: f64,
    /// Static non-uniform strip partition (nominal speeds only).
    pub strip_s: f64,
    /// HPF uniform blocked partition.
    pub blocked_s: f64,
    /// The strip fractions AppLeS chose, as `(host name, fraction)`.
    pub apples_fractions: Vec<(String, f64)>,
}

/// The non-dedicated Figure 2 testbed (no SP-2) of one trial.
pub fn testbed(seed: u64, profile: LoadProfile) -> Result<Testbed, SimError> {
    pcl_sdsc(&TestbedConfig {
        profile,
        horizon: SimTime::from_secs(400_000),
        seed,
        with_sp2: false,
    })
}

/// The three partitions of one Figure 5 trial, lowered to SPMD jobs
/// that start at [`WARMUP`].
#[derive(Debug, Clone)]
pub struct Fig5Jobs {
    /// The AppLeS strip partition (its fractions are Figure 3).
    pub apples: StencilSchedule,
    /// `(strategy, job)` for AppLeS, static Strip and HPF Blocked, in
    /// that order.
    pub jobs: [(&'static str, SpmdJob); 3],
}

impl Fig5Jobs {
    /// Simulate each job on `topo`; makespans in seconds, in job order.
    pub fn makespans(&self, topo: &Topology) -> Result<[f64; 3], SimError> {
        let mut secs = [0.0; 3];
        for (s, (_, job)) in secs.iter_mut().zip(&self.jobs) {
            *s = simulate_spmd(topo, job, &mut NoopSink)?
                .makespan(WARMUP)
                .as_secs_f64();
        }
        Ok(secs)
    }
}

/// Plan the three Figure 5 partitions of an `n`×`n` Jacobi2D run on
/// `tb`: AppLeS over NWS forecasts warmed for [`WARMUP`], and the
/// static non-uniform Strip (Figure 4) and HPF uniform Blocked
/// partitions over every workstation.
pub fn jobs(tb: &Testbed, n: usize, iterations: usize) -> Result<Fig5Jobs, ApplesError> {
    let workstations = tb.workstations();
    let (hat, user) = jacobi_context(n, iterations);
    let t = hat
        .as_stencil()
        .ok_or_else(|| ApplesError::Invalid("Jacobi2D HAT is not a stencil".into()))?;

    // Warm the Weather Service, then schedule.
    let mut ws = WeatherService::for_topology(&tb.topo, WeatherServiceConfig::default());
    ws.advance(&tb.topo, WARMUP);
    let pool = InfoPool::with_nws(&tb.topo, &ws, &hat, &user, WARMUP);
    let apples = apples_stencil_schedule(&pool)?;
    let strip = static_strip(&tb.topo, n, iterations, &workstations);
    let blocked = blocked_uniform(n, iterations, &workstations);
    Ok(Fig5Jobs {
        jobs: [
            ("AppLeS", apples.to_spmd_job(t, WARMUP)),
            ("static-strip", strip.to_spmd_job(t, WARMUP)),
            ("hpf-blocked", blocked.to_spmd_job(t, WARMUP)),
        ],
        apples,
    })
}

/// Run one back-to-back trial at grid size `n`.
pub fn run_trial(
    n: usize,
    iterations: usize,
    seed: u64,
    profile: LoadProfile,
) -> Result<TrialResult, ApplesError> {
    let tb = testbed(seed, profile)?;
    let trial = jobs(&tb, n, iterations)?;
    let [apples_s, strip_s, blocked_s] = trial.makespans(&tb.topo)?;
    let apples_fractions = trial
        .apples
        .parts
        .iter()
        .map(|p| {
            let name = tb.topo.host(p.host)?.spec.name.clone();
            Ok((name, p.rows as f64 / n as f64))
        })
        .collect::<Result<_, SimError>>()?;

    Ok(TrialResult {
        apples_s,
        strip_s,
        blocked_s,
        apples_fractions,
    })
}

/// One averaged row of Figure 5.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// Grid edge length.
    pub n: usize,
    /// AppLeS execution-time statistics over the trials.
    pub apples: Stats,
    /// Static strip statistics.
    pub strip: Stats,
    /// Blocked statistics.
    pub blocked: Stats,
}

impl Fig5Row {
    /// Mean speedup of AppLeS over the static strip partition.
    pub fn strip_ratio(&self) -> f64 {
        self.strip.mean / self.apples.mean
    }

    /// Mean speedup of AppLeS over the blocked partition.
    pub fn blocked_ratio(&self) -> f64 {
        self.blocked.mean / self.apples.mean
    }
}

/// Run the full Figure 5 sweep. Trials are independent (each has its
/// own testbed realization), so they fan out across threads.
pub fn run(cfg: &Fig5Config) -> Result<Vec<Fig5Row>, ApplesError> {
    cfg.sizes
        .iter()
        .map(|&n| {
            let trials = crate::fan_out(cfg.trials, cfg.base_seed, |seed| {
                run_trial(n, cfg.iterations, seed, cfg.profile)
            })?;
            Ok(Fig5Row {
                n,
                apples: crate::stats(&trials, |r| r.apples_s)?,
                strip: crate::stats(&trials, |r| r.strip_s)?,
                blocked: crate::stats(&trials, |r| r.blocked_s)?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apples_beats_both_static_partitions() {
        // A reduced-size trial (fewer iterations, one seed) must still
        // show the Figure 5 ordering.
        let r = run_trial(1000, 30, 42, LoadProfile::Moderate).unwrap();
        assert!(
            r.apples_s < r.strip_s,
            "apples {} vs strip {}",
            r.apples_s,
            r.strip_s
        );
        assert!(
            r.apples_s < r.blocked_s,
            "apples {} vs blocked {}",
            r.apples_s,
            r.blocked_s
        );
    }

    #[test]
    fn apples_fractions_are_a_partition() {
        let r = run_trial(1000, 10, 7, LoadProfile::Moderate).unwrap();
        let total: f64 = r.apples_fractions.iter().map(|&(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn a_sweep_without_trials_is_an_error() {
        let cfg = Fig5Config {
            sizes: vec![1000],
            trials: 0,
            ..Fig5Config::default()
        };
        assert!(run(&cfg).is_err());
    }

    #[test]
    fn trials_are_deterministic_per_seed() {
        let a = run_trial(1000, 10, 9, LoadProfile::Moderate).unwrap();
        let b = run_trial(1000, 10, 9, LoadProfile::Moderate).unwrap();
        assert_eq!(a, b);
    }
}
