//! The benchmark's workloads and the inputs it generates for them.
//!
//! Every input is generated here; the program receives only the job
//! list, fault schedule and grid configuration. Three choices keep runs
//! of different seeds comparable, so a change in host time reads as a
//! change in the program rather than in the draw:
//!
//! * the job count is fixed: arrivals are open-loop, one drawn
//!   uniformly inside each of `jobs` equal slots of the submission
//!   window (a Poisson stream conditioned on its count, stratified);
//! * the kinds follow the default job mix in exact proportions: each
//!   run of nine consecutive jobs holds the mix's 4:2:1:1:1 weights
//!   once, in a seed-shuffled order;
//! * the machine is fixed ([`MACHINE_SEED`]): its host mix, background
//!   load and crash schedule do not depend on `--seed`, which draws
//!   only the traffic (arrival instants and kind order).

use apples_grid::workload::{JobKind, JobMix, JobSpec, RetryPolicy};
use apples_grid::{
    run_regime_jobs_with_sink, FaultInjection, GridConfig, GridError, JobRecord, SchedRegime,
};
use metasim::fault::{FaultSpec, HostFault};
use metasim::simtrace::EventSink;
use metasim::topogen::TopoSpec;
use metasim::{HostId, SimTime};

/// A deterministic splitmix64 stream, keyed by seed and purpose so the
/// arrival, mix and fault draws are independent of one another.
pub struct Draw(u64);

impl Draw {
    pub fn new(seed: u64, purpose: u64) -> Draw {
        Draw(seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The crash schedule's shape.
#[derive(Debug, Clone, Copy)]
pub struct Crashes {
    /// Hosts that crash during the NWS warm-up, before any submission.
    /// The first `permanent` of them never return; the rest return
    /// after the submission window.
    pub warmup: usize,
    /// How many of the warm-up crashes are permanent.
    pub permanent: usize,
    /// Hosts that crash in the middle 40% of the submission window and
    /// return `outage_s` later.
    pub mid_stream: usize,
    /// Outage length of a mid-stream crash, simulated seconds.
    pub outage_s: u64,
}

/// One benchmark workload.
pub struct Workload {
    pub name: &'static str,
    /// Generated topology spec; `None` is the Figure-2 SDSC/PCL testbed.
    pub topo: Option<&'static str>,
    /// Jobs in the stream.
    pub jobs: usize,
    /// Submission window, simulated seconds.
    pub span_s: u64,
    pub crashes: Option<Crashes>,
    /// Placement attempts per job.
    pub max_attempts: u32,
    /// Regimes run over the same stream, in order.
    pub regimes: &'static [SchedRegime],
}

/// Seed of every workload's machine: its generated host mix, its
/// background load and its crash schedule. The machine stays the same
/// across runs; `--seed` draws the traffic.
pub const MACHINE_SEED: u64 = 1996;

/// Hosts of the Figure-2 testbed without the SP-2 nodes.
const FIG2_HOSTS: usize = 8;

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "fig2-selfish-2h",
        topo: None,
        jobs: 27,
        span_s: 7200,
        crashes: None,
        max_attempts: 1,
        regimes: &[SchedRegime::Selfish],
    },
    Workload {
        name: "tree16-crash-race",
        topo: Some("tree:hosts=16,arity=2,per_seg=4"),
        jobs: 36,
        span_s: 1350,
        crashes: Some(Crashes {
            warmup: 6,
            permanent: 2,
            mid_stream: 1,
            outage_s: 600,
        }),
        max_attempts: 3,
        regimes: &[SchedRegime::Selfish, SchedRegime::Batch],
    },
    Workload {
        name: "fattree128-central",
        topo: Some("fat-tree:k=4"),
        jobs: 27,
        span_s: 2700,
        crashes: None,
        max_attempts: 1,
        regimes: &[SchedRegime::Batch, SchedRegime::Fractional],
    },
];

/// Everything one pass hands the program, drawn from one seed.
pub struct Inputs {
    pub grid: GridConfig,
    pub jobs: Vec<JobSpec>,
    pub duration: SimTime,
    pub retry: RetryPolicy,
    pub hosts: usize,
}

impl Inputs {
    /// Crashes that strike before the last submission.
    pub fn crashes_before_last_submit(&self) -> usize {
        let last = self
            .jobs
            .iter()
            .map(|j| self.grid.warmup + j.submit)
            .max()
            .unwrap_or(SimTime::ZERO);
        match &self.grid.faults {
            FaultInjection::Spec(spec) => spec.host_faults.iter().filter(|f| f.at <= last).count(),
            _ => 0,
        }
    }
}

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    pub fn topo_spec(&self) -> Result<Option<TopoSpec>, GridError> {
        self.topo
            .map(|s| TopoSpec::parse(s).map_err(GridError::Sim))
            .transpose()
    }

    pub fn inputs(&self, seed: u64) -> Result<Inputs, GridError> {
        let topo = self.topo_spec()?;
        let hosts = topo.as_ref().map_or(FIG2_HOSTS, TopoSpec::host_count);
        let base = GridConfig {
            topo,
            seed: MACHINE_SEED,
            ..GridConfig::default()
        };
        let faults = match self.crashes {
            Some(c) => FaultInjection::Spec(self.crash_schedule(&c, &base, hosts)),
            None => FaultInjection::None,
        };
        Ok(Inputs {
            grid: GridConfig { faults, ..base },
            jobs: self.stream(seed),
            duration: SimTime::from_secs(self.span_s),
            retry: RetryPolicy {
                max_attempts: self.max_attempts,
                ..RetryPolicy::default()
            },
            hosts,
        })
    }

    /// Stratified arrivals carrying the default mix in exact
    /// proportions, in a seed-shuffled order.
    fn stream(&self, seed: u64) -> Vec<JobSpec> {
        let mix = JobMix::default_mix();
        let cycle: Vec<JobKind> = mix
            .entries
            .iter()
            .flat_map(|&(kind, weight)| std::iter::repeat_n(kind, weight as usize))
            .collect();
        let mut kinds: Vec<JobKind> = cycle.iter().copied().cycle().take(self.jobs).collect();
        let mut draw = Draw::new(seed, 1);
        for chunk in kinds.chunks_mut(cycle.len()) {
            for i in (1..chunk.len()).rev() {
                chunk.swap(i, draw.below(i + 1));
            }
        }
        let slot = self.span_s as f64 / self.jobs as f64;
        kinds
            .into_iter()
            .enumerate()
            .map(|(id, kind)| JobSpec {
                id,
                submit: SimTime::from_secs_f64((id as f64 + draw.unit()) * slot),
                kind,
            })
            .collect()
    }

    fn crash_schedule(&self, c: &Crashes, grid: &GridConfig, hosts: usize) -> FaultSpec {
        let mut draw = Draw::new(MACHINE_SEED, 2);
        let mut order: Vec<usize> = (0..hosts).collect();
        let warmup = grid.warmup.as_secs_f64();
        let back = grid.warmup + SimTime::from_secs(self.span_s + c.outage_s);
        let mut spec = FaultSpec::none();
        for i in 0..c.warmup.min(hosts) {
            order.swap(i, i + draw.below(hosts - i));
            // Mid-warm-up, so the sensors have seen the host die before
            // the first agent asks.
            let at = SimTime::from_secs_f64(warmup * (0.25 + 0.5 * draw.unit()));
            spec.host_faults.push(HostFault {
                host: HostId(order[i]),
                at,
                recover: (i >= c.permanent).then_some(back),
            });
        }
        for i in c.warmup.min(hosts)..(c.warmup + c.mid_stream).min(hosts) {
            order.swap(i, i + draw.below(hosts - i));
            let frac = 0.3 + 0.4 * draw.unit();
            let at = grid.warmup + SimTime::from_secs_f64(self.span_s as f64 * frac);
            spec.host_faults.push(HostFault {
                host: HostId(order[i]),
                at,
                recover: Some(at + SimTime::from_secs(c.outage_s)),
            });
        }
        spec
    }
}

/// One regime run's outcome.
pub struct RegimeRun {
    pub regime: SchedRegime,
    pub wall_s: f64,
    pub records: Vec<JobRecord>,
}

/// Run one regime over the inputs, timing the public call.
pub fn run_regime(
    inputs: &Inputs,
    regime: SchedRegime,
    sink: &mut dyn EventSink,
) -> Result<RegimeRun, GridError> {
    let t = std::time::Instant::now();
    let out = run_regime_jobs_with_sink(
        &inputs.grid,
        regime,
        &inputs.jobs,
        inputs.duration,
        inputs.retry,
        sink,
    )?;
    Ok(RegimeRun {
        regime,
        wall_s: t.elapsed().as_secs_f64(),
        records: out.records,
    })
}
