//! The Information Pool.
//!
//! §4.1: "Application-specific, system-specific, and dynamic information
//! used by these subsystems constitute an Information Pool which all
//! subsystems share." The pool bundles the four information sources —
//! NWS forecasts, the HAT, the models, and the User Specifications —
//! behind the queries the subsystems actually make: *what compute rate
//! will this host deliver?* and *what bandwidth will this route
//! deliver?* in the imminent scheduling window.
//!
//! The pool's [`ForecastSource`] selects where dynamic information comes
//! from. Besides the NWS there are three alternates used by the
//! prediction-quality ablation (§3.6: "a schedule is only as good as
//! the accuracy of its underlying predictions"):
//!
//! * [`ForecastSource::LastValue`] — raw most-recent measurement,
//! * [`ForecastSource::Oracle`] — the true mean availability over the
//!   upcoming window (an unrealizable upper bound on forecast quality),
//! * [`ForecastSource::StaticNominal`] — assume dedicated resources,
//!   which is exactly what the paper's static Strip and Blocked
//!   partitions assume.
//!
//! A pool answers each availability query once: the first
//! [`InfoPool::cpu_availability`] or [`InfoPool::link_availability`]
//! call for a resource asks the source, and later calls in the same
//! decision read a per-pool memo. The memo is keyed on every input the
//! answer reads — `topo`, `weather`, `source`, `now`, `oracle_window`
//! and `nws_horizon` — and empties itself when any of those public
//! fields has been reassigned since the last query.

use crate::hat::Hat;
use crate::user::UserSpec;
use metasim::{HostId, LinkId, SimError, SimTime, Topology};
use nws::{ResourceKey, WeatherService};
use std::cell::RefCell;

/// Where the pool's dynamic availability information comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForecastSource {
    /// NWS adaptive-selector forecasts (the AppLeS design point).
    Nws,
    /// The most recent raw measurement, no forecasting.
    LastValue,
    /// Cheat: the realized mean availability over the upcoming window.
    Oracle,
    /// Assume every resource is fully available (static scheduling).
    StaticNominal,
}

/// Shared information context for one scheduling decision.
///
/// Pools are built per decision and hold a memo of availability
/// answers behind a [`RefCell`], so a pool is not `Sync`.
pub struct InfoPool<'a> {
    /// The system being scheduled onto.
    pub topo: &'a Topology,
    /// The weather service (may be absent for static scheduling).
    pub weather: Option<&'a WeatherService>,
    /// The application template.
    pub hat: &'a Hat,
    /// The user specifications.
    pub user: &'a UserSpec,
    /// Source of dynamic information.
    pub source: ForecastSource,
    /// The decision time: forecasts are for the window starting here.
    pub now: SimTime,
    /// Window length the oracle averages the true availability over.
    pub oracle_window: SimTime,
    /// When set and the source is NWS, forecasts use
    /// [`WeatherService::forecast_mean_over`] with this horizon — the
    /// expected duration of the run being scheduled (§3.2: forecasts
    /// "for the time frame in which the application will be
    /// scheduled"). `None` uses one-step forecasts.
    pub nws_horizon: Option<SimTime>,
    memo: RefCell<AvailabilityMemo<'a>>,
}

/// Everything an availability answer depends on. Topology and weather
/// service are compared by identity: the pool borrows both shared, so
/// neither can change while it is alive.
#[derive(Clone, Copy)]
struct MemoKey<'a> {
    topo: &'a Topology,
    weather: Option<&'a WeatherService>,
    source: ForecastSource,
    now: SimTime,
    oracle_window: SimTime,
    nws_horizon: Option<SimTime>,
}

impl MemoKey<'_> {
    fn same(&self, other: &Self) -> bool {
        let same_weather = match (self.weather, other.weather) {
            (Some(a), Some(b)) => std::ptr::eq(a, b),
            (None, None) => true,
            _ => false,
        };
        std::ptr::eq(self.topo, other.topo)
            && same_weather
            && self.source == other.source
            && self.now == other.now
            && self.oracle_window == other.oracle_window
            && self.nws_horizon == other.nws_horizon
    }
}

/// Availability answers of one pool, indexed by host and link id and
/// filled on first query.
#[derive(Default)]
struct AvailabilityMemo<'a> {
    key: Option<MemoKey<'a>>,
    cpu: Vec<Option<f64>>,
    link: Vec<Option<f64>>,
}

impl<'a> AvailabilityMemo<'a> {
    /// The memo slot of `resource` under `key`, first emptying every
    /// slot if `key` differs from the one the memo was filled under.
    /// `None` for ids outside the topology, which are never memoized.
    fn slot(&mut self, key: MemoKey<'a>, resource: ResourceKey) -> Option<&mut Option<f64>> {
        if !self.key.is_some_and(|k| k.same(&key)) {
            self.key = Some(key);
            self.cpu.clear();
            self.link.clear();
        }
        let (table, id, len) = match resource {
            ResourceKey::Cpu(h) => (&mut self.cpu, h.0, key.topo.hosts().len()),
            ResourceKey::Link(l) => (&mut self.link, l.0, key.topo.links().len()),
        };
        if id >= len {
            return None;
        }
        if table.len() <= id {
            table.resize(id + 1, None);
        }
        Some(&mut table[id])
    }
}

impl<'a> InfoPool<'a> {
    /// A pool using NWS forecasts.
    pub fn with_nws(
        topo: &'a Topology,
        weather: &'a WeatherService,
        hat: &'a Hat,
        user: &'a UserSpec,
        now: SimTime,
    ) -> Self {
        InfoPool {
            topo,
            weather: Some(weather),
            hat,
            user,
            source: ForecastSource::Nws,
            now,
            oracle_window: SimTime::from_secs(600),
            nws_horizon: None,
            memo: RefCell::default(),
        }
    }

    /// A pool that assumes dedicated resources (static scheduling).
    pub fn static_nominal(
        topo: &'a Topology,
        hat: &'a Hat,
        user: &'a UserSpec,
        now: SimTime,
    ) -> Self {
        InfoPool {
            topo,
            weather: None,
            hat,
            user,
            source: ForecastSource::StaticNominal,
            now,
            oracle_window: SimTime::from_secs(600),
            nws_horizon: None,
            memo: RefCell::default(),
        }
    }

    /// This pool's information with a different application template.
    /// The new pool starts with an empty availability memo.
    pub fn with_hat<'b>(&self, hat: &'b Hat) -> InfoPool<'b>
    where
        'a: 'b,
    {
        InfoPool {
            topo: self.topo,
            weather: self.weather,
            hat,
            user: self.user,
            source: self.source,
            now: self.now,
            oracle_window: self.oracle_window,
            nws_horizon: self.nws_horizon,
            memo: RefCell::default(),
        }
    }

    /// Predicted CPU availability fraction of `host` for the imminent
    /// window. Falls back to `1.0` when no information is available.
    pub fn cpu_availability(&self, host: HostId) -> f64 {
        self.availability(ResourceKey::Cpu(host))
    }

    /// Predicted available-capacity fraction of a link.
    pub fn link_availability(&self, link: LinkId) -> f64 {
        self.availability(ResourceKey::Link(link))
    }

    /// The memoized answer for `resource`, asking the source on a miss.
    fn availability(&self, resource: ResourceKey) -> f64 {
        if self.source == ForecastSource::StaticNominal {
            return 1.0;
        }
        let key = MemoKey {
            topo: self.topo,
            weather: self.weather,
            source: self.source,
            now: self.now,
            oracle_window: self.oracle_window,
            nws_horizon: self.nws_horizon,
        };
        let mut memo = self.memo.borrow_mut();
        match memo.slot(key, resource) {
            Some(Some(v)) => *v,
            Some(slot) => *slot.insert(self.ask_source(resource)),
            None => self.ask_source(resource),
        }
    }

    fn ask_source(&self, resource: ResourceKey) -> f64 {
        match self.source {
            ForecastSource::StaticNominal => 1.0,
            ForecastSource::Oracle => {
                let (from, to) = (self.now, self.now + self.oracle_window);
                match resource {
                    ResourceKey::Cpu(h) => self
                        .topo
                        .host(h)
                        .map(|h| h.availability().mean(from, to))
                        .unwrap_or(1.0),
                    ResourceKey::Link(l) => self
                        .topo
                        .link(l)
                        .map(|l| l.availability().mean(from, to))
                        .unwrap_or(1.0),
                }
            }
            ForecastSource::LastValue => self
                .weather
                .and_then(|w| w.current(resource))
                .unwrap_or(1.0)
                .clamp(0.0, 1.0),
            ForecastSource::Nws => self
                .weather
                .and_then(|w| match self.nws_horizon {
                    Some(h) => w.forecast_mean_over_value(resource, h),
                    None => w.forecast_value(resource),
                })
                .unwrap_or(1.0),
        }
    }

    /// Predicted effective compute rate of `host` in Mflop/s: nominal
    /// speed scaled by the availability forecast. Memory effects are
    /// applied by the estimator, which knows the schedule's footprint.
    pub fn effective_mflops(&self, host: HostId) -> Result<f64, SimError> {
        let h = self.topo.host(host)?;
        Ok(h.spec.mflops * self.cpu_availability(host))
    }

    /// Predicted bottleneck bandwidth (MB/s) along the route between
    /// two hosts. Same-host routes report `f64::INFINITY`.
    pub fn route_bandwidth(&self, from: HostId, to: HostId) -> Result<f64, SimError> {
        let mut bw = f64::INFINITY;
        for l in self.topo.route_ref(from, to)?.iter() {
            let link = self.topo.link(l)?;
            let avail = self.link_availability(l);
            bw = bw.min(link.spec.bandwidth_mbps * avail);
        }
        Ok(bw)
    }

    /// Route latency between two hosts (static information).
    pub fn route_latency(&self, from: HostId, to: HostId) -> Result<SimTime, SimError> {
        self.topo.route_latency(from, to)
    }

    /// Predicted seconds to move `mb` between two hosts: latency plus
    /// payload over predicted bottleneck bandwidth.
    pub fn transfer_seconds(&self, from: HostId, to: HostId, mb: f64) -> Result<f64, SimError> {
        if from == to || mb <= 0.0 {
            return Ok(0.0);
        }
        let bw = self.route_bandwidth(from, to)?;
        if bw <= 0.0 {
            return Err(SimError::NeverCompletes { work: mb });
        }
        Ok(self.route_latency(from, to)?.as_secs_f64() + mb / bw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hat::jacobi2d_hat;
    use metasim::host::HostSpec;
    use metasim::load::LoadModel;
    use metasim::net::{LinkSpec, TopologyBuilder};
    use nws::WeatherServiceConfig;

    fn s(x: f64) -> SimTime {
        SimTime::from_secs_f64(x)
    }

    fn topo() -> Topology {
        let mut b = TopologyBuilder::new();
        let seg = b.add_segment(LinkSpec::shared(
            "seg",
            10.0,
            SimTime::from_millis(2),
            LoadModel::Constant(0.8),
        ));
        b.add_host(HostSpec::workstation(
            "a",
            100.0,
            64.0,
            seg,
            LoadModel::Constant(0.5),
        ));
        b.add_host(HostSpec::dedicated("b", 50.0, 64.0, seg));
        b.instantiate(s(10_000.0), 0).unwrap()
    }

    #[test]
    fn static_nominal_assumes_full_availability() {
        let topo = topo();
        let hat = jacobi2d_hat(100, 1);
        let user = UserSpec::default();
        let pool = InfoPool::static_nominal(&topo, &hat, &user, SimTime::ZERO);
        assert_eq!(pool.cpu_availability(HostId(0)), 1.0);
        assert_eq!(pool.effective_mflops(HostId(0)).unwrap(), 100.0);
        assert_eq!(pool.route_bandwidth(HostId(0), HostId(1)).unwrap(), 10.0);
    }

    #[test]
    fn nws_pool_reflects_measured_load() {
        let topo = topo();
        let hat = jacobi2d_hat(100, 1);
        let user = UserSpec::default();
        let mut ws = WeatherService::for_topology(&topo, WeatherServiceConfig::default());
        ws.advance(&topo, s(500.0));
        let pool = InfoPool::with_nws(&topo, &ws, &hat, &user, s(500.0));
        assert!((pool.cpu_availability(HostId(0)) - 0.5).abs() < 1e-9);
        assert!((pool.effective_mflops(HostId(0)).unwrap() - 50.0).abs() < 1e-6);
        // Link at 0.8 availability: 8 MB/s.
        assert!((pool.route_bandwidth(HostId(0), HostId(1)).unwrap() - 8.0).abs() < 1e-6);
    }

    #[test]
    fn oracle_reads_true_future_mean() {
        let mut b = TopologyBuilder::new();
        let seg = b.add_segment(LinkSpec::dedicated("seg", 10.0, SimTime::ZERO));
        b.add_host(HostSpec::workstation(
            "a",
            100.0,
            64.0,
            seg,
            LoadModel::Trace(vec![(s(0.0), 1.0), (s(100.0), 0.2)]),
        ));
        let topo = b.instantiate(s(10_000.0), 0).unwrap();
        let hat = jacobi2d_hat(100, 1);
        let user = UserSpec::default();
        let mut pool = InfoPool::static_nominal(&topo, &hat, &user, s(100.0));
        pool.source = ForecastSource::Oracle;
        pool.oracle_window = s(50.0);
        // Oracle window [100, 150] lies entirely in the 0.2 regime.
        assert!((pool.cpu_availability(HostId(0)) - 0.2).abs() < 1e-9);
    }

    #[test]
    fn last_value_uses_raw_measurement() {
        let topo = topo();
        let hat = jacobi2d_hat(100, 1);
        let user = UserSpec::default();
        let mut ws = WeatherService::for_topology(&topo, WeatherServiceConfig::default());
        ws.advance(&topo, s(100.0));
        let mut pool = InfoPool::with_nws(&topo, &ws, &hat, &user, s(100.0));
        pool.source = ForecastSource::LastValue;
        assert!((pool.cpu_availability(HostId(0)) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn horizon_forecast_discounts_transient_states() {
        // A host that flaps between 0.9 and 0.1 with ~2 min holding
        // times: the one-step forecast tracks the current state, but a
        // pool scheduling a very long run should see something close to
        // the long-run mean instead.
        let mut b = TopologyBuilder::new();
        let seg = b.add_segment(LinkSpec::dedicated("seg", 10.0, SimTime::ZERO));
        b.add_host(HostSpec::workstation(
            "flapper",
            100.0,
            64.0,
            seg,
            LoadModel::MarkovOnOff {
                idle_avail: 0.9,
                busy_avail: 0.1,
                mean_idle: SimTime::from_secs(120),
                mean_busy: SimTime::from_secs(120),
            },
        ));
        let topo = b.instantiate(s(1_000_000.0), 5).unwrap();
        let hat = jacobi2d_hat(100, 1);
        let user = UserSpec::default();
        let mut ws = WeatherService::for_topology(&topo, WeatherServiceConfig::default());
        ws.advance(&topo, s(50_000.0));

        let mut pool = InfoPool::with_nws(&topo, &ws, &hat, &user, s(50_000.0));
        let one_step = pool.cpu_availability(HostId(0));
        pool.nws_horizon = Some(s(100_000.0));
        let long = pool.cpu_availability(HostId(0));
        // The one-step forecast sits near one of the two levels; the
        // long-horizon forecast regresses toward the middle.
        assert!(
            (long - 0.5).abs() < (one_step - 0.5).abs() + 1e-12,
            "long {long} should be nearer the mean than one-step {one_step}"
        );
    }

    #[test]
    fn transfer_seconds_model() {
        let topo = topo();
        let hat = jacobi2d_hat(100, 1);
        let user = UserSpec::default();
        let pool = InfoPool::static_nominal(&topo, &hat, &user, SimTime::ZERO);
        // 20 MB at 10 MB/s + 2 ms latency.
        let t = pool.transfer_seconds(HostId(0), HostId(1), 20.0).unwrap();
        assert!((t - 2.002).abs() < 1e-6);
        // Local transfer is free.
        assert_eq!(
            pool.transfer_seconds(HostId(0), HostId(0), 20.0).unwrap(),
            0.0
        );
    }

    #[test]
    fn unknown_host_errors() {
        let topo = topo();
        let hat = jacobi2d_hat(100, 1);
        let user = UserSpec::default();
        let pool = InfoPool::static_nominal(&topo, &hat, &user, SimTime::ZERO);
        assert!(pool.effective_mflops(HostId(9)).is_err());
    }
}
