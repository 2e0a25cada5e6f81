//! The Information Pool answers each availability query once per
//! decision: NWS forecasts cost O(1) in the history length, and a pool
//! memoizes its per-host and per-link answers. Neither may change a
//! single bit of any answer.

use apples::hat::jacobi2d_hat;
use apples::info::{ForecastSource, InfoPool};
use apples::user::UserSpec;
use metasim::testbed::{pcl_sdsc, TestbedConfig};
use metasim::{HostId, LinkId, SimTime, Topology};
use nws::forecast::standard_suite;
use nws::{AdaptiveSelector, ResourceKey, WeatherService, WeatherServiceConfig};

/// The selector's error decay (`nws::selector::ERROR_DECAY`).
const DECAY: f64 = 0.995;

/// splitmix64: a self-contained seeded stream for the test signal.
struct SplitMix(u64);

impl SplitMix {
    fn next_f64(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A reference selector that recomputes the `best_error` normaliser as
/// the full `Σ_{k<scored} DECAY^k` sum on every query.
struct Reference {
    members: Vec<Box<dyn nws::forecast::Forecaster>>,
    err: Vec<f64>,
    scored: Vec<u64>,
}

impl Reference {
    fn new() -> Self {
        let members = standard_suite();
        let n = members.len();
        Reference {
            members,
            err: vec![0.0; n],
            scored: vec![0; n],
        }
    }

    fn update(&mut self, value: f64) {
        for (i, m) in self.members.iter().enumerate() {
            if let Some(p) = m.forecast() {
                self.err[i] = self.err[i] * DECAY + (p - value).abs();
                self.scored[i] += 1;
            }
        }
        for m in &mut self.members {
            m.update(value);
        }
    }

    fn best_error(&self) -> Option<f64> {
        let best = (0..self.members.len())
            .filter(|&i| self.scored[i] > 0)
            .min_by(|&a, &b| self.err[a].total_cmp(&self.err[b]))
            .or_else(|| (0..self.members.len()).find(|&i| self.members[i].forecast().is_some()))?;
        Some(if self.scored[best] == 0 {
            f64::INFINITY
        } else {
            let w: f64 = (0..self.scored[best]).map(|k| DECAY.powi(k as i32)).sum();
            self.err[best] / w
        })
    }

    fn reset(&mut self) {
        *self = Reference::new();
    }
}

#[test]
fn best_error_is_bit_equal_to_the_reference_sum() {
    let mut rng = SplitMix(1996);
    let mut selector = AdaptiveSelector::new();
    let mut reference = Reference::new();
    let mut level = 0.5_f64;
    let mut compared = 0;
    for step in 0..6_000 {
        // A regime-switching signal so the winning member changes:
        // random walk, alternating noise and level jumps.
        let u = rng.next_f64();
        level = match (step / 700) % 3 {
            0 => (level + (u - 0.5) * 0.1).clamp(0.0, 1.0),
            1 => {
                if step % 2 == 0 {
                    0.3 + 0.1 * u
                } else {
                    0.7 - 0.1 * u
                }
            }
            _ => {
                if u < 0.02 {
                    rng.next_f64()
                } else {
                    level
                }
            }
        };
        if step == 3_500 {
            selector.reset();
            reference.reset();
            assert_eq!(selector.best_error(), None);
            assert_eq!(reference.best_error(), None);
        }
        selector.update(level);
        reference.update(level);
        let got = selector.best_error().map(f64::to_bits);
        let want = reference.best_error().map(f64::to_bits);
        assert_eq!(got, want, "best_error diverged at update {step}");
        compared += 1;
    }
    assert_eq!(compared, 6_000);
}

const SOURCES: [ForecastSource; 4] = [
    ForecastSource::Nws,
    ForecastSource::LastValue,
    ForecastSource::Oracle,
    ForecastSource::StaticNominal,
];

fn setup() -> (Topology, WeatherService) {
    let tb = pcl_sdsc(&TestbedConfig::default()).expect("testbed");
    let mut ws = WeatherService::for_topology(&tb.topo, WeatherServiceConfig::default());
    ws.advance(&tb.topo, SimTime::from_secs(1_800));
    (tb.topo, ws)
}

/// The pool's settings that availability answers depend on.
#[derive(Clone, Copy)]
struct Settings {
    source: ForecastSource,
    now: SimTime,
    oracle_window: SimTime,
    nws_horizon: Option<SimTime>,
}

fn apply(pool: &mut InfoPool<'_>, s: Settings) {
    pool.source = s.source;
    pool.now = s.now;
    pool.oracle_window = s.oracle_window;
    pool.nws_horizon = s.nws_horizon;
}

/// Every host's and link's availability as bit patterns.
fn answers(pool: &InfoPool<'_>, topo: &Topology) -> Vec<u64> {
    let cpu = (0..topo.hosts().len()).map(|h| pool.cpu_availability(HostId(h)));
    let link = (0..topo.links().len()).map(|l| pool.link_availability(LinkId(l)));
    cpu.chain(link).map(f64::to_bits).collect()
}

/// Answers of a pool that has never been queried.
fn fresh_answers(topo: &Topology, ws: &WeatherService, s: Settings) -> Vec<u64> {
    let hat = jacobi2d_hat(600, 10);
    let user = UserSpec::default();
    let mut pool = InfoPool::with_nws(topo, ws, &hat, &user, s.now);
    apply(&mut pool, s);
    answers(&pool, topo)
}

/// Answers computed straight from the sources, bypassing the pool.
fn source_answers(topo: &Topology, ws: &WeatherService, s: Settings) -> Vec<u64> {
    let keys = (0..topo.hosts().len())
        .map(|h| ResourceKey::Cpu(HostId(h)))
        .chain((0..topo.links().len()).map(|l| ResourceKey::Link(LinkId(l))));
    keys.map(|key| {
        let v = match s.source {
            ForecastSource::StaticNominal => 1.0,
            ForecastSource::LastValue => ws.current(key).unwrap_or(1.0).clamp(0.0, 1.0),
            ForecastSource::Nws => match s.nws_horizon {
                Some(h) => ws.forecast_mean_over(key, h).map(|f| f.value),
                None => ws.forecast(key).map(|f| f.value),
            }
            .unwrap_or(1.0),
            ForecastSource::Oracle => {
                let (from, to) = (s.now, s.now + s.oracle_window);
                match key {
                    ResourceKey::Cpu(h) => topo.host(h).unwrap().availability().mean(from, to),
                    ResourceKey::Link(l) => topo.link(l).unwrap().availability().mean(from, to),
                }
            }
        };
        v.to_bits()
    })
    .collect()
}

fn settings(source: ForecastSource) -> Settings {
    Settings {
        source,
        now: SimTime::from_secs(1_800),
        oracle_window: SimTime::from_secs(600),
        nws_horizon: None,
    }
}

#[test]
fn memoized_answers_equal_a_fresh_pool_under_every_source() {
    let (topo, ws) = setup();
    let hat = jacobi2d_hat(600, 10);
    let user = UserSpec::default();
    for source in SOURCES {
        for horizon in [None, Some(SimTime::from_secs(900))] {
            let s = Settings {
                nws_horizon: horizon,
                ..settings(source)
            };
            let mut pool = InfoPool::with_nws(&topo, &ws, &hat, &user, s.now);
            apply(&mut pool, s);
            let first = answers(&pool, &topo);
            let memoized = answers(&pool, &topo);
            assert_eq!(
                first, memoized,
                "{source:?}/{horizon:?}: memo changed an answer"
            );
            assert_eq!(
                memoized,
                fresh_answers(&topo, &ws, s),
                "{source:?}/{horizon:?}"
            );
            assert_eq!(
                memoized,
                source_answers(&topo, &ws, s),
                "{source:?}/{horizon:?}"
            );
        }
    }
}

#[test]
fn memo_follows_mutated_pool_settings() {
    let (topo, ws) = setup();
    let hat = jacobi2d_hat(600, 10);
    let user = UserSpec::default();
    let mut s = settings(ForecastSource::Nws);
    let mut pool = InfoPool::with_nws(&topo, &ws, &hat, &user, s.now);
    // Each step changes one input the memo is keyed on, queries, and
    // checks the pool against a never-queried one with the same inputs.
    let steps: [&dyn Fn(&mut Settings); 9] = [
        &|s| s.nws_horizon = Some(SimTime::from_secs(3_600)),
        &|s| s.nws_horizon = Some(SimTime::from_secs(60)),
        &|s| s.source = ForecastSource::LastValue,
        &|s| s.source = ForecastSource::Oracle,
        &|s| s.oracle_window = SimTime::from_secs(30),
        &|s| s.now = SimTime::from_secs(2_400),
        &|s| s.source = ForecastSource::StaticNominal,
        &|s| s.source = ForecastSource::Nws,
        &|s| s.nws_horizon = None,
    ];
    assert_eq!(answers(&pool, &topo), fresh_answers(&topo, &ws, s));
    let mut distinct = std::collections::BTreeSet::new();
    for (i, step) in steps.iter().enumerate() {
        step(&mut s);
        apply(&mut pool, s);
        let got = answers(&pool, &topo);
        assert_eq!(got, fresh_answers(&topo, &ws, s), "after mutation {i}");
        assert_eq!(got, source_answers(&topo, &ws, s), "after mutation {i}");
        distinct.insert(got);
    }
    // The mutations really did change the answers, so a stale memo
    // would have been caught.
    assert!(
        distinct.len() >= 6,
        "only {} distinct answer sets",
        distinct.len()
    );
}

#[test]
fn memo_follows_a_swapped_weather_service() {
    let (topo, ws) = setup();
    let mut later = WeatherService::for_topology(&topo, WeatherServiceConfig::default());
    later.advance(&topo, SimTime::from_secs(5_400));
    let hat = jacobi2d_hat(600, 10);
    let user = UserSpec::default();
    let s = settings(ForecastSource::Nws);
    let mut pool = InfoPool::with_nws(&topo, &ws, &hat, &user, s.now);
    let before = answers(&pool, &topo);
    pool.weather = Some(&later);
    let after = answers(&pool, &topo);
    assert_ne!(before, after);
    assert_eq!(after, fresh_answers(&topo, &later, s));
    pool.weather = None;
    assert!(answers(&pool, &topo)
        .iter()
        .all(|&b| b == 1.0_f64.to_bits()));
}
