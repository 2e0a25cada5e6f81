//! Deterministic metrics registry: counters, gauges and fixed-boundary
//! histograms.
//!
//! Determinism is the point. Prometheus client libraries lean on
//! wall-clock timestamps and hash-map iteration; here both are banned.
//! Families and series live in [`BTreeMap`]s keyed by name and by a
//! canonical (sorted) label rendering, so two runs of the same seeded
//! scenario produce byte-identical expositions — which is what lets CI
//! diff two snapshots as a regression gate.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Nearest-rank percentile over raw samples.
///
/// `p` is in percent and is clamped to `[0, 100]`; NaN samples are
/// dropped before ranking; an empty (or empty-after-filter) slice
/// yields `0.0`, never NaN. This is the one sample-percentile
/// implementation in the workspace — `apples_grid::metrics` re-exports
/// it, and [`Histogram::quantile`] is its bucketed counterpart.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted: Vec<f64> = samples.iter().copied().filter(|x| !x.is_nan()).collect();
    if sorted.is_empty() {
        return 0.0;
    }
    sorted.sort_by(|a, b| a.total_cmp(b));
    let p = p.clamp(0.0, 100.0);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A fixed-boundary histogram with exact bucket counts.
///
/// Boundaries are inclusive upper bounds (`le`), strictly increasing;
/// everything above the last boundary lands in the implicit `+Inf`
/// bucket. Quantiles interpolate linearly inside the winning bucket
/// (the Prometheus `histogram_quantile` rule) and are clamped to the
/// observed `[min, max]`, so they are exact at the resolution of the
/// bucket grid and never extrapolate.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    boundaries: Vec<f64>,
    counts: Vec<u64>,
    sum: f64,
    count: u64,
    min: f64,
    max: f64,
    /// NaN observations dropped (NaN belongs to no bucket).
    pub nan_dropped: u64,
}

impl Histogram {
    /// Build a histogram from explicit upper bounds. Non-finite bounds
    /// are dropped and the rest sorted and deduplicated, so the result
    /// is always well-formed.
    pub fn with_boundaries(mut boundaries: Vec<f64>) -> Histogram {
        boundaries.retain(|b| b.is_finite());
        boundaries.sort_by(|a, b| a.total_cmp(b));
        boundaries.dedup();
        let buckets = boundaries.len() + 1;
        Histogram {
            boundaries,
            counts: vec![0; buckets],
            sum: 0.0,
            count: 0,
            min: 0.0,
            max: 0.0,
            nan_dropped: 0,
        }
    }

    /// Log-spaced boundaries from `lo` to at least `hi` with
    /// `per_decade` buckets per factor of ten, preceded by an explicit
    /// zero boundary. The workhorse grid for simulated durations, which
    /// span micro-seconds to days.
    ///
    /// The zero boundary gives exactly-zero observations (instant
    /// events: cache hits, zero-wait dispatches) their own bucket
    /// instead of collapsing them into `(-inf, lo]` with every sub-`lo`
    /// duration — without it, quantiles of fast-event distributions
    /// interpolate across a bucket whose population is mostly zeros and
    /// clamp to the floor.
    pub fn log_spaced(lo: f64, hi: f64, per_decade: usize) -> Histogram {
        let lo = if lo.is_finite() && lo > 0.0 { lo } else { 1e-6 };
        let hi = if hi.is_finite() && hi > lo {
            hi
        } else {
            lo * 1e6
        };
        let per_decade = per_decade.max(1);
        let mut bounds = vec![0.0];
        let mut i = 0u32;
        loop {
            let b = lo * 10f64.powf(f64::from(i) / per_decade as f64);
            bounds.push(b);
            if b >= hi || bounds.len() > 512 {
                break;
            }
            i += 1;
        }
        Histogram::with_boundaries(bounds)
    }

    /// Record one observation. NaN is counted in
    /// [`Histogram::nan_dropped`] and otherwise ignored.
    pub fn observe(&mut self, v: f64) {
        if v.is_nan() {
            self.nan_dropped += 1;
            return;
        }
        let idx = self
            .boundaries
            .iter()
            .position(|b| v <= *b)
            .unwrap_or(self.boundaries.len());
        self.counts[idx] += 1;
        self.sum += v;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            if v.total_cmp(&self.min).is_lt() {
                self.min = v;
            }
            if v.total_cmp(&self.max).is_gt() {
                self.max = v;
            }
        }
        self.count += 1;
    }

    /// Total observations (NaN excluded).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest observation, `0.0` when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation, `0.0` when empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Upper bounds of the finite buckets.
    pub fn boundaries(&self) -> &[f64] {
        &self.boundaries
    }

    /// Per-bucket counts; the final entry is the `+Inf` bucket.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Quantile `q` in `[0, 1]` (clamped), linearly interpolated within
    /// the winning bucket and clamped to the observed range. Empty
    /// histograms yield `0.0`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        if q.total_cmp(&0.0).is_eq() {
            return self.min;
        }
        let rank = (q * self.count as f64).max(1.0);
        let mut cum_prev = 0u64;
        for (i, &n) in self.counts.iter().enumerate() {
            let cum = cum_prev + n;
            if (cum as f64).total_cmp(&rank).is_ge() && n > 0 {
                // The +Inf bucket has no upper bound to interpolate
                // toward; the observed max is the honest answer.
                let Some(hi) = self.boundaries.get(i).copied() else {
                    return self.max;
                };
                let frac = (rank - cum_prev as f64) / n as f64;
                let lo = if i == 0 {
                    self.min.min(hi)
                } else {
                    self.boundaries[i - 1]
                };
                let v = lo + frac * (hi - lo);
                return v.clamp(self.min, self.max);
            }
            cum_prev = cum;
        }
        self.max
    }

    /// Median from buckets.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th percentile from buckets.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th percentile from buckets.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

/// What a metric family holds.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Counter(f64),
    Gauge(f64),
    Hist(Histogram),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Family {
    kind: Kind,
    help: String,
    /// Default boundaries for new histogram series of this family.
    boundaries: Vec<f64>,
    /// Canonical label rendering → series value.
    series: BTreeMap<String, Value>,
}

/// Render labels canonically: sorted by key, `{k="v",…}`, empty string
/// for no labels. One rendering per label set means series identity is
/// deterministic.
fn label_key(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut pairs: Vec<(&str, &str)> = labels.to_vec();
    pairs.sort();
    let mut out = String::from("{");
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{k}=\"{}\"",
            v.replace('\\', "\\\\").replace('"', "\\\"")
        );
    }
    out.push('}');
    out
}

/// The registry: named metric families, each holding labeled series.
///
/// All mutation goes through value-type-specific methods; a name
/// registered as one kind silently ignores writes of another kind
/// rather than panicking (the registry is observability plumbing — it
/// must never take the simulation down).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    families: BTreeMap<String, Family>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn family(&mut self, name: &str, kind: Kind, help: &str, boundaries: &[f64]) {
        self.families
            .entry(name.to_string())
            .or_insert_with(|| Family {
                kind,
                help: help.to_string(),
                boundaries: boundaries.to_vec(),
                series: BTreeMap::new(),
            });
    }

    /// Apply `f` to the family `name` when it is of `kind`,
    /// auto-registering it first when it is new (undescribed histograms
    /// get log-spaced duration buckets, 1 ms–10 ks). Writes to an existing
    /// family cost one lookup and copy nothing.
    fn update(&mut self, name: &str, kind: Kind, f: impl FnOnce(&mut Family)) {
        if let Some(family) = self.families.get_mut(name) {
            if family.kind == kind {
                f(family);
            }
            return;
        }
        let boundaries = match kind {
            Kind::Histogram => Histogram::log_spaced(1e-3, 1e4, 3).boundaries().to_vec(),
            Kind::Counter | Kind::Gauge => Vec::new(),
        };
        let mut family = Family {
            kind,
            help: String::new(),
            boundaries,
            series: BTreeMap::new(),
        };
        f(&mut family);
        self.families.insert(name.to_string(), family);
    }

    /// Pre-register a counter family with help text.
    pub fn describe_counter(&mut self, name: &str, help: &str) {
        self.family(name, Kind::Counter, help, &[]);
    }

    /// Pre-register a gauge family with help text.
    pub fn describe_gauge(&mut self, name: &str, help: &str) {
        self.family(name, Kind::Gauge, help, &[]);
    }

    /// Pre-register a histogram family with help text and bucket
    /// boundaries shared by every series of the family.
    pub fn describe_histogram(&mut self, name: &str, help: &str, boundaries: &[f64]) {
        self.family(name, Kind::Histogram, help, boundaries);
    }

    /// Add `by` to a counter series (auto-registered on first touch).
    /// Negative and non-finite increments are ignored — counters only
    /// go up.
    pub fn inc(&mut self, name: &str, labels: &[(&str, &str)], by: f64) {
        if !by.is_finite() || by.total_cmp(&0.0).is_lt() {
            return;
        }
        let key = label_key(labels);
        self.update(name, Kind::Counter, |fam| {
            if let Value::Counter(v) = fam.series.entry(key).or_insert(Value::Counter(0.0)) {
                *v += by;
            }
        });
    }

    /// Set a gauge series to `v` (auto-registered on first touch).
    pub fn set(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        let key = label_key(labels);
        self.update(name, Kind::Gauge, |fam| {
            fam.series.insert(key, Value::Gauge(v));
        });
    }

    /// Add `delta` (may be negative) to a gauge series.
    pub fn add(&mut self, name: &str, labels: &[(&str, &str)], delta: f64) {
        let key = label_key(labels);
        self.update(name, Kind::Gauge, |fam| {
            if let Value::Gauge(v) = fam.series.entry(key).or_insert(Value::Gauge(0.0)) {
                *v += delta;
            }
        });
    }

    /// Record an observation into a histogram series. Undescribed
    /// families get default log-spaced duration buckets (1 ms–10 ks).
    pub fn observe(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        let key = label_key(labels);
        self.update(name, Kind::Histogram, |fam| {
            let Family {
                boundaries, series, ..
            } = fam;
            let new = || Value::Hist(Histogram::with_boundaries(boundaries.clone()));
            if let Value::Hist(h) = series.entry(key).or_insert_with(new) {
                h.observe(v);
            }
        });
    }

    /// Current value of a counter series, if it exists.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        match self.families.get(name)?.series.get(&label_key(labels))? {
            Value::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Current value of a gauge series, if it exists.
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        match self.families.get(name)?.series.get(&label_key(labels))? {
            Value::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// A histogram series, if it exists.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Histogram> {
        match self.families.get(name)?.series.get(&label_key(labels))? {
            Value::Hist(h) => Some(h),
            _ => None,
        }
    }

    /// Number of registered families.
    pub fn len(&self) -> usize {
        self.families.len()
    }

    /// Whether no family is registered.
    pub fn is_empty(&self) -> bool {
        self.families.is_empty()
    }

    /// Render the registry in the Prometheus text exposition format:
    /// `# HELP` / `# TYPE` headers, one line per series, histogram
    /// series expanded into cumulative `_bucket{le=…}` plus `_sum` and
    /// `_count`. Output is byte-deterministic: families alphabetical,
    /// series in canonical label order, floats in shortest round-trip
    /// form, no timestamps.
    pub fn expose(&self) -> String {
        let mut out = String::new();
        for (name, fam) in &self.families {
            if !fam.help.is_empty() {
                let _ = writeln!(out, "# HELP {name} {}", fam.help);
            }
            let _ = writeln!(out, "# TYPE {name} {}", fam.kind.as_str());
            for (labels, value) in &fam.series {
                match value {
                    Value::Counter(v) | Value::Gauge(v) => {
                        let _ = writeln!(out, "{name}{labels} {}", fmt_value(*v));
                    }
                    Value::Hist(h) => {
                        let le_labels = |le: &str| -> String {
                            if labels.is_empty() {
                                format!("{{le=\"{le}\"}}")
                            } else {
                                format!("{},le=\"{le}\"}}", &labels[..labels.len() - 1])
                            }
                        };
                        let mut cum = 0u64;
                        for (i, &n) in h.counts().iter().enumerate() {
                            cum += n;
                            let le = match h.boundaries().get(i) {
                                Some(b) => fmt_value(*b),
                                None => "+Inf".to_string(),
                            };
                            let _ = writeln!(out, "{name}_bucket{} {cum}", le_labels(&le));
                        }
                        let _ = writeln!(out, "{name}_sum{labels} {}", fmt_value(h.sum()));
                        let _ = writeln!(out, "{name}_count{labels} {}", h.count());
                    }
                }
            }
        }
        out
    }
}

/// Shortest round-trip float rendering; integers drop the fraction the
/// way Rust's `{}` does (`3` not `3.0`), NaN/inf spelled Prometheus
/// style.
fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v.is_sign_positive() {
            "+Inf".to_string()
        } else {
            "-Inf".to_string()
        }
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_edge_cases() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[f64::NAN, f64::NAN], 50.0), 0.0);
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, -10.0), 1.0); // clamped to p0
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(percentile(&xs, 250.0), 4.0); // clamped to p100
        assert_eq!(percentile(&xs, 50.0), 2.0);
        assert!(!percentile(&[f64::NAN], 99.0).is_nan());
    }

    #[test]
    fn histogram_counts_and_quantiles() {
        let mut h = Histogram::with_boundaries(vec![1.0, 10.0, 100.0]);
        for v in [0.5, 0.7, 5.0, 50.0, 500.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.counts(), &[2, 1, 1, 1]);
        assert!((h.sum() - 556.2).abs() < 1e-9);
        assert_eq!(h.min(), 0.5);
        assert_eq!(h.max(), 500.0);
        // p50 rank 2.5 lands in bucket (1,10]; interpolation stays
        // within the bucket bounds.
        let p50 = h.p50();
        assert!((1.0..=10.0).contains(&p50), "p50={p50}");
        // p99 rank ~4.95 lands in the +Inf bucket → max observed.
        assert_eq!(h.p99(), 500.0);
        assert_eq!(h.quantile(0.0), 0.5);
    }

    #[test]
    fn histogram_nan_and_empty() {
        let mut h = Histogram::with_boundaries(vec![1.0]);
        assert_eq!(h.quantile(0.5), 0.0);
        h.observe(f64::NAN);
        assert_eq!(h.count(), 0);
        assert_eq!(h.nan_dropped, 1);
        assert_eq!(h.p95(), 0.0);
    }

    #[test]
    fn log_spaced_is_monotonic() {
        let h = Histogram::log_spaced(1e-3, 1e3, 3);
        let b = h.boundaries();
        assert!(b.len() > 10);
        assert!(b.windows(2).all(|w| w[0] < w[1]));
        assert!(*b.last().unwrap() >= 1e3);
    }

    #[test]
    fn log_spaced_zero_bucket_separates_instant_events() {
        let mut h = Histogram::log_spaced(1e-3, 1e3, 3);
        assert_eq!(h.boundaries()[0], 0.0, "first boundary must be zero");
        for _ in 0..90 {
            h.observe(0.0);
        }
        for _ in 0..10 {
            h.observe(5e-4);
        }
        // Zeros get their own bucket; sub-lo positives land in (0, lo].
        assert_eq!(h.counts()[0], 90);
        assert_eq!(h.counts()[1], 10);
        // Before the fix both populations shared (-inf, lo] and the
        // median of a mostly-instant distribution interpolated up
        // toward lo; with the zero boundary it is exactly 0.
        assert_eq!(h.p50(), 0.0);
        assert!(h.p95() > 0.0);
    }

    #[test]
    fn registry_roundtrip_and_exposition() {
        let mut r = Registry::new();
        r.describe_counter("jobs_total", "Jobs seen.");
        r.inc("jobs_total", &[("outcome", "completed")], 3.0);
        r.inc("jobs_total", &[("outcome", "failed")], 1.0);
        r.inc("jobs_total", &[("outcome", "completed")], -5.0); // ignored
        r.set("depth", &[], 4.0);
        r.add("depth", &[], -1.0);
        r.describe_histogram("lat", "Latency.", &[0.1, 1.0]);
        r.observe("lat", &[], 0.05);
        r.observe("lat", &[], 0.5);
        r.observe("lat", &[], 2.0);
        assert_eq!(
            r.counter_value("jobs_total", &[("outcome", "completed")]),
            Some(3.0)
        );
        assert_eq!(r.gauge_value("depth", &[]), Some(3.0));
        assert_eq!(r.histogram("lat", &[]).unwrap().count(), 3);
        let text = r.expose();
        assert!(text.contains("# TYPE jobs_total counter"));
        assert!(text.contains("jobs_total{outcome=\"completed\"} 3"));
        assert!(text.contains("# TYPE lat histogram"));
        assert!(text.contains("lat_bucket{le=\"0.1\"} 1"));
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("lat_count 3"));
        // Exposition is deterministic.
        assert_eq!(text, r.expose());
    }

    #[test]
    fn kind_conflicts_are_ignored_not_fatal() {
        let mut r = Registry::new();
        r.inc("m", &[], 1.0);
        r.set("m", &[], 9.0); // wrong kind: ignored
        r.observe("m", &[], 9.0); // wrong kind: ignored
        assert_eq!(r.counter_value("m", &[]), Some(1.0));
    }

    #[test]
    fn label_order_is_canonical() {
        let mut r = Registry::new();
        r.inc("m", &[("b", "2"), ("a", "1")], 1.0);
        r.inc("m", &[("a", "1"), ("b", "2")], 1.0);
        assert_eq!(r.counter_value("m", &[("a", "1"), ("b", "2")]), Some(2.0));
        assert!(r.expose().contains("m{a=\"1\",b=\"2\"} 2"));
    }
}
