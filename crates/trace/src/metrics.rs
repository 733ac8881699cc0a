//! Counters, gauges, and fixed-bucket histograms with stable snapshots.
//!
//! Everything is keyed by name in `BTreeMap`s, so a [`MetricsReport`]
//! always serializes in the same order — a requirement for byte-identical
//! artifacts across runs.

use std::collections::BTreeMap;

use crate::json::JsonValue;

/// Default histogram bucket boundaries: powers of four starting at 1 ns
/// (in ps). Covers 1 ns .. ~4 ms, the full range of simulated latencies
/// and backoff durations in this workspace.
pub const DEFAULT_BOUNDS: [u64; 12] = [
    1_000,
    4_000,
    16_000,
    64_000,
    256_000,
    1_024_000,
    4_096_000,
    16_384_000,
    65_536_000,
    262_144_000,
    1_048_576_000,
    4_194_304_000,
];

/// A fixed-bucket histogram of `u64` observations.
///
/// `counts` has one slot per bound plus a final overflow slot; an
/// observation lands in the first bucket whose bound is `>=` the value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::with_bounds(&DEFAULT_BOUNDS)
    }
}

impl Histogram {
    /// Build a histogram with the given ascending bucket bounds.
    pub fn with_bounds(bounds: &[u64]) -> Self {
        let mut b = bounds.to_vec();
        b.sort_unstable();
        b.dedup();
        let slots = b.len() + 1;
        Self { bounds: b, counts: vec![0; slots], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// Record one observation.
    pub fn observe(&mut self, value: u64) {
        self.observe_n(value, 1);
    }

    /// Record `n` observations of `value`; the same state as `n` calls to
    /// [`Self::observe`] (the sum saturates either way).
    pub fn observe_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = self.bounds.partition_point(|&b| b < value);
        self.counts[idx] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(value.saturating_mul(n));
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean observation; zero when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest observation (zero when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// A stable snapshot (bounds plus per-bucket counts).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self.counts.clone(),
            count: self.count,
            sum: self.sum,
            min: self.min(),
            max: self.max,
        }
    }
}

/// Frozen view of a [`Histogram`] for reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Ascending bucket upper bounds; the implicit last bucket is `+inf`.
    pub bounds: Vec<u64>,
    /// Per-bucket observation counts (`bounds.len() + 1` entries).
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Smallest observation (zero when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
}

impl HistogramSnapshot {
    /// JSON object for the metrics dump.
    pub fn to_json_value(&self) -> JsonValue {
        let mut bounds = JsonValue::array();
        for b in &self.bounds {
            bounds = bounds.push(*b);
        }
        let mut counts = JsonValue::array();
        for c in &self.counts {
            counts = counts.push(*c);
        }
        JsonValue::object()
            .set("count", self.count)
            .set("sum", self.sum)
            .set("min", self.min)
            .set("max", self.max)
            .set("bounds", bounds)
            .set("counts", counts)
    }
}

/// The mutable registry behind a [`crate::Tracer`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to counter `name` (created at zero on first use).
    pub fn count(&mut self, name: &str, delta: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += delta;
        } else {
            self.counters.insert(name.to_string(), delta);
        }
    }

    /// Set gauge `name` to `value`.
    pub fn gauge(&mut self, name: &str, value: f64) {
        if let Some(g) = self.gauges.get_mut(name) {
            *g = value;
        } else {
            self.gauges.insert(name.to_string(), value);
        }
    }

    /// Register gauge `name` at `initial` only if it does not exist yet.
    /// Lets a subsystem declare its full gauge set up front so snapshots
    /// are shape-stable from the first scrape.
    pub fn register_gauge(&mut self, name: &str, initial: f64) {
        self.gauges.entry(name.to_string()).or_insert(initial);
    }

    /// Add `delta` (possibly negative) to gauge `name`, creating it at
    /// zero first. Occupancy-style gauges (queue depth, in-flight jobs)
    /// are maintained with paired `+1`/`-1` deltas.
    pub fn gauge_add(&mut self, name: &str, delta: f64) {
        *self.gauges.entry(name.to_string()).or_insert(0.0) += delta;
    }

    /// Current value of gauge `name` (zero if never set).
    pub fn gauge_value(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(0.0)
    }

    /// Record `value` into histogram `name` (created with
    /// [`DEFAULT_BOUNDS`] on first use).
    pub fn observe(&mut self, name: &str, value: u64) {
        self.observe_n(name, value, 1);
    }

    /// Record `n` observations of `value` into histogram `name`. With
    /// `n == 0` nothing is recorded and no histogram is created.
    pub fn observe_n(&mut self, name: &str, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        if let Some(h) = self.histograms.get_mut(name) {
            h.observe_n(value, n);
        } else {
            let mut h = Histogram::default();
            h.observe_n(value, n);
            self.histograms.insert(name.to_string(), h);
        }
    }

    /// Create (or replace) histogram `name` with explicit bucket bounds.
    pub fn register_histogram(&mut self, name: &str, bounds: &[u64]) {
        self.histograms.insert(name.to_string(), Histogram::with_bounds(bounds));
    }

    /// Current value of a counter (zero if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Freeze the registry into a report.
    pub fn snapshot(&self) -> MetricsReport {
        MetricsReport {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            histograms: self.histograms.iter().map(|(k, v)| (k.clone(), v.snapshot())).collect(),
        }
    }
}

/// A frozen, ordered snapshot of every metric.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsReport {
    /// Monotonic counters, by name.
    pub counters: BTreeMap<String, u64>,
    /// Last-write gauges, by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histograms, by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsReport {
    /// The report as a [`JsonValue`] (stable field order).
    pub fn to_json_value(&self) -> JsonValue {
        let mut counters = JsonValue::object();
        for (k, v) in &self.counters {
            counters = counters.set(k, *v);
        }
        let mut gauges = JsonValue::object();
        for (k, v) in &self.gauges {
            gauges = gauges.set(k, *v);
        }
        let mut histograms = JsonValue::object();
        for (k, v) in &self.histograms {
            histograms = histograms.set(k, v.to_json_value());
        }
        JsonValue::object()
            .set("counters", counters)
            .set("gauges", gauges)
            .set("histograms", histograms)
    }

    /// Compact JSON rendering.
    pub fn to_json(&self) -> String {
        self.to_json_value().render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::with_bounds(&[10, 100]);
        h.observe(5);
        h.observe(10); // inclusive upper bound
        h.observe(50);
        h.observe(1_000); // overflow bucket
        let s = h.snapshot();
        assert_eq!(s.counts, vec![2, 1, 1]);
        assert_eq!(s.count, 4);
        assert_eq!(s.min, 5);
        assert_eq!(s.max, 1_000);
        assert!((h.mean() - 266.25).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_sane() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn registry_roundtrip() {
        let mut r = MetricsRegistry::new();
        r.count("reads", 2);
        r.count("reads", 3);
        r.gauge("occupancy", 0.5);
        r.observe("lat", 42);
        assert_eq!(r.counter("reads"), 5);
        assert_eq!(r.counter("nope"), 0);
        let rep = r.snapshot();
        assert_eq!(rep.counters["reads"], 5);
        assert_eq!(rep.histograms["lat"].count, 1);
        let json = rep.to_json();
        assert!(json.contains("\"reads\":5"));
        assert!(json.contains("\"occupancy\":0.5"));
    }

    #[test]
    fn snapshot_json_is_deterministic() {
        let build = || {
            let mut r = MetricsRegistry::new();
            r.count("b", 1);
            r.count("a", 2);
            r.observe("h", 10);
            r.snapshot().to_json()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn gauge_registration_and_deltas() {
        let mut r = MetricsRegistry::new();
        r.register_gauge("depth", 0.0);
        assert_eq!(r.gauge_value("depth"), 0.0);
        r.gauge_add("depth", 3.0);
        r.gauge_add("depth", -1.0);
        assert_eq!(r.gauge_value("depth"), 2.0);
        // register_gauge never clobbers a live value.
        r.register_gauge("depth", 99.0);
        assert_eq!(r.gauge_value("depth"), 2.0);
        assert_eq!(r.gauge_value("never-touched"), 0.0);
        assert!(r.snapshot().to_json().contains("\"depth\":2"));
    }

    #[test]
    fn register_histogram_sets_bounds() {
        let mut r = MetricsRegistry::new();
        r.register_histogram("lat", &[1, 2, 3]);
        r.observe("lat", 2);
        assert_eq!(r.snapshot().histograms["lat"].bounds, vec![1, 2, 3]);
    }

    #[test]
    fn every_default_bound_is_an_inclusive_upper_edge() {
        // A value exactly on a bound must land in that bound's bucket,
        // and bound+1 must land in the next one.
        for (i, &bound) in DEFAULT_BOUNDS.iter().enumerate() {
            let mut h = Histogram::default();
            h.observe(bound);
            h.observe(bound + 1);
            let s = h.snapshot();
            assert_eq!(s.counts[i], 1, "bound {bound} not inclusive");
            assert_eq!(s.counts[i + 1], 1, "bound {bound}+1 in wrong bucket");
            assert_eq!(s.count, 2);
        }
    }

    #[test]
    fn overflow_bucket_catches_everything_past_the_last_bound() {
        let last = *DEFAULT_BOUNDS.last().unwrap();
        let mut h = Histogram::default();
        h.observe(last); // last real bucket
        h.observe(last + 1); // first overflow value
        h.observe(u64::MAX); // extreme overflow
        let s = h.snapshot();
        assert_eq!(s.counts.len(), DEFAULT_BOUNDS.len() + 1);
        assert_eq!(s.counts[DEFAULT_BOUNDS.len() - 1], 1);
        assert_eq!(s.counts[DEFAULT_BOUNDS.len()], 2, "overflow bucket");
        assert_eq!(s.max, u64::MAX);
    }

    #[test]
    fn observed_sum_saturates_instead_of_wrapping() {
        let mut h = Histogram::with_bounds(&[10]);
        h.observe(u64::MAX);
        h.observe(u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn observe_n_equals_n_single_observations() {
        let on_bounds = DEFAULT_BOUNDS.iter().flat_map(|&b| [b - 1, b, b + 1]);
        let extremes = [0, 1, u64::MAX / 3, u64::MAX];
        let values: Vec<u64> = extremes.into_iter().chain(on_bounds).collect();
        for &v in &values {
            for n in [0u64, 1, 2, 7, 300] {
                let mut batched = MetricsRegistry::new();
                let mut single = MetricsRegistry::new();
                batched.observe("h", 5);
                single.observe("h", 5);
                batched.observe_n("h", v, n);
                for _ in 0..n {
                    single.observe("h", v);
                }
                assert_eq!(batched, single, "value {v} x {n}");
            }
        }
        // n == 0 records nothing, not even an empty histogram.
        let mut r = MetricsRegistry::new();
        r.observe_n("h", 42, 0);
        assert!(r.snapshot().histograms.is_empty());
    }

    #[test]
    fn observe_n_sum_saturates_like_repeated_observe() {
        let mut h = Histogram::with_bounds(&[10]);
        h.observe_n(u64::MAX / 2 + 1, 2);
        assert_eq!(h.sum(), u64::MAX);
        h.observe_n(u64::MAX, 3);
        assert_eq!((h.sum(), h.count()), (u64::MAX, 5));
    }

    #[test]
    fn zero_value_lands_in_the_first_bucket() {
        let mut h = Histogram::default();
        h.observe(0);
        let s = h.snapshot();
        assert_eq!(s.counts[0], 1);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 0);
    }

    #[test]
    fn snapshot_json_round_trips_bucket_structure() {
        let mut h = Histogram::with_bounds(&[10, 100]);
        h.observe(10);
        h.observe(1_000);
        let rendered = h.snapshot().to_json_value().render();
        let v = JsonValue::parse(&rendered).unwrap();
        let bounds: Vec<u64> =
            v.get("bounds").unwrap().as_array().unwrap().iter().map(|b| b.as_u64().unwrap()).collect();
        let counts: Vec<u64> =
            v.get("counts").unwrap().as_array().unwrap().iter().map(|c| c.as_u64().unwrap()).collect();
        assert_eq!(bounds, vec![10, 100]);
        assert_eq!(counts, vec![1, 0, 1]);
        assert_eq!(v.get("count").unwrap().as_u64(), Some(2));
    }
}
