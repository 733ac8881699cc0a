//! Counters, gauges, and fixed-bucket histograms with stable snapshots.
//!
//! Counter and histogram names are interned into [`CounterId`] and
//! [`HistogramId`] handles whose values live in id-indexed slots: the
//! tracer's base slots, which its string-keyed calls update, and any
//! number of [`MetricsShard`]s, one per writer. A snapshot adds them up
//! and keys the result by name in `BTreeMap`s, so a [`MetricsReport`]
//! always serializes in the same order — a requirement for byte-identical
//! artifacts across runs.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::json::JsonValue;
use crate::tracer::Names;

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

    /// Add `other`'s observations: the same state as recording both
    /// histograms' observations into one. Both must have the same bounds,
    /// which holds for any two slots of one name (its bounds are fixed
    /// when it is interned).
    pub(crate) fn merge(&mut self, other: &Histogram) {
        debug_assert_eq!(self.bounds, other.bounds, "merging histograms with different bounds");
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
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

/// Handle of an interned counter name, from [`crate::Tracer::counter`].
/// Meaningful only on the tracer that interned it and on its shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterId(u32);

/// Handle of an interned histogram name, from [`crate::Tracer::histogram`].
/// Meaningful only on the tracer that interned it and on its shards. It
/// carries the name's bucket bounds, which are fixed when the name is
/// first interned, so every slot creates the same histogram.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramId {
    index: u32,
    bounds: &'static [u64],
}

/// Id-indexed metric values. A slot stays `None` until its first update,
/// so a snapshot lists exactly the names that were updated: a counter
/// added with delta 0 appears, an interned-only name does not.
#[derive(Debug, Clone, Default)]
pub(crate) struct Slots {
    counters: Vec<Option<u64>>,
    histograms: Vec<Option<Histogram>>,
}

impl Slots {
    fn count(&mut self, id: CounterId, delta: u64) {
        let i = id.0 as usize;
        if i >= self.counters.len() {
            self.counters.resize(i + 1, None);
        }
        *self.counters[i].get_or_insert(0) += delta;
    }

    /// The histogram in `id`'s slot, created empty if the slot is.
    fn histogram(&mut self, id: HistogramId) -> &mut Histogram {
        let i = id.index as usize;
        if i >= self.histograms.len() {
            self.histograms.resize(i + 1, None);
        }
        self.histograms[i].get_or_insert_with(|| Histogram::with_bounds(id.bounds))
    }

    fn observe(&mut self, id: HistogramId, value: u64, n: u64) {
        if n > 0 {
            self.histogram(id).observe_n(value, n);
        }
    }

    /// Add `other` slot by slot: counters add, histograms merge.
    fn merge(&mut self, other: &Slots) {
        for (i, &c) in other.counters.iter().enumerate() {
            if let Some(c) = c {
                self.count(CounterId(i as u32), c);
            }
        }
        if self.histograms.len() < other.histograms.len() {
            self.histograms.resize(other.histograms.len(), None);
        }
        for (mine, theirs) in self.histograms.iter_mut().zip(&other.histograms) {
            match (mine, theirs) {
                (Some(m), Some(t)) => m.merge(t),
                (m @ None, Some(t)) => *m = Some(t.clone()),
                (_, None) => {}
            }
        }
    }
}

/// Lock `m`. A poisoned lock only means a holder panicked; every update
/// is a single call, so the state is still consistent.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A writer's private metric slots, from [`crate::Tracer::shard`].
///
/// Updates take only the shard's own lock, so writers on different
/// threads do not contend. A writer that books several updates at once
/// (a memory walk books five or more) takes the lock once for all of them
/// through [`MetricsShard::writer`]. Every [`crate::Tracer::metrics`]
/// snapshot includes every live shard, and the tracer folds a shard into
/// its base slots once the writer has dropped it. A shard of a disabled
/// tracer records nothing. Clones share one set of slots.
#[derive(Debug, Clone, Default)]
pub struct MetricsShard {
    slots: Option<Arc<Mutex<Slots>>>,
}

impl MetricsShard {
    /// Lock the shard for a batch of updates, released when the returned
    /// writer drops. A snapshot sees either none or all of the batch.
    pub fn writer(&self) -> ShardWriter<'_> {
        ShardWriter { slots: self.slots.as_deref().map(lock) }
    }

    /// Add `delta` to counter `id`.
    pub fn count(&self, id: CounterId, delta: u64) {
        self.writer().count(id, delta);
    }

    /// Record `n` observations of `value` into histogram `id`, the same
    /// state as `n` single observations; `n == 0` records nothing.
    pub fn observe(&self, id: HistogramId, value: u64, n: u64) {
        self.writer().observe(id, value, n);
    }
}

/// A [`MetricsShard`] held locked for several updates; from
/// [`MetricsShard::writer`]. A disabled tracer's writer records nothing.
#[derive(Debug)]
pub struct ShardWriter<'a> {
    slots: Option<MutexGuard<'a, Slots>>,
}

impl ShardWriter<'_> {
    /// Add `delta` to counter `id`.
    pub fn count(&mut self, id: CounterId, delta: u64) {
        if let Some(s) = &mut self.slots {
            s.count(id, delta);
        }
    }

    /// Record `n` observations of `value` into histogram `id`, the same
    /// state as `n` single observations; `n == 0` records nothing.
    pub fn observe(&mut self, id: HistogramId, value: u64, n: u64) {
        if let Some(s) = &mut self.slots {
            s.observe(id, value, n);
        }
    }
}

/// The metrics behind a [`crate::Tracer`]: the name tables, the base slots
/// its string-keyed calls update, the gauges, and the live shards.
#[derive(Debug, Default)]
pub(crate) struct MetricsRegistry {
    counter_names: Names,
    histogram_names: Names,
    /// Bucket bounds per histogram id, fixed when the name is interned.
    histogram_bounds: Vec<&'static [u64]>,
    base: Slots,
    gauges: BTreeMap<String, f64>,
    shards: Vec<Arc<Mutex<Slots>>>,
}

impl MetricsRegistry {
    pub(crate) fn counter(&mut self, name: &str) -> CounterId {
        CounterId(self.counter_names.intern(name))
    }

    /// Intern histogram `name`; a new name takes `bounds`.
    pub(crate) fn histogram(&mut self, name: &str, bounds: &'static [u64]) -> HistogramId {
        let index = self.histogram_names.intern(name);
        if index as usize == self.histogram_bounds.len() {
            self.histogram_bounds.push(bounds);
        }
        HistogramId { index, bounds: self.histogram_bounds[index as usize] }
    }

    /// Add `delta` to counter `name` (created at zero on first use).
    pub(crate) fn count(&mut self, name: &str, delta: u64) {
        let id = self.counter(name);
        self.base.count(id, delta);
    }

    /// Record `value` into histogram `name` (created with
    /// [`DEFAULT_BOUNDS`] on first use).
    pub(crate) fn observe(&mut self, name: &str, value: u64) {
        let id = self.histogram(name, &DEFAULT_BOUNDS);
        self.base.observe(id, value, 1);
    }

    /// Make histogram `name` present, empty until observed, with `bounds`
    /// unless the name was interned before.
    pub(crate) fn register_histogram(&mut self, name: &str, bounds: &'static [u64]) {
        let id = self.histogram(name, bounds);
        self.base.histogram(id);
    }

    /// Set gauge `name` to `value`.
    pub(crate) fn gauge(&mut self, name: &str, value: f64) {
        if let Some(g) = self.gauges.get_mut(name) {
            *g = value;
        } else {
            self.gauges.insert(name.to_string(), value);
        }
    }

    /// Register gauge `name` at `initial` only if it does not exist yet.
    /// Lets a subsystem declare its full gauge set up front so snapshots
    /// are shape-stable from the first scrape.
    pub(crate) fn register_gauge(&mut self, name: &str, initial: f64) {
        self.gauges.entry(name.to_string()).or_insert(initial);
    }

    /// Add `delta` (possibly negative) to gauge `name`, creating it at
    /// zero first. Occupancy-style gauges (queue depth, in-flight jobs)
    /// are maintained with paired `+1`/`-1` deltas.
    pub(crate) fn gauge_add(&mut self, name: &str, delta: f64) {
        *self.gauges.entry(name.to_string()).or_insert(0.0) += delta;
    }

    /// Current value of gauge `name` (zero if never set).
    pub(crate) fn gauge_value(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(0.0)
    }

    /// A new shard, after folding the ones their writers have dropped.
    pub(crate) fn shard(&mut self) -> MetricsShard {
        self.fold();
        let slots = Arc::new(Mutex::new(Slots::default()));
        self.shards.push(Arc::clone(&slots));
        MetricsShard { slots: Some(slots) }
    }

    /// Move every shard the registry holds the last reference to into the
    /// base slots. Nothing can update such a shard any more, and its
    /// values move under the caller's lock, so no snapshot misses them.
    fn fold(&mut self) {
        let base = &mut self.base;
        self.shards.retain_mut(|s| match Arc::get_mut(s) {
            Some(sole) => {
                base.merge(sole.get_mut().unwrap_or_else(PoisonError::into_inner));
                false
            }
            None => true,
        });
    }

    /// Fold dropped shards, then freeze the base slots plus every live
    /// shard into a report.
    pub(crate) fn snapshot(&mut self) -> MetricsReport {
        self.fold();
        let mut all = self.base.clone();
        for s in &self.shards {
            all.merge(&lock(s));
        }
        MetricsReport {
            counters: (self.counter_names.list.iter().zip(all.counters))
                .filter_map(|(n, c)| Some((n.clone(), c?)))
                .collect(),
            gauges: self.gauges.clone(),
            histograms: (self.histogram_names.list.iter().zip(all.histograms))
                .filter_map(|(n, h)| Some((n.clone(), h?.snapshot())))
                .collect(),
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
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    use super::*;
    use crate::Tracer;

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
        let mut r = MetricsRegistry::default();
        r.count("reads", 2);
        r.count("reads", 3);
        r.gauge("occupancy", 0.5);
        r.observe("lat", 42);
        r.counter("nope");
        let rep = r.snapshot();
        assert_eq!(rep.counters["reads"], 5);
        assert!(!rep.counters.contains_key("nope"), "interned only");
        assert_eq!(rep.histograms["lat"].count, 1);
        let json = rep.to_json();
        assert!(json.contains("\"reads\":5"));
        assert!(json.contains("\"occupancy\":0.5"));
    }

    #[test]
    fn snapshot_json_is_deterministic() {
        let build = || {
            let mut r = MetricsRegistry::default();
            r.count("b", 1);
            r.count("a", 2);
            r.observe("h", 10);
            r.snapshot().to_json()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn gauge_registration_and_deltas() {
        let mut r = MetricsRegistry::default();
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
        let mut r = MetricsRegistry::default();
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
                let mut batched = Histogram::default();
                let mut single = Histogram::default();
                batched.observe(5);
                single.observe(5);
                batched.observe_n(v, n);
                for _ in 0..n {
                    single.observe(v);
                }
                assert_eq!(batched, single, "value {v} x {n}");
            }
        }
    }

    #[test]
    fn merge_equals_observing_into_one_histogram() {
        let values = [0, 7, 1_000, 1_001, 64_000, u64::MAX / 2 + 1, u64::MAX];
        for split in 0..=values.len() {
            let (mut left, mut right, mut one) =
                (Histogram::default(), Histogram::default(), Histogram::default());
            for (i, &v) in values.iter().enumerate() {
                one.observe(v);
                if i < split { left.observe(v) } else { right.observe(v) }
            }
            left.merge(&right);
            assert_eq!(left, one, "split at {split}");
        }
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

    #[test]
    fn shards_and_base_slots_give_identical_snapshots() {
        // (name, histogram?, value, n)
        let updates: [(&str, bool, u64, u64); 10] = [
            ("c.zero", false, 0, 1),
            ("c.a", false, 5, 1),
            ("h.a", true, 1_500, 3),
            ("c.a", false, 7, 1),
            ("h.none", true, 42, 0),
            ("h.b", true, u64::MAX, 2),
            ("c.b", false, 1, 1),
            ("h.a", true, 0, 1),
            ("h.b", true, u64::MAX / 2, 1),
            ("c.b", false, 2, 1),
        ];
        let base = Tracer::new();
        for &(name, hist, v, n) in &updates {
            if hist {
                (0..n).for_each(|_| base.observe(name, v));
            } else {
                base.count(name, v);
            }
        }
        // Every fourth update goes to the string-keyed base slots, the
        // rest round-robin to three shards.
        let sharded = Tracer::new();
        let shards = [sharded.shard(), sharded.shard(), sharded.shard()];
        for (i, &(name, hist, v, n)) in updates.iter().enumerate() {
            match (i % 4, hist) {
                (3, true) => (0..n).for_each(|_| sharded.observe(name, v)),
                (3, false) => sharded.count(name, v),
                (s, true) => shards[s].observe(sharded.histogram(name), v, n),
                (s, false) => shards[s].count(sharded.counter(name), v),
            }
        }
        for t in [&base, &sharded] {
            t.counter("c.interned-only");
            t.histogram("h.interned-only");
        }
        let [dropped, live @ ..] = shards;
        drop(dropped);
        let want = base.metrics();
        assert_eq!(sharded.metrics(), want);
        assert_eq!(sharded.metrics().to_json(), want.to_json());
        assert_eq!(want.counters["c.zero"], 0, "a zero delta still creates the counter");
        assert!(!want.counters.contains_key("c.interned-only"));
        assert!(!want.histograms.contains_key("h.interned-only"));
        assert!(!want.histograms.contains_key("h.none"), "n = 0 records nothing");
        drop(live);
        assert_eq!(sharded.metrics(), want, "after folding every shard");
    }

    #[test]
    fn live_snapshots_never_step_backwards() {
        const N: u64 = 20_000;
        let t = Tracer::new();
        let (c, h) = (t.counter("c"), t.histogram("h"));
        let start = Barrier::new(3);
        let finished = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    start.wait();
                    let mut shard = t.shard();
                    for i in 0..N {
                        // A fresh shard now and then, so folds happen
                        // while the reader scrapes.
                        if i % 1_000 == 0 {
                            shard = t.shard();
                        }
                        shard.count(c, 1);
                        shard.observe(h, i, 1);
                    }
                    drop(shard);
                    finished.fetch_add(1, Ordering::SeqCst);
                });
            }
            start.wait();
            let mut last = (0, 0);
            while finished.load(Ordering::SeqCst) < 2 {
                let m = t.metrics();
                let now = (
                    m.counters.get("c").copied().unwrap_or(0),
                    m.histograms.get("h").map_or(0, |h| h.count),
                );
                assert!(now.0 >= last.0 && now.1 >= last.1, "{now:?} after {last:?}");
                last = now;
            }
        });
        let m = t.metrics();
        assert_eq!(m.counters["c"], 2 * N);
        assert_eq!(m.histograms["h"].count, 2 * N);
        assert_eq!(m.histograms["h"].sum, N * (N - 1));
        assert_eq!(m.histograms["h"].max, N - 1);
    }

    #[test]
    fn dropped_shards_are_folded_not_kept() {
        let mut r = MetricsRegistry::default();
        let c = r.counter("c");
        let live = [r.shard(), r.shard()];
        for _ in 0..10_000 {
            r.shard().count(c, 1);
        }
        // Each `shard()` folded the one dropped before it.
        assert_eq!(r.shards.len(), live.len() + 1);
        live[0].count(c, 1);
        assert_eq!(r.snapshot().counters["c"], 10_001);
        assert_eq!(r.shards.len(), live.len());
    }
}
