//! The `Tracer` handle threaded through the simulator.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::chrome;
use crate::event::{ArgValue, EventKind, TraceEvent, TrackId};
use crate::metrics::{
    CounterId, HistogramId, MetricsRegistry, MetricsReport, MetricsShard, DEFAULT_BOUNDS,
};
use crate::Ps;

/// Hard ceiling on buffered events; beyond it events are counted as
/// dropped instead of growing without bound (the count is surfaced in
/// [`Tracer::dropped_events`] and the chrome export's metadata, never
/// silently).
const DEFAULT_MAX_EVENTS: usize = 4_000_000;

/// Tracks get ids `0..MAX_TRACKS`; the next id is [`TrackId::NONE`].
const MAX_TRACKS: usize = u16::MAX as usize;

/// An interning table: each distinct name gets the next id, in
/// registration order.
#[derive(Debug, Default)]
pub(crate) struct Names {
    pub(crate) list: Vec<String>,
    ids: BTreeMap<String, u32>,
}

impl Names {
    fn get(&self, name: &str) -> Option<u32> {
        self.ids.get(name).copied()
    }

    pub(crate) fn intern(&mut self, name: &str) -> u32 {
        if let Some(id) = self.get(name) {
            return id;
        }
        let id = self.list.len() as u32;
        self.list.push(name.to_string());
        self.ids.insert(name.to_string(), id);
        id
    }
}

#[derive(Debug, Default)]
struct Inner {
    tracks: Names,
    events: Vec<TraceEvent>,
    max_events: usize,
    dropped: u64,
    metrics: MetricsRegistry,
}

/// A cheap-to-clone tracing handle.
///
/// Clones share the same buffer, so one `Tracer` can be handed to the
/// offload engine, every `SimContext`, and the memory system, and all
/// events land on one timeline. The **disabled** tracer (the `Default`)
/// holds nothing: every emit call is a branch on a `None` and returns —
/// no allocation, no locking. Callers that must build a `String` for an
/// event name guard on [`Tracer::enabled`] first so disabled runs never
/// touch the heap.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Mutex<Inner>>>,
}

impl Tracer {
    /// An enabled tracer with an empty buffer.
    pub fn new() -> Self {
        Self::with_max_events(DEFAULT_MAX_EVENTS)
    }

    /// An enabled tracer that buffers at most `max_events` events.
    pub fn with_max_events(max_events: usize) -> Self {
        Self {
            inner: Some(Arc::new(Mutex::new(Inner {
                max_events: max_events.max(1),
                ..Inner::default()
            }))),
        }
    }

    /// The no-op tracer (same as `Default`).
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Whether events are being recorded.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn lock(&self) -> Option<MutexGuard<'_, Inner>> {
        // A poisoned lock only happens if a holder panicked; the buffer
        // itself is still consistent (all mutations are single calls), so
        // recover rather than propagate the panic.
        self.inner.as_ref().map(|m| m.lock().unwrap_or_else(|p| p.into_inner()))
    }

    /// Intern `name` as a track, returning its id. Repeated calls with
    /// the same name return the same id. Disabled tracers, and enabled
    /// ones that already hold 65,535 tracks, return [`TrackId::NONE`]
    /// without registering anything.
    pub fn track(&self, name: &str) -> TrackId {
        let Some(mut inner) = self.lock() else {
            return TrackId::NONE;
        };
        match inner.tracks.get(name) {
            Some(id) => TrackId(id as u16),
            None if inner.tracks.list.len() < MAX_TRACKS => {
                TrackId(inner.tracks.intern(name) as u16)
            }
            None => TrackId::NONE,
        }
    }

    /// Names of all registered tracks, in registration order.
    pub fn tracks(&self) -> Vec<String> {
        self.lock().map(|i| i.tracks.list.clone()).unwrap_or_default()
    }

    /// Buffer `ev`, or count it as dropped when it is on
    /// [`TrackId::NONE`] or the buffer is full.
    fn emit(&self, ev: TraceEvent) {
        let Some(mut inner) = self.lock() else {
            return;
        };
        if ev.track == TrackId::NONE || inner.events.len() >= inner.max_events {
            inner.dropped += 1;
            return;
        }
        inner.events.push(ev);
    }

    /// Record a span of `dur_ps` starting at `ts_ps` on `track`.
    pub fn complete(&self, track: TrackId, name: impl Into<Cow<'static, str>>, ts_ps: Ps, dur_ps: Ps) {
        if !self.enabled() {
            return;
        }
        self.emit(TraceEvent {
            track,
            name: name.into(),
            ts_ps,
            kind: EventKind::Complete { dur_ps },
            args: Vec::new(),
        });
    }

    /// [`Tracer::complete`] with key/value annotations.
    pub fn complete_args(
        &self,
        track: TrackId,
        name: impl Into<Cow<'static, str>>,
        ts_ps: Ps,
        dur_ps: Ps,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if !self.enabled() {
            return;
        }
        self.emit(TraceEvent {
            track,
            name: name.into(),
            ts_ps,
            kind: EventKind::Complete { dur_ps },
            args,
        });
    }

    /// Record a point event at `ts_ps` on `track`.
    pub fn instant(&self, track: TrackId, name: impl Into<Cow<'static, str>>, ts_ps: Ps) {
        if !self.enabled() {
            return;
        }
        self.emit(TraceEvent {
            track,
            name: name.into(),
            ts_ps,
            kind: EventKind::Instant,
            args: Vec::new(),
        });
    }

    /// [`Tracer::instant`] with key/value annotations.
    pub fn instant_args(
        &self,
        track: TrackId,
        name: impl Into<Cow<'static, str>>,
        ts_ps: Ps,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if !self.enabled() {
            return;
        }
        self.emit(TraceEvent { track, name: name.into(), ts_ps, kind: EventKind::Instant, args });
    }

    /// Intern `name` as a counter, returning the id that
    /// [`MetricsShard::count`] books under. The name appears in snapshots
    /// from its first update on. Disabled tracers return a placeholder
    /// that only their (no-op) shards are meant to receive.
    pub fn counter(&self, name: &str) -> CounterId {
        self.lock().map(|mut i| i.metrics.counter(name)).unwrap_or_default()
    }

    /// Intern `name` as a histogram, returning the id that
    /// [`MetricsShard::observe`] books under. A new name gets
    /// [`DEFAULT_BOUNDS`] unless [`Tracer::register_histogram`] named it
    /// first. Disabled tracers return a placeholder, as for
    /// [`Tracer::counter`].
    pub fn histogram(&self, name: &str) -> HistogramId {
        self.lock().map(|mut i| i.metrics.histogram(name, &DEFAULT_BOUNDS)).unwrap_or_default()
    }

    /// A writer's private metric slots (see [`MetricsShard`]): updates
    /// through it take only its own lock, and every [`Tracer::metrics`]
    /// snapshot includes it. The tracer folds each shard into its base
    /// slots once the writer drops it (checked here and in
    /// [`Tracer::metrics`]), so it holds only live shards. A disabled
    /// tracer returns a shard that records nothing.
    pub fn shard(&self) -> MetricsShard {
        self.lock().map(|mut i| i.metrics.shard()).unwrap_or_default()
    }

    /// Add `delta` to counter `name`.
    pub fn count(&self, name: &str, delta: u64) {
        if let Some(mut inner) = self.lock() {
            inner.metrics.count(name, delta);
        }
    }

    /// Set gauge `name`.
    pub fn gauge(&self, name: &str, value: f64) {
        if let Some(mut inner) = self.lock() {
            inner.metrics.gauge(name, value);
        }
    }

    /// Register gauge `name` at `initial` without overwriting an existing
    /// value, so a scrape endpoint reports the full gauge set from the
    /// first snapshot rather than only gauges that have been touched.
    pub fn register_gauge(&self, name: &str, initial: f64) {
        if let Some(mut inner) = self.lock() {
            inner.metrics.register_gauge(name, initial);
        }
    }

    /// Add `delta` to gauge `name` (registered at zero on first use).
    /// Deltas may be negative; used for live occupancy-style gauges such
    /// as queue depths and in-flight job counts.
    pub fn gauge_add(&self, name: &str, delta: f64) {
        if let Some(mut inner) = self.lock() {
            inner.metrics.gauge_add(name, delta);
        }
    }

    /// Current value of gauge `name` (zero if never set; always zero for
    /// a disabled tracer).
    pub fn gauge_value(&self, name: &str) -> f64 {
        self.lock().map(|i| i.metrics.gauge_value(name)).unwrap_or(0.0)
    }

    /// Record `value` into histogram `name`.
    pub fn observe(&self, name: &str, value: u64) {
        if let Some(mut inner) = self.lock() {
            inner.metrics.observe(name, value);
        }
    }

    /// Declare histogram `name` with explicit bucket bounds: it appears
    /// in snapshots from now on, empty until observed. A name's bounds are
    /// fixed when it is first interned, so this must come before any
    /// other use of the name for `bounds` to apply.
    pub fn register_histogram(&self, name: &str, bounds: &'static [u64]) {
        if let Some(mut inner) = self.lock() {
            inner.metrics.register_histogram(name, bounds);
        }
    }

    /// Snapshot of all metrics: the base slots plus every live shard
    /// (empty for a disabled tracer). Lock order: the tracer's lock, then
    /// each shard's in turn; writers only ever take their own shard's.
    pub fn metrics(&self) -> MetricsReport {
        self.lock().map(|mut i| i.metrics.snapshot()).unwrap_or_default()
    }

    /// A copy of the buffered events (empty for a disabled tracer).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.lock().map(|i| i.events.clone()).unwrap_or_default()
    }

    /// Number of buffered events.
    pub fn event_count(&self) -> usize {
        self.lock().map(|i| i.events.len()).unwrap_or(0)
    }

    /// Events refused because the buffer cap was reached.
    pub fn dropped_events(&self) -> u64 {
        self.lock().map(|i| i.dropped).unwrap_or(0)
    }

    /// Export the buffer in the Chrome trace-event format
    /// (`chrome://tracing` / Perfetto loadable). Empty-but-valid JSON for
    /// a disabled tracer.
    pub fn chrome_trace(&self) -> String {
        match self.lock() {
            Some(inner) => {
                chrome::chrome_trace_json(&inner.tracks.list, &inner.events, inner.dropped)
            }
            None => chrome::chrome_trace_json(&[], &[], 0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        let id = t.track("cpu");
        assert_eq!(id, TrackId::NONE);
        t.complete(id, "span", 0, 10);
        t.instant(id, "mark", 5);
        t.count("c", 1);
        t.observe("h", 1);
        assert_eq!(t.event_count(), 0);
        assert_eq!(t.metrics(), MetricsReport::default());
    }

    #[test]
    fn clones_share_one_buffer() {
        let t = Tracer::new();
        let t2 = t.clone();
        let track = t.track("cpu");
        t2.complete(track, "a", 0, 1);
        t.instant(track, "b", 2);
        assert_eq!(t.event_count(), 2);
        assert_eq!(t2.event_count(), 2);
        t2.count("n", 3);
        assert_eq!(t.metrics().counters["n"], 3);
    }

    #[test]
    fn track_interning_is_stable() {
        let t = Tracer::new();
        let a = t.track("cpu");
        let b = t.track("vault 0");
        assert_eq!(t.track("cpu"), a);
        assert_ne!(a, b);
        assert_eq!(t.tracks(), vec!["cpu".to_string(), "vault 0".to_string()]);
    }

    #[test]
    fn event_cap_counts_drops() {
        let t = Tracer::with_max_events(2);
        let track = t.track("x");
        for i in 0..5 {
            t.instant(track, "e", i);
        }
        assert_eq!(t.event_count(), 2);
        assert_eq!(t.dropped_events(), 3);
    }

    #[test]
    fn dropped_counter_survives_export_round_trip() {
        // The 4M default cap is too big to exercise directly; a tracer
        // with a tiny cap proves the same path: events past the cap are
        // counted, and the count survives a chrome-trace export/parse
        // round trip as machine-readable metadata.
        let t = Tracer::with_max_events(3);
        let track = t.track("x");
        for i in 0..10 {
            t.complete(track, "e", i, 1);
        }
        assert_eq!(t.dropped_events(), 7);
        let doc = crate::JsonValue::parse(&t.chrome_trace()).expect("valid trace json");
        assert_eq!(doc.get("otherData").unwrap().get("droppedEvents").unwrap().as_u64(), Some(7));
        // 3 surviving events + process_name + thread_name/thread_sort_index.
        assert_eq!(doc.get("traceEvents").unwrap().as_array().unwrap().len(), 3 + 3);
        // An uncapped tracer emits no droppedEvents key at all.
        let clean = Tracer::new();
        clean.instant(clean.track("y"), "e", 0);
        let doc = crate::JsonValue::parse(&clean.chrome_trace()).unwrap();
        assert!(doc.get("otherData").is_none_or(|o| o.get("droppedEvents").is_none()));
    }

    #[test]
    fn none_track_events_are_ignored() {
        let t = Tracer::new();
        t.complete(TrackId::NONE, "ghost", 0, 1);
        assert_eq!(t.event_count(), 0);
        assert_eq!(t.dropped_events(), 1);
    }

    #[test]
    fn track_table_stops_at_the_id_space() {
        let t = Tracer::new();
        let mut last = TrackId(0);
        for i in 0..65_537 {
            last = t.track(&format!("job:{i}"));
        }
        assert_eq!(t.tracks().len(), 65_535);
        assert_eq!(last, TrackId::NONE);
        assert_eq!(t.track("job:65534"), TrackId(65_534));
        t.instant(last, "attempt-finished", 0);
        assert_eq!((t.event_count(), t.dropped_events()), (0, 1));
        assert_eq!(t.chrome_trace().matches("\"thread_name\"").count(), 65_535);
    }
}
