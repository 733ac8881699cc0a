//! The `Tracer` handle threaded through the simulator.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::chrome;
use crate::event::{ArgValue, EventBuf, EventKind, TraceEvent, TrackId};
use crate::metrics::{
    lock, CounterId, HistogramId, MetricsRegistry, MetricsReport, MetricsShard, DEFAULT_BOUNDS,
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

/// The event half of a tracer: the track table and the event buffer.
#[derive(Debug, Default)]
struct EventLog {
    tracks: Names,
    events: EventBuf,
    max_events: usize,
    dropped: u64,
}

#[derive(Debug)]
struct Inner {
    /// `None` on a metrics-only tracer; fixed at construction, so
    /// [`Tracer::events_enabled`] reads it without a lock.
    log: Option<Mutex<EventLog>>,
    metrics: Mutex<MetricsRegistry>,
}

/// A cheap-to-clone tracing handle.
///
/// A tracer has two parts, chosen at construction: an event log (tracks,
/// spans, instants, the Chrome export) and metrics (counters, gauges,
/// histograms). [`Tracer::new`] keeps both; [`Tracer::metrics_only`]
/// keeps metrics and allocates no event buffer or track table, for a
/// long-running server that exports metrics and never a trace.
///
/// Clones share the same parts, so one `Tracer` can be handed to the
/// offload engine, every `SimContext`, and the memory system, and all
/// events land on one timeline. The **disabled** tracer (the `Default`)
/// holds nothing: every call is a branch on a `None` and returns — no
/// allocation, no locking. On a metrics-only tracer, event calls return
/// just as early. Callers that must build a `String` name or args for an
/// event guard on [`Tracer::events_enabled`] first, and callers that
/// resolve metric ids guard on [`Tracer::metrics_enabled`].
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

impl Tracer {
    /// A tracer that records events and metrics, with empty buffers.
    pub fn new() -> Self {
        Self::with_max_events(DEFAULT_MAX_EVENTS)
    }

    /// A tracer that records metrics and buffers at most `max_events`
    /// events.
    pub fn with_max_events(max_events: usize) -> Self {
        let log = EventLog { max_events: max_events.max(1), ..EventLog::default() };
        Self::with_log(Some(log))
    }

    /// A tracer that records metrics only: no event buffer and no track
    /// table, so every event call returns before taking a lock, and
    /// [`Tracer::track`] hands out [`TrackId::NONE`].
    pub fn metrics_only() -> Self {
        Self::with_log(None)
    }

    fn with_log(log: Option<EventLog>) -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                log: log.map(Mutex::new),
                metrics: Mutex::new(MetricsRegistry::default()),
            })),
        }
    }

    /// The no-op tracer (same as `Default`).
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Whether events (spans, instants, tracks) are being recorded.
    pub fn events_enabled(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.log.is_some())
    }

    /// Whether metrics are being recorded: true for every tracer but the
    /// disabled one.
    pub fn metrics_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn log(&self) -> Option<MutexGuard<'_, EventLog>> {
        self.inner.as_ref()?.log.as_ref().map(lock)
    }

    fn registry(&self) -> Option<MutexGuard<'_, MetricsRegistry>> {
        self.inner.as_ref().map(|i| lock(&i.metrics))
    }

    /// Intern `name` as a track, returning its id. Repeated calls with
    /// the same name return the same id. Tracers without an event log,
    /// and ones that already hold 65,535 tracks, return
    /// [`TrackId::NONE`] without registering anything.
    pub fn track(&self, name: &str) -> TrackId {
        let Some(mut log) = self.log() else {
            return TrackId::NONE;
        };
        match log.tracks.get(name) {
            Some(id) => TrackId(id as u16),
            None if log.tracks.list.len() < MAX_TRACKS => TrackId(log.tracks.intern(name) as u16),
            None => TrackId::NONE,
        }
    }

    /// Names of all registered tracks, in registration order.
    pub fn tracks(&self) -> Vec<String> {
        self.log().map(|l| l.tracks.list.clone()).unwrap_or_default()
    }

    /// Buffer an event, or count it as dropped when it is on
    /// [`TrackId::NONE`], the buffer is full or its args overflow the
    /// arena. Without an event log this returns without taking a lock.
    fn emit(
        &self,
        track: TrackId,
        name: Cow<'static, str>,
        ts_ps: Ps,
        kind: EventKind,
        args: impl IntoIterator<Item = (&'static str, ArgValue)>,
    ) {
        let Some(mut log) = self.log() else {
            return;
        };
        if track == TrackId::NONE
            || log.events.len() >= log.max_events
            || !log.events.push(track, name, ts_ps, kind, args)
        {
            log.dropped += 1;
        }
    }

    /// Record a span of `dur_ps` starting at `ts_ps` on `track`.
    pub fn complete(&self, track: TrackId, name: impl Into<Cow<'static, str>>, ts_ps: Ps, dur_ps: Ps) {
        self.complete_args(track, name, ts_ps, dur_ps, []);
    }

    /// [`Tracer::complete`] with key/value annotations, kept in the order
    /// given. Emit sites pass an array, so no event builds a `Vec`.
    pub fn complete_args(
        &self,
        track: TrackId,
        name: impl Into<Cow<'static, str>>,
        ts_ps: Ps,
        dur_ps: Ps,
        args: impl IntoIterator<Item = (&'static str, ArgValue)>,
    ) {
        self.emit(track, name.into(), ts_ps, EventKind::Complete { dur_ps }, args);
    }

    /// Record a point event at `ts_ps` on `track`.
    pub fn instant(&self, track: TrackId, name: impl Into<Cow<'static, str>>, ts_ps: Ps) {
        self.instant_args(track, name, ts_ps, []);
    }

    /// [`Tracer::instant`] with key/value annotations, kept in the order
    /// given.
    pub fn instant_args(
        &self,
        track: TrackId,
        name: impl Into<Cow<'static, str>>,
        ts_ps: Ps,
        args: impl IntoIterator<Item = (&'static str, ArgValue)>,
    ) {
        self.emit(track, name.into(), ts_ps, EventKind::Instant, args);
    }

    /// Intern `name` as a counter, returning the id that
    /// [`MetricsShard::count`] books under. The name appears in snapshots
    /// from its first update on. Disabled tracers return a placeholder
    /// that only their (no-op) shards are meant to receive.
    pub fn counter(&self, name: &str) -> CounterId {
        self.registry().map(|mut m| m.counter(name)).unwrap_or_default()
    }

    /// Intern `name` as a histogram, returning the id that
    /// [`MetricsShard::observe`] books under. A new name gets
    /// [`DEFAULT_BOUNDS`] unless [`Tracer::register_histogram`] named it
    /// first. Disabled tracers return a placeholder, as for
    /// [`Tracer::counter`].
    pub fn histogram(&self, name: &str) -> HistogramId {
        self.registry().map(|mut m| m.histogram(name, &DEFAULT_BOUNDS)).unwrap_or_default()
    }

    /// A writer's private metric slots (see [`MetricsShard`]): updates
    /// through it take only its own lock, and every [`Tracer::metrics`]
    /// snapshot includes it. The tracer folds each shard into its base
    /// slots once the writer drops it (checked here and in
    /// [`Tracer::metrics`]), so it holds only live shards. A disabled
    /// tracer returns a shard that records nothing.
    pub fn shard(&self) -> MetricsShard {
        self.registry().map(|mut m| m.shard()).unwrap_or_default()
    }

    /// Add `delta` to counter `name`.
    pub fn count(&self, name: &str, delta: u64) {
        if let Some(mut m) = self.registry() {
            m.count(name, delta);
        }
    }

    /// Set gauge `name`.
    pub fn gauge(&self, name: &str, value: f64) {
        if let Some(mut m) = self.registry() {
            m.gauge(name, value);
        }
    }

    /// Register gauge `name` at `initial` without overwriting an existing
    /// value, so a scrape endpoint reports the full gauge set from the
    /// first snapshot rather than only gauges that have been touched.
    pub fn register_gauge(&self, name: &str, initial: f64) {
        if let Some(mut m) = self.registry() {
            m.register_gauge(name, initial);
        }
    }

    /// Add `delta` to gauge `name` (registered at zero on first use).
    /// Deltas may be negative; used for live occupancy-style gauges such
    /// as queue depths and in-flight job counts.
    pub fn gauge_add(&self, name: &str, delta: f64) {
        if let Some(mut m) = self.registry() {
            m.gauge_add(name, delta);
        }
    }

    /// Current value of gauge `name` (zero if never set; always zero for
    /// a disabled tracer).
    pub fn gauge_value(&self, name: &str) -> f64 {
        self.registry().map(|m| m.gauge_value(name)).unwrap_or(0.0)
    }

    /// Record `value` into histogram `name`.
    pub fn observe(&self, name: &str, value: u64) {
        if let Some(mut m) = self.registry() {
            m.observe(name, value);
        }
    }

    /// Declare histogram `name` with explicit bucket bounds: it appears
    /// in snapshots from now on, empty until observed. A name's bounds are
    /// fixed when it is first interned, so this must come before any
    /// other use of the name for `bounds` to apply.
    pub fn register_histogram(&self, name: &str, bounds: &'static [u64]) {
        if let Some(mut m) = self.registry() {
            m.register_histogram(name, bounds);
        }
    }

    /// Snapshot of all metrics: the base slots plus every live shard
    /// (empty for a disabled tracer). Lock order: the tracer's metrics
    /// lock, then each shard's in turn; writers only ever take their own
    /// shard's.
    pub fn metrics(&self) -> MetricsReport {
        self.registry().map(|mut m| m.snapshot()).unwrap_or_default()
    }

    /// A copy of the buffered events, in emit order (empty without an
    /// event log).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.log().map(|l| l.events.to_events()).unwrap_or_default()
    }

    /// Number of buffered events.
    pub fn event_count(&self) -> usize {
        self.log().map(|l| l.events.len()).unwrap_or(0)
    }

    /// Events refused because the buffer cap was reached.
    pub fn dropped_events(&self) -> u64 {
        self.log().map(|l| l.dropped).unwrap_or(0)
    }

    /// Export the buffer in the Chrome trace-event format
    /// (`chrome://tracing` / Perfetto loadable). Empty-but-valid JSON for
    /// a tracer without an event log.
    pub fn chrome_trace(&self) -> String {
        match self.log() {
            Some(log) => chrome::chrome_trace_json(&log.tracks.list, &log.events, log.dropped),
            None => chrome::chrome_trace_json(&[], &EventBuf::default(), 0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert!(!t.events_enabled() && !t.metrics_enabled());
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
    fn metrics_only_tracer_keeps_metrics_and_no_events() {
        let t = Tracer::metrics_only();
        assert!(!t.events_enabled() && t.metrics_enabled());
        let id = t.track("cpu");
        assert_eq!(id, TrackId::NONE);
        t.complete(id, "span", 0, 10);
        t.instant_args(id, "mark", 5, [("n", 1u64.into())]);
        t.count("c", 2);
        t.observe("h", 7);
        t.shard().count(t.counter("s"), 3);
        assert_eq!((t.event_count(), t.dropped_events()), (0, 0));
        assert!(t.tracks().is_empty() && t.events().is_empty());
        assert_eq!(t.chrome_trace(), Tracer::disabled().chrome_trace());
        let m = t.metrics();
        assert_eq!((m.counters["c"], m.counters["s"], m.histograms["h"].count), (2, 3, 1));
    }

    #[test]
    fn events_keep_their_args_in_push_order() {
        let t = Tracer::new();
        let track = t.track("x");
        t.instant(track, "none", 0);
        t.complete_args(track, "one", 1, 2, [("a", 1u64.into())]);
        t.instant_args(track, String::from("two"), 3, [("a", 1u64.into()), ("b", "s".into())]);
        let three = [("c", 0.5.into()), ("a", 2u64.into()), ("b", "t".into())];
        t.complete_args(track, "three", 4, 5, three);
        let got: Vec<_> = (t.events().into_iter())
            .map(|e| (e.name.into_owned(), e.ts_ps, e.kind, e.args))
            .collect();
        let want = vec![
            ("none".to_string(), 0, EventKind::Instant, vec![]),
            ("one".to_string(), 1, EventKind::Complete { dur_ps: 2 }, vec![("a", 1u64.into())]),
            ("two".to_string(), 3, EventKind::Instant, vec![("a", 1u64.into()), ("b", "s".into())]),
            (
                "three".to_string(),
                4,
                EventKind::Complete { dur_ps: 5 },
                vec![("c", 0.5.into()), ("a", 2u64.into()), ("b", "t".into())],
            ),
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn an_event_with_too_many_args_is_dropped_whole() {
        let t = Tracer::new();
        let track = t.track("x");
        t.instant_args(track, "before", 0, [("a", 1u64.into())]);
        t.instant_args(track, "huge", 1, (0..=u64::from(u16::MAX)).map(|n| ("n", n.into())));
        t.instant_args(track, "after", 2, [("b", 2u64.into())]);
        assert_eq!((t.event_count(), t.dropped_events()), (2, 1));
        let args: Vec<_> = t.events().into_iter().map(|e| e.args).collect();
        assert_eq!(args, [vec![("a", 1u64.into())], vec![("b", 2u64.into())]]);
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
