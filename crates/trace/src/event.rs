//! The event vocabulary: tracks, spans, instants.

use std::borrow::Cow;

use crate::Ps;

/// Identifier of a track (a named timeline lane; exports as one "thread"
/// in the Chrome trace-event format).
///
/// Obtained from [`crate::Tracer::track`], which interns names so the same
/// name always maps to the same id. A disabled tracer hands out
/// [`TrackId::NONE`], which every emit call ignores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TrackId(pub(crate) u16);

impl TrackId {
    /// The placeholder id a disabled tracer returns.
    pub const NONE: TrackId = TrackId(u16::MAX);

    /// Zero-based index of this track in registration order.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What shape of event this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span with a known duration (`ph: "X"` in the Chrome format).
    Complete {
        /// Duration in simulated ps.
        dur_ps: Ps,
    },
    /// A point-in-time marker (`ph: "i"`).
    Instant,
}

/// A typed argument attached to an event (rendered into the Chrome
/// `args` object).
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// An unsigned integer.
    U64(u64),
    /// A float.
    F64(f64),
    /// A string.
    Str(Cow<'static, str>),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}

impl From<&'static str> for ArgValue {
    fn from(v: &'static str) -> Self {
        ArgValue::Str(Cow::Borrowed(v))
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(Cow::Owned(v))
    }
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// The track (lane) the event belongs to.
    pub track: TrackId,
    /// Event name (span or marker label).
    pub name: Cow<'static, str>,
    /// Start (or occurrence) time in simulated ps.
    pub ts_ps: Ps,
    /// Span vs instant.
    pub kind: EventKind,
    /// Optional key/value annotations.
    pub args: Vec<(&'static str, ArgValue)>,
}

impl TraceEvent {
    /// End time of the event (equals `ts_ps` for instants).
    pub fn end_ps(&self) -> Ps {
        match self.kind {
            EventKind::Complete { dur_ps } => self.ts_ps.saturating_add(dur_ps),
            EventKind::Instant => self.ts_ps,
        }
    }
}

/// One buffered event: a [`TraceEvent`] whose args sit in its buffer's
/// arena instead of a `Vec` of their own.
#[derive(Debug)]
pub(crate) struct Record {
    pub(crate) name: Cow<'static, str>,
    pub(crate) ts_ps: Ps,
    pub(crate) kind: EventKind,
    /// This event's args are `arena[args_start..][..args_len]`.
    args_start: u32,
    args_len: u16,
    pub(crate) track: TrackId,
}

/// The event buffer: records in emit order and one arena holding every
/// record's args back to back, so buffering an event allocates nothing
/// of its own.
#[derive(Debug, Default)]
pub(crate) struct EventBuf {
    records: Vec<Record>,
    arena: Vec<(&'static str, ArgValue)>,
}

impl EventBuf {
    /// Number of buffered events.
    pub(crate) fn len(&self) -> usize {
        self.records.len()
    }

    /// Buffer an event. Returns false, keeping nothing, when its args no
    /// longer fit the record's arena offsets (past 4G args in all, or 64K
    /// on one event).
    pub(crate) fn push(
        &mut self,
        track: TrackId,
        name: Cow<'static, str>,
        ts_ps: Ps,
        kind: EventKind,
        args: impl IntoIterator<Item = (&'static str, ArgValue)>,
    ) -> bool {
        let start = self.arena.len();
        self.arena.extend(args);
        let (Ok(args_start), Ok(args_len)) =
            (u32::try_from(start), u16::try_from(self.arena.len() - start))
        else {
            self.arena.truncate(start);
            return false;
        };
        self.records.push(Record { name, ts_ps, kind, args_start, args_len, track });
        true
    }

    /// The buffered records, in emit order.
    pub(crate) fn records(&self) -> &[Record] {
        &self.records
    }

    /// `record`'s args, in push order.
    pub(crate) fn args(&self, record: &Record) -> &[(&'static str, ArgValue)] {
        let start = record.args_start as usize;
        &self.arena[start..start + usize::from(record.args_len)]
    }

    /// Every buffered event as a [`TraceEvent`], in emit order.
    pub(crate) fn to_events(&self) -> Vec<TraceEvent> {
        (self.records.iter())
            .map(|r| TraceEvent {
                track: r.track,
                name: r.name.clone(),
                ts_ps: r.ts_ps,
                kind: r.kind,
                args: self.args(r).to_vec(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_ps_adds_duration() {
        let e = TraceEvent {
            track: TrackId(0),
            name: Cow::Borrowed("x"),
            ts_ps: 10,
            kind: EventKind::Complete { dur_ps: 5 },
            args: Vec::new(),
        };
        assert_eq!(e.end_ps(), 15);
        let i = TraceEvent { kind: EventKind::Instant, ..e };
        assert_eq!(i.end_ps(), 10);
    }

    #[test]
    fn records_stay_small() {
        // The per-event cost the arena buys: no heap block of its own.
        assert!(std::mem::size_of::<Record>() <= 56);
        assert!(std::mem::size_of::<(&'static str, ArgValue)>() <= 40);
    }

    #[test]
    fn arg_conversions() {
        assert_eq!(ArgValue::from(3u64), ArgValue::U64(3));
        assert_eq!(ArgValue::from("a"), ArgValue::Str(Cow::Borrowed("a")));
        assert!(matches!(ArgValue::from(1.5f64), ArgValue::F64(_)));
        assert!(matches!(ArgValue::from(String::from("s")), ArgValue::Str(_)));
    }
}
