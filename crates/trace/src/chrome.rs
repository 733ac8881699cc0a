//! Chrome trace-event (a.k.a. Trace Event Format) exporter.
//!
//! The output loads in `chrome://tracing` and in Perfetto's legacy-trace
//! importer (<https://ui.perfetto.dev>). Layout choices:
//!
//! * one process (`pid` 0) named `dmpim`, one "thread" per
//!   [`TrackId`](crate::TrackId) (named via `thread_name` metadata events,
//!   ordered by registration),
//! * spans are `ph: "X"` complete events, markers are thread-scoped
//!   `ph: "i"` instants,
//! * timestamps are microseconds per the spec; the simulated picosecond
//!   clock is rendered as a fixed-point `us.6` decimal built from integer
//!   math, so the document is byte-deterministic.

use crate::event::{ArgValue, EventBuf, EventKind};
use crate::json::{write_escaped, write_f64};

/// Append the decimal digits of `n`, as `{n}` formats it.
fn write_u64(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend(digits[at..].iter().map(|&d| char::from(d)));
}

/// Render `ps` as a microsecond timestamp with six fractional digits
/// (picosecond precision, integer math only), as `{}.{:06}` formats
/// `ps / 1_000_000` and `ps % 1_000_000`.
fn write_us(out: &mut String, ps: u64) {
    write_u64(out, ps / 1_000_000);
    let mut frac = *b".000000";
    let mut rest = ps % 1_000_000;
    for d in frac[1..].iter_mut().rev() {
        *d = b'0' + (rest % 10) as u8;
        rest /= 10;
    }
    out.extend(frac.iter().map(|&d| char::from(d)));
}

fn write_args(out: &mut String, args: &[(&'static str, ArgValue)]) {
    out.push('{');
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_escaped(out, k);
        out.push(':');
        match v {
            ArgValue::U64(n) => write_u64(out, *n),
            ArgValue::F64(f) => write_f64(out, *f),
            ArgValue::Str(s) => write_escaped(out, s),
        }
    }
    out.push('}');
}

/// Serialize `events` over the named `tracks` into a Chrome trace JSON
/// document. Events are emitted in simulated-time order (stable for
/// equal timestamps, so insertion order breaks ties deterministically).
pub(crate) fn chrome_trace_json(tracks: &[String], events: &EventBuf, dropped: u64) -> String {
    let records = events.records();
    // ~120 bytes per event line is a good preallocation estimate.
    let mut out = String::with_capacity(256 + tracks.len() * 96 + records.len() * 120);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"otherData\":{\"clockDomain\":\"simulated-ps\"");
    if dropped > 0 {
        out.push_str(",\"droppedEvents\":");
        write_u64(&mut out, dropped);
    }
    out.push_str("},\"traceEvents\":[\n");
    out.push_str(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
         \"args\":{\"name\":\"dmpim\"}}",
    );
    for (tid, name) in tracks.iter().enumerate() {
        let tid = tid as u64;
        out.push_str(",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":");
        write_u64(&mut out, tid);
        out.push_str(",\"args\":{\"name\":");
        write_escaped(&mut out, name);
        out.push_str("}}");
        // Sort index pins lane order to registration order in the viewer.
        out.push_str(",\n{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":0,\"tid\":");
        write_u64(&mut out, tid);
        out.push_str(",\"args\":{\"sort_index\":");
        write_u64(&mut out, tid);
        out.push_str("}}");
    }

    // Order by simulated time; the index breaks ties in insertion order.
    // The stable sort finds the runs each attempt emits already in order.
    let mut order: Vec<(u64, usize)> =
        records.iter().enumerate().map(|(i, r)| (r.ts_ps, i)).collect();
    order.sort();

    for (_, i) in order {
        let ev = &records[i];
        out.push_str(",\n{\"name\":");
        write_escaped(&mut out, &ev.name);
        out.push_str(",\"pid\":0,\"tid\":");
        write_u64(&mut out, ev.track.index() as u64);
        out.push_str(",\"ts\":");
        write_us(&mut out, ev.ts_ps);
        match ev.kind {
            EventKind::Complete { dur_ps } => {
                out.push_str(",\"ph\":\"X\",\"dur\":");
                write_us(&mut out, dur_ps);
            }
            EventKind::Instant => out.push_str(",\"ph\":\"i\",\"s\":\"t\""),
        }
        let args = events.args(ev);
        if !args.is_empty() {
            out.push_str(",\"args\":");
            write_args(&mut out, args);
        }
        out.push('}');
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use std::fmt::Write as _;

    use super::*;
    use crate::{TraceEvent, Tracer};

    #[test]
    fn timestamps_render_as_fixed_point_us() {
        let mut s = String::new();
        write_us(&mut s, 1_500_000); // 1.5 us
        assert_eq!(s, "1.500000");
        s.clear();
        write_us(&mut s, 42); // 42 ps
        assert_eq!(s, "0.000042");
    }

    #[test]
    fn digit_writers_match_std_formatting() {
        for ps in [0, 1, 42, 999_999, 1_000_000, 1_000_001, 123_456_789_012, u64::MAX] {
            let mut s = String::new();
            write_us(&mut s, ps);
            assert_eq!(s, format!("{}.{:06}", ps / 1_000_000, ps % 1_000_000), "{ps} ps");
        }
        // u64 args at both ends, and tids across the track-id range.
        for n in [0, 1, 9, 10, 65_534, 65_535, u64::MAX / 10, u64::MAX] {
            let mut s = String::new();
            write_u64(&mut s, n);
            assert_eq!(s, n.to_string());
        }
    }

    /// The export as it was written with `write!`, a per-char escape and
    /// an index sort keyed through the events: the reference the
    /// hand-rolled writers and the `(ts, index)` sort must match byte for
    /// byte.
    fn reference_export(tracks: &[String], events: &[TraceEvent], dropped: u64) -> String {
        fn esc(out: &mut String, s: &str) {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => {
                        let _ = write!(out, "\\u{:04x}", c as u32);
                    }
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        let us = |ps: u64| format!("{}.{:06}", ps / 1_000_000, ps % 1_000_000);
        let mut out = String::from(
            "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"clockDomain\":\"simulated-ps\"",
        );
        if dropped > 0 {
            let _ = write!(out, ",\"droppedEvents\":{dropped}");
        }
        out.push_str("},\"traceEvents\":[\n");
        out.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
             \"args\":{\"name\":\"dmpim\"}}",
        );
        for (tid, name) in tracks.iter().enumerate() {
            let _ = write!(
                out,
                ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\
                 \"args\":{{\"name\":"
            );
            esc(&mut out, name);
            let _ = write!(
                out,
                "}}}},\n{{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\
                 \"args\":{{\"sort_index\":{tid}}}}}"
            );
        }
        let mut order: Vec<usize> = (0..events.len()).collect();
        order.sort_by_key(|&i| events[i].ts_ps);
        for ev in order.into_iter().map(|i| &events[i]) {
            out.push_str(",\n{\"name\":");
            esc(&mut out, &ev.name);
            let _ = write!(out, ",\"pid\":0,\"tid\":{},\"ts\":{}", ev.track.index(), us(ev.ts_ps));
            match ev.kind {
                EventKind::Complete { dur_ps } => {
                    let _ = write!(out, ",\"ph\":\"X\",\"dur\":{}", us(dur_ps));
                }
                EventKind::Instant => out.push_str(",\"ph\":\"i\",\"s\":\"t\""),
            }
            if !ev.args.is_empty() {
                out.push_str(",\"args\":{");
                for (i, (k, v)) in ev.args.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    esc(&mut out, k);
                    out.push(':');
                    match v {
                        ArgValue::U64(n) => {
                            let _ = write!(out, "{n}");
                        }
                        ArgValue::F64(f) => write_f64(&mut out, *f),
                        ArgValue::Str(s) => esc(&mut out, s),
                    }
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("\n]}\n");
        out
    }

    #[test]
    fn export_matches_the_format_reference() {
        let t = Tracer::with_max_events(12);
        let names =
            ["cpu", "vault \"07\"", "back\\slash", "tab\tline\nfeed\r", "bell\u{7}", "naïve ✓"];
        let tracks: Vec<_> = names.iter().map(|n| t.track(n)).collect();
        let timestamps = [u64::MAX, 1_000_000, 0, 999_999, 1, 1_000_000, 0, 42];
        for (i, &ts) in timestamps.iter().enumerate() {
            let track = tracks[i % tracks.len()];
            let name = names[(i + 1) % names.len()];
            match i % 4 {
                0 => t.complete(track, name, ts, ts / 3),
                1 => t.instant_args(track, String::from(name), ts, [("n", u64::MAX.into())]),
                2 => t.complete_args(
                    track,
                    name,
                    ts,
                    u64::MAX,
                    [("zero", 0u64.into()), ("quote\"d", "a\"b\\c\u{1}".into())],
                ),
                _ => t.instant_args(
                    track,
                    name,
                    ts,
                    [("r", 0.25.into()), ("nan", f64::NAN.into()), ("s", "ünï".into())],
                ),
            }
        }
        for ts in 0..6 {
            t.instant(tracks[0], "overflow", ts);
        }
        assert_eq!(t.dropped_events(), 2);
        let want = reference_export(&t.tracks(), &t.events(), t.dropped_events());
        assert_eq!(t.chrome_trace(), want);
    }

    #[test]
    fn export_contains_tracks_events_and_order() {
        let t = Tracer::new();
        let cpu = t.track("cpu");
        let faults = t.track("faults");
        // Insert out of time order; export must sort by ts.
        t.complete(cpu, "late", 2_000_000, 1_000_000);
        t.instant(faults, "early", 500);
        let json = t.chrome_trace();
        assert!(json.contains("\"name\":\"cpu\""));
        assert!(json.contains("\"name\":\"faults\""));
        let early = json.find("\"early\"").expect("early event present");
        let late = json.find("\"late\"").expect("late event present");
        assert!(early < late, "events must be ordered by simulated time");
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"clockDomain\":\"simulated-ps\""));
    }

    #[test]
    fn export_notes_dropped_events() {
        let t = Tracer::with_max_events(1);
        let track = t.track("x");
        t.instant(track, "a", 0);
        t.instant(track, "b", 1);
        assert!(t.chrome_trace().contains("\"droppedEvents\":1"));
    }

    #[test]
    fn args_render_typed() {
        let mut s = String::new();
        write_args(
            &mut s,
            &[("n", ArgValue::U64(3)), ("r", ArgValue::F64(0.5)), ("k", ArgValue::Str("v".into()))],
        );
        assert_eq!(s, r#"{"n":3,"r":0.5,"k":"v"}"#);
    }

    #[test]
    fn disabled_tracer_exports_valid_empty_document() {
        let json = Tracer::disabled().chrome_trace();
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("process_name"));
    }
}
