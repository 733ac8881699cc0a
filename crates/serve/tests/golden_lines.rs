//! Golden bytes for every line the workspace writes to a journal or the
//! wire: the harness journal (header and result records), the server
//! journal (header, submissions and results) and each request and
//! response variant. The round-trip tests elsewhere prove that a line
//! parses back; these pin what the line *is*, so a journal written by an
//! older binary, an older client and a newer server all keep speaking
//! the same bytes.

use std::path::PathBuf;

use pim_harness::journal::{parse_result_line, record_line, JournalWriter};
use pim_harness::{JobFailure, JobResult, JobStatus, Priority};
use pim_serve::protocol::{PROTOCOL_VERSION, SERVER_NAME};
use pim_serve::recovery::{ServeJournal, Submission};
use pim_serve::{Reject, RejectKind, Request, Response, ShutdownMode, Stats};

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("pim-serve-golden-{}-{name}", std::process::id()));
    p
}

/// A payload holding every character the writer escapes, plus ones it
/// copies through (`/`, DEL, non-ASCII, an astral-plane character).
const ESCAPES: &str = "q\"b\\n\nr\rt\tc\u{1}\u{1f} /del\u{7f} 日本 😀";
/// [`ESCAPES`] as the writer renders it.
const ESCAPES_JSON: &str =
    concat!(r#""q\"b\\n\nr\rt\tc\u0001\u001f /del"#, "\u{7f}", r#" 日本 😀""#);

fn quarantined() -> JobResult {
    JobResult::failed(
        "bricked",
        JobStatus::Quarantined,
        2,
        &JobFailure::WallTimeout { limit_ms: 25 },
    )
    .with_seed(Some(u64::MAX))
}

#[test]
fn request_lines_are_pinned() {
    let cases = [
        (
            Request::Submit {
                id: "fig18".into(),
                spec: "experiment:fig18".into(),
                priority: Priority::Normal,
            },
            r#"{"op":"submit","id":"fig18","spec":"experiment:fig18"}"#,
        ),
        (
            Request::Submit {
                id: "probe".into(),
                spec: "kernel:compression".into(),
                priority: Priority::High,
            },
            r#"{"op":"submit","id":"probe","spec":"kernel:compression","priority":"high"}"#,
        ),
        (
            Request::Wait { id: "fig18".into(), timeout_ms: Some(5000) },
            r#"{"op":"wait","id":"fig18","timeout_ms":5000}"#,
        ),
        (Request::Wait { id: "fig18".into(), timeout_ms: None }, r#"{"op":"wait","id":"fig18"}"#),
        (Request::Hello { client: "repro \"1\"".into() }, r#"{"op":"hello","client":"repro \"1\""}"#),
        (Request::Stats, r#"{"op":"stats"}"#),
        (Request::Metrics, r#"{"op":"metrics"}"#),
        (Request::Ping, r#"{"op":"ping"}"#),
        (Request::Shutdown { mode: ShutdownMode::Drain }, r#"{"op":"shutdown","mode":"drain"}"#),
        (Request::Shutdown { mode: ShutdownMode::Now }, r#"{"op":"shutdown","mode":"now"}"#),
    ];
    for (req, line) in cases {
        assert_eq!(req.render(), line);
        assert_eq!(Request::parse(line), Ok(req), "{line}");
    }
}

#[test]
fn response_lines_are_pinned() {
    let stats = Stats {
        submitted: 1,
        completed: 2,
        succeeded: 3,
        failed: 4,
        quarantined: 5,
        retries: 6,
        overloaded: 7,
        steals: 8,
        in_flight: 9,
        workers: 10,
        clients: 11,
        recovered: 12,
        draining: 13,
        journal_dropped: 14,
        journal_degraded: 15,
    };
    let cases = [
        (
            Response::Hello { server: SERVER_NAME.into(), version: PROTOCOL_VERSION },
            r#"{"type":"hello","server":"pim-serve","version":1}"#.to_string(),
        ),
        (
            Response::Accepted { id: "fig18".into(), state: "queued".into() },
            r#"{"type":"accepted","id":"fig18","state":"queued"}"#.to_string(),
        ),
        (
            Response::Rejected(Reject::overloaded("client", 8, 8)),
            r#"{"type":"rejected","error":"overloaded","reason":"client at capacity: 8/8 in flight","scope":"client","current":8,"limit":8}"#
                .to_string(),
        ),
        (
            Response::Rejected(Reject::new(RejectKind::UnknownJob, "no job \"x\" was ever admitted")),
            r#"{"type":"rejected","error":"unknown-job","reason":"no job \"x\" was ever admitted"}"#
                .to_string(),
        ),
        (
            Response::Result(JobResult::ok("fig18", 1, ESCAPES.into())),
            format!(r#"{{"type":"result","job":"fig18","status":"ok","attempts":1,"output":{}}}"#, ESCAPES_JSON),
        ),
        (
            Response::Result(quarantined()),
            r#"{"type":"result","job":"bricked","status":"quarantined","attempts":2,"error_label":"wall-timeout","error":"exceeded wall-clock deadline of 25 ms","seed":18446744073709551615}"#
                .to_string(),
        ),
        (
            Response::Stats(stats),
            r#"{"type":"stats","submitted":1,"completed":2,"succeeded":3,"failed":4,"quarantined":5,"retries":6,"overloaded":7,"steals":8,"in_flight":9,"workers":10,"clients":11,"recovered":12,"draining":13,"journal_dropped":14,"journal_degraded":15}"#
                .to_string(),
        ),
        (Response::Pong, r#"{"type":"pong"}"#.to_string()),
        (
            Response::ShuttingDown { mode: "drain".into() },
            r#"{"type":"shutdown","mode":"drain"}"#.to_string(),
        ),
    ];
    for (resp, line) in cases {
        assert_eq!(resp.render(), line);
        assert_eq!(Response::parse(&line), Some(resp), "{line}");
    }
}

#[test]
fn harness_journal_bytes_are_pinned() {
    let path = tmp("harness.jsonl");
    let results = [
        JobResult::ok("texture tiling", 1, "x=1|y=2.5".into()),
        JobResult::ok("weird \"id\"\t", 3, ESCAPES.into()),
        JobResult::failed(
            "panicker",
            JobStatus::Failed,
            1,
            &JobFailure::Panicked { message: "index out of bounds".into() },
        )
        .with_seed(Some(7)),
        quarantined(),
    ];
    {
        let mut w = JournalWriter::create(&path, 9).unwrap();
        for r in &results {
            w.record(r).unwrap();
        }
    }
    let expected = [
        r#"{"journal":"pim-harness","version":1,"jobs":9}"#.to_string(),
        r#"{"job":"texture tiling","status":"ok","attempts":1,"output":"x=1|y=2.5"}"#.to_string(),
        format!(r#"{{"job":"weird \"id\"\t","status":"ok","attempts":3,"output":{}}}"#, ESCAPES_JSON),
        r#"{"job":"panicker","status":"failed","attempts":1,"error_label":"panic","error":"panicked: index out of bounds","seed":7}"#
            .to_string(),
        r#"{"job":"bricked","status":"quarantined","attempts":2,"error_label":"wall-timeout","error":"exceeded wall-clock deadline of 25 ms","seed":18446744073709551615}"#
            .to_string(),
    ];
    let mut text = expected.join("\n");
    text.push('\n');
    assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
    for (r, line) in results.iter().zip(&expected[1..]) {
        assert_eq!(&record_line(r), line);
        assert_eq!(parse_result_line(line).as_ref(), Some(r), "{line}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn serve_journal_bytes_are_pinned() {
    let path = tmp("serve.jsonl");
    let normal = Submission {
        id: "fig18".into(),
        client: "repro".into(),
        spec: "experiment:fig18".into(),
        priority: Priority::Normal,
    };
    let high = Submission {
        id: "probe \"p\"".into(),
        client: "c\n2".into(),
        spec: "kernel:compression".into(),
        priority: Priority::High,
    };
    {
        let mut j = ServeJournal::create(&path).unwrap();
        j.record_submission(&normal).unwrap();
        j.record_submission(&high).unwrap();
        j.record_result(&JobResult::ok("fig18", 1, "out".into())).unwrap();
        j.record_result(&quarantined()).unwrap();
    }
    let expected = [
        r#"{"journal":"pim-serve","version":1}"#,
        r#"{"kind":"sub","id":"fig18","client":"repro","spec":"experiment:fig18"}"#,
        r#"{"kind":"sub","id":"probe \"p\"","client":"c\n2","spec":"kernel:compression","priority":"high"}"#,
        r#"{"job":"fig18","status":"ok","attempts":1,"output":"out"}"#,
        r#"{"job":"bricked","status":"quarantined","attempts":2,"error_label":"wall-timeout","error":"exceeded wall-clock deadline of 25 ms","seed":18446744073709551615}"#,
    ];
    let mut text = expected.join("\n");
    text.push('\n');
    assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
    let (_, state) = ServeJournal::recover(&path).unwrap();
    assert_eq!(state.submissions, [normal, high, quarantined_orphan()]);
    assert_eq!(state.results["bricked"], quarantined());
    assert_eq!((state.skipped, state.duplicates), (0, 0));
    std::fs::remove_file(&path).ok();
}

/// The submission replay synthesizes for a result whose own submission
/// line is absent.
fn quarantined_orphan() -> Submission {
    Submission { id: "bricked".into(), client: String::new(), spec: String::new(), priority: Priority::Normal }
}
