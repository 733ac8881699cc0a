//! The JSONL wire protocol.
//!
//! One JSON object per line in each direction. Each message maps to and
//! from a [`pim_trace::JsonValue`], rendered with [`JsonValue::render`]
//! and read with [`JsonValue::parse`], the codec the harness and server
//! journals use too, so the server, the journals and the wire all speak
//! one dialect. The parser is bounded in nesting depth and linear in
//! line length, so no line a peer sends can exhaust a connection
//! thread's stack. Requests:
//!
//! ```text
//! {"op":"hello","client":"repro"}
//! {"op":"submit","id":"fig18","spec":"experiment:fig18"}
//! {"op":"submit","id":"probe","spec":"kernel:compression","priority":"high"}
//! {"op":"wait","id":"fig18","timeout_ms":5000}
//! {"op":"stats"}            {"op":"metrics"}
//! {"op":"ping"}             {"op":"shutdown","mode":"drain"}
//! ```
//!
//! Responses are `{"type":...}` objects; a job result reuses the exact
//! journal record shape (plus the `type` tag), so a result that crossed
//! the wire, a result restored from the server journal, and a result
//! computed in-process render identically:
//!
//! ```text
//! {"type":"result","job":"fig18","status":"ok","attempts":1,"output":"..."}
//! {"type":"rejected","error":"overloaded","scope":"client","current":8,"limit":8}
//! ```
//!
//! The one exception is the `metrics` reply, which is the raw
//! [`pim_trace::MetricsReport`] JSON (a nested object) — clients treat it
//! as an opaque line. An HTTP `GET /metrics` on the same port returns the
//! same document for scrape tooling.

use pim_harness::journal::{record_json, result_from_json};
use pim_harness::{JobResult, Priority};
use pim_trace::JsonValue;

/// Wire protocol version, negotiated in the `hello` exchange.
pub const PROTOCOL_VERSION: u64 = 1;
/// Server identifier in the `hello` reply.
pub const SERVER_NAME: &str = "pim-serve";

/// How a shutdown request winds the server down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShutdownMode {
    /// Stop admitting new jobs, finish everything in flight, then stop.
    Drain,
    /// Stop as soon as workers notice; unfinished jobs stay journaled as
    /// submissions and recover on restart.
    Now,
}

impl ShutdownMode {
    fn label(self) -> &'static str {
        match self {
            ShutdownMode::Drain => "drain",
            ShutdownMode::Now => "now",
        }
    }
}

/// A client request (one line).
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Identify the client; quotas are keyed by this name.
    Hello {
        /// Client name.
        client: String,
    },
    /// Submit a job. Idempotent by id: re-submitting an identical
    /// `(id, spec)` attaches to the existing job.
    Submit {
        /// Unique job id (journal key).
        id: String,
        /// What to run, e.g. `experiment:fig18`.
        spec: String,
        /// Queueing class. Omitted on the wire for `Normal` (the
        /// default), so pre-priority clients and servers interoperate
        /// byte-identically.
        priority: Priority,
    },
    /// Block until the job is terminal (or the optional timeout).
    Wait {
        /// Job id to wait for.
        id: String,
        /// Optional wait bound in milliseconds.
        timeout_ms: Option<u64>,
    },
    /// One-line scheduler statistics.
    Stats,
    /// One-line raw metrics-registry JSON.
    Metrics,
    /// Liveness probe.
    Ping,
    /// Ask the server to stop.
    Shutdown {
        /// Drain or stop now.
        mode: ShutdownMode,
    },
}

impl Request {
    /// Render as one wire line (no trailing newline).
    pub fn render(&self) -> String {
        let req = JsonValue::object();
        let req = match self {
            Request::Hello { client } => req.set("op", "hello").set("client", client.as_str()),
            Request::Submit { id, spec, priority } => req
                .set("op", "submit")
                .set("id", id.as_str())
                .set("spec", spec.as_str())
                .set_some("priority", (*priority != Priority::Normal).then(|| priority.label())),
            Request::Wait { id, timeout_ms } => {
                req.set("op", "wait").set("id", id.as_str()).set_some("timeout_ms", *timeout_ms)
            }
            Request::Stats => req.set("op", "stats"),
            Request::Metrics => req.set("op", "metrics"),
            Request::Ping => req.set("op", "ping"),
            Request::Shutdown { mode } => req.set("op", "shutdown").set("mode", mode.label()),
        };
        req.render()
    }

    /// Parse one request line. `Err` carries a human-readable reason that
    /// the server echoes back in a `bad-request` rejection.
    pub fn parse(line: &str) -> Result<Self, String> {
        let req = JsonValue::parse(line).map_err(|e| e.to_string())?;
        let text = |key: &str| req.get(key).and_then(JsonValue::as_str).map(str::to_string);
        let op = text("op").ok_or_else(|| "missing \"op\"".to_string())?;
        match op.as_str() {
            "hello" => Ok(Request::Hello {
                client: text("client").ok_or_else(|| "hello needs \"client\"".to_string())?,
            }),
            "submit" => Ok(Request::Submit {
                id: text("id").ok_or_else(|| "submit needs \"id\"".to_string())?,
                spec: text("spec").ok_or_else(|| "submit needs \"spec\"".to_string())?,
                priority: match text("priority") {
                    None => Priority::Normal,
                    Some(p) => Priority::from_label(&p)
                        .ok_or_else(|| format!("unknown priority {p:?}"))?,
                },
            }),
            "wait" => Ok(Request::Wait {
                id: text("id").ok_or_else(|| "wait needs \"id\"".to_string())?,
                timeout_ms: match req.get("timeout_ms") {
                    None => None,
                    Some(ms) => Some(
                        ms.as_u64().ok_or_else(|| "\"timeout_ms\" must be a number".to_string())?,
                    ),
                },
            }),
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "ping" => Ok(Request::Ping),
            "shutdown" => match text("mode").as_deref() {
                Some("drain") | None => Ok(Request::Shutdown { mode: ShutdownMode::Drain }),
                Some("now") => Ok(Request::Shutdown { mode: ShutdownMode::Now }),
                Some(other) => Err(format!("unknown shutdown mode {other:?}")),
            },
            other => Err(format!("unknown op {other:?}")),
        }
    }
}

/// Why a request was refused — every refusal is typed, never a hang or a
/// dropped connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectKind {
    /// Admission control: the client or the server queue is at capacity.
    /// Resubmit later; nothing was enqueued.
    Overloaded,
    /// The server is draining for shutdown and admits no new work.
    Draining,
    /// Malformed request line.
    BadRequest,
    /// `wait` for an id the server has never seen.
    UnknownJob,
    /// Re-submission of an existing id with a different spec.
    SpecConflict,
    /// A bounded `wait` elapsed before the job finished.
    Timeout,
    /// Server-side failure (journal I/O, shutdown mid-request). Nothing
    /// was enqueued; safe to resubmit.
    Internal,
}

impl RejectKind {
    /// Wire label.
    pub fn label(self) -> &'static str {
        match self {
            RejectKind::Overloaded => "overloaded",
            RejectKind::Draining => "draining",
            RejectKind::BadRequest => "bad-request",
            RejectKind::UnknownJob => "unknown-job",
            RejectKind::SpecConflict => "spec-conflict",
            RejectKind::Timeout => "timeout",
            RejectKind::Internal => "internal",
        }
    }

    /// Inverse of [`RejectKind::label`].
    pub fn from_label(s: &str) -> Option<Self> {
        Some(match s {
            "overloaded" => RejectKind::Overloaded,
            "draining" => RejectKind::Draining,
            "bad-request" => RejectKind::BadRequest,
            "unknown-job" => RejectKind::UnknownJob,
            "spec-conflict" => RejectKind::SpecConflict,
            "timeout" => RejectKind::Timeout,
            "internal" => RejectKind::Internal,
            _ => return None,
        })
    }
}

/// A typed rejection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reject {
    /// What went wrong.
    pub kind: RejectKind,
    /// Human-readable detail.
    pub reason: String,
    /// For `overloaded`: which limit tripped (`client` or `queue`).
    pub scope: Option<&'static str>,
    /// For `overloaded`: the current occupancy.
    pub current: Option<u64>,
    /// For `overloaded`: the configured limit.
    pub limit: Option<u64>,
}

impl Reject {
    /// A plain rejection with no quota detail.
    pub fn new(kind: RejectKind, reason: impl Into<String>) -> Self {
        Self { kind, reason: reason.into(), scope: None, current: None, limit: None }
    }

    /// An `overloaded` rejection carrying the tripped limit.
    pub fn overloaded(scope: &'static str, current: usize, limit: usize) -> Self {
        Self {
            kind: RejectKind::Overloaded,
            reason: format!("{scope} at capacity: {current}/{limit} in flight"),
            scope: Some(scope),
            current: Some(current as u64),
            limit: Some(limit as u64),
        }
    }
}

/// Scheduler statistics, as sent on the wire and scraped by tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Jobs ever admitted (including recovered submissions).
    pub submitted: u64,
    /// Jobs with a terminal result.
    pub completed: u64,
    /// ... of which succeeded.
    pub succeeded: u64,
    /// ... of which failed.
    pub failed: u64,
    /// ... of which were quarantined.
    pub quarantined: u64,
    /// Retry attempts dispatched.
    pub retries: u64,
    /// Typed `overloaded` rejections returned.
    pub overloaded: u64,
    /// Always 0: the pool's workers share one queue and steal nothing.
    /// Kept on the wire because existing clients parse it.
    pub steals: u64,
    /// Jobs admitted but not yet terminal.
    pub in_flight: u64,
    /// Worker threads currently live.
    pub workers: u64,
    /// Distinct client names seen.
    pub clients: u64,
    /// Jobs restored or re-queued from the journal at startup.
    pub recovered: u64,
    /// 1 while draining for shutdown.
    pub draining: u64,
    /// Journal records (submissions or results) that could not be
    /// persisted. The jobs still ran and their results are served from
    /// memory; only crash-recovery coverage is degraded.
    pub journal_dropped: u64,
    /// 1 once any journal write has failed (sticky until restart).
    pub journal_degraded: u64,
}

/// A server response (one line).
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Reply to `hello`.
    Hello {
        /// Server identifier ([`SERVER_NAME`]).
        server: String,
        /// Protocol version.
        version: u64,
    },
    /// A submission was admitted (or attached to an existing job).
    Accepted {
        /// Job id.
        id: String,
        /// `queued`, `running`, `done`, or `recovered`.
        state: String,
    },
    /// A typed refusal.
    Rejected(Reject),
    /// A terminal job result (journal record shape).
    Result(JobResult),
    /// Scheduler statistics.
    Stats(Stats),
    /// Reply to `ping`.
    Pong,
    /// Shutdown acknowledged.
    ShuttingDown {
        /// The acknowledged mode.
        mode: String,
    },
}

impl Response {
    /// Render as one wire line (no trailing newline).
    pub fn render(&self) -> String {
        let resp = JsonValue::object();
        let resp = match self {
            Response::Hello { server, version } => {
                resp.set("type", "hello").set("server", server.as_str()).set("version", *version)
            }
            Response::Accepted { id, state } => {
                resp.set("type", "accepted").set("id", id.as_str()).set("state", state.as_str())
            }
            Response::Rejected(r) => resp
                .set("type", "rejected")
                .set("error", r.kind.label())
                .set("reason", r.reason.as_str())
                .set_some("scope", r.scope)
                .set_some("current", r.current)
                .set_some("limit", r.limit),
            // The journal record behind a `type` tag: the payload bytes
            // are identical to the journal's.
            Response::Result(r) => record_json(resp.set("type", "result"), r),
            Response::Stats(st) => resp
                .set("type", "stats")
                .set("submitted", st.submitted)
                .set("completed", st.completed)
                .set("succeeded", st.succeeded)
                .set("failed", st.failed)
                .set("quarantined", st.quarantined)
                .set("retries", st.retries)
                .set("overloaded", st.overloaded)
                .set("steals", st.steals)
                .set("in_flight", st.in_flight)
                .set("workers", st.workers)
                .set("clients", st.clients)
                .set("recovered", st.recovered)
                .set("draining", st.draining)
                .set("journal_dropped", st.journal_dropped)
                .set("journal_degraded", st.journal_degraded),
            Response::Pong => resp.set("type", "pong"),
            Response::ShuttingDown { mode } => {
                resp.set("type", "shutdown").set("mode", mode.as_str())
            }
        };
        resp.render()
    }

    /// Parse one response line (client side).
    pub fn parse(line: &str) -> Option<Self> {
        let resp = JsonValue::parse(line).ok()?;
        let text = |key: &str| resp.get(key).and_then(JsonValue::as_str).map(str::to_string);
        let num = |key: &str| resp.get(key).and_then(JsonValue::as_u64);
        match text("type")?.as_str() {
            "hello" => Some(Response::Hello { server: text("server")?, version: num("version")? }),
            "accepted" => Some(Response::Accepted { id: text("id")?, state: text("state")? }),
            "rejected" => Some(Response::Rejected(Reject {
                kind: RejectKind::from_label(&text("error")?)?,
                reason: text("reason").unwrap_or_default(),
                scope: match text("scope").as_deref() {
                    Some("client") => Some("client"),
                    Some("queue") => Some("queue"),
                    _ => None,
                },
                current: num("current"),
                limit: num("limit"),
            })),
            "result" => Some(Response::Result(result_from_json(&resp)?)),
            "stats" => Some(Response::Stats(Stats {
                submitted: num("submitted")?,
                completed: num("completed")?,
                succeeded: num("succeeded")?,
                failed: num("failed")?,
                quarantined: num("quarantined")?,
                retries: num("retries")?,
                overloaded: num("overloaded")?,
                steals: num("steals")?,
                in_flight: num("in_flight")?,
                workers: num("workers")?,
                clients: num("clients")?,
                recovered: num("recovered")?,
                draining: num("draining")?,
                // Absent on pre-chaos servers; default to healthy.
                journal_dropped: num("journal_dropped").unwrap_or(0),
                journal_degraded: num("journal_degraded").unwrap_or(0),
            })),
            "pong" => Some(Response::Pong),
            "shutdown" => Some(Response::ShuttingDown { mode: text("mode")? }),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use pim_harness::journal::{parse_result_line, record_line};
    use pim_harness::JobStatus;

    use super::*;

    #[test]
    fn requests_round_trip() {
        let cases = vec![
            Request::Hello { client: "repro \"1\"".into() },
            Request::Submit {
                id: "fig18".into(),
                spec: "experiment:fig18".into(),
                priority: Priority::Normal,
            },
            Request::Submit {
                id: "probe".into(),
                spec: "kernel:compression".into(),
                priority: Priority::High,
            },
            Request::Wait { id: "fig18".into(), timeout_ms: Some(250) },
            Request::Wait { id: "fig18".into(), timeout_ms: None },
            Request::Stats,
            Request::Metrics,
            Request::Ping,
            Request::Shutdown { mode: ShutdownMode::Drain },
            Request::Shutdown { mode: ShutdownMode::Now },
        ];
        for req in cases {
            let line = req.render();
            assert_eq!(Request::parse(&line), Ok(req.clone()), "{line}");
        }
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        assert!(Request::parse("").is_err());
        assert!(Request::parse("GET /metrics HTTP/1.1").is_err());
        assert!(Request::parse("{\"op\":\"submit\"}").is_err(), "missing id/spec");
        assert!(Request::parse("{\"op\":\"warp\"}").is_err());
        assert!(Request::parse("{\"id\":\"x\"}").is_err(), "missing op");
        assert!(
            Request::parse("{\"op\":\"submit\",\"id\":\"x\",\"spec\":\"s\",\"priority\":\"urgent\"}")
                .is_err(),
            "unknown priority label is a typed error, not a silent default"
        );
        for timeout in ["\"5\"", "-5", "2.5", "null"] {
            let line = format!("{{\"op\":\"wait\",\"id\":\"x\",\"timeout_ms\":{timeout}}}");
            assert!(Request::parse(&line).is_err(), "{line}");
        }
    }

    #[test]
    fn requests_parse_with_json_whitespace() {
        // What a standard encoder emits by default (Python's `json.dumps`).
        assert_eq!(
            Request::parse(r#"{"op": "hello", "client": "probe"}"#),
            Ok(Request::Hello { client: "probe".into() })
        );
        assert_eq!(Request::parse(r#"{ "op":"ping" }"#), Ok(Request::Ping));
        assert_eq!(
            Request::parse(r#"{"op": "wait", "id": "fig18", "timeout_ms": 250}"#),
            Ok(Request::Wait { id: "fig18".into(), timeout_ms: Some(250) })
        );
        let pretty = "{\n  \"op\": \"submit\",\n  \"id\": \"x\",\n  \"spec\": \"kernel:compression\"\n}";
        assert_eq!(
            Request::parse(pretty),
            Ok(Request::Submit {
                id: "x".into(),
                spec: "kernel:compression".into(),
                priority: Priority::Normal,
            })
        );
        assert!(Request::parse(r#"{"op": "hello", "client": "#).is_err(), "truncated");
        // Whitespace around every token, fields nobody reads, and a
        // space-padded value kept as data.
        let compact = Request::parse(r#"{"op":"hello","client":" probe ","n":7,"z":null}"#);
        assert_eq!(compact, Ok(Request::Hello { client: " probe ".into() }));
        for spaced in [
            r#"{"op": "hello", "client": " probe ", "n": 7, "z": null}"#,
            "{ \"op\" :\t\"hello\" ,\r\n \"client\":\" probe \",\"n\" : 7 ,\"z\":null\n}",
        ] {
            assert_eq!(Request::parse(spaced), compact, "{spaced:?}");
        }
        assert_eq!(Request::parse("{ \t}"), Err("missing \"op\"".to_string()));
    }

    #[test]
    fn requests_decode_surrogate_pair_escapes() {
        // Python's `json.dumps` escapes 😀 as a surrogate pair by default.
        assert_eq!(
            Request::parse(r#"{"op": "hello", "client": "\ud83d\ude00"}"#),
            Ok(Request::Hello { client: "😀".into() })
        );
        assert!(Request::parse(r#"{"op": "hello", "client": "\ud83d"}"#).is_err(), "lone half");
    }

    #[test]
    fn over_deep_request_is_a_typed_error_on_a_connection_thread() {
        // 10 KB, far under the line cap: once enough to overflow the
        // stack of a thread spawned with the default size.
        let line = format!("{{\"op\":{}", "[".repeat(10_000));
        let parsed = std::thread::spawn(move || Request::parse(&line)).join().unwrap();
        let reason = parsed.unwrap_err();
        assert!(reason.contains("nesting too deep"), "{reason}");
    }

    #[test]
    fn normal_priority_renders_byte_identically_to_pre_priority_wire() {
        // Interop: a Normal submit must not grow a field, so old servers
        // and new clients (and vice versa) keep speaking the same bytes.
        let line = Request::Submit {
            id: "fig18".into(),
            spec: "experiment:fig18".into(),
            priority: Priority::Normal,
        }
        .render();
        assert_eq!(line, "{\"op\":\"submit\",\"id\":\"fig18\",\"spec\":\"experiment:fig18\"}");
        // And an absent field parses back to Normal.
        match Request::parse(&line) {
            Ok(Request::Submit { priority, .. }) => assert_eq!(priority, Priority::Normal),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn responses_round_trip() {
        let cases = vec![
            Response::Hello { server: SERVER_NAME.into(), version: PROTOCOL_VERSION },
            Response::Accepted { id: "fig1".into(), state: "queued".into() },
            Response::Rejected(Reject::overloaded("client", 8, 8)),
            Response::Rejected(Reject::new(RejectKind::Draining, "server is draining")),
            Response::Result(JobResult::ok("fig1", 1, "line1\nline2".into())),
            Response::Result(JobResult {
                id: "bad".into(),
                status: JobStatus::Quarantined,
                attempts: 2,
                output: None,
                error_label: Some("wall-timeout".into()),
                error: Some("exceeded deadline".into()),
                seed: Some(41),
            }),
            Response::Stats(Stats { submitted: 23, in_flight: 4, ..Stats::default() }),
            Response::Stats(Stats {
                journal_dropped: 3,
                journal_degraded: 1,
                ..Stats::default()
            }),
            Response::Pong,
            Response::ShuttingDown { mode: "drain".into() },
        ];
        for resp in cases {
            let line = resp.render();
            assert_eq!(Response::parse(&line), Some(resp.clone()), "{line}");
        }
    }

    #[test]
    fn result_response_payload_matches_journal_record_bytes() {
        let r = JobResult::ok("fig18", 1, "weird \"output\"\nwith lines".into());
        let wire = Response::Result(r.clone()).render();
        let journal = record_line(&r);
        assert_eq!(wire, format!("{{\"type\":\"result\",{}", &journal[1..]));
        // And the journal parser reads the wire line directly.
        assert_eq!(parse_result_line(&wire), Some(r));
    }
}
