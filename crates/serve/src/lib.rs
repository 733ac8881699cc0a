//! `pim-serve`: a fault-tolerant sweep service.
//!
//! The repo's sweeps historically ran as one-shot CLI invocations
//! (`pim-harness` inside `repro`). This crate turns the same supervised,
//! resumable execution model into a long-lived **service**: a std-only
//! TCP server speaking the repo's JSONL dialect, accepting simulation
//! jobs from many concurrent clients and scheduling them over a shared
//! worker pool. The robustness story, end to end:
//!
//! * **One worker pool** ([`scheduler`]) — jobs run on
//!   [`pim_harness::pool`], the pool every `repro` sweep runs on; the
//!   scheduler adds only what a service needs beyond a sweep: admission,
//!   the write-ahead journal, the job table and its waiters, and `stats`.
//! * **Priority classes** ([`Priority`]) — each submission carries a
//!   typed `priority` (`high` | `normal`); the pool's queue keeps one
//!   lane per class, draining `high` first with a fairness stride that
//!   serves the normal lane every few dequeues, so interactive probes
//!   overtake bulk sweeps without ever starving them. Retries and journal
//!   recovery preserve a job's class.
//! * **Admission control** ([`quota`]) — per-client in-flight quotas and
//!   a global queue bound; an overloaded server answers a typed
//!   `overloaded` rejection immediately instead of hanging or growing
//!   without bound.
//! * **Supervision** (the pool's) — per-job wall-clock deadlines
//!   abandon stuck workers (replacements keep the pool at strength) and
//!   the simulated-time watchdog bounds runaway simulations; the failure
//!   taxonomy (retry with capped backoff, quarantine after timeout
//!   strikes, fail fast on panics) is `pim-harness`'s.
//! * **Crash recovery** ([`recovery`]) — submissions are journaled
//!   write-ahead and results in the harness's exact record format; a
//!   `SIGKILL`ed server restarts, replays its journal tolerating every
//!   corruption class the harness reader tolerates, restores finished
//!   jobs bit-identically, and re-runs only the unfinished ones.
//! * **Graceful drain** ([`server`], [`signal`]) — SIGTERM/ctrl-c (or
//!   the protocol `shutdown` op) stops admission, finishes everything in
//!   flight, and exits with zero journal loss.
//! * **Observability** ([`server`]) — an HTTP `GET /metrics` on the same
//!   port serves the live `pim-trace` metrics registry: queue depths,
//!   quota state, retry and quarantine counts.
//!
//! The scheduler resolves job specs through a caller-provided
//! [`Resolver`], so this crate knows nothing about the bench catalog —
//! the `repro` binary wires `experiment:<id>` / `kernel:<name>` specs to
//! real simulations.

pub mod client;
pub mod protocol;
pub mod quota;
pub mod recovery;
pub mod scheduler;
pub mod server;
pub mod signal;

pub use client::{Client, ClientConfig};
pub use pim_harness::Priority;
pub use protocol::{Reject, RejectKind, Request, Response, ShutdownMode, Stats};
pub use quota::QuotaPolicy;
pub use scheduler::{Resolver, Scheduler, ServePolicy, SubmitOutcome, WaitOutcome};
pub use server::Server;

use std::path::Path;

/// Errors from the service machinery itself (never from jobs — those are
/// typed [`pim_harness::JobResult`]s).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Journal or socket file I/O failed.
    Io {
        /// Offending path.
        path: String,
        /// OS error rendered as text.
        what: String,
    },
    /// A journal file exists but is not a pim-serve journal.
    Journal {
        /// Journal path.
        path: String,
        /// What disagreed.
        what: String,
    },
    /// Network failure (bind, connect, read, write).
    Net {
        /// What failed.
        what: String,
    },
    /// The peer sent something unintelligible.
    Protocol {
        /// What failed to parse.
        what: String,
    },
    /// The server refused a request with a typed rejection.
    Rejected(Reject),
    /// A client-side deadline elapsed waiting for the server. Unlike
    /// [`ServeError::Net`], a timeout is terminal — the client does not
    /// auto-reconnect on it, because the server may still be working.
    Timeout {
        /// What timed out.
        what: String,
    },
    /// Internal invariant failure (thread spawn, poisoned lock).
    Internal {
        /// Description.
        what: String,
    },
}

impl ServeError {
    pub(crate) fn io(path: &Path, e: &std::io::Error) -> Self {
        Self::Io { path: path.display().to_string(), what: e.to_string() }
    }

    pub(crate) fn journal(path: &Path, what: &str) -> Self {
        Self::Journal { path: path.display().to_string(), what: what.to_string() }
    }

    pub(crate) fn net(e: &std::io::Error) -> Self {
        Self::Net { what: e.to_string() }
    }

    pub(crate) fn protocol(what: impl Into<String>) -> Self {
        Self::Protocol { what: what.into() }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io { path, what } => write!(f, "{path}: {what}"),
            ServeError::Journal { path, what } => {
                write!(f, "journal {path} is not usable: {what}")
            }
            ServeError::Net { what } => write!(f, "network error: {what}"),
            ServeError::Protocol { what } => write!(f, "protocol error: {what}"),
            ServeError::Rejected(r) => {
                write!(f, "rejected ({}): {}", r.kind.label(), r.reason)
            }
            ServeError::Timeout { what } => write!(f, "timed out: {what}"),
            ServeError::Internal { what } => write!(f, "internal error: {what}"),
        }
    }
}

impl std::error::Error for ServeError {}
