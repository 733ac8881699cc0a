//! Jobs, attempt outcomes, and terminal results.
//!
//! A [`Job`] is a named closure producing a deterministic string payload.
//! The supervisor runs each attempt under `catch_unwind`, classifies the
//! outcome as a [`JobFailure`] on error, and eventually records a terminal
//! [`JobResult`] for every job — the unit that is journaled and merged.

use std::fmt;
use std::sync::Arc;

use pim_faults::{DmpimError, Watchdog};
use pim_trace::{Tracer, TrackId};

/// The closure type a job runs. It receives per-attempt context and
/// returns the job's payload string (merged into sweep output) or a
/// simulation error.
pub type JobFn = dyn Fn(&JobCtx) -> Result<String, DmpimError> + Send + Sync;

/// One schedulable unit of work in a sweep.
///
/// The closure is held in an [`Arc`] because an abandoned (hung) worker
/// may still be executing it while the supervisor dispatches a retry on a
/// replacement worker.
#[derive(Clone)]
pub struct Job {
    /// Stable identifier; the journal keys completed work by this id, so
    /// it must be unique within a sweep and stable across resumes.
    pub id: String,
    /// The work itself.
    pub run: Arc<JobFn>,
    /// Deterministic seed this job was derived from, if any. Carried into
    /// the terminal [`JobResult`] and the journal so quarantined
    /// configurations can be replayed from the failure report alone.
    pub seed: Option<u64>,
}

impl Job {
    /// Build a job from an id and a closure.
    pub fn new<F>(id: impl Into<String>, f: F) -> Self
    where
        F: Fn(&JobCtx) -> Result<String, DmpimError> + Send + Sync + 'static,
    {
        Self { id: id.into(), run: Arc::new(f), seed: None }
    }

    /// Attach the deterministic seed this job was derived from.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }
}

impl fmt::Debug for Job {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Job").field("id", &self.id).finish_non_exhaustive()
    }
}

/// Per-attempt context handed to the job closure.
#[derive(Debug, Clone)]
pub struct JobCtx {
    /// The job's id (same as [`Job::id`]).
    pub job_id: String,
    /// 1-based attempt number (2+ means this is a retry).
    pub attempt: u32,
    /// Shared tracer; a no-op when the harness runs untraced, and
    /// metrics-only under `pim-serve`.
    pub tracer: Tracer,
    /// A track dedicated to this job (`job:<id>`) so its spans do not
    /// interleave with sibling jobs on shared tracks. [`TrackId::NONE`]
    /// when the tracer keeps no event log, as under `pim-serve`, which
    /// registers no per-job track.
    pub track: TrackId,
    /// Simulated-time watchdog the job should arm on its contexts so hung
    /// simulations trip [`DmpimError::WatchdogTimeout`] instead of
    /// spinning forever.
    pub watchdog: Watchdog,
}

/// Why one attempt of a job did not produce a payload.
#[derive(Debug, Clone, PartialEq)]
pub enum JobFailure {
    /// The closure panicked; the panic was caught and the payload message
    /// extracted where possible.
    Panicked {
        /// Panic payload rendered as text.
        message: String,
    },
    /// The attempt exceeded the harness's wall-clock deadline and its
    /// worker was abandoned.
    WallTimeout {
        /// The deadline that was exceeded, in milliseconds.
        limit_ms: u64,
    },
    /// The closure returned a typed simulation error.
    Sim(DmpimError),
}

impl JobFailure {
    /// Short taxonomy label for failure-report counts.
    pub fn label(&self) -> &'static str {
        match self {
            JobFailure::Panicked { .. } => "panic",
            JobFailure::WallTimeout { .. } => "wall-timeout",
            JobFailure::Sim(e) => e.label(),
        }
    }

    /// True for timeout-class failures (wall-clock or simulated
    /// watchdog), which count as strikes toward quarantine.
    pub fn is_timeout(&self) -> bool {
        matches!(self, JobFailure::WallTimeout { .. })
            || matches!(self, JobFailure::Sim(DmpimError::WatchdogTimeout { .. }))
    }

    /// True for transient simulation faults worth an ordinary retry.
    pub fn is_transient(&self) -> bool {
        matches!(self, JobFailure::Sim(e) if e.is_transient())
    }
}

impl fmt::Display for JobFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobFailure::Panicked { message } => write!(f, "panicked: {message}"),
            JobFailure::WallTimeout { limit_ms } => {
                write!(f, "exceeded wall-clock deadline of {limit_ms} ms")
            }
            JobFailure::Sim(e) => write!(f, "{e}"),
        }
    }
}

/// Terminal disposition of a job after all retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Produced a payload (possibly after retries).
    Succeeded,
    /// Gave up: panic, exhausted transient retries, or a persistent
    /// non-timeout error.
    Failed,
    /// Hit the timeout strike limit and was benched; its configuration is
    /// considered bricked.
    Quarantined,
}

impl JobStatus {
    /// Journal / JSON label.
    pub fn label(&self) -> &'static str {
        match self {
            JobStatus::Succeeded => "ok",
            JobStatus::Failed => "failed",
            JobStatus::Quarantined => "quarantined",
        }
    }

    /// Inverse of [`JobStatus::label`].
    pub fn from_label(s: &str) -> Option<Self> {
        match s {
            "ok" => Some(JobStatus::Succeeded),
            "failed" => Some(JobStatus::Failed),
            "quarantined" => Some(JobStatus::Quarantined),
            _ => None,
        }
    }
}

/// The journaled, mergeable record of one finished job.
///
/// Everything is carried as strings so that a result restored from the
/// journal is bit-identical to one computed in-process.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Job id.
    pub id: String,
    /// Terminal status.
    pub status: JobStatus,
    /// Total attempts consumed (1 = first try succeeded or failed hard).
    pub attempts: u32,
    /// Payload for succeeded jobs.
    pub output: Option<String>,
    /// Taxonomy label of the terminal failure, if any.
    pub error_label: Option<String>,
    /// Human-readable terminal failure, if any.
    pub error: Option<String>,
    /// Seed copied from [`Job::seed`] (round-tripped through the journal)
    /// so failed or quarantined configurations are replayable from the
    /// report alone.
    pub seed: Option<u64>,
}

impl JobResult {
    /// A successful result.
    pub fn ok(id: impl Into<String>, attempts: u32, output: String) -> Self {
        Self {
            id: id.into(),
            status: JobStatus::Succeeded,
            attempts,
            output: Some(output),
            error_label: None,
            error: None,
            seed: None,
        }
    }

    /// A terminal failure (failed or quarantined).
    pub fn failed(id: impl Into<String>, status: JobStatus, attempts: u32, failure: &JobFailure) -> Self {
        Self {
            id: id.into(),
            status,
            attempts,
            output: None,
            error_label: Some(failure.label().to_string()),
            error: Some(failure.to_string()),
            seed: None,
        }
    }

    /// Attach the originating job's seed.
    #[must_use]
    pub fn with_seed(mut self, seed: Option<u64>) -> Self {
        self.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_faults::FaultKind;

    #[test]
    fn failure_classification() {
        let p = JobFailure::Panicked { message: "boom".into() };
        assert_eq!(p.label(), "panic");
        assert!(!p.is_timeout());
        assert!(!p.is_transient());

        let w = JobFailure::WallTimeout { limit_ms: 10 };
        assert_eq!(w.label(), "wall-timeout");
        assert!(w.is_timeout());

        let sim_wd = JobFailure::Sim(DmpimError::WatchdogTimeout {
            what: "events",
            limit: 5,
            at_ps: 100,
        });
        assert_eq!(sim_wd.label(), "watchdog-timeout");
        assert!(sim_wd.is_timeout());
        assert!(!sim_wd.is_transient());

        let t = JobFailure::Sim(DmpimError::FaultTransient { kind: FaultKind::BitFlip, at_ps: 1 });
        assert!(t.is_transient());
        assert!(!t.is_timeout());
    }

    #[test]
    fn status_labels_round_trip() {
        for s in [JobStatus::Succeeded, JobStatus::Failed, JobStatus::Quarantined] {
            assert_eq!(JobStatus::from_label(s.label()), Some(s));
        }
        assert_eq!(JobStatus::from_label("nope"), None);
    }
}
