//! The sweep runner: one fixed sweep on the supervised [`pool`], run to
//! completion.
//!
//! The caller of [`Harness::run`] is the pool's supervisor: it steps the
//! pool until every job is terminal (see [`crate::pool`] for the retry
//! and quarantine taxonomy), journaling each terminal result as it
//! lands, so a killed sweep resumes from its journal re-running only
//! unfinished jobs.
//!
//! [`pool`]: crate::pool

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::Duration;

use pim_chaos::ChaosConfig;
use pim_faults::Watchdog;
use pim_trace::Tracer;

use crate::job::{Job, JobResult};
use crate::journal::{compact_journal, read_journal, sweep_header, FsyncPolicy, RecordWriter};
use crate::pool::{Event, Pool, Priority};
use crate::report::SweepReport;

/// Retry, quarantine, deadline, and parallelism policy for one sweep.
#[derive(Debug, Clone)]
pub struct HarnessPolicy {
    /// Worker threads. 1 reproduces a serial run exactly.
    pub workers: usize,
    /// Max ordinary retries for transient simulation faults.
    pub max_retries: u32,
    /// Timeout strikes (wall or simulated watchdog) before a job is
    /// quarantined.
    pub quarantine_strikes: u32,
    /// Base backoff between retries of the same job.
    pub retry_backoff: Duration,
    /// Cap on the exponentially growing backoff.
    pub backoff_cap: Duration,
    /// Per-attempt wall-clock deadline; `None` disables wall supervision.
    pub wall_deadline: Option<Duration>,
    /// Simulated-time watchdog handed to every job via
    /// [`JobCtx`](crate::JobCtx).
    pub watchdog: Watchdog,
    /// Journal durability: when to force record bytes to stable storage.
    pub fsync: FsyncPolicy,
}

impl Default for HarnessPolicy {
    fn default() -> Self {
        Self {
            workers: 1,
            max_retries: 2,
            quarantine_strikes: 2,
            retry_backoff: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(80),
            wall_deadline: None,
            watchdog: Watchdog::unlimited(),
            fsync: FsyncPolicy::Off,
        }
    }
}

impl HarnessPolicy {
    /// Backoff before retry number `retry` (1-based), doubling from
    /// [`HarnessPolicy::retry_backoff`] up to [`HarnessPolicy::backoff_cap`].
    ///
    /// Fully saturating: any retry count — up to `u32::MAX` — and any
    /// base/cap combination produces a well-defined duration clamped to
    /// the cap, never an overflow panic.
    pub fn backoff_for(&self, retry: u32) -> Duration {
        let exp = retry.saturating_sub(1);
        // 2^exp as a saturating u32 factor; Duration::saturating_mul
        // absorbs the rest. Exponents ≥ 31 would overflow the shift and
        // are already far past any realistic cap.
        let factor = match 1u32.checked_shl(exp) {
            Some(f) if exp < 31 => f,
            _ => u32::MAX,
        };
        self.retry_backoff.saturating_mul(factor).min(self.backoff_cap)
    }
}

/// Errors from the harness itself (never from jobs — those are folded
/// into [`JobResult`]s).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HarnessError {
    /// Journal file I/O failed.
    Io {
        /// Journal path.
        path: String,
        /// OS error rendered as text.
        what: String,
    },
    /// A resume journal does not belong to this sweep.
    JournalMismatch {
        /// Journal path.
        path: String,
        /// What disagreed.
        what: String,
    },
    /// Two jobs share an id; the journal could not distinguish them.
    DuplicateJob {
        /// The offending id.
        id: String,
    },
}

impl HarnessError {
    pub(crate) fn io(path: &Path, e: &std::io::Error) -> Self {
        Self::Io { path: path.display().to_string(), what: e.to_string() }
    }

    pub(crate) fn mismatch(path: &Path, what: &str) -> Self {
        Self::JournalMismatch { path: path.display().to_string(), what: what.to_string() }
    }
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HarnessError::Io { path, what } => write!(f, "journal {path}: {what}"),
            HarnessError::JournalMismatch { path, what } => {
                write!(f, "journal {path} does not match this sweep: {what}")
            }
            HarnessError::DuplicateJob { id } => write!(f, "duplicate job id {id:?}"),
        }
    }
}

impl std::error::Error for HarnessError {}

/// The sweep runner. Build with [`Harness::new`], optionally attach a
/// tracer and journal, then call [`Harness::run`].
pub struct Harness {
    policy: HarnessPolicy,
    tracer: Tracer,
    journal: Option<PathBuf>,
    resume: bool,
    journal_chaos: Option<(ChaosConfig, u64)>,
}

impl Harness {
    /// A harness with the given policy, no tracing, no journal.
    pub fn new(policy: HarnessPolicy) -> Self {
        Self {
            policy,
            tracer: Tracer::disabled(),
            journal: None,
            resume: false,
            journal_chaos: None,
        }
    }

    /// Attach a tracer; each job gets its own `job:<id>` track.
    #[must_use]
    pub fn with_tracer(mut self, tracer: &Tracer) -> Self {
        self.tracer = tracer.clone();
        self
    }

    /// Journal terminal results to `path`, truncating any existing file.
    #[must_use]
    pub fn with_journal(mut self, path: impl Into<PathBuf>) -> Self {
        self.journal = Some(path.into());
        self.resume = false;
        self
    }

    /// Resume from (and keep appending to) the journal at `path`.
    #[must_use]
    pub fn resume_from(mut self, path: impl Into<PathBuf>) -> Self {
        self.journal = Some(path.into());
        self.resume = true;
        self
    }

    /// Wrap the journal file in a seeded chaos fault plan (testing only):
    /// journal writes then suffer the plan's torn writes, transient stalls
    /// and disk-full onsets while the sweep itself keeps computing.
    #[must_use]
    pub fn with_journal_chaos(mut self, cfg: ChaosConfig, seed: u64) -> Self {
        self.journal_chaos = Some((cfg, seed));
        self
    }

    /// Run the sweep to completion and return the merged report.
    ///
    /// # Errors
    ///
    /// Only harness-level problems (duplicate job ids, journal I/O or
    /// mismatch) surface as `Err`. Job failures of every kind — panics,
    /// timeouts, simulation errors — are captured in the report.
    pub fn run(&self, jobs: Vec<Job>) -> Result<SweepReport, HarnessError> {
        let mut seen = HashSet::new();
        for j in &jobs {
            if !seen.insert(j.id.clone()) {
                return Err(HarnessError::DuplicateJob { id: j.id.clone() });
            }
        }

        // Restore completed work from the journal when resuming.
        let mut slots: Vec<Option<JobResult>> = vec![None; jobs.len()];
        let mut resumed = 0usize;
        let mut journal_skipped = 0usize;
        let mut writer = match (&self.journal, self.resume) {
            (Some(path), true) if path.exists() => {
                let state = read_journal(path, jobs.len())?;
                // Corrupt lines were skipped by the reader; entries whose
                // (possibly mangled) id matches no job in this sweep are
                // skipped the same way — a damaged journal re-runs work,
                // it never aborts the resume.
                journal_skipped = state.skipped
                    + state.results.keys().filter(|id| !seen.contains(*id)).count();
                for (idx, job) in jobs.iter().enumerate() {
                    if let Some(r) = state.results.get(&job.id) {
                        slots[idx] = Some(r.clone());
                        resumed += 1;
                    }
                }
                if state.skipped > 0 || state.duplicates > 0 {
                    // Heal the damage before appending: rewrite the journal
                    // as header + intact records via atomic tmp+rename. A
                    // failed compaction (e.g. full disk) is not fatal — the
                    // reader tolerates the debris anyway.
                    if let Err(e) = compact_journal(path, &state, jobs.len()) {
                        eprintln!("pim-harness: journal compaction skipped: {e}");
                    }
                }
                Some(RecordWriter::append(path, self.policy.fsync, self.journal_chaos)?)
            }
            // Resuming from a journal that does not exist yet degrades to
            // a fresh journaled run, so the first and the resumed
            // invocation can share a command line.
            (Some(path), _) => {
                match RecordWriter::create(
                    path,
                    &sweep_header(jobs.len()),
                    self.policy.fsync,
                    self.journal_chaos,
                ) {
                    Ok(w) => Some(w),
                    // The file was created but the header write failed
                    // (torn write, disk already full, …). A headerless
                    // journal can never be resumed, so drop it and keep
                    // computing unjournaled rather than aborting the sweep.
                    Err(e) if path.exists() => {
                        eprintln!(
                            "pim-harness: journal disabled (header write failed), \
                             sweep continues unjournaled: {e}"
                        );
                        let _ = std::fs::remove_file(path);
                        None
                    }
                    Err(e) => return Err(e),
                }
            }
            (None, _) => None,
        };
        // With the journal requested but unavailable, every pending result
        // counts as dropped from persistence.
        let journal_disabled = self.journal.is_some() && writer.is_none();

        let pending = slots.iter().filter(|s| s.is_none()).count();
        let mut journal_dropped = if pending == 0 {
            0
        } else {
            self.supervise(jobs, pending, &mut slots, writer.as_mut())
        };
        if journal_disabled {
            journal_dropped += pending;
        }
        drop(writer);

        let results = slots.into_iter().map(|s| s.expect("every job has a terminal result")).collect();
        Ok(SweepReport { results, resumed, journal_skipped, journal_dropped })
    }

    /// Run every job without a restored result on the pool, supervising
    /// on the caller's thread, until each has a terminal result in
    /// `slots`. Returns how many terminal results could not be journaled
    /// (journal degradation: the sweep keeps computing; dropped records
    /// simply re-run on resume).
    fn supervise(
        &self,
        jobs: Vec<Job>,
        pending: usize,
        slots: &mut [Option<JobResult>],
        writer: Option<&mut RecordWriter>,
    ) -> usize {
        let mut writer = JournalLane { writer, dropped: 0, warned: false };
        let policy =
            HarnessPolicy { workers: self.policy.workers.max(1).min(pending), ..self.policy.clone() };
        let (mut pool, submitter) = Pool::start(&policy, &self.tracer);
        // Dispatch in input order.
        for (slot, job) in jobs.into_iter().enumerate() {
            if slots[slot].is_none() {
                submitter.push(slot, job, Priority::Normal);
            }
        }
        while !pool.idle() {
            for event in pool.step(Duration::MAX) {
                if let Event::Done(slot, result) = event {
                    writer.record(&result);
                    slots[slot] = Some(result);
                }
            }
        }
        pool.stop(true);
        writer.dropped
    }
}

/// Degrading journal front-end for the supervisor: a failed record write
/// (torn write, full disk, …) is counted and logged once instead of
/// aborting the sweep — the computation always completes; a dropped record
/// simply re-runs on the next resume.
struct JournalLane<'a> {
    writer: Option<&'a mut RecordWriter>,
    dropped: usize,
    warned: bool,
}

impl JournalLane<'_> {
    fn record(&mut self, r: &JobResult) {
        if let Some(w) = self.writer.as_deref_mut() {
            if let Err(e) = w.record(r) {
                self.dropped += 1;
                if !self.warned {
                    self.warned = true;
                    eprintln!(
                        "pim-harness: journal degraded (record dropped, sweep continues): {e}"
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_then_saturates_at_the_cap() {
        let p = HarnessPolicy {
            retry_backoff: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(80),
            ..HarnessPolicy::default()
        };
        assert_eq!(p.backoff_for(1), Duration::from_millis(5));
        assert_eq!(p.backoff_for(2), Duration::from_millis(10));
        assert_eq!(p.backoff_for(4), Duration::from_millis(40));
        // Retry 5 doubles to exactly the cap; retry 6 would overshoot and
        // is clamped — the cap boundary.
        assert_eq!(p.backoff_for(5), Duration::from_millis(80));
        assert_eq!(p.backoff_for(6), Duration::from_millis(80));
    }

    #[test]
    fn extreme_retry_counts_cannot_overflow_duration_math() {
        let p = HarnessPolicy {
            retry_backoff: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(80),
            ..HarnessPolicy::default()
        };
        // Shift exponents at and past the u32 width, including u32::MAX,
        // must clamp to the cap rather than panic on `1 << 32`.
        for retry in [31, 32, 33, 64, 1_000_000, u32::MAX] {
            assert_eq!(p.backoff_for(retry), Duration::from_millis(80), "retry={retry}");
        }
        // A pathological base backoff saturates inside Duration, then
        // clamps to the cap.
        let huge = HarnessPolicy {
            retry_backoff: Duration::MAX,
            backoff_cap: Duration::from_secs(1),
            ..HarnessPolicy::default()
        };
        assert_eq!(huge.backoff_for(u32::MAX), Duration::from_secs(1));
        // Retry 0 (not a real retry number, but callers may pass it)
        // degrades to the base backoff instead of underflowing.
        assert_eq!(p.backoff_for(0), Duration::from_millis(5));
    }
}
