//! Supervised, resumable, panic-isolated sweep runner.
//!
//! Large reproduction sweeps (workload × execution mode × fault plan)
//! must survive individual bad configurations: one panicking kernel, one
//! hung simulation, or one invalid geometry must not abort the other
//! hundreds of jobs, and a killed sweep must not restart from zero. This
//! crate supplies that layer with nothing beyond `std`:
//!
//! * **Isolation** — a fixed [`pool`] of worker threads runs each
//!   [`Job`] under `catch_unwind`; a panic becomes a typed
//!   [`JobFailure::Panicked`] in the failure report. The same pool, with
//!   its two [`Priority`] lanes, runs `pim-serve`'s jobs.
//! * **Supervision** — per-attempt wall-clock deadlines abandon stuck
//!   workers, and the simulated-time [`pim_faults::Watchdog`] is threaded
//!   to every job so runaway simulations trip
//!   `DmpimError::WatchdogTimeout`. Timeout strikes quarantine a job;
//!   transient faults retry with capped exponential backoff.
//! * **Resume** — a JSONL journal checkpoints each terminal result; a
//!   killed sweep resumed via [`Harness::resume_from`] re-runs only
//!   unfinished jobs and merges to bit-identical output (results carry
//!   their payloads as strings, so restored and recomputed runs render
//!   identically).
//! * **Determinism** — results are merged in input-job order, so
//!   `workers = N` produces byte-identical merged output to a serial run
//!   for any `N`.
//!
//! ```
//! use pim_harness::{Harness, HarnessPolicy, Job};
//!
//! let jobs: Vec<Job> = (0..4)
//!     .map(|i| Job::new(format!("square-{i}"), move |_ctx| Ok(format!("{}", i * i))))
//!     .collect();
//! let report = Harness::new(HarnessPolicy { workers: 2, ..HarnessPolicy::default() })
//!     .run(jobs)
//!     .unwrap();
//! assert!(report.all_ok());
//! assert_eq!(report.results[3].output.as_deref(), Some("9"));
//! ```

pub mod job;
pub mod journal;
pub mod pool;
pub mod report;
pub mod supervisor;

pub use job::{Job, JobCtx, JobFailure, JobResult, JobStatus};
pub use journal::{FsyncPolicy, JournalSink, RecordWriter};
pub use pool::Priority;
pub use report::{FailureSummary, SweepReport};
pub use supervisor::{Harness, HarnessError, HarnessPolicy};

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    use pim_faults::{DmpimError, FaultKind};

    use super::*;

    fn quick_policy(workers: usize) -> HarnessPolicy {
        HarnessPolicy {
            workers,
            retry_backoff: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(4),
            ..HarnessPolicy::default()
        }
    }

    fn square_jobs(n: usize) -> Vec<Job> {
        (0..n)
            .map(|i| Job::new(format!("sq-{i:02}"), move |_ctx| Ok(format!("{}", i * i))))
            .collect()
    }

    #[test]
    fn parallel_matches_serial() {
        let serial = Harness::new(quick_policy(1)).run(square_jobs(8)).unwrap();
        let parallel = Harness::new(quick_policy(4)).run(square_jobs(8)).unwrap();
        assert_eq!(serial.results, parallel.results);
        assert_eq!(
            serial.to_json_value().render(),
            parallel.to_json_value().render(),
            "merged report must be independent of worker count"
        );
    }

    #[test]
    fn panic_is_isolated_and_siblings_survive() {
        let mut jobs = square_jobs(5);
        jobs.insert(
            2,
            Job::new("panicker", |_ctx| -> Result<String, DmpimError> {
                panic!("injected panic");
            }),
        );
        let report = Harness::new(quick_policy(3)).run(jobs).unwrap();
        let summary = report.summary();
        assert_eq!(summary.total, 6);
        assert_eq!(summary.succeeded, 5);
        assert_eq!(summary.failed, 1);
        assert_eq!(summary.taxonomy.get("panic"), Some(&1));
        let failed = &report.results[2];
        assert_eq!(failed.status, JobStatus::Failed);
        assert_eq!(failed.attempts, 1, "panics are deterministic: no retry");
        assert!(failed.error.as_deref().unwrap().contains("injected panic"));
    }

    #[test]
    fn transient_faults_retry_then_succeed() {
        let tries = Arc::new(AtomicUsize::new(0));
        let t = Arc::clone(&tries);
        let jobs = vec![Job::new("flaky", move |ctx| {
            t.fetch_add(1, Ordering::SeqCst);
            if ctx.attempt < 3 {
                Err(DmpimError::FaultTransient { kind: FaultKind::BitFlip, at_ps: 7 })
            } else {
                Ok("recovered".to_string())
            }
        })];
        let report = Harness::new(quick_policy(1)).run(jobs).unwrap();
        assert_eq!(tries.load(Ordering::SeqCst), 3);
        let r = &report.results[0];
        assert_eq!(r.status, JobStatus::Succeeded);
        assert_eq!(r.attempts, 3);
        assert_eq!(report.summary().retried, 1);
    }

    #[test]
    fn transient_retries_are_capped() {
        let jobs = vec![Job::new("always-flaky", |_ctx| {
            Err(DmpimError::FaultTransient { kind: FaultKind::BitFlip, at_ps: 1 })
        })];
        let policy = HarnessPolicy { max_retries: 2, ..quick_policy(1) };
        let report = Harness::new(policy).run(jobs).unwrap();
        let r = &report.results[0];
        assert_eq!(r.status, JobStatus::Failed);
        assert_eq!(r.attempts, 3, "initial try + 2 retries");
        assert!(report.summary().taxonomy.contains_key("bit-flip"));
    }

    #[test]
    fn watchdog_timeouts_quarantine_after_strikes() {
        let jobs = vec![Job::new("hung-sim", |_ctx| {
            Err(DmpimError::WatchdogTimeout { what: "host events", limit: 10, at_ps: 99 })
        })];
        let policy = HarnessPolicy { quarantine_strikes: 2, ..quick_policy(1) };
        let report = Harness::new(policy).run(jobs).unwrap();
        let r = &report.results[0];
        assert_eq!(r.status, JobStatus::Quarantined);
        assert_eq!(r.attempts, 2);
        assert_eq!(report.summary().quarantined, 1);
        assert_eq!(report.summary().taxonomy.get("watchdog-timeout"), Some(&1));
    }

    #[test]
    fn wall_deadline_abandons_hung_workers() {
        let mut jobs = square_jobs(3);
        jobs.push(Job::new("hung-wall", |_ctx| {
            std::thread::sleep(Duration::from_millis(400));
            Ok("too late".to_string())
        }));
        let policy = HarnessPolicy {
            wall_deadline: Some(Duration::from_millis(30)),
            quarantine_strikes: 2,
            ..quick_policy(2)
        };
        let report = Harness::new(policy).run(jobs).unwrap();
        let hung = &report.results[3];
        assert_eq!(hung.status, JobStatus::Quarantined);
        assert_eq!(hung.error_label.as_deref(), Some("wall-timeout"));
        assert_eq!(report.summary().succeeded, 3, "siblings survive the hang");
    }

    #[test]
    fn duplicate_ids_are_rejected() {
        let jobs = vec![
            Job::new("same", |_ctx| Ok(String::new())),
            Job::new("same", |_ctx| Ok(String::new())),
        ];
        assert!(matches!(
            Harness::new(quick_policy(1)).run(jobs),
            Err(HarnessError::DuplicateJob { .. })
        ));
    }

    #[test]
    fn journal_resume_skips_completed_jobs() {
        let mut path = std::env::temp_dir();
        path.push(format!("pim-harness-lib-resume-{}.jsonl", std::process::id()));

        let ran = Arc::new(AtomicUsize::new(0));
        let make_jobs = |counter: Arc<AtomicUsize>| -> Vec<Job> {
            (0..6)
                .map(|i| {
                    let c = Arc::clone(&counter);
                    Job::new(format!("j{i}"), move |_ctx| {
                        c.fetch_add(1, Ordering::SeqCst);
                        Ok(format!("out-{i}"))
                    })
                })
                .collect()
        };

        // Full journaled run as the reference.
        let reference = Harness::new(quick_policy(1))
            .with_journal(&path)
            .run(make_jobs(Arc::clone(&ran)))
            .unwrap();
        assert_eq!(ran.load(Ordering::SeqCst), 6);

        // Simulate a kill after 3 completed jobs: keep header + 3 lines.
        let text = std::fs::read_to_string(&path).unwrap();
        let keep: Vec<&str> = text.lines().take(4).collect();
        std::fs::write(&path, format!("{}\n", keep.join("\n"))).unwrap();

        let reran = Arc::new(AtomicUsize::new(0));
        let resumed = Harness::new(quick_policy(1))
            .resume_from(&path)
            .run(make_jobs(Arc::clone(&reran)))
            .unwrap();
        assert_eq!(reran.load(Ordering::SeqCst), 3, "only unfinished jobs re-run");
        assert_eq!(resumed.resumed, 3);
        assert_eq!(resumed.results, reference.results);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn per_job_tracks_are_created_when_traced() {
        let tracer = pim_trace::Tracer::new();
        let jobs = vec![Job::new("traced", |ctx: &JobCtx| {
            ctx.tracer.complete(ctx.track, "work", 0, 100);
            Ok("done".to_string())
        })];
        let report = Harness::new(quick_policy(1)).with_tracer(&tracer).run(jobs).unwrap();
        assert!(report.all_ok());
        assert!(tracer.tracks().iter().any(|t| t == "job:traced"), "{:?}", tracer.tracks());
    }
}
