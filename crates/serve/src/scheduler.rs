//! The service scheduler: admission, the write-ahead journal, the job
//! table and its waiters, over the harness's supervised pool.
//!
//! Jobs enter through [`Scheduler::submit`] (admission-controlled,
//! write-ahead journaled) and run on a [`pim_harness::pool::Pool`] in
//! their [`Priority`] lane. One supervisor thread owns the pool and steps
//! it, folding each terminal result into the job table (journaled,
//! waiters woken) and counting retries. Deadlines, abandoned workers,
//! retry with backoff and quarantine are the pool's, so the failure
//! taxonomy is the harness's by construction.
//!
//! Unlike the harness — which runs one fixed sweep to completion — the
//! scheduler is a *service*: jobs arrive until a drain
//! ([`Scheduler::drain`]) stops admission and the supervisor exits once
//! the last in-flight job lands, or a hard stop ([`Scheduler::stop_now`])
//! starts no queued attempt and leaves the queue to the journal for the
//! next incarnation to recover.

use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use pim_faults::DmpimError;
use pim_harness::pool::{Event, Pool, Submitter};
use pim_harness::{FsyncPolicy, HarnessPolicy, Job, JobCtx, JobResult, JobStatus, Priority};
use pim_trace::Tracer;

use crate::protocol::{Reject, RejectKind, Stats};
use crate::quota::{ClientLedger, QuotaPolicy};
use crate::recovery::{RecoveredState, ServeJournal, Submission};
use crate::ServeError;

/// Resolves a job spec (e.g. `experiment:fig18`) to its payload. The
/// scheduler is generic over this, so `pim-serve` has no dependency on
/// the bench crate — the binary registers the catalog at startup.
pub type Resolver = Arc<dyn Fn(&str, &JobCtx) -> Result<String, DmpimError> + Send + Sync>;

/// Pool and admission policy for the service.
#[derive(Debug, Clone)]
pub struct ServePolicy {
    /// Workers, retries, quarantine, deadlines and journal durability,
    /// as for a harness sweep. The service defaults to 2 workers and
    /// `FsyncPolicy::Data` (fdatasync per record), because the journal is
    /// a write-ahead log: an un-synced submission can be admitted,
    /// acknowledged, and lost.
    pub harness: HarnessPolicy,
    /// Admission limits.
    pub quota: QuotaPolicy,
}

impl Default for ServePolicy {
    fn default() -> Self {
        Self {
            harness: HarnessPolicy {
                workers: 2,
                fsync: FsyncPolicy::Data,
                ..HarnessPolicy::default()
            },
            quota: QuotaPolicy::default(),
        }
    }
}

/// What [`Scheduler::submit`] decided.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitOutcome {
    /// Admitted (or attached to an existing identical submission).
    /// `state` is `queued`, `done`, or `attached`.
    Accepted {
        /// Current job state.
        state: &'static str,
    },
    /// Refused with a typed reason; nothing was enqueued.
    Rejected(Reject),
}

/// What [`Scheduler::wait`] returned.
#[derive(Debug, Clone, PartialEq)]
pub enum WaitOutcome {
    /// Terminal result.
    Done(JobResult),
    /// The bounded wait elapsed first.
    Timeout,
    /// No job with that id was ever admitted.
    Unknown,
    /// The scheduler stopped (hard stop) before the job finished; the
    /// journal carries its submission for the next incarnation.
    Stopped,
}

/// One admitted job's record in the job table.
#[derive(Debug)]
struct Entry {
    id: String,
    client: String,
    spec: String,
    result: Option<JobResult>,
}

/// State behind the scheduler's single mutex.
struct State {
    entries: Vec<Entry>,
    index: HashMap<String, usize>,
    ledger: ClientLedger,
    journal: Option<ServeJournal>,
    draining: bool,
    /// Supervisor exited (drain complete or hard stop).
    stopped: bool,
}

/// Monotonic service counters (lock-free reads for stats/metrics).
#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    succeeded: AtomicU64,
    failed: AtomicU64,
    quarantined: AtomicU64,
    retries: AtomicU64,
    recovered: AtomicU64,
    /// Journal records (submissions or results) that failed to persist.
    journal_dropped: AtomicU64,
    /// Sticky: set on the first journal write failure, never cleared.
    journal_degraded: AtomicBool,
    /// The degradation warning is logged once, not per record.
    journal_warned: AtomicBool,
}

struct Core {
    quota: QuotaPolicy,
    resolver: Resolver,
    tracer: Tracer,
    state: Mutex<State>,
    /// Signalled on every terminal result (waiters) and on stop.
    done_cv: Condvar,
    pool: Submitter,
    stop_now: AtomicBool,
    counters: Counters,
}

/// The running service. Cheap to share (`Arc` internally is not needed —
/// the server wraps the whole scheduler in an `Arc`).
pub struct Scheduler {
    core: Arc<Core>,
    supervisor: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Scheduler {
    /// Start the worker pool and supervisor. With a journal path, any
    /// existing journal is replayed first: finished jobs are restored
    /// verbatim, unfinished submissions re-enqueued, and the journal kept
    /// open for appending.
    pub fn start(
        policy: ServePolicy,
        resolver: Resolver,
        tracer: Tracer,
        journal_path: Option<&Path>,
    ) -> Result<Self, ServeError> {
        let (journal, recovered) = match journal_path {
            Some(path) => {
                let (j, state) = ServeJournal::recover_opts(path, policy.harness.fsync)?;
                (Some(j), state)
            }
            None => (None, RecoveredState::default()),
        };
        Self::start_with_journal(policy, resolver, tracer, journal, recovered)
    }

    /// [`Scheduler::start`] over an already-open journal (tests inject
    /// chaos-wrapped sinks through [`ServeJournal::from_sink`] here).
    pub fn start_with_journal(
        policy: ServePolicy,
        resolver: Resolver,
        tracer: Tracer,
        journal: Option<ServeJournal>,
        recovered: RecoveredState,
    ) -> Result<Self, ServeError> {
        // Shape-stable gauges so the first /metrics scrape already shows
        // every key.
        for g in ["serve.in_flight", "serve.workers", "serve.clients", "serve.queue_depth"] {
            tracer.register_gauge(g, 0.0);
        }
        // Per-attempt wall-time histogram in ms (1 ms .. ~4 s, then
        // overflow): registered up front so a Prometheus scrape sees the
        // family before the first job completes.
        tracer.register_histogram("serve.job_wall_ms", &[1, 4, 16, 64, 256, 1_024, 4_096]);

        let (pool, submitter) = Pool::start(&policy.harness, &tracer);
        let core = Arc::new(Core {
            quota: policy.quota,
            resolver,
            tracer,
            state: Mutex::new(State {
                entries: Vec::new(),
                index: HashMap::new(),
                ledger: ClientLedger::new(),
                journal,
                draining: false,
                stopped: false,
            }),
            done_cv: Condvar::new(),
            pool: submitter,
            stop_now: AtomicBool::new(false),
            counters: Counters::default(),
        });
        core.tracer.gauge("serve.workers", core.pool.live_workers() as f64);
        core.replay(recovered);

        let sup_core = Arc::clone(&core);
        let supervisor = std::thread::Builder::new()
            .name("pim-serve-supervisor".into())
            .spawn(move || supervise(&sup_core, pool))
            .map_err(|e| ServeError::Internal { what: format!("spawn supervisor: {e}") })?;

        Ok(Self { core, supervisor: Mutex::new(Some(supervisor)) })
    }

    /// Submit one job in the default (`Normal`) priority lane.
    pub fn submit(&self, client: &str, id: &str, spec: &str) -> SubmitOutcome {
        self.submit_priority(client, id, spec, Priority::Normal)
    }

    /// Submit one job. Admission control and the write-ahead journal
    /// line happen atomically under the state lock, so a crash can never
    /// admit a job without journaling it. `priority` picks the queue
    /// lane; an idempotent re-submission attaches to the existing job and
    /// does not re-litigate its class.
    pub fn submit_priority(
        &self,
        client: &str,
        id: &str,
        spec: &str,
        priority: Priority,
    ) -> SubmitOutcome {
        let core = &self.core;
        let Ok(mut st) = core.state.lock() else {
            return SubmitOutcome::Rejected(Reject::new(RejectKind::Internal, "state poisoned"));
        };
        if let Some(&idx) = st.index.get(id) {
            let e = &mut st.entries[idx];
            // Idempotent attach: identical re-submission (e.g. a client
            // retrying after a server crash) joins the existing job. A
            // recovered orphan (empty spec) adopts the client's spec.
            if e.spec.is_empty() && e.result.is_some() {
                e.spec = spec.to_string();
            } else if e.spec != spec {
                return SubmitOutcome::Rejected(Reject::new(
                    RejectKind::SpecConflict,
                    format!("job {id:?} already exists with spec {:?}", e.spec),
                ));
            }
            let state = if e.result.is_some() { "done" } else { "attached" };
            return SubmitOutcome::Accepted { state };
        }
        if st.draining || st.stopped || core.stop_now.load(Ordering::SeqCst) {
            return SubmitOutcome::Rejected(Reject::new(
                RejectKind::Draining,
                "server is draining and admits no new jobs",
            ));
        }
        if let Err(rej) = st.ledger.admit(client, &core.quota) {
            self.core.tracer.count("serve.overloaded", 1);
            return SubmitOutcome::Rejected(rej);
        }
        let sub = Submission {
            id: id.to_string(),
            client: client.to_string(),
            spec: spec.to_string(),
            priority,
        };
        if let Some(j) = st.journal.as_mut() {
            if let Err(e) = j.record_submission(&sub) {
                // Write-ahead failed (torn write, disk full, …): admit
                // anyway and degrade. Refusing work because the *journal*
                // is sick would turn a durability problem into an
                // availability outage; the cost is that this job will not
                // recover if the server crashes before finishing it.
                core.note_journal_drop("submission", &sub.id, &e);
            }
        }
        let job = core.job(&sub.id, &sub.spec);
        let slot = st.entries.len();
        st.index.insert(sub.id.clone(), slot);
        st.entries.push(Entry { id: sub.id, client: sub.client, spec: sub.spec, result: None });
        core.counters.submitted.fetch_add(1, Ordering::Relaxed);
        core.tracer.count("serve.submitted", 1);
        core.tracer.gauge_add("serve.in_flight", 1.0);
        core.tracer.gauge_add("serve.queue_depth", 1.0);
        core.tracer.gauge("serve.clients", st.ledger.client_count() as f64);
        drop(st);
        core.pool.push(slot, job, priority);
        SubmitOutcome::Accepted { state: "queued" }
    }

    /// Non-blocking result lookup.
    pub fn result(&self, id: &str) -> Option<JobResult> {
        let st = self.core.state.lock().ok()?;
        let idx = *st.index.get(id)?;
        st.entries[idx].result.clone()
    }

    /// Block until the job is terminal, the optional timeout elapses, or
    /// the scheduler hard-stops.
    pub fn wait(&self, id: &str, timeout: Option<Duration>) -> WaitOutcome {
        let deadline = timeout.map(|t| Instant::now() + t);
        let Ok(mut st) = self.core.state.lock() else { return WaitOutcome::Stopped };
        loop {
            let Some(&idx) = st.index.get(id) else { return WaitOutcome::Unknown };
            if let Some(r) = &st.entries[idx].result {
                return WaitOutcome::Done(r.clone());
            }
            if st.stopped || self.core.stop_now.load(Ordering::SeqCst) {
                return WaitOutcome::Stopped;
            }
            let wait = match deadline {
                Some(d) => {
                    let left = d.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return WaitOutcome::Timeout;
                    }
                    left.min(Duration::from_millis(100))
                }
                None => Duration::from_millis(100),
            };
            st = match self.core.done_cv.wait_timeout(st, wait) {
                Ok((guard, _)) => guard,
                Err(_) => return WaitOutcome::Stopped,
            };
        }
    }

    /// Job ids submitted by `client`, in submission order — the order a
    /// thin client replays results in.
    pub fn job_ids_for(&self, client: &str) -> Vec<String> {
        self.core
            .state
            .lock()
            .map(|st| {
                st.entries
                    .iter()
                    .filter(|e| e.client == client)
                    .map(|e| e.id.clone())
                    .collect()
            })
            .unwrap_or_default()
    }

    /// A point-in-time statistics snapshot. Taken under the state lock,
    /// which every admission and terminal result also holds, so each
    /// snapshot satisfies `submitted == completed + in_flight`.
    pub fn stats(&self) -> Stats {
        let c = &self.core.counters;
        let st = self.core.state.lock().ok();
        let (in_flight, clients, draining, overloaded) = st.as_ref().map_or((0, 0, 0, 0), |st| {
            (
                st.ledger.total_in_flight as u64,
                st.ledger.client_count() as u64,
                u64::from(st.draining),
                st.ledger.total_rejected(),
            )
        });
        Stats {
            submitted: c.submitted.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            succeeded: c.succeeded.load(Ordering::Relaxed),
            failed: c.failed.load(Ordering::Relaxed),
            quarantined: c.quarantined.load(Ordering::Relaxed),
            retries: c.retries.load(Ordering::Relaxed),
            overloaded,
            steals: 0,
            in_flight,
            workers: self.core.pool.live_workers() as u64,
            clients,
            recovered: c.recovered.load(Ordering::Relaxed),
            draining,
            journal_dropped: c.journal_dropped.load(Ordering::Relaxed),
            journal_degraded: u64::from(c.journal_degraded.load(Ordering::Relaxed)),
        }
    }

    /// `(degraded, dropped)`: has any journal write failed, and how many
    /// records were lost. Feeds `/healthz`.
    pub fn journal_health(&self) -> (bool, u64) {
        let c = &self.core.counters;
        (
            c.journal_degraded.load(Ordering::Relaxed),
            c.journal_dropped.load(Ordering::Relaxed),
        )
    }

    /// Graceful shutdown: stop admitting, finish everything in flight
    /// (including pending retries), then stop the pool. Use
    /// [`Scheduler::join`] to wait for completion. Zero journal loss:
    /// every admitted job reaches a journaled terminal state.
    pub fn drain(&self) {
        if let Ok(mut st) = self.core.state.lock() {
            st.draining = true;
        }
        self.core.pool.wake();
    }

    /// Hard stop: no queued attempt starts once this returns; queued
    /// and running jobs stay journaled as submissions for the next
    /// incarnation to recover. In-progress attempts finish (std threads
    /// cannot be killed) but their results are not awaited.
    pub fn stop_now(&self) {
        self.core.stop_now.store(true, Ordering::SeqCst);
        self.core.pool.halt();
        self.core.done_cv.notify_all();
    }

    /// True once the supervisor has exited.
    pub fn is_stopped(&self) -> bool {
        self.core.state.lock().map(|st| st.stopped).unwrap_or(true)
    }

    /// True once a drain has been requested (or the scheduler stopped).
    pub fn is_draining(&self) -> bool {
        self.core
            .state
            .lock()
            .map(|st| st.draining || st.stopped)
            .unwrap_or(true)
    }

    /// Wait for the supervisor (and with it the drain) to finish.
    pub fn join(&self) {
        let handle = self.supervisor.lock().ok().and_then(|mut s| s.take());
        if let Some(h) = handle {
            let _ = h.join();
        }
    }
}

impl Core {
    /// Install the replayed journal state: restored results count as
    /// completed; unfinished submissions re-enter the queue in their
    /// original lane.
    fn replay(&self, recovered: RecoveredState) {
        let Ok(mut st) = self.state.lock() else { return };
        for sub in recovered.submissions {
            let slot = st.entries.len();
            let result = recovered.results.get(&sub.id).cloned();
            st.index.insert(sub.id.clone(), slot);
            // Recovered jobs were admitted before the crash; quota
            // must not re-litigate them.
            st.ledger.admit_unchecked(&sub.client);
            self.counters.submitted.fetch_add(1, Ordering::Relaxed);
            self.counters.recovered.fetch_add(1, Ordering::Relaxed);
            if let Some(r) = &result {
                st.ledger.release(&sub.client);
                self.count_terminal(r.status);
            } else {
                self.tracer.gauge_add("serve.in_flight", 1.0);
                self.tracer.gauge_add("serve.queue_depth", 1.0);
                self.pool.push(slot, self.job(&sub.id, &sub.spec), sub.priority);
            }
            st.entries.push(Entry { id: sub.id, client: sub.client, spec: sub.spec, result });
        }
        self.tracer.gauge("serve.clients", st.ledger.client_count() as f64);
    }

    /// The pool job for one admitted submission. Each attempt books
    /// `serve.queue_depth` as it starts, then `serve.attempts` and
    /// `serve.job_wall_ms` (host wall time) as it ends, panicked ones
    /// included.
    fn job(&self, id: &str, spec: &str) -> Job {
        let resolver = Arc::clone(&self.resolver);
        let spec = spec.to_string();
        Job::new(id, move |ctx| {
            ctx.tracer.gauge_add("serve.queue_depth", -1.0);
            let t0 = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| resolver(&spec, ctx)));
            ctx.tracer.count("serve.attempts", 1);
            ctx.tracer.observe("serve.job_wall_ms", t0.elapsed().as_millis() as u64);
            outcome.unwrap_or_else(|panic| resume_unwind(panic))
        })
    }

    /// Record the terminal result of the job in `slot`: journal it,
    /// release its quota and wake its waiters.
    fn finish(&self, slot: usize, result: JobResult) {
        let Ok(mut guard) = self.state.lock() else { return };
        let st = &mut *guard;
        let Some(e) = st.entries.get_mut(slot) else { return };
        if let Some(j) = st.journal.as_mut() {
            if let Err(err) = j.record_result(&result) {
                // The result is still served from memory; only the recovery
                // record for a *future* crash is degraded.
                self.note_journal_drop("result", &result.id, &err);
            }
        }
        // Count the job before the lock drops, so no `stats` snapshot and no
        // returned `wait` can see it released from the ledger but not done.
        st.ledger.release(&e.client);
        self.count_terminal(result.status);
        // The table keeps a copy made on this thread. The payload was built
        // on a worker, whose heap churns simulation state at job rate, and
        // a long-lived string left there pins its pages: without the copy
        // a 600-job `serve` session peaked about 4% higher on a 2-vCPU host.
        e.result = Some(result.clone());
        drop(guard);
        self.tracer.count("serve.completed", 1);
        self.tracer.gauge_add("serve.in_flight", -1.0);
        self.done_cv.notify_all();
    }

    /// Fold one failed journal write into the degradation state: count
    /// it, latch the sticky degraded flag, and log the first occurrence
    /// (later drops only move the counters — a sick disk would otherwise
    /// flood the log at job rate).
    fn note_journal_drop(&self, what: &str, id: &str, err: &ServeError) {
        self.counters.journal_dropped.fetch_add(1, Ordering::Relaxed);
        self.counters.journal_degraded.store(true, Ordering::Relaxed);
        self.tracer.count("serve.journal_dropped", 1);
        if !self.counters.journal_warned.swap(true, Ordering::Relaxed) {
            eprintln!(
                "pim-serve: journal degraded ({what} record for {id:?} dropped, \
                 service continues): {err}"
            );
        }
    }

    fn count_terminal(&self, status: JobStatus) {
        self.counters.completed.fetch_add(1, Ordering::Relaxed);
        match status {
            JobStatus::Succeeded => &self.counters.succeeded,
            JobStatus::Failed => &self.counters.failed,
            JobStatus::Quarantined => &self.counters.quarantined,
        }
        .fetch_add(1, Ordering::Relaxed);
    }
}

/// The supervisor loop: step the pool until a hard stop, or until a drain
/// finds nothing in flight (the ledger counts queued, running and
/// retry-delayed jobs alike until they are terminal).
fn supervise(core: &Core, mut pool: Pool) {
    let mut workers = core.pool.live_workers();
    loop {
        let hard_stop = core.stop_now.load(Ordering::SeqCst);
        let drained = core
            .state
            .lock()
            .map(|st| st.draining && st.ledger.total_in_flight == 0)
            .unwrap_or(true);
        if hard_stop || drained {
            break;
        }
        for event in pool.step(Duration::from_millis(100)) {
            match event {
                Event::Done(slot, result) => core.finish(slot, result),
                Event::Retry(_) => {
                    core.counters.retries.fetch_add(1, Ordering::Relaxed);
                    core.tracer.count("serve.retries", 1);
                    core.tracer.gauge_add("serve.queue_depth", 1.0);
                }
            }
        }
        // Abandoned workers and their replacements move the count.
        let live = core.pool.live_workers();
        if live != workers {
            workers = live;
            core.tracer.gauge("serve.workers", live as f64);
        }
    }
    // A hard stop skips the joins: running attempts may be long, and the
    // journal already guarantees recovery.
    pool.stop(!core.stop_now.load(Ordering::SeqCst));
    core.tracer.gauge("serve.workers", core.pool.live_workers() as f64);
    if let Ok(mut st) = core.state.lock() {
        st.stopped = true;
    }
    core.done_cv.notify_all();
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicUsize;

    use super::*;

    fn echo_resolver() -> Resolver {
        Arc::new(|spec: &str, _ctx: &JobCtx| Ok(format!("ran:{spec}")))
    }

    fn quick_policy() -> ServePolicy {
        ServePolicy {
            harness: HarnessPolicy {
                workers: 2,
                retry_backoff: Duration::from_millis(1),
                backoff_cap: Duration::from_millis(4),
                ..ServePolicy::default().harness
            },
            ..ServePolicy::default()
        }
    }

    fn start(policy: ServePolicy, resolver: Resolver) -> Scheduler {
        Scheduler::start(policy, resolver, Tracer::disabled(), None).unwrap()
    }

    #[test]
    fn submit_wait_roundtrip_over_many_jobs() {
        let s = start(ServePolicy { harness: HarnessPolicy { workers: 4, ..quick_policy().harness }, ..quick_policy() }, echo_resolver());
        for i in 0..50 {
            let out = s.submit("c1", &format!("j{i}"), &format!("spec-{i}"));
            assert_eq!(out, SubmitOutcome::Accepted { state: "queued" });
        }
        for i in 0..50 {
            match s.wait(&format!("j{i}"), Some(Duration::from_secs(10))) {
                WaitOutcome::Done(r) => {
                    assert_eq!(r.output.as_deref(), Some(format!("ran:spec-{i}").as_str()));
                    assert_eq!(r.attempts, 1);
                }
                other => panic!("j{i}: {other:?}"),
            }
        }
        let stats = s.stats();
        assert_eq!(stats.submitted, 50);
        assert_eq!(stats.succeeded, 50);
        assert_eq!(stats.in_flight, 0);
        s.drain();
        s.join();
        assert!(s.is_stopped());
    }

    #[test]
    fn stats_snapshots_balance_and_count_every_waited_job() {
        // A poller hammers `stats` while batches of echo jobs are admitted
        // and finish: every snapshot must balance admitted jobs against
        // completed + in flight, and a job whose `wait` has returned must
        // already be counted as completed.
        let s = Arc::new(start(ServePolicy { harness: HarnessPolicy { workers: 4, ..quick_policy().harness }, ..quick_policy() }, echo_resolver()));
        let stop = Arc::new(AtomicBool::new(false));
        let poller = {
            let (s, stop) = (Arc::clone(&s), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut snapshots = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    let st = s.stats();
                    assert_eq!(st.submitted, st.completed + st.in_flight, "{st:?}");
                    snapshots += 1;
                    std::thread::yield_now();
                }
                snapshots
            })
        };
        let mut waited = 0u64;
        for batch in 0..15 {
            let ids: Vec<String> = (0..20).map(|i| format!("b{batch}-j{i}")).collect();
            for id in &ids {
                assert_eq!(s.submit("c1", id, id), SubmitOutcome::Accepted { state: "queued" });
            }
            for id in &ids {
                assert!(matches!(s.wait(id, Some(Duration::from_secs(10))), WaitOutcome::Done(_)));
                waited += 1;
                let completed = s.stats().completed;
                assert!(completed >= waited, "{id} returned from wait; completed {completed}");
            }
        }
        stop.store(true, Ordering::SeqCst);
        let snapshots = poller.join().expect("a stats snapshot did not balance");
        assert!(snapshots > 0);
        let st = s.stats();
        assert_eq!((st.submitted, st.completed, st.in_flight), (300, 300, 0));
        s.drain();
        s.join();
    }

    #[test]
    fn duplicate_submission_attaches_and_conflicting_spec_rejects() {
        let s = start(quick_policy(), echo_resolver());
        assert_eq!(s.submit("c1", "job", "spec-a"), SubmitOutcome::Accepted { state: "queued" });
        // Identical resubmission: attach (either still running or done).
        match s.submit("c1", "job", "spec-a") {
            SubmitOutcome::Accepted { state } => assert!(state == "attached" || state == "done"),
            other => panic!("{other:?}"),
        }
        match s.submit("c2", "job", "spec-b") {
            SubmitOutcome::Rejected(rej) => assert_eq!(rej.kind, RejectKind::SpecConflict),
            other => panic!("{other:?}"),
        }
        assert!(matches!(s.wait("job", Some(Duration::from_secs(5))), WaitOutcome::Done(_)));
        assert_eq!(s.stats().submitted, 1, "attach admits nothing new");
        s.drain();
        s.join();
    }

    #[test]
    fn quota_rejections_are_typed_and_release_on_completion() {
        // One slow worker + tiny quota: the 3rd concurrent submit from
        // one client must get a typed overloaded, not a hang.
        let resolver: Resolver = Arc::new(|spec: &str, _ctx| {
            std::thread::sleep(Duration::from_millis(100));
            Ok(spec.to_string())
        });
        let policy = ServePolicy {
            harness: HarnessPolicy { workers: 1, ..quick_policy().harness },
            quota: QuotaPolicy { max_in_flight_per_client: 2, max_queue_depth: 100 },
        };
        let s = start(policy, resolver);
        assert!(matches!(s.submit("c1", "a", "s"), SubmitOutcome::Accepted { .. }));
        assert!(matches!(s.submit("c1", "b", "s"), SubmitOutcome::Accepted { .. }));
        match s.submit("c1", "c", "s") {
            SubmitOutcome::Rejected(rej) => {
                assert_eq!(rej.kind, RejectKind::Overloaded);
                assert_eq!(rej.scope, Some("client"));
            }
            other => panic!("{other:?}"),
        }
        // Another client is unaffected.
        assert!(matches!(s.submit("c2", "d", "s"), SubmitOutcome::Accepted { .. }));
        // Once a slot frees, the same client is admitted again.
        assert!(matches!(s.wait("a", Some(Duration::from_secs(5))), WaitOutcome::Done(_)));
        assert!(matches!(s.submit("c1", "c", "s"), SubmitOutcome::Accepted { .. }));
        assert_eq!(s.stats().overloaded, 1);
        s.drain();
        s.join();
    }

    #[test]
    fn panics_are_isolated_and_transients_retry() {
        let attempts = Arc::new(AtomicUsize::new(0));
        let a = Arc::clone(&attempts);
        let resolver: Resolver = Arc::new(move |spec: &str, ctx| match spec {
            "panic" => panic!("injected panic"),
            "flaky" => {
                a.fetch_add(1, Ordering::SeqCst);
                if ctx.attempt < 3 {
                    Err(DmpimError::FaultTransient {
                        kind: pim_faults::FaultKind::BitFlip,
                        at_ps: 7,
                    })
                } else {
                    Ok("recovered".into())
                }
            }
            other => Ok(other.to_string()),
        });
        let s = start(quick_policy(), resolver);
        s.submit("c1", "p", "panic");
        s.submit("c1", "f", "flaky");
        s.submit("c1", "ok", "fine");
        let p = match s.wait("p", Some(Duration::from_secs(5))) {
            WaitOutcome::Done(r) => r,
            other => panic!("{other:?}"),
        };
        assert_eq!(p.status, JobStatus::Failed);
        assert_eq!(p.error_label.as_deref(), Some("panic"));
        let f = match s.wait("f", Some(Duration::from_secs(5))) {
            WaitOutcome::Done(r) => r,
            other => panic!("{other:?}"),
        };
        assert_eq!(f.status, JobStatus::Succeeded);
        assert_eq!(f.attempts, 3);
        assert_eq!(attempts.load(Ordering::SeqCst), 3);
        assert!(matches!(s.wait("ok", Some(Duration::from_secs(5))), WaitOutcome::Done(_)));
        assert!(s.stats().retries >= 2);
        s.drain();
        s.join();
    }

    #[test]
    fn queue_depth_counts_only_jobs_no_worker_has_started() {
        // One worker whose resolver reports each start, then blocks until
        // released, so the gauges can be read while the first job runs.
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let (started_tx, release_rx) = (Mutex::new(started_tx), Mutex::new(release_rx));
        let resolver: Resolver = Arc::new(move |spec: &str, ctx| {
            started_tx.lock().unwrap().send(()).unwrap();
            release_rx.lock().unwrap().recv().unwrap();
            if spec == "flaky" && ctx.attempt == 1 {
                return Err(DmpimError::FaultTransient {
                    kind: pim_faults::FaultKind::BitFlip,
                    at_ps: 7,
                });
            }
            Ok(spec.to_string())
        });
        let tracer = Tracer::metrics_only();
        let policy = ServePolicy { harness: HarnessPolicy { workers: 1, ..quick_policy().harness }, ..quick_policy() };
        let s = Scheduler::start(policy, resolver, tracer.clone(), None).unwrap();
        for (id, spec) in [("a", "fine"), ("b", "fine"), ("c", "flaky")] {
            s.submit("c1", id, spec);
        }
        started_rx.recv_timeout(Duration::from_secs(10)).unwrap();
        let gauges = || {
            (tracer.gauge_value("serve.queue_depth"), tracer.gauge_value("serve.in_flight"))
        };
        assert_eq!(gauges(), (2.0, 3.0), "the running job is in flight, not queued");
        // Three first attempts and the flaky job's retry.
        for _ in 0..4 {
            release_tx.send(()).unwrap();
        }
        s.drain();
        s.join();
        assert_eq!(s.stats().retries, 1);
        assert_eq!(gauges(), (0.0, 0.0));
    }

    #[test]
    fn a_hard_stop_starts_no_queued_attempt() {
        // One worker blocked in `a`, with `b` and `c` queued behind it.
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let (started_tx, release_rx) = (Mutex::new(started_tx), Mutex::new(release_rx));
        let resolver: Resolver = Arc::new(move |spec: &str, _ctx| {
            started_tx.lock().unwrap().send(spec.to_string()).unwrap();
            if spec == "a" {
                release_rx.lock().unwrap().recv().unwrap();
            }
            Ok(spec.to_string())
        });
        let policy = ServePolicy {
            harness: HarnessPolicy { workers: 1, ..quick_policy().harness },
            ..quick_policy()
        };
        let s = start(policy, resolver);
        for id in ["a", "b", "c"] {
            s.submit("c1", id, id);
        }
        assert_eq!(started_rx.recv_timeout(Duration::from_secs(10)).unwrap(), "a");
        s.stop_now();
        release_tx.send(()).unwrap();
        s.join();
        // The released worker goes back to the queue, finds the stop and
        // exits instead of starting `b`.
        let deadline = Instant::now() + Duration::from_secs(10);
        while s.stats().workers > 0 {
            assert!(Instant::now() < deadline, "the worker never exited");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(started_rx.try_recv().ok(), None, "a queued attempt started after the stop");
        for id in ["b", "c"] {
            assert_eq!(s.wait(id, Some(Duration::from_secs(1))), WaitOutcome::Stopped, "{id}");
        }
    }

    #[test]
    fn wall_deadline_quarantines_hung_jobs_and_pool_survives() {
        let resolver: Resolver = Arc::new(|spec: &str, _ctx| {
            if spec == "hang" {
                std::thread::sleep(Duration::from_millis(500));
            }
            Ok(spec.to_string())
        });
        let policy = ServePolicy {
            harness: HarnessPolicy {
                workers: 2,
                wall_deadline: Some(Duration::from_millis(40)),
                quarantine_strikes: 2,
                ..quick_policy().harness
            },
            ..quick_policy()
        };
        let s = start(policy, resolver);
        s.submit("c1", "h", "hang");
        for i in 0..6 {
            s.submit("c1", &format!("ok{i}"), &format!("fine-{i}"));
        }
        let h = match s.wait("h", Some(Duration::from_secs(10))) {
            WaitOutcome::Done(r) => r,
            other => panic!("{other:?}"),
        };
        assert_eq!(h.status, JobStatus::Quarantined);
        assert_eq!(h.error_label.as_deref(), Some("wall-timeout"));
        for i in 0..6 {
            match s.wait(&format!("ok{i}"), Some(Duration::from_secs(10))) {
                WaitOutcome::Done(r) => assert_eq!(r.status, JobStatus::Succeeded),
                other => panic!("ok{i}: {other:?}"),
            }
        }
        assert_eq!(s.stats().quarantined, 1);
        s.drain();
        s.join();
    }

    #[test]
    fn drain_refuses_new_work_and_finishes_in_flight() {
        let resolver: Resolver = Arc::new(|spec: &str, _ctx| {
            std::thread::sleep(Duration::from_millis(30));
            Ok(spec.to_string())
        });
        let s = start(quick_policy(), resolver);
        for i in 0..8 {
            assert!(matches!(
                s.submit("c1", &format!("j{i}"), &format!("s{i}")),
                SubmitOutcome::Accepted { .. }
            ));
        }
        s.drain();
        match s.submit("c1", "late", "s") {
            SubmitOutcome::Rejected(rej) => assert_eq!(rej.kind, RejectKind::Draining),
            other => panic!("{other:?}"),
        }
        s.join();
        assert!(s.is_stopped());
        // Every admitted job reached a terminal state before the stop.
        let stats = s.stats();
        assert_eq!(stats.completed, 8, "drain loses nothing");
        assert_eq!(stats.in_flight, 0);
        for i in 0..8 {
            assert!(s.result(&format!("j{i}")).is_some());
        }
    }

    #[test]
    fn journal_recovery_resumes_unfinished_and_restores_finished() {
        let mut path = std::env::temp_dir();
        path.push(format!("pim-serve-sched-recover-{}.jsonl", std::process::id()));
        std::fs::remove_file(&path).ok();

        // First incarnation: finish one job, then hard-stop with two
        // admitted-but-unfinished (the resolver blocks them).
        let gate = Arc::new(AtomicBool::new(false));
        let g = Arc::clone(&gate);
        let resolver: Resolver = Arc::new(move |spec: &str, _ctx| {
            if spec.starts_with("slow") {
                while !g.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
            Ok(format!("ran:{spec}"))
        });
        let s = Scheduler::start(
            ServePolicy { harness: HarnessPolicy { workers: 1, ..quick_policy().harness }, ..quick_policy() },
            resolver,
            Tracer::disabled(),
            Some(&path),
        )
        .unwrap();
        s.submit("c1", "fast", "quick");
        assert!(matches!(s.wait("fast", Some(Duration::from_secs(5))), WaitOutcome::Done(_)));
        s.submit("c1", "s1", "slow-1");
        s.submit("c1", "s2", "slow-2");
        s.stop_now();
        s.join();
        gate.store(true, Ordering::SeqCst); // unblock the zombie worker

        // Second incarnation: replays the journal.
        let s2 = Scheduler::start(
            ServePolicy { harness: HarnessPolicy { workers: 2, ..quick_policy().harness }, ..quick_policy() },
            echo_resolver(),
            Tracer::disabled(),
            Some(&path),
        )
        .unwrap();
        let stats = s2.stats();
        assert_eq!(stats.recovered, 3, "all three submissions replayed");
        // The finished job is restored bit-identically, without re-running.
        match s2.wait("fast", Some(Duration::from_secs(5))) {
            WaitOutcome::Done(r) => assert_eq!(r.output.as_deref(), Some("ran:quick")),
            other => panic!("{other:?}"),
        }
        // The unfinished ones re-ran under the new resolver.
        for id in ["s1", "s2"] {
            match s2.wait(id, Some(Duration::from_secs(5))) {
                WaitOutcome::Done(r) => {
                    assert!(r.output.as_deref().unwrap().starts_with("ran:slow-"));
                }
                other => panic!("{id}: {other:?}"),
            }
        }
        s2.drain();
        s2.join();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn journal_degradation_keeps_serving_and_is_reported() {
        use pim_chaos::{ChaosConfig, ChaosFile, ChaosPlan};

        let mut path = std::env::temp_dir();
        path.push(format!("pim-serve-sched-degraded-{}.jsonl", std::process::id()));
        std::fs::remove_file(&path).ok();

        // Disk-full onset right after the header: every record write
        // fails, but the service must keep computing and serving results
        // from memory, reporting the degradation in stats.
        let file = ChaosFile::create(&path, ChaosPlan::new(ChaosConfig::disk_full(40), 7)).unwrap();
        let journal =
            ServeJournal::from_sink(&path, Box::new(file), FsyncPolicy::Off).unwrap();
        let s = Scheduler::start_with_journal(
            quick_policy(),
            echo_resolver(),
            Tracer::disabled(),
            Some(journal),
            RecoveredState::default(),
        )
        .unwrap();
        for i in 0..10 {
            assert!(
                matches!(s.submit("c1", &format!("j{i}"), &format!("s{i}")), SubmitOutcome::Accepted { .. }),
                "a sick journal must not refuse admission"
            );
        }
        for i in 0..10 {
            match s.wait(&format!("j{i}"), Some(Duration::from_secs(10))) {
                WaitOutcome::Done(r) => assert_eq!(r.output.as_deref(), Some(format!("ran:s{i}").as_str())),
                other => panic!("j{i}: {other:?}"),
            }
        }
        let stats = s.stats();
        assert_eq!(stats.succeeded, 10);
        assert_eq!(stats.journal_degraded, 1, "degradation is sticky and visible");
        assert!(stats.journal_dropped >= 10, "every failed record is counted: {}", stats.journal_dropped);
        let (degraded, dropped) = s.journal_health();
        assert!(degraded);
        assert_eq!(dropped, stats.journal_dropped);
        s.drain();
        s.join();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_200_job_burst_completes_on_4_workers() {
        // A burst from one client, far more jobs than workers, all taken
        // from the one shared queue.
        let resolver: Resolver = Arc::new(|spec: &str, _ctx| {
            std::thread::sleep(Duration::from_micros(200));
            Ok(spec.to_string())
        });
        let policy = ServePolicy {
            harness: HarnessPolicy { workers: 4, ..quick_policy().harness },
            quota: QuotaPolicy { max_in_flight_per_client: 0, max_queue_depth: 0 },
        };
        let s = start(policy, resolver);
        for i in 0..200 {
            s.submit("c1", &format!("j{i}"), &format!("s{i}"));
        }
        for i in 0..200 {
            assert!(matches!(
                s.wait(&format!("j{i}"), Some(Duration::from_secs(30))),
                WaitOutcome::Done(_)
            ));
        }
        let stats = s.stats();
        assert_eq!(stats.succeeded, 200);
        s.drain();
        s.join();
    }
}
