//! The work-stealing scheduler and its supervisor.
//!
//! Jobs enter through [`Scheduler::submit`] (admission-controlled,
//! write-ahead journaled) and land in the global [`Injector`]. Each
//! worker owns a bounded Chase–Lev [`WsDeque`] and scans in cost order:
//!
//! 1. **own deque** (LIFO pop — lock-free, cache-warm),
//! 2. **injector** (one lock amortized over a whole refill batch),
//! 3. **steal** from a sibling's deque (FIFO CAS).
//!
//! Supervision mirrors `pim_harness`: workers report `Started`/`Done` to
//! a supervisor thread that multiplexes completions against wall-clock
//! deadlines and delayed retries. A wall overrun *abandons* the stuck
//! worker — its retirement flag is set, its handle detached, a
//! replacement spawned with a **fresh** deque. The zombie keeps exclusive
//! ownership of its old deque (no two-owner race); any tasks still in it
//! remain stealable by the others, and the zombie retires at its next
//! loop check. Failure taxonomy is the harness's: timeout strikes
//! quarantine, transient faults retry with capped exponential backoff,
//! panics and persistent errors fail fast.
//!
//! Unlike the harness — which runs one fixed sweep to completion — the
//! scheduler is a *service*: jobs arrive forever until a drain
//! ([`Scheduler::drain`]) stops admission and the supervisor exits once
//! the last in-flight job lands, or a hard stop ([`Scheduler::stop_now`])
//! abandons the queue to the journal for the next incarnation to recover.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use pim_faults::{DmpimError, Watchdog};
use pim_harness::{FsyncPolicy, JobCtx, JobFailure, JobResult, JobStatus};
use pim_trace::Tracer;

use crate::deque::{Injector, Priority, Task, WsDeque};
use crate::protocol::{Reject, RejectKind, Stats};
use crate::quota::{ClientLedger, QuotaPolicy};
use crate::recovery::{RecoveredState, ServeJournal, Submission};
use crate::ServeError;

/// Resolves a job spec (e.g. `experiment:fig18`) to its payload. The
/// scheduler is generic over this, so `pim-serve` has no dependency on
/// the bench crate — the binary registers the catalog at startup.
pub type Resolver = Arc<dyn Fn(&str, &JobCtx) -> Result<String, DmpimError> + Send + Sync>;

/// Scheduling, retry, and admission policy for the service.
#[derive(Debug, Clone)]
pub struct ServePolicy {
    /// Worker threads.
    pub workers: usize,
    /// Max ordinary retries for transient simulation faults.
    pub max_retries: u32,
    /// Timeout strikes (wall or simulated watchdog) before quarantine.
    pub quarantine_strikes: u32,
    /// Base backoff between retries of the same job.
    pub retry_backoff: Duration,
    /// Cap on the exponentially growing backoff.
    pub backoff_cap: Duration,
    /// Per-attempt wall-clock deadline; `None` disables wall supervision.
    pub wall_deadline: Option<Duration>,
    /// Simulated-time watchdog handed to every job.
    pub watchdog: Watchdog,
    /// Admission limits.
    pub quota: QuotaPolicy,
    /// Per-worker deque capacity (overflow spills back to the injector).
    pub deque_capacity: usize,
    /// Tasks pulled from the injector per refill.
    pub refill_batch: usize,
    /// Journal durability: how much each record is synced before the
    /// corresponding state change becomes visible. Defaults to `Data`
    /// (fdatasync per record) because the journal is a write-ahead log —
    /// an un-synced submission can be admitted, acknowledged, and lost.
    pub fsync: FsyncPolicy,
}

impl Default for ServePolicy {
    fn default() -> Self {
        Self {
            workers: 2,
            max_retries: 2,
            quarantine_strikes: 2,
            retry_backoff: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(80),
            wall_deadline: None,
            watchdog: Watchdog::unlimited(),
            quota: QuotaPolicy::default(),
            deque_capacity: 64,
            refill_batch: 8,
            fsync: FsyncPolicy::Data,
        }
    }
}

impl ServePolicy {
    /// Backoff before retry `retry` (1-based): doubling from
    /// [`ServePolicy::retry_backoff`], clamped to
    /// [`ServePolicy::backoff_cap`], fully saturating (same contract as
    /// `pim_harness::HarnessPolicy::backoff_for`).
    pub fn backoff_for(&self, retry: u32) -> Duration {
        let exp = retry.saturating_sub(1);
        let factor = match 1u32.checked_shl(exp) {
            Some(f) if exp < 31 => f,
            _ => u32::MAX,
        };
        self.retry_backoff.saturating_mul(factor).min(self.backoff_cap)
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

/// One admitted job's full lifecycle record.
#[derive(Debug)]
struct Entry {
    id: String,
    client: String,
    spec: String,
    /// Queueing class; retries re-enter the injector in the same lane.
    priority: Priority,
    /// Current valid attempt (1-based). Bumped on every retry dispatch
    /// and on every write-off, so stale `Done`s from abandoned workers
    /// are detected by comparison.
    attempt: u32,
    strikes: u32,
    transient_retries: u32,
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
    steals: AtomicU64,
    recovered: AtomicU64,
    live_workers: AtomicU64,
    /// Journal records (submissions or results) that failed to persist.
    journal_dropped: AtomicU64,
    /// Sticky: set on the first journal write failure, never cleared.
    journal_degraded: AtomicBool,
    /// The degradation warning is logged once, not per record.
    journal_warned: AtomicBool,
}

struct Core {
    policy: ServePolicy,
    resolver: Resolver,
    tracer: Tracer,
    state: Mutex<State>,
    /// Signalled on every terminal result (waiters) and on stop.
    done_cv: Condvar,
    injector: Injector,
    /// Every deque ever issued — live workers' and zombies' alike — so
    /// leftover tasks in an abandoned deque stay stealable.
    deques: Mutex<Vec<Arc<WsDeque>>>,
    /// Poke channel into the supervisor (drain/stop notifications).
    sup_tx: Mutex<Option<Sender<Msg>>>,
    stop_now: AtomicBool,
    counters: Counters,
}

enum Msg {
    Started { worker: u64, task: Task },
    Done { task: Task, outcome: Result<String, JobFailure> },
    Poke,
}

struct WorkerSeat {
    retired: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<()>,
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
                let (j, state) = ServeJournal::recover_opts(path, policy.fsync)?;
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

        let core = Arc::new(Core {
            policy: policy.clone(),
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
            injector: Injector::new(),
            deques: Mutex::new(Vec::new()),
            sup_tx: Mutex::new(None),
            stop_now: AtomicBool::new(false),
            counters: Counters::default(),
        });

        Self::replay(&core, recovered);

        let (tx, rx) = std::sync::mpsc::channel::<Msg>();
        if let Ok(mut slot) = core.sup_tx.lock() {
            *slot = Some(tx.clone());
        }
        let mut seats = HashMap::new();
        for id in 0..policy.workers.max(1) as u64 {
            seats.insert(id, spawn_worker(&core, &tx, id));
        }
        let sup_core = Arc::clone(&core);
        let supervisor = std::thread::Builder::new()
            .name("pim-serve-supervisor".into())
            .spawn(move || supervise(&sup_core, &rx, &tx, seats))
            .map_err(|e| ServeError::Internal { what: format!("spawn supervisor: {e}") })?;

        Ok(Self { core, supervisor: Mutex::new(Some(supervisor)) })
    }

    /// Install the replayed journal state: restored results count as
    /// completed; unfinished submissions re-enter the queue.
    fn replay(core: &Arc<Core>, recovered: RecoveredState) {
        let mut tasks = Vec::new();
        {
            let Ok(mut st) = core.state.lock() else { return };
            for sub in recovered.submissions {
                let idx = st.entries.len();
                let result = recovered.results.get(&sub.id).cloned();
                st.index.insert(sub.id.clone(), idx);
                // Recovered jobs were admitted before the crash; quota
                // must not re-litigate them.
                st.ledger.admit_unchecked(&sub.client);
                core.counters.submitted.fetch_add(1, Ordering::Relaxed);
                core.counters.recovered.fetch_add(1, Ordering::Relaxed);
                if let Some(r) = &result {
                    st.ledger.release(&sub.client);
                    core.count_terminal(r.status);
                } else {
                    tasks.push((Task { job: idx as u32, attempt: 1 }, sub.priority));
                    core.tracer.gauge_add("serve.in_flight", 1.0);
                    core.tracer.gauge_add("serve.queue_depth", 1.0);
                }
                st.entries.push(Entry {
                    id: sub.id,
                    client: sub.client,
                    spec: sub.spec,
                    priority: sub.priority,
                    attempt: 1,
                    strikes: 0,
                    transient_retries: 0,
                    result,
                });
            }
            core.tracer.gauge("serve.clients", st.ledger.client_count() as f64);
        }
        core.injector.push_all(tasks);
    }

    /// Submit one job in the default (`Normal`) priority lane.
    pub fn submit(&self, client: &str, id: &str, spec: &str) -> SubmitOutcome {
        self.submit_priority(client, id, spec, Priority::Normal)
    }

    /// Submit one job. Admission control, the write-ahead journal line,
    /// and the enqueue happen atomically under the state lock, so a
    /// crash can never admit a job without journaling it. `priority`
    /// picks the injector lane; an idempotent re-submission attaches to
    /// the existing job and does not re-litigate its class.
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
        if let Err(rej) = st.ledger.admit(client, &core.policy.quota) {
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
        let idx = st.entries.len();
        st.index.insert(sub.id.clone(), idx);
        st.entries.push(Entry {
            id: sub.id,
            client: sub.client,
            spec: sub.spec,
            priority: sub.priority,
            attempt: 1,
            strikes: 0,
            transient_retries: 0,
            result: None,
        });
        core.counters.submitted.fetch_add(1, Ordering::Relaxed);
        core.tracer.count("serve.submitted", 1);
        core.tracer.gauge_add("serve.in_flight", 1.0);
        core.tracer.gauge_add("serve.queue_depth", 1.0);
        core.tracer.gauge("serve.clients", st.ledger.client_count() as f64);
        drop(st);
        core.injector.push(Task { job: idx as u32, attempt: 1 }, priority);
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
            steals: c.steals.load(Ordering::Relaxed),
            in_flight,
            workers: c.live_workers.load(Ordering::Relaxed),
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
        self.poke();
    }

    /// Hard stop: workers exit at their next loop check; queued and
    /// running jobs stay journaled as submissions for the next
    /// incarnation to recover. In-progress attempts finish (std threads
    /// cannot be killed) but their results are not awaited.
    pub fn stop_now(&self) {
        self.core.stop_now.store(true, Ordering::SeqCst);
        self.core.injector.cv.notify_all();
        self.core.done_cv.notify_all();
        self.poke();
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

    fn poke(&self) {
        let tx = self.core.sup_tx.lock().ok().and_then(|s| s.clone());
        if let Some(tx) = tx {
            let _ = tx.send(Msg::Poke);
        }
    }
}

impl Core {
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

    /// Is `task` still the live attempt of a live job? Stale tasks —
    /// written off by the supervisor, or already terminal — are dropped
    /// by workers without execution.
    fn attempt_current(&self, task: Task) -> bool {
        self.state
            .lock()
            .map(|st| {
                st.entries
                    .get(task.job as usize)
                    .is_some_and(|e| e.attempt == task.attempt && e.result.is_none())
            })
            .unwrap_or(false)
    }

    /// Clone the (id, spec) a worker needs to run `task`.
    fn job_spec(&self, task: Task) -> Option<(String, String)> {
        let st = self.state.lock().ok()?;
        let e = st.entries.get(task.job as usize)?;
        Some((e.id.clone(), e.spec.clone()))
    }
}

fn spawn_worker(core: &Arc<Core>, tx: &Sender<Msg>, id: u64) -> WorkerSeat {
    let deque = Arc::new(WsDeque::new(core.policy.deque_capacity));
    if let Ok(mut reg) = core.deques.lock() {
        reg.push(Arc::clone(&deque));
    }
    let retired = Arc::new(AtomicBool::new(false));
    let wc = Arc::clone(core);
    let wtx = tx.clone();
    let wretired = Arc::clone(&retired);
    let handle = std::thread::Builder::new()
        .name(format!("pim-serve-worker-{id}"))
        .spawn(move || worker_loop(&wc, &wtx, id, &deque, &wretired))
        .unwrap_or_else(|e| panic!("spawn pim-serve worker {id}: {e}"));
    core.counters.live_workers.fetch_add(1, Ordering::SeqCst);
    core.tracer.gauge_add("serve.workers", 1.0);
    WorkerSeat { retired, handle }
}

fn worker_loop(
    core: &Arc<Core>,
    tx: &Sender<Msg>,
    id: u64,
    own: &Arc<WsDeque>,
    retired: &Arc<AtomicBool>,
) {
    loop {
        if core.stop_now.load(Ordering::SeqCst) || retired.load(Ordering::SeqCst) {
            break;
        }
        let task = own
            .pop()
            .or_else(|| core.injector.pop_batch(own, core.policy.refill_batch.max(1)))
            .or_else(|| steal_from_siblings(core, own));
        let Some(task) = task else {
            core.injector.wait(Duration::from_millis(20));
            continue;
        };
        if !core.attempt_current(task) {
            continue; // written off or finished while queued
        }
        let Some((job_id, spec)) = core.job_spec(task) else { continue };
        if tx.send(Msg::Started { worker: id, task }).is_err() {
            break; // supervisor gone
        }
        let track = core.tracer.track(&format!("job:{job_id}"));
        let ctx = JobCtx {
            job_id,
            attempt: task.attempt,
            tracer: core.tracer.clone(),
            track,
            watchdog: core.policy.watchdog,
        };
        let resolver = Arc::clone(&core.resolver);
        let t0 = Instant::now();
        let outcome = match catch_unwind(AssertUnwindSafe(|| resolver(&spec, &ctx))) {
            Ok(Ok(payload)) => Ok(payload),
            Ok(Err(e)) => Err(JobFailure::Sim(e)),
            Err(panic) => Err(JobFailure::Panicked { message: panic_message(&*panic) }),
        };
        // Per-attempt progress metrics (host wall time; the trace instant
        // stitches the attempt outcome into the job's Perfetto track).
        let wall_ms = t0.elapsed().as_millis() as u64;
        core.tracer.count("serve.attempts", 1);
        core.tracer.observe("serve.job_wall_ms", wall_ms);
        if core.tracer.enabled() {
            core.tracer.instant_args(
                track,
                "attempt-finished",
                0,
                vec![
                    ("attempt", pim_trace::ArgValue::U64(task.attempt as u64)),
                    ("wall_ms", pim_trace::ArgValue::U64(wall_ms)),
                    ("ok", pim_trace::ArgValue::U64(u64::from(outcome.is_ok()))),
                ],
            );
        }
        if tx.send(Msg::Done { task, outcome }).is_err() {
            break;
        }
        // If the supervisor wrote this attempt off and retired us while
        // we were stuck in it, the top-of-loop check exits this worker; a
        // replacement with a fresh deque already took our seat, and our
        // deque's leftovers remain stealable by the survivors.
    }
    core.counters.live_workers.fetch_sub(1, Ordering::SeqCst);
    core.tracer.gauge_add("serve.workers", -1.0);
}

fn steal_from_siblings(core: &Arc<Core>, own: &Arc<WsDeque>) -> Option<Task> {
    let registry: Vec<Arc<WsDeque>> = core.deques.lock().ok()?.clone();
    for victim in &registry {
        if Arc::ptr_eq(victim, own) {
            continue;
        }
        if let Some(task) = victim.steal() {
            core.counters.steals.fetch_add(1, Ordering::Relaxed);
            core.tracer.count("serve.steals", 1);
            return Some(task);
        }
    }
    None
}

/// Tracked execution of one started attempt.
struct Outstanding {
    worker: u64,
    deadline: Option<Instant>,
}

fn supervise(
    core: &Arc<Core>,
    rx: &Receiver<Msg>,
    tx: &Sender<Msg>,
    mut seats: HashMap<u64, WorkerSeat>,
) {
    let mut next_worker_id = seats.keys().max().map_or(0, |m| m + 1);
    // Keyed by (job, attempt) — a written-off attempt's key simply goes
    // stale and is dropped when its Done (if any) arrives.
    let mut outstanding: HashMap<(u32, u32), Outstanding> = HashMap::new();
    let mut delayed: Vec<(Instant, Task, Priority)> = Vec::new();

    loop {
        // Promote due retries into the injector, preserving each job's
        // priority lane.
        let now = Instant::now();
        let mut promoted = Vec::new();
        delayed.retain(|(due, task, priority)| {
            if *due <= now {
                promoted.push((*task, *priority));
                false
            } else {
                true
            }
        });
        if !promoted.is_empty() {
            core.injector.push_all(promoted);
        }

        // Exit conditions: hard stop, or drain complete (nothing in
        // flight anywhere — ledger counts queued, running, and
        // retry-delayed jobs alike until they reach a terminal state).
        let hard_stop = core.stop_now.load(Ordering::SeqCst);
        let drained = core
            .state
            .lock()
            .map(|st| st.draining && st.ledger.total_in_flight == 0)
            .unwrap_or(true);
        if hard_stop || (drained && delayed.is_empty()) {
            break;
        }

        let next_at = outstanding
            .values()
            .filter_map(|o| o.deadline)
            .chain(delayed.iter().map(|(due, _, _)| *due))
            .min();
        let wait = next_at.map_or(Duration::from_millis(100), |at| {
            at.saturating_duration_since(Instant::now()).max(Duration::from_millis(1))
        });
        match rx.recv_timeout(wait) {
            Ok(Msg::Started { worker, task }) => {
                outstanding.insert(
                    (task.job, task.attempt),
                    Outstanding {
                        worker,
                        deadline: core.policy.wall_deadline.map(|d| Instant::now() + d),
                    },
                );
            }
            Ok(Msg::Done { task, outcome }) => {
                outstanding.remove(&(task.job, task.attempt));
                handle_done(core, task, outcome, &mut delayed);
            }
            Ok(Msg::Poke) => {}
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }

        // Expired wall deadlines: write the attempt off, abandon the
        // stuck worker, keep the pool at strength.
        let now = Instant::now();
        let expired: Vec<(u32, u32)> = outstanding
            .iter()
            .filter(|(_, o)| o.deadline.is_some_and(|d| d <= now))
            .map(|(&k, _)| k)
            .collect();
        for key in expired {
            let Some(o) = outstanding.remove(&key) else { continue };
            if let Some(seat) = seats.remove(&o.worker) {
                // Zombie: flagged to retire, handle detached (it may be
                // hung forever; std threads cannot be killed).
                seat.retired.store(true, Ordering::SeqCst);
                seats.insert(next_worker_id, spawn_worker(core, tx, next_worker_id));
                next_worker_id += 1;
            }
            let limit_ms = core.policy.wall_deadline.map_or(0, |d| d.as_millis() as u64);
            let task = Task { job: key.0, attempt: key.1 };
            handle_done(core, task, Err(JobFailure::WallTimeout { limit_ms }), &mut delayed);
        }
    }

    // Stop the pool: flag everyone, wake the parked, join the live. A
    // hard stop skips the joins — in-progress attempts may be long, and
    // the journal already guarantees recovery.
    for seat in seats.values() {
        seat.retired.store(true, Ordering::SeqCst);
    }
    core.injector.cv.notify_all();
    if !core.stop_now.load(Ordering::SeqCst) {
        for (_, seat) in seats.drain() {
            let _ = seat.handle.join();
        }
    }
    if let Ok(mut st) = core.state.lock() {
        st.stopped = true;
    }
    core.done_cv.notify_all();
}

/// Fold one attempt outcome into the job's lifecycle: finalize, retry
/// with backoff, or quarantine — the harness's taxonomy, journaled.
fn handle_done(
    core: &Arc<Core>,
    task: Task,
    outcome: Result<String, JobFailure>,
    delayed: &mut Vec<(Instant, Task, Priority)>,
) {
    let Ok(mut st) = core.state.lock() else { return };
    let Some(e) = st.entries.get_mut(task.job as usize) else { return };
    if e.attempt != task.attempt || e.result.is_some() {
        return; // stale completion from an abandoned worker
    }
    let result = match outcome {
        Ok(payload) => JobResult::ok(e.id.clone(), task.attempt, payload),
        Err(failure) => {
            let disposition = if failure.is_timeout() {
                e.strikes += 1;
                if e.strikes >= core.policy.quarantine_strikes {
                    Some(JobStatus::Quarantined)
                } else {
                    None
                }
            } else if failure.is_transient() {
                e.transient_retries += 1;
                if e.transient_retries > core.policy.max_retries {
                    Some(JobStatus::Failed)
                } else {
                    None
                }
            } else {
                // Panics and persistent errors are deterministic.
                Some(JobStatus::Failed)
            };
            match disposition {
                Some(status) => JobResult::failed(e.id.clone(), status, task.attempt, &failure),
                None => {
                    // Retry with capped exponential backoff; bumping the
                    // attempt invalidates any still-queued stale task.
                    e.attempt += 1;
                    let retry_no = e.strikes.max(e.transient_retries);
                    let delay = core.policy.backoff_for(retry_no);
                    let next = Task { job: task.job, attempt: e.attempt };
                    core.counters.retries.fetch_add(1, Ordering::Relaxed);
                    core.tracer.count("serve.retries", 1);
                    delayed.push((Instant::now() + delay, next, e.priority));
                    return;
                }
            }
        }
    };
    e.result = Some(result.clone());
    let client = e.client.clone();
    if let Some(j) = st.journal.as_mut() {
        if let Err(err) = j.record_result(&result) {
            // The result is still served from memory; only the recovery
            // record for a *future* crash is degraded.
            core.note_journal_drop("result", &result.id, &err);
        }
    }
    // Count the job before the lock drops, so no `stats` snapshot and no
    // returned `wait` can see it released from the ledger but not done.
    st.ledger.release(&client);
    core.count_terminal(result.status);
    drop(st);
    core.tracer.count("serve.completed", 1);
    core.tracer.gauge_add("serve.in_flight", -1.0);
    core.tracer.gauge_add("serve.queue_depth", -1.0);
    core.done_cv.notify_all();
}

/// Render a caught panic payload as text.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
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
            workers: 2,
            retry_backoff: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(4),
            ..ServePolicy::default()
        }
    }

    fn start(policy: ServePolicy, resolver: Resolver) -> Scheduler {
        Scheduler::start(policy, resolver, Tracer::disabled(), None).unwrap()
    }

    #[test]
    fn submit_wait_roundtrip_over_many_jobs() {
        let s = start(ServePolicy { workers: 4, ..quick_policy() }, echo_resolver());
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
        let s = Arc::new(start(ServePolicy { workers: 4, ..quick_policy() }, echo_resolver()));
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
            workers: 1,
            quota: QuotaPolicy { max_in_flight_per_client: 2, max_queue_depth: 100 },
            ..quick_policy()
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
    fn wall_deadline_quarantines_hung_jobs_and_pool_survives() {
        let resolver: Resolver = Arc::new(|spec: &str, _ctx| {
            if spec == "hang" {
                std::thread::sleep(Duration::from_millis(500));
            }
            Ok(spec.to_string())
        });
        let policy = ServePolicy {
            workers: 2,
            wall_deadline: Some(Duration::from_millis(40)),
            quarantine_strikes: 2,
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
            ServePolicy { workers: 1, ..quick_policy() },
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
            ServePolicy { workers: 2, ..quick_policy() },
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
    fn work_stealing_spreads_a_burst_across_workers() {
        // A burst far larger than one deque; with 4 workers the steal
        // counter should move (the injector refills one worker's deque in
        // batches, siblings steal from it).
        let resolver: Resolver = Arc::new(|spec: &str, _ctx| {
            std::thread::sleep(Duration::from_micros(200));
            Ok(spec.to_string())
        });
        let policy = ServePolicy {
            workers: 4,
            deque_capacity: 8,
            refill_batch: 8,
            quota: QuotaPolicy { max_in_flight_per_client: 0, max_queue_depth: 0 },
            ..quick_policy()
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
