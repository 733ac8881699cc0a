//! The supervised worker pool: the one pool behind [`Harness::run`] and
//! `pim-serve`'s scheduler.
//!
//! A fixed set of `std::thread` workers takes attempts from one shared
//! queue and runs each job closure under `catch_unwind`. The pool's owner
//! supervises by calling [`Pool::step`] in its own loop — `Harness::run`
//! on the caller's thread until every job is terminal, `pim-serve` on a
//! supervisor thread for the life of the service — while any thread
//! queues jobs through a [`Submitter`]:
//!
//! * a panic becomes [`JobFailure::Panicked`]; the worker survives;
//! * a wall-deadline overrun abandons the stuck worker (std threads
//!   cannot be killed; the worker is left to finish or leak and a
//!   replacement is spawned) and counts as a timeout strike;
//! * timeout-class failures (wall or simulated watchdog) retry with
//!   capped exponential backoff until the strike limit quarantines the
//!   job; transient simulation faults retry up to `max_retries`;
//! * panics and persistent errors fail on the first attempt, because
//!   they are deterministic.
//!
//! The queue has two [`Priority`] lanes with a fairness stride. Workers
//! pop it directly: there is no per-worker deque and no stealing. Jobs
//! take 1-220 ms, so one mutex per attempt is never the bottleneck
//! (DESIGN.md §4f has the measurement).
//!
//! [`Harness::run`]: crate::Harness::run

use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pim_faults::Watchdog;
use pim_trace::Tracer;

use crate::job::{Job, JobCtx, JobFailure, JobResult, JobStatus};
use crate::supervisor::HarnessPolicy;

/// Per-job scheduling class. `High` jobs leave the queue ahead of
/// `Normal` ones, but every fourth dequeue offers the normal lane first,
/// so a sustained high-priority stream never starves the normal lane.
/// Retries re-enter their job's lane.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Priority {
    /// Jump the backlog (interactive probes, deadline jobs).
    High,
    /// The default class for bulk sweep work.
    #[default]
    Normal,
}

impl Priority {
    /// Wire/journal label.
    pub fn label(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
        }
    }

    /// Inverse of [`Priority::label`].
    pub fn from_label(s: &str) -> Option<Self> {
        match s {
            "high" => Some(Priority::High),
            "normal" => Some(Priority::Normal),
            _ => None,
        }
    }
}

/// One in every this-many dequeues serves the normal lane ahead of the
/// high lane, bounding normal-lane wait to a constant factor of service
/// rate no matter how deep the high lane runs.
const FAIRNESS_STRIDE: u64 = 4;

/// The two priority FIFOs and the fairness state that keeps the normal
/// lane live under high pressure.
#[derive(Debug)]
struct Lanes<T> {
    high: VecDeque<T>,
    normal: VecDeque<T>,
    /// Dequeues served so far; every [`FAIRNESS_STRIDE`]-th one offers
    /// the normal lane first.
    served: u64,
}

impl<T> Default for Lanes<T> {
    fn default() -> Self {
        Self { high: VecDeque::new(), normal: VecDeque::new(), served: 0 }
    }
}

impl<T> Lanes<T> {
    fn push(&mut self, priority: Priority, item: T) {
        match priority {
            Priority::High => self.high.push_back(item),
            Priority::Normal => self.normal.push_back(item),
        }
    }

    /// Priority order, fairness-interleaved; FIFO within a lane. Empty
    /// lanes burn no fairness credit.
    fn next(&mut self) -> Option<T> {
        if self.high.is_empty() && self.normal.is_empty() {
            return None;
        }
        self.served = self.served.wrapping_add(1);
        let (first, second) = if self.served.is_multiple_of(FAIRNESS_STRIDE) {
            (&mut self.normal, &mut self.high)
        } else {
            (&mut self.high, &mut self.normal)
        };
        first.pop_front().or_else(|| second.pop_front())
    }
}

/// One attempt of one job, queued, waiting out a backoff, or running.
/// The job's retry counters travel with it, so the pool keeps no
/// per-job table.
struct Task {
    slot: usize,
    attempt: u32,
    strikes: u32,
    transient_retries: u32,
    priority: Priority,
    job: Arc<Job>,
}

/// What one [`Pool::step`] saw happen to a job.
#[derive(Debug)]
pub enum Event {
    /// The job pushed as `slot` reached its terminal result.
    Done(usize, JobResult),
    /// The job pushed as `slot` failed an attempt and will run again
    /// after its backoff.
    Retry(usize),
}

#[derive(Default)]
struct Queue {
    lanes: Lanes<Task>,
    /// Worker ids told to exit at their next queue interaction.
    abandoned: HashSet<usize>,
    /// Set by a stop: no worker takes another attempt.
    stopped: bool,
}

#[derive(Default)]
struct Shared {
    queue: Mutex<Queue>,
    /// Signalled on pushes and on stop; idle workers park here.
    cv: Condvar,
    /// Jobs pushed and not yet terminal.
    live_jobs: AtomicUsize,
    /// Worker threads spawned and not yet exited, abandoned ones included.
    live_workers: AtomicUsize,
}

impl Shared {
    fn halt(&self) {
        self.queue.lock().expect("queue poisoned").stopped = true;
        self.cv.notify_all();
    }

    /// Block until worker `id` may run an attempt; `None` tells it to exit.
    fn next_task(&self, id: usize) -> Option<Task> {
        let mut q = self.queue.lock().expect("queue poisoned");
        loop {
            if q.stopped || q.abandoned.remove(&id) {
                return None;
            }
            if let Some(task) = q.lanes.next() {
                return Some(task);
            }
            q = self.cv.wait(q).expect("queue poisoned");
        }
    }
}

enum Msg {
    Started { worker: usize, task: Task },
    Done { slot: usize, attempt: u32, outcome: Result<String, JobFailure> },
    Wake,
}

/// A started attempt and its wall-clock deadline.
struct Running {
    worker: usize,
    deadline: Option<Instant>,
    task: Task,
}

enum Disposition {
    Retry(Duration),
    Terminal(JobStatus),
}

/// The owner's side of the pool: supervision state and the workers.
pub struct Pool {
    policy: HarnessPolicy,
    tracer: Tracer,
    shared: Arc<Shared>,
    tx: Sender<Msg>,
    rx: Receiver<Msg>,
    workers: HashMap<usize, JoinHandle<()>>,
    next_worker: usize,
    /// Started attempts by slot.
    running: HashMap<usize, Running>,
    /// Retries waiting out their backoff, with their due times.
    delayed: Vec<(Instant, Task)>,
}

/// Queues jobs on a running [`Pool`] from any thread.
#[derive(Clone)]
pub struct Submitter {
    shared: Arc<Shared>,
    tx: Sender<Msg>,
}

impl Submitter {
    /// Queue `job` in the `priority` lane. `slot` names the job in the
    /// [`Event`]s [`Pool::step`] returns; the caller keeps it unique
    /// among the jobs not yet terminal.
    pub fn push(&self, slot: usize, job: Job, priority: Priority) {
        self.shared.live_jobs.fetch_add(1, Ordering::SeqCst);
        let task =
            Task { slot, attempt: 1, strikes: 0, transient_retries: 0, priority, job: Arc::new(job) };
        self.shared.queue.lock().expect("queue poisoned").lanes.push(priority, task);
        self.shared.cv.notify_one();
    }

    /// Hard stop: once this returns, no worker starts another attempt.
    /// Running attempts finish, and the owner's [`Pool::step`] returns.
    pub fn halt(&self) {
        self.shared.halt();
        self.wake();
    }

    /// Make the owner's blocked [`Pool::step`] return now, so its loop
    /// re-checks its own exit conditions.
    pub fn wake(&self) {
        let _ = self.tx.send(Msg::Wake);
    }

    /// Worker threads alive, abandoned ones included until they exit.
    pub fn live_workers(&self) -> usize {
        self.shared.live_workers.load(Ordering::SeqCst)
    }
}

impl Pool {
    /// Spawn `policy.workers` (at least one) workers, each handing its
    /// jobs `tracer` and `policy.watchdog` through their [`JobCtx`].
    pub fn start(policy: &HarnessPolicy, tracer: &Tracer) -> (Pool, Submitter) {
        let (tx, rx) = std::sync::mpsc::channel();
        let mut pool = Pool {
            policy: policy.clone(),
            tracer: tracer.clone(),
            shared: Arc::new(Shared::default()),
            tx,
            rx,
            workers: HashMap::new(),
            next_worker: 0,
            running: HashMap::new(),
            delayed: Vec::new(),
        };
        for _ in 0..policy.workers.max(1) {
            pool.spawn_worker();
        }
        let submitter = Submitter { shared: Arc::clone(&pool.shared), tx: pool.tx.clone() };
        (pool, submitter)
    }

    /// True when every pushed job has reached its terminal result.
    pub fn idle(&self) -> bool {
        self.shared.live_jobs.load(Ordering::SeqCst) == 0
    }

    /// One supervision step: queue the retries now due, wait up to
    /// `max_wait` (less when a deadline or retry falls due sooner) for one
    /// worker message, then write off the attempts past their wall
    /// deadline. Returns what happened to jobs, in order.
    pub fn step(&mut self, max_wait: Duration) -> Vec<Event> {
        self.promote_due_retries();
        let next_timer = self
            .running
            .values()
            .filter_map(|r| r.deadline)
            .chain(self.delayed.iter().map(|(due, _)| *due))
            .min();
        let wait = next_timer.map_or(max_wait, |at| {
            at.saturating_duration_since(Instant::now()).max(Duration::from_millis(1)).min(max_wait)
        });
        let mut events = Vec::new();
        match self.rx.recv_timeout(wait) {
            Ok(Msg::Started { worker, task }) => {
                // The deadline clock starts when a worker picks the
                // attempt up, not while it sits queued.
                let deadline = self.policy.wall_deadline.map(|d| Instant::now() + d);
                self.running.insert(task.slot, Running { worker, deadline, task });
            }
            Ok(Msg::Done { slot, attempt, outcome }) => {
                // A stale completion from an abandoned worker, whose
                // attempt was already written off, matches nothing.
                if self.running.get(&slot).is_some_and(|r| r.task.attempt == attempt) {
                    let run = self.running.remove(&slot).expect("running attempt");
                    events.push(self.settle(run.task, outcome));
                }
            }
            Ok(Msg::Wake) | Err(_) => {}
        }
        self.expire_deadlines(&mut events);
        events
    }

    /// Stop the pool: no worker takes another attempt, queued or due.
    /// With `join`, wait for the live workers to finish their running
    /// attempts; without, detach them. Abandoned workers are never
    /// joined: one may be hung for good.
    pub fn stop(mut self, join: bool) {
        self.shared.halt();
        for (_, handle) in std::mem::take(&mut self.workers) {
            if join {
                // Workers never panic (jobs run under catch_unwind); a
                // join error could only come from external thread death.
                let _ = handle.join();
            }
        }
    }

    fn spawn_worker(&mut self) {
        let id = self.next_worker;
        self.next_worker += 1;
        let shared = Arc::clone(&self.shared);
        let tx = self.tx.clone();
        let tracer = self.tracer.clone();
        let watchdog = self.policy.watchdog;
        shared.live_workers.fetch_add(1, Ordering::SeqCst);
        let handle = std::thread::Builder::new()
            .name(format!("pim-harness-worker-{id}"))
            .spawn(move || {
                worker_loop(id, &shared, &tx, &tracer, watchdog);
                shared.live_workers.fetch_sub(1, Ordering::SeqCst);
            })
            .expect("spawn worker thread");
        self.workers.insert(id, handle);
    }

    fn promote_due_retries(&mut self) {
        if self.delayed.is_empty() {
            return;
        }
        let now = Instant::now();
        let (due, later): (Vec<_>, Vec<_>) =
            std::mem::take(&mut self.delayed).into_iter().partition(|(at, _)| *at <= now);
        self.delayed = later;
        if due.is_empty() {
            return;
        }
        let mut q = self.shared.queue.lock().expect("queue poisoned");
        for (_, task) in due {
            q.lanes.push(task.priority, task);
        }
        drop(q);
        self.shared.cv.notify_all();
    }

    /// Write off every running attempt past its wall deadline: flag its
    /// worker to exit if it ever finishes, detach it, spawn a replacement
    /// to keep the pool at strength, and settle the attempt as a
    /// [`JobFailure::WallTimeout`].
    fn expire_deadlines(&mut self, events: &mut Vec<Event>) {
        let now = Instant::now();
        let expired: Vec<usize> = self
            .running
            .iter()
            .filter(|(_, r)| r.deadline.is_some_and(|d| d <= now))
            .map(|(&slot, _)| slot)
            .collect();
        for slot in expired {
            let Some(run) = self.running.remove(&slot) else { continue };
            self.shared.queue.lock().expect("queue poisoned").abandoned.insert(run.worker);
            self.workers.remove(&run.worker);
            self.spawn_worker();
            let limit_ms = self.policy.wall_deadline.map_or(0, |d| d.as_millis() as u64);
            events.push(self.settle(run.task, Err(JobFailure::WallTimeout { limit_ms })));
        }
    }

    /// Fold one attempt's outcome into its job: a terminal result, or a
    /// retry queued behind its backoff.
    fn settle(&mut self, mut task: Task, outcome: Result<String, JobFailure>) -> Event {
        let result = match outcome {
            Ok(output) => JobResult::ok(task.job.id.clone(), task.attempt, output),
            Err(failure) => match self.disposition(&mut task, &failure) {
                Disposition::Retry(delay) => {
                    let slot = task.slot;
                    task.attempt += 1;
                    self.delayed.push((Instant::now() + delay, task));
                    return Event::Retry(slot);
                }
                Disposition::Terminal(status) => {
                    JobResult::failed(task.job.id.clone(), status, task.attempt, &failure)
                }
            },
        };
        self.shared.live_jobs.fetch_sub(1, Ordering::SeqCst);
        Event::Done(task.slot, result.with_seed(task.job.seed))
    }

    /// Decide what to do with a failed attempt. A retry's backoff grows
    /// with the count of the failing class alone.
    fn disposition(&self, task: &mut Task, failure: &JobFailure) -> Disposition {
        if failure.is_timeout() {
            task.strikes += 1;
            if task.strikes >= self.policy.quarantine_strikes {
                return Disposition::Terminal(JobStatus::Quarantined);
            }
            return Disposition::Retry(self.policy.backoff_for(task.strikes));
        }
        if failure.is_transient() {
            task.transient_retries += 1;
            if task.transient_retries > self.policy.max_retries {
                return Disposition::Terminal(JobStatus::Failed);
            }
            return Disposition::Retry(self.policy.backoff_for(task.transient_retries));
        }
        // Panics and persistent errors (invalid config, unrecoverable
        // faults, …) are deterministic: retrying cannot help.
        Disposition::Terminal(JobStatus::Failed)
    }
}

impl Drop for Pool {
    /// A pool dropped without [`Pool::stop`] still releases its parked
    /// workers.
    fn drop(&mut self) {
        self.shared.halt();
    }
}

fn worker_loop(id: usize, shared: &Shared, tx: &Sender<Msg>, tracer: &Tracer, watchdog: Watchdog) {
    while let Some(task) = shared.next_task(id) {
        let (slot, attempt, job) = (task.slot, task.attempt, Arc::clone(&task.job));
        if tx.send(Msg::Started { worker: id, task }).is_err() {
            return;
        }
        let track = tracer.track(&format!("job:{}", job.id));
        let ctx = JobCtx { job_id: job.id.clone(), attempt, tracer: tracer.clone(), track, watchdog };
        let outcome = match catch_unwind(AssertUnwindSafe(|| (job.run)(&ctx))) {
            Ok(Ok(payload)) => Ok(payload),
            Ok(Err(e)) => Err(JobFailure::Sim(e)),
            Err(panic) => Err(JobFailure::Panicked { message: panic_message(&*panic) }),
        };
        if tx.send(Msg::Done { slot, attempt, outcome }).is_err() {
            return;
        }
        // If the owner wrote this attempt off and abandoned us while we
        // were stuck in it, the next queue check retires this worker: a
        // replacement already took our place.
    }
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
    use super::*;

    fn drain(lanes: &mut Lanes<u32>) -> Vec<u32> {
        std::iter::from_fn(|| lanes.next()).collect()
    }

    #[test]
    fn priority_labels_round_trip() {
        for p in [Priority::High, Priority::Normal] {
            assert_eq!(Priority::from_label(p.label()), Some(p));
        }
        assert_eq!(Priority::from_label("urgent"), None);
        assert_eq!(Priority::default(), Priority::Normal);
    }

    #[test]
    fn high_lane_drains_first_but_normal_is_never_starved() {
        let mut lanes = Lanes::default();
        // 8 normal submissions already queued when a burst of 8 highs
        // lands on top.
        (0..8).for_each(|i| lanes.push(Priority::Normal, i));
        (100..108).for_each(|i| lanes.push(Priority::High, i));
        let order = drain(&mut lanes);
        assert_eq!(order.len(), 16, "nothing lost");
        // Highs dominate the front of the schedule...
        let first_half_highs = order[..8].iter().filter(|&&j| j >= 100).count();
        assert!(first_half_highs >= 6, "high lane jumps the backlog: {order:?}");
        // ...but the fairness stride admits a normal task at least once
        // per stride while highs are still pending (starvation-free).
        let first_normal = order.iter().position(|&j| j < 100).unwrap();
        assert!(
            first_normal < FAIRNESS_STRIDE as usize,
            "a normal task must be served within one stride: {order:?}"
        );
        // Within each lane, FIFO order is preserved.
        let highs: Vec<u32> = order.iter().copied().filter(|&j| j >= 100).collect();
        let normals: Vec<u32> = order.iter().copied().filter(|&j| j < 100).collect();
        assert_eq!(highs, (100..108).collect::<Vec<_>>());
        assert_eq!(normals, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn empty_lanes_do_not_burn_fairness_credit() {
        let mut lanes = Lanes::default();
        // Draining an all-normal queue must yield everything even though
        // the high lane stays empty (the stride offer falls through).
        (0..10).for_each(|i| lanes.push(Priority::Normal, i));
        assert_eq!(drain(&mut lanes), (0..10).collect::<Vec<_>>());
        // And an all-high queue likewise.
        (0..10).for_each(|i| lanes.push(Priority::High, i));
        assert_eq!(drain(&mut lanes), (0..10).collect::<Vec<_>>());
    }
}
