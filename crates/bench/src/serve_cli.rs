//! `repro`'s server and thin-client modes for `pim-serve`.
//!
//! * `repro --serve <addr>` runs the fault-tolerant sweep service with
//!   this crate's catalog wired in: `experiment:<id>` specs resolve to
//!   [`crate::run_experiment`], `kernel:<name>` (and `kernel-smoke:`) to
//!   [`crate::jobs::measure_kernel`].
//! * `repro --connect <addr>` submits all 23 experiments, waits for each
//!   in paper order, and prints **byte-identical** stdout to the default
//!   in-process `repro` run — results travel as strings end to end
//!   (journal, wire, memory), so a scorecard assembled from a served,
//!   crashed, and recovered sweep matches an uninterrupted serial one.

use std::path::Path;
use std::sync::Arc;

use pim_core::DmpimError;
use pim_harness::{FailureSummary, JobResult};
use pim_serve::{
    signal, Client, Resolver, Scheduler, ServeError, ServePolicy, Server, ShutdownMode,
};
use pim_trace::Tracer;

/// The catalog resolver: maps job specs to this crate's simulations.
pub fn resolver() -> Resolver {
    Arc::new(|spec, ctx| {
        if let Some(id) = spec.strip_prefix("experiment:") {
            crate::run_experiment(id)
        } else if let Some(name) = spec.strip_prefix("kernel:") {
            crate::jobs::measure_kernel(name, false, &ctx.tracer, ctx.watchdog)
        } else if let Some(name) = spec.strip_prefix("kernel-smoke:") {
            crate::jobs::measure_kernel(name, true, &ctx.tracer, ctx.watchdog)
        } else {
            Err(DmpimError::UnknownExperiment { id: spec.to_string() })
        }
    })
}

/// The server's tracer: metrics for the `metrics` op and the HTTP
/// `/metrics` endpoint, and no event log, since nothing exports a served
/// trace (a long session would otherwise buffer every job's events).
fn server_tracer() -> Tracer {
    Tracer::metrics_only()
}

/// Run the service on `addr` (e.g. `127.0.0.1:7009`, port 0 for
/// ephemeral) until a drain completes (SIGTERM/ctrl-c or a client
/// `shutdown` op) or a hard stop. `journal` is the write-ahead log;
/// `None` disables crash recovery.
pub fn run_server(
    addr: &str,
    policy: ServePolicy,
    journal: Option<&Path>,
) -> Result<(), ServeError> {
    signal::install();
    let (workers, fsync) = (policy.harness.workers.max(1), policy.harness.fsync);
    let tracer = server_tracer();
    let scheduler = Arc::new(Scheduler::start(policy, resolver(), tracer.clone(), journal)?);
    let server = Server::bind(addr, scheduler, tracer)?;
    eprintln!(
        "pim-serve: listening on {} ({} workers{})",
        server.local_addr(),
        workers,
        match journal {
            Some(p) => format!(", journal {} (fsync={})", p.display(), fsync.label()),
            None => ", no journal".to_string(),
        }
    );
    let out = server.run();
    eprintln!("pim-serve: stopped");
    out
}

/// Submit every experiment, wait for the results in paper order, and
/// print them exactly as the in-process run does. Returns the terminal
/// results for the caller's summary/exit-code logic.
pub fn run_client(addr: &str, drain: bool) -> Result<Vec<JobResult>, ServeError> {
    let mut client = Client::connect(addr, "repro")?;
    for id in crate::EXPERIMENTS {
        // Idempotent by id: a rerun after a server crash re-attaches to
        // journaled jobs instead of re-running them.
        client.submit(id, &format!("experiment:{id}"))?;
    }
    let mut results = Vec::with_capacity(crate::EXPERIMENTS.len());
    for id in crate::EXPERIMENTS {
        results.push(client.wait(id, None)?);
    }
    if drain {
        client.shutdown(ShutdownMode::Drain)?;
    }
    print_results(&results);
    Ok(results)
}

/// Render served results byte-identically to `repro`'s default run.
pub fn print_results(results: &[JobResult]) {
    for r in results {
        banner(&r.id);
        match &r.output {
            Some(text) => println!("{text}"),
            None => eprintln!(
                "experiment {} {}: {}",
                r.id,
                r.status.label(),
                r.error.as_deref().unwrap_or("unknown error")
            ),
        }
    }
    eprintln!("harness: {}", FailureSummary::from_results(results).one_line());
}

/// The banner `repro` prints before each experiment's report.
pub fn banner(id: &str) {
    println!("{}", "=".repeat(72));
    println!("== {id}");
    println!("{}", "=".repeat(72));
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use pim_harness::HarnessPolicy;
    use pim_serve::{QuotaPolicy, WaitOutcome};
    use pim_trace::MetricsReport;

    use super::*;

    #[test]
    fn resolver_covers_experiments_and_kernels_and_rejects_garbage() {
        let r = resolver();
        let tracer = Tracer::disabled();
        let ctx = pim_harness::JobCtx {
            job_id: "t".into(),
            attempt: 1,
            tracer: tracer.clone(),
            track: tracer.track("t"),
            watchdog: pim_core::Watchdog::unlimited(),
        };
        let fig1 = r("experiment:fig1", &ctx).unwrap();
        assert_eq!(fig1, crate::run_experiment("fig1").unwrap(), "resolver output matches direct");
        let kernel = r("kernel-smoke:texture tiling", &ctx).unwrap();
        assert!(kernel.contains("texture tiling"), "{kernel}");
        assert!(r("experiment:nope", &ctx).is_err());
        assert!(r("kernel:nope", &ctx).is_err());
        assert!(r("garbage", &ctx).is_err());
    }

    #[test]
    fn two_workers_book_exactly_the_serial_metrics() {
        // Both workers simulate into the server's one tracer, each context
        // through its own metric shards; the totals must not depend on
        // how the jobs interleaved.
        let specs: Vec<String> = (0..20)
            .map(|i| {
                let kernel = if i % 2 == 0 { "texture tiling" } else { "color blitting" };
                format!("kernel-smoke:{kernel}")
            })
            .collect();
        let tracer = Tracer::new();
        let s = Scheduler::start(
            ServePolicy {
                harness: HarnessPolicy { workers: 2, ..ServePolicy::default().harness },
                ..ServePolicy::default()
            },
            resolver(),
            tracer.clone(),
            None,
        )
        .unwrap();
        for (i, spec) in specs.iter().enumerate() {
            s.submit("test", &format!("job{i}"), spec);
        }
        for i in 0..specs.len() {
            match s.wait(&format!("job{i}"), Some(Duration::from_secs(120))) {
                WaitOutcome::Done(r) => assert!(r.output.is_some(), "job{i}: {:?}", r.error),
                other => panic!("job{i}: {other:?}"),
            }
        }
        s.drain();
        s.join();

        let serial = Tracer::new();
        let r = resolver();
        for spec in &specs {
            let ctx = pim_harness::JobCtx {
                job_id: "t".into(),
                attempt: 1,
                tracer: serial.clone(),
                track: serial.track("t"),
                watchdog: pim_core::Watchdog::unlimited(),
            };
            r(spec, &ctx).unwrap();
        }
        let served = tracer.metrics();
        assert_eq!(served.counters["serve.attempts"], 20, "one attempt per job");
        // The simulation's counters and histograms; the scheduler's own
        // `serve.*` metrics and gauges only exist on the served side.
        let sim = |mut m: MetricsReport| {
            m.counters.retain(|k, _| !k.starts_with("serve."));
            m.histograms.retain(|k, _| !k.starts_with("serve."));
            m.gauges.clear();
            m
        };
        let want = sim(serial.metrics());
        assert!(want.counters.get("mem.cpu.accesses").is_some_and(|&n| n > 0));
        assert_eq!(sim(served), want);
    }

    #[test]
    fn a_server_session_leaves_no_per_job_trace_state() {
        // A long session on the server's tracer must not grow an event
        // buffer or a track table, and once both kernels have run it
        // books under no new metric names.
        let tracer = server_tracer();
        let unlimited = QuotaPolicy { max_in_flight_per_client: 0, max_queue_depth: 0 };
        let s = Scheduler::start(
            ServePolicy {
                harness: HarnessPolicy { workers: 1, ..ServePolicy::default().harness },
                quota: unlimited,
            },
            resolver(),
            tracer.clone(),
            None,
        )
        .unwrap();
        let run = |jobs: std::ops::Range<usize>| {
            for i in jobs.clone() {
                let kernel = if i % 2 == 0 { "texture tiling" } else { "color blitting" };
                s.submit("test", &format!("job{i}"), &format!("kernel-smoke:{kernel}"));
            }
            for i in jobs {
                match s.wait(&format!("job{i}"), Some(Duration::from_secs(120))) {
                    WaitOutcome::Done(r) => assert!(r.output.is_some(), "job{i}: {:?}", r.error),
                    other => panic!("job{i}: {other:?}"),
                }
            }
        };
        let names = || {
            let m = tracer.metrics();
            let mut names: Vec<String> = m.counters.into_keys().collect();
            names.extend(m.gauges.into_keys());
            names.extend(m.histograms.into_keys());
            names
        };
        run(0..100);
        let after_100 = names();
        run(100..1_000);
        s.drain();
        s.join();
        assert_eq!((tracer.event_count(), tracer.dropped_events()), (0, 0));
        assert!(tracer.tracks().is_empty(), "{:?}", tracer.tracks());
        assert_eq!(names(), after_100);
        assert_eq!(tracer.metrics().counters["serve.completed"], 1_000);
    }

    #[test]
    fn served_experiment_matches_in_process_byte_for_byte() {
        // Full loop through the scheduler (no TCP): the served payload
        // must equal the direct call exactly.
        let s = Scheduler::start(
            ServePolicy {
                harness: HarnessPolicy { workers: 2, ..ServePolicy::default().harness },
                ..ServePolicy::default()
            },
            resolver(),
            Tracer::disabled(),
            None,
        )
        .unwrap();
        for id in ["fig1", "fig18", "table1"] {
            s.submit("test", id, &format!("experiment:{id}"));
        }
        for id in ["fig1", "fig18", "table1"] {
            match s.wait(id, Some(Duration::from_secs(60))) {
                WaitOutcome::Done(r) => {
                    assert_eq!(
                        r.output.as_deref(),
                        Some(crate::run_experiment(id).unwrap().as_str()),
                        "{id}"
                    );
                }
                other => panic!("{id}: {other:?}"),
            }
        }
        s.drain();
        s.join();
    }
}
