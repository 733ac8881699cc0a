//! End-to-end tests over real TCP: a bound server, real client
//! connections, and the full robustness story — typed overload
//! rejections, graceful drain, crash recovery from the journal, and the
//! HTTP metrics scrape — exercised through the wire rather than the
//! scheduler API.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use pim_faults::DmpimError;
use pim_harness::{HarnessPolicy, JobStatus};
use pim_serve::{
    Client, QuotaPolicy, RejectKind, Resolver, Scheduler, ServeError, ServePolicy, Server,
    ShutdownMode,
};
use pim_trace::Tracer;

/// Deterministic test catalog: `square:<n>` computes, `sleep:<ms>` stalls
/// then succeeds, anything else is an unknown-spec error.
fn test_resolver() -> Resolver {
    Arc::new(|spec: &str, _ctx| {
        if let Some(n) = spec.strip_prefix("square:") {
            let n: u64 = n.parse().map_err(|_| DmpimError::UnknownExperiment {
                id: spec.to_string(),
            })?;
            Ok(format!("{}", n * n))
        } else if let Some(ms) = spec.strip_prefix("sleep:") {
            let ms: u64 = ms.parse().unwrap_or(0);
            thread::sleep(Duration::from_millis(ms));
            Ok(format!("slept {ms}"))
        } else {
            Err(DmpimError::UnknownExperiment { id: spec.to_string() })
        }
    })
}

fn quick_policy() -> ServePolicy {
    ServePolicy {
        harness: HarnessPolicy {
            workers: 2,
            retry_backoff: Duration::from_millis(1),
            ..ServePolicy::default().harness
        },
        ..ServePolicy::default()
    }
}

/// Bind a server on an ephemeral port and run it on a background thread.
/// Returns the address and the join handle (joins once the scheduler
/// stops, i.e. after a drain completes or `stop_now`).
fn spawn_server(
    policy: ServePolicy,
    journal: Option<&std::path::Path>,
) -> (String, Arc<Scheduler>, thread::JoinHandle<Result<(), ServeError>>) {
    let tracer = Tracer::new();
    let scheduler =
        Arc::new(Scheduler::start(policy, test_resolver(), tracer.clone(), journal).unwrap());
    let server = Server::bind("127.0.0.1:0", Arc::clone(&scheduler), tracer).unwrap();
    let addr = server.local_addr().to_string();
    let handle = thread::spawn(move || server.run());
    (addr, scheduler, handle)
}

fn temp_path(name: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("pim-serve-it-{}-{seq}-{name}", std::process::id()))
}

#[test]
fn submit_wait_stats_and_metrics_scrape_over_tcp() {
    let (addr, _scheduler, handle) = spawn_server(quick_policy(), None);
    let mut client = Client::connect(&addr, "it").unwrap();
    client.ping().unwrap();

    for n in 0..10u64 {
        client.submit(&format!("j{n}"), &format!("square:{n}")).unwrap();
    }
    for n in 0..10u64 {
        let r = client.wait(&format!("j{n}"), Some(Duration::from_secs(30))).unwrap();
        assert_eq!(r.status, JobStatus::Succeeded);
        assert_eq!(r.output.as_deref(), Some(format!("{}", n * n).as_str()), "j{n}");
    }

    let stats = client.stats().unwrap();
    assert_eq!(stats.submitted, 10);
    assert_eq!(stats.completed, 10);
    assert_eq!(stats.succeeded, 10);
    assert_eq!(stats.in_flight, 0);
    assert_eq!(stats.clients, 1);
    assert_eq!(stats.workers, 2);

    // JSONL metrics op: raw tracer dump, must mention the serve gauges.
    let metrics = client.metrics_raw().unwrap();
    assert!(metrics.contains("serve.workers"), "{metrics}");
    assert!(metrics.contains("serve.submitted"), "{metrics}");

    // HTTP scrape on the *same* port: curl-style GET /metrics.
    let mut http = TcpStream::connect(&addr).unwrap();
    http.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut body = String::new();
    http.read_to_string(&mut body).unwrap();
    assert!(body.starts_with("HTTP/1.1 200 OK"), "{body}");
    assert!(body.contains("Content-Type: application/json\r\n"), "{body}");
    assert!(body.contains("serve.in_flight"), "{body}");

    // The same resource in the Prometheus text representation: correct
    // Content-Type header, every line parses, and the per-job wall-time
    // histogram plus the attempt counter from the sweep are present.
    let mut http = TcpStream::connect(&addr).unwrap();
    http.write_all(b"GET /metrics?format=prometheus HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut prom = String::new();
    http.read_to_string(&mut prom).unwrap();
    assert!(prom.starts_with("HTTP/1.1 200 OK"), "{prom}");
    assert!(
        prom.contains(&format!("Content-Type: {}\r\n", pim_obs::PROMETHEUS_CONTENT_TYPE)),
        "{prom}"
    );
    let prom_body = prom.split("\r\n\r\n").nth(1).expect("http body");
    let samples = pim_obs::validate_prometheus(prom_body).expect("every metric line parses");
    assert!(samples > 0, "{prom_body}");
    assert!(prom_body.contains("# TYPE dmpim_serve_completed counter"), "{prom_body}");
    assert!(prom_body.contains("# TYPE dmpim_serve_attempts counter"), "{prom_body}");
    assert!(prom_body.contains("# TYPE dmpim_serve_in_flight gauge"), "{prom_body}");
    assert!(prom_body.contains("# TYPE dmpim_serve_job_wall_ms histogram"), "{prom_body}");
    assert!(prom_body.contains("dmpim_serve_job_wall_ms_bucket{le=\"+Inf\"} 10"), "{prom_body}");
    assert!(prom_body.contains("dmpim_serve_job_wall_ms_count 10"), "{prom_body}");

    let mut http = TcpStream::connect(&addr).unwrap();
    http.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
    let mut health = String::new();
    http.read_to_string(&mut health).unwrap();
    assert!(health.starts_with("HTTP/1.1 200 OK"), "{health}");
    assert!(health.contains("\"state\":\"ok\""), "{health}");
    assert!(health.contains("Content-Type: application/json\r\n"), "{health}");

    let mut http = TcpStream::connect(&addr).unwrap();
    http.write_all(b"GET /nope HTTP/1.1\r\n\r\n").unwrap();
    let mut missing = String::new();
    http.read_to_string(&mut missing).unwrap();
    assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");

    client.shutdown(ShutdownMode::Drain).unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn garbage_requests_get_typed_bad_request_not_a_dropped_connection() {
    let (addr, _scheduler, handle) = spawn_server(quick_policy(), None);

    let stream = TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    writer.write_all(b"this is not a request\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"type\":\"rejected\""), "{line}");
    assert!(line.contains("\"error\":\"bad-request\""), "{line}");

    // The connection survives the bad line: a good request still works.
    writer.write_all(b"{\"op\":\"ping\"}\n").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"type\":\"pong\""), "{line}");
    drop((reader, writer));

    let mut client = Client::connect(&addr, "it").unwrap();
    client.shutdown(ShutdownMode::Drain).unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn overload_rejections_are_typed_over_the_wire() {
    let policy = ServePolicy {
        quota: QuotaPolicy { max_in_flight_per_client: 1, max_queue_depth: 0 },
        ..quick_policy()
    };
    let (addr, _scheduler, handle) = spawn_server(policy, None);
    let mut client = Client::connect(&addr, "greedy").unwrap();

    client.submit("slow", "sleep:400").unwrap();
    // Second submission while the first is in flight: a typed overloaded
    // rejection carrying the tripped scope and limit, not a hang.
    let err = client.submit("extra", "square:3").unwrap_err();
    match err {
        ServeError::Rejected(reject) => {
            assert_eq!(reject.kind, RejectKind::Overloaded);
            assert_eq!(reject.scope, Some("client"));
            assert_eq!(reject.current, Some(1));
            assert_eq!(reject.limit, Some(1));
        }
        other => panic!("expected typed rejection, got {other:?}"),
    }

    // Once the slot frees, the same client is admitted again.
    client.wait("slow", Some(Duration::from_secs(30))).unwrap();
    client.submit("extra", "square:3").unwrap();
    let r = client.wait("extra", Some(Duration::from_secs(30))).unwrap();
    assert_eq!(r.output.as_deref(), Some("9"));
    assert!(client.stats().unwrap().overloaded >= 1);

    client.shutdown(ShutdownMode::Drain).unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn drain_finishes_in_flight_work_and_refuses_new_clients_typed() {
    let (addr, scheduler, handle) = spawn_server(quick_policy(), None);
    let mut client = Client::connect(&addr, "it").unwrap();
    for n in 0..4 {
        client.submit(&format!("s{n}"), "sleep:700").unwrap();
    }
    client.shutdown(ShutdownMode::Drain).unwrap();

    // While the drain runs, new submissions are refused with a typed
    // `draining` rejection (when the window is long enough to observe).
    if !scheduler.is_stopped() {
        if let Ok(mut late) = Client::connect(&addr, "late") {
            match late.submit("nope", "square:1") {
                Err(ServeError::Rejected(r)) => assert_eq!(r.kind, RejectKind::Draining),
                Ok(_) => panic!("draining server admitted new work"),
                // The server may finish draining and close the socket
                // between our connect and submit; that's a race, not a
                // protocol violation.
                Err(_) => {}
            }
        }
    }

    // Zero loss: the drain completes every in-flight job, and the results
    // are all on record.
    handle.join().unwrap().unwrap();
    for n in 0..4 {
        let r = scheduler.result(&format!("s{n}")).expect("drained job has a result");
        assert_eq!(r.status, JobStatus::Succeeded, "s{n}");
        assert_eq!(r.output.as_deref(), Some("slept 700"));
    }
}

#[test]
fn crash_recovery_over_tcp_resumes_and_results_are_bit_identical() {
    let journal = temp_path("crash.jsonl");
    let ids: Vec<String> = (0..8u64).map(|n| format!("j{n}")).collect();

    // Phase 1: submit everything, wait for a prefix, then hard-stop the
    // server mid-sweep (the in-process stand-in for SIGKILL; the chaos
    // smoke in scripts/check.sh kills a real process).
    let mut finished_before = Vec::new();
    {
        let (addr, scheduler, handle) = spawn_server(quick_policy(), Some(&journal));
        let mut client = Client::connect(&addr, "repro").unwrap();
        for (n, id) in ids.iter().enumerate() {
            let spec = if n < 3 {
                format!("square:{n}")
            } else {
                // Enough runway that the stop lands mid-sweep.
                "sleep:300".to_string()
            };
            client.submit(id, &spec).unwrap();
        }
        for id in &ids[..3] {
            finished_before.push(client.wait(id, Some(Duration::from_secs(30))).unwrap());
        }
        scheduler.stop_now();
        handle.join().unwrap().unwrap();
    }

    // Phase 2: a fresh server on the same journal recovers: finished jobs
    // replay bit-identically, unfinished ones re-run; an idempotent client
    // rerun re-attaches instead of re-executing.
    let (addr, _scheduler, handle) = spawn_server(quick_policy(), Some(&journal));
    let mut client = Client::connect(&addr, "repro").unwrap();
    for (n, id) in ids.iter().enumerate() {
        let spec =
            if n < 3 { format!("square:{n}") } else { "sleep:300".to_string() };
        client.submit(id, &spec).unwrap();
    }
    let stats = client.stats().unwrap();
    assert!(stats.recovered >= 3, "journal replay should restore the finished prefix: {stats:?}");

    for (n, id) in ids.iter().enumerate() {
        let r = client.wait(id, Some(Duration::from_secs(30))).unwrap();
        assert_eq!(r.status, JobStatus::Succeeded, "{id}");
        if n < 3 {
            // Bit-identical to what the crashed server handed out, down to
            // the serialized journal record.
            let before = &finished_before[n];
            assert_eq!(
                pim_harness::journal::record_line(&r),
                pim_harness::journal::record_line(before),
                "{id}"
            );
        } else {
            assert_eq!(r.output.as_deref(), Some("slept 300"), "{id}");
        }
    }

    client.shutdown(ShutdownMode::Drain).unwrap();
    handle.join().unwrap().unwrap();
    std::fs::remove_file(&journal).ok();
}

#[test]
fn high_priority_submissions_overtake_queued_normals_over_tcp() {
    use std::sync::Mutex;

    use pim_serve::Priority;

    // A resolver that records completion order. One worker makes
    // execution strictly serial in queue order, so the recorded order IS
    // the queueing decision.
    let order: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let o = Arc::clone(&order);
    let resolver: Resolver = Arc::new(move |spec: &str, _ctx| {
        if spec == "block" {
            thread::sleep(Duration::from_millis(400));
        }
        o.lock().unwrap().push(spec.to_string());
        Ok(spec.to_string())
    });
    let policy = ServePolicy {
        harness: HarnessPolicy { workers: 1, ..quick_policy().harness },
        ..quick_policy()
    };
    let tracer = Tracer::new();
    let scheduler = Arc::new(Scheduler::start(policy, resolver, tracer.clone(), None).unwrap());
    let server = Server::bind("127.0.0.1:0", Arc::clone(&scheduler), tracer).unwrap();
    let addr = server.local_addr().to_string();
    let handle = thread::spawn(move || server.run());

    let mut client = Client::connect(&addr, "it").unwrap();
    // Occupy the only worker so everything below queues in the injector.
    client.submit("blocker", "block").unwrap();
    thread::sleep(Duration::from_millis(100));
    // Bulk work first, then an interactive burst on top of it.
    for n in 0..4u64 {
        client.submit(&format!("n{n}"), &format!("normal-{n}")).unwrap();
    }
    for n in 0..4u64 {
        client.submit_priority(&format!("h{n}"), &format!("high-{n}"), Priority::High).unwrap();
    }
    for id in ["blocker", "n0", "n1", "n2", "n3", "h0", "h1", "h2", "h3"] {
        let r = client.wait(id, Some(Duration::from_secs(30))).unwrap();
        assert_eq!(r.status, JobStatus::Succeeded, "{id}");
    }

    let got = order.lock().unwrap().clone();
    assert_eq!(got[0], "block");
    let after: Vec<&str> = got[1..].iter().map(String::as_str).collect();
    // The high burst overtakes the earlier-submitted normals...
    assert!(
        after[0].starts_with("high-") && after[1].starts_with("high-"),
        "high lane must drain first: {after:?}"
    );
    let highs_in_first_four = after[..4].iter().filter(|s| s.starts_with("high-")).count();
    assert!(highs_in_first_four >= 3, "high lane dominates the front: {after:?}");
    // ...but the fairness stride keeps the normal lane live while highs
    // are still pending (starvation-free).
    let first_normal = after.iter().position(|s| s.starts_with("normal-")).unwrap();
    assert!(first_normal < 4, "a normal job must run within one stride: {after:?}");
    // Within each class, FIFO submission order is preserved.
    let highs: Vec<&str> = after.iter().copied().filter(|s| s.starts_with("high-")).collect();
    let normals: Vec<&str> = after.iter().copied().filter(|s| s.starts_with("normal-")).collect();
    assert_eq!(highs, ["high-0", "high-1", "high-2", "high-3"]);
    assert_eq!(normals, ["normal-0", "normal-1", "normal-2", "normal-3"]);

    client.shutdown(ShutdownMode::Drain).unwrap();
    handle.join().unwrap().unwrap();
    scheduler.join();
}
