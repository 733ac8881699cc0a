//! The serve half of the seeded chaos matrix.
//!
//! Each family × seed drives a full client sweep over real TCP with
//! fault injection on the *client's* stream halves (torn writes, short
//! reads, injected interrupts, mid-stream connection resets) or on the
//! server's journal sink (disk full), and asserts the headline property:
//! **every sweep converges to byte-identical output**. The client's
//! reconnect-and-re-issue layer plus the server's idempotent submissions
//! are what make that true; the matrix is what proves it.
//!
//! The fault *plans* are seeded and deterministic; op boundaries on a
//! live socket can shift with kernel buffering, so the assertions here
//! are convergence and byte-identical results per seed, not identical
//! fault schedules.
//!
//! Seed count defaults to 64 per family; `PIM_CHAOS_SEEDS` overrides it
//! (`scripts/check.sh` and CI run 8).

use std::path::PathBuf;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use pim_chaos::ChaosConfig;
use pim_faults::DmpimError;
use pim_harness::journal::record_line;
use pim_harness::{FsyncPolicy, HarnessPolicy, RecordWriter};
use pim_serve::recovery::{self, RecoveredState};
use pim_serve::{Client, ClientConfig, Resolver, Scheduler, ServeError, ServePolicy, Server};
use pim_trace::Tracer;

const JOBS: u64 = 6;

fn seeds() -> u64 {
    std::env::var("PIM_CHAOS_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(64)
}

fn square_resolver() -> Resolver {
    Arc::new(|spec: &str, _ctx| {
        spec.strip_prefix("square:")
            .and_then(|n| n.parse::<u64>().ok())
            .map(|n| format!("{}", n * n))
            .ok_or(DmpimError::UnknownExperiment { id: spec.to_string() })
    })
}

fn quick_policy() -> ServePolicy {
    ServePolicy {
        harness: HarnessPolicy {
            workers: 2,
            retry_backoff: Duration::from_millis(1),
            fsync: FsyncPolicy::Off,
            ..ServePolicy::default().harness
        },
        ..ServePolicy::default()
    }
}

fn spawn_server() -> (String, Arc<Scheduler>, thread::JoinHandle<Result<(), ServeError>>) {
    let tracer = Tracer::new();
    let scheduler = Arc::new(
        Scheduler::start(quick_policy(), square_resolver(), tracer.clone(), None).unwrap(),
    );
    let server = Server::bind("127.0.0.1:0", Arc::clone(&scheduler), tracer).unwrap();
    let addr = server.local_addr().to_string();
    let handle = thread::spawn(move || server.run());
    (addr, scheduler, handle)
}

fn chaos_client(cfg: ChaosConfig, seed: u64) -> ClientConfig {
    ClientConfig {
        read_timeout: Some(Duration::from_secs(20)),
        reconnect_attempts: 12,
        reconnect_backoff: Duration::from_millis(2),
        backoff_cap: Duration::from_millis(40),
        chaos: Some((cfg, seed)),
    }
}

/// One client sweep: submit [`JOBS`] squares, wait for each, render the
/// outputs in job order — the "stdout" the matrix compares.
fn sweep(addr: &str, name: &str, cfg: Option<(ChaosConfig, u64)>) -> String {
    let client_cfg = match cfg {
        Some((c, seed)) => chaos_client(c, seed),
        None => ClientConfig::default(),
    };
    let mut client = Client::connect_with(addr, name, client_cfg).unwrap();
    for n in 0..JOBS {
        client
            .submit(&format!("{name}-{n}"), &format!("square:{n}"))
            .unwrap_or_else(|e| panic!("{name}: submit {n}: {e}"));
    }
    let mut out = String::new();
    for n in 0..JOBS {
        let r = client
            .wait(&format!("{name}-{n}"), Some(Duration::from_secs(30)))
            .unwrap_or_else(|e| panic!("{name}: wait {n}: {e}"));
        out.push_str(&record_line(&r));
        out.push('\n');
    }
    out
}

fn run_family(family: &str, cfg: ChaosConfig) {
    let (addr, scheduler, handle) = spawn_server();
    // The reference sweep runs with chaos disabled; its job ids differ
    // (ids embed the sweep name) so rewrite them out of the comparison.
    let reference = sweep(&addr, "ref", None).replace("\"job\":\"ref-", "\"job\":\"X-");
    for seed in 0..seeds() {
        let name = format!("{family}-{seed}");
        let out = sweep(&addr, &name, Some((cfg, seed)))
            .replace(&format!("\"job\":\"{name}-"), "\"job\":\"X-");
        assert_eq!(out, reference, "family {family} seed {seed} diverged");
    }
    scheduler.drain();
    scheduler.join();
    handle.join().unwrap().unwrap();
}

#[test]
fn torn_writes_converge_to_byte_identical_results() {
    run_family("torn", ChaosConfig::torn_writes());
}

#[test]
fn short_reads_converge_to_byte_identical_results() {
    run_family("shortread", ChaosConfig::short_reads());
}

#[test]
fn interrupt_storms_converge_to_byte_identical_results() {
    run_family("intr", ChaosConfig::interrupts());
}

#[test]
fn mid_stream_resets_reconnect_and_converge() {
    // Onset in [10, 40) ops: every connection survives the handshake and
    // at least one full call before it dies, so progress is guaranteed
    // while every seed still exercises several resets per sweep.
    run_family("reset", ChaosConfig::reset_between(10, 40));
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pim-serve-chaos-{}-{name}.jsonl", std::process::id()))
}

#[test]
fn disk_full_journal_degrades_gracefully_and_survivors_replay_bit_identically() {
    for seed in 0..seeds() {
        let path = temp_path(&format!("diskfull-{seed}"));
        std::fs::remove_file(&path).ok();

        // Journal budget: header always fits, onset lands somewhere in
        // the record stream (varies with seed).
        let budget = 60 + (seed % 7) * 45;
        // Synced as the service journals by default, so every seed's
        // records go through the commit path.
        let journal = RecordWriter::create(
            &path,
            &recovery::header(),
            FsyncPolicy::Data,
            Some((ChaosConfig::disk_full(budget), seed)),
        )
        .unwrap();
        let s = Scheduler::start_with_journal(
            quick_policy(),
            square_resolver(),
            Tracer::disabled(),
            Some(journal),
            RecoveredState::default(),
        )
        .unwrap();

        let mut results = Vec::new();
        for n in 0..JOBS {
            assert!(
                matches!(
                    s.submit("c1", &format!("j{n}"), &format!("square:{n}")),
                    pim_serve::SubmitOutcome::Accepted { .. }
                ),
                "seed {seed}: a full disk must not refuse admission"
            );
        }
        for n in 0..JOBS {
            match s.wait(&format!("j{n}"), Some(Duration::from_secs(10))) {
                pim_serve::WaitOutcome::Done(r) => {
                    assert_eq!(r.output.as_deref(), Some(format!("{}", n * n).as_str()));
                    results.push(r);
                }
                other => panic!("seed {seed} j{n}: {other:?}"),
            }
        }
        let (degraded, dropped) = s.journal_health();
        assert!(degraded, "seed {seed}: budget {budget} should trip disk-full");
        assert!(dropped > 0);
        s.drain();
        s.join();

        // Whatever survived on disk replays, and every surviving result
        // is bit-identical to the one served from memory.
        let (_, state) = recovery::recover(&path, FsyncPolicy::Data).unwrap();
        for (id, restored) in &state.results {
            let n: usize = id.trim_start_matches('j').parse().unwrap();
            assert_eq!(
                record_line(restored),
                record_line(&results[n]),
                "seed {seed}: surviving record {id} diverged"
            );
        }
        std::fs::remove_file(&path).ok();
    }
}
