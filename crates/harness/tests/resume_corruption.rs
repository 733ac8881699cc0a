//! End-to-end journal corruption matrix: a hand-damaged journal —
//! truncated tail, partial line, NUL bytes, invalid UTF-8, duplicate and
//! foreign records — must resume by skipping-and-counting the damage,
//! restoring every intact record exactly once, and re-running only the
//! jobs whose records were destroyed. Resume never aborts and never runs
//! a journaled job twice.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use pim_chaos::ChaosConfig;
use pim_harness::journal::record_line;
use pim_harness::{Harness, HarnessPolicy, Job, JobResult, JobStatus};

const IDS: [&str; 6] = ["j0", "j1", "j2", "j3", "j4", "j5"];

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pim-harness-corrupt-{}-{name}", std::process::id()))
}

/// The sweep's jobs: deterministic output, with a shared per-id run
/// counter so the test can prove which closures executed.
fn jobs(counters: &Arc<BTreeMap<String, AtomicUsize>>) -> Vec<Job> {
    IDS.iter()
        .map(|id| {
            let counters = Arc::clone(counters);
            Job::new(*id, move |ctx| {
                counters[&ctx.job_id].fetch_add(1, Ordering::SeqCst);
                Ok(format!("out:{}", ctx.job_id))
            })
        })
        .collect()
}

fn counters() -> Arc<BTreeMap<String, AtomicUsize>> {
    Arc::new(IDS.iter().map(|id| (id.to_string(), AtomicUsize::new(0))).collect())
}

fn record(id: &str, attempts: u32) -> String {
    record_line(&JobResult {
        id: id.to_string(),
        status: JobStatus::Succeeded,
        attempts,
        output: Some(format!("out:{id}")),
        error_label: None,
        error: None,
        seed: None,
    })
}

#[test]
fn resume_survives_the_full_corruption_matrix_without_rerunning_intact_work() {
    let path = temp_path("matrix.jsonl");
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"{\"journal\":\"pim-harness\",\"version\":1,\"jobs\":6}\n");
    // Two intact records.
    bytes.extend_from_slice(record("j0", 1).as_bytes());
    bytes.push(b'\n');
    bytes.extend_from_slice(record("j1", 1).as_bytes());
    bytes.push(b'\n');
    // A duplicate record for j0 with a different attempt count: the later
    // record wins and j0 still restores exactly once.
    bytes.extend_from_slice(record("j0", 3).as_bytes());
    bytes.push(b'\n');
    // A record truncated mid-write (torn tail from a SIGKILL).
    let torn = record("j2", 1);
    bytes.extend_from_slice(&torn.as_bytes()[..torn.len() / 2]);
    bytes.push(b'\n');
    // NUL-byte garbage from a corrupt sector.
    bytes.extend_from_slice(b"\x00\x00\x00{\"job\":\n");
    // Invalid UTF-8 mid-line.
    bytes.extend_from_slice(b"{\"job\":\"\xff\xfe broken\"}\n");
    // An intact record for a job this sweep does not have.
    bytes.extend_from_slice(record("ghost", 1).as_bytes());
    bytes.push(b'\n');
    std::fs::write(&path, &bytes).unwrap();

    let runs = counters();
    let report = Harness::new(HarnessPolicy { workers: 2, ..HarnessPolicy::default() })
        .resume_from(&path)
        .run(jobs(&runs))
        .expect("a damaged journal must never abort the resume");

    // j0 and j1 restored from the journal; the other four re-ran.
    assert_eq!(report.resumed, 2);
    // Three corrupt lines plus the foreign `ghost` record, all counted.
    assert_eq!(report.journal_skipped, 4);
    assert_eq!(runs["j0"].load(Ordering::SeqCst), 0, "restored job must not re-run");
    assert_eq!(runs["j1"].load(Ordering::SeqCst), 0, "restored job must not re-run");
    for id in ["j2", "j3", "j4", "j5"] {
        assert_eq!(runs[id].load(Ordering::SeqCst), 1, "{id} re-runs exactly once");
    }

    // Results are complete, in input order, and the duplicate's later
    // record won (attempts 3, not 1).
    assert!(report.all_ok());
    let by_id: Vec<(&str, u32, Option<&str>)> = report
        .results
        .iter()
        .map(|r| (r.id.as_str(), r.attempts, r.output.as_deref()))
        .collect();
    assert_eq!(by_id[0], ("j0", 3, Some("out:j0")));
    assert_eq!(by_id[1], ("j1", 1, Some("out:j1")));
    for (n, id) in IDS.iter().enumerate().skip(2) {
        let expected = format!("out:{id}");
        assert_eq!(by_id[n], (*id, 1, Some(expected.as_str())));
    }

    // Second resume from the healed (appended) journal: everything is now
    // on record, nothing runs, and the merged output is bit-identical.
    let runs2 = counters();
    let report2 = Harness::new(HarnessPolicy { workers: 2, ..HarnessPolicy::default() })
        .resume_from(&path)
        .run(jobs(&runs2))
        .unwrap();
    assert_eq!(report2.resumed, 6);
    for id in IDS {
        assert_eq!(runs2[id].load(Ordering::SeqCst), 0, "{id} must not re-run");
    }
    let lines: Vec<String> = report.results.iter().map(record_line).collect();
    let lines2: Vec<String> = report2.results.iter().map(record_line).collect();
    assert_eq!(lines, lines2, "resumed sweep is bit-identical to the healed one");

    std::fs::remove_file(&path).ok();
}

#[test]
fn journal_written_through_interrupts_and_short_writes_resumes_complete() {
    // Transient writer faults — injected `Interrupted`/`WouldBlock` and
    // short writes — must be retried through invisibly: every record
    // lands intact and a resume restores all six jobs without re-running
    // any of them.
    let cfg = ChaosConfig {
        interrupt: 0.35,
        would_block: 0.20,
        write_zero: 0.10,
        short_write: 0.50,
        ..ChaosConfig::none()
    };
    for seed in 0..8 {
        let path = temp_path(&format!("transient-{seed}.jsonl"));
        std::fs::remove_file(&path).ok();

        let runs = counters();
        let report = Harness::new(HarnessPolicy { workers: 2, ..HarnessPolicy::default() })
            .with_journal(&path)
            .with_journal_chaos(cfg, seed)
            .run(jobs(&runs))
            .unwrap();
        assert!(report.all_ok());
        assert_eq!(
            report.journal_dropped, 0,
            "seed {seed}: transient faults must never drop a record"
        );

        let runs2 = counters();
        let resumed = Harness::new(HarnessPolicy { workers: 2, ..HarnessPolicy::default() })
            .resume_from(&path)
            .run(jobs(&runs2))
            .unwrap();
        assert_eq!(resumed.resumed, IDS.len(), "seed {seed}: every record must survive");
        assert_eq!(resumed.journal_skipped, 0, "seed {seed}: no torn debris expected");
        for id in IDS {
            assert_eq!(runs2[id].load(Ordering::SeqCst), 0, "seed {seed}: {id} re-ran");
        }
        let lines: Vec<String> = report.results.iter().map(record_line).collect();
        let lines2: Vec<String> = resumed.results.iter().map(record_line).collect();
        assert_eq!(lines, lines2, "seed {seed}: restored records diverged");
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn resume_from_a_journal_that_is_all_damage_reruns_everything() {
    let path = temp_path("alldamage.jsonl");
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"{\"journal\":\"pim-harness\",\"version\":1,\"jobs\":6}\n");
    bytes.extend_from_slice(b"\x00\x00\x00\x00\n{\"jo\n");
    let torn = record("j4", 1);
    bytes.extend_from_slice(&torn.as_bytes()[..torn.len() - 4]);
    std::fs::write(&path, &bytes).unwrap();

    let runs = counters();
    let report = Harness::new(HarnessPolicy { workers: 2, ..HarnessPolicy::default() })
        .resume_from(&path)
        .run(jobs(&runs))
        .unwrap();
    assert_eq!(report.resumed, 0);
    assert_eq!(report.journal_skipped, 3);
    assert!(report.all_ok());
    for id in IDS {
        assert_eq!(runs[id].load(Ordering::SeqCst), 1, "{id} re-runs exactly once");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn record_without_its_newline_is_not_spliced_by_the_next_append() {
    // A kill between a record and its `\n` leaves a complete last record
    // with no newline. It restores, nothing needs compacting, and the
    // resume's first appended record must still start a line of its own.
    let path = temp_path("no-newline.jsonl");
    let mut text = "{\"journal\":\"pim-harness\",\"version\":1,\"jobs\":6}\n".to_string();
    text.push_str(&record("j0", 1));
    std::fs::write(&path, &text).unwrap();

    let runs = counters();
    let report =
        Harness::new(HarnessPolicy::default()).resume_from(&path).run(jobs(&runs)).unwrap();
    assert_eq!(report.resumed, 1);
    assert_eq!(report.journal_skipped, 0);
    assert_eq!(runs["j0"].load(Ordering::SeqCst), 0, "restored job must not re-run");

    let runs2 = counters();
    let report2 =
        Harness::new(HarnessPolicy::default()).resume_from(&path).run(jobs(&runs2)).unwrap();
    assert_eq!(report2.resumed, IDS.len(), "every appended record must restore");
    assert_eq!(report2.journal_skipped, 0);
    for id in IDS {
        assert_eq!(runs2[id].load(Ordering::SeqCst), 0, "{id} re-ran");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn foreign_and_future_headers_are_a_typed_mismatch() {
    // A server journal and a harness journal of another version must be
    // refused whole, not read as a journal whose every line is damage.
    for (name, header) in [
        ("serve", "{\"journal\":\"pim-serve\",\"version\":1}\n"),
        ("v2", "{\"journal\":\"pim-harness\",\"version\":2,\"jobs\":6}\n"),
    ] {
        let path = temp_path(&format!("foreign-{name}.jsonl"));
        let mut text = header.to_string();
        text.push_str(&record("j0", 1));
        text.push('\n');
        std::fs::write(&path, &text).unwrap();

        let read = pim_harness::journal::read_journal(&path, IDS.len());
        assert!(
            matches!(read, Err(pim_harness::HarnessError::JournalMismatch { .. })),
            "{name}: {read:?}"
        );
        let runs = counters();
        let resumed = Harness::new(HarnessPolicy::default()).resume_from(&path).run(jobs(&runs));
        assert!(
            matches!(resumed, Err(pim_harness::HarnessError::JournalMismatch { .. })),
            "{name}: {:?}",
            resumed.err()
        );
        for id in IDS {
            assert_eq!(runs[id].load(Ordering::SeqCst), 0, "{name}: {id} ran");
        }
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text, "{name}: journal touched");
        std::fs::remove_file(&path).ok();
    }
}
