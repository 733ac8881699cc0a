//! The harness half of the seeded chaos matrix.
//!
//! Every family × seed runs a full journaled sweep with fault injection
//! on the journal file (`pim-chaos` wraps the writer; the computation
//! itself is never touched) and asserts the two headline properties:
//!
//! 1. **Degradation never corrupts output** — the sweep completes and
//!    its merged results are byte-identical to an unjournaled reference
//!    run, no matter what happened to the journal.
//! 2. **Every surviving journal resumes bit-identically** — a fresh
//!    harness resuming from whatever bytes survived re-runs only the
//!    dropped jobs and merges to the same byte-identical results.
//!
//! Seed count defaults to 64 per family; `PIM_CHAOS_SEEDS` overrides it
//! (`scripts/check.sh` and CI run 8).

use std::path::PathBuf;
use std::time::Duration;

use pim_chaos::ChaosConfig;
use pim_harness::{Harness, HarnessPolicy, Job, SweepReport};

fn seeds() -> u64 {
    std::env::var("PIM_CHAOS_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(64)
}

fn quick_policy() -> HarnessPolicy {
    HarnessPolicy {
        workers: 2,
        retry_backoff: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(4),
        ..HarnessPolicy::default()
    }
}

/// A deterministic sweep with hostile payloads: quotes, newlines,
/// non-ASCII, and an empty output, so record escaping is stressed too.
fn make_jobs() -> Vec<Job> {
    let mut jobs: Vec<Job> = (0..10)
        .map(|i| Job::new(format!("sq-{i:02}"), move |_ctx| Ok(format!("{}", i * i))))
        .collect();
    jobs.push(Job::new("weird", |_ctx| {
        Ok("line1\nline2 \"quoted\"\ttabbed — ünïcode".to_string())
    }));
    jobs.push(Job::new("empty", |_ctx| Ok(String::new())));
    jobs
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pim-chaos-matrix-{}-{name}.jsonl", std::process::id()))
}

fn reference() -> SweepReport {
    Harness::new(quick_policy()).run(make_jobs()).unwrap()
}

/// What a family is expected to do to the journal across the matrix.
enum Drops {
    /// The fault must actually fire somewhere (else the matrix proves
    /// nothing).
    Expected,
    /// Every fault is transient and must be retried through invisibly.
    None,
}

fn run_family(family: &str, cfg: ChaosConfig, drops: Drops) {
    let reference = reference();
    let mut dropped_total = 0usize;
    for seed in 0..seeds() {
        let path = temp_path(&format!("{family}-{seed}"));
        std::fs::remove_file(&path).ok();

        // Chaos sweep: the journal may tear, stall, or fill up, but the
        // merged results must not notice.
        let report = Harness::new(quick_policy())
            .with_journal(&path)
            .with_journal_chaos(cfg, seed)
            .run(make_jobs())
            .unwrap();
        assert_eq!(
            report.results, reference.results,
            "{family} seed {seed}: journal chaos changed computed results"
        );
        dropped_total += report.journal_dropped;

        // Resume from whatever survived (a journal whose header write
        // failed was removed — the sweep ran unjournaled, nothing to
        // resume).
        if path.exists() {
            let resumed = Harness::new(quick_policy())
                .resume_from(&path)
                .run(make_jobs())
                .unwrap();
            assert_eq!(
                resumed.results, reference.results,
                "{family} seed {seed}: resume from surviving journal diverged"
            );
            // Acked-implies-durable: a record that was not counted
            // dropped must be restorable (a dropped one may still
            // survive as a lucky near-complete tear, hence >=).
            assert!(
                resumed.resumed + report.journal_dropped >= reference.results.len(),
                "{family} seed {seed}: {} restored + {} dropped < {} jobs — \
                 an acked record vanished",
                resumed.resumed,
                report.journal_dropped,
                reference.results.len()
            );
        }
        std::fs::remove_file(&path).ok();
    }
    match drops {
        Drops::Expected => assert!(
            dropped_total > 0,
            "{family}: no journal record was ever dropped across {} seeds — \
             the fault injector is not firing",
            seeds()
        ),
        Drops::None => assert_eq!(
            dropped_total, 0,
            "{family}: transient faults must be retried through, never dropped"
        ),
    }
}

#[test]
fn torn_writes_never_corrupt_results_and_journals_resume() {
    run_family("torn-writes", ChaosConfig::torn_writes(), Drops::Expected);
}

#[test]
fn interrupt_storms_are_retried_through() {
    run_family("interrupts", ChaosConfig::interrupts(), Drops::None);
}

#[test]
fn disk_full_degrades_gracefully_and_survivors_resume() {
    // Budget covers the header and a handful of records; the onset lands
    // mid-sweep, so part of the journal survives and part drops.
    run_family("disk-full", ChaosConfig::disk_full(400), Drops::Expected);
}

#[test]
fn chaos_disabled_is_transparent() {
    run_family("none", ChaosConfig::none(), Drops::None);
}
