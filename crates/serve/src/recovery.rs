//! The server journal and crash recovery.
//!
//! `pim-serve` writes a single append-only JSONL journal with two record
//! kinds interleaved in arrival order:
//!
//! ```text
//! {"journal":"pim-serve","version":1}
//! {"kind":"sub","id":"fig18","client":"repro","spec":"experiment:fig18"}
//! {"job":"fig18","status":"ok","attempts":1,"output":"..."}
//! ```
//!
//! * a **submission** line is written (and flushed) *before* the job is
//!   enqueued — write-ahead, so an admitted job can never be lost;
//! * a **result** line is written when the job reaches a terminal state,
//!   in exactly the harness journal format
//!   ([`pim_harness::journal::record_line`]).
//!
//! Every line is a [`pim_trace::JsonValue`] object, rendered with
//! [`JsonValue::render`]; replay parses each line once with
//! [`JsonValue::parse`] and reads it as a submission or a result.
//!
//! On restart the server replays the journal: jobs with an intact result
//! are restored verbatim (bit-identical payloads — results carry their
//! output as strings), jobs with only a submission are re-enqueued, and
//! corrupt lines of any kind are skipped and counted, inheriting the
//! harness reader's tolerance for truncated tails, interleaved partial
//! writes, duplicates, and invalid UTF-8. Recovery is why a `SIGKILL`ed
//! server resumes instead of re-running the world.

use std::collections::BTreeMap;
use std::fs::File;
use std::path::Path;

use pim_harness::journal::{record_line, replace_atomically, result_from_json};
use pim_harness::{FsyncPolicy, JobResult, JournalSink, Priority, RecordWriter};
use pim_trace::JsonValue;

use crate::ServeError;

/// Magic name in the header line.
const MAGIC: &str = "pim-serve";
/// Journal format version.
const VERSION: u64 = 1;

/// One replayed submission, in journal (arrival) order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Submission {
    /// Job id.
    pub id: String,
    /// Owning client name.
    pub client: String,
    /// Job spec, e.g. `experiment:fig18`.
    pub spec: String,
    /// Queueing class; recovered jobs re-enqueue in their original lane.
    pub priority: Priority,
}

/// Everything replayed from a server journal.
#[derive(Debug, Default)]
pub struct RecoveredState {
    /// Submissions in arrival order, deduplicated by id (first wins).
    pub submissions: Vec<Submission>,
    /// Terminal results keyed by job id (later record wins, as in the
    /// harness journal).
    pub results: BTreeMap<String, JobResult>,
    /// Corrupt or unrecognized body lines skipped during replay.
    pub skipped: usize,
    /// Duplicate submission or result records tolerated during replay.
    pub duplicates: usize,
}

impl RecoveredState {
    /// Jobs that were admitted but have no terminal result — the re-run
    /// backlog after a crash.
    pub fn unfinished(&self) -> impl Iterator<Item = &Submission> {
        self.submissions.iter().filter(|s| !self.results.contains_key(&s.id))
    }
}

/// The header line every pim-serve journal starts with.
fn header_line() -> String {
    JsonValue::object().set("journal", MAGIC).set("version", VERSION).render()
}

/// One write-ahead submission record. `priority` is written only when
/// non-default, keeping pre-priority journals byte-identical and
/// readable by both directions.
fn submission_line(sub: &Submission) -> String {
    JsonValue::object()
        .set("kind", "sub")
        .set("id", sub.id.as_str())
        .set("client", sub.client.as_str())
        .set("spec", sub.spec.as_str())
        .set_some("priority", (sub.priority != Priority::Normal).then(|| sub.priority.label()))
        .render()
}

/// Append-only server journal writer on the harness's hardened
/// [`RecordWriter`]: transient write faults (`Interrupted`,
/// `WouldBlock`, zero-length writes) are retried to completion, a failed
/// record leaves the writer *dirty* so the next line is guarded by a
/// newline (torn fragments isolate on their own unparseable line), and
/// the [`FsyncPolicy`] decides how much durability each record buys.
pub struct ServeJournal {
    out: RecordWriter,
}

impl ServeJournal {
    /// Start a fresh journal (truncates) and write the header.
    pub fn create(path: &Path) -> Result<Self, ServeError> {
        Self::create_opts(path, FsyncPolicy::default())
    }

    /// [`ServeJournal::create`] with an explicit durability policy.
    pub fn create_opts(path: &Path, fsync: FsyncPolicy) -> Result<Self, ServeError> {
        let out = RecordWriter::create(path, fsync).map_err(|e| ServeError::io(path, &e))?;
        let mut w = Self { out };
        w.line(&header_line())?;
        Ok(w)
    }

    /// Build a journal over an arbitrary sink (tests inject
    /// chaos-wrapped files here). The header is written through the
    /// sink, so a faulting sink can fail journal creation the same way a
    /// faulting disk would.
    pub fn from_sink(
        path: &Path,
        sink: Box<dyn JournalSink>,
        fsync: FsyncPolicy,
    ) -> Result<Self, ServeError> {
        let mut w = Self { out: RecordWriter::from_sink(path, sink, fsync) };
        w.line(&header_line())?;
        Ok(w)
    }

    /// Open an existing journal and replay it, then keep appending. A
    /// missing file degrades to [`ServeJournal::create`] with an empty
    /// state, so first start and restart share a command line.
    pub fn recover(path: &Path) -> Result<(Self, RecoveredState), ServeError> {
        Self::recover_opts(path, FsyncPolicy::default())
    }

    /// [`ServeJournal::recover`] with an explicit durability policy. If
    /// the replay found damage (skipped lines or duplicates), the journal
    /// is first compacted — rewritten atomically (tmp + rename) from the
    /// recovered state — so debris does not accumulate across restarts.
    /// Compaction failure is non-fatal: the damaged journal is still
    /// readable, so the server keeps appending to it.
    pub fn recover_opts(
        path: &Path,
        fsync: FsyncPolicy,
    ) -> Result<(Self, RecoveredState), ServeError> {
        if !path.exists() {
            return Ok((Self::create_opts(path, fsync)?, RecoveredState::default()));
        }
        let state = read_serve_journal(path)?;
        if state.skipped > 0 || state.duplicates > 0 {
            if let Err(e) = compact_serve_journal(path, &state) {
                eprintln!("pim-serve: journal compaction skipped: {e}");
            }
        }
        let out = RecordWriter::append(path, fsync).map_err(|e| ServeError::io(path, &e))?;
        Ok((Self { out }, state))
    }

    /// Write-ahead record of an admitted submission.
    pub fn record_submission(&mut self, sub: &Submission) -> Result<(), ServeError> {
        self.line(&submission_line(sub))
    }

    /// Record a terminal result (harness journal format).
    pub fn record_result(&mut self, r: &JobResult) -> Result<(), ServeError> {
        self.line(&record_line(r))
    }

    fn line(&mut self, s: &str) -> Result<(), ServeError> {
        let path = self.out.path().to_path_buf();
        self.out.write_line(s).map_err(|e| ServeError::io(&path, &e))
    }
}

/// Rewrite a damaged journal from its recovered state: header, then each
/// surviving submission (synthesized orphans excepted — their marker is
/// the *absence* of a submission line) followed by its result. The new
/// file replaces the old one atomically, so a crash mid-compaction leaves
/// either the old journal or the new one, never a mix.
fn compact_serve_journal(path: &Path, state: &RecoveredState) -> std::io::Result<()> {
    let mut text = header_line();
    text.push('\n');
    for sub in &state.submissions {
        let synthesized = sub.client.is_empty() && sub.spec.is_empty();
        if !synthesized {
            text.push_str(&submission_line(sub));
            text.push('\n');
        }
        if let Some(r) = state.results.get(&sub.id) {
            text.push_str(&record_line(r));
            text.push('\n');
        }
    }
    replace_atomically(path, text.as_bytes(), |tmp| {
        Ok(Box::new(File::create(tmp)?))
    })
    .map_err(|(_, e)| e)
}

/// Replay a server journal.
///
/// # Errors
///
/// Only unreadable files and a missing/foreign header line are errors.
/// Body damage never is: corrupt lines are skipped and counted,
/// duplicates are tolerated, and a result whose submission line was
/// destroyed is still restored (the orphaned result is re-attached to a
/// synthesized submission so clients can still `wait` for it).
pub fn read_serve_journal(path: &Path) -> Result<RecoveredState, ServeError> {
    let bytes = std::fs::read(path).map_err(|e| ServeError::io(path, &e))?;
    // Lossy decode: invalid UTF-8 garbles only its own line.
    let text = String::from_utf8_lossy(&bytes);
    let mut lines = text.lines();
    let header = lines.next().and_then(|line| JsonValue::parse(line).ok()).ok_or_else(|| {
        ServeError::journal(path, "missing or unreadable header line")
    })?;
    match (
        header.get("journal").and_then(JsonValue::as_str),
        header.get("version").and_then(JsonValue::as_u64),
    ) {
        (Some(MAGIC), Some(VERSION)) => {}
        _ => return Err(ServeError::journal(path, "header is not a pim-serve v1 journal")),
    }

    let mut state = RecoveredState::default();
    let mut seen_subs: BTreeMap<String, usize> = BTreeMap::new();
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        let record = JsonValue::parse(line).ok();
        if let Some(sub) = record.as_ref().and_then(submission_from_json) {
            if seen_subs.contains_key(&sub.id) {
                state.duplicates += 1;
            } else {
                seen_subs.insert(sub.id.clone(), state.submissions.len());
                state.submissions.push(sub);
            }
            continue;
        }
        if let Some(result) = record.as_ref().and_then(result_from_json) {
            if state.results.insert(result.id.clone(), result).is_some() {
                state.duplicates += 1;
            }
            continue;
        }
        state.skipped += 1;
    }

    // Orphaned results (their submission line was destroyed): synthesize
    // a submission so the job still exists, terminal, waitable.
    let orphans: Vec<String> = state
        .results
        .keys()
        .filter(|id| !seen_subs.contains_key(*id))
        .cloned()
        .collect();
    for id in orphans {
        state.submissions.push(Submission {
            id,
            client: String::new(),
            spec: String::new(),
            priority: Priority::Normal,
        });
    }
    Ok(state)
}

fn submission_from_json(record: &JsonValue) -> Option<Submission> {
    let text = |key: &str| record.get(key).and_then(JsonValue::as_str);
    if text("kind")? != "sub" {
        return None;
    }
    Some(Submission {
        id: text("id")?.to_string(),
        client: text("client")?.to_string(),
        spec: text("spec")?.to_string(),
        // Absent = pre-priority record = Normal; an unparseable label
        // makes the whole line corrupt (skipped and counted) rather
        // than silently demoting the job.
        priority: match text("priority") {
            None => Priority::Normal,
            Some(p) => Priority::from_label(p)?,
        },
    })
}

#[cfg(test)]
mod tests {
    use std::fs::OpenOptions;
    use std::io::Write;
    use std::path::PathBuf;

    use pim_harness::JobStatus;

    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("pim-serve-test-{}-{name}", std::process::id()));
        p
    }

    fn sub(id: &str) -> Submission {
        Submission {
            id: id.into(),
            client: "c1".into(),
            spec: format!("kernel:{id}"),
            priority: Priority::Normal,
        }
    }

    #[test]
    fn priority_survives_the_journal_and_defaults_to_normal() {
        let path = tmp("priority.jsonl");
        {
            let mut j = ServeJournal::create(&path).unwrap();
            j.record_submission(&Submission { priority: Priority::High, ..sub("hot") }).unwrap();
            j.record_submission(&sub("cold")).unwrap();
        }
        // A pre-priority record (no field at all) reads back as Normal.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"kind\":\"sub\",\"id\":\"old\",\"client\":\"c1\",\"spec\":\"kernel:old\"}\n")
            .unwrap();
        // A garbled label is corrupt, not silently demoted.
        f.write_all(b"{\"kind\":\"sub\",\"id\":\"bad\",\"client\":\"c1\",\"spec\":\"s\",\"priority\":\"urgent\"}\n")
            .unwrap();
        drop(f);

        let state = read_serve_journal(&path).unwrap();
        let by_id = |id: &str| state.submissions.iter().find(|s| s.id == id).unwrap();
        assert_eq!(by_id("hot").priority, Priority::High);
        assert_eq!(by_id("cold").priority, Priority::Normal);
        assert_eq!(by_id("old").priority, Priority::Normal);
        assert!(state.submissions.iter().all(|s| s.id != "bad"));
        assert_eq!(state.skipped, 1, "the garbled-priority line is counted");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn write_ahead_then_results_replay_in_order() {
        let path = tmp("replay.jsonl");
        {
            let mut j = ServeJournal::create(&path).unwrap();
            j.record_submission(&sub("a")).unwrap();
            j.record_submission(&sub("b")).unwrap();
            j.record_result(&JobResult::ok("a", 1, "out-a".into())).unwrap();
            j.record_submission(&sub("c")).unwrap();
        }
        let (_, state) = ServeJournal::recover(&path).unwrap();
        let ids: Vec<&str> = state.submissions.iter().map(|s| s.id.as_str()).collect();
        assert_eq!(ids, ["a", "b", "c"], "submission order is arrival order");
        assert_eq!(state.results.len(), 1);
        assert_eq!(state.results["a"].output.as_deref(), Some("out-a"));
        let unfinished: Vec<&str> = state.unfinished().map(|s| s.id.as_str()).collect();
        assert_eq!(unfinished, ["b", "c"], "only jobs without a result re-run");
        assert_eq!((state.skipped, state.duplicates), (0, 0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_degrades_to_fresh_journal() {
        let path = tmp("fresh.jsonl");
        std::fs::remove_file(&path).ok();
        let (mut j, state) = ServeJournal::recover(&path).unwrap();
        assert!(state.submissions.is_empty());
        j.record_submission(&sub("x")).unwrap();
        drop(j);
        let (_, state) = ServeJournal::recover(&path).unwrap();
        assert_eq!(state.submissions.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corruption_matrix_is_skipped_and_counted() {
        let path = tmp("corrupt.jsonl");
        {
            let mut j = ServeJournal::create(&path).unwrap();
            j.record_submission(&sub("a")).unwrap();
            j.record_result(&JobResult::ok("a", 1, "out-a".into())).unwrap();
            j.record_submission(&sub("b")).unwrap();
        }
        // Torn-write debris: a truncated result line, raw NULs, invalid
        // UTF-8, a duplicated submission, and a duplicated result.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"job\":\"half\",\"sta").unwrap();
        f.write_all(b"\n\x00\x00\x00\n").unwrap();
        f.write_all(b"{\"kind\":\"sub\",\"id\":\"\xff\xfe\n").unwrap();
        f.write_all(b"{\"kind\":\"sub\",\"id\":\"a\",\"client\":\"c1\",\"spec\":\"kernel:a\"}\n")
            .unwrap();
        f.write_all(b"{\"job\":\"a\",\"status\":\"ok\",\"attempts\":2,\"output\":\"later\"}\n")
            .unwrap();
        drop(f);

        let state = read_serve_journal(&path).unwrap();
        assert_eq!(state.skipped, 3, "torn line + NUL line + invalid-UTF-8 line");
        assert_eq!(state.duplicates, 2, "one dup submission, one dup result");
        assert_eq!(state.submissions.len(), 2);
        assert_eq!(state.results["a"].output.as_deref(), Some("later"), "later record wins");
        assert_eq!(state.unfinished().count(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn orphaned_result_synthesizes_its_submission() {
        let path = tmp("orphan.jsonl");
        {
            let mut j = ServeJournal::create(&path).unwrap();
            j.record_result(&JobResult::failed(
                "ghost",
                JobStatus::Failed,
                1,
                &pim_harness::JobFailure::Panicked { message: "boom".into() },
            ))
            .unwrap();
        }
        let state = read_serve_journal(&path).unwrap();
        assert_eq!(state.submissions.len(), 1, "synthesized so the result stays waitable");
        assert_eq!(state.submissions[0].id, "ghost");
        assert!(state.submissions[0].spec.is_empty());
        assert_eq!(state.unfinished().count(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn recover_compacts_a_damaged_journal_atomically() {
        let path = tmp("compact.jsonl");
        {
            let mut j = ServeJournal::create(&path).unwrap();
            j.record_submission(&sub("a")).unwrap();
            j.record_result(&JobResult::ok("a", 1, "out-a".into())).unwrap();
            j.record_submission(&sub("b")).unwrap();
        }
        // Damage: torn debris, a duplicate submission, and an orphaned
        // result whose submission line never made it.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"job\":\"half\",\"sta").unwrap();
        f.write_all(b"\n{\"kind\":\"sub\",\"id\":\"a\",\"client\":\"c1\",\"spec\":\"kernel:a\"}\n")
            .unwrap();
        f.write_all(b"{\"job\":\"ghost\",\"status\":\"ok\",\"attempts\":1,\"output\":\"boo\"}\n")
            .unwrap();
        drop(f);

        let (_, state) = ServeJournal::recover(&path).unwrap();
        assert_eq!(state.skipped, 1, "recover still reports what it healed");
        assert_eq!(state.duplicates, 1);

        // The journal on disk was compacted: a second recover is clean,
        // with identical surviving state and no leftover tmp file.
        let (_, clean) = ServeJournal::recover(&path).unwrap();
        assert_eq!((clean.skipped, clean.duplicates), (0, 0));
        let ids: Vec<&str> = clean.submissions.iter().map(|s| s.id.as_str()).collect();
        assert_eq!(ids, ["a", "b", "ghost"]);
        assert_eq!(clean.results["a"].output.as_deref(), Some("out-a"));
        assert_eq!(clean.results["ghost"].output.as_deref(), Some("boo"));
        assert!(
            clean.submissions[2].spec.is_empty(),
            "orphan stays synthesized across compaction"
        );
        assert!(!PathBuf::from(format!("{}.tmp", path.display())).exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn journal_over_a_failing_sink_reports_create_failure() {
        struct Dead;
        impl std::io::Write for Dead {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::from(std::io::ErrorKind::StorageFull))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        impl pim_harness::JournalSink for Dead {}
        let err = ServeJournal::from_sink(Path::new("/dev/null"), Box::new(Dead), FsyncPolicy::Off);
        assert!(err.is_err(), "header write through a dead sink must fail creation");
    }

    #[test]
    fn foreign_journal_is_rejected() {
        let path = tmp("foreign.jsonl");
        std::fs::write(&path, "{\"journal\":\"pim-harness\",\"version\":1,\"jobs\":3}\n").unwrap();
        assert!(ServeJournal::recover(&path).is_err());
        std::fs::write(&path, "garbage\n").unwrap();
        assert!(ServeJournal::recover(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
