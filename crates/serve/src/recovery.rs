//! The server journal and crash recovery.
//!
//! `pim-serve` writes one append-only JSONL journal through the
//! harness's journal module ([`pim_harness::journal`]): the same writer,
//! replay and compaction as harness `--resume`, under its own header.
//! Two record kinds interleave in arrival order:
//!
//! ```text
//! {"journal":"pim-serve","version":1}
//! {"kind":"sub","id":"fig18","client":"repro","spec":"experiment:fig18"}
//! {"job":"fig18","status":"ok","attempts":1,"output":"..."}
//! ```
//!
//! * a **submission** record is written (and flushed) *before* the job is
//!   enqueued — write-ahead, so an admitted job can never be lost;
//! * a **result** record is written when the job reaches a terminal
//!   state, in exactly the harness journal format
//!   ([`RecordWriter::record`]).
//!
//! On restart the server replays the journal ([`recover`]): jobs with an
//! intact result are restored verbatim (bit-identical payloads — results
//! carry their output as strings), jobs with only a submission are
//! re-enqueued, and corrupt lines of any kind are skipped and counted,
//! with the harness reader's tolerance for truncated tails, interleaved
//! partial writes, duplicates, and invalid UTF-8. Recovery is why a
//! `SIGKILL`ed server resumes instead of re-running the world.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use pim_harness::journal::{self, record_json, replay, rewrite, Replay};
use pim_harness::{FsyncPolicy, JobResult, Priority, RecordWriter};
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

impl Submission {
    /// The write-ahead submission record. `priority` is written only when
    /// non-default, keeping pre-priority journals byte-identical and
    /// readable by both directions.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object()
            .set("kind", "sub")
            .set("id", self.id.as_str())
            .set("client", self.client.as_str())
            .set("spec", self.spec.as_str())
            .set_some(
                "priority",
                (self.priority != Priority::Normal).then(|| self.priority.label()),
            )
    }

    fn from_json(record: &JsonValue) -> Option<Self> {
        let text = |key: &str| record.get(key).and_then(JsonValue::as_str);
        if text("kind")? != "sub" {
            return None;
        }
        Some(Self {
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

    /// True for a submission replay synthesized for an orphaned result;
    /// in the journal its marker is the *absence* of a submission line.
    fn is_synthesized(&self) -> bool {
        self.client.is_empty() && self.spec.is_empty()
    }
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

    /// The compacted journal body: each surviving submission (synthesized
    /// orphans excepted) followed by its result.
    fn records(&self) -> impl Iterator<Item = JsonValue> + '_ {
        self.submissions.iter().flat_map(|sub| {
            let result = self.results.get(&sub.id).map(|r| record_json(JsonValue::object(), r));
            (!sub.is_synthesized()).then(|| sub.to_json()).into_iter().chain(result)
        })
    }
}

/// The header line every pim-serve journal starts with.
pub fn header() -> JsonValue {
    journal::header(MAGIC, VERSION)
}

/// Open the server journal at `path` for appending, replaying it first.
/// A missing file starts a fresh journal with an empty state, so first
/// start and restart share a command line. If the replay found damage
/// (skipped lines or duplicates), the journal is first compacted through
/// [`rewrite`], so debris does not accumulate across restarts.
/// Compaction failure is non-fatal: the damaged journal is still
/// readable, so the server keeps appending to it.
pub fn recover(
    path: &Path,
    fsync: FsyncPolicy,
) -> Result<(RecordWriter, RecoveredState), ServeError> {
    if !path.exists() {
        return Ok((RecordWriter::create(path, &header(), fsync, None)?, RecoveredState::default()));
    }
    let state = read_serve_journal(path)?;
    if state.skipped > 0 || state.duplicates > 0 {
        if let Err((_, e)) = rewrite(path, &header(), state.records()) {
            eprintln!("pim-serve: journal compaction skipped: {e}");
        }
    }
    Ok((RecordWriter::append(path, fsync, None)?, state))
}

/// Replay a server journal: [`replay`] under the pim-serve header, with
/// every non-result record read as a submission.
///
/// # Errors
///
/// Only unreadable files and a missing/foreign header line are errors.
/// Body damage never is: corrupt lines are skipped and counted,
/// duplicates are tolerated, and a result whose submission line was
/// destroyed is still restored (the orphaned result is re-attached to a
/// synthesized submission so clients can still `wait` for it).
pub fn read_serve_journal(path: &Path) -> Result<RecoveredState, ServeError> {
    let Replay { results, records, mut skipped, mut duplicates, .. } =
        replay(path, MAGIC, VERSION)?;
    let mut submissions = Vec::new();
    let mut seen = BTreeSet::new();
    for sub in records.iter().map(Submission::from_json) {
        match sub {
            Some(sub) if seen.insert(sub.id.clone()) => submissions.push(sub),
            Some(_) => duplicates += 1,
            None => skipped += 1,
        }
    }
    // Orphaned results (their submission line was destroyed): synthesize
    // a submission so the job still exists, terminal, waitable.
    for id in results.keys().filter(|id| !seen.contains(*id)) {
        submissions.push(Submission {
            id: id.clone(),
            client: String::new(),
            spec: String::new(),
            priority: Priority::Normal,
        });
    }
    Ok(RecoveredState { submissions, results, skipped, duplicates })
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

    /// A fresh server journal at `path`.
    fn create(path: &Path) -> RecordWriter {
        RecordWriter::create(path, &header(), FsyncPolicy::Off, None).unwrap()
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
            let mut j = create(&path);
            let hot = Submission { priority: Priority::High, ..sub("hot") };
            j.write_record(&hot.to_json()).unwrap();
            j.write_record(&sub("cold").to_json()).unwrap();
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
            let mut j = create(&path);
            j.write_record(&sub("a").to_json()).unwrap();
            j.write_record(&sub("b").to_json()).unwrap();
            j.record(&JobResult::ok("a", 1, "out-a".into())).unwrap();
            j.write_record(&sub("c").to_json()).unwrap();
        }
        let (_, state) = recover(&path, FsyncPolicy::Off).unwrap();
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
        let (mut j, state) = recover(&path, FsyncPolicy::Off).unwrap();
        assert!(state.submissions.is_empty());
        j.write_record(&sub("x").to_json()).unwrap();
        drop(j);
        let (_, state) = recover(&path, FsyncPolicy::Off).unwrap();
        assert_eq!(state.submissions.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corruption_matrix_is_skipped_and_counted() {
        let path = tmp("corrupt.jsonl");
        {
            let mut j = create(&path);
            j.write_record(&sub("a").to_json()).unwrap();
            j.record(&JobResult::ok("a", 1, "out-a".into())).unwrap();
            j.write_record(&sub("b").to_json()).unwrap();
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
            let mut j = create(&path);
            j.record(&JobResult::failed(
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
            let mut j = create(&path);
            j.write_record(&sub("a").to_json()).unwrap();
            j.record(&JobResult::ok("a", 1, "out-a".into())).unwrap();
            j.write_record(&sub("b").to_json()).unwrap();
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

        let (_, state) = recover(&path, FsyncPolicy::Off).unwrap();
        assert_eq!(state.skipped, 1, "recover still reports what it healed");
        assert_eq!(state.duplicates, 1);

        // The journal on disk was compacted: a second recover is clean,
        // with identical surviving state and no leftover tmp file.
        let (_, clean) = recover(&path, FsyncPolicy::Off).unwrap();
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
    fn foreign_journal_is_rejected() {
        let path = tmp("foreign.jsonl");
        for header in [
            "{\"journal\":\"pim-harness\",\"version\":1,\"jobs\":3}\n",
            "{\"journal\":\"pim-serve\",\"version\":2}\n",
            "garbage\n",
        ] {
            std::fs::write(&path, header).unwrap();
            assert!(
                matches!(recover(&path, FsyncPolicy::Off), Err(ServeError::Journal { .. })),
                "{header:?}"
            );
        }
        std::fs::remove_file(&path).ok();
    }
}
