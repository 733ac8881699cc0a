//! The JSONL job journal: one module behind both the harness's
//! `--resume` journal and the `pim-serve` write-ahead log.
//!
//! Format: one JSON object per line, each built as a
//! [`pim_trace::JsonValue`], written with [`JsonValue::render`] and read
//! back with [`JsonValue::parse`], the workspace's one JSON codec. The
//! first line is a header naming the format and its version; a harness
//! journal's header also records the sweep's job count:
//!
//! ```text
//! {"journal":"pim-harness","version":1,"jobs":9}
//! {"journal":"pim-serve","version":1}
//! ```
//!
//! Each later line is one record. A *result* record carries one job's
//! terminal result, in the same bytes in both journals:
//!
//! ```text
//! {"job":"texture tiling","status":"ok","attempts":1,"output":"..."}
//! {"job":"bricked","status":"quarantined","attempts":2,"error_label":"watchdog-timeout","error":"..."}
//! ```
//!
//! A harness journal holds only results; the server journal interleaves
//! them with its submission records (`pim_serve::recovery`). Three items
//! serve both formats:
//!
//! * [`RecordWriter`] appends one flushed (optionally synced) line per
//!   record, so a killed process leaves at worst one torn trailing line,
//!   and a failed write can never splice into the next record;
//! * [`replay`] reads a journal back. It checks the header, then reads
//!   the body corruption-tolerantly: lines that are not JSON anywhere in
//!   it (truncated tails, interleaved partial writes, embedded garbage)
//!   are skipped and counted, results restore once with the later
//!   record winning, and every other record comes back in file order for
//!   the format's owner to read. Replay never aborts on a damaged body;
//! * [`rewrite`] compacts a damaged journal: header plus the records
//!   that survived, put in place by [`replace_atomically`].
//!
//! Because results carry their output payload as a string, a resumed
//! sweep re-runs only jobs with no intact result and merges to
//! bit-identical output, and a recovered server serves restored results
//! bit-identically.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use pim_chaos::{ChaosConfig, ChaosFile, ChaosPlan};
use pim_trace::JsonValue;

use crate::job::{JobResult, JobStatus};
use crate::HarnessError;

/// Magic name in a harness journal's header line.
const MAGIC: &str = "pim-harness";
/// Harness journal format version.
const VERSION: u64 = 1;

/// Bound on consecutive transient write stalls (`Interrupted`,
/// `WouldBlock`, `Ok(0)`) retried inside one record before the writer
/// gives up on the record.
const MAX_TRANSIENT_RETRIES: u32 = 64;

/// When to force journal bytes to stable storage.
///
/// `Off` trusts the OS page cache (fast; survives process death but not
/// power loss), `Data` calls `fdatasync` after every record, `Full` calls
/// `fsync` (data + metadata). Selected on the CLI via `--fsync=off|data|full`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// No explicit sync; flush to the OS only.
    #[default]
    Off,
    /// `File::sync_data` after each record.
    Data,
    /// `File::sync_all` after each record.
    Full,
}

impl FsyncPolicy {
    /// Parse a `--fsync=` argument.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "off" => Some(Self::Off),
            "data" => Some(Self::Data),
            "full" => Some(Self::Full),
            _ => None,
        }
    }

    /// CLI label.
    pub fn label(self) -> &'static str {
        match self {
            Self::Off => "off",
            Self::Data => "data",
            Self::Full => "full",
        }
    }
}

/// Where journal bytes go: a real file, a chaos-wrapped file, or an
/// in-memory buffer in tests. The sync hooks let [`FsyncPolicy`] work
/// through any sink; non-file sinks treat them as no-ops.
pub trait JournalSink: Write + Send {
    /// Flush file *data* to stable storage (`fdatasync`).
    fn sync_data(&mut self) -> io::Result<()> {
        Ok(())
    }

    /// Flush data and metadata to stable storage (`fsync`).
    fn sync_all(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl JournalSink for File {
    fn sync_data(&mut self) -> io::Result<()> {
        File::sync_data(self)
    }

    fn sync_all(&mut self) -> io::Result<()> {
        File::sync_all(self)
    }
}

impl JournalSink for ChaosFile {
    fn sync_data(&mut self) -> io::Result<()> {
        ChaosFile::sync_data(self)
    }

    fn sync_all(&mut self) -> io::Result<()> {
        ChaosFile::sync_all(self)
    }
}

impl JournalSink for Vec<u8> {}

/// Line-oriented durable record writer, the one writer of both the
/// harness journal and the `pim-serve` write-ahead journal.
///
/// Guarantees, even over a faulty sink:
///
/// * transient stalls (`Interrupted`, `WouldBlock`, `Ok(0)` short writes)
///   are retried in place up to `MAX_TRANSIENT_RETRIES` (64) — a record
///   either lands complete or the call errors;
/// * after a failed record (torn write, disk full, …) the writer is
///   *dirty*: the next successful write emits a leading guard newline so
///   the stranded fragment sits alone on a line the corruption-tolerant
///   reader skips — a torn record can never splice into a later one;
/// * per-record durability follows the [`FsyncPolicy`].
///
/// Errors carry the journal path as an [`HarnessError::Io`].
pub struct RecordWriter {
    path: PathBuf,
    sink: Box<dyn JournalSink>,
    fsync: FsyncPolicy,
    dirty: bool,
}

impl RecordWriter {
    /// Start a fresh journal at `path` (truncating any file there) with
    /// `header` as its first line. `chaos` wraps the file in a seeded
    /// fault plan (testing only): its writes then suffer the plan's torn
    /// writes, transient stalls and disk-full onsets.
    pub fn create(
        path: &Path,
        header: &JsonValue,
        fsync: FsyncPolicy,
        chaos: Option<(ChaosConfig, u64)>,
    ) -> Result<Self, HarnessError> {
        let sink: io::Result<Box<dyn JournalSink>> = match chaos {
            Some((cfg, seed)) => {
                ChaosFile::create(path, ChaosPlan::new(cfg, seed)).map(|f| Box::new(f) as _)
            }
            None => File::create(path).map(|f| Box::new(f) as _),
        };
        Self::start(path, sink.map_err(|e| HarnessError::io(path, &e))?, header, fsync)
    }

    /// Reopen the journal at `path` for appending, with an optional chaos
    /// fault plan as for [`RecordWriter::create`]. A journal whose last
    /// byte is not a newline ends in a record cut before its `\n`, which
    /// may still be whole JSON: the writer then starts dirty, so the next
    /// record goes on a line of its own.
    pub fn append(
        path: &Path,
        fsync: FsyncPolicy,
        chaos: Option<(ChaosConfig, u64)>,
    ) -> Result<Self, HarnessError> {
        let sink: io::Result<Box<dyn JournalSink>> = match chaos {
            Some((cfg, seed)) => {
                ChaosFile::append(path, ChaosPlan::new(cfg, seed)).map(|f| Box::new(f) as _)
            }
            None => OpenOptions::new().append(true).open(path).map(|f| Box::new(f) as _),
        };
        let sink = sink.map_err(|e| HarnessError::io(path, &e))?;
        // A tail that cannot be read counts as cut: a spare guard newline
        // is a blank line, which replay skips.
        let dirty = ends_mid_line(path).unwrap_or(true);
        Ok(Self { path: path.to_path_buf(), sink, fsync, dirty })
    }

    /// Start a journal over an arbitrary sink; `path` only labels errors.
    /// The header is written through the sink, so a faulting sink fails
    /// the start the same way a faulting disk would.
    pub fn start(
        path: &Path,
        sink: Box<dyn JournalSink>,
        header: &JsonValue,
        fsync: FsyncPolicy,
    ) -> Result<Self, HarnessError> {
        let mut w = Self { path: path.to_path_buf(), sink, fsync, dirty: false };
        w.write_record(header)?;
        Ok(w)
    }

    /// Append one terminal result as its result record.
    pub fn record(&mut self, r: &JobResult) -> Result<(), HarnessError> {
        self.write_record(&record_json(JsonValue::object(), r))
    }

    /// Append one record as a line. See the type docs for the
    /// fault-tolerance contract.
    pub fn write_record(&mut self, record: &JsonValue) -> Result<(), HarnessError> {
        let mut buf = record.render().into_bytes();
        buf.push(b'\n');
        self.write_line(&buf).map_err(|e| HarnessError::io(&self.path, &e))
    }

    fn write_line(&mut self, line: &[u8]) -> io::Result<()> {
        if self.dirty {
            // Isolate the previous record's stranded fragment on its own
            // line. If the guard itself fails we stay dirty and the caller
            // sees this record as dropped.
            self.write_fully(b"\n")?;
            self.dirty = false;
        }
        if let Err(e) = self.write_fully(line).and_then(|()| self.sink.flush()) {
            // Unknown how much of the failed call landed; be conservative.
            self.dirty = true;
            return Err(e);
        }
        match self.fsync {
            FsyncPolicy::Off => Ok(()),
            FsyncPolicy::Data => self.sink.sync_data(),
            FsyncPolicy::Full => self.sink.sync_all(),
        }
    }

    fn write_fully(&mut self, buf: &[u8]) -> io::Result<()> {
        let mut off = 0;
        let mut stalls = 0u32;
        while off < buf.len() {
            match self.sink.write(&buf[off..]) {
                Ok(0) => {
                    stalls += 1;
                    if stalls > MAX_TRANSIENT_RETRIES {
                        return Err(io::Error::new(
                            io::ErrorKind::WriteZero,
                            "journal sink persistently accepted zero bytes",
                        ));
                    }
                }
                Ok(n) => {
                    off += n;
                    stalls = 0;
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock
                    ) =>
                {
                    stalls += 1;
                    if stalls > MAX_TRANSIENT_RETRIES {
                        return Err(e);
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// A journal as [`replay`] read it back.
#[derive(Debug)]
pub struct Replay {
    /// The header line.
    pub header: JsonValue,
    /// Terminal results keyed by job id.
    pub results: BTreeMap<String, JobResult>,
    /// Every body record that is not a result, in file order.
    pub records: Vec<JsonValue>,
    /// Body lines that were not JSON (truncated, garbled, interleaved
    /// partial writes), skipped rather than aborting the replay.
    pub skipped: usize,
    /// Result records that repeated a job id already restored; the later
    /// record wins, and the job is still restored exactly once.
    pub duplicates: usize,
}

/// The header of a `magic` journal at format `version`.
pub fn header(magic: &str, version: u64) -> JsonValue {
    JsonValue::object().set("journal", magic).set("version", version)
}

/// Read back a `magic` journal at format `version`.
///
/// # Errors
///
/// Fails if the file cannot be read or its header is missing or names
/// another format or version ([`HarnessError::JournalMismatch`]).
///
/// Body corruption is *never* an error: truncated tails, interleaved
/// partial lines, embedded garbage and invalid UTF-8 are skipped and
/// counted ([`Replay::skipped`]), and a repeated result counts in
/// [`Replay::duplicates`].
pub fn replay(path: &Path, magic: &str, version: u64) -> Result<Replay, HarnessError> {
    let bytes = std::fs::read(path).map_err(|e| HarnessError::io(path, &e))?;
    // Corruption can include invalid UTF-8; decode lossily so one garbled
    // line cannot abort the whole replay. Replacement characters make the
    // affected line unparseable, which is exactly skip-and-count.
    let text = String::from_utf8_lossy(&bytes);
    let mut lines = text.lines();
    let header = lines
        .next()
        .and_then(|line| JsonValue::parse(line).ok())
        .ok_or_else(|| HarnessError::mismatch(path, "missing or unreadable header line"))?;
    if header.get("journal").and_then(JsonValue::as_str) != Some(magic)
        || header.get("version").and_then(JsonValue::as_u64) != Some(version)
    {
        return Err(HarnessError::mismatch(
            path,
            &format!("header is not a {magic} v{version} journal"),
        ));
    }
    let mut replay =
        Replay { header, results: BTreeMap::new(), records: Vec::new(), skipped: 0, duplicates: 0 };
    for line in lines.filter(|line| !line.trim().is_empty()) {
        let Ok(record) = JsonValue::parse(line) else {
            replay.skipped += 1;
            continue;
        };
        match result_from_json(&record) {
            Some(r) => {
                if replay.results.insert(r.id.clone(), r).is_some() {
                    replay.duplicates += 1;
                }
            }
            None => replay.records.push(record),
        }
    }
    Ok(replay)
}

/// True when the file at `path` is not empty and its last byte is not a
/// newline.
fn ends_mid_line(path: &Path) -> io::Result<bool> {
    let mut file = File::open(path)?;
    if file.seek(SeekFrom::End(0))? == 0 {
        return Ok(false);
    }
    file.seek(SeekFrom::End(-1))?;
    let mut last = [0u8];
    file.read_exact(&mut last)?;
    Ok(last != *b"\n")
}

/// Compact a journal: replace the file at `path` with `header` and
/// `records`, one line each, through [`replace_atomically`], so a crash
/// mid-compaction leaves the old journal or the new one, never a mix.
/// Records re-render byte-identically (the codec round-trips).
pub fn rewrite(
    path: &Path,
    header: &JsonValue,
    records: impl IntoIterator<Item = JsonValue>,
) -> Result<(), (PathBuf, io::Error)> {
    let mut text = header.render();
    text.push('\n');
    for record in records {
        text.push_str(&record.render());
        text.push('\n');
    }
    replace_atomically(path, text.as_bytes(), |tmp| Ok(Box::new(File::create(tmp)?)))
}

/// Atomically replace the file at `path` with `bytes`: write them to
/// `<path>.tmp` through the sink `create_tmp` opens there, sync it,
/// rename it over `path`, then sync the directory so the rename itself
/// is durable where the platform allows it. A failure at any step leaves
/// the previous file intact. The error carries the path that failed: the
/// tmp file for the write and sync, `path` for the rename.
pub fn replace_atomically(
    path: &Path,
    bytes: &[u8],
    create_tmp: impl FnOnce(&Path) -> io::Result<Box<dyn JournalSink>>,
) -> Result<(), (PathBuf, io::Error)> {
    let tmp = PathBuf::from(format!("{}.tmp", path.display()));
    let written = create_tmp(&tmp).and_then(|mut sink| {
        sink.write_all(bytes)?;
        sink.sync_all()
    });
    if let Err(e) = written {
        return Err((tmp, e));
    }
    std::fs::rename(&tmp, path).map_err(|e| (path.to_path_buf(), e))?;
    if let Some(dir) = path.parent() {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Render one terminal result as its journal line (no trailing newline),
/// the line [`RecordWriter::record`] writes and [`parse_result_line`]
/// reads.
pub fn record_line(r: &JobResult) -> String {
    record_json(JsonValue::object(), r).render()
}

/// `obj` with the journal record fields of `r` appended. The record
/// itself starts from an empty object; the `pim-serve` wire's `result`
/// line starts from its `type` tag, so the two carry the same bytes.
pub fn record_json(obj: JsonValue, r: &JobResult) -> JsonValue {
    obj.set("job", r.id.as_str())
        .set("status", r.status.label())
        .set("attempts", r.attempts)
        .set_some("error_label", r.error_label.as_deref())
        .set_some("error", r.error.as_deref())
        .set_some("output", r.output.as_deref())
        .set_some("seed", r.seed)
}

/// Parse one result line written by [`record_line`] back into a
/// [`JobResult`]. Returns `None` for anything malformed — truncated
/// tails, partial lines, non-result records.
pub fn parse_result_line(line: &str) -> Option<JobResult> {
    result_from_json(&JsonValue::parse(line).ok()?)
}

/// The [`JobResult`] a parsed record (or `result` wire line) carries;
/// `None` when a field the record needs is missing or mistyped. Fields
/// it does not know are ignored.
pub fn result_from_json(v: &JsonValue) -> Option<JobResult> {
    let text = |key: &str| v.get(key).and_then(JsonValue::as_str).map(str::to_string);
    let status = JobStatus::from_label(v.get("status")?.as_str()?)?;
    let output = text("output");
    // A succeeded entry must carry its payload; anything else is corrupt.
    if status == JobStatus::Succeeded && output.is_none() {
        return None;
    }
    Some(JobResult {
        id: text("job")?,
        status,
        attempts: u32::try_from(v.get("attempts")?.as_u64()?).ok()?,
        output,
        error_label: text("error_label"),
        error: text("error"),
        seed: v.get("seed").and_then(JsonValue::as_u64),
    })
}

/// The header of a harness journal for a sweep of `jobs` jobs.
pub fn sweep_header(jobs: usize) -> JsonValue {
    header(MAGIC, VERSION).set("jobs", jobs)
}

/// Read a harness journal back for `--resume`: [`replay`] with the
/// harness's magic and version, plus the sweep's job count. A harness
/// journal holds only results, so any other record counts as skipped.
///
/// # Errors
///
/// Fails as [`replay`] does, and if the recorded job count differs from
/// the sweep being resumed (the journal belongs to a different sweep).
/// A job whose record was destroyed simply re-runs; a job with any intact
/// record is restored exactly once, never re-run.
pub fn read_journal(path: &Path, expected_jobs: usize) -> Result<Replay, HarnessError> {
    let mut state = replay(path, MAGIC, VERSION)?;
    match state.header.get("jobs").and_then(JsonValue::as_u64) {
        Some(jobs) if jobs as usize == expected_jobs => {}
        Some(jobs) => {
            return Err(HarnessError::mismatch(
                path,
                &format!("journal records {jobs} jobs but this sweep has {expected_jobs}"),
            ))
        }
        None => {
            return Err(HarnessError::mismatch(
                path,
                &format!("header is not a {MAGIC} v{VERSION} journal"),
            ))
        }
    }
    state.skipped += std::mem::take(&mut state.records).len();
    Ok(state)
}

/// Rewrite a damaged harness journal for future resumes: a fresh header
/// plus one line per restored result, in job-id order, through
/// [`rewrite`]. Corrupt debris, duplicate records and torn fragments
/// disappear.
pub fn compact_journal(path: &Path, state: &Replay, jobs: usize) -> Result<(), HarnessError> {
    let results = state.results.values().map(|r| record_json(JsonValue::object(), r));
    rewrite(path, &sweep_header(jobs), results).map_err(|(failed, e)| HarnessError::io(&failed, &e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobFailure;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("pim-harness-test-{}-{name}", std::process::id()));
        p
    }

    /// A fresh harness journal for a sweep of `jobs` jobs.
    fn create(path: &Path, jobs: usize) -> RecordWriter {
        RecordWriter::create(path, &sweep_header(jobs), FsyncPolicy::Off, None).unwrap()
    }

    #[test]
    fn write_then_read_round_trips() {
        let path = tmp("roundtrip.jsonl");
        let results = vec![
            JobResult::ok("plain", 1, "x=1|y=2.5".into()),
            JobResult::ok("weird \"chars\"\n\ttabs", 2, "line1\nline2\\end \u{1}".into()),
            JobResult::failed(
                "panicker",
                JobStatus::Failed,
                1,
                &JobFailure::Panicked { message: "index out of bounds: the len is 3".into() },
            ),
            JobResult::failed(
                "hung",
                JobStatus::Quarantined,
                2,
                &JobFailure::WallTimeout { limit_ms: 25 },
            ),
            JobResult::ok("seeded", 1, "payload".into()).with_seed(Some(u64::MAX)),
            JobResult::failed(
                "seeded-quarantine",
                JobStatus::Quarantined,
                2,
                &JobFailure::WallTimeout { limit_ms: 25 },
            )
            .with_seed(Some(7)),
        ];
        {
            let mut w = create(&path, results.len());
            for r in &results {
                w.record(r).unwrap();
            }
        }
        let state = read_journal(&path, results.len()).unwrap();
        assert_eq!(state.results.len(), results.len());
        for r in &results {
            assert_eq!(state.results.get(&r.id), Some(r));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_tail_is_tolerated() {
        let path = tmp("truncated.jsonl");
        {
            let mut w = create(&path, 3);
            w.record(&JobResult::ok("a", 1, "1".into())).unwrap();
            w.record(&JobResult::ok("b", 1, "2".into())).unwrap();
        }
        // Simulate a kill mid-write: chop the last line in half.
        let text = std::fs::read_to_string(&path).unwrap();
        let cut = text.len() - 10;
        std::fs::write(&path, &text[..cut]).unwrap();
        let state = read_journal(&path, 3).unwrap();
        assert_eq!(state.results.len(), 1);
        assert!(state.results.contains_key("a"));
        assert_eq!(state.skipped, 1, "the chopped line is counted, not fatal");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mid_journal_corruption_is_skipped_and_counted() {
        let path = tmp("midcorrupt.jsonl");
        {
            let mut w = create(&path, 4);
            w.record(&JobResult::ok("a", 1, "1".into())).unwrap();
            w.record(&JobResult::ok("b", 1, "2".into())).unwrap();
            w.record(&JobResult::ok("c", 1, "3".into())).unwrap();
        }
        // Garble the *middle* record: records after the damage must still
        // be restored (skip-and-count, not stop-at-first-error).
        let text = std::fs::read_to_string(&path).unwrap();
        let mangled: Vec<String> = text
            .lines()
            .map(|l| {
                if l.contains("\"job\":\"b\"") {
                    l.chars().take(l.len() / 2).collect()
                } else {
                    l.to_string()
                }
            })
            .collect();
        std::fs::write(&path, format!("{}\n", mangled.join("\n"))).unwrap();
        let state = read_journal(&path, 4).unwrap();
        assert_eq!(state.skipped, 1);
        assert!(state.results.contains_key("a"));
        assert!(!state.results.contains_key("b"), "damaged record re-runs");
        assert!(state.results.contains_key("c"), "records after the damage survive");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn duplicate_records_restore_once_with_later_winning() {
        let path = tmp("dup.jsonl");
        {
            let mut w = create(&path, 2);
            w.record(&JobResult::ok("a", 1, "first".into())).unwrap();
            w.record(&JobResult::ok("a", 2, "second".into())).unwrap();
            w.record(&JobResult::ok("b", 1, "only".into())).unwrap();
        }
        let state = read_journal(&path, 2).unwrap();
        assert_eq!(state.results.len(), 2);
        assert_eq!(state.duplicates, 1);
        assert_eq!(state.results["a"].output.as_deref(), Some("second"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn nul_bytes_and_invalid_utf8_cannot_abort_the_read() {
        let path = tmp("nul.jsonl");
        {
            let mut w = create(&path, 3);
            w.record(&JobResult::ok("a", 1, "1".into())).unwrap();
        }
        // Append a line of raw NUL bytes and a line of invalid UTF-8 —
        // both classic torn-write debris.
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"\x00\x00\x00\x00\n").unwrap();
        f.write_all(b"{\"job\":\"b\xff\xfe\n").unwrap();
        drop(f);
        let state = read_journal(&path, 3).unwrap();
        assert!(state.results.contains_key("a"));
        assert_eq!(state.results.len(), 1);
        assert_eq!(state.skipped, 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn job_count_mismatch_is_an_error() {
        let path = tmp("mismatch.jsonl");
        {
            create(&path, 3);
        }
        let err = read_journal(&path, 5).unwrap_err();
        assert!(err.to_string().contains("3 jobs"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_journal_file_is_rejected() {
        let path = tmp("garbage.jsonl");
        std::fs::write(&path, "not json at all\n").unwrap();
        assert!(read_journal(&path, 1).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fsync_policy_parses_cli_labels() {
        assert_eq!(FsyncPolicy::parse("off"), Some(FsyncPolicy::Off));
        assert_eq!(FsyncPolicy::parse("data"), Some(FsyncPolicy::Data));
        assert_eq!(FsyncPolicy::parse("full"), Some(FsyncPolicy::Full));
        assert_eq!(FsyncPolicy::parse("sometimes"), None);
        for p in [FsyncPolicy::Off, FsyncPolicy::Data, FsyncPolicy::Full] {
            assert_eq!(FsyncPolicy::parse(p.label()), Some(p));
        }
    }

    #[test]
    fn synced_journal_round_trips_under_every_policy() {
        for policy in [FsyncPolicy::Off, FsyncPolicy::Data, FsyncPolicy::Full] {
            let path = tmp(&format!("fsync-{}.jsonl", policy.label()));
            {
                let mut w = RecordWriter::create(&path, &sweep_header(2), policy, None).unwrap();
                w.record(&JobResult::ok("a", 1, "1".into())).unwrap();
                w.record(&JobResult::ok("b", 1, "2".into())).unwrap();
            }
            let state = read_journal(&path, 2).unwrap();
            assert_eq!(state.results.len(), 2, "policy {}", policy.label());
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn record_writer_retries_transient_stalls_to_completion() {
        use pim_chaos::{ChaosConfig, ChaosPlan, ChaosWriter};

        // A sink that storms Interrupted/WouldBlock/Ok(0) but never tears:
        // every record must land complete.
        struct Wrapped(ChaosWriter<Vec<u8>>);
        impl std::io::Write for Wrapped {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.write(buf)
            }
            fn flush(&mut self) -> io::Result<()> {
                self.0.flush()
            }
        }
        impl JournalSink for Wrapped {}

        for seed in 0..16 {
            let sink = Wrapped(ChaosWriter::new(
                Vec::new(),
                ChaosPlan::new(ChaosConfig::interrupts(), seed),
            ));
            let label = PathBuf::from("mem:interrupts");
            let mut w =
                RecordWriter::start(&label, Box::new(sink), &sweep_header(20), FsyncPolicy::Off)
                    .unwrap();
            for i in 0..20u64 {
                w.write_record(&JsonValue::object().set("line", i)).unwrap();
            }
            // We cannot read the Vec back out through the Box<dyn>, but a
            // zero-error run is the property: no stall was ever terminal.
        }
    }

    #[test]
    fn dirty_writer_guards_torn_fragments_with_a_newline() {
        use std::sync::{Arc, Mutex};

        // A sink whose second write call (the first record after the
        // header) tears mid-record, then heals. The backing store is
        // shared so the test can inspect what "landed on disk" after the
        // writer is boxed away.
        struct TearOnce {
            buf: Arc<Mutex<Vec<u8>>>,
            writes: usize,
        }
        impl std::io::Write for TearOnce {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.writes += 1;
                if self.writes == 2 {
                    let keep = buf.len() / 2;
                    self.buf.lock().unwrap().extend_from_slice(&buf[..keep]);
                    return Err(io::Error::new(io::ErrorKind::BrokenPipe, "torn"));
                }
                self.buf.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        impl JournalSink for TearOnce {}

        let shared = Arc::new(Mutex::new(Vec::new()));
        let label = PathBuf::from("mem:tear");
        let sink = TearOnce { buf: shared.clone(), writes: 0 };
        let mut w = RecordWriter::start(&label, Box::new(sink), &sweep_header(2), FsyncPolicy::Off)
            .unwrap();
        let victim = JobResult::ok("victim", 1, "lost".into());
        assert!(w.record(&victim).is_err(), "first record tears");
        w.record(&JobResult::ok("survivor", 1, "kept".into())).unwrap();

        let bytes = shared.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // Torn fragment isolated on its own (unparseable) line; the
        // survivor record is intact and restorable.
        assert_eq!(lines.len(), 3, "header + fragment + survivor: {text:?}");
        assert!(parse_result_line(lines[1]).is_none(), "fragment must not parse");
        assert_eq!(
            parse_result_line(lines[2]).unwrap().id,
            "survivor",
            "guard newline isolated the fragment"
        );
    }

    #[test]
    fn start_over_a_failing_sink_fails() {
        struct Dead;
        impl std::io::Write for Dead {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::from(io::ErrorKind::StorageFull))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        impl JournalSink for Dead {}
        let dev_null = Path::new("/dev/null");
        let started = RecordWriter::start(dev_null, Box::new(Dead), &header("x", 1), FsyncPolicy::Off);
        assert!(
            matches!(started, Err(HarnessError::Io { .. })),
            "header write through a dead sink must fail the start"
        );
    }

    #[test]
    fn compaction_heals_a_damaged_journal_atomically() {
        let path = tmp("compact.jsonl");
        {
            let mut w = create(&path, 3);
            w.record(&JobResult::ok("a", 1, "1".into())).unwrap();
            w.record(&JobResult::ok("a", 2, "1-again".into())).unwrap();
            w.record(&JobResult::ok("b", 1, "2".into())).unwrap();
        }
        // Damage: append torn debris.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"job\":\"c\",\"sta").unwrap();
        }
        let before = read_journal(&path, 3).unwrap();
        assert_eq!(before.skipped, 1);
        assert_eq!(before.duplicates, 1);

        compact_journal(&path, &before, 3).unwrap();
        assert!(!PathBuf::from(format!("{}.tmp", path.display())).exists());

        let after = read_journal(&path, 3).unwrap();
        assert_eq!(after.skipped, 0, "debris compacted away");
        assert_eq!(after.duplicates, 0);
        assert_eq!(after.results.len(), 2);
        assert_eq!(after.results["a"].output.as_deref(), Some("1-again"), "later record won");
        assert_eq!(after.results["b"].output.as_deref(), Some("2"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn result_lines_decode_escapes_and_reject_garbage() {
        // Escapes, a literal astral-plane character, its surrogate-pair
        // escape, and a `null` seed (ignored, as any non-u64 seed is).
        let line = r#"{"job":"x\n\"y\"","status":"ok","attempts":42,"output":"A😀 \ud83d\ude00","seed":null}"#;
        assert_eq!(parse_result_line(line), Some(JobResult::ok("x\n\"y\"", 42, "A😀 😀".into())));
        let ok = r#"{"job":"a","status":"ok","attempts":1,"output":"o"}"#;
        assert!(parse_result_line(ok).is_some());
        for bad in [
            &ok[..ok.len() - 1],
            &ok[..ok.len() - 6],
            r#"{"job":"a","status":"ok","attempts":1,"output":"o"} trailing"#,
            "",
            "{}",
            // Present but out of range or mistyped.
            r#"{"job":"a","status":"ok","attempts":4294967296,"output":"o"}"#,
            r#"{"job":"a","status":"ok","attempts":"1","output":"o"}"#,
            r#"{"job":"a","status":"done","attempts":1,"output":"o"}"#,
            r#"{"job":"a","status":"ok","attempts":1}"#,
        ] {
            assert!(parse_result_line(bad).is_none(), "{bad:?}");
        }
    }

    #[test]
    fn result_lines_parse_with_json_whitespace_between_tokens() {
        let compact =
            parse_result_line(r#"{"job":"a","status":"ok","attempts":7,"output":" v ","seed":null}"#);
        // Whitespace inside a string is data, not layout.
        assert_eq!(compact, Some(JobResult::ok("a", 7, " v ".into())));
        for spaced in [
            r#"{"job": "a", "status": "ok", "attempts": 7, "output": " v ", "seed": null}"#,
            "{ \"job\" :\t\"a\" ,\r\n \"status\":\"ok\",\"attempts\" : 7 ,\"output\":\" v \",\"seed\":null\n}",
        ] {
            assert_eq!(parse_result_line(spaced), compact, "{spaced:?}");
        }
        // Truncated or malformed lines stay rejected with whitespace
        // around: each is a whole record but for the one syntax fault.
        for bad in [
            r#"{ "job": "a", "status": "ok", "attempts": 7, "output": "o", "#,
            r#"{ "job": "a", "status": "ok", "attempts": 7, "output": "#,
            r#"{ "job": "a", "status": "ok", "attempts": 7, "output": "o" "#,
            r#"{ "job" "a", "status": "ok", "attempts": 7, "output": "o" }"#,
            r#"{ "job": "a", "status": "ok", "attempts": 7 2, "output": "o" }"#,
            r#"{ "job": "a", "status": "ok", "attempts": 7, "output": "o", "seed": n ull }"#,
            r#"{ "job": "a", "status": "ok", "attempts": 7, "output": "o" , }"#,
            r#"{ "job": "a", "status": "ok", "attempts": 7, "output": "o" } x"#,
        ] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?}");
            assert!(parse_result_line(bad).is_none(), "{bad:?}");
        }
    }
}
