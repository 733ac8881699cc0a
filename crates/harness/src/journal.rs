//! The JSONL job journal behind `--resume`.
//!
//! Format: one JSON object per line, written with the same hand-rolled
//! conventions as `pim_trace::json` (escaping via
//! [`pim_trace::json::write_escaped`]). The first line is a header:
//!
//! ```text
//! {"journal":"pim-harness","version":1,"jobs":9}
//! ```
//!
//! Each subsequent line records one *terminal* job result:
//!
//! ```text
//! {"job":"texture tiling","status":"ok","attempts":1,"output":"..."}
//! {"job":"bricked","status":"quarantined","attempts":2,"error_label":"watchdog-timeout","error":"..."}
//! ```
//!
//! Lines are appended and flushed as each job completes, so a killed
//! sweep's journal is valid up to (at worst) one truncated trailing line.
//! The reader is corruption-tolerant end to end: unparseable lines
//! anywhere in the body (truncated tails, interleaved partial writes,
//! embedded garbage) are skipped and counted, and duplicated records
//! restore once with the later record winning — resume never aborts on a
//! damaged journal and never runs a journaled job twice. Because entries
//! carry the full result (including the output payload), resuming re-runs
//! only jobs with no intact journal line and merges to bit-identical
//! output.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use pim_chaos::{ChaosConfig, ChaosFile, ChaosPlan};
use pim_trace::json::write_escaped;

use crate::job::{JobResult, JobStatus};
use crate::HarnessError;

/// Magic name in the header line.
const MAGIC: &str = "pim-harness";
/// Journal format version.
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

/// Line-oriented durable record writer shared by the harness journal and
/// the `pim-serve` write-ahead journal.
///
/// Guarantees, even over a faulty sink:
///
/// * transient stalls (`Interrupted`, `WouldBlock`, `Ok(0)` short writes)
///   are retried in place up to [`MAX_TRANSIENT_RETRIES`] — a record either
///   lands complete or the call errors;
/// * after a failed record (torn write, disk full, …) the writer is
///   *dirty*: the next successful write emits a leading guard newline so
///   the stranded fragment sits alone on a line the corruption-tolerant
///   reader skips — a torn record can never splice into a later one;
/// * per-record durability follows the [`FsyncPolicy`].
pub struct RecordWriter {
    path: PathBuf,
    sink: Box<dyn JournalSink>,
    fsync: FsyncPolicy,
    dirty: bool,
}

impl RecordWriter {
    /// Truncate/create `path` as the sink.
    pub fn create(path: &Path, fsync: FsyncPolicy) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(Self::from_sink(path, Box::new(file), fsync))
    }

    /// Open `path` for appending.
    pub fn append(path: &Path, fsync: FsyncPolicy) -> io::Result<Self> {
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(Self::from_sink(path, Box::new(file), fsync))
    }

    /// Wrap an arbitrary sink; `path` is only a label for error messages.
    pub fn from_sink(path: &Path, sink: Box<dyn JournalSink>, fsync: FsyncPolicy) -> Self {
        Self { path: path.to_path_buf(), sink, fsync, dirty: false }
    }

    /// The path label this writer reports in errors.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one record line (newline added here). See the type docs for
    /// the fault-tolerance contract.
    pub fn write_line(&mut self, s: &str) -> io::Result<()> {
        if self.dirty {
            // Isolate the previous record's stranded fragment on its own
            // line. If the guard itself fails we stay dirty and the caller
            // sees this record as dropped.
            self.write_fully(b"\n")?;
            self.dirty = false;
        }
        let mut buf = Vec::with_capacity(s.len() + 1);
        buf.extend_from_slice(s.as_bytes());
        buf.push(b'\n');
        if let Err(e) = self.write_fully(&buf) {
            // Unknown how much of the failed call landed; be conservative.
            self.dirty = true;
            return Err(e);
        }
        if let Err(e) = self.sink.flush() {
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

/// Append-only journal writer; one durably-written line per completed job.
pub struct JournalWriter {
    out: RecordWriter,
}

impl JournalWriter {
    /// Start a fresh journal (truncates) and write the header.
    pub fn create(path: &Path, jobs: usize) -> Result<Self, HarnessError> {
        Self::create_opts(path, jobs, FsyncPolicy::Off, None)
    }

    /// [`JournalWriter::create`] with an explicit durability policy and an
    /// optional chaos fault plan wrapped around the file.
    pub fn create_opts(
        path: &Path,
        jobs: usize,
        fsync: FsyncPolicy,
        chaos: Option<(ChaosConfig, u64)>,
    ) -> Result<Self, HarnessError> {
        let out = match chaos {
            Some((cfg, seed)) => {
                let file = ChaosFile::create(path, ChaosPlan::new(cfg, seed))
                    .map_err(|e| HarnessError::io(path, &e))?;
                RecordWriter::from_sink(path, Box::new(file), fsync)
            }
            None => RecordWriter::create(path, fsync).map_err(|e| HarnessError::io(path, &e))?,
        };
        let mut w = Self { out };
        let header = format!("{{\"journal\":\"{MAGIC}\",\"version\":{VERSION},\"jobs\":{jobs}}}");
        w.line(&header)?;
        Ok(w)
    }

    /// Reopen an existing journal for appending (resume).
    pub fn append(path: &Path) -> Result<Self, HarnessError> {
        Self::append_opts(path, FsyncPolicy::Off, None)
    }

    /// [`JournalWriter::append`] with an explicit durability policy and an
    /// optional chaos fault plan wrapped around the file.
    pub fn append_opts(
        path: &Path,
        fsync: FsyncPolicy,
        chaos: Option<(ChaosConfig, u64)>,
    ) -> Result<Self, HarnessError> {
        let out = match chaos {
            Some((cfg, seed)) => {
                let file = ChaosFile::append(path, ChaosPlan::new(cfg, seed))
                    .map_err(|e| HarnessError::io(path, &e))?;
                RecordWriter::from_sink(path, Box::new(file), fsync)
            }
            None => RecordWriter::append(path, fsync).map_err(|e| HarnessError::io(path, &e))?,
        };
        Ok(Self { out })
    }

    /// Record one terminal result.
    pub fn record(&mut self, r: &JobResult) -> Result<(), HarnessError> {
        self.line(&record_line(r))
    }

    fn line(&mut self, s: &str) -> Result<(), HarnessError> {
        let path = self.out.path().to_path_buf();
        self.out.write_line(s).map_err(|e| HarnessError::io(&path, &e))
    }
}

/// Rewrite a damaged journal atomically, healing it for future resumes:
/// a fresh header plus one intact line per restored record, written to
/// `<path>.tmp`, synced, then renamed over the original. Corrupt debris,
/// duplicate records, and torn fragments disappear; surviving records are
/// re-rendered byte-identically (the record codec round-trips).
pub fn compact_journal(
    path: &Path,
    state: &JournalState,
    jobs: usize,
) -> Result<(), HarnessError> {
    let tmp = PathBuf::from(format!("{}.tmp", path.display()));
    let io_err = |e: &io::Error| HarnessError::io(&tmp, e);
    {
        let mut file = File::create(&tmp).map_err(|e| io_err(&e))?;
        let mut text =
            format!("{{\"journal\":\"{MAGIC}\",\"version\":{VERSION},\"jobs\":{jobs}}}\n");
        for r in state.completed.values() {
            text.push_str(&record_line(r));
            text.push('\n');
        }
        file.write_all(text.as_bytes()).map_err(|e| io_err(&e))?;
        file.sync_all().map_err(|e| io_err(&e))?;
    }
    std::fs::rename(&tmp, path).map_err(|e| HarnessError::io(path, &e))?;
    // Make the rename itself durable where the platform allows it.
    if let Some(dir) = path.parent() {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Render one terminal result as its journal line (no trailing newline).
///
/// Exposed so embedders that keep their own incremental journals — the
/// `pim-serve` server journal interleaves submission records with these
/// result records — serialize results in exactly the harness's format and
/// stay readable by [`parse_result_line`].
pub fn record_line(r: &JobResult) -> String {
    let mut line = String::from("{\"job\":");
    write_escaped(&mut line, &r.id);
    line.push_str(",\"status\":");
    write_escaped(&mut line, r.status.label());
    line.push_str(&format!(",\"attempts\":{}", r.attempts));
    if let Some(label) = &r.error_label {
        line.push_str(",\"error_label\":");
        write_escaped(&mut line, label);
    }
    if let Some(err) = &r.error {
        line.push_str(",\"error\":");
        write_escaped(&mut line, err);
    }
    if let Some(out) = &r.output {
        line.push_str(",\"output\":");
        write_escaped(&mut line, out);
    }
    if let Some(seed) = r.seed {
        line.push_str(&format!(",\"seed\":{seed}"));
    }
    line.push('}');
    line
}

/// Parse one result line written by [`record_line`] back into a
/// [`JobResult`]. Returns `None` for anything malformed — truncated
/// tails, partial lines, non-result records.
pub fn parse_result_line(line: &str) -> Option<JobResult> {
    result_from_fields(&parse_flat_object(line)?)
}

/// Parsed journal: completed results keyed by job id.
#[derive(Debug, Default)]
pub struct JournalState {
    /// Terminal results restored from the journal.
    pub completed: BTreeMap<String, JobResult>,
    /// Body lines that were corrupt (truncated, garbled, interleaved
    /// partial writes) and skipped rather than aborting the resume.
    pub skipped: usize,
    /// Result records that repeated a job id already restored; the later
    /// record wins, and the job is still resumed exactly once.
    pub duplicates: usize,
}

/// Read a journal back for `--resume`.
///
/// # Errors
///
/// Fails if the file cannot be read, the header is missing or does not
/// match this harness/version, or the recorded job count differs from the
/// sweep being resumed (the journal belongs to a different sweep).
///
/// Body corruption is *never* an error: truncated tails, interleaved
/// partial lines, embedded garbage, and duplicated records are skipped
/// and counted ([`JournalState::skipped`] / [`JournalState::duplicates`]).
/// A job whose record was destroyed simply re-runs; a job with any intact
/// record is restored exactly once, never re-run.
pub fn read_journal(path: &Path, expected_jobs: usize) -> Result<JournalState, HarnessError> {
    let bytes = std::fs::read(path).map_err(|e| HarnessError::io(path, &e))?;
    // Corruption can include invalid UTF-8; decode lossily so one garbled
    // line cannot abort the whole resume. Replacement characters make the
    // affected line unparseable, which is exactly skip-and-count.
    let text = String::from_utf8_lossy(&bytes);
    let mut lines = text.lines();
    let header = lines
        .next()
        .and_then(parse_flat_object)
        .ok_or_else(|| HarnessError::mismatch(path, "missing or unreadable header line"))?;
    match (header.get("journal"), header.get("version"), header.get("jobs")) {
        (Some(Field::Str(m)), Some(Field::Num(v)), Some(Field::Num(jobs)))
            if m == MAGIC && *v == VERSION =>
        {
            if *jobs as usize != expected_jobs {
                return Err(HarnessError::mismatch(
                    path,
                    &format!("journal records {jobs} jobs but this sweep has {expected_jobs}"),
                ));
            }
        }
        _ => return Err(HarnessError::mismatch(path, "header is not a pim-harness v1 journal")),
    }

    let mut state = JournalState::default();
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        let Some(result) = parse_result_line(line) else {
            state.skipped += 1;
            continue;
        };
        if state.completed.insert(result.id.clone(), result).is_some() {
            state.duplicates += 1;
        }
    }
    Ok(state)
}

fn result_from_fields(fields: &BTreeMap<String, Field>) -> Option<JobResult> {
    let id = match fields.get("job")? {
        Field::Str(s) => s.clone(),
        _ => return None,
    };
    let status = match fields.get("status")? {
        Field::Str(s) => JobStatus::from_label(s)?,
        _ => return None,
    };
    let attempts = match fields.get("attempts")? {
        Field::Num(n) => u32::try_from(*n).ok()?,
        _ => return None,
    };
    let get_str = |key: &str| match fields.get(key) {
        Some(Field::Str(s)) => Some(s.clone()),
        _ => None,
    };
    let output = get_str("output");
    // A succeeded entry must carry its payload; anything else is corrupt.
    if status == JobStatus::Succeeded && output.is_none() {
        return None;
    }
    let seed = match fields.get("seed") {
        Some(Field::Num(n)) => Some(*n),
        _ => None,
    };
    Some(JobResult {
        id,
        status,
        attempts,
        output,
        error_label: get_str("error_label"),
        error: get_str("error"),
        seed,
    })
}

/// A scalar field of a flat journal object.
#[derive(Debug, Clone, PartialEq)]
pub enum Field {
    /// JSON string (unescaped).
    Str(String),
    /// Non-negative integer.
    Num(u64),
    /// JSON `null`.
    Null,
}

/// Parse one flat JSON object (string / unsigned-integer / null values
/// only — exactly what the journal writes). JSON whitespace may surround
/// every token, as a standard encoder's default output has it; the
/// journal itself is written compact. Returns `None` on any malformation,
/// including trailing garbage, so truncated lines from a killed process
/// are rejected rather than half-read.
pub fn parse_flat_object(line: &str) -> Option<BTreeMap<String, Field>> {
    let mut chars = line.trim().chars().peekable();
    let mut fields = BTreeMap::new();
    if chars.next()? != '{' {
        return None;
    }
    skip_whitespace(&mut chars);
    if chars.peek() == Some(&'}') {
        chars.next();
        return if chars.next().is_none() { Some(fields) } else { None };
    }
    loop {
        skip_whitespace(&mut chars);
        if chars.next()? != '"' {
            return None;
        }
        let key = parse_string_body(&mut chars)?;
        skip_whitespace(&mut chars);
        if chars.next()? != ':' {
            return None;
        }
        skip_whitespace(&mut chars);
        let value = match chars.peek()? {
            '"' => {
                chars.next();
                Field::Str(parse_string_body(&mut chars)?)
            }
            'n' => {
                for expect in ['n', 'u', 'l', 'l'] {
                    if chars.next()? != expect {
                        return None;
                    }
                }
                Field::Null
            }
            c if c.is_ascii_digit() => {
                let mut n: u64 = 0;
                while let Some(d) = chars.peek().and_then(|c| c.to_digit(10)) {
                    n = n.checked_mul(10)?.checked_add(u64::from(d))?;
                    chars.next();
                }
                Field::Num(n)
            }
            _ => return None,
        };
        fields.insert(key, value);
        skip_whitespace(&mut chars);
        match chars.next()? {
            ',' => continue,
            '}' => break,
            _ => return None,
        }
    }
    if chars.next().is_none() {
        Some(fields)
    } else {
        None
    }
}

/// Skip JSON's insignificant whitespace: space, tab, CR and LF.
fn skip_whitespace(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) {
    while chars.next_if(|c| matches!(c, ' ' | '\t' | '\r' | '\n')).is_some() {}
}

/// Parse a JSON string body after the opening quote, handling the escapes
/// `write_escaped` emits (plus `\uXXXX` surrogate pairs for safety).
fn parse_string_body(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Option<String> {
    let mut out = String::new();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                '/' => out.push('/'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'b' => out.push('\u{8}'),
                'f' => out.push('\u{c}'),
                'u' => {
                    let hi = parse_hex4(chars)?;
                    let cp = if (0xD800..0xDC00).contains(&hi) {
                        // Surrogate pair: expect \uXXXX low half next.
                        if chars.next()? != '\\' || chars.next()? != 'u' {
                            return None;
                        }
                        let lo = parse_hex4(chars)?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return None;
                        }
                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                    } else {
                        hi
                    };
                    out.push(char::from_u32(cp)?);
                }
                _ => return None,
            },
            c => out.push(c),
        }
    }
}

fn parse_hex4(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Option<u32> {
    let mut v = 0u32;
    for _ in 0..4 {
        v = v * 16 + chars.next()?.to_digit(16)?;
    }
    Some(v)
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
            let mut w = JournalWriter::create(&path, results.len()).unwrap();
            for r in &results {
                w.record(r).unwrap();
            }
        }
        let state = read_journal(&path, results.len()).unwrap();
        assert_eq!(state.completed.len(), results.len());
        for r in &results {
            assert_eq!(state.completed.get(&r.id), Some(r));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_tail_is_tolerated() {
        let path = tmp("truncated.jsonl");
        {
            let mut w = JournalWriter::create(&path, 3).unwrap();
            w.record(&JobResult::ok("a", 1, "1".into())).unwrap();
            w.record(&JobResult::ok("b", 1, "2".into())).unwrap();
        }
        // Simulate a kill mid-write: chop the last line in half.
        let text = std::fs::read_to_string(&path).unwrap();
        let cut = text.len() - 10;
        std::fs::write(&path, &text[..cut]).unwrap();
        let state = read_journal(&path, 3).unwrap();
        assert_eq!(state.completed.len(), 1);
        assert!(state.completed.contains_key("a"));
        assert_eq!(state.skipped, 1, "the chopped line is counted, not fatal");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mid_journal_corruption_is_skipped_and_counted() {
        let path = tmp("midcorrupt.jsonl");
        {
            let mut w = JournalWriter::create(&path, 4).unwrap();
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
        assert!(state.completed.contains_key("a"));
        assert!(!state.completed.contains_key("b"), "damaged record re-runs");
        assert!(state.completed.contains_key("c"), "records after the damage survive");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn duplicate_records_restore_once_with_later_winning() {
        let path = tmp("dup.jsonl");
        {
            let mut w = JournalWriter::create(&path, 2).unwrap();
            w.record(&JobResult::ok("a", 1, "first".into())).unwrap();
            w.record(&JobResult::ok("a", 2, "second".into())).unwrap();
            w.record(&JobResult::ok("b", 1, "only".into())).unwrap();
        }
        let state = read_journal(&path, 2).unwrap();
        assert_eq!(state.completed.len(), 2);
        assert_eq!(state.duplicates, 1);
        assert_eq!(state.completed["a"].output.as_deref(), Some("second"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn nul_bytes_and_invalid_utf8_cannot_abort_the_read() {
        let path = tmp("nul.jsonl");
        {
            let mut w = JournalWriter::create(&path, 3).unwrap();
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
        assert!(state.completed.contains_key("a"));
        assert_eq!(state.completed.len(), 1);
        assert_eq!(state.skipped, 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn job_count_mismatch_is_an_error() {
        let path = tmp("mismatch.jsonl");
        {
            JournalWriter::create(&path, 3).unwrap();
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
                let mut w = JournalWriter::create_opts(&path, 2, policy, None).unwrap();
                w.record(&JobResult::ok("a", 1, "1".into())).unwrap();
                w.record(&JobResult::ok("b", 1, "2".into())).unwrap();
            }
            let state = read_journal(&path, 2).unwrap();
            assert_eq!(state.completed.len(), 2, "policy {}", policy.label());
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
            let mut w = RecordWriter::from_sink(&label, Box::new(sink), FsyncPolicy::Off);
            for i in 0..20 {
                w.write_line(&format!("{{\"line\":{i}}}")).unwrap();
            }
            // We cannot read the Vec back out through the Box<dyn>, but a
            // zero-error run is the property: no stall was ever terminal.
        }
    }

    #[test]
    fn dirty_writer_guards_torn_fragments_with_a_newline() {
        use std::sync::{Arc, Mutex};

        // A sink whose first write call tears mid-record, then heals. The
        // backing store is shared so the test can inspect what "landed on
        // disk" after the writer is boxed away.
        struct TearOnce {
            buf: Arc<Mutex<Vec<u8>>>,
            torn: bool,
        }
        impl std::io::Write for TearOnce {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if !self.torn {
                    self.torn = true;
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
        let sink = TearOnce { buf: shared.clone(), torn: false };
        let mut w = RecordWriter::from_sink(&label, Box::new(sink), FsyncPolicy::Off);
        let first = record_line(&JobResult::ok("victim", 1, "lost".into()));
        assert!(w.write_line(&first).is_err(), "first record tears");
        let second = record_line(&JobResult::ok("survivor", 1, "kept".into()));
        w.write_line(&second).unwrap();

        let bytes = shared.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // Torn fragment isolated on its own (unparseable) line; the
        // survivor record is intact and restorable.
        assert_eq!(lines.len(), 2, "fragment + survivor: {text:?}");
        assert!(parse_result_line(lines[0]).is_none(), "fragment must not parse");
        assert_eq!(
            parse_result_line(lines[1]).unwrap().id,
            "survivor",
            "guard newline isolated the fragment"
        );
    }

    #[test]
    fn compaction_heals_a_damaged_journal_atomically() {
        let path = tmp("compact.jsonl");
        {
            let mut w = JournalWriter::create(&path, 3).unwrap();
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
        assert_eq!(after.completed.len(), 2);
        assert_eq!(after.completed["a"].output.as_deref(), Some("1-again"), "later record won");
        assert_eq!(after.completed["b"].output.as_deref(), Some("2"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flat_parser_handles_escapes_and_rejects_garbage() {
        let obj = parse_flat_object(r#"{"a":"x\n\"y\"","n":42,"z":null}"#).unwrap();
        assert_eq!(obj.get("a"), Some(&Field::Str("x\n\"y\"".into())));
        assert_eq!(obj.get("n"), Some(&Field::Num(42)));
        assert_eq!(obj.get("z"), Some(&Field::Null));
        assert_eq!(parse_flat_object(r#"{"u":"A😀"}"#).unwrap().get("u"), Some(&Field::Str("A😀".into())));
        assert!(parse_flat_object(r#"{"a":"x""#).is_none(), "truncated");
        assert!(parse_flat_object(r#"{"a":1} trailing"#).is_none());
        assert!(parse_flat_object("").is_none());
        assert!(parse_flat_object("{}").is_some());
    }

    #[test]
    fn flat_parser_skips_json_whitespace_between_tokens() {
        let compact = parse_flat_object(r#"{"op":"hello","client":"probe","n":7,"z":null}"#);
        assert!(compact.is_some());
        for spaced in [
            r#"{"op": "hello", "client": "probe", "n": 7, "z": null}"#,
            "{ \"op\" :\t\"hello\" ,\r\n \"client\":\"probe\",\"n\" : 7 ,\"z\":null\n}",
        ] {
            assert_eq!(parse_flat_object(spaced), compact, "{spaced:?}");
        }
        let ping = parse_flat_object(r#"{ "op":"ping" }"#).unwrap();
        assert_eq!(ping.get("op"), Some(&Field::Str("ping".into())));
        assert_eq!(parse_flat_object("{ \t}"), Some(BTreeMap::new()));
        // Whitespace inside a string is data, not layout.
        let kept = parse_flat_object(r#"{ "k" : " v " }"#).unwrap();
        assert_eq!(kept.get("k"), Some(&Field::Str(" v ".into())));
        // Truncated or malformed lines stay rejected with whitespace around.
        for bad in [
            r#"{ "a": "x", "#,
            r#"{ "a": "#,
            r#"{ "a": 1 "#,
            r#"{ "a" 1 }"#,
            r#"{ "a": 1 2 }"#,
            r#"{ "a": n ull }"#,
            r#"{ "a": 1 , }"#,
            r#"{ "a": 1 } x"#,
        ] {
            assert!(parse_flat_object(bad).is_none(), "{bad:?}");
        }
    }
}
