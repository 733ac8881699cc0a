//! `Read`/`Write` wrappers that apply a [`ChaosPlan`] to an inner stream.
//!
//! The wrappers are transparent when the plan's config is
//! [`ChaosConfig::none()`](crate::ChaosConfig::none). Fault semantics:
//!
//! - **Short reads/writes** are legal `Read`/`Write` behaviour; correct
//!   callers loop and lose nothing.
//! - **Torn writes** land a strict prefix of the buffer on the inner stream
//!   and then fail the call — the caller cannot tell how much (if anything)
//!   was written, exactly like a process death or connection loss mid-write.
//! - **Disk-full / connection-reset** onsets are permanent for the life of
//!   the plan; recovery requires a new file/connection (and thus a new plan).

use std::fs::File;
use std::io::{self, Read, Write};
use std::path::Path;

use crate::plan::{ChaosPlan, ReadEvent, WriteEvent};

fn nap(plan: &ChaosPlan) {
    if let Some(d) = plan.op_delay() {
        std::thread::sleep(d);
    }
}

/// A fault-injecting reader.
#[derive(Debug)]
pub struct ChaosReader<R> {
    inner: R,
    plan: ChaosPlan,
}

impl<R: Read> ChaosReader<R> {
    pub fn new(inner: R, plan: ChaosPlan) -> Self {
        Self { inner, plan }
    }

    pub fn get_mut(&mut self) -> &mut R {
        &mut self.inner
    }

    pub fn into_inner(self) -> R {
        self.inner
    }
}

impl<R: Read> Read for ChaosReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return self.inner.read(buf);
        }
        nap(&self.plan);
        match self.plan.read_event(buf.len()) {
            ReadEvent::Pass => self.inner.read(buf),
            ReadEvent::Short { max } => self.inner.read(&mut buf[..max]),
            ReadEvent::Fault(e) => Err(e),
        }
    }
}

/// A fault-injecting writer.
#[derive(Debug)]
pub struct ChaosWriter<W> {
    inner: W,
    plan: ChaosPlan,
}

impl<W: Write> ChaosWriter<W> {
    pub fn new(inner: W, plan: ChaosPlan) -> Self {
        Self { inner, plan }
    }

    pub fn get_mut(&mut self) -> &mut W {
        &mut self.inner
    }

    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for ChaosWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return self.inner.write(buf);
        }
        nap(&self.plan);
        match self.plan.write_event(buf.len()) {
            WriteEvent::Pass { keep } => {
                let n = self.inner.write(&buf[..keep])?;
                self.plan.account_written(n);
                Ok(n)
            }
            WriteEvent::Zero => Ok(0),
            WriteEvent::Torn { keep } => {
                if keep > 0 {
                    self.inner.write_all(&buf[..keep])?;
                    self.plan.account_written(keep);
                    let _ = self.inner.flush();
                }
                Err(crate::plan::torn_error())
            }
            WriteEvent::Fault(e) => Err(e),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// A fault-injecting append-only file, for journal-style sinks. Exposes the
/// `sync_data`/`sync_all` surface of [`File`] so durability policies work
/// through the wrapper (syncs are forwarded un-faulted: the chaos layer
/// models lost *writes*, and a sync that "succeeds" after a torn write is
/// precisely the dangerous schedule worth testing).
#[derive(Debug)]
pub struct ChaosFile {
    inner: ChaosWriter<File>,
}

impl ChaosFile {
    /// Create (truncate) `path` and wrap it in `plan`.
    pub fn create(path: &Path, plan: ChaosPlan) -> io::Result<Self> {
        Ok(Self {
            inner: ChaosWriter::new(File::create(path)?, plan),
        })
    }

    /// Open `path` for appending and wrap it in `plan`.
    pub fn append(path: &Path, plan: ChaosPlan) -> io::Result<Self> {
        let file = File::options().append(true).open(path)?;
        Ok(Self {
            inner: ChaosWriter::new(file, plan),
        })
    }

    pub fn sync_data(&mut self) -> io::Result<()> {
        self.inner.get_mut().sync_data()
    }

    pub fn sync_all(&mut self) -> io::Result<()> {
        self.inner.get_mut().sync_all()
    }
}

impl Write for ChaosFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{is_disk_full, ChaosConfig};

    /// Write `lines` through a chaos writer with a caller that retries
    /// transient faults a bounded number of times per line, then read the
    /// buffer back. Returns (surviving bytes, lines fully acknowledged).
    fn push_lines(cfg: ChaosConfig, seed: u64, lines: usize) -> (Vec<u8>, usize) {
        let mut w = ChaosWriter::new(Vec::new(), ChaosPlan::new(cfg, seed));
        let mut acked = 0;
        // After a torn line, isolate the stranded fragment behind a guard
        // newline before the next record (the hardened journal writer does
        // the same).
        let mut dirty = false;
        'line: for i in 0..lines {
            let mut line = String::new();
            if dirty {
                line.push('\n');
            }
            line.push_str(&format!("record-{i:04}\n"));
            let buf = line.as_bytes();
            let mut off = 0;
            let mut retries = 0;
            while off < buf.len() {
                match w.write(&buf[off..]) {
                    Ok(0) => retries += 1,
                    Ok(n) => {
                        off += n;
                        retries = 0;
                    }
                    Err(e)
                        if matches!(
                            e.kind(),
                            io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock
                        ) =>
                    {
                        retries += 1;
                    }
                    Err(_) => {
                        dirty = true; // torn: give up on this line
                        continue 'line;
                    }
                }
                if retries > 16 {
                    dirty = true;
                    continue 'line;
                }
            }
            dirty = false;
            acked += 1;
        }
        (w.into_inner(), acked)
    }

    #[test]
    fn clean_config_round_trips_bytes() {
        let (bytes, acked) = push_lines(ChaosConfig::none(), 1, 50);
        assert_eq!(acked, 50);
        assert_eq!(bytes.len(), 50 * "record-0000\n".len());
    }

    #[test]
    fn retryable_noise_loses_nothing() {
        let (bytes, acked) = push_lines(ChaosConfig::interrupts(), 3, 50);
        assert_eq!(acked, 50, "retry loop should complete every line");
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(text.lines().count(), 50);
    }

    #[test]
    fn torn_writes_leave_partial_lines_but_acked_lines_are_intact() {
        let mut torn_seen = false;
        for seed in 0..32 {
            let (bytes, acked) = push_lines(ChaosConfig::torn_writes(), seed, 40);
            let text = String::from_utf8_lossy(&bytes);
            // Every fully-acked line must be present and intact.
            let complete: Vec<&str> = text.split('\n').collect();
            let intact = complete
                .iter()
                .filter(|l| l.len() == "record-0000".len() && l.starts_with("record-"))
                .count();
            assert!(
                intact >= acked,
                "seed {seed}: {intact} intact lines < {acked} acked"
            );
            if acked < 40 {
                torn_seen = true;
            }
        }
        assert!(torn_seen, "torn-write family never tore a line in 32 seeds");
    }

    #[test]
    fn short_reads_deliver_all_bytes_to_looping_readers() {
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        for seed in 0..16 {
            let mut r = ChaosReader::new(
                payload.as_slice(),
                ChaosPlan::new(ChaosConfig::short_reads(), seed),
            );
            let mut out = Vec::new();
            let mut buf = [0u8; 256];
            loop {
                match r.read(&mut buf) {
                    Ok(0) => break,
                    Ok(n) => out.extend_from_slice(&buf[..n]),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
            assert_eq!(out, payload, "seed {seed}");
        }
    }

    #[test]
    fn disk_full_file_rejects_writes_after_onset() {
        let dir = std::env::temp_dir().join(format!("pim-chaos-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("full.jsonl");
        let mut f =
            ChaosFile::create(&path, ChaosPlan::new(ChaosConfig::disk_full(32), 9)).unwrap();
        let mut wrote = 0usize;
        let mut full = false;
        for _ in 0..20 {
            match f.write(b"0123456789abcdef") {
                Ok(n) => wrote += n,
                Err(e) => {
                    assert!(is_disk_full(&e));
                    full = true;
                    break;
                }
            }
        }
        assert!(full, "disk never filled");
        assert!(wrote >= 32, "onset before budget consumed");
        f.sync_all().unwrap(); // syncs still work on a full disk
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stream_reset_kills_both_directions() {
        // One connection's two directions, as a client wraps them: forked
        // plans, so each draws its own reset onset.
        let cfg = ChaosConfig::reset_between(4, 8);
        let mut w = ChaosWriter::new(Vec::new(), ChaosPlan::fork(cfg, 21, 2));
        let mut reset = false;
        for _ in 0..32 {
            if w.write(b"ping\n").is_err() {
                reset = true;
                break;
            }
        }
        assert!(reset, "write direction never reset");
        let mut r = ChaosReader::new(io::repeat(b'x'), ChaosPlan::fork(cfg, 21, 1));
        let mut buf = [0u8; 8];
        let mut read_reset = false;
        for _ in 0..32 {
            if r.read(&mut buf).is_err() {
                read_reset = true;
                break;
            }
        }
        assert!(read_reset, "read direction never reset");
    }
}
