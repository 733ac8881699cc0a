//! `serve`: `repro --serve 127.0.0.1:0 --jobs 2 --journal <fresh>
//! --fsync data` as a child process, driven over its JSONL wire protocol
//! by one connection that keeps four jobs in flight (a closed loop that
//! waits on the oldest job first).
//!
//! Jobs are 1–2 ms smoke kernels, so the wire, admission, the WAL
//! fdatasync, the scheduler and the server's tracer are the real work.
//! The server's tracer keeps every job's events until its 4M-event cap
//! (about 1,800 jobs), so each server session takes a fixed number of
//! jobs and every session sits in the same regime; a run repeats fresh
//! sessions (new server, new journal) for its time budget.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use pim_bench::scorecard::KernelMetrics;
use pim_core::{rng::SplitMix64, Tracer, Watchdog};
use pim_trace::JsonValue;

use crate::metrics::Outcome;
use crate::spans::Spans;
use crate::traced_faulted::{paper_rows, rel_err};
use crate::{proc, stats, Ctx};

/// The two smoke kernels the jobs alternate between.
const KERNELS: [&str; 2] = ["texture tiling", "color blitting"];
/// Jobs the client keeps in flight.
const IN_FLIGHT: usize = 4;
/// Jobs per server session, well below the tracer cap.
const SESSION_JOBS: usize = 600;
const SMOKE_SESSION_JOBS: usize = 24;
/// Jobs of the untimed first session.
const WARMUP_JOBS: usize = 40;
/// Per-request reply deadline, and the most a session may take (a
/// session normally takes about 3 s).
const IO_TIMEOUT: Duration = Duration::from_secs(10);
const SESSION_LIMIT: Duration = Duration::from_secs(40);

/// A running `repro --serve` child.
struct Server {
    child: Child,
    addr: String,
    log: std::thread::JoinHandle<String>,
}

/// One JSONL connection.
struct Wire {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Wire {
    fn connect(addr: &str) -> Result<Self, String> {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let _ = s.set_nodelay(true);
        s.set_read_timeout(Some(IO_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let writer = s.try_clone().map_err(|e| e.to_string())?;
        Ok(Self {
            reader: BufReader::new(s),
            writer,
        })
    }

    fn call(&mut self, request: &str) -> Result<JsonValue, String> {
        self.writer
            .write_all(format!("{request}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut line = String::new();
        self.reader
            .read_line(&mut line)
            .map_err(|e| format!("receive: {e}"))?;
        if line.is_empty() {
            return Err("server closed the connection".into());
        }
        JsonValue::parse(line.trim_end()).map_err(|e| format!("reply {line:?}: {e}"))
    }
}

fn field<'a>(v: &'a JsonValue, key: &str) -> &'a str {
    v.get(key).and_then(JsonValue::as_str).unwrap_or("")
}

fn quote(s: &str) -> String {
    let mut out = String::new();
    pim_trace::json::write_escaped(&mut out, s);
    out
}

/// Start a server on a fresh journal and time spawn → first `hello`.
fn start(ctx: &Ctx, dir: &Path, journal: &Path) -> Result<(Server, Wire, f64), String> {
    let t0 = Instant::now();
    let mut child = Command::new(&ctx.repro)
        .arg("--serve")
        .arg("127.0.0.1:0")
        .args(["--jobs", "2", "--fsync", "data", "--journal"])
        .arg(journal)
        .current_dir(dir)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn repro --serve: {e}"))?;
    let mut err = BufReader::new(child.stderr.take().ok_or("no stderr")?);
    let mut line = String::new();
    let _ = err.read_line(&mut line);
    let addr = line
        .split("listening on ")
        .nth(1)
        .and_then(|r| r.split_whitespace().next());
    let Some(addr) = addr.map(str::to_string) else {
        let _ = child.kill();
        let _ = child.wait();
        return Err(format!("repro --serve did not start: {line:?}"));
    };
    let log = std::thread::spawn(move || {
        let mut rest = String::new();
        let _ = err.read_to_string(&mut rest);
        rest
    });
    let server = Server { child, addr, log };
    let hello = |addr: &str| -> Result<Wire, String> {
        let mut wire = Wire::connect(addr)?;
        let r = wire.call("{\"op\":\"hello\",\"client\":\"perfbench\"}")?;
        match field(&r, "type") {
            "hello" => Ok(wire),
            _ => Err(format!("hello answered with {}", r.render())),
        }
    };
    match hello(&server.addr) {
        Ok(wire) => Ok((server, wire, t0.elapsed().as_secs_f64())),
        Err(e) => Err(stop(server, Err(e.clone())).err().unwrap_or(e)),
    }
}

/// Reap the server after `drain` asked it to stop (or kill it when
/// asking failed); returns its peak RSS in KiB.
fn stop(mut server: Server, drain: Result<(), String>) -> Result<u64, String> {
    if drain.is_err() {
        let _ = server.child.kill();
    }
    let exit = proc::reap(server.child, Instant::now(), IO_TIMEOUT)
        .map_err(|e| format!("reap server: {e}"))?;
    let log = server.log.join().unwrap_or_default();
    drain?;
    exit.ok()
        .map_err(|e| format!("repro --serve: {e}: {}", log.trim_end()))?;
    Ok(exit.maxrss_kb)
}

/// The session's job specs: pairs of the two kernels, each pair's order
/// drawn from the workload seed.
fn mix(seed: u64, session: usize, jobs: usize) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed ^ ((session as u64 + 1) << 40));
    (0..jobs.div_ceil(2))
        .flat_map(|_| {
            if rng.next_u64() & 1 == 0 {
                [0, 1]
            } else {
                [1, 0]
            }
        })
        .take(jobs)
        .collect()
}

/// The payload each spec must come back with: the in-process
/// `measure_kernel` result.
fn references() -> Result<[String; 2], String> {
    let tracer = Tracer::disabled();
    let one = |k| {
        pim_bench::jobs::measure_kernel(k, true, &tracer, Watchdog::unlimited())
            .map_err(|e| format!("in-process {k}: {e}"))
    };
    Ok([one(KERNELS[0])?, one(KERNELS[1])?])
}

/// What a session measured.
#[derive(Default)]
struct Session {
    setup_s: f64,
    wall_s: f64,
    latencies_ms: Vec<f64>,
    rss_kb: u64,
    rel_err: f64,
    layers: Vec<(&'static str, f64)>,
}

/// How a session talks to the server: the raw wire (end-to-end runs) or
/// the `pim_serve::Client` API (traced runs), with spans around its calls
/// or without, so the two differ only in the spans.
#[derive(Clone)]
enum Link {
    Raw,
    Client(Option<Spans>),
}

enum Transport {
    Raw(Wire),
    Client(Box<pim_serve::Client>, Option<Spans>),
}

/// Run `f` in a span named `name` when there are spans.
fn timed<R>(spans: &Option<Spans>, name: &str, f: impl FnOnce() -> R) -> R {
    match spans {
        Some(s) => s.time(name, None, |_| f()),
        None => f(),
    }
}

impl Transport {
    fn submit(&mut self, id: &str, spec: &str) -> Result<(), String> {
        match self {
            Transport::Raw(w) => {
                let r = w.call(&format!(
                    "{{\"op\":\"submit\",\"id\":{},\"spec\":{}}}",
                    quote(id),
                    quote(spec)
                ))?;
                match field(&r, "type") {
                    "accepted" => Ok(()),
                    _ => Err(format!("submit {id} refused: {}", r.render())),
                }
            }
            Transport::Client(c, s) => timed(s, "Client::submit", || c.submit(id, spec))
                .map(|_| ())
                .map_err(|e| format!("submit {id} refused: {e}")),
        }
    }

    /// Wait for a job; returns `(status, output)`.
    fn wait(&mut self, id: &str) -> Result<(String, String), String> {
        match self {
            Transport::Raw(w) => {
                let r = w.call(&format!("{{\"op\":\"wait\",\"id\":{}}}", quote(id)))?;
                if field(&r, "type") != "result" {
                    return Err(format!("wait {id} refused: {}", r.render()));
                }
                Ok((
                    field(&r, "status").to_string(),
                    field(&r, "output").to_string(),
                ))
            }
            Transport::Client(c, s) => {
                let r = timed(s, "Client::wait", || c.wait(id, None))
                    .map_err(|e| format!("wait {id} refused: {e}"))?;
                Ok((r.status.label().to_string(), r.output.unwrap_or_default()))
            }
        }
    }

    fn stats(&mut self) -> Result<JsonValue, String> {
        match self {
            Transport::Raw(w) => w.call("{\"op\":\"stats\"}"),
            Transport::Client(c, _) => {
                let s = c.stats().map_err(|e| format!("stats: {e}"))?;
                JsonValue::parse(&pim_serve::Response::Stats(s).render()).map_err(|e| e.to_string())
            }
        }
    }
}

/// One server session of `jobs` jobs on `journal`, with the server
/// working in the journal's directory; every job is one counted
/// operation, and so is the session's own check.
fn session(
    ctx: &Ctx,
    o: &mut Outcome,
    refs: &[String; 2],
    index: usize,
    jobs: usize,
    via: Link,
    journal: &Path,
) -> Result<Session, String> {
    let dir = journal.parent().unwrap_or(Path::new("."));
    let (server, wire, setup_s) = start(ctx, dir, journal)?;
    let rss0 = proc::vm_kb(server.child.id(), "VmRSS").unwrap_or(0);
    let mut link = match via {
        Link::Raw => Transport::Raw(wire),
        Link::Client(spans) => {
            drop(wire);
            match pim_serve::Client::connect_with(
                &server.addr,
                "perfbench",
                pim_serve::ClientConfig {
                    read_timeout: Some(IO_TIMEOUT),
                    reconnect_attempts: 0,
                    ..pim_serve::ClientConfig::default()
                },
            ) {
                Ok(c) => Transport::Client(Box::new(c), spans),
                Err(e) => {
                    let e = format!("connect: {e}");
                    return Err(stop(server, Err(e.clone())).err().unwrap_or(e));
                }
            }
        }
    };
    let specs = mix(ctx.seed, index, jobs);
    let mut out = Session {
        setup_s,
        ..Session::default()
    };
    let mut queue: VecDeque<(String, usize, Instant)> = VecDeque::new();
    let mut next = 0;
    let mut served: [Option<String>; 2] = [None, None];
    let t0 = Instant::now();
    while next < jobs || !queue.is_empty() {
        if t0.elapsed() > SESSION_LIMIT {
            let e = format!("session {index} still running after {SESSION_LIMIT:?}");
            return Err(stop(server, Err(e.clone())).err().unwrap_or(e));
        }
        while next < jobs && queue.len() < IN_FLIGHT {
            let id = format!("s{}-{index}-{next}", ctx.seed);
            let spec = format!("kernel-smoke:{}", KERNELS[specs[next]]);
            let sent = Instant::now();
            match link.submit(&id, &spec) {
                Ok(()) => queue.push_back((id, specs[next], sent)),
                Err(e) => o.op(Err(e)),
            }
            next += 1;
        }
        let Some((id, kernel, sent)) = queue.pop_front() else {
            continue;
        };
        let result = link.wait(&id).and_then(|(status, output)| {
            out.latencies_ms.push(sent.elapsed().as_secs_f64() * 1e3);
            if status != "ok" {
                return Err(format!("job {id}: status {status}"));
            }
            if output != refs[kernel] {
                return Err(format!(
                    "job {id}: payload differs from in-process measure_kernel"
                ));
            }
            served[kernel] = Some(output);
            Ok(())
        });
        o.op(result);
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    let metrics: Vec<KernelMetrics> = served
        .iter()
        .flatten()
        .filter_map(|p| KernelMetrics::parse(p))
        .collect();
    out.rel_err = rel_err(&paper_rows(&metrics));

    // The session's own checks: nothing recovered from an old journal,
    // nothing refused, failed or retried into quarantine.
    let hwm = proc::vm_kb(server.child.id(), "VmHWM").unwrap_or(0);
    let num = |s: &JsonValue, k: &str| s.get(k).and_then(JsonValue::as_u64).unwrap_or(u64::MAX);
    // The server hands a result to its waiter a moment before it counts
    // the job as completed, so ask again until the count catches up.
    let mut stats = link.stats();
    for _ in 0..200 {
        match &stats {
            Ok(s) if num(s, "completed") < jobs as u64 => {
                std::thread::sleep(Duration::from_millis(5));
                stats = link.stats();
            }
            _ => break,
        }
    }
    let verdict = stats.as_ref().map_err(Clone::clone).and_then(|s| {
        if num(s, "recovered") != 0 {
            return Err(format!(
                "server recovered {} jobs from a journal",
                num(s, "recovered")
            ));
        }
        for key in ["failed", "quarantined", "overloaded"] {
            if num(s, key) != 0 {
                return Err(format!("server stats {key} = {}", num(s, key)));
            }
        }
        if num(s, "completed") != jobs as u64 {
            return Err(format!(
                "server completed {} of {jobs} jobs",
                num(s, "completed")
            ));
        }
        Ok(())
    });
    if let (Transport::Client(c, Some(spans)), Ok(s)) = (&mut link, &stats) {
        let p50 = |name: &str| stats::median(&spans.ms_where(|n| n == name));
        out.layers.push(("serve.submit_ms", p50("Client::submit")));
        out.layers.push(("serve.wait_ms", p50("Client::wait")));
        for (metric, key) in [
            ("serve.steals", "steals"),
            ("serve.retries", "retries"),
            ("serve.overloaded", "overloaded"),
            ("serve.journal_dropped", "journal_dropped"),
        ] {
            out.layers.push((metric, num(s, key) as f64));
        }
        if let Ok(raw) = c.metrics_raw() {
            let h = JsonValue::parse(&raw).ok().and_then(|m| {
                let h = m.get("histograms")?.get("serve.job_wall_ms")?;
                Some(h.get("sum")?.as_f64()? / h.get("count")?.as_f64()?)
            });
            out.layers.push(("serve.job_ms", h.unwrap_or(f64::NAN)));
        }
        let journal_bytes = std::fs::metadata(journal).map_or(0, |m| m.len());
        out.layers.push((
            "serve.journal_bytes_per_job",
            journal_bytes as f64 / jobs as f64,
        ));
        out.layers.push((
            "serve.rss_kb_per_job",
            hwm.saturating_sub(rss0) as f64 / jobs as f64,
        ));
    }
    let drain = match &mut link {
        Transport::Raw(w) => w
            .call("{\"op\":\"shutdown\",\"mode\":\"drain\"}")
            .map(|_| ()),
        Transport::Client(c, _) => c
            .shutdown(pim_serve::ShutdownMode::Drain)
            .map_err(|e| format!("shutdown: {e}")),
    };
    let stopped = stop(server, drain);
    o.op(verdict.and(stopped.as_ref().map(|_| ()).map_err(Clone::clone)));
    out.rss_kb = stopped.unwrap_or(hwm);
    Ok(out)
}

/// A session on a fresh server, journal and working directory.
fn fresh_session(
    ctx: &Ctx,
    o: &mut Outcome,
    refs: &[String; 2],
    index: usize,
    jobs: usize,
    via: Link,
) -> Result<Session, String> {
    let dir = ctx
        .fresh_dir("serve")
        .map_err(|e| format!("scratch: {e}"))?;
    let journal = dir.join("serve-journal.jsonl");
    let s = session(ctx, o, refs, index, jobs, via, &journal);
    let _ = std::fs::remove_dir_all(&dir);
    s
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let refs = references()?;
    let mut o = Outcome::default();
    let jobs = if ctx.smoke {
        SMOKE_SESSION_JOBS
    } else {
        SESSION_JOBS
    };
    if ctx.trace {
        return traced(ctx, &refs, jobs, o);
    }
    let warm = fresh_session(ctx, &mut o, &refs, 0, WARMUP_JOBS.min(jobs), Link::Raw);
    if let Err(e) = warm {
        o.op(Err(e));
    }
    let mut sessions: Vec<Session> = Vec::new();
    let (mut last, mut failed) = (0.0, 0);
    while ctx.more(sessions.len(), failed, 2, last) {
        match fresh_session(ctx, &mut o, &refs, sessions.len() + 1, jobs, Link::Raw) {
            Ok(s) => {
                last = s.setup_s + s.wall_s;
                sessions.push(s);
            }
            Err(e) => {
                failed += 1;
                o.op(Err(e));
            }
        }
    }
    let col = |f: fn(&Session) -> f64| sessions.iter().map(f).collect::<Vec<f64>>();
    let latencies: Vec<f64> = sessions
        .iter()
        .flat_map(|s| s.latencies_ms.clone())
        .collect();
    let n = latencies.len();
    eprintln!(
        "perfbench: serve: {} sessions of {jobs} jobs, {n} latency samples \
         ({} beyond p95), session walls {:?} s",
        sessions.len(),
        n - (n as f64 * 0.95).ceil() as usize,
        col(|s| s.wall_s)
    );
    o.set("setup_s", stats::median(&col(|s| s.setup_s)));
    o.set("wall_s", stats::median(&col(|s| s.wall_s)));
    let per_s = |s: &Session| s.latencies_ms.len() as f64 / s.wall_s;
    o.set(
        "jobs_per_s",
        stats::median(&sessions.iter().map(per_s).collect::<Vec<f64>>()),
    );
    o.set("latency_p50_ms", stats::median(&latencies));
    o.set("latency_p95_ms", stats::percentile(&latencies, 95.0));
    o.set(
        "peak_rss_mb",
        stats::median(&col(|s| s.rss_kb as f64 / 1024.0)),
    );
    o.set("paper_rel_err", stats::median(&col(|s| s.rel_err)));
    Ok(o)
}

/// The traced run: a warm-up session, then sessions through the
/// `pim_serve::Client` API with spans around `submit` and `wait` and
/// without, alternating which goes first. The per-layer metrics are
/// medians over the spanned sessions.
fn traced(ctx: &Ctx, refs: &[String; 2], jobs: usize, mut o: Outcome) -> Result<Outcome, String> {
    let warm = fresh_session(
        ctx,
        &mut o,
        refs,
        0,
        WARMUP_JOBS.min(jobs),
        Link::Client(None),
    );
    if let Err(e) = warm {
        o.op(Err(e));
    }
    let path = ctx
        .out_dir
        .join(format!("spans-serve-seed{}.jsonl", ctx.seed));
    let _ = std::fs::remove_file(&path);
    let clock = Spans::new();
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    for round in 0..2 {
        for with_spans in [round == 0, round != 0] {
            let index = 1 + plain.len() + spanned.len();
            // Each spanned session records into a buffer of its own, so
            // its p50s are its own.
            let spans = with_spans.then(|| clock.sibling());
            match fresh_session(ctx, &mut o, refs, index, jobs, Link::Client(spans.clone())) {
                Ok(s) => match spans {
                    Some(spans) => {
                        spans
                            .write(&path)
                            .map_err(|e| format!("write spans: {e}"))?;
                        spanned.push(s);
                    }
                    None => plain.push(s),
                },
                Err(e) => o.op(Err(e)),
            }
        }
    }
    if !plain.is_empty() && !spanned.is_empty() {
        let wall = |v: &[Session]| stats::median(&v.iter().map(|s| s.wall_s).collect::<Vec<_>>());
        for (name, _) in &spanned[0].layers {
            let values: Vec<f64> = spanned
                .iter()
                .flat_map(|s| s.layers.iter().filter(|(n, _)| n == name).map(|(_, v)| *v))
                .collect();
            o.set(name, stats::median(&values));
        }
        o.set(
            "bench.span_overhead_pct",
            (wall(&spanned) / wall(&plain) - 1.0) * 100.0,
        );
    }
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_leftover_journal_is_a_failure() {
        let ctx = crate::testing::ctx("serve", "leftover-journal");
        let refs = references().unwrap();
        let dir = ctx.fresh_dir("serve").unwrap();
        let journal = dir.join("serve-journal.jsonl");
        let mut o = Outcome::default();
        let first = session(&ctx, &mut o, &refs, 1, 8, Link::Raw, &journal);
        assert!(first.is_ok() && o.correct(), "{:?}", o.errors);
        // Same journal, new job ids: every job succeeds, but the server
        // recovers the first session's jobs, and the session check fails.
        let again = session(&ctx, &mut o, &refs, 2, 8, Link::Raw, &journal);
        let _ = std::fs::remove_dir_all(&ctx.scratch);
        assert!(again.is_ok());
        assert_eq!(o.failed, 1, "{:?}", o.errors);
        assert!(o.errors[0].contains("recovered"), "{:?}", o.errors);
    }

    #[test]
    fn the_mix_alternates_the_two_kernels_in_seeded_pairs() {
        let specs = mix(7, 1, 10);
        assert_eq!(specs.len(), 10);
        for pair in specs.chunks(2) {
            assert_eq!(pair.iter().sum::<usize>(), 1, "{specs:?}");
        }
        assert_eq!(specs, mix(7, 1, 10));
        assert_ne!(mix(7, 1, 40), mix(8, 1, 40));
    }
}
