//! A thin blocking client for the JSONL protocol.
//!
//! One request, one response line — no pipelining, no background
//! threads. What the simple shape buys is a *predictable* failure story,
//! which the reconnect layer then exploits:
//!
//! * a dropped connection (server crash, mid-stream reset, torn write)
//!   surfaces as [`ServeError::Net`]; the client redials with capped
//!   exponential backoff, repeats the `hello` handshake, and re-issues
//!   the request — safe because every request is idempotent (`submit`
//!   attaches by job id, `wait`/`stats`/`ping` are read-only);
//! * a server that is *up but silent* past the configured read deadline
//!   surfaces as [`ServeError::Timeout`], which is terminal — the job may
//!   still be running, so blind re-submission is the caller's decision,
//!   not the transport's.
//!
//! [`ClientConfig::chaos`] wraps both stream directions in
//! [`pim_chaos`] fault injection (fresh forked plans per redial), which
//! is how the chaos matrix drives a sweep through torn writes, short
//! reads, and connection resets and still expects byte-identical output.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use pim_chaos::{ChaosConfig, ChaosPlan, ChaosReader, ChaosWriter};
use pim_harness::{JobResult, Priority};

use crate::protocol::{Request, Response, ShutdownMode, Stats, PROTOCOL_VERSION};
use crate::ServeError;

/// Transport policy for a [`Client`].
#[derive(Debug, Clone, Copy)]
pub struct ClientConfig {
    /// How long one call may wait for its response line before it is a
    /// terminal [`ServeError::Timeout`]. `wait` calls add their own
    /// server-side bound on top. `None` waits forever (pre-chaos
    /// behavior).
    pub read_timeout: Option<Duration>,
    /// Reconnect-and-re-issue attempts after a network failure (0
    /// disables reconnection).
    pub reconnect_attempts: u32,
    /// First reconnect backoff; doubles per attempt.
    pub reconnect_backoff: Duration,
    /// Cap on the growing backoff.
    pub backoff_cap: Duration,
    /// Wrap both stream directions in fault injection: `(config, seed)`.
    /// Each redial forks fresh plans salted by the connection count, so
    /// retries are deterministic but not identical.
    pub chaos: Option<(ChaosConfig, u64)>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            read_timeout: Some(Duration::from_secs(30)),
            reconnect_attempts: 5,
            reconnect_backoff: Duration::from_millis(25),
            backoff_cap: Duration::from_secs(1),
            chaos: None,
        }
    }
}

/// One live connection: split halves, possibly chaos-wrapped.
struct Conn {
    reader: BufReader<Box<dyn Read + Send>>,
    writer: Box<dyn Write + Send>,
}

/// A connected, identified client.
pub struct Client {
    addr: String,
    name: String,
    cfg: ClientConfig,
    conn: Option<Conn>,
    /// Connections ever dialed; salts the chaos plans per redial.
    dials: u64,
}

impl Client {
    /// Connect and perform the `hello` handshake. `name` keys this
    /// client's quota bucket on the server.
    pub fn connect(addr: &str, name: &str) -> Result<Self, ServeError> {
        Self::connect_with(addr, name, ClientConfig::default())
    }

    /// [`Client::connect`] with an explicit transport policy. The initial
    /// dial already uses the reconnect budget, so a flaky first handshake
    /// retries like any later one.
    pub fn connect_with(addr: &str, name: &str, cfg: ClientConfig) -> Result<Self, ServeError> {
        let mut c = Self {
            addr: addr.to_string(),
            name: name.to_string(),
            cfg,
            conn: None,
            dials: 0,
        };
        let mut backoff = c.cfg.reconnect_backoff;
        let mut last: Option<ServeError> = None;
        for attempt in 0..=c.cfg.reconnect_attempts {
            if attempt > 0 {
                std::thread::sleep(backoff);
                backoff = backoff.saturating_mul(2).min(c.cfg.backoff_cap);
            }
            match c.dial() {
                Ok(()) => return Ok(c),
                Err(e @ ServeError::Net { .. }) => last = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(last.unwrap_or(ServeError::Net { what: "connect attempts exhausted".into() }))
    }

    /// The client name sent in `hello`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Dial once and perform the handshake.
    fn dial(&mut self) -> Result<(), ServeError> {
        self.conn = None;
        let stream = TcpStream::connect(&self.addr).map_err(|e| ServeError::net(&e))?;
        // One-line request/response traffic is latency-bound: without
        // nodelay, Nagle + delayed ACK adds ~40 ms to every exchange.
        let _ = stream.set_nodelay(true);
        // A short socket timeout keeps the read loop ticking so the
        // client-side deadline is checked regularly.
        let tick = self
            .cfg
            .read_timeout
            .map_or(Duration::from_millis(500), |t| t.min(Duration::from_millis(500)));
        stream.set_read_timeout(Some(tick)).map_err(|e| ServeError::net(&e))?;
        let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
        let read_half = stream.try_clone().map_err(|e| ServeError::net(&e))?;
        self.dials += 1;
        let (reader, writer): (Box<dyn Read + Send>, Box<dyn Write + Send>) =
            match self.cfg.chaos {
                Some((cfg, seed)) => (
                    Box::new(ChaosReader::new(
                        read_half,
                        ChaosPlan::fork(cfg, seed, self.dials * 2 + 1),
                    )),
                    Box::new(ChaosWriter::new(
                        stream,
                        ChaosPlan::fork(cfg, seed, self.dials * 2 + 2),
                    )),
                ),
                None => (Box::new(read_half), Box::new(stream)),
            };
        self.conn = Some(Conn { reader: BufReader::new(reader), writer });

        let hello = Request::Hello { client: self.name.clone() };
        match self.call_once(&hello, Some(Duration::ZERO))? {
            Response::Hello { version, .. } if version == PROTOCOL_VERSION => Ok(()),
            Response::Hello { version, .. } => Err(ServeError::protocol(format!(
                "server speaks protocol v{version}, this client v{PROTOCOL_VERSION}"
            ))),
            other => Err(ServeError::protocol(format!("unexpected hello reply: {other:?}"))),
        }
    }

    /// Send one request, read one response line, reconnecting and
    /// re-issuing on network failures.
    pub fn call(&mut self, req: &Request) -> Result<Response, ServeError> {
        self.call_retrying(req, Some(Duration::ZERO))
    }

    /// `grace`: extra read-deadline allowance beyond
    /// [`ClientConfig::read_timeout`] (a bounded server-side `wait` is
    /// allowed its full bound before the client gives up). `None`
    /// disables the deadline for this call (unbounded `wait`).
    fn call_retrying(
        &mut self,
        req: &Request,
        grace: Option<Duration>,
    ) -> Result<Response, ServeError> {
        let mut backoff = self.cfg.reconnect_backoff;
        let mut last: Option<ServeError> = None;
        for attempt in 0..=self.cfg.reconnect_attempts {
            if attempt > 0 {
                self.conn = None;
                std::thread::sleep(backoff);
                backoff = backoff.saturating_mul(2).min(self.cfg.backoff_cap);
            }
            if self.conn.is_none() {
                match self.dial() {
                    Ok(()) => {}
                    Err(e @ ServeError::Net { .. }) => {
                        last = Some(e);
                        continue;
                    }
                    Err(e) => return Err(e),
                }
            }
            match self.call_once(req, grace) {
                Ok(resp) => return Ok(resp),
                Err(e @ ServeError::Net { .. }) => {
                    last = Some(e);
                    continue;
                }
                // Timeout, Rejected, Protocol: terminal — reconnecting
                // cannot make the server faster or the reply valid.
                Err(e) => return Err(e),
            }
        }
        Err(last.unwrap_or(ServeError::Net { what: "reconnect attempts exhausted".into() }))
    }

    /// One request/response exchange on the current connection.
    fn call_once(
        &mut self,
        req: &Request,
        grace: Option<Duration>,
    ) -> Result<Response, ServeError> {
        let raw = self.call_once_raw(&req.render(), grace)?;
        Response::parse(&raw)
            .ok_or_else(|| ServeError::protocol(format!("unparseable response: {raw:?}")))
    }

    fn call_once_raw(&mut self, line: &str, grace: Option<Duration>) -> Result<String, ServeError> {
        let deadline = match (self.cfg.read_timeout, grace) {
            (Some(t), Some(g)) => Some(Instant::now() + t + g),
            _ => None,
        };
        let conn = self
            .conn
            .as_mut()
            .ok_or(ServeError::Net { what: "not connected".into() })?;
        // One framed write: separate line/newline writes would let Nagle
        // hold the newline back a full delayed-ACK interval.
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        conn.writer
            .write_all(framed.as_bytes())
            .and_then(|()| conn.writer.flush())
            .map_err(|e| ServeError::net(&e))?;
        let mut raw = String::new();
        loop {
            match conn.reader.read_line(&mut raw) {
                Ok(0) => {
                    return Err(ServeError::Net { what: "connection closed by server".into() })
                }
                Ok(_) if raw.ends_with('\n') => return Ok(raw.trim_end().to_string()),
                Ok(_) => continue,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut
                        || e.kind() == std::io::ErrorKind::Interrupted =>
                {
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        return Err(ServeError::Timeout {
                            what: format!(
                                "no response line within {:?} (+ grace)",
                                self.cfg.read_timeout.unwrap_or_default()
                            ),
                        });
                    }
                    continue;
                }
                Err(e) => return Err(ServeError::net(&e)),
            }
        }
    }

    /// Submit a job in the default (`Normal`) lane; returns the accepted
    /// state (`queued`, `attached`, `done`) or the typed rejection as an
    /// error.
    pub fn submit(&mut self, id: &str, spec: &str) -> Result<String, ServeError> {
        self.submit_priority(id, spec, Priority::Normal)
    }

    /// [`Client::submit`] with an explicit priority class. `High` jobs
    /// jump the server's global backlog (fairness-bounded — see
    /// [`Priority`]).
    pub fn submit_priority(
        &mut self,
        id: &str,
        spec: &str,
        priority: Priority,
    ) -> Result<String, ServeError> {
        let req = Request::Submit { id: id.into(), spec: spec.into(), priority };
        match self.call(&req)? {
            Response::Accepted { state, .. } => Ok(state),
            Response::Rejected(rej) => Err(ServeError::Rejected(rej)),
            other => Err(ServeError::protocol(format!("unexpected submit reply: {other:?}"))),
        }
    }

    /// Block until the job is terminal and return its result. With a
    /// timeout, a server-side `timeout` rejection surfaces as
    /// [`ServeError::Rejected`]; the client-side read deadline is
    /// extended by the same bound so the server answers first.
    pub fn wait(&mut self, id: &str, timeout: Option<Duration>) -> Result<JobResult, ServeError> {
        let timeout_ms = timeout.map(|t| t.as_millis() as u64);
        let grace = timeout; // None: unbounded wait disables the deadline
        match self.call_retrying(&Request::Wait { id: id.into(), timeout_ms }, grace)? {
            Response::Result(r) => Ok(r),
            Response::Rejected(rej) => Err(ServeError::Rejected(rej)),
            other => Err(ServeError::protocol(format!("unexpected wait reply: {other:?}"))),
        }
    }

    /// Scheduler statistics.
    pub fn stats(&mut self) -> Result<Stats, ServeError> {
        match self.call(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            other => Err(ServeError::protocol(format!("unexpected stats reply: {other:?}"))),
        }
    }

    /// The raw metrics-registry JSON document.
    pub fn metrics_raw(&mut self) -> Result<String, ServeError> {
        let mut last: Option<ServeError> = None;
        for attempt in 0..=self.cfg.reconnect_attempts {
            if attempt > 0 {
                self.conn = None;
                std::thread::sleep(self.cfg.reconnect_backoff);
                if let Err(e) = self.dial() {
                    last = Some(e);
                    continue;
                }
            }
            match self.call_once_raw(&Request::Metrics.render(), Some(Duration::ZERO)) {
                Ok(raw) => return Ok(raw),
                Err(e @ ServeError::Net { .. }) => last = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(last.unwrap_or(ServeError::Net { what: "reconnect attempts exhausted".into() }))
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ServeError> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(ServeError::protocol(format!("unexpected ping reply: {other:?}"))),
        }
    }

    /// Ask the server to shut down (acknowledged before it happens).
    pub fn shutdown(&mut self, mode: ShutdownMode) -> Result<(), ServeError> {
        match self.call(&Request::Shutdown { mode })? {
            Response::ShuttingDown { .. } => Ok(()),
            other => Err(ServeError::protocol(format!("unexpected shutdown reply: {other:?}"))),
        }
    }
}
