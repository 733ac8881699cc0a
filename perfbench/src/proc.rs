//! Child processes: run one to completion under a deadline and read its
//! own peak resident memory from `wait4`.

use std::io;
use std::os::raw::{c_int, c_long};
use std::process::{Child, Command};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// `struct rusage` on Linux: two `timeval`s, then fourteen longs, the
/// first of which is `ru_maxrss` in KiB.
#[repr(C)]
struct Rusage {
    times: [c_long; 4],
    maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, usage: *mut Rusage) -> c_int;
    fn kill(pid: c_int, sig: c_int) -> c_int;
}

const SIGKILL: c_int = 9;

/// How a child ended.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Exit code, or `None` when a signal ended it.
    pub code: Option<i32>,
    /// Peak resident set of the child itself, in KiB.
    pub maxrss_kb: u64,
    /// Spawn to reap.
    pub wall: Duration,
}

impl Exit {
    pub fn ok(&self) -> Result<(), String> {
        match self.code {
            Some(0) => Ok(()),
            Some(c) => Err(format!("exit code {c}")),
            None => Err("killed by a signal".to_string()),
        }
    }

    pub fn rss_mb(&self) -> f64 {
        self.maxrss_kb as f64 / 1024.0
    }
}

/// Run `cmd` to completion; SIGKILL it if it outlives `limit`.
pub fn run(cmd: &mut Command, limit: Duration) -> io::Result<Exit> {
    let t0 = Instant::now();
    let child = cmd.spawn()?;
    reap(child, t0, limit)
}

/// Reap an already spawned child (spawned at `t0`), killing it if it
/// outlives `limit` from now.
pub fn reap(child: Child, t0: Instant, limit: Duration) -> io::Result<Exit> {
    let pid = child.id() as c_int;
    let (done, wake) = mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || {
        if wake.recv_timeout(limit).is_err() {
            // SAFETY: plain syscall on the child's pid; the child has not
            // been reaped yet (the main thread signals only after reaping).
            unsafe { kill(pid, SIGKILL) };
        }
    });
    let mut status: c_int = 0;
    let mut usage = Rusage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    let r = loop {
        // SAFETY: valid out-pointers to locals; the pid is our child.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == -1 && io::Error::last_os_error().kind() == io::ErrorKind::Interrupted {
            continue;
        }
        break r;
    };
    let wall = t0.elapsed();
    let _ = done.send(());
    let _ = watchdog.join();
    // Reaped here, so `Child` must not wait again: dropping it is a no-op.
    drop(child);
    if r == -1 {
        return Err(io::Error::last_os_error());
    }
    let code = if status & 0x7f == 0 {
        Some((status >> 8) & 0xff)
    } else {
        None
    };
    Ok(Exit {
        code,
        maxrss_kb: usage.maxrss.max(0) as u64,
        wall,
    })
}

/// `VmHWM` / `VmRSS` of a live process, in KiB.
pub fn vm_kb(pid: u32, field: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim()
        .trim_start_matches(':')
        .trim()
        .split(' ')
        .next()?
        .parse()
        .ok()
}
