//! # pim-chaos — deterministic chaos I/O layer
//!
//! `pim-faults` injects *simulated hardware* faults (bit flips, vault
//! failures); this crate injects *real I/O* faults at the `Read`/`Write`
//! boundary: torn and short writes, short reads, `Interrupted`/`WouldBlock`
//! noise, `Ok(0)` writes, ENOSPC-style disk-full onsets, per-op latency and
//! mid-stream connection resets. Every fault is dealt by a seeded
//! [`ChaosPlan`], so a failing schedule is a reproducible test input: rerun
//! the same seed, get the same faults.
//!
//! The wrappers are used by `pim-harness` (journal durability testing) and
//! `pim-serve` (protocol/client/server hardening); the chaos matrices in
//! those crates run ≥64 seeds × 4 fault families and assert bit-identical
//! recovery on every survivable schedule.
//!
//! ```
//! use std::io::Write;
//! use pim_chaos::{ChaosConfig, ChaosPlan, ChaosWriter};
//!
//! let plan = ChaosPlan::new(ChaosConfig::torn_writes(), 42);
//! let mut w = ChaosWriter::new(Vec::new(), plan);
//! // Writes may now tear, shorten, or fail with retryable errors —
//! // deterministically for seed 42.
//! let _ = w.write(b"record\n");
//! ```

pub mod io;
pub mod plan;

pub use crate::io::{ChaosFile, ChaosReader, ChaosWriter};
pub use crate::plan::{
    disk_full_error, is_disk_full, reset_error, torn_error, ChaosConfig, ChaosPlan, ReadEvent,
    WriteEvent,
};
