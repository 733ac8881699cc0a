//! Trace-driven memory-subsystem simulator.
//!
//! This crate models the memory side of a consumer-device SoC as described in
//! Table 1 of Boroumand et al., "Google Workloads for Consumer Devices:
//! Mitigating Data Movement Bottlenecks" (ASPLOS 2018):
//!
//! * set-associative write-back [`Cache`]s (L1, shared LLC, PIM-side L1),
//! * an LPDDR3-like baseline DRAM with banks, open rows, and an
//!   FR-FCFS-approximating scheduler window ([`dram`]),
//! * an HMC/HBM-like 3D-stacked memory with 16 vaults, a wide low-energy
//!   internal path, and a narrow off-chip channel ([`stacked`]),
//! * bandwidth-limited [`channel::Channel`]s with busy-until queueing, and
//! * a CPU↔PIM [`coherence`] cost model for offload boundaries.
//!
//! All time is kept in integer **picoseconds** so CPU (2 GHz), PIM core and
//! DRAM clock domains compose without rounding drift. The simulator is
//! *trace-driven*: workload kernels perform real computation and push their
//! loads/stores through [`MemorySystem::access`], which returns the latency
//! of the access and an [`Activity`] record that an energy model can price.
//!
//! # Example
//!
//! ```
//! use pim_memsim::{MemorySystem, MemConfig, AccessKind};
//!
//! let mut mem = MemorySystem::new(MemConfig::chromebook_like()).unwrap();
//! let out = mem.access(0x1000, 64, AccessKind::Read, 0);
//! assert!(out.latency_ps > 0);
//! let hit = mem.access(0x1000, 64, AccessKind::Read, out.latency_ps);
//! assert!(hit.latency_ps < out.latency_ps); // second access hits in L1
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod access;
pub mod cache;
pub mod channel;
pub mod coherence;
pub mod config;
pub mod dram;
pub mod error;
pub mod stacked;
pub mod system;

pub use access::{line_count, AccessKind, Activity, LINE_BYTES};
pub use cache::{Cache, CacheConfig, CacheStats};
pub use channel::{Channel, ChannelFaultStats};
pub use coherence::{CoherenceConfig, CoherenceModel, CoherenceStats};
pub use config::{DramKind, MemConfig};
pub use error::ConfigError;
pub use dram::{BankArray, DramConfig, DramStats, SchedulerPolicy};
pub use stacked::{StackedConfig, StackedMemory};
pub use system::{AccessOutcome, LatencyBreakdown, MemorySystem, Port, RowsOutcome};

// The fault-injection layer lives below the simulator so every crate in the
// workspace shares one error type and one notion of time.
pub use pim_faults::{ChannelFaultConfig, DmpimError, Ps};

/// Convert a frequency in GHz to a clock period in picoseconds.
///
/// ```
/// assert_eq!(pim_memsim::period_ps(2.0), 500);
/// ```
pub fn period_ps(ghz: f64) -> Ps {
    assert!(ghz > 0.0, "frequency must be positive");
    (1000.0 / ghz).round() as Ps
}
