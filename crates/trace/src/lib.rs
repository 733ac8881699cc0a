//! Simulated-time tracing and metrics for the PIM simulator.
//!
//! The rest of the workspace measures *aggregates* — end-of-run energy,
//! runtime, cache counters. This crate adds the *timeline*: spans and
//! instant events stamped with the **simulated picosecond clock** (never
//! wall time), plus a metrics registry of counters, gauges and fixed-bucket
//! histograms. Both are deterministic: the simulation is single-threaded
//! and seeded, so the same seed produces a byte-identical trace and
//! metrics dump (enforced by `tests/trace_determinism.rs` at the workspace
//! root).
//!
//! # Design
//!
//! * [`Tracer`] is a cheap-to-clone handle threaded through `SimContext`
//!   and `OffloadEngine`. A **disabled** tracer ([`Tracer::disabled`],
//!   also `Default`) is a `None` inside — every emit call returns before
//!   touching the heap, so instrumented code costs nothing when tracing
//!   is off (a wall-clock bench in `pim-bench` keeps this honest).
//! * An enabled tracer has two parts: an event log and metrics.
//!   [`Tracer::new`] keeps both; [`Tracer::metrics_only`] keeps metrics
//!   alone, so a long-running server books counters without buffering a
//!   timeline nobody exports. Emitters check [`Tracer::events_enabled`]
//!   before building an event and [`Tracer::metrics_enabled`] before
//!   resolving metric ids.
//! * Events live on **tracks** ([`TrackId`]) — one per engine, per vault,
//!   for kernel phases, and for injected faults — which export as named
//!   threads so Perfetto / `chrome://tracing` lays the run out as a swim-
//!   lane diagram.
//! * Metric names are interned too ([`CounterId`], [`HistogramId`]). Hot
//!   writers book by id through their own [`MetricsShard`]
//!   ([`Tracer::shard`]), so threads simulating into one tracer do not
//!   contend for metrics, and a batch of updates takes the shard's lock
//!   once ([`MetricsShard::writer`]); snapshots add the shards up exactly.
//! * Buffered events keep their args in one arena per event log, so an
//!   emit allocates nothing of its own.
//! * Exporters are hand-rolled (the workspace has a no-external-deps
//!   rule): [`Tracer::chrome_trace`] emits the Chrome trace-event
//!   format, [`json::JsonValue`] is the tiny JSON writer every
//!   machine-readable artifact in the workspace shares (and the one
//!   parser for journal and wire lines), and
//!   [`MetricsReport::to_json`] dumps the registry.
//!
//! # Example
//!
//! ```
//! use pim_trace::Tracer;
//!
//! let tracer = Tracer::new();
//! let phases = tracer.track("kernel-phases");
//! tracer.complete(phases, "tiling", 0, 1_500_000);   // 1.5 us of simulated time
//! tracer.instant(phases, "fault", 750_000);
//! tracer.count("accesses", 64);
//! tracer.observe("latency_ps", 42_000);
//! let json = tracer.chrome_trace();
//! assert!(json.contains("\"tiling\""));
//! let metrics = tracer.metrics().to_json();
//! assert!(metrics.contains("\"accesses\""));
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod chrome;
pub mod event;
pub mod json;
pub mod metrics;
pub mod tracer;

pub use event::{ArgValue, EventKind, TraceEvent, TrackId};
pub use json::{JsonParseError, JsonValue};
pub use metrics::{
    CounterId, Histogram, HistogramId, HistogramSnapshot, MetricsReport, MetricsShard, ShardWriter,
};
pub use tracer::Tracer;

/// Picosecond timestamp in the *simulated* clock domain.
///
/// Matches `pim_faults::Ps` / `pim_memsim::Ps` structurally; this crate
/// sits below both in the dependency graph, so it declares its own alias.
pub type Ps = u64;
