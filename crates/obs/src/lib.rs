//! # pim-obs — cross-layer observability for the PIM simulator
//!
//! Two views of a run, for two different readers:
//!
//! - [`explain`]: **simulated** time and energy, attributed across the
//!   six cost components (`compute / cache / coherence / dram-queue /
//!   dram-service / pim-link`) that `pim_core::SimContext` accumulates.
//!   Powers `repro --explain` and `BENCH_explain.json`, including the
//!   [`explain::attribute_gap`] analysis that localizes the divergent
//!   PIM-Acc headline speedup to specific component deltas.
//! - [`prometheus`]: text exposition of a [`pim_trace::MetricsReport`]
//!   for scrape-based monitoring of `pim-serve` (`/metrics?format=prometheus`).
//!
//! Like the rest of the workspace, this crate is std-only.

pub mod explain;
pub mod prometheus;

pub use explain::{
    attribute_gap, render_explain_table, ExplainRecord, GapAttribution, COMPONENT_LABELS,
};
pub use prometheus::{
    render_prometheus, sanitize_metric_name, validate_prometheus, PROMETHEUS_CONTENT_TYPE,
};
