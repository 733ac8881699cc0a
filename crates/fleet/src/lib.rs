//! # pim-fleet — crash-safe population sweeps
//!
//! The paper evaluates PIM on a handful of reference configurations;
//! shipping the mechanism to a consumer-device fleet raises a different
//! question: *across millions of heterogeneous devices — mixed DRAM
//! generations, cache sizes, thermal envelopes, fault rates, workload
//! mixes — what does the energy-reduction distribution look like, and
//! which configurations regress?* This crate answers that question with
//! three ingredients:
//!
//! 1. **Deterministic population sampling** ([`profile`]): device `i`'s
//!    profile and analytic energy outcome are pure functions of
//!    `(sweep seed, i)`, so any shard, worker, or resumed run evaluates
//!    the same device identically.
//! 2. **One constant-memory, exactly-mergeable tally** ([`FleetTally`]):
//!    exact counts of devices that regress and that clear the paper's
//!    40% bar, streaming quantiles and a count-min sketch for config →
//!    regression attribution ([`sketch`]). A shard returns one, and the
//!    sweep merges them. All state is integer counters, so merges are
//!    exactly associative and commutative — the algebra behind
//!    bit-identical crash recovery.
//! 3. **Atomic checkpoints and shard quarantine** ([`checkpoint`],
//!    [`sweep`]): every folded batch persists the full state with the
//!    tmp → fsync → rename idiom; SIGKILL at any instant loses at most
//!    one batch, and a resume replays exactly the missing shards into a
//!    byte-identical final report. Shards that panic or time out are
//!    retried by `pim-harness` and then quarantined with replayable
//!    seeds instead of sinking the sweep.
//!
//! Drive it with `repro --fleet --devices 1000000 --seed 7` (see the
//! `pim-bench` crate) or programmatically via [`run_fleet`].

pub mod checkpoint;
pub mod profile;
pub mod sketch;
pub mod sweep;

pub use checkpoint::{
    load_checkpoint, write_checkpoint, FleetState, QuarantineRecord, ShardBitmap, SweepKey,
};
pub use profile::{
    energy_reduction_shifted_bp, sample_profile, shifted_to_signed_bp, token_vocabulary,
    DeviceProfile, DramClass, FaultClass, WorkloadMix,
};
pub use sketch::{CountMinSketch, QuantileSketch, SketchConfig, SketchError};
pub use sweep::{
    evaluate_shard, fleet_report, run_fleet, FleetConfig, FleetOutcome, FleetTally,
    ShardSummary, SHIFTED_40PCT_BP, SHIFTED_ZERO_BP,
};

/// Errors a fleet sweep can surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// Filesystem failure on the checkpoint path.
    Io {
        /// Path the operation targeted.
        path: String,
        /// Underlying error text.
        detail: String,
    },
    /// Structurally damaged state (checkpoint or shard payload). Safe to
    /// recover from by recomputing.
    Corrupt(String),
    /// A well-formed checkpoint that belongs to a *different* sweep —
    /// fatal, because merging it would silently mix populations.
    Mismatch(String),
    /// Sketch geometry violation during a merge.
    Sketch(sketch::SketchError),
    /// The harness failed to run a shard batch.
    Harness(String),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Io { path, detail } => write!(f, "fleet i/o on {path}: {detail}"),
            FleetError::Corrupt(what) => write!(f, "corrupt fleet state: {what}"),
            FleetError::Mismatch(what) => write!(f, "fleet sweep mismatch: {what}"),
            FleetError::Sketch(e) => write!(f, "fleet sketch: {e}"),
            FleetError::Harness(e) => write!(f, "fleet harness: {e}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<sketch::SketchError> for FleetError {
    fn from(e: sketch::SketchError) -> Self {
        FleetError::Sketch(e)
    }
}
