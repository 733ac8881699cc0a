//! The fleet sweep orchestrator.
//!
//! A sweep partitions the device population into contiguous shards,
//! streams bounded batches of shard jobs through the `pim-harness`
//! worker pool, and folds each shard's sketch summary into the global
//! [`FleetState`] **in shard-index order** — the one fold order that,
//! combined with exact integer sketch merges, makes the final state a
//! pure function of `(seed, devices, offset, shard_size, sketch
//! geometry)` regardless of worker count, batching, crashes, or resumes.
//!
//! Robustness properties:
//!
//! * After every folded batch the full state is checkpointed atomically
//!   ([`crate::checkpoint`]); a SIGKILL loses at most one batch of work
//!   and a resume replays exactly the missing shards.
//! * Shards that panic or time out are retried by the harness and then
//!   **quarantined**: recorded with their replayable seed and device
//!   range, excluded from aggregation, and reported — one bricked
//!   configuration cannot sink a million-device sweep.
//! * A soft memory budget degrades sketch resolution (recorded in the
//!   report as `degraded_steps`) instead of OOM-ing.
//! * Checkpoint write failures (disk full, torn tmp write) degrade —
//!   the sweep keeps computing with a stale checkpoint — rather than
//!   abort.

use std::path::PathBuf;
use std::time::Duration;

use pim_chaos::ChaosConfig;
use pim_faults::DmpimError;
use pim_harness::{Harness, HarnessPolicy, Job, JobStatus};
use pim_trace::{JsonValue, Tracer};

use crate::checkpoint::{load_checkpoint, write_checkpoint, FleetState, QuarantineRecord, SweepKey};
use crate::profile::{
    sample_profile, shifted_to_signed_bp, token_vocabulary, DeviceProfile, EnergyTerms,
};
use crate::sketch::{CountMinSketch, QuantileSketch, SketchConfig, SketchError};
use crate::FleetError;

/// Shifted-basis-point encoding of "no change": signed 0 bp.
pub const SHIFTED_ZERO_BP: u64 = 10_000;
/// Shifted-basis-point encoding of the paper's 40%-reduction bar.
pub const SHIFTED_40PCT_BP: u64 = 14_000;

/// Everything that shapes a fleet sweep.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Population seed: device `i`'s profile is a pure function of
    /// `(seed, i)`.
    pub seed: u64,
    /// Devices to sweep.
    pub devices: u64,
    /// First absolute device index (nonzero to replay a quarantined
    /// shard's range in isolation).
    pub offset: u64,
    /// Devices per shard.
    pub shard_size: u64,
    /// Harness worker threads.
    pub workers: usize,
    /// Soft budget for resident sketch state; resolution degrades (never
    /// OOM) until the estimate fits.
    pub mem_budget_bytes: u64,
    /// Checkpoint path; `None` disables crash safety.
    pub checkpoint: Option<PathBuf>,
    /// Inject I/O faults into checkpoint writes (durability testing).
    pub checkpoint_chaos: Option<(ChaosConfig, u64)>,
    /// Test knob: stop after this many shards processed *this run*,
    /// without checkpointing the final partial batch — the in-process
    /// state a SIGKILL would discard.
    pub stop_after_shards: Option<u64>,
    /// Test knob: every n-th shard trips a watchdog timeout and rides the
    /// retry → quarantine path.
    pub fail_shard_every: Option<u64>,
    /// Test knob: per-shard delay so an external `kill -9` can land
    /// mid-run deterministically enough for smoke tests.
    pub shard_delay_ms: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            seed: 7,
            devices: 10_000,
            offset: 0,
            shard_size: 1_000,
            workers: 2,
            mem_budget_bytes: 64 << 20,
            checkpoint: None,
            checkpoint_chaos: None,
            stop_after_shards: None,
            fail_shard_every: None,
            shard_delay_ms: 0,
        }
    }
}

impl FleetConfig {
    /// The sweep identity checkpoints are validated against.
    pub fn key(&self) -> SweepKey {
        SweepKey {
            seed: self.seed,
            devices: self.devices,
            offset: self.offset,
            shard_size: self.shard_size.max(1),
        }
    }
}

/// What a sweep run produced beyond the mergeable state: runtime-only
/// counters that legitimately differ between an uninterrupted run and a
/// kill + resume (and are therefore **excluded** from the deterministic
/// report).
#[derive(Debug)]
pub struct FleetOutcome {
    /// Final aggregation state (pure function of the sweep key for
    /// completed sweeps).
    pub state: FleetState,
    /// Shards restored from the checkpoint instead of recomputed.
    pub resumed_shards: u64,
    /// Shards evaluated this run.
    pub processed_shards: u64,
    /// Checkpoints written durably.
    pub checkpoint_writes: u64,
    /// Checkpoint writes that failed and were skipped (sweep continued).
    pub checkpoint_dropped: u64,
    /// True when `stop_after_shards` cut the run short.
    pub stopped_early: bool,
    /// True when an unreadable checkpoint was discarded and the sweep
    /// recomputed from scratch.
    pub recovered_from_corrupt_checkpoint: bool,
}

/// The mergeable aggregate of a set of devices: what a shard job returns
/// and what the sweep folds into [`FleetState`]. Two exact counters and
/// two sketches, all integer state, so [`FleetTally::merge`] is exactly
/// associative and commutative. The quantile sketch's count is the
/// device count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetTally {
    /// Devices whose PIM configuration regressed (shifted bp below
    /// [`SHIFTED_ZERO_BP`]).
    pub regressed: u64,
    /// Devices at or above the paper's 40%-reduction bar
    /// ([`SHIFTED_40PCT_BP`]).
    pub ge_40pct: u64,
    /// Streaming quantiles of the shifted energy-reduction distribution.
    pub reduction_q: QuantileSketch,
    /// Config-token → regression-count attribution.
    pub attribution: CountMinSketch,
}

/// One shard's tally, the payload a shard job returns through the
/// harness as a string ([`FleetTally::render`]).
pub type ShardSummary = FleetTally;

impl FleetTally {
    /// An empty tally at sketch resolution `cfg`.
    pub fn new(cfg: SketchConfig) -> Self {
        Self {
            regressed: 0,
            ge_40pct: 0,
            reduction_q: QuantileSketch::new(cfg.sub_bits),
            attribution: CountMinSketch::new(cfg.cm_width, cfg.cm_depth),
        }
    }

    /// Devices tallied.
    pub fn devices(&self) -> u64 {
        self.reduction_q.count()
    }

    /// Fold in one device whose energy reduction is `shifted` bp.
    pub fn observe(&mut self, shifted: u64, profile: &DeviceProfile) {
        self.reduction_q.observe(shifted);
        // Branch-free: about half the fleet clears the bar, in no order a
        // branch predictor could learn.
        self.ge_40pct += u64::from(shifted >= SHIFTED_40PCT_BP);
        if shifted < SHIFTED_ZERO_BP {
            self.regressed += 1;
            for token in profile.tokens() {
                self.attribution.increment(&token, 1);
            }
        }
    }

    /// Exact merge. Errors when the sketch geometries differ, leaving
    /// `self` partly merged: callers discard it.
    pub fn merge(&mut self, other: &Self) -> Result<(), SketchError> {
        self.reduction_q.merge(&other.reduction_q)?;
        self.attribution.merge(&other.attribution)?;
        self.regressed += other.regressed;
        self.ge_40pct += other.ge_40pct;
        Ok(())
    }

    /// Serialize as one JSON object (deterministic key order).
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::object()
            .set("regressed", self.regressed)
            .set("ge_40pct", self.ge_40pct)
            .set("reduction_q", self.reduction_q.to_json_value())
            .set("attribution", self.attribution.to_json_value())
    }

    /// Inverse of [`FleetTally::to_json_value`].
    pub fn from_json_value(v: &JsonValue) -> Result<Self, SketchError> {
        let field = |k: &str| v.get(k).ok_or_else(|| SketchError::Corrupt(format!("tally {k}")));
        let num =
            |k: &str| field(k)?.as_u64().ok_or_else(|| SketchError::Corrupt(format!("tally {k}")));
        Ok(Self {
            regressed: num("regressed")?,
            ge_40pct: num("ge_40pct")?,
            reduction_q: QuantileSketch::from_json_value(field("reduction_q")?)?,
            attribution: CountMinSketch::from_json_value(field("attribution")?)?,
        })
    }

    /// Render as a shard job's payload string (deterministic).
    pub fn render(&self) -> String {
        self.to_json_value().render()
    }

    /// Parse a payload back.
    pub fn parse(text: &str) -> Result<Self, FleetError> {
        let doc = JsonValue::parse(text)
            .map_err(|e| FleetError::Corrupt(format!("shard summary parse: {e}")))?;
        Ok(Self::from_json_value(&doc)?)
    }
}

/// Evaluate one shard: sample each device's profile, price it with the
/// analytic energy model at [`pim_energy::EnergyParams::default`] from
/// the model's precomputed terms, and tally it. Pure function of its
/// arguments.
pub fn evaluate_shard(seed: u64, start: u64, devices: u64, cfg: SketchConfig) -> ShardSummary {
    let terms = EnergyTerms::for_default_params();
    let mut tally = FleetTally::new(cfg);
    for d in start..start + devices {
        let profile = sample_profile(seed, d);
        tally.observe(terms.reduction_shifted_bp(&profile), &profile);
    }
    tally
}

/// Pick the sketch resolution that fits the memory budget. Returns the
/// config and how many degradation steps it took.
fn budgeted_config(workers: usize, budget_bytes: u64) -> (SketchConfig, u32) {
    let mut cfg = SketchConfig::default();
    let mut steps = 0u32;
    // Resident tallies: the global fold state plus up to one in-flight and
    // one completed summary per worker.
    let tallies = 1 + 3 * workers.max(1) as u64;
    while tallies * cfg.tally_bytes() > budget_bytes.max(1) {
        if !cfg.degrade() {
            break;
        }
        steps += 1;
    }
    (cfg, steps)
}

/// Run a fleet sweep to completion (or to the `stop_after_shards` kill
/// point), resuming from the checkpoint when one exists.
pub fn run_fleet(cfg: &FleetConfig, tracer: &Tracer) -> Result<FleetOutcome, FleetError> {
    let key = cfg.key();
    let shards = key.shards();

    let (budget_cfg, budget_steps) = budgeted_config(cfg.workers, cfg.mem_budget_bytes);
    let mut recovered_from_corrupt = false;
    let mut state = match &cfg.checkpoint {
        Some(path) => match load_checkpoint(path, &key) {
            // Resume adopts the checkpoint's frozen sketch geometry so
            // merges stay exact even if the budget changed between runs.
            Ok(Some(s)) => s,
            Ok(None) => FleetState::new(key, budget_cfg, budget_steps),
            Err(FleetError::Corrupt(what)) => {
                // Unreadable checkpoints are discarded, never trusted:
                // recomputing is slow but always correct.
                tracer.count("fleet.checkpoint_corrupt", 1);
                eprintln!("fleet: discarding corrupt checkpoint ({what}); recomputing");
                recovered_from_corrupt = true;
                FleetState::new(key, budget_cfg, budget_steps)
            }
            Err(e) => return Err(e),
        },
        None => FleetState::new(key, budget_cfg, budget_steps),
    };

    let resumed_shards =
        state.completed.count_set() + state.quarantined.len() as u64;
    tracer.gauge("fleet.shards_total", shards as f64);
    tracer.count("fleet.shards_resumed", resumed_shards);

    let pending: Vec<u64> = (0..shards)
        .filter(|&i| !state.completed.get(i) && !state.quarantined.iter().any(|q| q.shard == i))
        .collect();

    let policy = HarnessPolicy {
        workers: cfg.workers.max(1),
        wall_deadline: Some(Duration::from_secs(120)),
        ..HarnessPolicy::default()
    };
    let batch_size = (cfg.workers.max(1) * 2).max(4);
    // Build the energy terms on this thread, before the first batch. Built
    // lazily in the first shard job instead, on a pool worker, they raised
    // the 1M-device sweep's peak RSS from ~3.35 to ~3.45 MB (2-vCPU host).
    EnergyTerms::for_default_params();

    let mut processed = 0u64;
    let mut checkpoint_writes = 0u64;
    let mut checkpoint_dropped = 0u64;
    let mut stopped_early = false;

    for chunk in pending.chunks(batch_size) {
        let mut batch: Vec<u64> = chunk.to_vec();
        let mut killed_after_batch = false;
        if let Some(limit) = cfg.stop_after_shards {
            let left = limit.saturating_sub(processed);
            if left == 0 {
                stopped_early = true;
                break;
            }
            if batch.len() as u64 >= left {
                batch.truncate(left as usize);
                killed_after_batch = true;
                stopped_early = true;
            }
        }

        let jobs: Vec<Job> = batch
            .iter()
            .map(|&shard| {
                let start = key.offset + shard * key.shard_size;
                let count = key.shard_size.min(key.offset + key.devices - start);
                let job_seed = key.seed ^ start;
                let sketch_cfg = state.sketch_cfg;
                let sweep_seed = key.seed;
                let fail_every = cfg.fail_shard_every;
                let delay_ms = cfg.shard_delay_ms;
                Job::new(format!("shard-{shard:08}"), move |_ctx| {
                    if let Some(n) = fail_every {
                        if n > 0 && (shard + 1) % n == 0 {
                            return Err(DmpimError::WatchdogTimeout {
                                what: "fleet-shard",
                                limit: n,
                                at_ps: shard,
                            });
                        }
                    }
                    if delay_ms > 0 {
                        std::thread::sleep(Duration::from_millis(delay_ms));
                    }
                    Ok(evaluate_shard(sweep_seed, start, count, sketch_cfg).render())
                })
                .with_seed(job_seed)
            })
            .collect();

        let report = Harness::new(policy.clone())
            .with_tracer(tracer)
            .run(jobs)
            .map_err(|e| FleetError::Harness(e.to_string()))?;

        // Results arrive in input order; fold in that (shard-index) order
        // so the merged state is independent of worker scheduling.
        for (&shard, r) in batch.iter().zip(&report.results) {
            debug_assert_eq!(r.id, format!("shard-{shard:08}"));
            let start = key.offset + shard * key.shard_size;
            let count = key.shard_size.min(key.offset + key.devices - start);
            match (r.status, &r.output) {
                (JobStatus::Succeeded, Some(payload)) => {
                    state.tally.merge(&ShardSummary::parse(payload)?)?;
                    state.completed.set(shard);
                    tracer.count("fleet.shards_completed", 1);
                }
                _ => {
                    // Failed or quarantined after the harness's own retry
                    // policy: bench the shard with everything needed to
                    // replay it in isolation.
                    state.quarantined.push(QuarantineRecord {
                        shard,
                        start,
                        devices: count,
                        seed: r.seed.unwrap_or(key.seed ^ start),
                        error_label: r
                            .error_label
                            .clone()
                            .unwrap_or_else(|| "unknown".to_string()),
                    });
                    tracer.count("fleet.shards_quarantined", 1);
                }
            }
        }
        processed += batch.len() as u64;

        if killed_after_batch {
            // Simulated SIGKILL: the fold above lives only in this
            // process's memory; the checkpoint still holds the previous
            // batch boundary, exactly like a real kill.
            break;
        }

        if let Some(path) = &cfg.checkpoint {
            match write_checkpoint(path, &state, cfg.checkpoint_chaos, processed) {
                Ok(()) => {
                    checkpoint_writes += 1;
                    tracer.count("fleet.checkpoint_writes", 1);
                }
                Err(_) => {
                    // Degrade, don't abort: the sweep keeps computing and
                    // the next boundary retries the write.
                    checkpoint_dropped += 1;
                    tracer.count("fleet.checkpoint_dropped", 1);
                }
            }
        }
    }

    tracer.gauge("fleet.devices_done", state.tally.devices() as f64);
    Ok(FleetOutcome {
        state,
        resumed_shards,
        processed_shards: processed,
        checkpoint_writes,
        checkpoint_dropped,
        stopped_early,
        recovered_from_corrupt_checkpoint: recovered_from_corrupt,
    })
}

/// Render the deterministic fleet report: a pure function of the final
/// [`FleetState`], containing **no wall times or runtime counters**, so
/// an uninterrupted sweep and a kill + resume render byte-identical
/// documents.
pub fn fleet_report(state: &FleetState) -> JsonValue {
    let q = &state.tally.reduction_q;
    let quantile_bp = |p: f64| shifted_to_signed_bp(q.quantile(p));
    let mean_bp = if q.count() == 0 {
        0
    } else {
        shifted_to_signed_bp(q.sum() / q.count())
    };

    // Attribution: rank every vocabulary token by estimated regression
    // count (count-min never under-counts), descending then lexicographic
    // for a deterministic order.
    let mut tokens: Vec<(String, u64)> = token_vocabulary()
        .into_iter()
        .map(|t| {
            let est = state.tally.attribution.estimate(&t);
            (t, est)
        })
        .filter(|(_, est)| *est > 0)
        .collect();
    tokens.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let mut attribution = JsonValue::array();
    for (token, est) in &tokens {
        attribution = attribution.push(
            JsonValue::object()
                .set("token", token.as_str())
                .set("regressions_est", *est),
        );
    }

    let mut quarantined = JsonValue::array();
    for qr in &state.quarantined {
        quarantined = quarantined.push(
            JsonValue::object()
                .set("shard", qr.shard)
                .set("start", qr.start)
                .set("devices", qr.devices)
                .set("seed", qr.seed)
                .set("error_label", qr.error_label.as_str())
                .set(
                    "replay",
                    format!(
                        "repro --fleet --devices {} --seed {} --fleet-offset {}",
                        qr.devices, state.key.seed, qr.start
                    )
                    .as_str(),
                ),
        );
    }

    JsonValue::object()
        .set(
            "population",
            JsonValue::object()
                .set("seed", state.key.seed)
                .set("devices", state.key.devices)
                .set("offset", state.key.offset)
                .set("shard_size", state.key.shard_size)
                .set("shards", state.key.shards())
                .set("completed_shards", state.completed.count_set())
                .set("quarantined_shards", state.quarantined.len() as u64),
        )
        .set(
            "sketch",
            JsonValue::object()
                .set("sub_bits", u64::from(state.sketch_cfg.sub_bits))
                .set("cm_width", state.sketch_cfg.cm_width as u64)
                .set("cm_depth", state.sketch_cfg.cm_depth as u64)
                .set("degraded_steps", u64::from(state.degraded_steps))
                .set("quantile_rel_error_bound", q.relative_error_bound()),
        )
        .set("devices_done", q.count())
        .set(
            "energy_reduction_bp",
            JsonValue::object()
                .set("mean", mean_bp)
                .set("p10", quantile_bp(0.10))
                .set("p50", quantile_bp(0.50))
                .set("p90", quantile_bp(0.90))
                .set("p99", quantile_bp(0.99)),
        )
        .set("devices_ge_40pct_reduction", state.tally.ge_40pct)
        .set("devices_regressed", state.tally.regressed)
        .set("regression_attribution", attribution)
        .set("quarantined", quarantined)
}

#[cfg(test)]
mod tests {
    use pim_energy::EnergyParams;

    use super::*;
    use crate::profile::energy_reduction_shifted_bp;

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("pim-fleet-sweep-{name}-{}", std::process::id()));
        p
    }

    fn quick_cfg(devices: u64) -> FleetConfig {
        FleetConfig { devices, shard_size: 100, workers: 2, ..FleetConfig::default() }
    }

    #[test]
    fn report_is_independent_of_worker_count_and_batching() {
        let base = run_fleet(&quick_cfg(2_000), &Tracer::disabled()).unwrap();
        let serial = run_fleet(
            &FleetConfig { workers: 1, shard_size: 37, ..quick_cfg(2_000) },
            &Tracer::disabled(),
        )
        .unwrap();
        let wide = run_fleet(
            &FleetConfig { workers: 4, shard_size: 250, ..quick_cfg(2_000) },
            &Tracer::disabled(),
        )
        .unwrap();
        let a = fleet_report(&base.state).render();
        // Shard size changes the shard count in the population header but
        // must not change any aggregate: compare the distribution fields.
        for o in [&serial, &wide] {
            assert_eq!(o.state.tally.devices(), 2_000);
            assert_eq!(
                fleet_report(&o.state).get("energy_reduction_bp").unwrap().render(),
                fleet_report(&base.state).get("energy_reduction_bp").unwrap().render()
            );
            assert_eq!(o.state.tally.regressed, base.state.tally.regressed);
        }
        // Same config twice → byte-identical full report.
        let again = run_fleet(&quick_cfg(2_000), &Tracer::disabled()).unwrap();
        assert_eq!(a, fleet_report(&again.state).render());
    }

    #[test]
    fn threshold_counts_equal_a_brute_force_count() {
        let devices = 3_000;
        let params = EnergyParams::default();
        let (mut ge_40pct, mut regressed) = (0, 0);
        for d in 0..devices {
            let shifted = energy_reduction_shifted_bp(&sample_profile(7, d), &params);
            ge_40pct += u64::from(shifted >= SHIFTED_40PCT_BP);
            regressed += u64::from(shifted < SHIFTED_ZERO_BP);
        }
        assert!(ge_40pct > 0 && regressed > 0, "{ge_40pct} ≥40%, {regressed} regressed");
        let count = |out: &FleetOutcome, k: &str| {
            fleet_report(&out.state).get(k).and_then(JsonValue::as_u64).unwrap()
        };
        let ckpt = temp_path("brute-force");
        for workers in [1, 2] {
            for shard_size in [100, 370] {
                let cfg = FleetConfig { devices, shard_size, workers, ..FleetConfig::default() };
                let whole = run_fleet(&cfg, &Tracer::disabled()).unwrap();
                let _ = std::fs::remove_file(&ckpt);
                let cfg = FleetConfig { checkpoint: Some(ckpt.clone()), ..cfg };
                let stop = FleetConfig { stop_after_shards: Some(5), ..cfg.clone() };
                assert!(run_fleet(&stop, &Tracer::disabled()).unwrap().stopped_early);
                let resumed = run_fleet(&cfg, &Tracer::disabled()).unwrap();
                assert!(resumed.resumed_shards > 0);
                for out in [&whole, &resumed] {
                    let at = format!("{workers} workers, shards of {shard_size}");
                    assert_eq!(count(out, "devices_ge_40pct_reduction"), ge_40pct, "{at}");
                    assert_eq!(count(out, "devices_regressed"), regressed, "{at}");
                }
            }
        }
        let _ = std::fs::remove_file(&ckpt);
    }

    #[test]
    fn kill_and_resume_is_byte_identical() {
        let ckpt = temp_path("resume");
        let _ = std::fs::remove_file(&ckpt);
        let cfg = FleetConfig { checkpoint: Some(ckpt.clone()), ..quick_cfg(3_000) };

        let uninterrupted = run_fleet(&FleetConfig { checkpoint: None, ..cfg.clone() }, &Tracer::disabled())
            .unwrap();

        // Kill after 7 shards (mid-batch: the partial fold is discarded).
        let killed = run_fleet(
            &FleetConfig { stop_after_shards: Some(7), ..cfg.clone() },
            &Tracer::disabled(),
        )
        .unwrap();
        assert!(killed.stopped_early);
        assert!(killed.state.tally.devices() < 3_000);

        let resumed = run_fleet(&cfg, &Tracer::disabled()).unwrap();
        assert!(resumed.resumed_shards > 0, "must restore shards from the checkpoint");
        assert_eq!(resumed.state.tally.devices(), 3_000);
        assert_eq!(
            fleet_report(&resumed.state).render(),
            fleet_report(&uninterrupted.state).render(),
            "kill + resume must render a byte-identical report"
        );
        let _ = std::fs::remove_file(&ckpt);
    }

    #[test]
    fn failing_shards_are_quarantined_with_replayable_seeds() {
        let out = run_fleet(
            &FleetConfig { fail_shard_every: Some(5), ..quick_cfg(1_000) },
            &Tracer::disabled(),
        )
        .unwrap();
        assert_eq!(out.state.quarantined.len(), 2, "shards 4 and 9 trip the knob");
        for q in &out.state.quarantined {
            assert_eq!(q.seed, 7 ^ q.start, "seed must replay the shard exactly");
            assert_eq!(q.error_label, "watchdog-timeout");
        }
        // Healthy shards still aggregated.
        assert_eq!(out.state.tally.devices(), 800);
        let rep = fleet_report(&out.state).render();
        assert!(rep.contains("\"quarantined_shards\":2"), "{rep}");
        assert!(rep.contains("--fleet-offset"), "replay hint present: {rep}");
    }

    #[test]
    fn quarantined_shard_replays_in_isolation() {
        // Quarantine shard 4 (devices 400..500), then replay exactly that
        // range with --fleet-offset semantics and check it aggregates.
        let out = run_fleet(
            &FleetConfig { fail_shard_every: Some(5), ..quick_cfg(500) },
            &Tracer::disabled(),
        )
        .unwrap();
        let q = &out.state.quarantined[0];
        let replay = run_fleet(
            &FleetConfig {
                devices: q.devices,
                offset: q.start,
                shard_size: q.devices,
                ..quick_cfg(0)
            },
            &Tracer::disabled(),
        )
        .unwrap();
        assert_eq!(replay.state.tally.devices(), q.devices);
        // The replayed range must equal a direct evaluation of the same
        // absolute device indices.
        let direct = evaluate_shard(7, q.start, q.devices, replay.state.sketch_cfg);
        assert_eq!(replay.state.tally.regressed, direct.regressed);
    }

    #[test]
    fn memory_budget_degrades_resolution_and_is_reported() {
        let tight = run_fleet(
            &FleetConfig { mem_budget_bytes: 64 << 10, ..quick_cfg(300) },
            &Tracer::disabled(),
        )
        .unwrap();
        assert!(tight.state.degraded_steps > 0);
        assert!(tight.state.sketch_cfg.sub_bits < SketchConfig::default().sub_bits);
        let rep = fleet_report(&tight.state).render();
        assert!(rep.contains(&format!("\"degraded_steps\":{}", tight.state.degraded_steps)));
        // Degraded geometry still aggregates every device.
        assert_eq!(tight.state.tally.devices(), 300);
    }

    #[test]
    fn corrupt_checkpoint_recovers_by_recomputing() {
        let ckpt = temp_path("corrupt");
        std::fs::write(&ckpt, "not json at all").unwrap();
        let cfg = FleetConfig { checkpoint: Some(ckpt.clone()), ..quick_cfg(500) };
        let out = run_fleet(&cfg, &Tracer::disabled()).unwrap();
        assert!(out.recovered_from_corrupt_checkpoint);
        assert_eq!(out.state.tally.devices(), 500);
        let clean = run_fleet(&FleetConfig { checkpoint: None, ..cfg }, &Tracer::disabled()).unwrap();
        assert_eq!(fleet_report(&out.state).render(), fleet_report(&clean.state).render());
        let _ = std::fs::remove_file(&ckpt);
    }

    #[test]
    fn version_1_checkpoint_is_recomputed() {
        // Written by the version-1 sweep (reduction histogram, device
        // counter) for this key, stopped after 5 of 6 shards: the first
        // 4-shard batch is on disk.
        const V1: &str = concat!(
            r#"{"fleet":"pim-fleet","version":1,"seed":7,"devices":30,"offset":0,"#,
            r#""shard_size":5,"sketch":{"sub_bits":6,"cm_width":1024,"cm_depth":4},"#,
            r#""degraded_steps":0,"devices_done":20,"regressed":0,"completed":"0f","#,
            r#""quarantined":[],"reduction_q":{"m":6,"count":20,"sum":283349,"buckets":"#,
            r#"[537,1,549,1,550,1,551,1,555,2,556,1,558,2,560,2,561,2,563,1,564,2,565,2,"#,
            r#"566,2]},"reduction_hist":{"step":250,"len":81,"count":20,"buckets":[45,1,"#,
            r#"52,2,53,1,55,3,56,2,57,3,58,1,59,4,60,3]},"attribution":{"width":1024,"#,
            r#""depth":4,"slots":[]}}"#,
        );
        let ckpt = temp_path("v1");
        std::fs::write(&ckpt, V1).unwrap();
        let cfg = FleetConfig { devices: 30, shard_size: 5, workers: 1, ..FleetConfig::default() };
        let resumed = run_fleet(
            &FleetConfig { checkpoint: Some(ckpt.clone()), ..cfg.clone() },
            &Tracer::disabled(),
        )
        .unwrap();
        assert!(resumed.recovered_from_corrupt_checkpoint);
        assert_eq!(resumed.resumed_shards, 0);
        let clean = run_fleet(&cfg, &Tracer::disabled()).unwrap();
        assert_eq!(fleet_report(&resumed.state).render(), fleet_report(&clean.state).render());
        let _ = std::fs::remove_file(&ckpt);
    }

    /// Stop a 10,000-device sweep in 1,000-device shards on one worker
    /// after 6 shards, so that one checkpoint (the first 4-shard batch) is
    /// on disk; replace `from` with `to` in it; then resume. The resume
    /// must discard the checkpoint and match an uninterrupted sweep.
    fn resume_after_editing_the_checkpoint(tag: &str, from: &str, to: &str) {
        let ckpt = temp_path(tag);
        let _ = std::fs::remove_file(&ckpt);
        let cfg = FleetConfig {
            devices: 10_000,
            shard_size: 1_000,
            workers: 1,
            checkpoint: Some(ckpt.clone()),
            ..FleetConfig::default()
        };
        let killed = run_fleet(
            &FleetConfig { stop_after_shards: Some(6), ..cfg.clone() },
            &Tracer::disabled(),
        )
        .unwrap();
        assert_eq!(killed.checkpoint_writes, 1);
        let text = std::fs::read_to_string(&ckpt).unwrap();
        assert_eq!(text.matches(from).count(), 1, "{from} in {text}");
        std::fs::write(&ckpt, text.replacen(from, to, 1)).unwrap();

        let resumed = run_fleet(&cfg, &Tracer::disabled()).unwrap();
        assert!(resumed.recovered_from_corrupt_checkpoint);
        let clean =
            run_fleet(&FleetConfig { checkpoint: None, ..cfg }, &Tracer::disabled()).unwrap();
        assert_eq!(fleet_report(&resumed.state).render(), fleet_report(&clean.state).render());
        let _ = std::fs::remove_file(&ckpt);
    }

    #[test]
    fn checkpoint_whose_sub_bits_disagree_with_its_sketch_is_recomputed() {
        resume_after_editing_the_checkpoint("sub-bits", "\"sub_bits\":6", "\"sub_bits\":5");
    }

    #[test]
    fn checkpoint_whose_quantile_sketch_disagrees_with_sub_bits_is_recomputed() {
        resume_after_editing_the_checkpoint("quantile-m", "\"m\":6", "\"m\":5");
    }

    #[test]
    fn checkpoint_whose_cm_width_disagrees_with_its_sketch_is_recomputed() {
        resume_after_editing_the_checkpoint("cm-width", "\"cm_width\":1024", "\"cm_width\":512");
    }

    #[test]
    fn checkpoint_for_a_different_sweep_is_fatal() {
        let ckpt = temp_path("wrongkey");
        let cfg_a = FleetConfig { checkpoint: Some(ckpt.clone()), seed: 1, ..quick_cfg(200) };
        run_fleet(&cfg_a, &Tracer::disabled()).unwrap();
        let cfg_b = FleetConfig { seed: 2, ..cfg_a };
        assert!(matches!(run_fleet(&cfg_b, &Tracer::disabled()), Err(FleetError::Mismatch(_))));
        let _ = std::fs::remove_file(&ckpt);
    }
}
