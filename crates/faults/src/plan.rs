//! Seeded, deterministic fault schedules and the watchdog.
//!
//! A [`FaultPlan`] is built once from a [`FaultConfig`] and a seed. All
//! *windowed* events (vault failures, PIM-unavailability windows, thermal
//! throttle intervals) are drawn up front from the seed, so they are the
//! persistent "state of the world": retrying an offload attempt does not
//! reroll them, only waiting (simulated time advancing past a window)
//! helps. *Per-access* draws (DRAM bit flips) come from a separate stream
//! salted per attempt, so a retry of a transiently-faulted run can
//! succeed — exactly the behaviour a runtime fallback policy needs.
//!
//! All draws use [`SplitMix64`], so a plan is bit-reproducible across
//! runs and platforms: same seed ⇒ identical schedule ⇒ identical
//! `RunReport` (enforced by `tests/fault_injection.rs`).

use crate::error::{DmpimError, FaultKind};
use crate::rng::SplitMix64;
use crate::Ps;

/// ECC model for the DRAM arrays: single-event flips are corrected for a
/// small latency charge; a configurable fraction of events exceed the
/// code's correction capability and surface as detected-uncorrectable
/// errors (a transient fault to the offload layer, which re-reads or
/// reloads the data).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EccConfig {
    /// Whether ECC detect/correct logic is present. Without it, flips are
    /// silent corruption: counted, never surfaced as errors.
    pub enabled: bool,
    /// Fraction of raw flip events that hit more bits than the code can
    /// correct (detected-uncorrectable).
    pub uncorrectable_fraction: f64,
    /// Extra latency charged per corrected event, in ps.
    pub correction_ps: Ps,
}

impl Default for EccConfig {
    fn default() -> Self {
        Self { enabled: true, uncorrectable_fraction: 0.05, correction_ps: 2_000 }
    }
}

/// Fault-injection configuration. [`FaultConfig::none`] injects nothing
/// and is guaranteed to leave every simulated number bit-identical to a
/// run without any fault plan attached.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Expected raw DRAM bit-flip events per GiB of DRAM traffic.
    pub bit_flips_per_gb: f64,
    /// Probability that each vault fails permanently somewhere inside the
    /// horizon.
    pub vault_fail_prob: f64,
    /// Number of vaults in the stack (Table 1: 16).
    pub vaults: u32,
    /// Number of PIM-unavailability windows across the horizon.
    pub unavail_windows: u32,
    /// Length of each unavailability window, in ps.
    pub unavail_window_ps: Ps,
    /// Number of thermal-throttle windows across the horizon.
    pub throttle_windows: u32,
    /// Length of each throttle window, in ps.
    pub throttle_window_ps: Ps,
    /// Slowdown applied to logic-layer engines inside a throttle window
    /// (≥ 1.0; 1.0 disables throttling).
    pub throttle_factor: f64,
    /// Probability a channel transaction is dropped (and retransmitted).
    pub drop_prob: f64,
    /// Probability a channel transaction is duplicated.
    pub dup_prob: f64,
    /// Horizon over which windowed events are scheduled, in simulated ps.
    pub horizon_ps: Ps,
    /// ECC model.
    pub ecc: EccConfig,
}

impl FaultConfig {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        Self {
            bit_flips_per_gb: 0.0,
            vault_fail_prob: 0.0,
            vaults: 16,
            unavail_windows: 0,
            unavail_window_ps: 0,
            throttle_windows: 0,
            throttle_window_ps: 0,
            throttle_factor: 1.0,
            drop_prob: 0.0,
            dup_prob: 0.0,
            horizon_ps: 1_000_000_000_000, // 1 s
            ecc: EccConfig::default(),
        }
    }

    /// A single-knob preset: `rate` in `[0, 1]` scales every fault class
    /// from "nothing" to "hostile environment". Used by the fault-rate
    /// sweep example and tests.
    ///
    /// The constants are *accelerated* injection rates, scaled so that the
    /// microsecond-scale kernel runs of this repository actually meet
    /// faults: the horizon is a 200 µs burst, and flip rates are orders of
    /// magnitude above field FIT rates (as in real accelerated testing).
    pub fn with_rate(rate: f64) -> Self {
        let r = rate.clamp(0.0, 1.0);
        Self {
            bit_flips_per_gb: 2_000.0 * r,
            vault_fail_prob: 0.05 * r,
            unavail_windows: (4.0 * r).round() as u32,
            unavail_window_ps: 30_000_000, // 30 us
            throttle_windows: (3.0 * r).round() as u32,
            throttle_window_ps: 40_000_000, // 40 us
            throttle_factor: 1.0 + 0.8 * r,
            drop_prob: 0.002 * r,
            dup_prob: 0.001 * r,
            horizon_ps: 200_000_000, // 200 us
            ..Self::none()
        }
    }

    /// Whether this configuration can never inject anything.
    pub fn is_zero(&self) -> bool {
        self.bit_flips_per_gb == 0.0
            && self.vault_fail_prob == 0.0
            && self.unavail_windows == 0
            && (self.throttle_windows == 0 || self.throttle_factor == 1.0)
            && self.drop_prob == 0.0
            && self.dup_prob == 0.0
    }

    /// Validate ranges, returning [`DmpimError::InvalidConfig`] on nonsense.
    pub fn validate(&self) -> Result<(), DmpimError> {
        fn prob(name: &str, p: f64) -> Result<(), DmpimError> {
            if !(0.0..=1.0).contains(&p) || p.is_nan() {
                return Err(DmpimError::invalid_config(format!("{name} must be in [0, 1], got {p}")));
            }
            Ok(())
        }
        prob("vault_fail_prob", self.vault_fail_prob)?;
        prob("drop_prob", self.drop_prob)?;
        prob("dup_prob", self.dup_prob)?;
        prob("ecc.uncorrectable_fraction", self.ecc.uncorrectable_fraction)?;
        if self.bit_flips_per_gb.is_nan() || self.bit_flips_per_gb < 0.0 {
            return Err(DmpimError::invalid_config("bit_flips_per_gb must be non-negative"));
        }
        if self.throttle_factor.is_nan() || self.throttle_factor < 1.0 {
            return Err(DmpimError::invalid_config(format!(
                "throttle_factor must be >= 1.0, got {}",
                self.throttle_factor
            )));
        }
        if self.vaults == 0 {
            return Err(DmpimError::invalid_config("vaults must be nonzero"));
        }
        if self.horizon_ps == 0 && (self.unavail_windows > 0 || self.throttle_windows > 0) {
            return Err(DmpimError::invalid_config("windowed events need a nonzero horizon"));
        }
        Ok(())
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self::none()
    }
}

/// Channel-level fault knobs, embedded in `pim-memsim`'s configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelFaultConfig {
    /// Probability a transaction is dropped and retransmitted.
    pub drop_prob: f64,
    /// Probability a transaction is duplicated.
    pub dup_prob: f64,
    /// Seed for the channel's private draw stream.
    pub seed: u64,
}

/// One scheduled (windowed) event of a plan, for reporting and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Event class.
    pub kind: FaultKind,
    /// Start of the window (or failure instant), in ps.
    pub at_ps: Ps,
    /// End of the window; equals `at_ps` for point events.
    pub end_ps: Ps,
    /// Vault index for vault failures, otherwise 0.
    pub vault: u32,
}

/// Running counters of what a plan actually injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Raw bit-flip events drawn.
    pub bit_flips: u64,
    /// Flips corrected by ECC.
    pub corrected: u64,
    /// Detected-uncorrectable flip events.
    pub uncorrectable: u64,
    /// Flips that went undetected (ECC disabled): silent corruption.
    pub silent: u64,
    /// Accesses refused because the PIM logic was unavailable.
    pub unavail_hits: u64,
    /// Accesses that touched a failed vault.
    pub vault_hits: u64,
    /// Simulated time spent under thermal throttle, in ps.
    pub throttled_ps: Ps,
}

impl FaultStats {
    /// Hand-rolled JSON rendering (this crate sits at the bottom of the
    /// workspace and stays dependency-free, so no JSON helper is used).
    /// Field order is fixed, so the output is byte-deterministic.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"bit_flips\":{},\"corrected\":{},\"uncorrectable\":{},\"silent\":{},\
             \"unavail_hits\":{},\"vault_hits\":{},\"throttled_ps\":{}}}",
            self.bit_flips,
            self.corrected,
            self.uncorrectable,
            self.silent,
            self.unavail_hits,
            self.vault_hits,
            self.throttled_ps,
        )
    }

    /// Merge another set of counters into this one.
    pub fn absorb(&mut self, other: &FaultStats) {
        self.bit_flips += other.bit_flips;
        self.corrected += other.corrected;
        self.uncorrectable += other.uncorrectable;
        self.silent += other.silent;
        self.unavail_hits += other.unavail_hits;
        self.vault_hits += other.vault_hits;
        self.throttled_ps += other.throttled_ps;
    }
}

/// Outcome of drawing DRAM faults for one access.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramFaultOutcome {
    /// Events ECC corrected; charge `corrected * ecc.correction_ps`.
    pub corrected: u64,
    /// Whether a detected-uncorrectable event occurred (transient fault).
    pub uncorrectable: bool,
}

/// A materialized fault schedule plus its per-access draw streams.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    config: FaultConfig,
    seed: u64,
    /// `(vault, fails_at_ps)` for vaults that fail inside the horizon.
    vault_failures: Vec<(u32, Ps)>,
    /// Sorted, disjoint `[start, end)` PIM-unavailability windows.
    unavail: Vec<(Ps, Ps)>,
    /// Sorted, disjoint `[start, end)` thermal-throttle windows.
    throttle: Vec<(Ps, Ps)>,
    /// Stream for per-access DRAM draws (salted per attempt).
    access_rng: SplitMix64,
    /// Carry of expected-flip mass below one event.
    flip_accum: f64,
    /// Offset added to attempt-local time to get world time: failed
    /// attempts and backoff advance the world clock, so a retry can
    /// outlive an unavailability window.
    world_offset_ps: Ps,
    stats: FaultStats,
}

impl FaultPlan {
    /// Build a plan; windowed events are drawn immediately from `seed`.
    pub fn new(config: FaultConfig, seed: u64) -> Result<Self, DmpimError> {
        config.validate()?;
        let mut world = SplitMix64::new(seed ^ 0x9E37_79B9_7F4A_7C15);
        let mut vault_failures = Vec::new();
        for v in 0..config.vaults {
            if world.chance(config.vault_fail_prob) {
                vault_failures.push((v, world.next_below(config.horizon_ps.max(1))));
            }
        }
        let draw_windows = |rng: &mut SplitMix64, n: u32, len: Ps, horizon: Ps| -> Vec<(Ps, Ps)> {
            let mut w: Vec<(Ps, Ps)> = (0..n)
                .map(|_| {
                    let start = rng.next_below(horizon.max(1));
                    (start, start.saturating_add(len))
                })
                .collect();
            w.sort_unstable();
            // Merge overlaps so queries are a simple scan.
            let mut merged: Vec<(Ps, Ps)> = Vec::with_capacity(w.len());
            for (s, e) in w {
                match merged.last_mut() {
                    Some(last) if s <= last.1 => last.1 = last.1.max(e),
                    _ => merged.push((s, e)),
                }
            }
            merged
        };
        let unavail =
            draw_windows(&mut world, config.unavail_windows, config.unavail_window_ps, config.horizon_ps);
        let throttle =
            draw_windows(&mut world, config.throttle_windows, config.throttle_window_ps, config.horizon_ps);
        Ok(Self {
            config,
            seed,
            vault_failures,
            unavail,
            throttle,
            access_rng: SplitMix64::new(seed ^ 0xBF58_476D_1CE4_E5B9),
            flip_accum: 0.0,
            world_offset_ps: 0,
            stats: FaultStats::default(),
        })
    }

    /// The configuration this plan was built from.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// The seed this plan was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Reset the per-access draw stream for a retry attempt. Windowed
    /// events stay fixed (they are world state); only transient draws are
    /// resalted, so a retry can succeed where the first attempt failed.
    pub fn start_attempt(&mut self, attempt: u64) {
        self.access_rng = SplitMix64::new(self.seed ^ 0xBF58_476D_1CE4_E5B9 ^ attempt.wrapping_mul(0x94D0_49BB_1331_11EB));
        self.flip_accum = 0.0;
    }

    /// Set the world-time offset of the current attempt (total simulated
    /// time consumed by earlier failed attempts plus backoff).
    pub fn set_world_offset(&mut self, offset_ps: Ps) {
        self.world_offset_ps = offset_ps;
    }

    /// The full windowed schedule, sorted by start time. Per-access draws
    /// are not part of the schedule (they depend on traffic).
    pub fn schedule(&self) -> Vec<FaultEvent> {
        let mut ev: Vec<FaultEvent> = Vec::new();
        for &(vault, at) in &self.vault_failures {
            ev.push(FaultEvent { kind: FaultKind::VaultFailure, at_ps: at, end_ps: at, vault });
        }
        for &(s, e) in &self.unavail {
            ev.push(FaultEvent { kind: FaultKind::PimUnavailable, at_ps: s, end_ps: e, vault: 0 });
        }
        for &(s, e) in &self.throttle {
            ev.push(FaultEvent { kind: FaultKind::ThermalThrottle, at_ps: s, end_ps: e, vault: 0 });
        }
        ev.sort_unstable_by_key(|e| (e.at_ps, e.kind.label(), e.vault));
        ev
    }

    /// Whether `vault` (an index as the memory system maps addresses to
    /// vaults) has failed by attempt-local time `now`.
    pub fn vault_failed(&mut self, vault: usize, now: Ps) -> bool {
        let world = now.saturating_add(self.world_offset_ps);
        let hit = self.vault_failures.iter().any(|&(fv, at)| fv as usize == vault && world >= at);
        if hit {
            self.stats.vault_hits += 1;
        }
        hit
    }

    /// If the PIM logic layer is unavailable at attempt-local `now`,
    /// return how long (ps) until the window ends.
    pub fn pim_unavailable(&mut self, now: Ps) -> Option<Ps> {
        let world = now.saturating_add(self.world_offset_ps);
        for &(s, e) in &self.unavail {
            if (s..e).contains(&world) {
                self.stats.unavail_hits += 1;
                return Some(e - world);
            }
            if s > world {
                break;
            }
        }
        None
    }

    /// Thermal slowdown factor in effect at attempt-local `now` (1.0 when
    /// not throttled).
    pub fn throttle_factor(&self, now: Ps) -> f64 {
        let world = now.saturating_add(self.world_offset_ps);
        for &(s, e) in &self.throttle {
            if (s..e).contains(&world) {
                return self.config.throttle_factor;
            }
            if s > world {
                break;
            }
        }
        1.0
    }

    /// Stretch `ps` of logic-layer time starting at attempt-local `now` by
    /// the thermal throttle in effect, booking the extra time as throttled.
    pub fn throttle(&mut self, now: Ps, ps: Ps) -> Ps {
        let slowed = stretch(ps, self.throttle_factor(now));
        self.note_throttled(slowed - ps);
        slowed
    }

    /// Record `ps` of execution spent under throttle (bookkeeping only).
    pub fn note_throttled(&mut self, ps: Ps) {
        self.stats.throttled_ps += ps;
    }

    /// The PIM-side fault state a batched engine may hold constant, in the
    /// manner of [`Watchdog::allowance`]. For back-to-back PIM accesses
    /// from attempt-local `now`, each stalling `stall_ps` before throttling,
    /// returns how far each advances the clock under the throttle in effect
    /// at `now`, and how many of them start before the next window edge (an
    /// unavailability start, a throttle start or end, a vault failure) — so
    /// every one of them gets the first one's [`Self::pim_unavailable`],
    /// [`Self::throttle_factor`] and [`Self::vault_failed`] answers. The
    /// count is 0 while the PIM is unavailable and once any vault has
    /// failed: those accesses must take the per-access checks.
    pub fn pim_window(&self, now: Ps, stall_ps: Ps) -> (Ps, u64) {
        let world = now.saturating_add(self.world_offset_ps);
        let step = stretch(stall_ps, self.throttle_factor(now));
        let unavailable = self.unavail.iter().any(|&(s, e)| (s..e).contains(&world));
        if unavailable || self.vault_failures.iter().any(|&(_, at)| at <= world) {
            return (step, 0);
        }
        let failures = self.vault_failures.iter().map(|&(_, at)| at);
        let unavail_starts = self.unavail.iter().map(|&(s, _)| s);
        let throttle_edges = self.throttle.iter().flat_map(|&(s, e)| [s, e]);
        let edges = failures.chain(unavail_starts).chain(throttle_edges);
        let rows = match edges.filter(|&t| t > world).min() {
            Some(edge) if step > 0 => (edge - world).div_ceil(step),
            _ => u64::MAX,
        };
        (step, rows)
    }

    /// Draw DRAM bit-flip events for `dram_bytes` of array traffic.
    ///
    /// Expected events accumulate fractionally across accesses, so small
    /// accesses are not immune; draws consume the per-attempt stream.
    pub fn draw_dram_faults(&mut self, dram_bytes: u64) -> DramFaultOutcome {
        let mut out = DramFaultOutcome::default();
        if self.config.bit_flips_per_gb == 0.0 || dram_bytes == 0 {
            return out;
        }
        self.flip_accum += dram_bytes as f64 / (1u64 << 30) as f64 * self.config.bit_flips_per_gb;
        // Leaky bucket: one event per unit of expected mass, so the event
        // *count* is a deterministic function of traffic; only the ECC
        // classification below consumes the attempt-salted stream (which is
        // what lets a retry outlive a transient uncorrectable hit).
        while self.flip_accum >= 1.0 {
            self.flip_accum -= 1.0;
            self.stats.bit_flips += 1;
            if !self.config.ecc.enabled {
                self.stats.silent += 1;
            } else if self.access_rng.chance(self.config.ecc.uncorrectable_fraction) {
                self.stats.uncorrectable += 1;
                out.uncorrectable = true;
            } else {
                self.stats.corrected += 1;
                out.corrected += 1;
            }
        }
        out
    }

    /// Counters of everything injected so far.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }
}

/// `ps` stretched by a throttle `factor` (exactly `ps` when unthrottled).
fn stretch(ps: Ps, factor: f64) -> Ps {
    if factor == 1.0 {
        ps
    } else {
        (ps as f64 * factor) as Ps
    }
}

/// Bounds on simulation-loop progress. A tripped watchdog surfaces as
/// [`DmpimError::WatchdogTimeout`] instead of a hung process.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Watchdog {
    /// Maximum simulated time a single run may consume, in ps.
    pub max_sim_ps: Option<Ps>,
    /// Maximum host-side events (accesses + op retirements) per run.
    pub max_host_events: Option<u64>,
}

impl Watchdog {
    /// No bounds (the default).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Bound both simulated time and host events.
    pub fn new(max_sim_ps: Ps, max_host_events: u64) -> Self {
        Self { max_sim_ps: Some(max_sim_ps), max_host_events: Some(max_host_events) }
    }

    /// Whether any bound is configured.
    pub fn is_armed(&self) -> bool {
        self.max_sim_ps.is_some() || self.max_host_events.is_some()
    }

    /// Check the bounds against the current counters.
    pub fn check(&self, now_ps: Ps, host_events: u64) -> Result<(), DmpimError> {
        if let Some(limit) = self.max_sim_ps {
            if now_ps > limit {
                return Err(DmpimError::WatchdogTimeout { what: "simulated time", limit, at_ps: now_ps });
            }
        }
        if let Some(limit) = self.max_host_events {
            if host_events > limit {
                return Err(DmpimError::WatchdogTimeout { what: "host events", limit, at_ps: now_ps });
            }
        }
        Ok(())
    }

    /// How many consecutive events pass the watchdog, for batched engines.
    ///
    /// Event `i` (0-based) is checked with counters
    /// `(now_ps + i * step_ps, host_events + i + 1)` — the same sequence a
    /// scalar loop produces when every event advances simulated time by
    /// `step_ps` *after* its check. Returns the largest `n` such that
    /// events `0..n` all pass; `0` means the very next check trips.
    pub fn allowance(&self, now_ps: Ps, host_events: u64, step_ps: Ps) -> u64 {
        let mut n = u64::MAX;
        if let Some(limit) = self.max_host_events {
            n = n.min(limit.saturating_sub(host_events));
        }
        if let Some(limit) = self.max_sim_ps {
            if now_ps > limit {
                return 0;
            }
            // Event i passes iff now + i*step <= limit.
            if let Some(extra) = (limit - now_ps).checked_div(step_ps) {
                n = n.min(extra + 1);
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_config_injects_nothing() {
        let mut p = FaultPlan::new(FaultConfig::none(), 42).unwrap();
        assert!(p.schedule().is_empty());
        assert!(!p.vault_failed(3, 1 << 40));
        assert!(p.pim_unavailable(123).is_none());
        assert_eq!(p.throttle_factor(123), 1.0);
        assert_eq!(p.pim_window(123, 500), (500, u64::MAX));
        assert_eq!(p.draw_dram_faults(1 << 30), DramFaultOutcome::default());
        assert_eq!(*p.stats(), FaultStats::default());
        assert!(FaultConfig::none().is_zero());
    }

    #[test]
    fn same_seed_same_schedule() {
        let cfg = FaultConfig::with_rate(0.8);
        let a = FaultPlan::new(cfg, 7).unwrap();
        let b = FaultPlan::new(cfg, 7).unwrap();
        assert_eq!(a.schedule(), b.schedule());
        let c = FaultPlan::new(cfg, 8).unwrap();
        // Different seeds should (overwhelmingly) differ for a hot config.
        assert_ne!(a.schedule(), c.schedule());
    }

    #[test]
    fn flips_scale_with_traffic() {
        let cfg = FaultConfig { bit_flips_per_gb: 100.0, ..FaultConfig::none() };
        let mut p = FaultPlan::new(cfg, 3).unwrap();
        for _ in 0..64 {
            p.draw_dram_faults(1 << 24); // 1 GiB total => ~100 events
        }
        let n = p.stats().bit_flips;
        assert!((40..250).contains(&n), "drew {n} flips");
        assert_eq!(p.stats().corrected + p.stats().uncorrectable, n);
    }

    #[test]
    fn ecc_disabled_means_silent_corruption() {
        let cfg = FaultConfig {
            bit_flips_per_gb: 100.0,
            ecc: EccConfig { enabled: false, ..EccConfig::default() },
            ..FaultConfig::none()
        };
        let mut p = FaultPlan::new(cfg, 3).unwrap();
        let out = p.draw_dram_faults(1 << 30);
        assert!(!out.uncorrectable);
        assert_eq!(out.corrected, 0);
        assert!(p.stats().silent > 0);
    }

    #[test]
    fn world_offset_outlives_windows() {
        let cfg = FaultConfig {
            unavail_windows: 3,
            unavail_window_ps: 1_000_000,
            horizon_ps: 10_000_000,
            ..FaultConfig::none()
        };
        let mut p = FaultPlan::new(cfg, 11).unwrap();
        let first = p.schedule().first().copied().unwrap();
        assert_eq!(first.kind, FaultKind::PimUnavailable);
        assert!(p.pim_unavailable(first.at_ps).is_some());
        // Push world time past the horizon: every window is behind us.
        p.set_world_offset(20_000_000);
        assert!(p.pim_unavailable(0).is_none());
    }

    #[test]
    fn retry_salt_changes_draws_but_not_schedule() {
        let cfg = FaultConfig::with_rate(1.0);
        let mut p = FaultPlan::new(cfg, 5).unwrap();
        let sched = p.schedule();
        p.start_attempt(0);
        let a: Vec<u64> = (0..8).map(|_| p.draw_dram_faults(1 << 28).corrected).collect();
        p.start_attempt(1);
        let b: Vec<u64> = (0..8).map(|_| p.draw_dram_faults(1 << 28).corrected).collect();
        p.start_attempt(0);
        let a2: Vec<u64> = (0..8).map(|_| p.draw_dram_faults(1 << 28).corrected).collect();
        assert_eq!(a, a2, "same attempt salt must reproduce draws");
        assert_ne!(a, b, "different salt should differ at rate 1.0");
        assert_eq!(p.schedule(), sched, "schedule is attempt-invariant");
    }

    /// One PIM access's view of the plan at attempt-local `t`:
    /// unavailable, throttle factor bits, failed vaults.
    fn pim_state(plan: &FaultPlan, t: Ps) -> (bool, u64, Vec<usize>) {
        let mut p = plan.clone();
        let failed = (0..p.config.vaults as usize).filter(|&v| p.vault_failed(v, t)).collect();
        (p.pim_unavailable(t).is_some(), p.throttle_factor(t).to_bits(), failed)
    }

    #[test]
    fn pim_window_rows_share_the_first_rows_fault_state() {
        let cfg = FaultConfig { vault_fail_prob: 0.2, ..FaultConfig::with_rate(1.0) };
        let mut rng = SplitMix64::new(0x57EA_D1E5);
        let mut opened = 0;
        for seed in 0..32 {
            let mut p = FaultPlan::new(cfg, seed).unwrap();
            p.set_world_offset(rng.next_below(cfg.horizon_ps / 4));
            for _ in 0..64 {
                let now = rng.next_below(cfg.horizon_ps);
                let stall = if rng.chance(0.1) { 0 } else { rng.next_below(cfg.horizon_ps / 64) };
                let (step, rows) = p.pim_window(now, stall);
                let first = pim_state(&p, now);
                assert_eq!(step, stretch(stall, f64::from_bits(first.1)), "seed {seed} now {now}");
                if rows == 0 {
                    assert!(first.0 || !first.2.is_empty(), "closed window at {now}: {first:?}");
                    continue;
                }
                opened += 1;
                assert!(!first.0 && first.2.is_empty(), "open window at {now}: {first:?}");
                let sampled = [1, rows / 2, rows - 1, rng.next_below(rows)];
                for i in sampled.into_iter().filter(|&i| i < rows) {
                    let t = now.saturating_add(i.saturating_mul(step));
                    assert_eq!(pim_state(&p, t), first, "seed {seed} now {now} row {i}/{rows}");
                }
            }
        }
        assert!(opened > 100, "only {opened} open windows sampled");
    }

    #[test]
    fn pim_window_is_closed_while_unavailable_and_after_a_vault_failure() {
        let cfg = FaultConfig { vault_fail_prob: 0.5, ..FaultConfig::with_rate(1.0) };
        let p = FaultPlan::new(cfg, 3).unwrap();
        let sched = p.schedule();
        for kind in [FaultKind::PimUnavailable, FaultKind::VaultFailure] {
            assert!(sched.iter().any(|e| e.kind == kind), "seed 3 schedules no {kind:?}");
        }
        for e in sched {
            let closed_at = match e.kind {
                FaultKind::PimUnavailable => vec![e.at_ps, (e.at_ps + e.end_ps) / 2, e.end_ps - 1],
                FaultKind::VaultFailure => vec![e.at_ps, e.at_ps + 1, u64::MAX],
                _ => continue,
            };
            for t in closed_at {
                assert_eq!(p.pim_window(t, 1_000).1, 0, "{e:?} at {t}");
            }
        }
    }

    #[test]
    fn validation_rejects_nonsense() {
        assert!(FaultConfig { vault_fail_prob: 1.5, ..FaultConfig::none() }.validate().is_err());
        assert!(FaultConfig { throttle_factor: 0.5, ..FaultConfig::none() }.validate().is_err());
        assert!(FaultConfig { vaults: 0, ..FaultConfig::none() }.validate().is_err());
        assert!(FaultConfig { bit_flips_per_gb: -1.0, ..FaultConfig::none() }.validate().is_err());
        assert!(FaultConfig::with_rate(0.5).validate().is_ok());
    }

    #[test]
    fn watchdog_trips_on_either_bound() {
        let w = Watchdog::new(1_000, 10);
        assert!(w.check(999, 9).is_ok());
        assert!(matches!(
            w.check(1_001, 0),
            Err(DmpimError::WatchdogTimeout { what: "simulated time", .. })
        ));
        assert!(matches!(
            w.check(0, 11),
            Err(DmpimError::WatchdogTimeout { what: "host events", .. })
        ));
        assert!(!Watchdog::unlimited().is_armed());
        assert!(Watchdog::unlimited().check(u64::MAX, u64::MAX).is_ok());
    }

    #[test]
    fn fault_stats_json_is_stable() {
        let s = FaultStats { bit_flips: 3, corrected: 2, uncorrectable: 1, ..Default::default() };
        assert_eq!(
            s.to_json(),
            "{\"bit_flips\":3,\"corrected\":2,\"uncorrectable\":1,\"silent\":0,\
             \"unavail_hits\":0,\"vault_hits\":0,\"throttled_ps\":0}"
        );
        assert_eq!(s.to_json(), s.to_json());
    }
}
